import dataclasses
from fractions import Fraction

import pytest

from weakhopf.crossed import (
    CocycleData,
    HypothesisFailed,
    MeasureAxiomError,
    PreconditionFailed,
    WeakMeasure,
    base_action_measure,
    build_crossed_product,
    check_weak_module_algebra,
    cocycle_report,
    crossed_product_law_suite,
    equalizer_matches,
    eval_text,
    gamma_inverse,
    invert_cocycle,
    module_algebra_suite,
    smash_cocycle,
    trivial_measure,
    twisting,
)
from weakhopf.fields import GF, QQ
from weakhopf.algebra import StructureError
from weakhopf.groupoid import groupoid_algebra, pair_groupoid
from weakhopf.identities import COINVARIANT_CUT, J_NU_PRIME, MODULE_SUITE_ANTIPODE_IDENTITIES, MU_EE
from weakhopf.linalg import (
    LinMap,
    Obj,
    _int_rows,
    compose,
    identity,
    rref,
    swap,
    tensor_product,
    zero_map,
)

from instances import arrow_bialgebra, pair_groupoid_hopf, z2_hopf


def pair_smash():
    H = pair_groupoid_hopf()
    m = base_action_measure(H)
    return H, m, smash_cocycle(m)


def z2_smash():
    H = z2_hopf()
    m = trivial_measure(H)
    return H, m, smash_cocycle(m)


# -- measures ----------------------------------------------------------------

def test_pair_groupoid_action_structure_constants():
    H, m, _ = pair_smash()
    # rho(g_ij (x) z_k) = [j == k] z_i over basis m0_0, m0_1, m1_0, m1_1.
    expected = {(0, 0): (1, 0), (1, 1): (1, 0), (2, 0): (0, 1), (3, 1): (0, 1)}
    for g in range(4):
        for z in range(2):
            col = m.rho.column(g * 2 + z)
            want = expected.get((g, z))
            if want is None:
                assert all(not v for v in col)
            else:
                assert col == [QQ.normalize(v) for v in want]


def test_weak_module_algebra_reports():
    _, m, _ = pair_smash()
    assert check_weak_module_algebra(m).all_pass
    _, mz, _ = z2_smash()
    assert check_weak_module_algebra(mz).all_pass


def test_weak_module_algebra_table_runs_once_per_measure(monkeypatch):
    import weakhopf.crossed as crossed

    _, m, _ = pair_smash()
    first = check_weak_module_algebra(m)
    tables = []
    monkeypatch.setattr(crossed, "run_identity_table", lambda *a, **k: tables.append(a))
    first.add_fail("extra")  # a caller's edit must not reach the next call
    second = check_weak_module_algebra(m)
    assert tables == []
    assert second.title == first.title
    assert second.to_json_entries(QQ) == first.to_json_entries(QQ)[:-1]
    assert [v.check_id for v in second][-1] == "equivalent_forms_agree"


def test_kept_verdicts_are_shared_and_immutable():
    _, m, _ = pair_smash()
    first, second = check_weak_module_algebra(m), check_weak_module_algebra(m)
    assert first is not second
    assert all(a is b for a, b in zip(first, second, strict=True))
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.get("measure_axiom").status = "fail"


def test_measure_axiom_perturbation_fails_with_witness():
    H, m, _ = pair_smash()
    rho = LinMap(QQ, m.rho.dom, m.rho.cod, [list(r) for r in m.rho.rows])
    rho.rows[0][2] = QQ.normalize(1)  # flip one structure constant
    bad = WeakMeasure(H, m.A, rho)
    report = check_weak_module_algebra(bad)
    v = report.get("measure_axiom")
    assert v.status == "fail" and v.witness is not None
    with pytest.raises(MeasureAxiomError):
        WeakMeasure.checked(H, m.A, rho)


def test_twisting_values_and_counit():
    H, m, _ = pair_smash()
    chi, report = twisting(m)
    assert report.all_pass
    # chi(g_ij (x) z_k) = [j == k] z_i (x) g_ij
    for g in range(4):
        i, j = divmod(g, 2)
        for z in range(2):
            col = chi.column(g * 2 + z)
            nz = {idx: v for idx, v in enumerate(col) if v}
            if z == j:
                assert nz == {i * 4 + g: QQ.one}
            else:
                assert nz == {}


def test_twisting_trivial_action_is_swap():
    H, m, _ = z2_smash()
    chi, report = twisting(m)
    assert report.all_pass
    assert chi == swap((H.obj,), (m.A.obj,), QQ)


# -- cocycles ----------------------------------------------------------------

def test_cocycle_reports_all_pass():
    for H, m, c in (pair_smash(), z2_smash()):
        assert cocycle_report(m, c).all_pass


def test_smash_cocycle_values():
    _, m, c = pair_smash()
    # u2(g_ij (x) g_kl) = [j == k] z_i
    for g in range(4):
        i, j = divmod(g, 2)
        for h in range(4):
            k, l = divmod(h, 2)
            col = c.f.column(g * 4 + h)
            nz = {idx: v for idx, v in enumerate(col) if v}
            assert nz == ({i: QQ.one} if j == k else {})


def test_cocycle_perturbation_breaks_normality():
    H, m, c = pair_smash()
    f = LinMap(QQ, c.f.dom, c.f.cod, [list(r) for r in c.f.rows])
    f.rows[0][0] = QQ.normalize(2)  # scale f(g00 (x) g00)
    report = cocycle_report(m, CocycleData(m, f))
    assert not report.all_pass
    failing = {v.check_id for v in report.failures()}
    assert "cocycle_normal_left" in failing or "cocycle_normal_right" in failing


@pytest.mark.parametrize("col,broken", [(2, "cocycle_counit_form"), (8, "cocycle_image_normalized")])
def test_an_unnormalized_cocycle_skips_the_level_comparisons(col, broken):
    # f(g00 (x) g10) or f(g10 (x) g00) raised by one: one normalization form
    # fails, so comparing the plain and lifted levels says nothing.
    H, m, c = pair_smash()
    f = LinMap(QQ, c.f.dom, c.f.cod, [list(r) for r in c.f.rows])
    f.rows[0][col] = QQ.normalize(f.rows[0][col] + 1)
    report = cocycle_report(m, CocycleData(m, f))
    forms = {"cocycle_counit_form", "cocycle_image_normalized"}
    assert {cid for cid in forms if not report.get(cid).passed} == {broken}
    assert report.get("cocycle_conv_u2").status == "fail"
    assert report.get("normalization_forms_agree").passed
    for cid in ("twisted_module_levels_agree", "cocycle_levels_agree"):
        assert report.get(cid).status == "skipped", cid
    full = cocycle_report(m, c)
    assert full.get("cocycle_levels_agree").passed and full.get("twisted_module_levels_agree").passed


# -- construction -------------------------------------------------------------

def test_build_pair_smash_shape_and_canonical_values():
    H, m, c = pair_smash()
    E = build_crossed_product(m, c)
    assert E.E_dim == 4
    # nu = sum_k z_k (x) g_kk: indices (z, g): z*4 + g with g in {0, 3}.
    nz = {i for i, row in enumerate(E.nu.rows) if row[0]}
    assert nz == {0 * 4 + 0, 1 * 4 + 3}
    # gamma followed by the inclusion lands on z_i (x) g_ij.
    ig = compose(E.i, E.gamma)
    for g in range(4):
        i, _ = divmod(g, 2)
        col = ig.column(g)
        nzc = {idx for idx, v in enumerate(col) if v}
        assert nzc == {i * 4 + g}


def test_build_trivial_smash_is_tensor_algebra():
    H, m, c = z2_smash()
    E = build_crossed_product(m, c)
    assert E.E_dim == m.A.dim * H.dim
    assert m.nabla == identity(QQ, m.nabla.dom)  # nabla is the identity here
    assert E.i.rows == identity(QQ, E.obj).rows
    # The product is the tensor-product algebra A (x) H.
    muAH = tensor_product(m.A.mu, H.mu)
    mid = tensor_product(
        identity(QQ, m.A.obj), swap((H.obj,), (m.A.obj,), QQ), identity(QQ, H.obj)
    )
    expected = compose(muAH, mid)
    got = compose(E.i, compose(E.mu_E, tensor_product(E.p, E.p)))
    assert got == expected


def test_build_reports_first_failed_hypothesis():
    H, m, c = pair_smash()
    f = LinMap(QQ, c.f.dom, c.f.cod, [list(r) for r in c.f.rows])
    f.rows[0][0] = QQ.zero  # zero f on a grouplike pair
    with pytest.raises(HypothesisFailed) as exc:
        build_crossed_product(m, CocycleData(m, f))
    # The deleted entry breaks the cocycle exchange law before anything else.
    assert exc.value.check_id == "cocycle"
    assert exc.value.witness is not None


def test_build_rejects_broken_preunit():
    # Perturbing f alone cannot make the second preunit law the *first*
    # failure (the cocycle law ties the two normality sides together), so
    # inject a corrupted derived preunit and check the failure is named.
    H, m, c = pair_smash()
    data = CocycleData(m, c.f)
    nu = LinMap(QQ, data.nu.dom, data.nu.cod, [list(r) for r in data.nu.rows])
    nu.rows[0][0] = QQ.normalize(nu.rows[0][0] + 1)
    nu.rows[1][0] = QQ.normalize(nu.rows[1][0] - 1)
    vars(data)["nu"] = nu  # the fields are frozen: replace the kept preunit
    with pytest.raises(HypothesisFailed) as exc:
        build_crossed_product(m, data)
    assert exc.value.check_id == "preunit2"
    assert exc.value.witness is not None


def test_law_suites_all_pass():
    for H, m, c in (pair_smash(), z2_smash()):
        E = build_crossed_product(m, c)
        assert crossed_product_law_suite(E).all_pass
        assert module_algebra_suite(E).all_pass


def test_corrupted_coaction_fails_colinearity():
    # Note: composing the comultiplication with the symmetry is a no-op on a
    # grouplike basis, so corrupt the coaction by permuting two basis arrows
    # of the H output instead.
    H, m, c = pair_smash()
    E = build_crossed_product(m, c)
    perm = identity(QQ, H.obj)
    perm.rows[0][0] = perm.rows[1][1] = QQ.zero
    perm.rows[0][1] = perm.rows[1][0] = QQ.one
    twisted = compose(tensor_product(identity(QQ, E.obj), perm), E.delta_E)
    assert twisted != E.delta_E
    bad = dataclasses.replace(E, delta_E=twisted)
    report = crossed_product_law_suite(bad)
    assert report.get("mu_E_colinear").status == "fail"


def test_module_suite_skips_without_module_algebra():
    # The zero action is a legal weak measure (both sides of the axiom
    # vanish) but it is not unital, so the module-algebra suite must gate.
    H = pair_groupoid_hopf()
    m = base_action_measure(H)
    zero_rho = zero_map(QQ, m.rho.dom, m.rho.cod)
    m0 = WeakMeasure.checked(H, m.A, zero_rho)
    assert not check_weak_module_algebra(m0).all_pass
    E0 = build_crossed_product(m0, CocycleData(m0, zero_map(QQ, (H.obj, H.obj), (m.A.obj,))))
    assert E0.E_dim == 0  # the induced idempotent is zero
    report = module_algebra_suite(E0)
    assert all(v.status == "skipped" for v in report)
    with pytest.raises(PreconditionFailed, match="needs a weak module algebra"):
        gamma_inverse(E0, zero_map(QQ, (H.obj, H.obj), (m.A.obj,)))


# -- cocycle inversion ---------------------------------------------------------

def test_invert_smash_cocycle_is_u2():
    H, m, c = pair_smash()
    finv, report = invert_cocycle(m, c)
    assert finv == m.u(2)
    assert report.all_pass


def test_invert_trivial_cocycle():
    H, m, c = z2_smash()
    finv, report = invert_cocycle(m, c)
    assert report.all_pass
    # eta_A . (eps (x) eps) has every entry 1 here.
    assert finv == c.f


def test_twisted_group_cocycle_inverts():
    H, m, _ = z2_smash()
    f = zero_map(QQ, (H.obj, H.obj), (m.A.obj,))
    t = Fraction(5)
    for (i, j), val in {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): t}.items():
        f.rows[0][i * 2 + j] = QQ.normalize(val)
    c = CocycleData(m, f)
    assert cocycle_report(m, c).all_pass
    finv, report = invert_cocycle(m, c)
    assert report.all_pass
    assert finv.rows[0][3] == Fraction(1, 5)
    E = build_crossed_product(m, c)
    assert crossed_product_law_suite(E).all_pass
    gaminv, gi = gamma_inverse(E, finv)
    assert gi.all_pass


def test_non_invertible_cocycle_detected():
    H, m, c = pair_smash()
    f = LinMap(QQ, c.f.dom, c.f.cod, [list(r) for r in c.f.rows])
    f.rows[0][0] = QQ.zero  # zero f on a grouplike pair: f*x = u2 unsolvable
    finv, report = invert_cocycle(m, CocycleData(m, f))
    assert finv is None
    assert report.get("cocycle_invertible").status == "fail"


# -- the integral inverse -----------------------------------------------------

def test_gamma_inverse_pair_smash_values():
    H, m, c = pair_smash()
    E = build_crossed_product(m, c)
    finv, _ = invert_cocycle(m, c)
    gaminv, report = gamma_inverse(E, finv)
    assert report.all_pass
    assert report.get("is_cleft").passed
    # gamma^{-1}(g_ij) = class of z_j (x) g_ji; check through the inclusion.
    ig = compose(E.i, gaminv)
    for g in range(4):
        i, j = divmod(g, 2)
        gt = j * 2 + i  # index of g_ji
        col = ig.column(g)
        nz = {idx for idx, v in enumerate(col) if v}
        assert nz == {j * 4 + gt}


def test_gamma_inverse_hopf_is_gamma_antipode():
    H, m, c = z2_smash()
    E = build_crossed_product(m, c)
    finv, _ = invert_cocycle(m, c)
    gaminv, report = gamma_inverse(E, finv)
    assert report.all_pass
    assert gaminv == compose(E.gamma, H.antipode)


def test_gamma_inverse_rejects_zero_inverse():
    H, m, c = pair_smash()
    E = build_crossed_product(m, c)
    gaminv, report = gamma_inverse(E, zero_map(QQ, (H.obj, H.obj), (m.A.obj,)))
    assert not report.all_pass
    assert report.get("gammainv_conv_right").status == "fail"


def test_gamma_inverse_needs_antipode():
    # The arrow category's algebra is a weak bialgebra with no antipode.
    H = arrow_bialgebra()
    m = base_action_measure(H)
    c = smash_cocycle(m)
    E = build_crossed_product(m, c)
    finv, inv_report = invert_cocycle(m, c)
    assert H.antipode is None and finv is not None and inv_report.all_pass
    with pytest.raises(PreconditionFailed):
        gamma_inverse(E, finv)
    # The module suite runs on E but skips the rows that need the antipode.
    report = module_algebra_suite(E)
    needs_s = [row[0] for row in MODULE_SUITE_ANTIPODE_IDENTITIES]
    assert [report.get(cid).status for cid in needs_s] == ["skipped"] * len(needs_s)
    assert all(v.passed for v in report if v.check_id not in needs_s)


def test_equalizer_dimension():
    H, m, c = pair_smash()
    E = build_crossed_product(m, c)
    ok, dim = equalizer_matches(H, E.delta_E, E.j_nu)
    assert ok and dim == 2
    Hz, mz, cz = z2_smash()
    Ez = build_crossed_product(mz, cz)
    okz, dimz = equalizer_matches(Hz, Ez.delta_E, Ez.j_nu)
    assert okz and dimz == 1


def _cut(H, delta):
    """cut = delta - delta ; id(X) * piL, whose kernel is the coinvariants."""
    env = H.base_env().child({"d": delta})
    return delta - eval_text(COINVARIANT_CUT.format(delta.dom[0].name), env)


def kernel_route(H, delta, j):
    """The kernel-basis route to the coinvariant verdict, kept as the
    oracle of the rank route: a basis of ker cut read off the reduced form
    of cut, whose span must equal the span of j's columns."""
    field, n = delta.field, delta.ncols
    red, pivots = rref(_int_rows(_cut(H, delta)), n, field)
    kernel = []
    for free in sorted(set(range(n)) - set(pivots)):
        vec = [field.zero] * n
        vec[free] = field.one
        for row, col in zip(red, pivots):
            vec[col] = field.normalize(-row.get(free, 0))
        kernel.append(vec)

    def span(vectors):
        m = LinMap(field, (Obj("C", n),), (Obj("V", len(vectors)),), vectors)
        return rref(_int_rows(m), n, field)[0]
    return span(kernel) == span([j.column(c) for c in range(j.ncols)]), len(kernel)


def _with_columns(j, columns):
    """A map into j's codomain with the given columns."""
    dom = (Obj("U", len(columns)),)
    return LinMap(j.field, dom, j.cod, [[col[i] for col in columns] for i in range(j.nrows)])


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("instance", ["pair", "z2"])
def test_equalizer_rank_route_matches_the_kernel_route(instance, field):
    # The rank route (j ; cut = 0 and rank j = dim ker cut) and the kernel
    # route agree on the product's own j, on j with a column swapped for a
    # vector that is not coinvariant, with a column dropped, and with a
    # column duplicated (so j is not injective).  A duplicate in place of
    # another column loses a dimension of the image; one appended keeps the
    # image, which is still exactly the coinvariants.
    H = pair_groupoid_hopf(field=field) if instance == "pair" else z2_hopf(field)
    m = base_action_measure(H) if instance == "pair" else trivial_measure(H)
    E = build_crossed_product(m, smash_cocycle(m))
    delta, j = E.delta_E, E.j_nu
    columns = [j.column(c) for c in range(j.ncols)]
    dim = j.ncols  # the product's base embedding is onto the coinvariants
    cut = _cut(H, delta)
    k = next(k for k in range(cut.ncols) if any(cut.column(k)))
    outside = [field.one if i == k else field.zero for i in range(cut.ncols)]
    cases = {
        "own": (j, True),
        "swapped": (_with_columns(j, [outside] + columns[1:]), False),
        "dropped": (_with_columns(j, columns[:-1]), False),
        "appended": (_with_columns(j, columns + columns[:1]), True),
    }
    if len(columns) > 1:
        cases["duplicated"] = (_with_columns(j, columns[:1] + columns[:-1]), False)
    for name, (jj, expected) in cases.items():
        got = equalizer_matches(H, delta, jj)
        assert got == kernel_route(H, delta, jj), name
        assert got == (expected, dim), name


def test_randomized_groupoid_smash_invariants():
    import random

    from weakhopf.groupoid import enumerate_groupoids, groupoid_algebra

    rng = random.Random(7)
    universe = enumerate_groupoids(3, 9)
    picks = rng.sample(range(len(universe)), 6)
    for idx in picks:
        name, G = universe[idx]
        field = QQ if idx % 2 == 0 else GF(7)
        H = groupoid_algebra(G, field)
        m = base_action_measure(H)
        c = smash_cocycle(m)
        assert m.nabla == compose(m.nabla, m.nabla)
        assert m.chi == compose(m.nabla, m.chi)
        E = build_crossed_product(m, c)
        assert compose(E.i, E.p) == m.nabla
        assert compose(E.p, E.i) == identity(field, E.obj)
        law = crossed_product_law_suite(E)
        assert law.all_pass, (name, [v.check_id for v in law.failures()])


def test_full_pipeline_characteristic_two():
    # Characteristic 2 exercises arithmetic where signs vanish.
    from weakhopf.cleft import crossed_to_cleft, full_reconstruction

    H = pair_groupoid_hopf(2, GF(2))
    m = base_action_measure(H)
    c = smash_cocycle(m)
    E = build_crossed_product(m, c)
    assert crossed_product_law_suite(E).all_pass
    assert module_algebra_suite(E).all_pass
    finv, rep = invert_cocycle(m, c)
    assert rep.all_pass and finv == m.u(2)
    gaminv, gi = gamma_inverse(E, finv)
    assert gi.all_pass
    X, cl = crossed_to_cleft(E, gaminv)
    recon, finv2, iso, report = full_reconstruction(X, cl)
    assert report.all_pass
    assert recon.rho == m.rho and recon.f == c.f and finv2 == finv


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_product_maps_and_unit_powers_match_the_dense_route(field):
    # The product's maps and the measure's unit powers are formulas on the
    # integer kernel; the dense compose/tensor_product chains are the oracle.
    H = pair_groupoid_hopf(3, field)
    m = base_action_measure(H)
    data = smash_cocycle(m)
    E = build_crossed_product(m, data)
    idA, idH = identity(field, m.A.obj), identity(field, H.obj)
    i, p = E.i, E.p
    assert E.mu_E == compose(p, compose(eval_text(MU_EE, data.context), tensor_product(i, i)))
    assert E.eta_E == compose(p, data.nu)
    assert E.j_nu == compose(p, eval_text(J_NU_PRIME, data.context))
    assert E.gamma == compose(p, tensor_product(m.A.eta, idH))
    assert E.delta_E == compose(tensor_product(p, idH), compose(tensor_product(idA, H.delta), i))

    u1 = compose(m.rho, tensor_product(idH, m.A.eta))
    assert m.u(1) == u1 == m.v(1)
    assert m.u(2) == compose(u1, H.mu)
    assert m.u(3) == compose(u1, compose(H.mu, tensor_product(H.mu, idH)))
    assert m.v(2) == compose(m.rho, tensor_product(idH, u1))
    assert m.v(3) == compose(m.rho, tensor_product(idH, m.v(2)))
    small = base_action_measure(pair_groupoid_hopf(2, field))
    hid, hmu = identity(field, small.H.obj), small.H.mu
    mu3 = compose(hmu, tensor_product(hmu, hid))
    assert small.u(4) == compose(small.u(1), compose(hmu, tensor_product(mu3, hid)))


def test_a_cocycle_over_another_measure_is_refused():
    # c1 is a cocycle over m1, not over m2: checking, inverting or building
    # with the pair (m2, c1) used to read c1's own measure and pass.
    H = groupoid_algebra(pair_groupoid(2), QQ)
    m1 = base_action_measure(H)
    c1 = smash_cocycle(m1)
    n = m1.A.dim
    rho2 = LinMap.from_int_columns(QQ, m1.rho.dom, m1.rho.cod,
                                   [{a: 1} for _ in range(H.dim) for a in range(n)], 1)
    m2 = WeakMeasure.checked(H, m1.A, rho2)  # rho2(h (x) a) = a
    for call in (cocycle_report, invert_cocycle, build_crossed_product):
        with pytest.raises(StructureError, match="another measure"):
            call(m2, c1)
    honest = CocycleData(m2, c1.f)
    assert not cocycle_report(m2, honest).get("cocycle_f").passed
    assert invert_cocycle(m2, honest)[0] is None
    # An equal measure is the cocycle's own.
    assert cocycle_report(WeakMeasure(H, m1.A, m1.rho), c1).all_pass
