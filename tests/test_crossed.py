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
    equalizer_matches_base,
    eval_text,
    gamma_inverse,
    invert_cocycle,
    module_algebra_suite,
    smash_cocycle,
    trivial_measure,
    twisting,
)
from weakhopf.fields import GF, QQ
from weakhopf.identities import J_NU_PRIME, MU_EE
from weakhopf.linalg import LinMap, compose, identity, swap, tensor_product, zero_map

from instances import pair_groupoid_hopf, z2_hopf


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
    data._cache["nu"] = nu
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
    H, m, c = pair_smash()
    E = build_crossed_product(m, c)
    finv, _ = invert_cocycle(m, c)
    # Rebuild the measure over the antipode-free bialgebra.
    m2 = WeakMeasure(H.without_antipode(), m.A, m.rho)
    E2 = build_crossed_product(m2, CocycleData(m2, c.f))
    with pytest.raises(PreconditionFailed):
        gamma_inverse(E2, finv)


def test_equalizer_dimension():
    H, m, c = pair_smash()
    E = build_crossed_product(m, c)
    ok, dim = equalizer_matches_base(E)
    assert ok and dim == 2
    Hz, mz, cz = z2_smash()
    Ez = build_crossed_product(mz, cz)
    okz, dimz = equalizer_matches_base(Ez)
    assert okz and dimz == 1


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
    assert E.mu_E == compose(p, compose(eval_text(MU_EE, data.env()), tensor_product(i, i)))
    assert E.eta_E == compose(p, data.nu)
    assert E.j_nu == compose(p, eval_text(J_NU_PRIME, data.env()))
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
