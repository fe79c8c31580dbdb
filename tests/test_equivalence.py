

import os

import pytest

import weakhopf
from weakhopf import identities as ids
from weakhopf.algebra import AlgebraData, StructureError, convolve
from weakhopf.crossed import (
    WeakMeasure,
    base_action_measure,
    build_crossed_product,
    smash_cocycle,
    trivial_measure,
)
from weakhopf.equivalence import (
    NotAnEquivalence,
    ProductPair,
    equivalence_from_phi,
    iso_laws,
    phi_from_iso,
)
from weakhopf.fields import GF, QQ
from weakhopf.groupoid import cyclic, direct_product
from weakhopf.ir import Env, eval_text
from weakhopf.linalg import LinMap, Obj, compose, identity, rename_factor, tensor_product, zero_map
from weakhopf.presentation import load_presentation
from weakhopf.report import VerdictReport

from instances import dual_group_hopf, pair_groupoid_hopf, z2_hopf


PAIR = os.path.join(os.path.dirname(weakhopf.__file__), "corpus", "pair_groupoid_smash.json")


def pair_product(field=QQ):
    H = pair_groupoid_hopf(field=field)
    m = base_action_measure(H)
    return H, m, build_crossed_product(m, smash_cocycle(m))


def scaled_phi(m, H, t0, t1):
    """phi(g_ij) = (t_i / t_j) z_i: the full family of valid data here."""
    phi = zero_map(m.field, (H.obj,), (m.A.obj,))
    t = [t0, t1]
    for col, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        phi.rows[i][col] = m.field.from_int(t[i], t[j])
    return phi


def test_unit_datum_gives_identity_iso():
    H, m, E = pair_product()
    Phi, report = equivalence_from_phi(E, E, m.u(1))
    assert report.all_pass
    assert Phi == identity(QQ, E.obj)


def test_identity_iso_recovers_unit_datum():
    H, m, E = pair_product()
    phi = phi_from_iso(E, E, identity(QQ, E.obj))
    assert phi == m.u(1)


def test_hopf_case_unit_datum():
    H = z2_hopf()
    m = trivial_measure(H)
    E = build_crossed_product(m, smash_cocycle(m))
    Phi, report = equivalence_from_phi(E, E, m.u(1))
    assert report.all_pass
    assert Phi == identity(QQ, E.obj)
    # With the trivial action the unit datum is the convolution unit itself.
    assert m.u(1) == compose(m.A.eta, H.coalgebra.eps)
    assert phi_from_iso(E, E, identity(QQ, E.obj)) == m.u(1)


def test_zero_phi_fails_unit_condition():
    H, m, E = pair_product()
    Phi, report = equivalence_from_phi(E, E, zero_map(QQ, (H.obj,), (m.A.obj,)))
    assert Phi is None
    assert report.get("phi_unit").status == "fail"


def test_scaled_family_round_trips():
    H, m, E = pair_product()
    for t0, t1 in [(1, 2), (3, 1), (2, 5), (7, 3)]:
        phi = scaled_phi(m, H, t0, t1)
        Phi, report = equivalence_from_phi(E, E, phi)
        assert report.all_pass, [v.check_id for v in report.failures()]
        assert phi_from_iso(E, E, Phi) == phi
        # ... and the iso induced by the recovered datum is the iso again.
        Phi2, _ = equivalence_from_phi(E, E, phi_from_iso(E, E, Phi))
        assert Phi2 == Phi


def test_non_colinear_iso_rejected():
    H, m, E = pair_product()
    bad = identity(QQ, E.obj)
    bad.rows[0][0] = bad.rows[1][1] = QQ.zero
    bad.rows[0][1] = bad.rows[1][0] = QQ.one  # swap two basis vectors
    with pytest.raises(NotAnEquivalence):
        phi_from_iso(E, E, bad)


def test_scaled_phi_on_twisted_cocycle_target():
    # Same underlying data but a different valid phi need not fix the product:
    # the induced iso is still invertible and structure preserving.
    H, m, E = pair_product()
    phi = scaled_phi(m, H, 1, 4)
    Phi, report = equivalence_from_phi(E, E, phi)
    assert report.all_pass
    assert Phi != identity(QQ, E.obj)


def _twisted_product(t, field=QQ):
    from weakhopf.crossed import CocycleData, trivial_measure, build_crossed_product
    from weakhopf.linalg import zero_map

    H = z2_hopf(field)
    m = trivial_measure(H)
    f = zero_map(field, (H.obj, H.obj), (m.A.obj,))
    for (i, j), val in {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): t}.items():
        f.rows[0][i * 2 + j] = field.normalize(val)
    c = CocycleData(m, f)
    return m, c, build_crossed_product(m, c)


def test_distinct_products_related_by_square_scaling():
    # f(g,g) = 4 and f'(g,g) = 1 are cohomologous via phi = (1, 2):
    # the exchange condition reads t = c^2 t'.
    m, c4, E4 = _twisted_product(4)
    _, c1, E1 = _twisted_product(1)
    phi = zero_map(QQ, (m.H.obj,), (m.A.obj,))
    phi.rows[0][0] = QQ.normalize(1)
    phi.rows[0][1] = QQ.normalize(2)
    Phi, report = equivalence_from_phi(E4, E1, phi)
    assert report.all_pass, [v.check_id for v in report.failures()]
    assert Phi is not None and Phi != identity(QQ, E4.obj)
    assert phi_from_iso(E4, E1, Phi) == phi


def test_distinct_products_wrong_scaling_fails():
    m, c4, E4 = _twisted_product(4)
    _, c1, E1 = _twisted_product(1)
    phi = zero_map(QQ, (m.H.obj,), (m.A.obj,))
    phi.rows[0][0] = QQ.normalize(1)
    phi.rows[0][1] = QQ.normalize(3)  # 9 != 4: the cocycle exchange fails
    Phi, report = equivalence_from_phi(E4, E1, phi)
    assert Phi is None
    assert report.get("phi_cocycle_exchange").status == "fail"


def test_iso_witnesses_match_the_dense_route():
    # The iso laws are identity-table rows on the integer kernel; a map that
    # swaps two basis vectors must fail them at the same entries as the dense
    # compose/tensor_product chains.
    H, m, E = pair_product()
    bad = identity(QQ, E.obj)
    bad.rows[0][0] = bad.rows[1][1] = QQ.zero
    bad.rows[0][1] = bad.rows[1][0] = QQ.one
    Phi = LinMap.from_int_columns(QQ, bad.dom, (Obj("Ep", E.E_dim),), *bad.int_columns())
    env = ProductPair(E, E).context.child({"Phi": Phi})
    report = iso_laws(env, VerdictReport())
    idA, idH = identity(QQ, m.A.obj), identity(QQ, H.obj)
    left = compose(E.p, compose(tensor_product(m.A.mu, idH), tensor_product(idA, E.i)))
    dense = {
        "iso_unitary": (compose(bad, E.eta_E), E.eta_E),
        "iso_multiplicative": (compose(bad, E.mu_E), compose(E.mu_E, tensor_product(bad, bad))),
        "iso_left_linear": (compose(bad, left), compose(left, tensor_product(idA, bad))),
        "iso_colinear": (compose(E.delta_E, bad), compose(tensor_product(bad, idH), E.delta_E)),
    }
    for check_id, (lhs, rhs) in dense.items():
        diff = lhs.first_difference(rhs)
        v = report.get(check_id)
        if diff is None:
            assert v.passed, check_id
        else:
            assert (v.witness.row, v.witness.col, v.witness.lhs, v.witness.rhs) == diff, check_id
    assert report.get("iso_colinear").status == "fail"


def test_products_over_different_comultiplications_are_rejected():
    # The duals of Z4 and of Z2 x Z2 have the same algebra (functions on a
    # four-point set) but different comultiplications.
    products = []
    for group in (cyclic(4), direct_product(cyclic(2), cyclic(2))):
        m = trivial_measure(dual_group_hopf(group))
        products.append(build_crossed_product(m, smash_cocycle(m)))
    E, Ep = products
    assert E.measure.H.mu == Ep.measure.H.mu and E.measure.H.eta == Ep.measure.H.eta
    assert E.measure.H.delta != Ep.measure.H.delta
    with pytest.raises(NotAnEquivalence) as exc:
        equivalence_from_phi(E, Ep, E.measure.u(1))
    assert exc.value.check_id == "products_share_H"
    with pytest.raises(NotAnEquivalence) as exc:
        phi_from_iso(E, Ep, identity(QQ, E.obj))
    assert exc.value.check_id == "products_share_H"


def test_products_over_different_algebras_are_rejected():
    # A' = k with product 2xy and unit 1/2 is isomorphic to A = k but is not
    # A: the exchange conditions read A's product and the transport back
    # would read it too, so a pair over two algebras is refused as a pair.
    H = z2_hopf()
    m = trivial_measure(H)
    E = build_crossed_product(m, smash_cocycle(m))
    A = m.A
    mu2 = LinMap.from_int_columns(QQ, A.mu.dom, A.mu.cod, [{0: 2}], 1)
    half = LinMap.from_int_columns(QQ, (), A.eta.cod, [{0: 1}], 2)
    mp = WeakMeasure.checked(H, AlgebraData.checked(QQ, A.obj, mu2, half), m.rho)
    Ep = build_crossed_product(mp, smash_cocycle(mp))
    with pytest.raises(NotAnEquivalence) as exc:
        equivalence_from_phi(E, Ep, m.u(1))
    assert exc.value.check_id == "products_share_A"
    with pytest.raises(NotAnEquivalence) as exc:
        phi_from_iso(E, Ep, identity(QQ, E.obj))
    assert exc.value.check_id == "products_share_A"


def test_maps_of_the_wrong_type_are_refused_where_they_enter():
    pres = load_presentation(PAIR)
    H = pres.bialgebra()
    m = pres.measure(H)
    E = build_crossed_product(m, pres.cocycle(m))
    with pytest.raises(StructureError, match=r"^phi must be a map H -> A$"):
        equivalence_from_phi(E, E, pres.gen("S"))
    with pytest.raises(StructureError, match=r"^Phi must be a map E -> Ep$"):
        phi_from_iso(E, E, H.delta)


def test_an_equivalence_derives_one_context_per_call_from_E(monkeypatch):
    # Each call builds one pair, whose context is the only child of
    # E.context: the conditions, both transports and the iso laws run in
    # children of the pair's.
    pres = load_presentation(PAIR)
    m = pres.measure(pres.bialgebra())
    E = build_crossed_product(m, pres.cocycle(m))
    phi, base, calls = pres.phi(), E.context, []
    child = Env.child

    def counted(self, bindings=None):
        if self is base:
            calls.append(sorted(bindings or {}))
        return child(self, bindings)

    monkeypatch.setattr(Env, "child", counted)
    Phi, report = equivalence_from_phi(E, E, phi)
    assert report.all_pass
    assert phi_from_iso(E, E, Phi) == phi
    assert len(calls) == 2


def _pair_instance(field):
    H, m, E = pair_product(field)
    return m, E, E, scaled_phi(m, H, 1, 2), scaled_phi(m, H, 2, 1)


def _z2_instance(field):
    # f(g,g) = 4 and f'(g,g) = 1 related by phi = (1, 2), inverse (1, 1/2).
    m, _, E4 = _twisted_product(4, field)
    _, _, E1 = _twisted_product(1, field)
    phi = LinMap.from_int_columns(field, (m.H.obj,), (m.A.obj,), [{0: 1}, {0: 2}], 1)
    phi_inv = LinMap.from_int_columns(field, (m.H.obj,), (m.A.obj,), [{0: 2}, {0: 1}], 2)
    return m, E4, E1, phi, phi_inv


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("instance", [_pair_instance, _z2_instance], ids=["pair", "z2"])
def test_transport_back_matches_the_dense_route(instance, field):
    m, E, Ep, phi, phi_inv = instance(field)
    H, A = m.H, m.A
    assert convolve(phi, phi_inv, H.coalgebra, A) == m.u(1)
    assert convolve(phi_inv, phi, H.coalgebra, A) == Ep.measure.u(1)
    env = ProductPair(E, Ep).context.child({"phiinv": phi_inv})
    back = rename_factor(eval_text(ids.TRANSPORT_BACK_EXPR, env), {"Ep": Ep.obj.name})
    idA, idH = identity(field, A.obj), identity(field, H.obj)
    dense = compose(E.p, compose(
        tensor_product(A.mu, idH),
        compose(tensor_product(tensor_product(idA, phi_inv), idH),
                compose(tensor_product(idA, H.delta), Ep.i)),
    ))
    assert back == dense
    # ... and it inverts the transport of phi.
    Phi, report = equivalence_from_phi(E, Ep, phi)
    assert report.all_pass, [v.check_id for v in report.failures()]
    assert compose(back, Phi) == identity(field, E.obj)
    assert compose(Phi, back) == identity(field, Ep.obj)
