

import pytest

from weakhopf.crossed import base_action_measure, build_crossed_product, smash_cocycle, trivial_measure
from weakhopf.equivalence import NotAnEquivalence, _verify_iso, equivalence_from_phi, phi_from_iso
from weakhopf.fields import QQ
from weakhopf.groupoid import cyclic, direct_product
from weakhopf.linalg import compose, identity, tensor_product, zero_map
from weakhopf.report import VerdictReport

from instances import dual_group_hopf, pair_groupoid_hopf, z2_hopf


def pair_product():
    H = pair_groupoid_hopf()
    m = base_action_measure(H)
    return H, m, build_crossed_product(m, smash_cocycle(m))


def scaled_phi(m, H, t0, t1):
    """phi(g_ij) = (t_i / t_j) z_i: the full family of valid data here."""
    phi = zero_map(QQ, (H.obj,), (m.A.obj,))
    t = [QQ.normalize(t0), QQ.normalize(t1)]
    for col, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        phi.rows[i][col] = t[i] / t[j]
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


def _twisted_product(t):
    from weakhopf.crossed import CocycleData, trivial_measure, build_crossed_product
    from weakhopf.linalg import zero_map

    H = z2_hopf()
    m = trivial_measure(H)
    f = zero_map(QQ, (H.obj, H.obj), (m.A.obj,))
    for (i, j), val in {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): t}.items():
        f.rows[0][i * 2 + j] = QQ.normalize(val)
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
    report = VerdictReport()
    _verify_iso(E, E, bad, report)
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
