import copy

import pytest

from weakhopf.algebra import convolve, conv_inverse, RegularityPreconditionFailed
from weakhopf.bialgebra import (
    InvalidStructure,
    WeakBialgebra,
    WeakHopfAlgebra,
    base_subalgebra,
    check_antipode,
    check_bialgebra_axioms,
    projection_identity_suite,
)
from weakhopf.crossed import base_action_measure
from weakhopf.fields import GF, QQ
from weakhopf.groupoid import groupoid_algebra, pair_groupoid
from weakhopf.linalg import LinMap, ShapeError, compose, from_rows, identity, zero_map

from instances import (
    arrow_bialgebra,
    brute_convolve,
    brute_projection_left,
    pair_groupoid_hopf,
    trivial_groupoid_hopf,
    z2_hopf,
)


def test_rebinding_a_read_structure_map_raises_instead_of_a_stale_pass():
    # Rebinding the rows of a map the kept contexts have read would leave
    # them on the old entries, so the axioms would still pass.
    H = groupoid_algebra(pair_groupoid(2), QQ)
    assert check_bialgebra_axioms(H).all_pass
    edited = [list(r) for r in H.mu.rows]
    edited[0][0] = QQ.normalize(edited[0][0] + 1)
    with pytest.raises(TypeError, match="read-only"):
        H.mu.rows = edited
    assert H.mu.rows != edited
    bad = LinMap(QQ, H.mu.dom, H.mu.cod, edited)
    assert not check_bialgebra_axioms(
        WeakBialgebra.unchecked(QQ, H.obj, bad, H.eta, H.delta, H.eps)).all_pass


def test_z2_axioms_all_pass():
    H = z2_hopf()
    assert check_bialgebra_axioms(H).all_pass
    assert check_antipode(H).all_pass


def test_pair_groupoid_axioms_all_pass():
    H = pair_groupoid_hopf()
    assert check_bialgebra_axioms(H).all_pass
    assert check_antipode(H).all_pass
    assert projection_identity_suite(H).all_pass


def test_a_checked_structure_refuses_an_edit_of_its_maps():
    # Its cached contexts keep the integer columns they read, so an edit in
    # place could not reach its verdicts; it raises instead.
    H = groupoid_algebra(pair_groupoid(2), QQ)
    mu = copy.deepcopy(H.mu)
    with pytest.raises(TypeError):
        H.mu.rows[0][0] += 1
    assert H.mu == mu
    assert check_bialgebra_axioms(H).all_pass


def test_broken_counit_fails_with_witness():
    good = pair_groupoid_hopf()
    eps = LinMap(QQ, good.eps.dom, good.eps.cod, [list(good.eps.rows[0])])
    eps.rows[0][1] = QQ.zero  # kill the counit on one off-diagonal basis arrow
    bad = WeakBialgebra.unchecked(QQ, good.obj, good.mu, good.eta, good.delta, eps)
    report = check_bialgebra_axioms(bad)
    failing = {v.check_id for v in report.failures()}
    assert "counit_weak_mult_1" in failing or "counit_weak_mult_2" in failing
    assert report.first_failure().witness is not None
    with pytest.raises(InvalidStructure):
        WeakBialgebra.checked(QQ, good.obj, good.mu, good.eta, good.delta, eps)


def test_projection_z2_is_unit_counit():
    H = z2_hopf()
    expected = compose(H.eta, H.eps)
    for kind in ("L", "R", "Lbar", "Rbar"):
        assert H.projection(kind) == expected


def test_projection_pair_groupoid_matches_brute_contraction():
    H = pair_groupoid_hopf()
    assert H.projection("L") == brute_projection_left(H)
    # Basis order: m0_0, m0_1, m1_0, m1_1 (targets 0,0,1,1): piL(g_ij) = g_ii.
    expected = from_rows(
        QQ,
        (H.obj,),
        (H.obj,),
        [[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1]],
    )
    assert H.projection("L") == expected


def test_projection_trivial_groupoid_is_identity():
    H = trivial_groupoid_hopf(2)
    assert H.projection("L") == identity(QQ, H.obj)
    assert H.projection("L") == brute_projection_left(H)


def test_wrong_antipode_fails_axiom_one():
    good = pair_groupoid_hopf()
    bad = WeakHopfAlgebra.unchecked(
        QQ, good.obj, good.mu, good.eta, good.delta, good.eps, identity(QQ, good.obj)
    )
    report = check_antipode(bad)
    v = report.get("antipode_cancel_left")
    assert v.status == "fail"
    # witness column: the first off-diagonal arrow (index 1), where
    # g . g = 0 but the target projection returns the identity at its target.
    assert v.witness.col == 1


def test_antipode_suite_passes_with_inversion():
    H = pair_groupoid_hopf()
    assert projection_identity_suite(H).all_pass
    # The arrow category's algebra has no antipode: its rows are skipped.
    rep = projection_identity_suite(arrow_bialgebra())
    assert rep.all_pass
    assert any(v.status == "skipped" for v in rep)


def test_convolution_unit_and_projection_identity():
    H = pair_groupoid_hopf()
    coalg, alg = H.coalgebra, H.algebra
    alpha = H.projection("L")
    unit = compose(alg.eta, coalg.eps)
    assert convolve(alpha, unit, coalg, alg) == alpha
    idh = identity(QQ, H.obj)
    assert convolve(idh, H.projection("R"), coalg, alg) == idh
    # Pointwise product of grouplike projections: piL * piL sends g_ij to g_ii.
    sq = convolve(alpha, alpha, coalg, alg)
    assert sq == alpha
    assert sq == brute_convolve(H, alpha, alpha)


def test_convolve_matches_brute_on_random_maps():
    H = pair_groupoid_hopf()
    a = from_rows(QQ, (H.obj,), (H.obj,), [[1, 2, 0, 0], [0, 1, 0, 3], [5, 0, 1, 0], [0, 0, 2, 1]])
    b = from_rows(QQ, (H.obj,), (H.obj,), [[0, 1, 1, 0], [2, 0, 0, 1], [0, 3, 1, 0], [1, 0, 0, 2]])
    assert convolve(a, b, H.coalgebra, H.algebra) == brute_convolve(H, a, b)


def test_conv_inverse_of_identity_is_antipode():
    H = z2_hopf()
    idh = identity(QQ, H.obj)
    unit = compose(H.algebra.eta, H.coalgebra.eps)
    x = conv_inverse(idh, unit, H.coalgebra, H.algebra)
    assert x == H.antipode  # S = id for the order-2 group


def test_conv_inverse_precondition():
    H = pair_groupoid_hopf()
    g = identity(QQ, H.obj)
    u = zero_map(QQ, (H.obj,), (H.obj,))
    with pytest.raises(RegularityPreconditionFailed):
        conv_inverse(g, u, H.coalgebra, H.algebra)
    # On H (x) H (n = 2): the unit power u2 of a measure is regular against
    # itself, and the zero map is not.
    m = base_action_measure(H)
    u2 = m.u(2)
    assert conv_inverse(u2, u2, H.coalgebra, m.A) == u2
    with pytest.raises(RegularityPreconditionFailed):
        conv_inverse(u2, zero_map(QQ, u2.dom, u2.cod), H.coalgebra, m.A)
    # A domain that is not a tensor power of the coalgebra's carrier.
    other = pair_groupoid_hopf(3)
    with pytest.raises(ShapeError):
        conv_inverse(identity(QQ, other.obj), identity(QQ, other.obj), H.coalgebra, H.algebra)
    with pytest.raises(ShapeError):
        conv_inverse(u2, u2, H.coalgebra, H.algebra)  # codomain A, not H


def test_base_subalgebra_dims():
    H = pair_groupoid_hopf()
    sub, inj, proj = base_subalgebra(H, "L")
    assert sub.dim == 2
    z2 = z2_hopf()
    sub2, _, _ = base_subalgebra(z2, "L")
    assert sub2.dim == 1
    triv = trivial_groupoid_hopf(2)
    sub3, _, _ = base_subalgebra(triv, "L")
    assert sub3.dim == 2


def test_groupoid_algebra_over_prime_field():
    H = pair_groupoid_hopf(2, GF(7))
    assert check_bialgebra_axioms(H).all_pass
    assert check_antipode(H).all_pass
    assert projection_identity_suite(H).all_pass


def test_z2_unit_coproduct_is_grouplike():
    H = z2_hopf()
    v = compose(H.delta, H.eta)
    expected = zero_map(QQ, (), (H.obj, H.obj))
    expected.rows[0][0] = QQ.one
    assert v == expected


def test_pair_groupoid_unit_coproduct_is_sum_of_diagonal_squares():
    # Delta(eta) = g00 (x) g00 + g11 (x) g11 over basis g00, g01, g10, g11.
    H = pair_groupoid_hopf()
    v = compose(H.delta, H.eta)
    nonzero_rows = [i for i, r in enumerate(v.rows) if r[0]]
    assert nonzero_rows == [0 * 4 + 0, 3 * 4 + 3]
