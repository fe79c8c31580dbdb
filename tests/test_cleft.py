import tracemalloc

import pytest

from weakhopf.algebra import AlgebraData
from weakhopf.bialgebra import base_subalgebra
from weakhopf.cleft import (
    CleavingData,
    ComoduleAlgebra,
    Extension,
    FactorizationFailed,
    build_decomposition,
    cleaving_check,
    comodule_algebra_report,
    crossed_to_cleft,
    decomposition,
    extension_check,
    full_reconstruction,
    reconstruct,
    recover_inverse_cocycle,
)
from weakhopf.crossed import (
    base_action_measure,
    build_crossed_product,
    gamma_inverse,
    invert_cocycle,
    smash_cocycle,
    trivial_measure,
)
from weakhopf.fields import GF, QQ
from weakhopf.linalg import (
    Obj,
    compose,
    factor_through,
    identity,
    invert,
    rename_factor,
    swap,
    tensor_product,
    zero_map,
)

from instances import pair_groupoid_hopf, z2_hopf


def pair_cleft(n=2, field=QQ):
    H = pair_groupoid_hopf(n, field)
    m = base_action_measure(H)
    c = smash_cocycle(m)
    E = build_crossed_product(m, c)
    finv, _ = invert_cocycle(m, c)
    gaminv, _ = gamma_inverse(E, finv)
    X, cl = crossed_to_cleft(E, gaminv)
    return H, m, c, E, finv, X, cl


def z2_cleft():
    H = z2_hopf()
    m = trivial_measure(H)
    c = smash_cocycle(m)
    E = build_crossed_product(m, c)
    finv, _ = invert_cocycle(m, c)
    gaminv, _ = gamma_inverse(E, finv)
    X, cl = crossed_to_cleft(E, gaminv)
    return H, m, c, E, finv, X, cl


# -- comodule algebras ---------------------------------------------------------

def test_built_product_is_comodule_algebra():
    *_, X, _ = pair_cleft()
    assert comodule_algebra_report(X.comodule).all_pass


def _H_as_comodule_over_itself():
    H = pair_groupoid_hopf()
    ren = {"H": "B"}
    B = AlgebraData(QQ, Obj("B", H.dim), rename_factor(H.mu, ren), rename_factor(H.eta, ren))
    # the coaction is the comultiplication: B -> B,H
    from weakhopf.linalg import LinMap

    delta = LinMap(QQ, (Obj("B", H.dim),), (Obj("B", H.dim), H.obj), H.delta.rows)
    return H, ComoduleAlgebra(B, delta, H)


def test_H_is_comodule_algebra_over_itself():
    _, C = _H_as_comodule_over_itself()
    assert comodule_algebra_report(C).all_pass


def test_twisted_coaction_fails_colinearity():
    H, C = _H_as_comodule_over_itself()
    perm = identity(QQ, H.obj)
    perm.rows[0][0] = perm.rows[1][1] = QQ.zero
    perm.rows[0][1] = perm.rows[1][0] = QQ.one
    from weakhopf.linalg import tensor_product
    import dataclasses

    bad = dataclasses.replace(C, delta=compose(tensor_product(identity(QQ, C.B.obj), perm), C.delta))
    report = comodule_algebra_report(bad)
    assert report.get("mu_B_colinear").status == "fail"


# -- extensions ----------------------------------------------------------------

def test_built_product_extension():
    *_, X, _ = pair_cleft()
    report = extension_check(X)
    assert report.all_pass
    assert "dim 2" in report.get("j_is_equalizer").note


def test_base_subalgebra_extension_of_H():
    # H itself with its comultiplication as coaction over the inclusion of
    # the target base subalgebra.
    H, C = _H_as_comodule_over_itself()
    sub, inj, proj = base_subalgebra(H, "L")
    ren = {sub.obj.name: "A"}
    A = AlgebraData(QQ, Obj("A", sub.dim), rename_factor(sub.mu, ren), rename_factor(sub.eta, ren))
    from weakhopf.linalg import LinMap

    j = LinMap(QQ, (A.obj,), (C.B.obj,), rename_factor(inj, ren).rows)
    X = Extension(C, A, j)
    report = extension_check(X)
    assert report.all_pass
    assert "dim 2" in report.get("j_is_equalizer").note


def test_noninjective_j_fails():
    *_, X, _ = pair_cleft()
    j = zero_map(QQ, X.j.dom, X.j.cod)
    bad = Extension(X.comodule, X.A, j)
    report = extension_check(bad)
    assert report.get("j_injective").status == "fail"


# -- cleaving -------------------------------------------------------------------

def test_cleaving_checks_pass():
    *_, X, cl = pair_cleft()
    assert cleaving_check(X, cl).all_pass
    *_, Xz, clz = z2_cleft()
    assert cleaving_check(Xz, clz).all_pass


def test_wrong_inverse_fails_conv_identity():
    *_, X, cl = pair_cleft()
    bad = CleavingData(cl.gamma, cl.gamma)  # gamma is not its own inverse
    report = cleaving_check(X, bad)
    assert report.get("cleaving_conv_right").status == "fail"


# -- decomposition ----------------------------------------------------------------

def test_decomposition_pair():
    *_, X, cl = pair_cleft()
    decomp, report = decomposition(X, cl)
    assert report.all_pass
    assert "rank 4" in report.get("omega_rank_is_dim_B").note


def test_decomposition_hopf_omega_is_identity():
    *_, Xz, clz = z2_cleft()
    decomp, report = decomposition(Xz, clz)
    assert report.all_pass
    assert decomp.omega == identity(QQ, decomp.omega.dom)


def test_corrupt_inverse_fails_factorization():
    *_, X, cl = pair_cleft()
    # With the constant unit in place of the inverse, q becomes the identity
    # of B, whose image escapes the coinvariants.
    bad_inv = compose(X.comodule.B.eta, X.H.eps)
    with pytest.raises(FactorizationFailed):
        decomposition(X, CleavingData(cl.gamma, bad_inv))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_decomposition_and_reconstruction_match_the_dense_route(field):
    # The maps are formulas evaluated on the integer kernel; the dense
    # compose/tensor_product chains are the independent oracle.
    *_, X, cl = pair_cleft(3, field)
    H, A, B = X.H, X.A, X.comodule.B
    idA, idB, idH = (identity(field, ob) for ob in (A.obj, B.obj, H.obj))
    d = build_decomposition(X, cl)
    assert d.upsilon == compose(
        tensor_product(idB, H.mu),
        compose(tensor_product(swap(H.obj, B.obj, field), idH), tensor_product(idH, X.comodule.delta)),
    )
    assert d.q == compose(B.mu, compose(tensor_product(idB, cl.gamma_inv), X.comodule.delta))
    assert d.p == factor_through(d.q, X.j)
    assert d.w == compose(B.mu, tensor_product(X.j, cl.gamma))
    assert d.w_tilde == compose(tensor_product(d.p, idH), X.comodule.delta)
    assert d.omega == compose(d.w_tilde, d.w)

    recon, report = reconstruct(X, cl)
    assert report.all_pass, [v.check_id for v in report.failures()]
    mu_tilde = compose(d.w_tilde, compose(B.mu, tensor_product(d.w, d.w)))
    nu_tilde = compose(d.w_tilde, B.eta)
    j_nu_prime = compose(tensor_product(A.mu, idH), tensor_product(idA, nu_tilde))
    eps_off = tensor_product(idA, H.eps)
    assert recon.mu_tilde == mu_tilde
    assert recon.nu_tilde == nu_tilde
    assert recon.rho == compose(eps_off, compose(mu_tilde, tensor_product(A.eta, idH, j_nu_prime)))
    assert recon.f == compose(eps_off, compose(mu_tilde, tensor_product(A.eta, idH, A.eta, idH)))
    assert recon.rho == compose(d.p, compose(B.mu, tensor_product(cl.gamma, X.j)))
    assert recon.f == compose(d.p, compose(B.mu, tensor_product(cl.gamma, cl.gamma)))


def test_decomposition_keeps_little_memory():
    # Pair groupoid n=3 over Q: the dense chains the formulas replaced peaked
    # at about 6 MB here.
    *_, X, cl = pair_cleft(3)
    tracemalloc.start()
    try:
        build_decomposition(X, cl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# -- reconstruction ----------------------------------------------------------------

def test_reconstruct_recovers_originals():
    H, m, c, E, finv, X, cl = pair_cleft()
    recon, report = reconstruct(X, cl)
    assert report.all_pass, [v.check_id for v in report.failures()]
    assert recon.rho == m.rho
    assert recon.f == c.f


def test_reconstruct_hopf_trivial():
    H, m, c, E, finv, X, cl = z2_cleft()
    recon, report = reconstruct(X, cl)
    assert report.all_pass
    assert recon.rho == m.rho
    assert recon.f == c.f


def test_recover_inverse_matches_solver():
    H, m, c, E, finv, X, cl = pair_cleft()
    recon, sigma, sigma_inv, f_inv, report = recover_inverse_cocycle(X, cl)
    assert report.all_pass, [v.check_id for v in report.failures()]
    assert f_inv == finv == m.u(2)


def test_u2_closed_form_value():
    from weakhopf.linalg import tensor_product

    H, m, c, E, finv, X, cl = pair_cleft()
    decomp, _ = decomposition(X, cl)
    # p(gamma(g_ij) gamma(g_kl)) = [j == k] z_i
    pgm = compose(decomp.p, compose(X.comodule.B.mu, tensor_product(cl.gamma, cl.gamma)))
    for g in range(4):
        i, j = divmod(g, 2)
        for h in range(4):
            k, l = divmod(h, 2)
            col = pgm.column(g * 4 + h)
            nz = {idx: v for idx, v in enumerate(col) if v}
            assert nz == ({i: QQ.one} if j == k else {})


def test_cleft_to_crossed_iso_verified():
    H, m, c, E, finv, X, cl = pair_cleft()
    recon, f_inv, iso, report = full_reconstruction(X, cl)
    assert report.all_pass, [v.check_id for v in report.failures()]
    assert invert(iso) is not None
    assert iso.nrows == iso.ncols == 4
    # Determinism makes the rebuilt product literally the original one, so
    # the composed round trip is the identity matrix.
    assert iso.rows == identity(QQ, Obj("E", 4)).rows


def test_round_trip_extension_equivalent():
    H, m, c, E, finv, X, cl = pair_cleft()
    recon, _ = reconstruct(X, cl)
    E2 = build_crossed_product(recon.measure, recon.cocycle)
    assert E2.mu_E == E.mu_E and E2.eta_E == E.eta_E
    from weakhopf.equivalence import equivalence_from_phi

    Phi, report = equivalence_from_phi(E, E2, recon.measure.u(1))
    assert report.all_pass
    assert Phi == identity(QQ, E.obj)
