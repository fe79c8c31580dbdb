"""Comodule algebras, cleft extensions and the reconstruction machine.

From a cleft extension (B, j) with convolution invertible total integral
gamma this module recovers a weak measure and an invertible cocycle and
exhibits B as the corresponding unitary crossed product; together with the
forward direction in :mod:`weakhopf.crossed` the two constructions are
mutually inverse on instances.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import identities as ids
from .algebra import AlgebraData, StructureError, convolve, TensorPowerCoalgebra
from .bialgebra import WeakBialgebra
from .crossed import (
    CocycleData,
    CrossedProduct,
    WeakMeasure,
    build_crossed_product,
    check_weak_module_algebra,
    cocycle_inverse,
    eval_text,
)
from .ir import Env, run_identity_table
from .linalg import (
    LinMap,
    Obj,
    column_rank,
    compose,
    factor_through,
    identity,
    invert,
    nullspace_basis,
    rename_factor,
    same_subspace,
    tensor_product,
)
from .report import VerdictReport


class FactorizationFailed(ValueError):
    pass


@dataclass
class ComoduleAlgebra:
    """A unital algebra with a counitary coaction of H."""

    B: AlgebraData
    delta: LinMap  # B -> B (x) H
    H: WeakBialgebra

    def __post_init__(self):
        ob = self.B.obj
        if self.delta.dom != (ob,) or self.delta.cod != (ob, self.H.obj):
            raise StructureError("coaction must be a map B -> B,H")

    @property
    def field(self):
        return self.B.field

    def env(self, extra: Optional[dict] = None) -> Env:
        bindings = {"muB": self.B.mu, "etaB": self.B.eta, "dB": self.delta}
        if extra:
            bindings.update(extra)
        return self.H.base_env(extra=bindings)


def comodule_algebra_report(C: ComoduleAlgebra) -> VerdictReport:
    """Coaction laws, colinearity of the product, the six equivalent weak
    unit conditions and the cross-check that they agree."""
    report = VerdictReport("comodule algebra")
    run_identity_table(ids.COMODULE_IDENTITIES, C.env(), report)
    statuses = {report.get(cid).status for cid in ids.COMODULE_EQUIVALENT_IDS}
    report.add_bool(
        "weak_unit_forms_agree",
        len(statuses) == 1,
        note="equivalent unit conditions must stand or fall together",
    )
    return report


@dataclass
class Extension:
    comodule: ComoduleAlgebra
    A: AlgebraData
    j: LinMap  # A -> B

    def __post_init__(self):
        if self.j.dom != (self.A.obj,) or self.j.cod != (self.comodule.B.obj,):
            raise StructureError("j must be a map A -> B")

    @property
    def field(self):
        return self.A.field

    @property
    def H(self) -> WeakBialgebra:
        return self.comodule.H

    def env(self, extra: Optional[dict] = None) -> Env:
        bindings = {"muA": self.A.mu, "etaA": self.A.eta, "j": self.j}
        if extra:
            bindings.update(extra)
        return self.comodule.env(extra=bindings)


def coinvariant_subspace(C: ComoduleAlgebra) -> list:
    """Basis vectors (as flat lists) of ker(delta - (B (x) piL) . delta)."""
    piL = C.H.projection("L")
    cut = C.delta - compose(tensor_product(identity(C.field, C.B.obj), piL), C.delta)
    return [[r[0] for r in vec.rows] for vec in nullspace_basis(cut)]


def extension_check(X: Extension) -> VerdictReport:
    """j is an algebra monomorphism landing exactly on the coinvariants."""
    report = VerdictReport("extension")
    report.add_equality(
        "j_multiplicative",
        compose(X.j, X.A.mu),
        compose(X.comodule.B.mu, tensor_product(X.j, X.j)),
    )
    report.add_equality("j_unitary", compose(X.j, X.A.eta), X.comodule.B.eta)
    report.add_bool("j_injective", column_rank(X.j) == X.A.dim)
    kernel = coinvariant_subspace(X.comodule)
    image = [X.j.column(c) for c in range(X.j.ncols)]
    ok = same_subspace(kernel, image, X.comodule.B.dim, X.field)
    report.add_bool("j_is_equalizer", ok, note=f"coinvariants have dim {len(kernel)}")
    return report


@dataclass
class CleavingData:
    gamma: LinMap      # H -> B
    gamma_inv: LinMap  # H -> B


def cleaving_check(X: Extension, c: CleavingData) -> VerdictReport:
    """Total colinear integral, its convolution inverse laws, and the
    factorization of gamma . piL through j."""
    report = VerdictReport("cleaving")
    env = X.env(extra={"gamB": c.gamma, "gamBinv": c.gamma_inv})
    run_identity_table(ids.CLEAVING_IDENTITIES, env, report)
    target = compose(c.gamma, X.H.projection("L"))
    report.add_bool("cleft_factorization", factor_through(target, X.j) is not None)
    return report


@dataclass
class Decomposition:
    upsilon: LinMap
    q: LinMap
    p: LinMap
    w: LinMap
    w_tilde: LinMap
    omega: LinMap


def build_decomposition(X: Extension, c: CleavingData) -> Decomposition:
    """Split B against A (x) H: the coinvariant projection p obtained by
    factoring q through j, and the mutually inverse maps w and w-tilde.
    Each map is its formula in :mod:`weakhopf.identities`, evaluated in the
    extension's context.

    Raises FactorizationFailed when q does not land in the image of j, which
    witnesses a non-cleft input.
    """
    env = X.env(extra={"gamB": c.gamma, "gamBinv": c.gamma_inv})
    q = eval_text(ids.Q_CLEFT_EXPR, env)
    p = factor_through(q, X.j)
    if p is None:
        raise FactorizationFailed("q does not factor through j (input is not cleft)")
    env = env.extend({"p": p})
    return Decomposition(
        upsilon=eval_text(ids.UPSILON_EXPR, env),
        q=q,
        p=p,
        w=eval_text(ids.W_EXPR, env),
        w_tilde=eval_text(ids.W_TILDE_EXPR, env),
        omega=eval_text(ids.OMEGA_EXPR, env),
    )


def _decomposition_bindings(c: CleavingData, decomp: Decomposition) -> dict:
    return {
        "gamB": c.gamma,
        "gamBinv": c.gamma_inv,
        "q": decomp.q,
        "p": decomp.p,
        "w": decomp.w,
        "wt": decomp.w_tilde,
        "Ups": decomp.upsilon,
    }


def decomposition(X: Extension, c: CleavingData) -> tuple[Decomposition, VerdictReport]:
    """The decomposition of a cleft extension with the verdicts on its maps
    and on the induced idempotent omega on A (x) H."""
    decomp = build_decomposition(X, c)
    report = VerdictReport("decomposition")
    env = X.env(extra=_decomposition_bindings(c, decomp))
    run_identity_table(ids.DECOMPOSITION_IDENTITIES, env, report)
    rank = column_rank(decomp.omega)
    report.add_bool("omega_rank_is_dim_B", rank == X.comodule.B.dim, note=f"rank {rank}")
    return decomp, report


def sigma_env(X: Extension, c: CleavingData, decomp: Decomposition) -> Env:
    """The decomposition maps together with sigma and its inverse: the
    context of the recovered-inverse identities."""
    bindings = _decomposition_bindings(c, decomp)
    env = X.env(extra=bindings)
    bindings["sig"] = eval_text(ids.SIGMA_EXPR, env)
    bindings["siginv"] = eval_text(ids.SIGMA_INV_EXPR, env)
    return X.env(extra=bindings)


@dataclass
class Reconstruction:
    mu_tilde: LinMap
    nu_tilde: LinMap
    rho: LinMap
    f: LinMap
    measure: WeakMeasure
    cocycle: CocycleData
    decomp: Decomposition


def reconstruct(X: Extension, c: CleavingData) -> tuple[Reconstruction, VerdictReport]:
    """Transport the product of B along (w, w-tilde) and read off the measure
    and cocycle, computing each by its transported formula and by its closed
    form and asserting the two routes agree."""
    decomp, report = decomposition(X, c)
    env = X.env(extra=_decomposition_bindings(c, decomp))
    mu_tilde = eval_text(ids.MU_TILDE_EXPR, env)
    nu_tilde = eval_text(ids.NU_TILDE_EXPR, env)
    rho = eval_text(ids.RHO_TILDE_EXPR, env)
    f = eval_text(ids.F_TILDE_EXPR, env)
    report.add_equality("rho_routes_agree", rho, eval_text(ids.RHO_CLOSED_EXPR, env))
    report.add_equality("f_routes_agree", f, eval_text(ids.F_CLOSED_EXPR, env))
    measure = WeakMeasure(X.H, X.A, rho)
    cocycle = CocycleData(measure, f)
    env = measure.derived_env(
        extra={
            "f": f,
            "Ff": cocycle.Ff,
            "nu": nu_tilde,
            "mut": mu_tilde,
            "nut": nu_tilde,
            "w": decomp.w,
            "wt": decomp.w_tilde,
            "j": X.j,
            "gamB": c.gamma,
        }
    )
    run_identity_table(
        [
            ("measure_axiom", *ids.MEASURE_AXIOM[1:]),
            ("mu_tilde_associative", "mut * id(A,H) ; mut", "id(A,H) * mut ; mut"),
            ("mu_tilde_normalized_left", "mut ; w ; wt", "mut"),
            ("mu_tilde_normalized_right", "(w ; wt) * (w ; wt) ; mut", "mut"),
            ("nu_tilde_preunit_commutes", "id(A,H) * nut ; mut", "nut * id(A,H) ; mut"),
            ("nu_tilde_preunit_idempotent", "nut * nut ; mut", "nut"),
            ("omega_is_induced_idempotent", "id(A,H) * nut ; mut", "w ; wt"),
            ("nu_tilde_projected", "nut ; id(A) * piL", "nut"),
            ("gamma_via_w", "etaA * id(H) ; w", "gamB"),
            ("j_prime_via_wt", "id(A) * nut ; muA * id(H)", "j ; wt"),
            ("j_round_trip", "j ; wt ; w", "j"),
        ]
        + ids.BUILD_HYPOTHESES,
        env,
        report,
    )
    report.add_equality("nu_tilde_matches_canonical", nu_tilde, cocycle.nu)
    report.add_equality("mu_tilde_is_twisted_product", mu_tilde, eval_text(ids.MU_EE, cocycle.env()))
    wma = check_weak_module_algebra(measure)
    report.extend(wma, prefix="wma.")
    return Reconstruction(mu_tilde, nu_tilde, rho, f, measure, cocycle, decomp), report


def recover_inverse_cocycle(
    X: Extension, c: CleavingData
) -> tuple[Reconstruction, LinMap, LinMap, LinMap, VerdictReport]:
    """Reconstruct, then invert the recovered cocycle by factorization
    through j and check the result against the independent convolution
    solver: (reconstruction, sigma, sigma_inv, f_inv, report)."""
    recon, report = reconstruct(X, c)
    decomp = recon.decomp
    env = sigma_env(X, c, decomp)
    sigma, sigma_inv = env.bindings["sig"], env.bindings["siginv"]
    run_identity_table(ids.RECOVER_IDENTITIES, env, report)
    report.add_equality("sigma_factors_through_j", sigma, compose(X.j, recon.f))
    f_inv = factor_through(sigma_inv, X.j)
    if f_inv is None:
        raise FactorizationFailed("sigma inverse does not factor through j")
    u2 = recon.measure.u(2)
    report.add_equality("u2_closed_form", compose(decomp.p, compose(c.gamma, X.H.mu)), u2)
    power = TensorPowerCoalgebra(X.H.coalgebra, 2)
    report.add_equality("f_conv_finv_is_u2", convolve(recon.f, f_inv, power, X.A), u2)
    report.add_equality("finv_conv_f_is_u2", convolve(f_inv, recon.f, power, X.A), u2)
    solver_inv = cocycle_inverse(recon.cocycle)
    report.add_bool("solver_finds_inverse", solver_inv is not None)
    if solver_inv is not None:
        report.add_equality("finv_matches_solver", f_inv, solver_inv)
    return recon, sigma, sigma_inv, f_inv, report


def full_reconstruction(
    X: Extension, c: CleavingData
) -> tuple[Reconstruction, LinMap, LinMap, VerdictReport]:
    """One pass through decomposition, reconstruction, cocycle inversion and
    the rebuilt-product isomorphism: (reconstruction, f_inv, iso, report)."""
    recon, _, _, f_inv, report = recover_inverse_cocycle(X, c)
    E_rb = build_crossed_product(recon.measure, recon.cocycle)
    iso = compose(recon.decomp.w, E_rb.i)
    B = X.comodule.B
    idH = identity(X.field, X.H.obj)
    report.add_equality("iso_unitary", compose(iso, E_rb.eta_E), B.eta)
    report.add_equality(
        "iso_multiplicative",
        compose(iso, E_rb.mu_E),
        compose(B.mu, tensor_product(iso, iso)),
    )
    report.add_equality(
        "iso_colinear",
        compose(X.comodule.delta, iso),
        compose(tensor_product(iso, idH), E_rb.delta_E),
    )
    report.add_equality("iso_respects_embeddings", compose(iso, E_rb.j_nu), X.j)
    report.add_bool("iso_invertible", invert(iso) is not None)
    return recon, f_inv, iso, report


def crossed_to_cleft(
    E: CrossedProduct, gamma_inv: LinMap, carrier: str = "B"
) -> tuple[Extension, CleavingData]:
    """View a built crossed product as a cleft extension of its base."""
    ren = {E.obj.name: carrier}
    B = AlgebraData(
        E.field,
        Obj(carrier, E.E_dim),
        rename_factor(E.mu_E, ren),
        rename_factor(E.eta_E, ren),
    )
    comodule = ComoduleAlgebra(B, rename_factor(E.delta_E, ren), E.measure.H)
    ext = Extension(comodule, E.measure.A, rename_factor(E.j_nu, ren))
    cleaving = CleavingData(
        rename_factor(E.gamma, ren), rename_factor(gamma_inv, ren)
    )
    return ext, cleaving
