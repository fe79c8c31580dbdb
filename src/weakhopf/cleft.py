"""Comodule algebras, cleft extensions and the reconstruction machine.

From a cleft extension (B, j) with convolution invertible total integral
gamma this module recovers a weak measure and an invertible cocycle and
exhibits B as the corresponding unitary crossed product; together with the
forward direction in :mod:`weakhopf.crossed` the two constructions are
mutually inverse on instances.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

from . import identities as ids
from .algebra import _Record, AlgebraData, RegularityPreconditionFailed, StructureError
from .bialgebra import WeakBialgebra
from .crossed import (
    CocycleData,
    CrossedProduct,
    HypothesisFailed,
    WeakMeasure,
    build_crossed_product,
    check_weak_module_algebra,
    equalizer_matches,
)
from .ir import Env, eval_text, run_identity_table
from .linalg import LinMap, Obj, column_rank, factor_through, invert, rename_factor
from .report import VerdictReport


class FactorizationFailed(ValueError):
    pass


@dataclass
class ComoduleAlgebra(_Record):
    """A unital algebra with a counitary coaction of H; ``context``, kept
    and built once, is H's base context plus muB, etaB and dB."""

    B: AlgebraData
    delta: LinMap  # B -> B (x) H
    H: WeakBialgebra

    def __post_init__(self):
        ob = self.B.obj
        if self.delta.dom != (ob,) or self.delta.cod != (ob, self.H.obj):
            raise StructureError("coaction must be a map B -> B,H")

    @cached_property
    def context(self) -> Env:
        return self.H.base_env().child({"muB": self.B.mu, "etaB": self.B.eta, "dB": self.delta})


def comodule_algebra_report(C: ComoduleAlgebra) -> VerdictReport:
    """Coaction laws, colinearity of the product, the six equivalent weak
    unit conditions and the cross-check that they agree."""
    report = VerdictReport("comodule algebra")
    run_identity_table(ids.COMODULE_IDENTITIES, C.context.child(), report)
    statuses = {report.get(cid).status for cid in ids.COMODULE_EQUIVALENT_IDS}
    report.add_bool(
        "weak_unit_forms_agree",
        len(statuses) == 1,
        note="equivalent unit conditions must stand or fall together",
    )
    return report


@dataclass
class Extension(_Record):
    """An algebra map j: A -> B into a comodule algebra; ``context``, kept
    and built once, is the comodule's plus muA, etaA and j."""

    comodule: ComoduleAlgebra
    A: AlgebraData
    j: LinMap  # A -> B

    def __post_init__(self):
        if self.j.dom != (self.A.obj,) or self.j.cod != (self.comodule.B.obj,):
            raise StructureError("j must be a map A -> B")

    @property
    def H(self) -> WeakBialgebra:
        return self.comodule.H

    @cached_property
    def context(self) -> Env:
        return self.comodule.context.child({"muA": self.A.mu, "etaA": self.A.eta, "j": self.j})


def extension_check(X: Extension) -> VerdictReport:
    """j is an algebra monomorphism landing exactly on the coinvariants."""
    report = VerdictReport("extension")
    run_identity_table(ids.EXTENSION_IDENTITIES, X.context.child(), report)
    report.add_bool("j_injective", column_rank(X.j) == X.A.dim)
    ok, dim = equalizer_matches(X.H, X.comodule.delta, X.j)
    report.add_bool("j_is_equalizer", ok, note=f"coinvariants have dim {dim}")
    return report


@dataclass
class Decomposition(_Record):
    """The maps splitting B against A (x) H; ``context`` is the cleaving's
    plus the maps bound as p, q, w, wt and Ups, kept from the context they
    were evaluated in.  ``sigma_context``, kept and built once, is
    ``context`` plus sigma and its inverse (sig, siginv), evaluated in it:
    the context of the recovered-inverse identities."""

    upsilon: LinMap
    q: LinMap
    p: LinMap
    w: LinMap
    w_tilde: LinMap
    omega: LinMap
    context: Env = dc_field(repr=False, compare=False)

    @cached_property
    def sigma_context(self) -> Env:
        env = self.context
        return env.child({"sig": eval_text(ids.SIGMA_EXPR, env),
                          "siginv": eval_text(ids.SIGMA_INV_EXPR, env)})


@dataclass
class CleavingData(_Record):
    """Gamma and its convolution inverse, maps H -> B of the extension;
    ``context`` (the extension's plus gamB, gamBinv) and ``decomposition``
    are kept, each built once."""

    extension: Extension
    gamma: LinMap      # H -> B
    gamma_inv: LinMap  # H -> B

    def __post_init__(self):
        H, B = self.extension.H.obj, self.extension.comodule.B.obj
        for name, m in (("gamma", self.gamma), ("gamma_inv", self.gamma_inv)):
            if m.dom != (H,) or m.cod != (B,):
                raise StructureError(f"the cleaving's {name} must be a map H -> B")

    @cached_property
    def context(self) -> Env:
        return self.extension.context.child({"gamB": self.gamma, "gamBinv": self.gamma_inv})

    @cached_property
    def decomposition(self) -> Decomposition:
        """Split B against A (x) H: the coinvariant projection p obtained by
        factoring q through j, and the mutually inverse maps w and w-tilde.
        Each map is its formula in :mod:`weakhopf.identities`, evaluated in
        the cleaving's context.

        Raises FactorizationFailed, and is then not kept, when q does not
        land in the image of j, which witnesses a non-cleft input.
        """
        env = self.context
        q = eval_text(ids.Q_CLEFT_EXPR, env)
        p = factor_through(q, self.extension.j)
        if p is None:
            raise FactorizationFailed("q does not factor through j (input is not cleft)")
        env = env.child({"p": p})
        upsilon = eval_text(ids.UPSILON_EXPR, env)
        w, w_tilde = eval_text(ids.W_EXPR, env), eval_text(ids.W_TILDE_EXPR, env)
        return Decomposition(upsilon, q, p, w, w_tilde, eval_text(ids.OMEGA_EXPR, env),
                             env.child({"q": q, "w": w, "wt": w_tilde, "Ups": upsilon}))


def _require_extension(X: Extension, c: CleavingData) -> None:
    """Raise StructureError unless ``c`` is a cleaving of ``X``."""
    if X is not c.extension and X != c.extension:
        raise StructureError("the cleaving is of another extension")


def cleaving_check(X: Extension, c: CleavingData) -> VerdictReport:
    """Total colinear integral, its convolution inverse laws, and the
    factorization of gamma . piL through j.  Raises StructureError unless
    ``c`` is a cleaving of ``X``."""
    _require_extension(X, c)
    report = VerdictReport("cleaving")
    env = c.context.child()
    run_identity_table(ids.CLEAVING_IDENTITIES, env, report)
    target = eval_text(ids.GAMMA_B_PIL_EXPR, env)
    report.add_bool("cleft_factorization", factor_through(target, X.j) is not None)
    return report


def decomposition(X: Extension, c: CleavingData) -> tuple[Decomposition, VerdictReport]:
    """The decomposition of a cleft extension with the verdicts on its maps
    and on the induced idempotent omega on A (x) H.  Raises StructureError
    unless ``c`` is a cleaving of ``X``."""
    _require_extension(X, c)
    decomp = c.decomposition
    report = VerdictReport("decomposition")
    run_identity_table(ids.DECOMPOSITION_IDENTITIES, decomp.context.child(), report)
    rank = column_rank(decomp.omega)
    report.add_bool("omega_rank_is_dim_B", rank == X.comodule.B.dim, note=f"rank {rank}")
    return decomp, report


@dataclass
class Reconstruction(_Record):
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
    form and asserting the two routes agree.  Raises StructureError unless
    ``c`` is a cleaving of ``X``."""
    decomp, report = decomposition(X, c)
    env = decomp.context
    mu_tilde = eval_text(ids.MU_TILDE_EXPR, env)
    nu_tilde = eval_text(ids.NU_TILDE_EXPR, env)
    rho = eval_text(ids.RHO_TILDE_EXPR, env)
    f = eval_text(ids.F_TILDE_EXPR, env)
    run_identity_table(ids.RECONSTRUCTION_ROUTES, env.child(), report)
    measure = WeakMeasure(X.H, X.A, rho)
    cocycle = CocycleData(measure, f)
    env = measure.context.child(
        {
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
    run_identity_table(ids.RECONSTRUCTION_IDENTITIES, env, report)
    wma = check_weak_module_algebra(measure)
    report.extend(wma, prefix="wma.")
    return Reconstruction(mu_tilde, nu_tilde, rho, f, measure, cocycle, decomp), report


def full_reconstruction(
    X: Extension, c: CleavingData
) -> tuple[Reconstruction, LinMap, LinMap, VerdictReport]:
    """One pass through decomposition, reconstruction, cocycle inversion (by
    factorization through j, checked against the independent solver) and
    the rebuilt-product isomorphism: (reconstruction, f_inv, iso, report).
    When the recovered data fail a construction hypothesis, the report says
    which, as ``rebuild.<hypothesis>``, and iso is None."""
    recon, report = reconstruct(X, c)
    env = recon.decomp.sigma_context
    run_identity_table(ids.RECOVER_IDENTITIES, env.child(), report)
    f_inv = factor_through(env.bindings["siginv"], X.j)
    if f_inv is None:
        raise FactorizationFailed("sigma inverse does not factor through j")
    env = env.child({"f": recon.f, "finv": f_inv, "u2": recon.measure.u(2)})
    run_identity_table(ids.INVERSE_RECOVERY_IDENTITIES, env, report)
    try:
        solver_inv = recon.cocycle.inverse
    except RegularityPreconditionFailed as exc:
        report.add_fail("solver_finds_inverse", note=f"not regular: {exc}")
    else:
        report.add_bool("solver_finds_inverse", solver_inv is not None)
        if solver_inv is not None:
            report.add_equality("finv_matches_solver", f_inv, solver_inv)
    B = X.comodule.B
    try:
        E_rb = build_crossed_product(recon.measure, recon.cocycle)
    except HypothesisFailed as exc:
        report.add_fail("rebuild." + exc.check_id, witness=exc.witness)
        return recon, f_inv, None, report
    bindings = {"w": recon.decomp.w, "j": X.j, "muB": B.mu, "etaB": B.eta, "dB": X.comodule.delta}
    env = E_rb.context.child(bindings)
    iso = eval_text(ids.REBUILT_ISO_EXPR, env)
    run_identity_table(ids.REBUILT_ISO_IDENTITIES, env.child({"iso": iso}), report)
    report.add_bool("iso_invertible", invert(iso) is not None)
    return recon, f_inv, iso, report


def crossed_to_cleft(E: CrossedProduct, gamma_inv: LinMap) -> tuple[Extension, CleavingData]:
    """View a built crossed product as a cleft extension of its base."""
    ren = {E.obj.name: "B"}
    B = AlgebraData(
        E.field,
        Obj("B", E.E_dim),
        rename_factor(E.mu_E, ren),
        rename_factor(E.eta_E, ren),
    )
    comodule = ComoduleAlgebra(B, rename_factor(E.delta_E, ren), E.measure.H)
    ext = Extension(comodule, E.measure.A, rename_factor(E.j_nu, ren))
    return ext, CleavingData(ext, rename_factor(E.gamma, ren), rename_factor(gamma_inv, ren))
