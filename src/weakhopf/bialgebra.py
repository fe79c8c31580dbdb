"""Weak bialgebras and weak Hopf algebras presented by structure constants."""
from __future__ import annotations

from typing import Optional

from . import identities as ids
from .algebra import AlgebraData, CoalgebraData, StructureError
from .fields import Field
from .ir import Env, build_env, eval_text, run_identity_table
from .linalg import LinMap, Obj, split_idempotent
from .report import VerdictReport


class InvalidStructure(StructureError):
    def __init__(self, report: VerdictReport):
        fail = report.first_failure()
        super().__init__(f"structure axioms fail: {fail.check_id if fail else '?'}")
        self.report = report


class WeakBialgebra:
    """Carrier H with multiplication, unit, comultiplication and counit
    subject to the weak compatibility axioms; the four source/target
    projections are computed once and cached.

    Two evaluation contexts are built once and kept: the core (mu, eta,
    Delta, eps) and the base, a child of the core adding the projections and
    the antipode.
    """

    def __init__(self, algebra: AlgebraData, coalgebra: CoalgebraData):
        if algebra.obj != coalgebra.obj:
            raise StructureError("algebra and coalgebra must share the carrier")
        if algebra.field != coalgebra.field:
            raise StructureError("algebra and coalgebra must share the field")
        self.algebra = algebra
        self.coalgebra = coalgebra
        self._projections: dict[str, LinMap] = {}
        self._core: Optional[Env] = None
        self._base: Optional[Env] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def unchecked(cls, field, obj, mu, eta, delta, eps) -> "WeakBialgebra":
        return cls(AlgebraData(field, obj, mu, eta), CoalgebraData(field, obj, delta, eps))

    @classmethod
    def checked(cls, field, obj, mu, eta, delta, eps) -> "WeakBialgebra":
        cand = cls.unchecked(field, obj, mu, eta, delta, eps)
        report = check_bialgebra_axioms(cand)
        if not report.all_pass:
            raise InvalidStructure(report)
        return cand

    # -- accessors ----------------------------------------------------------

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def obj(self) -> Obj:
        return self.algebra.obj

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def mu(self) -> LinMap:
        return self.algebra.mu

    @property
    def eta(self) -> LinMap:
        return self.algebra.eta

    @property
    def delta(self) -> LinMap:
        return self.coalgebra.delta

    @property
    def eps(self) -> LinMap:
        return self.coalgebra.eps

    @property
    def antipode(self) -> Optional[LinMap]:
        return None

    def core_env(self) -> Env:
        """The context binding mu, eta, Delta and eps."""
        if self._core is None:
            self._core = build_env(
                self.field, {}, {"mu": self.mu, "eta": self.eta, "Delta": self.delta, "eps": self.eps}
            )
        return self._core

    def base_env(self) -> Env:
        """The core context plus the projections and the antipode."""
        if self._base is None:
            bindings = {
                "piL": self.projection("L"),
                "piR": self.projection("R"),
                "piLb": self.projection("Lbar"),
                "piRb": self.projection("Rbar"),
            }
            s = self.antipode
            if s is not None:
                bindings["S"] = s
            self._base = self.core_env().child(bindings)
        return self._base

    def projection(self, kind: str) -> LinMap:
        """One of the four projections; kind in {L, R, Lbar, Rbar}."""
        key = {"L": "piL", "R": "piR", "Lbar": "piLb", "Rbar": "piRb"}[kind]
        if key not in self._projections:
            env = self.core_env()
            for name, src in ids.PROJECTION_FORMULAS.items():
                self._projections[name] = eval_text(src, env)
        return self._projections[key]


class WeakHopfAlgebra(WeakBialgebra):
    def __init__(self, algebra: AlgebraData, coalgebra: CoalgebraData, antipode: LinMap):
        super().__init__(algebra, coalgebra)
        ob = algebra.obj
        if antipode.dom != (ob,) or antipode.cod != (ob,):
            raise StructureError("antipode must be an endomorphism of the carrier")
        self._antipode = antipode

    @property
    def antipode(self) -> LinMap:
        return self._antipode

    @classmethod
    def unchecked(cls, field, obj, mu, eta, delta, eps, antipode) -> "WeakHopfAlgebra":
        return cls(
            AlgebraData(field, obj, mu, eta), CoalgebraData(field, obj, delta, eps), antipode
        )

    @classmethod
    def checked(cls, field, obj, mu, eta, delta, eps, antipode) -> "WeakHopfAlgebra":
        cand = cls.unchecked(field, obj, mu, eta, delta, eps, antipode)
        report = check_bialgebra_axioms(cand)
        if not report.all_pass:
            raise InvalidStructure(report)
        report = check_antipode(cand)
        if not report.all_pass:
            raise InvalidStructure(report)
        return cand

    def without_antipode(self) -> WeakBialgebra:
        return WeakBialgebra(self.algebra, self.coalgebra)


# --------------------------------------------------------------------------
# Validation suites
# --------------------------------------------------------------------------

def check_bialgebra_axioms(H: WeakBialgebra) -> VerdictReport:
    """Associativity, unit, coassociativity, counit and the three weak
    compatibility axioms, one verdict per equality."""
    report = VerdictReport("bialgebra axioms")
    run_identity_table(ids.BIALGEBRA_AXIOMS, H.core_env(), report)
    return report


def projection_identity_suite(H: WeakBialgebra) -> VerdictReport:
    """All recorded identities among the four projections; the antipode
    block is skipped when H has no antipode."""
    report = VerdictReport("projection identities")
    env = H.base_env()
    run_identity_table(ids.PROJECTION_BASICS, env, report)
    run_identity_table(ids.PROJECTION_IDENTITIES, env, report)
    if H.antipode is None:
        for check_id, _, _ in ids.ANTIPODE_PROJECTION_IDENTITIES:
            report.add_skipped(check_id, note="no antipode")
        return report
    run_identity_table(ids.ANTIPODE_PROJECTION_IDENTITIES, env, report)
    return report


def check_antipode(H: WeakHopfAlgebra) -> VerdictReport:
    """The three antipode axioms plus the derived unit/counit invariance and
    anti(co)multiplicativity."""
    env = H.base_env()
    report = VerdictReport("antipode axioms")
    run_identity_table(ids.ANTIPODE_AXIOMS, env, report)
    return report


def base_subalgebra(H: WeakBialgebra, side: str) -> tuple[AlgebraData, LinMap, LinMap]:
    """Split the chosen projection and install the induced unital algebra on
    its image; the inclusion is verified to be an algebra morphism."""
    if side not in ("L", "R"):
        raise ValueError("side must be 'L' or 'R'")
    _, inj, proj = split_idempotent(H.projection(side), name=f"H{side}")
    env = H.core_env().child({"inj": inj, "proj": proj})
    mu_sub = eval_text(ids.BASE_MU_FORMULA, env)
    eta_sub = eval_text(ids.BASE_ETA_FORMULA, env)
    sub = AlgebraData.checked(H.field, inj.dom[0], mu_sub, eta_sub)
    env = env.child({"muSub": mu_sub, "etaSub": eta_sub})
    fail = run_identity_table(ids.BASE_INCLUSION_IDENTITIES, env).first_failure()
    if fail is not None:
        kind = fail.check_id.removeprefix("inclusion_")
        raise StructureError(f"inclusion of the base subalgebra is not {kind}")
    return sub, inj, proj
