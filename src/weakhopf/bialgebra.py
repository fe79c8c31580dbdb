"""Weak bialgebras presented by structure constants.

One class, ``WeakBialgebra``, holds H: its antipode is optional, and H with
one is a weak Hopf algebra (``WeakHopfAlgebra`` names the same class).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


@dataclass(eq=False, frozen=True)
class WeakBialgebra:
    """Carrier H with multiplication, unit, comultiplication and counit
    subject to the weak compatibility axioms, and optionally an antipode S.

    H is a weak Hopf algebra when it has an antipode: only the equivalence
    of cleft extensions and crossed products needs one.  Equality is
    identity.  The fields cannot be rebound, so what is kept stays true to
    them.  Kept, each built once: the core context (mu, eta, Delta, eps),
    the four source/target projections evaluated in it, and the base
    context, a child of the core adding the projections and the antipode.
    """

    field: Field
    obj: Obj
    mu: LinMap
    eta: LinMap
    delta: LinMap
    eps: LinMap
    antipode: Optional[LinMap] = None

    def __post_init__(self):
        object.__setattr__(self, "algebra", AlgebraData(self.field, self.obj, self.mu, self.eta))
        object.__setattr__(
            self, "coalgebra", CoalgebraData(self.field, self.obj, self.delta, self.eps)
        )
        s = self.antipode
        if s is not None and (s.dom != (self.obj,) or s.cod != (self.obj,)):
            raise StructureError("antipode must be an endomorphism of the carrier")

    @property
    def dim(self) -> int:
        return self.obj.dim

    # -- constructors ------------------------------------------------------

    @classmethod
    def unchecked(cls, field, obj, mu, eta, delta, eps, antipode=None) -> "WeakBialgebra":
        return cls(field, obj, mu, eta, delta, eps, antipode)

    @classmethod
    def checked(cls, field, obj, mu, eta, delta, eps, antipode=None) -> "WeakBialgebra":
        """H with every axiom verified: the bialgebra axioms, then the
        antipode axioms when an antipode is given."""
        cand = cls(field, obj, mu, eta, delta, eps, antipode)
        report = check_bialgebra_axioms(cand)
        if report.all_pass and antipode is not None:
            report = check_antipode(cand)
        if not report.all_pass:
            raise InvalidStructure(report)
        return cand

    # -- kept derived state -------------------------------------------------

    @cached_property
    def _core_context(self) -> Env:
        return build_env(
            self.field, {}, {"mu": self.mu, "eta": self.eta, "Delta": self.delta, "eps": self.eps}
        )

    @cached_property
    def _projection_maps(self) -> dict[str, LinMap]:
        """piL, piR, piLb and piRb by name, evaluated in the core context."""
        env = self._core_context
        return {name: eval_text(src, env) for name, src in ids.PROJECTION_FORMULAS.items()}

    @cached_property
    def _base_context(self) -> Env:
        bindings = dict(self._projection_maps)
        if self.antipode is not None:
            bindings["S"] = self.antipode
        return self._core_context.child(bindings)

    def core_env(self) -> Env:
        """The context binding mu, eta, Delta and eps."""
        return self._core_context

    def base_env(self) -> Env:
        """The core context plus the projections and the antipode."""
        return self._base_context

    def projection(self, kind: str) -> LinMap:
        """One of the four projections; kind in {L, R, Lbar, Rbar}."""
        key = {"L": "piL", "R": "piR", "Lbar": "piLb", "Rbar": "piRb"}[kind]
        return self._projection_maps[key]


WeakHopfAlgebra = WeakBialgebra


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


def check_antipode(H: WeakBialgebra) -> VerdictReport:
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
