"""Weak measures, cocycles and unitary crossed products.

A weak measure of H on A induces a twisting map chi and an idempotent nabla
on A (x) H; given a compatible cocycle f the split image of nabla carries a
unital associative product.  This module builds that algebra, verifies the
laws it satisfies, inverts cocycles in the convolution monoid, and produces
the integral inverse that exhibits the product as a cleft extension.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import identities as ids
from .algebra import _Record, AlgebraData, conv_inverse, StructureError
from .bialgebra import WeakBialgebra, base_subalgebra
from .ir import Env, check_identity_text, eval_text, run_identity_table
from .linalg import (
    LinMap,
    Obj,
    column_rank,
    factor_through,
    rename_factor,
    split_idempotent,
)
from .report import VerdictReport, Witness


class MeasureAxiomError(StructureError):
    pass


class HypothesisFailed(ValueError):
    def __init__(self, check_id: str, witness: Optional[Witness]):
        super().__init__(f"crossed product hypothesis failed: {check_id}")
        self.check_id = check_id
        self.witness = witness


class PreconditionFailed(ValueError):
    pass


@dataclass
class WeakMeasure(_Record):
    """A map rho: H (x) A -> A multiplicative in A in the coproduct-twisted
    sense, with its derived twisting map, idempotent and unit powers.

    ``context`` is kept, built once: H's base context plus muA, etaA and
    rho, then chi and nab, evaluated in the part before them.  The unit
    powers are evaluated in it, whose stores keep their columns; every check
    runs in a new child of it.  The weak-module-algebra verdicts are kept
    too."""

    H: WeakBialgebra
    A: AlgebraData
    rho: LinMap

    def __post_init__(self):
        if self.rho.dom != (self.H.obj, self.A.obj) or self.rho.cod != (self.A.obj,):
            raise StructureError("rho must be a map H,A -> A")
        if self.H.field != self.A.field or self.rho.field != self.H.field:
            raise StructureError("measure parts disagree on the field")

    @property
    def field(self):
        return self.H.field

    @classmethod
    def checked(cls, H: WeakBialgebra, A: AlgebraData, rho: LinMap) -> "WeakMeasure":
        m = cls(H, A, rho)
        check_id, lhs, rhs = ids.MEASURE_AXIOM
        verdict = check_identity_text(lhs, rhs, m.context.child(), check_id)
        if not verdict.passed:
            w = verdict.witness
            raise MeasureAxiomError(f"measure axiom fails at (row {w.row}, col {w.col})")
        return m

    @cached_property
    def context(self) -> Env:
        env = self.H.base_env().child({"muA": self.A.mu, "etaA": self.A.eta, "rho": self.rho})
        return env.child({"chi": eval_text(ids.CHI_FORMULA, env),
                          "nab": eval_text(ids.NABLA_FORMULA, env)})

    @property
    def chi(self) -> LinMap:
        return self.context.bindings["chi"]

    @property
    def nabla(self) -> LinMap:
        return self.context.bindings["nab"]

    def u(self, n: int) -> LinMap:
        """rho-image of the unit after multiplying n tensor factors."""
        return eval_text(ids.u_formula(n), self.context)

    def v(self, n: int) -> LinMap:
        """Iterated action on the unit: v_{n+1} = rho . (H (x) v_n)."""
        return eval_text(ids.v_formula(n), self.context)

    @cached_property
    def _module_algebra_report(self) -> VerdictReport:
        """Kept for ``check_weak_module_algebra``, which shares its verdicts."""
        report = VerdictReport("weak module algebra")
        run_identity_table(ids.MODULE_ALGEBRA_IDENTITIES, self.context.child(), report)
        gating = [report.get(cid) for cid in ("wma_unital", "measure_axiom", "wma_unit_power")]
        equivalents = [report.get(cid) for cid in ids.MODULE_ALGEBRA_EQUIVALENT_IDS]
        if all(v.passed for v in gating):
            statuses = {v.status for v in equivalents}
            report.add_bool(
                "equivalent_forms_agree",
                len(statuses) == 1,
                note="reformulations must stand or fall together",
            )
        else:
            report.add_skipped("equivalent_forms_agree", note="basic action laws fail")
        return report


def check_weak_module_algebra(m: WeakMeasure) -> VerdictReport:
    """The unital/action laws making A a left weak module algebra, plus the
    cross-check that the six equivalent reformulations agree.  The table runs
    once per measure; every call returns its own report of the kept,
    immutable verdicts."""
    kept = m._module_algebra_report
    report = VerdictReport(kept.title)
    report.extend(kept)
    return report


def twisting(m: WeakMeasure) -> tuple[LinMap, VerdictReport]:
    """The twisting map derived from the measure, with the twisted-space law
    and normalization verdicts attached."""
    report = VerdictReport("twisting")
    run_identity_table(ids.TWISTING_IDENTITIES, m.context.child(), report)
    return m.chi, report


@dataclass
class CocycleData(_Record):
    """A candidate cocycle f: H (x) H -> A over a weak measure, with its lift
    to A (x) H, the preunit of the twisted product and its convolution
    inverse.

    ``context`` is kept, built once: the measure's context plus f,
    the unit powers u1, u2, u3, v2 and v3, the lift Ff (evaluated in the
    part before it) and the preunit nu (kept, evaluated in the measure's).
    ``inverse`` is kept too, solved once."""

    measure: WeakMeasure
    f: LinMap

    def __post_init__(self):
        H, A = self.measure.H, self.measure.A
        if self.f.dom != (H.obj, H.obj) or self.f.cod != (A.obj,):
            raise StructureError("f must be a map H,H -> A")

    @property
    def Ff(self) -> LinMap:
        return self.context.bindings["Ff"]

    @cached_property
    def nu(self) -> LinMap:
        return eval_text(ids.NU_FORMULA, self.measure.context)

    @cached_property
    def inverse(self) -> Optional[LinMap]:
        """The convolution inverse of f with unit u2, found by the solver
        alone; None when no inverse exists.  Raises
        RegularityPreconditionFailed, and is then not kept, when f * u2 = f
        fails."""
        m = self.measure
        return conv_inverse(self.f, m.u(2), m.H.coalgebra, m.A)

    @cached_property
    def context(self) -> Env:
        m = self.measure
        env = m.context.child({
            "f": self.f,
            "u1": m.u(1),
            "u2": m.u(2),
            "u3": m.u(3),
            "v2": m.v(2),
            "v3": m.v(3),
        })
        return env.child({"Ff": eval_text(ids.FF_FORMULA, env), "nu": self.nu})


def _require_measure(m: WeakMeasure, data: CocycleData) -> None:
    """Raise StructureError unless ``data`` is a cocycle over ``m``."""
    if m is not data.measure and m != data.measure:
        raise StructureError("the cocycle is over another measure")


def cocycle_report(m: WeakMeasure, data: CocycleData) -> VerdictReport:
    """All recorded cocycle laws, with the cross-checks that the two
    normalization forms and the two (plain vs lifted) condition levels agree.
    Raises StructureError unless ``data`` is a cocycle over ``m``."""
    _require_measure(m, data)
    report = VerdictReport("cocycle laws")
    run_identity_table(ids.COCYCLE_IDENTITIES, data.context.child(), report)
    counit_form = report.get("cocycle_counit_form").passed
    normalized = report.get("cocycle_image_normalized").passed
    conv_form = report.get("cocycle_conv_u2").passed
    report.add_bool(
        "normalization_forms_agree",
        (counit_form and normalized) == conv_form,
        note="counit form plus image normalization is the convolution form",
    )
    if counit_form and normalized:
        report.add_bool(
            "twisted_module_levels_agree",
            report.get("twisted_module_f").passed == report.get("twisted_module_lifted").passed,
        )
        report.add_bool(
            "cocycle_levels_agree",
            report.get("cocycle_f").passed == report.get("cocycle_lifted").passed,
        )
    else:
        report.add_skipped("twisted_module_levels_agree", note="f is not normalized")
        report.add_skipped("cocycle_levels_agree", note="f is not normalized")
    return report


@dataclass
class CrossedProduct(_Record):
    """The unitary crossed product in split-image coordinates, over its
    cocycle's measure and with its cocycle's preunit; ``context``, kept and
    built once, is the cocycle's plus the product's maps.
    ``equalizer`` is ``equalizer_matches`` for the coaction and the base
    embedding, computed once."""

    cocycle: CocycleData
    obj: Obj
    i: LinMap       # E -> A (x) H
    p: LinMap       # A (x) H -> E
    mu_E: LinMap
    eta_E: LinMap
    j_nu: LinMap    # A -> E
    gamma: LinMap   # H -> E
    delta_E: LinMap # E -> E (x) H

    @property
    def measure(self) -> WeakMeasure:
        return self.cocycle.measure

    @property
    def nu(self) -> LinMap:
        return self.cocycle.nu

    @property
    def E_dim(self) -> int:
        return self.obj.dim

    @property
    def field(self):
        return self.measure.field

    @cached_property
    def context(self) -> Env:
        return self.cocycle.context.child({
            "muE": self.mu_E,
            "etaE": self.eta_E,
            "iE": self.i,
            "pE": self.p,
            "jnu": self.j_nu,
            "gam": self.gamma,
            "dE": self.delta_E,
        })

    @cached_property
    def equalizer(self) -> tuple[bool, int]:
        return equalizer_matches(self.measure.H, self.delta_E, self.j_nu)


def build_crossed_product(m: WeakMeasure, data: CocycleData) -> CrossedProduct:
    """Verify the five construction hypotheses, split the induced idempotent
    and install the unital product on its image.

    Raises HypothesisFailed naming the first failing hypothesis, and
    StructureError unless ``data`` is a cocycle over ``m``.
    """
    _require_measure(m, data)
    env = data.context.child()
    for check_id, lhs, rhs in ids.BUILD_HYPOTHESES:
        verdict = check_identity_text(lhs, rhs, env, check_id)
        if not verdict.passed:
            raise HypothesisFailed(check_id, verdict.witness)
    _, i, p = split_idempotent(m.nabla, name="E")
    env = env.child({"iE": i, "pE": p})
    return CrossedProduct(
        data,
        i.dom[0],
        i,
        p,
        mu_E=eval_text(ids.MU_E_EXPR, env),
        eta_E=eval_text(ids.ETA_E_EXPR, env),
        j_nu=eval_text(ids.J_NU_EXPR, env),
        gamma=eval_text(ids.GAMMA_EXPR, env),
        delta_E=eval_text(ids.DELTA_E_EXPR, env),
    )


def crossed_product_law_suite(E: CrossedProduct) -> VerdictReport:
    """Unit/associativity of the product, behaviour of the embeddings, the
    twisting/cocycle factorizations, and the comodule-algebra laws."""
    report = VerdictReport("crossed product laws")
    env = E.context.child()
    run_identity_table(ids.CROSSED_LAW_IDENTITIES, env, report)
    run_identity_table([ids.NU_PROJECTED], env, report)
    # Monicity of the base embedding is reported, not required: it can fail
    # for degenerate measures where the unit does not act as the identity.
    rank = column_rank(E.j_nu)
    report.add_bool(
        "base_embedding_monic",
        rank == E.measure.A.dim,
        note=f"rank {rank} of {E.measure.A.dim}",
    )
    return report


def equalizer_matches(H: WeakBialgebra, delta: LinMap, j: LinMap) -> tuple[bool, int]:
    """Are the coinvariants of a coaction delta: X -> X (x) H exactly the
    image of j?  Returns the verdict and the dimension of the coinvariants.

    The coinvariants are the kernel of cut = delta - delta ; id(X) * piL.
    The image of j lies in it when j ; cut = 0, an identity on the integer
    kernel, and is all of it when the two have the same dimension."""
    carrier = delta.dom[0]
    env = H.base_env().child({"d": delta, "j": j})
    coinvariant = ids.COINVARIANT_CUT.format(carrier.name)
    dim = carrier.dim - column_rank(delta - eval_text(coinvariant, env))
    inside = check_identity_text("j ; d", f"j ; {coinvariant}", env).passed
    return inside and column_rank(j) == dim, dim


def module_algebra_suite(E: CrossedProduct) -> VerdictReport:
    """Consequences of the module-algebra property on a built product; the
    whole suite is skipped when the measure is only a measure."""
    report = VerdictReport("module algebra consequences")
    wma = check_weak_module_algebra(E.measure)
    if not wma.all_pass:
        for check_id, _, _ in ids.MODULE_SUITE_IDENTITIES:
            report.add_skipped(check_id, note="not a weak module algebra")
        for check_id, _, _ in ids.MODULE_SUITE_ANTIPODE_IDENTITIES:
            report.add_skipped(check_id, note="not a weak module algebra")
        report.add_skipped("equalizer_is_base", note="not a weak module algebra")
        return report
    env = E.context.child()
    run_identity_table(ids.MODULE_SUITE_IDENTITIES, env, report)
    if E.measure.H.antipode is None:
        for check_id, _, _ in ids.MODULE_SUITE_ANTIPODE_IDENTITIES:
            report.add_skipped(check_id, note="no antipode")
    else:
        run_identity_table(ids.MODULE_SUITE_ANTIPODE_IDENTITIES, env, report)
    ok, dim = E.equalizer
    report.add_bool("equalizer_is_base", ok, note=f"coinvariants have dim {dim}")
    return report


def invert_cocycle(
    m: WeakMeasure, data: CocycleData
) -> tuple[Optional[LinMap], VerdictReport]:
    """The cocycle's kept convolution inverse (``data.inverse``) with the
    verdicts on its derived laws; returns (None, report) when no inverse
    exists.  Raises StructureError unless ``data`` is a cocycle over ``m``."""
    _require_measure(m, data)
    report = VerdictReport("cocycle inverse")
    finv = data.inverse
    if finv is None:
        report.add_fail("cocycle_invertible", note="convolution system has no solution")
        return None, report
    report.add_pass("cocycle_invertible")
    env = data.context.child({"finv": finv})
    run_identity_table(ids.COCYCLE_INVERSE_IDENTITIES, env, report)
    return finv, report


def gamma_inverse(E: CrossedProduct, f_inv: LinMap) -> tuple[LinMap, VerdictReport]:
    """The convolution inverse of the canonical integral of a built product,
    evaluated from the cocycle inverse ``f_inv``, with the full cleftness
    verdict list.

    Raises PreconditionFailed unless H has an antipode and the measure makes
    A a weak module algebra.
    """
    if E.measure.H.antipode is None:
        raise PreconditionFailed("gamma inverse needs an antipode")
    if not check_weak_module_algebra(E.measure).all_pass:
        raise PreconditionFailed("gamma inverse needs a weak module algebra")
    env = E.context.child({"finv": f_inv})
    gaminv = eval_text(f"{ids.Q_EXPR} ; jnu * gam ; muE", env)
    env = env.child({"gaminv": gaminv})
    report = VerdictReport("integral inverse")
    run_identity_table(ids.GAMMA_INVERSE_IDENTITIES, env, report)
    ok, dim = E.equalizer
    report.add_bool("equalizer_is_base", ok, note=f"coinvariants have dim {dim}")
    target = eval_text(ids.GAMMA_PIL_EXPR, env)
    report.add_bool("cleft_factorization", factor_through(target, E.j_nu) is not None)
    needed = (
        "integral_total",
        "integral_colinear",
        "gammainv_conv_right",
        "gammainv_conv_left",
        "gammainv_normalized",
        "equalizer_is_base",
        "cleft_factorization",
    )
    report.add_bool("is_cleft", all(report.get(cid).passed for cid in needed))
    return gaminv, report


# --------------------------------------------------------------------------
# Canonical instance builders
# --------------------------------------------------------------------------

def base_action_measure(H: WeakBialgebra) -> WeakMeasure:
    """The action of H on its own target base subalgebra by multiply-and-
    project; the universal smash-product ingredient."""
    sub, inj, proj = base_subalgebra(H, "L")
    ren = {sub.obj.name: "A"}
    A = AlgebraData(
        H.field,
        Obj("A", sub.dim),
        rename_factor(sub.mu, ren),
        rename_factor(sub.eta, ren),
    )
    env = H.core_env().child({"inj": rename_factor(inj, ren), "proj": rename_factor(proj, ren)})
    return WeakMeasure.checked(H, A, eval_text(ids.BASE_ACTION_FORMULA, env))


def trivial_measure(H: WeakBialgebra) -> WeakMeasure:
    """The counit acting on the one-dimensional algebra."""
    field = H.field
    A_obj = Obj("A", 1)
    mu_A = LinMap.from_int_columns(field, (A_obj, A_obj), (A_obj,), [{0: 1}], 1)
    eta_A = LinMap.from_int_columns(field, (), (A_obj,), [{0: 1}], 1)
    A = AlgebraData(field, A_obj, mu_A, eta_A)
    # H (x) A has the basis of H when A is one-dimensional: rho is eps.
    rho = LinMap.from_int_columns(field, (H.obj, A_obj), (A_obj,), *H.eps.int_columns())
    return WeakMeasure.checked(H, A, rho)


def smash_cocycle(m: WeakMeasure) -> CocycleData:
    """The unit-power cocycle; twisting without any extra twist."""
    return CocycleData(m, m.u(2))
