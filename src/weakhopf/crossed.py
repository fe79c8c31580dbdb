"""Weak measures, cocycles and unitary crossed products.

A weak measure of H on A induces a twisting map chi and an idempotent nabla
on A (x) H; given a compatible cocycle f the split image of nabla carries a
unital associative product.  This module builds that algebra, verifies the
laws it satisfies, inverts cocycles in the convolution monoid, and produces
the integral inverse that exhibits the product as a cleft extension.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field as dc_field
from typing import Optional

from . import identities as ids
from .algebra import (
    AlgebraData,
    StructureError,
    TensorPowerCoalgebra,
    conv_inverse,
)
from .bialgebra import WeakBialgebra
from .ir import Env, check_identity_text, evaluate, parse_expr, run_identity_table
from .linalg import (
    LinMap,
    Obj,
    compose,
    factor_through,
    identity,
    nullspace_basis,
    same_subspace,
    split_idempotent,
    tensor_product,
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


def eval_text(src: str, env: Env) -> LinMap:
    return evaluate(parse_expr(src, env.sig), env)


@dataclass
class WeakMeasure:
    """A map rho: H (x) A -> A multiplicative in A in the coproduct-twisted
    sense, with its derived twisting map, idempotent and unit powers."""

    H: WeakBialgebra
    A: AlgebraData
    rho: LinMap
    _cache: dict = dc_field(default_factory=dict, repr=False, compare=False)

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
        verdict = check_identity_text(lhs, rhs, m.env(), check_id)
        if not verdict.passed:
            w = verdict.witness
            raise MeasureAxiomError(f"measure axiom fails at (row {w.row}, col {w.col})")
        return m

    def env(self, extra: Optional[dict] = None) -> Env:
        bindings = {"muA": self.A.mu, "etaA": self.A.eta, "rho": self.rho}
        if extra:
            bindings.update(extra)
        return self.H.base_env(extra=bindings)

    def derived_env(self, extra: Optional[dict] = None) -> Env:
        bindings = {"chi": self.chi, "nab": self.nabla}
        if extra:
            bindings.update(extra)
        return self.env(extra=bindings)

    @property
    def chi(self) -> LinMap:
        if "chi" not in self._cache:
            self._cache["chi"] = eval_text(ids.CHI_FORMULA, self.env())
        return self._cache["chi"]

    @property
    def nabla(self) -> LinMap:
        if "nab" not in self._cache:
            self._cache["nab"] = eval_text(ids.NABLA_FORMULA, self.env())
        return self._cache["nab"]

    def u(self, n: int) -> LinMap:
        """rho-image of the unit after multiplying n tensor factors."""
        key = ("u", n)
        if key not in self._cache:
            self._cache[key] = eval_text(ids.u_formula(n), self.env())
        return self._cache[key]

    def v(self, n: int) -> LinMap:
        """Iterated action on the unit: v_{n+1} = rho . (H (x) v_n)."""
        if n == 1:
            return self.u(1)
        key = ("v", n)
        if key not in self._cache:
            self._cache[key] = eval_text(ids.v_formula(n), self.env())
        return self._cache[key]


def check_weak_module_algebra(m: WeakMeasure) -> VerdictReport:
    """The unital/action laws making A a left weak module algebra, plus the
    cross-check that the six equivalent reformulations agree.  The table runs
    once per measure; every call returns its own copy of the report."""
    if "wma" in m._cache:
        return copy.deepcopy(m._cache["wma"])
    report = VerdictReport("weak module algebra")
    run_identity_table(ids.MODULE_ALGEBRA_IDENTITIES, m.env(), report)
    gating = [report.get("wma_unital"), report.get("measure_axiom"), report.get("wma_unit_power")]
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
    m._cache["wma"] = copy.deepcopy(report)
    return report


def twisting(m: WeakMeasure) -> tuple[LinMap, VerdictReport]:
    """The twisting map derived from the measure, with the twisted-space law
    and normalization verdicts attached."""
    report = VerdictReport("twisting")
    run_identity_table(ids.TWISTING_IDENTITIES, m.derived_env(), report)
    return m.chi, report


@dataclass
class CocycleData:
    """A candidate cocycle f: H (x) H -> A over a weak measure, with its lift
    to A (x) H and the preunit of the twisted product."""

    measure: WeakMeasure
    f: LinMap
    _cache: dict = dc_field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        H, A = self.measure.H, self.measure.A
        if self.f.dom != (H.obj, H.obj) or self.f.cod != (A.obj,):
            raise StructureError("f must be a map H,H -> A")

    @property
    def field(self):
        return self.measure.field

    @property
    def Ff(self) -> LinMap:
        if "Ff" not in self._cache:
            env = self.measure.derived_env(extra={"f": self.f})
            self._cache["Ff"] = eval_text(ids.FF_FORMULA, env)
        return self._cache["Ff"]

    @property
    def nu(self) -> LinMap:
        if "nu" not in self._cache:
            env = self.measure.derived_env()
            self._cache["nu"] = eval_text(ids.NU_FORMULA, env)
        return self._cache["nu"]

    def env(self, extra: Optional[dict] = None) -> Env:
        m = self.measure
        bindings = {
            "f": self.f,
            "Ff": self.Ff,
            "nu": self.nu,
            "u1": m.u(1),
            "u2": m.u(2),
            "u3": m.u(3),
            "v2": m.v(2),
            "v3": m.v(3),
        }
        if extra:
            bindings.update(extra)
        return m.derived_env(extra=bindings)


def cocycle_report(m: WeakMeasure, f) -> VerdictReport:
    """All recorded cocycle laws, with the cross-checks that the two
    normalization forms and the two (plain vs lifted) condition levels agree."""
    data = f if isinstance(f, CocycleData) else CocycleData(m, f)
    report = VerdictReport("cocycle laws")
    env = data.env()
    run_identity_table(ids.COCYCLE_IDENTITIES, env, report)
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
class CrossedProduct:
    """The unitary crossed product in split-image coordinates."""

    measure: WeakMeasure
    cocycle: CocycleData
    obj: Obj
    i: LinMap       # E -> A (x) H
    p: LinMap       # A (x) H -> E
    mu_E: LinMap
    eta_E: LinMap
    nu: LinMap
    j_nu: LinMap    # A -> E
    gamma: LinMap   # H -> E
    delta_E: LinMap # E -> E (x) H

    @property
    def E_dim(self) -> int:
        return self.obj.dim

    @property
    def field(self):
        return self.measure.field

    @property
    def algebra(self) -> AlgebraData:
        return AlgebraData(self.field, self.obj, self.mu_E, self.eta_E)

    def env(self, extra: Optional[dict] = None) -> Env:
        bindings = {
            "muE": self.mu_E,
            "etaE": self.eta_E,
            "iE": self.i,
            "pE": self.p,
            "jnu": self.j_nu,
            "gam": self.gamma,
            "dE": self.delta_E,
        }
        if extra:
            bindings.update(extra)
        return self.cocycle.env(extra=bindings)


def build_crossed_product(m: WeakMeasure, f, name: str = "E") -> CrossedProduct:
    """Verify the five construction hypotheses, split the induced idempotent
    and install the unital product on its image.

    Raises HypothesisFailed naming the first failing hypothesis.
    """
    data = f if isinstance(f, CocycleData) else CocycleData(m, f)
    env = data.env()
    for check_id, lhs, rhs in ids.BUILD_HYPOTHESES:
        verdict = check_identity_text(lhs, rhs, env, check_id)
        if not verdict.passed:
            raise HypothesisFailed(check_id, verdict.witness)
    _, i, p = split_idempotent(m.nabla, name=name)
    env = env.extend({"iE": i, "pE": p})
    return CrossedProduct(
        m,
        data,
        i.dom[0],
        i,
        p,
        mu_E=eval_text(ids.MU_E_EXPR, env),
        eta_E=eval_text(ids.ETA_E_EXPR, env),
        nu=data.nu,
        j_nu=eval_text(ids.J_NU_EXPR, env),
        gamma=eval_text(ids.GAMMA_EXPR, env),
        delta_E=eval_text(ids.DELTA_E_EXPR, env),
    )


def crossed_product_law_suite(E: CrossedProduct) -> VerdictReport:
    """Unit/associativity of the product, behaviour of the embeddings, the
    twisting/cocycle factorizations, and the comodule-algebra laws."""
    report = VerdictReport("crossed product laws")
    run_identity_table(ids.CROSSED_LAW_IDENTITIES, E.env(), report)
    run_identity_table([ids.NU_PROJECTED], E.env(), report)
    # Monicity of the base embedding is reported, not required: it can fail
    # for degenerate measures where the unit does not act as the identity.
    from .linalg import column_rank

    report.add_bool(
        "base_embedding_monic",
        column_rank(E.j_nu) == E.measure.A.dim,
        note=f"rank {column_rank(E.j_nu)} of {E.measure.A.dim}",
    )
    return report


def equalizer_matches_base(E: CrossedProduct, j: Optional[LinMap] = None) -> tuple[bool, int]:
    """Does ker(delta_E - (E (x) piL) . delta_E) equal the image of j?"""
    field = E.field
    jmap = j if j is not None else E.j_nu
    piL = E.measure.H.projection("L")
    cut = E.delta_E - compose(tensor_product(identity(field, E.obj), piL), E.delta_E)
    kernel = [[r[0] for r in vec.rows] for vec in nullspace_basis(cut)]
    image = [E.j_nu.column(c) if j is None else jmap.column(c) for c in range(jmap.ncols)]
    return same_subspace(kernel, image, E.E_dim, field), len(kernel)


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
    env = E.env()
    run_identity_table(ids.MODULE_SUITE_IDENTITIES, env, report)
    if E.measure.H.antipode is None:
        for check_id, _, _ in ids.MODULE_SUITE_ANTIPODE_IDENTITIES:
            report.add_skipped(check_id, note="no antipode")
    else:
        run_identity_table(ids.MODULE_SUITE_ANTIPODE_IDENTITIES, env, report)
    ok, dim = equalizer_matches_base(E)
    report.add_bool("equalizer_is_base", ok, note=f"coinvariants have dim {dim}")
    return report


def cocycle_inverse(data: CocycleData) -> Optional[LinMap]:
    """The convolution inverse of f with unit u2, found by the solver alone;
    None when no inverse exists."""
    m = data.measure
    power = TensorPowerCoalgebra(m.H.coalgebra, 2)
    return conv_inverse(data.f, m.u(2), power, m.A)


def invert_cocycle(m: WeakMeasure, f) -> tuple[Optional[LinMap], VerdictReport]:
    """Invert f in the convolution monoid with unit u2 and verify the derived
    laws of the inverse; returns (None, report) when no inverse exists."""
    data = f if isinstance(f, CocycleData) else CocycleData(m, f)
    report = VerdictReport("cocycle inverse")
    finv = cocycle_inverse(data)
    if finv is None:
        report.add_fail("cocycle_invertible", note="convolution system has no solution")
        return None, report
    report.add_pass("cocycle_invertible")
    env = data.env(extra={"finv": finv})
    run_identity_table(ids.COCYCLE_INVERSE_IDENTITIES, env, report)
    return finv, report


def build_gamma_inverse(E: CrossedProduct, f_inv: LinMap) -> LinMap:
    """The convolution inverse of the canonical integral of a built product.

    Raises PreconditionFailed unless H has an antipode and the measure makes
    A a weak module algebra.
    """
    if E.measure.H.antipode is None:
        raise PreconditionFailed("gamma inverse needs an antipode")
    if not check_weak_module_algebra(E.measure).all_pass:
        raise PreconditionFailed("gamma inverse needs a weak module algebra")
    return eval_text(f"{ids.Q_EXPR} ; jnu * gam ; muE", E.env(extra={"finv": f_inv}))


def gamma_inverse(E: CrossedProduct, f_inv: LinMap) -> tuple[LinMap, VerdictReport]:
    """The convolution inverse of the canonical integral of a built product,
    with the full cleftness verdict list."""
    gaminv = build_gamma_inverse(E, f_inv)
    report = VerdictReport("integral inverse")
    env = E.env(extra={"finv": f_inv, "gaminv": gaminv})
    run_identity_table(ids.GAMMA_INVERSE_IDENTITIES, env, report)
    ok, dim = equalizer_matches_base(E)
    report.add_bool("equalizer_is_base", ok, note=f"coinvariants have dim {dim}")
    target = compose(E.gamma, E.measure.H.projection("L"))
    factor = factor_through(target, E.j_nu)
    report.add_bool("cleft_factorization", factor is not None)
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

def base_action_measure(H: WeakBialgebra, carrier: str = "A") -> WeakMeasure:
    """The action of H on its own target base subalgebra by multiply-and-
    project; the universal smash-product ingredient."""
    from .bialgebra import base_subalgebra
    from .linalg import rename_factor

    sub, inj, proj = base_subalgebra(H, "L")
    ren = {sub.obj.name: carrier}
    A = AlgebraData(
        H.field,
        Obj(carrier, sub.dim),
        rename_factor(sub.mu, ren),
        rename_factor(sub.eta, ren),
    )
    rho = compose(
        rename_factor(proj, ren),
        compose(H.mu, tensor_product(identity(H.field, H.obj), rename_factor(inj, ren))),
    )
    return WeakMeasure.checked(H, A, rho)


def trivial_measure(H: WeakBialgebra, carrier: str = "A") -> WeakMeasure:
    """The counit acting on the one-dimensional algebra."""
    field = H.field
    A_obj = Obj(carrier, 1)
    one = identity(field, A_obj)
    mu_A = LinMap(field, (A_obj, A_obj), (A_obj,), [[field.one]])
    eta_A = LinMap(field, (), (A_obj,), [[field.one]])
    A = AlgebraData(field, A_obj, mu_A, eta_A)
    rho = tensor_product(H.eps, one)
    return WeakMeasure.checked(H, A, rho)


def smash_cocycle(m: WeakMeasure) -> CocycleData:
    """The unit-power cocycle; twisting without any extra twist."""
    return CocycleData(m, m.u(2))
