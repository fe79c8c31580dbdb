"""Equivalences of weak crossed products over the same measured pair.

A map phi: H -> A satisfying the five exchange conditions induces a unital
algebra isomorphism between the two products that is left A-linear and right
H-colinear, and conversely every such isomorphism arises this way; the two
correspondences are mutually inverse.

Two products of one A by one H are a ``ProductPair``: one kept context, E's
plus Ep's data primed, in whose children every check and transport runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import identities as ids
from .algebra import StructureError, _conv_solve
from .crossed import CrossedProduct
from .ir import Env, check_identity_text, eval_text, run_identity_table
from .linalg import LinMap, Obj, invert, rename_factor
from .report import VerdictReport


class NotAnEquivalence(ValueError):
    def __init__(self, check_id: str):
        super().__init__(f"not an equivalence of crossed products: {check_id}")
        self.check_id = check_id


@dataclass
class ProductPair:
    """Two crossed products of one A by one H.  ``context``, kept and built
    once, is E's plus Ep's measure and cocycle data and Ep's product, unit,
    split maps and coaction, primed and on a carrier named Ep, so that the
    two share one context even when both carriers are named E."""

    E: CrossedProduct
    Ep: CrossedProduct

    def __post_init__(self):
        (H, A), (Hp, Ap) = ((X.measure.H, X.measure.A) for X in (self.E, self.Ep))
        if H is not Hp and (H.mu, H.eta, H.delta, H.eps) != (Hp.mu, Hp.eta, Hp.delta, Hp.eps):
            raise NotAnEquivalence("products_share_H")
        if A is not Ap and (A.mu, A.eta) != (Ap.mu, Ap.eta):
            raise NotAnEquivalence("products_share_A")

    @cached_property
    def context(self) -> Env:
        Ep, mp, ren = self.Ep, self.Ep.measure, {self.Ep.obj.name: "Ep"}
        maps = {"muE": Ep.mu_E, "etaE": Ep.eta_E, "iE": Ep.i, "pE": Ep.p, "dE": Ep.delta_E}
        return self.E.context.child({
            "rhop": mp.rho,
            "chip": mp.chi,
            "nup": Ep.cocycle.nu,
            "fp": Ep.cocycle.f,
            "u1p": mp.u(1),
            **{name + "p": rename_factor(m, ren) for name, m in maps.items()},
        })

    def with_phi(self, phi: LinMap) -> Env:
        """A new child of the context binding phi.  Raises StructureError
        unless phi is a map H -> A."""
        m = self.E.measure
        if phi.dom != (m.H.obj,) or phi.cod != (m.A.obj,):
            raise StructureError("phi must be a map H -> A")
        return self.context.child({"phi": phi})


def iso_laws(env: Env, report: VerdictReport) -> VerdictReport:
    """The iso laws of the map ``env`` binds as Phi, added to ``report``."""
    run_identity_table(ids.ISO_IDENTITIES, env, report)
    report.add_bool("iso_invertible", invert(env.bindings["Phi"]) is not None)
    return report


def equivalence_from_phi(
    E: CrossedProduct, Ep: CrossedProduct, phi: LinMap
) -> tuple[Optional[LinMap], VerdictReport]:
    """Check the five conditions on phi; on success return the induced
    isomorphism (verified unital, multiplicative, linear, colinear).
    Raises StructureError unless phi is a map H -> A."""
    m, mp = E.measure, Ep.measure
    env = ProductPair(E, Ep).with_phi(phi)
    report = VerdictReport("equivalence from phi")
    run_identity_table(ids.EQUIVALENCE_CONDITIONS, env, report)
    phi_inv = _conv_solve(phi, m.u(1), mp.u(1), m.H.coalgebra, m.A)
    report.add_bool("phi_inverse_exists", phi_inv is not None)
    if phi_inv is not None:
        env = env.child({"phiinv": phi_inv})
        run_identity_table(ids.PHI_INVERSE_IDENTITIES, env, report)
    if not report.all_pass:
        return None, report
    env = env.child({"Phi": eval_text(ids.TRANSPORT_EXPR, env)})
    iso_laws(env, report)
    env = env.child({"Phiinv": eval_text(ids.TRANSPORT_BACK_EXPR, env)})
    run_identity_table(ids.ISO_INVERSE_IDENTITIES, env, report)
    if not report.all_pass:
        return None, report
    return rename_factor(env.bindings["Phi"], {"Ep": Ep.obj.name}), report


def phi_from_iso(E: CrossedProduct, Ep: CrossedProduct, Phi: LinMap) -> LinMap:
    """Recover the exchange map from a verified isomorphism; raises
    NotAnEquivalence naming the first failing property, StructureError
    unless Phi is a map E -> Ep."""
    if Phi.dom != (E.obj,) or Phi.cod != (Ep.obj,):
        raise StructureError("Phi must be a map E -> Ep")
    pair, P = ProductPair(E, Ep), (Obj("Ep", Ep.E_dim),)  # Phi's codomain, as the pair names it
    Phi = LinMap.from_int_columns(Phi.field, Phi.dom, P, *Phi.int_columns())
    env = pair.context.child({"Phi": Phi})
    fail = iso_laws(env, VerdictReport()).first_failure()
    if fail is not None:
        raise NotAnEquivalence(fail.check_id)
    env = env.child({"phi": eval_text(ids.PHI_FROM_ISO_EXPR, env)})
    fail = run_identity_table(ids.EQUIVALENCE_CONDITIONS, env).first_failure()
    if fail is not None:
        raise NotAnEquivalence(fail.check_id)
    # The two correspondences invert each other on this input.
    if not check_identity_text(ids.TRANSPORT_EXPR, "Phi", env).passed:
        raise NotAnEquivalence("round_trip_iso")
    return env.bindings["phi"]
