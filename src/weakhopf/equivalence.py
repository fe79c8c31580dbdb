"""Equivalences of weak crossed products over the same measured pair.

A map phi: H -> A satisfying the five exchange conditions induces a unital
algebra isomorphism between the two products that is left A-linear and right
H-colinear, and conversely every such isomorphism arises this way; the two
correspondences are mutually inverse.
"""
from __future__ import annotations

from typing import Optional

from . import identities as ids
from .algebra import _conv_solve
from .crossed import CrossedProduct, WeakMeasure
from .ir import Env, eval_text, run_identity_table
from .linalg import LinMap, Obj, invert, rename_factor
from .report import VerdictReport


class NotAnEquivalence(ValueError):
    def __init__(self, check_id: str):
        super().__init__(f"not an equivalence of crossed products: {check_id}")
        self.check_id = check_id


def _require_shared_H(m: WeakMeasure, mp: WeakMeasure) -> None:
    H, Hp = m.H, mp.H
    if H is not Hp and (H.mu, H.eta, H.delta, H.eps) != (Hp.mu, Hp.eta, Hp.delta, Hp.eps):
        raise NotAnEquivalence("products_share_H")


def _pair_env(E: CrossedProduct, Ep: CrossedProduct, phi: LinMap):
    """The context of the exchange conditions: E's bindings, phi, and the
    measure and cocycle data of Ep primed."""
    mp = Ep.measure
    return E.context.child(
        {
            "phi": phi,
            "rhop": mp.rho,
            "chip": mp.chi,
            "nup": Ep.cocycle.nu,
            "fp": Ep.cocycle.f,
            "u1p": mp.u(1),
        }
    )


def _primed(Ep: CrossedProduct) -> dict:
    """Ep's product, unit, split maps and coaction on a carrier named Ep, so
    that they share a context with E's even when both carriers are named E."""
    ren = {Ep.obj.name: "Ep"}
    maps = {"muE": Ep.mu_E, "etaE": Ep.eta_E, "iE": Ep.i, "pE": Ep.p, "dE": Ep.delta_E}
    return {name + "p": rename_factor(m, ren) for name, m in maps.items()}


def _transport(E: CrossedProduct, Ep: CrossedProduct, phi: LinMap) -> LinMap:
    """The induced map between split images: include, insert phi, project."""
    m = eval_text(ids.TRANSPORT_EXPR, _pair_env(E, Ep, phi).child(_primed(Ep)))
    return LinMap(m.field, m.dom, (Ep.obj,), m.rows, m.int_columns())


def _verify_iso(E: CrossedProduct, Ep: CrossedProduct, Phi: LinMap, report: VerdictReport) -> Env:
    """The iso laws of Phi: E -> Ep; returns their context, Phi bound into Ep."""
    P = (Obj("Ep", Ep.E_dim),)
    Phi = LinMap(Phi.field, Phi.dom, P, Phi.rows, Phi.int_columns())
    env = E.context.child({**_primed(Ep), "Phi": Phi})
    run_identity_table(ids.ISO_IDENTITIES, env, report)
    report.add_bool("iso_invertible", invert(Phi) is not None)
    return env


def equivalence_from_phi(
    E: CrossedProduct, Ep: CrossedProduct, phi: LinMap
) -> tuple[Optional[LinMap], VerdictReport]:
    """Check the five conditions on phi; on success return the induced
    isomorphism (verified unital, multiplicative, linear, colinear)."""
    report = VerdictReport("equivalence from phi")
    m, mp = E.measure, Ep.measure
    _require_shared_H(m, mp)
    env = _pair_env(E, Ep, phi)
    run_identity_table(ids.EQUIVALENCE_CONDITIONS, env, report)
    phi_inv = _conv_solve(phi, m.u(1), mp.u(1), m.H.coalgebra, m.A)
    report.add_bool("phi_inverse_exists", phi_inv is not None)
    if phi_inv is not None:
        run_identity_table(ids.PHI_INVERSE_IDENTITIES, env.child({"phiinv": phi_inv}), report)
    if not report.all_pass:
        return None, report
    Phi = _transport(E, Ep, phi)
    env = _verify_iso(E, Ep, Phi, report)
    Phi_inv = _transport(Ep, E, phi_inv)
    P = env.bindings["Phi"].cod
    Phi_inv = LinMap(Phi_inv.field, P, Phi_inv.cod, Phi_inv.rows, Phi_inv.int_columns())
    env = env.child({"Phiinv": Phi_inv})
    run_identity_table(ids.ISO_INVERSE_IDENTITIES, env, report)
    if not report.all_pass:
        return None, report
    return Phi, report


def phi_from_iso(E: CrossedProduct, Ep: CrossedProduct, Phi: LinMap) -> LinMap:
    """Recover the exchange map from a verified isomorphism; raises
    NotAnEquivalence naming the first failing property."""
    _require_shared_H(E.measure, Ep.measure)
    report = VerdictReport("iso properties")
    env = _verify_iso(E, Ep, Phi, report)
    fail = report.first_failure()
    if fail is not None:
        raise NotAnEquivalence(fail.check_id)
    phi = eval_text(ids.PHI_FROM_ISO_EXPR, env)
    cond_report = VerdictReport("recovered phi conditions")
    run_identity_table(ids.EQUIVALENCE_CONDITIONS, _pair_env(E, Ep, phi), cond_report)
    fail = cond_report.first_failure()
    if fail is not None:
        raise NotAnEquivalence(fail.check_id)
    # The two correspondences invert each other on this input.
    if _transport(E, Ep, phi) != Phi:
        raise NotAnEquivalence("round_trip_iso")
    return phi
