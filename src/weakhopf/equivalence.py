"""Equivalences of weak crossed products over the same measured pair.

A map phi: H -> A satisfying the five exchange conditions induces a unital
algebra isomorphism between the two products that is left A-linear and right
H-colinear, and conversely every such isomorphism arises this way; the two
correspondences are mutually inverse.
"""
from __future__ import annotations

from typing import Optional

from . import identities as ids
from .algebra import _conv_solve, convolve
from .crossed import CrossedProduct, eval_text
from .ir import run_identity_table
from .linalg import LinMap, compose, identity, invert, tensor_product
from .report import VerdictReport


class NotAnEquivalence(ValueError):
    def __init__(self, check_id: str):
        super().__init__(f"not an equivalence of crossed products: {check_id}")
        self.check_id = check_id


def _pair_env(E: CrossedProduct, Ep: CrossedProduct, phi: LinMap):
    """The context of the exchange conditions: E's bindings, phi, and the
    measure and cocycle data of Ep primed."""
    mp = Ep.measure
    return E.env(
        extra={
            "phi": phi,
            "rhop": mp.rho,
            "chip": mp.chi,
            "nup": Ep.cocycle.nu,
            "fp": Ep.cocycle.f,
            "u1p": mp.u(1),
        }
    )


def _transport(E: CrossedProduct, Ep: CrossedProduct, phi: LinMap) -> LinMap:
    """The induced map between split images: project, insert phi, include."""
    env = _pair_env(E, Ep, phi)
    lphi = eval_text(ids.L_PHI, env)
    return compose(Ep.p, compose(lphi, E.i))


def _verify_iso(
    E: CrossedProduct, Ep: CrossedProduct, Phi: LinMap, report: VerdictReport, prefix: str = ""
) -> None:
    field = E.field
    idA = identity(field, E.measure.A.obj)
    idH = identity(field, E.measure.H.obj)
    report.add_equality(prefix + "iso_unitary", compose(Phi, E.eta_E), Ep.eta_E)
    report.add_equality(
        prefix + "iso_multiplicative",
        compose(Phi, E.mu_E),
        compose(Ep.mu_E, tensor_product(Phi, Phi)),
    )
    left_action = compose(E.p, compose(tensor_product(E.measure.A.mu, idH), tensor_product(idA, E.i)))
    left_action_p = compose(
        Ep.p, compose(tensor_product(Ep.measure.A.mu, idH), tensor_product(idA, Ep.i))
    )
    report.add_equality(
        prefix + "iso_left_linear",
        compose(Phi, left_action),
        compose(left_action_p, tensor_product(idA, Phi)),
    )
    report.add_equality(
        prefix + "iso_colinear",
        compose(Ep.delta_E, Phi),
        compose(tensor_product(Phi, idH), E.delta_E),
    )
    report.add_bool(prefix + "iso_invertible", invert(Phi) is not None)


def equivalence_from_phi(
    E: CrossedProduct, Ep: CrossedProduct, phi: LinMap
) -> tuple[Optional[LinMap], VerdictReport]:
    """Check the five conditions on phi; on success return the induced
    isomorphism (verified unital, multiplicative, linear, colinear)."""
    report = VerdictReport("equivalence from phi")
    m, mp = E.measure, Ep.measure
    if m.H is not mp.H and m.H.algebra.mu != mp.H.algebra.mu:
        raise NotAnEquivalence("products_share_H")
    env = _pair_env(E, Ep, phi)
    run_identity_table(ids.EQUIVALENCE_CONDITIONS, env, report)
    phi_inv = _conv_solve(phi, m.u(1), mp.u(1), m.H.coalgebra, m.A)
    report.add_bool("phi_inverse_exists", phi_inv is not None)
    if phi_inv is not None:
        report.add_equality(
            "phi_inverse_right", convolve(phi, phi_inv, m.H.coalgebra, m.A), m.u(1)
        )
        report.add_equality(
            "phi_inverse_left", convolve(phi_inv, phi, m.H.coalgebra, m.A), mp.u(1)
        )
    if not report.all_pass:
        return None, report
    Phi = _transport(E, Ep, phi)
    _verify_iso(E, Ep, Phi, report)
    assert phi_inv is not None
    Phi_inv = _transport(Ep, E, phi_inv)
    report.add_equality("iso_left_inverse", compose(Phi_inv, Phi), identity(E.field, E.obj))
    report.add_equality("iso_right_inverse", compose(Phi, Phi_inv), identity(E.field, Ep.obj))
    if not report.all_pass:
        return None, report
    return Phi, report


def phi_from_iso(E: CrossedProduct, Ep: CrossedProduct, Phi: LinMap) -> LinMap:
    """Recover the exchange map from a verified isomorphism; raises
    NotAnEquivalence naming the first failing property."""
    report = VerdictReport("iso properties")
    _verify_iso(E, Ep, Phi, report)
    fail = report.first_failure()
    if fail is not None:
        raise NotAnEquivalence(fail.check_id)
    idH = identity(E.field, E.measure.H.obj)
    phi = compose(
        tensor_product(identity(E.field, E.measure.A.obj), E.measure.H.eps),
        compose(Ep.i, compose(Phi, compose(E.p, tensor_product(E.measure.A.eta, idH)))),
    )
    cond_report = VerdictReport("recovered phi conditions")
    env = _pair_env(E, Ep, phi)
    run_identity_table(ids.EQUIVALENCE_CONDITIONS, env, cond_report)
    fail = cond_report.first_failure()
    if fail is not None:
        raise NotAnEquivalence(fail.check_id)
    # The two correspondences invert each other on this input.
    if _transport(E, Ep, phi) != Phi:
        raise NotAnEquivalence("round_trip_iso")
    return phi
