"""Textual identity tables for every law the suites verify.

Each entry is (check_id, lhs, rhs) in the expression DSL of :mod:`weakhopf.ir`.
The same tables drive the validation suites and the bundled corpus files, so
the shipped corpus cannot drift from what the library checks.

Conventions: the bialgebra carrier is ``H`` with generators ``mu``, ``eta``,
``Delta``, ``eps``, projections ``piL``, ``piR``, ``piLb``, ``piRb`` and
optional antipode ``S``; a measured algebra is ``A`` with ``muA``, ``etaA``
and measure ``rho``; cocycle data binds ``f``, ``Ff``, ``chi``, ``nab``,
``nu`` and the unit powers ``u1``, ``u2``, ``u3``, ``v2``, ``v3``; a built
crossed product adds ``E`` with ``muE``, ``etaE``, ``iE``, ``pE``, ``jnu``,
``gam``, ``gaminv``, ``dE`` and the cocycle inverse ``finv``; cleft data uses
``B``, ``muB``, ``etaB``, ``dB``, ``j``, ``gamB``, ``gamBinv``, ``q``, ``p``,
``w``, ``wt``, ``Ups``.
"""
from __future__ import annotations


def conv(a: str, b: str, delta: str, mu: str) -> str:
    """Convolution a * b of maps out of a coalgebra with comultiplication
    expression ``delta``, multiplying with ``mu``."""
    return f"{delta} ; ({a}) * ({b}) ; {mu}"


# Comultiplications of tensor powers of H, interleaved by adjacent swaps.
DELTA_H = "Delta"
DELTA_H2 = "Delta * Delta ; id(H) * swap(H,H) * id(H)"
DELTA_H3 = (
    "Delta * Delta * Delta"
    " ; id(H) * swap(H,H) * id(H,H,H)"
    " ; id(H,H,H) * swap(H,H) * id(H)"
    " ; id(H,H) * swap(H,H) * id(H,H)"
)
_DELTAS = {1: DELTA_H, 2: DELTA_H2, 3: DELTA_H3}


def conv_h(a: str, b: str, n: int, mu: str = "muA") -> str:
    """Convolution on maps out of the n-th tensor power of H."""
    return conv(a, b, _DELTAS[n], mu)


U1 = "id(H) * etaA ; rho"  # unit image of the measure


def u_formula(n: int) -> str:
    """The unit power u_n: H^(x)n -> A, the unit image of the product of the
    n factors (multiplied from the left)."""
    if n == 1:
        return U1
    mult = "mu"
    for _ in range(n - 2):
        mult = f"({mult}) * id(H) ; mu"
    return f"{mult} ; {U1}"


def v_formula(n: int) -> str:
    """The iterated action on the unit: v_1 = u_1, v_(n+1) = (H (x) v_n) ; rho."""
    return U1 if n == 1 else f"id(H) * ({v_formula(n - 1)}) ; rho"

# --------------------------------------------------------------------------
# Weak bialgebra axioms
# --------------------------------------------------------------------------

BIALGEBRA_AXIOMS = [
    ("mult_associative", "mu * id(H) ; mu", "id(H) * mu ; mu"),
    ("unit_left", "eta * id(H) ; mu", "id(H)"),
    ("unit_right", "id(H) * eta ; mu", "id(H)"),
    ("comult_coassociative", "Delta ; Delta * id(H)", "Delta ; id(H) * Delta"),
    ("counit_left", "Delta ; eps * id(H)", "id(H)"),
    ("counit_right", "Delta ; id(H) * eps", "id(H)"),
    ("comult_multiplicative", "mu ; Delta", f"{DELTA_H2} ; mu * mu"),
    (
        "counit_weak_mult_1",
        "mu * id(H) ; mu ; eps",
        "id(H) * Delta * id(H) ; (mu ; eps) * (mu ; eps)",
    ),
    (
        "counit_weak_mult_2",
        "mu * id(H) ; mu ; eps",
        "id(H) * (Delta ; swap(H,H)) * id(H) ; (mu ; eps) * (mu ; eps)",
    ),
    (
        "unit_weak_comult_1",
        "eta ; Delta ; Delta * id(H)",
        "(eta ; Delta) * (eta ; Delta) ; id(H) * mu * id(H)",
    ),
    (
        "unit_weak_comult_2",
        "eta ; Delta ; Delta * id(H)",
        "(eta ; Delta) * (eta ; Delta) ; id(H) * (swap(H,H) ; mu) * id(H)",
    ),
]

# Defining composites of the four source/target projections.
PROJECTION_FORMULAS = {
    "piL": "(eta ; Delta) * id(H) ; id(H) * swap(H,H) ; (mu ; eps) * id(H)",
    "piR": "id(H) * (eta ; Delta) ; swap(H,H) * id(H) ; id(H) * (mu ; eps)",
    "piLb": "(eta ; Delta) * id(H) ; id(H) * (mu ; eps)",
    "piRb": "id(H) * (eta ; Delta) ; (mu ; eps) * id(H)",
}

PROJECTION_BASICS = [
    (f"{k}_{prop}", lhs, rhs)
    for k in ("piL", "piR", "piLb", "piRb")
    for prop, lhs, rhs in (
        ("idempotent", f"{k} ; {k}", f"{k}"),
        ("unitary", f"eta ; {k}", "eta"),
        ("counitary", f"{k} ; eps", "eps"),
    )
]

PROJECTION_IDENTITIES = [
    ("proj_LbR", "piR ; piLb", "piR"),
    ("proj_RbL", "piL ; piRb", "piL"),
    ("proj_R_Lb", "piLb ; piR", "piLb"),
    ("conv_id_piR", conv("id(H)", "piR", DELTA_H, "mu"), "id(H)"),
    ("conv_piL_id", conv("piL", "id(H)", DELTA_H, "mu"), "id(H)"),
    ("unit_comult_R_left", "eta ; Delta ; piR * id(H)", "eta ; Delta"),
    ("unit_comult_L_right", "eta ; Delta ; id(H) * piL", "eta ; Delta"),
    ("unit_comult_RL", "eta ; Delta ; piR * piL", "eta ; Delta"),
    ("unit_comult_Lb_left", "eta ; Delta ; piLb * id(H)", "eta ; Delta"),
    ("unit_comult_Rb_right", "eta ; Delta ; id(H) * piRb", "eta ; Delta"),
    ("unit_comult_LbRb", "eta ; Delta ; piLb * piRb", "eta ; Delta"),
    ("subalg_L_closed", "piL * piL ; mu", "piL * piL ; mu ; piL"),
    ("subalg_L_absorb", "piL * piL ; mu ; piL", "piL * id(H) ; mu ; piL"),
    ("subalg_R_closed", "piR * piR ; mu", "piR * piR ; mu ; piR"),
    ("subalg_R_absorb", "piR * piR ; mu ; piR", "id(H) * piR ; mu ; piR"),
    ("weak_commutativity", "piL * piR ; swap(H,H) ; mu", "piL * piR ; mu"),
    (
        "mult_into_piL",
        "id(H) * piL ; mu",
        "Delta * id(H) ; id(H) * swap(H,H) ; (mu ; eps) * id(H)",
    ),
    (
        "mult_into_piR",
        "piR * id(H) ; mu",
        "id(H) * Delta ; swap(H,H) * id(H) ; id(H) * (mu ; eps)",
    ),
    (
        "comult_into_piL",
        "Delta ; id(H) * piL",
        "(eta ; Delta) * id(H) ; id(H) * swap(H,H) ; mu * id(H)",
    ),
    ("piL_mult_absorb", "mu ; piL", "id(H) * piL ; mu ; piL"),
    ("piR_mult_absorb", "mu ; piR", "piR * id(H) ; mu ; piR"),
    ("piL_comult_absorb", "piL ; Delta", "piL ; Delta ; id(H) * piL"),
    ("piR_comult_absorb", "piR ; Delta", "piR ; Delta ; piR * id(H)"),
    ("piL_mult_counit_1", "Delta * id(H) ; piL * (mu ; eps)", "mu ; piL"),
    (
        "piL_mult_counit_2",
        "Delta * id(H) ; id(H) * swap(H,H) ; (mu ; eps) * piL",
        "mu ; piL",
    ),
    ("piR_mult_counit_1", "id(H) * Delta ; (mu ; eps) * piR", "mu ; piR"),
    (
        "piR_mult_counit_2",
        "id(H) * Delta ; swap(H,H) * id(H) ; piR * (mu ; eps)",
        "mu ; piR",
    ),
    ("piL_comult_unit_1", "piL * (eta ; Delta) ; mu * id(H)", "piL ; Delta"),
    (
        "piL_comult_unit_2",
        "(eta ; Delta) * piL ; id(H) * swap(H,H) ; mu * id(H)",
        "piL ; Delta",
    ),
    ("piR_comult_unit_1", "(eta ; Delta) * piR ; id(H) * mu", "piR ; Delta"),
    (
        "piR_comult_unit_2",
        "piR * (eta ; Delta) ; swap(H,H) * id(H) ; id(H) * mu",
        "piR ; Delta",
    ),
    (
        "comult_mult_piR_left",
        "piR * id(H) ; mu ; Delta",
        "piR * Delta ; swap(H,H) * id(H) ; id(H) * mu",
    ),
    ("comult_mult_piR_right", "id(H) * piR ; mu ; Delta", "Delta * piR ; id(H) * mu"),
    (
        "comult_mult_piL_right",
        "id(H) * piL ; mu ; Delta",
        "Delta * piL ; id(H) * swap(H,H) ; mu * id(H)",
    ),
    ("comult_mult_piL_left", "piL * id(H) ; mu ; Delta", "piL * Delta ; mu * id(H)"),
]

ANTIPODE_PROJECTION_IDENTITIES = [
    ("antipode_piL_via_Rb", "S ; piRb", "piL"),
    ("antipode_piL_via_Lb", "piLb ; S", "piL"),
    ("antipode_piR_via_Lb", "S ; piLb", "piR"),
    ("antipode_piR_via_Rb", "piRb ; S", "piR"),
    (
        "antipode_unit_comult_right",
        "id(H) * eta ; id(H) * Delta ; mu * S",
        "Delta ; id(H) * piR",
    ),
    (
        "antipode_unit_comult_left",
        "eta * id(H) ; Delta * id(H) ; S * mu",
        "Delta ; piL * id(H)",
    ),
]

ANTIPODE_AXIOMS = [
    ("antipode_cancel_left", "Delta ; id(H) * S ; mu", "piL"),
    ("antipode_cancel_right", "Delta ; S * id(H) ; mu", "piR"),
    (
        "antipode_sandwich",
        "Delta ; Delta * id(H) ; S * id(H) * S ; mu * id(H) ; mu",
        "S",
    ),
    ("antipode_unit", "eta ; S", "eta"),
    ("antipode_counit", "S ; eps", "eps"),
    ("antipode_antimult", "mu ; S", "S * S ; swap(H,H) ; mu"),
    ("antipode_anticomult", "S ; Delta", "Delta ; S * S ; swap(H,H)"),
]

# --------------------------------------------------------------------------
# Weak measures and module algebras (generators rho, muA, etaA over H, A)
# --------------------------------------------------------------------------

MEASURE_AXIOM = (
    "measure_axiom",
    "id(H) * muA ; rho",
    "Delta * id(A,A) ; id(H) * swap(H,A) * id(A) ; rho * rho ; muA",
)

MODULE_ALGEBRA_IDENTITIES = [
    ("wma_unital", "eta * id(A) ; rho", "id(A)"),
    MEASURE_AXIOM,
    ("wma_unit_power", "mu * etaA ; rho", f"id(H) * ({U1}) ; rho"),
    ("wma_piL_action", "piL * id(A) ; rho", f"({U1}) * id(A) ; muA"),
    (
        "wma_piLb_action",
        "piLb * id(A) ; rho",
        f"({U1}) * id(A) ; swap(A,A) ; muA",
    ),
    ("wma_piL_unit", "piL * etaA ; rho", U1),
    ("wma_piLb_unit", "piLb * etaA ; rho", U1),
    (
        "wma_iterated_unit_1",
        f"id(H) * ({U1}) ; rho",
        "Delta * id(H) * etaA ; id(H) * mu * id(A) ; id(H) * swap(H,A) ; rho * eps",
    ),
    (
        "wma_iterated_unit_2",
        f"id(H) * ({U1}) ; rho",
        "Delta * id(H) * etaA ; id(H) * swap(H,H) * id(A) ; mu * rho ; eps * id(A)",
    ),
    (
        "wma_piLb_comult",
        "Delta * id(A) ; id(H) * swap(H,A) ; (piLb * id(A) ; rho) * id(H)",
        "(eta ; Delta) * id(H,A) ; id(H) * mu * id(A) ; id(H) * swap(H,A) ; rho * id(H)",
    ),
]

# Identities (4)-(9) above must agree pairwise once (1)-(3) hold.
MODULE_ALGEBRA_EQUIVALENT_IDS = (
    "wma_piL_action",
    "wma_piLb_action",
    "wma_piL_unit",
    "wma_piLb_unit",
    "wma_iterated_unit_1",
    "wma_iterated_unit_2",
)

CHI_FORMULA = "Delta * id(A) ; id(H) * swap(H,A) ; rho * id(H)"
NABLA_FORMULA = (
    "id(A) * Delta * etaA ; id(A,H) * swap(H,A) ; id(A) * rho * id(H) ; muA * id(H)"
)

TWISTING_IDENTITIES = [
    (
        "twisted_space_law",
        "id(H) * muA ; chi",
        "chi * id(A) ; id(A) * chi ; muA * id(H)",
    ),
    ("twisting_counit", "chi ; id(A) * eps", "rho"),
    ("nabla_idempotent", "nab ; nab", "nab"),
    ("chi_normalized", "chi ; nab", "chi"),
]

# --------------------------------------------------------------------------
# Cocycles (f, Ff, nu, u1, u2, u3, v2, v3 bound as generators)
# --------------------------------------------------------------------------

FF_FORMULA = f"{DELTA_H2} ; f * mu"
NU_FORMULA = "etaA * eta ; nab"

TWISTED_MODULE_F_LHS = "Ff * id(A) ; id(A) * rho ; muA"
TWISTED_MODULE_F_RHS = "id(H) * chi ; chi * id(H) ; id(A) * f ; muA"
COCYCLE_F_LHS = "Ff * id(H) ; id(A) * f ; muA"
COCYCLE_F_RHS = "id(H) * Ff ; chi * id(H) ; id(A) * f ; muA"
TWISTED_MODULE_BIG_LHS = "Ff * id(A) ; id(A) * chi ; muA * id(H)"
TWISTED_MODULE_BIG_RHS = "id(H) * chi ; chi * id(H) ; id(A) * Ff ; muA * id(H)"
COCYCLE_BIG_LHS = "Ff * id(H) ; id(A) * Ff ; muA * id(H)"
COCYCLE_BIG_RHS = "id(H) * Ff ; chi * id(H) ; id(A) * Ff ; muA * id(H)"

COCYCLE_IDENTITIES = [
    ("cocycle_counit_form", "Ff ; id(A) * eps", "f"),
    ("cocycle_image_normalized", "Ff ; nab", "Ff"),
    ("cocycle_conv_u2", "Ff * etaA ; id(A) * rho ; muA", "f"),
    ("cocycle_u2_conv", conv_h("u2", "f", 2), "f"),
    ("twisted_module_f", TWISTED_MODULE_F_LHS, TWISTED_MODULE_F_RHS),
    ("cocycle_f", COCYCLE_F_LHS, COCYCLE_F_RHS),
    ("twisted_module_lifted", TWISTED_MODULE_BIG_LHS, TWISTED_MODULE_BIG_RHS),
    ("cocycle_lifted", COCYCLE_BIG_LHS, COCYCLE_BIG_RHS),
    ("cocycle_normal_left", "eta * id(H) ; f", "u1"),
    ("cocycle_normal_right", "id(H) * eta ; f", "u1"),
    ("u1_idempotent", conv_h("u1", "u1", 1), "u1"),
    ("u2_idempotent", conv_h("u2", "u2", 2), "u2"),
    ("u3_idempotent", conv_h("u3", "u3", 3), "u3"),
    ("v2_idempotent", conv_h("v2", "v2", 2), "v2"),
    ("v3_idempotent", conv_h("v3", "v3", 3), "v3"),
    ("v_eps_ladder_1", conv_h("u1 * eps", "v2", 2), "v2"),
    ("v_eps_ladder_2", conv_h("v2 * eps", "v3", 3), "v3"),
    ("conv_right_left_u2", conv_h("f", "u2", 2), conv_h("v2", "f", 2)),
    (
        "cocycle_mult_piR_swap",
        "id(H) * piR * id(H) ; mu * id(H) ; f",
        "id(H) * piR * id(H) ; id(H) * mu ; f",
    ),
    (
        "cocycle_mult_piL_swap",
        "id(H) * piL * id(H) ; mu * id(H) ; f",
        "id(H) * piL * id(H) ; id(H) * mu ; f",
    ),
]

# The crossed-product construction hypotheses, in reporting order.
BUILD_HYPOTHESES = [
    ("cocycle_normalized", "Ff * etaA ; id(A) * rho ; muA", "f"),
    ("twisted_module", TWISTED_MODULE_F_LHS, TWISTED_MODULE_F_RHS),
    ("cocycle", COCYCLE_F_LHS, COCYCLE_F_RHS),
    (
        "preunit1",
        U1,
        "Delta * nu ; id(H) * swap(H,A) * id(H) ; rho * f ; muA",
    ),
    ("preunit2", U1, "nu * id(H) ; id(A) * f ; muA"),
    (
        "preunit3",
        "nu * id(A) ; id(A) * chi ; muA * id(H)",
        "id(A) * nu ; muA * id(H)",
    ),
]

NU_PROJECTED = ("nu_projected", "nu ; id(A) * piL", "nu")

# --------------------------------------------------------------------------
# Built crossed product laws (adds E with muE, etaE, iE, pE, jnu, gam, dE)
# --------------------------------------------------------------------------

MU_EE = "id(A) * chi * id(H) ; muA * Ff ; muA * id(H)"  # product on A (x) H
J_NU_PRIME = "id(A) * nu ; muA * id(H)"

# The built product in split-image coordinates: iE: E -> A (x) H and
# pE: A (x) H -> E split nab.
MU_E_EXPR = f"iE * iE ; {MU_EE} ; pE"
ETA_E_EXPR = "nu ; pE"
J_NU_EXPR = f"{J_NU_PRIME} ; pE"
GAMMA_EXPR = "etaA * id(H) ; pE"
DELTA_E_EXPR = "iE ; id(A) * Delta ; pE * id(H)"

CROSSED_LAW_IDENTITIES = [
    ("mu_E_associative", "muE * id(E) ; muE", "id(E) * muE ; muE"),
    ("mu_E_unit_left", "etaE * id(E) ; muE", "id(E)"),
    ("mu_E_unit_right", "id(E) * etaE ; muE", "id(E)"),
    ("split_section", "pE ; iE", "nab"),
    ("split_retraction", "iE ; pE", "id(E)"),
    ("mu_E_definition", "muE", f"iE * iE ; {MU_EE} ; pE"),
    ("i_multiplicative", "muE ; iE", f"iE * iE ; {MU_EE}"),
    ("p_multiplicative", f"{MU_EE} ; pE", "pE * pE ; muE"),
    ("mu_big_normalized_left", f"{MU_EE} ; nab", MU_EE),
    ("mu_big_normalized_right", f"nab * nab ; {MU_EE}", MU_EE),
    ("nu_preunit_commutes", f"id(A,H) * nu ; {MU_EE}", f"nu * id(A,H) ; {MU_EE}"),
    ("nu_preunit_idempotent", f"nu * nu ; {MU_EE}", "nu"),
    ("nabla_nu_equals_nabla", f"id(A,H) * nu ; {MU_EE}", "nab"),
    ("eta_E_definition", "nu ; pE", "etaE"),
    ("gamma_unit", "eta ; gam", "etaE"),
    ("j_nu_section", "jnu ; iE", J_NU_PRIME),
    ("j_nu_prime_normalized", f"{J_NU_PRIME} ; nab", J_NU_PRIME),
    ("j_nu_multiplicative", "muA ; jnu", "jnu * jnu ; muE"),
    ("j_nu_unitary", "etaA ; jnu", "etaE"),
    ("j_nu_left_linear", "jnu * id(E) ; muE", "id(A) * iE ; muA * id(H) ; pE"),
    (
        "j_nu_right_linear",
        "id(E) * jnu ; muE",
        "iE * id(A) ; id(A) * chi ; muA * id(H) ; pE",
    ),
    ("left_action_is_p", "jnu * gam ; muE", "pE"),
    ("gamma_jnu_via_chi", "gam * jnu ; muE", "chi ; jnu * gam ; muE"),
    ("gamma_gamma_via_Ff", "gam * gam ; muE", "Ff ; jnu * gam ; muE"),
    ("chi_factorization", "chi", "gam * jnu ; muE ; iE"),
    ("cocycle_factorization", "Ff", "gam * gam ; muE ; iE"),
    ("delta_E_definition", "iE ; id(A) * Delta ; pE * id(H)", "dE"),
    ("delta_E_coassociative", "dE ; dE * id(H)", "dE ; id(E) * Delta"),
    ("delta_E_counitary", "dE ; id(E) * eps", "id(E)"),
    ("i_colinear", "iE ; id(A) * Delta", "dE ; iE * id(H)"),
    ("p_colinear", "pE ; dE", "id(A) * Delta ; pE * id(H)"),
    (
        "mu_E_colinear",
        "muE ; dE",
        "dE * dE ; id(E) * swap(H,E) * id(H) ; muE * mu",
    ),
    ("gamma_colinear", "gam ; dE", "Delta ; gam * id(H)"),
    (
        "comodule_algebra_unit",
        "etaE ; dE ; id(E) * Delta",
        "(etaE ; dE) * (eta ; Delta) ; id(E) * mu * id(H)",
    ),
]

# --------------------------------------------------------------------------
# Weak module algebra consequences on a built product (needs S for some)
# --------------------------------------------------------------------------

GAMMA_JNU_GAMMA = "gam * jnu * gam ; id(E) * muE ; muE"

MODULE_SUITE_IDENTITIES = [
    ("gamma_piL_via_junit", "piL ; gam", "u1 ; jnu"),
    (
        "piR_commute",
        "piR * id(A) ; gam * jnu ; muE",
        "swap(H,A) ; id(A) * piR ; jnu * gam ; muE",
    ),
    ("mult_gamma_piL_right", "gam * (piL ; gam) ; muE", "id(H) * piL ; mu ; gam"),
    ("mult_gamma_piL_left", "(piL ; gam) * gam ; muE", "piL * id(H) ; mu ; gam"),
    ("mult_gamma_piR_right", "gam * (piR ; gam) ; muE", "id(H) * piR ; mu ; gam"),
    ("mult_gamma_piR_left", "(piR ; gam) * gam ; muE", "piR * id(H) ; mu ; gam"),
    ("gamma_conv_piL", conv("piL ; gam", "gam", DELTA_H, "muE"), "gam"),
    ("gamma_conv_piR", conv("gam", "piR ; gam", DELTA_H, "muE"), "gam"),
    (
        "nabla_nu_via_action",
        "eta * id(A,H) ; Delta * id(A,H) ; id(H) * swap(H,A) * id(H) ; rho * mu",
        "nab",
    ),
]

MODULE_SUITE_ANTIPODE_IDENTITIES = [
    (
        "unit_pair_absorb_1",
        "id(H) * (eta ; Delta) * id(H) ; id(H) * S * id(H,H) ; mu * mu ; gam * gam ; muE",
        "gam * gam ; muE",
    ),
    (
        "unit_pair_absorb_2",
        "id(H) * (eta ; Delta) * id(H) ; id(H,H) * S * id(H) ; mu * mu ; gam * gam ; muE",
        "gam * gam ; muE",
    ),
    (
        "sandwich_absorb_1",
        "id(H) * (eta ; Delta) * id(A,H) ; id(H,H) * S * id(A,H) ;"
        f" mu * swap(H,A) * id(H) ; id(H,A) * mu ; {GAMMA_JNU_GAMMA}",
        GAMMA_JNU_GAMMA,
    ),
    (
        "sandwich_absorb_2",
        "id(H) * (eta ; Delta) * id(A,H) ; id(H) * S * id(H,A,H) ;"
        f" mu * swap(H,A) * id(H) ; id(H,A) * mu ; {GAMMA_JNU_GAMMA}",
        GAMMA_JNU_GAMMA,
    ),
]

# --------------------------------------------------------------------------
# Invertible cocycles (adds finv)
# --------------------------------------------------------------------------

F1 = "mu * id(H) ; f"
F2 = "id(H) * mu ; f"
F_RHO = "id(H) * f ; rho"
F_EPS = "f * eps"
F1_INV = "mu * id(H) ; finv"
F2_INV = "id(H) * mu ; finv"
F_RHO_INV = "id(H) * finv ; rho"
F_EPS_INV = "finv * eps"
F_HAT = conv_h("u3", F_EPS, 3)
F_HAT_INV = conv_h(F_EPS_INV, "u3", 3)

COCYCLE_INVERSE_IDENTITIES = [
    ("f_conv_finv", conv_h("f", "finv", 2), "u2"),
    ("finv_conv_f", conv_h("finv", "f", 2), "u2"),
    ("finv_normalized", conv_h("finv", "u2", 2), "finv"),
    ("f_u2_commute", conv_h("f", "u2", 2), conv_h("u2", "f", 2)),
    ("finv_u2_commute", conv_h("finv", "u2", 2), conv_h("u2", "finv", 2)),
    ("finv_normal_left", "eta * id(H) ; finv", "u1"),
    ("finv_normal_right", "id(H) * eta ; finv", "u1"),
    ("F1_conv_u3", conv_h(F1, "u3", 3), F1),
    ("u3_conv_F1", conv_h("u3", F1, 3), F1),
    ("F2_conv_u3", conv_h(F2, "u3", 3), F2),
    ("u3_conv_F2", conv_h("u3", F2, 3), F2),
    ("Frho_conv_u3", conv_h(F_RHO, "u3", 3), F_RHO),
    ("u3_conv_Frho", conv_h("u3", F_RHO, 3), F_RHO),
    ("F1_inverse_right", conv_h(F1, F1_INV, 3), "u3"),
    ("F1_inverse_left", conv_h(F1_INV, F1, 3), "u3"),
    ("F2_inverse_right", conv_h(F2, F2_INV, 3), "u3"),
    ("F2_inverse_left", conv_h(F2_INV, F2, 3), "u3"),
    ("Frho_inverse_right", conv_h(F_RHO, F_RHO_INV, 3), "u3"),
    ("Frho_inverse_left", conv_h(F_RHO_INV, F_RHO, 3), "u3"),
    ("Feps_conv_inv", conv_h(F_EPS, F_EPS_INV, 3), "u2 * eps"),
    ("Feps_inv_conv", conv_h(F_EPS_INV, F_EPS, 3), "u2 * eps"),
    ("Feps_conv_u3", conv_h(F_EPS, "u3", 3), "id(H,H) * piL ; id(H) * mu ; f"),
    ("u3_conv_Feps", conv_h("u3", F_EPS, 3), "id(H,H) * piL ; id(H) * mu ; f"),
    (
        "absorb_piL_forms",
        "id(H,H) * piL ; id(H) * mu ; f",
        "id(H,H) * piLb ; id(H) * mu ; f",
    ),
    ("Fhat_inverse_right", conv_h(F_HAT, F_HAT_INV, 3), "u3"),
    ("Fhat_inverse_left", conv_h(F_HAT_INV, F_HAT, 3), "u3"),
    ("cocycle_exchange", conv_h(F2, F1_INV, 3), conv_h(F_RHO_INV, F_HAT, 3)),
    (
        "finv_mult_piR_swap",
        "id(H) * piR * id(H) ; mu * id(H) ; finv",
        "id(H) * piR * id(H) ; id(H) * mu ; finv",
    ),
    (
        "finv_mult_piL_swap",
        "id(H) * piL * id(H) ; mu * id(H) ; finv",
        "id(H) * piL * id(H) ; id(H) * mu ; finv",
    ),
]

# gamma inverse on a built product (adds gaminv)
L_EXPR = "Delta ; S * id(H) ; finv"
Q_EXPR = "Delta ; S * id(H) ; Delta * id(H) ; id(H) * swap(H,H) ; finv * id(H)"
Q_ALT_EXPR = f"Delta ; swap(H,H) ; ({L_EXPR}) * S"

GAMMA_INVERSE_IDENTITIES = [
    ("gamma_inverse_definition", f"{Q_EXPR} ; jnu * gam ; muE", "gaminv"),
    ("q_expressions_agree", Q_EXPR, Q_ALT_EXPR),
    ("gammainv_conv_right", conv("gaminv", "gam", DELTA_H, "muE"), "piR ; gam"),
    ("gammainv_conv_left", conv("gam", "gaminv", DELTA_H, "muE"), "piL ; gam"),
    ("gammainv_normalized", conv("piR ; gam", "gaminv", DELTA_H, "muE"), "gaminv"),
    ("integral_total", "eta ; gam", "etaE"),
    ("integral_colinear", "gam ; dE", "Delta ; gam * id(H)"),
    (
        "cleft_coinvariant",
        "piL ; gam ; dE",
        "piL ; gam ; dE ; id(E) * piL",
    ),
    (
        "action_swap",
        "swap(H,A) ; jnu * gaminv ; muE",
        "Delta * id(A) ; id(H) * rho ; gaminv * jnu ; muE",
    ),
]

# --------------------------------------------------------------------------
# Equivalence of crossed products (phi: H -> A; primed data rhop, fp, chip,
# nup, u1p for the target product)
# --------------------------------------------------------------------------

EQUIVALENCE_CONDITIONS = [
    ("phi_left_normalized", conv_h("u1", "phi", 1), "phi"),
    ("phi_right_normalized", conv_h("phi", "u1p", 1), "phi"),
    ("phi_unit", "eta ; Delta ; phi * id(H)", "nup"),
    (
        "phi_action_exchange",
        "chi ; id(A) * phi ; muA",
        "Delta * id(A) ; phi * rhop ; muA",
    ),
    (
        "phi_cocycle_exchange",
        "Ff ; id(A) * phi ; muA",
        "Delta * Delta ; phi * id(H) * phi * id(H) ; id(A) * chip * id(H) ; muA * fp ; muA",
    ),
]

L_PHI = "id(A) * Delta ; id(A) * phi * id(H) ; muA * id(H)"

# --------------------------------------------------------------------------
# Comodule algebras, extensions, cleaving maps (B side)
# --------------------------------------------------------------------------

COMODULE_IDENTITIES = [
    ("coaction_coassociative", "dB ; dB * id(H)", "dB ; id(B) * Delta"),
    ("coaction_counitary", "dB ; id(B) * eps", "id(B)"),
    (
        "mu_B_colinear",
        "muB ; dB",
        "dB * dB ; id(B) * swap(H,B) * id(H) ; muB * mu",
    ),
    (
        "weak_unit_1",
        "etaB ; dB ; id(B) * Delta",
        "(etaB ; dB) * (eta ; Delta) ; id(B) * mu * id(H)",
    ),
    (
        "weak_unit_2",
        "etaB ; dB ; id(B) * Delta",
        "(etaB ; dB) * (eta ; Delta) ; id(B) * swap(H,H) * id(H) ; id(B) * mu * id(H)",
    ),
    ("weak_unit_3", "dB ; id(B) * piRb", "id(B) * (etaB ; dB) ; muB * id(H)"),
    (
        "weak_unit_4",
        "dB ; id(B) * piL",
        "(etaB ; dB) * id(B) ; id(B) * swap(H,B) ; muB * id(H)",
    ),
    ("weak_unit_5", "etaB ; dB ; id(B) * piRb", "etaB ; dB"),
    ("weak_unit_6", "etaB ; dB ; id(B) * piL", "etaB ; dB"),
]

COMODULE_EQUIVALENT_IDS = (
    "weak_unit_1",
    "weak_unit_2",
    "weak_unit_3",
    "weak_unit_4",
    "weak_unit_5",
    "weak_unit_6",
)

CLEAVING_IDENTITIES = [
    ("integral_colinear", "gamB ; dB", "Delta ; gamB * id(H)"),
    ("integral_total", "eta ; gamB", "etaB"),
    ("cleaving_conv_right", conv("gamBinv", "gamB", DELTA_H, "muB"), "piR ; gamB"),
    ("cleaving_conv_left", conv("gamB", "gamBinv", DELTA_H, "muB"), "piL ; gamB"),
    (
        "cleaving_normalized",
        conv("piR ; gamB", "gamBinv", DELTA_H, "muB"),
        "gamBinv",
    ),
]

# The decomposition of a cleft extension: the entwining Upsilon, the
# coinvariant part q = p ; j (p is found by factoring q through j), the maps
# w: A (x) H -> B and w-tilde: B -> A (x) H, and the idempotent omega.
UPSILON_EXPR = "id(H) * dB ; swap(H,B) * id(H) ; id(B) * mu"
Q_CLEFT_EXPR = "dB ; id(B) * gamBinv ; muB"
W_EXPR = "j * gamB ; muB"
W_TILDE_EXPR = "dB ; p * id(H)"
OMEGA_EXPR = f"{W_EXPR} ; {W_TILDE_EXPR}"

DECOMPOSITION_IDENTITIES = [
    ("entwining_definition", UPSILON_EXPR, "Ups"),
    ("q_definition", Q_CLEFT_EXPR, "q"),
    ("q_factors_through_j", "q", "p ; j"),
    ("section_identity", "wt ; w", "id(B)"),
    ("omega_idempotent", "w ; wt ; w ; wt", "w ; wt"),
    ("w_definition", W_EXPR, "w"),
    ("wt_definition", W_TILDE_EXPR, "wt"),
    ("w_left_linear", "muA * id(H) ; w", "id(A) * w ; j * id(B) ; muB"),
    ("w_colinear", "w ; dB", "id(A) * Delta ; w * id(H)"),
    ("wt_left_linear", "j * id(B) ; muB ; wt", "id(A) * wt ; muA * id(H)"),
    ("wt_colinear", "dB ; wt * id(H)", "wt ; id(A) * Delta"),
    ("p_mult_level_one", "j * id(B) ; muB ; p", "id(A) * p ; muA"),
    ("q_gamma_conv", "gamB ; q", conv("gamB", "gamBinv", DELTA_H, "muB")),
    ("p_unit", "etaB ; p", "etaA"),
    ("p_retraction", "j ; p", "id(A)"),
    (
        "coaction_absorbs_j",
        "j * id(B) ; muB ; dB",
        "id(A) * dB ; j * id(B,H) ; muB * id(H)",
    ),
]

# The product of B transported to A (x) H along (w, w-tilde), its preunit,
# and the measure and cocycle read off it; each of the last two also has a
# closed form through p.
MU_TILDE_EXPR = "w * w ; muB ; wt"
NU_TILDE_EXPR = "etaB ; wt"
RHO_TILDE_EXPR = (
    f"etaA * id(H) * (id(A) * ({NU_TILDE_EXPR}) ; muA * id(H)) ; {MU_TILDE_EXPR} ; id(A) * eps"
)
F_TILDE_EXPR = f"etaA * id(H) * etaA * id(H) ; {MU_TILDE_EXPR} ; id(A) * eps"
RHO_CLOSED_EXPR = "gamB * j ; muB ; p"
F_CLOSED_EXPR = "gamB * gamB ; muB ; p"

SIGMA_EXPR = "Delta * gamB ; gamB * Ups ; muB * gamBinv ; muB"
SIGMA_INV_EXPR = conv(
    "mu ; gamB", "gamBinv * gamBinv ; swap(B,B) ; muB", DELTA_H2, "muB"
)

RECOVER_IDENTITIES = [
    ("sigma_definition", SIGMA_EXPR, "sig"),
    (
        "sigma_via_convolution",
        "sig",
        conv("gamB * gamB ; muB", "mu ; gamBinv", DELTA_H2, "muB"),
    ),
    ("sigma_inverse_definition", SIGMA_INV_EXPR, "siginv"),
    ("A1_right", conv_h("sig", "siginv", 2, "muB"), "mu ; gamB ; q"),
    ("A1_left", conv_h("siginv", "sig", 2, "muB"), "mu ; gamB ; q"),
    (
        "siginv_absorbs_right",
        conv_h("siginv", "mu ; gamB ; q", 2, "muB"),
        "siginv",
    ),
    (
        "siginv_absorbs_left",
        conv_h("mu ; gamB ; q", "siginv", 2, "muB"),
        "siginv",
    ),
]


def identity_corpus() -> dict:
    """The full identity corpus, nested context -> id -> {lhs, rhs}.

    Contexts name the environment the identity needs: a bare (weak) bialgebra,
    one with an antipode, a measured algebra, cocycle data, a built crossed
    product (plus inverse data), or a cleft extension.
    """
    corpus: dict = {}

    def put(context, table):
        block = corpus.setdefault(context, {})
        for check_id, lhs, rhs in table:
            block[check_id] = {"lhs": lhs, "rhs": rhs}

    put("bialgebra", BIALGEBRA_AXIOMS)
    put("bialgebra", PROJECTION_BASICS)
    put("bialgebra", PROJECTION_IDENTITIES)
    put("hopf", ANTIPODE_AXIOMS)
    put("hopf", ANTIPODE_PROJECTION_IDENTITIES)
    put("measure", MODULE_ALGEBRA_IDENTITIES)
    put("measure", TWISTING_IDENTITIES)
    put("cocycle", COCYCLE_IDENTITIES)
    put("cocycle", BUILD_HYPOTHESES)
    put("cocycle", [NU_PROJECTED])
    put("crossed", CROSSED_LAW_IDENTITIES)
    put("crossed", MODULE_SUITE_IDENTITIES)
    put("crossed", MODULE_SUITE_ANTIPODE_IDENTITIES)
    put("equivalence", EQUIVALENCE_CONDITIONS)
    put("crossed_inverse", COCYCLE_INVERSE_IDENTITIES)
    put("crossed_inverse", GAMMA_INVERSE_IDENTITIES)
    put("cleft", COMODULE_IDENTITIES)
    put("cleft", CLEAVING_IDENTITIES)
    put("cleft", DECOMPOSITION_IDENTITIES)
    put("cleft", RECOVER_IDENTITIES)
    return corpus
