"""Exact computer algebra for weak bialgebras, weak crossed products and
cleft extensions, over the rationals or a prime field."""

from .fields import GF, QQ, Field, FieldError, field_from_spec
from .linalg import (
    LinMap,
    NotIdempotentError,
    Obj,
    ShapeError,
    compose,
    identity,
    split_idempotent,
    swap,
    tensor_product,
    zero_map,
)
from .ir import Env, check_identity, evaluate, infer_type
from .report import Verdict, VerdictReport, Witness
from .syntax import Signature, parse_expr, pretty
from .algebra import (
    AlgebraData,
    CoalgebraData,
    RegularityPreconditionFailed,
    StructureError,
    conv_inverse,
    convolve,
)
from .bialgebra import (
    InvalidStructure,
    WeakBialgebra,
    WeakHopfAlgebra,
    base_subalgebra,
    check_antipode,
    check_bialgebra_axioms,
    projection_identity_suite,
)
from .groupoid import (
    FiniteCategory,
    InvalidCategory,
    enumerate_groupoids,
    groupoid_algebra,
    pair_groupoid,
    group_groupoid,
)
from .crossed import (
    CocycleData,
    CrossedProduct,
    HypothesisFailed,
    MeasureAxiomError,
    PreconditionFailed,
    WeakMeasure,
    base_action_measure,
    build_crossed_product,
    check_weak_module_algebra,
    cocycle_report,
    crossed_product_law_suite,
    gamma_inverse,
    invert_cocycle,
    module_algebra_suite,
    smash_cocycle,
    trivial_measure,
    twisting,
)
from .equivalence import NotAnEquivalence, ProductPair, equivalence_from_phi, phi_from_iso
from .cleft import (
    CleavingData,
    ComoduleAlgebra,
    Decomposition,
    Extension,
    FactorizationFailed,
    Reconstruction,
    cleaving_check,
    comodule_algebra_report,
    crossed_to_cleft,
    decomposition,
    extension_check,
    full_reconstruction,
    reconstruct,
)

__version__ = "0.1.0"
