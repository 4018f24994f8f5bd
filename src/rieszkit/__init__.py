"""Exact computations with disjointness preserving multilinear operators.

Finite coordinatewise Riesz spaces over the rationals, sparse multilinear
operators between them, their bidual (Arens-style) extensions along every
slot permutation, and an eventually-constant-sequence model for the one
infinite-dimensional story worth telling at desk scale. Everything is
exact: no floats anywhere.
"""

from .arens import (
    ArensResult,
    DpPreservationReport,
    IntermediateForm,
    Permutation,
    all_permutations,
    arens_evaluate,
    arens_extension,
    check_dp_preservation,
    contract,
    is_dp_functional,
    pairing_identities,
    permute_form,
    span_disjointness,
)
from .operators import (
    MAX_ARITY,
    MAX_DIM,
    DPVerdict,
    DPWitness,
    LinOp,
    MultimorphismFactorization,
    MultiTensor,
    NotDisjointnessPreserving,
    ShapeError,
    extend_from_positive_cone,
    factorize_multimorphism,
    sign_expansion_value,
)
from .rational import as_fraction, format_rational, parse_rational
from .seqmodel import (
    DiagBilinear,
    EvConstSeq,
    WeightedCompOp,
    biadjoint_dp_check,
    comp_adjoint,
    comp_apply,
    comp_biadjoint,
    diag_apply,
    diag_arens,
    diag_arens_pair,
    dual_basis_dp,
    pair,
    rank_lower_bound,
    slotwise_dp_check,
)
from .vectors import FinVector

__version__ = "0.1.0"

__all__ = [
    "ArensResult",
    "DPVerdict",
    "DPWitness",
    "DiagBilinear",
    "DpPreservationReport",
    "EvConstSeq",
    "FinVector",
    "IntermediateForm",
    "LinOp",
    "MAX_ARITY",
    "MAX_DIM",
    "MultiTensor",
    "MultimorphismFactorization",
    "NotDisjointnessPreserving",
    "Permutation",
    "ShapeError",
    "WeightedCompOp",
    "all_permutations",
    "arens_evaluate",
    "arens_extension",
    "as_fraction",
    "biadjoint_dp_check",
    "check_dp_preservation",
    "comp_adjoint",
    "comp_apply",
    "comp_biadjoint",
    "contract",
    "diag_apply",
    "diag_arens",
    "diag_arens_pair",
    "dual_basis_dp",
    "extend_from_positive_cone",
    "factorize_multimorphism",
    "format_rational",
    "is_dp_functional",
    "pair",
    "pairing_identities",
    "parse_rational",
    "permute_form",
    "rank_lower_bound",
    "sign_expansion_value",
    "slotwise_dp_check",
    "span_disjointness",
    "__version__",
]
