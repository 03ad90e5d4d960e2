"""cuntzlab: invariants of concretely parameterized states on Cuntz algebras.

The package computes, for states omega on the algebra generated by n
isometries with orthogonal ranges summing to the identity:

- ``cdim``: the dimension of the conjugate-cyclic subspace
  span{pi(s_J)* Omega} of the GNS representation, grown level by level;
- ``kappa``: the minimum of cdim over the unitary-equivalence class,
  always returned with a checkable certificate (or an honest interval);
- purity and pairwise equivalence decisions for the built-in families;
- finitely correlated presentations (d, A_1..A_n, Omega, metric);
- an exact simulator for permutative (shift and grid) representations.

Arithmetic is exact (Gaussian rational) whenever the inputs are, and
floating point with two fixed tolerances (``DEFAULT_EQ_TOL`` and
``DEFAULT_RANK_TOL``) otherwise.
"""

from .classify import (
    CdimResult,
    EquivalentToCuntz,
    EquivDecision,
    KappaResult,
    LowerBoundOnly,
    Minimal,
    ProperlyInfinite,
    PropInfCheck,
    PurityDecision,
    ShiftPeriod,
    cdim,
    equivalent,
    gram_growth,
    kappa,
    kappa_rep,
    pure,
    verify_minimality_certificate,
    verify_properly_infinite,
)
from .errors import (
    AlphabetMismatch,
    CuntzLabError,
    EmptyWord,
    GateFailed,
    Inconsistent,
    NotInCatalog,
    NotInvariant,
    NotNormalized,
    NotPrefixFree,
    NotUnit,
    NotUnitary,
    SchemaError,
    ValidationFailed,
)
from .fcs import FCSPresentation, check_row_isometry, extract_fcs
from .moments import (
    IsometrySequence,
    MomentFunctional,
    StateFacts,
    VectorModel,
    gram_matrix,
    hat_parameter,
    hat_parameter_inverse,
    make_cuntz,
    make_geometric_progression,
    make_induced_product,
    make_mixture,
    make_prefix_code_state,
    make_split_series_sandwich,
    make_sub_cuntz,
    positivity_check,
    solve_low_moments,
    transform_gauge,
    transform_sandwich,
)
from .scalars import QQi
from .shiftrep import (
    GridRepresentation,
    ShiftRepresentation,
    dhj_grading,
    lemma_convergence_check,
    vector_state,
)
from .specio import parse_spec, rep_from_spec, state_from_spec
from .symalg import CuntzElement, adjoint, gauge_apply, gen, identity, monomial, multiply
from .words import EventuallyPeriodicWord, LazyWord, LAZY_PRESETS, all_words, tail_equivalent, words_upto

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # words
    "EventuallyPeriodicWord", "LazyWord", "LAZY_PRESETS", "all_words", "tail_equivalent", "words_upto",
    # scalars
    "QQi",
    # symbolic algebra
    "CuntzElement", "adjoint", "gauge_apply", "gen", "identity", "monomial", "multiply",
    # states
    "IsometrySequence", "MomentFunctional", "StateFacts", "VectorModel", "gram_matrix",
    "hat_parameter", "hat_parameter_inverse", "make_cuntz", "make_geometric_progression",
    "make_induced_product", "make_mixture", "make_prefix_code_state",
    "make_split_series_sandwich", "make_sub_cuntz", "positivity_check",
    "solve_low_moments", "transform_gauge", "transform_sandwich",
    # representations
    "GridRepresentation", "ShiftRepresentation", "dhj_grading", "lemma_convergence_check", "vector_state",
    # compression
    "FCSPresentation", "check_row_isometry", "extract_fcs",
    # invariants
    "CdimResult", "EquivalentToCuntz", "EquivDecision", "KappaResult",
    "LowerBoundOnly", "Minimal", "ProperlyInfinite", "PropInfCheck", "PurityDecision",
    "ShiftPeriod", "cdim", "equivalent",
    "gram_growth", "kappa", "kappa_rep", "pure",
    "verify_minimality_certificate", "verify_properly_infinite",
    # specs
    "parse_spec", "rep_from_spec", "state_from_spec",
    # errors
    "AlphabetMismatch", "CuntzLabError", "EmptyWord", "GateFailed", "Inconsistent",
    "NotInCatalog", "NotInvariant", "NotNormalized", "NotPrefixFree", "NotUnit", "NotUnitary",
    "SchemaError", "ValidationFailed",
]
