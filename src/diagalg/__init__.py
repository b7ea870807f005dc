"""Exact calculators for diagonal subalgebras of bigraded rings.

Closed-form classification (Cohen-Macaulay, Gorenstein, rational
singularities, F-regular type) of diagonals of generic bigraded
hypersurfaces and of Rees algebras over complete intersections, graded
local-cohomology dimension tables, and characteristic-p F-purity and
F-regularity certificates computed by an exact Groebner engine over prime
fields.  The Groebner engine doubles as an independent brute-force oracle
for every closed-form count.
"""

from .errors import (
    DegreeCapError,
    DiagalgError,
    InternalDefectError,
    PolyParseError,
    PreconditionError,
    RingContextError,
    UnsupportedModeError,
)
from .exactalg import (
    MultiPoly,
    PolyRing,
    groebner_basis,
    is_regular_sequence,
    normal_form,
    power_ideal_gens,
    s_polynomial,
    standard_monomial_count,
)
from .frobenius import (
    FrobeniusCertificate,
    f_regular_certificate_bigraded,
    f_regular_certificate_graded,
    fedder_is_f_pure,
    random_biform,
    recheck_certificate,
    witness_graded,
)
from .gradedcomb import (
    DiagonalSpec,
    dim_lc_tensor_diag,
    dim_poly,
    dim_tensor_diag,
    dim_top_lc,
    support_window,
)
from .hypersurface import (
    ClassificationReport,
    HypersurfaceSpec,
    a_invariant,
    canonical_piece_dim,
    canonical_shift,
    classify,
    cm_no_integer_window,
    cm_obstruction,
    dim_lc_piece,
    dim_piece,
    has_rational_singularities_generic,
    is_cohen_macaulay,
    is_f_regular_type_generic,
    is_gorenstein,
    lc_dim_table,
    lc_support_window,
    validate_generic_normal,
)
from .parsing import parse_polynomial
from .rees import (
    CISpec,
    ReesSpec,
    a_inv_quotient_power,
    ci_diagonal_is_cm,
    ci_quotient_hilbert,
    cm_criteria_consistent,
    dim_lc_ci_quotient_power,
    dim_lc_rees_diag,
    rigidity_is_cm,
    rigidity_window,
)

__version__ = "0.1.0"

__all__ = [
    "CISpec",
    "ClassificationReport",
    "DegreeCapError",
    "DiagalgError",
    "DiagonalSpec",
    "FrobeniusCertificate",
    "HypersurfaceSpec",
    "InternalDefectError",
    "MultiPoly",
    "PolyParseError",
    "PolyRing",
    "PreconditionError",
    "ReesSpec",
    "RingContextError",
    "UnsupportedModeError",
    "a_inv_quotient_power",
    "a_invariant",
    "canonical_piece_dim",
    "canonical_shift",
    "ci_diagonal_is_cm",
    "ci_quotient_hilbert",
    "classify",
    "cm_criteria_consistent",
    "cm_no_integer_window",
    "cm_obstruction",
    "dim_lc_ci_quotient_power",
    "dim_lc_piece",
    "dim_lc_rees_diag",
    "dim_lc_tensor_diag",
    "dim_piece",
    "dim_poly",
    "dim_tensor_diag",
    "dim_top_lc",
    "f_regular_certificate_bigraded",
    "f_regular_certificate_graded",
    "fedder_is_f_pure",
    "groebner_basis",
    "has_rational_singularities_generic",
    "is_cohen_macaulay",
    "is_f_regular_type_generic",
    "is_gorenstein",
    "is_regular_sequence",
    "lc_dim_table",
    "lc_support_window",
    "normal_form",
    "parse_polynomial",
    "power_ideal_gens",
    "random_biform",
    "recheck_certificate",
    "rigidity_is_cm",
    "rigidity_window",
    "s_polynomial",
    "standard_monomial_count",
    "support_window",
    "validate_generic_normal",
    "witness_graded",
]
