"""Finite-geometry toolkit for extremal minimal t-fold blocking sets.

Builds projective planes PG(2, q) over explicit finite fields, constructs
the three extremal families (Hermitian unitals, Baer complements, planes
minus a point), verifies blocking/minimality/two-valued spectra, classifies
the multiplicities t at which the size bound can be attained in prime-power
order, and certifies the classification by exhaustive search in small
planes.
"""

from .blocking import (
    Spectrum,
    is_minimal,
    is_t_fold_blocking,
    is_two_valued,
    spectrum,
    spectrum_to_json,
)
from .extremal import (
    BoundValue,
    CaseTrace,
    EqualityParams,
    ExtremalValue,
    case_trace,
    check_dagger,
    check_star,
    classify_prime_power,
    equality_candidates,
    max_size_bound,
    prime_powers_up_to,
)
from .families import (
    FamilyLabel,
    PointSet,
    baer_complement,
    baer_subplane,
    characterize,
    hermitian_unital,
    load_point_set,
    plane_minus_point,
    save_point_set,
)
from .gf import FieldElement, FieldSpec, PrimePower, is_prime, make_field
from .plane import (
    AxiomReport,
    IncidencePlane,
    PlaneFormatError,
    build_desarguesian_plane,
    load_plane,
    save_plane,
    verify_plane_axioms,
)
from .search import (
    CertifyReport,
    SearchResult,
    SearchTask,
    certify_no_other_t,
    exhaustive_extremal_search,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "BoundValue",
    "CaseTrace",
    "CertifyReport",
    "EqualityParams",
    "ExtremalValue",
    "FamilyLabel",
    "FieldElement",
    "FieldSpec",
    "IncidencePlane",
    "PlaneFormatError",
    "PointSet",
    "PrimePower",
    "SearchResult",
    "SearchTask",
    "Spectrum",
    "baer_complement",
    "baer_subplane",
    "build_desarguesian_plane",
    "case_trace",
    "certify_no_other_t",
    "characterize",
    "check_dagger",
    "check_star",
    "classify_prime_power",
    "equality_candidates",
    "exhaustive_extremal_search",
    "hermitian_unital",
    "is_minimal",
    "is_prime",
    "is_t_fold_blocking",
    "is_two_valued",
    "load_plane",
    "load_point_set",
    "make_field",
    "max_size_bound",
    "plane_minus_point",
    "prime_powers_up_to",
    "save_plane",
    "save_point_set",
    "spectrum",
    "spectrum_to_json",
    "verify_plane_axioms",
]
