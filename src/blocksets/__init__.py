"""Finite-geometry toolkit for extremal minimal t-fold blocking sets.

Builds projective planes PG(2, q) over explicit finite fields, constructs
the three extremal families (Hermitian unitals, Baer complements, planes
minus a point), verifies blocking/minimality/two-valued spectra, classifies
the multiplicities t at which the size bound can be attained in prime-power
order, and certifies the classification by exhaustive search in small
planes.
"""

from .blocking import spectrum
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
from .gf import FieldSpec, prime_power
from .plane import (
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
    "BoundValue",
    "CaseTrace",
    "CertifyReport",
    "EqualityParams",
    "ExtremalValue",
    "FamilyLabel",
    "FieldSpec",
    "IncidencePlane",
    "PlaneFormatError",
    "PointSet",
    "SearchResult",
    "SearchTask",
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
    "load_plane",
    "load_point_set",
    "max_size_bound",
    "plane_minus_point",
    "prime_power",
    "save_plane",
    "save_point_set",
    "spectrum",
    "verify_plane_axioms",
]
