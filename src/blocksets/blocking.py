"""Verifiers for t-fold blocking, minimality, and two-valued spectra.

``verify`` is the one verifier: it counts the set's points on each line once,
by mask intersection, and decides everything from those exact counts, so
results are independent of evaluation order.  The predicates are built on it.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .families import PointSet
    from .plane import IncidencePlane

Spectrum = dict[int, int]


@dataclasses.dataclass(frozen=True)
class Verdict:
    """What ``verify`` decides for one set and t.  ``minimal`` is None when
    the set is not t-fold blocking; ``failure`` words the first rule it
    breaks.  The spectrum is in key order, so ``json.dumps`` of the fields
    writes it as ``spectrum_to_json`` does."""

    t: int
    size: int
    blocking: bool
    minimal: bool | None
    spectrum: Spectrum
    failure: str | None


def _line_counts(plane: "IncidencePlane", point_set: "PointSet") -> list[int]:
    if point_set.plane is not plane and point_set.plane != plane:
        raise ValueError("point set belongs to a different plane")
    return [(point_set.mask & lm).bit_count() for lm in plane.line_masks]


def _tally(counts: list[int]) -> Spectrum:
    return dict(sorted(Counter(counts).items()))


def spectrum(plane: "IncidencePlane", point_set: "PointSet") -> Spectrum:
    """Map each intersection size to the number of lines attaining it."""
    return _tally(_line_counts(plane, point_set))


def spectrum_to_json(spec: Spectrum) -> str:
    """Serialize a spectrum as a JSON object with numerically sorted keys."""
    return json.dumps(dict(sorted(spec.items())))


def verify(plane: "IncidencePlane", point_set: "PointSet", t: int) -> Verdict:
    """Decide whether the set is a minimal t-fold blocking set: every line
    meets it in >= t points, some line in exactly t, and each of its points
    lies on such a t-line.  ``failure`` names the first line met in fewer
    than t points, else the missing t-line, else the uncovered point."""
    if not 1 <= t <= plane.order + 1:
        raise ValueError(f"t must be in 1..{plane.order + 1}")
    counts = _line_counts(plane, point_set)
    spec = _tally(counts)
    minimal = failure = None
    if min(spec) < t:
        j = next(j for j, c in enumerate(counts) if c < t)
        failure = f"line {j} meets the set in {counts[j]} < t points"
    elif t not in spec:
        failure = f"no line meets the set in exactly {t} points"
    else:
        cover = 0
        for lm, c in zip(plane.line_masks, counts):
            if c == t:
                cover |= lm
        minimal = point_set.mask & cover == point_set.mask
        if not minimal:
            failure = "a set point lies on no line meeting the set in exactly t points"
    return Verdict(t, point_set.size, minimal is not None, minimal, spec, failure)


def is_t_fold_blocking(plane: "IncidencePlane", point_set: "PointSet", t: int) -> bool:
    """True iff every line meets the set in >= t points and some line in exactly t."""
    return verify(plane, point_set, t).blocking


def is_minimal(plane: "IncidencePlane", point_set: "PointSet", t: int) -> bool:
    """True iff every point of the set lies on a line met in exactly t points.

    Requires the set to be a t-fold blocking set; minimality is undefined
    otherwise and a ValueError is raised rather than conflating "not
    blocking" with "not minimal".
    """
    verdict = verify(plane, point_set, t)
    if not verdict.blocking:
        raise ValueError(f"point set is not a {t}-fold blocking set")
    return verdict.minimal


def is_two_valued(spec: Spectrum, t: int, b: int) -> bool:
    """True iff the spectrum support is exactly {t, b+1} (both attained)."""
    return set(spec) == {t, b + 1}
