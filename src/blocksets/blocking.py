"""Verifiers for t-fold blocking, minimality, and two-valued spectra.

``verify`` is the one verifier: it counts the set's points on each line of
its own plane once, by mask intersection, and decides everything from those
exact counts, so results are independent of evaluation order.  Each call
takes the set alone, which brings its plane.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .families import PointSet


@dataclasses.dataclass(frozen=True)
class Verdict:
    """What ``verify`` decides for one set and t.  ``minimal`` is None when
    the set is not t-fold blocking; ``failure`` words the first rule it
    breaks.  The spectrum is in key order, set once by ``_tally``, so
    ``json.dumps`` writes it with numerically sorted keys."""

    t: int
    size: int
    blocking: bool
    minimal: bool | None
    spectrum: dict[int, int]
    failure: str | None


def _line_counts(point_set: "PointSet") -> list[int]:
    return [(point_set.mask & lm).bit_count() for lm in point_set.plane.line_masks]


def _tally(counts: list[int]) -> dict[int, int]:
    return dict(sorted(Counter(counts).items()))


def spectrum(point_set: "PointSet") -> dict[int, int]:
    """Map each intersection size, in key order, to the number of lines
    attaining it."""
    return _tally(_line_counts(point_set))


def verify(point_set: "PointSet", t: int) -> Verdict:
    """Decide whether the set is a minimal t-fold blocking set: every line
    meets it in >= t points, some line in exactly t, and each of its points
    lies on such a t-line.  ``failure`` names the first line met in fewer
    than t points, else the missing t-line, else the uncovered point."""
    plane = point_set.plane
    if not 1 <= t <= plane.order + 1:
        raise ValueError(f"t must be in 1..{plane.order + 1}")
    counts = _line_counts(point_set)
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
