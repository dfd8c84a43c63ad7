"""Verifiers for t-fold blocking, minimality, and two-valued spectra.

``verify`` is the one verifier, and ``spectrum`` tallies the same counts:
both take the set's exact count on every line of its own plane from
``_line_counts``, and decide everything from those counts, so results are
independent of evaluation order.  ``_line_counts`` counts from the smaller
of the set and its complement, through the lines of each of its points, so
a set of a few points or of all but a few costs a few lines, not the
plane: a line that meets none of those points holds none of the set, or
all n+1 of its points.  Each call takes the set alone, which brings its
plane.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from functools import reduce
from itertools import chain
from operator import or_
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


def _line_counts(point_set: "PointSet") -> tuple[Counter, int, int]:
    """(counts, base, sign): the set meets line j in base + sign * counts[j]
    points, where counts[j] is the number of points of the smaller of the
    set and its complement on line j, and 0 for a line that misses them.
    Counting the set itself gives base 0 and sign 1; counting its
    complement gives base n + 1 and sign -1."""
    plane = point_set.plane
    side, base, sign = point_set, 0, 1
    if 2 * point_set.size > plane.num_points:
        side, base, sign = point_set.complement(), plane.order + 1, -1
    counts = Counter(chain.from_iterable(map(plane.point_lines.__getitem__, side.indices())))
    return counts, base, sign


def _tally(counts: Counter, base: int, sign: int, num_lines: int) -> dict[int, int]:
    tally = Counter(counts.values())
    if len(counts) < num_lines:
        tally[0] = num_lines - len(counts)
    # counted from the complement, the set's counts fall as the side's rise
    return {base + sign * c: tally[c] for c in sorted(tally, reverse=sign < 0)}


def spectrum(point_set: "PointSet") -> dict[int, int]:
    """Map each intersection size, in key order, to the number of lines
    attaining it."""
    return _tally(*_line_counts(point_set), len(point_set.plane.lines))


def verify(point_set: "PointSet", t: int) -> Verdict:
    """Decide whether the set is a minimal t-fold blocking set: every line
    meets it in >= t points, some line in exactly t, and each of its points
    lies on such a t-line.  ``failure`` names the first line met in fewer
    than t points, else the missing t-line, else the uncovered point."""
    plane = point_set.plane
    if not 1 <= t <= plane.order + 1:
        raise ValueError(f"t must be in 1..{plane.order + 1}")
    counts, base, sign = _line_counts(point_set)
    num_lines = len(plane.lines)
    spec = _tally(counts, base, sign, num_lines)
    minimal = failure = None
    if min(spec) < t:
        j = next(j for j in range(num_lines) if base + sign * counts[j] < t)
        failure = f"line {j} meets the set in {base + sign * counts[j]} < t points"
    elif t not in spec:
        failure = f"no line meets the set in exactly {t} points"
    else:
        # a t-line holds this many points of the side that was counted; it
        # is 0 only at t = n + 1 counted from the complement, whose t-lines
        # are the lines that miss it
        side = sign * (t - base)
        if side:
            t_lines = [j for j, c in counts.items() if c == side]
        else:
            t_lines = [j for j in range(num_lines) if j not in counts]
        cover = reduce(or_, map(plane.line_masks.__getitem__, t_lines), 0)
        minimal = point_set.mask & cover == point_set.mask
        if not minimal:
            failure = "a set point lies on no line meeting the set in exactly t points"
    return Verdict(t, point_set.size, minimal is not None, minimal, spec, failure)
