"""Exhaustive bitset backtracking for extremal minimal t-fold blocking sets.

Subsets are enumerated in lexicographic point order, include branch first,
with three prunes: a line that can no longer reach t points is dead, a line
already holding b+1 points takes no more, and a branch that cannot reach the
target size is cut.  Every completed set is re-verified through the blocking
module before it is reported; search bookkeeping is never trusted.

The search is iterative, one loop over an explicit stack, with a global node
budget: a result reports at most that many nodes, and is complete exactly
when the search finished.

The loop keeps the set's count on every line in one integer, a byte per line
up to order 126 (two bytes above), so that taking a point is one integer
addition and each prune one addition and one mask test.  Each point has two
precomputed addends, kept for as many of the last points as TABLE_BYTES
holds and built on use for the others, so the tables stay small next to the
plane.  The bushy trees run about four times faster than with a list of
counts: PG(2,4) at t = 1 and 2 in about 0.1 s each against 0.3-0.4 s, and
PG(2,7) at t = 2 and 3 to a budget of 10^6 nodes in 0.7-1.2 s against
3.1-4.4 s.

A node that must take every remaining point heads a forced tail.  A long
one is settled in one step, from the lines' counts in its completion,
instead of one point at a time; the walk costs O(N) nodes per tail, so
O(N^2) per search where t = q and the search certifies the plane minus a
point.  Node counts and the budget still count the step-by-step tree: a
settled tail adds exactly the nodes the walk would visit, and a budget that
runs out inside it stops at the same node with the same sets.  PG(2,32) at
t = 32 (560209 nodes) takes about 0.5 s and PG(2,64) at t = 64 (8663201
nodes) about 16-23 s on a 2-core Xeon under CPython 3.11, against 6-7 s and
an estimated 90 s walking every tail.
"""

from __future__ import annotations

import struct
import sys
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from . import blocking
from .extremal import classify_prime_power, max_size_bound
from .families import PointSet, characterize
from .plane import IncidencePlane

DEFAULT_NODE_BUDGET = 10**9
# A forced tail is settled in one pass over the lines only when it has more
# points than this many lines hold: at two, the bushy PG(2,4) and PG(2,7)
# trees, whose tails stop within a few points, run as fast as with no
# settling; at one, PG(2,7) t=3 ran about 15% slower.
LONG_TAIL_LINES = 2
# A point's two tables, integers of one field per line, are kept only for
# the last points, as many as fit in this many bytes; a node at an earlier
# point builds them anew.  Every point's tables fit up to PG(2,19), so the
# bushy trees build each once.  A t = q search visits its last points most
# (at PG(2,64), 18280 of its 29511 loop steps are in the last tenth), and
# keeping every table there took 36 MB more resident memory (66 against
# 30 MB) for no measurable gain in time; at this limit the traced peak of
# PG(2,32) at t = 32 is 1.29 MiB, against 0.74 MiB with a list of counts
# and 3.09 MiB keeping every table.
TABLE_BYTES = 1 << 19


@dataclass
class SearchTask:
    """One extremal search: find all minimal t-fold blocking sets of size m.

    m is the bound for (order, t); a task whose bound is not attainable is
    vacuous (no set has that size) and returns an empty, complete result
    immediately.
    """

    plane: IncidencePlane
    t: int
    node_budget: int = DEFAULT_NODE_BUDGET


@dataclass
class SearchResult:
    """What one search did.  ``size`` is the bound that was searched for, or
    None when the bound is not attainable and nothing was searched.
    ``families`` is the ``family_tally`` of ``sets``; ``seconds`` times the
    search alone, not the tally."""

    t: int
    size: int | None
    sets: list[PointSet]
    nodes: int
    seconds: float
    complete: bool
    families: dict[str, int]

    @property
    def found(self) -> int:
        return len(self.sets)

    @property
    def attainable(self) -> bool:
        return self.size is not None

    def summary(self) -> dict:
        """The ``search`` JSON row: t, size, found, complete, families."""
        return {
            "t": self.t,
            "size": self.size,
            "found": self.found,
            "complete": self.complete,
            "families": dict(self.families),
        }


def _keep_if_extremal(ps, t, b, found):
    """Append ps to found if blocking.verify finds it minimal with the
    two-valued spectrum {t, b+1}: search bookkeeping is never trusted."""
    verdict = blocking.verify(ps, t)
    if verdict.minimal and blocking.is_two_valued(verdict.spectrum, t, b):
        found.append(ps)


def _forced_tail(plane, mask, i, t, b):
    """What the step-by-step search does below a fresh node at point i that
    must take every point from i on, read from the lines' counts in the
    completion (the mask and every point from i on), with no walk.

    Returns (stop, leaf, excluded).  The search takes point after point
    until, at ``stop``, a line through the point already holds b+1 points,
    and so visits the fresh nodes i .. stop; stop is num_points when it
    reaches the leaf, the completion, which ``leaf`` holds if every line
    meets it in t points or more (else None).  On the way back it visits the
    exclude node of each point from i up to stop (below num_points) whose
    lines all keep more than t points of the completion: ``excluded`` of
    them, each cut at once because too few points are left.
    """
    num_points = plane.num_points
    completion = mask | (((1 << num_points) - 1) >> i << i)
    held = [(lm & completion).bit_count() for lm in plane.line_masks]
    # on a line holding more than b+1 points of the completion, the walk
    # stops at its (b+2)-th; the mask holds at most b+1 of them, all below i
    stop = min((pts[bisect_left(pts, i) + b + 1 - (lm & mask).bit_count()]
                for pts, lm, c in zip(plane.lines, plane.line_masks, held) if c > b + 1),
               default=num_points)
    tight = 0
    for lm, c in zip(plane.line_masks, held):
        if c <= t:
            tight |= lm
    span = (1 << min(stop + 1, num_points)) - (1 << i)
    leaf = completion if stop == num_points and min(held) >= t else None
    return stop, leaf, (span & ~tight).bit_count()


def _field_format(order):
    """The memoryview format of one line's field in the packed counts.  A
    field holds its line's count, at most order+1, below its top bit, and
    room to add a bias of that bit, so no field ever carries into the next:
    a byte does up to order 126, two bytes any plane that fits in memory."""
    return "B" if order + 1 < 128 else "H"


def _pruned_search(plane, t, m, b, budget):
    """Depth-first include-then-exclude search on an explicit stack.

    Returns (found sets, nodes visited, complete).  A fresh node is the entry
    (point, size, mask, None); (point, size, mask, included) marks the return
    from that node's include branch, where the include is undone (if it was
    taken) and the exclude branch is tried.  The search stops before visiting
    node budget + 1, and is complete exactly when the stack empties.

    The mask's points on each line are counted in one integer, ``c``, with
    a field per line (``_field_format``).  Taking point i adds ``inc``, a
    one in the field of each line through i, and undoing it subtracts it.
    Each prune is one addition and one mask test: the addend biases every
    field so that its top bit is set exactly when its line is over (or
    short), and the test reads the top bits.

    A fresh node that must take every remaining point, and has more of them
    than LONG_TAIL_LINES lines' worth, is settled by ``_forced_tail``: nodes
    grows by the nodes the step-by-step walk would visit, and a budget that
    runs out inside the tail stops at the same node.  A shorter tail walks,
    since one pass over every line costs more than its few steps.
    """
    num_points, num_lines = plane.num_points, plane.num_lines
    settle_below = num_points - LONG_TAIL_LINES * (plane.order + 1)
    fmt = _field_format(plane.order)
    field_bytes = struct.calcsize(fmt)
    top = 1 << (8 * field_bytes - 1)
    # fields are in native byte order, which keeps each one whole; every
    # check treats all fields alike, so where each one sits does not matter
    high_bytes = top.to_bytes(field_bytes, sys.byteorder) * num_lines
    high = int.from_bytes(high_bytes, sys.byteorder)
    unit = high // top  # one in every field
    over = unit * (top - b - 2)  # top bit set: the line holds b+2 points
    short = unit * (top - t)  # top bit clear: the line holds fewer than t
    # after[i][k]: points beyond i on line point_lines[i][k] (lines are
    # sorted); both list the lines through i in index order
    after = [[] for _ in range(num_points)]
    for pts in plane.lines:
        last = len(pts) - 1
        for rank, i in enumerate(pts):
            after[i].append(last - rank)

    def point_tables(i):
        """(inc, dead) of point i.  inc: one in the field of each line
        through i.  dead: top plus the points beyond i minus t in the field
        of each line through i, top elsewhere, so that the top bits of
        c + dead all stay set unless excluding i leaves a line short of t."""
        inc = bytearray(len(high_bytes))
        dead = bytearray(high_bytes)
        inc_fields, dead_fields = memoryview(inc).cast(fmt), memoryview(dead).cast(fmt)
        for j, rest in zip(plane.point_lines[i], after[i]):
            inc_fields[j] = 1
            dead_fields[j] = top + rest - t
        return int.from_bytes(inc, sys.byteorder), int.from_bytes(dead, sys.byteorder)

    # the last points' tables, as many as TABLE_BYTES holds; the others are
    # built each time a node reaches their point
    kept_from = max(0, num_points - TABLE_BYTES // (2 * len(high_bytes)))
    tables = [None] * kept_from + [point_tables(i) for i in range(kept_from, num_points)]
    c = 0
    found = []
    nodes = 0
    stack = [(0, 0, 0, None)]
    while stack:
        i, size, mask, included = stack.pop()
        if included is not None:
            inc, dead = tables[i] or point_tables(i)
            if included:
                c -= inc
            if (c + dead) & high == high:
                stack.append((i + 1, size, mask, None))
            continue
        if nodes == budget:
            return found, nodes, False
        nodes += 1
        if size == m:
            if (c + short) & high == high:
                _keep_if_extremal(PointSet(plane, mask), t, b, found)
            continue
        spare = size + (num_points - i) - m  # points the search may still skip
        if spare < 0:
            continue
        if spare == 0 and i < settle_below:
            stop, leaf, excluded = _forced_tail(plane, mask, i, t, b)
            nodes += stop - i
            if nodes > budget:
                return found, budget, False
            if leaf is not None:
                _keep_if_extremal(PointSet(plane, leaf), t, b, found)
            nodes += excluded
            if nodes > budget:
                return found, budget, False
            continue
        # every line holds at most b+1 points, so only a line through i can
        # reach b+2 by taking i
        taken = c + (tables[i] or point_tables(i))[0]
        if (taken + over) & high:
            stack.append((i, size, mask, False))
        else:
            c = taken
            stack.append((i, size, mask, True))
            stack.append((i + 1, size + 1, mask | (1 << i), None))
    return found, nodes, True


def family_tally(sets: Sequence[PointSet]) -> dict[str, int]:
    """How many sets carry each ``characterize`` label, labels in sorted order."""
    return dict(sorted(Counter(characterize(ps).value for ps in sets).items()))


def exhaustive_extremal_search(task: SearchTask) -> SearchResult:
    """Run one search task to exhaustion (or until the node budget runs out).

    The pruned search is iterative, so its depth is not bounded by the
    interpreter's recursion limit, and its node budget is global: the result
    never reports more nodes than the budget, and is complete only when the
    search finished.

    The sets come out in lexicographic order of their point indices, with no
    sort.  Every found set has size m, and the search tries including a point
    before excluding it, in point order.  Take two found sets A and B, and
    let x be the smallest point in exactly one of them, say in A.  Both lie
    below the node that decides x, where A takes the include branch and so is
    found first.  A is also lexicographically smaller: the two agree below x,
    where A next holds x and B, of the same size, a point above x.
    """
    start = time.perf_counter()
    plane, t = task.plane, task.t
    if task.node_budget < 1:
        raise ValueError("node budget must be positive")
    bv = max_size_bound(plane.order, t)
    if not bv.attainable:
        return SearchResult(t, None, [], 0, time.perf_counter() - start, True, {})
    m, b = bv.bound, bv.b
    sets, nodes, complete = _pruned_search(plane, t, m, b, task.node_budget)
    seconds = time.perf_counter() - start
    return SearchResult(t, m, sets, nodes, seconds, complete, family_tally(sets))


@dataclass
class CertifyReport:
    """Desk-scale certification: extremal sets exist exactly where predicted."""

    order: int
    entries: list[SearchResult]
    expected: dict[int, str] | None  # t -> predicted family name
    matches_theory: bool | None

    def as_dict(self):
        names = self.expected or {}
        return {
            "order": self.order,
            "expected_t": sorted(self.expected) if self.expected is not None else None,
            # summary() sets "t" again, which keeps its first place
            "results": [
                {"t": e.t, "attainable": e.attainable, **e.summary(),
                 "expected_family": names.get(e.t)}
                for e in self.entries
            ],
            "matches_theory": self.matches_theory,
        }


def certify_no_other_t(
    plane: IncidencePlane, node_budget: int = DEFAULT_NODE_BUDGET
) -> CertifyReport:
    """Search every t in 1..n and compare against the closed-form classifier.

    Each entry is the result of one search, which returns at once, empty and
    complete, where the bound is not attainable.  matches_theory is True
    only when every search ran to exhaustion and its family tally is
    {predicted label: found} at a predicted t and empty at every other t.
    For planes of non-prime-power order there is no prediction and
    matches_theory is None.
    """
    n = plane.order
    expected: dict[int, str] | None
    try:
        expected = {e.t: e.family.value for e in classify_prime_power(n)}
    except ValueError:
        expected = None
    entries = [
        exhaustive_extremal_search(SearchTask(plane, t, node_budget=node_budget))
        for t in range(1, n + 1)
    ]
    matches = None
    if expected is not None:
        matches = all(
            e.complete
            and e.families == ({expected[e.t]: e.found} if e.t in expected else {})
            for e in entries
        )
    return CertifyReport(n, entries, expected, matches)
