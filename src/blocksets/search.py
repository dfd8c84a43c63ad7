"""Exhaustive bitset backtracking for extremal minimal t-fold blocking sets.

A set S of the bound's size m is extremal only if every line meets it in
exactly t or b+1 points; its complement, of N - m points, then meets every
line in exactly n - b or n + 1 - t points.  The search walks whichever side
is smaller, judged from the sizes alone: sets of N - m points when 2m > N,
complemented at the end, and sets of m points otherwise.  At t = q, the
plane minus a point, that is a search for single points.

Subsets are enumerated in lexicographic point order, include branch first,
with four prunes: a line already holding the upper count takes no more, a
line that can no longer reach the lower count is dead, a line above the
lower count that can no longer reach the upper one is dead too, and a
branch that cannot reach the target size is cut.  Every reported set is
verified through the blocking module; search bookkeeping is never trusted.

The search is iterative, one loop over an explicit stack, with a global node
budget: a result reports at most that many nodes, and is complete exactly
when the search finished.

The loop keeps the set's counts on every line in integers of a byte per
line up to order 126 (two bytes above), so that taking a point is one
integer addition and each prune an addition or two and a mask test.  Each
stack entry carries its branch's counts, so nothing is undone.  Each point
has one precomputed addend, kept for as many of the last points as
TABLE_BYTES holds and built on use for the others, so the tables stay small
next to the plane.  On a 2-vCPU Xeon under CPython 3.11, PG(2,4) at t = 1
and 2 (14480 and 9192 nodes) takes about 0.02 s each, and PG(2,64) at
t = 64 (8323 nodes, 4161 sets, each verified from the point it leaves out)
about 0.3 s.
"""

from __future__ import annotations

import struct
import sys
import time
from collections import Counter
from dataclasses import dataclass

from . import blocking
from .extremal import classify_prime_power, max_size_bound
from .families import PointSet, _family
from .plane import IncidencePlane

DEFAULT_NODE_BUDGET = 10**9
# A point's table, an integer of one field per line, is kept only for the
# last points, as many as fit in this many bytes; a node at an earlier point
# builds it anew.  Every point's table fits up to PG(2,25), so the bushy
# trees build each once.  A t = q search reaches each point once, so keeping
# every table gains it nothing, and at PG(2,64) they would take 17 MB; at
# this limit the traced peak of PG(2,32) at t = 32 is 0.66 MiB, against
# 0.13 MiB building every table on use and 1.25 MiB keeping every table.
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
    ``families`` counts the sets of each family label, labels in sorted
    order; ``seconds`` times the search, its verification and its labels."""

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

    def summary(self) -> dict:
        """The ``search`` JSON row: t, size, found, complete, families."""
        return {
            "t": self.t,
            "size": self.size,
            "found": self.found,
            "complete": self.complete,
            "families": dict(self.families),
        }


def _field_format(order):
    """The memoryview format of one line's field in the packed counts.  A
    field holds its line's count, at most order+1, below its top bit, and
    room to add a bias of that bit, so no field ever carries into the next:
    a byte does up to order 126, two bytes any plane that fits in memory."""
    return "B" if order + 1 < 128 else "H"


def _pruned_search(plane, m, lo, hi, budget):
    """Depth-first include-then-exclude search on an explicit stack for the
    sets of m points that meet every line in exactly lo or hi points.

    Returns (leaf masks, nodes visited, complete).  A stack entry is a node,
    (point, size, mask, held, reach), that carries its branch's whole state,
    so nothing is undone: a node pushes its exclude child, then its include
    child, which pops first.  The search stops before visiting node
    budget + 1, and is complete exactly when the stack empties.

    Four prunes cut a child: a line over hi; a line that can no longer
    reach lo; a line above lo that can no longer reach hi; and, through the
    node's own check, a branch too short to reach m points.  A leaf is kept
    when every line holds lo or hi points.  The third prune is sound because
    a line's count only grows along a branch, and its count plus its
    undecided points bounds the count it ends with: a line above lo stays
    above lo, so it must end at hi.  It holds on both sides of a search, as
    a set meets every line in t or b+1 points exactly when its complement
    meets every line in n-b or n+1-t.  With hi = lo + 1 a line above lo
    already holds hi, so that prune never cuts and is skipped: at t = n
    the tree is the one the window alone gives.

    The counts are kept in two integers with a field per line
    (``_field_format``), each biased so that the top bit of a field answers
    one question about its line.  ``held`` is the mask's count plus top-lo-1:
    its top bit says the line holds more than lo points.  ``reach`` is the
    count plus the line's undecided points plus top-lo: its top bit says the
    line can still reach lo.  Deciding point i changes only the fields of
    the lines through i, by ``inc``, a one in each of them: taking it adds
    ``inc`` to ``held``, and leaving it out subtracts ``inc`` from
    ``reach``.  Subtracting ``gap``, hi-lo in every field, turns the
    questions into holding more than hi and reaching hi, so each prune is an
    addition or two and a test of the top bits.  On PG(2,4), the two-valued
    prune takes t = 1 from 103056 nodes to 14480 and t = 2 from 60845 to
    9192.
    """
    num_points = plane.num_points
    fmt = _field_format(plane.order)
    field_bytes = struct.calcsize(fmt)
    top = 1 << (8 * field_bytes - 1)
    # fields are in native byte order, which keeps each one whole; every
    # check treats all fields alike, so where each one sits does not matter
    high_bytes = top.to_bytes(field_bytes, sys.byteorder) * len(plane.lines)
    high = int.from_bytes(high_bytes, sys.byteorder)
    unit = high // top  # one in every field
    gap = unit * (hi - lo)
    two_valued = hi - lo > 1

    def point_table(i):
        """inc of point i: one in the field of each line through i."""
        inc = bytearray(len(high_bytes))
        fields = memoryview(inc).cast(fmt)
        for j in plane.point_lines[i]:
            fields[j] = 1
        return int.from_bytes(inc, sys.byteorder)

    # the last points' tables, as many as TABLE_BYTES holds; the others are
    # built each time a node reaches their point
    kept_from = max(0, num_points - TABLE_BYTES // len(high_bytes))
    tables = [None] * kept_from + [point_table(i) for i in range(kept_from, num_points)]
    # at the root every point is undecided, and every top bit of ``reach``
    # is set: a line of a plane has n + 1 >= lo points
    start = bytearray(len(high_bytes))
    fields = memoryview(start).cast(fmt)
    for j, pts in enumerate(plane.lines):
        fields[j] = top - lo + len(pts)
    leaves = []
    nodes = 0
    stack = [(0, 0, 0, unit * (top - lo - 1), int.from_bytes(start, sys.byteorder))]
    while stack:
        i, size, mask, held, reach = stack.pop()
        if nodes == budget:
            return leaves, nodes, False
        nodes += 1
        if size == m:
            # the leaf leaves out every undecided point: each line's count
            # is final, and must be lo, or above lo and at least hi
            low = held + unit
            if low & high == high and not (two_valued and held & ~(low - gap) & high):
                leaves.append(mask)
            continue
        if size + (num_points - i) < m:
            continue
        inc = tables[i] or point_table(i)
        # only a line through i changes: leaving i out may leave one short of
        # lo or of hi, and taking it may bring one to hi+1, or above lo
        cut = reach - inc
        if cut & high == high and not (two_valued and held & ~(cut - gap) & high):
            stack.append((i + 1, size, mask, held, cut))
        took = held + inc
        if not (took - gap) & high and not (two_valued and took & ~(reach - gap) & high):
            stack.append((i + 1, size + 1, mask | (1 << i), took, reach))
    return leaves, nodes, True


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

    On the complement side the search finds the complements in that order,
    and complementing reverses it, so the complemented leaves are reported
    in reverse.  For two sets A and B of one size, the smallest point x in
    exactly one of them is also the smallest point in exactly one of their
    complements, and it lies in the other one's: if A holds x, the
    complement of B does.  So A comes before B exactly when the complement
    of B comes before the complement of A.

    The search only bounds line counts.  Each leaf, complemented on the
    complement side, goes to ``blocking.verify`` and is kept only if it is
    minimal with spectrum {t, b+1}, then labelled from that spectrum, so
    each kept set is counted once.
    """
    start = time.perf_counter()
    plane, t = task.plane, task.t
    if task.node_budget < 1:
        raise ValueError("node budget must be positive")
    bv = max_size_bound(plane.order, t)
    if not bv.attainable:
        return SearchResult(t, None, [], 0, time.perf_counter() - start, True, {})
    m, b, n, N = bv.bound, bv.b, plane.order, plane.num_points
    if 2 * m > N:
        leaves, nodes, complete = _pruned_search(plane, N - m, n - b, n + 1 - t,
                                                 task.node_budget)
        everything = (1 << N) - 1
        masks = [everything ^ mask for mask in reversed(leaves)]
    else:
        masks, nodes, complete = _pruned_search(plane, m, t, b + 1, task.node_budget)
    sets = []
    families = Counter()
    for mask in masks:
        ps = PointSet(plane, mask)
        verdict = blocking.verify(ps, t)
        if verdict.minimal and set(verdict.spectrum) == {t, b + 1}:
            sets.append(ps)
            families[_family(n, m, verdict.spectrum).value] += 1
    seconds = time.perf_counter() - start
    return SearchResult(t, m, sets, nodes, seconds, complete, dict(sorted(families.items())))


@dataclass
class CertifyReport:
    """Desk-scale certification: extremal sets exist exactly where predicted."""

    order: int
    entries: list[SearchResult]
    expected: dict[int, str]  # t -> predicted family name
    matches_theory: bool

    def as_dict(self):
        return {
            "order": self.order,
            "expected_t": sorted(self.expected),
            # summary() sets "t" again, which keeps its first place
            "results": [
                {"t": e.t, "attainable": e.size is not None, **e.summary(),
                 "expected_family": self.expected.get(e.t)}
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
    A plane whose order is not a prime power has no prediction, so
    ``classify_prime_power``'s ValueError is raised before any search.
    """
    n = plane.order
    expected = {e.t: e.family.value for e in classify_prime_power(n)}
    entries = [
        exhaustive_extremal_search(SearchTask(plane, t, node_budget=node_budget))
        for t in range(1, n + 1)
    ]
    matches = all(
        e.complete
        and e.families == ({expected[e.t]: e.found} if e.t in expected else {})
        for e in entries
    )
    return CertifyReport(n, entries, expected, matches)
