"""Exhaustive bitset backtracking for extremal minimal t-fold blocking sets.

Subsets are enumerated in lexicographic point order, include branch first,
with three prunes: a line that can no longer reach t points is dead, a line
already holding b+1 points takes no more, and a branch that cannot reach the
target size is cut.  Every completed set is re-verified through the blocking
module before it is reported; search bookkeeping is never trusted.

The search is iterative, one loop over an explicit stack, with a global node
budget: a result reports at most that many nodes, and is complete exactly
when the search finished.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from . import blocking
from .extremal import classify_prime_power, max_size_bound
from .families import FamilyLabel, PointSet, characterize
from .plane import IncidencePlane

DEFAULT_NODE_BUDGET = 10**9


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
    None when the bound is not attainable and nothing was searched."""

    size: int | None
    sets: list[PointSet]
    nodes: int
    seconds: float
    complete: bool


def _pruned_search(plane, t, m, b, budget):
    """Depth-first include-then-exclude search on an explicit stack.

    Returns (found sets, nodes visited, complete).  A fresh node is the entry
    (point, size, mask, None); (point, size, mask, included) marks the return
    from that node's include branch, where the include is undone (if it was
    taken) and the exclude branch is tried.  The search stops before visiting
    node budget + 1, and is complete exactly when the stack empties.
    """
    num_points = plane.num_points
    pt_lines = plane.point_lines
    # after[i][k]: points beyond i on line pt_lines[i][k] (lines are sorted),
    # for the dead-line prune; both list the lines through i in index order
    after = [[] for _ in range(num_points)]
    for pts in plane.lines:
        last = len(pts) - 1
        for rank, i in enumerate(pts):
            after[i].append(last - rank)
    counts = [0] * plane.num_lines
    found = []
    nodes = 0
    stack = [(0, 0, 0, None)]
    while stack:
        i, size, mask, included = stack.pop()
        if included is not None:
            lines = pt_lines[i]
            if included:
                for j in lines:
                    counts[j] -= 1
            if all(counts[j] + rest >= t for j, rest in zip(lines, after[i])):
                stack.append((i + 1, size, mask, None))
            continue
        if nodes == budget:
            return found, nodes, False
        nodes += 1
        if size == m:
            if all(c >= t for c in counts):
                ps = PointSet(plane, mask)
                verdict = blocking.verify(plane, ps, t)
                if verdict.minimal and blocking.is_two_valued(verdict.spectrum, t, b):
                    found.append(ps)
            continue
        if i == num_points or size + (num_points - i) < m:
            continue
        lines = pt_lines[i]
        take = all(counts[j] <= b for j in lines)
        stack.append((i, size, mask, take))
        if take:
            for j in lines:
                counts[j] += 1
            stack.append((i + 1, size + 1, mask | (1 << i), None))
    return found, nodes, True


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
        return SearchResult(None, [], 0, time.perf_counter() - start, True)
    m, b = bv.bound, bv.b
    sets, nodes, complete = _pruned_search(plane, t, m, b, task.node_budget)
    return SearchResult(m, sets, nodes, time.perf_counter() - start, complete)


@dataclass
class CertifyEntry:
    """Search outcome for one multiplicity t."""

    t: int
    size: int | None  # SearchResult.size: None when the bound is not attainable
    found: int
    families: dict[str, int]  # family_tally of the sets
    complete: bool
    expected_family: str | None
    sets: list[PointSet] = field(default_factory=list, repr=False)

    @property
    def attainable(self) -> bool:
        return self.size is not None

    def as_dict(self):
        return {
            "t": self.t,
            "attainable": self.attainable,
            "size": self.size,
            "found": self.found,
            "complete": self.complete,
            "families": dict(self.families),
            "expected_family": self.expected_family,
        }


@dataclass
class CertifyReport:
    """Desk-scale certification: extremal sets exist exactly where predicted."""

    order: int
    entries: list[CertifyEntry]
    expected: dict[int, FamilyLabel] | None
    matches_theory: bool | None

    def as_dict(self):
        return {
            "order": self.order,
            "expected_t": sorted(self.expected) if self.expected is not None else None,
            "results": [e.as_dict() for e in self.entries],
            "matches_theory": self.matches_theory,
        }


def family_tally(plane: IncidencePlane, sets: Sequence[PointSet], t: int) -> dict[str, int]:
    """How many sets carry each ``characterize`` label, labels in sorted order."""
    return dict(sorted(Counter(characterize(plane, ps, t).value for ps in sets).items()))


def certify_no_other_t(
    plane: IncidencePlane, node_budget: int = DEFAULT_NODE_BUDGET
) -> CertifyReport:
    """Search every t in 1..n and compare against the closed-form classifier.

    Each entry is built from one search, which returns at once, empty and
    complete, where the bound is not attainable.  matches_theory is True
    only when every search ran to exhaustion and its family tally is
    {predicted label: found} at a predicted t and empty at every other t.
    For planes of non-prime-power order there is no prediction and
    matches_theory is None.
    """
    n = plane.order
    try:
        expected: dict[int, FamilyLabel] | None = {
            e.t: e.family for e in classify_prime_power(n)
        }
    except ValueError:
        expected = None
    names = {t: family.value for t, family in (expected or {}).items()}

    entries = []
    for t in range(1, n + 1):
        res = exhaustive_extremal_search(SearchTask(plane, t, node_budget=node_budget))
        entries.append(
            CertifyEntry(
                t,
                res.size,
                len(res.sets),
                family_tally(plane, res.sets, t),
                res.complete,
                names.get(t),
                sets=res.sets,
            )
        )

    matches = None
    if expected is not None:
        matches = all(
            e.complete
            and e.families == ({e.expected_family: e.found} if e.expected_family else {})
            for e in entries
        )
    return CertifyReport(n, entries, expected, matches)
