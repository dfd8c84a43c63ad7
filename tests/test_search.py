import dataclasses
import functools
import random
import sys
import tracemalloc

import pytest

import support
from blocksets import (
    FamilyLabel,
    IncidencePlane,
    SearchTask,
    certify_no_other_t,
    characterize,
    exhaustive_extremal_search,
    max_size_bound,
    spectrum,
)
from blocksets import search
from blocksets.blocking import verify
from blocksets.extremal import ExtremalValue
from blocksets.search import DEFAULT_NODE_BUDGET


def _indices(result):
    return [ps.indices() for ps in result.sets]


def test_fano_t2_finds_all_plane_minus_point_sets():
    fano = support.desarguesian(2, 1)
    result = exhaustive_extremal_search(SearchTask(fano, 2))
    assert result.complete
    assert len(result.sets) == 7
    assert all(ps.size == 6 for ps in result.sets)
    assert all(ps.complement().size == 1 for ps in result.sets)
    # lexicographically sorted output
    assert _indices(result) == sorted(_indices(result))


def test_results_pass_independent_verifier():
    plane = support.desarguesian(3, 1)
    result = exhaustive_extremal_search(SearchTask(plane, 3))
    assert result.complete and len(result.sets) == 13
    bv = max_size_bound(3, 3)
    for ps in result.sets:
        assert ps.size == bv.bound
        assert verify(ps, 3).minimal is True
        assert set(spectrum(ps)) == {3, bv.b + 1}


@pytest.mark.parametrize(
    "p, k, t, found, off_set",
    [(2, 1, 2, 7, 3), (3, 1, 3, 13, 4), (2, 2, 1, 280, 3), (2, 2, 2, 360, 3),
     (2, 2, 4, 21, 5)],
    ids=["pg22t2", "pg23t3", "pg24t1", "pg24t2", "pg24t4"],
)
def test_found_sets_have_the_papers_t_line_counts(p, k, t, found, off_set):
    """Every point of an extremal set lies on exactly one t-line, and every
    point off it on 1 + n/(b+1-t), counted from the lines with Python sets."""
    plane = support.desarguesian(p, k)
    n = plane.order
    b = max_size_bound(n, t).b
    assert n % (b + 1 - t) == 0
    assert off_set == 1 + n // (b + 1 - t)
    result = exhaustive_extremal_search(SearchTask(plane, t))
    assert result.complete and result.found == found
    lines = [set(line) for line in plane.lines]
    for ps in result.sets:
        members = set(ps.indices())
        t_lines = [line for line in lines if len(line & members) == t]
        for x in range(plane.num_points):
            expected = 1 if x in members else off_set
            assert sum(x in line for line in t_lines) == expected, (ps.indices(), x)


def test_unattainable_bound_is_vacuous():
    fano = support.desarguesian(2, 1)
    result = exhaustive_extremal_search(SearchTask(fano, 1))  # D = 8, no square
    assert result.sets == []
    assert result.complete
    assert result.nodes == 0


def test_invalid_t_raises():
    fano = support.desarguesian(2, 1)
    with pytest.raises(ValueError):
        exhaustive_extremal_search(SearchTask(fano, 0))
    with pytest.raises(ValueError):
        exhaustive_extremal_search(SearchTask(fano, 2, node_budget=0))


@pytest.mark.parametrize("t", [1, 2])
def test_prune_safety_on_fano(t):
    fano = support.desarguesian(2, 1)
    oracle = support.extremal_sets_by_enumeration(fano, t)
    pruned = exhaustive_extremal_search(SearchTask(fano, t))
    assert _indices(pruned) == oracle
    assert pruned.complete


def test_prune_safety_on_pg23():
    plane = support.desarguesian(3, 1)
    pruned = exhaustive_extremal_search(SearchTask(plane, 3))
    assert _indices(pruned) == support.extremal_sets_by_enumeration(plane, 3)


def _relabelled(plane, seed):
    """The plane with its points renumbered, its lines reordered and each
    line's points listed in an order drawn from the seed."""
    rng = random.Random(seed)
    relabel = list(range(plane.num_points))
    rng.shuffle(relabel)
    lines = []
    for pts in plane.lines:
        line = [relabel[i] for i in pts]
        rng.shuffle(line)
        lines.append(line)
    rng.shuffle(lines)
    return IncidencePlane(plane.order, lines)


@pytest.mark.parametrize("p, k, t", [(2, 1, 2), (3, 1, 3), (2, 2, 4)],
                         ids=["pg22", "pg23", "pg24"])
def test_search_does_not_depend_on_point_numbering(p, k, t):
    relabelled = _relabelled(support.desarguesian(p, k), p * 100 + k)
    result = exhaustive_extremal_search(SearchTask(relabelled, t))
    assert result.complete
    assert result.sets
    assert _indices(result) == support.extremal_sets_by_enumeration(relabelled, t)


@pytest.mark.parametrize(
    "p, k, t, budget, nodes, found, complete",
    [
        (2, 2, 1, DEFAULT_NODE_BUDGET, 14480, 280, True),
        (2, 2, 2, DEFAULT_NODE_BUDGET, 9192, 360, True),
        (2, 4, 16, DEFAULT_NODE_BUDGET, 547, 273, True),
        (2, 2, 1, 5000, 5000, 98, False),
        (2, 4, 16, 300, 300, 150, False),
        (2, 4, 16, 546, 546, 273, False),
        (2, 2, 2, 1000, 1000, 31, False),
    ],
    ids=["pg24_t1", "pg24_t2", "pg216_t16", "pg24_t1_budget", "pg216_t16_budget",
         "pg216_t16_budget_last_tail", "pg24_t2_budget"],
)
def test_search_tree_is_pinned(p, k, t, budget, nodes, found, complete):
    """Trees counted by the step-by-step oracle; the node count also catches
    a weakened prune that still finds the same sets.  The bushy trees have
    no closed form: t=1 is searched directly, t=2 on the complement side,
    and the two-valued prune takes them from the 103056 and 60845 nodes of
    the window [lo, hi] alone to 14480 and 9192.
    PG(2,16) at t=16 searches single points, 2N+1 nodes; a budget of 300
    stops after 150 of them, and one of 2N inside the last forced tail,
    before the cut that ends it, with every set found."""
    result = exhaustive_extremal_search(
        SearchTask(support.desarguesian(p, k), t, node_budget=budget)
    )
    assert (result.nodes, len(result.sets), result.complete) == (nodes, found, complete)


@functools.lru_cache(maxsize=None)
def _relabelled_pg24():
    return _relabelled(support.desarguesian(2, 2), 2024)


@pytest.mark.parametrize(
    "p, k, relabel",
    [(2, 1, False), (3, 1, False), (2, 2, False), (5, 1, False), (7, 1, False), (2, 3, False),
     (3, 2, False), (2, 4, False), (19, 1, False), (2, 5, False), (2, 2, True)],
    ids=["pg22", "pg23", "pg24", "pg25", "pg27", "pg28", "pg29", "pg216", "pg219", "pg232",
         "pg24_relabelled"],
)
def test_plane_minus_point_search_takes_2n_plus_1_nodes(p, k, relabel):
    """At t=q the search looks for the one point a set leaves out: each point
    is a node that takes it, a leaf, and a node that skips it, and the last
    skip is cut, so N points take 2N+1 nodes and give N sets.  A budget of
    2N stops before that last node, with every set found."""
    plane = _relabelled_pg24() if relabel else support.desarguesian(p, k)
    n, N = plane.order, plane.num_points
    full = exhaustive_extremal_search(SearchTask(plane, n))
    assert (full.nodes, full.found, full.complete) == (2 * N + 1, N, True)
    stopped = exhaustive_extremal_search(SearchTask(plane, n, node_budget=2 * N))
    assert (stopped.nodes, stopped.found, stopped.complete) == (2 * N, N, False)
    assert _indices(stopped) == _indices(full)


def _both_searches(plane, t, budget, other=False):
    """(leaf masks, nodes, complete) of the search and of its step-by-step
    oracle, at one budget, on the side the program searches (or, with
    ``other``, the other side)."""
    return [search._pruned_search(plane, *support.search_side(plane, t, other), budget),
            _by_steps(plane, t, budget, other)]


@functools.lru_cache(maxsize=None)
def _by_steps(plane, t, budget, other=False):
    """(leaf masks, nodes, complete) of the step-by-step oracle, which no
    setting of the search changes, so each is computed once per session."""
    return support.pruned_search_by_steps(plane, *support.search_side(plane, t, other), budget)


# The oracle is compared on both sides of each t.  "every_tail" is the side
# the program searches, so every tree and forced tail it walks is checked;
# "long_tails" is the other side, which at t = q holds the N-1 point sets
# themselves: a tree of forced tails up to N points long, each walked to its
# leaf with its exclude branches cut one by one.
SIDES = pytest.mark.parametrize("other", [False, True], ids=["every_tail", "long_tails"])


@SIDES
@pytest.mark.parametrize("seed", [None, 1, 2], ids=["canonical", "relabelled1", "relabelled2"])
@pytest.mark.parametrize("p, k", [(2, 1), (3, 1)], ids=["pg22", "pg23"])
def test_search_matches_step_by_step_on_every_budget(p, k, seed, other):
    plane = support.desarguesian(p, k)
    if seed is not None:
        plane = _relabelled(plane, seed)
    ts = [t for t in range(1, plane.order + 1) if max_size_bound(plane.order, t).attainable]
    assert ts
    for t in ts:
        new, old = _both_searches(plane, t, DEFAULT_NODE_BUDGET, other)
        assert new == old and new[2]
        for budget in range(1, new[1] + 2):
            new, old = _both_searches(plane, t, budget, other)
            assert new == old, (t, budget)


@SIDES
@pytest.mark.parametrize(
    "k, t, budgets",
    [
        (2, 1, [1, 2, 50, 108, 214, 215, 4999, 5000, 12345, 14248, 14249, 14250, 14479,
                14480, 14481, 103056]),
        (2, 2, [*range(1, 301), 5000, 9191, 9192, 9193, 13172, 13173, 13174, 60845]),
        (2, 4, [*range(1, 45), 233, 250, 251, 252]),
        (4, 16, [1, 2, 272, 273, 274, 545, 546, 547, 548, 1000, 20000, 37400, 37672, 37673,
                 37674]),
    ],
    ids=["pg24_t1", "pg24_t2", "pg24_t4", "pg216_t16"],
)
def test_search_matches_step_by_step_on_sampled_budgets(k, t, budgets, other):
    plane = support.desarguesian(2, k)
    for budget in budgets:
        new, old = _both_searches(plane, t, budget, other)
        assert new == old, budget


@SIDES
@pytest.mark.parametrize("p, k, relabel", [(2, 1, False), (3, 1, False), (2, 2, False),
                                           (2, 2, True)],
                         ids=["pg22", "pg23", "pg24", "pg24_relabelled"])
def test_two_valued_leaves_are_the_window_leaves_with_two_counts(p, k, relabel, other):
    """The two-valued prune cuts no set it should keep: at every attainable
    t the leaves are those of the oracle with that prune off, which keeps
    every count in [lo, hi], whose every line holds lo or hi points, counted
    from ``plane.lines`` with a Python set."""
    plane = _relabelled_pg24() if relabel else support.desarguesian(p, k)
    ts = [t for t in range(1, plane.order + 1) if max_size_bound(plane.order, t).attainable]
    assert ts
    for t in ts:
        m, lo, hi = support.search_side(plane, t, other)
        window, _, done = support.pruned_search_by_steps(plane, m, lo, hi, DEFAULT_NODE_BUDGET,
                                                         two_valued=False)
        assert done
        expected = []
        for mask in window:
            members = {i for i in range(plane.num_points) if mask >> i & 1}
            if all(len(members.intersection(line)) in (lo, hi) for line in plane.lines):
                expected.append(mask)
        leaves, _, complete = search._pruned_search(plane, m, lo, hi, DEFAULT_NODE_BUDGET)
        assert complete and expected and leaves == expected, t


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1)], ids=["pg22", "pg23"])
def test_leaves_away_from_the_bound_hold_lo_or_hi_on_every_line(p, k):
    """At the bound's size every set in the window [lo, hi] meets each line
    in lo or hi points, but at other sizes some do not, and the leaf check
    drops them: for every m and every lo, hi at least two apart, the search
    matches the step-by-step oracle, and its leaves are the prune-off
    oracle's leaves whose every line holds lo or hi points."""
    plane = support.desarguesian(p, k)
    n = plane.order
    dropped = 0
    for m in range(1, plane.num_points):
        for lo in range(n + 1):
            for hi in range(lo + 2, n + 2):
                new = search._pruned_search(plane, m, lo, hi, 20000)
                assert new == support.pruned_search_by_steps(plane, m, lo, hi, 20000)
                window = support.pruned_search_by_steps(plane, m, lo, hi, 20000,
                                                        two_valued=False)[0]
                kept = [mask for mask in window
                        if all((mask & lm).bit_count() in (lo, hi) for lm in plane.line_masks)]
                if new[2] and window:
                    assert new[0] == kept, (m, lo, hi)
                    dropped += len(window) - len(kept)
    assert dropped


@pytest.mark.parametrize("seed", [None, 2024], ids=["canonical", "relabelled"])
@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2)], ids=["pg22", "pg23", "pg24"])
def test_complement_side_finds_the_direct_leaves_in_reverse(p, k, seed):
    """At every attainable t, the sets of m points meeting each line in t to
    b+1 points are the complements of the sets of N-m points meeting each
    line in n-b to n+1-t, and complementing reverses their order."""
    plane = support.desarguesian(p, k)
    if seed is not None:
        plane = _relabelled(plane, seed)
    n, N = plane.order, plane.num_points
    everything = (1 << N) - 1
    ts = [t for t in range(1, n + 1) if max_size_bound(n, t).attainable]
    assert ts
    for t in ts:
        bv = max_size_bound(n, t)
        m, b = bv.bound, bv.b
        direct, _, done = search._pruned_search(plane, m, t, b + 1, DEFAULT_NODE_BUDGET)
        assert done and direct
        small, _, done = search._pruned_search(plane, N - m, n - b, n + 1 - t,
                                               DEFAULT_NODE_BUDGET)
        assert done
        assert direct == [everything ^ mask for mask in reversed(small)], t


@pytest.mark.parametrize("t", [1, 2, 4], ids=["t1_direct", "t2_complement", "t4_complement"])
def test_every_reported_set_is_reverified(monkeypatch, t):
    """The search's own counts are not trusted: a set that blocking.verify
    refuses is not reported, whichever side found it."""
    plane = support.desarguesian(2, 2)
    full = exhaustive_extremal_search(SearchTask(plane, t))
    refused = full.sets[len(full.sets) // 2].mask
    real_verify = search.blocking.verify

    def refusing_verify(ps, t):
        verdict = real_verify(ps, t)
        return dataclasses.replace(verdict, minimal=False) if ps.mask == refused else verdict

    monkeypatch.setattr(search.blocking, "verify", refusing_verify)
    result = exhaustive_extremal_search(SearchTask(plane, t))
    assert [ps.mask for ps in result.sets] == [ps.mask for ps in full.sets if ps.mask != refused]
    assert (result.nodes, result.complete) == (full.nodes, True)


# The per-point tables of a small plane are all kept.  TABLE_BYTES=0 builds
# each one when a node reaches its point; 250 bytes, at a byte per line,
# keep the tables of the last 11 of PG(2,4)'s 21 points and the last 4 of
# PG(2,7)'s 57, so a search uses both.  Two-byte fields, which only planes
# of order 127 and up use, are forced on the small planes too.
TABLES = pytest.mark.parametrize(
    "table_bytes, field_format",
    [(search.TABLE_BYTES, None), (250, None), (0, None), (search.TABLE_BYTES, "H")],
    ids=["kept_tables", "some_tables", "tables_on_use", "two_byte_fields"],
)


def _set_tables(monkeypatch, table_bytes, field_format):
    monkeypatch.setattr(search, "TABLE_BYTES", table_bytes)
    if field_format is not None:
        monkeypatch.setattr(search, "_field_format", lambda order: field_format)


# PG(2,7) at t=2 and t=3 has no extremal set and a tree too large to finish:
# every budget below stops the search, among the bushy nodes of its first
# points and deep in its tree
Q7_BUDGETS = [1, 2, 57, 58, 1000, 4321, 65536, 123457, 200000]


@TABLES
@pytest.mark.parametrize("t", [2, 3], ids=["pg27_t2", "pg27_t3"])
def test_search_matches_step_by_step_on_pg27(monkeypatch, t, table_bytes, field_format):
    _set_tables(monkeypatch, table_bytes, field_format)
    plane = support.desarguesian(7, 1)
    for budget in Q7_BUDGETS:
        new, old = _both_searches(plane, t, budget)
        assert new == old, budget
        assert new[1:] == (budget, False)


@TABLES
@pytest.mark.parametrize(
    "t, found, budgets",
    [
        (1, 280, [1, 21, 300, 5000, 10234, 12153, 12154, DEFAULT_NODE_BUDGET]),
        (2, 360, [1, 21, 300, 5000, 7654, 9231, 9232, DEFAULT_NODE_BUDGET]),
    ],
    ids=["pg24_t1", "pg24_t2"],
)
def test_search_matches_step_by_step_on_a_relabelled_pg24(monkeypatch, t, found, budgets,
                                                          table_bytes, field_format):
    _set_tables(monkeypatch, table_bytes, field_format)
    plane = _relabelled_pg24()
    for budget in budgets:
        new, old = _both_searches(plane, t, budget)
        assert new == old, budget
    masks, _, complete = new
    assert complete and len(masks) == found


def test_search_tables_stay_small_on_pg232():
    """The tables of every point of PG(2,32) take about 1.1 MB; only the
    last points' tables, up to TABLE_BYTES, are kept.  At t=32 the search
    looks for the one point a set leaves out.  Its peak, traced with the
    plane's lines and indices already built, read 0.66 MiB with the tables
    of the last points, 1.25 MiB keeping every table and 0.13 MiB building
    every table on use, on Python 3.11."""
    plane = support.desarguesian(2, 5)
    plane.lines, plane.line_masks, plane.point_lines
    assert support.search_side(plane, 32) == (1, 0, 1)
    tracemalloc.start()
    try:
        leaves, nodes, complete = search._pruned_search(plane, 1, 0, 1, DEFAULT_NODE_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(leaves), nodes, complete) == (1057, 2115, True)
    assert peak < 2.2 * 2**20


def test_deep_search_stays_small_on_pg264():
    """At t=1 the search of PG(2,64) takes sets of 513 points, so its stack
    grows hundreds of entries deep, and each entry carries two integers of
    a byte per line.  Its peak over 20000 nodes, traced with the plane's
    lines and indices already built, read 3.22 MiB on Python 3.11."""
    plane = support.desarguesian(2, 6)
    plane.lines, plane.line_masks, plane.point_lines
    assert support.search_side(plane, 1) == (513, 1, 9)
    tracemalloc.start()
    try:
        leaves, nodes, complete = search._pruned_search(plane, 513, 1, 9, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(leaves), nodes, complete) == (0, 20000, False)
    assert peak < 4 * 2**20


def test_budget_truncation_reports_incomplete():
    plane = support.desarguesian(2, 2)
    result = exhaustive_extremal_search(SearchTask(plane, 2, node_budget=64))
    assert not result.complete
    assert result.nodes <= 64


@pytest.mark.parametrize("k, t", [(2, 4)], ids=["pruned"])
def test_node_budget_is_global(k, t):
    plane = support.desarguesian(2, k)
    full = exhaustive_extremal_search(SearchTask(plane, t))
    assert full.complete
    assert _indices(full) == support.extremal_sets_by_enumeration(plane, t)
    assert full.sets
    exact = exhaustive_extremal_search(SearchTask(plane, t, node_budget=full.nodes))
    assert exact.complete
    assert exact.nodes == full.nodes
    assert _indices(exact) == _indices(full)
    short = exhaustive_extremal_search(
        SearchTask(plane, t, node_budget=full.nodes - 1)
    )
    assert not short.complete
    assert short.nodes == full.nodes - 1
    for result, budget in ((full, DEFAULT_NODE_BUDGET), (exact, full.nodes),
                           (short, full.nodes - 1)):
        assert result.nodes <= budget


def test_search_depth_is_not_bounded_by_recursion_limit():
    plane = support.desarguesian(2, 4)  # PG(2,16), 273 points
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)  # fewer frames than points: one level per point fails
    try:
        result = exhaustive_extremal_search(SearchTask(plane, 16))
    finally:
        sys.setrecursionlimit(limit)
    assert result.complete
    assert len(result.sets) == 273


def test_certify_pg22():
    fano = support.desarguesian(2, 1)
    report = certify_no_other_t(fano)
    assert report.matches_theory
    by_t = {e.t: e for e in report.entries}
    assert by_t[1].size is None
    assert by_t[2].found == 7
    assert by_t[2].families == {FamilyLabel.PLANE_MINUS_POINT.value: 7}


def test_certify_pg23():
    plane = support.desarguesian(3, 1)
    report = certify_no_other_t(plane)
    assert report.matches_theory
    found = {e.t for e in report.entries if e.found}
    assert found == {3}


def test_certify_report_dict_shape():
    fano = support.desarguesian(2, 1)
    report = certify_no_other_t(fano)
    d = report.as_dict()
    assert d["order"] == 2
    assert d["expected_t"] == [2]
    assert d["matches_theory"] is True
    assert [e["t"] for e in d["results"]] == [1, 2]


def test_certify_characterizes_found_sets():
    plane = support.desarguesian(3, 1)
    report = certify_no_other_t(plane)
    assert [e.t for e in report.entries] == [1, 2, 3]
    entry = report.entries[2]
    assert entry.found == 13
    assert entry.families == {FamilyLabel.PLANE_MINUS_POINT.value: 13}
    for ps in entry.sets:
        assert characterize(ps) is FamilyLabel.PLANE_MINUS_POINT


def test_certify_refuses_an_order_that_is_not_a_prime_power(monkeypatch):
    def no_search(task):
        raise AssertionError(f"searched t={task.t}")

    monkeypatch.setattr(search, "exhaustive_extremal_search", no_search)
    # 43 lines of 7 consecutive points mod 43: order 6, and not a plane
    lines = [[(j + i) % 43 for i in range(7)] for j in range(43)]
    with pytest.raises(ValueError, match="^6 is not a prime power$"):
        certify_no_other_t(IncidencePlane(6, lines))


@pytest.mark.parametrize("k", [1, 2], ids=["pg22", "pg24"])
def test_budget_truncated_certify_does_not_match_theory(k):
    plane = support.desarguesian(2, k)
    report = certify_no_other_t(plane, node_budget=5)
    assert report.matches_theory is False
    assert not all(e.complete for e in report.entries)


@pytest.mark.parametrize(
    "predicted",
    [
        # an extra predicted t: t=1 is searched, finds nothing, and should have
        [ExtremalValue(1, 1, FamilyLabel.UNITAL),
         ExtremalValue(2, 2, FamilyLabel.PLANE_MINUS_POINT)],
        # the right t with the wrong family
        [ExtremalValue(2, 2, FamilyLabel.UNITAL)],
        # no predicted t: the sets found at t=2 are unpredicted
        [],
    ],
    ids=["extra_t", "wrong_family", "missing_t"],
)
def test_certify_against_a_wrong_prediction_does_not_match(monkeypatch, predicted):
    monkeypatch.setattr(search, "classify_prime_power", lambda n: predicted)
    report = certify_no_other_t(support.desarguesian(2, 1))
    assert report.matches_theory is False
    assert all(e.complete for e in report.entries)
    assert report.entries[1].families == {FamilyLabel.PLANE_MINUS_POINT.value: 7}


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2)], ids=["pg22", "pg23", "pg24"])
def test_certify_entries_are_the_searches(p, k):
    plane = support.desarguesian(p, k)
    report = certify_no_other_t(plane)
    assert [e.t for e in report.entries] == list(range(1, plane.order + 1))
    for entry in report.entries:
        direct = exhaustive_extremal_search(SearchTask(plane, entry.t))
        assert entry.size == direct.size
        assert entry.complete == direct.complete
        assert entry.found == len(direct.sets)
        assert _indices(entry) == _indices(direct)
        assert entry.summary() == direct.summary()


@pytest.mark.parametrize("t, label", [(1, "Unital"), (2, "BaerComplement"),
                                      (4, "PlaneMinusPoint")])
def test_search_result_families_recount_on_pg24(t, label):
    plane = support.desarguesian(2, 2)
    result = exhaustive_extremal_search(SearchTask(plane, t))
    assert result.sets and result.found == len(result.sets)
    recount = {}
    for ps in result.sets:
        name = characterize(ps).value
        recount[name] = recount.get(name, 0) + 1
    assert result.families == recount == {label: result.found}
    assert result.summary() == {"t": t, "size": result.size, "found": result.found,
                                "complete": True, "families": recount}
    assert list(result.summary()) == ["t", "size", "found", "complete", "families"]


def test_search_result_size_is_the_bound_searched_for():
    plane = support.desarguesian(2, 2)
    assert exhaustive_extremal_search(SearchTask(plane, 2)).size == 14
    unattainable = exhaustive_extremal_search(SearchTask(plane, 3))
    assert unattainable.size is None
    assert (unattainable.nodes, unattainable.complete) == (0, True)
    assert (unattainable.found, unattainable.families) == (0, {})
