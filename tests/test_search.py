import random
import sys

import pytest

import support
from blocksets import (
    FamilyLabel,
    IncidencePlane,
    SearchTask,
    certify_no_other_t,
    characterize,
    exhaustive_extremal_search,
    is_minimal,
    is_t_fold_blocking,
    is_two_valued,
    max_size_bound,
    spectrum,
)
from blocksets import search
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
        assert is_t_fold_blocking(ps, 3)
        assert is_minimal(ps, 3)
        assert is_two_valued(spectrum(ps), 3, bv.b)


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


@pytest.mark.parametrize("p, k, t", [(2, 1, 2), (3, 1, 3), (2, 2, 4)],
                         ids=["pg22", "pg23", "pg24"])
def test_search_does_not_depend_on_point_numbering(p, k, t):
    plane = support.desarguesian(p, k)
    rng = random.Random(p * 100 + k)
    relabel = list(range(plane.num_points))
    rng.shuffle(relabel)
    lines = []
    for pts in plane.lines:
        line = [relabel[i] for i in pts]
        rng.shuffle(line)
        lines.append(line)
    relabelled = IncidencePlane(plane.order, lines)
    result = exhaustive_extremal_search(SearchTask(relabelled, t))
    assert result.complete
    assert result.sets
    assert _indices(result) == support.extremal_sets_by_enumeration(relabelled, t)


@pytest.mark.parametrize(
    "k, t, budget, nodes, found, complete",
    [
        (2, 1, DEFAULT_NODE_BUDGET, 103056, 280, True),
        (2, 2, DEFAULT_NODE_BUDGET, 90809, 360, True),
        (4, 16, DEFAULT_NODE_BUDGET, 37673, 273, True),
        (2, 1, 5000, 5000, 24, False),
    ],
    ids=["pg24_t1", "pg24_t2", "pg216_t16", "pg24_t1_budget"],
)
def test_search_tree_is_pinned(k, t, budget, nodes, found, complete):
    """Searches too large for the enumeration oracle; the node count also
    catches a weakened prune that still finds the same sets."""
    result = exhaustive_extremal_search(
        SearchTask(support.desarguesian(2, k), t, node_budget=budget)
    )
    assert (result.nodes, len(result.sets), result.complete) == (nodes, found, complete)


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
    assert not by_t[1].attainable
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
        assert entry.attainable == (direct.size is not None)
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
    assert (unattainable.attainable, unattainable.found, unattainable.families) == (False, 0, {})
