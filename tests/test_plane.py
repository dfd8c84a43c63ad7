import random

import pytest

import support
from blocksets import plane as plane_module
from blocksets import (
    IncidencePlane,
    PlaneFormatError,
    build_desarguesian_plane,
    load_plane,
    save_plane,
    verify_plane_axioms,
)


def test_fano_counts():
    fano = support.desarguesian(2, 1)
    assert fano.order == 2
    assert fano.num_points == 7
    assert fano.num_lines == 7
    assert all(len(line) == 3 for line in fano.lines)


def test_pg24_counts():
    plane = support.desarguesian(2, 2)
    assert plane.num_points == 21
    assert plane.num_lines == 21
    assert all(len(line) == 5 for line in plane.lines)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_desarguesian_planes_pass_axioms(p, k):
    plane = support.desarguesian(p, k)
    assert support.plane_axioms_hold_by_pair_sets(plane.order, plane.lines)
    report = verify_plane_axioms(plane)
    assert report.ok, report.failures


def test_dual_counting():
    plane = support.desarguesian(3, 2)
    n = plane.order
    total = (n + 1) * (n * n + n + 1)
    assert sum(len(line) for line in plane.lines) == total
    assert sum(len(plane.point_lines[i]) for i in range(plane.num_points)) == total


def test_build_is_deterministic():
    a = build_desarguesian_plane(support.field(2, 2))
    b = build_desarguesian_plane(support.field(2, 2))
    assert a.lines == b.lines
    assert a.point_coords == b.point_coords


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_lines_match_tuple_oracle(p, k):
    plane = support.desarguesian(p, k)
    oracle = support.TupleField(plane.field)
    assert list(plane.lines) == support.desarguesian_lines_by_enumeration(oracle)
    elems = oracle.elements
    assert [tuple(elems[c] for c in pt) for pt in plane.point_coords] == (
        support.normalized_triples(oracle)
    )


def test_field_too_large_rejected():
    with pytest.raises(ValueError):
        build_desarguesian_plane(support.field(131, 1))


def test_lines_through_point():
    fano = support.desarguesian(2, 1)
    for i in range(7):
        assert len(fano.lines_through_point(i)) == 3
    plane = support.desarguesian(2, 2)
    for i in range(21):
        assert len(plane.lines_through_point(i)) == 5


def test_line_through():
    fano = support.desarguesian(2, 1)
    for p1 in range(7):
        for p2 in range(p1 + 1, 7):
            j = fano.line_through(p1, p2)
            assert j == fano.line_through(p2, p1)
            assert p1 in fano.lines[j] and p2 in fano.lines[j]
    with pytest.raises(ValueError):
        fano.line_through(3, 3)


def test_axiom_checker_catches_broken_incidence():
    fano = support.desarguesian(2, 1)
    lines = [list(l) for l in fano.lines]
    removed = lines[0].pop()
    broken = IncidencePlane(2, lines)
    report = verify_plane_axioms(broken)
    assert not report.ok
    assert any("cardinality" in f for f in report.failures)
    assert any(str(removed) in f for f in report.failures)


def test_axiom_checker_catches_doubled_pair():
    fano = support.desarguesian(2, 1)
    lines = [list(l) for l in fano.lines]
    lines[1] = list(lines[0])  # duplicate line: every pair on it covered twice
    report = verify_plane_axioms(IncidencePlane(2, lines))
    assert not report.ok
    assert any("lie on lines" in f for f in report.failures)
    assert any("no common line" in f for f in report.failures)


def test_xor_fano_loads(tmp_path):
    path = tmp_path / "fano.txt"
    lines = support.xor_fano_lines()
    with open(path, "w") as fh:
        fh.write("# canonical Fano plane\n")
        fh.write("order 2\n")
        for pts in lines:
            fh.write(" ".join(str(i) for i in pts) + "\n")
    plane = load_plane(path)
    assert plane.order == 2
    assert verify_plane_axioms(plane).ok


def test_save_load_round_trip(tmp_path):
    plane = support.desarguesian(3, 1)
    path = tmp_path / "pg23.txt"
    save_plane(plane, path)
    loaded = load_plane(path)
    assert loaded == plane
    assert loaded.lines == plane.lines


def test_load_rejects_wrong_cardinality(tmp_path):
    path = tmp_path / "bad.txt"
    lines = [list(l) for l in support.xor_fano_lines()]
    lines[2] = [0, 1, 2, 3, 4]
    with open(path, "w") as fh:
        fh.write("order 2\n")
        for pts in lines:
            fh.write(" ".join(str(i) for i in pts) + "\n")
    with pytest.raises(PlaneFormatError, match="cardinality"):
        load_plane(path)


def test_load_rejects_wrong_line_count(tmp_path):
    path = tmp_path / "short.txt"
    with open(path, "w") as fh:
        fh.write("order 2\n")
        for pts in support.xor_fano_lines()[:-1]:
            fh.write(" ".join(str(i) for i in pts) + "\n")
    with pytest.raises(PlaneFormatError, match="expected 7"):
        load_plane(path)


def test_load_rejects_out_of_range_index(tmp_path):
    path = tmp_path / "range.txt"
    lines = [list(l) for l in support.xor_fano_lines()]
    lines[0][0] = 99
    with open(path, "w") as fh:
        fh.write("order 2\n")
        for pts in lines:
            fh.write(" ".join(str(i) for i in pts) + "\n")
    with pytest.raises(PlaneFormatError, match="out of range"):
        load_plane(path)


def test_load_rejects_axiom_violation(tmp_path):
    # structurally fine (7 lines of 3) but two lines share two points
    path = tmp_path / "broken.txt"
    lines = [list(l) for l in support.xor_fano_lines()]
    lines[1] = list(lines[0])
    with open(path, "w") as fh:
        fh.write("order 2\n")
        for pts in lines:
            fh.write(" ".join(str(i) for i in pts) + "\n")
    with pytest.raises(PlaneFormatError, match="axioms"):
        load_plane(path)


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "nohdr.txt"
    with open(path, "w") as fh:
        fh.write("0 1 2\n")
    with pytest.raises(PlaneFormatError, match="order"):
        load_plane(path)


def test_loaded_plane_has_no_coordinates(tmp_path):
    plane = support.desarguesian(2, 1)
    path = tmp_path / "fano.txt"
    save_plane(plane, path)
    loaded = load_plane(path)
    assert loaded.field is None
    assert loaded.point_coords is None


# -- the cover check against the pair-set oracle and the pair walk ------------


def _swap_points_between_lines(lines):
    # x leaves line 0 for line 1 and y the other way: cardinalities and
    # degrees are unchanged, so only the cover check can see it
    x = next(i for i in lines[0] if i not in lines[1])
    y = next(i for i in lines[1] if i not in lines[0])
    lines[0][lines[0].index(x)] = y
    lines[1][lines[1].index(y)] = x


def _duplicate_line(lines):
    lines[1] = list(lines[0])


def _repeat_index_in_line(lines):
    lines[0][1] = lines[0][0]


def _shorten_line(lines):
    lines[0].pop()


@pytest.mark.parametrize(
    "corrupt",
    [_swap_points_between_lines, _duplicate_line, _repeat_index_in_line, _shorten_line],
)
@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_corrupted_plane_reports_pair_walk_failures(p, k, corrupt):
    lines = [list(l) for l in support.desarguesian(p, k).lines]
    corrupt(lines)
    order = p**k
    if corrupt is _repeat_index_in_line:
        assert not support.plane_axioms_hold_by_pair_sets(order, lines)
        with pytest.raises(ValueError, match="line 0 repeats a point"):
            IncidencePlane(order, lines)
        return
    broken = IncidencePlane(order, lines)
    report = verify_plane_axioms(broken)
    assert report.ok == support.plane_axioms_hold_by_pair_sets(order, lines)
    assert not report.ok
    assert report.failures == plane_module._pair_walk_failures(broken)
    if corrupt is _swap_points_between_lines:
        assert all("lie on" in f for f in report.failures)


def test_random_corruptions_agree_with_oracle_and_pair_walk():
    rng = random.Random(7)
    base = support.desarguesian(3, 1)
    repeats = 0
    for _ in range(150):
        lines = [list(l) for l in base.lines]
        for _ in range(rng.randint(1, 2)):
            j, j2 = rng.randrange(13), rng.randrange(13)
            a, b = rng.randrange(4), rng.randrange(4)
            lines[j][a], lines[j2][b] = lines[j2][b], lines[j][a]
        holds = support.plane_axioms_hold_by_pair_sets(3, lines)
        repeated = [j for j, pts in enumerate(lines) if len(set(pts)) < len(pts)]
        if repeated:
            repeats += 1
            assert not holds
            with pytest.raises(ValueError, match=f"line {repeated[0]} repeats a point"):
                IncidencePlane(3, lines)
            continue
        plane = IncidencePlane(3, lines)
        report = verify_plane_axioms(plane)
        assert report.ok == holds
        assert report.failures == plane_module._pair_walk_failures(plane)
    assert 0 < repeats < 150


def test_valid_plane_never_enters_pair_walk(tmp_path, monkeypatch):
    def refuse(plane):
        raise AssertionError("pair walk run on a valid plane")

    path = tmp_path / "pg28.txt"
    save_plane(support.desarguesian(2, 3), path)
    monkeypatch.setattr(plane_module, "_pair_walk_failures", refuse)
    plane = load_plane(path)
    assert verify_plane_axioms(plane).ok
