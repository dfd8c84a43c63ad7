import itertools
import random
import re
import tracemalloc

import pytest

import support
import blocksets.plane
from blocksets import (
    FieldSpec,
    IncidencePlane,
    PlaneFormatError,
    SearchTask,
    baer_complement,
    baer_subplane,
    build_desarguesian_plane,
    exhaustive_extremal_search,
    hermitian_unital,
    load_plane,
    plane_minus_point,
    save_plane,
    verify_plane_axioms,
)
from blocksets.cli import main
from blocksets.families import format_point_set


def test_fano_counts():
    fano = support.desarguesian(2, 1)
    assert fano.order == 2
    assert fano.num_points == 7
    assert len(fano.lines) == 7
    assert all(len(line) == 3 for line in fano.lines)


def test_pg24_counts():
    plane = support.desarguesian(2, 2)
    assert plane.num_points == 21
    assert len(plane.lines) == 21
    assert all(len(line) == 5 for line in plane.lines)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_desarguesian_planes_pass_axioms(p, k):
    plane = support.desarguesian(p, k)
    assert support.plane_axioms_hold_by_pair_sets(plane.order, plane.lines)
    assert verify_plane_axioms(plane) is None


def test_dual_counting():
    plane = support.desarguesian(3, 2)
    n = plane.order
    total = (n + 1) * (n * n + n + 1)
    assert sum(len(line) for line in plane.lines) == total
    assert sum(len(plane.point_lines[i]) for i in range(plane.num_points)) == total


def test_build_is_deterministic():
    a = build_desarguesian_plane(4)
    b = build_desarguesian_plane(4)
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
    with pytest.raises(ValueError, match=r"^field order 131 exceeds plane cap 128$"):
        build_desarguesian_plane(131)


@pytest.mark.parametrize("q", [2**61 - 1, 1000])
def test_cap_is_checked_before_the_order_is_factored(monkeypatch, q):
    def no_factoring(order):
        raise AssertionError(f"factored {order} although it is over the cap")

    monkeypatch.setattr(blocksets.plane, "prime_power", no_factoring)
    with pytest.raises(ValueError, match=f"^field order {q} exceeds plane cap 128$"):
        build_desarguesian_plane(q)


@pytest.mark.parametrize("q", [6, 1, 0, -5])
def test_order_that_is_not_a_prime_power_rejected(q):
    with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
        build_desarguesian_plane(q)


@pytest.mark.parametrize("q,p,k", [(2, 2, 1), (4, 2, 2), (27, 3, 3), (128, 2, 7)])
def test_plane_is_built_over_the_canonical_field_of_its_order(q, p, k):
    plane = build_desarguesian_plane(q)
    assert plane.order == q
    assert plane.field == FieldSpec(p, k)
    assert "lines" not in vars(plane)


def test_lines_through_point():
    fano = support.desarguesian(2, 1)
    for i in range(7):
        assert len(fano.point_lines[i]) == 3
    plane = support.desarguesian(2, 2)
    for i in range(21):
        assert len(plane.point_lines[i]) == 5


def test_two_points_share_one_line():
    fano = support.desarguesian(2, 1)
    for p1 in range(7):
        for p2 in range(p1 + 1, 7):
            [j] = set(fano.point_lines[p1]) & set(fano.point_lines[p2])
            assert p1 in fano.lines[j] and p2 in fano.lines[j]


def test_axiom_checker_catches_broken_incidence():
    fano = support.desarguesian(2, 1)
    lines = [list(l) for l in fano.lines]
    lines[3].pop()
    assert verify_plane_axioms(IncidencePlane(2, lines)) == "line 3 cardinality 2 != n+1 = 3"
    del lines[3]
    assert verify_plane_axioms(IncidencePlane(2, lines)) == "line count 6 != n^2+n+1 = 7"


def test_axiom_checker_catches_doubled_pair():
    lines = [list(l) for l in support.desarguesian(2, 1).lines]
    lines[1] = list(lines[0])  # duplicate line: its points lie on 2 lines each
    assert verify_plane_axioms(IncidencePlane(2, lines)) == (
        "point 0 lies on 2 lines, expected n+1 = 3"
    )
    lines = [list(l) for l in support.desarguesian(3, 1).lines]
    _swap_points_between_lines(lines)  # the counts hold, two pairs are doubled
    m = _LIE_ON_LINES.fullmatch(verify_plane_axioms(IncidencePlane(3, lines)))
    p, x, k, j = map(int, m.groups())
    assert {p, x} <= set(lines[k]) & set(lines[j])


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
    assert verify_plane_axioms(plane) is None


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


def test_load_rejects_repeated_index(tmp_path):
    path = tmp_path / "repeat.txt"
    lines = [list(l) for l in support.xor_fano_lines()]
    lines[0] = [0, 0, 1]
    with open(path, "w") as fh:
        fh.write("order 2\n")
        for pts in lines:
            fh.write(" ".join(str(i) for i in pts) + "\n")
    with pytest.raises(PlaneFormatError, match="^line 2: point 0 repeated$"):
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


def _fano_file_bytes() -> bytes:
    rows = [" ".join(map(str, pts)) for pts in support.xor_fano_lines()]
    return ("# the Fano plane\norder 2\n" + "\n".join(rows) + "\n").encode()


@pytest.mark.parametrize(
    "old,new,message",
    [
        pytest.param(b"order 2", b"order +2", "line 2: unexpected character '+'", id="order+"),
        pytest.param(b"order 2", b"order 0_2", "line 2: unexpected character '_'", id="order_"),
        pytest.param(
            b"order 2", "order ２".encode(), "line 2: unexpected character '２'", id="order-wide"
        ),
        pytest.param(b"\n0 ", b"\n+0 ", "line 3: unexpected character '+'", id="row+"),
        pytest.param(b"\n0 ", b"\n0_0 ", "line 3: unexpected character '_'", id="row_"),
        pytest.param(
            b"\n0 ", "\n０ ".encode(), "line 3: unexpected character '０'", id="row-wide"
        ),
        pytest.param(b"\n0 ", b"\n0\xff ", "line 3: non-UTF-8 byte 0xff", id="row-byte"),
        pytest.param(b"Fano", b"Fano \xc3", "line 1: non-UTF-8 byte 0xc3", id="comment-byte"),
        pytest.param(b"\n0 ", b"\n0\x1c", "line 3: unexpected character '\\x1c'", id="row-x1c"),
        pytest.param(b"\n0 ", b"\n0\x1f", "line 3: unexpected character '\\x1f'", id="row-x1f"),
        pytest.param(b"\n0 ", b"\n0\x0b", "line 3: unexpected character '\\x0b'", id="row-x0b"),
        pytest.param(b"\n0 ", b"\n0 \x0c", "line 3: unexpected character '\\x0c'", id="row-x0c"),
        pytest.param(b"\n0 ", b"\n0\x00 ", "line 3: unexpected character '\\x00'", id="row-nul"),
        pytest.param(
            b"order 2", b"order\x1d2", "line 2: unexpected character '\\x1d'", id="order-x1d"
        ),
    ],
)
def test_load_names_the_line_of_a_refused_character_or_byte(tmp_path, old, new, message):
    """``int`` reads '+2', '0_5' and fullwidth digits, and ``str.split``
    splits on control characters; the loader refuses them, and a byte that
    is not UTF-8, comments included, by line."""
    text = _fano_file_bytes()
    assert old in text
    path = tmp_path / "plane.txt"
    path.write_bytes(text.replace(old, new, 1))
    with pytest.raises(PlaneFormatError) as info:
        load_plane(path)
    assert str(info.value) == message


def test_load_accepts_tabs_runs_of_spaces_and_control_characters_in_comments(tmp_path):
    rows = ["\t".join(map(str, pts)) + " \t " for pts in support.xor_fano_lines()]
    rows[0] = rows[0].replace("\t", "   ")
    path = tmp_path / "plane.txt"
    path.write_text("# \x0c\x1c\norder\t 2\n" + "\n".join(rows) + "\n")
    assert load_plane(path) == IncidencePlane(2, support.xor_fano_lines())


def test_load_accepts_utf8_plus_and_underscore_in_comments(tmp_path):
    path = tmp_path / "plane.txt"
    path.write_bytes(_fano_file_bytes().replace(b"Fano", "Fano é + x_y".encode()))
    assert load_plane(path) == IncidencePlane(2, support.xor_fano_lines())


def test_loaded_plane_has_no_coordinates(tmp_path):
    plane = support.desarguesian(2, 1)
    path = tmp_path / "fano.txt"
    save_plane(plane, path)
    loaded = load_plane(path)
    assert loaded.field is None
    assert loaded.point_coords is None


# -- the axiom check against the pair-set oracle ------------------------------

_LIE_ON_LINES = re.compile(r"points (\d+) and (\d+) lie on lines (\d+) and (\d+)")


def _check_failure_against_oracle(order, lines):
    """Check verify_plane_axioms on these lines against the pair-set oracle.

    It returns None exactly when the oracle finds a plane.  Otherwise a
    count failure, if any, must be the first expected count message;
    failing that it must name the first bad pair: the smallest point p that
    is the smaller end of a bad pair, the smallest x > p on two lines with
    p, and the first two such lines.  Returns the failure.
    """
    failure = verify_plane_axioms(IncidencePlane(order, lines))
    assert (failure is None) == support.plane_axioms_hold_by_pair_sets(order, lines)
    num_points = order * order + order + 1
    sets = [set(pts) for pts in lines]
    counts = []
    if len(lines) != num_points:
        counts.append(f"line count {len(lines)} != n^2+n+1 = {num_points}")
    counts += [
        f"line {j} cardinality {len(pts)} != n+1 = {order + 1}"
        for j, pts in enumerate(lines)
        if len(pts) != order + 1
    ]
    for i in range(num_points):
        deg = sum(1 for s in sets if i in s)
        if deg != order + 1:
            counts.append(f"point {i} lies on {deg} lines, expected n+1 = {order + 1}")
    if counts:
        assert failure == counts[0]
    elif failure is not None:
        m = _LIE_ON_LINES.fullmatch(failure)
        assert m, failure
        p, x, k, j = map(int, m.groups())
        smallest_bad = next(
            a
            for a, b in itertools.combinations(range(num_points), 2)
            if sum(1 for s in sets if a in s and b in s) != 1
        )
        doubled = [b for b in range(p + 1, num_points)
                   if sum(1 for s in sets if p in s and b in s) > 1]
        assert (p, x) == (smallest_bad, doubled[0])
        assert [k, j] == [i for i, s in enumerate(sets) if {p, x} <= s][:2]
    return failure


def _swap_points_between_lines(lines):
    # x leaves line 0 for line 1 and y the other way: cardinalities and
    # degrees are unchanged, so only the pair check can see it
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


def _delete_line(lines):
    del lines[0]


@pytest.mark.parametrize(
    "corrupt",
    [
        _swap_points_between_lines,
        _duplicate_line,
        _repeat_index_in_line,
        _shorten_line,
        _delete_line,
    ],
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
    failure = _check_failure_against_oracle(order, lines)
    assert failure is not None
    if corrupt is _swap_points_between_lines:
        assert "lie on lines" in failure


@pytest.mark.parametrize(
    "corrupt,first",
    [
        (_swap_points_between_lines, "points 0 and 5 lie on lines 0 and 5"),
        (_duplicate_line, "point 0 lies on 2 lines, expected n+1 = 3"),
        (_shorten_line, "line 0 cardinality 2 != n+1 = 3"),
        (_delete_line, "line count 6 != n^2+n+1 = 7"),
    ],
)
def test_fano_first_failure_of_each_corruption(corrupt, first):
    lines = [list(l) for l in support.desarguesian(2, 1).lines]
    corrupt(lines)
    assert verify_plane_axioms(IncidencePlane(2, lines)) == first


def test_random_corruptions_agree_with_oracle():
    # one or two swaps, duplicated, shortened or deleted lines on PG(2,2..7)
    rng = random.Random(7)
    repeats = 0
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)]:
        base = support.desarguesian(p, k)
        for _ in range(60):
            lines = [list(l) for l in base.lines]
            for _ in range(rng.randint(1, 2)):
                j, j2 = rng.randrange(len(lines)), rng.randrange(len(lines))
                kind = rng.randrange(4)
                if kind == 0:
                    a, b = rng.randrange(len(lines[j])), rng.randrange(len(lines[j2]))
                    lines[j][a], lines[j2][b] = lines[j2][b], lines[j][a]
                elif kind == 1:
                    lines[j2] = list(lines[j])
                elif kind == 2:
                    lines[j].pop(rng.randrange(len(lines[j])))
                else:
                    del lines[j]
            repeated = [j for j, pts in enumerate(lines) if len(set(pts)) < len(pts)]
            if repeated:
                repeats += 1
                assert not support.plane_axioms_hold_by_pair_sets(base.order, lines)
                with pytest.raises(ValueError, match=f"line {repeated[0]} repeats a point"):
                    IncidencePlane(base.order, lines)
                continue
            _check_failure_against_oracle(base.order, lines)
    assert 0 < repeats < 300


def test_swapped_pg232_check_keeps_no_per_pair_state():
    lines = [list(l) for l in support.desarguesian(2, 5).lines]
    _swap_points_between_lines(lines)
    plane = IncidencePlane(32, lines)
    tracemalloc.start()
    try:
        failure = verify_plane_axioms(plane)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert failure.startswith("points ")
    assert peak < 1 << 20


# -- incidence indices on first use --------------------------------------------

_INDICES = ("_incidence", "line_masks", "point_lines")


def test_construct_path_computes_no_incidence_index(tmp_path):
    plane = build_desarguesian_plane(9)
    hermitian_unital(plane)
    baer_complement(plane)
    save_plane(plane, tmp_path / "pg29.txt")
    assert not set(_INDICES) & set(vars(plane))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_incidence_indices_match_eager_oracle(p, k):
    plane = build_desarguesian_plane(p**k)
    masks, through = support.incidence_by_lines(plane)
    assert plane.point_lines == through
    assert plane.line_masks == masks
    assert set(_INDICES) <= set(vars(plane))


def _relabelled_pg23_rows(seed):
    rng = random.Random(seed)
    relabel = list(range(13))
    rng.shuffle(relabel)
    rows = [[relabel[i] for i in line] for line in support.desarguesian(3, 1).lines]
    for row in rows:
        rng.shuffle(row)
    assert any(row != sorted(row) for row in rows)
    return rows


def test_incidence_indices_of_xor_fano_and_unsorted_relabelled_lines():
    fano = IncidencePlane(2, support.xor_fano_lines())
    assert (fano.line_masks, fano.point_lines) == support.incidence_by_lines(fano)
    lines = _relabelled_pg23_rows(3)
    plane = IncidencePlane(3, lines)
    assert plane.lines == tuple(tuple(sorted(line)) for line in lines)
    assert (plane.line_masks, plane.point_lines) == support.incidence_by_lines(plane)
    assert verify_plane_axioms(plane) is None


def test_construct_minus_point_64_memory_peak(tmp_path):
    argv = ["construct", "minus-point", "64", "--plane-out", str(tmp_path / "pg64.txt"),
            "--output", str(tmp_path / "set.txt")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * (1 << 20)


# -- the lines of a built plane on first read ------------------------------------


def test_families_leave_built_lines_uncomputed():
    plane = build_desarguesian_plane(9)
    for ps in (hermitian_unital(plane), baer_subplane(plane), baer_complement(plane),
               plane_minus_point(plane, 7)):
        format_point_set(ps)
    assert plane.num_points == 91
    assert "lines" not in vars(plane)


@pytest.mark.parametrize(
    "read",
    [
        lambda plane, path: save_plane(plane, path),
        lambda plane, path: plane.line_masks,
        lambda plane, path: plane.point_lines,
        lambda plane, path: exhaustive_extremal_search(SearchTask(plane, 2, node_budget=50)),
    ],
    ids=["save_plane", "line_masks", "point_lines", "search"],
)
def test_readers_compute_built_lines(tmp_path, read):
    plane = build_desarguesian_plane(4)
    assert "lines" not in vars(plane)
    read(plane, tmp_path / "pg24.txt")
    assert plane.lines is vars(plane)["lines"]
    assert plane.lines == support.desarguesian(2, 2).lines


def _write_plane(path, order, rows):
    with open(path, "w") as fh:
        fh.write("# a comment, so row j is on file line j + 3\n")
        fh.write(f"order {order}\n")
        for pts in rows:
            fh.write(" ".join(str(i) for i in pts) + "\n")


def test_load_sorts_unsorted_relabelled_rows_like_the_constructor(tmp_path):
    rows = _relabelled_pg23_rows(5)
    _write_plane(tmp_path / "plane.txt", 3, rows)
    loaded = load_plane(tmp_path / "plane.txt")
    assert loaded.lines == IncidencePlane(3, rows).lines
    assert all(type(line) is tuple for line in loaded.lines)
    assert loaded == IncidencePlane(3, rows)


@pytest.mark.parametrize(
    "row,message",
    [
        ([6, 2, 6, 2], "line 5: point 6 repeated"),
        ([99, 99, 1, 2], "line 5: point 99 repeated"),
        ([20, 3, -1, 4], "line 5: point index 20 out of range"),
        ([3, -1, 20, 4], "line 5: point index -1 out of range"),
        ([0, 1, 2], "line 5: line cardinality != n+1"),
        ([0, 1, 2, 3, 4], "line 5: line cardinality != n+1"),
        (["0", "1", "x", "3"], "line 5: non-integer point index"),
    ],
)
def test_load_names_the_first_bad_index_in_file_order(tmp_path, row, message):
    rows = _relabelled_pg23_rows(5)
    rows[2] = row
    rows[7] = [0, 0, 0, 0]
    _write_plane(tmp_path / "plane.txt", 3, rows)
    with pytest.raises(PlaneFormatError) as info:
        load_plane(tmp_path / "plane.txt")
    assert str(info.value) == message
