import json
import pathlib

import pytest

import support
import blocksets.plane
from blocksets import FieldSpec, load_point_set, save_plane, save_point_set
from blocksets.cli import _build_parser, main
from blocksets.families import PointSet
from blocksets.search import SearchResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_text_output(capsys):
    code, out, _ = run(capsys, "bound", "4", "1")
    assert code == 0
    assert out == "bound=9 b=2 attainable=true\n"


def test_bound_unattainable_text(capsys):
    code, out, _ = run(capsys, "bound", "5", "1")
    assert code == 0
    assert out == "bound=- b=- attainable=false\n"


def test_bound_json(capsys):
    code, out, _ = run(capsys, "bound", "9", "6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "n": 9,
        "t": 6,
        "discriminant": 121,
        "attainable": True,
        "bound": 78,
        "b": 8,
        "size_floor": 78,
    }


def test_bound_bad_t_exits_2(capsys):
    code, _, err = run(capsys, "bound", "4", "9")
    assert code == 2
    assert "error" in err


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "9", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["family"] for r in rows] == ["Unital", "BaerComplement", "PlaneMinusPoint"]
    assert [r["case"] for r in rows] == ["III", "II", "IV"]
    assert [r["bound"] for r in rows] == [28, 78, 90]


def test_classify_byte_stable(capsys):
    _, first, _ = run(capsys, "classify", "16", "--json")
    _, second, _ = run(capsys, "classify", "16", "--json")
    assert first == second


def test_classify_non_prime_power_points_to_candidates(capsys):
    code, _, err = run(capsys, "classify", "6")
    assert code == 2
    assert "candidates" in err


@pytest.mark.parametrize("q", ["1", "0", "-4"])
def test_classify_below_2_is_refused_as_candidates_refuses_it(capsys, q):
    refused = (2, "", "error: order must be at least 2\n")
    assert run(capsys, "classify", q) == refused
    assert run(capsys, "candidates", q) == refused


def test_candidates_text(capsys):
    code, out, _ = run(capsys, "candidates", "6")
    assert code == 0
    assert out == "t=6 b=6 bound=42 family=Unclassified case=-\n"


def test_candidates_json_prime_power(capsys):
    code, out, _ = run(capsys, "candidates", "9", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [(r["t"], r["b"], r["case"]) for r in rows] == [
        (1, 3, "III"),
        (6, 8, "II"),
        (9, 9, "IV"),
    ]


def test_construct_stdout(capsys):
    code, out, _ = run(capsys, "construct", "unital", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "order 4"
    assert lines[1] == "size 9"
    assert len(lines[2].split()) == 9


def test_construct_requires_square_for_unital(capsys):
    code, _, err = run(capsys, "construct", "unital", "5")
    assert code == 2
    assert "square" in err


def test_construct_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "construct", "minus-point", "6")
    assert code == 2


@pytest.mark.parametrize("family", ["unital", "baer", "baer-complement"])
def test_construct_point_outside_minus_point_exits_2(tmp_path, capsys, family):
    set_path, plane_path = tmp_path / "set.txt", tmp_path / "plane.txt"
    code, out, err = run(
        capsys, "construct", family, "4", "--point", "999",
        "--output", str(set_path), "--plane-out", str(plane_path),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --point applies to minus-point only, not {family}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "family,q",
    [
        ("minus-point", "1000003"),
        ("minus-point", "2147483647"),
        ("unital", "169"),
        ("minus-point", "10000000000037"),
        ("minus-point", "1000000000000037"),
        ("minus-point", str(2**61 - 1)),
        ("minus-point", "1000"),  # not a prime power: the cap still comes first
    ],
)
def test_construct_over_plane_cap_builds_no_table(capsys, monkeypatch, family, q):
    def no_tables(spec):
        raise AssertionError(f"tables of GF({spec.order}) requested")

    def no_factoring(order):
        raise AssertionError(f"{order} factored")

    monkeypatch.setattr(FieldSpec, "int_tables", no_tables)
    monkeypatch.setattr(blocksets.plane, "prime_power", no_factoring)
    code, out, err = run(capsys, "construct", family, q)
    assert code == 2
    assert out == ""
    assert "exceeds plane cap" in err


def test_construct_then_verify_round_trip(tmp_path, capsys):
    plane_path = str(tmp_path / "plane.txt")
    set_path = str(tmp_path / "unital.txt")
    code, _, _ = run(
        capsys, "construct", "unital", "4", "--output", set_path, "--plane-out", plane_path
    )
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--plane", plane_path, "--set", set_path, "--t", "1"
    )
    assert code == 0
    assert "blocking=true" in out and "minimal=true" in out


def test_construct_families_verify_at_their_t(tmp_path, capsys):
    plane_path = str(tmp_path / "plane9.txt")
    for family, t in [("baer-complement", "6"), ("minus-point", "9")]:
        set_path = str(tmp_path / f"{family}.txt")
        code, _, _ = run(
            capsys,
            "construct",
            family,
            "9",
            "--output",
            set_path,
            "--plane-out",
            plane_path,
        )
        assert code == 0
        code, _, _ = run(
            capsys, "verify", "--plane", plane_path, "--set", set_path, "--t", t
        )
        assert code == 0


def test_verify_failure_exits_1(tmp_path, capsys):
    # 9 points all avoiding one line: that line is unblocked
    plane = support.desarguesian(2, 2)
    plane_path = tmp_path / "plane.txt"
    save_plane(plane, plane_path)
    avoided = set(plane.lines[0])
    bad = PointSet.from_indices(
        plane, [i for i in range(plane.num_points) if i not in avoided][:9]
    )
    set_path = tmp_path / "bad.txt"
    save_point_set(bad, set_path)
    code, out, _ = run(
        capsys, "verify", "--plane", str(plane_path), "--set", str(set_path), "--t", "1"
    )
    assert code == 1
    assert "blocking=false" in out
    assert "failure" in out


def test_verify_line_is_minimal_blocking(tmp_path, capsys):
    plane = support.desarguesian(2, 1)
    plane_path = tmp_path / "fano.txt"
    save_plane(plane, plane_path)
    set_path = tmp_path / "line.txt"
    save_point_set(PointSet.from_indices(plane, plane.lines[0]), set_path)
    code, out, _ = run(
        capsys,
        "verify",
        "--plane",
        str(plane_path),
        "--set",
        str(set_path),
        "--t",
        "1",
        "--json",
    )
    data = json.loads(out)
    assert data["spectrum"] == {"1": 6, "3": 1}
    assert data["blocking"] is True
    assert data["minimal"] is True
    assert code == 0


def test_verify_non_minimal_exits_1(tmp_path, capsys):
    # a line plus an external point blocks, but the extra point has no tangent
    plane = support.desarguesian(2, 1)
    plane_path = tmp_path / "fano.txt"
    save_plane(plane, plane_path)
    extra = next(i for i in range(7) if i not in plane.lines[0])
    set_path = tmp_path / "thick.txt"
    save_point_set(
        PointSet.from_indices(plane, sorted(set(plane.lines[0]) | {extra})), set_path
    )
    code, out, _ = run(
        capsys,
        "verify",
        "--plane",
        str(plane_path),
        "--set",
        str(set_path),
        "--t",
        "1",
        "--json",
    )
    data = json.loads(out)
    assert data["blocking"] is True
    assert data["minimal"] is False
    assert code == 1


def test_spectrum_command(tmp_path, capsys):
    plane = support.desarguesian(2, 2)
    plane_path = tmp_path / "plane.txt"
    save_plane(plane, plane_path)
    set_path = tmp_path / "unital.txt"
    run(capsys, "construct", "unital", "4", "--output", str(set_path))
    code, out, _ = run(
        capsys, "spectrum", "--plane", str(plane_path), "--set", str(set_path)
    )
    assert code == 0
    assert out.strip() == '{"1": 9, "3": 12}'


def test_search_command(tmp_path, capsys):
    plane = support.desarguesian(2, 1)
    plane_path = tmp_path / "fano.txt"
    save_plane(plane, plane_path)
    out_dir = tmp_path / "found"
    code, out, _ = run(
        capsys,
        "search",
        "--plane",
        str(plane_path),
        "--t",
        "2",
        "--output",
        str(out_dir),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary == {
        "t": 2,
        "size": 6,
        "found": 7,
        "complete": True,
        "families": {"PlaneMinusPoint": 7},
    }
    files = sorted(out_dir.iterdir())
    assert len(files) == 7
    for f in files:
        assert load_point_set(f, plane).size == 6


def test_search_refuses_a_directory_with_set_files(plane_files, tmp_path, capsys):
    out_dir = tmp_path / "found"
    code, out, _ = run(capsys, "search", "--plane", plane_files["pg24"], "--t", "4",
                       "--output", str(out_dir))
    assert code == 0 and json.loads(out)["found"] == 21
    before = {f.name: f.read_text() for f in out_dir.iterdir()}
    code, out, err = run(capsys, "search", "--plane", plane_files["pg24"], "--t", "2",
                         "--output", str(out_dir))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "set_" in err
    assert {f.name: f.read_text() for f in out_dir.iterdir()} == before


def test_search_refuses_a_file_as_output_before_searching(
    plane_files, tmp_path, capsys, monkeypatch
):
    target = tmp_path / "found"
    target.write_text("keep\n")

    def no_search(task):
        raise AssertionError("searched although --output is a file")

    monkeypatch.setattr("blocksets.cli.exhaustive_extremal_search", no_search)
    code, out, err = run(capsys, "search", "--plane", plane_files["pg24"], "--t", "2",
                         "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not a directory" in err
    assert target.read_text() == "keep\n"


@pytest.mark.parametrize("count,width", [(10000, 4), (10001, 5)])
def test_search_output_names_sort_in_the_sets_order(
    plane_files, tmp_path, capsys, monkeypatch, count, width
):
    plane = support.desarguesian(2, 2)
    sets = [PointSet(plane, idx + 1) for idx in range(count)]

    def many_sets(task):
        return SearchResult(task.t, 14, sets, count, 0.0, True, {})

    monkeypatch.setattr("blocksets.cli.exhaustive_extremal_search", many_sets)
    out_dir = tmp_path / "found"
    code, _, _ = run(capsys, "search", "--plane", plane_files["pg24"], "--t", "2",
                     "--output", str(out_dir))
    assert code == 0
    names = sorted(f.name for f in out_dir.iterdir())
    assert names == [f"set_{idx:0{width}d}.txt" for idx in range(count)]
    for idx in (0, 9999, count - 1):
        assert load_point_set(out_dir / names[idx], plane).mask == idx + 1


def test_search_unattainable_summary(tmp_path, capsys):
    plane = support.desarguesian(2, 1)
    plane_path = tmp_path / "fano.txt"
    save_plane(plane, plane_path)
    code, out, _ = run(capsys, "search", "--plane", str(plane_path), "--t", "1")
    assert code == 0
    assert json.loads(out) == {
        "t": 1,
        "size": None,
        "found": 0,
        "complete": True,
        "families": {},
    }


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_search_refuses_a_bad_budget_before_loading_the_plane(tmp_path, capsys, budget):
    missing = tmp_path / "no_such_plane.txt"
    code, out, err = run(capsys, "search", "--plane", str(missing), "--t", "2",
                         "--budget", budget)
    assert (code, out, err) == (2, "", "error: node budget must be positive\n")


@pytest.mark.parametrize("command", ["search", "verify"])
@pytest.mark.parametrize("t", ["0", "-1"])
def test_t_below_1_is_refused_before_loading_the_plane(tmp_path, capsys, command, t):
    missing = str(tmp_path / "no_such_file.txt")
    set_option = ["--set", missing] if command == "verify" else []
    code, out, err = run(capsys, command, "--plane", missing, *set_option, "--t", t)
    assert (code, out, err) == (2, "", "error: t must be at least 1\n")


# The usage errors that a subcommand finds itself, byte for byte.  ``{plane}``
# names no file; ``{out}`` is a file for "file" and a directory holding
# set_0000.txt for "dir".
USAGE_ERRORS = [
    (["classify", "6"], None,
     "6 is not a prime power; use 'candidates 6' for necessary-condition solutions"),
    (["construct", "unital", "8"], None,
     "8 is not a square; the unital family lives in planes of square order"),
    (["construct", "baer", "2"], None,
     "2 is not a square; the baer family lives in planes of square order"),
    (["certify", "7"], None, "certification is desk-scale only, q must be one of "
     "2, 3, 4, 5, 8, 17, 27, 41, 59, 71, 89, 101"),
    (["search", "--plane", "{plane}", "--t", "2", "--output", "{out}"], "file",
     "{out} exists and is not a directory"),
    (["search", "--plane", "{plane}", "--t", "2", "--output", "{out}"], "dir",
     "{out} already holds set_*.txt files"),
    (["search", "--plane", "{plane}", "--t", "2", "--budget", "0"], None,
     "node budget must be positive"),
]


@pytest.mark.parametrize("argv,target,message", USAGE_ERRORS)
def test_usage_error_stderr_is_exact(tmp_path, capsys, argv, target, message):
    out_path = tmp_path / "found"
    if target == "file":
        out_path.write_text("keep\n")
    elif target == "dir":
        out_path.mkdir()
        (out_path / "set_0000.txt").write_text("keep\n")
    paths = {"plane": str(tmp_path / "no_such_plane.txt"), "out": str(out_path)}
    argv = [a.format(**paths) for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message.format(**paths)}\n")


@pytest.mark.parametrize("option", [["--size", "5"], ["--no-prune"]])
def test_search_rejects_removed_options(plane_files, capsys, option):
    code, out, err = run(capsys, "search", "--plane", plane_files["fano"], "--t", "2", *option)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_certify_command(capsys):
    code, out, _ = run(capsys, "certify", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["matches_theory"] is True
    assert data["expected_t"] == [2]


def test_certify_text(capsys):
    code, out, _ = run(capsys, "certify", "3")
    assert code == 0
    assert "matches_theory=true" in out


def test_certify_rejects_large_order(capsys):
    code, _, err = run(capsys, "certify", "7")
    assert code == 2
    assert "desk-scale" in err


@pytest.mark.parametrize("q", ["8", "17", "27"])
def test_certify_beyond_order_4_matches_theory(capsys, q):
    """Orders whose only integer-bound t is t = q: every other t is
    reported at once, and t = q is searched as single points."""
    code, out, err = run(capsys, "certify", q)
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert rows[-1] == "matches_theory=true"
    n, N = int(q), int(q) ** 2 + int(q) + 1
    assert rows[n - 1] == (f"t={n} attainable=true found={N} complete=true "
                           f"families=PlaneMinusPoint:{N} expected=PlaneMinusPoint")
    assert all("attainable=false" in row for row in rows[:n - 1])


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "spectrum", "--plane", "/nonexistent", "--set", "/nope")
    assert code == 2
    assert "error" in err


@pytest.fixture
def plane_files(tmp_path, capsys):
    paths = {name: str(tmp_path / f"{name}.txt") for name in ("pg24", "unital", "fano")}
    run(capsys, "construct", "unital", "4", "--output", paths["unital"],
        "--plane-out", paths["pg24"])
    save_plane(support.desarguesian(2, 1), paths["fano"])
    return paths


# Pairs of calls where a parser shared by the process could carry state from
# the first into the second: an option given, then left to its default, and
# a usage error (exit 2) before a valid call.
PARSER_REUSE_PAIRS = [
    (
        ["verify", "--plane", "{pg24}", "--set", "{unital}", "--t", "1", "--json"],
        ["verify", "--plane", "{pg24}", "--set", "{unital}", "--t", "1"],
    ),
    (
        ["search", "--plane", "{fano}", "--t", "2", "--budget", "1"],
        ["search", "--plane", "{fano}", "--t", "2"],
    ),
    (["construct", "minus-point", "4", "--point", "3"], ["construct", "minus-point", "4"]),
    (
        ["verify", "--plane", "{pg24}", "--set", "{unital}", "--t", "x"],
        ["verify", "--plane", "{pg24}", "--set", "{unital}", "--t", "1"],
    ),
]


@pytest.mark.parametrize("first,second", PARSER_REUSE_PAIRS)
def test_reused_parser_keeps_no_state(plane_files, capsys, first, second):
    first = [a.format(**plane_files) for a in first]
    second = [a.format(**plane_files) for a in second]
    _build_parser.cache_clear()
    made_first = run(capsys, *second)
    _build_parser.cache_clear()
    run(capsys, *first)
    assert run(capsys, *second) == made_first
    assert _build_parser.cache_info().misses == 1


def test_verify_names_the_line_of_a_byte_that_is_not_utf8(plane_files, tmp_path, capsys):
    plane_path = tmp_path / "plane.txt"
    text = pathlib.Path(plane_files["pg24"]).read_bytes().splitlines(keepends=True)
    text[5] = text[5].replace(b" ", b"\xff ", 1)
    plane_path.write_bytes(b"".join(text))
    code, out, err = run(
        capsys, "verify", "--plane", str(plane_path), "--set", plane_files["unital"], "--t", "1"
    )
    assert (code, out, err) == (2, "", "error: line 6: non-UTF-8 byte 0xff\n")


def test_verify_rejects_extra_point_set_row(plane_files, tmp_path, capsys):
    set_path = tmp_path / "extra.txt"
    set_path.write_text("order 4\nsize 3\n0 1 2\n5\n")
    code, out, err = run(
        capsys, "verify", "--plane", plane_files["pg24"], "--set", str(set_path), "--t", "1"
    )
    assert code == 2
    assert out == ""
    assert "line 4" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--set", "{unital}", "--t", "1"],
        ["spectrum", "--set", "{unital}"],
        ["search", "--t", "1"],
    ],
)
def test_plane_with_swapped_points_exits_2(plane_files, tmp_path, capsys, argv):
    # two points trade lines 0 and 1: every count holds, two pairs repeat
    # and two lose their line
    lines = [list(l) for l in support.desarguesian(2, 2).lines]
    x = next(i for i in lines[0] if i not in lines[1])
    y = next(i for i in lines[1] if i not in lines[0])
    lines[0][lines[0].index(x)] = y
    lines[1][lines[1].index(y)] = x
    plane_path = tmp_path / "swapped.txt"
    plane_path.write_text("order 4\n" + "".join(" ".join(map(str, l)) + "\n" for l in lines))
    argv = [a.format(**plane_files) for a in argv] + ["--plane", str(plane_path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: plane axioms violated: points ")
