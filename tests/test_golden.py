"""Golden CLI output: argv, exit code and stdout of certify, search, classify,
candidates, verify, spectrum and bound calls, recorded in
tests/data/cli_golden.json.

A file path in an argv is a placeholder: ``{pg22}`` and ``{pg24}`` are plane
files, and a name such as ``{pg24_unital}`` is a point-set file, both
written for the test from ``golden_point_sets``.  The data file is written
once and only read here; a change to any recorded stdout is a change to the
CLI contract.
"""

import json
import random
from pathlib import Path

import support
from blocksets import (
    PointSet,
    baer_complement,
    hermitian_unital,
    plane_minus_point,
    save_plane,
    save_point_set,
)
from blocksets.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

PLANES = {"pg22": (2, 1), "pg24": (2, 2)}


def golden_point_sets():
    """The point sets the verify and spectrum records name, as
    {placeholder: (plane placeholder, PointSet)}: the minus-point set, line 0,
    line 0 plus the first point off it, the empty set and four seeded random
    subsets of each plane, and the unital and the Baer complement of PG(2,4)."""
    out = {}
    for name, (p, k) in PLANES.items():
        plane = support.desarguesian(p, k)
        line = set(plane.lines[0])
        off = min(set(range(plane.num_points)) - line)
        shapes = {
            "minus_point": plane_minus_point(plane, 0),
            "line": line,
            "line_plus_point": line | {off},
            "empty": (),
        }
        if k % 2 == 0:
            shapes["unital"] = hermitian_unital(plane)
            shapes["baer_complement"] = baer_complement(plane)
        for seed in range(4):
            rng = random.Random(seed)
            density = (seed + 1) / 5 + 0.1
            shapes[f"random{seed}"] = [
                i for i in range(plane.num_points) if rng.random() < density
            ]
        for shape, points in shapes.items():
            if not isinstance(points, PointSet):
                points = PointSet.from_indices(plane, sorted(points))
            out[f"{name}_{shape}"] = (name, points)
    return out


def test_cli_output_matches_golden_file(tmp_path, capsys):
    paths = {}
    for name, (p, k) in PLANES.items():
        paths[name] = str(tmp_path / f"{name}.txt")
        save_plane(support.desarguesian(p, k), paths[name])
    for name, (_, ps) in golden_point_sets().items():
        paths[name] = str(tmp_path / f"{name}.set")
        save_point_set(ps, paths[name])
    records = json.loads(GOLDEN.read_text())
    assert records
    for record in records:
        code = main([arg.format(**paths) for arg in record["argv"]])
        out = capsys.readouterr().out
        assert (code, out) == (record["exit"], record["stdout"]), record["argv"]
