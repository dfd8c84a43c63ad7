"""Golden CLI output: argv, exit code and stdout of certify, search, classify
and candidates calls, recorded in tests/data/cli_golden.json.

A plane path in an argv is a placeholder such as ``{pg24}``, filled in with a
plane file written for the test.  The data file is written once and only
read here; a change to any recorded stdout is a change to the CLI contract.
"""

import json
from pathlib import Path

import support
from blocksets import save_plane
from blocksets.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def test_cli_output_matches_golden_file(tmp_path, capsys):
    paths = {"pg24": str(tmp_path / "pg24.txt")}
    save_plane(support.desarguesian(2, 2), paths["pg24"])
    records = json.loads(GOLDEN.read_text())
    assert records
    for record in records:
        code = main([arg.format(**paths) for arg in record["argv"]])
        out = capsys.readouterr().out
        assert (code, out) == (record["exit"], record["stdout"]), record["argv"]
