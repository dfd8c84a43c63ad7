"""The README's library example runs, and prints what its comments say;
its command-line block runs too, line by line."""

import re
import shlex
from pathlib import Path

from blocksets import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, "README should hold exactly one python block"
    return blocks[0]


def test_readme_example_prints_its_comments(capsys):
    code = _python_block()
    expected = []
    for line in code.splitlines():
        if line.startswith("print("):
            assert "  # " in line, f"print without its expected output: {line}"
            expected.append(line.split("  # ", 1)[1].strip())
    assert expected
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def _command_lines() -> list[list[str]]:
    """The arguments of each ``blocksets ...`` line of README's command block."""
    blocks = re.findall(r"^```\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("blocksets ")]
    assert lines, "README should show the blocksets command line"
    return [shlex.split(line, comments=True)[1:] for line in lines]


def test_readme_command_lines_run_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _command_lines()
    assert ["bound", "4", "1"] in commands
    for argv in commands:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv == ["bound", "4", "1"]:
            assert out == "bound=9 b=2 attainable=true\n"
