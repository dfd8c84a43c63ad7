"""The README's library example runs, and prints what its comments say."""

import re
from pathlib import Path

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
