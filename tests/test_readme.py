"""The README's Python example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_prints_its_comments():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    source = block.group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(source, str(README), "exec"), {})
    prints = [line for line in source.splitlines() if line.startswith("print(")]
    lines = printed.getvalue().splitlines()
    assert len(lines) == len(prints)
    checked = 0
    for statement, line in zip(prints, lines):
        if "  # " in statement:
            assert line == statement.split("  # ", 1)[1].strip(), statement
            checked += 1
    assert checked == 3
