"""The README's examples run: the Python block prints what its comments
say, the command-line block writes the files it names, and the budgets it
quotes are the code's."""

import contextlib
import inspect
import io
import json
import re
import shlex
from pathlib import Path

from qparrondo import scan, walk
from qparrondo.cli import main
from qparrondo.io import TRAJECTORY_CSV_HEADER

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


def test_cli_examples_run_and_write_what_they_say(tmp_path):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("qparrondo ")]
    assert [argv[1] for argv in commands] == ["simulate", "scan", "regions"]
    for _, *argv in commands:
        out = tmp_path / argv[argv.index("--out") + 1]
        argv[argv.index("--out") + 1] = str(out)
        assert main(argv) == 0, argv  # --workers 4 is capped at the CPU count
        text = out.read_text(encoding="utf-8")
        if out.suffix == ".csv":
            assert text.splitlines()[0] == TRAJECTORY_CSV_HEADER
        else:
            assert isinstance(json.loads(text), dict)


def test_budgets_quote_the_code():
    text = " ".join(README.read_text(encoding="utf-8").split())
    max_cells = inspect.signature(scan.scan_region_grid).parameters["max_cells"].default
    for pattern, value in [
        (r"`qparrondo\.walk\.MAX_STEPS` = (\d+)", walk.MAX_STEPS),
        (r"at most (\d+) game-steps \(`qparrondo\.walk\.MAX_GAME_STEPS`",
         walk.MAX_GAME_STEPS),
        (r"equal chunks of at most (\d+), the budget's games at the longest walk",
         walk.MAX_GAME_STEPS // walk.MAX_STEPS),
        (r"`--max-cells` \(default (\d+)\)", max_cells),
        (r"one axis holds at most (\d+) values \(`qparrondo\.scan\.MAX_AXIS_VALUES`",
         scan.MAX_AXIS_VALUES),
        (r"Every (\d+) steps, from the first, the sides are summed over sites",
         walk._ANCHOR_EVERY),
        (r"whose \|w0\|² \+ \|w1\|² is below ([\d.e-]+),", walk._FLUSH_BELOW),
        (r"drops at most (\S+) of probability per site each time", walk._FLUSH_BELOW),
    ]:
        quoted = re.search(pattern, text)
        assert quoted and float(quoted.group(1)) == value, pattern
