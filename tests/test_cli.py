import gc
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from qparrondo import CapacityError, CoinParams, GridAxis, ScanConfig, classify, scan, scan_region_grid
from qparrondo import GameSequence, game_trajectory, run_scan
from qparrondo.io import write_region_json, write_scan_json, write_trajectory_csv
from qparrondo.metrics import DEFAULT_EPSILON
from qparrondo.cli import EXIT_CAPACITY, EXIT_IO, EXIT_USAGE, main, parse_cli

from benchmarks import REFERENCE_TOL, GAME_A_BIASES


SIMULATE_ARGS = [
    "simulate",
    "--coin-a", "150,30,172",
    "--coin-b", "175,65,165",
    "--eta-deg", "270",
    "--sequence", "ABB",
    "--steps", "240",
    "--format", "csv",
]


class TestParseCli:
    def test_valid_simulate_invocation(self):
        config = parse_cli(SIMULATE_ARGS)
        assert config.command == "simulate"
        assert config.coin_a == CoinParams(150, 30, 172)
        assert config.coin_b == CoinParams(175, 65, 165)
        assert config.eta_deg == 270.0
        assert config.sequence.tokens == "ABB"
        assert config.steps == 240
        assert config.fmt == "csv"
        assert config.out is None

    @pytest.mark.parametrize(
        "broken",
        [
            ["simulate", "--coin-a", "150,30", "--coin-b", "1,2,3",
             "--eta-deg", "0", "--sequence", "AB"],
            ["simulate", "--coin-a", "150,30,x", "--coin-b", "1,2,3",
             "--eta-deg", "0", "--sequence", "AB"],
            ["simulate", "--coin-a", "1,2,3", "--coin-b", "1,2,3",
             "--eta-deg", "0", "--sequence", "ABX"],
            ["simulate", "--coin-a", "1,2,3", "--coin-b", "1,2,3",
             "--eta-deg", "0", "--sequence", "AB", "--unknown-flag"],
            ["simulate", "--coin-a", "1,2,3", "--coin-b", "1,2,3",
             "--sequence", "AB"],  # eta missing
            ["scan", "--coin-a", "1,2,3", "--coin-b", "1,2,3",
             "--eta-deg", "0", "--format", "csv"],
            ["regions", "--coin-a", "1,2,3", "--coin-b", "1,2,3",
             "--eta-deg", "0"],  # axis missing
            ["regions", "--coin-a", "1,2,3", "--coin-b", "1,2,3",
             "--eta-deg", "0", "--axis", "beta_a=1:2"],
        ],
    )
    def test_usage_errors_exit_with_two(self, broken, capsys):
        with pytest.raises(SystemExit) as info:
            parse_cli(broken)
        assert info.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_defaults(self):
        config = parse_cli(
            ["scan", "--coin-a", "1,2,3", "--coin-b", "4,5,6", "--eta-deg", "90"]
        )
        assert config.steps == 240
        assert config.max_period == 6
        assert config.epsilon == 1e-9
        assert config.fmt == "json"
        assert config.verdict_each_step is False

    def test_defaults_are_the_api_defaults(self):
        config = parse_cli(["regions"] + COINS + ["--axis", "beta_a=1:2:2"])
        grid_defaults = inspect.signature(scan_region_grid).parameters
        assert config.max_cells == grid_defaults["max_cells"].default
        assert config.workers == grid_defaults["workers"].default
        assert config.epsilon == DEFAULT_EPSILON == ScanConfig.epsilon
        assert inspect.signature(classify).parameters["epsilon"].default == DEFAULT_EPSILON

    def test_config_file_fills_missing_flags(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            "# benchmark setup\n"
            "coin-a=156,16,0\n"
            "coin-b=0,75,160\n"
            "eta-deg=90\n"
            "sequence=ABB\n"
            "steps=12\n",
            encoding="utf-8",
        )
        config = parse_cli(["simulate", "--config", str(config_path)])
        assert config.coin_a == CoinParams(156, 16, 0)
        assert config.sequence.tokens == "ABB"
        assert config.steps == 12

    def test_flags_win_over_config_file(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("eta-deg=90\nsteps=12\n", encoding="utf-8")
        config = parse_cli(
            ["simulate", "--coin-a", "1,2,3", "--coin-b", "4,5,6",
             "--sequence", "AB", "--eta-deg", "270", "--config", str(config_path)]
        )
        assert config.eta_deg == 270.0
        assert config.steps == 12

    def test_config_file_bad_key(self, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("coins=1,2,3\n", encoding="utf-8")
        with pytest.raises(SystemExit) as info:
            parse_cli(["simulate", "--config", str(config_path)])
        assert info.value.code == EXIT_USAGE
        capsys.readouterr()


COINS = ["--coin-a", "1,2,3", "--coin-b", "4,5,6", "--eta-deg", "90"]

COMMON_OPTIONS = ["--coin-a", "--coin-b", "--eta-deg", "--steps", "--out", "--format", "--config"]


@pytest.mark.parametrize(
    "command, options",
    [
        ("simulate", COMMON_OPTIONS + ["--sequence"]),
        ("scan", COMMON_OPTIONS + ["--epsilon", "--max-period", "--verdict-each-step"]),
        ("regions", COMMON_OPTIONS + ["--epsilon", "--max-period", "--verdict-each-step",
                                      "--axis", "--max-cells", "--workers"]),
    ],
)
def test_help_lists_each_option_once(command, options, capsys):
    assert main([command, "--help"]) == 0
    listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    assert listed == ["--help"] + options


def _write_config(tmp_path, lines):
    path = tmp_path / "run.cfg"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


class TestConfigFile:
    @pytest.mark.parametrize(
        "lines, argv, expected",
        [
            # the file fills what the command line leaves out; flags win
            (["coin-a=9,9,9", "steps=12", "max-period=3"], ["scan"] + COINS + ["--steps", "30"],
             {"coin_a": CoinParams(1, 2, 3), "steps": 30, "max_period": 3}),
            # a key of another subcommand is ignored
            (["sequence=AB", "max-cells=4"], ["scan"] + COINS,
             {"sequence": None, "max_cells": None}),
            (["max-period=3", "verdict-each-step=yes"], ["simulate"] + COINS + ["--sequence", "A"],
             {"max_period": None, "verdict_each_step": None}),
            # strict booleans in any case
            (["verdict-each-step=yes"], ["scan"] + COINS, {"verdict_each_step": True}),
            (["verdict-each-step=0"], ["scan"] + COINS, {"verdict_each_step": False}),
            (["verdict-each-step=TRUE"], ["scan"] + COINS, {"verdict_each_step": True}),
            (["verdict-each-step=No"], ["scan"] + COINS + ["--verdict-each-step"],
             {"verdict_each_step": True}),
            # the file's axes, unless the command line gives its own
            (["axis=beta_a=1:2:2", "axis=beta_b=3:4:2"], ["regions"] + COINS,
             {"axes": (GridAxis("beta_a", (1, 2)), GridAxis("beta_b", (3, 4)))}),
            (["axis=beta_a=1:2:2", "axis=beta_b=3:4:2"],
             ["regions"] + COINS + ["--axis", "eta=0:90:3"],
             {"axes": (GridAxis("eta", (0, 45, 90)),)}),
            (["max-cells=3", "workers=2", "format=json", "out=x.json"],
             ["regions"] + COINS + ["--axis", "eta=0:90:3"],
             {"max_cells": 3, "workers": 2, "fmt": "json", "out": "x.json"}),
            # simulate has no verdict, so no draw threshold
            (["epsilon=1"], ["simulate"] + COINS + ["--sequence", "A"], {"epsilon": None}),
        ],
    )
    def test_resolution(self, tmp_path, lines, argv, expected):
        config = parse_cli(argv + ["--config", _write_config(tmp_path, lines)])
        assert {name: getattr(config, name) for name in expected} == expected

    @pytest.mark.parametrize(
        "command, lines, named",
        [
            ("simulate", ["coins=1,2,3"], "unknown key 'coins'"),
            ("simulate", ["config=other.cfg"], "unknown key 'config'"),
            ("simulate", ["steps=0"], "for steps:"),
            ("scan", ["verdict-each-step=maybe"], "for verdict-each-step:"),
            ("scan", ["format=csv"], "for format:"),
            ("regions", ["axis=beta_a=1:2"], "for axis:"),
            ("simulate", ["coin-a 1,2,3"], "'coin-a 1,2,3'"),
        ],
    )
    def test_rejected_entries_exit_with_two(self, tmp_path, capsys, command, lines, named):
        argv = [command] + COINS + ["--config", _write_config(tmp_path, lines)]
        with pytest.raises(SystemExit) as info:
            parse_cli(argv)
        assert info.value.code == EXIT_USAGE
        assert named in capsys.readouterr().err

    def test_missing_file_exits_with_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            parse_cli(["scan"] + COINS + ["--config", str(tmp_path / "absent.cfg")])
        assert info.value.code == EXIT_USAGE
        capsys.readouterr()


class TestBudgets:
    def test_oversized_axis_is_rejected_before_its_values_exist(self, capsys):
        argv = ["regions"] + COINS + ["--axis", f"beta_a=0:1:{10**6}"]
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as info:
                parse_cli(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.code == EXIT_USAGE
        assert peak < 1 << 20
        assert "max-cells" in capsys.readouterr().err

    def test_axis_over_the_values_budget_exits_with_two(self, capsys):
        count = scan.MAX_AXIS_VALUES + 1
        argv = ["regions"] + COINS + ["--axis", f"beta_a=0:1:{count}", "--max-cells", str(count)]
        with pytest.raises(SystemExit) as info:
            parse_cli(argv)
        assert info.value.code == EXIT_USAGE
        assert "budget" in capsys.readouterr().err

    def test_grid_budget_counts_cells_over_all_axes(self, capsys):
        argv = ["regions"] + COINS + ["--axis", "beta_a=0:1:5", "--axis", "beta_b=0:1:5"]
        assert len(parse_cli(argv + ["--max-cells", "25"]).axes) == 2
        with pytest.raises(SystemExit) as info:
            parse_cli(argv + ["--max-cells", "24"])
        assert info.value.code == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["scan", "regions"])
    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--epsilon", "inf", "epsilon"),
            ("--epsilon", "1e400", "epsilon"),
            ("--epsilon", "nan", "epsilon"),
            ("--eta-deg", "nan", "eta_deg"),
            ("--eta-deg", "inf", "eta_deg"),
        ],
    )
    def test_non_finite_inputs_exit_with_two(self, tmp_path, capsys, command, flag, value, named):
        out = tmp_path / "out.json"
        argv = [command] + COINS + ["--steps", "12", "--max-period", "2", flag, value,
                                    "--out", str(out)]
        if command == "regions":
            argv += ["--axis", "beta_a=1:2:2"]
        assert main(argv) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_long_simulation_exits_with_capacity(self, capsys):
        code = main(["simulate"] + COINS + ["--sequence", "AB", "--steps", str(10**6)])
        assert code == EXIT_CAPACITY
        assert "budget" in capsys.readouterr().err

    def test_long_regions_exits_with_capacity_before_any_pool(self, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("a share process was started")

        monkeypatch.setattr(scan, "_start", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        argv = ["regions"] + COINS + ["--axis", "beta_a=6:26:2", "--max-period", "2",
                                      "--steps", "4096", "--workers", "2"]
        assert main(argv) == EXIT_CAPACITY
        assert "budget" in capsys.readouterr().err

    def test_long_period_regions_exits_with_two_before_any_pool(self, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("a share process was started")

        monkeypatch.setattr(scan, "_start", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        argv = ["regions"] + COINS + ["--axis", "beta_a=6:26:2", "--max-period", "13",
                                      "--steps", "24", "--workers", "2"]
        assert main(argv) == EXIT_USAGE
        assert "max_period" in capsys.readouterr().err


PACKAGE_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])))
"""The environment of a fresh interpreter that imports this package's source."""


def test_cli_import_leaves_the_pool_modules_unloaded():
    code = ("import sys, qparrondo.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    done = subprocess.run([sys.executable, "-c", code], env=PACKAGE_ENV, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"


README_FLAGS = ["--coin-a", "156,16,0", "--coin-b", "0,75,160", "--eta-deg", "90"]
README_CONFIG = ScanConfig(CoinParams(156, 16, 0), CoinParams(0, 75, 160), 90.0,
                           max_period=3, horizon_steps=12)
README_AXIS = "beta_a=6:26:3"


def written(command):
    """What the in-process writer gives for ``command`` on ``README_CONFIG``."""
    sink, config = io.StringIO(), README_CONFIG
    if command == "simulate":
        write_trajectory_csv(game_trajectory(config.coin_a, config.coin_b, config.eta_deg,
                                             GameSequence("ABB"), config.horizon_steps), sink)
    elif command == "scan":
        write_scan_json(run_scan(config), sink)
    else:
        axes = [GridAxis.linspace("beta_a", 6, 26, 3)]
        write_region_json(scan_region_grid(config, axes), config, sink)
    return sink.getvalue().encode()


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--sequence", "ABB", "--format", "csv"]),
    ("scan", ["--max-period", "3"]),
    ("regions", ["--max-period", "3", "--axis", README_AXIS, "--workers", "2"]),
])
def test_the_process_entry_writes_what_the_api_writes(command, flags):
    # main() as the process entry, as the benchmark runs it, in dev mode with warnings as errors
    argv = [command, *README_FLAGS, "--steps", str(README_CONFIG.horizon_steps), *flags]
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "qparrondo.cli", *argv],
                          env=PACKAGE_ENV, capture_output=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == written(command)


def test_only_the_process_entry_freezes_the_collector(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    frozen = gc.get_freeze_count()
    assert main(SIMULATE_ARGS + ["--steps", "6", "--out", out]) == 0
    assert main(["simulate", "--coin-a", "1,2"]) == EXIT_USAGE
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()
    code = ("import gc, sys; from qparrondo.cli import main; "
            f"sys.argv[1:] = {SIMULATE_ARGS + ['--steps', '6', '--out', out]!r}; "
            "print(main(), gc.get_freeze_count() > 0)")
    done = subprocess.run([sys.executable, "-c", code], env=PACKAGE_ENV, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.split() == ["0", "True"]


class TestMain:
    def test_simulate_writes_csv(self, tmp_path):
        out = tmp_path / "trajectory.csv"
        code = main(
            ["simulate", "--coin-a", "156,16,0", "--coin-b", "0,75,160",
             "--eta-deg", "90", "--sequence", "A", "--steps", "3",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "step,p_left,p_origin,p_right,bias,entropy"
        assert len(lines) == 4
        for row in lines[1:]:
            fields = row.split(",")
            assert float(fields[4]) == pytest.approx(
                GAME_A_BIASES[int(fields[0])], abs=REFERENCE_TOL
            )

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert main(SIMULATE_ARGS + ["--steps", "24", "--out", str(out)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_simulate_json_format(self, tmp_path):
        out = tmp_path / "trajectory.json"
        code = main(
            ["simulate", "--coin-a", "156,16,0", "--coin-b", "0,75,160",
             "--eta-deg", "90", "--sequence", "ABB", "--steps", "6",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert len(document["samples"]) == 6

    def test_scan_reports_paradox(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["scan", "--coin-a", "156,16,0", "--coin-b", "0,75,160",
             "--eta-deg", "90", "--max-period", "3", "--steps", "240",
             "--out", str(out)]
        )
        assert code == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["verdict_a"] == "Losing"
        assert document["verdict_b"] == "Losing"
        assert "ABB" in document["paradox_sequences"]

    def test_regions_grid(self, tmp_path):
        out = tmp_path / "grid.json"
        code = main(
            ["regions", "--coin-a", "156,16,0", "--coin-b", "0,75,160",
             "--eta-deg", "90", "--max-period", "2", "--steps", "24",
             "--axis", "beta_a=6:26:3", "--out", str(out)]
        )
        assert code == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert len(document["paradox"]) == 3
        assert len(document["winning_counts"]) == 3

    def test_stdout_when_no_out_path(self, capsys):
        code = main(
            ["simulate", "--coin-a", "1,2,3", "--coin-b", "4,5,6",
             "--eta-deg", "0", "--sequence", "AB", "--steps", "2"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("step,p_left")

    def test_usage_error_exit_code(self, capsys):
        assert main(["simulate", "--coin-a", "1,2"]) == EXIT_USAGE
        capsys.readouterr()

    def test_invalid_epsilon_exit_code(self, capsys):
        code = main(
            ["scan", "--coin-a", "1,2,3", "--coin-b", "4,5,6",
             "--eta-deg", "0", "--max-period", "2", "--steps", "12",
             "--epsilon", "-1"]
        )
        assert code == EXIT_USAGE
        assert "epsilon" in capsys.readouterr().err

    def test_simulate_takes_no_epsilon(self, capsys):
        code = main(["simulate"] + COINS + ["--sequence", "AB", "--steps", "2", "--epsilon", "1"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--epsilon" in err

    def test_io_error_exit_code(self, tmp_path, capsys):
        missing_dir = tmp_path / "not" / "here" / "x.csv"
        code = main(
            ["simulate", "--coin-a", "1,2,3", "--coin-b", "4,5,6",
             "--eta-deg", "0", "--sequence", "AB", "--steps", "2",
             "--out", str(missing_dir)]
        )
        assert code == EXIT_IO
        assert str(missing_dir) in capsys.readouterr().err

    def test_capacity_error_exit_code(self, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise CapacityError("grid too small")

        monkeypatch.setattr("qparrondo.cli.game_trajectory", explode)
        code = main(
            ["simulate", "--coin-a", "1,2,3", "--coin-b", "4,5,6",
             "--eta-deg", "0", "--sequence", "AB", "--steps", "2"]
        )
        assert code == EXIT_CAPACITY
        capsys.readouterr()
