"""Command-line front end: run simulations and scans, emit CSV or JSON.

All angles on the command line are degrees, including the initial coin
phase ``--eta-deg``. Exit codes: 0 on success, 2 for usage errors, 3 for
I/O failures, 4 when a computation exceeds its lattice or size budget.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import io as stringio
import math
import sys
from dataclasses import fields
from typing import Any

from .errors import CapacityError, InvalidParameterError
from .io import (
    write_region_json,
    write_scan_json,
    write_trajectory_csv,
    write_trajectory_json,
)
from .scan import (
    GridAxis,
    ScanConfig,
    game_trajectory,
    run_scan,
    scan_region_grid,
)
from .walk import CoinParams, GameSequence

__all__ = ["parse_cli", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CAPACITY = 4

_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

_GRID_DEFAULTS = {
    name: parameter.default
    for name, parameter in inspect.signature(scan_region_grid).parameters.items()
}


def _coin_triple(text: str) -> CoinParams:
    try:
        return CoinParams(*map(float, text.split(",")))
    except (TypeError, ValueError, InvalidParameterError):  # not three parts, or not finite numbers
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated angles in degrees, got {text!r}"
        ) from None


def _axis(text: str) -> tuple[str, float, float, int]:
    """Check PARAM=START:STOP:COUNT but leave the values unbuilt, so that
    the grid size can be checked against --max-cells first."""
    try:
        parameter, spec = text.split("=", 1)
        start_s, stop_s, count_s = spec.split(":")
        start, stop, count = float(start_s), float(stop_s), _positive_int(count_s)
        GridAxis(parameter, (start, stop))  # checks the name and both end points
    except (ValueError, argparse.ArgumentTypeError, InvalidParameterError) as exc:
        raise argparse.ArgumentTypeError(
            f"axis must look like PARAM=START:STOP:COUNT, got {text!r} ({exc})"
        ) from None
    return parameter, start, stop, count


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


class _AppendOverDefault(argparse.Action):
    """``append``, except that the first use on the command line drops the
    default, so command-line axes replace a config file's axes."""

    def __call__(self, parser, namespace, values, option_string=None):
        current = getattr(namespace, self.dest)
        kept = [] if current is self.default else current
        setattr(namespace, self.dest, [*kept, values])


def _add_common_arguments(
    parser: argparse.ArgumentParser, formats: tuple[str, ...]
) -> list[argparse.Action]:
    return [
        parser.add_argument("--coin-a", type=_coin_triple, metavar="A,B,G",
                            help="coin A angles alpha,beta,gamma in degrees"),
        parser.add_argument("--coin-b", type=_coin_triple, metavar="A,B,G",
                            help="coin B angles alpha,beta,gamma in degrees"),
        parser.add_argument("--eta-deg", type=float, metavar="V",
                            help="initial coin phase eta in degrees"),
        parser.add_argument("--steps", type=_positive_int, default=ScanConfig.horizon_steps,
                            metavar="N", help="number of elementary steps (default %(default)s)"),
        parser.add_argument("--out", metavar="PATH", help="output path (default: stdout)"),
        parser.add_argument("--format", dest="fmt", choices=formats, default=formats[0],
                            help="output format (default %(default)s)"),
        parser.add_argument("--config", metavar="PATH",
                            help="flat key=value file mirroring the flags; flags win"),
    ]


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [
        parser.add_argument("--epsilon", type=float, default=ScanConfig.epsilon, metavar="E",
                            help="draw threshold for verdicts (default %(default)s)"),
        parser.add_argument("--max-period", type=_positive_int, default=ScanConfig.max_period,
                            metavar="K", help="largest sequence period (default %(default)s)"),
        parser.add_argument("--verdict-each-step", action="store_true",
                            help="require the verdict condition at every elementary step "
                                 "instead of at whole-period boundaries"),
    ]


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, argparse.Action]]]:
    """The parser, and per subcommand its flags keyed by name without ``--``."""
    parser = argparse.ArgumentParser(
        prog="qparrondo",
        description="Coin-driven walk games: simulate sequences, scan for "
                    "paradox points, sweep coin-parameter regions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="run one game and emit its trajectory")
    simulate_flags = _add_common_arguments(simulate, ("csv", "json")) + [
        simulate.add_argument("--sequence", type=GameSequence, metavar="S",
                              help="coin schedule such as ABB (applied left to right)"),
    ]

    scan = commands.add_parser("scan", help="classify every sequence up to a period")
    scan_flags = _add_common_arguments(scan, ("json",)) + _add_sweep_arguments(scan)

    regions = commands.add_parser("regions", help="sweep coin parameters over a grid")
    regions_flags = _add_common_arguments(regions, ("json",)) + _add_sweep_arguments(regions) + [
        regions.add_argument("--axis", dest="axes", type=_axis, action=_AppendOverDefault,
                             metavar="P=S:E:N",
                             help="swept parameter, e.g. beta_a=10:30:5; repeat for 2-D"),
        regions.add_argument("--max-cells", type=_positive_int,
                             default=_GRID_DEFAULTS["max_cells"], metavar="N",
                             help="grid cell budget (default %(default)s)"),
        regions.add_argument("--workers", type=_positive_int,
                             default=_GRID_DEFAULTS["workers"], metavar="N",
                             help="processes for a grid, this one included: at most one "
                                  "per distinct cell and per CPU of the affinity set, each "
                                  "on a CPU of its own; give grids run at once their own "
                                  "CPUs with taskset (default %(default)s)"),
    ]

    flags = {"simulate": simulate_flags, "scan": scan_flags, "regions": regions_flags}
    # a subcommand's own defaults override these, so only dests it lacks read None
    parser.set_defaults(**{action.dest: None for actions in flags.values() for action in actions})
    return parser, {
        command: {action.option_strings[0][2:]: action for action in actions}
        for command, actions in flags.items()
    }


def _config_value(action: argparse.Action, raw: str) -> Any:
    """One config-file value, converted as its flag converts a command-line value."""
    if action.nargs == 0:  # a store_true flag
        if raw.lower() not in _BOOLEANS:
            raise argparse.ArgumentTypeError(
                f"expected one of {'/'.join(_BOOLEANS)}, got {raw!r}"
            )
        return _BOOLEANS[raw.lower()]
    value = action.type(raw) if action.type else raw
    if action.choices is not None and value not in action.choices:
        raise argparse.ArgumentTypeError(
            f"expected one of {', '.join(action.choices)}, got {raw!r}"
        )
    return value


def _apply_config_file(
    parser: argparse.ArgumentParser,
    flags: dict[str, dict[str, argparse.Action]],
    command: str,
    path: str,
) -> None:
    """Make a flat key=value file's values the defaults of ``command``'s flags.

    Keys are the long flags of any subcommand except ``config``; keys of
    another subcommand are ignored. A repeated key keeps its last value,
    except ``axis``, which collects them all.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        parser.error(f"cannot read --config {path}: {exc}")
    known = set().union(*flags.values()) - {"config"}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep:
            parser.error(f"--config {path}:{lineno}: expected key=value, got {line!r}")
        if key not in known:
            parser.error(f"--config {path}:{lineno}: unknown key {key!r}")
        action = flags[command].get(key)
        if action is None:
            continue
        try:
            value = _config_value(action, raw)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            parser.error(f"--config {path}:{lineno}: invalid value for {key}: {exc}")
        if isinstance(action, _AppendOverDefault):
            value = [*(action.default or []), value]
        action.default = value


def parse_cli(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse and validate an invocation; exits with a usage error otherwise.

    Returns the namespace of every option by dest (``--format`` is
    ``fmt``, ``--axis`` is ``axes``, a tuple of ``GridAxis``); options the
    subcommand has no flag for are None. A ``--config`` file's values
    become the flags' defaults and the command line is parsed again over
    them, so flags win.
    """
    parser, flags = build_parser()
    ns = parser.parse_args(argv)
    if ns.config is not None:
        _apply_config_file(parser, flags, ns.command, ns.config)
        ns = parser.parse_args(argv)

    for key in ("coin-a", "coin-b", "eta-deg", "sequence", "axis"):
        action = flags[ns.command].get(key)
        if action is not None and getattr(ns, action.dest) is None:
            parser.error(f"--{key} is required for {ns.command} (flag or config file)")
    if ns.command == "regions":
        cells = math.prod(count for *_, count in ns.axes)
        if cells > ns.max_cells:
            parser.error(f"grid of {cells} cells exceeds the --max-cells budget of {ns.max_cells}")
        try:
            ns.axes = tuple(GridAxis.linspace(*axis) for axis in ns.axes)
        except InvalidParameterError as exc:  # a count over the values' budget
            parser.error(str(exc))
    return ns


def _scan_config(config: argparse.Namespace) -> ScanConfig:
    values = vars(config) | {"horizon_steps": config.steps}
    return ScanConfig(**{f.name: values[f.name] for f in fields(ScanConfig)})


def _render(config: argparse.Namespace) -> str:
    sink = stringio.StringIO()
    if config.command == "simulate":
        trajectory = game_trajectory(
            config.coin_a, config.coin_b, config.eta_deg, config.sequence, config.steps
        )
        if config.fmt == "csv":
            write_trajectory_csv(trajectory, sink)
        else:
            write_trajectory_json(trajectory, sink)
    elif config.command == "scan":
        write_scan_json(run_scan(_scan_config(config)), sink)
    else:
        base = _scan_config(config)
        grid = scan_region_grid(
            base, config.axes, max_cells=config.max_cells, workers=config.workers
        )
        write_region_json(grid, base, sink)
    return sink.getvalue()


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_cli(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK

    try:
        text = _render(config)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if argv is None:  # the process entry: its exit need not collect what the command made
        gc.freeze()

    if config.out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(config.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {config.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
