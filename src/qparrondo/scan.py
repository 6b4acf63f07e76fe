"""Sequence enumeration, paradox scanning, and coin-parameter region sweeps.

A paradox point is a configuration where both pure games lose while at
least one periodic alternation of the same two coins wins. ``run_scan``
checks every sequence up to a maximum period at one configuration, and
evolves each distinct coin sequence once: ``ABAB`` plays what ``AB`` plays.
``scan_region_grid`` repeats the check over a grid of coin parameters, and
evolves each game that several cells share once. A scan evolves its games
in chunks of ``evolve_games`` calls, which observe every column of every
step. A grid deals its games by stride to its processes (forked, on
Linux only), and each share makes and walks its games one batch of the
kernel's game-step budget (``walk.MAX_GAME_STEPS``) at a time, one
``evolve_verdicts`` call each, which observes only each game's bias at its
payoff points, until its verdict is decided.
"""

from __future__ import annotations

import os
import pickle
import sys
from dataclasses import astuple, dataclass, field, fields, replace
from functools import partial
from itertools import product
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidParameterError
from .metrics import (
    DEFAULT_EPSILON,
    BiasTrajectory,
    GameVerdict,
    bias,
    entropy_bits,
    payoff_verdicts,
)
from . import walk
from .walk import CoinParams, GameSequence, _checked, check_epsilon
from .walk import MAX_STEPS, check_count, check_real, check_steps, evolve_games, evolve_verdicts

# Reference path, kept importable here: perfbench/spans.py wraps it by these attributes.
from .metrics import classify, trajectory_with_entropy  # noqa: F401
from .walk import evolve_sequence  # noqa: F401

__all__ = [
    "AXIS_PARAMETERS",
    "ScanConfig",
    "SequenceResult",
    "ScanReport",
    "GridAxis",
    "RegionGrid",
    "enumerate_sequences",
    "game_trajectory",
    "run_scan",
    "scan_region_grid",
    "entropy_comparison",
]

MAX_ENUMERATION_PERIOD = 12

MAX_AXIS_VALUES = 1 << 16
"""Most values ``GridAxis.linspace`` makes for one axis. Each cell of a grid
costs a whole scan, so a useful grid stays far below it."""

AXIS_PARAMETERS = tuple(
    f"{angle.name.removesuffix('_deg')}_{coin}" for coin in "ab" for angle in fields(CoinParams)
) + ("eta",)
"""Scalar inputs a region sweep may vary: each coin angle (``beta_a`` sets
``coin_a.beta_deg``), then the initial phase."""


def _check_max_period(max_period: int) -> int:
    max_period = check_count("max_period", max_period)
    if not 2 <= max_period <= MAX_ENUMERATION_PERIOD:
        raise InvalidParameterError(
            f"max_period must be in [2, {MAX_ENUMERATION_PERIOD}] (period 1 is a pure game), "
            f"got {max_period}"
        )
    return max_period


@dataclass(frozen=True)
class ScanConfig:
    """One scan configuration: two coins, initial phase, and horizon.

    Verdicts are taken at whole-period boundaries of each sequence; set
    ``verdict_each_step`` to require the winning/losing condition at every
    elementary step instead (a much stricter quantifier, useful for
    sensitivity analysis). Construction stores ``eta_deg`` and ``epsilon``
    as floats and ``max_period`` and ``horizon_steps`` as ints, and raises
    ``InvalidParameterError`` for an invalid field and ``CapacityError`` for
    a horizon over ``walk.MAX_STEPS``, so a scan or grid fails before it
    evolves anything.
    """

    coin_a: CoinParams
    coin_b: CoinParams
    eta_deg: float
    max_period: int = 6
    horizon_steps: int = 240
    epsilon: float = DEFAULT_EPSILON
    verdict_each_step: bool = False

    def __post_init__(self) -> None:
        _checked(self.coin_a, CoinParams, "coin_a")
        _checked(self.coin_b, CoinParams, "coin_b")
        _checked(self.verdict_each_step, bool, "verdict_each_step")
        object.__setattr__(self, "eta_deg", check_real("eta_deg", self.eta_deg))
        object.__setattr__(self, "max_period", _check_max_period(self.max_period))
        object.__setattr__(self, "horizon_steps", check_count(
            "horizon_steps", self.horizon_steps, least=self.max_period))
        object.__setattr__(self, "epsilon", check_epsilon(self.epsilon))
        check_steps(self.horizon_steps)  # last, so a usage error wins over the budget


@dataclass(frozen=True)
class SequenceResult:
    """Verdict and summary observables for one sequence.

    ``final_bias`` is the bias at the last elementary step, ``min_bias``
    the minimum over all elementary steps, and ``max_entropy`` the maximum
    coin-position entropy over the horizon, each a finite real, stored as a float.
    """

    sequence: GameSequence
    verdict: GameVerdict
    final_bias: float
    min_bias: float
    max_entropy: float

    def __post_init__(self) -> None:
        _checked(self.sequence, GameSequence)
        _checked(self.verdict, GameVerdict)
        for name in ("final_bias", "min_bias", "max_entropy"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))


@dataclass(frozen=True)
class ScanReport:
    """Result of scanning every sequence at one configuration: its config,
    pure verdicts and results, each of its declared kind, with one result
    per schedule of ``enumerate_sequences(config.max_period)``, in order,
    and what they derive. ``paradox_sequences`` lists the Winning results'
    token strings, in order, if both pure games lose (see ``_paradox``), and
    is otherwise empty; ``winning_by_period`` counts the Winning results of
    each period in ``[2, config.max_period]``, reported as data (longer
    periods often, but not always, win more). So no report disagrees with
    its results, and every report round-trips through ``io``'s JSON.
    """

    config: ScanConfig
    verdict_a: GameVerdict
    verdict_b: GameVerdict
    results: tuple[SequenceResult, ...]
    paradox_sequences: tuple[str, ...] = field(init=False)
    winning_by_period: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        _checked(self.config, ScanConfig)
        _checked(self.verdict_a, GameVerdict)
        _checked(self.verdict_b, GameVerdict)
        for result in _checked(self.results, tuple):
            _checked(result, SequenceResult)
        if tuple(r.sequence.tokens for r in self.results) != _schedules(self.config.max_period):
            raise InvalidParameterError("results must be the enumerated schedules, in order")
        winners = [r.sequence for r in self.results if r.verdict is GameVerdict.WINNING]
        paradox = _paradox(self.verdict_a is GameVerdict.LOSING,
                           self.verdict_b is GameVerdict.LOSING, len(winners))
        object.__setattr__(self, "paradox_sequences",
                           tuple(seq.tokens for seq in winners) if paradox else ())
        object.__setattr__(self, "winning_by_period", {
            p: sum(seq.period == p for seq in winners) for p in range(2, self.config.max_period + 1)})


def enumerate_sequences(max_period: int) -> list[GameSequence]:
    """All mixed coin schedules of period 2 up to ``max_period``.

    Every string over {A, B} that contains both letters appears exactly
    once, ordered by length and then lexicographically. Cyclic rotations
    are distinct schedules and are all kept.

    Raises
    ------
    InvalidParameterError
        If ``max_period`` is not an integer in [2, 12]; the listing
        doubles per extra period.
    """
    return [GameSequence(tokens) for tokens in _schedules(_check_max_period(max_period))]


def _schedules(max_period: int) -> tuple[str, ...]:
    """The token strings of ``enumerate_sequences(max_period)``, in its order."""
    return tuple(tokens for length in range(2, max_period + 1)
                 for tokens in map("".join, product("AB", repeat=length))
                 if "A" in tokens and "B" in tokens)


def game_trajectory(
    coin_a: CoinParams,
    coin_b: CoinParams,
    eta_deg: float,
    seq: GameSequence,
    steps: int,
) -> BiasTrajectory:
    """Evolve one game and return its full trajectory with entropy."""
    columns = evolve_games([(coin_a, coin_b, eta_deg, seq)], steps)
    metadata = {
        "coin_a": astuple(coin_a),
        "coin_b": astuple(coin_b),
        "eta_deg": check_real("eta_deg", eta_deg),
        "sequence": seq.tokens,
    }
    entropy = entropy_bits(columns.rho00, columns.rho11, columns.rho01)[0]
    return BiasTrajectory(
        columns.p_left[0], columns.p_origin[0], columns.p_right[0], entropy, metadata
    )


Cell = tuple[CoinParams, CoinParams, float]
"""What varies between the cells of a grid: the ``(coin_a, coin_b, eta_deg)``
that all of a cell's games share."""

Game = tuple[CoinParams, CoinParams, float, GameSequence]
"""One game as the kernel takes it: a cell and the schedule played there."""

_PURE = (GameSequence("A"), GameSequence("B"))


def _share(
    config: ScanConfig,
    pures: Sequence[Game],
    cells: Sequence[Cell],
    share: tuple[int, int] = (0, 1),
) -> Iterator[tuple[list[int], list[Game]]]:
    """The owners and games of share ``share`` = ``(i, n)`` of a grid, in
    the fewest equal batches of at most ``walk.MAX_GAME_STEPS // steps``
    games, each made as it is taken.

    The games form one stream: the pure games ``pures`` (the pure A games,
    then the pure B games), then every cell's game of each enumerated
    schedule in turn. A pure game's owner is its index in ``pures``, a
    sequence's its cell's index plus ``len(pures)``. Share ``i`` gets every
    ``n``-th game from game ``i``, so every game is dealt once and each share
    keeps the stream's period order; and since each schedule's games are a
    run of the stream, every share holds the same number of them, within one.
    """
    index, shares = share
    schedules = enumerate_sequences(config.max_period)
    dealt = range(index, len(pures) + len(schedules) * len(cells), shares)
    for part in walk._batches(len(dealt), config.horizon_steps):
        owners, games = [], []
        for j in dealt[part]:
            k, c = divmod(j - len(pures), len(cells))  # k < 0 for a pure game
            owners.append(j if k < 0 else len(pures) + c)
            games.append(pures[j] if k < 0 else (*cells[c], schedules[k]))
        yield owners, games


def _periods(config: ScanConfig, schedules: Sequence[GameSequence]) -> list[int]:
    """The spacing of each schedule's payoff points under ``config``'s verdict rule."""
    return [1 if config.verdict_each_step else seq.period for seq in schedules]


def _paradox(a_loses: bool, b_loses: bool, winners: int) -> bool:
    """The paradox rule: both pure games lose and at least one sequence wins."""
    return a_loses and b_loses and winners > 0


def _root(seq: GameSequence) -> GameSequence:
    """The shortest schedule that ``seq`` repeats: ``AB`` for ``ABAB``, ``seq`` itself
    if it repeats none. Both play the same coin at every step."""
    tokens = seq.tokens
    return GameSequence(tokens[:(tokens + tokens).find(tokens, 1)])


def run_scan(config: ScanConfig) -> ScanReport:
    """Simulate pure A, pure B, and every enumerated sequence.

    A schedule that repeats a shorter one (``ABAB`` is ``AB`` twice) plays
    its coins in the same order, so only the distinct roots (see ``_root``)
    are evolved, in equal chunks of at most ``walk.MAX_GAME_STEPS //
    walk.MAX_STEPS`` games per kernel call at any horizon. Each schedule is
    judged on its root's biases at its own payoff points; the kernel gives a
    game the same bits in any batch, so each result is the one evolving that
    schedule would give. Results keep the enumeration order. The run is
    fully deterministic: identical configurations produce identical reports.

    Raises
    ------
    InvalidParameterError
        If ``config`` is not a ``ScanConfig``.
    """
    _checked(config, ScanConfig)
    schedules = [*_PURE, *enumerate_sequences(config.max_period)]
    served: dict[GameSequence, list[int]] = {}  # each root's schedules, by position
    for i, seq in enumerate(schedules):
        served.setdefault(_root(seq), []).append(i)
    roots = list(served)
    cell = (config.coin_a, config.coin_b, config.eta_deg)
    found: dict[int, SequenceResult] = {}
    for chunk in walk._batches(len(roots), MAX_STEPS):
        part = roots[chunk]
        columns = evolve_games([(*cell, root) for root in part], config.horizon_steps)
        biases = bias(columns.p_left, columns.p_right)
        finals, lows = biases[:, -1].tolist(), biases.min(axis=1).tolist()
        peaks = entropy_bits(columns.rho00, columns.rho11, columns.rho01).max(axis=1).tolist()
        served_here = [i for root in part for i in served[root]]
        rows = [r for r, root in enumerate(part) for _ in served[root]]
        periods = _periods(config, [schedules[i] for i in served_here])
        verdicts = payoff_verdicts(biases[rows], periods, config.epsilon)
        for i, r, verdict in zip(served_here, rows, verdicts):
            found[i] = SequenceResult(schedules[i], verdict, finals[r], lows[r], peaks[r])
    pure_a, pure_b, *results = [found[i] for i in range(len(schedules))]
    return ScanReport(config, pure_a.verdict, pure_b.verdict, tuple(results))


@dataclass(frozen=True)
class GridAxis:
    """One swept parameter and the values it takes: a list (see
    ``walk._items``: not a string, a set, a mapping, an iterator or one
    number) of at least one finite real, stored as a tuple of floats."""

    parameter: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.parameter not in AXIS_PARAMETERS:
            raise InvalidParameterError(
                f"unknown axis parameter {self.parameter!r}; "
                f"choose one of {', '.join(AXIS_PARAMETERS)}"
            )
        name = f"axis {self.parameter} value"
        if not (values := tuple(check_real(name, v) for v in walk._items(f"{name}s", self.values))):
            raise InvalidParameterError(f"{name}s: expected at least one")
        object.__setattr__(self, "values", values)

    @classmethod
    def linspace(cls, parameter: str, start: float, stop: float, count: int) -> "GridAxis":
        """``count`` evenly spaced values from ``start`` to ``stop``; raise
        ``InvalidParameterError`` unless ``count`` is an integer in
        ``[1, MAX_AXIS_VALUES]``, checked before any value is made."""
        check_count(f"axis {parameter} count", count)
        if count > MAX_AXIS_VALUES:
            raise InvalidParameterError(
                f"axis {parameter} count {count} exceeds the budget of {MAX_AXIS_VALUES} values"
            )
        start = check_real(f"axis {parameter} start", start)
        stop = check_real(f"axis {parameter} stop", stop)
        return cls(parameter, tuple(np.linspace(start, stop, count)))


@dataclass(frozen=True)
class RegionGrid:
    """Paradox indicator and winning-sequence count per grid cell.

    Arrays are indexed by the axes in order (row-major over cells).
    Construction raises ``InvalidParameterError`` unless ``paradox`` holds
    bools and ``winning_counts`` integers >= 0, each in the axes' shape.
    """

    axes: tuple[GridAxis, ...]
    paradox: NDArray[np.bool_]
    winning_counts: NDArray[np.int_]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", _check_axes(self.axes))
        shape = tuple(len(axis.values) for axis in self.axes)
        try:
            paradox, counts = np.asarray(self.paradox), np.asarray(self.winning_counts)
        except ValueError:  # numpy's own, for ragged arrays
            raise InvalidParameterError(f"grid arrays must have shape {shape}") from None
        if paradox.dtype != bool or counts.dtype.kind not in "iu" or (counts < 0).any():
            raise InvalidParameterError("grid flags must be bools and counts integers >= 0")
        if paradox.shape != shape or counts.shape != shape:
            raise InvalidParameterError(
                f"grid arrays must have shape {shape}, got {paradox.shape} and {counts.shape}"
            )
        object.__setattr__(self, "paradox", paradox)
        object.__setattr__(self, "winning_counts", counts.astype(int))


def _check_axes(axes: Sequence[GridAxis]) -> tuple[GridAxis, ...]:
    """``axes`` as a tuple; raise ``InvalidParameterError`` unless they are a
    list (see ``walk._items``: a bare ``GridAxis``, a set or an iterator is
    not one) of one or two ``GridAxis`` that sweep distinct parameters."""
    axes = tuple(walk._items("axes", axes))
    if not 1 <= len(axes) <= 2:
        raise InvalidParameterError(f"expected 1 or 2 axes, got {len(axes)}")
    for axis in axes:
        _checked(axis, GridAxis, "axis")
    if len({axis.parameter for axis in axes}) != len(axes):
        raise InvalidParameterError("axes must sweep distinct parameters")
    return axes


def _cell(config: ScanConfig, assignments: dict[str, float]) -> Cell:
    """The coins and phase of ``config`` with each swept parameter set to its value."""
    coins = {"a": config.coin_a, "b": config.coin_b}
    eta_deg = config.eta_deg
    for name, value in assignments.items():
        if name == "eta":
            eta_deg = value
        else:
            angle, coin = name.split("_")  # beta_a sets coin_a.beta_deg
            coins[coin] = replace(coins[coin], **{f"{angle}_deg": value})
    return coins["a"], coins["b"], eta_deg


def _tally(
    config: ScanConfig,
    pures: Sequence[Game],
    cells: Sequence[Cell],
    share: tuple[int, int] = (0, 1),
) -> list[int]:
    """For each game of ``pures``, 1 if it is Losing, then for each cell of
    ``cells`` its count of Winning sequences, at ``config`` with the cell's
    coins and phase, over the games of ``_share``'s share ``share``.

    The share is made and walked one batch of the kernel's budget at a
    time, one ``evolve_verdicts`` call each, so a process lists one batch
    of games at once. Each game evolves only
    until its verdict is decided: a sequence while it may still be Winning,
    a pure game while it may still be Losing. The games run period by
    period, so the games of a batch mostly share their payoff points and
    the steps at which any bias is needed are fewer.
    """
    counts = np.zeros(len(pures) + len(cells), dtype=int)
    for owners, games in _share(config, pures, cells, share):
        schedules = [seq for *_, seq in games]
        held = evolve_verdicts(
            games,
            config.horizon_steps,
            _periods(config, schedules),
            [-1 if seq.period == 1 else 1 for seq in schedules],
            config.epsilon,
        )
        counts += np.bincount(np.array(owners)[held], minlength=len(counts))
    return counts.tolist()


def _fork(run: Callable[[], object], name: str) -> tuple[int, int]:
    """Fork a process that writes to a pipe one pickle of what ``run()``
    returns, or of the exception it raises with its traceback as a note
    headed ``in {name}:``, since a traceback does not pickle; an exception
    that the caller could not unpickle is sent as a ``RuntimeError`` of that
    note. Return the process's pid and the pipe's read end. The process ends
    with ``os._exit``, so it never returns into this call's callers, runs no
    exit handler and flushes no buffer it inherited."""
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(reader)
        os.close(writer)
        raise
    if pid:
        os.close(writer)  # the process holds the only write end, so its end ends the pipe
        return pid, reader
    code = 1
    try:
        try:
            result = run()
        except Exception as exc:
            from traceback import format_exc

            note = f"in {name}:\n{format_exc()}"
            exc.__notes__ = [*getattr(exc, "__notes__", ()), note]
            try:
                result = pickle.loads(pickle.dumps(exc))
            except Exception:
                result = RuntimeError(note)
        with open(writer, "wb") as pipe:
            pipe.write(pickle.dumps(result))
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int, reader: int) -> int:
    """Close ``reader`` and wait for process ``pid`` to end; its exit code."""
    os.close(reader)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _shares(
    config: ScanConfig,
    pures: Sequence[Game],
    cells: Sequence[Cell],
    processes: int,
) -> list[int]:
    """``_tally``'s counts over ``processes`` shares, added up: shares 1 to
    n - 1 each in a forked process (see ``_fork``), share 0 in this thread,
    then each process's pipe read to its end, in turn. Every process is
    reaped, and its pipe closed, before this returns or raises, and is
    stopped (``SIGTERM``) first if this raises."""
    for stream in filter(None, (sys.stdout, sys.stderr)):  # or a share may write them again
        stream.flush()
    started: list[tuple[int, int]] = []  # each process's pid and read end, until reaped
    try:
        for k in range(1, processes):
            share = partial(_tally, config, pures, cells, (k, processes))
            started.append(_fork(share, f"grid share {k}"))
        tallies = [_tally(config, pures, cells, (0, processes))]
        while started:
            with open(started[0][1], "rb", closefd=False) as pipe:
                sent = pipe.read()
            if (code := _reap(*started.pop(0))) or not sent:
                raise RuntimeError(f"grid share {len(tallies)} of {processes} exited with "
                                   f"code {code} without sending its counts")
            if isinstance(result := pickle.loads(sent), BaseException):
                raise result
            tallies.append(result)
    except BaseException:
        from signal import SIGTERM

        for pid, _ in started:
            os.kill(pid, SIGTERM)
        raise
    finally:
        for pid, reader in started:
            _reap(pid, reader)
    return [sum(counts) for counts in zip(*tallies)]


_FORKS = sys.platform == "linux"  # macOS frameworks are not fork-safe; Windows cannot fork


def _cpus() -> int:
    """How many CPUs a grid may use: those in this process's affinity set
    where it forks share processes, else one."""
    return len(os.sched_getaffinity(0)) if _FORKS else 1


def scan_region_grid(
    base: ScanConfig,
    axes: Sequence[GridAxis],
    max_cells: int = 1024,
    workers: int = 1,
) -> RegionGrid:
    """Run a full scan at every cell of a parameter grid.

    A cell is the coins and phase of ``base`` with its axis values set;
    every other setting (periods, horizon, epsilon, verdict rule) is
    ``base``'s, shared by all cells.
    Cells are evaluated in row-major order over the axes. Each distinct
    game is evolved once: a pure game plays one coin, so all cells with that
    coin and phase share it, and equal cells share their sequences. With
    ``workers > 1`` the games are split among n processes, this one
    included: n is at most ``workers``, the distinct cells, and the CPUs in
    this process's affinity set. Share processes are forked on Linux only,
    and placed by the OS scheduler; elsewhere (macOS frameworks are not
    fork-safe, and Windows cannot fork) the grid runs in this process. The
    pure A games, the pure B games, then each schedule's games are dealt by
    one stride (see ``_share``), so each share holds the same number, within
    one, of every schedule's games, and at least two. Each share process
    builds its share from the config, the distinct pure games and cells, and
    its index, and sends back its counts over a pipe, while this thread
    evolves share 0. The grid is the same at any n. A share's exception is
    raised here, with the share's traceback as a note, and a share process
    that dies without sending raises ``RuntimeError``; no process is left
    running, and no pipe open, either way.

    Raises
    ------
    InvalidParameterError
        If ``base`` is not a ``ScanConfig``, ``axes`` is not a sequence of
        ``GridAxis`` (a bare axis is not), no axis or more than two axes
        are given, two axes sweep the same parameter, the grid exceeds
        ``max_cells``, or ``max_cells`` or ``workers`` is not a positive integer.
    """
    _checked(base, ScanConfig)
    check_count("max_cells", max_cells)
    check_count("workers", workers)
    axes = _check_axes(axes)
    parameters = [axis.parameter for axis in axes]
    shape = tuple(len(axis.values) for axis in axes)
    n_cells = int(np.prod(shape))
    if n_cells > max_cells:
        raise InvalidParameterError(
            f"grid of {n_cells} cells exceeds the budget of {max_cells}"
        )
    cells = [_cell(base, dict(zip(parameters, values)))
             for values in product(*(axis.values for axis in axes))]
    pure: dict[tuple[CoinParams, float], Game] = {}  # by coin and phase: A games, then B
    for coin, seq in enumerate(_PURE):
        for cell in cells:
            pure.setdefault((cell[coin], cell[2]), (*cell, seq))
    distinct = list(dict.fromkeys(cells))
    pures = list(pure.values())
    processes = min(workers, len(distinct), _cpus())
    if processes > 1:
        tally = _shares(base, pures, distinct, processes)
    else:
        tally = _tally(base, pures, distinct)
    tallies = dict(zip([*pure, *distinct], tally))
    paradox = np.array([_paradox(tallies[a, eta] > 0, tallies[b, eta] > 0, tallies[a, b, eta])
                        for a, b, eta in cells], dtype=bool).reshape(shape)
    counts = np.array([tallies[cell] for cell in cells], dtype=int).reshape(shape)
    return RegionGrid(axes=axes, paradox=paradox, winning_counts=counts)


def entropy_comparison(report: ScanReport) -> list[tuple[GameSequence, float]]:
    """Sequences of a report ordered by descending peak entropy.

    Ties keep the enumeration order (the sort is stable).
    """
    ordered = sorted(_checked(report, ScanReport).results, key=lambda r: -r.max_entropy)
    return [(r.sequence, r.max_entropy) for r in ordered]
