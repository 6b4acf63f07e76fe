"""Sequence enumeration, paradox scanning, and coin-parameter region sweeps.

A paradox point is a configuration where both pure games lose while at
least one periodic alternation of the same two coins wins. ``run_scan``
checks every sequence up to a maximum period at one configuration;
``scan_region_grid`` repeats that over a grid of coin parameters. Both
evolve their games, across cells, in chunks through one kernel call each.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import astuple, dataclass, fields, replace
from itertools import product
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidParameterError
from .metrics import (
    DEFAULT_EPSILON,
    BiasTrajectory,
    GameVerdict,
    bias,
    check_epsilon,
    entropy_bits,
    payoff_verdicts,
)
from .walk import CoinParams, GameColumns, GameSequence, InitialStateSpec
from .walk import check_count, check_steps, evolve_games

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

SCAN_CHUNK_GAMES = 128
"""Most games one kernel call evolves, across cells. It bounds the kernel's
working set (a few hundred bytes per game and step) when the longest periods
enumerate thousands of games; larger batches run no faster."""

AXIS_PARAMETERS = tuple(
    f"{angle.name.removesuffix('_deg')}_{coin}" for coin in "ab" for angle in fields(CoinParams)
) + ("eta",)
"""Scalar inputs a region sweep may vary: each coin angle (``beta_a`` sets
``coin_a.beta_deg``), then the initial phase."""


def _check_max_period(max_period: int) -> None:
    check_count("max_period", max_period)
    if not 2 <= max_period <= MAX_ENUMERATION_PERIOD:
        raise InvalidParameterError(
            f"max_period must be in [2, {MAX_ENUMERATION_PERIOD}] (period 1 is a pure game), "
            f"got {max_period}"
        )


@dataclass(frozen=True)
class ScanConfig:
    """One scan configuration: two coins, initial phase, and horizon.

    Verdicts are taken at whole-period boundaries of each sequence; set
    ``verdict_each_step`` to require the winning/losing condition at every
    elementary step instead (a much stricter quantifier, useful for
    sensitivity analysis). Construction raises ``InvalidParameterError``
    for an invalid field and ``CapacityError`` for a horizon over
    ``walk.MAX_STEPS``, so a scan or grid fails before it evolves anything.
    """

    coin_a: CoinParams
    coin_b: CoinParams
    eta_deg: float
    max_period: int = 6
    horizon_steps: int = 240
    epsilon: float = DEFAULT_EPSILON
    verdict_each_step: bool = False

    def __post_init__(self) -> None:
        InitialStateSpec(eta_deg=self.eta_deg)  # rejects a non-finite phase up front
        _check_max_period(self.max_period)
        check_count("horizon_steps", self.horizon_steps, least=self.max_period)
        check_epsilon(self.epsilon)
        check_steps(self.horizon_steps)  # last, so a usage error wins over the budget


@dataclass(frozen=True)
class SequenceResult:
    """Verdict and summary observables for one sequence.

    ``final_bias`` is the bias at the last elementary step, ``min_bias``
    the minimum over all elementary steps, and ``max_entropy`` the maximum
    coin-position entropy over the horizon.
    """

    sequence: GameSequence
    verdict: GameVerdict
    final_bias: float
    min_bias: float
    max_entropy: float


@dataclass(frozen=True)
class ScanReport:
    """Result of scanning every sequence at one configuration.

    ``paradox_sequences`` lists the token strings that win while both pure
    games lose; it is empty unless both pure verdicts are Losing.
    ``winning_by_period`` counts winning sequences per period, reported as
    data (longer periods often, but not always, win more).
    """

    config: ScanConfig
    verdict_a: GameVerdict
    verdict_b: GameVerdict
    results: tuple[SequenceResult, ...]
    paradox_sequences: tuple[str, ...]
    winning_by_period: dict[int, int]


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
    _check_max_period(max_period)
    sequences = []
    for length in range(2, max_period + 1):
        for letters in product("AB", repeat=length):
            tokens = "".join(letters)
            if "A" in tokens and "B" in tokens:
                sequences.append(GameSequence(tokens))
    return sequences


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
        "eta_deg": eta_deg,
        "sequence": seq.tokens,
    }
    entropy = entropy_bits(columns.rho00, columns.rho11, columns.rho01)[0]
    return BiasTrajectory(
        columns.p_left[0], columns.p_origin[0], columns.p_right[0], entropy, metadata
    )


def _evolve_cells(
    configs: Sequence[ScanConfig],
) -> Iterator[tuple[list[tuple[int, GameSequence]], GameColumns, NDArray[np.float64], list[GameVerdict]]]:
    """Evolve pure A, pure B and every enumerated sequence at each config.

    The configs may differ only in their coins and phase. Their games, in
    cell order and then enumeration order, run in equal chunks of at most
    ``SCAN_CHUNK_GAMES``; a cell's games may span two chunks. Yields, per
    chunk, its games as ``(cell index, sequence)``, their columns, biases
    and verdicts.
    """
    first = configs[0]
    sequences = [GameSequence("A"), GameSequence("B"), *enumerate_sequences(first.max_period)]
    per_cell = len(sequences)
    total = len(configs) * per_cell
    chunks = -(-total // SCAN_CHUNK_GAMES)
    for k in range(chunks):
        games = [(i // per_cell, sequences[i % per_cell])
                 for i in range(k * total // chunks, (k + 1) * total // chunks)]
        columns = evolve_games(
            [(configs[cell].coin_a, configs[cell].coin_b, configs[cell].eta_deg, seq)
             for cell, seq in games],
            first.horizon_steps,
        )
        biases = bias(columns.p_left, columns.p_right)
        periods = [1 if first.verdict_each_step else seq.period for _, seq in games]
        yield games, columns, biases, payoff_verdicts(biases, periods, first.epsilon)


def run_scan(config: ScanConfig) -> ScanReport:
    """Simulate pure A, pure B, and every enumerated sequence.

    Results keep the enumeration order. The run is fully deterministic:
    identical configurations produce identical reports.
    """
    results: list[SequenceResult] = []
    for games, columns, biases, verdicts in _evolve_cells([config]):
        entropies = entropy_bits(columns.rho00, columns.rho11, columns.rho01)
        results += map(
            SequenceResult,
            [seq for _, seq in games],
            verdicts,
            biases[:, -1].tolist(),
            biases.min(axis=1).tolist(),
            entropies.max(axis=1).tolist(),
        )
    pure_a, pure_b, *results = results
    both_losing = (
        pure_a.verdict is GameVerdict.LOSING and pure_b.verdict is GameVerdict.LOSING
    )
    paradox = tuple(
        r.sequence.tokens
        for r in results
        if both_losing and r.verdict is GameVerdict.WINNING
    )
    winning_by_period: dict[int, int] = {p: 0 for p in range(2, config.max_period + 1)}
    for r in results:
        if r.verdict is GameVerdict.WINNING:
            winning_by_period[r.sequence.period] += 1
    return ScanReport(
        config=config,
        verdict_a=pure_a.verdict,
        verdict_b=pure_b.verdict,
        results=tuple(results),
        paradox_sequences=paradox,
        winning_by_period=winning_by_period,
    )


@dataclass(frozen=True)
class GridAxis:
    """One swept parameter and the values it takes."""

    parameter: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.parameter not in AXIS_PARAMETERS:
            raise InvalidParameterError(
                f"unknown axis parameter {self.parameter!r}; "
                f"choose one of {', '.join(AXIS_PARAMETERS)}"
            )
        values = tuple(self.values)
        if not values:
            raise InvalidParameterError(f"axis {self.parameter} has no values")
        if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in values):
            raise InvalidParameterError(f"axis {self.parameter} values must be finite numbers")
        object.__setattr__(self, "values", tuple(map(float, values)))

    @classmethod
    def linspace(cls, parameter: str, start: float, stop: float, count: int) -> "GridAxis":
        check_count(f"axis {parameter} count", count)
        return cls(parameter, tuple(np.linspace(start, stop, count)))


@dataclass(frozen=True)
class RegionGrid:
    """Paradox indicator and winning-sequence count per grid cell.

    Arrays are indexed by the axes in order (row-major over cells).
    """

    axes: tuple[GridAxis, ...]
    paradox: NDArray[np.bool_]
    winning_counts: NDArray[np.int_]

    def __post_init__(self) -> None:
        shape = tuple(len(axis.values) for axis in self.axes)
        paradox = np.asarray(self.paradox, dtype=bool)
        counts = np.asarray(self.winning_counts, dtype=int)
        if paradox.shape != shape or counts.shape != shape:
            raise InvalidParameterError(
                f"grid arrays must have shape {shape}, got {paradox.shape} and {counts.shape}"
            )
        object.__setattr__(self, "paradox", paradox)
        object.__setattr__(self, "winning_counts", counts)


def _apply_assignments(config: ScanConfig, assignments: dict[str, float]) -> ScanConfig:
    for name, value in assignments.items():
        if name == "eta":
            config = replace(config, eta_deg=value)
        else:
            angle, coin = name.split("_")  # beta_a sets coin_a.beta_deg
            coin_field = f"coin_{coin}"
            coin_params = replace(getattr(config, coin_field), **{f"{angle}_deg": value})
            config = replace(config, **{coin_field: coin_params})
    return config


def _block_outcomes(configs: Sequence[ScanConfig]) -> list[tuple[bool, int]]:
    """Paradox flag and winning-sequence count of each cell of a block, as
    ``run_scan`` reports them, reduced chunk by chunk."""
    pure_losing = [0] * len(configs)
    winning = [0] * len(configs)
    for games, _, _, verdicts in _evolve_cells(configs):
        for (cell, seq), verdict in zip(games, verdicts):
            if seq.period == 1:
                pure_losing[cell] += verdict is GameVerdict.LOSING
            else:
                winning[cell] += verdict is GameVerdict.WINNING
    return [(both == 2 and count > 0, count) for both, count in zip(pure_losing, winning)]


def _pool_size(workers: int, cells: int, cpus: int | None) -> int:
    """Processes for a grid: never more than asked, than cells, or than CPUs."""
    return min(workers, cells, cpus or 1)


def scan_region_grid(
    base: ScanConfig,
    axes: Sequence[GridAxis],
    max_cells: int = 1024,
    workers: int = 1,
) -> RegionGrid:
    """Run a full scan at every cell of a parameter grid.

    Cells are evaluated in row-major order over the axes. With
    ``workers > 1`` the cells are split into one contiguous block per
    process (at most one per cell and per CPU); blocks are collected in
    order, so the grid is identical either way.

    Raises
    ------
    InvalidParameterError
        If no axis or more than two axes are given, the grid exceeds
        ``max_cells``, or ``workers`` is not an integer of at least 1.
    """
    check_count("workers", workers)
    axes = tuple(axes)
    if not 1 <= len(axes) <= 2:
        raise InvalidParameterError(f"expected 1 or 2 axes, got {len(axes)}")
    seen = {axis.parameter for axis in axes}
    if len(seen) != len(axes):
        raise InvalidParameterError("axes must sweep distinct parameters")
    shape = tuple(len(axis.values) for axis in axes)
    n_cells = int(np.prod(shape))
    if n_cells > max_cells:
        raise InvalidParameterError(
            f"grid of {n_cells} cells exceeds the budget of {max_cells}"
        )
    cell_configs = []
    for index in np.ndindex(shape):
        assignments = {
            axis.parameter: axis.values[i] for axis, i in zip(axes, index)
        }
        cell_configs.append(_apply_assignments(base, assignments))
    processes = _pool_size(workers, n_cells, os.cpu_count())
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs multiprocessing

        bounds = [n_cells * k // processes for k in range(processes + 1)]
        blocks = [cell_configs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=processes) as pool:
            outcomes = [cell for block in pool.map(_block_outcomes, blocks) for cell in block]
    else:
        outcomes = _block_outcomes(cell_configs)
    paradox = np.array([flag for flag, _ in outcomes], dtype=bool).reshape(shape)
    counts = np.array([count for _, count in outcomes], dtype=int).reshape(shape)
    return RegionGrid(axes=axes, paradox=paradox, winning_counts=counts)


def entropy_comparison(report: ScanReport) -> list[tuple[GameSequence, float]]:
    """Sequences of a report ordered by descending peak entropy.

    Ties keep the enumeration order (the sort is stable).
    """
    ordered = sorted(report.results, key=lambda r: -r.max_entropy)
    return [(r.sequence, r.max_entropy) for r in ordered]
