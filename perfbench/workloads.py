"""Workloads: seeded inputs and the invocations each workload repeats.

Seed 0 reproduces the README examples exactly. Every other seed draws coin
angles and eta near one of three parameter regimes. Game counts and
horizons are fixed per workload, so the cost of a run does not depend on
the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, TextIO

import numpy as np

from qparrondo import io, scan
from qparrondo.scan import GridAxis, ScanConfig
from qparrondo.walk import CoinParams, GameSequence

# (coin A, coin B, eta) in degrees: the one-sided regime of the README and
# the two double-sided regimes of the package's test suite. Copied here so
# that the benchmark does not depend on the tests.
REGIMES = (
    ((156.0, 16.0, 0.0), (0.0, 75.0, 160.0), 90.0),
    ((150.0, 30.0, 172.0), (175.0, 65.0, 165.0), 270.0),
    ((155.0, 26.0, 38.0), (170.0, 67.0, 118.0), 270.0),
)
JITTER_DEG = 2.0

WORKLOADS = ("scan-readme", "simulate-long", "regions-grid")
SIMULATE_SCHEDULES = ("A", "B", "ABB")
HORIZONS = {"scan-readme": 240, "simulate-long": 2400, "regions-grid": 240}
SCAN_MAX_PERIOD = 6
GRID_MAX_PERIOD = 4
GRID_POINTS = 5
GRID_HALF_SPAN_DEG = 10.0
# README asks for 4 workers; never use more processes than cores.
GRID_WORKERS = min(4, len(os.sched_getaffinity(0)))


def draw_inputs(seed: int) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """Coin A, coin B and eta for a seed; seed 0 is the README regime.

    Other seeds pick a regime and move each nonzero angle and eta by up to
    JITTER_DEG, so zero angles (the one-sided structure) stay zero.
    """
    if seed == 0:
        return REGIMES[0]
    rng = np.random.default_rng(seed)
    coin_a, coin_b, eta = REGIMES[int(rng.integers(len(REGIMES)))]

    def jitter(value: float) -> float:
        return 0.0 if value == 0 else round(value + rng.uniform(-JITTER_DEG, JITTER_DEG), 3)

    return (tuple(jitter(v) for v in coin_a), tuple(jitter(v) for v in coin_b), jitter(eta))


def mixed_sequences(max_period: int) -> list[str]:
    """Schedules of period 2..max_period that use both coins."""
    out = []
    for length in range(2, max_period + 1):
        for n in range(2 ** length):
            tokens = "".join("B" if n >> (length - 1 - i) & 1 else "A" for i in range(length))
            if "A" in tokens and "B" in tokens:
                out.append(tokens)
    return out


def _angles(values: tuple[float, ...]) -> str:
    return ",".join(repr(float(v)) for v in values)


@dataclass(frozen=True)
class Invocation:
    """One CLI command and the public API call that computes the same result."""

    kind: str  # "simulate", "scan" or "regions"
    label: str
    coin_a: tuple[float, ...]
    coin_b: tuple[float, ...]
    eta: float
    steps: int
    max_period: int = 0
    schedule: str = ""
    axes: tuple[tuple[str, float, float, int], ...] = ()
    workers: int = 1

    @property
    def suffix(self) -> str:
        return ".csv" if self.kind == "simulate" else ".json"

    @property
    def cells(self) -> int:
        if self.kind == "simulate":
            return 0
        return int(np.prod([count for *_, count in self.axes])) if self.axes else 1

    @property
    def games(self) -> int:
        if self.kind == "simulate":
            return 1
        return self.cells * (2 + len(mixed_sequences(self.max_period)))

    @property
    def game_steps(self) -> int:
        return self.games * self.steps

    def argv(self, out: str) -> list[str]:
        argv = [self.kind, "--coin-a", _angles(self.coin_a), "--coin-b", _angles(self.coin_b),
                "--eta-deg", repr(self.eta), "--steps", str(self.steps)]
        if self.kind == "simulate":
            argv += ["--sequence", self.schedule]
        else:
            argv += ["--max-period", str(self.max_period)]
        for name, start, stop, count in self.axes:
            argv += ["--axis", f"{name}={start!r}:{stop!r}:{count}"]
        if self.kind == "regions":
            argv += ["--workers", str(self.workers)]
        return argv + ["--out", out]

    def config(self) -> ScanConfig:
        return ScanConfig(coin_a=CoinParams(*self.coin_a), coin_b=CoinParams(*self.coin_b),
                          eta_deg=self.eta, max_period=self.max_period, horizon_steps=self.steps)

    def call(self, workers: int | None = None) -> Any:
        """Run the top-level API function, looked up at call time so that
        traced wrappers installed on the module take effect."""
        if self.kind == "simulate":
            return scan.game_trajectory(CoinParams(*self.coin_a), CoinParams(*self.coin_b),
                                        self.eta, GameSequence(self.schedule), self.steps)
        if self.kind == "scan":
            return scan.run_scan(self.config())
        axes = [GridAxis.linspace(*axis) for axis in self.axes]
        return scan.scan_region_grid(self.config(), axes,
                                     workers=self.workers if workers is None else workers)

    def write(self, result: Any, sink: TextIO) -> None:
        """Serialize a result with the writer the CLI uses."""
        if self.kind == "simulate":
            io.write_trajectory_csv(result, sink)
        elif self.kind == "scan":
            io.write_scan_json(result, sink)
        else:
            io.write_region_json(result, self.config(), sink)


def build(workload: str, seed: int, steps: int | None = None) -> list[Invocation]:
    """The invocations a workload cycles through; ``steps`` overrides the horizon."""
    coin_a, coin_b, eta = draw_inputs(seed)
    common = dict(coin_a=coin_a, coin_b=coin_b, eta=eta, steps=steps or HORIZONS[workload])
    if workload == "simulate-long":
        return [Invocation("simulate", f"simulate-{s}", schedule=s, **common)
                for s in SIMULATE_SCHEDULES]
    if workload == "scan-readme":
        return [Invocation("scan", "scan", max_period=SCAN_MAX_PERIOD, **common)]
    axes = tuple((name, value - GRID_HALF_SPAN_DEG, value + GRID_HALF_SPAN_DEG, GRID_POINTS)
                 for name, value in (("beta_a", coin_a[1]), ("beta_b", coin_b[1])))
    return [Invocation("regions", "regions", max_period=GRID_MAX_PERIOD, axes=axes,
                       workers=GRID_WORKERS, **common)]
