import contextlib
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qparrondo import (
    CapacityError,
    CoinParams,
    GameSequence,
    GameVerdict,
    GridAxis,
    InvalidParameterError,
    ScanConfig,
    entropy_comparison,
    enumerate_sequences,
    run_scan,
    scan_region_grid,
)

from qparrondo import scan, walk
from qparrondo.scan import AXIS_PARAMETERS, _cell, _share
from qparrondo.walk import MAX_STEPS, GameColumns, evolve_games, evolve_verdicts

from benchmarks import REGIME_DOUBLE_1, REGIME_ONE_SIDED
from test_kernel import handed


@pytest.fixture(autouse=True)
def affinity_kept():
    """Fail a test that leaves this process on other CPUs than it found."""
    affinity = getattr(os, "sched_getaffinity", lambda pid: None)  # the real one, not a stub
    before = affinity(0)
    yield
    assert affinity(0) == before, "the test moved this process to other CPUs"


@pytest.fixture
def no_process(monkeypatch):
    """Make starting a share process fail the test."""

    def start(*args):
        raise AssertionError("a share process was started")

    monkeypatch.setattr(scan, "_start", start)


README_AXES = (GridAxis.linspace("beta_a", 6, 26, 5), GridAxis.linspace("beta_b", 65, 85, 5))
REPEATED_AXIS = GridAxis("beta_a", (10.0, 10.0, 20.0))


def one_sided_config(**overrides):
    settings = dict(
        coin_a=REGIME_ONE_SIDED["coin_a"],
        coin_b=REGIME_ONE_SIDED["coin_b"],
        eta_deg=REGIME_ONE_SIDED["eta_deg"],
        max_period=3,
        horizon_steps=240,
    )
    settings.update(overrides)
    return ScanConfig(**settings)


class TestEnumerateSequences:
    def test_period_two(self):
        assert [s.tokens for s in enumerate_sequences(2)] == ["AB", "BA"]

    def test_period_three_order_and_count(self):
        tokens = [s.tokens for s in enumerate_sequences(3)]
        assert tokens == ["AB", "BA", "AAB", "ABA", "ABB", "BAA", "BAB", "BBA"]

    def test_counts_match_closed_form(self):
        by_length = {}
        for seq in enumerate_sequences(12):
            by_length[seq.period] = by_length.get(seq.period, 0) + 1
        assert by_length == {n: 2**n - 2 for n in range(2, 13)}

    def test_rotations_kept_distinct(self):
        tokens = [s.tokens for s in enumerate_sequences(3)]
        assert "ABB" in tokens and "BBA" in tokens

    @pytest.mark.parametrize("bad", [1, 0, 13, -2])
    def test_period_guard(self, bad):
        with pytest.raises(InvalidParameterError):
            enumerate_sequences(bad)


class TestScanConfig:
    def test_rejects_pure_game_period(self):
        with pytest.raises(InvalidParameterError):
            one_sided_config(max_period=1)

    def test_rejects_short_horizon(self):
        with pytest.raises(InvalidParameterError):
            one_sided_config(max_period=6, horizon_steps=5)

    @pytest.mark.parametrize(
        "field, value",
        [("epsilon", float("inf")), ("epsilon", float("nan")), ("epsilon", -1e-9),
         ("epsilon", True), ("epsilon", "0.1"),
         ("eta_deg", float("nan")), ("eta_deg", float("inf")), ("eta_deg", True),
         ("eta_deg", "90"), ("max_period", 13),
         ("max_period", 3.0), ("horizon_steps", 12.5),
         ("verdict_each_step", "no"), ("verdict_each_step", 1), ("verdict_each_step", None),
         ("coin_a", None), ("coin_b", (0, 75, 160))],
    )
    def test_rejects_non_finite_epsilon_and_phase(self, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            one_sided_config(**{field: value})


@pytest.fixture(scope="module")
def one_sided_report():
    return run_scan(one_sided_config())


class TestRunScan:
    def test_rejects_a_config_of_the_wrong_type(self):
        with pytest.raises(InvalidParameterError, match="ScanConfig"):
            run_scan("max_period=3")

    def test_pure_games_lose(self, one_sided_report):
        assert one_sided_report.verdict_a is GameVerdict.LOSING
        assert one_sided_report.verdict_b is GameVerdict.LOSING

    def test_results_keep_enumeration_order(self, one_sided_report):
        tokens = [r.sequence.tokens for r in one_sided_report.results]
        assert tokens == [s.tokens for s in enumerate_sequences(3)]

    def test_finds_the_paradox(self, one_sided_report):
        assert "ABB" in one_sided_report.paradox_sequences

    def test_paradox_members_are_winning_results(self, one_sided_report):
        winning = {
            r.sequence.tokens
            for r in one_sided_report.results
            if r.verdict is GameVerdict.WINNING
        }
        assert set(one_sided_report.paradox_sequences) == winning

    def test_winning_by_period_consistent(self, one_sided_report):
        for period, count in one_sided_report.winning_by_period.items():
            expected = sum(
                1
                for r in one_sided_report.results
                if r.sequence.period == period and r.verdict is GameVerdict.WINNING
            )
            assert count == expected

    def test_result_summaries_are_coherent(self, one_sided_report):
        for r in one_sided_report.results:
            assert r.min_bias <= r.final_bias
            assert 0.0 <= r.max_entropy <= 1.0 + 1e-10

    def test_identical_coins_cannot_paradox(self):
        coin = REGIME_DOUBLE_1["coin_a"]
        report = run_scan(
            ScanConfig(
                coin_a=coin,
                coin_b=coin,
                eta_deg=REGIME_DOUBLE_1["eta_deg"],
                max_period=3,
                horizon_steps=120,
            )
        )
        assert report.verdict_a is GameVerdict.LOSING
        assert report.paradox_sequences == ()
        assert all(r.verdict is GameVerdict.LOSING for r in report.results)

    @pytest.mark.parametrize("max_period, steps, evolved", [(6, 240, 106), (12, 12, 8032)])
    def test_each_distinct_coin_sequence_is_evolved_once(self, monkeypatch, max_period, steps,
                                                          evolved):
        # ABAB plays what AB plays; the scan evolves AB alone and judges both on its biases
        handed = []

        def counted(games, steps):
            handed.extend(seq.tokens for *_, seq in games)
            return evolve_games(games, steps)

        monkeypatch.setattr(scan, "evolve_games", counted)
        config = one_sided_config(max_period=max_period, horizon_steps=steps)
        report = run_scan(config)
        assert len(handed) == len(set(handed)) == evolved
        assert [r.sequence for r in report.results] == enumerate_sequences(max_period)

    def test_deterministic(self):
        config = one_sided_config(max_period=2, horizon_steps=60)
        assert run_scan(config) == run_scan(config)

    def test_winning_sequences_without_losing_pure_games_are_not_paradoxical(self):
        # Mirrored double-sided regime: both pure games win there, and so
        # do several sequences; none of them count as a paradox.
        report = run_scan(
            ScanConfig(
                coin_a=REGIME_DOUBLE_1["coin_a"],
                coin_b=REGIME_DOUBLE_1["coin_b"],
                eta_deg=REGIME_DOUBLE_1["eta_deg"] - 180.0,
                max_period=4,
                horizon_steps=120,
            )
        )
        assert report.verdict_a is GameVerdict.WINNING
        assert report.verdict_b is GameVerdict.WINNING
        assert any(r.verdict is GameVerdict.WINNING for r in report.results)
        assert report.paradox_sequences == ()

    def test_each_step_quantifier_is_stricter(self):
        relaxed = run_scan(one_sided_config(horizon_steps=60))
        strict = run_scan(one_sided_config(horizon_steps=60, verdict_each_step=True))
        relaxed_wins = {
            r.sequence.tokens for r in relaxed.results if r.verdict is GameVerdict.WINNING
        }
        strict_wins = {
            r.sequence.tokens for r in strict.results if r.verdict is GameVerdict.WINNING
        }
        assert strict_wins <= relaxed_wins


def two_cells(paradox, counts):
    """A builder of the grid of one axis of two values with these arrays."""
    return lambda: scan.RegionGrid((GridAxis("beta_a", (1.0, 2.0)),), paradox, counts)


class TestRegionGrid:
    def test_single_cell_at_the_paradox_point(self):
        grid = scan_region_grid(
            one_sided_config(),
            [GridAxis("beta_a", (REGIME_ONE_SIDED["coin_a"].beta_deg,))],
        )
        assert grid.paradox.shape == (1,)
        assert bool(grid.paradox[0]) is True
        assert grid.winning_counts[0] >= 1

    def test_identical_coins_never_paradox(self):
        coin = REGIME_DOUBLE_1["coin_a"]
        base = ScanConfig(
            coin_a=coin, coin_b=coin, eta_deg=0.0, max_period=2, horizon_steps=24
        )
        grid = scan_region_grid(base, [GridAxis.linspace("eta", 0, 300, 4)])
        assert not grid.paradox.any()

    def test_two_axes_row_major(self):
        base = one_sided_config(max_period=2, horizon_steps=24)
        axis_a = GridAxis.linspace("beta_a", 6, 26, 2)
        axis_b = GridAxis.linspace("beta_b", 65, 85, 3)
        grid = scan_region_grid(base, [axis_a, axis_b])
        assert grid.paradox.shape == (2, 3)
        assert grid.winning_counts.shape == (2, 3)
        # Row-major: cell (i, j) must equal its own single-cell scan.
        single = scan_region_grid(
            base,
            [GridAxis("beta_a", (axis_a.values[1],)), GridAxis("beta_b", (axis_b.values[2],))],
        )
        assert grid.paradox[1, 2] == single.paradox[0, 0]
        assert grid.winning_counts[1, 2] == single.winning_counts[0, 0]

    def test_sweep_around_the_paradox_point(self):
        base = one_sided_config(horizon_steps=60)
        grid = scan_region_grid(
            base,
            [
                GridAxis.linspace("beta_a", 6, 26, 5),
                GridAxis.linspace("beta_b", 65, 85, 5),
            ],
        )
        # The center cell (beta_a 16, beta_b 75) is the known paradox
        # configuration; neighbors are recorded as data, not asserted.
        assert grid.axes[0].values[2] == 16.0
        assert grid.axes[1].values[2] == 75.0
        assert bool(grid.paradox[2, 2]) is True

    def test_budget_guard(self):
        with pytest.raises(InvalidParameterError):
            scan_region_grid(
                one_sided_config(max_period=2, horizon_steps=24),
                [GridAxis.linspace("beta_a", 0, 90, 5), GridAxis.linspace("beta_b", 0, 90, 5)],
                max_cells=10,
            )

    def test_axis_validation(self):
        with pytest.raises(InvalidParameterError):
            GridAxis("theta", (1.0,))
        with pytest.raises(InvalidParameterError):
            GridAxis("beta_a", ())
        with pytest.raises(InvalidParameterError):
            scan_region_grid(one_sided_config(), [])
        with pytest.raises(InvalidParameterError):
            scan_region_grid(
                one_sided_config(),
                [GridAxis("beta_a", (1.0,))] * 3,
            )
        with pytest.raises(InvalidParameterError):
            scan_region_grid(
                one_sided_config(),
                [GridAxis("beta_a", (1.0,)), GridAxis("beta_a", (2.0,))],
            )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GridAxis("beta_a", "12"),  # a string is not a list of two angles
            lambda: GridAxis("beta_a", (1.0, "2")),
            lambda: GridAxis.linspace("beta_a", 0, 1, 2.5),
            lambda: GridAxis.linspace("beta_a", 0, 1, True),
            lambda: GridAxis.linspace("beta_a", 0, 1, 0),
            lambda: GridAxis("beta_a", 12),  # one number is not a list of values
            lambda: GridAxis("beta_a", (1.0, True)),
            lambda: GridAxis.linspace("beta_a", True, 3.0, 2),
            lambda: GridAxis.linspace("beta_a", "1", 3.0, 2),
            lambda: GridAxis("beta_a", {30.0, 10.0, 20.0}),  # a set's order is its hash's
            lambda: GridAxis("beta_a", {30.0: 1, 10.0: 2}),
        ],
        ids=["string-values", "string-value", "fractional-count", "bool-count", "zero-count",
             "number-values", "bool-value", "bool-start", "string-start", "set-values",
             "mapping-values"],
    )
    def test_rejects_values_and_counts_of_the_wrong_type(self, build):
        with pytest.raises(InvalidParameterError):
            build()

    @pytest.mark.parametrize(
        "base, axes",
        [
            pytest.param("beta_a=6:26:2", [GridAxis("beta_a", (6.0, 26.0))], id="string-base"),
            pytest.param(one_sided_config(), [("beta_a", (6.0, 26.0))], id="tuple-axis"),
        ],
    )
    def test_rejects_a_base_or_an_axis_of_the_wrong_type(self, monkeypatch, no_process, base, axes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.raises(InvalidParameterError, match="ScanConfig|GridAxis"):
            scan_region_grid(base, axes, workers=2)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: scan_region_grid(one_sided_config(), GridAxis("beta_a", (6.0,))),
                         id="bare-axis"),
            pytest.param(lambda: GridAxis.linspace("beta_a", 0, 1, 10**9), id="huge-count"),
            pytest.param(lambda: scan_region_grid(one_sided_config(), {
                GridAxis("beta_a", (6.0,)), GridAxis("beta_b", (6.0,))}), id="set-of-axes"),
            pytest.param(lambda: scan.RegionGrid(axes=(), paradox=np.zeros(()),
                                                 winning_counts=np.zeros(())), id="no-axis"),
            # these were read as [True, True], [1, -3] and numpy's bare ValueError
            pytest.param(two_cells([0.5, "x"], [1, 2]), id="flags-not-bools"),
            pytest.param(two_cells([True, False], [1.7, -3]), id="fractional-and-negative-counts"),
            pytest.param(two_cells([True, False], [1, -3]), id="negative-count"),
            pytest.param(two_cells([True, False], [float("nan"), 1]), id="nan-count"),
        ],
    )
    def test_refuses_a_grid_it_cannot_build(self, no_process, build):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameterError):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_an_axis_may_hold_its_budget_of_values(self):
        axis = GridAxis.linspace("eta", 0, 1, scan.MAX_AXIS_VALUES)
        assert len(axis.values) == scan.MAX_AXIS_VALUES

    @pytest.mark.parametrize("workers", [0, -5, 1.5, True])
    def test_rejects_worker_counts_that_are_not_positive_integers(self, workers):
        axes = [GridAxis.linspace("beta_a", 6, 26, 2)]
        with pytest.raises(InvalidParameterError, match="workers"):
            scan_region_grid(one_sided_config(max_period=2, horizon_steps=4), axes, workers=workers)

    @pytest.mark.parametrize("max_cells", ["10", True, 0.5, 0])
    def test_rejects_cell_budgets_that_are_not_positive_integers(self, max_cells):
        axes = [GridAxis.linspace("beta_a", 6, 26, 2)]
        with pytest.raises(InvalidParameterError, match="max_cells"):
            scan_region_grid(one_sided_config(max_period=2, horizon_steps=4), axes,
                             max_cells=max_cells)

    @pytest.mark.parametrize(
        "axes, base",
        [
            pytest.param(
                (GridAxis.linspace("alpha_b", 0, 180, 3), GridAxis.linspace("eta", 0, 180, 3)),
                one_sided_config(max_period=4, horizon_steps=120), id="alpha_b-eta"),
            pytest.param(
                (GridAxis.linspace("beta_a", 6, 26, 3), GridAxis.linspace("beta_b", 65, 85, 3)),
                one_sided_config(max_period=4, horizon_steps=120), id="beta_a-beta_b"),
            pytest.param(  # shared settings other than the defaults reach every cell
                (GridAxis.linspace("eta", 0, 270, 3), GridAxis.linspace("alpha_b", 0, 90, 3)),
                one_sided_config(max_period=4, horizon_steps=60, verdict_each_step=True,
                                 epsilon=1e-3),
                id="eta-alpha_b-each-step-epsilon"),
        ],
    )
    def test_every_cell_equals_its_own_scan(self, monkeypatch, axes, base):
        # at most 100 games a batch: 9 cells of 22 sequences run as several batches,
        # so some cells span two
        monkeypatch.setattr(walk, "MAX_GAME_STEPS", 100 * base.horizon_steps)
        grid = scan_region_grid(base, axes)
        monkeypatch.undo()
        assert_cells_equal_their_scans(grid, base)

    @pytest.mark.parametrize(
        "axes, pure_a, pure_b, mixed",
        [
            pytest.param(README_AXES, 5, 5, 25 * 22, id="readme"),
            pytest.param((GridAxis.linspace("beta_a", 6, 26, 5),), 5, 1, 5 * 22, id="beta_a"),
            pytest.param((REPEATED_AXIS,), 2, 1, 2 * 22, id="repeated-value"),
        ],
    )
    def test_each_distinct_game_is_evolved_once(self, monkeypatch, axes, pure_a, pure_b, mixed):
        handed = []

        def counted(games, *args):
            handed.extend(games)
            return evolve_verdicts(games, *args)

        monkeypatch.setattr(scan, "evolve_verdicts", counted)
        base = one_sided_config(max_period=4, horizon_steps=240)
        grid = scan_region_grid(base, axes, workers=1)
        pure = [game[3].tokens for game in handed if game[3].period == 1]
        assert (pure.count("A"), pure.count("B")) == (pure_a, pure_b)
        assert len(handed) - len(pure) == mixed
        # no two handed games play the same coins from the same phase
        played = {(game[2], tuple(game[0] if t == "A" else game[1] for t in game[3].tokens))
                  for game in handed}
        assert len(played) == len(handed)
        assert_cells_equal_their_scans(grid, base)

    @pytest.mark.parametrize(
        "axes",
        [
            pytest.param((GridAxis.linspace("beta_a", 0, 30, 7),), id="beta_a"),
            # a pure game serves cells whose sequences other processes evolve
            pytest.param((GridAxis.linspace("beta_a", 0, 30, 3),
                          GridAxis.linspace("beta_b", 65, 85, 3)), id="beta_a-beta_b"),
            pytest.param((REPEATED_AXIS,), id="repeated-value"),
        ],
    )
    def test_grid_is_the_same_at_any_worker_count(self, monkeypatch, axes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        base = one_sided_config(horizon_steps=60)
        grids = [scan_region_grid(base, axes, workers=workers) for workers in (1, 2, 3)]
        assert len(set(grids[0].winning_counts.flatten().tolist())) > 1
        for grid in grids[1:]:
            assert np.array_equal(grid.paradox, grids[0].paradox)
            assert np.array_equal(grid.winning_counts, grids[0].winning_counts)

    def test_pool_tasks_do_not_grow_with_the_games(self, monkeypatch):
        base = one_sided_config(max_period=12, horizon_steps=12)
        for processes in (2, 3):
            tasks = record_pool_tasks(monkeypatch, processes)
            axes = [GridAxis.linspace("beta_a", 6, 26, processes)]
            grid = scan_region_grid(base, axes, workers=processes)
            games = processes * (2 + len(enumerate_sequences(12)))
            sizes = [len(pickle.dumps(args)) for args in tasks]
            # this process evolves one share, a process each of the others
            assert len(sizes) == processes - 1
            assert max(sizes) < games / 8  # far below a byte per game
            assert np.array_equal(grid.winning_counts, scan_region_grid(base, axes).winning_counts)

    @pytest.mark.parametrize("processes", [2, 3])
    def test_each_share_is_counted_once(self, monkeypatch, processes):
        tasks = record_pool_tasks(monkeypatch, processes)
        shares, tally_share = [], scan._tally

        def tally(config, pures, cells, share=(0, 1)):
            shares.append(share)
            return tally_share(config, pures, cells, share)

        monkeypatch.setattr(scan, "_tally", tally)
        axes = [GridAxis.linspace("beta_a", 0, 30, 7)]
        base = one_sided_config(horizon_steps=60)
        grid = scan_region_grid(base, axes, workers=processes)
        assert [args[3] for args in tasks] == [(k, processes) for k in range(1, processes)]
        assert sorted(shares) == [(k, processes) for k in range(processes)]
        assert grid.winning_counts.any()
        assert np.array_equal(grid.winning_counts, scan_region_grid(base, axes).winning_counts)

    def test_step_budget_is_checked_before_any_process_starts(self, monkeypatch, no_process):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        axes = [GridAxis.linspace("beta_a", 6, 26, 2)]
        with pytest.raises(CapacityError, match="budget"):
            scan_region_grid(one_sided_config(horizon_steps=MAX_STEPS + 1), axes, workers=2)
        # within the budget the same grid starts a share process
        with pytest.raises(AssertionError, match="share process"):
            scan_region_grid(one_sided_config(max_period=2, horizon_steps=4), axes, workers=2)


class InProcessShare:
    """A share process and its pipe, run to completion in this process when
    it starts: ``_run_share`` sends to it, the grid receives from it. Create
    one only where placement is recorded (``record_placement``), since
    ``_run_share`` would otherwise move this process to the share's CPU."""

    exitcode = 0

    def __init__(self, *args):
        self.sent, self.ended = [], []
        scan._run_share(self, *args)

    def send(self, result):
        self.sent.append(result)

    def recv(self):
        if not self.sent:
            raise EOFError
        return self.sent.pop()

    def terminate(self):
        self.ended.append("terminate")

    def join(self):
        self.ended.append("join")

    def close(self):  # the share is both the process and its reader
        self.ended.append("close")


def record_pool_tasks(monkeypatch, cpus, shares=None):
    """Replace the start of a share process by a share run in this process,
    and give the list each start's arguments are added to; each share is
    added to ``shares``, where one is given. The affinity set is
    ``range(cpus)``, which may name CPUs this host lacks; each share's
    placement is recorded, not made."""
    tasks = []

    def start(*args):
        tasks.append(args)
        share = InProcessShare(*args)
        if shares is not None:
            shares.append(share)
        return share, share

    monkeypatch.setattr(scan, "_start", start)
    record_placement(monkeypatch, range(cpus))
    return tasks


def grid_games(monkeypatch, base, axes):
    """The config, distinct pure games and distinct cells that a one-process
    grid hands to ``_tally``; nothing is evolved."""
    handed = []

    def tally(config, pures, cells, share=(0, 1)):
        handed.append((config, pures, cells))
        return [0] * (len(pures) + len(cells))

    with monkeypatch.context() as patch:
        patch.setattr(scan, "_tally", tally)
        scan_region_grid(base, axes, workers=1)
    return handed[0]


def share_games(config, pures, cells, share=(0, 1)):
    """The ``(owner, game)`` pairs of a share, in the order it walks them."""
    return [pair for owners, games in _share(config, pures, cells, share)
            for pair in zip(owners, games)]


def record_placement(monkeypatch, cpus):
    """Make ``cpus`` this thread's affinity set and record every placement
    instead of making it; return the list of placed sets."""
    placed = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: placed.append(set(cpus)),
                        raising=False)
    return placed


@contextlib.contextmanager
def nothing_left_open():
    """Check that the block leaves no share process running and, where
    ``/proc/self/fd`` lists this process's descriptors, none of its pipes
    or process sentinels open."""
    listed = Path("/proc/self/fd").is_dir()
    before = set(os.listdir("/proc/self/fd")) if listed else None
    yield
    assert multiprocessing.active_children() == []
    if listed:
        assert set(os.listdir("/proc/self/fd")) == before


class ShareFailed(Exception):
    """Raised by a share process in place of its counts."""


forks = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                           reason="a share process must inherit this test's stubs")


@pytest.fixture
def time_bound():
    """Fail the test, instead of hanging, if it runs for over a minute."""

    def expire(signum, frame):
        raise TimeoutError("the grid waited on its share processes for over a minute")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("time_bound")
class TestShareProcesses:
    AXES = (GridAxis.linspace("beta_a", 6, 26, 3),)
    BASE = one_sided_config(max_period=3, horizon_steps=24)

    def failing_share(self, monkeypatch, fail):
        """Make ``fail()`` run in share 1 of 2 in place of its tally."""
        tally = scan._tally

        def failing(config, pures, cells, share=(0, 1)):
            if share[0] == 1:
                fail()
            return tally(config, pures, cells, share)

        monkeypatch.setattr(scan, "_tally", failing)
        record_placement(monkeypatch, {0, 1})

    @forks
    def test_a_share_exception_is_raised_in_the_caller(self, monkeypatch):
        def fail():
            raise ShareFailed("share 1")

        self.failing_share(monkeypatch, fail)
        with nothing_left_open(), pytest.raises(ShareFailed, match="share 1") as raised:
            scan_region_grid(self.BASE, self.AXES, workers=2)
        # the share's traceback travels as a note
        assert "in grid share 1:\nTraceback" in raised.value.__notes__[-1]

    @forks
    def test_a_share_process_that_dies_without_sending_is_named(self, monkeypatch):
        self.failing_share(monkeypatch, lambda: os._exit(7))
        with nothing_left_open(), pytest.raises(RuntimeError, match="share 1 of 2 exited with code 7"):
            scan_region_grid(self.BASE, self.AXES, workers=2)

    def test_the_callers_exception_stops_the_share_processes(self, monkeypatch):
        record_placement(monkeypatch, {0, 1})
        # the share processes outlive the time bound unless they are stopped
        monkeypatch.setattr(scan, "_run_share", lambda *args: time.sleep(120))
        monkeypatch.setattr(scan, "evolve_verdicts", lambda *args: 1 / 0)
        with nothing_left_open(), pytest.raises(ZeroDivisionError):
            scan_region_grid(self.BASE, self.AXES, workers=2)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs 2 CPUs this process may run on")
    def test_readme_grid_on_two_cpus(self, monkeypatch):
        # checked again here: an earlier test that moved this process would run one share
        before = os.sched_getaffinity(0)
        assert len(before) >= 2, before
        exits, start = [], scan._start

        def recorded(*args):
            process, reader = start(*args)
            close = process.close

            def closed():  # the exit code can be read only until the process is closed
                exits.append(process.exitcode)
                close()

            process.close = closed
            return process, reader

        monkeypatch.setattr(scan, "_start", recorded)
        base = one_sided_config(max_period=4)
        with nothing_left_open():
            grid = scan_region_grid(base, README_AXES, workers=2)
        assert exits == [0]  # a share process ran, and was closed
        assert os.sched_getaffinity(0) == before
        alone = scan_region_grid(base, README_AXES)
        assert np.array_equal(grid.paradox, alone.paradox)
        assert np.array_equal(grid.winning_counts, alone.winning_counts)

    def test_share_k_runs_on_the_kth_cpu(self, monkeypatch):
        shares = []
        tasks = record_pool_tasks(monkeypatch, 3, shares)
        placed = record_placement(monkeypatch, {9, 3, 7})  # in place of range(3)
        scan_region_grid(self.BASE, self.AXES, workers=3)
        assert [args[-1] for args in tasks] == [7, 9]
        # each share's process, then its reader, is closed after the join
        assert [share.ended for share in shares] == [["join", "close", "close"]] * 2
        # each in-process share, then this thread: placed, then given its CPUs back
        assert placed == [{7}, {3, 7, 9}, {9}, {3, 7, 9}, {3}, {3, 7, 9}]

    def test_the_caller_gets_its_cpus_back_when_its_share_raises(self, monkeypatch):
        shares = []

        def start(config, pures, cells, share, cpu):
            shares.append(InProcessShare(None, config, pures, cells, share, cpu))
            return shares[-1], shares[-1]

        monkeypatch.setattr(scan, "_run_share", lambda writer, *args: None)
        monkeypatch.setattr(scan, "_start", start)
        placed = record_placement(monkeypatch, {9, 3, 7})
        monkeypatch.setattr(scan, "evolve_verdicts", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            scan_region_grid(self.BASE, self.AXES, workers=3)
        assert placed == [{3}, {3, 7, 9}]
        assert [share.ended for share in shares] == [["terminate", "join", "close", "close"]] * 2

    def test_one_process_is_never_placed(self, monkeypatch, no_process):
        placed = record_placement(monkeypatch, {0, 1})
        grid = scan_region_grid(self.BASE, self.AXES, workers=1)
        assert placed == []
        assert grid.winning_counts.any()
        code = ("import sys; from qparrondo import GridAxis, ScanConfig, CoinParams, "
                "scan_region_grid; base = ScanConfig(CoinParams(156, 16, 0), CoinParams(0, 75, 160), "
                "90.0, max_period=2, horizon_steps=12); scan_region_grid(base, "
                "[GridAxis.linspace('beta_a', 6, 26, 3)]); print('multiprocessing' in sys.modules)")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == "False"

    @forks
    @pytest.mark.parametrize("placement", ["missing", "refused"])
    def test_unplaced_shares_give_the_same_counts(self, monkeypatch, placement):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        if placement == "missing":
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        else:
            def refuse(pid, cpus):
                raise OSError(22, "Invalid argument")

            monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        with nothing_left_open():
            grid = scan_region_grid(self.BASE, self.AXES, workers=2)
        alone = scan_region_grid(self.BASE, self.AXES)
        assert grid.winning_counts.any()
        assert np.array_equal(grid.winning_counts, alone.winning_counts)


@pytest.mark.parametrize("shares", [2, 3])
@pytest.mark.parametrize(
    "axes", [pytest.param(README_AXES, id="readme"),
             pytest.param((GridAxis.linspace("beta_a", 6, 26, 5),), id="beta_a")])
def test_shares_deal_every_period_evenly(monkeypatch, axes, shares):
    config, pures, cells = grid_games(monkeypatch, one_sided_config(max_period=4), axes)
    dealt = [share_games(config, pures, cells, (i, shares)) for i in range(shares)]
    for period in range(1, config.max_period + 1):  # period 1: the pure games
        held = [sum(game[3].period == period for _, game in games) for games in dealt]
        assert max(held) - min(held) <= 1, (period, held)
    for games in dealt:  # each share keeps the stream's period order
        periods = [game[3].period for _, game in games]
        assert periods == sorted(periods)
    whole = share_games(config, pures, cells)
    assert Counter(pair for games in dealt for pair in games) == Counter(whole)
    assert len(whole) == len(set(whole))  # every game is dealt exactly once
    if len(axes) == 2:  # a README share is one batch of the kernel
        for i, games in enumerate(dealt):
            with handed() as walks:
                scan._tally(config, pures, cells, (i, shares))
            assert [widths[0] for widths in walks] == [len(games)]


@pytest.mark.parametrize(
    "axes", [pytest.param(README_AXES, id="readme"),
             pytest.param((GridAxis.linspace("beta_a", 6, 26, 5),), id="beta_a")])
def test_two_shares_split_every_schedule_evenly(monkeypatch, axes):
    # a plain stride over each cell's schedules gave share 0 every AB and share 1
    # every BA of the README grid, and a snake deal at 3 shares gave share 0 every
    # AAB; the pure A and pure B games count as schedules too
    config, pures, cells = grid_games(monkeypatch, one_sided_config(max_period=4), axes)
    for shares in (2, 3):
        held = [Counter(game[3].tokens for _, game in share_games(config, pures, cells,
                                                                  (i, shares)))
                for i in range(shares)]
        for tokens in ["A", "B", *(seq.tokens for seq in enumerate_sequences(4))]:
            counts = [share[tokens] for share in held]
            assert max(counts) - min(counts) <= 1, (shares, tokens, counts)


def scan_call_widths(monkeypatch, config):
    """The games ``run_scan`` hands to each kernel call; each call gives zero
    columns in place of evolving its games."""
    widths = []

    def evolve(games, steps):
        widths.append(len(games))
        return GameColumns(*np.zeros((6, len(games), steps)))

    with monkeypatch.context() as patch:
        patch.setattr(scan, "evolve_games", evolve)
        run_scan(config)
    return widths


@pytest.mark.parametrize("steps", [240, MAX_STEPS])
@pytest.mark.parametrize("share", [(0, 1), (1, 2)])
def test_batches_stay_within_the_game_step_budget(monkeypatch, steps, share):
    # a grid share of one cell, walked by evolve_verdicts at most 3 games a batch
    config = one_sided_config(max_period=3, horizon_steps=steps)
    cell = (config.coin_a, config.coin_b, config.eta_deg)
    pures = [(*cell, GameSequence("A")), (*cell, GameSequence("B"))]
    ((_, games),) = _share(config, pures, [cell], share)
    periods = [game[3].period for game in games]
    signs = [-1 if period == 1 else 1 for period in periods]
    wide = evolve_verdicts(games, steps, periods, signs, config.epsilon)
    budget = 3 * steps
    with monkeypatch.context() as patch, handed() as walks:
        patch.setattr(walk, "MAX_GAME_STEPS", budget)
        held = evolve_verdicts(games, steps, periods, signs, config.epsilon)
    widths = [widths[0] for widths in walks]
    assert max(widths) * steps <= budget
    assert max(widths) - min(widths) <= 1
    assert len(widths) == -(-len(games) // (budget // steps))  # no more than the budget needs
    assert sum(widths) == len(games) == (2 + len(enumerate_sequences(3))) // share[1]
    assert held.tolist() == wide.tolist()
    if share == (0, 1):  # a scan's calls are as wide at any horizon: 128 games at MAX_STEPS
        widths = scan_call_widths(monkeypatch, replace(config, max_period=12))
        widest = walk.MAX_GAME_STEPS // MAX_STEPS
        assert max(widths) <= widest and max(widths) - min(widths) <= 1
        assert len(widths) == -(-sum(widths) // widest)


@pytest.mark.parametrize("share", [(0, 1), (1, 2)])
def test_a_share_is_made_and_walked_one_batch_at_a_time(monkeypatch, share):
    config, pures, cells = grid_games(monkeypatch, one_sided_config(max_period=4, horizon_steps=60),
                                      README_AXES)
    whole = scan._tally(config, pures, cells, share)
    most, calls = 7, []

    def counted(games, steps, *args):
        with handed() as walks:
            held = evolve_verdicts(games, steps, *args)
        calls.append((len(games), len(walks)))
        return held

    with monkeypatch.context() as patch:
        patch.setattr(walk, "MAX_GAME_STEPS", most * config.horizon_steps)
        patch.setattr(scan, "evolve_verdicts", counted)
        assert scan._tally(config, pures, cells, share) == whole
    widths = [games for games, _ in calls]
    assert all(walked == 1 for _, walked in calls)  # each call is one batch of the kernel
    assert max(widths) <= most and max(widths) - min(widths) <= 1
    assert sum(widths) == len(share_games(config, pures, cells, share))
    assert len(widths) == -(-sum(widths) // most)


def test_a_share_lists_one_batch_of_games_at_a_time(monkeypatch):
    # a share of 3,400 games, listed whole before it was walked, peaked at about
    # 480 kB; one batch of 32 at a time, at about 80 kB
    axes = (GridAxis.linspace("beta_a", 6, 26, 8), GridAxis.linspace("beta_b", 65, 85, 8))
    config, pures, cells = grid_games(monkeypatch, one_sided_config(max_period=5, horizon_steps=5),
                                      axes)
    monkeypatch.setattr(walk, "MAX_GAME_STEPS", 32 * config.horizon_steps)
    tracemalloc.start()
    try:
        counts = scan._tally(config, pures, cells)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(share_games(config, pures, cells)) > 3000 and sum(counts) > 0
    assert peak < 1 << 18


def assert_cells_equal_their_scans(grid, base):
    for index in np.ndindex(grid.paradox.shape):
        cell = {axis.parameter: axis.values[i] for axis, i in zip(grid.axes, index)}
        coin_a, coin_b, eta_deg = _cell(base, cell)
        report = run_scan(replace(base, coin_a=coin_a, coin_b=coin_b, eta_deg=eta_deg))
        assert grid.paradox[index] == bool(report.paradox_sequences), cell
        assert grid.winning_counts[index] == sum(report.winning_by_period.values()), cell


@pytest.mark.parametrize("parameter", AXIS_PARAMETERS)
def test_axis_parameter_sets_its_own_field(parameter):
    base = one_sided_config()
    coin_a, coin_b, eta_deg = _cell(base, {parameter: 1.5})
    cell = replace(base, coin_a=coin_a, coin_b=coin_b, eta_deg=eta_deg)
    if parameter == "eta":
        assert cell == replace(base, eta_deg=1.5)
    else:
        angle, coin = parameter.split("_")
        coin_field = f"coin_{coin}"
        coin_params = replace(getattr(base, coin_field), **{f"{angle}_deg": 1.5})
        assert cell == replace(base, **{coin_field: coin_params})


@pytest.mark.parametrize(
    "workers, cells, cpus, expected",
    [
        (2, 25, 2, 2),  # the benchmark's regions grid keeps both workers
        (1024, 1024, 2, 2),
        (10**9, 64, None, 1),  # no affinity set and no CPU count: one process
        (4, 3, 64, 3),
        (1, 1024, 64, 1),
    ],
)
def test_pool_size_is_bounded_by_cells_and_cpus(monkeypatch, workers, cells, cpus, expected):
    tasks = record_pool_tasks(monkeypatch, cpus or 0)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    base = one_sided_config(max_period=2, horizon_steps=4)
    axes = [GridAxis("beta_a", tuple(range(cells)))]
    grid = scan_region_grid(base, axes, workers=workers)
    # this process evolves share 0, and share k runs on the k-th CPU
    assert [args[-2:] for args in tasks] == [((k, expected), k) for k in range(1, expected)]
    assert np.array_equal(grid.winning_counts, scan_region_grid(base, axes).winning_counts)


def test_pool_counts_the_cpus_this_process_may_use(monkeypatch):
    tasks = record_pool_tasks(monkeypatch, 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    base = one_sided_config(max_period=2, horizon_steps=12)
    axes = [GridAxis.linspace("beta_a", 6, 26, 4)]
    alone = scan_region_grid(base, axes)
    grid = scan_region_grid(base, axes, workers=4)
    assert tasks == []  # one CPU in the affinity set: no share process starts
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    unplaced = scan_region_grid(base, axes, workers=4)
    # where affinity is unknown, the host's count, and the share runs unplaced
    assert [args[-2:] for args in tasks] == [((1, 2), None)]
    for counts in (grid.winning_counts, unplaced.winning_counts):
        assert np.array_equal(counts, alone.winning_counts)


class TestEntropyComparison:
    def test_descending_order(self):
        report = run_scan(one_sided_config(horizon_steps=60))
        ranking = entropy_comparison(report)
        values = [entropy for _, entropy in ranking]
        assert values == sorted(values, reverse=True)
        assert all(0.0 <= v <= 1.0 + 1e-10 for v in values)
        assert {seq.tokens for seq, _ in ranking} == {
            r.sequence.tokens for r in report.results
        }

    def test_singleton_report(self):
        report = run_scan(one_sided_config(max_period=2, horizon_steps=24))
        trimmed = report.results[:1]
        singleton = type(report)(
            config=report.config,
            verdict_a=report.verdict_a,
            verdict_b=report.verdict_b,
            results=trimmed,
            paradox_sequences=(),
            winning_by_period={},
        )
        assert entropy_comparison(singleton) == [
            (trimmed[0].sequence, trimmed[0].max_entropy)
        ]
