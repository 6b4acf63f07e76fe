import concurrent.futures
import os
from dataclasses import replace

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

from qparrondo import scan
from qparrondo.scan import AXIS_PARAMETERS, _cell, _pool_size, _usable_cpus
from qparrondo.walk import MAX_STEPS

from benchmarks import REGIME_DOUBLE_1, REGIME_ONE_SIDED


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
        ],
        ids=["string-values", "string-value", "fractional-count", "bool-count", "zero-count",
             "number-values", "bool-value", "bool-start", "string-start"],
    )
    def test_rejects_values_and_counts_of_the_wrong_type(self, build):
        with pytest.raises(InvalidParameterError):
            build()

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
    def test_every_cell_equals_its_own_scan(self, axes, base):
        # 9 cells of 24 games run as two chunks of 108, so some cells span both
        assert scan.SCAN_CHUNK_GAMES < 9 * 24 <= 2 * scan.SCAN_CHUNK_GAMES
        grid = scan_region_grid(base, axes)
        for index in np.ndindex(grid.paradox.shape):
            cell = {axis.parameter: axis.values[i] for axis, i in zip(axes, index)}
            coin_a, coin_b, eta_deg = _cell(base, cell)
            report = run_scan(replace(base, coin_a=coin_a, coin_b=coin_b, eta_deg=eta_deg))
            assert grid.paradox[index] == bool(report.paradox_sequences), cell
            assert grid.winning_counts[index] == sum(report.winning_by_period.values()), cell

    def test_grid_is_the_same_at_any_worker_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        base = one_sided_config(horizon_steps=60)
        axes = [GridAxis.linspace("beta_a", 0, 30, 7)]  # 7 cells: blocks of 3+4 and 2+2+3
        grids = [scan_region_grid(base, axes, workers=workers) for workers in (1, 2, 3)]
        assert len(set(grids[0].winning_counts.tolist())) > 1
        for grid in grids[1:]:
            assert np.array_equal(grid.paradox, grids[0].paradox)
            assert np.array_equal(grid.winning_counts, grids[0].winning_counts)

    def test_step_budget_is_checked_before_any_process_starts(self, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        axes = [GridAxis.linspace("beta_a", 6, 26, 2)]
        with pytest.raises(CapacityError, match="budget"):
            scan_region_grid(one_sided_config(horizon_steps=MAX_STEPS + 1), axes, workers=2)
        # within the budget the same grid asks for the pool
        with pytest.raises(AssertionError, match="pool"):
            scan_region_grid(one_sided_config(max_period=2, horizon_steps=4), axes, workers=2)


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
        (10**9, 10**9, None, 1),
        (4, 3, 64, 3),
        (1, 1024, 64, 1),
    ],
)
def test_pool_size_is_bounded_by_cells_and_cpus(workers, cells, cpus, expected):
    assert _pool_size(workers, cells, cpus) == expected


def test_pool_counts_the_cpus_this_process_may_use(monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _usable_cpus() == 1
    base = one_sided_config(max_period=2, horizon_steps=12)
    axes = [GridAxis.linspace("beta_a", 6, 26, 4)]
    grid = scan_region_grid(base, axes, workers=4)  # one process: the pool is never asked for
    assert np.array_equal(grid.winning_counts, scan_region_grid(base, axes).winning_counts)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _usable_cpus() == 2  # where affinity is unknown, the host's count


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
