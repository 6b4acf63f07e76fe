"""The batched kernel ``evolve_games`` against the per-step reference path.

The reference is ``evolve_sequence`` (one full-width snapshot per step)
followed by ``trajectory_with_entropy`` and ``reduced_density``; the kernel
must equal it within 1e-12 at every step of every game, give each game the
same bits in any batch, and hold only O(G*T) memory.
"""

import tracemalloc
import numpy as np
import pytest

from qparrondo import (
    CapacityError,
    GameSequence,
    InitialStateSpec,
    InvalidParameterError,
    ScanConfig,
    enumerate_sequences,
    evolve_sequence,
    game_trajectory,
    reduced_density,
    run_scan,
    trajectory_with_entropy,
)
from qparrondo import scan
from qparrondo.metrics import bias, entropy_bits
from qparrondo.walk import MAX_SNAPSHOT_BYTES, MAX_STEPS, GameColumns, evolve_games

from benchmarks import REGIME_DOUBLE_1, REGIME_DOUBLE_2, REGIME_ONE_SIDED

TOL = 1e-12
REGIMES = {"OS": REGIME_ONE_SIDED, "D1": REGIME_DOUBLE_1, "D2": REGIME_DOUBLE_2}


def every_game(max_period):
    return [GameSequence("A"), GameSequence("B"), *enumerate_sequences(max_period)]


def kernel(regime, schedules, steps):
    return evolve_games(
        [(regime["coin_a"], regime["coin_b"], regime["eta_deg"], seq) for seq in schedules], steps
    )


def kernel_rows(columns, g):
    """Per step of game ``g``: p_left, p_origin, p_right, bias, entropy,
    rho00, rho11, rho01."""
    return np.column_stack([
        columns.p_left[g], columns.p_origin[g], columns.p_right[g],
        bias(columns.p_left, columns.p_right)[g],
        entropy_bits(columns.rho00, columns.rho11, columns.rho01)[g],
        columns.rho00[g], columns.rho11[g], columns.rho01[g],
    ])


def reference_rows(regime, seq, steps):
    snapshots = evolve_sequence(
        InitialStateSpec(eta_deg=regime["eta_deg"]), regime["coin_a"], regime["coin_b"],
        seq, steps,
    )
    trajectory = trajectory_with_entropy(snapshots)
    rho = np.array([reduced_density(snap) for snap in snapshots])
    return np.column_stack([
        trajectory.p_left, trajectory.p_origin, trajectory.p_right,
        trajectory.bias, trajectory.entropy,
        rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 0, 1],
    ])


def assert_matches_reference(regime, schedules, steps):
    columns = kernel(regime, schedules, steps)
    for g, seq in enumerate(schedules):
        gap = np.abs(kernel_rows(columns, g) - reference_rows(regime, seq, steps)).max()
        assert gap <= TOL, f"{seq.tokens} at T={steps}: largest gap {gap}"


@pytest.mark.parametrize("regime", REGIMES)
def test_every_game_matches_the_reference_path(regime):
    assert_matches_reference(REGIMES[regime], every_game(6), 240)


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_shortest_walks_match_the_reference_path(steps):
    for regime in REGIMES.values():
        assert_matches_reference(regime, every_game(4), steps)


def test_games_are_bitwise_identical_in_any_batch():
    games = every_game(6)
    whole = kernel(REGIME_ONE_SIDED, games, 240)
    for size in (1, 7):
        parts = [kernel(REGIME_ONE_SIDED, games[i:i + size], 240)
                 for i in range(0, len(games), size)]
        for name in GameColumns._fields:
            joined = np.concatenate([getattr(part, name) for part in parts])
            assert np.array_equal(joined, getattr(whole, name)), (size, name)


def test_games_of_mixed_cells_equal_their_own_pair_calls():
    games = every_game(4)
    cells = [dict(regime, eta_deg=eta) for regime in REGIMES.values() for eta in (0.0, 90.0, 270.0)]
    mixed = [(cell["coin_a"], cell["coin_b"], cell["eta_deg"], seq) for cell in cells for seq in games]
    order = np.random.default_rng(0).permutation(len(mixed))  # neighbours come from other cells
    together = evolve_games([mixed[i] for i in order], 120)
    row_of = np.argsort(order)
    for c, cell in enumerate(cells):
        rows = row_of[c * len(games):(c + 1) * len(games)]
        alone = kernel(cell, games, 120)
        for name in GameColumns._fields:
            assert np.array_equal(getattr(together, name)[rows], getattr(alone, name)), (c, name)


def test_scan_report_does_not_depend_on_the_chunk_size(monkeypatch):
    config = ScanConfig(**REGIME_ONE_SIDED, max_period=4, horizon_steps=60)
    whole = run_scan(config)
    monkeypatch.setattr(scan, "SCAN_CHUNK_GAMES", 5)
    assert run_scan(config) == whole


def test_simulate_equals_the_scan_game():
    config = ScanConfig(**REGIME_DOUBLE_2, max_period=3, horizon_steps=90)
    result = next(r for r in run_scan(config).results if r.sequence.tokens == "ABB")
    trajectory = game_trajectory(
        config.coin_a, config.coin_b, config.eta_deg, GameSequence("ABB"), 90
    )
    assert result.final_bias == trajectory.bias[-1]
    assert result.min_bias == trajectory.bias.min()
    assert result.max_entropy == trajectory.entropy.max()


def test_long_trajectory_keeps_no_snapshots():
    tracemalloc.start()
    try:
        trajectory = game_trajectory(
            REGIME_ONE_SIDED["coin_a"], REGIME_ONE_SIDED["coin_b"],
            REGIME_ONE_SIDED["eta_deg"], GameSequence("ABB"), 2400,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trajectory.bias) == 2400
    assert peak < 16 << 20


def test_step_cap_is_the_snapshot_budget_horizon():
    def snapshot_bytes(steps):
        return steps * 2 * (2 * steps + 1) * 16

    assert snapshot_bytes(MAX_STEPS) <= MAX_SNAPSHOT_BYTES < snapshot_bytes(MAX_STEPS + 1)


@pytest.mark.parametrize("steps", [MAX_STEPS + 1, 10**6])
def test_rejects_walks_over_the_step_budget_before_allocating(steps):
    regime = REGIME_ONE_SIDED
    games = [(regime["coin_a"], regime["coin_b"], regime["eta_deg"], seq) for seq in every_game(12)]
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="budget"):
            evolve_games(games, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "schedules, steps, eta",
    [
        ([GameSequence("AB")], 0, 90.0),
        ([], 10, 90.0),
        ([GameSequence("AB")], 10, float("nan")),
        ([GameSequence("AB")], 10, float("inf")),
    ],
)
def test_rejects_invalid_input(schedules, steps, eta):
    regime = dict(REGIME_ONE_SIDED, eta_deg=eta)
    with pytest.raises(InvalidParameterError):
        kernel(regime, schedules, steps)
