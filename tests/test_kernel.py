"""The batched kernel ``evolve_games`` against the per-step reference path.

The reference is ``evolve_sequence`` (one full-width snapshot per step)
followed by ``trajectory_with_entropy`` and ``reduced_density``; the kernel
must equal it within 1e-12 at every step of every game, give each game the
same bits in any batch, and hold only O(G*T) memory. ``evolve_verdicts``,
the same loop observing one bias per payoff point, must give the verdicts
``payoff_verdicts`` gives on the full columns, however its batch shrinks.
"""

import tracemalloc
import numpy as np
import pytest

from qparrondo import (
    CapacityError,
    CoinParams,
    GameSequence,
    GameVerdict,
    GridAxis,
    InitialStateSpec,
    InvalidParameterError,
    ScanConfig,
    enumerate_sequences,
    evolve_sequence,
    game_trajectory,
    reduced_density,
    run_scan,
    scan_region_grid,
    trajectory_with_entropy,
)
from qparrondo import scan, walk
from qparrondo.metrics import bias, entropy_bits, payoff_verdicts
from qparrondo.scan import SequenceResult
from qparrondo.walk import MAX_STEPS, GameColumns, evolve_games, evolve_verdicts

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
    for chunk in (1, 5):  # games a scan's call
        monkeypatch.setattr(scan, "SCAN_CHUNK_GAME_STEPS", chunk * MAX_STEPS)
        assert run_scan(config) == whole, chunk


@pytest.mark.parametrize("chunk", [1, 7, 128])
@pytest.mark.parametrize("each_step", [False, True], ids=["payoff-points", "each-step"])
def test_region_grid_does_not_depend_on_the_chunk_size(monkeypatch, chunk, each_step):
    base = ScanConfig(**REGIME_ONE_SIDED, max_period=4, horizon_steps=60,
                      verdict_each_step=each_step, epsilon=1e-3 if each_step else 1e-9)
    axes = [GridAxis.linspace("beta_a", 6, 26, 3), GridAxis.linspace("eta", 0, 270, 3)]
    whole = scan_region_grid(base, axes)
    assert whole.winning_counts.any()
    monkeypatch.setattr(scan, "SCAN_CHUNK_GAME_STEPS", chunk * base.horizon_steps)
    grid = scan_region_grid(base, axes)
    assert np.array_equal(grid.paradox, whole.paradox)
    assert np.array_equal(grid.winning_counts, whole.winning_counts)


def repeated_unit(seq):
    """The shortest schedule that ``seq`` repeats, or None if it repeats none."""
    tokens = seq.tokens
    return next((tokens[:d] for d in range(1, len(tokens))
                 if len(tokens) % d == 0 and tokens == tokens[:d] * (len(tokens) // d)), None)


@pytest.mark.parametrize("each_step", [False, True], ids=["payoff-points", "each-step"])
@pytest.mark.parametrize("regime", REGIMES)
def test_a_repeated_schedule_equals_its_own_game(regime, each_step):
    config = ScanConfig(**REGIMES[regime], max_period=6, verdict_each_step=each_step)
    results = {r.sequence.tokens: r for r in run_scan(config).results}
    repeated = [r for r in results.values() if repeated_unit(r.sequence)]
    assert len(repeated) == 10
    for result in repeated:
        columns = kernel(REGIMES[regime], [result.sequence], config.horizon_steps)
        biases = bias(columns.p_left, columns.p_right)
        period = 1 if each_step else result.sequence.period
        alone = SequenceResult(
            result.sequence,
            payoff_verdicts(biases, [period], config.epsilon)[0],
            biases[0, -1].item(),
            biases.min().item(),
            entropy_bits(columns.rho00, columns.rho11, columns.rho01).max().item(),
        )
        assert result == alone, result.sequence
    # judged at its own payoff points, a schedule may differ from the one it repeats
    differ = [r for r in repeated if r.verdict is not results[repeated_unit(r.sequence)].verdict]
    assert bool(differ) != each_step


def expected_holds(biases, periods, signs, epsilon):
    """Per game: is it Winning (sign 1) or Losing (sign -1) by ``payoff_verdicts``?"""
    verdicts = payoff_verdicts(biases, periods, epsilon)
    return [v is (GameVerdict.WINNING if s > 0 else GameVerdict.LOSING)
            for v, s in zip(verdicts, signs)]


def margins(biases, periods, signs):
    """Per game, the least ``sign * bias`` over its payoff points."""
    steps = np.arange(1, biases.shape[1] + 1)
    return [float((sign * row[steps % period == 0]).min())
            for row, period, sign in zip(biases, periods, signs)]


def sharp_epsilons(biases, periods, signs):
    """0, 1e-3, and both sides of the largest positive margin: there a game
    holds or fails by one ulp of one bias."""
    best = max(margins(biases, periods, signs))
    epsilons = [0.0, 1e-3]
    if best > 0:
        epsilons += [best, float(np.nextafter(best, 0.0))]
    return epsilons


def traced_verdicts(monkeypatch, games, steps, periods, signs, epsilon):
    """``evolve_verdicts``, and the number of games in its batch at each step run."""
    widths = []
    evolve = walk._evolve

    def traced(coins, choice, phases, observe):
        def counted(t, w0, w1, columns):
            widths.append(len(columns))
            return observe(t, w0, w1, columns)
        evolve(coins, choice, phases, counted)

    with monkeypatch.context() as patch:
        patch.setattr(walk, "_evolve", traced)
        held = evolve_verdicts(games, steps, periods, signs, epsilon)
    return held.tolist(), widths


def random_coin(rng):
    return CoinParams(*rng.uniform(0.0, 360.0, 3))


@pytest.mark.parametrize("each_step", [False, True], ids=["payoff-points", "each-step"])
@pytest.mark.parametrize("seed", range(4))
def test_verdicts_equal_payoff_verdicts_on_the_full_columns(seed, each_step):
    rng = np.random.default_rng(seed)
    schedules = every_game(5)
    pairs = [(random_coin(rng), random_coin(rng)) for _ in range(3)]
    games = [(*pairs[rng.integers(len(pairs))], float(rng.uniform(0.0, 360.0)),
              schedules[rng.integers(len(schedules))]) for _ in range(40)]
    steps = int(rng.integers(5, 90))
    columns = evolve_games(games, steps)
    biases = bias(columns.p_left, columns.p_right)
    periods = [1 if each_step else seq.period for *_, seq in games]
    signs = np.where(biases[:, -1] > 0, 1, -1)  # most games keep the sign they end with
    for epsilon in sharp_epsilons(biases, periods, signs) + [float(rng.uniform(0.0, 0.05))]:
        held = evolve_verdicts(games, steps, periods, signs, epsilon)
        assert held.tolist() == expected_holds(biases, periods, signs, epsilon), epsilon


def scan_batch(regime, steps):
    """Every game of period <= 4 in ``regime`` with the scan's signs, and
    which of them hold."""
    games = [(regime["coin_a"], regime["coin_b"], regime["eta_deg"], seq) for seq in every_game(4)]
    columns = evolve_games(games, steps)
    biases = bias(columns.p_left, columns.p_right)
    periods = [seq.period for *_, seq in games]
    signs = [-1 if period == 1 else 1 for period in periods]
    return games, biases, periods, signs, expected_holds(biases, periods, signs, 1e-9)


def test_a_batch_that_shrinks_to_one_game_keeps_its_bits(monkeypatch):
    games, biases, periods, signs, holds = scan_batch(REGIME_ONE_SIDED, 120)
    keep = [holds.index(True)] + [g for g, held in enumerate(holds) if not held]
    assert len(keep) > 8
    picked = [[values[g] for g in keep] for values in (games, periods, signs)]
    for epsilon in sharp_epsilons(biases[keep], *picked[1:]):
        held, widths = traced_verdicts(monkeypatch, *picked[:1], 120, *picked[1:], epsilon)
        assert held == expected_holds(biases[keep], *picked[1:], epsilon), epsilon
        assert widths[0] == len(keep)
        if held[0]:  # the last live game ran on alone, to the horizon
            assert widths[-1] == 1 and len(widths) == 120


def test_a_batch_whose_games_all_retire_stops_early(monkeypatch):
    games, biases, periods, signs, holds = scan_batch(REGIME_DOUBLE_1, 120)
    lost = [g for g, held in enumerate(holds) if not held]
    assert len(lost) > 8
    held, widths = traced_verdicts(monkeypatch, [games[g] for g in lost], 120,
                                   [periods[g] for g in lost], [signs[g] for g in lost], 1e-9)
    assert not any(held)
    assert len(widths) < 120
    assert widths == sorted(widths, reverse=True)


def test_a_lone_game_equals_its_batch(monkeypatch):
    games, biases, periods, signs, holds = scan_batch(REGIME_ONE_SIDED, 120)
    for g in (holds.index(True), holds.index(False)):
        held, widths = traced_verdicts(monkeypatch, [games[g]], 120, [periods[g]], [signs[g]], 1e-9)
        assert held == [holds[g]]
        assert widths == [1] * len(widths)
        assert (len(widths) == 120) == holds[g]


def test_verdict_walks_over_the_step_budget_allocate_nothing():
    regime = REGIME_ONE_SIDED
    games = [(regime["coin_a"], regime["coin_b"], regime["eta_deg"], seq) for seq in every_game(12)]
    ones = [1] * len(games)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="budget"):
            evolve_verdicts(games, MAX_STEPS + 1, ones, ones, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "count, steps, eta, periods, signs, epsilon",
    [
        (1, 0, 90.0, [1], [1], 0.0),
        (0, 10, 90.0, [], [], 0.0),
        (1, 10, float("nan"), [1], [1], 0.0),
        (1, 10, 90.0, [1], [1], float("nan")),
        (1, 10, 90.0, [1], [1], -1e-9),
        (1, 10, 90.0, [1], [1], True),
        (1, 10, 90.0, [0], [1], 0.0),
        (1, 10, 90.0, [11], [1], 0.0),
        (2, 10, 90.0, [1], [1, 1], 0.0),
        (1, 10, 90.0, [1], [0], 0.0),
        (1, 10, 90.0, [1.5], [1], 0.0),
        (1, 10, 90.0, [True], [1], 0.0),
        (1, 10, 90.0, ["3"], [1], 0.0),
        (2, 10, 90.0, [[1], [1, 2]], [1, 1], 0.0),
    ],
    ids=["no-steps", "no-game", "nan-eta", "nan-epsilon", "negative-epsilon", "bool-epsilon",
         "period-0", "period-over-steps", "one-period-short", "sign-0", "fractional-period",
         "bool-period", "string-period", "ragged-periods"],
)
def test_verdicts_reject_invalid_input(count, steps, eta, periods, signs, epsilon):
    regime = REGIME_ONE_SIDED
    games = [(regime["coin_a"], regime["coin_b"], eta, GameSequence("A"))] * count
    with pytest.raises(InvalidParameterError):
        evolve_verdicts(games, steps, periods, signs, epsilon)


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
        ([GameSequence("AB")], 12.5, 90.0),
        ([GameSequence("AB")], True, 90.0),
        pytest.param([(REGIME_ONE_SIDED["coin_a"], REGIME_ONE_SIDED["coin_b"], 90.0)], 10, 90.0,
                     id="three-tuple-game"),
        pytest.param([(REGIME_ONE_SIDED["coin_a"], (0.0, 75.0, 160.0), 90.0, GameSequence("AB"))],
                     10, 90.0, id="coin-not-coin-params"),
        pytest.param(["AB"], 10, 90.0, id="string-schedule"),
    ],
)
def test_rejects_invalid_input(schedules, steps, eta):
    # a whole game is passed as it is; a game of the wrong kind raised ValueError or AttributeError
    regime = REGIME_ONE_SIDED
    games = [seq if isinstance(seq, tuple) else (regime["coin_a"], regime["coin_b"], eta, seq)
             for seq in schedules]
    with pytest.raises(InvalidParameterError):
        evolve_games(games, steps)
