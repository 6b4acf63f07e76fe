"""Invariant suites: oracle equivalences, symmetries, and determinism."""

import io

import numpy as np
import pytest

from qparrondo import (
    CoinParams,
    GameSequence,
    GridAxis,
    InitialStateSpec,
    ScanConfig,
    WalkerState,
    apply_shift,
    bias_sample,
    classify,
    entanglement_entropy,
    enumerate_sequences,
    evolve_sequence,
    initial_state,
    make_coin,
    reduced_density,
    run_scan,
    scan_region_grid,
    step,
    trajectory_with_entropy,
)
from qparrondo.io import write_scan_json

from benchmarks import REGIME_DOUBLE_1, REGIME_DOUBLE_2, REGIME_ONE_SIDED
from oracle import dense_step_matrix, dense_step_oracle

REGIMES = (REGIME_DOUBLE_1, REGIME_DOUBLE_2, REGIME_ONE_SIDED)


def random_coin_params(rng):
    return CoinParams(*rng.uniform(-180, 180, size=3))


def walk_states(rng, half_width, steps, eta=None):
    state = initial_state(
        InitialStateSpec(eta_deg=rng.uniform(0, 360) if eta is None else eta),
        half_width,
    )
    out = []
    for _ in range(steps):
        state = step(state, make_coin(random_coin_params(rng)))
        out.append(state)
    return out


class TestNormPreservation:
    def test_drift_over_thousand_steps(self):
        coins = [make_coin(REGIME_DOUBLE_1["coin_a"]), make_coin(REGIME_DOUBLE_1["coin_b"])]
        state = initial_state(InitialStateSpec(eta_deg=270), half_width=1000)
        worst = 0.0
        for k in range(1000):
            state = step(state, coins[k % 2])
            worst = max(worst, abs(state.norm() - 1.0))
        assert worst < 1e-10


class TestDenseOracle:
    def test_agrees_with_sparse_step(self):
        rng = np.random.default_rng(31)
        for half_width in (2, 6, 12):
            states = walk_states(rng, half_width, half_width - 1)
            for state in states:
                coin = make_coin(random_coin_params(rng))
                fast = step(state, coin)
                slow = dense_step_oracle(state, coin)
                assert np.abs(fast.amplitudes - slow.amplitudes).max() < 1e-12
                assert slow.step == fast.step

    def test_identity_coin_reduces_to_shift(self):
        rng = np.random.default_rng(37)
        state = walk_states(rng, 6, 3)[-1]
        oracle = dense_step_oracle(state, make_coin(CoinParams(0, 0, 0)))
        shifted = apply_shift(state)
        assert np.abs(oracle.amplitudes - shifted.amplitudes).max() < 1e-12

    def test_dense_matrix_is_unitary(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            matrix = dense_step_matrix(make_coin(random_coin_params(rng)), half_width=5)
            identity = np.eye(matrix.shape[0])
            assert np.abs(matrix @ matrix.conj().T - identity).max() < 1e-12

    def test_capacity_guard(self):
        state = initial_state(InitialStateSpec(eta_deg=0), half_width=13)
        with pytest.raises(ValueError, match="limited"):
            dense_step_oracle(state, make_coin(CoinParams(0, 0, 0)))


class TestGlobalPhaseInvariance:
    def test_observables_unchanged(self):
        rng = np.random.default_rng(43)
        schedule = [make_coin(random_coin_params(rng)) for _ in range(8)]
        base = initial_state(InitialStateSpec(eta_deg=120), half_width=8)
        phased = WalkerState(
            step=0, half_width=8,
            amplitudes=np.exp(1j * 0.7343) * base.amplitudes,
        )
        for coin in schedule:
            base = step(base, coin)
            phased = step(phased, coin)
            assert np.abs(base.site_probabilities() - phased.site_probabilities()).max() < 1e-14
            assert bias_sample(base).bias == pytest.approx(bias_sample(phased).bias, abs=1e-14)
            assert entanglement_entropy(reduced_density(base)) == pytest.approx(
                entanglement_entropy(reduced_density(phased)), abs=1e-12
            )


class TestComposition:
    def test_whole_periods_equal_repeated_composite(self):
        # n*period steps of the schedule equal n applications of the
        # one-period composite unitary.
        seq = GameSequence("ABB")
        coin_a, coin_b = REGIME_ONE_SIDED["coin_a"], REGIME_ONE_SIDED["coin_b"]
        periods = 3
        half_width = seq.period * periods
        snapshots = evolve_sequence(
            InitialStateSpec(eta_deg=90), coin_a, coin_b, seq,
            total_steps=half_width,
        )
        matrices = {"A": make_coin(coin_a), "B": make_coin(coin_b)}
        composite = np.eye(2 * (2 * half_width + 1), dtype=complex)
        for token in seq.tokens:
            composite = dense_step_matrix(matrices[token], half_width) @ composite
        flat = initial_state(InitialStateSpec(eta_deg=90), half_width).amplitudes.reshape(-1)
        for n in range(1, periods + 1):
            flat = composite @ flat
            reference = snapshots[n * seq.period - 1].amplitudes.reshape(-1)
            assert np.abs(flat - reference).max() < 1e-10


class TestPartialTraceOracle:
    def test_reduced_density_equals_outer_product_blocks(self):
        rng = np.random.default_rng(47)
        for state in walk_states(rng, 8, 7):
            n = 2 * state.half_width + 1
            flat = state.amplitudes.reshape(-1)
            full = np.outer(flat, flat.conj())
            expected = np.empty((2, 2), dtype=complex)
            for c in range(2):
                for d in range(2):
                    expected[c, d] = np.trace(full[c * n:(c + 1) * n, d * n:(d + 1) * n])
            assert np.abs(reduced_density(state) - expected).max() < 1e-12


class TestMirrorAntisymmetry:
    def test_partner_walk_reflects_the_distribution(self):
        # Swapping the coin basis states in the initial superposition and
        # conjugating the schedule by that swap mirrors the walk: the
        # partner of coin (a, b, g) at phase eta is coin (-a, b, 180 - g)
        # at phase -eta.
        rng = np.random.default_rng(53)
        swap = np.array([[0, 1], [1, 0]])
        for _ in range(6):
            params = random_coin_params(rng)
            partner = CoinParams(
                -params.alpha_deg, params.beta_deg, 180.0 - params.gamma_deg
            )
            assert np.abs(
                make_coin(partner) - swap @ make_coin(params) @ swap
            ).max() < 1e-12

            eta = rng.uniform(0, 360)
            state = initial_state(InitialStateSpec(eta_deg=eta), half_width=10)
            mirror = initial_state(InitialStateSpec(eta_deg=-eta), half_width=10)
            coin, coin_partner = make_coin(params), make_coin(partner)
            for _ in range(10):
                state = step(state, coin)
                mirror = step(mirror, coin_partner)
                assert np.abs(
                    state.site_probabilities() - mirror.site_probabilities()[::-1]
                ).max() < 1e-12
                assert bias_sample(state).bias == pytest.approx(
                    -bias_sample(mirror).bias, abs=1e-12
                )


class TestVerdictStability:
    @pytest.mark.parametrize("regime", REGIMES, ids=("double1", "double2", "one_sided"))
    def test_epsilon_insensitive_on_benchmark_regimes(self, regime):
        # Boundary biases in these regimes stay far from zero, so the
        # draw threshold cannot change any verdict.
        sequences = [GameSequence("A"), GameSequence("B")] + enumerate_sequences(4)
        for seq in sequences:
            snapshots = evolve_sequence(
                InitialStateSpec(eta_deg=regime["eta_deg"]),
                regime["coin_a"], regime["coin_b"], seq, total_steps=240,
            )
            trajectory = trajectory_with_entropy(snapshots)
            verdicts = {
                classify(trajectory, epsilon=eps, period=seq.period)
                for eps in (1e-12, 1e-9, 1e-6)
            }
            assert len(verdicts) == 1, seq.tokens


class TestScanDeterminism:
    def test_reports_and_bytes_are_identical(self):
        config = ScanConfig(
            coin_a=REGIME_ONE_SIDED["coin_a"],
            coin_b=REGIME_ONE_SIDED["coin_b"],
            eta_deg=REGIME_ONE_SIDED["eta_deg"],
            max_period=3,
            horizon_steps=60,
        )
        first, second = run_scan(config), run_scan(config)
        assert first == second
        sink_a, sink_b = io.StringIO(), io.StringIO()
        write_scan_json(first, sink_a)
        write_scan_json(second, sink_b)
        assert sink_a.getvalue().encode() == sink_b.getvalue().encode()


class TestParallelSerialEquivalence:
    def test_grid_identical_for_one_and_two_workers(self):
        base = ScanConfig(
            coin_a=REGIME_ONE_SIDED["coin_a"],
            coin_b=REGIME_ONE_SIDED["coin_b"],
            eta_deg=REGIME_ONE_SIDED["eta_deg"],
            max_period=2,
            horizon_steps=24,
        )
        axes = [GridAxis.linspace("beta_a", 6, 26, 2), GridAxis.linspace("beta_b", 65, 85, 2)]
        serial = scan_region_grid(base, axes, workers=1)
        parallel = scan_region_grid(base, axes, workers=2)
        assert np.array_equal(serial.paradox, parallel.paradox)
        assert np.array_equal(serial.winning_counts, parallel.winning_counts)


class TestEnumerationCounts:
    def test_totals_match_closed_form(self):
        total = len(enumerate_sequences(12))
        assert total == sum(2**n - 2 for n in range(2, 13))


class TestSupportConfinement:
    def test_amplitudes_outside_cone_are_exactly_zero(self):
        rng = np.random.default_rng(59)
        state = initial_state(InitialStateSpec(eta_deg=77), half_width=20)
        for t in range(1, 21):
            state = step(state, make_coin(random_coin_params(rng)))
            sites = state.positions()
            outside = np.abs(sites) > t
            wrong_parity = (sites % 2) != (t % 2)
            assert np.all(state.amplitudes[:, outside] == 0)
            assert np.all(state.amplitudes[:, wrong_parity] == 0)


class TestParadoxSoundness:
    def test_paradox_members_win_at_every_boundary(self):
        config = ScanConfig(
            coin_a=REGIME_ONE_SIDED["coin_a"],
            coin_b=REGIME_ONE_SIDED["coin_b"],
            eta_deg=REGIME_ONE_SIDED["eta_deg"],
            max_period=4,
            horizon_steps=240,
        )
        report = run_scan(config)
        assert report.paradox_sequences, "regime is a known paradox point"

        def boundary_biases(tokens):
            seq = GameSequence(tokens)
            snapshots = evolve_sequence(
                InitialStateSpec(eta_deg=config.eta_deg),
                config.coin_a, config.coin_b, seq, config.horizon_steps,
            )
            biases = np.array([bias_sample(s).bias for s in snapshots])
            return biases[seq.period - 1 :: seq.period]

        for tokens in ("A", "B"):
            assert np.all(boundary_biases(tokens) < -config.epsilon)
        for tokens in report.paradox_sequences:
            assert np.all(boundary_biases(tokens) > config.epsilon)
