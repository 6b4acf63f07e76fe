import math

import numpy as np
import pytest

from qparrondo import (
    CoinParams,
    GameSequence,
    GameVerdict,
    InitialStateSpec,
    InvalidParameterError,
    BiasSample,
    BiasTrajectory,
    game_trajectory,
    bias_sample,
    classify,
    entanglement_entropy,
    evolve_sequence,
    initial_state,
    make_coin,
    reduced_density,
    step,
    trajectory_with_entropy,
)
from qparrondo.metrics import payoff_verdicts

from benchmarks import (
    REFERENCE_TOL,
    GAME_A_BIASES,
    GAME_A_SITE_PROBS,
    GAME_ABB_BIAS,
    GAME_B_BIASES,
    GAME_B_SITE_PROBS,
    REGIME_DOUBLE_1,
    REGIME_ONE_SIDED,
)


def one_sided_snapshots(tokens, steps):
    return evolve_sequence(
        InitialStateSpec(eta_deg=REGIME_ONE_SIDED["eta_deg"]),
        REGIME_ONE_SIDED["coin_a"],
        REGIME_ONE_SIDED["coin_b"],
        GameSequence(tokens),
        total_steps=steps,
    )


def synthetic_trajectory(biases):
    biases = np.asarray(biases, dtype=float)
    return BiasTrajectory(
        p_left=(1 - biases) / 2,
        p_origin=np.zeros_like(biases),
        p_right=(1 + biases) / 2,
        entropy=np.zeros_like(biases),
    )


class TestBiasSample:
    def test_pure_game_a_step_one(self):
        sample = bias_sample(one_sided_snapshots("A", 1)[0])
        assert sample.p_left == pytest.approx(0.6079, abs=REFERENCE_TOL)
        assert sample.p_right == pytest.approx(0.3923, abs=REFERENCE_TOL)
        assert sample.bias == pytest.approx(-0.2155, abs=REFERENCE_TOL)

    def test_pure_game_b_step_two_keeps_origin_out(self):
        sample = bias_sample(one_sided_snapshots("B", 2)[1])
        assert sample.p_left == pytest.approx(0.0392, abs=REFERENCE_TOL)
        assert sample.p_origin == pytest.approx(0.9330, abs=REFERENCE_TOL)
        assert sample.p_right == pytest.approx(0.0278, abs=REFERENCE_TOL)
        assert sample.bias == pytest.approx(-0.0115, abs=REFERENCE_TOL)

    def test_abb_full_period(self):
        sample = bias_sample(one_sided_snapshots("ABB", 3)[2])
        assert sample.bias == pytest.approx(GAME_ABB_BIAS, abs=REFERENCE_TOL)

    def test_probability_closure(self):
        rng = np.random.default_rng(2)
        state = initial_state(InitialStateSpec(eta_deg=17), half_width=12)
        for _ in range(12):
            state = step(state, make_coin(CoinParams(*rng.uniform(-180, 180, 3))))
            sample = bias_sample(state)
            total = sample.p_left + sample.p_origin + sample.p_right
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(InvalidParameterError):
            BiasSample(step=1, p_left=0.9, p_origin=0.2, p_right=0.2, bias=-0.7)


class TestClassify:
    def test_all_positive_wins(self):
        assert classify(synthetic_trajectory([0.1, 0.2, 0.05])) is GameVerdict.WINNING

    def test_all_negative_loses(self):
        assert classify(synthetic_trajectory([-0.1, -0.2])) is GameVerdict.LOSING

    def test_zero_bias_draws(self):
        assert classify(synthetic_trajectory([0.0, 1e-12])) is GameVerdict.DRAW

    def test_sign_change_is_mixed(self):
        assert classify(synthetic_trajectory([0.1, -0.1])) is GameVerdict.MIXED

    def test_period_selects_samples(self):
        # Negative off-boundary samples are ignored at period 3.
        trajectory = synthetic_trajectory([-0.5, -0.2, 0.1, -0.4, -0.1, 0.2])
        assert classify(trajectory, period=3) is GameVerdict.WINNING
        assert classify(trajectory, period=1) is GameVerdict.MIXED

    def test_pure_games_lose_in_double_sided_regime(self):
        for tokens in ("A", "B"):
            snapshots = evolve_sequence(
                InitialStateSpec(eta_deg=REGIME_DOUBLE_1["eta_deg"]),
                REGIME_DOUBLE_1["coin_a"],
                REGIME_DOUBLE_1["coin_b"],
                GameSequence(tokens),
                total_steps=240,
            )
            trajectory = trajectory_with_entropy(snapshots)
            assert classify(trajectory) is GameVerdict.LOSING

    def test_abb_wins_in_double_sided_regime(self):
        snapshots = evolve_sequence(
            InitialStateSpec(eta_deg=REGIME_DOUBLE_1["eta_deg"]),
            REGIME_DOUBLE_1["coin_a"],
            REGIME_DOUBLE_1["coin_b"],
            GameSequence("ABB"),
            total_steps=240,
        )
        trajectory = trajectory_with_entropy(snapshots)
        assert classify(trajectory, period=3) is GameVerdict.WINNING

    def test_identity_coin_draws(self):
        identity = CoinParams(0, 0, 0)
        snapshots = evolve_sequence(
            InitialStateSpec(eta_deg=45), identity, identity,
            GameSequence("AB"), total_steps=30,
        )
        trajectory = trajectory_with_entropy(snapshots)
        assert classify(trajectory) is GameVerdict.DRAW

    def test_rejects_bad_period(self):
        with pytest.raises(InvalidParameterError):
            classify(synthetic_trajectory([0.1]), period=0)

    @pytest.mark.parametrize("period", [1.5, True, "3", None])
    def test_rejects_a_period_that_is_not_an_integer(self, period):
        # a fractional period read as Winning, True as 1, and a string raised numpy's error
        with pytest.raises(InvalidParameterError, match="period"):
            classify(synthetic_trajectory([0.1, 0.2, 0.3]), period=period)

    def test_rejects_period_beyond_horizon(self):
        with pytest.raises(InvalidParameterError):
            classify(synthetic_trajectory([0.1, 0.2]), period=3)


class TestPayoffVerdicts:
    @pytest.mark.parametrize("periods", [[1], [1, 1, 1]])
    def test_needs_one_period_per_row(self, periods):
        with pytest.raises(InvalidParameterError, match="one period per bias row"):
            payoff_verdicts(np.zeros((2, 5)), periods)

    @pytest.mark.parametrize(
        "periods", [[1, 2.0], [1, np.True_], [1, "2"], pytest.param([[1], [1, 2]], id="ragged")])
    def test_rejects_periods_that_are_not_integers(self, periods):
        # a ragged list raised numpy's ValueError before its periods were checked
        with pytest.raises(InvalidParameterError, match="period"):
            payoff_verdicts(np.full((2, 5), 0.1), periods)

    @pytest.mark.parametrize("shape", [(), (5,), (2, 5, 1)], ids=["scalar", "1-d", "3-d"])
    def test_rejects_biases_that_are_not_a_table(self, shape):
        # a 1-D array raised IndexError and a 3-D one numpy's ValueError
        with pytest.raises(InvalidParameterError, match="biases"):
            payoff_verdicts(np.full(shape, 0.1), [1, 1])

    @pytest.mark.parametrize("biases, periods", [([[0.1], [0.1, 0.2]], [1, 1]), ("ab", [1])],
                             ids=["ragged", "string"])
    def test_rejects_biases_that_are_not_numbers(self, biases, periods):
        # both raised numpy's ValueError
        with pytest.raises(InvalidParameterError, match="biases"):
            payoff_verdicts(biases, periods, 0.0)

    def test_accepts_numpy_integer_periods(self):
        verdicts = payoff_verdicts(np.full((2, 5), 0.1), np.array([1, 5]))
        assert verdicts == [GameVerdict.WINNING] * 2

    def test_no_rows_give_no_verdicts(self):
        assert payoff_verdicts(np.zeros((0, 5)), []) == []

    @pytest.mark.parametrize("epsilon", [-1.0, -1e-12, math.inf, math.nan, "0.1", True])
    def test_rejects_negative_or_non_finite_epsilon(self, epsilon):
        # such thresholds would read a draw as Winning (-1), a 0.5 bias as Draw (inf)
        # and every row as Mixed (nan)
        biases = np.array([[0.0, 0.0], [0.5, 0.5]])
        with pytest.raises(InvalidParameterError, match="epsilon"):
            payoff_verdicts(biases, [1, 1], epsilon)
        with pytest.raises(InvalidParameterError, match="epsilon"):
            classify(synthetic_trajectory([0.0, 0.0]), epsilon=epsilon)


class TestReducedDensity:
    def test_initial_product_state_is_rank_one(self):
        state = initial_state(InitialStateSpec(eta_deg=60), half_width=3)
        rho = reduced_density(state)
        eigenvalues = np.sort(np.linalg.eigvalsh(rho))
        assert eigenvalues == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_disjoint_supports_give_diagonal_density(self):
        rho = reduced_density(one_sided_snapshots("A", 1)[0])
        assert abs(rho[0, 1]) < 1e-12
        assert rho[0, 0].real == pytest.approx(0.3923, abs=REFERENCE_TOL)
        assert rho[1, 1].real == pytest.approx(0.6077, abs=REFERENCE_TOL)

    def test_hermitian_unit_trace_on_random_states(self):
        rng = np.random.default_rng(9)
        state = initial_state(InitialStateSpec(eta_deg=10), half_width=10)
        for _ in range(10):
            state = step(state, make_coin(CoinParams(*rng.uniform(-180, 180, 3))))
            rho = reduced_density(state)
            assert np.abs(rho - rho.conj().T).max() < 1e-12
            assert (rho[0, 0] + rho[1, 1]).real == pytest.approx(1.0, abs=1e-10)


class TestEntanglementEntropy:
    def test_pure_state_has_zero_entropy(self):
        state = initial_state(InitialStateSpec(eta_deg=200), half_width=2)
        assert entanglement_entropy(reduced_density(state)) == 0.0

    def test_maximally_mixed_has_unit_entropy(self):
        assert entanglement_entropy(np.diag([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)

    def test_matches_scalar_binary_entropy(self):
        p = 0.3923
        expected = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert entanglement_entropy(np.diag([p, 1 - p])) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.9665, abs=REFERENCE_TOL)

    def test_clamps_round_off_eigenvalues(self):
        rho = np.diag([1.0 + 5e-13, -5e-13])
        assert entanglement_entropy(rho) == 0.0

    def test_rejects_wrong_shape(self):
        for rho in (np.eye(3), [[0.5, 0], [0.5]]):  # the second is ragged
            with pytest.raises(InvalidParameterError):
                entanglement_entropy(rho)


class TestTrajectoryWithEntropy:
    def test_biases_match_pinned_tables(self):
        for tokens, biases, sites in (
            ("A", GAME_A_BIASES, GAME_A_SITE_PROBS),
            ("B", GAME_B_BIASES, GAME_B_SITE_PROBS),
        ):
            trajectory = trajectory_with_entropy(one_sided_snapshots(tokens, 3))
            assert len(trajectory.bias) == len(trajectory.entropy) == 3
            for t in (1, 2, 3):
                assert trajectory.bias[t - 1] == pytest.approx(biases[t], abs=REFERENCE_TOL)
                assert np.isfinite(trajectory.entropy[t - 1])

    def test_entropy_within_subsystem_bound(self):
        trajectory = trajectory_with_entropy(one_sided_snapshots("ABB", 60))
        entropies = trajectory.entropy
        assert np.all(entropies >= 0.0)
        assert np.all(entropies <= 1.0 + 1e-10)

    def test_metadata_is_attached(self):
        trajectory = trajectory_with_entropy(
            one_sided_snapshots("A", 2), metadata={"sequence": "A"}
        )
        assert trajectory.metadata["sequence"] == "A"

    def test_rejects_empty_list(self):
        with pytest.raises(InvalidParameterError):
            trajectory_with_entropy([])

    def test_rejects_unordered_snapshots(self):
        snapshots = one_sided_snapshots("A", 3)
        with pytest.raises(InvalidParameterError):
            trajectory_with_entropy(snapshots[::-1])


def valid_columns(steps=40):
    """Columns of a valid trajectory whose bias runs from -0.5 to 0.5."""
    biases = np.linspace(-0.5, 0.5, steps)
    return {
        "p_left": (1 - biases) / 2, "p_origin": np.zeros(steps),
        "p_right": (1 + biases) / 2, "entropy": np.full(steps, 0.5),
    }


def one_step_changed(name, step, value):
    columns = valid_columns()
    columns[name][step - 1] = value
    return columns


class TestBiasTrajectory:
    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            BiasTrajectory(p_left=[], p_origin=[], p_right=[], entropy=[])

    @pytest.mark.parametrize(
        "columns, message",
        [
            (valid_columns(0), "at least one step"),
            (dict(valid_columns(), p_right=np.full(39, 0.5)), "equal length"),
            ({name: column[None, :] for name, column in valid_columns().items()}, "1-D"),
            (one_step_changed("p_origin", 18, 1e-9), "sum to 1, got .* at step 18"),
            (one_step_changed("p_left", 40, np.nan), "sum to 1, got nan at step 40"),
            (one_step_changed("entropy", 7, 1.0 + 1e-9), "entropy out of"),
            (one_step_changed("entropy", 7, -1e-9), "entropy out of"),
            (one_step_changed("entropy", 7, np.nan), "entropy out of"),
            (dict(p_left=[[0.1], [0.2, 0.3]], p_origin=[0.1], p_right=[0.1], entropy=[0.1]),
             "p_left must be an array"),
            (dict(valid_columns(), entropy="ab"), "entropy must be an array"),
        ],
        ids=["empty", "unequal-length", "two-dimensional", "sides-miss-1-at-one-step",
             "nan-side", "entropy-above-1", "entropy-below-0", "nan-entropy", "ragged-side",
             "string-entropy"],
    )
    def test_rejects_invalid_columns(self, columns, message):
        with pytest.raises(InvalidParameterError, match=message):
            BiasTrajectory(**columns)

    def test_bias_is_bitwise_right_minus_left(self):
        trajectory = game_trajectory(
            REGIME_DOUBLE_1["coin_a"], REGIME_DOUBLE_1["coin_b"], REGIME_DOUBLE_1["eta_deg"],
            GameSequence("ABB"), 240,
        )
        expected = trajectory.p_right - trajectory.p_left
        assert trajectory.bias.dtype == expected.dtype
        assert trajectory.bias.tobytes() == expected.tobytes()
