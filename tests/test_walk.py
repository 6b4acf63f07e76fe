import cmath
import math

import numpy as np
import pytest

from qparrondo import (
    CapacityError,
    CoinParams,
    GameSequence,
    InitialStateSpec,
    InvalidParameterError,
    WalkerState,
    apply_coin,
    apply_shift,
    evolve_sequence,
    initial_state,
    make_coin,
    step,
)

from benchmarks import (
    REFERENCE_TOL,
    GAME_A_AMPLITUDES,
    GAME_ABB_AMPLITUDES,
    GAME_B_AMPLITUDES,
    REGIME_ONE_SIDED,
)

ONE_SIDED_A = REGIME_ONE_SIDED["coin_a"]
ONE_SIDED_B = REGIME_ONE_SIDED["coin_b"]
ETA_ONE_SIDED = REGIME_ONE_SIDED["eta_deg"]


def grid_from_sparse(entries, half_width):
    amp = np.zeros((2, 2 * half_width + 1), dtype=complex)
    for (coin, site), value in entries.items():
        amp[coin, site + half_width] = value
    return amp


def random_valid_state(rng, half_width=8, steps=3):
    """A normalized state with correct support and parity after `steps` steps."""
    state = initial_state(InitialStateSpec(eta_deg=rng.uniform(0, 360)), half_width)
    for _ in range(steps):
        params = CoinParams(*rng.uniform(-180, 180, size=3))
        state = step(state, make_coin(params))
    return state


class TestMakeCoin:
    def test_zero_angles_give_identity(self):
        matrix = make_coin(CoinParams(0, 0, 0))
        assert np.allclose(matrix, np.eye(2), atol=1e-15)

    def test_entry_matches_scalar_evaluation(self):
        # Independent element-wise evaluation with cmath.
        matrix = make_coin(ONE_SIDED_A)
        a, b, g = (math.radians(v) for v in (156.0, 16.0, 0.0))
        expected = np.array(
            [
                [cmath.exp(1j * a) * math.cos(b), -cmath.exp(-1j * g) * math.sin(b)],
                [cmath.exp(1j * g) * math.sin(b), cmath.exp(-1j * a) * math.cos(b)],
            ]
        )
        assert np.allclose(matrix, expected, atol=1e-15)
        assert matrix[0, 0] == pytest.approx(-0.8782 + 0.3910j, abs=REFERENCE_TOL)

    def test_determinant_is_one(self):
        matrix = make_coin(CoinParams(175, 65, 165))
        assert np.linalg.det(matrix) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_unitary_for_random_parameters(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            matrix = make_coin(CoinParams(*rng.uniform(-720, 720, size=3)))
            assert np.abs(matrix @ matrix.conj().T - np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), "x", None, "1.5", True,
                pytest.param(10**400, id="int-beyond-float"),
                pytest.param(np.float32("nan"), id="float32-nan"),
                pytest.param(np.float32("inf"), id="float32-inf")]
    )
    def test_non_finite_angles_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            CoinParams(bad, 0, 0)
        with pytest.raises(InvalidParameterError, match="eta_deg"):
            InitialStateSpec(eta_deg=bad)

    def test_numpy_float32_angles_are_accepted(self):
        # comparing a float32 with the largest float warned of an overflow in the cast
        coin = CoinParams(np.float32(1), 2, 3)
        assert coin == CoinParams(1.0, 2.0, 3.0)
        assert type(coin.alpha_deg) is float

    @pytest.mark.parametrize("beta", [0.0, 90.0])
    def test_degenerate_betas_are_legal(self, beta):
        matrix = make_coin(CoinParams(10, beta, 20))
        assert np.abs(matrix @ matrix.conj().T - np.eye(2)).max() < 1e-12


class TestInitialState:
    def test_zero_phase(self):
        state = initial_state(InitialStateSpec(eta_deg=0), half_width=4)
        assert state.step == 0
        assert state.amplitude(0, 0) == pytest.approx(1 / math.sqrt(2))
        assert state.amplitude(1, 0) == pytest.approx(1 / math.sqrt(2))

    def test_quarter_turn_phase(self):
        state = initial_state(InitialStateSpec(eta_deg=90), half_width=4)
        assert state.amplitude(1, 0) == pytest.approx(1j / math.sqrt(2))

    def test_normalized_for_any_phase(self):
        rng = np.random.default_rng(3)
        for eta in rng.uniform(-720, 720, size=25):
            state = initial_state(InitialStateSpec(eta_deg=eta), half_width=2)
            assert state.norm() == pytest.approx(1.0, abs=1e-14)

    def test_half_width_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            initial_state(InitialStateSpec(eta_deg=0), half_width=0)


class TestWalkerState:
    def test_shape_is_validated(self):
        with pytest.raises(InvalidParameterError):
            WalkerState(step=0, half_width=2, amplitudes=np.zeros((2, 3)))

    def test_step_cannot_exceed_half_width(self):
        with pytest.raises(InvalidParameterError):
            WalkerState(step=3, half_width=2, amplitudes=np.zeros((2, 5)))

    def test_site_lookup(self):
        state = initial_state(InitialStateSpec(eta_deg=0), half_width=3)
        assert state.site_index(-3) == 0
        assert state.site_index(3) == 6
        with pytest.raises(InvalidParameterError):
            state.site_index(4)


class TestApplyCoin:
    def test_identity_leaves_state_unchanged(self):
        state = initial_state(InitialStateSpec(eta_deg=45), half_width=3)
        rotated = apply_coin(state, make_coin(CoinParams(0, 0, 0)))
        assert np.array_equal(rotated.amplitudes, state.amplitudes)
        assert rotated.step == state.step

    def test_rotation_before_first_shift(self):
        # Direct 2x2 multiply against the initial superposition.
        state = initial_state(InitialStateSpec(eta_deg=90), half_width=2)
        rotated = apply_coin(state, make_coin(ONE_SIDED_A))
        a, b = math.radians(156), math.radians(16)
        expected = (cmath.exp(1j * a) * math.cos(b) - 1j * math.sin(b)) / math.sqrt(2)
        assert rotated.amplitude(0, 0) == pytest.approx(expected, abs=1e-14)

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(11)
        state = random_valid_state(rng)
        coin = make_coin(CoinParams(*rng.uniform(-180, 180, size=3)))
        assert apply_coin(state, coin).norm() == pytest.approx(state.norm(), abs=1e-12)

    def test_rejects_wrong_shape(self):
        state = initial_state(InitialStateSpec(eta_deg=0), half_width=2)
        with pytest.raises(InvalidParameterError):
            apply_coin(state, np.eye(3))


class TestApplyShift:
    def test_splits_initial_state(self):
        state = apply_shift(initial_state(InitialStateSpec(eta_deg=0), half_width=2))
        assert state.step == 1
        assert state.amplitude(0, 1) == pytest.approx(1 / math.sqrt(2))
        assert state.amplitude(1, -1) == pytest.approx(1 / math.sqrt(2))
        assert state.amplitude(0, -1) == 0
        assert state.amplitude(1, 1) == 0

    def test_moves_single_component(self):
        amp = np.zeros((2, 5), dtype=complex)
        amp[0, 2] = 1.0
        state = WalkerState(step=0, half_width=2, amplitudes=amp)
        shifted = apply_shift(state)
        assert shifted.amplitude(0, 1) == 1.0
        assert shifted.site_probabilities().sum() == pytest.approx(1.0)

    def test_support_and_parity_by_induction(self):
        rng = np.random.default_rng(23)
        state = initial_state(InitialStateSpec(eta_deg=30), half_width=6)
        for t in range(1, 7):
            state = step(state, make_coin(CoinParams(*rng.uniform(-180, 180, size=3))))
            sites = state.positions()
            per_site = state.site_probabilities()
            assert np.all(per_site[np.abs(sites) > t] == 0)
            assert np.all(per_site[(sites % 2) != (t % 2)] == 0)

    def test_overflows_the_grid(self):
        state = initial_state(InitialStateSpec(eta_deg=0), half_width=1)
        state = apply_shift(state)
        with pytest.raises(CapacityError):
            apply_shift(state)


class TestStep:
    @pytest.mark.parametrize(
        "coin_params, expected",
        [
            (ONE_SIDED_A, GAME_A_AMPLITUDES[1]),
            (ONE_SIDED_B, GAME_B_AMPLITUDES[1]),
        ],
    )
    def test_single_step_matches_pinned_amplitudes(self, coin_params, expected):
        state = initial_state(InitialStateSpec(eta_deg=90), half_width=1)
        after = step(state, make_coin(coin_params))
        reference = grid_from_sparse(expected, half_width=1)
        assert np.abs(after.amplitudes - reference).max() < REFERENCE_TOL

    def test_identity_coin_step(self):
        state = initial_state(InitialStateSpec(eta_deg=135), half_width=2)
        after = step(state, make_coin(CoinParams(0, 0, 0)))
        eta = math.radians(135)
        assert after.amplitude(0, 1) == pytest.approx(1 / math.sqrt(2), abs=1e-14)
        assert after.amplitude(1, -1) == pytest.approx(
            cmath.exp(1j * eta) / math.sqrt(2), abs=1e-14
        )

    def test_equals_coin_then_shift(self):
        rng = np.random.default_rng(5)
        state = random_valid_state(rng, half_width=9, steps=4)
        coin = make_coin(CoinParams(*rng.uniform(-180, 180, size=3)))
        combined = step(state, coin)
        explicit = apply_shift(apply_coin(state, coin))
        assert np.array_equal(combined.amplitudes, explicit.amplitudes)


class TestEvolveSequence:
    @pytest.mark.parametrize(
        "coin_params, pinned",
        [(ONE_SIDED_A, GAME_A_AMPLITUDES), (ONE_SIDED_B, GAME_B_AMPLITUDES)],
    )
    def test_pure_game_first_three_steps(self, coin_params, pinned):
        snapshots = evolve_sequence(
            InitialStateSpec(eta_deg=90),
            coin_params,
            coin_params,
            GameSequence("A"),
            total_steps=3,
        )
        assert [s.step for s in snapshots] == [1, 2, 3]
        for snap, expected in zip(snapshots, (pinned[1], pinned[2], pinned[3])):
            reference = grid_from_sparse(expected, half_width=snap.half_width)
            assert np.abs(snap.amplitudes - reference).max() < REFERENCE_TOL

    def test_abb_one_period(self):
        snapshots = evolve_sequence(
            InitialStateSpec(eta_deg=ETA_ONE_SIDED),
            ONE_SIDED_A,
            ONE_SIDED_B,
            GameSequence("ABB"),
            total_steps=3,
        )
        final = snapshots[-1]
        reference = grid_from_sparse(GAME_ABB_AMPLITUDES, half_width=final.half_width)
        assert np.abs(final.amplitudes - reference).max() < REFERENCE_TOL

    def test_first_token_is_applied_first(self):
        # One step of ABB must equal one step of pure A.
        one_abb = evolve_sequence(
            InitialStateSpec(eta_deg=90), ONE_SIDED_A, ONE_SIDED_B,
            GameSequence("ABB"), total_steps=1,
        )[0]
        one_a = evolve_sequence(
            InitialStateSpec(eta_deg=90), ONE_SIDED_A, ONE_SIDED_B,
            GameSequence("A"), total_steps=1,
        )[0]
        assert np.array_equal(one_abb.amplitudes, one_a.amplitudes)

    def test_schedule_cycles(self):
        # Step 4 of ABB uses coin A again: evolving 4 steps of ABB equals
        # stepping the period-3 result once more with coin A.
        snapshots = evolve_sequence(
            InitialStateSpec(eta_deg=90), ONE_SIDED_A, ONE_SIDED_B,
            GameSequence("ABB"), total_steps=4,
        )
        manual = step(snapshots[2], make_coin(ONE_SIDED_A))
        assert np.abs(snapshots[3].amplitudes - manual.amplitudes).max() < 1e-14

    def test_rejects_zero_steps(self):
        with pytest.raises(InvalidParameterError):
            evolve_sequence(
                InitialStateSpec(eta_deg=0), ONE_SIDED_A, ONE_SIDED_B,
                GameSequence("AB"), total_steps=0,
            )

    @pytest.mark.parametrize("total_steps", [4096, 10**6])
    def test_rejects_snapshots_over_the_memory_budget(self, total_steps):
        # raised before any lattice is allocated; 10**6 steps would need 64 TB
        with pytest.raises(CapacityError, match="budget"):
            evolve_sequence(
                InitialStateSpec(eta_deg=0), ONE_SIDED_A, ONE_SIDED_B,
                GameSequence("AB"), total_steps=total_steps,
            )

    @pytest.mark.parametrize("total_steps", [12.5, True, "12"])
    def test_rejects_step_counts_that_are_not_integers(self, total_steps):
        with pytest.raises(InvalidParameterError, match="integer"):
            evolve_sequence(
                InitialStateSpec(eta_deg=0), ONE_SIDED_A, ONE_SIDED_B,
                GameSequence("AB"), total_steps=total_steps,
            )


class TestGameSequence:
    def test_period(self):
        assert GameSequence("ABB").period == 3

    @pytest.mark.parametrize("bad", ["", "ABX", "ab", 7])
    def test_rejects_bad_tokens(self, bad):
        with pytest.raises(InvalidParameterError):
            GameSequence(bad)

    def test_rotations_are_distinct(self):
        assert GameSequence("ABB") != GameSequence("BBA")
