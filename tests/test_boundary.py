"""Public functions refuse an argument of the wrong kind with
``InvalidParameterError``, before they read from it, rather than with
whatever error its missing attributes raise. A list argument, whose items
pair up by position, must be an ordered collection: a set, a mapping,
bytes or an iterator is refused rather than read as its keys, codes or
hash order."""

from dataclasses import replace

import numpy as np
import pytest

from qparrondo import (
    BiasSample,
    BiasTrajectory,
    CoinParams,
    GameSequence,
    GameVerdict,
    GridAxis,
    InvalidParameterError,
    ScanConfig,
    ScanReport,
    SequenceResult,
    apply_coin,
    apply_shift,
    bias_sample,
    classify,
    entanglement_entropy,
    entropy_comparison,
    evolve_games,
    reduced_density,
    step,
    trajectory_with_entropy,
)
from qparrondo.metrics import payoff_verdicts
from qparrondo.walk import evolve_verdicts

from benchmarks import REGIME_ONE_SIDED
from test_metrics import one_sided_snapshots

ONE = np.ones(1)
ZERO = np.zeros(1)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: apply_coin(object(), np.eye(2)), id="apply_coin"),
        pytest.param(lambda: apply_shift(object()), id="apply_shift"),
        pytest.param(lambda: step(object(), np.eye(2)), id="step"),
        pytest.param(lambda: bias_sample(object()), id="bias_sample"),
        pytest.param(lambda: classify(object()), id="classify"),
        pytest.param(lambda: reduced_density(object()), id="reduced_density"),
        pytest.param(lambda: trajectory_with_entropy(object()), id="trajectory_with_entropy"),
        pytest.param(lambda: trajectory_with_entropy([object()]), id="trajectory_snapshot"),
        pytest.param(lambda: trajectory_with_entropy(one_sided_snapshots("A", 2), metadata=5),
                     id="trajectory_metadata"),
        pytest.param(lambda: BiasTrajectory(ZERO, ZERO, ONE, ZERO, metadata=5),
                     id="BiasTrajectory_metadata"),
        pytest.param(lambda: entropy_comparison(object()), id="entropy_comparison"),
    ],
)
def test_a_wrong_kind_is_an_invalid_parameter(call):
    with pytest.raises(InvalidParameterError, match="expected a"):
        call()


RESULT = SequenceResult(GameSequence("AB"), GameVerdict.WINNING, 0.25, 0.125, 0.5)
RESULTS = (RESULT, replace(RESULT, sequence=GameSequence("BA")))  # enumerate_sequences(2)
REPORT = ScanReport(ScanConfig(CoinParams(0.0, 45.0, 0.0), CoinParams(0.0, 30.0, 0.0), 0.0,
                               max_period=2, horizon_steps=4),
                    GameVerdict.LOSING, GameVerdict.LOSING, RESULTS)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: BiasSample(*[object()] * 4), id="BiasSample_objects"),
        pytest.param(lambda: BiasSample(1.5, 0.5, 0.0, 0.5), id="BiasSample_step"),
        pytest.param(lambda: BiasSample(1, np.nan, 0.0, 1.0), id="BiasSample_nan"),
        pytest.param(lambda: replace(RESULT, sequence=object()), id="SequenceResult_sequence"),
        pytest.param(lambda: replace(RESULT, verdict="Winning"), id="SequenceResult_verdict"),
        pytest.param(lambda: replace(RESULT, final_bias=object()), id="SequenceResult_bias"),
        pytest.param(lambda: replace(RESULT, min_bias=np.nan), id="SequenceResult_nan"),
        pytest.param(lambda: replace(RESULT, max_entropy=True), id="SequenceResult_bool"),
        pytest.param(lambda: replace(REPORT, config=object()), id="ScanReport_config"),
        pytest.param(lambda: replace(REPORT, verdict_b=object()), id="ScanReport_verdict"),
        pytest.param(lambda: replace(REPORT, results=[RESULT]), id="ScanReport_results_list"),
        pytest.param(lambda: replace(REPORT, results=(object(),)), id="ScanReport_result"),
        # read_scan_json refused what write_scan_json wrote for these
        pytest.param(lambda: replace(REPORT, results=RESULTS[::-1]), id="ScanReport_results_order"),
        pytest.param(lambda: replace(REPORT, results=RESULTS[:1]), id="ScanReport_results_missing"),
        pytest.param(lambda: payoff_verdicts([[0.5, np.nan]], [1]), id="payoff_verdicts_nan"),
        pytest.param(lambda: payoff_verdicts([[np.inf]], [1]), id="payoff_verdicts_inf"),
        pytest.param(lambda: entanglement_entropy(np.full((2, 2), np.nan)),
                     id="entanglement_entropy_nan"),
        pytest.param(lambda: entanglement_entropy([[np.inf, 0], [0, 0]]),
                     id="entanglement_entropy_inf"),
    ],
)
def test_a_field_of_the_wrong_kind_or_not_finite_is_an_invalid_parameter(call):
    # each was built, or raised TypeError, or read a NaN bias as Mixed and an
    # infinite one as Winning, or gave a NaN entropy
    with pytest.raises(InvalidParameterError):
        call()


COIN_A, COIN_B, ETA = REGIME_ONE_SIDED["coin_a"], REGIME_ONE_SIDED["coin_b"], 90.0
GAMES = [(COIN_A, COIN_B, ETA, GameSequence(tokens)) for tokens in ("ABB", "A", "AB")]
BIASES = np.full((2, 6), 0.1)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: payoff_verdicts(BIASES, {3: 0, 1: 0}), id="payoff_periods_dict"),
        pytest.param(lambda: payoff_verdicts(BIASES, {3, 1}), id="payoff_periods_set"),
        pytest.param(lambda: payoff_verdicts(BIASES, b"\x03\x01"), id="payoff_periods_bytes"),
        pytest.param(lambda: payoff_verdicts(BIASES, memoryview(b"\x03\x01")),
                     id="payoff_periods_memoryview"),
        pytest.param(lambda: evolve_verdicts(GAMES[:2], 30, {3: 0, 1: 0}, [1, -1], 1e-9),
                     id="verdict_periods_dict"),
        pytest.param(lambda: evolve_verdicts(GAMES[:2], 30, {3, 1}, [1, -1], 1e-9),
                     id="verdict_periods_set"),
        pytest.param(lambda: evolve_verdicts(GAMES[:2], 30, b"\x03\x01", [1, -1], 1e-9),
                     id="verdict_periods_bytes"),
        pytest.param(lambda: evolve_verdicts(GAMES[:2], 30, [3, 1], {-1: 0, 1: 0}, 1e-9),
                     id="verdict_signs_dict"),
        pytest.param(lambda: evolve_games([{COIN_A: 0, COIN_B: 0, ETA: 0, GAMES[0][3]: 0}], 6),
                     id="game_dict"),
        pytest.param(lambda: GridAxis("beta_a", iter([10.0, 20.0])), id="axis_values_iterator"),
    ],
)
def test_a_list_argument_that_is_not_an_ordered_collection_is_an_invalid_parameter(call):
    # each was read as its keys, its hash order, its codes or what its iterator gave
    with pytest.raises(InvalidParameterError, match="expected a sequence"):
        call()


@pytest.mark.parametrize("periods", [[3, 2, 1], (3, 2, 1), range(3, 0, -1), np.array([3, 2, 1])],
                         ids=["list", "tuple", "range", "ndarray"])
def test_periods_in_any_ordered_collection_give_the_same_verdicts(periods):
    biases = np.array([[0.1, -0.2, 0.3, 0.1, -0.1, 0.2]] * 3)
    winning, mixed = GameVerdict.WINNING, GameVerdict.MIXED
    assert payoff_verdicts(biases, periods) == [winning, mixed, mixed]
    held = evolve_verdicts(GAMES, 30, periods, [1, -1, 1], 1e-9)
    assert held.tolist() == evolve_verdicts(GAMES, 30, [3, 2, 1], [1, -1, 1], 1e-9).tolist()
