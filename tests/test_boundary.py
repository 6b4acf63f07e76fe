"""Public functions refuse an argument of the wrong kind with
``InvalidParameterError``, before they read from it, rather than with
whatever error its missing attributes raise."""

import numpy as np
import pytest

from qparrondo import (
    BiasTrajectory,
    InvalidParameterError,
    apply_coin,
    apply_shift,
    bias_sample,
    classify,
    entropy_comparison,
    reduced_density,
    step,
    trajectory_with_entropy,
)

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
