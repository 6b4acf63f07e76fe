"""Coin-driven quantum walk games on a line, and a paradox-region scanner.

Two coin rotations that each lose on their own can win when alternated in
a periodic schedule. This package simulates such games exactly (state
vectors on a bounded lattice), measures their bias and coin-position
entanglement, and scans sequence families and coin-parameter grids for
the paradoxical combinations.
"""

from .errors import CapacityError, InvalidParameterError
from .metrics import (
    BiasSample,
    BiasTrajectory,
    GameVerdict,
    ReducedCoinDensity,
    bias_sample,
    classify,
    entanglement_entropy,
    reduced_density,
    trajectory_with_entropy,
)
from .scan import (
    AXIS_PARAMETERS,
    GridAxis,
    RegionGrid,
    ScanConfig,
    ScanReport,
    SequenceResult,
    entropy_comparison,
    enumerate_sequences,
    game_trajectory,
    run_scan,
    scan_region_grid,
)
from .walk import (
    CoinMatrix,
    CoinParams,
    GameColumns,
    GameSequence,
    InitialStateSpec,
    WalkerState,
    apply_coin,
    apply_shift,
    evolve_games,
    evolve_sequence,
    initial_state,
    make_coin,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "InvalidParameterError",
    "CoinMatrix",
    "CoinParams",
    "GameSequence",
    "InitialStateSpec",
    "WalkerState",
    "make_coin",
    "initial_state",
    "apply_coin",
    "apply_shift",
    "step",
    "evolve_sequence",
    "evolve_games",
    "GameColumns",
    "GameVerdict",
    "BiasSample",
    "BiasTrajectory",
    "ReducedCoinDensity",
    "bias_sample",
    "classify",
    "reduced_density",
    "entanglement_entropy",
    "trajectory_with_entropy",
    "AXIS_PARAMETERS",
    "ScanConfig",
    "SequenceResult",
    "ScanReport",
    "GridAxis",
    "RegionGrid",
    "enumerate_sequences",
    "game_trajectory",
    "run_scan",
    "scan_region_grid",
    "entropy_comparison",
    "__version__",
]
