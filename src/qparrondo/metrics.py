"""Game observables: side probabilities, bias, verdicts, and coin entropy.

The payoff of a game is the bias ``p_right - p_left``, where the two sides
sum probability strictly left and strictly right of the origin; mass at
the origin belongs to neither side. Coin-position entanglement is the von
Neumann entropy (base 2) of the reduced coin density matrix, so 0 marks a
separable state and 1 a maximally entangled one.

Each quantity has one formula, an array function over per-step columns
(``bias``, ``entropy_bits``, ``payoff_verdicts``); the per-state and
per-trajectory functions are thin wrappers over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidParameterError
from .walk import WalkerState, _complex_array, check_epsilon, check_periods

__all__ = [
    "GameVerdict",
    "BiasSample",
    "BiasTrajectory",
    "ReducedCoinDensity",
    "DEFAULT_EPSILON",
    "check_epsilon",
    "bias",
    "entropy_bits",
    "payoff_verdicts",
    "bias_sample",
    "classify",
    "reduced_density",
    "entanglement_entropy",
    "trajectory_with_entropy",
]

ReducedCoinDensity = NDArray[np.complex128]
"""2x2 Hermitian matrix with unit trace."""

_CLOSURE_TOL = 1e-10

DEFAULT_EPSILON = 1e-9
"""Bias magnitude at or below which a payoff point counts as a draw."""


class GameVerdict(Enum):
    """Outcome of a game over a whole trajectory."""

    WINNING = "Winning"
    LOSING = "Losing"
    DRAW = "Draw"
    MIXED = "Mixed"


@dataclass(frozen=True)
class BiasSample:
    """Side probabilities and bias of one snapshot, as :func:`bias_sample`
    measures them on the reference path."""

    step: int
    p_left: float
    p_origin: float
    p_right: float
    bias: float

    def __post_init__(self) -> None:
        total = self.p_left + self.p_origin + self.p_right
        if abs(total - 1.0) > _CLOSURE_TOL:
            raise InvalidParameterError(
                f"probabilities must sum to 1, got {total!r} at step {self.step}"
            )
        if not -1.0 - _CLOSURE_TOL <= self.bias <= 1.0 + _CLOSURE_TOL:
            raise InvalidParameterError(f"bias out of [-1, 1]: {self.bias!r}")


@dataclass(frozen=True)
class BiasTrajectory:
    """Per-step columns of one game, plus run metadata (coins, schedule, eta).

    ``p_left``, ``p_origin``, ``p_right`` and ``entropy`` are 1-D arrays
    whose entry ``k`` is step ``k + 1``; ``bias`` is derived from the sides
    with :func:`bias`. Raises ``InvalidParameterError`` unless the columns
    have one length of at least 1, the sides sum to 1 at every step, and
    every entropy lies in [0, 1].
    """

    p_left: NDArray[np.float64]
    p_origin: NDArray[np.float64]
    p_right: NDArray[np.float64]
    entropy: NDArray[np.float64]
    metadata: Mapping[str, Any] = field(default_factory=dict)
    bias: NDArray[np.float64] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        names = ("p_left", "p_origin", "p_right", "entropy")
        columns = [np.asarray(getattr(self, name), np.float64) for name in names]
        p_left, p_origin, p_right, entropy = columns
        if p_left.ndim != 1 or not p_left.size or any(c.shape != p_left.shape for c in columns):
            raise InvalidParameterError(f"columns must be 1-D, of equal length and at least one "
                                        f"step long, got shapes {[c.shape for c in columns]}")
        total = p_left + p_origin + p_right
        closed = np.abs(total - 1.0) <= _CLOSURE_TOL
        if not closed.all():
            k = int(closed.argmin())
            raise InvalidParameterError(f"probabilities must sum to 1, got {total[k]} at step {k + 1}")
        if not ((entropy >= -_CLOSURE_TOL) & (entropy <= 1.0 + _CLOSURE_TOL)).all():
            raise InvalidParameterError(f"entropy out of [0, 1]: {entropy.min()} to {entropy.max()}")
        for name, column in zip(names, columns):
            object.__setattr__(self, name, column)
        object.__setattr__(self, "bias", bias(p_left, p_right))


def bias_sample(state: WalkerState) -> BiasSample:
    """Measure side probabilities and bias of one snapshot.

    ``p_left`` sums probability over sites x < 0, ``p_right`` over x > 0,
    and ``p_origin`` is the mass at x = 0, which counts toward neither
    side.
    """
    per_site = state.site_probabilities()
    center = state.half_width
    p_left = float(per_site[:center].sum())
    p_origin = float(per_site[center])
    p_right = float(per_site[center + 1:].sum())
    return BiasSample(
        step=state.step,
        p_left=p_left,
        p_origin=p_origin,
        p_right=p_right,
        bias=bias(p_left, p_right),
    )


def bias(p_left: Any, p_right: Any) -> Any:
    """Payoff: probability right of the origin minus probability left of it.

    Works elementwise on floats or arrays of any shape.
    """
    return p_right - p_left


def payoff_verdicts(
    biases: NDArray[np.float64],
    periods: Sequence[int],
    epsilon: float = DEFAULT_EPSILON,
) -> list[GameVerdict]:
    """Verdict of each row of a ``(G, T)`` bias array (column ``k`` is step
    ``k + 1``), over the steps at whole multiples of that row's period.

    See :func:`classify` for the four verdicts.

    Raises
    ------
    InvalidParameterError
        If ``biases`` is not 2-D, ``epsilon`` is negative or not finite,
        there is not one period per row, or a period is not an integer
        (bools are refused) in ``[1, T]``.
    """
    check_epsilon(epsilon)
    biases = np.asarray(biases, dtype=np.float64)
    if biases.ndim != 2:
        raise InvalidParameterError(f"biases must be a (G, T) array, got shape {biases.shape}")
    steps = biases.shape[1]
    periods = check_periods(periods, steps)
    if len(periods) != len(biases):
        raise InvalidParameterError(
            f"need one period per bias row, got {len(periods)} periods for {len(biases)} rows"
        )
    if not len(periods):
        return []
    skipped = np.arange(1, steps + 1) % periods[:, None] != 0
    winning = ((biases > epsilon) | skipped).all(axis=1)
    losing = ((biases < -epsilon) | skipped).all(axis=1)
    draw = ((np.abs(biases) <= epsilon) | skipped).all(axis=1)
    return [
        GameVerdict.WINNING if w else GameVerdict.LOSING if l else
        GameVerdict.DRAW if d else GameVerdict.MIXED
        for w, l, d in zip(winning.tolist(), losing.tolist(), draw.tolist())
    ]


def classify(
    trajectory: BiasTrajectory,
    epsilon: float = DEFAULT_EPSILON,
    period: int = 1,
) -> GameVerdict:
    """Classify a trajectory as Winning, Losing, Draw, or Mixed.

    The verdict quantifies over the samples at whole multiples of
    ``period`` (the natural payoff points of a periodic game; one "round"
    of the game ABB is three elementary steps). With the default
    ``period=1`` every elementary step must satisfy the condition.

    Winning requires bias > epsilon at every checked sample, Losing
    requires bias < -epsilon at every checked sample, Draw requires
    |bias| <= epsilon everywhere, and anything else is Mixed.

    Raises
    ------
    InvalidParameterError
        If ``epsilon`` is negative or not finite, ``period`` is not an
        integer (bools are refused) of at least 1, or the trajectory
        contains no sample at a multiple of ``period``.
    """
    return payoff_verdicts(trajectory.bias[None, :], [period], epsilon)[0]


def reduced_density(state: WalkerState) -> ReducedCoinDensity:
    """Trace out the position register.

    ``rho[c, c'] = sum_x amp(c, x) * conj(amp(c', x))``; the result is
    Hermitian with unit trace for a normalized state.
    """
    amp = state.amplitudes
    return amp @ amp.conj().T


_EIGENVALUE_SNAP = 1e-12


def entanglement_entropy(rho: ReducedCoinDensity) -> float:
    """Von Neumann entropy of a 2x2 Hermitian density matrix, in bits.

    See :func:`entropy_bits`, which this evaluates for one matrix.
    """
    rho = _complex_array("density matrix", rho, (2, 2))
    return float(entropy_bits(rho[0, 0].real, rho[1, 1].real, rho[0, 1]))


def entropy_bits(rho00: Any, rho11: Any, rho01: Any) -> NDArray[np.float64]:
    """Von Neumann entropy, in bits, of the density matrices
    ``[[rho00, rho01], [conj(rho01), rho11]]``, elementwise over arrays.

    The two eigenvalues come from the closed-form quadratic in the trace
    and determinant. Hermitian round-off can push them marginally outside
    [0, 1], so values within 1e-12 of 0 or 1 are treated as exact before
    the logarithm (a pure state reports entropy 0.0, not 1e-16); the
    0*log(0) = 0 convention applies. The snap changes the result by less
    than 1e-10.
    """
    rho01 = np.asarray(rho01)
    trace = np.add(rho00, rho11)
    det = rho00 * rho11 - (rho01.real * rho01.real + rho01.imag * rho01.imag)
    root = np.sqrt(np.maximum(trace * trace - 4.0 * det, 0.0))
    lam = np.clip([(trace + root) / 2.0, (trace - root) / 2.0], 0.0, 1.0)
    lam[(lam <= _EIGENVALUE_SNAP) | (lam >= 1.0 - _EIGENVALUE_SNAP)] = 1.0  # adds 1*log2(1) = 0
    terms = lam * np.log2(lam)
    return 0.0 - terms[0] - terms[1]


def trajectory_with_entropy(
    snapshots: Sequence[WalkerState],
    metadata: Mapping[str, Any] | None = None,
) -> BiasTrajectory:
    """Build a full trajectory, bias and entropy both populated.

    ``snapshots`` must be ordered by step and cover steps 1..T without
    gaps, exactly as produced by ``evolve_sequence``.

    Raises
    ------
    InvalidParameterError
        If the snapshot list is empty or out of order.
    """
    if not snapshots:
        raise InvalidParameterError("no snapshots to build a trajectory from")
    for i, snap in enumerate(snapshots):
        if snap.step != i + 1:
            raise InvalidParameterError(
                f"snapshots must be ordered by step and start at 1; "
                f"position {i} has step {snap.step}"
            )
    sides = [(s.p_left, s.p_origin, s.p_right) for s in map(bias_sample, snapshots)]
    rho = np.array([reduced_density(snap) for snap in snapshots])
    entropy = entropy_bits(rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 0, 1])
    return BiasTrajectory(*np.transpose(sides), entropy, dict(metadata or {}))
