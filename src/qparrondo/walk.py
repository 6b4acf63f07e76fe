"""State representation and unitary evolution of coin-driven line walks.

The walker lives on the integer sites ``-half_width .. half_width`` and
carries a two-level coin. One elementary step rotates the coin with a 2x2
unitary and then shifts coin-|0> amplitude one site to the right and
coin-|1> amplitude one site to the left. Periodic coin schedules (games
such as ``ABB``) are built by cycling through a token string, one coin per
elementary step, with the first token applied first.

All operations are pure: they never mutate the state they are given and
return freshly allocated amplitude grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import CapacityError, InvalidParameterError

__all__ = [
    "CoinMatrix",
    "CoinParams",
    "GameSequence",
    "InitialStateSpec",
    "WalkerState",
    "MAX_DENSE_HALF_WIDTH",
    "MAX_SNAPSHOT_BYTES",
    "make_coin",
    "initial_state",
    "apply_coin",
    "apply_shift",
    "step",
    "evolve_sequence",
    "dense_step_matrix",
    "dense_step_oracle",
]

CoinMatrix = NDArray[np.complex128]
"""2x2 unitary with unit determinant, acting on the coin."""

MAX_DENSE_HALF_WIDTH = 12
"""Largest half-width accepted by the dense-matrix verification path."""

MAX_SNAPSHOT_BYTES = 1 << 30
"""Largest snapshot list ``evolve_sequence`` allocates: 1 GiB, which is
4095 steps at the default half-width."""


def _require_finite(name: str, value: float) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}") from None
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class CoinParams:
    """Angle triple, in degrees, defining one coin rotation.

    Any finite values are legal; the trigonometric construction is
    periodic, so no range restriction applies.
    """

    alpha_deg: float
    beta_deg: float
    gamma_deg: float

    def __post_init__(self) -> None:
        for name in ("alpha_deg", "beta_deg", "gamma_deg"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))


@dataclass(frozen=True)
class InitialStateSpec:
    """Unbiased coin superposition (|0> + e^{i eta}|1>)/sqrt(2) at the origin.

    ``eta_deg`` is the relative phase in degrees. The walk always starts at
    the center site; ``origin`` exists for explicitness and must be 0.
    """

    eta_deg: float
    origin: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta_deg", _require_finite("eta_deg", self.eta_deg))
        if self.origin != 0:
            raise InvalidParameterError(f"origin is fixed at the center site, got {self.origin}")


@dataclass(frozen=True)
class GameSequence:
    """Cyclic coin schedule, e.g. ``"ABB"`` plays coin A once then coin B twice.

    Token strings that are cyclic rotations of each other (``ABB`` vs
    ``BBA``) are distinct games: they differ in which coin is applied
    first.
    """

    tokens: str

    def __post_init__(self) -> None:
        if not isinstance(self.tokens, str) or not self.tokens:
            raise InvalidParameterError(f"tokens must be a non-empty string, got {self.tokens!r}")
        bad = set(self.tokens) - {"A", "B"}
        if bad:
            raise InvalidParameterError(
                f"tokens must use only 'A' and 'B', got {self.tokens!r}"
            )

    @property
    def period(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class WalkerState:
    """Complex amplitudes over (coin, site) after ``step`` elementary steps.

    ``amplitudes[c, i]`` is the amplitude for coin state ``c`` at site
    ``i - half_width``. The grid is fixed at width ``2*half_width + 1``
    with the origin at the center index; a walk of ``t`` steps never has
    support outside ``[-t, t]``, so running out of room is a hard error
    rather than a silent truncation. Treat instances as immutable.
    """

    step: int
    half_width: int
    amplitudes: NDArray[np.complex128]

    def __post_init__(self) -> None:
        if self.half_width < 1:
            raise InvalidParameterError(f"half_width must be >= 1, got {self.half_width}")
        if not 0 <= self.step <= self.half_width:
            raise InvalidParameterError(
                f"step must lie in [0, half_width={self.half_width}], got {self.step}"
            )
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        expected = (2, 2 * self.half_width + 1)
        if amp.shape != expected:
            raise InvalidParameterError(
                f"amplitudes must have shape {expected}, got {amp.shape}"
            )
        object.__setattr__(self, "amplitudes", amp)

    def site_index(self, x: int) -> int:
        """Array column for site ``x``."""
        if not -self.half_width <= x <= self.half_width:
            raise InvalidParameterError(f"site {x} outside grid of half_width {self.half_width}")
        return x + self.half_width

    def amplitude(self, coin: int, x: int) -> complex:
        """Amplitude for coin state ``coin`` at site ``x``."""
        return complex(self.amplitudes[coin, self.site_index(x)])

    def positions(self) -> NDArray[np.int_]:
        """Site labels, ``-half_width .. half_width``."""
        return np.arange(-self.half_width, self.half_width + 1)

    def site_probabilities(self) -> NDArray[np.float64]:
        """Probability per site, summed over both coin components."""
        return np.abs(self.amplitudes[0]) ** 2 + np.abs(self.amplitudes[1]) ** 2

    def norm(self) -> float:
        """L2 norm of the amplitude grid."""
        return float(np.linalg.norm(self.amplitudes))


def make_coin(params: CoinParams) -> CoinMatrix:
    """Build the coin unitary for an angle triple.

    Parameters
    ----------
    params:
        Angles (alpha, beta, gamma) in degrees.

    Returns
    -------
    CoinMatrix
        ``[[ e^{i a} cos b, -e^{-i g} sin b ],
           [ e^{i g} sin b,  e^{-i a} cos b ]]``
        with the angles converted to radians. The matrix is unitary with
        determinant 1 (cos^2 b + sin^2 b).
    """
    a = math.radians(params.alpha_deg)
    b = math.radians(params.beta_deg)
    g = math.radians(params.gamma_deg)
    cb, sb = math.cos(b), math.sin(b)
    return np.array(
        [
            [np.exp(1j * a) * cb, -np.exp(-1j * g) * sb],
            [np.exp(1j * g) * sb, np.exp(-1j * a) * cb],
        ],
        dtype=np.complex128,
    )


def initial_state(spec: InitialStateSpec, half_width: int) -> WalkerState:
    """Prepare the walker at the origin in the unbiased coin superposition.

    Raises
    ------
    InvalidParameterError
        If ``half_width`` is smaller than 1.
    """
    if half_width < 1:
        raise InvalidParameterError(f"half_width must be >= 1, got {half_width}")
    amp = np.zeros((2, 2 * half_width + 1), dtype=np.complex128)
    eta = math.radians(spec.eta_deg)
    amp[0, half_width] = 1.0 / math.sqrt(2.0)
    amp[1, half_width] = np.exp(1j * eta) / math.sqrt(2.0)
    return WalkerState(step=0, half_width=half_width, amplitudes=amp)


def _check_coin(coin: CoinMatrix) -> NDArray[np.complex128]:
    coin = np.asarray(coin, dtype=np.complex128)
    if coin.shape != (2, 2):
        raise InvalidParameterError(f"coin must be a 2x2 matrix, got shape {coin.shape}")
    return coin


def apply_coin(state: WalkerState, coin: CoinMatrix) -> WalkerState:
    """Rotate the coin at every site: the 2-vector of amplitudes at each
    position is replaced by ``coin @ (a0, a1)``. Norm is preserved."""
    coin = _check_coin(coin)
    return WalkerState(
        step=state.step,
        half_width=state.half_width,
        amplitudes=coin @ state.amplitudes,
    )


def apply_shift(state: WalkerState) -> WalkerState:
    """Move coin-|0> amplitude one site right and coin-|1> one site left.

    Raises
    ------
    CapacityError
        If the walk has already reached the edge of the grid
        (``state.step == half_width``); shifting would truncate amplitude.
    """
    if state.step >= state.half_width:
        raise CapacityError(
            f"cannot shift beyond the grid: step {state.step} with half_width {state.half_width}"
        )
    amp = state.amplitudes
    out = np.zeros_like(amp)
    out[0, 1:] = amp[0, :-1]
    out[1, :-1] = amp[1, 1:]
    return WalkerState(step=state.step + 1, half_width=state.half_width, amplitudes=out)


def step(state: WalkerState, coin: CoinMatrix) -> WalkerState:
    """One elementary step: coin rotation followed by the conditional shift."""
    return apply_shift(apply_coin(state, coin))


def evolve_sequence(
    spec: InitialStateSpec,
    coin_a: CoinParams,
    coin_b: CoinParams,
    seq: GameSequence,
    total_steps: int,
    half_width: int | None = None,
) -> list[WalkerState]:
    """Run ``total_steps`` elementary steps under a cyclic coin schedule.

    At elementary step ``k`` (1-based) the coin used is
    ``seq.tokens[(k - 1) % seq.period]``; for ``ABB`` the A coin is applied
    first. One snapshot is recorded after every elementary step, so the
    returned list has ``total_steps`` entries and entry ``k - 1`` has
    ``step == k``.

    Parameters
    ----------
    spec:
        Initial coin superposition.
    coin_a, coin_b:
        Angle triples for the two coins.
    seq:
        Cyclic token schedule over the two coins.
    total_steps:
        Number of elementary steps, at least 1.
    half_width:
        Grid half-width; defaults to ``total_steps``, the exact ballistic
        bound.

    Raises
    ------
    InvalidParameterError
        If ``total_steps < 1``.
    CapacityError
        If ``half_width`` is given and is smaller than ``total_steps``, or
        the snapshots would take more than ``MAX_SNAPSHOT_BYTES``.
    """
    if total_steps < 1:
        raise InvalidParameterError(f"total_steps must be >= 1, got {total_steps}")
    if half_width is None:
        half_width = total_steps
    if half_width < total_steps:
        raise CapacityError(
            f"half_width {half_width} cannot hold a walk of {total_steps} steps"
        )
    snapshot_bytes = total_steps * 2 * (2 * half_width + 1) * 16  # complex128 amplitudes
    if snapshot_bytes > MAX_SNAPSHOT_BYTES:
        raise CapacityError(
            f"{total_steps} snapshots of half_width {half_width} need {snapshot_bytes} bytes, "
            f"more than the budget of {MAX_SNAPSHOT_BYTES}"
        )
    coins = {"A": make_coin(coin_a), "B": make_coin(coin_b)}
    state = initial_state(spec, half_width)
    snapshots: list[WalkerState] = []
    for k in range(total_steps):
        state = step(state, coins[seq.tokens[k % seq.period]])
        snapshots.append(state)
    return snapshots


def dense_step_matrix(coin: CoinMatrix, half_width: int) -> NDArray[np.complex128]:
    """Explicit matrix of one elementary step on the flattened grid.

    The flattened index is ``c * (2*half_width + 1) + i`` with ``i`` the
    site column. The shift part is built with periodic wrap-around so the
    matrix stays exactly unitary; it agrees with :func:`apply_shift`
    whenever the state has room to move (``step < half_width``).
    """
    coin = _check_coin(coin)
    n = 2 * half_width + 1
    move_right = np.roll(np.eye(n), 1, axis=0)
    shift = np.kron(np.diag([1.0, 0.0]), move_right) + np.kron(
        np.diag([0.0, 1.0]), move_right.T
    )
    return shift.astype(np.complex128) @ np.kron(coin, np.eye(n, dtype=np.complex128))


def dense_step_oracle(state: WalkerState, coin: CoinMatrix) -> WalkerState:
    """Advance one step by full dense matrix multiplication.

    Slow reference path used to cross-check :func:`step`; the two must
    agree to round-off on any valid state.

    Raises
    ------
    CapacityError
        If ``half_width`` exceeds ``MAX_DENSE_HALF_WIDTH`` (the dense
        matrix grows quadratically), or the state has no room to shift.
    """
    if state.half_width > MAX_DENSE_HALF_WIDTH:
        raise CapacityError(
            f"dense oracle limited to half_width <= {MAX_DENSE_HALF_WIDTH}, "
            f"got {state.half_width}"
        )
    if state.step >= state.half_width:
        raise CapacityError(
            f"cannot shift beyond the grid: step {state.step} with half_width {state.half_width}"
        )
    matrix = dense_step_matrix(coin, state.half_width)
    flat = matrix @ state.amplitudes.reshape(-1)
    return WalkerState(
        step=state.step + 1,
        half_width=state.half_width,
        amplitudes=flat.reshape(2, -1),
    )
