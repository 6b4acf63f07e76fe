"""State representation and unitary evolution of coin-driven line walks.

The walker lives on the integer sites ``-half_width .. half_width`` and
carries a two-level coin. One elementary step rotates the coin with a 2x2
unitary and then shifts coin-|0> amplitude one site to the right and
coin-|1> amplitude one site to the left. Periodic coin schedules (games
such as ``ABB``) are built by cycling through a token string, one coin per
elementary step, with the first token applied first.

The per-step functions (``step``, ``evolve_sequence``) are pure: they never
mutate the state they are given and return freshly allocated amplitude
grids. They are the reference path. The batched kernel evolves many games,
each with its own coin pair, initial phase and schedule, together in place,
in one loop that hands each step to an observer. ``evolve_games`` observes
all six per-step columns; scans and simulations use it. ``evolve_verdicts``
keeps only each game's bias at its payoff points, retires a game at its
first payoff point that breaks its verdict, and shrinks the batch as games
retire; region grids use it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import CapacityError, InvalidParameterError

__all__ = [
    "CoinMatrix",
    "CoinParams",
    "GameSequence",
    "InitialStateSpec",
    "WalkerState",
    "GameColumns",
    "MAX_DENSE_HALF_WIDTH",
    "MAX_STEPS",
    "make_coin",
    "initial_state",
    "apply_coin",
    "apply_shift",
    "step",
    "evolve_sequence",
    "check_count",
    "check_epsilon",
    "check_periods",
    "check_real",
    "check_steps",
    "evolve_games",
    "evolve_verdicts",
    "dense_step_matrix",
    "dense_step_oracle",
]

CoinMatrix = NDArray[np.complex128]
"""2x2 unitary with unit determinant, acting on the coin."""

MAX_DENSE_HALF_WIDTH = 12
"""Largest half-width accepted by the dense-matrix verification path."""

MAX_STEPS = 4095
"""The one walk budget. ``evolve_games`` runs at most this many steps: its
memory is O(G*T), but its work per game grows as T**2. ``evolve_sequence``
runs at most this many steps on a lattice of that half-width, which keeps
its snapshots, at most 4095*2*8191*16 bytes, under 1 GiB."""


def check_real(name: str, value: Any) -> float:
    """``value`` as a float; raise ``InvalidParameterError`` unless it is a
    finite real number. A bool or a string is not one."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond any float
        number = math.inf
    if not math.isfinite(number):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return number


@dataclass(frozen=True)
class CoinParams:
    """Angle triple, in degrees, defining one coin rotation.

    Any finite real values are legal; the trigonometric construction is
    periodic, so no range restriction applies.
    """

    alpha_deg: float
    beta_deg: float
    gamma_deg: float

    def __post_init__(self) -> None:
        for name in ("alpha_deg", "beta_deg", "gamma_deg"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))


@dataclass(frozen=True)
class InitialStateSpec:
    """Unbiased coin superposition (|0> + e^{i eta}|1>)/sqrt(2) at the origin.

    ``eta_deg`` is the relative phase in degrees.
    """

    eta_deg: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta_deg", check_real("eta_deg", self.eta_deg))


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
        Number of elementary steps, at least 1; also the grid half-width,
        the exact ballistic bound.

    Raises
    ------
    InvalidParameterError
        If ``total_steps`` is not an integer of at least 1.
    CapacityError
        If ``total_steps`` is larger than ``MAX_STEPS``; nothing is
        allocated then.
    """
    check_count("total_steps", total_steps)
    check_steps(total_steps)
    coins = {"A": make_coin(coin_a), "B": make_coin(coin_b)}
    state = initial_state(spec, total_steps)
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


class GameColumns(NamedTuple):
    """Per-step observables of G games, each a ``(G, T)`` array.

    Row ``g`` belongs to the ``g``-th schedule and column ``k`` to the state
    after ``k + 1`` elementary steps. ``p_left``, ``p_origin`` and
    ``p_right`` are the probabilities left of, at and right of the origin;
    ``rho00``, ``rho11`` and ``rho01`` are the entries of the reduced coin
    density matrix (``rho10`` is the conjugate of ``rho01``).
    """

    p_left: NDArray[np.float64]
    p_origin: NDArray[np.float64]
    p_right: NDArray[np.float64]
    rho00: NDArray[np.float64]
    rho11: NDArray[np.float64]
    rho01: NDArray[np.complex128]


def check_count(name: str, value: Any, least: int = 1) -> None:
    """Raise ``InvalidParameterError`` unless ``value`` is an integer, not a
    bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidParameterError(f"{name} must be >= {least}, got {value}")


def check_periods(periods: Sequence[int], steps: int) -> NDArray[np.intp]:
    """The payoff-point spacings ``periods`` as a 1-D array; raise
    ``InvalidParameterError`` unless they are a sequence and each is an
    integer, not a bool, in ``[1, steps]``. Each is checked before the
    array is made, so a ragged list is refused too."""
    try:
        periods = list(periods)
    except TypeError:
        raise InvalidParameterError(f"periods must be a sequence, got {periods!r}") from None
    for period in periods:
        check_count("period", period)
        if period > steps:
            raise InvalidParameterError(f"period {period} exceeds the {steps} steps")
    return np.asarray(periods, dtype=np.intp)


def check_steps(steps: int) -> None:
    """Raise ``InvalidParameterError`` unless ``steps`` is an integer of at
    least 1, and ``CapacityError`` above ``MAX_STEPS``."""
    check_count("steps", steps)
    if steps > MAX_STEPS:
        raise CapacityError(
            f"{steps} steps exceed the budget of {MAX_STEPS} steps per game "
            f"(the work per game grows as the square of the steps)"
        )


def check_epsilon(epsilon: float) -> float:
    """The draw threshold as a float; raise ``InvalidParameterError`` unless
    it is a finite real number >= 0."""
    epsilon = check_real("epsilon", epsilon)
    if epsilon < 0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
    return epsilon


def evolve_games(
    games: Sequence[tuple[CoinParams, CoinParams, float, GameSequence]],
    steps: int,
) -> GameColumns:
    """Evolve games ``(coin_a, coin_b, eta_deg, schedule)`` together.

    Each game has its own coin pair, initial phase and schedule. Gives, at
    every step, what ``evolve_sequence`` followed by ``bias_sample`` and
    ``reduced_density`` give for each game alone, but keeps no snapshot:
    memory is O(G*T) for G games of T steps. Every game runs all T steps
    and every column is observed at every step.

    Raises
    ------
    InvalidParameterError
        If ``steps`` is not an integer of at least 1, no game is given, a
        game is not ``(CoinParams, CoinParams, eta_deg, GameSequence)``, or
        an ``eta_deg`` is not a finite real number.
    CapacityError
        If ``steps`` exceeds ``MAX_STEPS``; nothing is allocated then.
    """
    batch = _batch(games, steps)
    probs = np.empty((2, steps + 1, len(games)))
    prob0, prob1 = probs
    # rho01's product reuses the memory of both, whose sums are taken by then
    cross = probs.reshape(-1).view(np.complex128).reshape(steps + 1, len(games))
    table = np.zeros((steps, 5, len(games)))  # row t: the first five columns after step t + 1
    rho01 = np.empty((steps, len(games)), dtype=np.complex128)

    def observe(t, w0, w1, columns):
        n = t + 2  # occupied sites after step t + 1; site j lies at x = 2j - (t + 1)
        row = table[t]
        q0 = _abs2(w0, prob0[:n])
        q1 = _abs2(w1, prob1[:n])
        row[3] = _site_sum(q0)
        row[4] = _site_sum(q1)
        q = np.add(q0, q1, out=q0)
        left_end, right_start = _sides(t)
        row[0] = _site_sum(q[:left_end])
        if left_end < right_start:  # an even step count reaches the origin
            row[1] = q[left_end]
        row[2] = _site_sum(q[right_start:])
        np.conjugate(w1, out=cross[:n])
        rho01[t] = _site_sum(np.multiply(w0, cross[:n], out=cross[:n]))
        return None

    _evolve(*batch, observe)
    return GameColumns(*np.ascontiguousarray(table.transpose(1, 2, 0)), rho01.T.copy())


def evolve_verdicts(
    games: Sequence[tuple[CoinParams, CoinParams, float, GameSequence]],
    steps: int,
    periods: Sequence[int],
    signs: Sequence[int],
    epsilon: float,
) -> NDArray[np.bool_]:
    """Whether ``sign * bias > epsilon`` holds at every payoff point of each
    game, ``bias`` being ``p_right - p_left`` after that many steps.

    A game's payoff points are the multiples of its ``period`` up to
    ``steps``. Sign +1 asks whether a game is Winning and -1 whether it is
    Losing, exactly as ``metrics.payoff_verdicts`` decides on the columns of
    ``evolve_games``: each bias is bitwise the one those columns give. Only
    the bias of a game at one of its payoff points is computed. A game is
    retired at its first payoff point that fails; every ``_COMPACT_EVERY``
    steps the batch drops its retired games, and the walk ends as soon as
    none is left.

    Raises
    ------
    InvalidParameterError
        For what ``evolve_games`` rejects, an ``epsilon`` that is not a
        finite real number >= 0, or not one period (an integer, not a bool,
        in ``[1, steps]``) and one sign in {-1, 1} per game.
    CapacityError
        If ``steps`` exceeds ``MAX_STEPS``; nothing is allocated then.
    """
    batch = _batch(games, steps)
    epsilon = check_epsilon(epsilon)
    periods = check_periods(periods, steps)
    if len(periods) != len(games) or np.shape(signs) != (len(games),):
        raise InvalidParameterError(
            f"need one period and one sign per game, got {len(periods)} and "
            f"{np.size(signs)} for {len(games)} games"
        )
    signs = np.asarray(signs)
    if not np.isin(signs, (-1, 1)).all():
        raise InvalidParameterError(f"signs must be -1 or 1, got {signs.tolist()}")
    held = np.ones(len(games), dtype=bool)
    prob0, prob1 = np.empty((steps + 1) * len(games)), np.empty((steps + 1) * len(games))

    def observe(t, w0, w1, columns):
        live = held[columns]
        due = np.flatnonzero(live & ((t + 1) % periods[columns] == 0))
        if due.size:
            if due.size < len(columns):
                w0, w1 = np.take(w0, due, axis=1), np.take(w1, due, axis=1)
            shape = w0.shape  # the buffers' first n * k entries, so contiguous like w0
            q0 = _abs2(w0, prob0[:w0.size].reshape(shape))
            q = np.add(q0, _abs2(w1, prob1[:w1.size].reshape(shape)), out=q0)
            left_end, right_start = _sides(t)
            payoff = _site_sum(q[right_start:]) - _site_sum(q[:left_end])
            games_due = columns[due]
            live[due] = held[games_due] = signs[games_due] * payoff > epsilon
        return live

    _evolve(*batch, observe)
    return held


def _batch(
    games: Sequence[tuple[CoinParams, CoinParams, float, GameSequence]], steps: int
) -> tuple[NDArray[np.complex128], NDArray[np.intp], NDArray[np.complex128]]:
    """Check a batch and give its coin table, the ``(T, G)`` table rows each
    game applies at each step, and each game's initial coin-|1> amplitude.
    Each game must be ``(CoinParams, CoinParams, eta_deg, GameSequence)``."""
    check_steps(steps)
    if not games:
        raise InvalidParameterError("no game to evolve")
    # coin table: rows 2p and 2p + 1 are coins A and B of the p-th distinct pair
    pairs: dict[tuple[CoinParams, CoinParams], int] = {}
    schedules: dict[str, NDArray[np.intp]] = {}  # per schedule, 1 where it plays B
    choice = np.empty((steps, len(games)), dtype=np.intp)
    phases = []
    for g, game in enumerate(games):
        try:
            coin_a, coin_b, eta_deg, seq = game
        except (TypeError, ValueError):
            raise InvalidParameterError(
                f"a game is (coin_a, coin_b, eta_deg, schedule), got {game!r}") from None
        if not (isinstance(coin_a, CoinParams) and isinstance(coin_b, CoinParams)):
            raise InvalidParameterError(f"coins must be CoinParams, got {coin_a!r}, {coin_b!r}")
        if not isinstance(seq, GameSequence):
            raise InvalidParameterError(f"a schedule must be a GameSequence, got {seq!r}")
        eta = math.radians(check_real("eta_deg", eta_deg))
        phases.append(np.exp(1j * eta) / math.sqrt(2.0))
        if seq.tokens not in schedules:
            is_b = np.frombuffer(seq.tokens.encode(), dtype=np.uint8) == ord("B")
            schedules[seq.tokens] = np.resize(is_b.astype(np.intp), steps)
        choice[:, g] = 2 * pairs.setdefault((coin_a, coin_b), len(pairs)) + schedules[seq.tokens]
    coins = np.stack([make_coin(coin) for pair in pairs for coin in pair])
    return coins, choice, np.array(phases)


_COMPACT_EVERY = 8
"""Steps between two drops of retired games from an ``evolve_verdicts`` batch."""


def _evolve(
    coins: NDArray[np.complex128],
    choice: NDArray[np.intp],
    phases: NDArray[np.complex128],
    observe: Callable[..., NDArray[np.bool_] | None],
) -> None:
    """The one evolution loop of the batched kernel.

    After ``t`` steps only the sites ``x = -t + 2j`` (``j = 0..t``) are
    occupied, so each coin component is stored on that sublattice alone,
    one row per site and one column per game. Coin |1> keeps row ``j`` of
    ``a1``, since moving left maps site ``j`` at ``t`` to site ``j`` at
    ``t + 1``. Coin |0> moves right, to ``j + 1``, so its window
    ``a0[off:off + t + 1]`` slides one row down instead: the shift copies
    nothing, and the row it uncovers is still zero. Games never mix, and
    every sum over sites adds one site at a time, so each game's
    observables are bitwise the same whatever else is batched with it.

    After step ``t + 1`` it calls ``observe(t, w0, w1, columns)`` with the
    occupied rows of both components and the index of the game in each
    column. ``observe`` gives None, or a mask of the columns whose games are
    still live: the loop returns once none is, and every ``_COMPACT_EVERY``
    steps it drops the others' columns.
    """
    steps, width = choice.shape
    columns = np.arange(width)
    a0 = np.zeros((steps + 1, width), dtype=np.complex128)
    a1 = np.zeros_like(a0)
    a0[steps] = 1.0 / math.sqrt(2.0)
    a1[0] = phases
    scratch0, scratch1 = np.empty_like(a0), np.empty_like(a0)

    off = steps
    for t in range(steps):
        n = t + 1  # occupied sites before this step
        w0, w1 = a0[off:off + n], a1[:n]
        coin = coins[choice[t]]  # (G, 2, 2)
        c0 = np.multiply(w0, coin[:, 0, 0], out=scratch0[:n])
        c1 = np.multiply(w1, coin[:, 0, 1], out=scratch1[:n])
        np.multiply(w0, coin[:, 1, 0], out=w0)
        np.multiply(w1, coin[:, 1, 1], out=w1)
        np.add(w1, w0, out=w1)
        np.add(c0, c1, out=w0)
        off -= 1

        live = observe(t, a0[off:], a1[:n + 1], columns)
        if live is None or live.all():
            continue
        if not live.any():
            return
        if t % _COMPACT_EVERY == _COMPACT_EVERY - 1:
            keep = np.flatnonzero(live)  # take, unlike a mask, keeps the rows contiguous
            a0, a1, choice = (np.take(rows, keep, axis=1) for rows in (a0, a1, choice))
            columns = columns[keep]
            scratch0, scratch1 = np.empty_like(a0), np.empty_like(a0)


def _sides(t: int) -> tuple[int, int]:
    """After step ``t + 1``, the rows left of the origin end at the first
    value and those right of it start at the second; an even step count
    leaves the origin between them."""
    return (t + 2) // 2, (t + 1) // 2 + 1


def _abs2(amplitudes: NDArray[np.complex128], out: NDArray[np.float64]) -> NDArray[np.float64]:
    """Squared moduli of ``amplitudes``, written into ``out``."""
    np.multiply(amplitudes.real, amplitudes.real, out=out)
    out += amplitudes.imag * amplitudes.imag
    return out


def _site_sum(values: NDArray) -> NDArray:
    """Sum over sites (axis 0) for each game, adding one site at a time.

    numpy reduces several columns row by row but a single column pairwise;
    accumulating keeps a lone game on the order a batch uses.
    """
    if values.shape[1] > 1:
        return values.sum(axis=0)
    return np.add.accumulate(values, axis=0)[-1]
