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
in one loop that also keeps every game's side probabilities: every
``_ANCHOR_EVERY`` steps it sets amplitudes under 1e-140 to 0, keeps only
the rows some game still holds (so decaying tails cost less than T**2) and
sums the sides over them; in between they follow the flux across the
origin, in O(1) per game and step. Observers only record or judge:
``evolve_games`` records all six columns (scans and simulations), and
``evolve_verdicts`` judges each game's bias at its payoff points, retiring
it at the first that breaks its verdict (region grids). A lone game is
walked on Python numbers and gives the bits it has in any batch.
"""

from __future__ import annotations

import math
import numbers
from collections import abc
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
    "MAX_STEPS",
    "MAX_GAME_STEPS",
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
]

CoinMatrix = NDArray[np.complex128]
"""2x2 unitary with unit determinant, acting on the coin."""

MAX_STEPS = 4095
"""The one walk budget. ``evolve_games`` runs at most this many steps: its
memory is O(G*T), but its work per game is at most T**2 site-steps, less
where the game's tails decay. ``evolve_sequence``
runs at most this many steps on a lattice of that half-width, which keeps
its snapshots, at most 4095*2*8191*16 bytes, under 1 GiB."""

MAX_GAME_STEPS = 128 * 4096
"""The kernel's budget: most games times steps one walk holds, 128 games at
``MAX_STEPS``. A walk allocates each game's amplitudes on every site it can
reach, so its memory grows with its game-steps. ``evolve_games`` refuses a
call beyond it, and ``evolve_verdicts`` walks any number of games in the
fewest equal batches within it. ``run_scan`` hands ``evolve_games`` at most
``MAX_GAME_STEPS // MAX_STEPS`` games a call at any horizon, since it holds
every column: a max-period-10 scan at 240 steps peaked at 107 MiB in one
call, against 39 MiB in 16. CHANGES.md records the timings of widths."""


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
        check_count("half_width", self.half_width)
        check_count("step", self.step, least=0)
        if self.step > self.half_width:
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

    Raises
    ------
    InvalidParameterError
        If ``params`` is not a ``CoinParams``.
    """
    if not isinstance(params, CoinParams):
        raise InvalidParameterError(f"a coin must be CoinParams, got {params!r}")
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
        If ``spec`` is not an ``InitialStateSpec``, or ``half_width`` is not
        an integer of at least 1 (a bool is not one).
    CapacityError
        If ``half_width`` exceeds ``MAX_STEPS``; nothing is allocated then.
    """
    if not isinstance(spec, InitialStateSpec):
        raise InvalidParameterError(f"an initial state must be InitialStateSpec, got {spec!r}")
    check_count("half_width", half_width)
    check_steps(half_width)
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
        If ``total_steps`` is not an integer of at least 1, or an argument
        is not of its type.
    CapacityError
        If ``total_steps`` is larger than ``MAX_STEPS``; nothing is
        allocated then.
    """
    check_count("total_steps", total_steps)
    check_steps(total_steps)
    if not isinstance(seq, GameSequence):
        raise InvalidParameterError(f"a schedule must be a GameSequence, got {seq!r}")
    coins = {"A": make_coin(coin_a), "B": make_coin(coin_b)}
    state = initial_state(spec, total_steps)
    snapshots: list[WalkerState] = []
    for k in range(total_steps):
        state = step(state, coins[seq.tokens[k % seq.period]])
        snapshots.append(state)
    return snapshots


class GameColumns(NamedTuple):
    """Per-step observables of G games, each a ``(G, T)`` array.

    Row ``g`` belongs to the ``g``-th schedule and column ``k`` to the state
    after ``k + 1`` elementary steps. ``p_left``, ``p_origin`` and
    ``p_right`` are the probabilities left of, at and right of the origin;
    ``rho00``, ``rho11`` and ``rho01`` are the entries of the reduced coin
    density matrix (``rho10`` is the conjugate of ``rho01``). ``rho01`` is
    summed over sites at every step, the others at each anchor of the walk;
    in between the sides follow the flux and ``rho00``, ``rho11`` the coin,
    within 1e-13 of direct sums over the sites the walk holds.
    """

    p_left: NDArray[np.float64]
    p_origin: NDArray[np.float64]
    p_right: NDArray[np.float64]
    rho00: NDArray[np.float64]
    rho11: NDArray[np.float64]
    rho01: NDArray[np.complex128]


def check_count(name: str, value: Any, least: int = 1) -> int:
    """``value`` as an int; raise ``InvalidParameterError`` unless it is an
    integer, not a bool, of at least ``least``. A numpy integer is one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidParameterError(f"{name} must be >= {least}, got {value}")
    return int(value)


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
    and every column is recorded at every step (see ``GameColumns``).

    Raises
    ------
    InvalidParameterError
        If ``steps`` is not an integer of at least 1, ``games`` is not a
        non-empty sequence, a game is not ``(CoinParams, CoinParams,
        eta_deg, GameSequence)``, or an ``eta_deg`` is not a finite real
        number.
    CapacityError
        If ``steps`` exceeds ``MAX_STEPS``, or the games times ``steps``
        exceed ``MAX_GAME_STEPS``; nothing is allocated then, and a usage
        error is raised first.
    """
    games = _checked_games(games, steps)
    if len(games) * steps > MAX_GAME_STEPS:
        raise CapacityError(f"{len(games)} games of {steps} steps exceed the budget of "
                            f"{MAX_GAME_STEPS} game-steps per call")
    coins, choice, phases = _batch(games, steps)
    table = np.zeros((steps, 5, len(games)))  # row t: the first five columns after step t + 1
    rho01 = np.empty((steps, len(games)), dtype=np.complex128)
    observer = _observe_one if len(games) == 1 else _observe_all
    _evolve(coins, choice, phases, observer(table, rho01, _conjugation(coins), choice))
    return GameColumns(*np.ascontiguousarray(table.transpose(1, 2, 0)), rho01.T.copy())


_ANCHOR_EVERY = 64
"""Steps between two direct site sums of every column of a batch. In
between, the sides follow the flux across the origin and ``rho00`` and
``rho11`` the coin, each rounding a little; the sums bound the drift."""


def _observe_all(table: NDArray, rho01: NDArray, factors: NDArray, choice: NDArray) -> Callable:
    """``evolve_games``' observer: after step t + 1 it writes the first five
    columns of every game into ``table[t]`` and ``rho01``'s into ``rho01[t]``."""
    steps, _, width = table.shape
    cross = np.empty((steps + 1, width), dtype=np.complex128)

    def observe(t, w0, w1, sides, sums, columns):
        row = table[t]
        if sums is None:
            np.maximum(sides[::2], 0.0, out=row[0:3:2])
            row[1] = sides[1]
            f, before = factors.take(choice[t], axis=2), table[t - 1]
            x, y = rho01[t - 1].real, rho01[t - 1].imag
            np.add(f[0] * before[3] + f[1] * before[4], f[2] * x - f[3] * y, out=row[3:])
        else:
            row[:] = sums
        product = np.conjugate(w1, out=cross[:len(w0)])
        rho01[t] = _site_sum(np.multiply(w0, product, out=product))
        return None

    return observe


def _observe_one(table: NDArray, rho01: NDArray, factors: NDArray, choice: NDArray) -> Callable:
    """``_observe_all`` for a lone game, bit for bit: it takes the same float
    operations in the same order on Python floats, and sums ``rho01`` one
    site at a time, the order a batch sums in, on 1-D views of its column."""
    rows, rho = table[..., 0], rho01[:, 0]
    per_coin = factors.transpose(2, 0, 1).reshape(-1, 8).tolist()
    lone = [per_coin[c] for c in choice[:, 0].tolist()]
    spare = np.empty(len(table) + 1, dtype=np.complex128)
    rho00 = rho11 = x = y = 0.0

    def observe(t, w0, w1, sides, sums, columns):
        nonlocal rho00, rho11, x, y
        if sums is None:
            left, origin, right = sides
            a0, a1, b0, b1, c0, c1, d0, d1 = lone[t]
            rho00, rho11 = (a0 * rho00 + b0 * rho11 + (c0 * x - d0 * y),
                            a1 * rho00 + b1 * rho11 + (c1 * x - d1 * y))
            rows[t] = max(left, 0.0), origin, max(right, 0.0), rho00, rho11
        else:
            rows[t] = sums[:, 0]
            rho00, rho11 = sums[3:, 0].tolist()
        cross = spare[:len(w0)]
        np.multiply(w0[:, 0], np.conjugate(w1[:, 0], out=cross), out=cross)
        rho[t] = total = complex(np.add.accumulate(cross, out=cross)[-1] + 0.0)  # as a batch's
        x, y = total.real, total.imag
        return None

    return observe


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
    ``evolve_games``: each bias is bitwise the one those columns give, from
    the sides the walk keeps. Any number of games is walked, in input order,
    in the fewest equal batches of at most ``MAX_GAME_STEPS // steps``
    games; a game's bits do not depend on its batch. A game is retired at
    its first payoff point that fails; every ``_COMPACT_EVERY`` steps a
    batch drops its retired games, and its walk ends as soon as none is left.

    Raises
    ------
    InvalidParameterError
        For what ``evolve_games`` rejects, an ``epsilon`` that is not a
        finite real number >= 0, or not one period (an integer, not a bool,
        in ``[1, steps]``) and one sign (an integer, not a bool, in {-1, 1})
        per game; every game is checked before any is walked.
    CapacityError
        If ``steps`` exceeds ``MAX_STEPS``; nothing is allocated then.
    """
    games = _checked_games(games, steps)
    epsilon = check_epsilon(epsilon)
    periods = check_periods(periods, steps)
    try:
        signs = list(signs)
    except TypeError:
        raise InvalidParameterError(f"signs must be a sequence, got {signs!r}") from None
    for sign in signs:  # each before the array is made, so a ragged list is refused too
        if isinstance(sign, bool) or not isinstance(sign, numbers.Integral) or sign not in (-1, 1):
            raise InvalidParameterError(f"a sign must be the integer -1 or 1, got {sign!r}")
    if len(periods) != len(games) or len(signs) != len(games):
        raise InvalidParameterError(
            f"need one period and one sign per game, got {len(periods)} and "
            f"{len(signs)} for {len(games)} games"
        )
    signs = np.asarray(signs)
    held = np.ones(len(games), dtype=bool)
    batches = -(-len(games) // (MAX_GAME_STEPS // steps))
    for k in range(batches):
        part = slice(k * len(games) // batches, (k + 1) * len(games) // batches)
        observe = _judge(held[part], periods[part], signs[part], epsilon)
        _evolve(*_batch(games[part], steps), observe)
    return held


def _judge(held: NDArray, periods: NDArray, signs: NDArray, epsilon: float) -> Callable:
    """``evolve_verdicts``' observer of one batch: it sets ``held[g]``, a view
    into the flags of all games, to False at game ``g``'s first payoff point
    that fails, and gives the mask of the batch's columns still live."""

    def observe(t, w0, w1, sides, sums, columns):
        live = held[columns]
        due = np.flatnonzero(live & ((t + 1) % periods[columns] == 0))
        if due.size:
            games_due = columns[due]
            left, right = np.maximum(sides[::2], 0.0).reshape(2, -1)[:, due]  # lone: floats
            live[due] = held[games_due] = signs[games_due] * (right - left) > epsilon
        return live

    return observe


def _checked_games(
    games: Sequence[tuple[CoinParams, CoinParams, float, GameSequence]], steps: int
) -> list[tuple[CoinParams, CoinParams, float, GameSequence]]:
    """``games`` as a list of tuples; raise as ``check_steps`` does for
    ``steps``, and ``InvalidParameterError`` unless ``games`` is a non-empty
    sequence of ``(CoinParams, CoinParams, eta_deg, GameSequence)`` with a
    finite real ``eta_deg``."""
    check_steps(steps)
    if not isinstance(games, abc.Sequence) or not games:
        raise InvalidParameterError(f"games must be a non-empty sequence, got {games!r}")
    checked = []
    for game in games:
        try:
            game = tuple(game)  # the same object for a tuple
            coin_a, coin_b, eta_deg, seq = game
        except (TypeError, ValueError):
            raise InvalidParameterError(
                f"a game is (coin_a, coin_b, eta_deg, schedule), got {game!r}") from None
        if not (isinstance(coin_a, CoinParams) and isinstance(coin_b, CoinParams)):
            raise InvalidParameterError(f"coins must be CoinParams, got {coin_a!r}, {coin_b!r}")
        if not isinstance(seq, GameSequence):
            raise InvalidParameterError(f"a schedule must be a GameSequence, got {seq!r}")
        check_real("eta_deg", eta_deg)
        checked.append(game)
    return checked


def _batch(
    games: Sequence[tuple[CoinParams, CoinParams, float, GameSequence]], steps: int
) -> tuple[NDArray[np.complex128], NDArray[np.intp], NDArray[np.complex128]]:
    """The coin table of games that ``_checked_games`` passed, the ``(T, G)`` table
    rows each game applies at each step, and each game's initial coin-|1>
    amplitude."""
    # coin table: rows 2p and 2p + 1 are coins A and B of the p-th distinct pair
    pairs: dict[tuple[CoinParams, CoinParams], int] = {}
    schedules: dict[str, int] = {}
    pair_of, schedule_of, phases = [], [], []
    for coin_a, coin_b, eta_deg, seq in games:
        pair_of.append(pairs.setdefault((coin_a, coin_b), len(pairs)))
        schedule_of.append(schedules.setdefault(seq.tokens, len(schedules)))
        phases.append(np.exp(1j * math.radians(float(eta_deg))) / math.sqrt(2.0))
    plays_b = np.stack([np.resize(np.frombuffer(tokens.encode(), dtype=np.uint8) == ord("B"),
                                  steps) for tokens in schedules], axis=1)  # (T, schedules)
    choice = np.ascontiguousarray(plays_b[:, schedule_of] + 2 * np.array(pair_of, dtype=np.intp))
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
    nothing, and the row it uncovers is still zero. Games never mix and
    every column takes the same float operations, with site sums added one
    site at a time, so each game gets the same bits in any batch; a lone
    game's coin entries and sides are Python numbers, which round alike.

    Only the rows ``lo..hi - 1`` may hold amplitude, and only they are
    stepped: a step adds row ``hi``, where coin |0> moves, and nothing moves
    below ``lo``. The loop alone keeps each game's sides (``p_left``,
    ``p_origin``, ``p_right``). At each anchor (``t % _ANCHOR_EVERY == 0``)
    ``_anchor`` flushes faint amplitudes, narrows the rows to those some
    game still holds and sums every column over them; rows dropped hold 0
    for every game, and skipping a 0 never changes a sum. Between anchors
    ``_flux`` moves the mass each step carries across the origin.

    After step ``t + 1`` it calls ``observe(t, w0, w1, sides, sums,
    columns)`` with the rows of both components that may hold amplitude,
    the sides before they are clipped at 0, the ``(5, G)`` anchor sums (the
    sides, ``rho00``, ``rho11``) or None, and each column's game index.
    ``observe`` gives None, or a mask of the columns whose games are still
    live: the loop returns once none is, and every ``_COMPACT_EVERY`` steps
    drops the others' columns and sides, copying only the rows held.
    """
    steps, width = choice.shape
    columns = np.arange(width)
    a0 = np.zeros((steps + 1, width), dtype=np.complex128)
    a1 = np.zeros_like(a0)
    a0[steps] = 1.0 / math.sqrt(2.0)
    a1[0] = phases
    scratch0, scratch1 = np.empty_like(a0), np.empty_like(a0)

    entries = coins.reshape(-1, 4).tolist()  # each coin as [u00, u01, u10, u11]
    lone = [entries[row] for row in choice[:, 0].tolist()] if width == 1 else None

    off, lo, hi = steps, 0, 1  # rows outside lo..hi - 1 of the occupied sites hold 0
    w0, w1 = a0[off + lo:off + hi], a1[lo:hi]
    for t in range(steps):
        if lone:
            u00, u01, u10, u11 = lone[t]
        else:
            coin = coins[choice[t]]  # (G, 2, 2)
            u00, u01, u10, u11 = coin[:, 0, 0], coin[:, 0, 1], coin[:, 1, 0], coin[:, 1, 1]
        c0 = np.multiply(w0, u00, out=scratch0[:hi - lo])
        c1 = np.multiply(w1, u01, out=scratch1[:hi - lo])
        np.multiply(w0, u10, out=w0)
        np.multiply(w1, u11, out=w1)
        np.add(w1, w0, out=w1)
        np.add(c0, c1, out=w0)
        off, hi = off - 1, hi + 1
        sums = None
        if t % _ANCHOR_EVERY == 0:
            lo, hi, sums = _anchor(t, a0[off:], a1, lo, hi)
            left, origin, right = sums[:3, 0].tolist() if lone else sums[:3]
        w0, w1 = a0[off + lo:off + hi], a1[lo:hi]  # the rows held, and stepped next
        if sums is None:
            left, origin, right = _flux(t, w0, w1, lo, left, right)

        live = observe(t, w0, w1, (left, origin, right), sums, columns)
        if live is None or live.all():
            continue
        if not live.any():
            return
        if t % _COMPACT_EVERY == _COMPACT_EVERY - 1:
            keep = np.flatnonzero(live)  # take, unlike a mask, keeps the rows contiguous
            b0, b1 = np.zeros((2, steps + 1, len(keep)), dtype=np.complex128)
            w0 = np.take(w0, keep, axis=1, out=b0[off + lo:off + hi])
            w1 = np.take(w1, keep, axis=1, out=b1[lo:hi])
            a0, a1, choice = b0, b1, np.take(choice, keep, axis=1)
            columns, left, right = columns[keep], left[keep], right[keep]
            scratch0, scratch1 = np.empty_like(a0), np.empty_like(a0)


_FLUSH_BELOW = 1e-280
"""At each anchor, a game's amplitude pair whose ``|w0|^2 + |w1|^2`` is below
this is set to 0, dropping at most sites * 1e-280 of probability. Beyond
about ``|cos beta| * t`` a walk decays exponentially; left alone, its tail
passes through subnormal floats, which multiply many times slower, to 0."""


def _anchor(t: int, a0: NDArray, a1: NDArray, lo: int, hi: int) -> tuple[int, int, NDArray]:
    """The anchor after step ``t + 1``: square the rows ``lo..hi - 1`` of the
    occupied windows ``a0``, ``a1`` once, set each game's faint pairs there
    to 0, and give the rows some game still holds, or ``_flux`` reads until
    the next anchor, with each column's five sums over them: ``p_left``,
    ``p_origin``, ``p_right``, ``rho00`` and ``rho11``."""
    w0, w1 = a0[lo:hi], a1[lo:hi]
    q0, q1 = _abs2(w0), _abs2(w1)
    q = q0 + q1
    faint = q < _FLUSH_BELOW  # per game and row, from its own values
    for values in (w0, w1, q0, q1, q):
        values[faint] = 0.0
    held = np.flatnonzero(~faint.all(axis=1))
    origin, _ = _sides(t, lo)
    first, last = min(held[0], origin - 1), max(held[-1] + 1, origin + 1)
    q0, q1, q = q0[first:last], q1[first:last], q[first:last]
    left_end, right_start = _sides(t, lo + first)
    sums = np.zeros((5, w0.shape[1]))
    sums[0], sums[2] = _site_sum(q[:left_end]), _site_sum(q[right_start:])
    sums[1] = q[left_end] if left_end < right_start else 0.0  # an even count reaches x = 0
    sums[3], sums[4] = _site_sum(q0), _site_sum(q1)
    return lo + first, lo + last, sums


def _sides(t: int, first: int) -> tuple[int, int]:
    """After step ``t + 1``, in a window that starts at occupied row ``first``,
    the rows left of the origin end at the first value and those right of it
    start at the second; an even step count leaves the origin between them."""
    return (t + 2) // 2 - first, (t + 1) // 2 + 1 - first


def _abs2(amplitudes: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Squared moduli of ``amplitudes``, each ``re * re + im * im``."""
    return amplitudes.real * amplitudes.real + amplitudes.imag * amplitudes.imag


def _site_sum(values: NDArray) -> NDArray:
    """Sum over sites (axis 0) for each game, adding one site at a time:
    numpy reduces several columns row by row but a single column pairwise,
    so a lone column is accumulated, in the order a batch uses."""
    if values.shape[1] > 1:
        return values.sum(axis=0)
    return np.add.accumulate(values, axis=0)[-1]


def _flux(t: int, w0: NDArray, w1: NDArray, first: int, left: Any, right: Any) -> tuple:
    """The sides after step ``t + 1``, from those before it and the mass the
    step carried across the origin in the windows that start at occupied
    row ``first``. A step moves mass one site: after an odd count the
    origin's coin |1> has gone to x = -1 and coin |0> to x = 1, after an
    even one coin |0> has come to the origin from the left and coin |1>
    from the right. A lone game's sides and rows are Python numbers."""
    j, right_start = _sides(t, first)  # j: the row after the last left of the origin
    odd = j == right_start
    u, v = (w1[j - 1], w0[j]) if odd else (w0[j], w1[j])
    if isinstance(left, float):
        u, v = u.item(), v.item()
    q0, q1 = _abs2(u), _abs2(v)
    if odd:
        return left + q0, 0.0, right + q1
    return left - q0, q0 + q1, right - q1


def _conjugation(coins: NDArray[np.complex128]) -> NDArray[np.float64]:
    """The diagonal of ``C rho C^dagger`` in real arithmetic: ``[:, r, c]`` of
    this ``(4, 2, coins)`` table holds, for row ``r`` of coin ``c``,
    ``|u_r0|^2``, ``|u_r1|^2`` and twice Re and Im of ``u_r0 conj(u_r1)``, and
    ``rho_rr = f0 * rho00 + f1 * rho11 + (f2 * Re rho01 - f3 * Im rho01)``.
    The shift leaves the diagonal alone."""
    u0, u1 = coins[:, :, 0].T, coins[:, :, 1].T  # (2, coins): each row's entries
    cross = 2.0 * u0 * u1.conj()
    return np.stack((_abs2(u0), _abs2(u1), cross.real, cross.imag))
