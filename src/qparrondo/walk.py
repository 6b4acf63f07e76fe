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
each with its own coin pair, initial phase and schedule, together, in one
loop that also keeps every game's side probabilities: every
``_ANCHOR_EVERY`` steps it sets amplitudes under 1e-140 to 0, keeps only the
rows some game still holds (so decaying tails cost less than T**2) and sums
the sides over them; in between they follow the flux across the origin, in
O(1) per game and step. A walk is stored game-major in real numbers, each
game's four parts (re and im of its coin |1>, then of its coin |0>) on
contiguous rows, and each step does only what needs its own rows: the coin
step, one real ``np.matmul`` of every game's coin with its parts, the
anchor, one copy of the two rows the flux reads, and for ``evolve_games``
one ``np.matmul`` of each game's two coin |0> parts with its four, eight
dots over its occupied rows that give ``rho00`` and ``rho01``. The rest is
done once per block of steps: the block's coins are looked up, its sides
rebuilt from the copied rows, its products folded into columns, and its
observer called. Observers only record or judge: ``evolve_games`` records
all six columns (scans and simulations), and ``evolve_verdicts`` judges
each game's bias at its payoff points, retiring it at the first that
breaks its verdict (region grids). Every walk, one game included, runs
the same loop, in blocks of ``_COMPACT_EVERY`` steps, or of
``_ANCHOR_EVERY`` for a lone ``evolve_games`` game, which has no games to
retire. A game gives the bits it has in any batch and any block length:
dgemm rounds each row of a product, and each dot, by its values and length
alone (``test_kernel.py`` pins both), the coin step is taken on a multiple
of 4 rows, every game's dots span all the rows its step count occupies,
the flux adds in step order and the fold is elementwise.
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
its snapshots, at most 4095*2*8191*16 bytes, under 1 GiB. It also bounds
the kernel's BLAS calls: its density dots to 4,096 rows and its coin steps
to 4,100. With OpenBLAS 0.3.31 on a 2-core x86-64 host, a ``(2, 4096) @
(4096, 4)`` product and a ``(106, 2, 2, 4) @ (106, 1, 4, 4100)`` coin step
each gave the same bits at ``OPENBLAS_NUM_THREADS`` 1 and 2, and so did
products of 100,000 rows (``test_kernel.py`` pins walks of ``MAX_STEPS``)."""

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
    # a float, the common case, matches before the slower ABC check
    if not isinstance(value, (float, numbers.Real)) or isinstance(value, bool):
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
        if not _checked(self.tokens, str, "tokens"):
            raise InvalidParameterError("tokens: expected at least one token")
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
        amp = _array("amplitudes", self.amplitudes, np.complex128, (2, 2 * self.half_width + 1))
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
    a = math.radians(_checked(params, CoinParams, "coin").alpha_deg)
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
    _checked(spec, InitialStateSpec, "initial state")
    check_count("half_width", half_width)
    check_steps(half_width)
    amp = np.zeros((2, 2 * half_width + 1), dtype=np.complex128)
    eta = math.radians(spec.eta_deg)
    amp[0, half_width] = 1.0 / math.sqrt(2.0)
    amp[1, half_width] = np.exp(1j * eta) / math.sqrt(2.0)
    return WalkerState(step=0, half_width=half_width, amplitudes=amp)


def _array(name: str, value: Any, dtype: type, shape: tuple[int, ...] | None = None) -> NDArray:
    """``value`` as an array of ``dtype``; raise ``InvalidParameterError``
    if it is ragged or not numeric, or, with a ``shape``, not of it."""
    try:
        array = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):  # numpy's own, e.g. for [[1, 0], [0]]
        raise InvalidParameterError(
            f"{name} must be an array of {np.dtype(dtype)}, got {value!r}") from None
    if shape is not None and array.shape != shape:
        raise InvalidParameterError(f"{name} must have shape {shape}, got {array.shape}")
    return array


def _checked(record: Any, kind: type, name: str | None = None) -> Any:
    """``record``; raise ``InvalidParameterError`` unless it is a ``kind``,
    naming the field or argument ``name`` if given."""
    if not isinstance(record, kind):
        field = f"{name}: " if name else ""
        raise InvalidParameterError(f"{field}expected a {kind.__name__}, got {type(record).__name__}")
    return record


def _items(name: str, value: Any) -> list:
    """The items of ``value`` as a list; raise ``InvalidParameterError``
    unless it is a sequence, not a string or bytes of any kind, or a numpy
    array of at least one dimension. Such items pair up by position, and
    nothing else keeps a position: a set's order is its hash's, a mapping's
    items are its keys, a string's or bytes' items are characters or codes,
    and an iterator is used up when it is read."""
    if isinstance(value, (str, bytes, bytearray, memoryview)) or not (
            isinstance(value, abc.Sequence) or isinstance(value, np.ndarray) and value.ndim):
        raise InvalidParameterError(f"{name}: expected a sequence, got {type(value).__name__}")
    return list(value)


def apply_coin(state: WalkerState, coin: CoinMatrix) -> WalkerState:
    """Rotate the coin at every site: the 2-vector of amplitudes at each
    position is replaced by ``coin @ (a0, a1)``. Norm is preserved."""
    coin, state = _array("coin", coin, np.complex128, (2, 2)), _checked(state, WalkerState)
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
    if _checked(state, WalkerState).step >= state.half_width:
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
    _checked(seq, GameSequence, "schedule")
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
    density matrix (``rho10`` is the conjugate of ``rho01``). ``rho00`` and
    ``rho01`` are sums of dots, per game and step, of the re and im parts of
    its coin |0> component with those of both components, over all the
    sites the step count occupies; a dot's rounding depends only on its
    values and count. The sides are summed at each anchor of the
    walk and in between follow the flux, and ``rho11`` is their unclipped
    sum less ``rho00``, within 1e-13 of direct sums over the sites the walk
    holds.
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
    # an int, the common case, matches before the slower ABC check
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidParameterError(f"{name} must be >= {least}, got {value}")
    return int(value)


def check_periods(periods: Sequence[int], steps: int) -> NDArray[np.intp]:
    """The payoff-point spacings ``periods`` as a 1-D array; raise
    ``InvalidParameterError`` unless they are a list (see ``_items``: not a
    set, a mapping, bytes or an iterator) of integers, not bools, in ``[1,
    steps]``. Each is checked before the array is made, so a ragged list is
    refused too."""
    periods = _items("periods", periods)
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
    and every column is recorded at every step (see ``GameColumns``). A
    lone game runs the batched loop in blocks of ``_ANCHOR_EVERY`` steps
    and has bitwise the columns it has in any batch.

    Raises
    ------
    InvalidParameterError
        If ``steps`` is not an integer of at least 1, ``games`` is not a
        non-empty list (see ``_items``), a game is not a list ``(CoinParams,
        CoinParams, eta_deg, GameSequence)``, or an ``eta_deg`` is not a
        finite real number.
    CapacityError
        If ``steps`` exceeds ``MAX_STEPS``, or the games times ``steps``
        exceed ``MAX_GAME_STEPS``; nothing is allocated then, and a usage
        error is raised first.
    """
    games = _checked_games(games, steps)
    if len(games) * steps > MAX_GAME_STEPS:
        raise CapacityError(f"{len(games)} games of {steps} steps exceed the budget of "
                            f"{MAX_GAME_STEPS} game-steps per call")
    coins, choice, initial = _batch(games, steps)
    table = np.zeros((steps, 5, len(games)))  # row t: the first five columns after step t + 1
    rho01 = np.empty((steps, len(games)), dtype=np.complex128)
    # a lone game retires nothing, and pays each block's lookups and flux alone
    block = _COMPACT_EVERY if len(games) > 1 else _ANCHOR_EVERY
    products = np.empty((block, len(games), 2, 4))

    def observe(t, sides, columns):
        end = t + len(sides)
        _fold(sides, products[:len(sides)], table[t:end], rho01[t:end])

    _evolve(coins, choice, initial, observe, block, products)
    return GameColumns(*np.ascontiguousarray(table.transpose(1, 2, 0)), rho01.T.copy())


_ANCHOR_EVERY = 64
"""Steps between two direct site sums of a batch's sides. In between, the
sides follow the flux across the origin, each step rounding a little; the
sums bound the drift."""


def _fold(sides: NDArray, products: NDArray, rows: NDArray, rho01: NDArray) -> None:
    """Write into ``rows`` of ``evolve_games``' table the ``(steps, 3, G)``
    ``sides``, clipped at 0, ``rho00`` (``[0, 2] + [1, 3]`` of the ``(steps,
    G, 2, 4)`` ``products``) and ``rho11``, the unclipped sides' sum less
    ``rho00``, and into ``rho01`` ``[0, 0] + [1, 1]`` and ``[1, 0] - [0, 1]``."""
    np.maximum(sides[:, ::2], 0.0, out=rows[:, 0:3:2])
    rows[:, 1] = sides[:, 1]
    np.add(products[..., 0, 2], products[..., 1, 3], out=rows[:, 3])
    rows[:, 4] = sides[:, 0] + sides[:, 1] + sides[:, 2] - rows[:, 3]
    np.add(products[..., 0, 0], products[..., 1, 1], out=rho01.real)
    np.subtract(products[..., 1, 0], products[..., 0, 1], out=rho01.imag)


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
    games; a game's bits do not depend on its batch, and a one-game call
    runs the batched loop on one game. A game is retired at its first
    payoff point that fails. Retirement acts per block of ``_COMPACT_EVERY``
    steps: after each block a batch judges the block's payoff points and
    drops its retired games, and a walk with no live game left ends at the
    end of that block.

    Raises
    ------
    InvalidParameterError
        For what ``evolve_games`` rejects, an ``epsilon`` that is not a
        finite real number >= 0, or not one period (an integer, not a bool,
        in ``[1, steps]``) and one sign (an integer, not a bool, in {-1, 1})
        per game, each in a list (see ``_items``: not a set, a mapping, bytes
        or an iterator); every game is checked before any is walked.
    CapacityError
        If ``steps`` exceeds ``MAX_STEPS``; nothing is allocated then.
    """
    games = _checked_games(games, steps)
    epsilon = check_epsilon(epsilon)
    periods = check_periods(periods, steps)
    signs = _items("signs", signs)
    for sign in signs:  # each before the array is made, so a ragged list is refused too
        if check_count("sign", sign, least=-1) not in (-1, 1):
            raise InvalidParameterError(f"a sign must be -1 or 1, got {sign!r}")
    if len(periods) != len(games) or len(signs) != len(games):
        raise InvalidParameterError(
            f"need one period and one sign per game, got {len(periods)} and "
            f"{len(signs)} for {len(games)} games"
        )
    signs = np.asarray(signs)
    held = np.ones(len(games), dtype=bool)
    for part in _batches(len(games), steps):
        observe = _judge(held[part], periods[part], signs[part], epsilon)
        _evolve(*_batch(games[part], steps), observe, _COMPACT_EVERY)
    return held


def _batches(count: int, steps: int) -> list[slice]:
    """The fewest equal batches of ``count`` items, in order, that hold at most
    ``MAX_GAME_STEPS // steps`` each: walks of ``steps`` steps within the budget."""
    batches = -(-count // (MAX_GAME_STEPS // steps))
    return [slice(k * count // batches, (k + 1) * count // batches) for k in range(batches)]


def _judge(held: NDArray, periods: NDArray, signs: NDArray, epsilon: float) -> Callable:
    """``evolve_verdicts``' observer of one batch: after each block it sets
    ``held[g]``, a view into the flags of all games, to False if one of game
    ``g``'s payoff points in the block fails, and gives the flags of the
    batch's columns, which are the games still live when it is called."""

    def observe(t, sides, columns):
        due = np.arange(t + 1, t + 1 + len(sides))[:, None] % periods[columns] == 0
        if due.any():
            left, right = np.maximum(sides[:, ::2], 0.0).transpose(1, 0, 2)
            failed = (due & ~(signs[columns] * (right - left) > epsilon)).any(axis=0)
            held[columns[failed]] = False
        return held[columns]

    return observe


def _checked_games(
    games: Sequence[tuple[CoinParams, CoinParams, float, GameSequence]], steps: int
) -> list[tuple[CoinParams, CoinParams, float, GameSequence]]:
    """``games`` as a list of tuples; raise as ``check_steps`` does for
    ``steps``, and ``InvalidParameterError`` unless ``games`` is a non-empty
    list (see ``_items``) of ``(CoinParams, CoinParams, eta_deg,
    GameSequence)`` lists with a finite real ``eta_deg``."""
    check_steps(steps)
    if not (games := _items("games", games)):
        raise InvalidParameterError("games: expected at least one game")
    for i, game in enumerate(games):
        if type(game) is not tuple:  # a tuple, the common case, skips the slower ABC check
            games[i] = game = tuple(_items("a game", game))
        if len(game) != 4:
            raise InvalidParameterError(f"a game is (coin_a, coin_b, eta_deg, schedule), got {game!r}")
        coin_a, coin_b, eta_deg, seq = game
        _checked(coin_a, CoinParams, "coin_a")
        _checked(coin_b, CoinParams, "coin_b")
        _checked(seq, GameSequence, "schedule")
        check_real("eta_deg", eta_deg)
    return games


def _batch(
    games: Sequence[tuple[CoinParams, CoinParams, float, GameSequence]], steps: int
) -> tuple[NDArray[np.float64], NDArray[np.intp], NDArray[np.float64]]:
    """The coin table of games that ``_checked_games`` passed, the ``(T, G)`` table
    rows each game applies at each step, and the ``(G, 2, 2)`` initial coin
    vectors, each game's ``(w0, w1) = (1, e^{i eta}) / sqrt(2)`` at the origin,
    stored coin |1> first as ``[[Re w1, Im w1], [Re w0, Im w0]]`` (see
    ``_buffers``). A coin C, taken in that order as ``B = C[::-1, ::-1]``, is
    the real ``(2, 2, 4)`` map of ``(Re w1, Im w1, Re w0, Im w0)`` whose row
    ``[s, 0]`` gives the re part of slot ``s``, ``(Re B[s,0], -Im B[s,0], Re
    B[s,1], -Im B[s,1])``, and ``[s, 1]`` its im part, ``(Im B[s,0], Re
    B[s,0], Im B[s,1], Re B[s,1])``."""
    # coin table: rows 2p and 2p + 1 are coins A and B of the p-th distinct pair
    pairs: dict[tuple[CoinParams, CoinParams], int] = {}
    schedules: dict[str, int] = {}
    pair_of, schedule_of, phases = [], [], []
    for coin_a, coin_b, eta_deg, seq in games:
        pair_of.append(pairs.setdefault((coin_a, coin_b), len(pairs)))
        schedule_of.append(schedules.setdefault(seq.tokens, len(schedules)))
        phases.append((float(eta_deg), 0.0))  # coin |1>, then |0>: e^{i 0} is exactly 1
    letters = np.frombuffer("".join(schedules).encode(), dtype=np.uint8) == ord("B")
    lengths = np.array([len(tokens) for tokens in schedules])
    starts = np.cumsum(lengths) - lengths  # of each schedule's tokens in letters
    plays_b = letters[starts + np.arange(steps)[:, None] % lengths]  # (T, schedules)
    choice = np.ascontiguousarray(plays_b[:, schedule_of] + 2 * np.array(pair_of, dtype=np.intp))
    coins = np.stack([make_coin(coin) for pair in pairs for coin in pair])[:, ::-1, ::-1]
    re, im = coins.real, coins.imag
    table = np.stack([np.stack([re, -im], -1), np.stack([im, re], -1)], axis=2)
    initial = np.exp(1j * np.radians(phases)) / math.sqrt(2.0)
    return table.reshape(-1, 2, 2, 4), choice, np.stack([initial.real, initial.imag], axis=-1)


def _buffers(shape: tuple[int, ...]) -> list[tuple[NDArray, NDArray]]:
    """Two zeroed real amplitude buffers of ``shape``, ``(games, 2, 2,
    rows)``: part ``p`` (0 re, 1 im) of a
    game's coin |1> on sublattice row ``j`` at ``[..., 0, p, j]`` and of its
    coin |0> at ``[..., 1, p, j]``. Each comes with the view a coin step
    writes it through: ``[..., 0, p, j]`` of the view is row ``j`` of coin
    |1> and ``[..., 1, p, j]`` row ``j + 1`` of coin |0>, which is the shift.
    dgemm adds a coin step's four terms in the order of the parts, which sets
    its rounding: with coin |0> first, the swap walks of ``test_kernel.py``
    drifted 1.7e-13 from norm 1 in 4,095 steps, with coin |1> first at most
    6e-14; random swap coins drifted up to 4e-13 in either order, as under
    zgemm."""
    pair = np.zeros((2, *shape))
    *lead, component, part, row = pair[0].strides
    return [(buffer, np.lib.stride_tricks.as_strided(
                buffer, (*shape[:-1], shape[-1] - 1), (*lead, component + row, part, row)))
            for buffer in pair]


def _coin_step(coin: NDArray, held: NDArray, out: NDArray, lo: int, hi: int) -> None:
    """One step of the rows ``lo..hi - 1`` of ``held``: apply each game's
    real ``(2, 2, 4)`` coin (see ``_batch``) to its four parts ``(Re w1, Im
    w1, Re w0, Im w0)`` in one ``np.matmul``, a ``(2, 4) @ (4, rows)`` dgemm
    per game and coin component, and write them through ``out``, the
    shifting view of the other buffer. The rows are rounded up to a multiple
    of 4, and rows past ``hi`` hold 0, so every row a game holds has its bits
    in any window: numpy hands a one-row product to gemv, which rounds
    differently, while in 3,000 random windows of 2 to 63 rows each row had
    the bits it has in a wider product."""
    end = lo + (hi - lo + 3) // 4 * 4
    np.matmul(coin, held[..., lo:end].reshape(held.shape[:-3] + (1, 4, -1)), out=out[..., lo:end])


_COMPACT_EVERY = 8
"""Steps in one block of a walk of several games, and of every
``evolve_verdicts`` walk, a divisor of ``_ANCHOR_EVERY``, so an anchor
always starts a block. After each block the walk rebuilds its sides, calls
its observer and drops the games no longer live."""

_SIGNS = np.resize([1.0, -1.0], _ANCHOR_EVERY)[:, None, None]
"""Per step from an odd step count, how the flux moves the sides: an odd
count adds the mass that crossed, an even one takes it."""


def _evolve(
    coins: NDArray[np.float64],
    choice: NDArray[np.intp],
    initial: NDArray[np.float64],
    observe: Callable[..., NDArray[np.bool_] | None],
    block: int,
    products: NDArray | None = None,
) -> None:
    """The one evolution loop of the kernel, from each game's ``(2, 2)``
    coin vector ``initial[g]`` at the origin (see ``_batch``).

    After ``t`` steps only the sites ``x = -t + 2j`` (``j = 0..t``) are
    occupied, so each coin component is stored on that sublattice alone,
    game-major and in real numbers: part ``p`` (re, im) of coin |1> of the
    batch's ``g``-th game on row ``j`` at ``[g, 0, p, j]`` of a ``(G, 2, 2,
    rows)`` buffer, and of coin |0> at ``[g, 1, p, j]`` (see ``_buffers``).
    Coin |1> keeps its row, since moving left maps site ``j`` at ``t`` to
    site ``j`` at ``t + 1``, and coin |0> moves to ``j + 1``. Each step is
    one ``_coin_step`` from one buffer into the other, written through a view
    that puts coin |0> one row further on: the shift copies nothing.
    Games never mix and every game takes the same float operations, with
    site sums added one site at a time and dots over every occupied row, so
    each game gets the same bits in any batch, one game included.

    Only the rows ``lo..hi - 1`` may hold amplitude, and only they are
    stepped: a step adds row ``hi``, where coin |0> moves, and nothing moves
    below ``lo``. Every other row of both buffers holds 0, coin |0> of row
    ``lo`` of the buffer written next too, since no step writes it. The
    loop alone keeps each game's sides (``p_left``, ``p_origin``,
    ``p_right``). At each anchor (``t % _ANCHOR_EVERY == 0``) ``_anchor``
    flushes faint amplitudes, narrows the rows to those some game still
    holds and sums every game over them; rows dropped hold 0 for every game,
    and skipping a 0 never changes a sum. At every other step ``_crossing``
    copies the two rows whose mass the step carried across the origin.
    Into ``products``, if given, each step of a block writes its row: each
    game's ``(2, 4)`` product of its ``(Re w0, Im w0)`` parts with its ``(Re
    w1, Im w1, Re w0, Im w0)`` parts over the rows its step count occupies.

    The walk runs in blocks of ``block`` steps, a divisor of
    ``_ANCHOR_EVERY``, and a shorter last one. Each block looks up its coins
    at once; after it, ``_flux`` rebuilds the sides of all its steps from
    the rows copied, and the loop calls ``observe(t, sides, columns)`` with
    the block's first step ``t``, its ``(steps, 3, G)`` sides before they
    are clipped at 0, and each game's index in the batch. ``observe`` gives
    None, or a mask of the games still live: the loop returns once none is,
    and otherwise drops the others. The buffers hold only the rows the walk
    reaches in its first block; after it, the live games' rows held are
    copied once into buffers of every row the walk reaches, and when games
    are dropped later, the rows held of those kept move to the first games
    of the buffer held, so memory and page faults follow the games still
    live; the other buffer's rows need no move, since the next step
    rewrites those it may hold. A walk that drops games keeps no ``products``.
    """
    steps, width = choice.shape
    columns = np.arange(width)
    full = steps + 4  # a step's product reaches 3 rows past the t + 2 it occupies
    state, spare = _buffers((width, 2, 2, min(block, steps) + 4))
    state[0][..., 0] = initial
    crossed = np.empty((block, width, 2, 2))

    lo, hi = 0, 1  # rows outside lo..hi - 1 of the occupied sites hold 0
    for start in range(0, steps, block):
        played = coins[choice[start:start + block]]  # (n, G, 2, 2, 4)
        anchored = start % _ANCHOR_EVERY == 0
        for t, coin in enumerate(played, start):
            _coin_step(coin, state[0], spare[1], lo, hi)
            state, spare = spare, state
            held, hi = state[0], hi + 1
            if t % _ANCHOR_EVERY == 0:
                lo, hi, sides = _anchor(t, held, spare[0], lo, hi)
            else:
                _crossing(t, state, crossed[t - start])
            if products is not None:
                occupied = held[..., :t + 2]
                np.matmul(occupied[:, 1], occupied.reshape(len(occupied), 4, -1).mT,
                          out=products[t - start])

        block_sides = _flux(sides, crossed[anchored:len(played)], anchored)
        sides = block_sides[-1]
        live = observe(start, block_sides, columns)
        if live is None or live.all():
            if held.shape[-1] == full:
                continue
            keep = slice(None)
        elif not live.any():
            return
        else:
            keep = np.flatnonzero(live)
            choice, columns, sides = choice[:, keep], columns[keep], sides[:, keep]
            crossed = np.empty((block, len(keep), 2, 2))
        if held.shape[-1] < full:  # grown once, for the live games
            grown = _buffers((len(columns), 2, 2, full))
            grown[0][0][..., lo:hi] = held[keep, ..., lo:hi]
            state, spare = grown
        else:  # the kept games' rows move to the first slots of the buffer held
            kept = len(keep)
            # not spare: the next step rewrites all it may hold, and the rest is 0 in every slot
            held[:kept, ..., lo:hi] = held[keep, ..., lo:hi]
            state, spare = [(buffer[:kept], view[:kept]) for buffer, view in (state, spare)]


_FLUSH_BELOW = 1e-280
"""At each anchor, a game's amplitude pair whose ``|w0|^2 + |w1|^2`` is below
this is set to 0, dropping at most sites * 1e-280 of probability. Beyond
about ``|cos beta| * t`` a walk decays exponentially; left alone, its tail
passes through subnormal floats, which multiply many times slower, to 0."""


def _anchor(t: int, held: NDArray, spare: NDArray, lo: int, hi: int) -> tuple[int, int, NDArray]:
    """The anchor after step ``t + 1``: square the rows ``lo..hi - 1`` of the
    ``(G, 2, 2, rows)`` buffer ``held`` once, set each game's faint pairs there
    to 0, and give the rows some game still holds, or the flux reads until
    the next anchor, with each game's three sides summed over them:
    ``p_left``, ``p_origin``, ``p_right``. The rows given start one below
    the first held, or at the first row a walk occupies, since no step
    writes coin |0> of the lowest row it steps; the rows dropped are set
    to 0 in ``spare``, the buffer the next step writes."""
    w = held[..., lo:hi]
    q = _abs2(w[:, :, 0], w[:, :, 1])
    total = q[:, 0] + q[:, 1]
    faint = total < _FLUSH_BELOW  # per game and row, from its own values
    np.copyto(w, 0.0, where=faint[:, None, None])
    total[faint] = 0.0
    kept = np.flatnonzero(~faint.all(axis=0))
    origin, _ = _sides(t, lo)
    first, last = max(min(kept[0], origin) - 1, 0), max(kept[-1] + 1, origin + 1)
    spare[..., lo:lo + first + 1] = spare[..., lo + last:hi] = 0.0
    total = total[:, first:last]
    left_end, right_start = _sides(t, lo + first)
    sums = np.zeros((3, len(w)))
    sums[0], sums[2] = _site_sum(total[:, :left_end]), _site_sum(total[:, right_start:])
    sums[1] = total[:, left_end] if left_end < right_start else 0.0  # an even count reaches x = 0
    return lo + first, lo + last, sums


def _sides(t: int, first: int) -> tuple[int, int]:
    """After step ``t + 1``, in a window that starts at occupied row ``first``,
    the rows left of the origin end at the first value and those right of it
    start at the second; an even step count leaves the origin between them."""
    return (t + 2) // 2 - first, (t + 1) // 2 + 1 - first


def _abs2(re: NDArray, im: NDArray) -> NDArray:
    """Squared moduli ``re * re + im * im`` of the amplitudes in two arrays."""
    return re * re + im * im


def _site_sum(values: NDArray) -> NDArray:
    """Sum over sites (the last axis) for each game, adding one site at a
    time, so that rows of 0 before or after a game's own change nothing:
    numpy reduces a contiguous axis pairwise, which rounds by its length."""
    return np.add.accumulate(values, axis=-1)[..., -1]


def _crossing(t: int, state: tuple[NDArray, NDArray], out: NDArray) -> None:
    """Copy into ``out``, ``(G, 2, 2)``, the two rows whose mass step ``t +
    1`` carried across the origin, each as its re and im parts, in one copy
    from ``state``, the buffer held and its shifting view (see
    ``_buffers``). A step moves mass one site. With ``j`` the row after the
    last left of the origin: after an odd count the origin's coin |1> has
    gone to x = -1, row ``j - 1``, and coin |0> to x = 1, row ``j``, which
    the view holds side by side at ``j - 1``; after an even one coin |0> has
    come to row ``j``, the origin, from the left and coin |1> from the right."""
    buffer, view = state
    j = (t + 2) // 2
    out[...] = view[..., j - 1] if t % 2 == 0 else buffer[:, ::-1, :, j]


def _flux(sides: NDArray, crossed: NDArray, anchored: bool) -> NDArray:
    """The ``(steps, 3, G)`` sides after each step of a block, from the
    ``(3, G)`` sides before it, or with ``anchored`` after its first step,
    and the ``(steps, G, 2, 2)`` rows ``_crossing`` copied at each later
    step. After an odd step count the mass that crossed is added, to the
    left from coin |1> and to the right from coin |0>, and the origin is
    empty; after an even one it is taken, and the origin holds it. The sides
    of all steps come from one ``np.add.accumulate``, which adds in step
    order; ``a - b`` is ``a + (-b)``, so they are bitwise those of one step."""
    q = _abs2(crossed[..., 0], crossed[..., 1]).swapaxes(1, 2)  # (steps, 2, G): the squared rows
    run = np.empty((len(q) + 1, 3, sides.shape[1]))
    run[0] = sides
    np.multiply(q, _SIGNS[anchored:anchored + len(q)], out=run[1:, ::2])
    np.add.accumulate(run[:, ::2], axis=0, out=run[:, ::2])
    origin = run[1:, 1]
    np.add(q[:, 0], q[:, 1], out=origin)
    origin[anchored::2] = 0.0
    return run[1 - anchored:]

