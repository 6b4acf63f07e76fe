"""The batched kernel ``evolve_games`` against the per-step reference path.

The reference is ``evolve_sequence`` (one full-width snapshot per step)
followed by ``trajectory_with_entropy`` and ``reduced_density``; the kernel
must equal it within 1e-12 at every step of every game, give each game the
same bits in any batch, and hold only O(G*T) memory. ``evolve_verdicts``,
the same loop judging each bias at its payoff points, must give the verdicts
``payoff_verdicts`` gives on the full columns, however its batch shrinks.
"""

import contextlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qparrondo import (
    CapacityError,
    CoinParams,
    GameSequence,
    GameVerdict,
    GridAxis,
    InitialStateSpec,
    InvalidParameterError,
    ScanConfig,
    enumerate_sequences,
    evolve_sequence,
    game_trajectory,
    reduced_density,
    run_scan,
    scan_region_grid,
    trajectory_with_entropy,
)
from qparrondo import scan, walk
from qparrondo.metrics import bias, entropy_bits, payoff_verdicts
from qparrondo.scan import SequenceResult
from qparrondo.walk import MAX_STEPS, GameColumns, evolve_games, evolve_verdicts

from benchmarks import REGIME_DOUBLE_1, REGIME_DOUBLE_2, REGIME_ONE_SIDED

TOL = 1e-12
REGIMES = {"OS": REGIME_ONE_SIDED, "D1": REGIME_DOUBLE_1, "D2": REGIME_DOUBLE_2}


def every_game(max_period):
    return [GameSequence("A"), GameSequence("B"), *enumerate_sequences(max_period)]


def swap_games(beta):
    """A, AB and AAB on two swap coins (beta 90 or 270 degrees): the walk
    stays on the sites -1, 0 and 1, and its mass crosses the origin at
    every step."""
    coin_a, coin_b = CoinParams(156, beta, 0), CoinParams(0, beta, 160)
    return [(coin_a, coin_b, 90.0, GameSequence(tokens)) for tokens in ("A", "AB", "AAB")]


SWAP = {beta: swap_games(beta) for beta in (90.0, 270.0)}

TRANSLATION = [(CoinParams(30, 0, 0), CoinParams(0, 0, 50), 90.0, GameSequence(tokens))
               for tokens in ("A", "AB")]
"""Two translation coins (beta 0): coin |0> runs right and coin |1> left,
so all mass leaves the origin and the sites between stay empty."""

REAL_COINS = [(CoinParams(0, 40, 0), CoinParams(0, 70, 0), 0.0, GameSequence(tokens))
              for tokens in ("A", "AB", "ABB")]
"""Two real coins from a real initial state (eta 0): every amplitude stays
real, so each ``rho01`` has an imaginary part that is a sum of zeros."""

SCAN_GAMES = [(REGIME_ONE_SIDED["coin_a"], REGIME_ONE_SIDED["coin_b"], REGIME_ONE_SIDED["eta_deg"],
               seq) for seq in every_game(12)]
"""Every game of a max-period-12 scan in the one-sided regime."""


def kernel(regime, schedules, steps):
    return evolve_games(
        [(regime["coin_a"], regime["coin_b"], regime["eta_deg"], seq) for seq in schedules], steps
    )


def kernel_rows(columns, g):
    """Per step of game ``g``: p_left, p_origin, p_right, bias, entropy,
    rho00, rho11, rho01."""
    return np.column_stack([
        columns.p_left[g], columns.p_origin[g], columns.p_right[g],
        bias(columns.p_left, columns.p_right)[g],
        entropy_bits(columns.rho00, columns.rho11, columns.rho01)[g],
        columns.rho00[g], columns.rho11[g], columns.rho01[g],
    ])


def reference_rows(regime, seq, steps):
    snapshots = evolve_sequence(
        InitialStateSpec(eta_deg=regime["eta_deg"]), regime["coin_a"], regime["coin_b"],
        seq, steps,
    )
    trajectory = trajectory_with_entropy(snapshots)
    rho = np.array([reduced_density(snap) for snap in snapshots])
    return np.column_stack([
        trajectory.p_left, trajectory.p_origin, trajectory.p_right,
        trajectory.bias, trajectory.entropy,
        rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 0, 1],
    ])


def assert_matches_reference(regime, schedules, steps):
    columns = kernel(regime, schedules, steps)
    for g, seq in enumerate(schedules):
        gap = np.abs(kernel_rows(columns, g) - reference_rows(regime, seq, steps)).max()
        assert gap <= TOL, f"{seq.tokens} at T={steps}: largest gap {gap}"


@pytest.mark.parametrize("regime", REGIMES)
def test_every_game_matches_the_reference_path(regime):
    assert_matches_reference(REGIMES[regime], every_game(6), 240)


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_shortest_walks_match_the_reference_path(steps):
    for regime in REGIMES.values():
        assert_matches_reference(regime, every_game(4), steps)


def test_games_are_bitwise_identical_in_any_batch():
    games = every_game(6)
    whole = kernel(REGIME_ONE_SIDED, games, 240)
    for size in (1, 7):
        parts = [kernel(REGIME_ONE_SIDED, games[i:i + size], 240)
                 for i in range(0, len(games), size)]
        for name in GameColumns._fields:
            joined = np.concatenate([getattr(part, name) for part in parts])
            assert np.array_equal(joined, getattr(whole, name)), (size, name)


def sites(t, rows, first):
    """The sites of ``rows`` rows the kernel holds after step ``t + 1``,
    from row ``first``: row ``j`` of the occupied sublattice lies at
    x = 2j - (t + 1)."""
    return 2 * np.arange(first, first + rows) - (t + 1)


def density(occupied):
    """Each game's rho00 and rho01 from the ``(games, 2, 2, rows)`` re and im
    rows ``occupied``, coin |1> first, as the kernel takes them: from one
    product of the two rows of its coin |0> with all four, eight dots over
    its contiguous rows (a strided dot may round differently)."""
    p = np.matmul(occupied[:, 1], occupied.reshape(len(occupied), 4, -1).swapaxes(1, 2))
    return p[:, 0, 2] + p[:, 1, 3], (p[:, 0, 0] + p[:, 1, 1]) + 1j * (p[:, 1, 0] - p[:, 0, 1])


def exact_sums(t, occupied, first, last):
    """Each game's p_left, p_origin and p_right after step ``t + 1``, summed
    over the rows ``first..last - 1`` the kernel holds of the ``(games, 2, 2,
    t + 2)`` occupied re and im rows; its rho00 and rho01 (see ``density``)
    over all of them; and its rho11, the sides' sum less rho00; in the order
    the kernel takes a batch: a ``(6, games)`` complex array."""
    # site by site: numpy sums several columns of rows row by row
    (re1, im1), (re0, im0) = np.ascontiguousarray(occupied[..., first:last].transpose(1, 2, 3, 0))
    x = sites(t, len(re0), first)
    q = re0 * re0 + im0 * im0 + (re1 * re1 + im1 * im1)
    left, origin, right = q[x < 0].sum(axis=0), q[x == 0].sum(axis=0), q[x > 0].sum(axis=0)
    rho00, rho01 = density(occupied)
    return np.array([left, origin, right, rho00, left + origin + right - rho00, rho01])


def quick_sums(t, held, first):
    """``exact_sums``' first five rows of the ``(games, 2, 2, rows)`` window
    ``held``, each a sum of squares by ``einsum`` in its own order, about
    four times faster."""
    x = sites(t, held.shape[-1], first)
    origin, right = np.searchsorted(x, 0), np.searchsorted(x, 1)

    def mass(rows=slice(None)):
        f = held[..., rows]  # the re and im rows of each component
        return np.einsum("gcpj,gcpj->cg", f, f)  # each component's, per game

    return np.array([mass(slice(origin)).sum(axis=0),
                     mass(slice(origin, right)).sum(axis=0),
                     mass(slice(right, None)).sum(axis=0),
                     *mass()[::-1]])


LONG_GAMES = [(regime["coin_a"], regime["coin_b"], regime["eta_deg"], GameSequence(tokens))
              for regime in REGIMES.values() for tokens in ("A", "B", "ABB")]
LONG_GAMES += SWAP[90.0] + SWAP[270.0] + TRANSLATION


@pytest.fixture(scope="module")
def observed():
    """``LONG_GAMES`` walked together for MAX_STEPS: their columns, and
    ``(T, 6, G)`` rows of them per step; ``quick_sums`` of the windows the
    kernel holds at every step, and ``exact_sums`` at each anchor. The walk
    calls ``_anchor`` at each anchor and ``_crossing`` at every other step,
    so their wrappers see every step's windows."""
    quick, exact = [], {}
    crossing, anchor = walk._crossing, walk._anchor

    def watched_crossing(t, state, out):
        quick.append(quick_sums(t, state[0][..., :t + 2], 0))
        return crossing(t, state, out)

    def watched_anchor(t, held, spare, lo, hi):
        lo, hi, sums = anchor(t, held, spare, lo, hi)
        quick.append(quick_sums(t, held[..., lo:hi], lo))
        exact[t] = exact_sums(t, held[..., :t + 2], lo, hi)
        return lo, hi, sums

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk, "_crossing", watched_crossing)
        patch.setattr(walk, "_anchor", watched_anchor)
        columns = evolve_games(LONG_GAMES, MAX_STEPS)
    rows = np.array([getattr(columns, name) for name in GameColumns._fields]).transpose(2, 0, 1)
    return columns, rows, np.array(quick), exact


# 7, 9, 63, 71: ending within a block of the kernel or just past one; 65, 129: past an anchor;
# 64, 128: at the last step of a lone walk's first and second full anchor segments
@pytest.mark.parametrize("steps", [1, 2, 3, 7, 9, 63, 64, 65, 71, 128, 129, 2400, MAX_STEPS])
def test_a_lone_game_has_its_bits_in_any_batch(request, steps):
    if steps < MAX_STEPS:
        # A, B and ABB in each regime, A, AB, AAB on swap coins, translations, real coins
        batch = LONG_GAMES[:12] + TRANSLATION + REAL_COINS
        together, picked = evolve_games(batch, steps), range(len(batch))
        imaginary = together.rho01[-len(REAL_COINS):].imag
        assert not imaginary.any() and not np.signbit(imaginary).any()  # each exactly +0.0
    else:  # no multiple of the anchor cadence; for time, only ABB, a swap and a translation
        batch, picked = LONG_GAMES, (2, 10, 16)
        together = request.getfixturevalue("observed")[0]
    for g in picked:
        alone = evolve_games([batch[g]], steps)  # walked alone, in 64-step blocks
        for name in GameColumns._fields:  # bytes, so the sign of a zero counts too
            assert getattr(alone, name).tobytes() == getattr(together, name)[g].tobytes(), (g, name)


def thread_walks():
    """The columns of a lone ABB walk and of a batch of A, B and ABB, each of
    ``MAX_STEPS``: the longest dots and coin steps a walk takes."""
    columns = {"lone": evolve_games(LONG_GAMES[2:3], MAX_STEPS),
               "batch": evolve_games(LONG_GAMES[:3], MAX_STEPS)}
    return {f"{kind}-{name}": getattr(walked, name)
            for kind, walked in columns.items() for name in GameColumns._fields}


def test_columns_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a BLAS call may split a large product over threads, which can change its
    # rounding; a game's bits hold only while no product the kernel takes does
    out = tmp_path / "walks.npz"
    child = ("import sys, numpy as np; sys.path[:0] = sys.argv[2:]; import test_kernel; "
             "np.savez(sys.argv[1], **test_kernel.thread_walks())")
    paths = [str(Path(walk.__file__).parents[1]), str(Path(__file__).parent)]
    subprocess.run([sys.executable, "-c", child, str(out), *paths], check=True, timeout=300,
                   env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    with np.load(out) as single:
        for name, column in thread_walks().items():
            assert single[name].tobytes() == column.tobytes(), name


def test_a_dot_has_the_bits_of_its_row_in_a_batch():
    # the kernel's rho00 and rho01 come from one np.matmul of each game's re
    # and im rows of coin |0> with the four rows of both components, eight
    # dots, of a (games, 2, 2, rows) window in one call. Their bits are the
    # same in any batch, one game included, only if dgemm rounds each dot by
    # its values and row count alone, whatever the batch or the alignment of
    # the rows' start: here a (2, 2, rows) window alone against a batch's.
    rng = np.random.default_rng(0)
    counts = [*range(1, 10), 63, 64, 65, *rng.integers(10, MAX_STEPS, 300).tolist(), MAX_STEPS + 1]
    for n in counts:
        rows = rng.normal(size=(5, 2, 2, n))
        for game in rows:  # like the kernel's, 0 outside the rows held
            lo, hi = np.sort(rng.integers(0, n + 1, 2))
            game[..., :lo] = game[..., hi:] = 0.0
        start = int(rng.integers(0, 4))  # rows that start 8 * start bytes into their buffer
        held = np.zeros((5, 2, 2, n + 4))
        held[..., start:start + n] = rows
        games = held[..., start:start + n]
        batch = np.matmul(games[:, 1], games.reshape(5, 4, n).swapaxes(1, 2))  # (5, 2, 4)
        for g in range(5):
            lone = np.zeros((2, 2, n + 4))
            offset = int(rng.integers(0, 4))
            lone[..., offset:offset + n] = rows[g]
            window = lone[..., offset:offset + n]
            product = np.matmul(window[1], window.reshape(4, n).T)
            assert product.tobytes() == batch[g].tobytes(), (
                f"np.matmul rounds a {n}-row product alone differently from its game's in a "
                f"game-major batch; the kernel assumes dgemm's bits of a dot depend only on its "
                f"values and row count")


def kernel_coins(rng, count):
    """``count`` random coins as the kernel's real ``(2, 2, 4)`` maps (see ``walk._batch``)."""
    pairs = [(random_coin(rng), random_coin(rng), 0.0, GameSequence("A"))
             for _ in range(-(-count // 2))]
    return walk._batch(pairs, 1)[0][:count]


def test_a_coin_step_has_the_bits_of_its_rows_in_a_batch():
    # the kernel's coin step is one np.matmul of each game's real (2, 2, 4)
    # coin with the re and im rows it holds, rounded up to a multiple of 4 and
    # written through the shifting view of the other buffer, a (games, 2, 2,
    # rows) one whose rows span every game's; here a (2, 2, rows) buffer alone
    # against a batch's. Its bits are the same in any batch only if dgemm
    # rounds each row by its values alone, whatever the width or the start of
    # the window it lies in.
    rng = np.random.default_rng(0)
    counts = [*range(1, 10), 63, 64, 65, *rng.integers(10, MAX_STEPS, 200).tolist(), MAX_STEPS + 1]
    for n in counts:
        coins = kernel_coins(rng, 3)
        rows = rng.normal(size=(3, 2, 2, n))
        lo, below, above = rng.integers(0, 4, 3)  # the batch holds rows below and above them
        first, hi = lo + below, lo + below + n + above
        (held, _), (_, out) = walk._buffers((3, 2, 2, hi + 5))
        held[..., first:first + n] = rows
        walk._coin_step(coins, held, out, lo, hi)
        for g in range(3):
            start = int(rng.integers(0, 4))
            (lone, _), (_, lone_out) = walk._buffers((2, 2, start + n + 5))
            lone[..., start:start + n] = rows[g]
            walk._coin_step(coins[g], lone, lone_out, start, start + n)
            assert (lone_out[..., start:start + n].tobytes()
                    == out[g, ..., first:first + n].tobytes()), (
                f"np.matmul rounds {n} rows of a (2, 4) @ (4, rows) product alone differently "
                f"from their rows in a wider batched product; the kernel assumes dgemm's bits "
                f"of a row depend only on its values once a product's rows are a multiple of 4")
    # the rounding matters: numpy takes a one-row product as a matrix-vector
    # product, whose bits differ from the row's in a wider product
    coin = kernel_coins(rng, 1)[0, 0]
    rows = rng.normal(size=(4, 8))
    assert (coin @ rows[:, :1] != (coin @ rows)[:, :1]).any()


@pytest.mark.parametrize("flush", [1e-12, 1e-6])
@pytest.mark.parametrize("steps", [129, 240])
def test_a_lone_game_trimmed_apart_from_its_batch_keeps_its_bits(flush, steps):
    # a coarse flush trims each game's tails at rows of its own, so a lone
    # game's window ends below its batch's: their coin steps round alike only
    # if both take their rows in multiples of 4 (see walk._coin_step)
    rng = np.random.default_rng(7)
    games = [(random_coin(rng), random_coin(rng), float(rng.uniform(0.0, 360.0)),
              GameSequence(tokens)) for _ in range(3) for tokens in ("A", "AB", "ABB", "B", "BAB")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk, "_FLUSH_BELOW", flush)
        together = evolve_games(games, steps)
        for g, game in enumerate(games):
            alone = evolve_games([game], steps)
            for name in GameColumns._fields:
                assert getattr(alone, name).tobytes() == getattr(together, name)[g].tobytes(), (
                    g, name)


def test_anchor_rows_are_direct_site_sums(observed):
    _, rows, _, exact = observed
    for t, sums in exact.items():
        assert np.array_equal(rows[t], sums), t


def test_every_column_stays_near_direct_site_sums(observed):
    # between anchors, the sides follow the flux across the origin, and rho11
    # is their sum less rho00; the swap games' mass crosses the origin at
    # every step
    _, rows, quick, _ = observed
    assert np.abs(rows[:, :5].real - quick).max() <= 1e-13


def test_swap_coin_sides_are_probabilities(observed):
    _, rows, _, _ = observed
    sides = rows[:, :3, 9:15].real  # p_left, p_origin and p_right of the swap games
    assert sides.min() >= 0.0
    assert np.abs(sides.sum(axis=1) - 1.0).max() <= 1e-13


def test_translation_coin_sides_are_probabilities(observed):
    # the kernel keeps the empty rows around the origin that the flux reads;
    # the sides stay near direct site sums like every column's
    _, rows, _, _ = observed
    sides = rows[:, :3, 15:].real  # p_left, p_origin and p_right of the translation games
    assert sides.min() >= 0.0
    assert not sides[:, 1].any()


def test_flushed_columns_stay_near_the_unflushed_walk(observed):
    # a threshold of 0 flushes nothing; B's tail in the double regimes underflows by then
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk, "_FLUSH_BELOW", 0.0)
        unflushed = evolve_games(LONG_GAMES, MAX_STEPS)
    for name in GameColumns._fields:
        gap = np.abs(getattr(observed[0], name) - getattr(unflushed, name)).max()
        assert gap <= 1e-13, (name, gap)


@pytest.mark.parametrize("tokens", ["A", "B", "ABB"])
def test_games_whose_tails_underflow_match_the_reference_path(tokens):
    # by T = 600, B's tail (|cos 75 deg|**t at the edge) has fallen below the
    # smallest float; each game walks alone, on its own trimmed rows
    assert_matches_reference(REGIME_ONE_SIDED, [GameSequence(tokens)], 600)


def test_the_flush_keeps_the_rows_the_flux_reads():
    t = 2 * walk._ANCHOR_EVERY  # an anchor; the occupied rows are 0..t + 1
    held, spare = np.zeros((2, 2, 2, 2, t + 2))  # (games, components, re and im, rows)
    held[0, 1, 0, t + 1] = 1.0  # game 0: all of its mass at the right edge, in coin |0>,
    held[0, 0, 1, t] = 1e-141  # and a faint coin |1> pair beside it
    held[1, 0, 0, t] = 1e-139  # game 1: a pair above the threshold, at the same row
    lo, hi, sums = walk._anchor(t, held, spare, 0, t + 2)
    assert held[0, 0, 1, t] == 0 and held[1, 0, 0, t] == 1e-139  # decided per game
    origin, _ = walk._sides(t, 0)
    assert (lo, hi) == (origin - 1, t + 2)
    # the sums are taken after the flush, and the record's product of the rows
    # after it: game 0 keeps no coin-|1> mass
    assert sums.tolist() == [[0.0, 0.0], [0.0, 0.0], [1.0, 1e-139 * 1e-139]]
    rho00, _ = density(held)
    assert rho00.tolist() == [1.0, 0.0]
    assert (sums.sum(axis=0) - rho00).tolist() == [0.0, 1e-139 * 1e-139]


@contextlib.contextmanager
def handed():
    """Within the block, one list per walk of ``_evolve``, in call order, of
    the games in its batch at each step, as its observer is handed them
    once per block of steps. A walk's first width is its batch's, since
    games are dropped only after they are observed."""
    walks = []
    evolve = walk._evolve

    def traced(coins, choice, phases, observe, record=None):
        widths = []
        walks.append(widths)

        def counted(t, sides, columns):
            widths.extend([len(columns)] * len(sides))
            return observe(t, sides, columns)
        evolve(coins, choice, phases, counted, record)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk, "_evolve", traced)
        yield walks


def stepped_rows(game, steps):
    """How many rows the walk of ``game``, alone, steps over ``steps``
    steps, as a fraction of the sites occupied before each step: the rows
    each coin step holds, not those its product pads them with."""
    rows = []
    coin_step = walk._coin_step

    def counted(coin, held, out, lo, hi):
        rows.append(hi - lo)
        return coin_step(coin, held, out, lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk, "_coin_step", counted)
        evolve_games([game], steps)
    assert len(rows) == steps
    return sum(rows) / sum(t + 1 for t in range(steps))


def test_only_rows_that_hold_amplitude_are_evolved():
    # README B (beta 75 deg) spreads to about 0.26 t and its tails decay;
    # A (beta 16 deg) still holds amplitude at the edge of the light cone
    regime = REGIME_ONE_SIDED
    a, b = ((regime["coin_a"], regime["coin_b"], regime["eta_deg"], GameSequence(tokens))
            for tokens in ("A", "B"))
    assert stepped_rows(b, 2400) < 0.6
    assert stepped_rows(a, 2400) == 1.0


def test_games_of_mixed_cells_equal_their_own_pair_calls():
    games = every_game(4)
    cells = [dict(regime, eta_deg=eta) for regime in REGIMES.values() for eta in (0.0, 90.0, 270.0)]
    mixed = [(cell["coin_a"], cell["coin_b"], cell["eta_deg"], seq) for cell in cells for seq in games]
    order = np.random.default_rng(0).permutation(len(mixed))  # neighbours come from other cells
    together = evolve_games([mixed[i] for i in order], 120)
    row_of = np.argsort(order)
    for c, cell in enumerate(cells):
        rows = row_of[c * len(games):(c + 1) * len(games)]
        alone = kernel(cell, games, 120)
        for name in GameColumns._fields:
            assert np.array_equal(getattr(together, name)[rows], getattr(alone, name)), (c, name)


def test_scan_report_does_not_depend_on_the_chunk_size(monkeypatch):
    config = ScanConfig(**REGIME_ONE_SIDED, max_period=4, horizon_steps=60)
    whole = run_scan(config)
    for chunk in (1, 5):  # games a scan's call
        monkeypatch.setattr(walk, "MAX_GAME_STEPS", chunk * MAX_STEPS)
        assert run_scan(config) == whole, chunk


@pytest.mark.parametrize("chunk", [1, 7, 128])
@pytest.mark.parametrize("each_step", [False, True], ids=["payoff-points", "each-step"])
def test_region_grid_does_not_depend_on_the_chunk_size(monkeypatch, chunk, each_step):
    base = ScanConfig(**REGIME_ONE_SIDED, max_period=4, horizon_steps=60,
                      verdict_each_step=each_step, epsilon=1e-3 if each_step else 1e-9)
    axes = [GridAxis.linspace("beta_a", 6, 26, 3), GridAxis.linspace("eta", 0, 270, 3)]
    whole = scan_region_grid(base, axes)
    assert whole.winning_counts.any()
    monkeypatch.setattr(walk, "MAX_GAME_STEPS", chunk * base.horizon_steps)  # games a batch
    grid = scan_region_grid(base, axes)
    assert np.array_equal(grid.paradox, whole.paradox)
    assert np.array_equal(grid.winning_counts, whole.winning_counts)


def repeated_unit(seq):
    """The shortest schedule that ``seq`` repeats, or None if it repeats none."""
    tokens = seq.tokens
    return next((tokens[:d] for d in range(1, len(tokens))
                 if len(tokens) % d == 0 and tokens == tokens[:d] * (len(tokens) // d)), None)


@pytest.mark.parametrize("each_step", [False, True], ids=["payoff-points", "each-step"])
@pytest.mark.parametrize("regime", REGIMES)
def test_a_repeated_schedule_equals_its_own_game(regime, each_step):
    config = ScanConfig(**REGIMES[regime], max_period=6, verdict_each_step=each_step)
    results = {r.sequence.tokens: r for r in run_scan(config).results}
    repeated = [r for r in results.values() if repeated_unit(r.sequence)]
    assert len(repeated) == 10
    for result in repeated:
        columns = kernel(REGIMES[regime], [result.sequence], config.horizon_steps)
        biases = bias(columns.p_left, columns.p_right)
        period = 1 if each_step else result.sequence.period
        alone = SequenceResult(
            result.sequence,
            payoff_verdicts(biases, [period], config.epsilon)[0],
            biases[0, -1].item(),
            biases.min().item(),
            entropy_bits(columns.rho00, columns.rho11, columns.rho01).max().item(),
        )
        assert result == alone, result.sequence
    # judged at its own payoff points, a schedule may differ from the one it repeats
    differ = [r for r in repeated if r.verdict is not results[repeated_unit(r.sequence)].verdict]
    assert bool(differ) != each_step


def expected_holds(biases, periods, signs, epsilon):
    """Per game: is it Winning (sign 1) or Losing (sign -1) by ``payoff_verdicts``?"""
    verdicts = payoff_verdicts(biases, periods, epsilon)
    return [v is (GameVerdict.WINNING if s > 0 else GameVerdict.LOSING)
            for v, s in zip(verdicts, signs)]


def margins(biases, periods, signs):
    """Per game, the least ``sign * bias`` over its payoff points."""
    steps = np.arange(1, biases.shape[1] + 1)
    return [float((sign * row[steps % period == 0]).min())
            for row, period, sign in zip(biases, periods, signs)]


def sharp_epsilons(biases, periods, signs):
    """0, 1e-3, and both sides of the largest positive margin: there a game
    holds or fails by one ulp of one bias."""
    best = max(margins(biases, periods, signs))
    epsilons = [0.0, 1e-3]
    if best > 0:
        epsilons += [best, float(np.nextafter(best, 0.0))]
    return epsilons


def traced_verdicts(games, steps, periods, signs, epsilon):
    """``evolve_verdicts`` on games that fit one batch, and the number of
    games in its batch at each step run."""
    with handed() as walks:
        held = evolve_verdicts(games, steps, periods, signs, epsilon)
    (widths,) = walks
    return held.tolist(), widths


def random_coin(rng):
    return CoinParams(*rng.uniform(0.0, 360.0, 3))


def random_verdicts(seed, each_step, shortest, longest):
    """40 random games of 3 random coin pairs, walked for ``shortest`` to
    ``longest - 1`` steps, with their periods, the signs they end with, and
    epsilons that make some game hold or fail by one ulp."""
    rng = np.random.default_rng(seed)
    schedules = every_game(5)
    pairs = [(random_coin(rng), random_coin(rng)) for _ in range(3)]
    games = [(*pairs[rng.integers(len(pairs))], float(rng.uniform(0.0, 360.0)),
              schedules[rng.integers(len(schedules))]) for _ in range(40)]
    steps = int(rng.integers(shortest, longest))
    columns = evolve_games(games, steps)
    biases = bias(columns.p_left, columns.p_right)
    periods = [1 if each_step else seq.period for *_, seq in games]
    signs = np.where(biases[:, -1] > 0, 1, -1)  # most games keep the sign they end with
    epsilons = sharp_epsilons(biases, periods, signs) + [float(rng.uniform(0.0, 0.05))]
    return games, steps, biases, periods, signs, epsilons


@pytest.mark.parametrize("each_step", [False, True], ids=["payoff-points", "each-step"])
@pytest.mark.parametrize("seed", range(4))
def test_verdicts_equal_payoff_verdicts_on_the_full_columns(seed, each_step):
    games, steps, biases, periods, signs, epsilons = random_verdicts(seed, each_step, 5, 90)
    for epsilon in epsilons:
        held = evolve_verdicts(games, steps, periods, signs, epsilon)
        assert held.tolist() == expected_holds(biases, periods, signs, epsilon), epsilon


@pytest.mark.parametrize("each_step", [False, True], ids=["payoff-points", "each-step"])
@pytest.mark.parametrize("seed", range(4, 6))
def test_verdicts_equal_payoff_verdicts_across_anchors(seed, each_step):
    # 130 to 300 steps cross two anchors; the biases between them come from the flux
    games, steps, biases, periods, signs, epsilons = random_verdicts(seed, each_step, 130, 301)
    for epsilon in epsilons:
        held, widths = traced_verdicts(games, steps, periods, signs, epsilon)
        assert held == expected_holds(biases, periods, signs, epsilon), epsilon
        if epsilon == 0.0:  # the batch shrinks before the second anchor and runs on past it
            assert len(widths) > 2 * walk._ANCHOR_EVERY
            assert widths[0] > widths[2 * walk._ANCHOR_EVERY]


@pytest.mark.parametrize("each_step", [False, True], ids=["payoff-points", "each-step"])
@pytest.mark.parametrize("steps", [7, 9, 63, 65, 71, 129])
def test_verdicts_equal_payoff_verdicts_at_block_and_anchor_edges(steps, each_step):
    # each horizon ends within a block of the kernel, or one step past a block or an anchor
    games, steps, biases, periods, signs, epsilons = random_verdicts(steps, each_step, steps,
                                                                     steps + 1)
    for epsilon in epsilons:
        held = evolve_verdicts(games, steps, periods, signs, epsilon)
        assert held.tolist() == expected_holds(biases, periods, signs, epsilon), epsilon


def scan_batch(regime, steps):
    """Every game of period <= 4 in ``regime`` with the scan's signs, and
    which of them hold."""
    games = [(regime["coin_a"], regime["coin_b"], regime["eta_deg"], seq) for seq in every_game(4)]
    columns = evolve_games(games, steps)
    biases = bias(columns.p_left, columns.p_right)
    periods = [seq.period for *_, seq in games]
    signs = [-1 if period == 1 else 1 for period in periods]
    return games, biases, periods, signs, expected_holds(biases, periods, signs, 1e-9)


def test_a_batch_that_shrinks_to_one_game_keeps_its_bits():
    games, biases, periods, signs, holds = scan_batch(REGIME_ONE_SIDED, 120)
    keep = [holds.index(True)] + [g for g, held in enumerate(holds) if not held]
    assert len(keep) > 8
    picked = [[values[g] for g in keep] for values in (games, periods, signs)]
    for epsilon in sharp_epsilons(biases[keep], *picked[1:]):
        held, widths = traced_verdicts(*picked[:1], 120, *picked[1:], epsilon)
        assert held == expected_holds(biases[keep], *picked[1:], epsilon), epsilon
        assert widths[0] == len(keep)
        if held[0]:  # the last live game ran on alone, to the horizon
            assert widths[-1] == 1 and len(widths) == 120


def test_a_batch_whose_games_all_retire_stops_early():
    games, biases, periods, signs, holds = scan_batch(REGIME_DOUBLE_1, 120)
    lost = [g for g, held in enumerate(holds) if not held]
    assert len(lost) > 8
    held, widths = traced_verdicts([games[g] for g in lost], 120,
                                   [periods[g] for g in lost], [signs[g] for g in lost], 1e-9)
    assert not any(held)
    assert len(widths) < 120
    assert widths == sorted(widths, reverse=True)


def first_failure(row, period, sign, epsilon):
    """The step index at which a game of biases ``row`` retires: its first
    payoff point that fails, or None."""
    steps = np.arange(len(row))
    failed = np.flatnonzero(((steps + 1) % period == 0) & ~(sign * row > epsilon))
    return int(failed[0]) if failed.size else None


def test_a_batch_whose_games_all_retire_stops_at_the_end_of_the_block_of_the_last():
    steps = 71  # ends within a block
    games, biases, periods, signs, holds = scan_batch(REGIME_DOUBLE_1, steps)
    lost = [g for g, held in enumerate(holds) if not held]
    last = max(first_failure(biases[g], periods[g], signs[g], 1e-9) for g in lost)
    held, widths = traced_verdicts([games[g] for g in lost], steps,
                                   [periods[g] for g in lost], [signs[g] for g in lost], 1e-9)
    assert not any(held)
    block = walk._COMPACT_EVERY
    assert len(widths) == last - last % block + block < steps
    # games retire, and their columns are dropped, only at the end of a block
    assert all(widths[t] == widths[t - 1] for t in range(1, len(widths)) if t % block)


def test_a_lone_game_equals_its_batch():
    # at 200 steps the held game crosses the anchors at 0, 64, 128 and 192 on one column
    for steps in (120, 200):
        games, biases, periods, signs, holds = scan_batch(REGIME_ONE_SIDED, steps)
        for g in (holds.index(True), holds.index(False)):
            held, widths = traced_verdicts([games[g]], steps, [periods[g]], [signs[g]], 1e-9)
            assert held == [holds[g]]
            assert widths == [1] * len(widths)
            assert (len(widths) == steps) == holds[g]


def test_a_verdict_batch_holds_only_the_rows_its_live_games_reach():
    # the largest batch at the README horizon, every schedule of period <= 8 in
    # turn at the README coins: its buffers hold 12 rows until its first block
    # retires games, and then every row for the live games alone. It peaks at
    # 22.3 MiB; a walk holding every game's full height from the start, and
    # copying into new arrays at each compaction, peaked at 46.1 MiB
    schedules = every_game(8)
    count = walk.MAX_GAME_STEPS // 240
    games = [(REGIME_ONE_SIDED["coin_a"], REGIME_ONE_SIDED["coin_b"], REGIME_ONE_SIDED["eta_deg"],
              schedules[g % len(schedules)]) for g in range(count)]
    periods = [seq.period for *_, seq in games]
    signs = [-1 if period == 1 else 1 for period in periods]
    tracemalloc.start()
    try:
        held = evolve_verdicts(games, 240, periods, signs, 1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held.any() and not held.all()
    assert peak < 24 << 20


def test_a_scan_call_holds_no_more_than_its_columns_and_buffers():
    # run_scan's widest call at 1,024 steps: 128 distinct roots of period <= 8
    # at the README coins. Its columns take 7 MiB and its two buffers 8 MiB;
    # it peaked at 20.2 MiB, and at 28.1 MiB when the walk kept every step's
    # (G, 2, 4) density product until the end
    roots = list(dict.fromkeys(scan._root(seq) for seq in every_game(8)))[:128]
    regime = REGIME_ONE_SIDED
    games = [(regime["coin_a"], regime["coin_b"], regime["eta_deg"], seq) for seq in roots]
    tracemalloc.start()
    try:
        columns = evolve_games(games, 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert columns.rho01.shape == (128, 1024)
    assert peak < 23 << 20


def test_verdict_walks_over_the_step_budget_allocate_nothing():
    ones = [1] * len(SCAN_GAMES)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="budget"):
            evolve_verdicts(SCAN_GAMES, MAX_STEPS + 1, ones, ones, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "count, steps, eta, periods, signs, epsilon",
    [
        (1, 0, 90.0, [1], [1], 0.0),
        (0, 10, 90.0, [], [], 0.0),
        (1, 10, float("nan"), [1], [1], 0.0),
        (1, 10, 90.0, [1], [1], float("nan")),
        (1, 10, 90.0, [1], [1], -1e-9),
        (1, 10, 90.0, [1], [1], True),
        (1, 10, 90.0, [0], [1], 0.0),
        (1, 10, 90.0, [11], [1], 0.0),
        (2, 10, 90.0, [1], [1, 1], 0.0),
        (1, 10, 90.0, [1], [0], 0.0),
        (1, 10, 90.0, [1.5], [1], 0.0),
        (1, 10, 90.0, [True], [1], 0.0),
        (1, 10, 90.0, ["3"], [1], 0.0),
        (2, 10, 90.0, [[1], [1, 2]], [1, 1], 0.0),
        (2, 10, 90.0, [1, 1], [[1], [1, 2]], 0.0),
        (1, 10, 90.0, [1], [True], 0.0),
        (1, 10, 90.0, [1], [1.0], 0.0),
    ],
    ids=["no-steps", "no-game", "nan-eta", "nan-epsilon", "negative-epsilon", "bool-epsilon",
         "period-0", "period-over-steps", "one-period-short", "sign-0", "fractional-period",
         "bool-period", "string-period", "ragged-periods", "ragged-signs", "bool-sign",
         "float-sign"],
)
def test_verdicts_reject_invalid_input(count, steps, eta, periods, signs, epsilon):
    regime = REGIME_ONE_SIDED
    games = [(regime["coin_a"], regime["coin_b"], eta, GameSequence("A"))] * count
    with pytest.raises(InvalidParameterError):
        evolve_verdicts(games, steps, periods, signs, epsilon)


def test_simulate_equals_the_scan_game():
    config = ScanConfig(**REGIME_DOUBLE_2, max_period=3, horizon_steps=90)
    result = next(r for r in run_scan(config).results if r.sequence.tokens == "ABB")
    trajectory = game_trajectory(
        config.coin_a, config.coin_b, config.eta_deg, GameSequence("ABB"), 90
    )
    assert result.final_bias == trajectory.bias[-1]
    assert result.min_bias == trajectory.bias.min()
    assert result.max_entropy == trajectory.entropy.max()


def test_long_trajectory_keeps_no_snapshots():
    tracemalloc.start()
    try:
        trajectory = game_trajectory(
            REGIME_ONE_SIDED["coin_a"], REGIME_ONE_SIDED["coin_b"],
            REGIME_ONE_SIDED["eta_deg"], GameSequence("ABB"), 2400,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trajectory.bias) == 2400
    assert peak < 16 << 20


@pytest.mark.parametrize(
    "games, steps",
    [
        pytest.param(SCAN_GAMES, MAX_STEPS + 1, id=str(MAX_STEPS + 1)),
        pytest.param(SCAN_GAMES, 10**6, id=str(10**6)),
        # within the step budget, but its columns alone would take 3 GiB
        pytest.param(SCAN_GAMES[:1] * 20000, MAX_STEPS, id="20000-games"),
    ],
)
def test_rejects_walks_over_the_step_budget_before_allocating(games, steps):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="budget"):
            evolve_games(games, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "schedules, steps, eta",
    [
        ([GameSequence("AB")], 0, 90.0),
        ([], 10, 90.0),
        ([GameSequence("AB")], 10, float("nan")),
        ([GameSequence("AB")], 10, float("inf")),
        ([GameSequence("AB")], 12.5, 90.0),
        ([GameSequence("AB")], True, 90.0),
        pytest.param([(REGIME_ONE_SIDED["coin_a"], REGIME_ONE_SIDED["coin_b"], 90.0)], 10, 90.0,
                     id="three-tuple-game"),
        pytest.param([(REGIME_ONE_SIDED["coin_a"], (0.0, 75.0, 160.0), 90.0, GameSequence("AB"))],
                     10, 90.0, id="coin-not-coin-params"),
        pytest.param(["AB"], 10, 90.0, id="string-schedule"),
        pytest.param(3, 3, 90.0, id="games-not-a-sequence"),
        pytest.param((game for game in TRANSLATION), 3, 90.0, id="games-generator"),
    ],
)
def test_rejects_invalid_input(schedules, steps, eta):
    # a whole game is passed as it is; a game of the wrong kind raised ValueError or
    # AttributeError, and games that are not a list or tuple TypeError
    regime = REGIME_ONE_SIDED
    games = schedules if not isinstance(schedules, list) else [
        seq if isinstance(seq, tuple) else (regime["coin_a"], regime["coin_b"], eta, seq)
        for seq in schedules]
    with pytest.raises(InvalidParameterError):
        evolve_games(games, steps)
