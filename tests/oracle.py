"""Momentum-space oracle for coin-driven line walks, for tests only.

An independent reimplementation of the model in the README that shares
no code with ``qparrondo``. The walk is evolved exactly in Fourier space,
as in Grimmett, Janson & Scudo, *Weak limits for quantum random walks*,
PRE 69, 026119 (2004): with ``psi_hat(k) = sum_x psi(x) e^{-ikx}``, one
elementary step (coin, then coin-|0> one site right and coin-|1> one
site left) is the 2x2 multiplication

    psi_hat(k) <- diag(e^{-ik}, e^{ik}) . C . psi_hat(k)

at every k. The k grid has at least ``2T + 1`` points, so the inverse FFT
recovers the amplitudes on sites ``-T..T`` without aliasing. The reduced
coin density comes from Parseval's identity, straight from ``psi_hat``,
and its entropy from ``numpy.linalg.eigvalsh``.

Every game of one regime is evolved at once: arrays carry a leading game
axis. Coins are given as angle triples in degrees and built from the
README formula; verdicts are the README's strings.

A second, position-space oracle takes one elementary step as a dense
matrix on the flattened lattice (``dense_step_matrix``,
``dense_step_oracle``), for small lattices only.
"""

import numpy as np

EPSILON = 1e-9
"""Verdict threshold, as in the package's default scan configuration."""


def coin(alpha_deg, beta_deg, gamma_deg):
    """``[[e^{ia} cos b, -e^{-ig} sin b], [e^{ig} sin b, e^{-ia} cos b]]``."""
    a, b, g = np.radians([alpha_deg, beta_deg, gamma_deg])
    return np.array(
        [
            [np.exp(1j * a) * np.cos(b), -np.exp(-1j * g) * np.sin(b)],
            [np.exp(1j * g) * np.sin(b), np.exp(-1j * a) * np.cos(b)],
        ]
    )


def grid_size(steps):
    """Smallest power of two holding the light cone ``-steps..steps``."""
    return 1 << (2 * steps).bit_length()


def momentum_walk(coin_a, coin_b, eta_deg, sequences, steps):
    """Yield ``(t, psi_hat)`` after each elementary step ``t = 1..steps``.

    ``psi_hat`` has shape ``(games, 2, N)``: coin component by momentum
    ``k_j = 2 pi j / N``. Game ``g`` plays coin
    ``sequences[g][(t - 1) % len(sequences[g])]`` at step ``t``.
    """
    n = grid_size(steps)
    k = 2.0 * np.pi * np.fft.fftfreq(n)
    shift = np.stack([np.exp(-1j * k), np.exp(1j * k)])
    coins = np.stack([coin(*coin_a), coin(*coin_b)])
    schedule = np.array(
        [[s[t % len(s)] == "B" for s in sequences] for t in range(steps)], dtype=int
    )
    start = np.array([1.0, np.exp(1j * np.radians(eta_deg))]) / np.sqrt(2.0)
    psi_hat = np.broadcast_to(start[None, :, None], (len(sequences), 2, n)).astype(complex)
    for t in range(1, steps + 1):
        psi_hat = shift * (coins[schedule[t - 1]] @ psi_hat)
        yield t, psi_hat


def positions(psi_hat, half_width):
    """Amplitudes ``(games, 2, 2*half_width + 1)`` on sites ``-half_width..half_width``.

    The inverse FFT puts site ``x`` at index ``x mod N``.
    """
    psi = np.fft.ifft(psi_hat, axis=-1)
    return np.concatenate([psi[..., psi.shape[-1] - half_width :], psi[..., : half_width + 1]], axis=-1)


def bias(amplitudes):
    """Probability right of the origin minus probability left of it."""
    per_site = (np.abs(amplitudes) ** 2).sum(axis=-2)
    centre = per_site.shape[-1] // 2
    return per_site[..., centre + 1 :].sum(axis=-1) - per_site[..., :centre].sum(axis=-1)


def entropy(psi_hat):
    """Coin-position entanglement in bits, via Parseval and ``eigvalsh``."""
    rho = psi_hat @ psi_hat.conj().swapaxes(-1, -2) / psi_hat.shape[-1]
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(lam > 0.0, -lam * np.log2(lam), 0.0)
    return terms.sum(axis=-1)


def trajectories(coin_a, coin_b, eta_deg, sequences, steps):
    """Per-step bias and entropy, each of shape ``(games, steps)``."""
    biases = np.empty((len(sequences), steps))
    entropies = np.empty((len(sequences), steps))
    for t, psi_hat in momentum_walk(coin_a, coin_b, eta_deg, sequences, steps):
        biases[:, t - 1] = bias(positions(psi_hat, t))
        entropies[:, t - 1] = entropy(psi_hat)
    return biases, entropies


def verdict(biases, period, epsilon=EPSILON):
    """README verdict over the payoff points ``period, 2*period, ...``."""
    payoff = np.asarray(biases)[period - 1 :: period]
    if np.all(payoff > epsilon):
        return "Winning"
    if np.all(payoff < -epsilon):
        return "Losing"
    if np.all(np.abs(payoff) <= epsilon):
        return "Draw"
    return "Mixed"


MAX_DENSE_HALF_WIDTH = 12
"""Largest half-width ``dense_step_oracle`` accepts; its matrix grows as its square."""


def dense_step_matrix(coin_matrix, half_width):
    """Explicit matrix of one elementary step on the flattened lattice.

    The flattened index is ``c * (2*half_width + 1) + i`` with ``i`` the
    site column. The shift wraps around periodically, so the matrix stays
    exactly unitary; it is the walk's step whenever the state has room to
    move (``step < half_width``).
    """
    n = 2 * half_width + 1
    move_right = np.roll(np.eye(n), 1, axis=0)
    shift = np.kron(np.diag([1.0, 0.0]), move_right) + np.kron(np.diag([0.0, 1.0]), move_right.T)
    return shift.astype(complex) @ np.kron(np.asarray(coin_matrix, dtype=complex), np.eye(n))


def dense_step_oracle(state, coin_matrix):
    """Advance a ``WalkerState`` one step by full dense matrix multiplication,
    into a new state of the same type.

    Raises ``ValueError`` above ``MAX_DENSE_HALF_WIDTH`` or when the state
    has no room to shift, where the wrapped shift would differ from the walk.
    """
    if state.half_width > MAX_DENSE_HALF_WIDTH:
        raise ValueError(
            f"dense oracle limited to half_width <= {MAX_DENSE_HALF_WIDTH}, got {state.half_width}"
        )
    if state.step >= state.half_width:
        raise ValueError(f"no room to shift: step {state.step} with half_width {state.half_width}")
    flat = dense_step_matrix(coin_matrix, state.half_width) @ state.amplitudes.reshape(-1)
    return type(state)(step=state.step + 1, half_width=state.half_width,
                       amplitudes=flat.reshape(2, -1))


def all_sequences(max_period):
    """Every mixed A/B schedule of period 2..max_period."""
    out = []
    for length in range(2, max_period + 1):
        for code in range(2**length):
            tokens = format(code, f"0{length}b").replace("0", "A").replace("1", "B")
            if "A" in tokens and "B" in tokens:
                out.append(tokens)
    return out
