"""The momentum-space oracle against the fixtures, the package and criteria 4-7.

``oracle.py`` evolves every game of a regime in Fourier space and shares
no code with ``qparrondo``. These checks show, in turn, that the oracle
reproduces the pinned amplitudes of criteria 1-3, that the package's
per-step bias and entropy equal the oracle's to 1e-12, and that every
literal target of criteria 4-7 is the oracle's verdict or ordering.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import oracle
from benchmarks import (
    GAME_A_AMPLITUDES,
    GAME_A_BIASES,
    GAME_A_SITE_PROBS,
    GAME_ABB_AMPLITUDES,
    GAME_ABB_BIAS,
    GAME_ABB_SITE_PROBS,
    GAME_B_AMPLITUDES,
    GAME_B_BIASES,
    GAME_B_SITE_PROBS,
    REFERENCE_TOL,
    REGIME_DOUBLE_1,
    REGIME_DOUBLE_2,
    REGIME_ONE_SIDED,
)
from qparrondo import GameSequence, GameVerdict, game_trajectory
from test_acceptance import (
    CRITERION_4_VERDICTS,
    CRITERION_5_VERDICTS,
    CRITERION_6_SEQUENCES,
    CRITERION_7_LEADER,
)

STEPS = 240
PACKAGE_TOL = 1e-12
MIN_PAYOFF_MARGIN = 1e-6
"""Every payoff bias behind a target lies further than this from zero."""

# Regime, the sequences the oracle evolves (pure games, then every mixed
# schedule up to the period whose winners a criterion lists, then any
# longer named schedule), and the named targets.
CASES = {
    "D1": (REGIME_DOUBLE_1, 5, CRITERION_4_VERDICTS),
    "D2": (REGIME_DOUBLE_2, 5, CRITERION_5_VERDICTS),
    "OS": (REGIME_ONE_SIDED, 6, {t: GameVerdict.WINNING for t in CRITERION_6_SEQUENCES}),
}


def angles(params):
    return params.alpha_deg, params.beta_deg, params.gamma_deg


def fixture_grid(expected, half_width):
    grid = np.zeros((2, 2 * half_width + 1), dtype=complex)
    for (coin, site), value in expected.items():
        grid[coin, site + half_width] = value
    return grid


@pytest.fixture(scope="module")
def oracle_runs():
    runs = {}
    for name, (regime, max_period, targets) in CASES.items():
        scanned = ["A", "B"] + oracle.all_sequences(max_period)
        sequences = scanned + [t for t in targets if t not in scanned]
        biases, entropies = oracle.trajectories(
            angles(regime["coin_a"]), angles(regime["coin_b"]), regime["eta_deg"],
            sequences, STEPS,
        )
        runs[name] = {
            tokens: (biases[g], entropies[g]) for g, tokens in enumerate(sequences)
        }
    return runs


def test_oracle_imports_only_numpy():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported == {"numpy"}


def test_oracle_reproduces_criteria_1_to_3_fixtures():
    regime = REGIME_ONE_SIDED
    pinned = {
        "A": (GAME_A_AMPLITUDES, GAME_A_SITE_PROBS, GAME_A_BIASES),
        "B": (GAME_B_AMPLITUDES, GAME_B_SITE_PROBS, GAME_B_BIASES),
        "ABB": (
            {3: GAME_ABB_AMPLITUDES}, {3: GAME_ABB_SITE_PROBS}, {3: GAME_ABB_BIAS},
        ),
    }
    sequences = list(pinned)
    walk = oracle.momentum_walk(
        angles(regime["coin_a"]), angles(regime["coin_b"]), regime["eta_deg"],
        sequences, 3,
    )
    checked = 0
    for t, psi_hat in walk:
        amplitudes = oracle.positions(psi_hat, t)
        biases = oracle.bias(amplitudes)
        for g, tokens in enumerate(sequences):
            amps, sites, bias = pinned[tokens]
            if t not in amps:
                continue
            expected = fixture_grid(amps[t], t)
            assert np.abs(amplitudes[g] - expected).max() < REFERENCE_TOL, (tokens, t)
            site_probs = np.zeros(2 * t + 1)
            for site, probability in sites[t].items():
                site_probs[site + t] = probability
            found = (np.abs(amplitudes[g]) ** 2).sum(axis=0)
            assert np.abs(found - site_probs).max() < REFERENCE_TOL, (tokens, t)
            assert biases[g] == pytest.approx(bias[t], abs=REFERENCE_TOL), (tokens, t)
            checked += 1
    assert checked == 7


@pytest.mark.parametrize("name", list(CASES))
def test_package_matches_oracle_at_every_step(oracle_runs, name):
    regime, _, targets = CASES[name]
    # Every game of the one-sided scan; in D1 and D2, the games named.
    compared = oracle_runs[name] if name == "OS" else targets
    worst_bias = worst_entropy = 0.0
    for tokens in compared:
        trajectory = game_trajectory(
            regime["coin_a"], regime["coin_b"], regime["eta_deg"],
            GameSequence(tokens), STEPS,
        )
        biases, entropies = oracle_runs[name][tokens]
        worst_bias = max(worst_bias, np.abs(trajectory.bias - biases).max())
        worst_entropy = max(worst_entropy, np.abs(trajectory.entropy - entropies).max())
    assert worst_bias <= PACKAGE_TOL, f"bias differs by {worst_bias:.2e}"
    assert worst_entropy <= PACKAGE_TOL, f"entropy differs by {worst_entropy:.2e}"


@pytest.mark.parametrize("name", list(CASES))
def test_oracle_proves_criteria_4_to_7_targets(oracle_runs, name):
    _, max_period, targets = CASES[name]
    runs = oracle_runs[name]
    verdicts = {t: oracle.verdict(b, len(t)) for t, (b, _) in runs.items()}

    margin = min(np.abs(b[len(t) - 1 :: len(t)]).min() for t, (b, _) in runs.items())
    assert margin > MIN_PAYOFF_MARGIN, f"a payoff bias lies within {margin:.1e} of zero"

    assert verdicts["A"] == verdicts["B"] == GameVerdict.LOSING.value
    wrong = {
        t: (v.value, verdicts[t]) for t, v in targets.items() if verdicts[t] != v.value
    }
    assert not wrong, f"target != oracle: {wrong}"
    winners = {
        t for t, v in verdicts.items() if len(t) <= max_period and v == "Winning"
    }
    assert winners == {t for t, v in targets.items() if v is GameVerdict.WINNING}

    if name == "OS":
        peak = {t: runs[t][1].max() for t in CRITERION_6_SEQUENCES}
        not_below = [
            t for t in peak if t != CRITERION_7_LEADER and peak[t] >= peak[CRITERION_7_LEADER]
        ]
        assert not not_below, f"peak entropy >= {CRITERION_7_LEADER}'s: {not_below}"
