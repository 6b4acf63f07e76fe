"""Output checks: stored seed-0 references and an independent oracle.

Floats are compared within TOL (the package's agreement target for any
faster kernel), everything else exactly: verdicts, paradox lists, per-cell
flags and winning counts. The oracle recomputes sampled games with its own
loop over the public ``walk.step`` and its own observables, so it stays
valid whatever kernel the package uses.

Run ``python3 perfbench/checks.py --write-reference`` to regenerate the
seed-0 references from the current source (regions at one worker).
"""

from __future__ import annotations

import csv
import gzip
import io as stringio
import json
import math
import sys
from pathlib import Path
from typing import Any

import numpy as np

from qparrondo import walk
from qparrondo.walk import CoinParams, GameSequence, InitialStateSpec

from workloads import WORKLOADS, Invocation, build, mixed_sequences

TOL = 1e-12
EPSILON = 1e-9  # the verdict threshold the CLI uses by default
EIGENVALUE_SNAP = 1e-12  # documented entropy convention: 0 log 0 = 0 within 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ORACLE_SCAN_SAMPLE = 12


def parse(kind: str, text: str) -> Any:
    """Parse a CLI output: JSON documents, or CSV rows with numeric cells."""
    if kind != "simulate":
        return json.loads(text)
    rows = list(csv.reader(stringio.StringIO(text)))
    return [rows[0]] + [[int(row[0])] + [float(v) for v in row[1:]] for row in rows[1:]]


def compare(actual: Any, expected: Any, path: str = "$") -> list[str]:
    """Differences between two parsed outputs: floats within TOL, the rest exact."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or list(actual) != list(expected):
            return [f"{path}: keys {_keys(actual)} != {list(expected)}"]
        return [p for key in expected for p in compare(actual[key], expected[key], f"{path}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length {_len(actual)} != {len(expected)}"]
        return [p for i, (a, e) in enumerate(zip(actual, expected)) for p in compare(a, e, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if abs(actual - expected) <= TOL:
            return []
        return [f"{path}: {actual!r} differs from {expected!r} by more than {TOL}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def _keys(value: Any) -> Any:
    return list(value) if isinstance(value, dict) else type(value).__name__


def _len(value: Any) -> Any:
    return len(value) if isinstance(value, list) else type(value).__name__


def reference_path(ref_dir: Path, inv: Invocation) -> Path:
    return ref_dir / (inv.label + (".csv.gz" if inv.kind == "simulate" else ".json"))


def check_reference(inv: Invocation, text: str, ref_dir: Path) -> list[str]:
    path = reference_path(ref_dir, inv)
    try:
        with gzip.open(path, "rt") if path.suffix == ".gz" else open(path) as handle:
            expected = parse(inv.kind, handle.read())
    except (OSError, ValueError) as exc:
        return [f"{inv.label}: cannot read reference {path.name}: {exc}"]
    return [f"{inv.label} vs reference: {p}" for p in compare(parse(inv.kind, text), expected)]


def write_references(ref_dir: Path) -> None:
    ref_dir.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        for inv in build(workload, seed=0):
            sink = stringio.StringIO()
            inv.write(inv.call(workers=1), sink)
            path = reference_path(ref_dir, inv)
            if path.suffix == ".gz":
                # mtime=0 keeps the compressed file byte-identical across regenerations
                with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
                    gz.write(sink.getvalue().encode())
            else:
                path.write_text(sink.getvalue())


# --- oracle -----------------------------------------------------------------

def own_game(coin_a, coin_b, eta: float, tokens: str, steps: int) -> np.ndarray:
    """Rows (p_left, p_origin, p_right, bias, entropy) for steps 1..T.

    Evolves with the public ``walk.step`` one step at a time and measures
    each state with this module's own arithmetic, keeping no snapshots.
    """
    coins = {"A": walk.make_coin(CoinParams(*coin_a)), "B": walk.make_coin(CoinParams(*coin_b))}
    state = walk.initial_state(InitialStateSpec(eta_deg=eta), steps)
    rows = np.empty((steps, 5))
    for k in range(steps):
        state = walk.step(state, coins[tokens[k % len(tokens)]])
        amp = state.amplitudes
        prob = (amp.real ** 2 + amp.imag ** 2).sum(axis=0)
        p_left, p_origin, p_right = prob[:steps].sum(), prob[steps], prob[steps + 1:].sum()
        lams = np.clip(np.linalg.eigvalsh(amp @ amp.conj().T), 0.0, 1.0)
        entropy = -sum(lam * math.log2(lam) for lam in lams
                       if EIGENVALUE_SNAP < lam < 1.0 - EIGENVALUE_SNAP)
        rows[k] = (p_left, p_origin, p_right, p_right - p_left, entropy)
    return rows


def own_verdict(bias: np.ndarray, period: int) -> str:
    points = bias[period - 1::period]
    if (points > EPSILON).all():
        return "Winning"
    if (points < -EPSILON).all():
        return "Losing"
    if (np.abs(points) <= EPSILON).all():
        return "Draw"
    return "Mixed"


def _close(path: str, actual: float, expected: float) -> list[str]:
    if abs(actual - expected) <= TOL:
        return []
    return [f"oracle {path}: output {actual!r} vs oracle {expected!r}"]


def _equal(path: str, actual: Any, expected: Any) -> list[str]:
    return [] if actual == expected else [f"oracle {path}: output {actual!r} vs oracle {expected!r}"]


def oracle_problems(inv: Invocation, text: str, rng: np.random.Generator) -> list[str]:
    """Recompute a sample of the games behind an output and compare."""
    data = parse(inv.kind, text)
    if inv.kind == "simulate":
        rows = own_game(inv.coin_a, inv.coin_b, inv.eta, inv.schedule, inv.steps)
        if len(data) != inv.steps + 1:
            return [f"oracle: {len(data) - 1} rows, expected {inv.steps}"]
        problems = []
        for k, row in enumerate(data[1:]):
            problems += _equal(f"row {k} step", row[0], k + 1)
            for name, a, e in zip(data[0][1:], row[1:], rows[k]):
                problems += _close(f"step {k + 1} {name}", a, float(e))
        return problems
    if inv.kind == "scan":
        return _scan_oracle(inv, data, rng)
    return _regions_oracle(inv, data, rng)


def _scan_oracle(inv: Invocation, data: dict, rng: np.random.Generator) -> list[str]:
    steps, a, b, eta = inv.steps, inv.coin_a, inv.coin_b, inv.eta
    verdicts = {s: own_verdict(own_game(a, b, eta, s, steps)[:, 3], 1) for s in "AB"}
    problems = _equal("verdict_a", data["verdict_a"], verdicts["A"])
    problems += _equal("verdict_b", data["verdict_b"], verdicts["B"])
    results = data["results"]
    problems += _equal("sequences", [r["sequence"] for r in results], mixed_sequences(inv.max_period))
    if problems:
        return problems
    for i in sorted(rng.choice(len(results), size=min(ORACLE_SCAN_SAMPLE, len(results)), replace=False)):
        entry = results[i]
        rows = own_game(a, b, eta, entry["sequence"], steps)
        tag = entry["sequence"]
        problems += _equal(f"{tag} verdict", entry["verdict"], own_verdict(rows[:, 3], len(tag)))
        problems += _close(f"{tag} final_bias", entry["final_bias"], float(rows[-1, 3]))
        problems += _close(f"{tag} min_bias", entry["min_bias"], float(rows[:, 3].min()))
        problems += _close(f"{tag} max_entropy", entry["max_entropy"], float(rows[:, 4].max()))
    winning = [r["sequence"] for r in results if r["verdict"] == "Winning"]
    both_losing = verdicts["A"] == verdicts["B"] == "Losing"
    problems += _equal("paradox_sequences", data["paradox_sequences"], winning if both_losing else [])
    by_period = {str(p): sum(len(s) == p for s in winning) for p in range(2, inv.max_period + 1)}
    return problems + _equal("winning_by_period", data["winning_by_period"], by_period)


def _regions_oracle(inv: Invocation, data: dict, rng: np.random.Generator) -> list[str]:
    """Recompute one randomly chosen cell of the grid from scratch."""
    axes = data["axes"]
    index = tuple(int(rng.integers(len(axis["values"]))) for axis in axes)
    coins = {"a": list(inv.coin_a), "b": list(inv.coin_b)}
    for axis, i in zip(axes, index):
        name, coin = axis["parameter"].split("_")
        coins[coin][("alpha", "beta", "gamma").index(name)] = axis["values"][i]
    verdicts = {s: own_verdict(own_game(coins["a"], coins["b"], inv.eta, s, inv.steps)[:, 3],
                               1 if s in "AB" else len(s))
                for s in ["A", "B"] + mixed_sequences(inv.max_period)}
    n_winning = sum(v == "Winning" for s, v in verdicts.items() if s not in "AB")
    paradox = verdicts["A"] == verdicts["B"] == "Losing" and n_winning > 0
    flags, counts = data["paradox"], data["winning_counts"]
    for i in index:
        flags, counts = flags[i], counts[i]
    return _equal(f"cell {index} paradox", flags, paradox) + _equal(f"cell {index} winning", counts, n_winning)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: checks.py --write-reference")
    write_references(REFERENCE_DIR)
