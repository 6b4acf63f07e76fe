"""qparrondo benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` is the untraced pass. Each round runs a fresh-interpreter
set-up probe, the CLI command as a subprocess, and the same computation
through the public API in-process; it reports the end-to-end metrics
named in BENCHMARK.json. A shared host can slow by a fifth to a third
for minutes at a time, so every untraced timing is scaled to a fixed
machine speed: a reference task that does not use the package (see
calibrate) runs after each timed call, and each timing is multiplied by
CALIBRATION_REF_S over the mean of the CALIBRATION_WINDOW calibrations on
either side of it. The unscaled medians are printed beside the scaled
ones. ``--trace 1`` is the traced pass. It wraps the
package's public functions (see spans.py) and reports the per-layer
metrics. Every output is checked (see checks.py), and a failed check
counts the invocation as failed. The last line of stdout is one JSON
object: correct, attempted, failed, metrics. Details, the run context and
the spans go to perfbench/out/.

``--write-reference`` regenerates the stored seed-0 reference outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import io as stringio
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The benchmark builds nothing: it runs the package from the source tree of
# the checkout it sits in, and refuses to run without one.
if not (SRC / "qparrondo" / "__init__.py").is_file():
    sys.exit(f"error: package source not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import qparrondo  # noqa: E402
import qparrondo.cli  # noqa: E402
from qparrondo import walk  # noqa: E402
from qparrondo.walk import CoinParams, GameSequence, InitialStateSpec  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Invocation, build  # noqa: E402

CLI_TIMEOUT_S = 120
# Median of calibrate() on the machine the baseline was recorded on (2 cores,
# Python 3.11.7, numpy 2.4.6). A constant, so scaled timings of two commits
# compare directly; it only sets the scale on which they are reported.
CALIBRATION_REF_S = 0.12
# A single 0.12 s calibration is itself noisy; the mean of four on each side
# of a timing still follows the host's slow phases, which last minutes.
CALIBRATION_WINDOW = 4
SETUP_SAMPLES = 5
SETUP_PER_ROUND = 2  # set-up probes are cheap; more of them steady the median
# A fresh interpreter reports the moment it is ready; perf_counter is
# CLOCK_MONOTONIC, shared by every process on the machine.
SETUP_CODE = (
    "import sys, time\n"
    "import qparrondo.cli\n"
    "qparrondo.cli.parse_cli(sys.argv[1:])\n"
    "print(repr(time.perf_counter()))\n"
)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


def calibrate() -> float:
    """Seconds taken by a fixed reference task that does not use the package.

    It mixes what the workloads do: interpreter loops, small complex numpy
    products on a lattice of the walk's shape, and one pass over 32 MB.
    """
    start = perf_counter()
    state = np.zeros((2, 257), complex)
    state[0, 128] = 1
    coin = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    total = 0.0
    for _ in range(7000):
        mixed = coin @ state
        state = np.zeros_like(mixed)
        state[0, :-1] = mixed[0, 1:]
        state[1, 1:] = mixed[1, :-1]
        total += float(np.abs(state[0]).sum()) + sum([j * 0.5 for j in range(16)])
    total += float(np.ones(1 << 22).sum())
    return perf_counter() - start


def spawn(cmd: list[str]) -> tuple[float, int, float, str]:
    """Run a command to completion: wall seconds, exit code, peak RSS (MiB)
    of the process and every descendant it waited for, and stderr.

    The rusage from ``os.wait4`` carries the largest RSS of the child and of
    the children it reaped, so a pool worker's peak is covered.
    """
    with open(OUT / "stderr.txt", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        elapsed = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return elapsed, proc.returncode, usage.ru_maxrss / 1024, stderr


class Run:
    """Samples, checks and failure counts of one benchmark run."""

    def __init__(self, seed: int, ref_dir: Path | None, calibrated: bool) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._calibrated = calibrated
        self._marks: dict[str, list[int]] = defaultdict(list)
        if calibrated:
            self.samples["calibration_s"].append(calibrate())
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[str, tuple[str, list[str]]] = {}
        self._rng = np.random.default_rng(seed)
        self._ref_dir = ref_dir

    def mark(self) -> int:
        """Calibrate after a timing that just ended; return the index of
        that calibration (-1 when the run is not calibrated)."""
        calibrations = self.samples["calibration_s"]
        if self._calibrated:
            calibrations.append(calibrate())
        return len(calibrations) - 1

    def add(self, key: str, seconds: float, mark: int) -> None:
        self.samples[key].append(seconds)
        self._marks[key].append(mark)

    def rescale(self) -> None:
        """Scale every timing to the reference machine speed; keep the
        timings as measured under ``key + ".raw"``."""
        calibrations = self.samples["calibration_s"]
        for key, marks in self._marks.items():
            raw = self.samples[key]
            self.samples[key + ".raw"] = raw
            self.samples[key] = [
                seconds * CALIBRATION_REF_S / statistics.fmean(
                    calibrations[max(0, mark - CALIBRATION_WINDOW):mark + CALIBRATION_WINDOW])
                for seconds, mark in zip(raw, marks)]

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems[:5]]
        return not problems

    def verify(self, inv: Invocation, text: str) -> list[str]:
        """Full checks on the first output of an invocation; every later
        output must equal it byte for byte."""
        if inv.label in self._first:
            first, problems = self._first[inv.label]
            return problems if text == first else ["output differs from the first output of this invocation"]
        problems = checks.check_reference(inv, text, self._ref_dir) if self._ref_dir else []
        problems += checks.oracle_problems(inv, text, self._rng)
        self._first[inv.label] = (text, problems)
        return problems

    def setup(self, inv: Invocation, count: int = 1) -> None:
        """Fresh interpreter to ready: import qparrondo.cli and parse_cli.

        ``count`` probes run back to back and share one calibration.
        """
        timings = []
        for _ in range(count):
            start = perf_counter()
            done = subprocess.run([sys.executable, "-c", SETUP_CODE, *inv.argv(os.devnull)],
                                  cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            if done.returncode == 0:
                timings.append(float(done.stdout.split()[-1]) - start)
            else:
                self.record("setup", [f"exit code {done.returncode}: {done.stderr[-500:]}"])
        mark = self.mark()
        for seconds in timings:
            self.add("setup_s", seconds, mark)

    def cli(self, inv: Invocation) -> None:
        out = OUT / (inv.label + inv.suffix)
        out.unlink(missing_ok=True)
        elapsed, code, rss, stderr = spawn([sys.executable, "-m", "qparrondo.cli", *inv.argv(str(out))])
        mark = self.mark()
        if code != 0:
            self.record(f"cli {inv.label}", [f"exit code {code}: {stderr[-500:]}"])
        elif self.record(f"cli {inv.label}", self.verify(inv, out.read_text())):
            self.add("wall_s", elapsed, mark)
            self.samples["peak_rss_mb"].append(rss)

    def api(self, inv: Invocation, key: str, workers: int | None = None, tracer: Tracer | None = None):
        """Time one top-level API call; return the result when its output checks out."""
        try:
            with tracer.installed() if tracer else nullcontext():
                start = perf_counter()
                result = inv.call(workers)
                elapsed = perf_counter() - start
            mark = self.mark()
        except Exception as exc:  # one failed invocation must not end the run
            self.record(f"api {inv.label}", [f"{type(exc).__name__}: {exc}"])
            return None
        sink = stringio.StringIO()
        inv.write(result, sink)
        if not self.record(f"api {inv.label}", self.verify(inv, sink.getvalue())):
            return None
        self.add(key, elapsed, mark)
        return result


def untraced_pass(run: Run, invs: list[Invocation], seconds: float) -> dict[str, float]:
    run.setup(invs[0])  # warm-up: fills the bytecode cache
    run.api(invs[0], "warmup")
    deadline = perf_counter() + seconds
    rounds, round_s = 0, 0.0
    game_steps = []
    # every invocation runs at least twice, so reruns can be compared; after
    # that a round starts only if, as long as the last, it would end less
    # than half a round past the deadline, so runs overshoot by none on average
    while rounds < 2 * len(invs) or perf_counter() + round_s / 2 < deadline:
        started = perf_counter()
        inv = invs[rounds % len(invs)]
        run.setup(inv, SETUP_PER_ROUND)
        run.cli(inv)
        if run.api(inv, "api_s") is not None:
            game_steps.append(inv.game_steps)
        rounds += 1
        round_s = perf_counter() - started
    if len(run.samples["setup_s"]) < SETUP_SAMPLES:
        run.setup(invs[0], SETUP_SAMPLES - len(run.samples["setup_s"]))
    run.rescale()
    for key in ("", ".raw"):
        run.samples["game_steps_per_s" + key] = [
            steps / seconds for steps, seconds in zip(game_steps, run.samples["api_s" + key])]
    return {name: _median(run.samples[name])
            for name in ("wall_s", "game_steps_per_s", "setup_s", "peak_rss_mb")}


def snapshot_stats(inv: Invocation) -> tuple[int, float]:
    """Bytes held by one evolve_sequence result (computed from the array
    shapes), and the share of stored amplitudes that are nonzero."""
    snapshots = walk.evolve_sequence(InitialStateSpec(inv.eta), CoinParams(*inv.coin_a),
                                     CoinParams(*inv.coin_b), GameSequence(inv.schedule or "A"),
                                     inv.steps)
    nbytes = sum(s.amplitudes.nbytes for s in snapshots)
    stored = sum(s.amplitudes.size for s in snapshots)
    nonzero = sum(int(np.count_nonzero(s.amplitudes)) for s in snapshots)
    return nbytes, nonzero / stored


def traced_pass(run: Run, invs: list[Invocation], seconds: float, tracer: Tracer) -> dict[str, float]:
    run.setup(invs[0])
    run.api(invs[0], "warmup")
    deadline = perf_counter() + seconds
    per_call: dict[str, list[float]] = defaultdict(list)
    rounds, round_s = 0, 0.0
    while rounds < len(invs) or perf_counter() + round_s / 2 < deadline:
        started = perf_counter()
        inv = invs[rounds % len(invs)]
        run.setup(inv)
        start = perf_counter()
        qparrondo.cli.parse_cli(inv.argv(os.devnull))
        run.samples["cli.parse_s"].append(perf_counter() - start)
        run.cli(inv)
        run.api(inv, "api_s")
        # the traced call runs in one process, so regions also needs an
        # untraced single-worker grid to compare it with
        baseline = "api_s"
        if inv.kind == "regions":
            baseline = "scan.region_grid_serial_s"
            run.api(inv, baseline, workers=1)
        tracer.run_id = rounds
        result = run.api(inv, "traced_s", workers=1, tracer=tracer)
        if result is not None and run.samples[baseline]:
            traced_s = run.samples["traced_s"][-1]
            layers = tracer.layers(rounds)
            for name, value in _layer_values(layers, inv, traced_s).items():
                per_call[name].append(value)
            overhead = traced_s / run.samples[baseline][-1] - 1
            accounted = per_call["trace.accounted_frac"][-1]
            # the self times must add up to the traced call within the tracing
            # overhead; 100 us more cover building the arguments outside the
            # root span, which matters only at tiny horizons
            allowed = max(overhead, 0.01) + 1e-4 / traced_s
            run.record("trace accounting", [] if abs(accounted - 1) <= allowed else [
                f"span self times cover {accounted:.4f} of the traced call (overhead {overhead:.4f})"])
            start = perf_counter()
            sink = stringio.StringIO()
            inv.write(result, sink)
            text = sink.getvalue()
            (OUT / ("io" + inv.suffix)).write_text(text)
            run.samples["io.write_s"].append(perf_counter() - start)
            run.samples["io.bytes"].append(len(text.encode()))
        rounds += 1
        round_s = perf_counter() - started
    while len(run.samples["setup_s"]) < SETUP_SAMPLES:
        run.setup(invs[0])

    values = {name: _median(v) for name, v in per_call.items()}
    inv = invs[0]
    values["walk.snapshot_bytes"], values["walk.useful_amplitude_fraction"] = snapshot_stats(inv)
    values["scan.games"] = inv.games
    values["scan.game_steps"] = inv.game_steps
    values["scan.cells"] = inv.cells
    med = {name: _median(run.samples[name]) for name in
           ("api_s", "traced_s", "setup_s", "wall_s", "io.write_s", "io.bytes", "cli.parse_s",
            "scan.region_grid_serial_s")}
    values["io.write_s"], values["io.bytes"], values["cli.parse_s"] = (
        med["io.write_s"], med["io.bytes"], med["cli.parse_s"])
    values["cli.unaccounted_s"] = med["wall_s"] - med["setup_s"] - med["api_s"] - med["io.write_s"]
    if inv.kind == "regions":
        values["scan.region_grid_s"] = med["api_s"]
        values["scan.region_grid_serial_s"] = med["scan.region_grid_serial_s"]
        values["scan.pool_speedup"] = med["scan.region_grid_serial_s"] / med["api_s"]
        values["scan.pool_efficiency"] = values["scan.pool_speedup"] / inv.workers
        values["trace.overhead_frac"] = med["traced_s"] / med["scan.region_grid_serial_s"] - 1
    else:
        # no grid and no pool: reported as 0
        for name in ("scan.region_grid_s", "scan.region_grid_serial_s", "scan.pool_speedup",
                     "scan.pool_efficiency"):
            values[name] = 0.0
        values["trace.overhead_frac"] = med["traced_s"] / med["api_s"] - 1
    return values


def _layer_values(layers: dict[str, dict[str, float]], inv: Invocation, traced_s: float) -> dict[str, float]:
    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0.0)

    return {
        "walk.step.calls": get("walk.step", "calls"),
        "walk.step.s": get("walk.step", "s"),
        "walk.ns_per_game_step": get("walk.evolve", "s") * 1e9 / inv.game_steps,
        "walk.evolve.self_s": get("walk.evolve", "self_s"),
        "walk.make_coin.calls": get("walk.make_coin", "calls"),
        "metrics.bias.calls": get("metrics.bias", "calls"),
        "metrics.bias.s": get("metrics.bias", "s"),
        "metrics.density.s": get("metrics.density", "s"),
        "metrics.entropy.s": get("metrics.entropy", "s"),
        "metrics.trajectory.self_s": get("metrics.trajectory", "self_s"),
        "metrics.classify.s": get("metrics.classify", "s"),
        "scan.run_scan.self_s": get("scan.run_scan", "self_s"),
        "scan.enumerate.s": get("scan.enumerate", "s"),
        "trace.accounted_frac": sum(layer["self_s"] for layer in layers.values()) / traced_s,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def context(args: argparse.Namespace, invs: list[Invocation]) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "qparrondo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "qparrondo": qparrondo.__version__, "git_commit": commit, "source_sha256": digest.hexdigest(),
        "games": sum(inv.games for inv in invs) // len(invs),
        "game_steps": sum(inv.game_steps for inv in invs) // len(invs),
        "invocations": [{"label": inv.label, "games": inv.games, "game_steps": inv.game_steps,
                         "cells": inv.cells, "argv": inv.argv("OUT")} for inv in invs],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int, default=None,
                        help="override the horizon (self-tests); disables the seed-0 reference check")
    parser.add_argument("--reference", type=Path, default=None,
                        help="reference directory to check against instead of the stored one")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference:
        checks.write_references(checks.REFERENCE_DIR)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    OUT.mkdir(exist_ok=True)
    invs = build(args.workload, args.seed, args.steps)
    ref_dir = args.reference or (checks.REFERENCE_DIR if args.seed == 0 and args.steps is None else None)
    run = Run(args.seed, ref_dir, calibrated=not args.trace)
    tracer = Tracer()
    values = (traced_pass(run, invs, args.seconds, tracer) if args.trace
              else untraced_pass(run, invs, args.seconds))
    if set(values) != set(declared):
        raise RuntimeError(f"computed metrics {sorted(values)} != declared {sorted(declared)}")

    ctx = context(args, invs)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    error_rate = run.failed / max(run.attempted, 1)
    reported = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    print("context: " + json.dumps(ctx))
    for name, unit in declared.items():
        samples = run.samples.get(name, ())
        note = f"  (median of {len(samples)})" if samples else ""
        if name + ".raw" in run.samples and not args.trace:
            note += f", unscaled {_median(run.samples[name + '.raw']):.6g} {unit}"
        if name == "walk.snapshot_bytes":
            note = "  (computed from array shapes, not measured)"
        print(f"{name} = {values[name]:.6g} {unit}{note}")
    if not args.trace:
        print(f"calibration_s = {_median(run.samples['calibration_s']):.6g} s  (median of "
              f"{len(run.samples['calibration_s'])}; reference {CALIBRATION_REF_S} s)")
    print(f"error_rate = {error_rate:.6g} fraction  ({run.failed} of {run.attempted} invocations failed)")
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    with open(OUT / f"{stem}.json", "w") as handle:
        json.dump({"context": ctx, "error_rate": error_rate, "attempted": run.attempted,
                   "failed": run.failed, "problems": run.problems,
                   "metrics": reported, "samples": run.samples}, handle, indent=1)
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": reported}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
