"""Run every workload of BENCHMARK.json in both passes and print every
metric by name with its unit, plus each run's error rate.

    python3 perfbench/all.py [--seed N] [--seconds S]

Exits nonzero if any run fails an output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            print(f"== {workload}, {'traced' if trace else 'untraced'} pass", flush=True)
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("context: ")))
            sys.stderr.write(done.stderr)
            try:
                ok = ok and json.loads(lines[-1])["correct"]
            except (IndexError, ValueError, KeyError):
                print(f"no result line (exit code {done.returncode})")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
