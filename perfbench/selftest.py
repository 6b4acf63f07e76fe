"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

1. Every workload, in both passes, at a tiny horizon (T = 12) runs clean
   and prints every metric BENCHMARK.json declares for that pass, by name
   with its unit, in the report lines and in the final JSON line.
2. The output check reports a corrupted reference: a flipped verdict, a
   shortened paradox list or a float moved by 1e-9 fails, a float moved
   by 1e-14 passes, and a full run against a corrupted reference
   directory counts failed invocations.
3. The peak RSS that os.wait4 reports covers a grandchild process, as it
   must for the pool workers of regions-grid.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys

import run  # puts the package source on sys.path
import checks
from workloads import WORKLOADS, build

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def bench(*args: str) -> tuple[int, list[str]]:
    done = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout.strip().splitlines()


def test_every_metric_prints() -> None:
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                "--trace", str(trace), "--steps", "12")
            what = f"{workload} trace {trace}"
            expect(code == 0 and lines, f"{what}: exit code {code}")
            result = json.loads(lines[-1])
            expect(list(result) == ["correct", "attempted", "failed", "metrics"], f"{what}: keys {list(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{what}: {result}")
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(printed == declared, f"{what}: metrics {printed} != {declared}")
            for name, unit in declared.items():
                expect(any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines[:-1]),
                       f"{what}: no report line for {name} in {unit}")
            expect(any(line.startswith("error_rate = 0 ") for line in lines), f"{what}: error_rate")
            print(f"ok  {what}: {len(declared)} metrics")


def _corrupt_scan(data: dict, how: str) -> dict:
    data = json.loads(json.dumps(data))
    if how == "verdict":
        entry = data["results"][0]
        entry["verdict"] = "Winning" if entry["verdict"] != "Winning" else "Losing"
    elif how == "paradox":
        data["paradox_sequences"] = data["paradox_sequences"][1:]
    else:
        data["results"][5]["final_bias"] += float(how)
    return data


def test_corrupted_reference() -> None:
    inv = build("scan-readme", 0)[0]
    text = (checks.REFERENCE_DIR / "scan.json").read_text()
    scratch = run.OUT / "selftest-reference"
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(checks.REFERENCE_DIR, scratch)
    for how, should_fail in (("verdict", True), ("paradox", True), ("1e-9", True), ("1e-14", False)):
        (scratch / "scan.json").write_text(json.dumps(_corrupt_scan(json.loads(text), how)))
        problems = checks.check_reference(inv, text, scratch)
        expect(bool(problems) == should_fail, f"scan reference corrupted by {how}: {problems}")
    sim = build("simulate-long", 0)[0]
    path = checks.reference_path(scratch, sim)
    with gzip.open(path, "rt") as handle:
        rows = handle.read().splitlines()
    good = "\n".join(rows) + "\n"
    step, *values = rows[100].split(",")
    rows[100] = ",".join([step, format(float(values[0]) + 1e-9, ".12e"), *values[1:]])
    with gzip.open(path, "wt") as handle:
        handle.write("\n".join(rows) + "\n")
    expect(bool(checks.check_reference(sim, good, scratch)), "simulate reference moved by 1e-9 passed")
    print("ok  output check reports corrupted references")

    (scratch / "scan.json").write_text(json.dumps(_corrupt_scan(json.loads(text), "verdict")))
    code, lines = bench("--workload", "scan-readme", "--seed", "0", "--seconds", "0",
                        "--trace", "0", "--reference", str(scratch))
    result = json.loads(lines[-1])
    expect(code != 0 and not result["correct"] and result["failed"] == result["attempted"],
           f"run against a corrupted reference: exit {code}, {result}")
    print(f"ok  run against a corrupted reference: {result['failed']} of {result['attempted']} failed")
    shutil.rmtree(scratch)


GRANDCHILD = """
import multiprocessing
def touch():
    block = bytearray(128 << 20)
    for i in range(0, len(block), 4096):
        block[i] = 1
if __name__ == "__main__":
    worker = multiprocessing.get_context("fork").Process(target=touch)
    worker.start()
    worker.join()
"""


def test_rss_covers_grandchildren() -> None:
    _, code, rss, _ = run.spawn([sys.executable, "-c", GRANDCHILD])
    expect(code == 0 and rss >= 128, f"wait4 peak RSS {rss:.1f} MiB misses a 128 MiB grandchild")
    print(f"ok  wait4 peak RSS covers a grandchild: {rss:.1f} MiB")


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    test_rss_covers_grandchildren()
    test_corrupted_reference()
    test_every_metric_prints()
    print("all self-tests passed")
