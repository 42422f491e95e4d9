#!/usr/bin/env python3
"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Runs every workload with --toy in both modes and checks that each run
exits 0, ends with the result object, reports correct outputs, and prints
every metric that BENCHMARK.json names with the unit it names. Runs the
same seed twice to check that inputs and outputs repeat (same
fingerprint), and runs the benchmark in a directory without the program
to check that it then fails without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT/"BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, seed, trace, cwd=ROOT, runner=HERE/"run.py"):
    return subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def fingerprint_of(proc):
    return next(line.split()[1] for line in proc.stdout.splitlines()
                if line.startswith("fingerprint "))


def check_run(workload, trace, problems):
    proc = run(workload, 1, trace)
    tag = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return proc
    res = result_of(proc)
    if set(res) != RESULT_KEYS:
        problems.append(f"{tag}: result keys {sorted(res)}")
    if res["correct"] is not True or res["attempted"] < 1:
        problems.append(f"{tag}: correct={res['correct']} "
                        f"attempted={res['attempted']}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, units "
                        f"{ {k: (got[k], want[k]) for k in want.keys() & got.keys() if got[k] != want[k]} }")
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            problems.append(f"{tag}: {k} is not a number")
    return proc


def main() -> int:
    problems = []
    for w in WORKLOADS:
        first = check_run(w, 0, problems)
        check_run(w, 1, problems)
        again = run(w, 1, 0)
        if (first.returncode == 0 and again.returncode == 0
                and fingerprint_of(first) != fingerprint_of(again)):
            problems.append(f"{w}: the same seed gave another fingerprint")
    other = run("sweep", 2, 0)
    if other.returncode == 0 and fingerprint_of(other) == fingerprint_of(
            run("sweep", 1, 0)):
        problems.append("sweep: seeds 1 and 2 gave the same inputs")

    bare = HERE/"out"/"bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare/HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT/"BENCHMARK.json", bare)
        proc = run("verify", 1, 0, cwd=bare, runner=bare/HERE.name/"run.py")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
            problems.append("without the program the benchmark did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
