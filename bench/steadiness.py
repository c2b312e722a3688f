#!/usr/bin/env python3
"""Steadiness evidence: two interleaved sets of benchmark runs per workload.

Usage (from the repository root):

    python3 bench/steadiness.py [--runs 10]

Runs ``run.py --trace 0`` ``--runs`` times per set and workload, for the
``run_seconds`` of ``BENCHMARK.json``, alternating between the two sets run
by run, each run with its own seed (set A takes seeds 1..runs, set B
runs+1..2*runs).  For every set, workload and end-to-end
metric it prints the median, the quartiles and the spread (interquartile
distance over the median), then how far set B's median lies from set A's.
Quartiles are ``statistics.quantiles(values, n=4)``.  Raw results go to
``bench/out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

RUN_SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]


def one_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    names = workloads.WORKLOADS

    results: dict[str, dict[str, list[dict]]] = {s: {w: [] for w in names} for s in "AB"}
    for i in range(args.runs):
        for w in names:
            for k, s in enumerate(results):
                doc = one_run(w, 1 + i + k * args.runs)
                results[s][w].append(doc)
                vals = {m: round(v["value"], 4) for m, v in doc["metrics"].items()}
                print(f"set {s} run {i + 1} {w}: correct={doc['correct']} failed={doc['failed']}/{doc['attempted']} {vals}", flush=True)

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(results, indent=1))
    print("\n| Workload | Metric | Set | Median | Q1 | Q3 | Spread |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for w in names:
        metrics = results["A"][w][0]["metrics"]
        for m in metrics:
            meds = {}
            for s in results:
                st = summary([d["metrics"][m]["value"] for d in results[s][w]])
                meds[s] = st["median"]
                print(
                    f"| {w} | {m} | {s} | {st['median']:.4f} | {st['q1']:.4f} | {st['q3']:.4f} |"
                    f" {100 * st['spread']:.1f} % |"
                )
            print(f"| {w} | {m} | B vs A | {100 * (meds['B'] / meds['A'] - 1):+.1f} % | | | |")
    bad = [d for s in results.values() for runs in s.values() for d in runs if not d["correct"]]
    shares = {w: {s: sorted({d["failed"] / d["attempted"] for d in results[s][w]}) for s in results} for w in names}
    print(f"\nfailed shares per set: {shares}; incorrect runs: {len(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
