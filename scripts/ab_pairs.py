#!/usr/bin/env python3
"""Interleaved benchmark pairs of two source trees, with the claim rule.

Usage:

    python scripts/ab_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --pairs N \
        [--seconds S] [--first-seed K]

PARENT_ROOT and CHANGE_ROOT are checkouts of fso-secrecy, each with its own
``bench/run.py``.  Pair i (i = 1..N) runs ``bench/run.py --workload W --seed
K + i - 1 --seconds S --trace 0`` of both trees (K is 1 unless given), one
after the other, in the tree's own root: the parent first in odd pairs, the
change first in even ones.
Each run's last stdout line is its result.

It prints every pair, then, for each end-to-end metric that
``CHANGE_ROOT/BENCHMARK.json`` lists, the median and quartiles
(``statistics.quantiles(values, n=4)``) of both trees, the pairs in which
the change is better, and whether the claim rule holds: the change better
in at least 9 of 10 pairs, and its median better than the parent's by more
than the parent's Q3 - Q1.  It exits 1 if a run was not ``correct`` or had
a failed operation.  Standard library only: it imports nothing from either
tree and writes no file; ``bench/run.py`` keeps its own outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def bench_run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result document of one ``bench/run.py`` run in the tree ``root``;
    a run that ends without one stops the script with its last stderr line."""
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise SystemExit(f"error: {root} seed {seed} exited {proc.returncode}: {last}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles and wins of one metric over paired runs, and
    whether the claim rule holds.  ``better`` is ``"lower"`` or
    ``"higher"``; a pair is a win where the change's value is strictly
    better, and the claim holds where the change wins at least 9 in 10
    pairs and its median is better by more than the parent's Q3 - Q1."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    out = {"pairs": len(parent), "wins": wins}
    for name, values in (("parent", parent), ("change", change)):
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    iqr = out["parent"]["q3"] - out["parent"]["q1"]
    gain = sign * (out["parent"]["median"] - out["change"]["median"])
    out["claim_holds"] = 10 * wins >= 9 * len(parent) and gain > iqr
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    metrics = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    values = {tree: {m["name"]: [] for m in metrics} for tree in roots}
    broken = 0
    for pair in range(1, args.pairs + 1):
        seed = args.first_seed + pair - 1
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        docs = {tree: bench_run(roots[tree], args.workload, seed, args.seconds) for tree in order}
        cells = []
        for tree in roots:
            doc = docs[tree]
            broken += not doc["correct"] or doc["failed"] > 0
            cells.append(f"{tree} correct={doc['correct']} failed={doc['failed']}")
            for m in metrics:
                values[tree][m["name"]].append(doc["metrics"][m["name"]]["value"])
        moves = ", ".join(
            f"{name} {values['parent'][name][-1]:.4f} -> {values['change'][name][-1]:.4f}"
            for name in (m["name"] for m in metrics)
        )
        line = f"pair {pair}, seed {seed}, {order[0]} first: {moves}; {'; '.join(cells)}"
        print(line, flush=True)

    print()
    for m in metrics:
        s = summary(values["parent"][m["name"]], values["change"][m["name"]], m["better"])
        p, c = s["parent"], s["change"]
        print(
            f"{args.workload} {m['name']} ({m['better']} is better): "
            f"parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}] -> "
            f"change {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}] {m['unit']}, "
            f"{(c['median'] - p['median']) / p['median']:+.1%}, "
            f"change better in {s['wins']}/{s['pairs']} pairs; "
            f"claim {'holds' if s['claim_holds'] else 'does not hold'}"
        )
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
