#!/usr/bin/env python3
"""Benchmark of fso-secrecy: validate, the figure sweeps and optimize.

Usage (from the repository root):

    python3 bench/run.py --workload mc_validate --seed 1 --seconds 15 --trace 0

Every pass and every set-up sample runs in its own fresh, single-threaded
interpreter (``worker.py``), one at a time.  With ``--trace 0`` the run
repeats passes until ``--seconds`` have gone by (at least one pass) and
reports the medians of the end-to-end metrics; times are rescaled to a
reference CPU speed by ``speed.py``, and the raw ones go to stderr.  With ``--trace 1`` it runs
one untraced and one traced pass on the same inputs, requires their outputs
to be byte-identical, and reports the per-layer metrics of the traced pass.
Outputs are checked after all timing is done.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
RUN_BUDGET_S = 170.0
# Exit codes an operation may end with: validate exits 3 when one of its own
# 3-sigma Monte-Carlo verdicts fails by chance (checked separately at 5 sigma).
OK_CODES = {"mc_validate": (0, 3), "closed_sweeps": (0,), "optimize_batch": (0,)}


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Spawns workers one at a time, inside the run's time budget."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.env = child_env()
        self.spawned = 0

    def spawn(self, spec: dict) -> dict:
        result_file = self.workdir / f"result{self.spawned}.json"
        self.spawned += 1
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("run exceeded its time budget")
        spec = dict(spec, result=str(result_file), spawned_at=time.perf_counter())
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            env=self.env,
            cwd=ROOT,
            stdout=sys.stderr,
            timeout=timeout,
        )
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}: {spec}")
        return json.loads(result_file.read_text())

    def setup_sample(self) -> dict:
        return self.spawn({"mode": "setup"})

    def run_pass(self, workload: str, index: int, seed: int, trace: bool) -> dict:
        outdir = self.workdir / f"pass{index}{'_traced' if trace else ''}"
        spec = {
            "mode": "pass",
            "workload": workload,
            "program_seed": workloads.pass_seed(seed, index),
            "outdir": str(outdir),
            "trace": trace,
        }
        result = self.spawn(spec)
        result["outdir"] = outdir
        return result


def tally(workload: str, passes: list[dict]) -> tuple[int, int]:
    attempted = workloads.ops_per_pass(workload) * len(passes)
    ok = sum(1 for p in passes for c in p["codes"] if c in OK_CODES[workload])
    return attempted, attempted - ok


def check_outputs(workload: str, seed: int, passes: list[dict], workdir: Path) -> list[str]:
    params = checks.Params(workdir)
    problems: list[str] = []
    # Every operation runs and exits with an allowed code.
    expected = workloads.ops_per_pass(workload)
    for p in passes:
        tag = p["outdir"].name
        if len(p["codes"]) != expected:
            problems.append(f"{tag}: {len(p['codes'])} operations ran, expected {expected}")
        for i, code in enumerate(p["codes"]):
            if code not in OK_CODES[workload]:
                problems.append(f"{tag}: operation {i} exited {code}")
    if workload == "mc_validate":
        refs = checks.validate_references(params)
        for p in passes:
            report = p["outdir"] / "validate.txt"
            if not report.is_file():
                problems.append(f"{p['outdir'].name}: validate.txt missing")
                continue
            problems += checks.check_validate(report.read_text(), p["codes"][0], refs)
    elif workload == "closed_sweeps":
        refs = checks.sweep_sop_references(params, seed)
        for p in passes:
            problems += checks.check_sweeps(p["outdir"], refs)
    else:
        for p in passes:
            problems += checks.check_optimize(p["outdir"], params)
    return problems


def outputs_identical(a: Path, b: Path) -> list[str]:
    names = sorted(f.name for f in a.iterdir())
    if names != sorted(f.name for f in b.iterdir()):
        return [f"traced pass wrote other files than the untraced pass: {names}"]
    return [f"traced output {n} differs" for n in names if (a / n).read_bytes() != (b / n).read_bytes()]


def measure(runner: Runner, workload: str, seed: int, seconds: int) -> tuple[list[dict], dict]:
    runner.setup_sample()  # warm-up: byte-compiles the checkout's sources
    setups: list[dict] = []
    passes: list[dict] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        setups.append(runner.setup_sample())
        passes.append(runner.run_pass(workload, len(passes), seed, trace=False))
        setups.append(passes[-1])
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.setup_sample())
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    for key, runs in (("wall", passes), ("setup", setups)):
        raw = [round(r[f"{key}_raw_s"], 3) for r in runs]
        norm = [round(r[f"{key}_s"], 3) for r in runs]
        print(f"{workload}: {key} raw {raw} normalized {norm}", file=sys.stderr)
    return passes, metrics


def measure_traced(runner: Runner, workload: str, seed: int) -> tuple[list[dict], dict, list[str]]:
    plain = runner.run_pass(workload, 0, seed, trace=False)
    traced = runner.run_pass(workload, 0, seed, trace=True)
    problems = outputs_identical(plain["outdir"], traced["outdir"])
    metrics = {}
    for name, value in traced["trace"].items():
        metrics[name] = (value, "s" if name.endswith("_s") else "count")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    print(
        f"{workload}: untraced {plain['wall_raw_s']:.3f} s, traced {traced['wall_raw_s']:.3f} s raw;"
        f" {plain['wall_s']:.3f} s, {traced['wall_s']:.3f} s normalized",
        file=sys.stderr,
    )
    return [plain, traced], metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fso_secrecy" / "cli.py").is_file():
        print(f"error: no fso_secrecy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir)
    try:
        if args.trace:
            passes, metrics, problems = measure_traced(runner, args.workload, args.seed)
        else:
            passes, metrics = measure(runner, args.workload, args.seed, args.seconds)
            problems = []
        problems += check_outputs(args.workload, args.seed, passes, workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = tally(args.workload, passes)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if not problems:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
