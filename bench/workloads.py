"""The benchmark's workloads: what one pass runs, built from the benchmark seed.

Standard library only, so the worker can import this before its set-up clock
stops without moving ``setup_s``.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = ("mc_validate", "closed_sweeps", "optimize_batch")

MC_TRIALS = "1000000"

# closed_sweeps: the CSV files scripts/figure_sweeps.py writes without --mc,
# with their expected row counts (2,150 rows in all).
SWEEP_FILES = {
    **{f"est_vs_re_sth_{s}.csv": 120 for s in ("1.0", "0.6", "0.4", "0.2")},
    **{f"est_vs_sth_{k}.csv": 20 for k in ("adaptive", "fixed")},
    **{f"est_vs_n_{k}.csv": 6 for k in ("adaptive", "fixed")},
    **{f"est_vs_sigma_{k}.csv": 9 for k in ("adaptive", "fixed")},
    "est_grid_fixed.csv": 1600,
}

# optimize_batch: n_a = n_b = n_e = n, every ceiling, the fixed scheme and the
# adaptive scheme at three pinned capacities, plus one MC-averaged adaptive run.
OPT_NS = (1, 2, 4)
OPT_STHS = ("0.2", "0.4", "1.0")
OPT_CBS = ("2", "4", "6")
OPT_MC_N = 2
OPT_MC_STH = "0.4"


def pass_seed(seed: int, index: int) -> int:
    """Program seed of pass ``index`` in a run with benchmark seed ``seed``."""
    return seed * 1000 + index


def config_path(outdir: Path, n: int) -> Path:
    return outdir / f"n{n}.json"


def write_configs(outdir: Path) -> None:
    for n in OPT_NS:
        config_path(outdir, n).write_text(json.dumps({"n_a": n, "n_b": n, "n_e": n}))


def optimize_ops(outdir: Path, program_seed: int) -> list[tuple[str, list[str]]]:
    """(output file, argv) of the 37 ``optimize`` runs of one pass."""
    ops = []
    for n in OPT_NS:
        cfg = str(config_path(outdir, n))
        for sth in OPT_STHS:
            name = f"opt_n{n}_sth{sth}_fixed.json"
            ops.append((name, ["optimize", "--config", cfg, "--scheme", "fixed", "--sth", sth]))
            for cb in OPT_CBS:
                name = f"opt_n{n}_sth{sth}_cb{cb}.json"
                ops.append(
                    (name, ["optimize", "--config", cfg, "--scheme", "adaptive", "--sth", sth, "--cb", cb])
                )
    ops.append(
        (
            "opt_mc.json",
            [
                "optimize", "--config", str(config_path(outdir, OPT_MC_N)),
                "--scheme", "adaptive", "--sth", OPT_MC_STH,
                "--trials", MC_TRIALS, "--seed", str(program_seed), "--jobs", "1",
            ],
        )
    )
    return [(name, argv + ["--out", str(outdir / name)]) for name, argv in ops]


def validate_ops(outdir: Path, program_seed: int) -> list[tuple[str, list[str]]]:
    argv = ["validate", "--trials", MC_TRIALS, "--seed", str(program_seed), "--jobs", "1"]
    return [("validate.txt", argv + ["--out", str(outdir / "validate.txt")])]


def ops_per_pass(workload: str) -> int:
    if workload == "mc_validate":
        return 1
    if workload == "closed_sweeps":
        return len(SWEEP_FILES)
    return len(OPT_NS) * len(OPT_STHS) * (1 + len(OPT_CBS)) + 1
