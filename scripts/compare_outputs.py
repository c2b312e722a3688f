#!/usr/bin/env python3
"""Compare the outputs of two source trees of fso-secrecy field by field.

Usage: python scripts/compare_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are ``src/`` directories (each holding the
``fso_secrecy`` package).  Against each tree, in a fresh interpreter, the
script runs:

- the 37 ``optimize`` commands of the benchmark's ``optimize_batch``
  workload, as listed by ``bench/workloads.py``, with the program seed of
  the benchmark's pass 7 at seed 7 (7007) for the MC-averaged run;
- four more MC-averaged adaptive ``optimize`` runs on the same scenario and
  seed: at ``--sth 0.2``, at ``--sth 1.0`` (threshold rate 0, so the
  estimator's ceiling cut is empty), at ``--sth 0.4`` with 100 streams
  of 1,000 trials, shorter than the 2,048-row redundancy table, and at
  ``--sth 0.4`` with 40 trials on 100 streams at ``--jobs 2``, where 60
  streams hold no trial;
- two closed-form ``optimize`` runs on weak links, whose rates lie far
  below 1 bpcu: ``--scheme fixed`` at gamma0 0.1 and ``--scheme adaptive
  --cb 4`` at gamma0 1e-3;
- four closed-form ``optimize --scheme fixed`` runs far from the
  baseline.  At ``--sth 0.52`` on the scenario of
  ``test_fixed_optimal_labels_the_constrained_grid_fallback`` the scan finds
  no root, and the codeword-rate fallback runs on a factor that is 0 along
  the whole scan.  At gamma0 1e25 (``opt_grid_fallback_pair.json``) Bob's
  mean capacity is 74.7, and the pair's scan runs up to 15 above it.  At
  ``--sth 0.426`` on the scenario of
  ``test_optimize_ceiling_met_past_a_rounded_inversion_exits_0`` the outage
  at the pointing-free inversion (rate 34.1) rounds above the ceiling, so
  the ceiling inversion brackets upward past it.  At gamma0 1e250 and
  ``--sth 0.4`` (``opt_oracle_missed_band.json``) the codeword rate passes
  800, and the oracle's 160-node grid, about 5 bits a step, finds no
  positive throughput, so ``oracle.covers`` reads false;
- two closed-form ``optimize --scheme adaptive`` runs on the rarer paths
  of the adaptive solver.  At ``--cb 0.5 --sth 1.0`` on
  ``opt_adaptive_two_roots.json``'s scenario the slope scan finds two
  roots, which the surrogate throughput ranks.  At ``--cb 2.98 --sth
  0.656`` on the scenario of
  ``test_adaptive_optimal_rescans_the_first_cell_before_the_grid`` the
  whole rise of the throughput lies in the scan's first cell, so the solver
  scans that cell alone;
- closed-form ``optimize`` runs at ``sigma_s`` 0.5 and at ``sigma_s`` 0,
  three at each: ``--scheme fixed`` (the unconstrained pair), ``--scheme
  fixed --sth 0.4`` (the constrained codeword rate) and ``--scheme adaptive
  --cb 6 --sth 1.0`` (the adaptive curvature stencil).  At ``sigma_s`` 0.5
  the eavesdropper's xi**2 = 6.26 tops the surrogate shape k = 3.73, so the
  surrogate kernel takes its recurrence branch for the pointing term; at 0
  there is no pointing term;
- ``sweep --axis s_th --mc --trials 20000`` over the 20 ceilings of the
  figure sweeps, and ``sweep --axis n --mc --trials 20000 --sth 0.4`` over
  its six array sizes, each for ``--scheme fixed`` and ``--scheme
  adaptive`` (``--cb 4``) with the same program seed, so the optimum rows
  of both axes, Monte-Carlo column included, are compared byte for byte;
- closed-form optimum-axis sweeps, whose rows the solvers take as one
  batch: ``--axis sigma_s --min 0 --max 1 --steps 5`` under both schemes,
  whose rows mix the surrogate kernel's three branches (no pointing term at
  0, the recurrence at 0.25 and 0.5, the gamma ratio at 0.75 and 1), and
  ``--axis n --min 1 --max 6 --steps 6 --sth 1.0 --scheme fixed``, whose
  rows are unconstrained, and ``--axis s_th --min 0.01 --max 0.2 --steps 4
  --scheme adaptive --cb 0.5``, where no rate up to the capacity meets any
  of the ceilings, so every row sits at r_e = c_b with zero throughput and
  its ``constraint_met`` reads false: the exact outage there tops the
  ceiling;
- two closed-form fixed-scheme sweeps whose codeword rates the solvers take
  as one batch: ``--axis s_th --min 0.3 --max 0.7 --steps 9`` on
  ``opt_grid_fallback_fixed.json``'s scenario, where every ceiling binds
  and every codeword rate comes from the grid fallback inside the batch,
  and ``--axis r_e --min 0.5 --max 12 --steps 12`` without ``--rb``, whose
  rows take their codeword rates from one ``fixed_constrained_rbs`` batch
  that mixes ``lambert_w`` roots (up to r_e 6.8) and grid fallbacks (from
  7.8, past Bob's capacity);
- the two rate-axis sweeps of the figure sweeps with ``--mc --trials 20000``
  and the same program seed: ``--axis r_e --scheme adaptive --cb 6`` and
  ``--axis r_e_x_r_b --scheme fixed``, whose rows with r_b < r_e carry no
  Monte-Carlo estimate;
- ``params`` for the default scenario, for four apertures at every node
  and for a pointing-free eavesdropper (``sigma_s`` 0), whose ``k_ap`` and
  ``theta_ap`` keys the benchmark's checks read;
- ``scripts/figure_sweeps.py`` without Monte-Carlo (11 CSV files);
- ``validate --trials 1000000 --seed 7`` at ``--jobs 1`` and ``--jobs 4``;
- ``validate --trials 1000003 --stream-count 7 --seed 7`` at ``--jobs 1``
  and ``--jobs 4``, whose streams are of uneven size (142,858 and 142,857
  trials);
- ``validate --trials 50 --stream-count 64 --seed 7``, where 14 streams
  hold no trial.

The exit code of every CLI run is compared too (``exit_codes.json``), so a
``validate`` check that fails (exit 3) or a solver error (exit 2) on one
side shows as a differing field instead of stopping the comparison; a run
that exits 2 writes no output file.  It prints every file and field
that differs between the trees, with the relative difference
|new - old| / max(|old|, |new|) of each numeric one, then two summary
lines.  The first says how many files differ, how many of those are
Monte-Carlo outputs (``opt_mc*.json``, ``sweep_mc*.csv``, ``validate*.txt``)
and how many closed-form ones, the largest relative difference among the
solver fields (``rates``, ``est`` and ``sop_at_re`` of the ``optimize``
outputs), and the largest among their ``oracle.est`` fields.  The second
counts the differing fields by name: a JSON key, a CSV column, or ``line``
for a text file, most first (``moved fields: constraint_met 105``).  If
nothing differs it prints ``identical``.  It exits 1 if anything differs.
Standard library only.
"""

from __future__ import annotations

import argparse
import collections
import csv
import fnmatch
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

PROGRAM_SEED = workloads.pass_seed(7, 7)

# (output name, ceiling, trials, stream count, jobs) of the extra MC-averaged
# runs.
EXTRA_MC_RUNS = (
    ("opt_mc_sth0.2.json", "0.2", workloads.MC_TRIALS, "16", "1"),
    ("opt_mc_sth1.0.json", "1.0", workloads.MC_TRIALS, "16", "1"),
    ("opt_mc_streams100.json", workloads.OPT_MC_STH, "100000", "100", "1"),
    ("opt_mc_streams_past_trials.json", workloads.OPT_MC_STH, "40", "100", "2"),
)

# The solver paths of the optimize runs at sigma_s 0.5 and 0.
SOLVER_PATHS = (
    ("pair", ["--scheme", "fixed"]),
    ("fixed_sth0.4", ["--scheme", "fixed", "--sth", "0.4"]),
    ("adaptive_cb6", ["--scheme", "adaptive", "--cb", "6", "--sth", "1.0"]),
)

# The scenario of test_fixed_optimal_labels_the_constrained_grid_fallback.
GRID_FALLBACK = {
    "sigma_s": 0.0, "n_a": 5, "n_b": 2, "n_e": 6, "cn2": 1.36e-16, "d_b": 2124, "d_e": 2264,
    "gamma0": 639,
}

# (output name, config, scheme arguments) of the weak-link optimize runs, of
# the fixed-scheme runs far from the baseline, of the adaptive runs that rank
# two roots and rescan the first cell, and of each solver path at sigma_s 0.5
# and 0.
CONFIG_RUNS = (
    ("opt_weak_fixed.json", {"gamma0": 0.1}, ["--scheme", "fixed"]),
    ("opt_weak_adaptive.json", {"gamma0": 1e-3}, ["--scheme", "adaptive", "--cb", "4"]),
    ("opt_grid_fallback_fixed.json", GRID_FALLBACK, ["--scheme", "fixed", "--sth", "0.52"]),
    ("opt_grid_fallback_pair.json", {"gamma0": 1e25}, ["--scheme", "fixed"]),
    (
        "opt_high_rate_ceiling.json",
        {"sigma_s": 0.0, "n_a": 3, "n_b": 4, "n_e": 3, "cn2": 5.304716812423572e-15,
         "d_b": 2727.692221928623, "d_e": 2732.8255184772124, "gamma0": 2050614501111.1985},
        ["--scheme", "fixed", "--sth", "0.426"],
    ),
    ("opt_oracle_missed_band.json", {"gamma0": 1e250}, ["--scheme", "fixed", "--sth", "0.4"]),
    (
        "opt_adaptive_two_roots.json",
        {"sigma_s": 0, "n_a": 1, "n_b": 3, "n_e": 4, "cn2": 1.4607508285692493e-15,
         "d_b": 2902.842563086293, "d_e": 2252.7318414869633, "gamma0": 1424.0941040463003},
        ["--scheme", "adaptive", "--cb", "0.5", "--sth", "1.0"],
    ),
    (
        "opt_adaptive_rescan.json",
        {"sigma_s": 0.0, "n_a": 2, "n_b": 3, "n_e": 1, "cn2": 3.18e-16, "d_b": 2206, "d_e": 836,
         "gamma0": 0.0365},
        ["--scheme", "adaptive", "--cb", "2.98", "--sth", "0.656"],
    ),
    *(
        (f"opt_sigma{tag}_{path}.json", {"sigma_s": sigma_s}, scheme)
        for tag, sigma_s in (("0.5", 0.5), ("0", 0))
        for path, scheme in SOLVER_PATHS
    ),
)

# (output name, config) of the params runs.
PARAMS_RUNS = (
    ("params_default.json", {}),
    ("params_n4.json", {"n_a": 4, "n_b": 4, "n_e": 4}),
    ("params_sigma0.json", {"sigma_s": 0}),
)

# The schemes of the optimum-axis Monte-Carlo sweeps.
MC_SWEEP_SCHEMES = (["--scheme", "fixed"], ["--scheme", "adaptive", "--cb", "4"])

# (output name tag, sweep arguments) of the optimum-axis Monte-Carlo sweeps,
# each under both schemes, on the axes and ranges of scripts/figure_sweeps.py.
MC_OPTIMUM_SWEEPS = (
    ("sth", ["--axis", "s_th", "--min", "0.05", "--max", "1", "--steps", "20"]),
    ("n", ["--axis", "n", "--min", "1", "--max", "6", "--steps", "6", "--sth", "0.4"]),
)

# (output name, config or None for the default scenario, sweep arguments) of
# the closed-form sweeps whose rows the solvers take as one batch.
BATCH_SWEEPS = (
    *(
        (f"sweep_sigma_branches_{scheme[1]}.csv", None,
         ["--axis", "sigma_s", "--min", "0", "--max", "1", "--steps", "5", *scheme])
        for scheme in MC_SWEEP_SCHEMES
    ),
    ("sweep_n_unconstrained_fixed.csv", None,
     ["--axis", "n", "--min", "1", "--max", "6", "--steps", "6", "--sth", "1.0",
      "--scheme", "fixed"]),
    ("sweep_sth_infeasible_adaptive.csv", None,
     ["--axis", "s_th", "--min", "0.01", "--max", "0.2", "--steps", "4",
      "--scheme", "adaptive", "--cb", "0.5"]),
    ("sweep_sth_grid_fallback_fixed.csv", GRID_FALLBACK,
     ["--axis", "s_th", "--min", "0.3", "--max", "0.7", "--steps", "9", "--scheme", "fixed"]),
    ("sweep_re_codeword_rates_fixed.csv", None,
     ["--axis", "r_e", "--min", "0.5", "--max", "12", "--steps", "12", "--scheme", "fixed"]),
)

# (output name, sweep arguments) of the rate-axis Monte-Carlo sweeps, on the
# axes and ranges of scripts/figure_sweeps.py.
MC_RATE_SWEEPS = (
    ("sweep_mc_re_adaptive.csv",
     ["--axis", "r_e", "--min", "0.05", "--max", "6", "--steps", "120",
      "--scheme", "adaptive", "--cb", "6"]),
    ("sweep_mc_re_x_rb_fixed.csv",
     ["--axis", "r_e_x_r_b", "--min", "0.1", "--max", "6", "--steps", "40",
      "--scheme", "fixed"]),
)

# (output name tag, trials, stream count, jobs of each run) of the validate
# runs; 1,000,003 trials over 7 streams gives streams of uneven size, and 50
# trials over 64 streams leaves 14 streams empty.
VALIDATE_RUNS = (
    ("", "1000000", "16", ("1", "4")),
    ("_streams7", "1000003", "7", ("1", "4")),
    ("_streams64", "50", "64", ("1",)),
)

# Runs (output name, CLI argv) pairs in one interpreter, as the benchmark
# does, and writes each exit code to the file sys.argv[2].  Exits 2 (a solver
# error) and 3 (a failed validate check) are outputs to compare; 1 means the
# run's arguments or config are wrong.  A solver error writes no --out file;
# an older tree left an empty one there, and that file is removed.
_RUN_CLI = """
import json, os, sys
from fso_secrecy import cli
codes = {}
for name, argv in json.loads(sys.argv[1]):
    codes[name] = cli.main(argv)
    if codes[name] == 1:
        raise SystemExit(f"exit code {codes[name]}: {argv}")
    if codes[name] == 2 and os.path.exists(argv[argv.index("--out") + 1]):
        os.remove(argv[argv.index("--out") + 1])
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump(codes, fh, indent=2)
"""


def _run(src: Path, args: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, *args], env=env, check=True, stdout=subprocess.DEVNULL)


def produce(src: Path, outdir: Path) -> None:
    """Write every compared output of the tree ``src`` into ``outdir``."""
    workloads.write_configs(outdir)
    ops = workloads.optimize_ops(outdir, PROGRAM_SEED)
    mc_config = str(workloads.config_path(outdir, workloads.OPT_MC_N))
    for name, sth, trials, streams, jobs in EXTRA_MC_RUNS:
        ops.append(
            (name, ["optimize", "--config", mc_config, "--scheme", "adaptive", "--sth", sth,
                    "--trials", trials, "--stream-count", streams, "--seed", str(PROGRAM_SEED),
                    "--jobs", jobs, "--out", str(outdir / name)])
        )
    for name, doc, scheme in CONFIG_RUNS:
        cfg = outdir / f"config_{name}"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        ops.append((name, ["optimize", "--config", str(cfg), *scheme, "--out", str(outdir / name)]))
    for name, doc in PARAMS_RUNS:
        cfg = outdir / f"config_{name}"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        ops.append((name, ["params", "--config", str(cfg), "--out", str(outdir / name)]))
    for tag, axis in MC_OPTIMUM_SWEEPS:
        for scheme in MC_SWEEP_SCHEMES:
            name = f"sweep_mc_{tag}_{scheme[1]}.csv"
            ops.append(
                (name, ["sweep", *axis, *scheme, "--mc", "--trials", "20000",
                        "--seed", str(PROGRAM_SEED), "--out", str(outdir / name)])
            )
    for name, doc, axis in BATCH_SWEEPS:
        config = []
        if doc is not None:
            cfg = outdir / f"config_{name}"
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            config = ["--config", str(cfg)]
        ops.append((name, ["sweep", *config, *axis, "--out", str(outdir / name)]))
    for name, axis in MC_RATE_SWEEPS:
        ops.append(
            (name, ["sweep", *axis, "--mc", "--trials", "20000", "--seed", str(PROGRAM_SEED),
                    "--out", str(outdir / name)])
        )
    for tag, trials, streams, jobs_runs in VALIDATE_RUNS:
        for jobs in jobs_runs:
            name = f"validate{tag}_jobs{jobs}.txt"
            ops.append(
                (name, ["validate", "--trials", trials, "--stream-count", streams, "--seed", "7",
                        "--jobs", jobs, "--out", str(outdir / name)])
            )
    _run(src, ["-c", _RUN_CLI, json.dumps(ops), str(outdir / "exit_codes.json")])
    _run(src, [str(ROOT / "scripts" / "figure_sweeps.py"), "--outdir", str(outdir)])
    for n in workloads.OPT_NS:
        workloads.config_path(outdir, n).unlink()
    for name, *_ in (*CONFIG_RUNS, *PARAMS_RUNS):
        (outdir / f"config_{name}").unlink()
    for name, doc, _ in BATCH_SWEEPS:
        if doc is not None:
            (outdir / f"config_{name}").unlink()


def _flatten(doc, prefix: str = "") -> dict[str, object]:
    if isinstance(doc, dict):
        out: dict[str, object] = {}
        for key, val in doc.items():
            out.update(_flatten(val, f"{prefix}.{key}" if prefix else key))
        return out
    return {prefix: doc}


def _records(path: Path) -> dict[str, object]:
    """Field name -> value: JSON keys, CSV ``row N column``, text ``line N``."""
    if path.suffix == ".json":
        return _flatten(json.loads(path.read_text(encoding="utf-8")))
    if path.suffix == ".csv":
        with path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        fields: dict[str, object] = {"header": header}
        for i, row in enumerate(body, start=1):
            for col, val in zip(header, row):
                fields[f"row {i} {col}"] = val
        return fields
    lines = path.read_text(encoding="utf-8").splitlines()
    return {f"line {i}": line for i, line in enumerate(lines, start=1)}


def _number(value) -> float | None:
    """A JSON number, a numeric CSV cell or a ``name=value`` token as a float."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value.rpartition("=")[2])
        except ValueError:
            return None
    return None


def relative_diff(old, new) -> float | None:
    """|new - old| / max(|old|, |new|) of two numeric values; of two text
    lines with as many tokens, the largest over their differing tokens."""
    a, b = _number(old), _number(new)
    if a is not None and b is not None:
        scale = max(abs(a), abs(b))
        return abs(b - a) / scale if scale else 0.0
    if not (isinstance(old, str) and isinstance(new, str)):
        return None
    tokens_a, tokens_b = old.split(), new.split()
    pairs = [(_number(x), _number(y)) for x, y in zip(tokens_a, tokens_b) if x != y]
    if len(tokens_a) != len(tokens_b) or not pairs:
        return None
    if any(x is None or y is None for x, y in pairs):
        return None
    return max(relative_diff(x, y) for x, y in pairs)


def is_monte_carlo(name: str) -> bool:
    """Whether the output file ``name`` holds Monte-Carlo numbers, which move
    with the seed-to-numbers map.  The summary counts every other file,
    ``exit_codes.json`` included, as closed-form."""
    return any(
        fnmatch.fnmatch(name, pattern)
        for pattern in ("opt_mc*.json", "sweep_mc*.csv", "validate*.txt")
    )


def _summary_group(key: str) -> str | None:
    """The summary figure a differing ``optimize`` field counts toward."""
    if key in ("est", "sop_at_re") or key.startswith("rates."):
        return "solver"
    if key == "oracle.est":
        return "oracle"
    return None


def _field_name(key: str) -> str:
    """The name a differing field is counted by: a JSON key as it is, the
    column of a CSV ``row N column``, ``line`` for a text ``line N``."""
    if key.startswith("row "):
        return key.split(" ", 2)[2]
    if key.startswith("line "):
        return "line"
    return key


def compare(
    parent_dir: Path, change_dir: Path
) -> tuple[list[str], set[str], dict[str, float], collections.Counter]:
    """One line per differing file or field, the names of the files that
    differ, the largest relative difference of each summary group
    (``solver``, ``oracle``) that has a differing field, and the count of
    differing fields by :func:`_field_name`."""
    diffs: list[str] = []
    files: set[str] = set()
    largest: dict[str, float] = {}
    moved: collections.Counter = collections.Counter()
    names = sorted({p.name for p in parent_dir.iterdir()} | {p.name for p in change_dir.iterdir()})
    for name in names:
        a, b = parent_dir / name, change_dir / name
        if not (a.exists() and b.exists()):
            diffs.append(f"{name}: only in {'parent' if a.exists() else 'change'}")
            files.add(name)
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        files.add(name)
        ra, rb = _records(a), _records(b)
        fields = [k for k in ra if ra[k] != rb.get(k, "<missing>")]
        fields += [k for k in rb if k not in ra]
        moved.update(map(_field_name, fields))
        for key in fields:
            old, new = ra.get(key, "<missing>"), rb.get(key, "<missing>")
            rel = relative_diff(old, new)
            diffs.append(
                f"{name}: {key}: {old!r} -> {new!r}" + ("" if rel is None else f" (rel {rel:.2g})")
            )
            group = _summary_group(key) if a.suffix == ".json" else None
            if rel is not None and group is not None:
                largest[group] = max(largest.get(group, rel), rel)
        if not fields:
            diffs.append(f"{name}: bytes differ, fields equal")
    return diffs, files, largest, moved


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        dirs = []
        for label, src in (("parent", args.parent_src), ("change", args.change_src)):
            if not (src / "fso_secrecy").is_dir():
                parser.error(f"{src} holds no fso_secrecy package")
            outdir = Path(tmp) / label
            outdir.mkdir()
            produce(src.resolve(), outdir)
            dirs.append(outdir)
        count = len(list(dirs[0].iterdir()))
        diffs, files, largest, moved = compare(*dirs)
    for line in diffs:
        print(line)
    if not diffs:
        print(f"identical ({count} files)")
        return 0
    solver, oracle = (
        f"{largest[group]:.2g}" if group in largest else "none differ"
        for group in ("solver", "oracle")
    )
    mc = sum(map(is_monte_carlo, files))
    print(
        f"{len(files)} of {count} files differ ({mc} Monte-Carlo, {len(files) - mc} closed-form);"
        f" largest relative diff in solver fields "
        f"(rates, est, sop_at_re): {solver}; in oracle.est: {oracle}"
    )
    print("moved fields: " + ", ".join(f"{name} {n}" for name, n in moved.most_common()))
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
