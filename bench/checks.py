"""Correctness checks of each workload's outputs, run after the timed passes.

Exact and surrogate probabilities are compared with ``oracles`` (defining
integrals over the parameters ``fso-secrecy params`` reports); derived
columns are compared with the formulas that define them; the optimal-EST
curves are checked for the monotonicity the model guarantees.  Every check
returns a list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from pathlib import Path

import oracles
import workloads

# Exact-kernel probabilities: the kernels' own quadrature fallbacks run at
# scipy's default 1.5e-8 tolerance, and reports print 9 significant digits.
TOL_EXACT = 1e-7
# Surrogate closed forms against their mixture integral (same arithmetic,
# different route): agreement is at rounding level.
TOL_SURROGATE = 1e-9
# Columns recomputed from other 9-digit columns of the same CSV row.
TOL_ROW = 1e-7
# Monotone curves may not dip by more than rounding.
TOL_MONOTONE = 1e-9
# Monte-Carlo estimates within this many standard deviations of the reference.
MC_SIGMAS = 5.0
MC_TRIALS = int(workloads.MC_TRIALS)
# validate draws at most this many variates for its gamma-sampler moment check.
SAMPLER_DRAWS = min(MC_TRIALS, 200_000)


class Params:
    """``fso-secrecy params`` reports, one per scenario config (cached)."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self._docs: dict[str, dict] = {}

    def doc(self, config: dict | None = None) -> dict:
        key = json.dumps(config or {}, sort_keys=True)
        if key not in self._docs:
            from fso_secrecy import cli

            tag = len(self._docs)
            argv = ["params", "--out", str(self.workdir / f"params{tag}.json")]
            if config:
                cfg = self.workdir / f"params{tag}_config.json"
                cfg.write_text(key)
                argv += ["--config", str(cfg)]
            if cli.main(argv) != 0:
                raise RuntimeError(f"fso-secrecy {' '.join(argv)} failed")
            self._docs[key] = json.loads((self.workdir / f"params{tag}.json").read_text())
        return self._docs[key]

    def links(self, config: dict | None = None) -> tuple[oracles.Link, oracles.Link]:
        d = self.doc(config)
        return oracles.Link.from_params(d, "bob"), oracles.Link.from_params(d, "eve")


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# mc_validate
# ---------------------------------------------------------------------------

_LINE = re.compile(
    r"^(PASS|FAIL|INCONCLUSIVE) (.+?) (closed|lhs)=(\S+) (mc|rhs)=(\S+) diff=(\S+) (margin|tol)=(\S+)$"
)
_ANALYTIC = ("selection_squares_outage", "surrogate_outage_gap_max")


def _binomial_sigma(p: float, n: int) -> float:
    # One hit is never a 5-sigma miss.
    return max(math.sqrt(p * (1.0 - p) / n), 1.0 / n)


def validate_references(params: Params) -> dict[str, tuple[float, float]]:
    """(reference value, standard deviation of validate's MC estimate) by check."""
    bob, eve = params.links()
    refs = {}
    for r in (0.5, 1.0, 2.0, 4.0):
        s = oracles.sop(eve, r)
        refs[f"sop r_e={r:g}"] = (s, _binomial_sigma(s, MC_TRIALS))
    for n in (1, 2, 4):
        bob_n, _ = params.links({"n_a": n, "n_b": n, "n_e": n})
        rel = oracles.reliability_outage(bob_n, n, 3.0)
        refs[f"reliability_outage n={n} r_b=3"] = (rel, _binomial_sigma(rel, MC_TRIALS))
    # The fixed-scheme estimate is rate * p_rel * p_sec, two independent
    # proportions over MC_TRIALS trials each; the variance of their product.
    n_a = params.doc()["scenario"]["n_a"]
    r_b, r_e = 3.4, 1.2558717
    a = 1.0 - oracles.reliability_outage(bob, n_a, r_b)
    b = 1.0 - oracles.sop(eve, r_e)
    va, vb = a * (1.0 - a) / MC_TRIALS, b * (1.0 - b) / MC_TRIALS
    refs["est_fixed r_b=3.4 r_e=1.2558717"] = (
        (r_b - r_e) * a * b,
        (r_b - r_e) * math.sqrt(a * a * vb + b * b * va + va * vb),
    )
    # Gamma(k) / k has mean 1 and variance 1 / k.
    k = params.doc()["eve"]["alpha"]
    refs["gamma_sampler_mean_rel"] = (1.0, math.sqrt(1.0 / (k * SAMPLER_DRAWS)))
    return refs


def check_validate(report: str, code: int, refs: dict[str, tuple[float, float]]) -> list[str]:
    problems = []
    lines = report.splitlines()
    if len(lines) < 3 or lines[0] != "validation report" or not lines[-1].startswith("result: "):
        return [f"malformed validate report: {lines[:1]} ... {lines[-1:]}"]
    body = [_LINE.match(line) for line in lines[2:-1]]
    if None in body:
        return [f"unparsed validate line: {lines[2 + body.index(None)]}"]
    seen = {m.group(2) for m in body}
    missing = (set(refs) | set(_ANALYTIC)) - seen
    if missing:
        problems.append(f"validate report lacks checks {sorted(missing)}")
    any_fail = False
    for m in body:
        verdict, name = m.group(1), m.group(2)
        lhs, rhs = float(m.group(4)), float(m.group(6))
        any_fail |= verdict == "FAIL"
        if name in _ANALYTIC:
            if verdict != "PASS":
                problems.append(f"analytic check failed: {m.group(0)}")
            continue
        if name not in refs:
            problems.append(f"unexpected validate check: {name}")
            continue
        ref, sigma = refs[name]
        if not _close(lhs, ref, TOL_EXACT):
            problems.append(f"{name}: closed={lhs!r} but reference {ref!r}")
        if abs(rhs - ref) > MC_SIGMAS * sigma:
            problems.append(f"{name}: mc={rhs!r} is more than {MC_SIGMAS} sigma from {ref!r}")
    # validate's own 3-sigma verdicts fail on a few percent of seeds; the exit
    # code only has to agree with the report.
    if code != (3 if any_fail else 0):
        problems.append(f"validate exit code {code} disagrees with its report")
    return problems


# ---------------------------------------------------------------------------
# closed_sweeps
# ---------------------------------------------------------------------------


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweeps(outdir: Path, sop_refs: dict[float, float]) -> list[str]:
    problems = []
    tables = {}
    for name, count in workloads.SWEEP_FILES.items():
        path = outdir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        rows = tables[name] = _rows(path)
        if len(rows) != count:
            problems.append(f"{name}: {len(rows)} rows, expected {count}")
        for row in rows:
            for col in ("sop", "reliability_outage"):
                if not 0.0 <= float(row[col]) <= 1.0:
                    problems.append(f"{name}: {col}={row[col]} outside [0, 1] at {row['value']}")
            if float(row["est_closed"]) < 0.0:
                problems.append(f"{name}: negative est at {row['value']}")
    if problems:
        return problems

    # Adaptive rate sweeps at c_b = 6: est = (6 - r_e)(1 - sop) when the
    # outage meets the ceiling, else 0.  The sop column ignores the ceiling.
    base = tables["est_vs_re_sth_1.0.csv"]
    for s_th in ("1.0", "0.6", "0.4", "0.2"):
        name = f"est_vs_re_sth_{s_th}.csv"
        for row, row0 in zip(tables[name], base):
            r_e, s, est = float(row["value"]), float(row["sop"]), float(row["est_closed"])
            met = s <= float(s_th)
            want = (6.0 - r_e) * (1.0 - s) if met else 0.0
            if row["sop"] != row0["sop"] or not _close(est, want, TOL_ROW):
                problems.append(f"{name}: r_e={r_e} est={est} sop={s}, expected est {want}")
            if row["constraint_met"] != ("true" if met else "false"):
                problems.append(f"{name}: r_e={r_e} constraint_met={row['constraint_met']}")
    sops = {float(r["value"]): float(r["sop"]) for r in base}
    for r_e, ref in sop_refs.items():
        if r_e not in sops or not _close(sops[r_e], ref, TOL_EXACT):
            problems.append(f"est_vs_re: sop at r_e={r_e} is {sops.get(r_e)}, reference {ref!r}")

    # Fixed-scheme grid at ceiling 1: est = (r_b - r_e)(1 - outage)(1 - sop).
    for row in tables["est_grid_fixed.csv"]:
        r_e, r_b = float(row["value"]), float(row["value2"])
        est, rel, s = float(row["est_closed"]), float(row["reliability_outage"]), float(row["sop"])
        want = (r_b - r_e) * (1.0 - rel) * (1.0 - s) if r_b >= r_e else 0.0
        if not _close(est, want, TOL_ROW):
            problems.append(f"est_grid_fixed: ({r_e}, {r_b}) est={est}, expected {want}")

    # Optimal EST never falls as the ceiling loosens, as the eavesdropper's
    # jitter grows, or (fixed scheme) as apertures are added.
    curves = [f"est_vs_{axis}_{k}.csv" for axis in ("sth", "sigma") for k in ("adaptive", "fixed")]
    for name in curves + ["est_vs_n_fixed.csv"]:
        ests = [float(r["est_closed"]) for r in tables[name]]
        for i in range(1, len(ests)):
            if ests[i] < ests[i - 1] - TOL_MONOTONE:
                problems.append(f"{name}: optimal EST falls from {ests[i - 1]} to {ests[i]}")
    return problems


def sweep_sop_references(params: Params, seed: int) -> dict[float, float]:
    """Reference SOP at four rate-sweep points picked by the seed."""
    _, eve = params.links()
    step = (6.0 - 0.05) / 119
    picks = random.Random(seed).sample(range(120), 4)
    out = {}
    for i in sorted(picks):
        r_e = float(format(0.05 + i * step, ".9g"))  # the CSV's value column
        out[r_e] = oracles.sop(eve, r_e)
    return out


# ---------------------------------------------------------------------------
# optimize_batch
# ---------------------------------------------------------------------------


def check_optimize(outdir: Path, params: Params) -> list[str]:
    problems = []
    docs = {}
    for name, _ in workloads.optimize_ops(outdir, 0):
        path = outdir / name
        if path.is_file():
            docs[name] = json.loads(path.read_text())
        else:
            problems.append(f"{name}: missing")
    fixed_at_mc = None
    for n in workloads.OPT_NS:
        bob, eve = params.links({"n_a": n, "n_b": n, "n_e": n})
        for sth in workloads.OPT_STHS:
            s_th = float(sth)
            for cb in (None,) + workloads.OPT_CBS:
                name = f"opt_n{n}_sth{sth}_" + ("fixed" if cb is None else f"cb{cb}") + ".json"
                if name not in docs:
                    continue
                d = docs[name]
                r_b, r_e, est = d["rates"]["r_b"], d["rates"]["r_e"], d["est"]
                if not 0.0 <= r_e <= r_b:
                    problems.append(f"{name}: rates out of order ({r_e}, {r_b})")
                if est > 0.0 and d["sop_at_re"] > s_th + 1e-6:
                    problems.append(f"{name}: sop_at_re {d['sop_at_re']} above ceiling {s_th}")
                s = oracles.sop_approx(eve, r_e)
                if not _close(d["sop_at_re"], s, TOL_SURROGATE):
                    problems.append(f"{name}: sop_at_re {d['sop_at_re']}, reference {s!r}")
                met = s <= s_th + TOL_SURROGATE
                if cb is None:
                    rel = oracles.reliability_outage_approx(bob, n, r_b)
                    want = (r_b - r_e) * (1.0 - rel) * (1.0 - s) if met else 0.0
                else:
                    if r_b != float(cb):
                        problems.append(f"{name}: r_b {r_b} is not the pinned capacity {cb}")
                    want = (r_b - r_e) * (1.0 - s) if met else 0.0
                if not _close(est, want, TOL_SURROGATE):
                    problems.append(f"{name}: est {est!r}, reference formula gives {want!r}")
                if cb is None and n == workloads.OPT_MC_N and sth == workloads.OPT_MC_STH:
                    fixed_at_mc = est

    mc = docs.get("opt_mc.json")
    if mc is not None:
        _, eve = params.links({"n_a": workloads.OPT_MC_N, "n_b": workloads.OPT_MC_N, "n_e": workloads.OPT_MC_N})
        s_th = float(workloads.OPT_MC_STH)
        if mc["mode"] != "mc_averaged" or mc["trials"] != MC_TRIALS:
            problems.append(f"opt_mc.json: unexpected mode/trials {mc['mode']}/{mc['trials']}")
        if not _close(oracles.sop_approx(eve, mc["re_threshold"]), s_th, 1e-6):
            problems.append(f"opt_mc.json: re_threshold {mc['re_threshold']} misses the ceiling")
        # Instantaneous CSI at the transmitter cannot lower the throughput.
        if fixed_at_mc is not None and mc["est_mc"] < fixed_at_mc:
            problems.append(f"opt_mc.json: adaptive EST {mc['est_mc']} below fixed optimum {fixed_at_mc}")
    return problems
