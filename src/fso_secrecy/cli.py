"""Command-line front end: parameter reports, sweeps, optimizer runs, validation.

Four subcommands, all emitting machine-readable output (JSON or CSV, UTF-8,
``\\n`` newlines, ``.`` decimal separator regardless of locale):

``params``    derived channel parameters for both links as JSON.
``sweep``     closed-form (and optionally Monte-Carlo) throughput over an
              axis: ``r_e``, ``r_b``, ``r_e x r_b``, ``s_th``, ``n`` or
              ``sigma_s``.  Rate axes evaluate the throughput at the given
              rates; the other axes re-optimize at every point.
``optimize``  one solver run with oracle-gap diagnostics as JSON.
``validate``  the closed-form-versus-Monte-Carlo check matrix with one
              PASS/FAIL/INCONCLUSIVE line per check; deterministic bytes for
              a fixed seed.

Each subcommand takes only the flags it reads: all take ``--config`` and
``--out``, all but ``params`` ``--trials``, ``--seed``, ``--stream-count``
and ``--jobs``, ``sweep`` and ``optimize`` ``--scheme``, ``--sth`` and
``--cb``.  Any other flag is a malformed command line.

Exit codes: 0 success, 1 configuration error (a malformed command line
included), 2 solver failure, 3 validation failure, 141 standard output
closed by its reader before the command finished writing (the shell's
status for SIGPIPE), with nothing on stderr.

Every sweep row's ``constraint_met`` is its exact secrecy outage, the one
its ``sop`` column prints, against its ceiling, compared unrounded: the
column prints ``%.9g``, so a row can print 0.2 at ceiling 0.2 and read
false.  An optimum row's outage is taken at the solver's r_e, which meets
the ceiling on the surrogate, so a binding optimum can read false.  A rate
row with r_b < r_e carries no code and reads false.

For the adaptive scheme the closed-form sweep column is conditional on the
configured realized capacity (``--cb``).  On rate rows the Monte-Carlo column
estimates that same pinned-capacity value, ``montecarlo.est_fixed_from_outages``
of the eavesdropper's draws and an exact zero reliability outage; on optimum
rows (``s_th``, ``n``, ``sigma_s``) it is ``montecarlo.estimate_est``, the
per-realization optimum averaged over capacity realizations, which the
closed-form column does not estimate.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import fields, replace

import numpy as np

from fso_secrecy import montecarlo, optimize, secrecy
from fso_secrecy.channel import (
    GeometryConfig,
    NodeConfig,
    ScenarioConfig,
    baseline_scenario,
    bob_link,
    eve_link,
)
from fso_secrecy.montecarlo import SimConfig
from fso_secrecy.secrecy import RATE_LIMIT, RatePair, SecrecyConstraint
from fso_secrecy.specfun import ConvergenceError

__all__ = [
    "ScenarioConfig",
    "ConfigError",
    "scenario_from_dict",
    "cmd_params",
    "cmd_sweep",
    "cmd_optimize",
    "cmd_validate",
    "main",
]

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_SOLVER = 2
_EXIT_VALIDATION = 3
_EXIT_CLOSED_PIPE = 141

_SWEEP_COLUMNS = [
    "axis",
    "value",
    "value2",
    "est_closed",
    "est_mc",
    "ci",
    "sop",
    "reliability_outage",
    "constraint_met",
]

# The outages' rate domain, in bits per channel use.
_RATE_DOMAIN = (lambda v: 0.0 <= v < RATE_LIMIT, f"must lie in [0, {RATE_LIMIT:g})")

# The domain of each sweep axis's --min and --max (NaN lies in none), checked
# before any row is written: (membership test, message).
_AXIS_DOMAINS = {
    "r_e": _RATE_DOMAIN,
    "r_b": _RATE_DOMAIN,
    "r_e_x_r_b": _RATE_DOMAIN,
    "s_th": (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1] on the s_th axis"),
    "n": (
        lambda v: math.isfinite(v) and round(v) >= 1,
        "must be finite and round to at least 1 on the n axis",
    ),
    "sigma_s": (
        lambda v: 0.0 <= v < math.inf,
        "must be finite and non-negative on the sigma_s axis",
    ),
}


def _flag_domains(axis: str | None) -> list[tuple]:
    """(flag, membership test, message) of each checked flag, in the order
    they are checked; ``--min`` and ``--max``, taken only with an axis, take
    the axis's domain."""
    bounds = _AXIS_DOMAINS.get(axis, (None, None))
    return [
        ("sth", lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
        # A realized capacity of zero leaves the adaptive optimum undefined.
        ("cb", lambda v: 0.0 < v < RATE_LIMIT, f"must lie in (0, {RATE_LIMIT:g})"),
        ("re", *_RATE_DOMAIN),
        ("rb", *_RATE_DOMAIN),
        ("min", *bounds),
        ("max", *bounds),
        ("trials", lambda v: v >= 1, "must be at least 1"),
        ("stream-count", lambda v: v >= 1, "must be at least 1"),
        ("jobs", lambda v: v >= 1, "must be at least 1"),
        ("seed", lambda v: v >= 0, "must be non-negative"),
    ]


# Halfwidths wider than this carry no evidential weight either way.
_INCONCLUSIVE_CI = 0.05
_MC_SLACK = 1e-4


class ConfigError(ValueError):
    """A configuration document failed validation; message names the field."""


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a scenario from a JSON-shaped dict; unknown fields are errors."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    kwargs: dict = {}
    nested = {
        "geometry": [f.name for f in fields(GeometryConfig)],
        "nodes": [f.name for f in fields(NodeConfig)],
    }
    # The leaf fields of the nested configs are accepted flat as well.
    flat = [f.name for f in fields(ScenarioConfig) if f.name not in nested]
    flat += nested["geometry"] + nested["nodes"]
    for key, val in doc.items():
        if key in nested:
            if not isinstance(val, dict):
                raise ConfigError(f"{key}: expected an object")
            for sub, subval in val.items():
                if sub not in nested[key]:
                    raise ConfigError(f"{key}.{sub}: unknown field")
                if not isinstance(subval, (int, float)) or isinstance(subval, bool):
                    raise ConfigError(f"{key}.{sub}: expected a number")
                kwargs[sub] = subval
        elif key in flat:
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise ConfigError(f"{key}: expected a number")
            kwargs[key] = val
        else:
            raise ConfigError(f"{key}: unknown field")
    try:
        sc = baseline_scenario(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return _derive_links(sc)


def _derive_links(sc: ScenarioConfig) -> ScenarioConfig:
    """Derive both links now, so that a scenario the link model rejects (a
    Rytov variance out of range, an undefined gamma surrogate) fails as a
    config error rather than midway through a command."""
    try:
        bob_link(sc)
        eve_link(sc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return sc


def _load_scenario(path: str | None) -> ScenarioConfig:
    if path is None:
        return baseline_scenario()
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from exc
    return scenario_from_dict(doc)


def _fmt(x: float) -> str:
    """Locale-proof float rendering; non-finite values read nan, inf and -inf."""
    return format(float(x), ".9g")


def _sweep_line(axis: str, value: float, value2: float | None, row: tuple) -> str:
    """The CSV line of one sweep row (est_closed, est_mc, ci, sop,
    reliability_outage, constraint_met) in the ``_SWEEP_COLUMNS`` order,
    each number in the ``%.9g`` of :func:`_fmt`; value2 None is an empty
    cell, and the Monte-Carlo cells come formatted, or empty."""
    est_closed, est_mc, ci, sop_val, rel, met = row
    value2 = "" if value2 is None else _fmt(value2)
    met = "true" if met else "false"
    return "%s,%.9g,%s,%.9g,%s,%s,%.9g,%.9g,%s\n" % (
        axis, value, value2, est_closed, est_mc, ci, sop_val, rel, met
    )


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return _fmt(x)
    return x


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------


def cmd_params(sc: ScenarioConfig, out: io.TextIOBase) -> int:
    """Emit the derived per-link parameter chain as JSON."""

    def link_doc(link) -> dict:
        return {
            "rytov_var": link.turb.rytov_var,
            "alpha": link.turb.alpha,
            "beta_single": link.turb.beta_single,
            "beta_aggregate": link.beta_agg,
            "nu": link.pointing.nu,
            "a0": link.pointing.a0,
            "omega_e": link.pointing.omega_e,
            "xi": _jsonable(link.pointing.xi),
            "k_ap": link.surrogate.k,
            "theta_ap": link.surrogate.theta,
        }

    doc = {
        "scenario": {
            "sigma_s": sc.sigma_s,
            "s_th": sc.s_th,
            "gamma0": sc.nodes.gamma0,
            "n_a": sc.nodes.n_a,
            "n_b": sc.nodes.n_b,
            "n_e": sc.nodes.n_e,
            "d_b": sc.d_b,
            "d_e": sc.d_e,
        },
        "bob": link_doc(bob_link(sc)),
        "eve": link_doc(eve_link(sc)),
    }
    json.dump(doc, out, indent=2, sort_keys=True)
    out.write("\n")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _axis_values(args) -> list[float]:
    if args.steps < 0:
        raise ConfigError("steps: must be non-negative")
    if args.steps == 0:
        return []
    if args.max < args.min:
        raise ConfigError("range: max must be at least min")
    if args.steps == 1:
        return [args.min]
    step = (args.max - args.min) / (args.steps - 1)
    # Rounding must not carry the last value past --max, out of the axis's domain.
    return [min(args.min + i * step, args.max) for i in range(args.steps)]


def _scenario_at(sc: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    """The scenario at ``value`` on the ``n`` or ``sigma_s`` axis, its links derived."""
    if axis == "n":
        n = int(round(value))
        return _derive_links(replace(sc, nodes=replace(sc.nodes, n_a=n, n_b=n, n_e=n)))
    return _derive_links(replace(sc, sigma_s=value))


def _outages(outage, sc: ScenarioConfig, rates: list[float]) -> list[float]:
    """The value of ``outage(sc, r)``, an exact outage's (value, slope) pair, at
    each of ``rates``, from one array call on the distinct ones, memoized like
    the links: commands that ask the same outages share it."""
    distinct, index = np.unique(rates, return_inverse=True)
    values = _distinct_outages(outage, sc, tuple(distinct.tolist()))
    return [values[i] for i in index.tolist()]


@functools.lru_cache(maxsize=256)
def _distinct_outages(outage, sc: ScenarioConfig, rates: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(outage(sc, np.array(rates))[0].tolist())


def _mc_columns(
    sc: ScenarioConfig,
    scheme: str,
    pairs: list[RatePair],
    ceilings: list[float],
    sim: SimConfig,
    jobs: int,
) -> list[tuple[str, str]]:
    """The Monte-Carlo (est_mc, ci) cells of rows at the rate ``pairs``, one
    ceiling each: ``est_fixed_from_outages`` of one eavesdropper draw over
    the distinct r_e and, for the fixed scheme, one Bob draw over the r_b,
    in which a repeated r_b is drawn once.  The adaptive scheme's codeword
    rate tracks the capacity, so its reliability outage is an exact zero."""
    if not pairs:
        return []
    distinct = list(dict.fromkeys(p.r_e for p in pairs))
    sop_at = dict(zip(distinct, montecarlo.estimate_sop(sc, distinct, sim, jobs=jobs)))
    if scheme == "fixed":
        rel = montecarlo.estimate_reliability_outage(sc, [p.r_b for p in pairs], sim, jobs=jobs)
    else:
        zero = montecarlo.Estimate(mean=0.0, ci_halfwidth=0.0, trials=sim.trials, count=0)
        rel = [zero] * len(pairs)
    estimates = (
        montecarlo.est_fixed_from_outages(p, sop_at[p.r_e], t, s_th)
        for p, t, s_th in zip(pairs, rel, ceilings)
    )
    return [(_fmt(e.mean), _fmt(e.ci_halfwidth)) for e in estimates]


def _rate_rows(
    sc: ScenarioConfig,
    scheme: str,
    s_th: float,
    cells: list[tuple[float, float, float]],
    with_mc: bool,
    sim: SimConfig,
    jobs: int,
) -> list[tuple[float, str, str, float, float, bool]]:
    """One row per cell (r_e, r_b, c_b) of a rate axis, from one exact outage
    call per kind and one ``est_from_outages`` call; ``constraint_met`` is
    the row's unrounded exact outage against ``s_th``.  The adaptive scheme
    has no reliability outage, and no secrecy rate past c_b; r_b < r_e is a
    zero row, without a Monte-Carlo estimate."""
    s = _outages(secrecy.sop, sc, [r_e for r_e, _, _ in cells])
    if scheme == "fixed":
        t = _outages(secrecy.reliability_outage, sc, [r_b for _, r_b, _ in cells])
    else:
        t = [0.0] * len(cells)
    secrecy_rates = [
        r_b - r_e if scheme == "fixed" else max(c_b - r_e, 0.0) for r_e, r_b, c_b in cells
    ]
    ests = secrecy.est_from_outages(
        np.array(secrecy_rates), np.array(t), np.array(s), SecrecyConstraint(s_th)
    )
    mc_cells = iter(())
    if with_mc:
        # The rate pair of each live cell; the adaptive scheme's secrecy rate
        # is max(c_b - r_e, 0).
        live = [
            RatePair(r_b=r_b if scheme == "fixed" else max(r_e, c_b), r_e=r_e)
            for r_e, r_b, c_b in cells
            if not r_b < r_e
        ]
        mc_cells = iter(_mc_columns(sc, scheme, live, [s_th] * len(live), sim, jobs))
    rows = []
    for (r_e, r_b, _), s_i, t_i, est in zip(cells, s, t, ests.tolist()):
        if r_b < r_e:
            rows.append((0.0, "", "", s_i, 0.0, False))
            continue
        est_mc, ci = next(mc_cells, ("", ""))
        rows.append((est, est_mc, ci, s_i, t_i, s_i <= s_th))
    return rows


def _optimum_rows(
    rows: list[tuple[ScenarioConfig, float]],
    scheme: str,
    c_b: float,
    with_mc: bool,
    sim: SimConfig,
    jobs: int,
) -> Iterator[tuple[float, str, str, float, float, bool]]:
    """Yield one row per (scenario, outage ceiling) of ``rows``, from one
    batch solve of all of them; the rows of a scenario share its memoized
    unconstrained solve.

    Each run of consecutive rows on one scenario takes the exact outages at
    its optima from one array call per kind, and its rows are yielded as
    soon as its columns are formed.  ``constraint_met`` compares the exact
    outage the row prints, unrounded, with its ceiling, as on rate rows.  A
    run's Monte-Carlo column is, for the adaptive scheme, one
    capacity-averaged estimate over its ceilings, and for the fixed scheme
    :func:`_mc_columns` at its optima.  A run's first failing optimum, or
    its failing outage call, raises in place of its rows.
    """
    if scheme == "adaptive":
        optima = optimize.adaptive_optima([(sc, c_b, s_th) for sc, s_th in rows])
    else:
        optima = optimize.fixed_optima(rows)
    for sc, run in itertools.groupby(zip(rows, optima), key=lambda row_optimum: row_optimum[0][0]):
        ceilings, run_optima = zip(*((s_th, o) for (_, s_th), o in run))
        for o in run_optima:
            if isinstance(o, Exception):
                raise o
        if scheme == "adaptive":
            rel = [0.0] * len(run_optima)
        else:
            rel = _outages(secrecy.reliability_outage, sc, [o.rates.r_b for o in run_optima])
        sop_vals = _outages(secrecy.sop, sc, [o.rates.r_e for o in run_optima])
        mc = [("", "")] * len(run_optima)
        if with_mc and scheme == "adaptive":
            estimates = montecarlo.estimate_est(sc, list(ceilings), sim, jobs=jobs)
            mc = [(_fmt(e.mean), _fmt(e.ci_halfwidth)) for e in estimates]
        elif with_mc:
            mc = _mc_columns(sc, scheme, [o.rates for o in run_optima], list(ceilings), sim, jobs)
        for o, (est_mc, ci), s, t, s_th in zip(run_optima, mc, sop_vals, rel, ceilings):
            yield o.est, est_mc, ci, s, t, s <= s_th


def cmd_sweep(sc: ScenarioConfig, args, out: io.TextIOBase) -> int:
    """Evaluate throughput over the chosen axis and write CSV rows."""
    values = _axis_values(args)
    out.write(",".join(_SWEEP_COLUMNS) + "\n")
    sim = SimConfig(trials=args.trials, seed=args.seed, stream_count=args.stream_count)
    s_th = args.sth if args.sth is not None else sc.s_th
    scheme = args.scheme
    axis = args.axis
    points = [(v, None) for v in values]  # (value, value2) of each row
    rejected = None

    if axis in ("s_th", "n", "sigma_s"):
        # The s_th axis moves the ceiling; the n and sigma_s axes the
        # scenario.  All rows are solved as one batch, up to a scenario the
        # link model rejects.  The first failing row, rejected or unsolved,
        # raises its error after the rows before it are written.
        problems = []
        for v in values:
            try:
                problems.append((sc, v) if axis == "s_th" else (_scenario_at(sc, axis, v), s_th))
            except ConfigError as exc:
                rejected = exc
                break
        rows = _optimum_rows(problems, scheme, args.cb, args.mc, sim, args.jobs)
    else:
        # Rate axes: the cell (r_e, r_b, c_b) of each row.
        if axis == "r_e":
            r_b = args.cb if scheme == "adaptive" else args.rb
            if r_b is None:  # each row's codeword rate, solved as one batch
                r_bs = [rb for rb, _ in optimize.fixed_constrained_rbs([(sc, v) for v in values])]
            else:
                r_bs = [r_b] * len(values)
            cells = [(v, max(r_b, v), args.cb) for v, r_b in zip(values, r_bs)]
        elif axis == "r_b":
            r_e = args.re
            if r_e is None:
                r_e = optimize.re_threshold(sc, s_th)
            cells = [(r_e, max(v, r_e), args.cb) for v in values]
        elif axis == "r_e_x_r_b":
            points = [(v_e, v_b) for v_e in values for v_b in values]
            cells = [(v_e, v_b, max(args.cb, v_b)) for v_e, v_b in points]
        else:
            raise ConfigError(f"axis: unknown axis {axis!r}")
        rows = _rate_rows(sc, scheme, s_th, cells, args.mc, sim, args.jobs)
    for (v, v2), row in zip(points, rows):
        out.write(_sweep_line(axis, v, v2, row))
    if rejected is not None:
        raise rejected
    return _EXIT_OK


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def cmd_optimize(sc: ScenarioConfig, args, out: io.TextIOBase) -> int:
    """Run the scheme's solver and report the optimum plus oracle diagnostics.

    The ``oracle`` block comes from :func:`optimize.grid_refine_maximize`,
    a zooming grid search, on the surrogate throughput:
    :func:`optimize.fixed_grid_oracle` (160 x 160 nodes up to 3 above the
    solver's codeword rate) for the fixed scheme,
    :func:`optimize.adaptive_grid_oracle` (400 nodes over [0, c_b]) for the
    adaptive one.  Each zoom level re-grids one node step either side of the
    best point with as many nodes, and takes one array call per outage.
    ``covers`` is false when the solver's rates lie outside the grid's
    domain, or when the grid finds no positive throughput where the solver
    does; the gap then means nothing.  ``gap`` and ``covers`` count a
    throughput below 1e-12 times the scheme's rate scale as 0: c_b for the
    adaptive scheme, u = min(C_b, 1) for the fixed one.  The printed ``est``
    and ``oracle.est`` stay as computed.  ``sop_at_re`` and
    ``sop_exact_at_re`` are the surrogate and the exact secrecy outage at
    the optimum's r_e, one float call each.
    """
    s_th = args.sth if args.sth is not None else sc.s_th
    scheme = args.scheme

    if scheme == "adaptive" and args.cb is None:
        # Capacity not pinned: average the per-realization optimum by simulation.
        sim = SimConfig(trials=args.trials, seed=args.seed, stream_count=args.stream_count)
        est = montecarlo.estimate_est(sc, s_th, sim, jobs=args.jobs)
        doc = {
            "scheme": scheme,
            "s_th": s_th,
            "mode": "mc_averaged",
            "est_mc": est.mean,
            "ci_halfwidth": est.ci_halfwidth,
            "trials": est.trials,
            "re_threshold": optimize.re_threshold(sc, s_th),
        }
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")
        return _EXIT_OK

    unconstrained = SecrecyConstraint(1.0)
    if scheme == "adaptive":
        opt = optimize.adaptive_optimal(sc, args.cb, s_th)
        oracle = optimize.adaptive_grid_oracle(sc, args.cb, s_th)
        exact_est = secrecy.est_adaptive(sc, args.cb, opt.rates.r_e, unconstrained)
        in_grid = True  # the grid spans [0, c_b], where every adaptive r_e lies
        scale = args.cb
    else:
        opt = optimize.fixed_optimal(sc, s_th)
        oracle = optimize.fixed_grid_oracle(sc, s_th, opt.rates.r_b + 3.0, grid_points=160)
        exact_est = secrecy.est_fixed(sc, opt.rates, unconstrained)
        # r_e <= r_b lies inside the grid; r_b can fall below its first row.
        in_grid = opt.rates.r_b >= optimize.FIXED_ORACLE_RB_MIN
        scale = optimize.rate_scale(bob_link(sc))
    # A throughput below 1e-12 of the scheme's rate scale is rounding noise:
    # the gap and ``covers`` count it as 0.
    est, oracle_est = (0.0 if x < 1e-12 * scale else x for x in (opt.est, oracle.est))
    # A grid with no positive throughput where the solver found one has
    # missed the feasible band: its gap of 0 proves nothing.
    covers = in_grid and not oracle_est <= 0.0 < est

    gap = 0.0 if oracle_est <= 0.0 else max(0.0, (oracle_est - est) / oracle_est)
    doc = {
        "scheme": scheme,
        "s_th": s_th,
        "mode": "closed_form",
        "rates": {"r_b": opt.rates.r_b, "r_e": opt.rates.r_e},
        "est": opt.est,
        # Exact-kernel throughput at the same rates with the gate lifted; the
        # gate itself is contracted on the surrogate surface.
        "est_exact_kernel": exact_est,
        "method": opt.method,
        "hessian_ok": opt.hessian_ok,
        "constraint_active": opt.constraint_active,
        "sop_at_re": float(secrecy.sop_approx(eve_link(sc), opt.rates.r_e)[0]),
        "sop_exact_at_re": float(secrecy.sop(sc, opt.rates.r_e)[0]),
        "oracle": {"est": oracle.est, "gap": gap, "covers": covers},
    }
    if scheme == "adaptive":
        doc["c_b"] = args.cb
    json.dump(doc, out, indent=2, sort_keys=True)
    out.write("\n")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(sc: ScenarioConfig, args, out: io.TextIOBase) -> int:
    """Run the closed-form-vs-Monte-Carlo matrix; one verdict line per check."""
    sim = SimConfig(trials=args.trials, seed=args.seed, stream_count=args.stream_count)
    jobs = args.jobs
    lines: list[str] = []
    n_fail = 0
    n_inconclusive = 0

    def check(name: str, closed: float, mc_mean: float, halfwidth: float) -> None:
        nonlocal n_fail, n_inconclusive
        margin = halfwidth + _MC_SLACK
        diff = abs(closed - mc_mean)
        if halfwidth > _INCONCLUSIVE_CI:
            verdict = "INCONCLUSIVE"
            n_inconclusive += 1
        elif diff <= margin:
            verdict = "PASS"
        else:
            verdict = "FAIL"
            n_fail += 1
        lines.append(
            f"{verdict} {name} closed={_fmt(closed)} mc={_fmt(mc_mean)}"
            f" diff={_fmt(diff)} margin={_fmt(margin)}"
        )

    def check_analytic(name: str, lhs: float, rhs: float, tol: float) -> None:
        nonlocal n_fail
        diff = abs(lhs - rhs)
        verdict = "PASS" if diff <= tol else "FAIL"
        if verdict == "FAIL":
            n_fail += 1
        lines.append(
            f"{verdict} {name} lhs={_fmt(lhs)} rhs={_fmt(rhs)} diff={_fmt(diff)} tol={_fmt(tol)}"
        )

    # One eavesdropper draw serves the four SOP checks and the est_fixed check.
    est_rates = RatePair(r_b=3.4, r_e=1.2558717)
    sop_rates = (0.5, 1.0, 2.0, 4.0)
    *sop_ests, sop_at_est_re = montecarlo.estimate_sop(
        sc, sop_rates + (est_rates.r_e,), sim, jobs=jobs
    )
    for r_e, est in zip(sop_rates, sop_ests):
        check(f"sop r_e={_fmt(r_e)}", secrecy.sop(sc, r_e)[0], est.mean, est.ci_halfwidth)

    # One Bob draw serves the three reliability checks and the est_fixed check.
    rel_ns = (1, 2, 4)
    rel_scs = [_scenario_at(sc, "n", float(n)) for n in rel_ns]
    *rel_ests, rel_at_est_rb = montecarlo.estimate_reliability_outages(
        [(sc_n, 3.0) for sc_n in rel_scs] + [(sc, est_rates.r_b)], sim, jobs=jobs
    )
    for n, sc_n, est in zip(rel_ns, rel_scs, rel_ests):
        check(
            f"reliability_outage n={n} r_b=3",
            secrecy.reliability_outage(sc_n, 3.0)[0],
            est.mean,
            est.ci_halfwidth,
        )

    sc_1 = _scenario_at(sc, "n", 1.0)
    sc_2 = replace(sc, nodes=replace(sc.nodes, n_a=2, n_b=1))
    check_analytic(
        "selection_squares_outage",
        secrecy.reliability_outage(sc_2, 2.5)[0],
        secrecy.reliability_outage(sc_1, 2.5)[0] ** 2,
        1e-10,
    )

    gap_rates = np.array([0.1 + i * (6.0 - 0.1) / 24 for i in range(25)])
    gap_worst = 0.0
    for sig in (1.0, 2.0, 3.0):
        sc_s = _scenario_at(sc, "sigma_s", sig)
        s_approx = secrecy.sop_approx(eve_link(sc_s), gap_rates)[0]
        gaps = np.abs(s_approx - secrecy.sop(sc_s, gap_rates)[0])
        gap_worst = max(gap_worst, *gaps.tolist())
    check_analytic("surrogate_outage_gap_max", gap_worst, 0.0, 0.02)

    est = montecarlo.est_fixed_from_outages(est_rates, sop_at_est_re, rel_at_est_rb, 1.0)
    check(
        "est_fixed r_b=3.4 r_e=1.2558717",
        secrecy.est_fixed(sc, est_rates, SecrecyConstraint(1.0)),
        est.mean,
        est.ci_halfwidth,
    )

    moment_rng = montecarlo.seeded_generator(np.random.SeedSequence(sim.seed).spawn(3)[2])
    k_shape = eve_link(sc).turb.alpha
    draws = moment_rng.standard_gamma(k_shape, min(sim.trials, 200_000))
    # Gamma(k) / k has variance exactly 1 / k, so the mean of n draws over k
    # has standard deviation 1 / sqrt(k n), whatever spread the draws show.
    rel_ci = 3.0 / math.sqrt(k_shape * draws.size)
    check("gamma_sampler_mean_rel", 1.0, float(draws.mean()) / k_shape, rel_ci)

    status = "FAIL" if n_fail else "PASS"
    header = [
        "validation report",
        f"trials={sim.trials} seed={sim.seed} streams={sim.stream_count}"
        f" generator={type(moment_rng.bit_generator).__name__}",
    ]
    footer = (
        f"result: {status} ({len(lines)} checks, {n_fail} failed,"
        f" {n_inconclusive} inconclusive)"
    )
    out.write("\n".join(header + lines + [footer]) + "\n")
    return _EXIT_VALIDATION if n_fail else _EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors, in the subparsers too, are configuration errors: exit 1."""

    def error(self, message: str):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Once per process: building costs more than parsing, which keeps no state.
    parser = _Parser(
        prog="fso-secrecy",
        description="Secrecy-throughput toolkit for optical wiretap links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand takes only the flags its handler reads.
    def io_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON scenario config; defaults apply if omitted")
        p.add_argument("--out", help="output path (default: stdout)")

    def mc_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trials", type=int, default=1_000_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--stream-count", type=int, default=16, dest="stream_count")
        p.add_argument("--jobs", type=int, default=1, help="worker threads for simulation")

    def solver_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scheme", choices=("adaptive", "fixed"), default="fixed")
        p.add_argument("--sth", type=float, default=None, help="secrecy-outage ceiling")
        p.add_argument("--cb", type=float, default=4.0, help="realized capacity (adaptive)")

    io_flags(sub.add_parser("params", help="derived channel parameters as JSON"))

    p_sweep = sub.add_parser("sweep", help="throughput sweep as CSV")
    for flags in (io_flags, mc_flags, solver_flags):
        flags(p_sweep)
    p_sweep.add_argument(
        "--axis",
        choices=("r_e", "r_b", "r_e_x_r_b", "s_th", "n", "sigma_s"),
        required=True,
    )
    p_sweep.add_argument("--min", type=float, required=True)
    p_sweep.add_argument("--max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--re", type=float, default=None, help="pinned redundancy rate")
    p_sweep.add_argument("--rb", type=float, default=None, help="pinned codeword rate")
    p_sweep.add_argument("--mc", action="store_true", help="add Monte-Carlo columns")

    p_opt = sub.add_parser("optimize", help="solver run as JSON")
    for flags in (io_flags, mc_flags, solver_flags):
        flags(p_opt)
    p_opt.set_defaults(cb=None)

    p_val = sub.add_parser("validate", help="closed-form vs Monte-Carlo report")
    io_flags(p_val)
    mc_flags(p_val)
    return parser


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "params": lambda sc, args, out: cmd_params(sc, out),
        "sweep": cmd_sweep,
        "optimize": cmd_optimize,
        "validate": cmd_validate,
    }
    try:
        args = _build_parser().parse_args(argv)
        sc = _load_scenario(args.config)
        for flag, inside, domain in _flag_domains(getattr(args, "axis", None)):
            # None: unset, or a flag the subcommand does not take.
            val = getattr(args, flag.replace("-", "_"), None)
            if val is not None and not inside(val):
                raise ConfigError(f"{flag}: {domain}")
        handler = handlers[args.command]
        if not args.out:
            code = handler(sc, args, sys.stdout)
            sys.stdout.flush()  # a reader gone before the end fails here, not at exit
            return code
        # The file is written only when the command returns, so a run that
        # ends in an error leaves none.
        buf = io.StringIO()
        code = handler(sc, args, buf)
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(buf.getvalue())
        except OSError as exc:
            raise ConfigError(f"out: {exc}") from exc
        return code
    except (ConfigError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except BrokenPipeError:
        # Nothing more can reach the reader; point stdout at devnull so the
        # interpreter's flush at exit does not fail on the closed pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_CLOSED_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
