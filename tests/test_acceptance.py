"""Acceptance gate: one test per shipping criterion, each at its stated
tolerance, each emitting a single verdict line.

These are deliberately end-to-end (full 1e6-trial simulations, the real CLI,
the real solvers); the per-module suites cover the fast regression grids.
"""

import math
import random
import time

import numpy as np
import pytest

from fso_secrecy import channel, cli, montecarlo, optimize, secrecy, specfun
from fso_secrecy.channel import baseline_scenario, bob_link, eve_link
from fso_secrecy.montecarlo import SimConfig
from fso_secrecy.secrecy import SecrecyConstraint

TRIALS = 1_000_000


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_sop_oracle_equivalence(baseline):
    sim = SimConfig(trials=TRIALS, seed=2024)
    worst = 0.0
    ok = True
    for r_e in (0.5, 1.0, 2.0, 4.0):
        t0 = time.perf_counter()
        est = montecarlo.estimate_sop(baseline, r_e, sim, jobs=4)
        elapsed = time.perf_counter() - t0
        diff = abs(secrecy.sop(baseline, r_e)[0] - est.mean)
        margin = est.ci_halfwidth + 1e-4
        worst = max(worst, diff / margin)
        ok = ok and diff <= margin and elapsed <= 60.0
    _verdict(
        "criterion 1 (secrecy outage vs 1e6-trial simulation)",
        ok,
        f"worst |closed-mc|/margin = {worst:.3f} over r_e in {{0.5,1,2,4}}",
    )


def test_criterion_2_reliability_oracle_equivalence():
    sim = SimConfig(trials=TRIALS, seed=2025)
    worst = 0.0
    ok = True
    for n in (1, 2, 4):
        sc = baseline_scenario(n_a=n, n_b=n)
        est = montecarlo.estimate_reliability_outage(sc, 3.0, sim, jobs=4)
        diff = abs(secrecy.reliability_outage(sc, 3.0)[0] - est.mean)
        margin = est.ci_halfwidth + 1e-4
        worst = max(worst, diff / margin)
        ok = ok and diff <= margin
    # exact selection law, analytically
    one = baseline_scenario(n_a=1, n_b=1)
    two = baseline_scenario(n_a=2, n_b=1)
    law = abs(
        secrecy.reliability_outage(two, 2.5)[0] - secrecy.reliability_outage(one, 2.5)[0] ** 2
    )
    ok = ok and law <= 1e-10
    _verdict(
        "criterion 2 (reliability outage vs simulation + selection law)",
        ok,
        f"worst |closed-mc|/margin = {worst:.3f}, selection-law residual = {law:.2e}",
    )


def test_criterion_3_surrogate_outage_gap():
    worst = 0.0
    for sigma_s in (1.0, 2.0, 3.0):
        sc = baseline_scenario(sigma_s=sigma_s)
        for r_e in np.linspace(0.1, 6.0, 60):
            gap = abs(secrecy.sop_approx(eve_link(sc), float(r_e))[0] - secrecy.sop(sc, float(r_e))[0])
            worst = max(worst, gap)
    _verdict(
        "criterion 3 (gamma-surrogate outage gap <= 0.02)",
        worst <= 0.02,
        f"max |approx - exact| = {worst:.6f} over r_e in [0.1, 6], sigma_s in {{1,2,3}}",
    )


def test_criterion_4_solver_vs_oracle(baseline):
    t0 = time.perf_counter()
    worst_ratio = math.inf
    ok = True
    eve, bob, n_a = eve_link(baseline), bob_link(baseline), baseline.nodes.n_a

    for s_th in (1.0, 0.6, 0.4, 0.2):
        constraint = SecrecyConstraint(s_th)
        for c_b in (2.0, 4.0, 6.0):
            opt = optimize.adaptive_optimal(baseline, c_b, s_th)
            oracle = optimize.grid_refine_maximize(
                lambda r: secrecy.est_from_outages(
                    c_b - r, 0.0, secrecy.sop_approx(eve, r)[0], constraint
                ),
                (0.0, c_b),
            )
            if oracle.est > 0.0:
                worst_ratio = min(worst_ratio, opt.est / oracle.est)
                ok = ok and opt.est >= 0.98 * oracle.est
            else:
                ok = ok and opt.est == 0.0
            if opt.est > 0.0:
                # the outage ceiling is honored on the solver's contract
                # surface; combinations priced out entirely (est = 0) carry
                # no secrecy exposure and the ceiling is vacuous there
                ok = ok and secrecy.sop_approx(eve_link(baseline), opt.rates.r_e)[0] <= s_th + 1e-6

    for s_th in (1.0, 0.5, 0.3, 0.1):
        constraint = SecrecyConstraint(s_th)
        opt = optimize.fixed_optimal(baseline, s_th)

        def objective(r_e: np.ndarray, r_b: np.ndarray) -> np.ndarray:
            # a column of r_e against a row of r_b: one outage call per axis
            t = secrecy.reliability_outage_approx(bob, n_a, r_b)[0]
            s = secrecy.sop_approx(eve, r_e)[0]
            est = secrecy.est_from_outages(r_b - r_e, t, s, constraint)
            return np.where(r_e < r_b, est, 0.0)

        hi = opt.rates.r_b + 3.0
        oracle = optimize.grid_refine_maximize(
            objective, ((0.0, hi), (1e-3, hi)), grid_points=160
        )
        worst_ratio = min(worst_ratio, opt.est / oracle.est)
        ok = ok and opt.est >= 0.98 * oracle.est
        ok = ok and secrecy.sop_approx(eve_link(baseline), opt.rates.r_e)[0] <= s_th + 1e-6

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 300.0
    _verdict(
        "criterion 4 (solver >= 0.98 x oracle, ceiling honored)",
        ok,
        f"worst solver/oracle ratio = {worst_ratio:.6f}, elapsed = {elapsed:.1f}s",
    )


def test_criterion_5_structural_trends(baseline):
    ok = True
    details = []

    # (a) throughput never drops when the ceiling is relaxed
    for scheme, fn in (
        ("fixed", lambda s: optimize.fixed_optimal(baseline, s).est),
        ("adaptive", lambda s: optimize.adaptive_optimal(baseline, 4.0, s).est),
    ):
        seq = [fn(s) for s in (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)]
        mono = all(hi >= lo - 1e-12 for lo, hi in zip(seq, seq[1:]))
        ok = ok and mono
        details.append(f"(a) {scheme} ceiling trend {'ok' if mono else 'VIOLATED'}")

    # (b) more apertures on every node raise the optimal throughput
    for s_th in (1.0, 0.2):
        seq = [
            optimize.fixed_optimal(baseline_scenario(n_a=n, n_b=n, n_e=n), s_th).est
            for n in range(1, 7)
        ]
        mono = all(hi > lo for lo, hi in zip(seq, seq[1:]))
        ok = ok and mono
        details.append(f"(b) aperture trend s_th={s_th} {'ok' if mono else 'VIOLATED'}")

    # (c) a shakier eavesdropper pointing loop raises throughput
    for scheme, fn in (
        ("fixed", lambda sc: optimize.fixed_optimal(sc, 0.2).est),
        ("adaptive", lambda sc: optimize.adaptive_optimal(sc, 4.0, 0.2).est),
    ):
        seq = [fn(baseline_scenario(sigma_s=s)) for s in (1.0, 2.0, 3.0)]
        mono = all(hi > lo for lo, hi in zip(seq, seq[1:]))
        ok = ok and mono
        details.append(f"(c) jitter trend {scheme} {'ok' if mono else 'VIOLATED'}")

    # (d) capacity tracking beats committed rates at every tested ceiling
    sim = SimConfig(trials=200_000, seed=11)
    for s_th in (1.0, 0.6, 0.4, 0.2, 0.1):
        adaptive = montecarlo.estimate_est(baseline, s_th, sim)
        fixed = optimize.fixed_optimal(baseline, s_th).est
        dom = adaptive.mean - adaptive.ci_halfwidth >= fixed
        ok = ok and dom
        details.append(f"(d) dominance s_th={s_th} {'ok' if dom else 'VIOLATED'}")

    _verdict("criterion 5 (figure-level structural trends)", ok, "; ".join(details))


def test_criterion_6_reference_operating_point():
    # The reference optimum is conditional on an unpublished SNR scale;
    # recover it by bisection on the optimal codeword rate, then check the
    # whole operating point at the recovered scale.
    target_rb = 3.400

    def rb_at(gamma0: float) -> float:
        return optimize.fixed_unconstrained_pair(baseline_scenario(gamma0=gamma0)).rates.r_b

    lo, hi = math.log(1e2), math.log(1e8)
    f_lo = rb_at(math.exp(lo)) - target_rb
    f_hi = rb_at(math.exp(hi)) - target_rb
    ok = f_lo < 0.0 < f_hi
    if ok:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if rb_at(math.exp(mid)) - target_rb < 0.0:
                lo = mid
            else:
                hi = mid
        gamma0 = math.exp(0.5 * (lo + hi))
        opt = optimize.fixed_unconstrained_pair(baseline_scenario(gamma0=gamma0))
        ok = (
            abs(opt.rates.r_b - 3.400) <= 0.005
            and abs(opt.rates.r_e - 1.257) <= 0.05
            and abs(opt.est - 0.621) <= 0.02
        )
        detail = (
            f"gamma0 = {gamma0:.4f} -> (r_e, r_b, psi) ="
            f" ({opt.rates.r_e:.4f}, {opt.rates.r_b:.4f}, {opt.est:.4f})"
            " vs (1.257 +/- 0.05, 3.400 +/- 0.005, 0.621 +/- 0.02)"
        )
    else:
        detail = "no SNR scale in [1e2, 1e8] brackets the target codeword rate"
    _verdict("criterion 6 (reference operating point after calibration)", ok, detail)


def test_criterion_7_special_function_suite(baseline):
    t0 = time.perf_counter()
    ok = True

    # high-precision reference points (frozen from the independent oracles)
    ok = ok and abs(specfun.erf(0.050132565492620004) - 0.056522) <= 1e-6
    ok = ok and abs(specfun.exp_integral(1.0, 1.0) - 0.21938393439552026) <= 1e-6
    ok = ok and specfun.gamma_upper(1.0, 0.7) == pytest.approx(math.exp(-0.7), rel=1e-12, abs=0)
    f2_table = {
        (2.1, 3.4, 1.2, 5.0): 2.4390921834509773,
        (5.55, 6.55, 0.43, 34.0): 58.28096255862126,
        (0.39, 1.39, -4.73, 12.0): 1027.7955344518285,
        (1.7, 2.3, -2.0, 0.8): 0.045318329420527714,
    }
    for (a, b, c, z), want in f2_table.items():
        got = specfun.hyp1f2_reg(a, b, c, z)
        ok = ok and got == pytest.approx(want, rel=1e-9)

    # recurrence identity on a deterministic random grid
    rnd = random.Random(20260814)
    for _ in range(200):
        nu = rnd.uniform(-3.0, 4.0)
        if abs(nu) < 0.05:
            continue
        x = rnd.uniform(0.05, 30.0)
        lhs = specfun.exp_integral(nu + 1.0, x)
        rhs = (math.exp(-x) - x * specfun.exp_integral(nu, x)) / nu
        ok = ok and abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-30)

    # defining-equation residuals on both real branches
    for _ in range(1000):
        x = rnd.uniform(-1.0 / math.e + 1e-9, 50.0)
        w = specfun.lambert_w("principal", x)
        ok = ok and abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x)) and w >= -1.0 - 1e-12
        xl = rnd.uniform(-1.0 / math.e + 1e-9, -1e-9)
        wl = specfun.lambert_w("lower", xl)
        ok = ok and abs(wl * math.exp(wl) - xl) <= 1e-12 * max(1.0, abs(xl)) and wl <= -1.0 + 1e-12

    # half-integer Bessel closed form
    for x in (0.3, 1.0, 4.0):
        want = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        ok = ok and specfun.bessel_k(0.5, x) == pytest.approx(want, rel=1e-12, abs=0)

    # kernel monotonicity and bounds on 200-point grids, clamp-free
    le = channel.eve_link(baseline)
    a, b1, bagg, xi, ga = (
        le.turb.alpha,
        le.turb.beta_single,
        le.beta_agg,
        le.pointing.xi,
        le.surrogate,
    )
    channel.reset_clamp_events()
    for kernel in (
        lambda x: channel.gg_cdf(a, b1, x)[0],
        lambda x: channel.ggp_cdf(a, bagg, xi, x)[0],
        lambda x: channel.ggp_cdf_approx(ga, x)[0],
    ):
        vals = [kernel(float(x)) for x in np.linspace(0.0, 6.0, 200)]
        ok = ok and all(0.0 <= v <= 1.0 + 1e-9 for v in vals)
        ok = ok and all(hi >= lo - 1e-12 for lo, hi in zip(vals, vals[1:]))
    ok = ok and channel.clamp_event_count() == 0

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 60.0
    _verdict(
        "criterion 7 (special-function suite within budget)",
        ok,
        f"elapsed = {elapsed:.2f}s (budget 60s)",
    )


def test_criterion_8_validation_report_determinism(tmp_path):
    def run(name: str, jobs: int) -> str:
        out = tmp_path / name
        code = cli.main(
            ["validate", "--seed", "42", "--out", str(out), "--jobs", str(jobs)]
        )
        assert code == 0
        return out.read_text(encoding="utf-8")

    first = run("v1.txt", 1)
    second = run("v2.txt", 1)
    concurrent = run("v3.txt", 8)
    ok = first == second == concurrent and "result: PASS" in first
    _verdict(
        "criterion 8 (byte-identical validation reports)",
        ok,
        f"serial x2 identical = {first == second}, serial vs 8 threads identical = "
        f"{first == concurrent}",
    )
