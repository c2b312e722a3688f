"""Rate-solver tests: closed-form optima against frozen values, stationarity
of the returned points, inversion identities, and the grid oracle.

The solvers operate on the gamma-surrogate metric surface throughout; every
"optimal up to" claim below is therefore judged on that surface.
"""

import importlib.util
import itertools
import math
import pathlib
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fso_secrecy import channel, montecarlo, optimize, secrecy, specfun
from fso_secrecy.channel import baseline_scenario, bob_link, eve_link
from fso_secrecy.optimize import (
    Optimum,
    adaptive_grid_oracle,
    adaptive_optimal,
    adaptive_unconstrained_re,
    fixed_constrained_rb,
    fixed_grid_oracle,
    fixed_optimal,
    fixed_unconstrained_pair,
    grid_refine_maximize,
    re_threshold,
)
from fso_secrecy.secrecy import (
    RatePair,
    SecrecyConstraint,
    est_from_outages,
    reliability_outage_approx,
    sop_approx,
)
from fso_secrecy.specfun import ConvergenceError

RE_THRESHOLD_TABLE = {
    0.6: 1.5517493575268024,
    0.5: 2.145190132661919,
    0.4: 2.6993223939520092,
    0.3: 3.219914507534674,
    0.2: 3.7346262825707752,
    0.1: 4.314696100430858,
}

CONSTRAINED_RB_TABLE = {
    0.5: 3.611089270245941,
    0.3: 4.012458465093674,
    0.1: 4.677153367296272,
}


def _run(walk):
    """The result of one solver walk, driven alone, or its error raised."""
    return optimize._values(optimize._drive([walk]))[0]


def _psi_adaptive(sc, c_b, r):
    return (c_b - r) * (1.0 - sop_approx(eve_link(sc), r)[0])


def _psi_fixed(sc, r_e, r_b):
    t = reliability_outage_approx(bob_link(sc), sc.nodes.n_a, r_b)[0]
    return (r_b - r_e) * (1.0 - t) * (1.0 - sop_approx(eve_link(sc), r_e)[0])


def _surrogate_est_adaptive(sc, c_b, r_e, constraint):
    """The adaptive surrogate throughput the solvers report."""
    return est_from_outages(c_b - r_e, 0.0, sop_approx(eve_link(sc), r_e)[0], constraint)


def _surrogate_est_fixed(sc, rates, constraint):
    """The fixed-scheme surrogate throughput the solvers report."""
    t = reliability_outage_approx(bob_link(sc), sc.nodes.n_a, rates.r_b)[0]
    s = sop_approx(eve_link(sc), rates.r_e)[0]
    return est_from_outages(rates.secrecy_rate, t, s, constraint)


def _adaptive_objective(sc, c_b, constraint):
    """The adaptive surrogate throughput on an array of r_e, as
    grid_refine_maximize takes it."""
    eve = eve_link(sc)
    return lambda r: est_from_outages(c_b - r, 0.0, sop_approx(eve, r)[0], constraint)


def _fixed_objective(sc, constraint):
    """The fixed-scheme surrogate throughput on broadcasting arrays of r_e and
    r_b, 0 where r_e >= r_b, as grid_refine_maximize takes it."""
    eve, bob, n_a = eve_link(sc), bob_link(sc), sc.nodes.n_a

    def objective(r_e, r_b):
        s = sop_approx(eve, r_e)[0]
        t = reliability_outage_approx(bob, n_a, r_b)[0]
        return np.where(r_e < r_b, est_from_outages(r_b - r_e, t, s, constraint), 0.0)

    return objective


# ---------------------------------------------------------------------------
# grid sizes
# ---------------------------------------------------------------------------


def test_grid_oracles_reject_fewer_than_two_points(baseline):
    assert optimize.GRID_POINTS == 400
    with pytest.raises(ValueError, match="grid_points"):
        grid_refine_maximize(lambda r: r, (0.0, 1.0), grid_points=1)
    with pytest.raises(ValueError, match="grid_points"):
        fixed_grid_oracle(baseline, 0.4, 6.0, grid_points=1)


# ---------------------------------------------------------------------------
# threshold-rate inversion
# ---------------------------------------------------------------------------


def test_re_threshold_unconstrained_degenerates(baseline):
    assert re_threshold(baseline, 1.0) == 0.0


def test_re_threshold_frozen_values(baseline):
    for s_th, want in RE_THRESHOLD_TABLE.items():
        assert re_threshold(baseline, s_th) == pytest.approx(want, rel=1e-9)


def test_re_threshold_inversion_identity(baseline):
    for s_th in (0.2, 0.4, 0.6):
        r = re_threshold(baseline, s_th)
        s = sop_approx(eve_link(baseline), r)[0]
        assert s == pytest.approx(s_th, abs=1e-6)
        # the returned rate sits on the feasible side of the ceiling
        assert s <= s_th + 1e-6


def test_re_threshold_matches_bisection_oracle(baseline):
    s_th = 0.35
    lo, hi = 0.0, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if sop_approx(eve_link(baseline), mid)[0] > s_th:
            lo = mid
        else:
            hi = mid
    assert re_threshold(baseline, s_th) == pytest.approx(hi, abs=1e-6)


def test_re_threshold_decreasing_in_ceiling(baseline):
    rates = [re_threshold(baseline, s) for s in (0.8, 0.6, 0.4, 0.2, 0.1)]
    assert all(hi > lo for lo, hi in zip(rates, rates[1:]))


def test_re_threshold_pointing_free(pointing_free):
    r = re_threshold(pointing_free, 0.3)
    assert r == pytest.approx(4.924434230498147, rel=1e-9)
    assert sop_approx(eve_link(pointing_free), r)[0] == pytest.approx(0.3, abs=1e-6)


def _is_tight_threshold(sc, s_th):
    # The outage meets the ceiling at r and misses it 1e-12 below r.
    r = re_threshold(sc, s_th)
    return sop_approx(eve_link(sc), r)[0] <= s_th < sop_approx(eve_link(sc), r * (1.0 - 1e-12))[0]


def test_re_threshold_is_the_feasible_end_of_the_root(baseline):
    for s_th in RE_THRESHOLD_TABLE:
        assert _is_tight_threshold(baseline, s_th)


def _heavy_pointing_draws():
    """(scenario, ceiling) pairs of a seeded draw over the solver property
    test's ranges, kept where xi**2 < 0.3 at the eavesdropper, with a ceiling
    in [0.6, 0.99]."""
    rng = random.Random(12345)
    while True:
        sc = baseline_scenario(
            sigma_s=rng.uniform(0.3, 5.0),
            n_a=rng.randint(1, 6),
            n_b=rng.randint(1, 6),
            n_e=rng.randint(1, 6),
            cn2=10.0 ** rng.uniform(-16.0, math.log10(3e-13)),
            d_b=rng.uniform(300.0, 3000.0),
            d_e=rng.uniform(300.0, 3000.0),
            gamma0=10.0 ** rng.uniform(math.log10(30.0), 5.0),
        )
        s_th = rng.uniform(0.6, 0.99)
        if channel.eve_link(sc).pointing.xi ** 2 < 0.3:
            yield sc, s_th


def _heavy_pointing_ceilings(count):
    """The first ``count`` heavy-pointing draws with a threshold rate above 1e-10."""
    found = ((sc, s_th) for sc, s_th in _heavy_pointing_draws() if re_threshold(sc, s_th) > 1e-10)
    return list(itertools.islice(found, count))


def test_re_threshold_is_tight_under_heavy_pointing_loss():
    # Heavy pointing loss puts the threshold rate orders of magnitude below
    # the pointing-free inversion (down to 6e-8 in these draws), where an
    # absolute stopping width would be a large relative error.
    for sc, s_th in _heavy_pointing_ceilings(12):
        assert _is_tight_threshold(sc, s_th)


def _log_bisection_root(sc, s_th):
    """Root of the surrogate S(r) = s_th by bisection in ln r over
    [1e-300, 60], on the surrogate kernel fed expm1(r ln 2) / gain."""
    link = channel.eve_link(sc)
    gain = sc.nodes.gamma0 * link.n_rx * link.pointing.a0
    lo, hi = math.log(1e-300), math.log(60.0)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        x = math.expm1(math.exp(mid) * math.log(2.0)) / gain
        if 1.0 - channel.ggp_cdf_approx(link.surrogate, x)[0] <= s_th:
            hi = mid
        else:
            lo = mid
    return math.exp(hi)


def test_re_threshold_matches_log_bisection_at_tiny_rates():
    # Roots down to 1e-27 occur in the first 1,119 heavy-pointing draws (332
    # of them below 1e-7).  A threshold formed as 2**r - 1 cancels there and
    # makes the outage a step function of the rate.
    tiny = 0
    for sc, s_th in itertools.islice(_heavy_pointing_draws(), 1119):
        want = _log_bisection_root(sc, s_th)
        if want < 1e-7:
            tiny += 1
            assert abs(re_threshold(sc, s_th) - want) <= 1e-6 * want
    assert tiny == 332


# A scenario of the solver property test's ranges where the pointing-free
# inversion lands past rate 30 and the outage there rounds above 0.426.
HIGH_RATE_CEILING_SCENARIO = dict(
    sigma_s=0.0,
    n_a=3,
    n_b=4,
    n_e=3,
    cn2=5.304716812423572e-15,
    d_b=2727.692221928623,
    d_e=2732.8255184772124,
    gamma0=2050614501111.1985,
)


def test_re_threshold_brackets_upward_past_a_rounded_inversion():
    assert _is_tight_threshold(baseline_scenario(**HIGH_RATE_CEILING_SCENARIO), 0.426)


def test_re_threshold_raises_where_no_rate_meets_the_ceiling(baseline, monkeypatch):
    # An outage that never falls below 0.5: the bracket end doubles up to
    # the largest rate below RATE_LIMIT and stops there with the error.
    rates = []

    def flat(link, r):
        rates.append(r)
        return np.float64(0.5), np.float64(0.0)

    monkeypatch.setattr(optimize, "sop_approx", flat)
    with pytest.raises(ConvergenceError, match="below the achievable outage floor"):
        re_threshold(baseline, 0.4)
    assert rates[-1] == math.nextafter(secrecy.RATE_LIMIT, 0.0)
    assert all(a < b for a, b in zip(rates, rates[1:]))


# ---------------------------------------------------------------------------
# adaptive scheme
# ---------------------------------------------------------------------------


def test_adaptive_unconstrained_frozen_values(baseline):
    table = {
        2.0: 0.6547890248912619,
        4.0: 1.5601118474867257,
        6.0: 2.757198465020659,
    }
    for c_b, want in table.items():
        assert adaptive_unconstrained_re(baseline, c_b)[0] == pytest.approx(want, rel=1e-9)


def test_adaptive_unconstrained_is_stationary(baseline):
    h = 1e-5
    for c_b in (2.0, 4.0, 6.0):
        r = adaptive_unconstrained_re(baseline, c_b)[0]
        d1 = (_psi_adaptive(baseline, c_b, r + h) - _psi_adaptive(baseline, c_b, r - h)) / (2 * h)
        assert abs(d1) <= 5e-6


def test_adaptive_unconstrained_dominates_grid(baseline):
    c_b = 4.0
    r_star = adaptive_unconstrained_re(baseline, c_b)[0]
    best = max(_psi_adaptive(baseline, c_b, float(r)) for r in np.linspace(1e-4, c_b, 1000))
    assert _psi_adaptive(baseline, c_b, r_star) >= best - 1e-9


def test_adaptive_optimal_unconstrained_branch(baseline):
    o = adaptive_optimal(baseline, 4.0, 1.0)
    assert o.rates.r_e == pytest.approx(1.5601118474867257, rel=1e-9)
    assert o.rates.r_b == 4.0
    assert o.est == pytest.approx(0.9793110664086137, rel=1e-9)
    assert o.method == "fixed_point"
    assert not o.constraint_active
    assert o.hessian_ok


def test_adaptive_optimal_threshold_branch(baseline):
    o = adaptive_optimal(baseline, 4.0, 0.2)
    assert o.rates.r_e == pytest.approx(RE_THRESHOLD_TABLE[0.2], rel=1e-12)
    assert o.est == pytest.approx(0.21229897394337982, rel=1e-9)
    assert o.method == "threshold"
    assert o.constraint_active

    o6 = adaptive_optimal(baseline, 6.0, 0.2)
    assert o6.rates.r_e == pytest.approx(RE_THRESHOLD_TABLE[0.2], rel=1e-12)
    assert o6.est == pytest.approx(1.81229897394338, rel=1e-9)


def test_adaptive_optimal_infeasible_capacity(baseline):
    # the required redundancy exceeds the realized capacity: nothing to send
    o = adaptive_optimal(baseline, 2.0, 0.2)
    assert o.rates.r_e == 2.0
    assert o.est == 0.0
    # the surrogate outage at the capacity is above the ceiling
    assert sop_approx(eve_link(baseline), o.rates.r_e)[0] > 0.2


def test_adaptive_optimal_max_rule(baseline):
    c_b = 4.0
    re_u = adaptive_unconstrained_re(baseline, c_b)[0]
    for s_th in (1.0, 0.8, 0.6, 0.4, 0.2):
        o = adaptive_optimal(baseline, c_b, s_th)
        want = max(re_u, re_threshold(baseline, s_th))
        assert o.rates.r_e == pytest.approx(min(want, c_b), rel=1e-12)
        assert o.constraint_active == (re_threshold(baseline, s_th) > re_u)


def test_adaptive_optimal_respects_ceiling(baseline):
    for s_th in (1.0, 0.6, 0.4, 0.2):
        for c_b in (4.0, 6.0):
            o = adaptive_optimal(baseline, c_b, s_th)
            if o.est > 0.0:
                assert sop_approx(eve_link(baseline), o.rates.r_e)[0] <= s_th + 1e-6


def test_adaptive_optimal_est_self_consistent(baseline):
    for c_b, s_th in ((4.0, 1.0), (4.0, 0.2), (6.0, 0.4), (2.0, 0.2)):
        o = adaptive_optimal(baseline, c_b, s_th)
        est = _surrogate_est_adaptive(baseline, c_b, o.rates.r_e, SecrecyConstraint(s_th))
        assert o.est == pytest.approx(est, abs=1e-9)


def test_adaptive_optimal_matches_grid_oracle(baseline):
    c_b, s_th = 4.0, 0.4
    o = adaptive_optimal(baseline, c_b, s_th)
    oracle = grid_refine_maximize(
        _adaptive_objective(baseline, c_b, SecrecyConstraint(s_th)), (0.0, c_b)
    )
    assert o.est >= 0.98 * oracle.est
    assert o.est >= oracle.est - 1e-6


def test_adaptive_optimal_rescans_the_first_cell_before_the_grid():
    # Eve's outage is exactly 1, with a zero slope, at the scan's first node
    # (1.6e-8), and the whole rise of the throughput (optimum near 2.2e-4)
    # sits inside the first cell, 7.5e-3 wide: the main scan sees no fall.
    sc = baseline_scenario(
        sigma_s=0.0, n_a=2, n_b=3, n_e=1, cn2=3.18e-16, d_b=2206, d_e=836, gamma0=0.0365
    )
    c_b, s_th = 2.98, 0.656
    o = adaptive_optimal(sc, c_b, s_th)
    assert o.method == "fixed_point"
    # At least the golden-polish oracle's value, frozen; the maximum is flat
    # and the zooming oracle reads one ulp above the root.
    assert o.est >= 2.9797759747072416
    assert o.est == pytest.approx(adaptive_grid_oracle(sc, c_b, s_th).est, rel=1e-15, abs=0)
    assert o.rates.r_e == pytest.approx(2.2131e-4, rel=1e-4, abs=0)


# ---------------------------------------------------------------------------
# fixed-rate scheme
# ---------------------------------------------------------------------------


def test_fixed_unconstrained_pair_frozen(baseline):
    o = fixed_unconstrained_pair(baseline)
    assert o.rates.r_e == pytest.approx(1.2558717107167472, rel=1e-9)
    assert o.rates.r_b == pytest.approx(3.399999565912361, rel=1e-9)
    assert o.est == pytest.approx(0.6171091152284478, rel=1e-9)
    assert o.method == "fixed_point"
    assert o.hessian_ok
    assert not o.constraint_active


def test_fixed_unconstrained_pair_is_stationary(baseline):
    o = fixed_unconstrained_pair(baseline)
    re_, rb_ = o.rates.r_e, o.rates.r_b
    h = 1e-5
    d_re = (_psi_fixed(baseline, re_ + h, rb_) - _psi_fixed(baseline, re_ - h, rb_)) / (2 * h)
    d_rb = (_psi_fixed(baseline, re_, rb_ + h) - _psi_fixed(baseline, re_, rb_ - h)) / (2 * h)
    assert abs(d_re) <= 1e-5
    assert abs(d_rb) <= 1e-5


def test_fixed_unconstrained_pair_dominates_grid(baseline):
    o = fixed_unconstrained_pair(baseline)
    best = max(
        _psi_fixed(baseline, float(re_), float(rb_))
        for re_ in np.linspace(0.3, 3.0, 40)
        for rb_ in np.linspace(1.0, 5.0, 40)
    )
    assert o.est >= best - 1e-9


def test_fixed_unconstrained_pair_pointing_free(pointing_free):
    o = fixed_unconstrained_pair(pointing_free)
    assert o.rates.r_e == pytest.approx(3.7247617356430585, rel=1e-7)
    assert o.rates.r_b == pytest.approx(4.283776689500003, rel=1e-7)
    assert o.est == pytest.approx(0.027884577588162967, rel=1e-7)


@pytest.mark.parametrize("sigma_s", [0.0, 2.0])
@pytest.mark.parametrize(
    ("re", "rb", "h"),
    [(1.2558717, 3.3999996, 1e-4), (2.0, 3.0, 1e-5), (5e-6, 1e-5 + 5e-6, 1e-5)],
)
def test_throughput_stencil_equals_the_pointwise_objective(sigma_s, re, rb, h):
    # the separable stencil gives each cell the bits of the surrogate
    # throughput there, and 0 outside 0 <= r_e < r_b (the last case reaches
    # a negative r_e and r_e >= r_b cells)
    sc = baseline_scenario(sigma_s=sigma_s)
    unconstrained = SecrecyConstraint(1.0)
    d = np.array([-h, 0.0, h])
    got = _run(
        optimize._fixed_est(
            eve_link(sc), bob_link(sc), sc.nodes.n_a, re + d[:, None], rb + d, unconstrained
        )
    )
    for i, x in enumerate((re - h, re, re + h)):
        for j, y in enumerate((rb - h, rb, rb + h)):
            want = 0.0
            if 0.0 <= x < y:
                want = _surrogate_est_fixed(sc, RatePair(r_b=y, r_e=x), unconstrained)
            assert got[i][j].hex() == want.hex(), (i, j)


def test_stencil_checks_return_python_bools(baseline):
    o = fixed_unconstrained_pair(baseline)
    u = optimize.rate_scale(bob_link(baseline))
    (f,) = _run(optimize._stationary_stencils(baseline, [(o.rates.r_e, o.rates.r_b)]))
    checks = (
        optimize._is_stationary(f, u),
        optimize._is_negative_definite(f, u),
        o.hessian_ok,
    )
    assert checks == (True, True, True)
    assert all(type(c) is bool for c in checks)


def test_fixed_pair_scan_passes_the_saturated_reliability_cell(baseline, monkeypatch):
    # Near r_b = 11.76 the reliability outage rounds to 1 and its slope to 0,
    # so the redundancy update (1 - T) / T' is 0/0 there.  The scan's root in
    # that cell must be no candidate, and no RuntimeWarning may escape (the
    # suite turns them into errors).
    bob, n_a = bob_link(baseline), baseline.nodes.n_a
    assert reliability_outage_approx(bob, n_a, 11.76) == (1.0, 0.0)
    checked = []
    stationary = optimize._stationary_stencils

    def spy(sc, pairs):
        fs = yield from stationary(sc, pairs)
        checked.extend((re, rb, f is not None) for (re, rb), f in zip(pairs, fs))
        return fs

    monkeypatch.setattr(optimize, "_stationary_stencils", spy)
    o = fixed_unconstrained_pair(baseline)
    assert [(re, rb) for re, rb, ok in checked if ok] == [(o.rates.r_e, o.rates.r_b)]
    assert any(11.7 < rb < 11.8 and not ok for _, rb, ok in checked)


def test_fixed_constrained_rb_frozen(baseline):
    for s_th, want in CONSTRAINED_RB_TABLE.items():
        rb = fixed_constrained_rb(baseline, RE_THRESHOLD_TABLE[s_th])[0]
        assert rb == pytest.approx(want, rel=1e-9)


def test_fixed_constrained_rb_is_stationary(baseline):
    r_e = RE_THRESHOLD_TABLE[0.3]
    rb = fixed_constrained_rb(baseline, r_e)[0]
    h = 1e-5

    def profile(r):
        t = reliability_outage_approx(bob_link(baseline), baseline.nodes.n_a, r)[0]
        return (r - r_e) * (1.0 - t)

    d1 = (profile(rb + h) - profile(rb - h)) / (2 * h)
    assert abs(d1) <= 1e-5


def test_fixed_constrained_rb_rejects_negative_rate(baseline):
    with pytest.raises(ValueError):
        fixed_constrained_rb(baseline, -0.5)


@pytest.mark.parametrize("r_e", [100.0, 1023.5])
def test_fixed_constrained_rb_scans_upward_past_the_rate_ceiling(baseline, monkeypatch, r_e):
    # A pinned rate far past Bob's capacity: the scan runs upward from just
    # above it and stays below RATE_LIMIT.  Every codeword rate there is in
    # outage, so no residual root exists and the grid search gives r_b.
    spans = []
    scan_nodes = optimize._scan_nodes

    def spy(lo, hi, n):
        spans.append((lo, hi))
        return scan_nodes(lo, hi, n)

    monkeypatch.setattr(optimize, "_scan_nodes", spy)
    rb, method = fixed_constrained_rb(baseline, r_e)
    ((lo, hi),) = spans
    assert r_e < lo < hi < secrecy.RATE_LIMIT
    assert r_e < rb < secrecy.RATE_LIMIT
    assert method == "grid_oracle"


def test_fixed_constrained_rb_single_beam_path():
    # without transmit selection the same residual holds; check against the
    # one-dimensional oracle on the same objective
    sc = baseline_scenario(n_a=1)
    r_e = 2.0
    rb = fixed_constrained_rb(sc, r_e)[0]
    bob, n_a = bob_link(sc), sc.nodes.n_a
    oracle = grid_refine_maximize(
        lambda r: (r - r_e) * (1.0 - reliability_outage_approx(bob, n_a, r)[0]),
        (r_e, r_e + 5.0),
    )
    assert rb == pytest.approx(oracle.rates.r_e, abs=1e-4)


def test_fixed_optimal_unconstrained_branch(baseline):
    o = fixed_optimal(baseline, 1.0)
    u = fixed_unconstrained_pair(baseline)
    assert o.rates == u.rates
    assert o.est == u.est
    assert not o.constraint_active


def test_fixed_optimal_constrained_branch_frozen(baseline):
    table = {
        0.5: (2.145190132661919, 3.611089270245941, 0.5321444884783405),
        0.3: (3.219914507534674, 4.012458465093674, 0.2747988982726752),
        0.1: (4.314696100430858, 4.677153367296272, 0.04414411529143055),
    }
    for s_th, (re_w, rb_w, est_w) in table.items():
        o = fixed_optimal(baseline, s_th)
        assert o.rates.r_e == pytest.approx(re_w, rel=1e-9)
        assert o.rates.r_b == pytest.approx(rb_w, rel=1e-9)
        assert o.est == pytest.approx(est_w, rel=1e-9)
        assert o.method == "lambert_w"
        assert o.constraint_active
        assert o.hessian_ok


def test_fixed_optimal_labels_the_constrained_grid_fallback():
    # Here the ceiling's threshold rate (3.678) lies far above Bob's mean
    # capacity (2.31), so the reliability outage is 1 all along the
    # codeword-rate scan and its residual never falls through 0: the grid
    # fallback gives r_b, at zero throughput, and the result must say so.
    sc = baseline_scenario(
        sigma_s=0.0, n_a=5, n_b=2, n_e=6, cn2=1.36e-16, d_b=2124, d_e=2264, gamma0=639
    )
    o = fixed_optimal(sc, 0.52)
    assert o.method == "grid_oracle"
    assert o.constraint_active
    assert o.rates.r_e == re_threshold(sc, 0.52)
    assert o.rates.r_e == pytest.approx(3.678, abs=1e-3)
    assert o.rates.r_b == fixed_constrained_rb(sc, o.rates.r_e)[0]
    assert o.est == 0.0


def test_fixed_optimal_est_self_consistent(baseline):
    for s_th in (1.0, 0.5, 0.3, 0.1):
        o = fixed_optimal(baseline, s_th)
        est = _surrogate_est_fixed(baseline, o.rates, SecrecyConstraint(s_th))
        assert o.est == pytest.approx(est, abs=1e-9)


@pytest.mark.parametrize("overrides", [{}, {"n_a": 3, "n_b": 3, "n_e": 3}, {"sigma_s": 0.5}])
def test_constrained_fixed_optimum_takes_the_float_calls_throughput(overrides):
    # Under a binding ceiling the optimum's throughput is read off the
    # middle of its r_b curvature stencil, with the bits of float calls.
    sc = baseline_scenario(**overrides)
    for s_th in (0.5, 0.3, 0.1):
        o = fixed_optimal(sc, s_th)
        assert o.constraint_active
        assert o.est == _surrogate_est_fixed(sc, o.rates, SecrecyConstraint(s_th))


def test_fixed_optimal_respects_ceiling(baseline):
    for s_th in (0.5, 0.3, 0.1):
        o = fixed_optimal(baseline, s_th)
        assert sop_approx(eve_link(baseline), o.rates.r_e)[0] <= s_th + 1e-6


def test_fixed_optimal_monotone_in_ceiling(baseline):
    ests = [fixed_optimal(baseline, s).est for s in (1.0, 0.5, 0.3, 0.1)]
    assert all(lo >= hi for lo, hi in zip(ests, ests[1:]))


def test_fixed_optimal_matches_grid_oracle(baseline):
    s_th = 0.5
    o = fixed_optimal(baseline, s_th)
    objective = _fixed_objective(baseline, SecrecyConstraint(s_th))
    oracle = grid_refine_maximize(objective, ((0.0, 6.0), (1e-3, 6.0)), grid_points=160)
    assert o.est >= 0.98 * oracle.est
    assert o.est >= oracle.est - 1e-6


# ---------------------------------------------------------------------------
# the ceilings of one scenario
# ---------------------------------------------------------------------------

# Non-binding, binding and s_th = 1 ceilings, one of them twice.  The
# threshold rate at 0.05 lies above Bob's mean-SNR capacity on the baseline
# (4.71 > 3.73) and at gamma0 1e-3 (9.2e-6 > 4.5e-6), and above c_b = 2 from
# 0.4 down on the baseline, where the adaptive optimum is infeasible.  At
# gamma0 1e-3 no ceiling binds the adaptive scheme: its unconstrained r_e
# tops them all.
SEQUENCE_CEILINGS = [1.0, 0.9, 0.6, 0.4, 0.2, 0.05, 0.6]

# The memoized solvers and the names of their walks, by which the memo
# counts its hits and misses.
MEMOIZED = {
    "re_threshold": "_re_threshold",
    "adaptive_unconstrained_re": "_adaptive_unconstrained_re",
    "fixed_unconstrained_pair": "_fixed_unconstrained_pair",
    "fixed_constrained_rb": "_fixed_constrained_rb",
}


@pytest.mark.parametrize(
    "overrides",
    [{}, {"sigma_s": 0.0}, {"n_a": 4, "n_b": 4, "n_e": 4}, {"gamma0": 1e-3}, {"cn2": 1e-30}],
    ids=["baseline", "pointing-free", "n4", "gamma0-1e-3", "cn2-1e-30"],
)
@pytest.mark.parametrize(
    "solve, unconstrained",
    [
        (fixed_optimal, "fixed_unconstrained_pair"),
        (lambda sc, s_th: adaptive_optimal(sc, 2.0, s_th), "adaptive_unconstrained_re"),
    ],
    ids=["fixed", "adaptive"],
)
def test_ceilings_share_the_memoized_unconstrained_solve(overrides, solve, unconstrained):
    sc = baseline_scenario(**overrides)
    got = [solve(sc, s_th) for s_th in SEQUENCE_CEILINGS]
    assert optimize._MEMO.misses[MEMOIZED[unconstrained]] == 1
    assert optimize._MEMO.misses["_re_threshold"] == len(set(SEQUENCE_CEILINGS))
    # The same solves, each from an empty memo.
    want = []
    for s_th in SEQUENCE_CEILINGS:
        optimize._MEMO.clear()
        want.append(solve(sc, s_th))
    # repr of a float round-trips, so equal reprs are equal bits
    assert [repr(o) for o in got] == [repr(o) for o in want]


@pytest.mark.parametrize("s_th", [0.0, 1.5, math.nan])
def test_solvers_and_estimator_reject_a_ceiling_outside_the_unit_interval(baseline, s_th):
    # Each checks the ceiling through SecrecyConstraint.
    sim = montecarlo.SimConfig(trials=10, stream_count=1)
    for solve in (
        lambda: fixed_optimal(baseline, s_th),
        lambda: adaptive_optimal(baseline, 4.0, s_th),
        lambda: re_threshold(baseline, s_th),
        lambda: montecarlo.estimate_est(baseline, s_th, sim),
    ):
        with pytest.raises(ValueError, match="SecrecyConstraint.s_th must lie in"):
            solve()


@pytest.mark.parametrize("n", [1, 2, 4])
def test_memoized_solvers_equal_their_wrapped_functions_to_the_bit(n):
    # The scenarios, ceilings and capacities of the benchmark's optimize_batch
    # workload, and pinned redundancy rates below, near and far past Bob's
    # capacity: a first call (a miss) and a second (a hit) each return what
    # the solve's walk does, driven alone past the memo.
    sc = baseline_scenario(n_a=n, n_b=n, n_e=n)
    cases = [(re_threshold, (sc, s_th)) for s_th in (0.2, 0.4, 1.0)]
    cases += [(adaptive_unconstrained_re, (sc, c_b)) for c_b in (2.0, 4.0, 6.0)]
    cases += [(fixed_unconstrained_pair, (sc,))]
    cases += [(fixed_constrained_rb, (sc, r_e)) for r_e in (0.5, 3.0, 100.0)]
    for solve, args in cases:
        want = repr(_run(getattr(optimize, MEMOIZED[solve.__name__])(*args)))
        # repr of a float round-trips, so equal reprs are equal bits
        assert repr(solve(*args)) == want
        assert repr(solve(*args)) == want
    for walk in MEMOIZED.values():
        assert optimize._MEMO.hits[walk] == optimize._MEMO.misses[walk] > 0


def test_each_memoized_walk_keeps_its_own_bound(baseline, monkeypatch):
    # A batch of more thresholds than the bound drops the least recently
    # used threshold, not the scenario's unconstrained pair.
    monkeypatch.setattr(optimize._MEMO, "size", 2)
    fixed_unconstrained_pair(baseline)
    optimize.re_thresholds([(baseline, s_th) for s_th in (0.2, 0.3, 0.4)])
    fixed_unconstrained_pair(baseline)
    assert optimize._MEMO.hits["_fixed_unconstrained_pair"] == 1
    re_threshold(baseline, 0.4)
    re_threshold(baseline, 0.2)
    assert optimize._MEMO.hits["_re_threshold"] == 1
    assert optimize._MEMO.misses["_re_threshold"] == 4


# The scenarios of the batch tests, one per kernel branch and solver path:
# no pointing term (sigma_s 0), the pointing term's recurrence branch
# (sigma_s 0.25 and 0.5, where xi**2 = 25.0 and 6.26 top k = 3.73, each
# surrogate its own call), its gamma-ratio branch (the baseline, sigma_s 2),
# weak links (gamma0 1e-3), four apertures, the adaptive slope scan with two
# roots (at c_b 0.5) and the one whose rise lies in its first cell (at c_b
# 2.98), as in scripts/compare_outputs.py, and the fixed scheme's
# codeword-rate grid fallback (at s_th 0.52).
BATCH_SCENARIOS = [
    {"sigma_s": 0.0},
    {"sigma_s": 0.25},
    {"sigma_s": 0.5},
    {},
    {"gamma0": 1e-3},
    {"n_a": 4, "n_b": 4, "n_e": 4},
    {"sigma_s": 0.0, "n_a": 1, "n_b": 3, "n_e": 4, "cn2": 1.4607508285692493e-15,
     "d_b": 2902.842563086293, "d_e": 2252.7318414869633, "gamma0": 1424.0941040463003},
    {"sigma_s": 0.0, "n_a": 2, "n_b": 3, "n_e": 1, "cn2": 3.18e-16, "d_b": 2206, "d_e": 836,
     "gamma0": 0.0365},
    {"sigma_s": 0.0, "n_a": 5, "n_b": 2, "n_e": 6, "cn2": 1.36e-16, "d_b": 2124, "d_e": 2264,
     "gamma0": 639},
]


def _alone(solve, keys):
    """repr of ``solve`` at each key, each solved from an empty memo."""
    reprs = []
    for key in keys:
        optimize._MEMO.clear()
        reprs.append(repr(solve(*key)))
    return reprs


def _kernel_calls(monkeypatch):
    """A list that gains one entry per surrogate kernel call."""
    calls, kernel = [], channel.ggp_cdf_approx
    monkeypatch.setattr(channel, "ggp_cdf_approx", lambda *a: calls.append(1) or kernel(*a))
    return calls


def test_a_batch_equals_its_one_problem_solves_to_the_bit(monkeypatch):
    # Each problem of a batch walks its own scalar solve, and the batch's
    # array calls answer every open problem on a link at once: the results
    # keep every bit of the one-problem calls, with far fewer kernel calls.
    scs = [baseline_scenario(**doc) for doc in BATCH_SCENARIOS]
    for sc in scs[1:3]:
        assert eve_link(sc).surrogate.xi2 > eve_link(sc).surrogate.k
    thresholds = [(sc, s_th) for sc in scs for s_th in (0.2, 0.4, 0.52, 0.656, 1.0)]
    capacities = [(sc, c_b) for sc in scs for c_b in (0.5, 2.98, 4.0)]
    pinned = [(sc, r_e) for sc in scs for r_e in (0.5, 3.0, 100.0)]
    pinned.append((scs[-1], re_threshold(scs[-1], 0.52)))
    solves = {
        "_re_threshold": (re_threshold, thresholds),
        "_adaptive_unconstrained_re": (adaptive_unconstrained_re, capacities),
        "_fixed_unconstrained_pair": (fixed_unconstrained_pair, [(sc,) for sc in scs]),
    }
    calls = _kernel_calls(monkeypatch)
    want = {walk: _alone(solve, keys) for walk, (solve, keys) in solves.items()}
    want_rbs = _alone(fixed_constrained_rb, pinned)
    alone = len(calls)
    calls.clear()
    optimize._MEMO.clear()
    asks = [(getattr(optimize, walk), key) for walk, (_, keys) in solves.items() for key in keys]
    got = optimize._values(optimize._MEMO.solve(asks))
    got_rbs = optimize.fixed_constrained_rbs(pinned)
    assert [repr(result) for result in got] == [r for walk in solves for r in want[walk]]
    assert [repr(result) for result in got_rbs] == want_rbs
    # Every path ran: the grid fallbacks of the adaptive rate, the pair and
    # the codeword rate, and the roots.
    methods = {result[1] for result in got if isinstance(result, tuple)}
    methods |= {result.method for result in got if isinstance(result, Optimum)}
    methods |= {method for _, method in got_rbs}
    assert methods == {"fixed_point", "grid_oracle", "lambert_w"}
    # 249 calls against 661 (137 while requests on different links shared
    # gathered calls).
    assert len(calls) <= 249 and 2 * len(calls) < alone


def test_walks_share_a_kernel_call_only_on_equal_link_constants(monkeypatch):
    # A round's requests share a kernel call where their links carry equal
    # constants, the only fields the kernel reads.  Bob's links of two
    # scenarios that differ only in sigma_s are distinct but equal, so they
    # share one call; the links of n = 1 and n = 2 take one call each.
    # Every answer keeps the bits of its own reliability_outage_approx call.
    def hexes(pair):
        return [[v.hex() for v in np.ravel(x).tolist()] for x in pair]

    sigma_links = [bob_link(baseline_scenario(sigma_s=s)) for s in (2.0, 0.5)]
    assert sigma_links[0] is not sigma_links[1] and sigma_links[0] == sigma_links[1]
    n_links = [bob_link(baseline_scenario(n_a=n, n_b=n, n_e=n)) for n in (1, 2)]
    rates = (3.0, np.array([2.0, 4.0]))
    calls = _kernel_calls(monkeypatch)
    for links, n_as, want_calls in ((sigma_links, (2, 2), 1), (n_links, (1, 2), 2)):
        keys = list(zip(links, n_as, rates))
        calls.clear()
        got = optimize._drive([optimize._rel(*key) for key in keys])
        assert len(calls) == want_calls
        for answer, key in zip(got, keys):
            assert hexes(answer) == hexes(secrecy.reliability_outage_approx(*key))


def test_batched_optima_equal_the_one_row_calls_to_the_bit():
    scs = [baseline_scenario(**doc) for doc in BATCH_SCENARIOS]
    fixed_rows = [(sc, s_th) for sc in scs for s_th in (0.2, 0.52, 1.0)]
    adaptive_rows = [(sc, c_b, s_th) for sc in scs for c_b in (0.5, 2.98) for s_th in (0.2, 0.656)]
    want_fixed = _alone(fixed_optimal, fixed_rows)
    want_adaptive = _alone(adaptive_optimal, adaptive_rows)
    optimize._MEMO.clear()
    assert [repr(o) for o in optimize.fixed_optima(fixed_rows)] == want_fixed
    assert [repr(o) for o in optimize.adaptive_optima(adaptive_rows)] == want_adaptive


def _figure_ceilings():
    """The 20 ceilings of the est_vs_sth files of scripts/figure_sweeps.py,
    by the sweep axis's own arithmetic."""
    step = (1.0 - 0.05) / 19
    return [min(0.05 + i * step, 1.0) for i in range(20)]


def test_fixed_optima_solve_the_binding_codeword_rates_in_one_memoized_batch(baseline):
    # Every binding row's codeword rate is solved in one batch, each distinct
    # key once, and handed to its row without another memo lookup; each rate
    # keeps the bits of a solve alone from an empty memo.
    optima = optimize.fixed_optima([(baseline, s_th) for s_th in _figure_ceilings()])
    binding = [o for o in optima if o.constraint_active]
    keys = [(baseline, o.rates.r_e) for o in binding]
    assert 0 < len(binding) < len(optima)
    assert optimize._MEMO.misses["_fixed_constrained_rb"] == len(set(keys)) == len(keys)
    assert optimize._MEMO.hits["_fixed_constrained_rb"] == 0
    got = [repr((o.rates.r_b, o.method)) for o in binding]
    assert got == _alone(fixed_constrained_rb, keys)


def test_fixed_optima_longer_than_the_memo_solve_each_binding_rate_once(baseline, monkeypatch):
    # A batch of more binding rows than the memo keeps is taken whole, with
    # no slicing: each row is handed its rate from the batch, so the memo's
    # size drops no rate a row needs.
    monkeypatch.setattr(optimize._MEMO, "size", 4)
    rows = [(baseline, s_th) for s_th in _figure_ceilings()[:10]]
    got = optimize.fixed_optima(rows)
    assert all(o.constraint_active for o in got)
    assert optimize._MEMO.misses["_fixed_constrained_rb"] == len(rows)
    assert [repr(o) for o in got] == _alone(fixed_optimal, rows)


def test_a_batch_raises_the_error_of_its_first_failing_row(baseline):
    # Row 1's ceiling lies below the outage floor, row 2's outside (0, 1]:
    # row 1's error comes first, as it does in a loop of one-row calls.  The
    # optima batches put each row's error in its place instead.
    rows = [(baseline, 0.4), (baseline, 1e-17), (baseline, 0.0)]
    with pytest.raises(ConvergenceError, match="ceiling 1e-17 is below"):
        optimize.re_thresholds(rows)
    with pytest.raises(ValueError, match="r_e_fixed must be non-negative"):
        optimize.fixed_constrained_rbs([(baseline, 0.4), (baseline, -1.0), (baseline, math.nan)])
    fixed = optimize.fixed_optima(rows)
    assert fixed[0] == fixed_optimal(baseline, 0.4)
    assert isinstance(fixed[1], ConvergenceError) and "ceiling 1e-17 is below" in str(fixed[1])
    assert isinstance(fixed[2], ValueError) and "must lie in" in str(fixed[2])
    adaptive = optimize.adaptive_optima([(baseline, 4.0, 0.4), (baseline, -1.0, 1e-17)])
    assert adaptive[0] == adaptive_optimal(baseline, 4.0, 0.4)
    assert isinstance(adaptive[1], ValueError) and "c_b must be positive" in str(adaptive[1])


def test_figure_sweeps_solve_each_distinct_key_once(tmp_path, monkeypatch):
    # Both schemes' families in scripts/figure_sweeps.py share thresholds and
    # unconstrained optima: each memoized walk runs once per distinct
    # (scenario, ceiling or c_b) key however often the sweeps ask for it,
    # alone or in a batch.
    keys = {walk: [] for walk in MEMOIZED.values()}  # each key asked
    runs = {walk: [] for walk in MEMOIZED.values()}  # each key solved
    solve = optimize._MEMO.solve

    def recorded_solve(asks):
        for walk, key in asks:
            keys[walk.__name__].append(key)
        return solve(asks)

    monkeypatch.setattr(optimize._MEMO, "solve", recorded_solve)
    for walk in MEMOIZED.values():

        def counted(*key, _run=getattr(optimize, walk), _runs=runs[walk]):
            _runs.append(key)
            return _run(*key)

        counted.__name__ = walk
        monkeypatch.setattr(optimize, walk, counted)
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "figure_sweeps.py"
    spec = importlib.util.spec_from_file_location("figure_sweeps", script)
    sweeps = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweeps)
    monkeypatch.setattr(sys, "argv", [str(script), "--outdir", str(tmp_path)])
    assert sweeps.main() == 0
    assert len(keys["_re_threshold"]) > len(set(keys["_re_threshold"]))
    for walk in MEMOIZED.values():
        assert len(runs[walk]) == len(set(runs[walk])), walk
        assert set(runs[walk]) == set(keys[walk]), walk
        assert optimize._MEMO.misses[walk] == len(set(keys[walk])), walk
        assert optimize._MEMO.hits[walk] + optimize._MEMO.misses[walk] == len(keys[walk]), walk


def test_fixed_optimum_scales_with_the_snr_on_weak_links():
    # Far below 1 bpcu log2(1 + x) is x / ln 2, so every rate, and with them
    # the optimal throughput, is proportional to the SNR: it falls 100-fold
    # from gamma0 0.1 to 1e-3 only if each optimum is found at its link's
    # own rate scale.
    weak = fixed_optimal(baseline_scenario(gamma0=1e-3), 1.0)
    strong = fixed_optimal(baseline_scenario(gamma0=0.1), 1.0)
    assert weak.method == strong.method == "fixed_point"
    assert weak.est / strong.est == pytest.approx(0.01, rel=1e-3, abs=0)


# ---------------------------------------------------------------------------
# the paper's stationarity forms at the solvers' points
# ---------------------------------------------------------------------------

PAPER_FORM_SCENARIOS = {
    "baseline": {},
    "n4": {"n_a": 4, "n_b": 4, "n_e": 4},
    "sigma1": {"sigma_s": 1.0},
    "n1": {"n_a": 1},
    "n1_all": {"n_a": 1, "n_b": 1, "n_e": 1},
}


@pytest.mark.parametrize("overrides", PAPER_FORM_SCENARIOS.values(), ids=PAPER_FORM_SCENARIOS)
def test_adaptive_optimum_is_a_fixed_point_of_the_paper_map(overrides):
    # The solver bisects the throughput slope; the paper's fixed-point map
    # must hold at the root it returns.
    sc = baseline_scenario(**overrides)
    for c_b in (2.0, 4.0, 6.0):
        r_e = adaptive_unconstrained_re(sc, c_b)[0]
        assert abs(oracles.adaptive_stationarity_map(sc, c_b, r_e) - r_e) <= 1e-7


@pytest.mark.parametrize("overrides", PAPER_FORM_SCENARIOS.values(), ids=PAPER_FORM_SCENARIOS)
def test_constrained_rb_satisfies_the_paper_lambert_w_form(overrides):
    # The solver bisects the unwrapped residual; the paper's lower-branch
    # Lambert-W expression must reproduce the codeword rate it returns.
    sc = baseline_scenario(**overrides)
    mu = oracles.bob_rate_scale(sc)
    for s_th in (0.5, 0.3, 0.1):
        o = fixed_optimal(sc, s_th)
        assert o.constraint_active
        r_e, r_b = o.rates.r_e, o.rates.r_b
        w = specfun.lambert_w("lower", oracles.lambert_w_argument(sc, r_e, r_b))
        assert abs(math.log2(-mu * w) - r_b) <= 1e-8


# ---------------------------------------------------------------------------
# solver properties over the config schema
# ---------------------------------------------------------------------------


@given(
    sigma_s=st.one_of(st.just(0.0), st.floats(0.3, 5.0)),
    n_a=st.integers(1, 6),
    n_b=st.integers(1, 6),
    n_e=st.integers(1, 6),
    log_cn2=st.floats(-16.0, math.log10(3e-13)),
    d_b=st.floats(300.0, 3000.0),
    d_e=st.floats(300.0, 3000.0),
    log_gamma0=st.floats(-3.0, 25.0),
    s_th=st.floats(0.05, 1.0),
    c_b=st.floats(0.5, 8.0),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_solvers_return_feasible_optima_or_raise(
    sigma_s, n_a, n_b, n_e, log_cn2, d_b, d_e, log_gamma0, s_th, c_b
):
    sc = baseline_scenario(
        sigma_s=sigma_s,
        n_a=n_a,
        n_b=n_b,
        n_e=n_e,
        cn2=10.0**log_cn2,
        d_b=d_b,
        d_e=d_e,
        gamma0=10.0**log_gamma0,
    )
    fixed = fixed_optimal(sc, s_th)
    for o in (fixed, adaptive_optimal(sc, c_b, s_th)):
        assert 0.0 <= o.rates.r_e <= o.rates.r_b
        assert o.est >= 0.0
        if o.est > 0.0:
            assert sop_approx(eve_link(sc), o.rates.r_e)[0] <= s_th + 1e-6
    # The fixed optimum against the command line's oracle, over a range that
    # spans Bob's mean capacity C_b as well as the solver's r_b.
    hi = max(fixed.rates.r_b, optimize._cap_seed(bob_link(sc))) + 3.0
    assert fixed.est >= 0.98 * fixed_grid_oracle(sc, s_th, hi, grid_points=160).est


# ---------------------------------------------------------------------------
# residual scans and their batched bisection
# ---------------------------------------------------------------------------

# The three stationarity residuals the solvers scan, by qualified name.
RESIDUALS = {
    "_adaptive_unconstrained_re.<locals>.slope",
    "_fixed_unconstrained_pair.<locals>.resid",
    "_fixed_constrained_rb.<locals>.resid",
}


def _evaluated(walk):
    """The residual walk ``walk`` as an array function, each call driven alone."""

    def g(x):
        return _run(walk(x))

    g.__qualname__ = walk.__qualname__
    return g


def _bisect(g, cells, tol, iters=200):
    """:func:`optimize._bisect_roots` of the array function ``g``, which asks
    for no outage."""

    def walk(x):
        return g(x)
        yield

    return _run(optimize._bisect_roots(walk, cells, tol, iters))


@pytest.fixture(scope="module")
def solver_scans():
    """Every residual scan and bisection cell of the closed-form optimize runs
    of the benchmark's optimize_batch workload (n in {1, 2, 4}, s_th in
    {0.2, 0.4, 1.0}, the fixed scheme and the adaptive one at c_b 2, 4 and
    6), at sigma_s 0, 0.5 and 2.  Repeats are dropped: the adaptive and the
    unconstrained fixed scans do not depend on s_th.

    Returns {sigma_s: (scans, cells)}, with scans as (g, xs, gs) and cells
    as (g, lo, hi, g_lo, tol, root) of each distinct call.
    """
    scan, bisect = optimize._scan_roots, optimize._bisect_roots
    found = {}

    def recorded_scan(g, xs, gs, tol, falling_only=False):
        found[sigma_s][0].setdefault((g.__qualname__, gs.tobytes()), (_evaluated(g), xs, gs))
        return (yield from scan(g, xs, gs, tol, falling_only))

    def recorded_bisect(g, cells, tol, iters=200):
        roots = yield from bisect(g, cells, tol, iters)
        for (lo, hi, g_lo), root in zip(cells, roots):
            key = (g.__qualname__, lo, hi, g_lo)
            found[sigma_s][1].setdefault(key, (_evaluated(g), lo, hi, g_lo, tol, root))
        return roots

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_scan_roots", recorded_scan)
        mp.setattr(optimize, "_bisect_roots", recorded_bisect)
        for sigma_s in (0.0, 0.5, 2.0):
            found[sigma_s] = ({}, {})
            for n in (1, 2, 4):
                sc = baseline_scenario(sigma_s=sigma_s, n_a=n, n_b=n, n_e=n)
                for s_th in (0.2, 0.4, 1.0):
                    fixed_optimal(sc, s_th)
                    for c_b in (2.0, 4.0, 6.0):
                        adaptive_optimal(sc, c_b, s_th)
    return {k: (list(scans.values()), list(cells.values())) for k, (scans, cells) in found.items()}


@pytest.mark.parametrize("sigma_s", [0.0, 0.5, 2.0])
def test_scan_elements_equal_the_scalar_residual_to_the_bit(solver_scans, sigma_s):
    # The bisection takes g(lo) from the scan, so each scan element must be
    # what a call of the residual at that one rate returns.
    scans, _ = solver_scans[sigma_s]
    assert {g.__qualname__ for g, _, _ in scans} == RESIDUALS
    for g, xs, gs in scans:
        scalar = np.array([float(g(x)) for x in xs])
        assert scalar.tobytes() == gs.tobytes(), g.__qualname__


@pytest.mark.parametrize("sigma_s", [0.0, 0.5, 2.0])
def test_batched_bisection_equals_the_scalar_one(solver_scans, sigma_s):
    _, cells = solver_scans[sigma_s]
    assert {g.__qualname__ for g, *_ in cells} == RESIDUALS
    for g, lo, hi, _, tol, root in cells:
        assert oracles.bisect_root(lambda r: float(g(r)), lo, hi, tol) == root, g.__qualname__


@pytest.mark.parametrize("sigma_s", [0.0, 0.5, 2.0])
def test_batched_bisection_evaluates_only_the_levels_it_walks(solver_scans, sigma_s):
    # The scalar bisection's halvings h are the levels the walk goes down.
    # The batched one takes no more array calls than a tree of six levels
    # per call, ceil(h / 6), and each call evaluates the 2**d - 1 midpoints
    # of d levels, no more than the min(6, h left) it can still walk.
    _, cells = solver_scans[sigma_s]
    for g, lo, hi, g_lo, tol, root in cells:
        scalar, sizes = [], []
        oracles.bisect_root(lambda r: scalar.append(r) or float(g(r)), lo, hi, tol)
        left = len(scalar) - 1  # the first call is g(lo)
        calls_at_six_levels = -(-left // 6)
        got = _bisect(lambda x: sizes.append(x.size) or g(x), [(lo, hi, g_lo)], tol)
        assert got == [root], g.__qualname__
        assert len(sizes) <= calls_at_six_levels, g.__qualname__
        for size in sizes:
            depth = size.bit_length()
            assert size == 2**depth - 1 and depth <= min(6, left), g.__qualname__
            left -= depth
        assert left == 0, g.__qualname__


def test_shared_walk_bisects_both_cells_of_the_baseline_pair_scan(baseline, monkeypatch):
    # The pair's scan crosses at the optimum and in the saturated reliability
    # cell near r_b = 11.76.  Walked together, each root is the scalar
    # bisection's, the calls evaluate the midpoints of the two one-cell walks,
    # and there are no more of them than the deeper cell takes alone.
    scans, scan = [], optimize._scan_roots

    def recorded_scan(g, xs, gs, tol, falling_only=False):
        scans.append((_evaluated(g), xs, gs, tol))
        return (yield from scan(g, xs, gs, tol, falling_only))

    monkeypatch.setattr(optimize, "_scan_roots", recorded_scan)
    fixed_unconstrained_pair(baseline)
    ((g, xs, gs, tol),) = scans
    pos = gs > 0.0
    cells = [(xs[i], xs[i + 1], gs[i]) for i in np.flatnonzero(pos[:-1] != pos[1:])]
    assert len(cells) == 2 and 11.7 < cells[1][0] < 11.8
    shared, alone = [], []
    roots = _bisect(lambda x: shared.append(x.size) or g(x), cells, tol)
    for (lo, hi, g_lo), root in zip(cells, roots):
        assert root == oracles.bisect_root(lambda r: float(g(r)), lo, hi, tol)
        sizes = []
        got = _bisect(lambda x: sizes.append(x.size) or g(x), [(lo, hi, g_lo)], tol)
        assert got == [root]
        alone.append(sizes)
    assert len(shared) <= max(map(len, alone))
    assert sum(shared) == sum(map(sum, alone))


@pytest.mark.parametrize("falling_only", [False, True])
def test_scan_roots_bisects_the_cells_of_the_scalar_sign_test(monkeypatch, falling_only):
    # The sign test of a loop over the scan values, NaN included: NaN is not
    # positive, and a fall from positive to NaN is not a fall to non-positive.
    xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    gs = np.array([1.0, np.nan, -1.0, 2.0, 0.0, np.nan, 3.0])
    cells = []

    def bisect(g, cells_, tol, iters=200):
        cells.extend(cells_)
        return [lo for lo, _, _ in cells_]
        yield

    monkeypatch.setattr(optimize, "_bisect_roots", bisect)
    _run(optimize._scan_roots(None, xs, gs, 1e-9, falling_only))
    want = []
    for i in range(1, len(xs)):
        prev, g = gs[i - 1], gs[i]
        if (prev > 0.0 >= g) if falling_only else ((prev > 0.0) != (g > 0.0)):
            want.append((xs[i - 1], xs[i], prev))
    np.testing.assert_equal(cells, want)  # NaN equals NaN here


def _nan_inside(x):
    return np.where((0.2 <= x) & (x <= 0.3), np.nan, 0.4 - x)


@pytest.mark.parametrize(
    "g, lo, hi, tol, iters",
    [
        (_nan_inside, 0.0, 1.0, 1e-9, 200),  # NaN counts as non-positive
        (lambda x: 0.25 - x, 0.0, 1.0, 1e-9, 200),  # g(mid) == 0.0 at 0.25
        (lambda x: x * (x - 0.7), 0.0, 1.0, 1e-9, 200),  # g(lo) == 0.0
        (lambda x: 0.3 - x, 0.3, 0.3 + 5e-10, 1e-9, 200),  # narrower than tol
        (lambda x: 0.123 - x, 0.1, 0.15, 1e-9, 0),
        (lambda x: 0.123 - x, 0.1, 0.15, 1e-9, 4),  # fewer halvings than a batch
        (lambda x: 0.123 - x, 0.1, 0.15, 1e-9, 13),  # not a multiple of a batch
        (lambda x: 0.123 - x, 0.1, 0.15, 0.0, 200),  # stops after iters halvings
        (lambda x: 0.123 - x, 0.1, 0.15, 0.0, 13),  # tol 0: iters ends mid-batch
        (lambda x: 0.123 - x, 0.1, 0.15, 5e-324, 200),  # (hi - lo) / tol overflows
        (lambda x: 0.123 - x, -1e10, 1e10, 1e-300, 200),  # overflows, wide cell
    ],
)
def test_batched_bisection_equals_the_scalar_one_on_edge_cases(g, lo, hi, tol, iters):
    g_lo = g(np.array([lo]))[0]
    got = _bisect(g, [(lo, hi, g_lo)], tol, iters)
    assert got == [oracles.bisect_root(lambda r: float(g(r)), lo, hi, tol, iters)]


def test_batched_bisection_makes_few_array_calls():
    # A 0.05-wide cell needs 26 halvings to reach 1e-9: one scalar call each,
    # against one array call per six.
    batched, scalar = [], []

    def g(x):
        batched.append(x)
        return 0.123 - x

    def g_scalar(x):
        scalar.append(x)
        return 0.123 - x

    roots = _bisect(g, [(0.1, 0.15, 0.023)], 1e-9)
    assert roots == [oracles.bisect_root(g_scalar, 0.1, 0.15, 1e-9)]
    assert len(batched) <= 5
    assert len(scalar) >= 26


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------


# The generic grid oracle's throughput before its search zoomed, when it
# polished the best grid cell by golden-section line searches; the CLI's
# oracles returned the same bits.  The zoom must reach each value within
# 1e-10 relative.
# Fixed scheme, (n, s_th) with n_a = n_b = n_e = n, as the command line's
# oracle runs it: 160 nodes per axis up to 3 above the solver's r_b.
FIXED_ORACLE_EST = {
    (1, 0.2): 0.3108258012338394,
    (1, 0.4): 0.5444773054443157,
    (1, 1.0): 0.6183141837326593,
    (2, 0.2): 0.5121292464173752,
    (2, 0.4): 0.840784811640815,
    (2, 1.0): 0.9521067421437819,
    (4, 0.2): 0.7232313079453777,
    (4, 0.4): 1.0895213115856592,
    (4, 1.0): 1.2085710402730587,
}

# The same on the pointing-free scenario, by s_th.
POINTING_FREE_ORACLE_EST = {
    0.4: 0.007561124647260121,
    1.0: 0.02788457758816298,
}

# Adaptive scheme, (n, s_th, c_b): the 27 pinned-capacity runs of the
# optimize benchmark.
ADAPTIVE_ORACLE_EST = {
    (1, 0.2, 2.0): 0.0,
    (1, 0.2, 4.0): 0.9554878253596935,
    (1, 0.2, 6.0): 2.5554878253596938,
    (1, 0.4, 2.0): 0.10068405972117427,
    (1, 0.4, 4.0): 1.300684059721174,
    (1, 0.4, 6.0): 2.590507467231405,
    (1, 1.0, 2.0): 0.4544963646063908,
    (1, 1.0, 4.0): 1.3221644257797085,
    (1, 1.0, 6.0): 2.590507467231405,
    (2, 0.2, 2.0): 0.0,
    (2, 0.2, 4.0): 0.21229897394337982,
    (2, 0.2, 6.0): 1.8122989739433801,
    (2, 0.4, 2.0): 0.0,
    (2, 0.4, 4.0): 0.780406563628794,
    (2, 0.4, 6.0): 1.9809133460377149,
    (2, 1.0, 2.0): 0.33482148240240184,
    (2, 1.0, 4.0): 0.9793110664086135,
    (2, 1.0, 6.0): 1.9809133460377149,
    (4, 0.2, 2.0): 0.0,
    (4, 0.2, 4.0): 0.0,
    (4, 0.2, 6.0): 1.0392743588498807,
    (4, 0.4, 2.0): 0.0,
    (4, 0.4, 4.0): 0.22043136460878826,
    (4, 0.4, 6.0): 1.4204313646087883,
    (4, 1.0, 2.0): 0.2510973603782171,
    (4, 1.0, 4.0): 0.7345431566087339,
    (4, 1.0, 6.0): 1.4922584543883604,
}


def _at_least(got, frozen):
    assert got >= frozen * (1.0 - 1e-10)


@pytest.mark.parametrize("s_th", [0.2, 0.4, 1.0])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_fixed_grid_oracle_matches_generic_oracle(n, s_th):
    sc = baseline_scenario(n_a=n, n_b=n, n_e=n)
    o = fixed_grid_oracle(sc, s_th, fixed_optimal(sc, s_th).rates.r_b + 3.0, grid_points=160)
    _at_least(o.est, FIXED_ORACLE_EST[n, s_th])


@pytest.mark.parametrize("s_th", [0.4, 1.0])
def test_fixed_grid_oracle_matches_generic_oracle_pointing_free(pointing_free, s_th):
    hi = fixed_optimal(pointing_free, s_th).rates.r_b + 3.0
    o = fixed_grid_oracle(pointing_free, s_th, hi, grid_points=160)
    _at_least(o.est, POINTING_FREE_ORACLE_EST[s_th])


# Each solver's grid fallback on the baseline, where the quantity it
# maximises has an interior maximum: the scan is made to find no root, so
# the fallback runs in place of the root.  Frozen from the golden-polish
# fallbacks: the codeword-rate factor (r_b - r_e)(1 - T) at each pinned r_e,
# the pair's throughput, and the adaptive throughput at each c_b.
FALLBACK_RB_FACTOR = {0.5: 2.392787936384054, 1.5: 1.5580350774051082, 3.0: 0.5084410328527138}
FALLBACK_PAIR_EST = 0.617109115228448
FALLBACK_ADAPTIVE_EST = {4.0: 0.9793110664086135, 6.0: 1.9809133460377149}


def _scan_finding(roots):
    """A stand-in for the residual scan's walk that finds ``roots`` and asks
    for no outage."""

    def scan(*args, **kwargs):
        return list(roots)
        yield

    return scan


_no_roots = _scan_finding([])


@pytest.mark.parametrize("r_e", sorted(FALLBACK_RB_FACTOR))
def test_fixed_constrained_rb_grid_fallback_reaches_the_polished_factor(baseline, monkeypatch, r_e):
    root, _ = fixed_constrained_rb(baseline, r_e)
    monkeypatch.setattr(optimize, "_scan_roots", _no_roots)
    optimize._MEMO.clear()
    rb, method = fixed_constrained_rb(baseline, r_e)
    assert method == "grid_oracle"
    t = reliability_outage_approx(bob_link(baseline), baseline.nodes.n_a, rb)[0]
    _at_least((rb - r_e) * (1.0 - t), FALLBACK_RB_FACTOR[r_e])
    assert rb == pytest.approx(root, rel=1e-7, abs=0)


def test_fixed_unconstrained_pair_grid_fallback_reaches_the_polished_est(baseline, monkeypatch):
    root = fixed_unconstrained_pair(baseline)
    monkeypatch.setattr(optimize, "_scan_roots", _no_roots)
    optimize._MEMO.clear()
    o = fixed_unconstrained_pair(baseline)
    assert o.method == "grid_oracle"
    _at_least(o.est, FALLBACK_PAIR_EST)
    assert o.est == _surrogate_est_fixed(baseline, o.rates, SecrecyConstraint(1.0))
    assert o.rates.r_e == pytest.approx(root.rates.r_e, rel=1e-6, abs=0)
    assert o.rates.r_b == pytest.approx(root.rates.r_b, rel=1e-6, abs=0)


@pytest.mark.parametrize("c_b", sorted(FALLBACK_ADAPTIVE_EST))
def test_adaptive_unconstrained_re_grid_fallback_reaches_the_polished_est(baseline, monkeypatch, c_b):
    root, _ = adaptive_unconstrained_re(baseline, c_b)
    monkeypatch.setattr(optimize, "_scan_roots", _no_roots)
    optimize._MEMO.clear()
    r_e, method = adaptive_unconstrained_re(baseline, c_b)
    assert method == "grid_oracle"
    est = _surrogate_est_adaptive(baseline, c_b, r_e, SecrecyConstraint(1.0))
    _at_least(est, FALLBACK_ADAPTIVE_EST[c_b])
    assert r_e == pytest.approx(root, rel=1e-7, abs=0)


@pytest.mark.parametrize("rates", [[1.0, 2.0], [2.0, 1.0]])
def test_adaptive_unconstrained_re_ranks_two_roots_by_the_surrogate_throughput(
    baseline, monkeypatch, rates
):
    # Two slope roots at c_b 4, neither the optimum (1.56): the one with the
    # higher surrogate throughput wins, in either order.  The one natural
    # two-root case known ranks throughputs of 3.6e-18, rounding noise.
    monkeypatch.setattr(optimize, "_scan_roots", _scan_finding(rates))
    ests = [_surrogate_est_adaptive(baseline, 4.0, r, SecrecyConstraint(1.0)) for r in rates]
    assert max(ests) > min(ests) + 0.02
    assert adaptive_unconstrained_re(baseline, 4.0) == (2.0, "fixed_point")


@pytest.mark.parametrize("rates", [[3.0, 5.0], [5.0, 3.0]])
def test_fixed_constrained_rb_ranks_two_roots_by_the_throughput_factor(
    baseline, monkeypatch, rates
):
    # Two residual roots at the pinned r_e = 1, neither the codeword-rate
    # optimum: the one with the larger factor (r_b - r_e)(1 - T), 1.860 at
    # r_b = 3 against 0.190 at r_b = 5, wins in either order.
    monkeypatch.setattr(optimize, "_scan_roots", _scan_finding(rates))
    bob, n_a = bob_link(baseline), baseline.nodes.n_a
    factors = [(rb - 1.0) * (1.0 - reliability_outage_approx(bob, n_a, rb)[0]) for rb in rates]
    assert max(factors) > min(factors) + 1.0
    assert fixed_constrained_rb(baseline, 1.0) == (3.0, "lambert_w")


# At gamma0 1e25 Bob's mean capacity C_b is 74.7, far past the baseline's;
# every rate scan reaches it.  Frozen: the pair's throughput, and the
# codeword-rate factor (r_b - r_e)(1 - T) at the pinned r_e = 1.
HIGH_GAIN_PAIR_EST = 0.844565276320082
HIGH_GAIN_RB_FACTOR = 71.56017189020564


def _rb_factor(sc, r_e, r_b):
    return (r_b - r_e) * (1.0 - reliability_outage_approx(bob_link(sc), sc.nodes.n_a, r_b)[0])


def test_fixed_scheme_roots_at_high_gain():
    sc = baseline_scenario(gamma0=1e25)
    o = fixed_unconstrained_pair(sc)
    assert o.method == "fixed_point"
    assert o.est == HIGH_GAIN_PAIR_EST
    rb, method = fixed_constrained_rb(sc, 1.0)
    assert method == "lambert_w"
    assert _rb_factor(sc, 1.0, rb) == HIGH_GAIN_RB_FACTOR


def test_fixed_scheme_grid_fallbacks_at_high_gain(monkeypatch):
    # Both fixed-scheme fallbacks, forced by a scan that finds no root, over
    # the same rate ranges as the roots of the test above.
    sc = baseline_scenario(gamma0=1e25)
    monkeypatch.setattr(optimize, "_scan_roots", _no_roots)
    o = fixed_unconstrained_pair(sc)
    assert o.method == "grid_oracle"
    _at_least(o.est, HIGH_GAIN_PAIR_EST)
    rb, method = fixed_constrained_rb(sc, 1.0)
    assert method == "grid_oracle"
    _at_least(_rb_factor(sc, 1.0, rb), HIGH_GAIN_RB_FACTOR)


def test_fixed_grid_oracle_all_gated_surface_returns_first_cell(baseline):
    # A ceiling below the outage at every grid r_e gates every cell to zero;
    # the tie goes to the first grid index, (r_e, r_b) = (0, 1e-3), at every
    # level of the zoom.
    hi = 6.0
    s_th = 0.5 * sop_approx(eve_link(baseline), hi)[0]
    o = fixed_grid_oracle(baseline, s_th, hi, grid_points=160)
    assert (o.rates.r_e, o.rates.r_b, o.est) == (0.0, 1e-3, 0.0)


def test_fixed_grid_oracle_makes_one_curve_call_per_kind_and_level(monkeypatch):
    # The command line's fixed oracle at n = 2, s_th = 0.4: each zoom level
    # takes one array call per outage kind, and no other outage call.
    sc = baseline_scenario(n_a=2, n_b=2, n_e=2)
    hi = fixed_optimal(sc, 0.4).rates.r_b + 3.0
    calls = {}
    for name in ("sop_approx", "reliability_outage_approx"):
        kernel = getattr(optimize, name)

        def counted(*args, _kernel=kernel, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _kernel(*args)

        monkeypatch.setattr(optimize, name, counted)
    levels = []
    search = optimize.grid_refine_maximize

    def spy(objective, bounds, grid_points):
        def level(*axes):
            levels.append([ax.size for ax in axes])
            return objective(*axes)

        return search(level, bounds, grid_points)

    monkeypatch.setattr(optimize, "grid_refine_maximize", spy)
    fixed_grid_oracle(sc, 0.4, hi, grid_points=160)
    assert len(levels) >= 2
    assert levels == [[160, 160]] * len(levels)
    per_level = {"sop_approx": len(levels), "reliability_outage_approx": len(levels)}
    assert calls == per_level


def test_grid_refine_maximize_keeps_the_ridge():
    # A narrow ridge along y = 1 sits on a broad hill whose crest in y,
    # y = x + 0.5, moves with x.  The grid's best cell (0.5, 1.0) is on the
    # ridge, and the 5-node grid of every zoom level keeps the best point as
    # its centre node, so the zoom climbs along the ridge to x = 0.625 and
    # never leaves it for the crest at y = 1.125, which lies far lower.
    def f(x, y):
        hill = -((x - 0.75) ** 2) - (y - x - 0.5) ** 2
        return hill + np.exp(-(((y - 1.0) / 0.001) ** 2))

    o = grid_refine_maximize(f, ((0.0, 2.0), (0.0, 2.0)), grid_points=5)
    assert o.rates.r_e == pytest.approx(0.625, abs=1e-6)
    assert o.rates.r_b == pytest.approx(1.0, abs=1e-6)
    assert o.est == f(o.rates.r_e, o.rates.r_b)
    assert o.est > f(0.5, 1.0) + 0.03
    assert f(0.625, 1.125) < o.est - 0.5


@pytest.mark.parametrize("c_b", [2.0, 4.0, 6.0])
@pytest.mark.parametrize("s_th", [0.2, 0.4, 1.0])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_adaptive_grid_oracle_matches_generic_oracle(n, s_th, c_b):
    sc = baseline_scenario(n_a=n, n_b=n, n_e=n)
    o = adaptive_grid_oracle(sc, c_b, s_th)
    _at_least(o.est, ADAPTIVE_ORACLE_EST[n, s_th, c_b])
    assert o.est == _adaptive_objective(sc, c_b, SecrecyConstraint(s_th))(o.rates.r_e)


@pytest.mark.parametrize("scenario", ["baseline", "pointing_free"])
def test_redundancy_table_rows_are_stationary(scenario, request):
    # each row (capacity, rate) of the Monte-Carlo engine's table is the
    # solver's unconstrained optimum at that capacity; the first row, at the
    # table's floor r = 1e-4, lies below the solver's scan
    sc = request.getfixturevalue(scenario)
    caps, rs = montecarlo._adaptive_redundancy_table(sc, 8.0)
    rows = [i for i in range(128, len(rs), 128) if caps[i] < 100.0]
    assert len(rows) >= 10
    for i in rows:
        assert adaptive_unconstrained_re(sc, float(caps[i]))[0] == pytest.approx(rs[i], abs=1e-8)


def test_grid_oracle_recovers_quadratic_maximum():
    o = grid_refine_maximize(lambda x: 1.0 - (x - 1.3) ** 2, (0.0, 3.0))
    assert isinstance(o, Optimum)
    assert o.method == "grid_oracle"
    assert o.rates.r_e == pytest.approx(1.3, abs=1e-6)
    assert o.rates.r_b == o.rates.r_e
    assert o.est == pytest.approx(1.0, abs=1e-12)

    o2 = grid_refine_maximize(
        lambda re_, rb_: 1.0 - (re_ - 0.7) ** 2 - (rb_ - 2.2) ** 2, ((0.0, 2.0), (1.0, 4.0))
    )
    assert o2.rates.r_e == pytest.approx(0.7, abs=1e-6)
    assert o2.rates.r_b == pytest.approx(2.2, abs=1e-6)


def test_grid_oracle_constant_objective_returns_lower_corner():
    o = grid_refine_maximize(lambda x: 1.0, (0.25, 3.0))
    assert o.rates.r_e == 0.25
    o2 = grid_refine_maximize(lambda re_, rb_: 1.0, ((0.5, 2.0), (1.0, 4.0)))
    assert (o2.rates.r_e, o2.rates.r_b) == (0.5, 1.0)


# The scenarios and ceilings on which the grid searches are pinned to their
# walk-driven objectives: each branch of the surrogate kernel (sigma_s 0, the
# recurrence at 0.5, the gamma ratio at 2), weak links (gamma0 0.1 and 1e-3),
# the oracle's missed band (gamma0 1e250), and the two grid-fallback
# scenarios of scripts/compare_outputs.py: the codeword rate's at s_th 0.52
# and the pair's at gamma0 1e25.
PINNED_SEARCHES = [
    ({"sigma_s": 0.0}, 0.4),
    ({"sigma_s": 0.5}, 0.4),
    ({"sigma_s": 2.0}, 0.4),
    ({"gamma0": 0.1}, 0.4),
    ({"gamma0": 1e-3}, 0.4),
    ({"gamma0": 1e250}, 0.4),
    (BATCH_SCENARIOS[-1], 0.52),
    ({"gamma0": 1e25}, 1.0),
]


def _searched(monkeypatch):
    """A list that gains (bounds, grid points, result) per grid search."""
    searches, search = [], optimize.grid_refine_maximize

    def recorded(objective, bounds, grid_points=optimize.GRID_POINTS):
        searches.append((bounds, grid_points, search(objective, bounds, grid_points)))
        return searches[-1][2]

    monkeypatch.setattr(optimize, "grid_refine_maximize", recorded)
    return searches


@pytest.mark.parametrize("overrides, s_th", PINNED_SEARCHES)
def test_grid_searches_equal_their_walk_driven_objectives_to_the_bit(
    monkeypatch, overrides, s_th
):
    # The oracles and the codeword-rate fallback rank plain outage arrays;
    # each returns the Optimum the same search gives on the walk-driven
    # objective, as the command line asks for them.
    sc = baseline_scenario(**overrides)
    eve, bob, n_a = eve_link(sc), bob_link(sc), sc.nodes.n_a
    constraint = SecrecyConstraint(s_th)
    hi = fixed_optimal(sc, s_th).rates.r_b + 3.0
    r_e = re_threshold(sc, s_th)
    search = optimize.grid_refine_maximize
    searches = _searched(monkeypatch)
    got = [fixed_grid_oracle(sc, s_th, hi, grid_points=160), adaptive_grid_oracle(sc, 4.0, s_th)]
    monkeypatch.setattr(optimize, "_scan_roots", _no_roots)
    optimize._MEMO.clear()
    rb, method = fixed_constrained_rb(sc, r_e)
    assert len(searches) == 3
    assert method == "grid_oracle" and rb == searches[-1][2].rates.r_b
    got.append(searches[-1][2])

    def fixed(re, rb):
        return _run(optimize._fixed_est(eve, bob, n_a, re, rb, constraint))

    def adaptive(re):
        return _run(optimize._adaptive_est(eve, 4.0, re, constraint))

    def factor(rb):
        return (rb - r_e) * (1.0 - _run(optimize._rel(bob, n_a, rb))[0])

    want = [
        search(objective, bounds, grid_points)
        for objective, (bounds, grid_points, _) in zip((fixed, adaptive, factor), searches)
    ]
    # repr of a float round-trips, so equal reprs are equal bits
    assert [repr(o) for o in got] == [repr(o) for o in want]


def _recording(objective, nodes):
    """``objective``, appending the nodes of each call to ``nodes``."""

    def recorded(*axes):
        nodes.append([ax.ravel().tolist() for ax in axes])
        return objective(*axes)

    return recorded


@pytest.mark.parametrize(
    "objective, bounds",
    [
        (lambda x: x, (0.0, 1.0)),
        (lambda x: -x, (0.25, 3.0)),
        (lambda x: np.where(x < 0.5, np.nan, x), (0.0, 1.0)),
        (lambda re, rb: re + rb, ((0.0, 2.0), (1.0, 4.0))),
        (lambda re, rb: rb - (re - 0.7) ** 2, ((0.0, 2.0), (1.0, 4.0))),
        (lambda re, rb: np.where(re < rb, re * (4.0 - rb), np.nan), ((0.0, 2.0), (1.0, 4.0))),
    ],
    ids=["1d-top", "1d-bottom", "1d-nan", "2d-corner", "2d-one-axis", "2d-nan"],
)
@pytest.mark.parametrize("grid_points", [5, 160])
def test_grid_search_equals_the_array_held_search_where_a_level_clips(
    objective, bounds, grid_points
):
    # Where the best point lies at a bound, x - step or x + step clips to it
    # at every level; held as floats, the search takes the nodes and returns
    # the bits of the search held as one array per axis.
    got_nodes, want_nodes = [], []
    o = grid_refine_maximize(_recording(objective, got_nodes), bounds, grid_points)
    want = oracles.grid_refine_maximize_arrays(
        _recording(objective, want_nodes), bounds, grid_points, optimize._ZOOM_TOL
    )
    assert repr((o.rates.r_e, o.rates.r_b, o.est)) == repr(want)
    assert len(got_nodes) > 2
    assert got_nodes == want_nodes


# ---------------------------------------------------------------------------
# the optimum's own surrogate throughput
# ---------------------------------------------------------------------------

# The scenarios of scripts/compare_outputs.py where the adaptive slope scan
# finds two roots, and where the adaptive solver rescans the first cell; and
# the scenario of test_fixed_optimal_labels_the_constrained_grid_fallback.
TWO_ROOTS = {
    "sigma_s": 0.0, "n_a": 1, "n_b": 3, "n_e": 4, "cn2": 1.4607508285692493e-15,
    "d_b": 2902.842563086293, "d_e": 2252.7318414869633, "gamma0": 1424.0941040463003,
}
FIRST_CELL = {
    "sigma_s": 0.0, "n_a": 2, "n_b": 3, "n_e": 1, "cn2": 3.18e-16, "d_b": 2206, "d_e": 836,
    "gamma0": 0.0365,
}
CONSTRAINED_GRID = {
    "sigma_s": 0.0, "n_a": 5, "n_b": 2, "n_e": 6, "cn2": 1.36e-16, "d_b": 2124, "d_e": 2264,
    "gamma0": 639,
}

# (scheme, c_b, s_th, method) of each solver path of the baseline, and
# whether its scan is made to find no root.
BASELINE_PATHS = {
    "adaptive-unconstrained": ("adaptive", 4.0, 1.0, "fixed_point", False),
    "adaptive-threshold": ("adaptive", 4.0, 0.2, "threshold", False),
    "adaptive-infeasible": ("adaptive", 0.5, 0.01, "threshold", False),
    "adaptive-grid-fallback": ("adaptive", 4.0, 1.0, "grid_oracle", True),
    "fixed-pair": ("fixed", None, 1.0, "fixed_point", False),
    "fixed-pair-grid-fallback": ("fixed", None, 1.0, "grid_oracle", True),
    "fixed-lambert-w": ("fixed", None, 0.3, "lambert_w", False),
}

OPTIMUM_PATHS = [
    *(
        pytest.param({"sigma_s": sigma_s}, *path, id=f"{name}-sigma{sigma_s}")
        for name, path in BASELINE_PATHS.items()
        for sigma_s in (0.0, 0.5, 2.0)
    ),
    pytest.param(TWO_ROOTS, "adaptive", 0.5, 1.0, "fixed_point", False, id="adaptive-two-roots"),
    pytest.param(
        FIRST_CELL, "adaptive", 2.98, 0.656, "fixed_point", False, id="adaptive-first-cell"
    ),
    pytest.param(CONSTRAINED_GRID, "fixed", None, 0.52, "grid_oracle", False, id="fixed-grid-rate"),
]


@pytest.mark.parametrize("overrides, scheme, c_b, s_th, method, forced", OPTIMUM_PATHS)
def test_optimum_carries_the_bits_of_its_surrogate_throughput(
    monkeypatch, overrides, scheme, c_b, s_th, method, forced
):
    # Each solver path reports the surrogate throughput at the rates it
    # returns, gated at its ceiling, with the bits of float calls there.
    sc = baseline_scenario(**overrides)
    if forced:
        monkeypatch.setattr(optimize, "_scan_roots", _no_roots)
    constraint = SecrecyConstraint(s_th)
    if scheme == "adaptive":
        o = adaptive_optimal(sc, c_b, s_th)
        # r_e = c_b where no rate up to c_b meets the ceiling
        assert (o.rates.r_e == c_b) == (re_threshold(sc, s_th) > c_b)
        want = _surrogate_est_adaptive(sc, c_b, o.rates.r_e, constraint)
    else:
        o = fixed_optimal(sc, s_th)
        want = _surrogate_est_fixed(sc, o.rates, constraint)
    assert o.method == method
    assert type(o.est) is float
    assert o.est.hex() == want.hex()
