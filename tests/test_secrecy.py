"""Closed-form outage and throughput metric tests.

Frozen probability literals were computed by this package and are pinned
here at 1e-10 relative; their correctness is established independently by
the Monte-Carlo agreement tests and the acceptance gate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fso_secrecy import channel, montecarlo, secrecy
from fso_secrecy.channel import baseline_scenario
from fso_secrecy.secrecy import (
    EstReport,
    RatePair,
    SecrecyConstraint,
    est_adaptive,
    est_fixed,
    reliability_outage,
    reliability_outage_approx,
    sop,
    sop_approx,
)

UNCONSTRAINED = SecrecyConstraint(1.0)


# ---------------------------------------------------------------------------
# rate and constraint records
# ---------------------------------------------------------------------------


def test_rate_pair_accessor_and_validation():
    rates = RatePair(r_b=3.4, r_e=1.25)
    assert rates.secrecy_rate == pytest.approx(2.15, rel=1e-15)
    assert RatePair(2.0, 2.0).secrecy_rate == 0.0
    with pytest.raises(ValueError):
        RatePair(r_b=1.0, r_e=1.5)
    with pytest.raises(ValueError):
        RatePair(r_b=1.0, r_e=-0.1)


def test_secrecy_constraint_validation():
    assert SecrecyConstraint().s_th == 1.0
    assert SecrecyConstraint(0.2).s_th == 0.2
    with pytest.raises(ValueError):
        SecrecyConstraint(0.0)
    with pytest.raises(ValueError):
        SecrecyConstraint(1.0 + 1e-12)


# ---------------------------------------------------------------------------
# secrecy outage probability
# ---------------------------------------------------------------------------


def test_sop_frozen_values(baseline):
    table = {
        0.5: 0.7851705350626067,
        1.0: 0.6967043128367068,
        2.0: 0.533857910240539,
        4.0: 0.15685256187788732,
    }
    for r_e, want in table.items():
        assert sop(baseline, r_e) == pytest.approx(want, rel=1e-10)


def test_sop_boundaries(baseline):
    assert sop(baseline, 0.0) == 1.0
    assert sop(baseline, 20.0) <= 1e-6


def test_sop_strictly_decreasing(baseline):
    grid = np.linspace(0.0, 6.0, 200)
    vals = [sop(baseline, float(r)) for r in grid]
    assert all(hi < lo + 1e-12 for lo, hi in zip(vals, vals[1:]))


def test_sop_pointing_free_uses_turbulence_kernel(pointing_free):
    # with no beam wander the outage reduces to the turbulence-only tail
    link = channel.eve_link(pointing_free)
    thr = channel.snr_threshold(pointing_free.nodes, link.pointing, 1.5, "eve").value
    want = 1.0 - channel.gg_cdf(link.turb.alpha, link.beta_agg, thr)
    assert sop(pointing_free, 1.5) == pytest.approx(want, rel=1e-15)


def test_sop_approx_boundaries_and_monotone(baseline):
    assert sop_approx(baseline, 0.0) == 1.0
    grid = np.linspace(0.0, 6.0, 100)
    vals = [sop_approx(baseline, float(r)) for r in grid]
    assert all(hi < lo + 1e-12 for lo, hi in zip(vals, vals[1:]))


def test_sop_approx_frozen_values(baseline):
    assert sop_approx(baseline, 0.5) == pytest.approx(0.7809868927504382, rel=1e-10)
    assert sop_approx(baseline, 2.0) == pytest.approx(0.5250331356993307, rel=1e-10)


def test_sop_approx_within_two_percent(baseline):
    for r_e in np.linspace(0.1, 6.0, 40):
        assert abs(sop_approx(baseline, float(r_e)) - sop(baseline, float(r_e))) <= 0.02


# ---------------------------------------------------------------------------
# reliability outage
# ---------------------------------------------------------------------------


def test_reliability_outage_frozen_values():
    table = {1: 0.23803262174987164, 2: 0.00037513622873844565, 4: 3.2195968712111515e-14}
    for n, want in table.items():
        scn = baseline_scenario(n_a=n, n_b=n)
        assert reliability_outage(scn, 3.0) == pytest.approx(want, rel=1e-10)


def test_reliability_outage_boundary(baseline):
    assert reliability_outage(baseline, 0.0) == 0.0
    assert reliability_outage_approx(baseline, 0.0) == 0.0


def test_selection_squares_single_beam_outage():
    # two transmit beams with selection square the single-beam outage
    one = baseline_scenario(n_a=1, n_b=1)
    two = baseline_scenario(n_a=2, n_b=1)
    for r_b in (1.5, 2.5, 3.5):
        p1 = reliability_outage(one, r_b)
        assert abs(reliability_outage(two, r_b) - p1 * p1) <= 1e-10
        q1 = reliability_outage_approx(one, r_b)
        assert abs(reliability_outage_approx(two, r_b) - q1 * q1) <= 1e-10


def test_reliability_outage_strictly_increasing(baseline):
    grid = np.linspace(0.0, 6.0, 200)
    vals = [reliability_outage(baseline, float(r)) for r in grid]
    assert all(hi > lo - 1e-12 for lo, hi in zip(vals, vals[1:]))
    assert vals[-1] > vals[1] > 0.0 or vals[1] == 0.0


@given(
    log_cn2=st.floats(-18.0, -12.3),
    sigma_s=st.one_of(st.just(0.0), st.floats(0.03, 5.0)),
    n_e=st.integers(1, 8),
    n_b=st.integers(1, 8),
    d_e=st.floats(100.0, 5000.0),
    d_b=st.floats(100.0, 5000.0),
    rate=st.floats(0.0, 8.0),
    dr=st.floats(1e-6, 0.5),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_exact_outages_are_probabilities(log_cn2, sigma_s, n_e, n_b, d_e, d_b, rate, dr):
    # weak turbulence, narrow jitter and short links push the paper's 1F2
    # expansions past the double range; the exact outages must still be
    # probabilities, and monotone in the rate
    sc = baseline_scenario(
        cn2=10.0**log_cn2, sigma_s=sigma_s, n_e=n_e, n_b=n_b, d_e=d_e, d_b=d_b
    )
    s, s_up = sop.__wrapped__(sc, rate), sop.__wrapped__(sc, rate + dr)
    q, q_up = reliability_outage.__wrapped__(sc, rate), reliability_outage.__wrapped__(sc, rate + dr)
    assert 0.0 <= s <= 1.0
    assert 0.0 <= q <= 1.0
    assert s_up <= s + 1e-15
    assert q_up >= q - 1e-15


def test_reliability_outage_approx_tracks_exact(baseline):
    # no formal error bound is claimed for the legitimate link's surrogate;
    # it only has to be close enough to steer the optimizer
    for r_b in (2.0, 3.0, 4.0):
        gap = abs(reliability_outage_approx(baseline, r_b) - reliability_outage(baseline, r_b))
        assert gap <= 0.05


# ---------------------------------------------------------------------------
# memoization of the per-rate outage functions
# ---------------------------------------------------------------------------

OUTAGE_FNS = [sop, sop_approx, reliability_outage, reliability_outage_approx]
memoized = pytest.mark.parametrize("fn", OUTAGE_FNS, ids=lambda fn: fn.__name__)


@memoized
@pytest.mark.parametrize("scenario", ["baseline", "pointing_free"])
def test_outage_memo_equals_uncached(fn, scenario, request):
    sc = request.getfixturevalue(scenario)
    fn.cache_clear()
    for rate in (0.0, 0.5, 1.5, 3.0, 5.5):
        want = fn.__wrapped__(sc, rate)
        assert fn(sc, rate).hex() == want.hex()  # miss
        assert fn(sc, rate).hex() == want.hex()  # hit
    assert fn.cache_info().misses == 5
    assert fn.cache_info().hits == 5


@memoized
def test_outage_memo_equal_scenario_is_a_hit(fn):
    fn.cache_clear()
    first = fn(baseline_scenario(), 1.5)
    before = fn.cache_info()
    assert fn(baseline_scenario(), 1.5) == first
    after = fn.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses


@memoized
def test_outage_memo_does_not_cache_errors(fn, baseline):
    fn.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError):
            fn(baseline, -0.5)
    assert fn.cache_info().currsize == 0


@memoized
def test_outage_memo_is_bounded(fn, baseline):
    fn.cache_clear()
    assert fn.cache_info().maxsize == secrecy.OUTAGE_CACHE_SIZE
    for i in range(secrecy.OUTAGE_CACHE_SIZE + 50):
        fn(baseline, 0.5 + 1e-3 * i)
    assert fn.cache_info().currsize <= secrecy.OUTAGE_CACHE_SIZE


# ---------------------------------------------------------------------------
# adaptive-scheme throughput
# ---------------------------------------------------------------------------


def test_est_adaptive_zero_secrecy_rate(baseline):
    rep = est_adaptive(baseline, 4.0, 4.0, UNCONSTRAINED)
    assert rep.est == 0.0
    assert rep.reliability_factor == 1.0


def test_est_adaptive_unconstrained_never_gates(baseline):
    for r_e in np.linspace(0.0, 4.0, 30):
        rep = est_adaptive(baseline, 4.0, float(r_e), UNCONSTRAINED)
        assert rep.constraint_met
        assert rep.est == pytest.approx((4.0 - r_e) * rep.secrecy_factor, rel=1e-15)


def test_est_adaptive_argument_errors(baseline):
    with pytest.raises(ValueError):
        est_adaptive(baseline, 4.0, 4.5, UNCONSTRAINED)
    with pytest.raises(ValueError):
        est_adaptive(baseline, 4.0, -0.1, UNCONSTRAINED)


def test_est_adaptive_single_interior_maximum(baseline):
    grid = np.linspace(0.0, 4.0, 200)
    vals = [est_adaptive(baseline, 4.0, float(r), UNCONSTRAINED).est for r in grid]
    k = int(np.argmax(vals))
    assert 0 < k < len(grid) - 1
    assert all(vals[i + 1] > vals[i] - 1e-12 for i in range(k))
    assert all(vals[i + 1] < vals[i] + 1e-12 for i in range(k, len(grid) - 1))


def test_est_adaptive_gating(baseline):
    constraint = SecrecyConstraint(0.4)
    s_lo = sop(baseline, 2.6)
    assert s_lo > 0.4
    gated = est_adaptive(baseline, 4.0, 2.6, constraint)
    assert gated.est == 0.0
    assert not gated.constraint_met
    assert gated.sop == pytest.approx(s_lo, rel=1e-15)
    assert gated.secrecy_factor == pytest.approx(1.0 - s_lo, rel=1e-15)

    s_hi = sop(baseline, 3.2)
    assert s_hi < 0.4
    open_ = est_adaptive(baseline, 4.0, 3.2, constraint)
    assert open_.constraint_met
    assert open_.est == pytest.approx((4.0 - 3.2) * (1.0 - s_hi), rel=1e-14)


def test_est_adaptive_approx_flavor(baseline):
    rep = est_adaptive(baseline, 4.0, 1.5, UNCONSTRAINED, use_approx=True)
    assert rep.sop == pytest.approx(sop_approx(baseline, 1.5), rel=1e-15)
    assert rep.est == pytest.approx((4.0 - 1.5) * (1.0 - rep.sop), rel=1e-15)


# ---------------------------------------------------------------------------
# fixed-rate throughput
# ---------------------------------------------------------------------------


def test_est_fixed_reference_point(baseline):
    rep = est_fixed(baseline, RatePair(3.4, 1.2558717), UNCONSTRAINED)
    assert rep.est == pytest.approx(0.6139374525791358, rel=1e-10)
    assert rep.reliability_factor == pytest.approx(0.8303853022697556, rel=1e-10)
    assert rep.secrecy_factor == pytest.approx(0.3448209985714641, rel=1e-10)
    assert rep.est == pytest.approx(
        (3.4 - 1.2558717) * rep.reliability_factor * rep.secrecy_factor, rel=1e-15
    )


def test_est_fixed_diagonal_is_zero(baseline):
    for r in (0.5, 1.5, 3.0):
        assert est_fixed(baseline, RatePair(r, r), UNCONSTRAINED).est == 0.0


def test_est_fixed_collapses_at_large_codeword_rate(baseline):
    rep = est_fixed(baseline, RatePair(25.0, 1.0), UNCONSTRAINED)
    assert rep.est <= 1e-6
    assert rep.reliability_factor <= 1e-6


def test_est_fixed_never_negative(baseline):
    for r_b in np.linspace(0.2, 6.0, 15):
        for frac in (0.0, 0.3, 0.8, 1.0):
            rep = est_fixed(baseline, RatePair(float(r_b), float(r_b) * frac), UNCONSTRAINED)
            assert rep.est >= 0.0


def test_est_fixed_gating(baseline):
    constraint = SecrecyConstraint(0.3)
    rates = RatePair(3.0, 1.0)
    s = sop(baseline, 1.0)
    assert s > 0.3
    rep = est_fixed(baseline, rates, constraint)
    assert rep.est == 0.0
    assert not rep.constraint_met
    # the decomposition is still reported for diagnostics
    assert rep.sop == pytest.approx(s, rel=1e-15)
    assert rep.reliability_factor == pytest.approx(1.0 - reliability_outage(baseline, 3.0), rel=1e-14)


def test_est_fixed_approx_flavor(baseline):
    rep = est_fixed(baseline, RatePair(3.4, 1.25), UNCONSTRAINED, use_approx=True)
    assert rep.sop == pytest.approx(sop_approx(baseline, 1.25), rel=1e-15)
    assert rep.reliability_factor == pytest.approx(
        1.0 - reliability_outage_approx(baseline, 3.4), rel=1e-15
    )


def test_est_report_is_immutable(baseline):
    rep = est_fixed(baseline, RatePair(3.0, 1.0), UNCONSTRAINED)
    assert isinstance(rep, EstReport)
    with pytest.raises(Exception):
        rep.est = 1.0


# ---------------------------------------------------------------------------
# adaptive dominance over the fixed-rate scheme, realization by realization
# ---------------------------------------------------------------------------


def test_adaptive_dominates_fixed_per_realization(baseline):
    # At any realized capacity, tracking the channel and reusing the fixed
    # scheme's redundancy rate already delivers at least the fixed scheme's
    # conditional throughput; the adaptive optimum can only do better.
    re_star, rb_star = 1.2558717, 3.3999996
    secrecy_factor = 1.0 - sop(baseline, re_star)
    scale = baseline.nodes.gamma0 * channel.bob_link(baseline).pointing.a0
    rng = np.random.default_rng(np.random.Philox(7))
    caps = np.log2(1.0 + scale * montecarlo.sample_bob_irradiance(baseline, rng, 4000))
    for c_b in caps:
        lhs = est_adaptive(baseline, float(c_b), min(re_star, float(c_b)), UNCONSTRAINED).est
        rhs = (rb_star - re_star) * secrecy_factor if c_b >= rb_star else 0.0
        assert lhs >= rhs - 1e-9
