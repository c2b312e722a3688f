"""Closed-form outage and throughput metric tests.

Frozen probability literals were computed by this package and are pinned
here at 1e-10 relative; their correctness is established independently by
the Monte-Carlo agreement tests and the acceptance gate.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fso_secrecy import channel, montecarlo, secrecy
from fso_secrecy.channel import baseline_scenario, bob_link, eve_link
from fso_secrecy.secrecy import (
    RatePair,
    SecrecyConstraint,
    est_adaptive,
    est_fixed,
    est_from_outages,
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
    assert rates.secrecy_rate == pytest.approx(2.15, rel=1e-15, abs=0)
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
        assert sop(baseline, r_e)[0] == pytest.approx(want, rel=1e-10)


def test_sop_boundaries(baseline):
    assert sop(baseline, 0.0)[0] == 1.0
    assert sop(baseline, 20.0)[0] <= 1e-6


def test_sop_strictly_decreasing(baseline):
    grid = np.linspace(0.0, 6.0, 200)
    vals = [sop(baseline, float(r))[0] for r in grid]
    assert all(hi < lo + 1e-12 for lo, hi in zip(vals, vals[1:]))


def test_sop_pointing_free_uses_turbulence_kernel(pointing_free):
    # with no beam wander the outage reduces to the turbulence-only tail
    link = channel.eve_link(pointing_free)
    thr = secrecy.rate_threshold(1.5, link.gain)
    want = 1.0 - channel.gg_cdf(link.turb.alpha, link.beta_agg, thr)[0]
    assert sop(pointing_free, 1.5)[0] == pytest.approx(want, rel=1e-15, abs=0)


def test_sop_approx_boundaries_and_monotone(baseline):
    assert sop_approx(eve_link(baseline), 0.0)[0] == 1.0
    grid = np.linspace(0.0, 6.0, 100)
    vals = [sop_approx(eve_link(baseline), float(r))[0] for r in grid]
    assert all(hi < lo + 1e-12 for lo, hi in zip(vals, vals[1:]))


def test_sop_approx_frozen_values(baseline):
    assert sop_approx(eve_link(baseline), 0.5)[0] == pytest.approx(0.7809868927504382, rel=1e-10)
    assert sop_approx(eve_link(baseline), 2.0)[0] == pytest.approx(0.5250331356993307, rel=1e-10)


def test_sop_approx_within_two_percent(baseline):
    for r_e in np.linspace(0.1, 6.0, 40):
        gap = sop_approx(eve_link(baseline), float(r_e))[0] - sop(baseline, float(r_e))[0]
        assert abs(gap) <= 0.02


# ---------------------------------------------------------------------------
# reliability outage
# ---------------------------------------------------------------------------


def test_reliability_outage_frozen_values():
    table = {1: 0.23803262174987164, 2: 0.00037513622873844565, 4: 3.2195968712111515e-14}
    for n, want in table.items():
        scn = baseline_scenario(n_a=n, n_b=n)
        assert reliability_outage(scn, 3.0)[0] == pytest.approx(want, rel=1e-10, abs=0)


def test_reliability_outage_boundary(baseline):
    assert reliability_outage(baseline, 0.0)[0] == 0.0
    assert reliability_outage_approx(bob_link(baseline), baseline.nodes.n_a, 0.0)[0] == 0.0


def test_selection_squares_single_beam_outage():
    # two transmit beams with selection square the single-beam outage
    one = baseline_scenario(n_a=1, n_b=1)
    two = baseline_scenario(n_a=2, n_b=1)
    for r_b in (1.5, 2.5, 3.5):
        p1 = reliability_outage(one, r_b)[0]
        assert abs(reliability_outage(two, r_b)[0] - p1 * p1) <= 1e-10
        q1 = reliability_outage_approx(bob_link(one), one.nodes.n_a, r_b)[0]
        assert abs(reliability_outage_approx(bob_link(two), two.nodes.n_a, r_b)[0] - q1 * q1) <= 1e-10


def test_reliability_outage_strictly_increasing(baseline):
    grid = np.linspace(0.0, 6.0, 200)
    vals = [reliability_outage(baseline, float(r))[0] for r in grid]
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
    s, s_up = sop(sc, rate)[0], sop(sc, rate + dr)[0]
    q, q_up = reliability_outage(sc, rate)[0], reliability_outage(sc, rate + dr)[0]
    assert 0.0 <= s <= 1.0
    assert 0.0 <= q <= 1.0
    assert s_up <= s + 1e-15
    assert q_up >= q - 1e-15


def test_reliability_outage_approx_tracks_exact(baseline):
    # no formal error bound is claimed for the legitimate link's surrogate;
    # it only has to be close enough to steer the optimizer
    for r_b in (2.0, 3.0, 4.0):
        t = reliability_outage_approx(bob_link(baseline), baseline.nodes.n_a, r_b)[0]
        gap = abs(t - reliability_outage(baseline, r_b)[0])
        assert gap <= 0.05


# ---------------------------------------------------------------------------
# surrogate outages on rate arrays
# ---------------------------------------------------------------------------

# sigma_s 0 has no pointing loss; at 0.5 k_ap - xi**2 < 0, which takes the
# pointing term's continued fraction and recurrence; at 2 it is positive.
SURROGATE_SIGMAS = [0.0, 0.5, 2.0]


def _assert_float_calls_equal_array_elements(sc, rates):
    """Each float call of an outage of ``sc``, exact or surrogate, returns two
    numpy floats with the bits of the matching elements of one array call:
    outage and slope."""
    eve, bob, n_a = eve_link(sc), bob_link(sc), sc.nodes.n_a
    outages = (
        lambda r: sop(sc, r),
        lambda r: reliability_outage(sc, r),
        lambda r: sop_approx(eve, r),
        lambda r: reliability_outage_approx(bob, n_a, r),
    )
    arrays = [outage(np.array(rates)) for outage in outages]
    for i, r in enumerate(rates):
        for outage, want in zip(outages, arrays):
            got = outage(float(r))
            assert all(type(v) is np.float64 for v in got)
            assert [v.hex() for v in got] == [float(w[i]).hex() for w in want], r


@pytest.mark.parametrize("sigma_s", SURROGATE_SIGMAS)
def test_surrogate_outage_arrays_equal_scalar_calls_to_the_bit(sigma_s):
    sc = baseline_scenario(sigma_s=sigma_s)
    rates = np.concatenate([[0.0], np.linspace(1e-4, 8.0, 240)])
    _assert_float_calls_equal_array_elements(sc, rates)


# sigma_s 0.3 puts xi**2 = 17.4 past k_ap - 10 at every n, so the pointing
# term takes its continued fraction; at 0.5, k_ap - xi**2 lies in (-10, 0)
# and thresholds below k_ap take the recurrence.
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("sigma_s", [2.0, 0.0, 0.3, 0.5])
def test_bound_surrogate_kernel_equals_the_curve_elements_to_the_bit(sigma_s, n):
    sc = baseline_scenario(sigma_s=sigma_s, n_a=n, n_b=n, n_e=n)
    rates = [0.0, 1e-17, 1e-3, 0.3, 1.0, 2.5, 4.0, 8.0, 20.0]
    _assert_float_calls_equal_array_elements(sc, rates)


def test_bound_surrogate_kernel_equals_the_curve_where_the_slope_overflows():
    # On a link of gain 6.4e-303 the slope at rate 1e-320 passes the double
    # range and reads -inf; the outage is still a plain float.
    sc = baseline_scenario(gamma0=1e-300)
    rates = [0.0, 1e-320, 1e-310, 1e-300, 1e-17, 1.0]
    assert sop_approx(eve_link(sc), np.array(rates))[1][1] == -math.inf
    _assert_float_calls_equal_array_elements(sc, rates)


def test_clamp_counter_counts_a_scalar_call_as_a_one_element_array():
    # A log-gamma ratio raised by 5 inflates the pointing term until the
    # surrogate CDF overshoots 1 and is clamped.
    link = channel.eve_link(baseline_scenario())
    over = dataclasses.replace(link.surrogate, log_ratio=link.surrogate.log_ratio + 5.0)
    link = dataclasses.replace(link, surrogate=over)
    channel.reset_clamp_events()
    assert sop_approx(link, 1.0)[0] == 0.0
    assert channel.clamp_event_count() == 1
    assert sop_approx(link, np.array([1.0]))[0].tolist() == [0.0]
    assert channel.clamp_event_count() == 2
    channel.reset_clamp_events()


# The exact and the surrogate curve of each outage, as functions of a
# scenario and rates.  The gamma densities in their slopes take shapes below
# 10 here, where the log-domain form keeps about 1e-15 relative accuracy
# (see channel._log_gamma_density); the tolerances hold in that range.
SOP_CURVES = {"sop": sop, "sop_approx": lambda sc, r: sop_approx(eve_link(sc), r)}
RELIABILITY_CURVES = {
    "reliability_outage": reliability_outage,
    "reliability_outage_approx": lambda sc, r: reliability_outage_approx(
        bob_link(sc), sc.nodes.n_a, r
    ),
}


@pytest.mark.parametrize("curve", SOP_CURVES.values(), ids=SOP_CURVES.keys())
@pytest.mark.parametrize("sigma_s", SURROGATE_SIGMAS)
def test_sop_slopes_match_central_differences(sigma_s, curve):
    sc = baseline_scenario(sigma_s=sigma_s, n_e=2)
    rates = np.linspace(0.2, 6.0, 30)
    h = 1e-5
    _, slope = curve(sc, rates)
    diff = (curve(sc, rates + h)[0] - curve(sc, rates - h)[0]) / (2.0 * h)
    assert np.allclose(slope, diff, rtol=1e-6, atol=1e-9)
    assert np.all(slope < 0.0)


@pytest.mark.parametrize("curve", RELIABILITY_CURVES.values(), ids=RELIABILITY_CURVES.keys())
@pytest.mark.parametrize("n_a", [1, 2, 4])
@pytest.mark.parametrize("sigma_s", SURROGATE_SIGMAS)
def test_reliability_outage_slopes_match_central_differences(sigma_s, n_a, curve):
    sc = baseline_scenario(sigma_s=sigma_s, n_a=n_a)
    rates = np.linspace(0.2, 6.0, 30)
    h = 1e-5
    _, slope = curve(sc, rates)
    diff = (curve(sc, rates + h)[0] - curve(sc, rates - h)[0]) / (2.0 * h)
    assert np.allclose(slope, diff, rtol=1e-6, atol=1e-9)
    assert np.all(slope > 0.0)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
@pytest.mark.parametrize("sigma_s", [0.0, 0.5, 2.0])
def test_exact_slopes_match_richardson_differences(sigma_s, n):
    # The 4-point difference at h = 1e-4 has a truncation error of order
    # h**4; where |slope| > 1e-3 the largest relative gap over this grid was
    # 1.07e-9.  The exact kernels' gamma density takes shapes 5.5 to 6.1.
    sc = baseline_scenario(sigma_s=sigma_s, n_a=n, n_b=n, n_e=n)
    rates = np.linspace(0.2, 7.0, 200)
    h = 1e-4
    for outage in (sop, reliability_outage):

        def value(r):
            return outage(sc, r)[0]

        near = value(rates + h) - value(rates - h)
        far = value(rates + 2 * h) - value(rates - 2 * h)
        diff = (8.0 * near - far) / (12.0 * h)
        _, slope = outage(sc, rates)
        steep = np.abs(slope) > 1e-3
        assert steep.sum() >= 40
        np.testing.assert_allclose(slope[steep], diff[steep], rtol=2e-9, atol=0)


@pytest.mark.parametrize(
    ("cn2", "table"),
    [
        # k_ap = 6.7e11: the old closed form returned a CDF of exactly one
        # past x / theta_ap = 600, an outage of 0.0 at every rate here
        (1e-30, {1.0: 0.714355, 2.0: 0.560950, 3.0: 0.388359}),
        # k_ap = 5,714: Gamma(k_ap) overflowed, a raw OverflowError
        (1e-10, {0.5: 0.797663, 1.0: 0.714342, 2.0: 0.560929}),
    ],
)
def test_sop_approx_at_vanishing_turbulence(cn2, table):
    sc = baseline_scenario(cn2=cn2)
    le = channel.eve_link(sc)
    for r_e, want in table.items():
        got = sop_approx(eve_link(sc), r_e)[0]
        x = secrecy.rate_threshold(r_e, le.gain)
        sur = le.surrogate
        mixture = 1.0 - oracles.surrogate_cdf_mixture(sur.k, sur.theta, le.pointing.xi, x)
        assert got == pytest.approx(want, abs=1e-6)
        assert got == pytest.approx(mixture, abs=1e-6)
        # the surrogate gap to the exact outage is about 0.004 to 0.008
        assert abs(got - sop(sc, r_e)[0]) <= 0.01


@given(
    log_cn2=st.floats(-30.0, -10.0),
    sigma_s=st.one_of(st.just(0.0), st.floats(0.03, 5.0)),
    n_a=st.integers(1, 8),
    n_b=st.integers(1, 8),
    n_e=st.integers(1, 8),
    d_e=st.floats(100.0, 5000.0),
    d_b=st.floats(100.0, 5000.0),
    eps_share=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
    rates=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=20),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_surrogate_outages_are_monotone_probabilities(
    log_cn2, sigma_s, n_a, n_b, n_e, d_e, d_b, eps_share, rates
):
    # epsilon is drawn as a share of the largest value the moment bracket of
    # both links allows
    sc = baseline_scenario(
        cn2=10.0**log_cn2, sigma_s=sigma_s, n_a=n_a, n_b=n_b, n_e=n_e, d_e=d_e, d_b=d_b
    )
    limit = math.inf
    for d, n in ((d_b, n_b), (d_e, n_e)):
        tp = channel.turbulence_params(sc.geometry, d)
        a, b = tp.alpha, tp.beta_single * n
        limit = min(limit, (b + 1.0) * (a + 1.0) / (b * a) - 1.0)
    sc = dataclasses.replace(sc, epsilon=eps_share * limit)
    r = np.sort(np.array(rates))
    s, _ = sop_approx(eve_link(sc), r)
    t = reliability_outage_approx(bob_link(sc), sc.nodes.n_a, r)[0]
    assert np.all((0.0 <= s) & (s <= 1.0))
    assert np.all((0.0 <= t) & (t <= 1.0))
    assert np.all(np.diff(s) <= 1e-15)
    assert np.all(np.diff(t) >= 0.0)


def test_clamp_counter_counts_array_elements():
    channel.reset_clamp_events()
    got = channel._clamp_prob(np.array([1.5, -0.5, 0.5, 1.0 + 1e-12, 1.0 + 2e-9]))
    assert got.tolist() == [1.0, 0.0, 0.5, 1.0, 1.0]
    assert channel.clamp_event_count() == 3
    channel.reset_clamp_events()


# ---------------------------------------------------------------------------
# exact outages on rate arrays, and the rate domain
# ---------------------------------------------------------------------------

EXACT_RATES = [0.0, 1e-12, 0.3, 1.0, 2.0, 3.5, 6.0]


@pytest.mark.parametrize(
    "overrides",
    [
        {"sigma_s": 0.0},
        # xi**2 = 6.26 tops the smaller shape 6.13: the pointing term takes
        # its a <= 0 branch (continued fraction and recurrence)
        {"sigma_s": 0.5},
        {"sigma_s": 2.0},
        {"n_a": 8, "n_b": 8, "n_e": 8},
        {"cn2": 1e-30},
    ],
    ids=["sigma0", "xi2_above_k", "sigma2", "n8", "cn2_1e-30"],
)
def test_exact_outage_arrays_equal_scalar_calls_to_the_bit(overrides):
    sc = baseline_scenario(**overrides)
    rates = np.array(EXACT_RATES)
    for outage in (sop, reliability_outage):
        assert all(v.shape == rates.shape for v in outage(sc, rates))
    _assert_float_calls_equal_array_elements(sc, EXACT_RATES)


@pytest.mark.parametrize(
    "outage",
    [
        sop,
        reliability_outage,
        # the surrogate outages take the link
        lambda sc, r: sop_approx(eve_link(sc), r),
        lambda sc, r: reliability_outage_approx(bob_link(sc), sc.nodes.n_a, r),
    ],
    ids=["sop", "reliability_outage", "sop_approx", "reliability_outage_approx"],
)
def test_outages_reject_negative_rates(baseline, outage):
    with pytest.raises(ValueError, match="non-negative"):
        outage(baseline, -0.5)
    for rates in ([-0.5], [1.0, 2.0, -1e-300], [[0.5, -2.0]]):
        with pytest.raises(ValueError, match="non-negative"):
            outage(baseline, np.array(rates))


@pytest.mark.parametrize("rate", [1024.0, 1100.0, math.inf, math.nan])
def test_outages_reject_rates_where_two_to_the_rate_overflows(baseline, rate):
    # From rate 1024 on 2**rate overflows a double: the closed forms returned
    # NaN there, with RuntimeWarnings, and estimate_sop an outage of 0.
    eve, bob, n_a = eve_link(baseline), bob_link(baseline), baseline.nodes.n_a
    rates = np.array([1.0, rate])
    sim = montecarlo.SimConfig(trials=10)
    calls = [
        lambda: sop(baseline, rate),
        lambda: sop(baseline, rates),
        lambda: reliability_outage(baseline, rate),
        lambda: reliability_outage(baseline, rates),
        lambda: sop_approx(eve, rate),
        lambda: sop_approx(eve, rates),
        lambda: reliability_outage_approx(bob, n_a, rate),
        lambda: reliability_outage_approx(bob, n_a, rates),
        lambda: montecarlo.estimate_sop(baseline, rate, sim),
        lambda: montecarlo.estimate_sop(baseline, rates.tolist(), sim),
        lambda: montecarlo.estimate_reliability_outage(baseline, rate, sim),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="below 1024"):
            call()


def test_outages_take_the_largest_rate_of_the_domain(baseline):
    # The last double below 1024 keeps 2**rate finite: the outages are 0 and 1.
    r = math.nextafter(1024.0, 0.0)
    eve, bob = eve_link(baseline), bob_link(baseline)
    assert sop(baseline, r)[0] == sop_approx(eve, r)[0] == 0.0
    assert reliability_outage(baseline, r)[0] == reliability_outage_approx(bob, 2, r)[0] == 1.0
    assert sop_approx(eve, np.array([r]))[0].tolist() == [0.0]
    assert reliability_outage_approx(bob, 2, np.array([r]))[0].tolist() == [1.0]
    assert montecarlo.estimate_sop(baseline, r, montecarlo.SimConfig(trials=1000)).count == 0


def test_outages_at_an_infinite_threshold():
    # At gamma0 0.1 the links' SNR gains are below 1: at rate 1023.9 the
    # threshold is inf and its slope in the rate passes the double range.
    # The outages are 0 and 1 and the slopes 0, not NaN, with no warning.
    sc = baseline_scenario(gamma0=0.1)
    eve, bob, r = eve_link(sc), bob_link(sc), 1023.9
    assert sop(sc, r)[0] == sop_approx(eve, r)[0] == 0.0
    assert reliability_outage(sc, r)[0] == reliability_outage_approx(bob, 2, r)[0] == 1.0
    assert sop(sc, r)[1] == reliability_outage(sc, r)[1] == 0.0
    assert sop_approx(eve, r)[1] == reliability_outage_approx(bob, 2, r)[1] == 0.0
    rates = np.array([1.0, r])
    assert sop(sc, rates)[1][1] == reliability_outage(sc, rates)[1][1] == 0.0
    assert sop_approx(eve, rates)[1][1] == 0.0
    assert reliability_outage_approx(bob, 2, rates)[1][1] == 0.0


# ---------------------------------------------------------------------------
# adaptive-scheme throughput
# ---------------------------------------------------------------------------


def test_est_adaptive_zero_secrecy_rate(baseline):
    assert est_adaptive(baseline, 4.0, 4.0, UNCONSTRAINED) == 0.0


def test_est_adaptive_unconstrained_never_gates(baseline):
    for r_e in np.linspace(0.0, 4.0, 30):
        s = sop(baseline, float(r_e))[0]
        assert s <= UNCONSTRAINED.s_th
        est = est_adaptive(baseline, 4.0, float(r_e), UNCONSTRAINED)
        assert est == pytest.approx((4.0 - r_e) * (1.0 - s), rel=1e-15, abs=0)


def test_est_adaptive_argument_errors(baseline):
    with pytest.raises(ValueError):
        est_adaptive(baseline, 4.0, 4.5, UNCONSTRAINED)
    with pytest.raises(ValueError):
        est_adaptive(baseline, 4.0, -0.1, UNCONSTRAINED)


def test_est_adaptive_single_interior_maximum(baseline):
    grid = np.linspace(0.0, 4.0, 200)
    vals = [est_adaptive(baseline, 4.0, float(r), UNCONSTRAINED) for r in grid]
    k = int(np.argmax(vals))
    assert 0 < k < len(grid) - 1
    assert all(vals[i + 1] > vals[i] - 1e-12 for i in range(k))
    assert all(vals[i + 1] < vals[i] + 1e-12 for i in range(k, len(grid) - 1))


def test_est_adaptive_gating(baseline):
    constraint = SecrecyConstraint(0.4)
    s_lo = sop(baseline, 2.6)[0]
    assert s_lo > 0.4
    assert est_adaptive(baseline, 4.0, 2.6, constraint) == 0.0

    s_hi = sop(baseline, 3.2)[0]
    assert s_hi < 0.4
    open_ = est_adaptive(baseline, 4.0, 3.2, constraint)
    assert open_ == pytest.approx((4.0 - 3.2) * (1.0 - s_hi), rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# fixed-rate throughput
# ---------------------------------------------------------------------------


def test_est_fixed_reference_point(baseline):
    est = est_fixed(baseline, RatePair(3.4, 1.2558717), UNCONSTRAINED)
    reliability_factor = 1.0 - reliability_outage(baseline, 3.4)[0]
    secrecy_factor = 1.0 - sop(baseline, 1.2558717)[0]
    assert est == pytest.approx(0.6139374525791358, rel=1e-10)
    assert reliability_factor == pytest.approx(0.8303853022697556, rel=1e-10)
    assert secrecy_factor == pytest.approx(0.3448209985714641, rel=1e-10)
    assert est == pytest.approx(
        (3.4 - 1.2558717) * reliability_factor * secrecy_factor, rel=1e-15, abs=0
    )


def test_est_fixed_diagonal_is_zero(baseline):
    for r in (0.5, 1.5, 3.0):
        assert est_fixed(baseline, RatePair(r, r), UNCONSTRAINED) == 0.0


def test_est_fixed_collapses_at_large_codeword_rate(baseline):
    assert est_fixed(baseline, RatePair(25.0, 1.0), UNCONSTRAINED) <= 1e-6
    assert 1.0 - reliability_outage(baseline, 25.0)[0] <= 1e-6


def test_est_fixed_never_negative(baseline):
    for r_b in np.linspace(0.2, 6.0, 15):
        for frac in (0.0, 0.3, 0.8, 1.0):
            rates = RatePair(float(r_b), float(r_b) * frac)
            assert est_fixed(baseline, rates, UNCONSTRAINED) >= 0.0


def test_est_fixed_gating(baseline):
    constraint = SecrecyConstraint(0.3)
    rates = RatePair(3.0, 1.0)
    s = sop(baseline, 1.0)[0]
    assert s > 0.3
    assert est_fixed(baseline, rates, constraint) == 0.0
    # the ceiling alone gates: lifted, the same rates carry the full product
    assert est_fixed(baseline, rates, UNCONSTRAINED) == pytest.approx(
        2.0 * (1.0 - reliability_outage(baseline, 3.0)[0]) * (1.0 - s), rel=1e-14, abs=0
    )


def test_throughputs_are_floats_or_arrays_of_the_broadcast_shape(baseline):
    assert type(est_fixed(baseline, RatePair(3.0, 1.0), UNCONSTRAINED)) is float
    assert type(est_adaptive(baseline, 4.0, 1.0, UNCONSTRAINED)) is float
    assert type(est_from_outages(2.0, 0.1, 0.3, UNCONSTRAINED)) is float
    s = np.array([[0.1], [0.5], [np.nan]])
    t = np.array([0.0, 0.2])
    est = est_from_outages(2.0, t, s, SecrecyConstraint(0.4))
    assert est.shape == (3, 2)
    assert est.tolist() == [
        [est_from_outages(2.0, float(t_j), float(s_i), SecrecyConstraint(0.4)) for t_j in t]
        for s_i in s[:, 0]
    ]
    assert est[1:].tolist() == [[0.0, 0.0], [0.0, 0.0]]


# ---------------------------------------------------------------------------
# adaptive dominance over the fixed-rate scheme, realization by realization
# ---------------------------------------------------------------------------


def test_adaptive_dominates_fixed_per_realization(baseline):
    # At any realized capacity, tracking the channel and reusing the fixed
    # scheme's redundancy rate already delivers at least the fixed scheme's
    # conditional throughput; the adaptive optimum can only do better.
    re_star, rb_star = 1.2558717, 3.3999996
    secrecy_factor = 1.0 - sop(baseline, re_star)[0]
    scale = baseline.nodes.gamma0 * channel.bob_link(baseline).pointing.a0
    rng = np.random.default_rng(np.random.Philox(7))
    caps = np.log2(1.0 + scale * montecarlo.sample_bob_irradiance(baseline, rng, 4000))
    for c_b in caps:
        lhs = est_adaptive(baseline, float(c_b), min(re_star, float(c_b)), UNCONSTRAINED)
        rhs = (rb_star - re_star) * secrecy_factor if c_b >= rb_star else 0.0
        assert lhs >= rhs - 1e-9
