"""Channel parameterization and distribution-kernel tests.

Frozen literals below were produced by this package and cross-checked
against the independent quadrature/mixture oracles in ``oracles.py`` (see
the oracle-agreement tests); they pin regressions, the oracles pin truth.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fso_secrecy import channel
from fso_secrecy.channel import (
    GeometryConfig,
    NodeConfig,
    PointingParams,
    ScenarioConfig,
    baseline_scenario,
    bob_link,
    eve_link,
    gamma_approx,
    gg_cdf,
    ggp_cdf,
    ggp_cdf_approx,
    pointing_params,
    turbulence_params,
)
from fso_secrecy.montecarlo import SimConfig, estimate_reliability_outage, estimate_sop
from fso_secrecy.secrecy import _rate_slope, rate_threshold

# ---------------------------------------------------------------------------
# derived parameters of the default scenario
# ---------------------------------------------------------------------------


def test_default_turbulence_parameters(baseline):
    turb = eve_link(baseline).turb
    assert turb.rytov_var == pytest.approx(0.33846224546915965, rel=1e-14, abs=0)
    assert turb.alpha == pytest.approx(6.126110647376661, rel=1e-14, abs=0)
    assert turb.beta_single == pytest.approx(5.55337674843494, rel=1e-14, abs=0)
    # the two receivers sit at the same default distance
    assert bob_link(baseline).turb == turb


def test_default_pointing_parameters(baseline):
    p = eve_link(baseline).pointing
    assert p.nu == pytest.approx(0.050132565492620004, rel=1e-14, abs=0)
    assert p.a0 == pytest.approx(0.0031946446312098383, rel=1e-14, abs=0)
    assert p.omega_e == pytest.approx(2.502095623802944, rel=1e-14, abs=0)
    assert p.xi == pytest.approx(0.625523905950736, rel=1e-14, abs=0)
    assert p.sigma_s == 2.0


def test_pointing_free_sentinel(pointing_free):
    p = eve_link(pointing_free).pointing
    assert p.sigma_s == 0.0
    assert math.isinf(p.xi)
    assert p.xi == channel.POINTING_FREE_XI
    # the legitimate receiver is always pointing-error-free
    assert math.isinf(bob_link(pointing_free).pointing.xi)


def test_default_gamma_surrogates(baseline):
    gae = eve_link(baseline).surrogate
    gab = bob_link(baseline).surrogate
    assert gae.k == pytest.approx(3.731788945316813, rel=1e-14, abs=0)
    assert gae.theta == pytest.approx(0.2599289547757774, rel=1e-14, abs=0)
    assert gab.k == pytest.approx(2.6831211203947607, rel=1e-14, abs=0)
    assert gab.theta == pytest.approx(0.3615192741866556, rel=1e-14, abs=0)


def test_aggregated_small_scale_shape(baseline):
    le = eve_link(baseline)
    assert le.beta_agg == pytest.approx(le.turb.beta_single * baseline.nodes.n_e, rel=1e-15, abs=0)
    assert le.n_rx == baseline.nodes.n_e
    lb = bob_link(baseline)
    assert lb.beta_agg == pytest.approx(lb.turb.beta_single * baseline.nodes.n_b, rel=1e-15, abs=0)


def test_vanishing_scintillation_caps_shapes():
    geom = GeometryConfig(cn2=1e-30)
    turb = turbulence_params(geom, 1000.0)
    assert turb.alpha == 1e12
    assert turb.beta_single == 1e12


def test_rytov_overflow_guard():
    geom = GeometryConfig()
    with pytest.raises(ValueError, match="validity range"):
        turbulence_params(geom, 1e8)
    with pytest.raises(ValueError, match="positive"):
        turbulence_params(geom, 0.0)


def test_link_bundles_are_cached(baseline):
    assert eve_link(baseline) is eve_link(baseline_scenario())
    assert bob_link(baseline) is bob_link(baseline_scenario())


# ---------------------------------------------------------------------------
# scenario construction and validation
# ---------------------------------------------------------------------------


def test_baseline_scenario_leaf_overrides():
    sc = baseline_scenario(n_e=4, gamma0=1e4, cn2=2e-14, sigma_s=1.0)
    assert sc.nodes.n_e == 4
    assert sc.nodes.gamma0 == 1e4
    assert sc.geometry.cn2 == 2e-14
    assert sc.sigma_s == 1.0
    # untouched leaves keep their defaults
    assert sc.nodes.n_a == 2
    assert sc.geometry.wavelength_m == 1550e-9


def test_baseline_scenario_rejects_mixed_overrides():
    with pytest.raises(TypeError):
        baseline_scenario(nodes=NodeConfig(), n_e=4)
    with pytest.raises(TypeError):
        baseline_scenario(geometry=GeometryConfig(), cn2=1e-14)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"wavelength_m": 0.0},
        {"cn2": 0.0},
        {"beam_waist_wb": -2.5},
        {"aperture_radius_rho": 0.0},
    ],
)
def test_geometry_config_rejects_nonpositive(kwargs):
    with pytest.raises(ValueError):
        GeometryConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_a": 0},
        {"n_b": -1},
        {"n_e": 1.5},
        {"gamma0": 0.0},
    ],
)
def test_node_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        NodeConfig(**kwargs)


def test_scenario_config_rejects_invalid():
    with pytest.raises(ValueError):
        ScenarioConfig(sigma_s=-0.1)
    with pytest.raises(ValueError):
        ScenarioConfig(s_th=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(s_th=1.1)
    with pytest.raises(ValueError):
        ScenarioConfig(d_e=0.0)
    # a subnormal link gain gamma0 * n_rx * a0 (a0 is about 3.2e-3 here)
    with pytest.raises(ValueError, match="link gain"):
        bob_link(baseline_scenario(gamma0=1e-306))
    assert bob_link(baseline_scenario(gamma0=1e-300, n_b=3)).gain > 0.0
    # an infinite one: gamma0 * a0 * n_e passes the double range
    with pytest.raises(ValueError, match="above the largest float"):
        eve_link(baseline_scenario(gamma0=1e308, n_e=1000))
    assert math.isfinite(eve_link(baseline_scenario(gamma0=1e308)).gain)


def test_pointing_params_field_invariants():
    with pytest.raises(ValueError):
        PointingParams(nu=0.05, a0=1.5, omega_e=2.5, sigma_s=2.0, xi=0.6)
    with pytest.raises(ValueError):
        PointingParams(nu=0.05, a0=0.5, omega_e=2.5, sigma_s=-1.0, xi=0.6)
    with pytest.raises(ValueError):
        pointing_params(GeometryConfig(), -2.0)


# ---------------------------------------------------------------------------
# gamma surrogate
# ---------------------------------------------------------------------------


def test_gamma_approx_mean_identity_default(baseline):
    ga = eve_link(baseline).surrogate
    assert ga.k * ga.theta == pytest.approx(0.97, rel=1e-15, abs=0)


@given(
    alpha=st.floats(0.5, 60.0),
    beta=st.floats(0.5, 60.0),
    omega=st.floats(0.5, 1.5),
)
@settings(max_examples=200, deadline=None)
def test_gamma_approx_mean_identity_random(alpha, beta, omega):
    turb = channel.TurbulenceParams(alpha=alpha, beta_single=beta, rytov_var=0.3)
    ga = gamma_approx(turb, 1, 0.0, omega, math.inf)
    assert ga.k * ga.theta == pytest.approx(omega, rel=1e-12, abs=0)


def test_gamma_approx_deterministic_limit():
    turb = channel.TurbulenceParams(alpha=1e12, beta_single=1e12, rytov_var=0.3)
    ga = gamma_approx(turb, 1, 0.0, 1.0, math.inf)
    assert ga.k > 1e10
    assert ga.theta < 1e-10
    assert ga.k * ga.theta == pytest.approx(1.0, rel=1e-12)


def test_gamma_approx_bracket_error():
    turb = channel.TurbulenceParams(alpha=10.0, beta_single=10.0, rytov_var=0.3)
    with pytest.raises(ValueError, match="bracket"):
        gamma_approx(turb, 1, 0.5, 0.97, math.inf)
    with pytest.raises(ValueError):
        gamma_approx(turb, 1, -0.1, 0.97, math.inf)
    with pytest.raises(ValueError):
        gamma_approx(turb, 1, 0.0, 0.0, math.inf)
    with pytest.raises(ValueError):
        channel.Surrogate(k=0.0, theta=1.0, xi2=None, log_ratio=None)


# ---------------------------------------------------------------------------
# the paper's 1F2 expansions (test reference in oracles.py)
# ---------------------------------------------------------------------------


def test_ggp_cdf_terms_construction():
    alpha, beta, xi = 6.0, 11.0, 0.7
    xi2 = xi * xi
    terms = oracles.ggp_cdf_terms(alpha, beta, xi)
    assert terms.b_vec == (alpha, beta)
    assert terms.c_vec == (-1.0, 1.0)
    for u in range(2):
        bu, cu = terms.b_vec[u], terms.c_vec[u]
        assert terms.a_vec[u] == (bu, bu - xi2)
        assert terms.d_vec[u] == (bu + 1.0, (beta - alpha) * cu + 1.0)
        assert terms.e_vec[u] == ((beta - alpha) * cu + 1.0, bu - xi2 + 1.0)


def test_paper_expansions_match_the_kernel(baseline):
    # The expansions subtract two series far larger than their difference
    # (3e5 at z = 17, 4e8 at z = 34, for a CDF below 1), so they keep
    # double precision only at small z = a b x.  The points are those of the
    # baseline frozen grids with z < 20, and the bob link of the n = 2
    # reliability outage (z = 18.8), where truncating the sums costs 7e-8.
    # 1e-6 sits above both errors; a mis-transcribed term misses it.
    le = eve_link(baseline)
    a, b_single, b, xi = le.turb.alpha, le.turb.beta_single, le.beta_agg, le.pointing.xi
    for bx, x in ((b_single, 0.2), (b_single, 0.5), (b, 0.27613255287933103)):
        assert a * bx * x < 20.0
        assert oracles.gg_cdf_series(a, bx, x) == pytest.approx(gg_cdf(a, bx, x)[0], rel=1e-6), x
    for x in (0.05, 0.1, 0.2):
        assert a * b * x < 20.0
        assert oracles.ggp_cdf_series(a, b, xi, x) == pytest.approx(ggp_cdf(a, b, xi, x)[0], rel=1e-6), x


# ---------------------------------------------------------------------------
# SNR threshold mapping
# ---------------------------------------------------------------------------


def test_snr_threshold_examples(baseline):
    p = eve_link(baseline).pointing
    assert rate_threshold(0.0, 1e4 * p.a0) == 0.0

    gain = 1e4 * 2 * p.a0
    v, dv = rate_threshold(1.0, gain), _rate_slope(1.0, gain)
    assert v == pytest.approx(1.0 / gain, rel=1e-15, abs=0)
    assert v == pytest.approx(0.015651, abs=5e-6)
    assert dv == pytest.approx(2.0 * math.log(2.0) / gain, rel=1e-15, abs=0)
    assert rate_threshold(1.0, 2.0 * gain) == pytest.approx(v / 2.0, rel=1e-15, abs=0)
    # expm1 keeps the relative accuracy where 2**r - 1 cancels to 0
    assert rate_threshold(1e-20, 1.0) == pytest.approx(1e-20 * math.log(2.0), rel=1e-15, abs=0)

    # an array maps to the bits of its elements' float calls
    rates = np.array([0.0, 1e-12, 0.5, 6.0])
    xs, dxs = rate_threshold(rates, gain), _rate_slope(rates, gain)
    for r, x, dx in zip(rates.tolist(), xs.tolist(), dxs.tolist()):
        assert x.hex() == float(rate_threshold(r, gain)).hex()
        assert dx.hex() == float(_rate_slope(r, gain)).hex()

    # each link's gain carries its own aperture count
    sc = baseline_scenario(n_b=1, n_e=4)
    vb = rate_threshold(1.0, bob_link(sc).gain)
    ve = rate_threshold(1.0, eve_link(sc).gain)
    assert vb == pytest.approx(4.0 * ve, rel=1e-15, abs=0)


def test_link_gain_is_finite_where_the_whole_product_fits():
    # gamma0 * n_e overflowed to inf before a0 (about 3.2e-3) scaled the
    # product back into range; gamma0 * a0 * n_rx forms it without overflow.
    sc = baseline_scenario(gamma0=1e308, n_b=3)
    for link in (bob_link(sc), eve_link(sc)):
        assert math.isfinite(link.gain)
        assert link.gain == sc.nodes.gamma0 * link.pointing.a0 * link.n_rx


def test_cdf_kernels_are_certain_at_an_infinite_threshold():
    # At gamma0 0.1 each link's SNR gain is below 1, so (2**r - 1) / gain
    # passes the double range below RATE_LIMIT: the threshold is inf, with
    # no warning (the suite turns a RuntimeWarning into an error), and
    # every CDF kernel reads it as certain: CDF 1, density 0.
    sc = baseline_scenario(gamma0=0.1)
    for link in (bob_link(sc), eve_link(sc)):
        assert link.gain < 1.0
        assert rate_threshold(1023.9, link.gain) == math.inf
        assert rate_threshold(np.array([1000.0, 1023.9]), link.gain)[1] == math.inf
        xi = link.pointing.xi if link is eve_link(sc) else channel.POINTING_FREE_XI
        assert ggp_cdf(link.turb.alpha, link.beta_agg, xi, math.inf) == (1.0, 0.0)
        assert gg_cdf(link.turb.alpha, link.beta_agg, math.inf) == (1.0, 0.0)
        xs = np.array([0.0, 1.0, math.inf])
        cdf, pdf = gg_cdf(link.turb.alpha, link.beta_agg, xs)
        assert cdf[[0, 2]].tolist() == [0.0, 1.0]
        assert pdf[[0, 2]].tolist() == [0.0, 0.0]
        assert ggp_cdf_approx(link.surrogate, math.inf) == (1.0, 0.0)
        # x / theta overflows from a finite x too where theta is below 1
        assert link.surrogate.theta < 1.0
        assert ggp_cdf_approx(link.surrogate, 1.7e308) == (1.0, 0.0)
        cdf, pdf = ggp_cdf_approx(link.surrogate, np.array([1.0, 1.7e308, math.inf]))
        assert cdf[1:].tolist() == [1.0, 1.0]
        assert pdf[1:].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("x", [math.nan, np.array([1.0, math.nan])], ids=["float", "array"])
def test_cdf_kernels_reject_a_nan_threshold(x):
    # NaN fails x >= 0 in the exact kernels as it does in the surrogate.
    with pytest.raises(ValueError, match="requires x >= 0"):
        gg_cdf(4.0, 2.0, x)
    with pytest.raises(ValueError, match="requires x >= 0"):
        ggp_cdf(4.0, 2.0, 1.5, x)
    with pytest.raises(ValueError, match="requires x >= 0"):
        ggp_cdf_approx(bob_link(baseline_scenario()).surrogate, x)


def test_snr_threshold_domain_errors(baseline):
    # the Monte-Carlo estimators reject a negative rate before drawing
    sim = SimConfig(trials=10, stream_count=1)
    for rate in (-0.5, [1.0, -0.5]):
        with pytest.raises(ValueError):
            estimate_sop(baseline, rate, sim)
    with pytest.raises(ValueError):
        estimate_reliability_outage(baseline, -0.5, sim)


# ---------------------------------------------------------------------------
# density kernel
# ---------------------------------------------------------------------------


def test_gg_pdf_normalization_and_mean(baseline):
    t = eve_link(baseline).turb
    norm, mean = oracles.gg_pdf_norm_and_mean(t.alpha, t.beta_single, oracles.gg_pdf)
    assert norm == pytest.approx(1.0, abs=1e-6)
    assert mean == pytest.approx(1.0, abs=1e-6)


def test_gg_pdf_matches_cdf_derivative(baseline):
    t = eve_link(baseline).turb
    h = 1e-5
    for x in (0.3, 0.8, 1.5, 2.5):
        num = (gg_cdf(t.alpha, t.beta_single, x + h)[0] - gg_cdf(t.alpha, t.beta_single, x - h)[0]) / (2 * h)
        assert num == pytest.approx(oracles.gg_pdf(t.alpha, t.beta_single, x), abs=1e-5)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
@pytest.mark.parametrize("cn2", [1.7e-14, 1e-13])
def test_gg_cdf_density_matches_the_bessel_k_density(cn2, n):
    # The exact kernel's density, from its conditioning pass, against the
    # paper's closed form.  Over shapes 3.0 to 33 the largest relative gap
    # seen was 3.1e-14; the kernel's gamma density holds 1e-13 up to shape
    # 1e2 and loses accuracy beyond it (see channel._log_gamma_density).
    t = eve_link(baseline_scenario(cn2=cn2, n_e=n)).turb
    a, b = t.alpha, t.beta_single * n
    xs = np.geomspace(0.01, 8.0, 60)
    want = np.array([oracles.gg_pdf(a, b, float(x)) for x in xs])
    _, pdf = gg_cdf(a, b, xs)
    np.testing.assert_allclose(pdf, want, rtol=1e-12, atol=0)


def test_gg_pdf_domain_error():
    with pytest.raises(ValueError):
        oracles.gg_pdf(6.0, 5.5, 0.0)
    with pytest.raises(ValueError):
        oracles.gg_pdf(6.0, 5.5, -1.0)


# ---------------------------------------------------------------------------
# turbulence-only CDF
# ---------------------------------------------------------------------------


def test_gg_cdf_frozen_values(baseline):
    t = eve_link(baseline).turb
    table = {
        0.2: 0.0155813959307419,
        0.5: 0.19378986351040903,
        1.0: 0.596324211418018,
        2.0: 0.9316888004064876,
    }
    for x, want in table.items():
        assert gg_cdf(t.alpha, t.beta_single, x)[0] == pytest.approx(want, rel=1e-10)


def test_gg_cdf_boundaries(baseline):
    t = eve_link(baseline).turb
    assert gg_cdf(t.alpha, t.beta_single, 0.0)[0] == 0.0
    assert gg_cdf(t.alpha, t.beta_single, 50.0)[0] >= 1.0 - 1e-6


def test_gg_cdf_matches_conditioning_quadrature(baseline):
    t = eve_link(baseline).turb
    got = gg_cdf(t.alpha, t.beta_single, 1.0)[0]
    want = oracles.gg_cdf_conditioning(t.alpha, t.beta_single, 1.0)
    assert got == pytest.approx(want, abs=1e-7)


def test_gg_cdf_quadrature_switch_consistency(baseline):
    # z = a b x is 48 and 170: the kernel agrees with the independent oracle
    # at moderate and at large argument
    t = eve_link(baseline).turb
    for x in (1.4, 5.0):
        z = t.alpha * t.beta_single * x
        want = oracles.gg_cdf_conditioning(t.alpha, t.beta_single, x)
        assert gg_cdf(t.alpha, t.beta_single, x)[0] == pytest.approx(want, abs=1e-7), z


def test_gg_cdf_integer_difference_nudge():
    # alpha - beta exactly integer is a pole of the paper's csc expansion;
    # the conditioning kernel has no pole there
    got = gg_cdf(6.0, 4.0, 1.0)[0]
    want = oracles.gg_cdf_conditioning(6.0, 4.0, 1.0)
    assert got == pytest.approx(want, abs=5e-5)


def test_gg_cdf_monotone_and_bounded(baseline):
    t = eve_link(baseline).turb
    channel.reset_clamp_events()
    xs = np.linspace(0.0, 6.0, 200)
    vals = [gg_cdf(t.alpha, t.beta_single, float(x))[0] for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert channel.clamp_event_count() == 0


def test_gg_cdf_domain_errors():
    with pytest.raises(ValueError):
        gg_cdf(0.0, 5.5, 1.0)
    with pytest.raises(ValueError):
        gg_cdf(6.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        gg_cdf(6.0, 5.5, -0.1)


# ---------------------------------------------------------------------------
# combined turbulence-plus-misalignment CDF
# ---------------------------------------------------------------------------


def test_ggp_cdf_frozen_values(baseline):
    le = eve_link(baseline)
    a, b, xi = le.turb.alpha, le.beta_agg, le.pointing.xi
    table = {
        0.05: 0.3327731990130381,
        0.1: 0.4364350723845198,
        0.2: 0.5719423773222639,
        0.5: 0.8005930640783332,
        1.0: 0.9483257457023064,
        2.0: 0.9968301865197231,
    }
    for x, want in table.items():
        assert ggp_cdf(a, b, xi, x)[0] == pytest.approx(want, rel=1e-10)


def test_ggp_cdf_boundaries(baseline):
    le = eve_link(baseline)
    assert ggp_cdf(le.turb.alpha, le.beta_agg, le.pointing.xi, 0.0)[0] == 0.0
    assert ggp_cdf(le.turb.alpha, le.beta_agg, le.pointing.xi, 50.0)[0] >= 1.0 - 1e-6


def test_ggp_cdf_pointing_free_degeneration(baseline):
    le = eve_link(baseline)
    a, b = le.turb.alpha, le.beta_agg
    for x in (0.2, 0.7, 1.3):
        assert ggp_cdf(a, b, math.inf, x) == gg_cdf(a, b, x)


def test_ggp_cdf_matches_mixture_quadrature(baseline):
    le = eve_link(baseline)
    a, b, xi = le.turb.alpha, le.beta_agg, le.pointing.xi
    got = ggp_cdf(a, b, xi, 0.5)[0]
    want = oracles.ggp_cdf_mixture(a, b, xi, 0.5, lambda *args: gg_cdf(*args)[0])
    assert got == pytest.approx(want, abs=1e-6)


def test_ggp_cdf_dominates_turbulence_only(baseline):
    # the collected-power fraction is at most one, so adding misalignment
    # can only shift irradiance mass downward
    le = eve_link(baseline)
    a, b, xi = le.turb.alpha, le.beta_agg, le.pointing.xi
    for x in np.linspace(0.05, 3.0, 50):
        assert ggp_cdf(a, b, xi, float(x))[0] >= gg_cdf(a, b, float(x))[0]


def test_ggp_cdf_monotone_and_bounded(baseline):
    le = eve_link(baseline)
    a, b, xi = le.turb.alpha, le.beta_agg, le.pointing.xi
    channel.reset_clamp_events()
    xs = np.linspace(0.0, 6.0, 200)
    vals = [ggp_cdf(a, b, xi, float(x))[0] for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(hi >= lo - 1e-12 for lo, hi in zip(vals, vals[1:]))
    assert channel.clamp_event_count() == 0


def test_ggp_cdf_domain_errors():
    with pytest.raises(ValueError):
        ggp_cdf(6.0, 5.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        ggp_cdf(6.0, 5.5, -0.6, 1.0)
    with pytest.raises(ValueError):
        ggp_cdf(6.0, 5.5, 0.6, -1.0)
    with pytest.raises(ValueError):
        ggp_cdf(-6.0, 5.5, 0.6, 1.0)


# ---------------------------------------------------------------------------
# conditioning kernel against mpmath, over the whole input range
# ---------------------------------------------------------------------------


def _eve_shapes(cn2, sigma_s, n):
    le = eve_link(baseline_scenario(cn2=cn2, sigma_s=sigma_s, n_e=n))
    return le.turb.alpha, le.beta_agg, le.pointing.xi


@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize("sigma_s", [0.0, 0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("cn2", [1.7e-14, 1e-13])
def test_conditioning_kernel_matches_mpmath_oracle(cn2, sigma_s, n):
    # z = a b x = 101, where the paper's 1F2 series converges slowly;
    # sigma_s 0.5 with n 1 puts xi**2 (6.26) above both shapes, which takes
    # the continued fraction and the downward recurrence
    a, b, xi = _eve_shapes(cn2, sigma_s, n)
    x = 1.01 * 100.0 / (a * b)
    want = oracles.mp_ggp_cdf_conditioning(a, b, xi, x)
    got = gg_cdf(a, b, x)[0] if math.isinf(xi) else ggp_cdf(a, b, xi, x)[0]
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("sigma_s", [0.1, 0.2])
def test_conditioning_kernel_narrow_jitter(sigma_s):
    # xi**2 = 156 and 39 sit far above both shapes: the pointing term's
    # incomplete gamma has first argument -150 and -33
    a, b, xi = _eve_shapes(1.7e-14, sigma_s, 2)
    for x in (0.05, 3.0):
        want = oracles.mp_ggp_cdf_conditioning(a, b, xi, x)
        assert channel._conditioned_cdf(a, b, xi * xi, x)[0] == pytest.approx(want, rel=1e-12, abs=0)


def test_conditioning_kernel_takes_inputs_the_series_cannot_evaluate():
    # cn2 1e-15: shapes near 100 overflow the paper's expansions' gamma
    # values and powers
    a, b, xi = _eve_shapes(1e-15, 2.0, 2)
    for x in (0.5, 1.0):
        want = oracles.mp_ggp_cdf_conditioning(a, b, xi, x)
        assert 0.0 <= ggp_cdf(a, b, xi, x)[0] <= 1.0
        assert ggp_cdf(a, b, xi, x)[0] == pytest.approx(want, rel=1e-12, abs=0)
        want = oracles.mp_ggp_cdf_conditioning(a, b / 2, math.inf, x)
        assert gg_cdf(a, b / 2, x)[0] == pytest.approx(want, rel=1e-12, abs=0)


def test_series_products_past_the_double_range_take_the_kernel():
    # At z < 100 the paper's expansion forms factors that fit a double but
    # whose product does not: z**beta times Gamma(beta) overflows to inf
    # against a zero 1F2 sum, and a reciprocal-gamma product of inf stalls a
    # 1F2 sum.  Both scenarios are plain configs.
    sc = baseline_scenario(cn2=8.782080823506426e-15, sigma_s=0.8980956430628689, n_e=4,
                           d_e=581.8852747561125)
    le = eve_link(sc)
    a, b, xi = le.turb.alpha, le.beta_agg, le.pointing.xi
    x = rate_threshold(1.0011347829612158, le.gain)
    assert a * b * x < 100.0
    want = oracles.mp_ggp_cdf_conditioning(a, b, xi, x)
    assert ggp_cdf(a, b, xi, x)[0] == pytest.approx(want, rel=1e-12, abs=0)

    sc = baseline_scenario(cn2=7.917620229666677e-15, sigma_s=0.09874657550041502, n_e=5,
                           d_e=604.8434970567932)
    le = eve_link(sc)
    a, b, xi = le.turb.alpha, le.beta_agg, le.pointing.xi
    x = rate_threshold(0.7908362607525738, le.gain)
    assert a * b * x < 100.0
    assert 0.0 < ggp_cdf(a, b, xi, x)[0] < 1e-40


def test_conditioning_kernel_at_the_shape_cap():
    # vanishing scintillation caps both shapes at 1e12; the fading is then
    # within 1e-6 of 1, so the CDF is the pointing loss's x**xi2 below 1
    cap = channel._SHAPE_CAP
    xi2 = 0.391
    channel.reset_clamp_events()
    for x in (1e-30, 0.5, 0.9):
        assert ggp_cdf(cap, 2 * cap, math.sqrt(xi2), x)[0] == pytest.approx(x**xi2, rel=1e-5, abs=0)
    assert gg_cdf(cap, 2 * cap, 0.5)[0] == 0.0
    assert gg_cdf(cap, 2 * cap, 1.0)[0] == pytest.approx(0.5, abs=1e-6)
    assert gg_cdf(cap, 2 * cap, 1.5)[0] == 1.0
    for x in np.linspace(0.99999, 1.00001, 21):
        for p in (gg_cdf(cap, 2 * cap, float(x))[0], ggp_cdf(cap, 2 * cap, 0.6, float(x))[0]):
            assert 0.0 <= p <= 1.0
    assert channel.clamp_event_count() == 0


def test_conditioning_grid_stays_bounded():
    sizes = [channel._trapezoid_nodes(m).size for m in (1.0, 4.0, 33.0, 1e4, 1e12, 6e12)]
    assert max(sizes) <= 400
    assert channel._trapezoid_nodes(6 * channel._SHAPE_CAP).size <= 150


def test_gg_cdf_matches_oracle_at_z_18_8():
    # The bob link of the n = 2 reliability outage (z = 18.8), where the
    # paper's 1F2 series is off by 8.6e-8 relative from truncating its sums.
    a, b, x = 6.126110647376661, 11.10675349686988, 0.27613255287933103
    want = oracles.mp_ggp_cdf_conditioning(a, b, math.inf, x)
    assert gg_cdf(a, b, x)[0] == pytest.approx(want, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# gamma-surrogate CDF
# ---------------------------------------------------------------------------


def test_ggp_cdf_approx_frozen_values(baseline):
    le = eve_link(baseline)
    table = {
        0.05: 0.3392406959929708,
        0.2: 0.5818498590934212,
        0.5: 0.8073241563118518,
        1.0: 0.9510241386874951,
    }
    for x, want in table.items():
        assert ggp_cdf_approx(le.surrogate, x)[0] == pytest.approx(want, rel=1e-10)


def test_ggp_cdf_approx_boundaries(baseline):
    le = eve_link(baseline)
    assert ggp_cdf_approx(le.surrogate, 0.0) == (0.0, 0.0)
    # far in the upper tail P(k, t) rounds to one and the pointing term
    # underflows to zero, so the CDF is exactly one and the density zero
    assert ggp_cdf_approx(le.surrogate, 200.0) == (1.0, 0.0)


def test_ggp_cdf_approx_matches_surrogate_mixture(baseline):
    le = eve_link(baseline)
    for x in (0.1, 0.4, 1.0):
        got = ggp_cdf_approx(le.surrogate, x)[0]
        want = oracles.surrogate_cdf_mixture(le.surrogate.k, le.surrogate.theta, le.pointing.xi, x)
        assert got == pytest.approx(want, abs=1e-9)


def test_ggp_cdf_approx_pointing_free_is_gamma_cdf(baseline):
    from scipy import special as sp

    le = eve_link(baseline)
    ga = gamma_approx(le.turb, le.n_rx, baseline.epsilon, baseline.omega_adj, math.inf)
    for x in (0.2, 0.8, 2.0):
        want = float(sp.gammainc(ga.k, x / ga.theta))
        assert ggp_cdf_approx(ga, x)[0] == pytest.approx(want, rel=1e-14, abs=0)


def test_ggp_cdf_approx_within_two_percent_of_exact(baseline):
    le = eve_link(baseline)
    a, b, xi = le.turb.alpha, le.beta_agg, le.pointing.xi
    for x in np.linspace(0.02, 3.0, 60):
        gap = abs(ggp_cdf_approx(le.surrogate, float(x))[0] - ggp_cdf(a, b, xi, float(x))[0])
        assert gap <= 0.02


def test_ggp_cdf_approx_monotone_and_bounded(baseline):
    le = eve_link(baseline)
    xs = np.linspace(0.0, 8.0, 200)
    vals = [ggp_cdf_approx(le.surrogate, float(x))[0] for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(hi >= lo - 1e-12 for lo, hi in zip(vals, vals[1:]))


# sigma_s 0 has no pointing loss; at 0.5 k_ap - xi**2 < 0, which takes the
# pointing term's continued fraction (x / theta >= 1) and its recurrence
# (below); at 2 it is positive.
@pytest.mark.parametrize("sigma_s", [0.0, 0.5, 2.0])
def test_ggp_cdf_approx_float_calls_equal_array_elements_to_the_bit(sigma_s):
    sur = eve_link(baseline_scenario(sigma_s=sigma_s)).surrogate
    assert (sur.xi2 is None) if sigma_s == 0.0 else ((sur.k > sur.xi2) == (sigma_s == 2.0))
    xs = np.concatenate([[0.0, 1e-300, 1e-12], np.geomspace(1e-4, 50.0, 121), [1e300, math.inf]])
    cdf, pdf = ggp_cdf_approx(sur, xs)
    assert cdf.shape == pdf.shape == xs.shape
    grid = ggp_cdf_approx(sur, xs.reshape(2, -1))
    assert [a.shape for a in grid] == [(2, xs.size // 2)] * 2
    assert [a.ravel().tobytes() for a in grid] == [cdf.tobytes(), pdf.tobytes()]
    for i, x in enumerate(xs.tolist()):
        c, p = ggp_cdf_approx(sur, x)
        assert type(c) is type(p) is np.float64
        assert (c.hex(), p.hex()) == (float(cdf[i]).hex(), float(pdf[i]).hex()), x


def test_ggp_cdf_approx_domain_errors(baseline):
    le = eve_link(baseline)
    for x in (-0.5, np.array([1.0, -1e-300])):
        with pytest.raises(ValueError, match="x >= 0"):
            ggp_cdf_approx(le.surrogate, x)
    with pytest.raises(ValueError):
        gamma_approx(le.turb, le.n_rx, baseline.epsilon, baseline.omega_adj, -0.6)


# ---------------------------------------------------------------------------
# Monte-Carlo agreement of all three kernels
# ---------------------------------------------------------------------------


def test_cdf_kernels_match_sampled_quantiles(baseline):
    le = eve_link(baseline)
    a, b, xi, ga = le.turb.alpha, le.beta_agg, le.pointing.xi, le.surrogate
    n = 1_000_000
    rng = np.random.default_rng(np.random.Philox(20260814))
    turb = rng.gamma(a, 1.0 / a, n) * rng.gamma(b, 1.0 / b, n)
    frac = rng.random(n) ** (1.0 / (xi * xi))
    surrogate = rng.gamma(ga.k, ga.theta, n) * frac
    cases = [
        (turb, lambda x: gg_cdf(a, b, x)[0]),
        (turb * frac, lambda x: ggp_cdf(a, b, xi, x)[0]),
        (surrogate, lambda x: ggp_cdf_approx(ga, x)[0]),
    ]
    for draws, cdf in cases:
        for q in np.linspace(0.04, 0.96, 20):
            x = float(np.quantile(draws, q))
            f = cdf(x)
            emp = float(np.mean(draws <= x))
            assert abs(f - emp) <= 3.0 * math.sqrt(f * (1.0 - f) / n) + 1e-4


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------


def test_kernels_are_pure(baseline):
    le = eve_link(baseline)
    a, b, xi = le.turb.alpha, le.beta_agg, le.pointing.xi
    assert gg_cdf(a, b, 0.77) == gg_cdf(a, b, 0.77)
    assert ggp_cdf(a, b, xi, 0.77) == ggp_cdf(a, b, xi, 0.77)
    assert ggp_cdf_approx(le.surrogate, 0.77) == ggp_cdf_approx(le.surrogate, 0.77)
