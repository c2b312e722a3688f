"""Free-space-optical channel parameterization and distribution kernels.

Maps link geometry (wavelength, distance, refractive-index structure
constant, beam and aperture sizes) to the shape parameters of the
turbulence fading model, folds in the misalignment statistics of the
eavesdropper's receiver, and evaluates the three CDF kernels everything else
is built on:

* ``gg_cdf`` -- unit-mean turbulence fading (product of two gamma factors),
  aggregated over receive apertures;
* ``ggp_cdf`` -- the same fading multiplied by the random collected-power
  fraction of a misaligned receiver;
* ``ggp_cdf_approx`` -- the gamma-surrogate approximation of ``ggp_cdf``
  used by the rate optimizers.

The exact kernels condition on the gamma factor of larger shape: given
that factor, the other gamma factor and the collected-power fraction
integrate in closed form, and the expectation over the factor is a
trapezoid rule in its logarithm on one numpy array of nodes.  The paper's
1F2 expansions of the same CDFs are kept as a test reference only.  All
records are frozen dataclasses, all functions pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from fso_secrecy import specfun

__all__ = [
    "CALIBRATED_GAMMA0",
    "POINTING_FREE_XI",
    "GeometryConfig",
    "TurbulenceParams",
    "PointingParams",
    "NodeConfig",
    "GammaApprox",
    "SnrThreshold",
    "ScenarioConfig",
    "LinkParams",
    "baseline_scenario",
    "turbulence_params",
    "pointing_params",
    "gamma_approx",
    "gg_pdf",
    "gg_cdf",
    "ggp_cdf",
    "ggp_cdf_approx",
    "snr_threshold",
    "bob_link",
    "eve_link",
    "clamp_event_count",
    "reset_clamp_events",
]

#: SNR scale calibrated so the fixed-rate unconstrained optimum of the
#: default scenario lands on the reference operating point (codeword rate
#: 3.400 bpcu); see scripts/calibrate_snr_scale.py for the derivation.
CALIBRATED_GAMMA0 = 3967.6

#: Sentinel for a perfectly aligned receiver (no pointing loss).
POINTING_FREE_XI = math.inf

# Shape parameters are capped here when vanishing scintillation sends them
# to infinity, keeping downstream arithmetic finite.
_SHAPE_CAP = 1e12

# About one ulp of 1.0; the pointing term's recurrence caps a log ratio
# at -_EPS so that log1p(-exp(.)) stays finite.
_EPS = 2.3e-16

# Trapezoid rule of the conditioning kernel in u = ln X: the step, in units
# of the width 1/sqrt(m) of the log of a Gamma(m, 1/m) factor, and the fall
# of its log density from the peak at which the range ends.
_TRAPEZOID_STEP = 0.25
_TRAPEZOID_DROP = 80.0

# Terms of the continued fraction of the upper incomplete gamma; where the
# kernel uses it (argument >= 1 or first argument <= -10) it converges in
# fewer than 100.
_CF_MAX_TERMS = 300

_CLAMP_EVENTS = 0


def _clamp_prob(p: float) -> float:
    """Clamp a computed probability to [0, 1], counting real overshoots."""
    global _CLAMP_EVENTS
    if p < -1e-9 or p > 1.0 + 1e-9:
        _CLAMP_EVENTS += 1
    return min(max(p, 0.0), 1.0)


def clamp_event_count() -> int:
    """Number of probability evaluations clamped by more than 1e-9.

    It counts kernel evaluations: a cache hit in the memoized outage
    functions of :mod:`fso_secrecy.secrecy` evaluates no kernel and adds none.
    """
    return _CLAMP_EVENTS


def reset_clamp_events() -> None:
    global _CLAMP_EVENTS
    _CLAMP_EVENTS = 0


@dataclass(frozen=True)
class GeometryConfig:
    """Static link geometry shared by both receivers."""

    wavelength_m: float = 1550e-9
    link_distance_m: float = 1000.0
    cn2: float = 1.7e-14
    beam_waist_wb: float = 2.5
    aperture_radius_rho: float = 0.1

    def __post_init__(self) -> None:
        for name in ("wavelength_m", "link_distance_m", "cn2", "beam_waist_wb", "aperture_radius_rho"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"GeometryConfig.{name} must be strictly positive")

    @property
    def wave_number(self) -> float:
        return 2.0 * math.pi / self.wavelength_m


@dataclass(frozen=True)
class TurbulenceParams:
    """Large- and small-scale scintillation shapes for one link distance."""

    alpha: float
    beta_single: float
    rytov_var: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and self.beta_single > 0.0 and self.rytov_var > 0.0):
            raise ValueError("TurbulenceParams fields must be strictly positive")


@dataclass(frozen=True)
class PointingParams:
    """Misalignment statistics of a receiver with jitter spread ``sigma_s``.

    ``a0`` is the power fraction collected at perfect alignment, ``omega_e``
    the equivalent beam width, and ``xi`` the jitter-normalized beam width
    (``POINTING_FREE_XI`` when ``sigma_s`` is zero).
    """

    nu: float
    a0: float
    omega_e: float
    sigma_s: float
    xi: float

    def __post_init__(self) -> None:
        if not 0.0 < self.a0 < 1.0:
            raise ValueError("PointingParams.a0 must lie in (0, 1)")
        if self.sigma_s < 0.0:
            raise ValueError("PointingParams.sigma_s must be non-negative")


@dataclass(frozen=True)
class NodeConfig:
    """Aperture counts and the turbulence-and-pointing-free SNR scale."""

    n_a: int = 2
    n_b: int = 1
    n_e: int = 2
    gamma0: float = CALIBRATED_GAMMA0

    def __post_init__(self) -> None:
        for name in ("n_a", "n_b", "n_e"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 1):
                raise ValueError(f"NodeConfig.{name} must be an integer >= 1")
        if not self.gamma0 > 0.0:
            raise ValueError("NodeConfig.gamma0 must be strictly positive")

    @property
    def n0(self) -> float:
        return 1.0 / self.gamma0


@dataclass(frozen=True)
class GammaApprox:
    """Single-gamma surrogate of an aggregated turbulence variable."""

    k_ap: float
    theta_ap: float
    epsilon: float
    omega_adj: float

    def __post_init__(self) -> None:
        if not (self.k_ap > 0.0 and self.theta_ap > 0.0):
            raise ValueError("GammaApprox shape and scale must be strictly positive")


@dataclass(frozen=True)
class SnrThreshold:
    """Normalized irradiance threshold equivalent to a rate threshold."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise ValueError("SnrThreshold.value must be non-negative")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description: geometry, apertures, SNR budget,
    misalignment spread, and the secrecy-outage constraint."""

    geometry: GeometryConfig = GeometryConfig()
    nodes: NodeConfig = NodeConfig()
    sigma_s: float = 2.0
    s_th: float = 1.0
    epsilon: float = 0.0
    omega_adj: float = 0.97
    d_b: float = 1000.0
    d_e: float = 1000.0

    def __post_init__(self) -> None:
        if self.sigma_s < 0.0:
            raise ValueError("ScenarioConfig.sigma_s must be non-negative")
        if not 0.0 < self.s_th <= 1.0:
            raise ValueError("ScenarioConfig.s_th must lie in (0, 1]")
        if self.epsilon < 0.0:
            raise ValueError("ScenarioConfig.epsilon must be non-negative")
        if not self.omega_adj > 0.0:
            raise ValueError("ScenarioConfig.omega_adj must be strictly positive")
        if not (self.d_b > 0.0 and self.d_e > 0.0):
            raise ValueError("ScenarioConfig distances must be strictly positive")


_GEOMETRY_FIELDS = ("wavelength_m", "link_distance_m", "cn2", "beam_waist_wb", "aperture_radius_rho")
_NODE_FIELDS = ("n_a", "n_b", "n_e", "gamma0")


def baseline_scenario(**overrides) -> ScenarioConfig:
    """Default scenario; keyword overrides may target top-level or nested fields.

    Leaf fields of the geometry (``cn2``, ``beam_waist_wb``, ...) and of the
    node layout (``n_a``, ``gamma0``, ...) are accepted directly and routed
    into the nested configs, which keeps sweep loops one-liners.
    """
    geo_kw = {k: overrides.pop(k) for k in _GEOMETRY_FIELDS if k in overrides}
    node_kw = {k: overrides.pop(k) for k in _NODE_FIELDS if k in overrides}
    if geo_kw:
        if "geometry" in overrides:
            raise TypeError("pass either 'geometry' or geometry leaf fields, not both")
        overrides["geometry"] = GeometryConfig(**geo_kw)
    if node_kw:
        if "nodes" in overrides:
            raise TypeError("pass either 'nodes' or node leaf fields, not both")
        overrides["nodes"] = NodeConfig(**node_kw)
    return ScenarioConfig(**overrides)


@dataclass(frozen=True)
class LinkParams:
    """Derived per-receiver bundle consumed by the secrecy closed forms."""

    turb: TurbulenceParams
    pointing: PointingParams
    beta_agg: float
    ga: GammaApprox
    n_rx: int


def turbulence_params(geom: GeometryConfig, distance_m: float) -> TurbulenceParams:
    """Scintillation shape parameters for one propagation distance."""
    if not distance_m > 0.0:
        raise ValueError(f"distance_m must be positive, got {distance_m}")
    w = geom.wave_number
    rytov = 1.23 * geom.cn2 * w ** (7.0 / 6.0) * distance_m ** (11.0 / 6.0)
    if rytov > 1e6:
        raise ValueError(f"Rytov variance {rytov:.3g} out of the model's validity range")
    s = rytov ** (12.0 / 5.0)
    ea = math.expm1(0.49 * rytov / (1.0 + 1.11 * s) ** (7.0 / 6.0))
    eb = math.expm1(0.51 * rytov / (1.0 + 0.69 * s) ** (5.0 / 6.0))
    alpha = 1.0 / ea if ea > 0.0 else math.inf
    beta = 1.0 / eb if eb > 0.0 else math.inf
    return TurbulenceParams(
        alpha=min(alpha, _SHAPE_CAP),
        beta_single=min(beta, _SHAPE_CAP),
        rytov_var=rytov,
    )


def pointing_params(geom: GeometryConfig, sigma_s: float) -> PointingParams:
    """Misalignment statistics for a receiver with jitter spread ``sigma_s``."""
    if sigma_s < 0.0:
        raise ValueError(f"sigma_s must be non-negative, got {sigma_s}")
    nu = math.sqrt(math.pi / 2.0) * geom.aperture_radius_rho / geom.beam_waist_wb
    e = math.erf(nu)
    a0 = e * e
    omega_e = math.sqrt(
        math.sqrt(math.pi) * geom.beam_waist_wb**2 * e / (2.0 * nu * math.exp(-nu * nu))
    )
    xi = omega_e / (2.0 * sigma_s) if sigma_s > 0.0 else POINTING_FREE_XI
    return PointingParams(nu=nu, a0=a0, omega_e=omega_e, sigma_s=sigma_s, xi=xi)


def gamma_approx(
    turb: TurbulenceParams, n_apertures: int, epsilon: float, omega_adj: float
) -> GammaApprox:
    """Moment-matched single-gamma surrogate of the aggregated fading.

    The aggregated small-scale shape is ``beta_single * n_apertures``.  The
    shape/scale pair always satisfies ``k_ap * theta_ap == omega_adj``.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    if not omega_adj > 0.0:
        raise ValueError("omega_adj must be strictly positive")
    a = turb.alpha
    b = turb.beta_single * n_apertures
    bracket = (b + 1.0) * (a + 1.0) / (b * a) - (1.0 + epsilon)
    if bracket <= 0.0:
        raise ValueError(
            f"gamma surrogate undefined: moment bracket {bracket:.3g} <= 0 "
            f"for shapes ({a:.3g}, {b:.3g}) and epsilon {epsilon}"
        )
    k_ap = 1.0 / bracket
    return GammaApprox(k_ap=k_ap, theta_ap=omega_adj / k_ap, epsilon=epsilon, omega_adj=omega_adj)


def snr_threshold(node: NodeConfig, pointing: PointingParams, rate: float, which: str) -> SnrThreshold:
    """Normalized irradiance level a receiver must clear to support ``rate``."""
    if rate < 0.0:
        raise ValueError(f"rate must be non-negative, got {rate}")
    if which == "bob":
        n_rx = node.n_b
    elif which == "eve":
        n_rx = node.n_e
    else:
        raise ValueError(f"which must be 'bob' or 'eve', got {which!r}")
    return SnrThreshold((2.0**rate - 1.0) / (node.gamma0 * n_rx * pointing.a0))


# ---------------------------------------------------------------------------
# distribution kernels
# ---------------------------------------------------------------------------


def gg_pdf(alpha: float, beta_agg: float, i: float) -> float:
    """Density of the unit-mean aggregated turbulence fading at ``i > 0``."""
    if not i > 0.0:
        raise ValueError(f"gg_pdf requires i > 0, got {i}")
    ab = alpha * beta_agg
    s = 0.5 * (alpha + beta_agg)
    log_coef = math.log(2.0) + s * math.log(ab) - math.lgamma(alpha) - math.lgamma(beta_agg)
    return math.exp(log_coef + (s - 1.0) * math.log(i)) * specfun.bessel_k(
        alpha - beta_agg, 2.0 * math.sqrt(ab * i)
    )


def _trapezoid_nodes(m: float) -> np.ndarray:
    """Nodes u = ln X of the trapezoid rule over a Gamma(m, 1/m) factor X.

    The log density of u is m * (u - e**u) up to a constant, with its peak
    at u = 0.  The range ends where it has fallen by ``_TRAPEZOID_DROP``: with
    q = drop / m and r = sqrt(2 q), m * (e**u - 1 - u) >= drop holds at
    u = -(q + r) and at u = ln(1 + q + r).  Step and range both scale with
    1/sqrt(m) for large m, so the node count stays bounded however large m
    grows: about 240 nodes at m = 4, 150 at m = 33 and 103 at the shape cap.
    Below m = 1 the left tail e**(m u) is long and the count grows as 1/m.
    """
    q = _TRAPEZOID_DROP / m
    r = math.sqrt(2.0 * q)
    h = _TRAPEZOID_STEP / math.sqrt(max(m, 1.0))
    return np.arange(math.floor(-(q + r) / h), math.ceil(math.log1p(q + r) / h) + 1) * h


def _stirling_remainder(z: float) -> float:
    """mu(z) = ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2), for z > 0.

    From 15 on, five terms of Stirling's series leave an error below 3e-16.
    """
    if z < 15.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - 0.5 * math.log(2.0 * math.pi)
    y = 1.0 / (z * z)
    return (1.0 / 12.0 - y * (1.0 / 360.0 - y * (1.0 / 1260.0 - y * (1.0 / 1680.0 - y / 1188.0)))) / z


def _log_scaled_gamma_ratio(a: float, m: float) -> float:
    """ln((a + m)**m Gamma(a) / Gamma(a + m)) for a, m > 0.

    It tends to 0 as a grows.  Two ``lgamma`` values would each carry about
    a ln a ulps, 3e-3 at a = 1e12; Stirling's form has only terms of the
    size of the result.
    """
    return (
        m
        - (a - 0.5) * math.log1p(m / a)
        - _stirling_remainder(a + m)
        + _stirling_remainder(a)
    )


def _log_pointing_term(
    k: float, xi2: float, t: np.ndarray, log_c: np.ndarray
) -> np.ndarray:
    """ln(t**xi2 Gamma(k - xi2, t) / Gamma(k)) with t = k c, elementwise.

    With a = k - xi2 > 0 it is written as
    c**xi2 Q(a, t) k**xi2 Gamma(a) / Gamma(k): scipy's regularized upper
    gamma Q, and a ratio near 1 for large k in which xi2 and a enter
    consistently even where a = k - xi2 rounds at the ulp of k.  With
    a <= 0, Gamma(a, t) comes from Legendre's continued fraction where
    t >= 1 or a <= -10, and elsewhere (t < 1, at most ten steps) from the
    downward recurrence
    Gamma(s - 1, t) = (t**(s-1) e**-t - Gamma(s, t)) / (1 - s), started at
    s = a + ceil(-a) in [0, 1).  Each step down multiplies the rounding
    error by t / |s - 1|, which the split keeps below one after the first.
    """
    a = k - xi2
    if a > 0.0:
        with np.errstate(divide="ignore"):  # Q(a, t) underflows far in the tail
            log_q = np.log(_sp.gammaincc(a, t))
        return xi2 * log_c + log_q + _log_scaled_gamma_ratio(a, xi2)
    log_t = math.log(k) + log_c
    out = np.empty_like(t)
    cf = (t >= 1.0) | (a <= -10.0)
    # t**xi2 Gamma(a, t) = t**k e**-t times the continued fraction
    out[cf] = k * log_t[cf] - t[cf] + _log_upper_gamma_cf(a, t[cf]) - math.lgamma(k)
    rec = ~cf
    if rec.any():
        t, log_t = t[rec], log_t[rec]
        steps = math.ceil(-a)
        s = a + steps
        lg = np.log(_sp.exp1(t)) if s == 0.0 else np.log(_sp.gammaincc(s, t)) + math.lgamma(s)
        for _ in range(steps):
            lead = (s - 1.0) * log_t - t  # ln(t**(s-1) e**-t), which tops Gamma(s, t)
            lg = lead + np.log1p(-np.exp(np.minimum(lg - lead, -_EPS))) - math.log(1.0 - s)
            s -= 1.0
        out[rec] = xi2 * log_t + lg - math.lgamma(k)
    return out


def _log_upper_gamma_cf(a: float, t: np.ndarray) -> np.ndarray:
    """ln(Gamma(a, t) t**-a e**t) from Legendre's continued fraction, a <= 0.

    Gamma(a, t) = t**a e**-t / (t + 1 - a - 1 (1 - a) / (t + 3 - a - ...)),
    evaluated by the modified Lentz method.  With a <= 0 every partial
    denominator is positive, so no guard against a zero divisor is needed.
    """
    b = t + (1.0 - a)
    d = 1.0 / b
    c = np.full_like(t, math.inf)
    f = d
    for i in range(1, _CF_MAX_TERMS):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (b + an * d)
        c = b + an / c
        delta = c * d
        f = f * delta
        if np.all(np.abs(delta - 1.0) <= 1e-15):
            return np.log(f)
    raise specfun.ConvergenceError(
        f"upper incomplete gamma continued fraction for a={a} did not converge "
        f"in {_CF_MAX_TERMS} terms"
    )


def _conditioned_cdf(alpha: float, beta_agg: float, xi2: float | None, x: float) -> float:
    """P(X Y V <= x) by conditioning on the gamma factor of larger shape.

    X ~ Gamma(m, 1/m) is the factor of larger shape and Y ~ Gamma(k, 1/k) the
    other one; the product is symmetric in the two.  V is the collected-power
    fraction, with density xi2 v**(xi2 - 1) on (0, 1], or 1 when ``xi2`` is
    None.  Given X, with t = k x / X, the rest integrates in closed form
    (gamma-gamma as a gamma mixture, Al-Habash, Andrews & Phillips 2001;
    pointing loss, Farid & Hranilovic 2007):

        P(Y V <= x / X) = P(k, t) + t**xi2 Gamma(k - xi2, t) / Gamma(k),

    without the second term when there is no pointing loss.  The expectation
    over u = ln X is a trapezoid rule on :func:`_trapezoid_nodes`; the
    integrand is smooth and falls off on both sides, so the rule converges
    geometrically in the step.  Dividing by the sum of the weights removes
    the gamma normalization of X.  The weights and the pointing term are
    formed from their logarithms, so no factor overflows for any shape up to
    ``_SHAPE_CAP``.
    """
    m, k = (alpha, beta_agg) if alpha >= beta_agg else (beta_agg, alpha)
    u = _trapezoid_nodes(m)
    log_w = -m * (np.expm1(u) - u)
    w = np.exp(log_w)
    log_c = math.log(x) - u
    # Past t = e**700, P(k, t) is 1 and the second term 0 in double precision.
    t = np.exp(np.minimum(math.log(k) + log_c, 700.0))
    mass = w * _sp.gammainc(k, t)
    if xi2 is not None:
        mass += np.exp(log_w + _log_pointing_term(k, xi2, t, log_c))
    return float(mass.sum() / w.sum())


def gg_cdf(alpha: float, beta_agg: float, x: float) -> float:
    """CDF of the unit-mean aggregated turbulence fading."""
    if not (alpha > 0.0 and beta_agg > 0.0):
        raise ValueError("gg_cdf shape parameters must be strictly positive")
    if x < 0.0:
        raise ValueError(f"gg_cdf requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return _clamp_prob(_conditioned_cdf(alpha, beta_agg, None, x))


def ggp_cdf(alpha: float, beta_agg: float, xi: float, x: float) -> float:
    """CDF of turbulence fading scaled by the random collected-power fraction."""
    if not (alpha > 0.0 and beta_agg > 0.0):
        raise ValueError("ggp_cdf shape parameters must be strictly positive")
    if not xi > 0.0:
        raise ValueError(f"ggp_cdf requires xi > 0, got {xi}")
    if x < 0.0:
        raise ValueError(f"ggp_cdf requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if math.isinf(xi):
        return gg_cdf(alpha, beta_agg, x)
    return _clamp_prob(_conditioned_cdf(alpha, beta_agg, xi * xi, x))


def ggp_cdf_approx(ga: GammaApprox, xi: float, x: float) -> float:
    """Gamma-surrogate CDF of the fading-plus-misalignment product.

    Closed form in the surrogate shape ``k_ap``/scale ``theta_ap`` and the
    misalignment exponent ``xi**2``; degenerates to the plain regularized
    gamma CDF when ``xi`` is the pointing-free sentinel.
    """
    if x < 0.0:
        raise ValueError(f"ggp_cdf_approx requires x >= 0, got {x}")
    if not xi > 0.0:
        raise ValueError(f"ggp_cdf_approx requires xi > 0, got {xi}")
    if x == 0.0:
        return 0.0
    t = x / ga.theta_ap
    if math.isinf(xi):
        return float(_sp.gammainc(ga.k_ap, t))
    if t > 600.0:
        # The upper tail has fully decayed; the closed form would underflow.
        return 1.0
    k = ga.k_ap
    theta_order = xi * xi - k + 1.0
    tail = math.exp(k * math.log(t) - math.lgamma(k)) * specfun.exp_integral(theta_order, t)
    return _clamp_prob(tail + float(_sp.gammainc(k, t)))


# ---------------------------------------------------------------------------
# cached per-scenario link bundles
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def bob_link(scenario: ScenarioConfig) -> LinkParams:
    """Derived parameters of the legitimate receiver's link (no pointing loss)."""
    turb = turbulence_params(scenario.geometry, scenario.d_b)
    pointing = pointing_params(scenario.geometry, 0.0)
    ga = gamma_approx(turb, scenario.nodes.n_b, scenario.epsilon, scenario.omega_adj)
    return LinkParams(
        turb=turb,
        pointing=pointing,
        beta_agg=turb.beta_single * scenario.nodes.n_b,
        ga=ga,
        n_rx=scenario.nodes.n_b,
    )


@lru_cache(maxsize=256)
def eve_link(scenario: ScenarioConfig) -> LinkParams:
    """Derived parameters of the eavesdropper's link (with pointing loss)."""
    turb = turbulence_params(scenario.geometry, scenario.d_e)
    pointing = pointing_params(scenario.geometry, scenario.sigma_s)
    ga = gamma_approx(turb, scenario.nodes.n_e, scenario.epsilon, scenario.omega_adj)
    return LinkParams(
        turb=turb,
        pointing=pointing,
        beta_agg=turb.beta_single * scenario.nodes.n_e,
        ga=ga,
        n_rx=scenario.nodes.n_e,
    )
