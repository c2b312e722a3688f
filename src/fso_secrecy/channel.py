"""Free-space-optical channel parameterization and distribution kernels.

Maps link geometry (wavelength, distance, refractive-index structure
constant, beam and aperture sizes) to the shape parameters of the
turbulence fading model, folds in the misalignment statistics of the
eavesdropper's receiver, and evaluates the three kernels everything else is
built on, each a CDF with its density:

* ``gg_cdf`` -- unit-mean turbulence fading (product of two gamma factors),
  aggregated over receive apertures;
* ``ggp_cdf`` -- the same fading multiplied by the random collected-power
  fraction of a misaligned receiver;
* ``ggp_cdf_approx`` -- the gamma-surrogate approximation of ``ggp_cdf``
  used by the rate optimizers, from a link's :class:`Surrogate`.

All three pass through one boundary, which takes a threshold x >= 0, a float
or an array, reads an infinite one as certain (CDF 1, density 0) and
returns the (cdf, pdf) pair, two numpy floats or two arrays.  The exact
kernels condition on the gamma factor of larger shape: given that factor,
the other gamma factor and the collected-power fraction integrate in closed
form, and the expectation over the factor is a trapezoid rule in its
logarithm on one numpy array of nodes, against which an array of
thresholds broadcasts.  The surrogate is that closed form with the factor
fixed at one.  The density comes from the same pass, through the same
conditional term.

The surrogate's constants live in the link: when :func:`bob_link` or
:func:`eve_link` derive a link, ``LinkParams.gain`` takes the SNR gain
gamma0 * a0 * n_rx and ``LinkParams.surrogate`` the :class:`Surrogate` of
:func:`gamma_approx`, with the shape and scale, xi**2 and the pointing
term's log-gamma ratio.  An evaluation from them does only numpy and scipy
ufunc work, the same sequence on a float as on each element of an array.

The paper's 1F2 expansions of the same CDFs are kept as a test reference
only.  All records are frozen dataclasses, all functions pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
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
    "Surrogate",
    "ScenarioConfig",
    "LinkParams",
    "baseline_scenario",
    "turbulence_params",
    "pointing_params",
    "gamma_approx",
    "gg_cdf",
    "ggp_cdf",
    "ggp_cdf_approx",
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

# Past this argument every CDF kernel reads 1 and every density 0 in double
# precision, at any shape up to _SHAPE_CAP; the kernels clamp a larger one,
# inf included, to it.
_X_CERTAIN = 1e300

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


def _clamp_prob(p):
    """Clamp computed probabilities (a float or an array) to [0, 1], counting
    each element that overshoots by more than 1e-9."""
    global _CLAMP_EVENTS
    _CLAMP_EVENTS += int(np.count_nonzero((p < -1e-9) | (p > 1.0 + 1e-9)))
    return np.minimum(np.maximum(p, 0.0), 1.0)


def clamp_event_count() -> int:
    """Number of probabilities clamped by more than 1e-9.

    It counts every kernel evaluation, one per array element: nothing
    between a caller and the kernels stores a probability.
    """
    return _CLAMP_EVENTS


def reset_clamp_events() -> None:
    global _CLAMP_EVENTS
    _CLAMP_EVENTS = 0


@dataclass(frozen=True)
class GeometryConfig:
    """Static link geometry shared by both receivers."""

    wavelength_m: float = 1550e-9
    cn2: float = 1.7e-14
    beam_waist_wb: float = 2.5
    aperture_radius_rho: float = 0.1

    def __post_init__(self) -> None:
        for f in fields(self):
            if not getattr(self, f.name) > 0.0:
                raise ValueError(f"GeometryConfig.{f.name} must be strictly positive")

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


_A0_RANGE = "PointingParams.a0 must lie in (0, 1)"


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
            raise ValueError(_A0_RANGE)
        if not self.omega_e < math.inf:
            raise ValueError("PointingParams.omega_e must be finite")
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
            # A count enters float arithmetic, so it must fit a double.
            if not (isinstance(v, int) and 1 <= v <= sys.float_info.max):
                raise ValueError(
                    f"NodeConfig.{name} must be an integer in [1, {sys.float_info.max:.3g}]"
                )
        if not self.gamma0 > 0.0:
            raise ValueError("NodeConfig.gamma0 must be strictly positive")


@dataclass(frozen=True)
class Surrogate:
    """The gamma surrogate of one receiver's fading-plus-misalignment
    product, with the constants of its CDF computed once.

    ``k`` and ``theta`` are the surrogate's shape and scale, ``xi2`` the
    squared jitter-normalized beam width, None without pointing loss, and
    ``log_ratio`` the pointing term's :func:`_log_scaled_gamma_ratio` of
    k - xi2 and xi2 where k - xi2 > 0, None elsewhere.
    """

    k: float
    theta: float
    xi2: float | None
    log_ratio: float | None

    def __post_init__(self) -> None:
        if not (self.k > 0.0 and self.theta > 0.0):
            raise ValueError("Surrogate shape and scale must be strictly positive")


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


def baseline_scenario(**overrides) -> ScenarioConfig:
    """Default scenario; keyword overrides may target top-level or nested fields.

    Leaf fields of the geometry (``cn2``, ``beam_waist_wb``, ...) and of the
    node layout (``n_a``, ``gamma0``, ...) are accepted directly and routed
    into the nested configs, which keeps sweep loops one-liners.
    """
    geo_kw = {f.name: overrides.pop(f.name) for f in fields(GeometryConfig) if f.name in overrides}
    node_kw = {f.name: overrides.pop(f.name) for f in fields(NodeConfig) if f.name in overrides}
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
    """Derived per-receiver bundle consumed by the secrecy closed forms.

    ``gain`` is the SNR gain gamma0 * a0 * n_rx, multiplied in that order,
    that maps a rate to the normalized irradiance a receiver must clear,
    and ``surrogate`` the constants of the link's gamma-surrogate CDF.
    """

    turb: TurbulenceParams
    pointing: PointingParams
    beta_agg: float
    n_rx: int
    gain: float
    surrogate: Surrogate


def turbulence_params(geom: GeometryConfig, distance_m: float) -> TurbulenceParams:
    """Scintillation shape parameters for one propagation distance."""
    if not distance_m > 0.0:
        raise ValueError(f"distance_m must be positive, got {distance_m}")
    w = geom.wave_number
    try:
        rytov = 1.23 * geom.cn2 * w ** (7.0 / 6.0) * distance_m ** (11.0 / 6.0)
    except OverflowError:  # a power past the double range
        rytov = math.inf
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
    # a0 rounds to 1 from nu of about 6, and exp(-nu**2) to 0 from about 27,
    # so a0 is checked before omega_e is formed.
    if not 0.0 < a0 < 1.0:
        raise ValueError(_A0_RANGE)
    try:
        omega_e = math.sqrt(
            math.sqrt(math.pi) * geom.beam_waist_wb**2 * e / (2.0 * nu * math.exp(-nu * nu))
        )
    except OverflowError:  # beam_waist_wb**2 past the double range
        omega_e = math.inf
    xi = omega_e / (2.0 * sigma_s) if sigma_s > 0.0 else POINTING_FREE_XI
    if xi == 0.0:
        raise ValueError(f"sigma_s must leave omega_e / (2 sigma_s) above 0, got {sigma_s}")
    return PointingParams(nu=nu, a0=a0, omega_e=omega_e, sigma_s=sigma_s, xi=xi)


def gamma_approx(
    turb: TurbulenceParams, n_apertures: int, epsilon: float, omega_adj: float, xi: float
) -> Surrogate:
    """Moment-matched single-gamma surrogate of the aggregated fading, with
    the pointing constants of jitter-normalized beam width ``xi``
    (``POINTING_FREE_XI`` without pointing loss).

    The aggregated small-scale shape is ``beta_single * n_apertures``.  The
    shape/scale pair always satisfies ``k * theta == omega_adj``.
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
    if not xi > 0.0:
        raise ValueError(f"gamma_approx requires xi > 0, got {xi}")
    k = 1.0 / bracket
    # An xi whose square passes the double range is the pointing-free limit.
    xi2 = None if math.isinf(xi * xi) else xi * xi
    return Surrogate(k=k, theta=omega_adj / k, xi2=xi2, log_ratio=_pointing_log_ratio(k, xi2))


# ---------------------------------------------------------------------------
# distribution kernels
# ---------------------------------------------------------------------------


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


def _pointing_log_ratio(k: float, xi2: float | None) -> float | None:
    """The constant ln(k**xi2 Gamma(a) / Gamma(k)) of :func:`_log_pointing_term`
    where a = k - xi2 > 0; None where a <= 0, which takes no such term, and
    without pointing loss (``xi2`` None)."""
    if xi2 is not None and k - xi2 > 0.0:
        return _log_scaled_gamma_ratio(k - xi2, xi2)
    return None


def _log_pointing_term(k, xi2, log_ratio, t, log_c):
    """ln(t**xi2 Gamma(k - xi2, t) / Gamma(k)) with t = k c, elementwise on
    arrays, given ``log_ratio`` = :func:`_pointing_log_ratio` (k, xi2).  The
    constants k and xi2 are floats and ``log_ratio`` a float or None; t and
    log_c are arrays.

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
    if log_ratio is not None:
        return xi2 * log_c + _log_upper_q(a, t) + log_ratio
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


@np.errstate(divide="ignore")  # Q(a, t) underflows far in the tail
def _log_upper_q(a: float, t):
    """ln Q(a, t) of scipy's regularized upper gamma, -inf where Q underflows."""
    return np.log(_sp.gammaincc(a, t))


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
    live = np.ones(t.shape, dtype=bool)
    for i in range(1, _CF_MAX_TERMS):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (b + an * d)
        c = b + an / c
        delta = c * d
        # An element stops at its own convergence, as it would alone, so an
        # array call returns each element's scalar value to the bit.
        f = np.where(live, f * delta, f)
        live &= np.abs(delta - 1.0) > 1e-15
        if not live.any():
            return np.log(f)
    raise specfun.ConvergenceError(
        f"upper incomplete gamma continued fraction for a={a} did not converge "
        f"in {_CF_MAX_TERMS} terms"
    )


def _conditional_term(k: float, xi2: float | None, log_ratio: float | None, t, log_c, log_w=0.0):
    """The conditional CDF G(t) = P(k, t) + t**xi2 Gamma(k - xi2, t) / Gamma(k)
    on an array of t = k c, and its second term, each times the weight
    e**log_w; without pointing loss (``xi2`` None) G is P(k, t) and the
    second term None.

    It is the term :func:`_conditioned_cdf` mixes over the fading factor,
    with c = x / X and a log weight per node, and the gamma surrogate's CDF
    at the factor one, with the default weight one.  The second term comes
    from :func:`_log_pointing_term` in the log domain, weight included, so
    no factor overflows for any shape up to ``_SHAPE_CAP``.  It also gives
    the density: the gamma densities of the two terms' derivatives cancel,
    so t G'(t) is xi2 times the second term, and without pointing loss
    t G'(t) is t times the gamma density of :func:`_log_gamma_density`.
    """
    p = np.exp(log_w) * _sp.gammainc(k, t)
    if xi2 is None:
        return p, None
    second = np.exp(log_w + _log_pointing_term(k, xi2, log_ratio, t, log_c))
    return p + second, second


def _log_gamma_density(k: float, t, log_t):
    """ln of the Gamma(k, 1) density at t, (k - 1) ln t - t - ln Gamma(k),
    given ``log_t`` = ln t.

    Near its peak, t = k - 1, the terms cancel to about -ln(2 pi k) / 2,
    and each carries a rounding error of its own size, so the relative
    error of the density grows with k.  Against mpmath near the peak it was
    2.4e-15 at k = 4, 6e-14 at 1e2, 1.5e-11 at 1e4, 3.7e-7 at 1e8 and 3.8e-3
    at the shape cap 1e12.  The CDFs do not take this form.
    """
    return (k - 1.0) * log_t - t - math.lgamma(k)


def _conditioned_cdf(alpha: float, beta_agg: float, xi2: float | None, x: np.ndarray):
    """P(X Y V <= x) and its density on an array of x > 0, conditioning on
    the larger-shape factor.

    X ~ Gamma(m, 1/m) is the factor of larger shape and Y ~ Gamma(k, 1/k) the
    other one; the product is symmetric in the two.  V is the collected-power
    fraction, with density xi2 v**(xi2 - 1) on (0, 1], or 1 when ``xi2`` is
    None.  Given X, with t = k x / X, the rest integrates in closed form
    (gamma-gamma as a gamma mixture, Al-Habash, Andrews & Phillips 2001;
    pointing loss, Farid & Hranilovic 2007): it is the conditional term
    G(t) of :func:`_conditional_term`.  The expectation over u = ln X is a
    trapezoid rule on :func:`_trapezoid_nodes`; the integrand is smooth and
    falls off on both sides, so the rule converges geometrically in the
    step.  Dividing by the sum of the weights removes the gamma
    normalization of X.  The weights enter in the log domain, so no factor
    overflows for any shape up to ``_SHAPE_CAP``.

    The density comes from the same pass: x times it is the mixture of
    t G'(t), which is xi2 times the second term, or, without pointing loss,
    t times the gamma density.  The nodes depend on the shapes only, so x
    broadcasts against them, and each element has the bits of a
    one-element call.
    """
    if not (alpha > 0.0 and beta_agg > 0.0):
        raise ValueError("gamma-gamma shape parameters must be strictly positive")
    m, k = (alpha, beta_agg) if alpha >= beta_agg else (beta_agg, alpha)
    u = _trapezoid_nodes(m)
    log_w = -m * (np.expm1(u) - u)
    w_sum = np.exp(log_w).sum()
    log_c = np.log(x)[..., None] - u
    # Past t = e**700, P(k, t) is 1 and the second term 0 in double precision.
    log_t = np.minimum(math.log(k) + log_c, 700.0)
    t = np.exp(log_t)
    cdf, second = _conditional_term(k, xi2, _pointing_log_ratio(k, xi2), t, log_c, log_w)
    x_pdf = t * np.exp(log_w + _log_gamma_density(k, t, log_t)) if xi2 is None else xi2 * second
    return cdf.sum(axis=-1) / w_sum, x_pdf.sum(axis=-1) / w_sum / x


def _kernel(name: str, x, scale: float, terms):
    """The boundary every CDF kernel passes through: its CDF and density at
    x >= 0, a float or an array, from ``terms``, which gives the CDF and the
    density in t on an array of t = x / scale > 0.

    x is clamped at ``_X_CERTAIN`` times ``scale``, so an infinite x reads
    as certain, CDF 1 and density 0; where t is 0 both are 0.  The CDF is
    clamped to [0, 1] and the density divided by ``scale``, per unit x.
    Below xi2 = 1 the density diverges at 0, where it reads inf: overflow
    is ignored while it is formed, and every CDF term is at most 1.

    An array gives two arrays of its shape; a float gives two numpy floats,
    which divide by zero as array elements do.  Either way every step is a
    numpy ufunc or IEEE arithmetic on an array, so a float call returns the
    bits of the matching element of an array call.
    """
    xs = np.asarray(x, dtype=float)
    if not (xs >= 0.0).all():
        raise ValueError(f"{name} requires x >= 0, got {x}")
    t = np.minimum(xs, _X_CERTAIN * scale) / scale
    cdf, pdf = np.zeros(t.shape), np.zeros(t.shape)
    pos = t > 0.0
    with np.errstate(over="ignore"):
        c, d = terms(t[pos])
        pdf[pos] = d / scale
    cdf[pos] = _clamp_prob(c)
    return cdf[()], pdf[()]


def gg_cdf(alpha: float, beta_agg: float, x):
    """CDF and density of the unit-mean aggregated turbulence fading at x
    (a float or an array), as :func:`_kernel` returns them."""
    return _kernel("gg_cdf", x, 1.0, lambda t: _conditioned_cdf(alpha, beta_agg, None, t))


def ggp_cdf(alpha: float, beta_agg: float, xi: float, x):
    """CDF and density of turbulence fading scaled by the random
    collected-power fraction, at x (a float or an array), as
    :func:`_kernel` returns them."""
    if not xi > 0.0:
        raise ValueError(f"ggp_cdf requires xi > 0, got {xi}")
    xi2 = None if math.isinf(xi * xi) else xi * xi
    return _kernel("ggp_cdf", x, 1.0, lambda t: _conditioned_cdf(alpha, beta_agg, xi2, t))


def ggp_cdf_approx(sur: Surrogate, x):
    """Gamma-surrogate CDF and density of the fading-plus-misalignment
    product at x >= 0, a float or an array, from the link's constants
    ``sur``, as :func:`_kernel` returns them.

    With t = x / theta the CDF is the conditional term of
    :func:`_conditional_term` with the fading factor fixed at one, and the
    density in t is its t G'(t) over t: (xi2 / t) times the second term,
    or without pointing loss the plain gamma density.
    """
    k, xi2 = sur.k, sur.xi2

    def terms(t):
        cdf, second = _conditional_term(k, xi2, sur.log_ratio, t, np.log(t / k))
        return cdf, np.exp(_log_gamma_density(k, t, np.log(t))) if xi2 is None else xi2 * second / t

    return _kernel("ggp_cdf_approx", x, sur.theta, terms)


# ---------------------------------------------------------------------------
# cached per-scenario link bundles
# ---------------------------------------------------------------------------


def _link(scenario: ScenarioConfig, distance_m: float, sigma_s: float, n_rx: int) -> LinkParams:
    turb = turbulence_params(scenario.geometry, distance_m)
    pointing = pointing_params(scenario.geometry, sigma_s)
    # A subnormal gain overflows the rate-to-threshold map of the surrogate
    # kernels; an infinite one puts every rate in outage.
    gain = scenario.nodes.gamma0 * pointing.a0 * n_rx
    if gain < sys.float_info.min:
        raise ValueError(
            f"link gain gamma0 * n_rx * a0 = {gain:.3g} is below the smallest "
            f"normal float {sys.float_info.min:.3g}"
        )
    if not math.isfinite(gain):
        raise ValueError(
            f"link gain gamma0 * n_rx * a0 = {gain:.3g} is above the largest "
            f"float {sys.float_info.max:.3g}"
        )
    return LinkParams(
        turb=turb,
        pointing=pointing,
        beta_agg=turb.beta_single * n_rx,
        n_rx=n_rx,
        gain=gain,
        surrogate=gamma_approx(turb, n_rx, scenario.epsilon, scenario.omega_adj, pointing.xi),
    )


@lru_cache(maxsize=256)
def bob_link(scenario: ScenarioConfig) -> LinkParams:
    """Derived parameters of the legitimate receiver's link (no pointing loss)."""
    return _link(scenario, scenario.d_b, 0.0, scenario.nodes.n_b)


@lru_cache(maxsize=256)
def eve_link(scenario: ScenarioConfig) -> LinkParams:
    """Derived parameters of the eavesdropper's link (with pointing loss)."""
    return _link(scenario, scenario.d_e, scenario.sigma_s, scenario.nodes.n_e)
