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

Series expansions are used at moderate argument and swapped for quadrature
of the underlying density when the series argument grows past
``specfun.SERIES_SAFE_Z``.  All records are frozen dataclasses, all
functions pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy import integrate as _integrate
from scipy import special as _sp

from fso_secrecy import specfun
from fso_secrecy.specfun import EvalOptions

__all__ = [
    "CALIBRATED_GAMMA0",
    "POINTING_FREE_XI",
    "GeometryConfig",
    "TurbulenceParams",
    "PointingParams",
    "NodeConfig",
    "GammaApprox",
    "GgpCdfTerms",
    "SnrThreshold",
    "ScenarioConfig",
    "LinkParams",
    "baseline_scenario",
    "turbulence_params",
    "pointing_params",
    "gamma_approx",
    "ggp_cdf_terms",
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

_NUDGE = 1e-5
_POLE_TOL = 1e-6

# The CDF expansions subtract series of comparable magnitude, so their
# rounding noise scales with the *largest* series, not the result.  When the
# estimated noise (machine epsilon times the accumulated absolute terms)
# exceeds this bound, the kernel re-evaluates itself by quadrature.
_SERIES_ABS_ERR_LIMIT = 1e-10
_EPS = 2.3e-16

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
class GgpCdfTerms:
    """Coefficient vectors of the combined fading-plus-misalignment CDF.

    ``b_vec`` and ``c_vec`` are indexed by the outer sum index ``u``;
    ``a_vec``, ``d_vec`` and ``e_vec`` hold, for each ``u``, the length-2
    inner vectors indexed by ``v``.
    """

    a_vec: tuple[tuple[float, float], tuple[float, float]]
    b_vec: tuple[float, float]
    c_vec: tuple[float, float]
    d_vec: tuple[tuple[float, float], tuple[float, float]]
    e_vec: tuple[tuple[float, float], tuple[float, float]]


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
# pole handling for the series expansions
# ---------------------------------------------------------------------------


def _near_integer(x: float) -> bool:
    return abs(x - round(x)) < _POLE_TOL


def _nudge_shapes(alpha: float, beta: float, xi2: float | None) -> tuple[float, float, float | None]:
    """Move shape parameters off the removable poles of the csc expansions.

    The closed forms divide by sines of parameter differences, so integer
    differences are limits rather than values; a +1e-5 nudge reproduces the
    limit to about that accuracy while keeping a single code path.
    """
    for _ in range(10):
        if _near_integer(alpha - beta):
            beta += _NUDGE
            continue
        if xi2 is not None and (_near_integer(alpha - xi2) or _near_integer(beta - xi2)):
            xi2 += _NUDGE
            continue
        return alpha, beta, xi2
    raise ValueError(
        f"could not separate shape parameters ({alpha}, {beta}, {xi2}) from expansion poles"
    )


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


def _gg_cdf_quadrature(alpha: float, beta_agg: float, x: float) -> float:
    # Conditioning on the large-scale factor leaves a regularized-gamma CDF
    # under a gamma weight: smooth, fast, and immune to series blowup.
    log_norm = alpha * math.log(alpha) - math.lgamma(alpha)

    def integrand(s: float) -> float:
        return math.exp(log_norm + (alpha - 1.0) * math.log(s) - alpha * s) * float(
            _sp.gammainc(beta_agg, beta_agg * x / s)
        )

    val, _ = _integrate.quad(integrand, 0.0, math.inf, limit=300)
    return val


def gg_cdf(alpha: float, beta_agg: float, x: float, opts: EvalOptions | None = None) -> float:
    """CDF of the unit-mean aggregated turbulence fading."""
    if not (alpha > 0.0 and beta_agg > 0.0):
        raise ValueError("gg_cdf shape parameters must be strictly positive")
    if x < 0.0:
        raise ValueError(f"gg_cdf requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    a, b, _ = _nudge_shapes(alpha, beta_agg, None)
    z = a * b * x
    if z > specfun.SERIES_SAFE_Z:
        return _clamp_prob(_gg_cdf_quadrature(a, b, x))
    pref = math.pi / (
        math.sin(math.pi * (a - b)) * math.exp(math.lgamma(a) + math.lgamma(b))
    )
    s_b, c_b = specfun.hyp1f2_reg_cond(b, b + 1.0, b - a + 1.0, z, opts)
    s_a, c_a = specfun.hyp1f2_reg_cond(a, a + 1.0, a - b + 1.0, z, opts)
    w_b = math.exp(math.lgamma(b) + b * math.log(z))
    w_a = math.exp(math.lgamma(a) + a * math.log(z))
    noise = _EPS * abs(pref) * (w_b * c_b + w_a * c_a)
    if noise > _SERIES_ABS_ERR_LIMIT:
        return _clamp_prob(_gg_cdf_quadrature(a, b, x))
    return _clamp_prob(pref * (w_b * s_b - w_a * s_a))


def ggp_cdf_terms(alpha: float, beta_agg: float, xi: float) -> GgpCdfTerms:
    """Coefficient vectors of the double-sum expansion of ``ggp_cdf``."""
    xi2 = xi * xi
    b_vec = (alpha, beta_agg)
    c_vec = (-1.0, 1.0)
    a_rows = []
    d_rows = []
    e_rows = []
    for u in range(2):
        bu, cu = b_vec[u], c_vec[u]
        a_rows.append((bu, bu - xi2))
        d_rows.append((bu + 1.0, (beta_agg - alpha) * cu + 1.0))
        e_rows.append(((beta_agg - alpha) * cu + 1.0, bu - xi2 + 1.0))
    return GgpCdfTerms(
        a_vec=(a_rows[0], a_rows[1]),
        b_vec=b_vec,
        c_vec=c_vec,
        d_vec=(d_rows[0], d_rows[1]),
        e_vec=(e_rows[0], e_rows[1]),
    )


def _ggp_cdf_quadrature(alpha: float, beta_agg: float, xi2: float, x: float) -> float:
    # Mixing over the collected-power fraction, substituted so the weight is
    # flat: with v = fraction**xi2 the integrand is bounded on (0, 1].
    inv = 1.0 / xi2

    def integrand(v: float) -> float:
        return gg_cdf(alpha, beta_agg, x / v**inv)

    val, _ = _integrate.quad(integrand, 0.0, 1.0, limit=200)
    return val


def ggp_cdf(
    alpha: float, beta_agg: float, xi: float, x: float, opts: EvalOptions | None = None
) -> float:
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
        return gg_cdf(alpha, beta_agg, x, opts)
    a, b, xi2 = _nudge_shapes(alpha, beta_agg, xi * xi)
    z = a * b * x
    if z > specfun.SERIES_SAFE_Z:
        return _clamp_prob(_ggp_cdf_quadrature(a, b, xi2, x))
    terms = ggp_cdf_terms(a, b, math.sqrt(xi2))
    log_z = math.log(z)
    double_sum = 0.0
    abs_sum = 0.0
    for u in range(2):
        bu = terms.b_vec[u]
        zu = math.exp(bu * log_z)
        for v in range(2):
            av = terms.a_vec[u][v]
            val, cond = specfun.hyp1f2_reg_cond(
                av, terms.d_vec[u][v], terms.e_vec[u][v], z, opts
            )
            scale = zu * math.gamma(av)
            double_sum += terms.c_vec[u] * terms.c_vec[v] * scale * val
            abs_sum += abs(scale) * cond
    csc = 1.0 / math.sin(math.pi * (a - b))
    power_term = (
        math.pi
        * math.exp(xi2 * log_z)
        / (
            math.sin(math.pi * (a - xi2))
            * math.sin(math.pi * (b - xi2))
            * math.gamma(xi2 - a + 1.0)
            * math.gamma(xi2 - b + 1.0)
        )
    )
    outer = math.pi * math.exp(-math.lgamma(a) - math.lgamma(b))
    noise = _EPS * outer * (abs(csc) * abs_sum + abs(power_term))
    if noise > _SERIES_ABS_ERR_LIMIT:
        return _clamp_prob(_ggp_cdf_quadrature(a, b, xi2, x))
    return _clamp_prob(outer * (-csc * double_sum + power_term))


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
