"""Closed-form secrecy metrics: outage probabilities and throughput.

Two transmission schemes are covered.  Under the *adaptive* scheme the
transmitter tracks the legitimate channel and always signals at capacity, so
only secrecy can fail; under the *fixed-rate* scheme both the codeword rate
and the redundancy rate are set in advance, so reliability and secrecy are
both probabilistic.  Throughput is gated to zero whenever the secrecy-outage
probability exceeds the configured ceiling.

Every metric exists in two flavors: the exact CDF kernels, and the
gamma-surrogate approximation (``use_approx=True``) that the rate optimizers
are derived on.

The four per-rate outage functions (``sop``, ``sop_approx``,
``reliability_outage``, ``reliability_outage_approx``) are memoized on
(scenario, rate) in LRU caches of ``OUTAGE_CACHE_SIZE`` = 1024 entries
each, so a repeated outage is computed once while it stays cached.  Errors
are not cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from fso_secrecy import channel, specfun
from fso_secrecy.channel import ScenarioConfig, bob_link, eve_link, snr_threshold

__all__ = [
    "RatePair",
    "SecrecyConstraint",
    "EstReport",
    "sop",
    "sop_approx",
    "reliability_outage",
    "reliability_outage_approx",
    "est_adaptive",
    "est_fixed",
]

#: LRU bound of each memoized outage function.
OUTAGE_CACHE_SIZE = 1024


@dataclass(frozen=True)
class RatePair:
    """Wiretap-code rates: codeword rate ``r_b`` and redundancy rate ``r_e``."""

    r_b: float
    r_e: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r_e <= self.r_b:
            raise ValueError(f"RatePair requires 0 <= r_e <= r_b, got ({self.r_b}, {self.r_e})")

    @property
    def secrecy_rate(self) -> float:
        return self.r_b - self.r_e


@dataclass(frozen=True)
class SecrecyConstraint:
    """Ceiling on the secrecy-outage probability; 1.0 means unconstrained."""

    s_th: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.s_th <= 1.0:
            raise ValueError(f"SecrecyConstraint.s_th must lie in (0, 1], got {self.s_th}")


@dataclass(frozen=True)
class EstReport:
    """Throughput value with its reliability/secrecy decomposition."""

    est: float
    reliability_factor: float
    secrecy_factor: float
    sop: float
    constraint_met: bool


@lru_cache(maxsize=OUTAGE_CACHE_SIZE)
def sop(scenario: ScenarioConfig, r_e: float) -> float:
    """Secrecy outage probability: chance the eavesdropper's capacity tops ``r_e``."""
    link = eve_link(scenario)
    thr = snr_threshold(scenario.nodes, link.pointing, r_e, "eve").value
    if scenario.sigma_s == 0.0:
        f = channel.gg_cdf(link.turb.alpha, link.beta_agg, thr)
    else:
        f = channel.ggp_cdf(link.turb.alpha, link.beta_agg, link.pointing.xi, thr)
    return 1.0 - f


@lru_cache(maxsize=OUTAGE_CACHE_SIZE)
def sop_approx(scenario: ScenarioConfig, r_e: float) -> float:
    """Gamma-surrogate secrecy outage probability (optimizer surface)."""
    link = eve_link(scenario)
    thr = snr_threshold(scenario.nodes, link.pointing, r_e, "eve").value
    return 1.0 - channel.ggp_cdf_approx(link.ga, link.pointing.xi, thr)


@lru_cache(maxsize=OUTAGE_CACHE_SIZE)
def reliability_outage(scenario: ScenarioConfig, r_b: float) -> float:
    """Probability the selected-beam combined link cannot carry ``r_b``.

    Transmit selection over ``n_a`` independent beams raises the
    single-beam outage to the ``n_a``-th power.
    """
    link = bob_link(scenario)
    thr = snr_threshold(scenario.nodes, link.pointing, r_b, "bob").value
    return channel.gg_cdf(link.turb.alpha, link.beta_agg, thr) ** scenario.nodes.n_a


@lru_cache(maxsize=OUTAGE_CACHE_SIZE)
def reliability_outage_approx(scenario: ScenarioConfig, r_b: float) -> float:
    """Gamma-surrogate reliability outage (optimizer surface)."""
    link = bob_link(scenario)
    thr = snr_threshold(scenario.nodes, link.pointing, r_b, "bob").value
    c1 = specfun.reg_gamma_q(link.ga.k_ap, 0.0, thr / link.ga.theta_ap)
    return c1 ** scenario.nodes.n_a


def est_adaptive(
    scenario: ScenarioConfig,
    c_b: float,
    r_e: float,
    constraint: SecrecyConstraint,
    *,
    use_approx: bool = False,
) -> EstReport:
    """Throughput of the capacity-tracking scheme at redundancy rate ``r_e``.

    Reliability is guaranteed by construction (the codeword rate follows the
    realized capacity ``c_b``), so the report's reliability factor is one.
    """
    if not 0.0 <= r_e <= c_b:
        raise ValueError(f"est_adaptive requires 0 <= r_e <= c_b, got ({c_b}, {r_e})")
    s = sop_approx(scenario, r_e) if use_approx else sop(scenario, r_e)
    met = s <= constraint.s_th
    secrecy_factor = 1.0 - s
    return EstReport(
        est=(c_b - r_e) * secrecy_factor if met else 0.0,
        reliability_factor=1.0,
        secrecy_factor=secrecy_factor,
        sop=s,
        constraint_met=met,
    )


def est_fixed(
    scenario: ScenarioConfig,
    rates: RatePair,
    constraint: SecrecyConstraint,
    *,
    use_approx: bool = False,
) -> EstReport:
    """Throughput of the fixed-rate scheme at the given rate pair."""
    if use_approx:
        t = reliability_outage_approx(scenario, rates.r_b)
        s = sop_approx(scenario, rates.r_e)
    else:
        t = reliability_outage(scenario, rates.r_b)
        s = sop(scenario, rates.r_e)
    met = s <= constraint.s_th
    reliability_factor = 1.0 - t
    secrecy_factor = 1.0 - s
    return EstReport(
        est=rates.secrecy_rate * reliability_factor * secrecy_factor if met else 0.0,
        reliability_factor=reliability_factor,
        secrecy_factor=secrecy_factor,
        sop=s,
        constraint_met=met,
    )
