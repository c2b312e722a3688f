"""Closed-form secrecy metrics: outage probabilities and throughput.

Two transmission schemes are covered.  Under the *adaptive* scheme the
transmitter tracks the legitimate channel and always signals at capacity, so
only secrecy can fail; under the *fixed-rate* scheme both the codeword rate
and the redundancy rate are set in advance, so reliability and secrecy are
both probabilistic.  Throughput is gated to zero whenever the secrecy-outage
probability exceeds the configured ceiling.

Each outage exists in two flavors: the exact CDF kernels, and the
gamma-surrogate approximation that the rate optimizers are derived on.
:func:`est_adaptive` and :func:`est_fixed` are the exact throughputs; the
surrogate throughput is :func:`est_from_outages` of the surrogate outages.

All four outages return the same pair, the outage and its analytic slope in
the rate, infinite where it passes the double range, from one kernel call:
the secrecy outages as 1 - F and the reliability outages as c1**n_a of the
kernel's (CDF, density) pair, each with its slope.  They take a float or an
array of rates; a float gives two numpy floats with the bits of the
matching elements of an array call.  Every rate meets a kernel through
:func:`rate_threshold`, and every outage rejects a rate outside
[0, ``RATE_LIMIT``), where 2**rate overflows.

The exact ``sop`` and ``reliability_outage`` take a scenario.  Nothing is
stored between calls: a caller asks once for its distinct rates, and
:func:`est_from_outages` turns the outages into throughput.  The surrogate
outages take the link itself, with the constants it carries
(``LinkParams.gain`` and ``LinkParams.surrogate``, computed once by
``bob_link`` and ``eve_link``): ``sop_approx(eve, r_e)`` and
``reliability_outage_approx(bob, n_a, r_b)``.  So a solver looks its link up
once, each outage does only the kernel's ufunc work, and they are the one
place the solvers take the surrogate's rate derivatives from.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from fso_secrecy import channel
from fso_secrecy.channel import LinkParams, ScenarioConfig, bob_link, eve_link

__all__ = [
    "RatePair",
    "SecrecyConstraint",
    "sop",
    "sop_approx",
    "reliability_outage",
    "reliability_outage_approx",
    "est_adaptive",
    "est_fixed",
    "est_from_outages",
    "rate_threshold",
]

_LN2 = math.log(2.0)

#: Rates, in bits per channel use, lie in [0, RATE_LIMIT): 2**rate overflows
#: a double from 1024 on.  Every outage, closed-form or Monte-Carlo, and the
#: command line reject a rate outside it.
RATE_LIMIT = 1024.0


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


def sop(scenario: ScenarioConfig, r_e):
    """Secrecy outage probability, the chance the eavesdropper's capacity
    tops ``r_e``, a float or an array of rates, and its slope in the rate."""
    link = eve_link(scenario)
    # xi is POINTING_FREE_XI at sigma_s = 0, where ggp_cdf is gg_cdf.
    kernel = partial(channel.ggp_cdf, link.turb.alpha, link.beta_agg, link.pointing.xi)
    return _complement(kernel, link.gain, r_e)


def sop_approx(eve: LinkParams, r_e):
    """Gamma-surrogate secrecy outage on the eavesdropper's link ``eve`` (the
    optimizer surface) and its slope in the rate, at ``r_e``, a float or an
    array of rates.  ``eve`` is read for its ``gain`` and ``surrogate``
    only."""
    return _complement(partial(channel.ggp_cdf_approx, eve.surrogate), eve.gain, r_e)


def reliability_outage(scenario: ScenarioConfig, r_b):
    """Probability the selected-beam combined link cannot carry ``r_b``, a
    float or an array of rates, and its slope in the rate.

    Transmit selection over ``n_a`` independent beams raises the
    single-beam outage to the ``n_a``-th power.
    """
    link = bob_link(scenario)
    kernel = partial(channel.gg_cdf, link.turb.alpha, link.beta_agg)
    return _selection(kernel, link.gain, scenario.nodes.n_a, r_b)


def reliability_outage_approx(bob: LinkParams, n_a: int, r_b):
    """Gamma-surrogate reliability outage on the legitimate link ``bob`` with
    ``n_a`` transmit beams (the optimizer surface) and its slope in the
    rate, at ``r_b``, a float or an array of rates.  ``bob`` is read for its
    ``gain`` and ``surrogate`` only.
    """
    return _selection(partial(channel.ggp_cdf_approx, bob.surrogate), bob.gain, n_a, r_b)


def _complement(kernel, gain: float, rate):
    """1 - F and its slope in the rate, for the (F, f) pair that ``kernel``
    returns at the thresholds of ``rate`` on a link of SNR gain ``gain``."""
    r = _rates(rate)
    cdf, pdf = kernel(rate_threshold(r, gain))
    with np.errstate(over="ignore"):
        return 1.0 - cdf, -pdf * _rate_slope(r, gain)


def _selection(kernel, gain: float, n_a: int, rate):
    """c1**n_a, the outage of selection over ``n_a`` beams, and its slope in
    the rate, n_a c1**(n_a - 1) times c1's, for the (c1, f) pair that
    ``kernel`` returns at the thresholds of ``rate`` on a link of SNR gain
    ``gain``."""
    r = _rates(rate)
    c1, pdf = kernel(rate_threshold(r, gain))
    with np.errstate(over="ignore"):
        return np.power(c1, n_a), n_a * np.power(c1, n_a - 1) * pdf * _rate_slope(r, gain)


def _rates(rate) -> np.ndarray:
    """``rate``, a float or an array, as a float array, each element in
    [0, ``RATE_LIMIT``)."""
    r = np.asarray(rate, dtype=float)
    if not ((0.0 <= r) & (r < RATE_LIMIT)).all():
        raise ValueError(f"rates must be non-negative and below {RATE_LIMIT:g}, got {rate}")
    return r


def rate_threshold(rate, gain: float):
    """Normalized irradiance (2**rate - 1) / gain that a receiver of SNR
    gain ``gain`` must clear to carry ``rate`` (a float or an array, >= 0).
    ``expm1`` keeps its relative accuracy where 2**rate - 1 would cancel
    (and read 0 below rate 1.6e-16).  Below ``RATE_LIMIT`` a gain under 1
    can carry the quotient past the double range: it is then inf, which
    every CDF kernel takes as certain (CDF 1, density 0)."""
    with np.errstate(over="ignore"):
        return np.expm1(rate * _LN2) / gain


def _rate_slope(rate, gain: float):
    """Slope of :func:`rate_threshold` in the rate, 2**rate ln 2 / gain, with
    2**rate formed as the threshold's own expm1 plus one.  It is capped at
    the largest double: it passes that only where the threshold is inf, and
    the density it multiplies there is 0, as their product must stay."""
    return np.minimum((np.expm1(rate * _LN2) + 1.0) * (_LN2 / gain), sys.float_info.max)


def est_adaptive(
    scenario: ScenarioConfig, c_b: float, r_e: float, constraint: SecrecyConstraint
) -> float:
    """Throughput of the capacity-tracking scheme at redundancy rate ``r_e``.

    Reliability is guaranteed by construction (the codeword rate follows the
    realized capacity ``c_b``), so its reliability outage is zero.
    """
    if not 0.0 <= r_e <= c_b:
        raise ValueError(f"est_adaptive requires 0 <= r_e <= c_b, got ({c_b}, {r_e})")
    return est_from_outages(c_b - r_e, 0.0, sop(scenario, r_e)[0], constraint)


def est_fixed(scenario: ScenarioConfig, rates: RatePair, constraint: SecrecyConstraint) -> float:
    """Throughput of the fixed-rate scheme at the given rate pair."""
    t = reliability_outage(scenario, rates.r_b)[0]
    return est_from_outages(rates.secrecy_rate, t, sop(scenario, rates.r_e)[0], constraint)


def est_from_outages(secrecy_rate, t, s, constraint: SecrecyConstraint):
    """Throughput secrecy_rate (1 - t)(1 - s) of a reliability outage ``t``
    and a secrecy outage ``s``, gated to zero where ``s`` tops the ceiling or
    is NaN.

    The arithmetic of :func:`est_fixed`, and of :func:`est_adaptive` with
    t = 0, for a caller that holds the outages already: the solvers and grid
    oracles form the surrogate throughput with it from the surrogate
    outages.  The three values are floats or arrays that broadcast, such as
    a column of secrecy outages against a row of reliability outages.
    Floats give a float; arrays give an array of the broadcast shape, each
    element equal to the float call's to the bit.
    """
    est = np.where(s <= constraint.s_th, secrecy_rate * (1.0 - t) * (1.0 - s), 0.0)
    return est if est.ndim else float(est)
