"""Reference outage probabilities computed apart from the package's kernels.

Each CDF comes from its defining integral, fed only with the shape
parameters that ``fso-secrecy params`` reports:

* turbulence fading: condition on the unit-mean large-scale factor
  X ~ Gamma(alpha, 1/alpha); the small-scale sum is then a regularized gamma
  CDF (``scipy.special.gammainc``);
* pointing loss: mix over the collected-power fraction, substituted as
  v = fraction**(xi**2) so the weight is flat on (0, 1];
* gamma surrogate: the same mixture over a plain Gamma(k_ap, theta_ap) CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate, special

_TIGHT = {"epsabs": 1e-12, "epsrel": 1e-10, "limit": 400}


@dataclass(frozen=True)
class Link:
    """One receiver's block of ``fso-secrecy params`` plus the SNR scale."""

    alpha: float
    beta_aggregate: float
    xi: float
    k_ap: float
    theta_ap: float
    a0: float
    gamma0: float
    n_rx: int

    @classmethod
    def from_params(cls, doc: dict, which: str) -> "Link":
        blk = doc[which]
        n_rx = doc["scenario"]["n_b" if which == "bob" else "n_e"]
        return cls(
            alpha=blk["alpha"],
            beta_aggregate=blk["beta_aggregate"],
            xi=float(blk["xi"]),
            k_ap=blk["k_ap"],
            theta_ap=blk["theta_ap"],
            a0=blk["a0"],
            gamma0=doc["scenario"]["gamma0"],
            n_rx=n_rx,
        )

    def threshold(self, rate: float) -> float:
        """Unit-mean irradiance a receiver must clear to carry ``rate``."""
        return (2.0**rate - 1.0) / (self.gamma0 * self.n_rx * self.a0)


def gg_cdf(alpha: float, beta: float, x: float) -> float:
    """P(X * Y <= x) for unit-mean X ~ Gamma(alpha), Y ~ Gamma(beta)."""
    log_norm = alpha * math.log(alpha) - math.lgamma(alpha)

    def integrand(s: float) -> float:
        if s <= 0.0:
            return 0.0
        w = math.exp(log_norm + (alpha - 1.0) * math.log(s) - alpha * s)
        return w * special.gammainc(beta, beta * x / s)

    # Split at the mode region so quad resolves the weight's peak.
    head, _ = integrate.quad(integrand, 0.0, 1.0, **_TIGHT)
    tail, _ = integrate.quad(integrand, 1.0, math.inf, **_TIGHT)
    return head + tail


def _mixture(cdf, xi: float, x: float) -> float:
    if math.isinf(xi):
        return cdf(x)
    inv = 1.0 / (xi * xi)
    val, _ = integrate.quad(lambda v: cdf(x / v**inv) if v > 0.0 else 1.0, 0.0, 1.0, **_TIGHT)
    return val


def ggp_cdf(alpha: float, beta: float, xi: float, x: float) -> float:
    """Turbulence fading times the pointing-loss fraction, CDF at ``x``."""
    return _mixture(lambda y: gg_cdf(alpha, beta, y), xi, x)


def surrogate_cdf(k: float, theta: float, xi: float, x: float) -> float:
    """Gamma(k, theta) surrogate times the pointing-loss fraction, CDF at ``x``."""
    return _mixture(lambda y: special.gammainc(k, y / theta), xi, x)


def sop(eve: Link, r_e: float) -> float:
    """Exact secrecy outage: the eavesdropper clears the threshold of ``r_e``."""
    return 1.0 - ggp_cdf(eve.alpha, eve.beta_aggregate, eve.xi, eve.threshold(r_e))


def sop_approx(eve: Link, r_e: float) -> float:
    return 1.0 - surrogate_cdf(eve.k_ap, eve.theta_ap, eve.xi, eve.threshold(r_e))


def reliability_outage(bob: Link, n_a: int, r_b: float) -> float:
    """Exact outage of the best of ``n_a`` independent transmit beams."""
    return gg_cdf(bob.alpha, bob.beta_aggregate, bob.threshold(r_b)) ** n_a


def reliability_outage_approx(bob: Link, n_a: int, r_b: float) -> float:
    return float(special.gammainc(bob.k_ap, bob.threshold(r_b) / bob.theta_ap)) ** n_a
