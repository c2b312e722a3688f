"""Independent high-precision oracles used by the test suite.

Everything here is computed from defining integrals, direct summation, or
mpmath's arbitrary-precision library -- never from the package's own closed
forms -- so agreement is evidence, not tautology.  The CDF oracles form a
verification chain: the plain turbulence CDF is checked against a
conditioning quadrature, and the pointing-loss CDFs against mixture
quadratures over the already-verified layer below.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import integrate, special, stats


def mp_ln_gamma(x: float) -> float:
    with mp.workdps(40):
        return float(mp.loggamma(x))


def ln_gamma_stirling(x: float) -> float:
    """Stirling series with argument shifting; independent of math.lgamma."""
    shift = 0
    xs = x
    while xs < 24.0:
        xs += 1.0
        shift += 1
    # ln Gamma(xs) by the asymptotic series, then undo the shift via
    # Gamma(x) = Gamma(x + n) / (x (x+1) ... (x+n-1)).
    coefs = [
        1.0 / 12.0,
        -1.0 / 360.0,
        1.0 / 1260.0,
        -1.0 / 1680.0,
        1.0 / 1188.0,
        -691.0 / 360360.0,
        7.0 / 1092.0,
    ]
    s = (xs - 0.5) * math.log(xs) - xs + 0.5 * math.log(2.0 * math.pi)
    term = 1.0 / xs
    inv2 = 1.0 / (xs * xs)
    for c in coefs:
        s += c * term
        term *= inv2
    for i in range(shift):
        s -= math.log(x + i)
    return s


def erf_maclaurin(x: float, terms: int = 40) -> float:
    total = 0.0
    for n in range(terms):
        total += (-1.0) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * total


def gamma_upper_quad(a: float, x: float) -> float:
    val, _ = integrate.quad(
        lambda t: t ** (a - 1.0) * math.exp(-t), x, np.inf, limit=200
    )
    return val


def exp_integral_quad(nu: float, x: float) -> float:
    val, _ = integrate.quad(
        lambda t: math.exp(-x * t) * t ** (-nu), 1.0, np.inf, limit=200
    )
    return val


def mp_exp_integral(nu: float, x: float) -> float:
    with mp.workdps(40):
        return float(mp.expint(nu, x))


def hyp1f2_direct(a: float, b: float, c: float, z: float, terms: int = 50) -> float:
    """Plain unregularized series, term-by-term, no cleverness."""
    total = 0.0
    num = 1.0  # (a)_n z^n / ((b)_n (c)_n n!)
    for n in range(terms):
        total += num
        num *= (a + n) * z / ((b + n) * (c + n) * (n + 1.0))
    return total


def mp_hyp1f2_reg(a: float, b: float, c: float, z: float) -> float:
    # rgamma is entire and exactly zero at non-positive integers, so this
    # covers the regularized-limit cases without any nudging.
    with mp.workdps(60):
        total = mp.mpf(0)
        for n in range(400):
            term = (
                mp.rf(a, n)
                * mp.power(z, n)
                * mp.rgamma(b + n)
                * mp.rgamma(c + n)
                / mp.factorial(n)
            )
            total += term
            if n > 4 and abs(term) < mp.mpf(10) ** (-55) * max(abs(total), mp.mpf(1)):
                break
        return float(total)


def mp_lambert_w(x: float, branch: int = 0) -> float:
    with mp.workdps(40):
        return float(mp.lambertw(x, k=branch).real)


def bessel_k_quad(nu: float, x: float) -> float:
    val, _ = integrate.quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t), 0.0, 60.0, limit=300
    )
    return val


# ---------------------------------------------------------------------------
# distribution-kernel oracles
# ---------------------------------------------------------------------------


def gg_cdf_conditioning(alpha: float, beta: float, x: float) -> float:
    """P(X*Y <= x) by conditioning on the unit-mean Gamma(alpha) factor."""

    def integrand(s: float) -> float:
        return stats.gamma.pdf(s, alpha, scale=1.0 / alpha) * special.gammainc(
            beta, beta * x / s
        )

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=300)
    return val


def mp_ggp_cdf_conditioning(alpha: float, beta: float, xi: float, x: float) -> float:
    """P(X*Y*V <= x) at 20 digits: conditioning on X, with mpmath throughout.

    Given X = s, the small-scale factor and the collected-power fraction
    integrate in closed form, P(beta, beta*c) + (beta*c)**xi2 *
    Gamma(beta - xi2, beta*c) / Gamma(beta) with c = x/s, where mpmath's
    incomplete gamma takes any real first argument.  The outer integral is
    tanh-sinh quadrature over s itself, split at the peak of the weight.
    ``xi = math.inf`` drops the pointing term (the ``gg_cdf`` case).
    """
    with mp.workdps(20):
        a, b, xm = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
        xi2 = None if math.isinf(xi) else mp.mpf(xi) ** 2
        log_norm = a * mp.log(a) - mp.loggamma(a)

        def integrand(s):
            t = b * xm / s
            f = mp.gammainc(b, 0, t, regularized=True)
            if xi2 is not None:
                f += t**xi2 * mp.gammainc(b - xi2, t) / mp.gamma(b)
            return mp.exp(log_norm + (a - 1) * mp.log(s) - a * s) * f

        w = 3 / mp.sqrt(a)  # three standard deviations of X
        points = {mp.mpf(0), mp.mpf(1), mp.mpf(2), 1 + w} | ({1 - w} if w < 1 else set())
        return float(mp.quad(integrand, sorted(points) + [mp.inf]))


def ggp_cdf_mixture(alpha: float, beta: float, xi: float, x: float, gg_cdf_fn) -> float:
    """Mixture over the collection-loss law; integrates the verified layer below.

    Substituting v = u^(xi^2) turns the weight into Lebesgue measure on (0,1)
    and keeps the integrand bounded.
    """
    inv = 1.0 / (xi * xi)

    def integrand(v: float) -> float:
        return gg_cdf_fn(alpha, beta, x / v**inv)

    val, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
    return val


def surrogate_cdf_mixture(k: float, theta: float, xi: float, x: float) -> float:
    """Collection-loss mixture over a plain gamma kernel (surrogate CDF oracle)."""
    inv = 1.0 / (xi * xi)

    def integrand(v: float) -> float:
        return special.gammainc(k, x / (theta * v**inv))

    val, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
    return val


def gg_pdf_norm_and_mean(alpha: float, beta: float, pdf_fn) -> tuple[float, float]:
    norm, _ = integrate.quad(lambda i: pdf_fn(alpha, beta, i), 0.0, np.inf, limit=300)
    mean, _ = integrate.quad(lambda i: i * pdf_fn(alpha, beta, i), 0.0, np.inf, limit=300)
    return norm, mean
