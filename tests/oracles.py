"""Independent high-precision oracles used by the test suite.

Everything here is computed from defining integrals, direct summation, or
mpmath's arbitrary-precision library -- never from the package's own closed
forms -- so agreement is evidence, not tautology.  The CDF oracles form a
verification chain: the plain turbulence CDF is checked against a
conditioning quadrature, and the pointing-loss CDFs against mixture
quadratures over the already-verified layer below.

The one exception is the paper's 1F2 expansions of the two exact CDFs at the
end of this file.  They are a reference for the paper's formulas, not an
independent oracle: they sum the package's ``specfun.hyp1f2_reg``, which is
itself checked against direct summation and mpmath.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import integrate, special, stats

from fso_secrecy import specfun


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


# ---------------------------------------------------------------------------
# the paper's 1F2 expansions of the exact CDFs (reference, not oracle)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GgpCdfTerms:
    """Coefficient vectors of the paper's double-sum expansion of ``ggp_cdf``.

    ``b_vec`` and ``c_vec`` are indexed by the outer sum index ``u``;
    ``a_vec``, ``d_vec`` and ``e_vec`` hold, for each ``u``, the length-2
    inner vectors indexed by ``v``.
    """

    a_vec: tuple[tuple[float, float], tuple[float, float]]
    b_vec: tuple[float, float]
    c_vec: tuple[float, float]
    d_vec: tuple[tuple[float, float], tuple[float, float]]
    e_vec: tuple[tuple[float, float], tuple[float, float]]


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


def gg_cdf_series(a: float, b: float, x: float) -> float:
    """The paper's 1F2 expansion of the turbulence CDF, with z = a b x.

    Defined for a non-integer shape gap ``a - b`` (a csc factor divides by
    its sine), and trustworthy at moderate z, where the two series it
    subtracts stay within double precision of each other.
    """
    z = a * b * x
    pref = math.pi / (math.sin(math.pi * (a - b)) * math.gamma(a) * math.gamma(b))
    s_b = math.gamma(b) * z**b * specfun.hyp1f2_reg(b, b + 1.0, b - a + 1.0, z)
    s_a = math.gamma(a) * z**a * specfun.hyp1f2_reg(a, a + 1.0, a - b + 1.0, z)
    return pref * (s_b - s_a)


def ggp_cdf_series(a: float, b: float, xi: float, x: float) -> float:
    """The paper's double-sum 1F2 expansion of the pointing-loss CDF.

    Defined where none of ``a - b``, ``a - xi**2`` and ``b - xi**2`` is an
    integer; trustworthy at moderate z = a b x, as :func:`gg_cdf_series`.
    """
    xi2 = xi * xi
    z = a * b * x
    terms = ggp_cdf_terms(a, b, xi)
    double_sum = 0.0
    for u in range(2):
        for v in range(2):
            av = terms.a_vec[u][v]
            double_sum += (
                terms.c_vec[u]
                * terms.c_vec[v]
                * z ** terms.b_vec[u]
                * math.gamma(av)
                * specfun.hyp1f2_reg(av, terms.d_vec[u][v], terms.e_vec[u][v], z)
            )
    power_term = math.pi * z**xi2 / (
        math.sin(math.pi * (a - xi2))
        * math.sin(math.pi * (b - xi2))
        * math.gamma(xi2 - a + 1.0)
        * math.gamma(xi2 - b + 1.0)
    )
    outer = math.pi / (math.gamma(a) * math.gamma(b))
    return outer * (-double_sum / math.sin(math.pi * (a - b)) + power_term)
