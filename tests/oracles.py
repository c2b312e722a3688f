"""Independent high-precision oracles used by the test suite.

Everything here is computed from defining integrals, direct summation, or
mpmath's arbitrary-precision library -- never from the package's own closed
forms -- so agreement is evidence, not tautology.  The CDF oracles form a
verification chain: the plain turbulence CDF is checked against a
conditioning quadrature, and the pointing-loss CDFs against mixture
quadratures over the already-verified layer below.

Three groups are exceptions: references for the paper's formulas, not
independent oracles.  The paper's turbulence density ``gg_pdf`` takes the
package's ``specfun.bessel_k``; the tests check it against moment identities
and the derivative of the exact CDF.  The paper's 1F2 expansions of the two
exact CDFs, at the end of this file, sum the package's
``specfun.hyp1f2_reg``, which is itself checked against direct summation
and mpmath.  The paper's stationarity forms for the rate solvers (the
adaptive fixed-point map and the Lambert-W argument) take their link
parameters from the package's ``channel`` module.  The scalar bisection
``bisect_root`` is the reference the solvers' batched bisection must match
to the bit, and ``grid_refine_maximize_arrays`` is the zooming grid search
its float-held form must match node for node.

The per-aperture irradiance samplers draw every turbulence factor on its
own, as the physical model states it; the package's samplers draw each
beam's aperture sum as one Gamma(n * beta) variate, and the two-sample tests
compare the two layouts.

``est_adaptive_full_interp`` is a reference, not an oracle: the
capacity-averaged adaptive throughput estimate with every trial's redundancy
rate interpolated, on the package's own draws, table and threshold rate.
The package interpolates only the trials the threshold floor does not
decide, and must match it to the bit.  ``est_adaptive_cut_select`` is the
same estimate with the package's ceiling cut, its trials below the cut
given their throughput by a full-length ``np.where`` select.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import integrate, special, stats

from fso_secrecy import channel, montecarlo, optimize, specfun


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


def _eve_rate_scale(sc) -> float:
    link = channel.eve_link(sc)
    return sc.nodes.gamma0 * link.pointing.a0 * sc.nodes.n_e * link.surrogate.theta


def bob_rate_scale(sc) -> float:
    """mu: Bob's gamma-surrogate argument is (2**rate - 1) / mu."""
    link = channel.bob_link(sc)
    return sc.nodes.gamma0 * link.pointing.a0 * sc.nodes.n_b * link.surrogate.theta


def adaptive_stationarity_map(sc, c_b: float, r: float) -> float:
    """The paper's fixed-point form of the adaptive scheme's stationarity
    condition on the gamma surrogate: the throughput-maximizing redundancy
    rate r_e satisfies ``adaptive_stationarity_map(sc, c_b, r_e) == r_e``.

    Needs pointing loss (sigma_s > 0).  The incomplete gammas are mpmath's.
    """
    link = channel.eve_link(sc)
    k = link.surrogate.k
    scale = _eve_rate_scale(sc)
    we2 = link.pointing.omega_e**2
    sig2 = sc.sigma_s**2
    with mp.workdps(40):
        p = mp.mpf(2) ** r
        t = (p - 1) / scale
        d = mp.expint(link.pointing.xi**2 - k, t)
        g_low = mp.gammainc(k, 0, t)
        ln2 = mp.log(2)
        inner = (p * (ln2 * we2 * (c_b - r) - 4 * sig2) + 4 * sig2) * mp.exp(-t) - t ** (
            -k
        ) * (we2 - 4 * k * sig2) * g_low * (p - 1)
        return float(
            (c_b - c_b * p + p * r)
            + 4 * sig2 * (p - 1) ** 2 / (ln2 * we2 * p)
            + scale / (ln2 * we2 * p * d) * inner
        )


def lambert_w_argument(sc, r_e: float, r_b: float) -> float:
    """Argument of the paper's Lambert-W form of the ceiling-constrained
    codeword rate: with r_e pinned, the optimal r_b satisfies
    ``r_b == log2(-mu * W_{-1}(lambert_w_argument(sc, r_e, r_b)))``, where
    mu is :func:`bob_rate_scale`.  The incomplete gamma is mpmath's.
    """
    k = channel.bob_link(sc).surrogate.k
    mu = bob_rate_scale(sc)
    n_a = sc.nodes.n_a
    with mp.workdps(40):
        t = (mp.mpf(2) ** r_b - 1) / mu
        c1 = mp.gammainc(k, 0, t, regularized=True)
        return float(
            (c1 - c1 ** (1 - n_a))
            * mp.gamma(k)
            * t ** (1 - k)
            / (mp.exp(1 / mu) * (r_b - r_e) * mp.log(2) * n_a)
        )


def bisect_root(g, lo: float, hi: float, tol: float, iters: int = 200) -> float:
    """Bisection of the scalar function ``g`` from a sign at ``lo``: one call
    per halving, until the cell is narrower than ``tol`` or after ``iters``
    halvings; the cell's midpoint is the root."""
    glo = g(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        gm = g(mid)
        if (glo > 0.0) == (gm > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def grid_refine_maximize_arrays(objective, bounds, grid_points: int, zoom_tol: float):
    """The package's zooming grid search, transcribed with its box, node
    step and best point held as numpy arrays, one element per axis: the
    reference its float-held search must match to the bit, node for node.
    Returns (r_e, r_b, est) of the best point, both rates the argmax in one
    dimension."""
    box = np.array(bounds if hasattr(bounds[0], "__len__") else [bounds], dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    a, b = lo, hi
    step = first = (hi - lo) / (grid_points - 1)
    best, x = -math.inf, lo
    while True:
        axes = [np.linspace(a_k, b_k, grid_points) for a_k, b_k in zip(a, b)]
        v = np.broadcast_to(objective(*np.ix_(*axes)), (grid_points,) * len(axes))
        v = np.where(np.isnan(v), -math.inf, v)
        cell = np.unravel_index(np.argmax(v), v.shape)
        if v[cell] > best:
            best, x = float(v[cell]), np.array([ax[i] for ax, i in zip(axes, cell)])
        a, b = np.maximum(x - step, lo), np.minimum(x + step, hi)
        zoomed = (b - a) / (grid_points - 1)
        if (step <= zoom_tol * first).all() or not (zoomed < step).any():
            break
        step = zoomed
    return float(x[0]), float(x[-1]), best


def sample_eve_per_aperture(sc, rng: np.random.Generator, size: int) -> np.ndarray:
    """Eavesdropper irradiance with one Gamma(beta, 1/beta) small-scale draw
    per aperture: 1 + n_e gamma variates per trial, times a shared
    large-scale Gamma(alpha, 1/alpha) and, with beam wander, the collection
    factor U ** (1 / xi**2)."""
    link = channel.eve_link(sc)
    alpha, beta = link.turb.alpha, link.turb.beta_single
    x_large = rng.standard_gamma(alpha, size) / alpha
    y_sum = (rng.standard_gamma(beta, (sc.nodes.n_e, size)) / beta).sum(axis=0)
    if sc.sigma_s == 0.0:
        return x_large * y_sum
    return rng.random(size) ** (1.0 / link.pointing.xi**2) * x_large * y_sum


def sample_bob_per_aperture(sc, rng: np.random.Generator, size: int) -> np.ndarray:
    """Bob's selected-beam irradiance with one Gamma(beta, 1/beta) small-scale
    draw per (beam, aperture) pair: n_a (1 + n_b) gamma variates per trial."""
    link = channel.bob_link(sc)
    alpha, beta = link.turb.alpha, link.turb.beta_single
    beams = [
        rng.standard_gamma(alpha, size) / alpha
        * (rng.standard_gamma(beta, (sc.nodes.n_b, size)) / beta).sum(axis=0)
        for _ in range(sc.nodes.n_a)
    ]
    return np.max(beams, axis=0)


def _adaptive_draws(sc, sim):
    """The package's per-stream draws (capacity, Eve's irradiance), each
    stream on fresh sampler arrays, its redundancy table over them, and
    Eve's SNR scale."""
    eve_rngs = montecarlo._stream_rngs(sim, montecarlo._EVE_ROLE)
    bob_rngs = montecarlo._stream_rngs(sim, montecarlo._BOB_ROLE)
    snr_b = sc.nodes.gamma0 * channel.bob_link(sc).pointing.a0
    snr_e = sc.nodes.gamma0 * channel.eve_link(sc).pointing.a0
    drawn = []
    for bob_rng, eve_rng, size in zip(bob_rngs, eve_rngs, sim.stream_sizes()):
        cap = np.log2(1.0 + snr_b * montecarlo.sample_bob_irradiance(sc, bob_rng, size))
        drawn.append((cap, montecarlo.sample_eve_irradiance(sc, eve_rng, size)))
    cap_max = max(float(cap.max()) for cap, _ in drawn if cap.size)
    table_c, table_r = montecarlo._adaptive_redundancy_table(sc, cap_max)
    return drawn, table_c, table_r, snr_e


def _capacity_average(reduce_one, drawn, sim):
    """The estimate of the per-stream (sum, sum of squares) of
    ``reduce_one(cap, i_e)`` over the streams ``drawn``, in stream order."""
    parts = [reduce_one(cap, i_e) for cap, i_e in drawn]
    n = sim.trials
    mean = math.fsum(p[0] for p in parts) / n
    var = max(math.fsum(p[1] for p in parts) / n - mean * mean, 0.0)
    return montecarlo.Estimate(mean=mean, ci_halfwidth=3.0 * math.sqrt(var / n), trials=n)


def est_adaptive_full_interp(sc, s_th: float, sim):
    """``estimate_est(sc, s_th, sim)`` with the redundancy
    rate of every trial taken as ``max(np.interp(cap, table_c, table_r),
    r_th)``, as a straight transcription of the per-realization rule."""
    drawn, table_c, table_r, snr_e = _adaptive_draws(sc, sim)
    r_th = optimize.re_threshold(sc, s_th)

    def reduce_one(cap, i_e):
        r_e = np.maximum(np.interp(cap, table_c, table_r), r_th)
        secure = i_e <= (np.exp2(r_e) - 1.0) / snr_e
        psi = np.where((r_e <= cap) & secure, cap - r_e, 0.0)
        return float(psi.sum()), float((psi * psi).sum())

    return _capacity_average(reduce_one, drawn, sim)


def est_adaptive_cut_select(sc, s_th: float, sim):
    """``estimate_est(sc, s_th, sim)`` with every trial first given
    cap - r_th where it is reliable and secure at the threshold rate r_th,
    else 0, by one full-length ``np.where`` select; the trials at or above
    ``montecarlo._ceiling_cut`` then take their interpolated rate."""
    drawn, table_c, table_r, snr_e = _adaptive_draws(sc, sim)
    r_th = optimize.re_threshold(sc, s_th)
    c_cut = montecarlo._ceiling_cut(table_c, table_r, r_th)
    thr_th = montecarlo.rate_threshold(r_th, snr_e)

    def reduce_one(cap, i_e):
        psi = np.where((r_th <= cap) & (i_e <= thr_th), cap - r_th, 0.0)
        free = np.flatnonzero(~(cap < c_cut))
        c = cap[free]
        r_e = np.maximum(np.interp(c, table_c, table_r), r_th)
        secure = i_e[free] <= montecarlo.rate_threshold(r_e, snr_e)
        psi[free] = np.where((r_e <= c) & secure, c - r_e, 0.0)
        return float(psi.sum()), float((psi * psi).sum())

    return _capacity_average(reduce_one, drawn, sim)


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


def gg_pdf(alpha: float, beta_agg: float, i: float) -> float:
    """The paper's density of the unit-mean aggregated turbulence fading at
    ``i > 0``, a Bessel-K closed form (reference, not oracle)."""
    if not i > 0.0:
        raise ValueError(f"gg_pdf requires i > 0, got {i}")
    ab = alpha * beta_agg
    s = 0.5 * (alpha + beta_agg)
    log_coef = math.log(2.0) + s * math.log(ab) - math.lgamma(alpha) - math.lgamma(beta_agg)
    return math.exp(log_coef + (s - 1.0) * math.log(i)) * specfun.bessel_k(
        alpha - beta_agg, 2.0 * math.sqrt(ab * i)
    )


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
