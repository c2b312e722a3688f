"""Real-valued special functions backing the fading and secrecy closed forms.

Everything here is scalar, pure, and deterministic: identical inputs produce
bit-identical outputs, so the whole surface is safe to call from worker
threads.  The implementations lean on the C routines in :mod:`math` and
:mod:`scipy.special` wherever those already provide the needed quantity
(log-gamma, error function, regularized incomplete gammas, Bessel K).  The
pieces the stack does *not* ship in usable form are built here:

* ``exp_integral`` -- the generalized exponential integral for arbitrary real
  order, obtained from the upper incomplete gamma with a downward recurrence
  to reach negative first arguments;
* ``hyp1f2_reg`` -- the regularized hypergeometric series 1F2, summed
  forward with compensated (Kahan) accumulation and reciprocal-gamma pole
  handling.  The paper writes its fading CDFs as sums of these series; the
  package evaluates those CDFs by conditioning instead (see
  :mod:`fso_secrecy.channel`), and the series serves the tests that check
  the paper's expansions against that kernel;
* ``lambert_w`` -- both real branches of the Lambert W function via Halley
  iteration with branch-point seeding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special as _sp

__all__ = [
    "EvalOptions",
    "ConvergenceError",
    "erf",
    "gamma_upper",
    "reg_gamma_q",
    "exp_integral",
    "hyp1f2_reg",
    "hyp1f2_reg_cond",
    "lambert_w",
    "bessel_k",
]

_BRANCH_POINT = -1.0 / math.e


class ConvergenceError(RuntimeError):
    """A series or iteration hit its cap before meeting its tolerance."""


@dataclass(frozen=True)
class EvalOptions:
    """Tolerances for iterative evaluations.

    ``rel_tol`` is the relative stopping tolerance of series summation and
    root polishing; ``max_terms`` caps the number of series terms before the
    evaluation is declared non-convergent.
    """

    rel_tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


_DEFAULT_OPTS = EvalOptions()


def erf(x: float) -> float:
    """Error function (odd, monotone, bounded by 1 in magnitude)."""
    return math.erf(float(x))


def gamma_upper(a: float, x: float) -> float:
    """Upper incomplete gamma integral from ``x`` to infinity.

    Decreasing in ``x``; equals the complete gamma function at ``x = 0``.
    """
    if not a > 0.0:
        raise ValueError(f"gamma_upper requires a > 0, got {a}")
    if x < 0.0:
        raise ValueError(f"gamma_upper requires x >= 0, got {x}")
    return float(_sp.gammaincc(a, x)) * math.gamma(a)


def reg_gamma_q(a: float, x0: float, x1: float) -> float:
    """Regularized gamma mass on the interval ``[x0, x1]``.

    Returns ``(gamma_upper(a, x0) - gamma_upper(a, x1)) / gamma(a)``, which
    lives in [0, 1].  ``x1`` may be ``math.inf``; ``reg_gamma_q(a, 0, x)`` is
    the ordinary lower regularized gamma CDF.
    """
    if not a > 0.0:
        raise ValueError(f"reg_gamma_q requires a > 0, got {a}")
    if x0 < 0.0 or x1 < x0:
        raise ValueError(f"reg_gamma_q requires 0 <= x0 <= x1, got ({x0}, {x1})")
    hi = 0.0 if math.isinf(x1) else float(_sp.gammaincc(a, x1))
    q = float(_sp.gammaincc(a, x0)) - hi
    # The two regularized tails are each in [0, 1]; their difference can pick
    # up a negative ulp when x0 ~ x1.
    return min(max(q, 0.0), 1.0)


def exp_integral(nu: float, x: float) -> float:
    """Generalized exponential integral of real order ``nu`` at ``x > 0``.

    Defined as the integral of ``exp(-x*t) * t**(-nu)`` for ``t`` from 1 to
    infinity.  Computed through the identity with the upper incomplete gamma
    of first argument ``1 - nu``; when that argument is negative (orders
    above 1, including the non-integer orders used by the gamma-surrogate
    CDF) the incomplete gamma is reached by a downward recurrence from a
    positive starting argument.
    """
    if not x > 0.0:
        raise ValueError(f"exp_integral requires x > 0, got {x}")
    n = round(nu)
    if abs(nu - n) < 1e-12 and n >= 0:
        # Integer orders have a dedicated, well-tested routine.
        return float(_sp.expn(int(n), x))
    a = 1.0 - nu
    if a > 0.0:
        g = float(_sp.gammaincc(a, x)) * math.gamma(a)
    else:
        # Downward recurrence on the first argument: each step divides by the
        # (negative) target argument, so start from the fractional part in
        # (0, 1) and walk down to ``a``.
        steps = math.ceil(-a)
        s = a + steps
        g = float(_sp.gammaincc(s, x)) * math.gamma(s)
        ex = math.exp(-x)
        for _ in range(steps):
            s -= 1.0
            g = (g - x**s * ex) / s
    return math.exp((nu - 1.0) * math.log(x)) * g


def _recip_gamma(x: float) -> float:
    """1 / gamma(x) for any real x, exactly 0 at the non-positive integers."""
    if x > 0.5:
        return math.exp(-math.lgamma(x))
    n = round(x)
    if n <= 0 and abs(x - n) < 1e-13:
        return 0.0
    # Reflection keeps the log-gamma argument positive and carries the sign.
    return math.sin(math.pi * x) * math.gamma(1.0 - x) / math.pi


def _is_pole(x: float) -> bool:
    n = round(x)
    return n <= 0 and abs(x - n) < 1e-9


def hyp1f2_reg_cond(
    a: float, b: float, c: float, z: float, opts: EvalOptions | None = None
) -> tuple[float, float]:
    """As :func:`hyp1f2_reg`, but also return the sum of absolute terms.

    The second value bounds the rounding noise of the summation: the
    absolute error of the result is roughly machine epsilon times it.  It
    does not include the truncation error, which ``opts.rel_tol`` sets.
    """
    opts = opts or _DEFAULT_OPTS
    pole_path = _is_pole(b) or _is_pole(c)

    total = 0.0
    abs_total = 0.0
    comp = 0.0  # Kahan carry
    small_streak = 0
    if pole_path:
        # Term-by-term evaluation; the ratio recurrence cannot cross the
        # zeros that the regularization introduces.
        poch_over_fact = 1.0
        zn = 1.0
        seen_nonzero = False
        for n in range(opts.max_terms):
            term = poch_over_fact * zn * _recip_gamma(b + n) * _recip_gamma(c + n)
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            abs_total += abs(term)
            # The regularization zeroes every term while ``b + n`` or
            # ``c + n`` sits at a non-positive integer; those leading zeros
            # must not trip the convergence counter.
            if term != 0.0:
                seen_nonzero = True
            if seen_nonzero and abs(term) <= opts.rel_tol * max(abs(total), 1e-300):
                small_streak += 1
                if small_streak >= 3 and n >= 2:
                    return total, abs_total
            else:
                small_streak = 0
            poch_over_fact *= (a + n) / (n + 1.0)
            zn *= z
        raise ConvergenceError(
            f"hyp1f2_reg({a}, {b}, {c}, {z}) did not converge in {opts.max_terms} terms"
        )

    term = _recip_gamma(b) * _recip_gamma(c)
    for n in range(opts.max_terms):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_total += abs(term)
        if abs(term) <= opts.rel_tol * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 3 and n >= 2:
                return total, abs_total
        else:
            small_streak = 0
        term *= (a + n) * z / ((n + 1.0) * (b + n) * (c + n))
    raise ConvergenceError(
        f"hyp1f2_reg({a}, {b}, {c}, {z}) did not converge in {opts.max_terms} terms"
    )


def hyp1f2_reg(a: float, b: float, c: float, z: float, opts: EvalOptions | None = None) -> float:
    """Regularized hypergeometric series 1F2(a; b, c; z) / (gamma(b) gamma(c)).

    Forward power series with Kahan-compensated accumulation.  The
    regularized convention is honored at non-positive-integer ``b`` or ``c``:
    reciprocal gamma factors evaluate to exactly zero there, so leading terms
    drop out and the series resumes once the shifted argument leaves the
    poles.  Raises :class:`ConvergenceError` if ``opts.max_terms`` is reached
    before the stopping rule fires.  The terms grow until n is about
    ``sqrt(abs(z))``, and the rounding noise of the sum grows with the
    largest of them.
    """
    return hyp1f2_reg_cond(a, b, c, z, opts)[0]


def lambert_w(branch: str, x: float) -> float:
    """Real Lambert W: the solution ``w`` of ``w * exp(w) = x``.

    ``branch`` selects ``"principal"`` (w >= -1, defined for x >= -1/e) or
    ``"lower"`` (w <= -1, defined for -1/e <= x < 0).  Halley iteration from
    a branch-aware seed; the defining-equation residual is verified to
    ``1e-12 * max(1, |x|)`` before returning.
    """
    if branch not in ("principal", "lower"):
        raise ValueError(f"unknown Lambert branch {branch!r}")
    x = float(x)
    if x < _BRANCH_POINT - 1e-15:
        raise ValueError(f"lambert_w argument {x} below branch point {-1.0 / math.e}")
    if branch == "lower" and x >= 0.0:
        raise ValueError(f"lower Lambert branch requires x < 0, got {x}")
    if abs(x - _BRANCH_POINT) <= 5e-17:
        return -1.0
    p = math.sqrt(max(2.0 * (1.0 + math.e * x), 0.0))
    if branch == "principal":
        if x < -0.25:
            w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
        elif x < math.e:
            w = x / (1.0 + x) if x > -0.2 else x
        else:
            l1 = math.log(x)
            l2 = math.log(l1)
            w = l1 - l2 + l2 / l1
    else:
        if x < -0.2:
            w = -1.0 - p - p * p / 3.0 - 11.0 * p**3 / 72.0
        else:
            l1 = math.log(-x)
            l2 = math.log(-l1)
            w = l1 - l2
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        if wp1 == 0.0:
            w -= 1e-9
            continue
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        dw = f / denom
        w -= dw
        if abs(dw) <= 1e-16 * max(1.0, abs(w)):
            break
    if abs(w * math.exp(w) - x) > 1e-12 * max(1.0, abs(x)):
        raise ConvergenceError(f"lambert_w({branch}, {x}) failed its residual check")
    return w


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind, positive order-symmetric."""
    if not x > 0.0:
        raise ValueError(f"bessel_k requires x > 0, got {x}")
    return float(_sp.kv(nu, x))
