import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fso_secrecy import specfun
from fso_secrecy.specfun import ConvergenceError, EvalOptions


def test_erf_basics():
    assert specfun.erf(0.0) == 0.0
    for x in (0.3, 1.7):
        assert specfun.erf(x) == -specfun.erf(-x)
        assert abs(specfun.erf(x)) < 1.0
    # small-argument check against a direct Maclaurin summation
    assert specfun.erf(0.050133) == pytest.approx(oracles.erf_maclaurin(0.050133), abs=1e-12)
    assert specfun.erf(0.050133) == pytest.approx(0.056522, abs=1e-6)


@given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_erf_monotone_odd(x):
    assert specfun.erf(x) == -specfun.erf(-x)
    assert specfun.erf(x + 1e-3) >= specfun.erf(x)


def test_gamma_upper_closed_forms():
    for x in (0.0, 0.5, 2.0):
        assert specfun.gamma_upper(1.0, x) == pytest.approx(math.exp(-x), rel=1e-14)
    for a in (0.7, 2.5, 6.1):
        assert specfun.gamma_upper(a, 0.0) == pytest.approx(math.gamma(a), rel=1e-14)


def test_gamma_upper_quadrature_oracle():
    assert specfun.gamma_upper(2.5, 1.3) == pytest.approx(
        oracles.gamma_upper_quad(2.5, 1.3), abs=1e-10
    )


def test_gamma_upper_domain_and_monotone():
    with pytest.raises(ValueError):
        specfun.gamma_upper(-1.0, 0.5)
    with pytest.raises(ValueError):
        specfun.gamma_upper(1.0, -0.5)
    xs = [0.1 * i for i in range(1, 60)]
    vals = [specfun.gamma_upper(3.3, x) for x in xs]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


def test_reg_gamma_q():
    assert specfun.reg_gamma_q(2.2, 0.0, math.inf) == pytest.approx(1.0, rel=1e-14)
    for x in (0.3, 1.0, 4.2):
        assert specfun.reg_gamma_q(1.0, 0.0, x) == pytest.approx(-math.expm1(-x), rel=1e-13)
    want = (
        oracles.gamma_upper_quad(3.2, 0.4) - oracles.gamma_upper_quad(3.2, 2.2)
    ) / math.gamma(3.2)
    assert specfun.reg_gamma_q(3.2, 0.4, 2.2) == pytest.approx(want, abs=1e-10)


def test_reg_gamma_q_increasing_cdf():
    xs = [0.05 * i for i in range(1, 100)]
    vals = [specfun.reg_gamma_q(2.7, 0.0, x) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def test_exp_integral_order_zero():
    for x in (0.5, 1.0, 3.0):
        assert specfun.exp_integral(0.0, x) == pytest.approx(math.exp(-x) / x, rel=1e-13)


def test_exp_integral_values():
    assert specfun.exp_integral(1.0, 1.0) == pytest.approx(0.2193839, abs=1e-6)
    assert specfun.exp_integral(2.7, 0.9) == pytest.approx(
        oracles.exp_integral_quad(2.7, 0.9), abs=1e-9
    )
    # negative orders are exercised by the combined-channel formulas
    for nu, x in ((-0.6, 0.4), (-3.34, 0.17), (-1.2, 2.5), (0.39, 0.8)):
        assert specfun.exp_integral(nu, x) == pytest.approx(
            oracles.mp_exp_integral(nu, x), rel=1e-11
        )


def test_exp_integral_domain():
    with pytest.raises(ValueError):
        specfun.exp_integral(1.3, 0.0)
    with pytest.raises(ValueError):
        specfun.exp_integral(1.3, -1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=5.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_exp_integral_recurrence(nu, x):
    lhs = specfun.exp_integral(nu + 1.0, x)
    rhs = (math.exp(-x) - x * specfun.exp_integral(nu, x)) / nu
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-300)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=-4.0, max_value=0.99),
    st.floats(min_value=0.05, max_value=8.0),
)
def test_exp_integral_upper_gamma_identity(nu, x):
    # x^(nu-1) * Gamma(1-nu, x) is the same object when 1-nu > 0
    want = x ** (nu - 1.0) * specfun.gamma_upper(1.0 - nu, x)
    assert specfun.exp_integral(nu, x) == pytest.approx(want, rel=1e-8)


def test_hyp1f2_reg_at_zero():
    for a, b, c in ((1.3, 2.2, 0.7), (4.0, 1.1, 3.3)):
        assert specfun.hyp1f2_reg(a, b, c, 0.0) == pytest.approx(
            1.0 / (math.gamma(b) * math.gamma(c)), rel=1e-14
        )


def test_hyp1f2_direct_summation_match():
    got = specfun.hyp1f2_reg(1.0, 2.0, 2.0, 0.3)
    want = oracles.hyp1f2_direct(1.0, 2.0, 2.0, 0.3) / (math.gamma(2.0) * math.gamma(2.0))
    assert got == pytest.approx(want, rel=1e-13)


def test_hyp1f2_reg_against_high_precision():
    cases = [
        (2.1, 3.4, 1.2, 5.0),
        (5.55, 6.55, 0.43, 34.0),
        (6.12, 7.12, 1.57, 34.0),
        (0.39, 1.39, -4.73, 12.0),  # negative c: regularization must hold it finite
    ]
    for a, b, c, z in cases:
        want = oracles.mp_hyp1f2_reg(a, b, c, z)
        assert specfun.hyp1f2_reg(a, b, c, z) == pytest.approx(want, rel=1e-9), (a, b, c, z)


def test_hyp1f2_reg_pole_is_finite():
    # c a non-positive integer: the unregularized series diverges but the
    # regularized value is finite (leading reciprocal-gamma factors vanish).
    val = specfun.hyp1f2_reg(1.7, 2.3, -2.0, 0.8)
    assert math.isfinite(val)
    assert val == pytest.approx(oracles.mp_hyp1f2_reg(1.7, 2.3, -2.0, 0.8), rel=1e-9)


def test_hyp1f2_max_terms_error():
    with pytest.raises(ConvergenceError):
        specfun.hyp1f2_reg(2.0, 3.0, 1.5, 80.0, EvalOptions(rel_tol=1e-12, max_terms=5))


def test_eval_options_validation():
    with pytest.raises(ValueError):
        EvalOptions(rel_tol=0.0)
    with pytest.raises(ValueError):
        EvalOptions(max_terms=0)


def test_lambert_w_trivial():
    assert specfun.lambert_w("principal", 0.0) == 0.0
    assert specfun.lambert_w("principal", math.e) == pytest.approx(1.0, rel=1e-14)
    assert specfun.lambert_w("principal", 1.0) == pytest.approx(0.5671433, abs=1e-6)
    w = specfun.lambert_w("principal", 1.0)
    assert abs(w * math.exp(w) - 1.0) <= 1e-12


def test_lambert_w_branch_point_and_domains():
    assert specfun.lambert_w("principal", -1.0 / math.e) == pytest.approx(-1.0, abs=1e-8)
    assert specfun.lambert_w("lower", -1.0 / math.e) == pytest.approx(-1.0, abs=1e-8)
    with pytest.raises(ValueError):
        specfun.lambert_w("principal", -1.0 / math.e - 1e-3)
    with pytest.raises(ValueError):
        specfun.lambert_w("lower", 0.1)
    with pytest.raises(ValueError):
        specfun.lambert_w("sideways", 0.1)


def test_lambert_w_against_mpmath():
    for x in (-0.3, -0.05, 0.5, 3.0, 1e4):
        assert specfun.lambert_w("principal", x) == pytest.approx(
            oracles.mp_lambert_w(x, 0), rel=1e-12
        )
    for x in (-0.36, -0.2, -0.05, -1e-4):
        assert specfun.lambert_w("lower", x) == pytest.approx(
            oracles.mp_lambert_w(x, -1), rel=1e-12
        )


def test_lambert_w_residuals_dense():
    # deterministic dense residual check on both branches
    import random

    rng = random.Random(20260814)
    for _ in range(1000):
        x = rng.uniform(-1.0 / math.e + 1e-12, 50.0)
        w = specfun.lambert_w("principal", x)
        assert w >= -1.0 - 1e-12
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
    for _ in range(1000):
        x = rng.uniform(-1.0 / math.e + 1e-12, -1e-12)
        w = specfun.lambert_w("lower", x)
        assert w <= -1.0 + 1e-12
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


def test_bessel_k_half_integer_and_symmetry():
    for x in (0.5, 2.0):
        want = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert specfun.bessel_k(0.5, x) == pytest.approx(want, rel=1e-13)
    assert specfun.bessel_k(-1.3, 0.8) == pytest.approx(specfun.bessel_k(1.3, 0.8), rel=1e-14)
    with pytest.raises(ValueError):
        specfun.bessel_k(1.0, 0.0)


def test_bessel_k_integral_representation():
    assert specfun.bessel_k(2.4, 1.1) == pytest.approx(oracles.bessel_k_quad(2.4, 1.1), abs=1e-9)


def test_purity_bit_identical():
    pairs = [
        specfun.gamma_upper(2.5, 1.3),
        specfun.exp_integral(-3.34, 0.17),
        specfun.hyp1f2_reg(2.1, 3.4, 1.2, 5.0),
        specfun.lambert_w("principal", 0.73),
        specfun.bessel_k(2.4, 1.1),
    ]
    again = [
        specfun.gamma_upper(2.5, 1.3),
        specfun.exp_integral(-3.34, 0.17),
        specfun.hyp1f2_reg(2.1, 3.4, 1.2, 5.0),
        specfun.lambert_w("principal", 0.73),
        specfun.bessel_k(2.4, 1.1),
    ]
    assert pairs == again
