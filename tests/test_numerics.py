import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catphase.gendelta import AnalyticTestFunction, RegularizedDelta, cancellation_factor, \
    delta_kernel, delta_kernel_fourier, delta_moment
from catphase.numerics import QuadratureSpec, gaussian_moment_integral, hermite_poly, \
    quad_real_line
from catphase.quasiprob import Grid2D, p_cat_terms, p_regularized_eval, wigner_fock
from catphase.states import CatStateSpec

XP_GRID = Grid2D(-7.0, 7.0, -7.0, 7.0, 21, 21, axis_semantics="xp")
# every caller of require_order, as a function of the order alone
ORDER_CALLERS = {
    "hermite_poly": lambda n: hermite_poly(n, np.array([0.3, -1.2, 0.5 + 0.5j])),
    "delta_moment": lambda n: delta_moment(n, 1.0 + 0.4j, 0.3),
    "wigner_fock": lambda n: wigner_fock(n, XP_GRID).values,
}

# every caller of require_positive, as a function of the width alone
WIDTH_CALLERS = {
    "delta_kernel": lambda s: delta_kernel(0.5, s),
    "delta_kernel_fourier": lambda s: delta_kernel_fourier(
        0.5, s, QuadratureSpec(center=0.0, halfwidth=10.0, node_count=101)),
    "RegularizedDelta": lambda s: RegularizedDelta(s),
    "gaussian_envelope": lambda s: AnalyticTestFunction.gaussian_envelope(s),
    "p_regularized_eval": lambda s: p_regularized_eval(
        p_cat_terms(CatStateSpec(1.0, -1.0, 1.0)), s, 0.3),
    "delta_moment": lambda s: delta_moment(3, 1.0 + 0.4j, s),
    "cancellation_factor": lambda s: cancellation_factor(1.0 + 0.4j, s),
    "gaussian_moment_integral": lambda a: gaussian_moment_integral(2, a, 0.0),
}


def trapezoid_oracle(f, lo, hi, n=48001):
    """Brute-force trapezoid quadrature, independent of quad_real_line."""
    x = np.linspace(lo, hi, n)
    return np.trapezoid(f(x), x)


class TestHermite:
    @pytest.mark.parametrize("x", [0.0, 1.5, -3.0, 2.0 + 1.0j])
    def test_base_case(self, x):
        assert hermite_poly(0, x) == 1.0

    def test_low_orders(self):
        assert hermite_poly(2, 0.0) == -2.0
        assert hermite_poly(3, 1.0) == -4.0

    def test_explicit_polynomials(self):
        # H_2(x) = 4x^2 - 2, H_3(x) = 8x^3 - 12x
        for x in (0.3, -1.2, 0.5 + 0.5j):
            assert hermite_poly(2, x) == pytest.approx(4 * x**2 - 2)
            assert hermite_poly(3, x) == pytest.approx(8 * x**3 - 12 * x)

    def test_guard(self):
        with pytest.raises(ValueError):
            hermite_poly(65, 0.0)
        with pytest.raises(ValueError):
            hermite_poly(-1, 0.0)

    @pytest.mark.parametrize("caller", ORDER_CALLERS)
    def test_integral_float_order_is_the_integer_order(self, caller):
        call = ORDER_CALLERS[caller]
        np.testing.assert_array_equal(call(2.0), call(2))
        with pytest.raises(ValueError, match="non-negative integer"):
            call(2.5)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=19),
           xr=st.floats(min_value=-5, max_value=5),
           xi=st.floats(min_value=-5, max_value=5))
    def test_recurrence_residual(self, n, xr, xi):
        x = complex(xr, xi)
        residual = hermite_poly(n + 1, x) - 2 * x * hermite_poly(n, x) \
            + 2 * n * hermite_poly(n - 1, x)
        scale = max(1.0, abs(hermite_poly(n + 1, x)))
        assert abs(residual) <= 1e-12 * scale


class TestGaussianMomentIntegral:
    def test_normalization(self):
        assert gaussian_moment_integral(0, 1.0, 0.0) == pytest.approx(math.sqrt(math.pi))

    def test_odd_symmetry(self):
        assert abs(gaussian_moment_integral(1, 1.0, 0.0)) < 1e-14

    def test_second_moment_vs_brute_force(self):
        oracle = trapezoid_oracle(lambda x: x**2 * np.exp(-0.5 * x**2), -12, 12)
        got = gaussian_moment_integral(2, 0.5, 0.0)
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx(math.sqrt(2 * math.pi), rel=1e-12)

    def test_zeroth_moment_exact(self):
        for a in (0.25, 0.5, 1.0, 2.0, 7.0):
            assert gaussian_moment_integral(0, a, 0.0) == pytest.approx(
                math.sqrt(math.pi / a), rel=1e-15)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("b", [0.0, 1.0, -2.0, 1.0 + 1.0j, -0.5 + 0.8j])
    @pytest.mark.parametrize("n", range(9))
    def test_matches_quadrature(self, n, a, b):
        spec = QuadratureSpec(center=0.0, halfwidth=20.0, node_count=24001)
        oracle = quad_real_line(lambda x: x**n * np.exp(-a * x**2 + b * x), spec)
        got = gaussian_moment_integral(n, a, b)
        assert got == pytest.approx(oracle, rel=1e-8, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gaussian_moment_integral(2, 0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_moment_integral(2, -1.0, 0.0)


class TestRequirePositive:
    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
    @pytest.mark.parametrize("caller", WIDTH_CALLERS)
    def test_non_positive_or_nan_width_raises(self, caller, width):
        with pytest.raises(ValueError, match=f"must be positive, got {width}"):
            WIDTH_CALLERS[caller](width)

    @pytest.mark.parametrize("caller", WIDTH_CALLERS)
    def test_width_whose_square_underflows_raises(self, caller):
        with pytest.raises(ValueError, match="1e-170 is too small: its square underflows"):
            WIDTH_CALLERS[caller](1e-170)


class TestQuadRealLine:
    def test_gaussian(self):
        spec = QuadratureSpec(center=0.0, halfwidth=8.0, node_count=4001)
        got = quad_real_line(lambda x: np.exp(-x**2), spec)
        assert got == pytest.approx(math.sqrt(math.pi), abs=1e-10)

    def test_zero(self):
        spec = QuadratureSpec(center=3.0, halfwidth=1.0, node_count=11)
        assert quad_real_line(lambda x: np.zeros_like(x), spec) == 0.0

    def test_odd_symmetry(self):
        spec = QuadratureSpec(center=0.0, halfwidth=8.0, node_count=4001)
        got = quad_real_line(lambda x: x * np.exp(-x**2), spec)
        assert abs(got) < 1e-12

    def test_nonfinite_sample_reports_node(self):
        spec = QuadratureSpec(center=0.0, halfwidth=1.0, node_count=5)
        with pytest.raises(FloatingPointError, match="node 2"), np.errstate(divide="ignore"):
            quad_real_line(lambda x: 1.0 / x, spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(center=0.0, halfwidth=0.0, node_count=10)
        with pytest.raises(ValueError):
            QuadratureSpec(center=0.0, halfwidth=math.inf, node_count=10)
        with pytest.raises(ValueError):
            QuadratureSpec(center=0.0, halfwidth=1.0, node_count=1)
