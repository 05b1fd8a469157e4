import cmath
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catphase.gendelta import AnalyticTestFunction, DeltaRegion, RegularizedDelta, \
    cancellation_factor, classify_point, delta2_sift, delta_kernel, \
    delta_kernel_fourier, delta_moment, min_safe_sigma, sift, sift_shifted_line, sifting_axis
from catphase.numerics import QuadratureSpec, quad_real_line, trapezoid_weights

WIDE = QuadratureSpec(center=0.0, halfwidth=12.0, node_count=12001)


def smoothed_envelope_oracle(scale, z0, sigma):
    """Closed-form Gaussian-smooth of e^{-z^2 / 2 scale^2}: convolving with
    a width-sigma Gaussian widens the variance to scale^2 + sigma^2."""
    s_sq = scale**2 + sigma**2
    return math.sqrt(scale**2 / s_sq) * np.exp(-z0**2 / (2 * s_sq))


class TestDeltaKernel:
    def test_peak_value(self):
        for sigma in (0.1, 0.5, 2.0):
            assert delta_kernel(0.0, sigma) == pytest.approx(
                1.0 / (math.sqrt(2 * math.pi) * sigma))

    def test_imaginary_axis_growth(self):
        sigma = 0.3
        want = math.exp(0.5) / (math.sqrt(2 * math.pi) * sigma)
        assert delta_kernel(1j * sigma, sigma) == pytest.approx(want)

    def test_real_axis_decay(self):
        sigma = 0.2
        peak = abs(delta_kernel(0.0, sigma))
        assert abs(delta_kernel(10 * sigma, sigma)) / peak < 1e-21

    def test_matches_plain_gaussian_formula(self):
        z, sigma = 0.8 - 0.6j, 0.4
        want = np.exp(-z**2 / (2 * sigma**2)) / (math.sqrt(2 * math.pi) * sigma)
        assert delta_kernel(z, sigma) == pytest.approx(want, rel=1e-13)

    def test_overflow_guard_names_safe_sigma(self):
        with pytest.raises(OverflowError, match="need sigma >="):
            delta_kernel(3.0j, 0.01)
        assert min_safe_sigma(3.0j) == pytest.approx(3.0 / math.sqrt(1400.0))

    def test_argument_whose_square_overflows(self):
        # z / sigma is formed before its square: 2e154 squared overflows, 2 does not
        assert delta_kernel(2e154, 1e154) == pytest.approx(
            math.exp(-2.0) / (math.sqrt(2.0 * math.pi) * 1e154), rel=1e-13)
        # a square that overflows is where the kernel underflows: an exact 0, and
        # no RuntimeWarning (which the suite's filter makes an error)
        assert delta_kernel(1e200, 1.0) == 0.0
        # nor is 1 / sigma^2 formed, which overflows here
        assert delta_kernel(0.0, 1e-160) == pytest.approx(1e160 / math.sqrt(2.0 * math.pi),
                                                          rel=1e-15)

    def test_accurate_up_to_large_growth(self):
        # against 40 digits, over growth (Im z)^2 / 2 sigma^2 up to 650 and real
        # parts up to 40 sigma; values that underflow double precision are skipped
        rng = np.random.default_rng(11)
        sigma = rng.uniform(0.05, 2.0, 1000)
        re = rng.uniform(-40.0, 40.0, 1000)
        im = np.sqrt(2.0 * rng.uniform(0.0, 650.0, 1000)) * rng.choice([-1, 1], 1000)
        z = sigma * (re + 1j * im)
        worst = 0.0
        with mpmath.workdps(40):
            for zk, sk, got in zip(z, sigma, map(delta_kernel, z, sigma)):
                zm, sm = mpmath.mpc(zk), mpmath.mpf(sk)
                want = mpmath.exp(-zm * zm / (2 * sm * sm)) / (mpmath.sqrt(2 * mpmath.pi) * sm)
                if abs(want) > 1e-290:
                    worst = max(worst, float(abs(got - want) / abs(want)))
        assert worst <= 4e-13

    def test_memory_is_its_output(self):
        z = np.linspace(-3.0, 3.0, 100_000) + 0.5j
        tracemalloc.start()
        try:
            out = delta_kernel(z, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes

    def test_normalized_over_real_axis(self):
        # RegularizedDelta invariant: +-12 sigma window integrates to 1
        for sigma, center in ((0.3, 0.0), (1.1, 2.0)):
            rd = RegularizedDelta(sigma=sigma, center=center)
            spec = QuadratureSpec(center=center, halfwidth=12 * sigma, node_count=4001)
            assert quad_real_line(rd, spec) == pytest.approx(1.0, abs=1e-10)


class TestDeltaKernelFourier:
    def test_zero_argument(self):
        quad = QuadratureSpec(center=0.0, halfwidth=20.0, node_count=8001)
        got = delta_kernel_fourier(0.0, 2.0, quad)
        assert got == pytest.approx(2.0 / math.sqrt(2 * math.pi), rel=1e-10)
        assert got == pytest.approx(delta_kernel(0.0, 0.5), rel=1e-10)

    def test_transform_identity(self):
        quad = QuadratureSpec(center=0.0, halfwidth=40.0, node_count=40001)
        got = delta_kernel_fourier(1.0 + 0.3j, 4.0, quad)
        assert got == pytest.approx(delta_kernel(1.0 + 0.3j, 0.25), rel=1e-8)

    def test_real_argument_gives_real_result(self):
        quad = QuadratureSpec(center=0.0, halfwidth=20.0, node_count=8001)
        got = delta_kernel_fourier(1.3, 2.0, quad)
        assert abs(got.imag) < 1e-12

    @pytest.mark.parametrize("z", [0.5, -1.7, 0.8 + 0.9j, 2.0 - 1.0j, 1.0j])
    def test_identity_across_plane(self, z):
        sigma_prime = 3.0
        # wide window: for Im z != 0 the integrand decays only once the
        # Gaussian factor overtakes the e^{|Im z| k} growth
        quad = QuadratureSpec(center=0.0, halfwidth=45.0, node_count=45001)
        got = delta_kernel_fourier(z, sigma_prime, quad)
        assert got == pytest.approx(delta_kernel(z, 1 / sigma_prime), rel=1e-8)

    def test_window_warning(self):
        quad = QuadratureSpec(center=0.0, halfwidth=4.0, node_count=801)
        with pytest.warns(UserWarning, match="window truncated"):
            delta_kernel_fourier(0.0, 2.0, quad)


class TestClassifyPoint:
    def test_origin(self):
        assert classify_point(0.0) is DeltaRegion.REAL_AXIS_INFINITY

    def test_decay_region(self):
        assert classify_point(1.0 + 0.5j) is DeltaRegion.ZERO

    def test_complex_infinity_region(self):
        assert classify_point(0.5 + 1.0j) is DeltaRegion.COMPLEX_INFINITY

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(min_value=-10, max_value=10))
    def test_real_axis_dichotomy(self, x):
        # restricted to the real axis: infinite at 0, zero elsewhere
        want = DeltaRegion.REAL_AXIS_INFINITY if x == 0 else DeltaRegion.ZERO
        assert classify_point(complex(x, 0.0)) is want


class TestDeltaMoment:
    def test_zeroth_is_one(self):
        for z in (0.0, 1.0, 1.0j, 2.0 - 0.5j):
            for sigma in (1.0, 0.1, 1e-6):
                assert delta_moment(0, z, sigma) == 1.0

    def test_second_moment_closed_form(self):
        z, sigma = 1.0 + 1.0j, 0.5
        assert delta_moment(2, z, sigma) == pytest.approx(z**2 + sigma**2)

    def test_second_moment_vs_quadrature(self):
        # independent route: direct integration of x^2 against the kernel
        z, sigma = 1.0 + 1.0j, 0.5
        quad = QuadratureSpec(center=z.real, halfwidth=10.0, node_count=20001)
        oracle = quad_real_line(lambda x: x**2 * delta_kernel(x - z, sigma), quad)
        assert delta_moment(2, z, sigma) == pytest.approx(oracle, rel=1e-10)

    def test_power_that_comes_back_nan_raises(self):
        # Python's complex power raises on an infinite result, not on a NaN one
        z = complex(-1e154, 1.7e308)
        assert cmath.isnan(z ** 64)
        with pytest.raises(OverflowError, match="moment of order 64 at z = .* overflows"):
            delta_moment(64, z, 2.5)

    def test_small_sigma_limit(self):
        assert delta_moment(4, 1.0j, 1e-8) == pytest.approx(1.0)

    @pytest.mark.parametrize("z", [0.0, 1.0, 1.0j, 1.0 + 1.0j, 2.0 - 0.5j])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_sigma_squared_scaling(self, n, z):
        dev_coarse = abs(delta_moment(n, z, 0.1) - z**n)
        dev_fine = abs(delta_moment(n, z, 0.05) - z**n)
        if dev_fine == 0.0:
            assert dev_coarse == 0.0
            return
        # at z = 0 the leading sigma^2 term vanishes and the deviation is the
        # whole surviving term, which scales like sigma^n instead
        want_ratio = 2.0 ** n if z == 0.0 else 4.0
        assert dev_coarse / dev_fine == pytest.approx(want_ratio, rel=0.1)


class TestSifting:
    def test_constant_normalization(self):
        f = AnalyticTestFunction.monomial(0)
        for z0 in (0.0, 2.0 + 3.0j, -1.0 + 0.5j):
            assert sift(f, z0, 0.1, WIDE) == 1.0
            assert sift_shifted_line(f, z0, 0.1, WIDE) == 1.0

    def test_linear_monomial_exact(self):
        f = AnalyticTestFunction.monomial(1)
        assert sift(f, 1.0j, 0.3, WIDE) == 1.0j

    def test_quadratic_monomial_shifted(self):
        f = AnalyticTestFunction.monomial(2)
        got = sift_shifted_line(f, 1.0 + 1.0j, 0.1, WIDE)
        assert got == pytest.approx((1 + 1j) ** 2 + 0.01, abs=1e-8)

    def test_envelope_shifted_matches_smoothing_oracle(self):
        # quadrature must hit the exact closed-form Gaussian smoothing
        f = AnalyticTestFunction.gaussian_envelope(scale=math.sqrt(2.0))
        for z0, sigma in ((1.0 + 2.0j, 0.05), (1.0 + 0.4j, 0.25), (-0.5 + 1.0j, 0.1)):
            quad = QuadratureSpec(center=z0.real, halfwidth=14.0, node_count=20001)
            got = sift_shifted_line(f, z0, sigma, quad)
            want = smoothed_envelope_oracle(math.sqrt(2.0), z0, sigma)
            assert got == pytest.approx(want, rel=1e-10)

    def test_envelope_converges_to_continuation(self):
        # smoothing error is O(sigma^2): halving sigma divides it by ~4
        f = AnalyticTestFunction.gaussian_envelope(scale=math.sqrt(2.0))
        z0 = 1.0 + 0.4j
        quad = QuadratureSpec(center=z0.real, halfwidth=14.0, node_count=20001)
        devs = [abs(sift_shifted_line(f, z0, s, quad) - f(z0)) for s in (0.2, 0.1, 0.05)]
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.05)
        assert devs[1] / devs[2] == pytest.approx(4.0, rel=0.05)
        assert devs[2] / abs(f(z0)) < 5e-4

    def test_direct_agrees_with_shifted_when_stable(self):
        f = AnalyticTestFunction.gaussian_envelope(scale=math.sqrt(2.0), coeffs=(1.0, 1.0))
        z0 = 1.0 + 0.4j
        for sigma in (0.4, 0.25):
            factor = cancellation_factor(z0, sigma)
            assert factor < 1e6
            d = sift(f, z0, sigma, WIDE)
            s = sift_shifted_line(f, z0, sigma, WIDE)
            assert abs(d - s) < 1e-12 * factor + 1e-12

    def test_cancellation_warning(self):
        f = AnalyticTestFunction.gaussian_envelope(scale=1.0)
        z0 = 1.0 + 2.0j
        assert cancellation_factor(z0, 0.2) > 1e12
        with pytest.warns(UserWarning, match="cancellation"):
            sift(f, z0, 0.2, WIDE)

    # nodes wider apart than sigma, and nodes that rounding moves by more
    # than sqrt(eps) sigma
    @pytest.mark.parametrize("route", [sift, sift_shifted_line])
    @pytest.mark.parametrize("z0,quad", [
        (1.0 + 0.4j, QuadratureSpec(center=1.0, halfwidth=12.0, node_count=81)),
        (1e9 + 0.4j, QuadratureSpec(center=1e9, halfwidth=12.0, node_count=8001))],
        ids=["spacing", "rounding"])
    def test_unresolved_quadrature_raises(self, route, z0, quad):
        f = AnalyticTestFunction.gaussian_envelope(scale=1.0)
        with pytest.raises(FloatingPointError, match="cannot resolve sigma = 0.2"):
            route(f, z0, 0.2, quad)
        # a monomial takes the closed form, whatever the nodes
        assert route(AnalyticTestFunction.monomial(1), z0, 0.2, quad) == z0

    # a window 30 from the kernel, and one narrower than 8 sigma: without the
    # warning the sums, 0j and 0.383 against f(z0) = 0.956 and 1.0, pass for results
    @pytest.mark.parametrize("route", [sift, sift_shifted_line])
    @pytest.mark.parametrize("z0,sigma,quad,message", [
        (30.0, 0.1, QuadratureSpec(0.0, 12.0, 8001),
         "quadrature halfwidth 12.0 < 8 sigma = 0.8 + |Re z0 - center| = 30.0; "),
        (0.0, 1.0, QuadratureSpec(0.0, 0.5, 801), "quadrature halfwidth 0.5 < 8 sigma = 8.0; ")],
        ids=["off-centre", "narrow"])
    def test_window_that_does_not_hold_the_kernel_warns(self, route, z0, sigma, quad, message):
        f = AnalyticTestFunction.gaussian_envelope(100.0)
        with pytest.warns(UserWarning) as record:
            got = route(f, z0, sigma, quad)
        assert [str(w.message) for w in record] == \
            [message + "window truncates the regularized delta"]
        assert abs(got - f(z0)) > 0.5
        # a window centred at z0 that holds 8 sigma is quiet, and right
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            centred = route(f, z0, sigma, QuadratureSpec(z0, 12.0, 8001))
        assert centred == pytest.approx(f(z0), rel=1e-4)


class TestSiftingAxis:
    def test_each_row_is_its_centres_window(self):
        # quad.center plays no part: row i spans Re c_i +- halfwidth
        centers = np.array([0.3, -1.0 + 0.5j, 2.0 - 0.2j])
        quad = QuadratureSpec(center=5.0, halfwidth=2.0, node_count=401)
        x, w = sifting_axis(centers, 0.1, quad)
        assert x.shape == w.shape == (3, 401)
        for c, xs, ws in zip(centers, x, w):
            np.testing.assert_allclose(xs, np.linspace(c.real - 2.0, c.real + 2.0, 401),
                                       rtol=0, atol=1e-15)
            want = delta_kernel(xs - c, 0.1) * trapezoid_weights(401, 0.01)
            np.testing.assert_allclose(ws, want, rtol=1e-12, atol=0)

    def test_overflow_guard_names_safe_sigma(self):
        # delta_kernel's guard, on the kernel that sifting_axis forms in place
        with pytest.raises(OverflowError,
                           match=r"\|Im z\| = 3\.0 overflows; need sigma >= 0\.0801784"):
            sifting_axis([0.3 + 3j], 0.01, QuadratureSpec(0.0, 0.5, 201))

    # nodes wider apart than sigma; one centre far enough out that rounding at
    # its window's edge exceeds sqrt(eps) sigma, though quad.center is 0
    @pytest.mark.parametrize("centers,quad", [
        ([1.0 + 0.4j], QuadratureSpec(center=1.0, halfwidth=12.0, node_count=81)),
        ([0.0, 1e9 + 0.4j], QuadratureSpec(center=0.0, halfwidth=12.0, node_count=8001))],
        ids=["spacing", "rounding"])
    def test_unresolved_nodes_raise(self, centers, quad):
        with pytest.raises(FloatingPointError, match="cannot resolve sigma = 0.2"):
            sifting_axis(centers, 0.2, quad)


class TestDelta2Sift:
    def test_window_below_eight_sigma_warns(self):
        quad = QuadratureSpec(center=0.0, halfwidth=0.5, node_count=101)
        with pytest.warns(UserWarning, match="window truncates the regularized delta"):
            delta2_sift(lambda x, y: x + 1j * y, 1.0, 0.1, quad)

    def test_unresolved_quadrature_raises(self):
        # nodes 0.1 apart cannot resolve sigma = 0.01: the sum would give 15.41 where
        # f is 0.968
        quad = QuadratureSpec(center=0.0, halfwidth=5.0, node_count=101)
        with pytest.raises(FloatingPointError, match="cannot resolve sigma = 0.01"):
            delta2_sift(lambda x, y: np.exp(-(x * x + y * y) / 4.0), 0.3 + 0.2j, 0.01, quad)

    def test_constant(self):
        quad = QuadratureSpec(center=0.0, halfwidth=2.0, node_count=801)
        got = delta2_sift(lambda x, y: np.ones(np.broadcast_shapes(x.shape, y.shape)),
                          1.0 + 2.0j, 0.1, quad)
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_linear(self):
        quad = QuadratureSpec(center=0.0, halfwidth=1.5, node_count=1501)
        got = delta2_sift(lambda x, y: x + 1j * y, 1.0 + 2.0j, 0.05, quad)
        assert got == pytest.approx(1.0 + 2.0j, abs=1e-8)

    def test_gaussian_convolution_oracle(self):
        # f = e^{-(x^2+y^2)/4} smoothed by two width-sigma Gaussians factorizes
        sigma = 0.1
        quad = QuadratureSpec(center=0.0, halfwidth=3.0, node_count=2001)
        got = delta2_sift(lambda x, y: np.exp(-(x**2 + y**2) / 4.0), 1.0, sigma, quad)
        want = smoothed_envelope_oracle(math.sqrt(2.0), 1.0, sigma) \
            * smoothed_envelope_oracle(math.sqrt(2.0), 0.0, sigma)
        assert got == pytest.approx(want, rel=1e-10)
        assert got == pytest.approx(math.exp(-0.25), rel=5 * sigma**2)

    # f's value broadcast to the product grid: a constant, and a function of x alone
    @pytest.mark.parametrize("f,want", [(lambda x, y: 2.0, 2.0), (lambda x, y: x, 0.3),
                                        (lambda x, y: x + 0 * y, 0.3)],
                             ids=["constant", "x-only", "x-plus-zero-y"])
    def test_integrand_that_broadcasts(self, f, want):
        got = delta2_sift(f, 0.3 + 0.2j, 0.2, QuadratureSpec(0.0, 3.0, 301))
        assert got == pytest.approx(want, rel=1e-12)


class TestAnalyticTestFunction:
    def test_monomial_validation(self):
        with pytest.raises(ValueError):
            AnalyticTestFunction.monomial(-1)

    @pytest.mark.parametrize("degree", [True, False])
    def test_bool_degree_is_refused(self, degree):
        message = f"degree must be a non-negative integer, got {degree}"
        with pytest.raises(ValueError, match=message):
            AnalyticTestFunction.monomial(degree)

    def test_envelope_validation(self):
        with pytest.raises(ValueError):
            AnalyticTestFunction.gaussian_envelope(scale=0.0)

    def test_envelope_scale_whose_square_overflows_is_refused(self):
        # the mirror of require_positive's refusal of a square that underflows
        with pytest.raises(ValueError, match="scale = 1e[+]300 is too large: its square overflows"):
            AnalyticTestFunction.gaussian_envelope(scale=1e300)
        AnalyticTestFunction.gaussian_envelope(scale=1e154)

    @pytest.mark.parametrize("f", [AnalyticTestFunction.gaussian_envelope(scale=1e-155),
                                   AnalyticTestFunction.gaussian_envelope(1.0, (1.7e308, 1.7e308)),
                                   AnalyticTestFunction.monomial(64)],
                             ids=["exponent", "polynomial", "power"])
    def test_overflow_comes_back_non_finite_without_a_warning(self, f):
        # RuntimeWarnings from catphase fail the test run
        values = f(np.array([0.5 + 0.4j, 1e300 + 1e300j]))
        assert not np.isfinite(values).all()

    def test_polynomial_evaluation(self):
        f = AnalyticTestFunction.gaussian_envelope(scale=2.0, coeffs=(1.0, 0.0, 3.0))
        z = 0.5 + 0.5j
        assert f(z) == pytest.approx((1 + 3 * z**2) * np.exp(-z**2 / 8.0))
