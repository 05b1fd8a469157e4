import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from catphase.amplifier import AmplifierGain, amplified_p, amplified_p_factored, \
    amplified_p_terms, amplify_q, sigma_of_gain
from catphase.quasiprob import Grid2D, p_cat_terms, q_from_wigner, q_function, \
    wigner_from_p
from catphase.states import CatStateSpec

CAT = CatStateSpec(alpha1=1.5, alpha2=-1.5, zeta=1.0)
COMPLEX_2 = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


def field_grid(half, n):
    return Grid2D(-half, half, -half, half, n, n)


def reference_amplify_q(spec, gain, alpha):
    """The amplified Q as the input Q at the rescaled argument, (1/g^2) Q_in(alpha / g)."""
    g = gain.g
    return q_function(spec, np.asarray(alpha, dtype=complex) / g) / (g * g)


class TestGainWidth:
    def test_unit_gain_width_vanishes(self):
        assert sigma_of_gain(1.0) == 0.0

    def test_sqrt_three_gain_gives_unit_width(self):
        assert abs(sigma_of_gain(math.sqrt(3.0)) - 1.0) <= 5e-16

    def test_near_unit_gain(self):
        assert sigma_of_gain(1.01) == pytest.approx(0.10025, abs=1e-5)

    def test_rejects_attenuation(self):
        with pytest.raises(ValueError, match="gain"):
            sigma_of_gain(0.5)
        with pytest.raises(ValueError, match="gain"):
            AmplifierGain(0.99)

    def test_gain_object_width(self):
        assert AmplifierGain(3.0).sigma == pytest.approx(2.0)

    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_gain(self, g):
        with pytest.raises(ValueError, match="finite"):
            sigma_of_gain(g)
        with pytest.raises(ValueError, match="finite"):
            AmplifierGain(g)


class TestAmplifiedQ:
    @pytest.mark.parametrize("kind", ["grid", "points"])
    def test_unit_gain_is_q_function_exactly(self, kind):
        alpha = (field_grid(6.0, 41).plane() if kind == "grid"
                 else np.array([0.0, 1.5, -0.4 + 0.8j, 3.0 - 2.0j]))
        np.testing.assert_array_equal(amplify_q(CAT, AmplifierGain(1.0), alpha),
                                      q_function(CAT, alpha))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a1=COMPLEX_2, a2=COMPLEX_2, zeta=COMPLEX_2, g=st.floats(1.0, 3.0),
           kind=st.sampled_from(["grid", "scattered"]), seed=st.integers(0, 2**32 - 1))
    def test_matches_rescaled_q_function(self, a1, a2, zeta, g, kind, seed):
        try:
            spec = CatStateSpec(a1, a2, zeta)
        except ValueError:
            reject()
        # nearly cancelling components blow A up, and every rounding error with it
        assume(spec.norm_A <= 5.0)
        gain = AmplifierGain(g)
        half = g * (max(abs(a1), abs(a2)) + 4.0)
        if kind == "grid":
            alpha = Grid2D(-half, half, -0.8 * half, 0.8 * half, 23, 19).plane()
        else:
            rng = np.random.default_rng(seed)
            alpha = rng.uniform(-half, half, 300) + 1j * rng.uniform(-half, half, 300)
        want = reference_amplify_q(spec, gain, alpha)
        got = amplify_q(spec, gain, alpha)
        assert got.shape == alpha.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_unit_gain_is_identity(self):
        alphas = np.array([0.0, 1.5, -0.4 + 0.8j])
        got = amplify_q(CAT, AmplifierGain(1.0), alphas)
        np.testing.assert_allclose(got, q_function(CAT, alphas), rtol=0, atol=1e-15)

    def test_peak_bounded_by_inverse_gain_squared(self):
        g = 2.0
        grid = field_grid(9.0, 241)
        gx, gy = grid.meshgrid()
        q = amplify_q(CAT, AmplifierGain(g), gx + 1j * gy)
        assert q.max() <= 1.0 / (math.pi * g * g) + 1e-12

    def test_normalized_after_gain(self):
        grid = field_grid(12.0, 361)
        gx, gy = grid.meshgrid()
        grid.values = amplify_q(CAT, AmplifierGain(2.0), gx + 1j * gy)
        assert grid.integrate().real == pytest.approx(1.0, abs=1e-6)

    def test_cascade_composes_multiplicatively(self):
        g1, g2 = 1.3, 1.7
        alphas = np.array([0.2, 1.0 - 0.5j, -2.0j])
        got = amplify_q(CAT, AmplifierGain(g1 * g2), alphas)
        relay = amplify_q(CAT, AmplifierGain(g1), alphas / g2) / g2**2
        np.testing.assert_allclose(got, relay, rtol=1e-12, atol=0)


class TestAmplifiedP:
    def test_singular_limit_rejected(self):
        with pytest.raises(ValueError, match="p_cat_terms"):
            amplified_p(CAT, AmplifierGain(1.0), 0.0)
        with pytest.raises(ValueError, match="g > 1"):
            amplified_p_factored(p_cat_terms(CAT).terms[0], AmplifierGain(1.0), 0.0)

    def test_coherent_state_is_displaced_gaussian(self):
        spec = CatStateSpec(alpha1=0.9, alpha2=-0.9, zeta=0.0)
        g = 2.0
        var = g * g - 1.0
        for alpha in (0.0, 1.8, 1.0 + 1.0j, -0.5j):
            want = math.exp(-abs(alpha - g * 0.9) ** 2 / var) / (math.pi * var)
            assert amplified_p(spec, AmplifierGain(g), alpha) == pytest.approx(want)

    def test_normalized(self):
        grid = field_grid(10.0, 321)
        gx, gy = grid.meshgrid()
        grid.values = amplified_p(CAT, AmplifierGain(2.0), gx + 1j * gy)
        assert grid.integrate().real == pytest.approx(1.0, abs=1e-6)

    def test_real_valued_field(self):
        gx, gy = field_grid(6.0, 41).meshgrid()
        p = amplified_p(CAT, AmplifierGain(1.5), gx + 1j * gy)
        assert p.dtype == float

    @pytest.mark.parametrize("g", [1.1, 2.0, 5.0])
    def test_factored_form_matches_per_term_values(self, g):
        gain = AmplifierGain(g)
        alphas = np.array([0.3 + 0.2j, -1.0, 2.5j, g * 1.5])
        per_term = amplified_p_terms(CAT, gain, alphas)
        for term, vals in zip(p_cat_terms(CAT).terms, per_term):
            fac = amplified_p_factored(term, gain, alphas)
            np.testing.assert_allclose(fac, vals, rtol=1e-12, atol=1e-300)

    def test_terms_sum_to_total(self):
        gain = AmplifierGain(1.8)
        alphas = np.array([0.0, 1.2 - 0.4j, -2.0])
        total = sum(amplified_p_terms(CAT, gain, alphas))
        np.testing.assert_allclose(total.real, amplified_p(CAT, gain, alphas),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("spec", [CatStateSpec(3.0 + 0.5j, -3.0, 1.0),
                                      CatStateSpec(3.0, -3.0, 1.0)])
    def test_cancellation_beyond_double_precision_raises(self, spec):
        # near unit gain the terms of a separated cat reach ~1e34 and cancel
        # to O(1); the first spec used to fail an assert on its imaginary
        # residue, the second (exactly conjugate terms) returned the garbage
        gx, gy = field_grid(6.0, 41).meshgrid()
        with pytest.raises(FloatingPointError, match="amplified P"):
            amplified_p(spec, AmplifierGain(1.05), gx + 1j * gy)

    def test_overflow_raises_instead_of_returning_non_finite(self):
        spec = CatStateSpec(alpha1=12.0, alpha2=-12.0, zeta=1.0)
        gx, gy = field_grid(15.0, 201).meshgrid()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="amplified P"):
            amplified_p(spec, AmplifierGain(1.05), gx + 1j * gy)

    def test_overflow_raises_before_any_numpy_warning(self):
        # the guard's message is the only report; no RuntimeWarning precedes it
        spec = CatStateSpec(alpha1=12.0, alpha2=-12.0, zeta=1.0)
        gx, gy = field_grid(15.0, 201).meshgrid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="amplified P"):
                amplified_p(spec, AmplifierGain(1.05), gx + 1j * gy)

    def test_factored_centers_scale_with_gain(self):
        # each factored term peaks (in magnitude) at g times the term centers
        term = p_cat_terms(CAT).terms[0]
        g = 2.0
        gain = AmplifierGain(g)
        peak = g * complex(term.center_r) + 1j * g * complex(term.center_i)
        v0 = abs(amplified_p_factored(term, gain, peak))
        for off in (0.3, -0.3j, 0.2 + 0.2j):
            assert abs(amplified_p_factored(term, gain, peak + off)) < v0


class TestChannelConsistency:
    def test_smooth_p_convolves_to_amplified_q(self):
        # P -> W -> Q applied to the amplified P must land on the amplified Q
        g = 2.0
        gain = AmplifierGain(g)
        src = field_grid(10.0, 321)
        gx, gy = src.meshgrid()
        src.values = amplified_p(CAT, gain, gx + 1j * gy)
        # keep the intermediate Wigner field on the padded grid: the second
        # convolution still draws on samples beyond the output window
        w = wigner_from_p(src, field_grid(10.0, 321))
        out = field_grid(5.0, 101)
        q = q_from_wigner(w, out)
        ox, oy = out.meshgrid()
        want = amplify_q(CAT, gain, ox + 1j * oy)
        np.testing.assert_allclose(q.values.real, want, rtol=0, atol=1e-6)
        assert np.max(np.abs(q.values.imag)) < 1e-12


class TestFieldArrays:
    @pytest.mark.parametrize("field", [
        lambda alpha: q_function(CAT, alpha),
        lambda alpha: amplified_p(CAT, AmplifierGain(2.0), alpha),
        lambda alpha: amplify_q(CAT, AmplifierGain(2.0), alpha),
    ], ids=["q_function", "amplified_p", "amplify_q"])
    def test_real_field_is_contiguous_and_owns_only_its_values(self, field):
        # a strided view of the complex sum would keep twice the bytes alive
        values = field(field_grid(6.0, 41).plane())
        assert values.dtype == float
        assert values.flags.c_contiguous and values.flags.owndata
        assert values.base is None and values.nbytes == 41 * 41 * 8
