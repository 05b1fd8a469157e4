import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from catphase.cli import build_parser, cmd_sift
from catphase.gendelta import AnalyticTestFunction, RegularizedDelta, cancellation_factor, \
    delta_kernel, delta_kernel_fourier, delta_moment
from catphase.numerics import QuadratureSpec, complex_from_pairs, complex_pairs, \
    gaussian_moment_integral, hermite_poly, pairs_text, quad_real_line
from catphase.quasiprob import Grid2D, PTerm, p_cat_terms, p_regularized_eval, wigner_fock
from catphase.reconstruct import reconstruct_rho, reconstruct_rho_numeric, rho_from_pterm, \
    roundtrip_report
from catphase.states import CatStateSpec, FockDensityMatrix, cat_density_matrix, \
    coherent_fock_coeffs

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

# amplitudes small enough that n_max 1 leaves no tail-mass warning
CAT = CatStateSpec(1e-3, -1e-3, 1.0)


def sift_levels(levels):
    """cli.cmd_sift with its --levels replaced by `levels`."""
    args = build_parser().parse_args(
        ["sift", "--z0", "1", "0.4", "--sigma0", "0.3", "--monomial", "2", "--nodes", "101"])
    args.levels = levels
    return cmd_sift(args)


# every caller of require_count: the count's name, its minimum, and the call
# as a function of the count alone (JSON holds no numpy integer, so the readers
# get a numpy count as the int json.dumps writes for it)
COUNT_CALLERS = {
    "Grid2D.nx": ("nx", 2, lambda n: Grid2D(-1.0, 1.0, -1.0, 1.0, n, 3)),
    "Grid2D.ny": ("ny", 2, lambda n: Grid2D(-1.0, 1.0, -1.0, 1.0, 3, n)),
    "Grid2D.from_json": ("nx", 2, lambda n: Grid2D.from_json(json.dumps(
        {"axes": {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0, "y_max": 1.0},
         "nx": n, "ny": 3, "values": GOOD_PAIRS}, default=int))),
    "FockDensityMatrix": ("n_max", 0, lambda n: FockDensityMatrix(n, np.eye(2))),
    "FockDensityMatrix.from_json": ("n_max", 0, lambda n: FockDensityMatrix.from_json(
        json.dumps({"n_max": n, "entries": GOOD_PAIRS[:4]}, default=int))),
    "coherent_fock_coeffs": ("n_max", 0, lambda n: coherent_fock_coeffs(1e-3, n)),
    "cat_density_matrix": ("n_max", 0, lambda n: cat_density_matrix(CAT, n)),
    "rho_from_pterm": ("n_max", 0, lambda n: rho_from_pterm(PTerm(0.5, 1e-3, -1e-3), n)),
    "roundtrip_report": ("n_max", 0, lambda n: roundtrip_report(CAT, n)),
    "reconstruct_rho": ("n_max", 0, lambda n: reconstruct_rho(p_cat_terms(CAT), n)),
    "reconstruct_rho_numeric": ("n_max", 0, lambda n: reconstruct_rho_numeric(
        p_cat_terms(CAT), 0.5, n, QuadratureSpec(center=0.0, halfwidth=8.0, node_count=201))),
    "QuadratureSpec": ("node_count", 2, lambda n: QuadratureSpec(0.0, 1.0, n)),
    "cli.sift --levels": ("--levels", 1, sift_levels),
}

# a 3 x 3 grid, or a density matrix of n_max 2
GOOD_PAIRS = [[k / 4.0, -0.5] for k in range(9)]


def with_entry(entry):
    """GOOD_PAIRS with its middle pair replaced by `entry`."""
    return GOOD_PAIRS[:4] + [entry] + GOOD_PAIRS[5:]


MALFORMED_PAIRS = {
    "string": with_entry(["1", 2.0]),
    "null": with_entry(None),
    "null-part": with_entry([True, None]),
    "bool": with_entry([True, 1.5]),
    "bool-with-integer": with_entry([1, False]),
    "nested": with_entry([[1.0, 2.0], 3.0]),
    "one-element": with_entry([1.0]),
    "three-element": with_entry([1.0, 2.0, 3.0]),
    "all-three-element": [pair + [0.0] for pair in GOOD_PAIRS],
    "scalar": 5,
    "too-many": GOOD_PAIRS + [[0.0, 0.0]],
    "too-few": GOOD_PAIRS[:-1],
}

# both JSON readers of complex data, as functions of the pairs alone
PAIR_READERS = {
    "Grid2D": lambda pairs: Grid2D.from_json(json.dumps(
        {"axes": {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0, "y_max": 1.0},
         "nx": 3, "ny": 3, "values": pairs})),
    "FockDensityMatrix": lambda pairs: FockDensityMatrix.from_json(json.dumps(
        {"n_max": 2, "entries": pairs})),
}

# documents that are no grid or density matrix: the reader, and the ValueError
# naming the missing or malformed member
GRID_AXES = {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0, "y_max": 1.0}
GRID_DOC = {"axes": GRID_AXES, "nx": 3, "ny": 3, "values": GOOD_PAIRS}
MALFORMED_DOCUMENTS = {
    "grid-values-only": (Grid2D, {"values": []}, "grid has no member 'axes'"),
    "grid-list": (Grid2D, [GRID_DOC], "grid must be a JSON object, got list"),
    "grid-no-ny": (Grid2D, {k: v for k, v in GRID_DOC.items() if k != "ny"},
                   "grid has no member 'ny'"),
    "grid-axes-number": (Grid2D, {**GRID_DOC, "axes": 1},
                         "grid member 'axes' must be a JSON object, got int"),
    "grid-no-y_max": (Grid2D, {**GRID_DOC, "axes": {k: v for k, v in GRID_AXES.items()
                                                     if k != "y_max"}},
                      "grid member 'axes' has no member 'y_max'"),
    "grid-x_min-null": (Grid2D, {**GRID_DOC, "axes": {**GRID_AXES, "x_min": None}},
                        "x_min must be a real number, got None"),
    "grid-x_max-string": (Grid2D, {**GRID_DOC, "axes": {**GRID_AXES, "x_max": "1"}},
                          "x_max must be a real number, got '1'"),
    "grid-y_min-bool": (Grid2D, {**GRID_DOC, "axes": {**GRID_AXES, "y_min": False}},
                        "y_min must be a real number, got False"),
    "matrix-no-n_max": (FockDensityMatrix, {"entries": GOOD_PAIRS},
                        "density matrix has no member 'n_max'"),
    "matrix-no-entries": (FockDensityMatrix, {"n_max": 2},
                          "density matrix has no member 'entries'"),
    "matrix-list": (FockDensityMatrix, [2, GOOD_PAIRS],
                    "density matrix must be a JSON object, got list"),
}

# any float, often one that JSON writes specially or whose sign or scale is easily lost
FLOAT_PART = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-308, 1e308, -1e308]))


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

    @pytest.mark.parametrize("order", [True, False])
    @pytest.mark.parametrize("caller", ORDER_CALLERS)
    def test_bool_order_is_refused(self, caller, order):
        with pytest.raises(ValueError, match=f"n must be a non-negative integer, got {order}"):
            ORDER_CALLERS[caller](order)

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


class TestRequireCount:
    @pytest.mark.parametrize("bad", [True, 2.5, "3", 3.0, "below"],
                             ids=["bool", "fraction", "string", "integral-float", "below"])
    @pytest.mark.parametrize("caller", COUNT_CALLERS)
    def test_non_integer_or_too_small_count_raises(self, caller, bad):
        name, minimum, call = COUNT_CALLERS[caller]
        bad = minimum - 1 if bad == "below" else bad
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be an integer >= {minimum}, got {bad!r}")):
            call(bad)

    @pytest.mark.parametrize("caller", COUNT_CALLERS)
    def test_numpy_integer_count_is_accepted(self, caller):
        _, minimum, call = COUNT_CALLERS[caller]
        call(np.int64(minimum + 1))

    @pytest.mark.parametrize("stored", [
        lambda n: Grid2D(-1.0, 1.0, -1.0, 1.0, n, n).nx,
        lambda n: Grid2D(-1.0, 1.0, -1.0, 1.0, n, n).ny,
        lambda n: reconstruct_rho(p_cat_terms(CAT), n).n_max,
        lambda n: roundtrip_report(CAT, n).n_max,
        lambda n: QuadratureSpec(0.0, 1.0, n).node_count],
        ids=["Grid2D.nx", "Grid2D.ny", "reconstruct_rho", "roundtrip_report", "QuadratureSpec"])
    def test_numpy_integer_count_is_stored_as_int(self, stored):
        got = stored(np.int64(3))
        assert type(got) is int and got == 3

    def test_grid_of_numpy_integer_sizes_round_trips_through_json(self):
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, np.int64(3), 3, values=np.arange(9.0).reshape(3, 3))
        restored = Grid2D.from_json(grid.to_json())
        assert (restored.nx, restored.ny) == (3, 3)
        np.testing.assert_array_equal(restored.values, grid.values)


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

    def test_overflowing_sample_raises_without_a_warning(self):
        # e^{800} overflows and inf * 0 is NaN; a numpy warning would raise here instead
        spec = QuadratureSpec(center=0.0, halfwidth=1.0, node_count=5)
        with pytest.raises(FloatingPointError, match="node 2"), warnings.catch_warnings():
            warnings.simplefilter("error")
            quad_real_line(lambda x: np.exp(800.0 * (1.0 - x * x)) * (1.0 - 1j), spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(center=0.0, halfwidth=0.0, node_count=10)
        with pytest.raises(ValueError):
            QuadratureSpec(center=0.0, halfwidth=math.inf, node_count=10)
        with pytest.raises(ValueError):
            QuadratureSpec(center=0.0, halfwidth=1.0, node_count=1)


class TestComplexPairs:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(values=hnp.arrays(complex, hnp.array_shapes(max_dims=3, max_side=6),
                             elements=st.builds(complex, FLOAT_PART, FLOAT_PART)))
    def test_json_round_trip_keeps_values_and_zero_signs(self, values):
        got = complex_from_pairs(json.loads(json.dumps(complex_pairs(values))))
        want = values.ravel()
        for part in ("real", "imag"):
            a, b = getattr(got, part), getattr(want, part)
            np.testing.assert_array_equal(a, b)  # NaN positions included
            np.testing.assert_array_equal(np.signbit(a[b == 0]), np.signbit(b[b == 0]))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(values=hnp.arrays(st.sampled_from([float, int, bool, complex]),
                             hnp.array_shapes(min_dims=2, max_dims=2, max_side=6)),
           cut=st.integers(0, 6))
    def test_pairs_text_of_real_or_complex_values_is_json_dumps_of_their_pairs(self, values,
                                                                               cut):
        # a real value's imaginary part, written as a constant, is the 0.0 of the values
        # stored complex; an empty span, at the start, inside or at the end, adds no text
        head, rows, tail = pairs_text({"n": 1}, "values", values)
        cut = min(cut, len(values))
        text = head + rows(0, cut) + rows(cut, cut) + rows(cut, len(values)) + tail
        assert text == json.dumps({"n": 1, "values": complex_pairs(values)})

    @pytest.mark.parametrize("pairs", [[[True, 1.5], [0.0, 2.0]], [[1, 2], [3, False]],
                                       [[True, False]]], ids=["float", "integer", "bool"])
    def test_bool_entry_is_no_number(self, pairs):
        with pytest.raises(ValueError, match=r"not \[re, im\] number pairs"):
            complex_from_pairs(pairs)

    def test_float_pair_array_reads_like_its_list(self):
        pairs = np.array(GOOD_PAIRS)
        got = complex_from_pairs(pairs)
        assert got.tobytes() == complex_from_pairs(GOOD_PAIRS).tobytes()
        assert not np.shares_memory(got, pairs)

    @pytest.mark.parametrize("name", MALFORMED_DOCUMENTS)
    def test_malformed_document_is_value_error(self, name):
        reader, doc, message = MALFORMED_DOCUMENTS[name]
        with pytest.raises(ValueError, match=re.escape(message)):
            reader.from_json(json.dumps(doc))

    @pytest.mark.parametrize("reader", PAIR_READERS)
    @pytest.mark.parametrize("pairs", MALFORMED_PAIRS.values(), ids=MALFORMED_PAIRS)
    def test_malformed_pairs_are_refused_by_both_readers(self, reader, pairs):
        PAIR_READERS[reader](GOOD_PAIRS)
        with pytest.raises(ValueError):
            PAIR_READERS[reader](pairs)
