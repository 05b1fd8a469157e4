import cmath
import io
import json
import math
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

from catphase.amplifier import AmplifierGain, amplified_p, amplified_p_terms, amplify_q
from catphase.gendelta import cancellation_factor, min_safe_sigma
from catphase.numerics import complex_from_pairs, complex_pairs, loads_with_pairs, require_count, \
    trapezoid_weights
from catphase.quasiprob import Grid2D, PRepresentation, PTerm, _axis_kernel, \
    _gaussian_convolve, _hermitian_sum, _sum_terms, alpha_from_xp, fock_wavefunction, \
    gaussian_terms, opened, p_cat_terms, p_regularized_eval, p_representation_grid, \
    q_fourier_term, q_from_wigner, q_function, wigner_fock, wigner_from_p, xp_from_alpha
from catphase.states import CatStateSpec, cat_density_matrix, coherent_fock_coeffs, \
    coherent_overlap
from test_numerics import FLOAT_PART, GOOD_PAIRS, MALFORMED_PAIRS

EVEN_CAT = CatStateSpec(alpha1=1.5, alpha2=-1.5, zeta=1.0)
SKEW_CAT = CatStateSpec(alpha1=1.0 + 0.5j, alpha2=-1.0 + 0.3j, zeta=0.6 - 0.4j)


def complex_in(half):
    part = st.floats(-half, half)
    return st.builds(complex, part, part)


COMPLEX_2, COMPLEX_3 = complex_in(2.0), complex_in(3.0)


def complex_within(radius):
    """Complex numbers of modulus at most `radius`, at any phase."""
    return st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
                     st.floats(0.0, radius), st.floats(-math.pi, math.pi))


def alpha_grid(half=6.0, n=201):
    return Grid2D(-half, half, -half, half, n, n)


def meshgrid_plane(grid):
    """The alpha = x + i y value of every cell of `grid`, as a library caller builds it."""
    gx, gy = grid.meshgrid()
    return gx + 1j * gy


def assert_bitwise_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def separated_cat_window(a1, a2, g=1.0):
    """The rectangle holding both components of a cat's Q amplified at gain g
    with a margin of 6 g, at a spacing of g / 2, however far apart they are."""
    lo = g * complex(min(a1.real, a2.real) - 6.0, min(a1.imag, a2.imag) - 6.0)
    hi = g * complex(max(a1.real, a2.real) + 6.0, max(a1.imag, a2.imag) + 6.0)
    nx, ny = (math.ceil(2.0 * side / g) + 1 for side in (hi.real - lo.real, hi.imag - lo.imag))
    return Grid2D(lo.real, hi.real, lo.imag, hi.imag, nx, ny)


def reference_to_csv(grid, stream, meta=None):
    """The per-cell CSV writer that `Grid2D.to_csv` replaced, kept as its oracle."""
    for line in (meta or []):
        stream.write(f"# {line}\n")
    stream.write("x,y,re,im\n")
    xs, ys = grid.xs, grid.ys
    for i in range(grid.nx):
        for j in range(grid.ny):
            v = grid.values[i, j]
            stream.write(f"{float(xs[i])!r},{float(ys[j])!r},"
                         f"{float(v.real)!r},{float(v.imag)!r}\n")


def reference_from_csv(stream, axis_semantics="alpha"):
    """The per-line CSV parser that `Grid2D.from_csv` replaced, kept as its oracle."""
    rows = []
    for line in stream:
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("x,"):
            continue
        x, y, re, im = line.split(",")
        rows.append((float(x), float(y), float(re), float(im)))
    xs = sorted({r[0] for r in rows})
    ys = sorted({r[1] for r in rows})
    grid = Grid2D(xs[0], xs[-1], ys[0], ys[-1], len(xs), len(ys),
                  axis_semantics=axis_semantics)
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    filled = np.zeros((grid.nx, grid.ny), dtype=bool)
    for x, y, re, im in rows:
        i, j = xi[x], yi[y]
        grid.values[i, j] = complex(re, im)
        filled[i, j] = True
    if len(rows) != filled.size or not filled.all():
        raise ValueError(f"{len(rows)} rows do not fill a {len(xs)} x {len(ys)} grid")
    return grid


def reference_wigner_fock(n, grid, q_halfwidth=10.0, q_nodes=2001):
    """The shift-variable quadrature that `wigner_fock` replaced, kept as its oracle:

        W(x, p) = (1/pi) * integral of psi_n(x+q) psi_n(x-q) e^{-2 i p q} dq.
    """
    q = np.linspace(-q_halfwidth, q_halfwidth, q_nodes)
    wq = trapezoid_weights(q_nodes, q[1] - q[0])
    xs, ps = grid.xs, grid.ys
    c = fock_wavefunction(n, xs[:, None] + q[None, :]) * \
        fock_wavefunction(n, xs[:, None] - q[None, :])
    phases = np.exp(-2j * np.outer(q, ps)) * wq[:, None]
    return (c @ phases) / math.pi


def reference_gaussian_terms(rep, alpha, t, g=1.0):
    """The expanded evaluator that the factored `gaussian_terms` replaced,
    kept as its oracle: one complex exp per point of

        (g conj(beta) alpha + g gamma conj(alpha) - |alpha|^2 - g^2 conj(beta) gamma) / t.
    """
    alpha = np.asarray(alpha, dtype=complex)
    alpha_c = np.conj(alpha)
    mod_sq = alpha.real ** 2 + alpha.imag ** 2
    for term in rep.terms:
        bc = np.conj(term.beta)
        expo = (g * bc * alpha + g * term.gamma * alpha_c - mod_sq
                - g * g * (bc * term.gamma)) / t
        scale = term.weight / (math.pi * t)
        peak = abs(scale) * np.exp(np.max(expo.real, initial=-np.inf))
        yield scale * np.exp(expo), float(peak)


def field_inputs(kind, half, rng):
    """alpha over [-half, half]^2 as an "ij" tensor grid, an "xy" meshgrid,
    a "sheared" grid (Re alpha a tensor column, Im alpha not a row) or
    scattered points."""
    if kind == "scattered":
        return rng.uniform(-half, half, 300) + 1j * rng.uniform(-half, half, 300)
    xs, ys = np.linspace(-half, half, 23), np.linspace(-half, half, 19)
    gx, gy = np.meshgrid(xs, ys, indexing="xy" if kind == "xy" else "ij")
    if kind == "sheared":
        gy = gy + 0.1 * gx
    return gx + 1j * gy


# values whose shortest repr is unusual: signed zero, subnormal, the switch
# to exponent notation at 1e-5 and 1e16, inexact decimals, extreme exponents
AWKWARD_FLOATS = st.sampled_from([
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 9.999999999999999e-06,
    1e16, 9999999999999998.0, 0.1, -0.30000000000000004, 1e-300, 1.7976931348623157e308,
    -1.2345678901234567e-250, math.pi * 1e200])
CSV_VALUES = st.one_of(AWKWARD_FLOATS, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def csv_grids(draw):
    nx, ny = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    lo = st.floats(-1e6, 1e6, allow_subnormal=False)
    width = st.floats(1e-3, 1e6)
    x_min, y_min = draw(lo), draw(lo)
    grid = Grid2D(x_min, x_min + draw(width), y_min, y_min + draw(width), nx, ny,
                  axis_semantics=draw(st.sampled_from(["alpha", "xp"])))
    # axes whose nodes round together are no grid either writer can describe
    assume(len(set(grid.xs.tolist())) == nx and len(set(grid.ys.tolist())) == ny)
    cells = st.lists(CSV_VALUES, min_size=nx * ny, max_size=nx * ny)
    grid.values.real = np.reshape(draw(cells), (nx, ny))
    grid.values.imag = np.reshape(draw(cells), (nx, ny))
    return grid


def reference_to_json(grid, meta=None):
    """Grid2D.to_json as one json.dumps of the whole document."""
    return json.dumps({
        "meta": meta or {},
        "axes": {"x_min": grid.x_min, "x_max": grid.x_max,
                 "y_min": grid.y_min, "y_max": grid.y_max,
                 "semantics": grid.axis_semantics},
        "nx": grid.nx, "ny": grid.ny,
        "values": complex_pairs(grid.values),
    })


def reference_from_json(text):
    """Grid2D.from_json as json.loads of the whole text and complex_from_pairs."""
    data = json.loads(text)
    ax = data["axes"]
    flat = complex_from_pairs(data["values"])
    nx, ny = require_count(data["nx"], "nx", 2), require_count(data["ny"], "ny", 2)
    return Grid2D(ax["x_min"], ax["x_max"], ax["y_min"], ax["y_max"], nx, ny,
                  values=flat.reshape(nx, ny), axis_semantics=ax.get("semantics", "alpha"))


def outcome(read, text):
    """What `read(text)` gives: the grid's geometry and value bits, or the
    type and message of what it raises."""
    try:
        grid = read(text)
    except Exception as exc:  # any exception: which one is the outcome
        return type(exc), str(exc)
    axes = ("x_min", "x_max", "y_min", "y_max", "nx", "ny", "axis_semantics")
    return [repr(getattr(grid, a)) for a in axes], grid.values.tobytes()


# the 3 x 3 grid of GOOD_PAIRS, and its text with one edit
GOOD_JSON = json.dumps({"meta": {"field": "q"},
                        "axes": {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0, "y_max": 1.0},
                        "nx": 3, "ny": 3, "values": GOOD_PAIRS})
VALUES_AT = GOOD_JSON.index('"values"')


def edited(*subs):
    """GOOD_JSON with each (old, new) or (old, new, count) substitution made in
    its values: the first copy of `old`, or the first `count` copies."""
    head, values = GOOD_JSON[:VALUES_AT], GOOD_JSON[VALUES_AT:]
    for old, new, *count in subs:
        assert old in values
        values = values.replace(old, new, *(count or [1]))
    return head + values


def with_pairs(pairs):
    """A 3 x 3 grid's JSON text with `pairs` as its values."""
    return json.dumps({"axes": {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0, "y_max": 1.0},
                       "nx": 3, "ny": 3, "values": pairs})


# texts that json.loads and complex_from_pairs refuse, each of which Grid2D.from_json
# must refuse with the same exception and message
REFUSED_JSON = {
    **{f"pairs-{name}": with_pairs(pairs) for name, pairs in MALFORMED_PAIRS.items()},
    # numbers numpy's text parser reads but JSON does not
    **{f"number-{bad}": edited(("0.25", bad))
       for bad in ("nan", "inf", "+1", ".5", "01", "1.", "-NaN", "infinity", "1e", "0x1")},
    "bool": edited(("0.25", "true")),
    "one-number": edited(("[0.25, -0.5]", "[0.25]")),
    "three-numbers": edited(("[0.25, -0.5]", "[0.25, -0.5, 1.0]")),
    "empty-pair": edited(("[0.25, -0.5]", "[]")),
    "trailing-comma": edited(("]]", "],]")),
    "trailing-comma-in-pair": edited(("[0.25, -0.5]", "[0.25, -0.5,]")),
    "missing-comma": edited(("], [", "] [")),
    "leading-comma": edited(("[[", "[,[")),
    "first-pair-unbracketed": edited(("[[0.0, -0.5], ", "[0.0, -0.5], [")),
    "extra-bracket": edited(("]]", "]]]")),
    "nested": edited(("[[", "[[[")),
    "empty": with_pairs([]),
    "vertical-tab": edited((", ", ",\v")),
    "no-break-space": edited((", ", ",\u00a0")),
    "nx-tampered": GOOD_JSON.replace('"nx": 3', '"nx": 4'),
    "ny-tampered": GOOD_JSON.replace('"ny": 3', '"ny": 2'),
    "nx-bool": GOOD_JSON.replace('"nx": 3', '"nx": true'),
    "values-missing": GOOD_JSON.replace('"values"', '"valuez"'),
    "values-last-repeated-short": GOOD_JSON[:-1] + ', "values": [[1.0, 2.0]]}',
    **{f"truncated-{cut}": GOOD_JSON[:cut] for cut in (-1, -2, -3, -9, VALUES_AT + 12, 40)},
}

# texts that json.loads and complex_from_pairs accept, each of which Grid2D.from_json
# must read to the same bits
ACCEPTED_JSON = {
    "meta-holds-values": GOOD_JSON.replace('"field": "q"', '"values": [[7.0, 8.0]]'),
    "meta-holds-values-text": GOOD_JSON.replace('"q"', '"a\\"values\\": [[7.0, 8.0]]"'),
    "values-repeated": GOOD_JSON.replace('"meta"', '"values": [[7.0, 8.0]], "meta"'),
    "values-first": json.dumps({"values": GOOD_PAIRS, "nx": 3, "ny": 3, "meta": {
        "values": [[7.0, 8.0]]}, "axes": {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0,
                                         "y_max": 1.0}}),
    "key-ending-in-values": GOOD_JSON[:-1] + ', "a\\"values": [[7.0, 8.0]]}',
    "escaped-key": GOOD_JSON.replace('"values"', '"valu\\u0065s"'),
    "integers": edited(("0.0", "0", 9)),
    "negative-integer-zero": edited(("0.0", "-0", 9)),
    "json-whitespace": edited((", ", " ,\t\r\n ", 9)),
    "indented": json.dumps(json.loads(GOOD_JSON), indent=2),
    "no-spaces": json.dumps(json.loads(GOOD_JSON), separators=(",", ":")),
    "trailing-newline": GOOD_JSON + "\n",
    "exponents": edited(("0.25", "2.5E-1"), ("0.75", "7.5e-1"), ("1.0,", "1e+0,")),
    "extremes": edited(("0.25", "1e400"), ("0.5,", "-1e400,"), ("0.75", "2.4e-324"),
                       ("1.25", "-0.0e0"), ("1.5", "2.5e-324")),
    "non-finite": edited(("0.25", "NaN"), ("0.5,", "Infinity,"), ("0.75", "-Infinity")),
    "long-mantissa": edited(("0.25", "0.1000000000000000055511151231257827021181583404541015625")),
}

# the accepted texts whose values numpy parses; the rest go through json.loads whole
NUMPY_READ_JSON = {"meta-holds-values", "meta-holds-values-text", "values-repeated",
                   "json-whitespace", "indented", "no-spaces", "trailing-newline", "exponents",
                   "extremes", "non-finite", "long-mantissa"}

@st.composite
def json_grids(draw):
    nx, ny = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    bounds = st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2, unique=True).map(sorted)
    grid = Grid2D(*draw(bounds), *draw(bounds), nx, ny,
                  axis_semantics=draw(st.sampled_from(["alpha", "xp"])))
    cells = st.lists(FLOAT_PART, min_size=nx * ny, max_size=nx * ny)
    grid.values.real = np.reshape(draw(cells), (nx, ny))
    grid.values.imag = np.reshape(draw(cells), (nx, ny))
    return grid


class TestConventions:
    def test_alpha_xp_roundtrip(self):
        a = np.array([0.3 + 0.7j, -1.2j, 2.0])
        x, p = xp_from_alpha(a)
        assert alpha_from_xp(x, p) == pytest.approx(a)

    def test_vacuum_is_origin(self):
        assert alpha_from_xp(0.0, 0.0) == 0.0


class TestPTerm:
    def test_diagonal_centers_are_the_amplitude(self):
        t = PTerm(kappa=0.5, beta=1.0 - 2.0j, gamma=1.0 - 2.0j)
        assert t.is_diagonal
        assert t.kind == "diagonal"
        assert t.center_r == pytest.approx(1.0)
        assert t.center_i == pytest.approx(-2.0)
        assert t.weight == pytest.approx(0.5)

    def test_opposite_real_amplitudes_center_on_imaginary_axis(self):
        # |gamma><beta| with beta = -gamma = a real: centers (0, i a)
        a = 2.0
        t = PTerm(kappa=1.0, beta=a, gamma=-a)
        assert not t.is_diagonal
        assert t.center_r == pytest.approx(0.0)
        assert t.center_i == pytest.approx(1j * a)

    def test_weight_includes_overlap(self):
        t = PTerm(kappa=2.0, beta=1.0, gamma=0.5j)
        assert t.weight == pytest.approx(2.0 * coherent_overlap(1.0, 0.5j))


class TestPCatTerms:
    def test_four_terms_and_kinds(self):
        rep = p_cat_terms(SKEW_CAT)
        assert len(rep.terms) == 4
        kinds = [t.kind for t in rep.terms]
        assert kinds == ["diagonal", "diagonal", "off_diagonal", "off_diagonal"]

    def test_off_diagonal_terms_are_conjugate_partners(self):
        rep = p_cat_terms(SKEW_CAT)
        t_a, t_b = rep.terms[2], rep.terms[3]
        assert t_b.kappa == pytest.approx(np.conj(t_a.kappa))
        assert t_b.beta == t_a.gamma and t_b.gamma == t_a.beta

    def test_zero_superposition_weight_collapses_to_one_term(self):
        rep = p_cat_terms(CatStateSpec(alpha1=0.8, alpha2=-0.8, zeta=0.0))
        assert len(rep.terms) == 1
        (t,) = rep.terms
        assert t.is_diagonal and t.beta == 0.8
        assert t.kappa == pytest.approx(1.0)

    def test_weights_sum_to_trace(self):
        for spec in (EVEN_CAT, SKEW_CAT):
            total = sum(t.weight for t in p_cat_terms(spec).terms)
            assert total == pytest.approx(1.0, abs=1e-13)


class TestQFunction:
    @pytest.mark.parametrize("spec", [EVEN_CAT, SKEW_CAT])
    def test_matches_number_basis_expectation(self, spec):
        # oracle: (1/pi) <alpha|rho|alpha> from the truncated density matrix
        rho = cat_density_matrix(spec, n_max=40).entries
        for alpha in (0.0, 1.5, -1.5, 1.0j, 0.7 - 0.3j):
            v = coherent_fock_coeffs(alpha, 40)
            want = np.real(np.conj(v) @ rho @ v) / math.pi
            assert q_function(spec, alpha) == pytest.approx(want, abs=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a1=COMPLEX_2, a2=COMPLEX_2, zeta=COMPLEX_2, alpha=COMPLEX_3)
    def test_matches_number_basis_expectation_for_random_specs(self, a1, a2, zeta, alpha):
        try:
            spec = CatStateSpec(a1, a2, zeta)
        except ValueError:
            reject()
        # nearly cancelling components blow A up, and every rounding error with it
        assume(spec.norm_A <= 5.0)
        rho = cat_density_matrix(spec, n_max=50).entries
        v = coherent_fock_coeffs(alpha, 50)
        want = np.real(np.conj(v) @ rho @ v) / math.pi
        assert q_function(spec, alpha) == pytest.approx(want, abs=1e-10)

    def test_non_finite_point_raises(self):
        with pytest.raises(FloatingPointError, match="Q-function"):
            q_function(EVEN_CAT, np.array([0.0, complex("nan")]))

    # (10, 10) is the origin, where a NaN replaced by 0 would pass for a grid
    @pytest.mark.parametrize("cell", [(0, 0), (7, 0), (0, 9), (7, 9), (10, 10), (-1, -1)])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_non_finite_grid_cell_raises(self, cell, part):
        # a NaN cell breaks the tensor-grid pattern, so it cannot hide in an axis
        gx, gy = alpha_grid(n=21).meshgrid()
        (gx if part == "real" else gy)[cell] = np.nan
        with pytest.raises(FloatingPointError, match="Q-function"):
            q_function(EVEN_CAT, gx + 1j * gy)

    def test_grid_memory_bounded(self):
        # on a tensor grid a real field is one real product, half a complex
        # plane, and the regularized P adds the complex plane it returns; no
        # complex sum and no term plane
        gain = AmplifierGain(2.0)
        fields = [(lambda a: q_function(SKEW_CAT, a), 0.75),
                  (lambda a: amplify_q(SKEW_CAT, gain, a), 0.75),
                  (lambda a: amplified_p(SKEW_CAT, gain, a), 0.75),
                  (lambda a: p_regularized_eval(p_cat_terms(SKEW_CAT), 0.6, a), 1.75)]
        alpha = meshgrid_plane(alpha_grid(half=7.0, n=401))
        for field, planes in fields:
            tracemalloc.start()
            try:
                field(alpha)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < planes * alpha.nbytes

    def test_grid_route_memory_bounded(self):
        # a Grid2D hands over its axes, so no alpha plane is built or scanned:
        # a real field is its real sum, half a complex plane, and the
        # regularized P adds the complex plane it returns
        gain = AmplifierGain(2.0)
        fields = [(lambda a: q_function(SKEW_CAT, a), 0.6),
                  (lambda a: amplify_q(SKEW_CAT, gain, a), 0.6),
                  (lambda a: amplified_p(SKEW_CAT, gain, a), 0.6),
                  (lambda a: p_regularized_eval(p_cat_terms(SKEW_CAT), 0.6, a), 1.55)]
        grid = alpha_grid(half=7.0, n=401)
        plane_bytes = grid.nx * grid.ny * np.dtype(complex).itemsize
        for field, planes in fields:
            tracemalloc.start()
            try:
                field(grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < planes * plane_bytes

    def test_nonnegative_on_grid(self):
        grid = alpha_grid()
        gx, gy = grid.meshgrid()
        q = q_function(EVEN_CAT, gx + 1j * gy)
        assert q.min() >= -1e-14

    def test_normalization(self):
        grid = alpha_grid()
        gx, gy = grid.meshgrid()
        grid.values = q_function(SKEW_CAT, gx + 1j * gy)
        assert grid.integrate() == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a1=complex_within(3.0), a2=complex_within(3.0), zeta=complex_within(2.0))
    def test_nonnegative_and_normalized_for_random_cats(self, a1, a2, zeta):
        try:
            spec = CatStateSpec(a1, a2, zeta)
        except ValueError:
            reject()
        # the window holds every component to 6 widths, where Q is below 1e-15
        half = max(abs(a1), abs(a2)) + 6.0
        grid = Grid2D(-half, half, -half, half, 201, 201)
        alpha = meshgrid_plane(grid)
        grid.values = q_function(spec, alpha)
        # Q is a square, so only rounding of its terms can take it below 0
        peaks = sum(peak for _, peak in gaussian_terms(p_cat_terms(spec), alpha, 1.0))
        assert grid.values.min() >= -np.finfo(float).eps * peaks
        assert grid.integrate().real == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(r1=st.floats(0.0, 200.0), r2=st.floats(0.0, 200.0), phase1=st.floats(-math.pi, math.pi),
           phase2=st.floats(-math.pi, math.pi), zeta=complex_within(2.0))
    @example(r1=27.0, r2=27.0, phase1=0.0, phase2=math.pi, zeta=1.0)
    @example(r1=200.0, r2=200.0, phase1=0.0, phase2=math.pi, zeta=1.0)
    def test_separated_cats_bounded_and_normalized(self, r1, r2, phase1, phase2, zeta):
        # the overlap of far components underflows while their Im-axis
        # factors would overflow; with the log weight in the exponent
        # neither happens, so Q is evaluated, not refused
        a1, a2 = r1 * cmath.exp(1j * phase1), r2 * cmath.exp(1j * phase2)
        try:
            spec = CatStateSpec(a1, a2, zeta)
        except ValueError:
            reject()
        assume(spec.norm_A <= 5.0)
        grid = separated_cat_window(a1, a2)
        alpha = meshgrid_plane(grid)
        grid.values = q_function(spec, alpha)
        peaks = sum(peak for _, peak in gaussian_terms(p_cat_terms(spec), alpha, 1.0))
        assert grid.values.min() >= -np.finfo(float).eps * peaks
        assert grid.values.max() <= 1.0 / math.pi
        assert grid.integrate().real == pytest.approx(1.0, abs=1e-6)
        # the same cells as scattered points take the pointwise path
        rng = np.random.default_rng(grid.nx * grid.ny)
        cells = rng.choice(alpha.size, size=min(alpha.size, 20000), replace=False)
        points = q_function(spec, alpha.ravel()[cells])
        assert np.max(np.abs(points - grid.values.real.ravel()[cells])) <= 1e-12

    def test_scalar_in_scalar_out(self):
        assert isinstance(q_function(EVEN_CAT, 0.3 + 0.1j), float)


class TestGaussianTerms:
    @pytest.mark.parametrize("t, g, kind", [
        pytest.param(t, g, kind, id=f"{t}-{g}" + ("-scattered" if kind == "scattered" else ""))
        for kind in ("ij", "scattered")
        for t, g in [(1.0, 1.0), (0.5, 1.0), (1.1025 - 1.0, 1.05)]])
    def test_conjugate_partners_are_exact_conjugates(self, t, g, kind):
        # the imaginary residue of a Hermitian sum is exactly zero, which is
        # why the field guard bounds rounding by the term peaks instead
        alpha = field_inputs(kind, 6.0, np.random.default_rng(11))
        values = [v for v, _ in gaussian_terms(p_cat_terms(SKEW_CAT), alpha, t, g)]
        np.testing.assert_array_equal(values[3], np.conj(values[2]))

    @pytest.mark.parametrize("kind", ["points", "ij"])
    def test_peak_is_largest_modulus(self, kind):
        alpha = (np.array([0.0, 1.0 - 0.5j, 2.0 + 1.0j, -3.0j]) if kind == "points"
                 else field_inputs(kind, 4.0, None))
        for values, peak in gaussian_terms(p_cat_terms(SKEW_CAT), alpha, 0.3, 1.2):
            assert peak == pytest.approx(np.max(np.abs(values)), rel=1e-13)

    @pytest.mark.parametrize("kind", ["grid", "scattered"])
    def test_terms_are_one_term_sums(self, kind):
        # a diagonal term is its own conjugate partner, so on a grid it comes back real
        grid = Grid2D(-6.0, 6.5, -5.0, 5.5, 51, 43)
        alpha = grid if kind == "grid" else field_inputs(kind, 6.0, np.random.default_rng(5))
        rep = p_cat_terms(SKEW_CAT)
        terms = gaussian_terms(rep, alpha, 0.7, 1.3)
        for term, (values, peak) in zip(rep.terms, terms, strict=True):
            assert values.dtype == (float if term.is_diagonal and kind == "grid" else complex)
            total, peak_sum = _sum_terms(PRepresentation((term,)), alpha, 0.7, 1.3)
            assert_bitwise_equal(values, total)
            assert peak == peak_sum

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a1=COMPLEX_2, a2=COMPLEX_2, zeta=COMPLEX_2, row=st.sampled_from(["q", "p", "amp"]),
           width=st.floats(1.0, 3.0), gain=st.floats(1.2, 3.0),
           kind=st.sampled_from(["ij", "xy", "sheared", "scattered"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_expanded_reference(self, a1, a2, zeta, row, width, gain, kind, seed):
        try:
            spec = CatStateSpec(a1, a2, zeta)
        except ValueError:
            reject()
        assume(spec.norm_A <= 5.0)
        rep = p_cat_terms(spec)
        need = max(min_safe_sigma(c) for term in rep.terms
                   for c in (term.center_r, term.center_i))
        # below sigma ~ 0.1 the reference's expanded exponent can lose more
        # than 1e-13 of the peak sum to cancellation (up to 2e-12 over 200
        # random specs near min_safe_sigma); test_accurate_at_min_safe_sigma
        # checks the factored form there
        sigma = max(need, 0.1) * width
        t, g = {"q": (1.0, 1.0), "p": (2.0 * sigma * sigma, 1.0),
                "amp": (gain * gain - 1.0, gain)}[row]
        half = g * max(abs(a1), abs(a2)) + 6.0 * max(1.0, math.sqrt(t / 2.0))
        alpha = field_inputs(kind, half, np.random.default_rng(seed))
        got = list(gaussian_terms(rep, alpha, t, g))
        want = list(reference_gaussian_terms(rep, alpha, t, g))
        assert len(got) == len(want)
        peaks = sum(peak for _, peak in want)
        assert math.isfinite(peaks)
        for (values, peak), (values_ref, peak_ref) in zip(got, want):
            assert values.shape == alpha.shape
            assert np.max(np.abs(values - values_ref)) <= 1e-13 * peaks
            assert peak == pytest.approx(peak_ref, rel=1e-13)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("spec", [EVEN_CAT, SKEW_CAT,
                                      CatStateSpec(2.0 + 1.0j, -1.5 - 0.5j, 0.7j)])
    def test_accurate_at_min_safe_sigma(self, spec):
        # at the narrowest regularized P whose terms stay finite (both axes'
        # growth within e^700) the factored form still matches a long-double
        # evaluation of -((x - c_r)^2 + (y - c_i)^2) / t to 1e-13 of the peaks
        rep = p_cat_terms(spec)
        reach = max(math.hypot(np.imag(term.center_r), np.imag(term.center_i))
                    for term in rep.terms)
        sigma = min_safe_sigma(1j * reach)
        t = 2.0 * sigma * sigma
        gx, gy = alpha_grid(half=8.0, n=81).meshgrid()
        x, y = gx.astype(np.longdouble), gy.astype(np.longdouble)
        got = list(gaussian_terms(rep, gx + 1j * gy, t))
        peaks = sum(peak for _, peak in got)
        assert math.isfinite(peaks)
        for term, (values, _) in zip(rep.terms, got):
            cr, ci = complex(term.center_r), complex(term.center_i)
            u, v = x - cr.real, y - ci.real
            re = (cr.imag ** 2 + ci.imag ** 2 - u * u - v * v) / t
            im = 2 * (u * cr.imag + v * ci.imag) / t
            want = complex(term.weight / (math.pi * t)) * np.exp(re) * (np.cos(im) + 1j * np.sin(im))
            assert np.max(np.abs(values - want)) <= 1e-13 * peaks


class TestSumTerms:
    """_sum_terms on tensor grids: one real product of the terms' axis
    factors, and a second for the imaginary part unless it is exactly 0."""

    @settings(max_examples=60)
    @given(a1=COMPLEX_2, a2=COMPLEX_2, zeta=COMPLEX_2, row=st.sampled_from(["q", "p", "amp"]),
           gain=st.floats(1.2, 3.0), drop=st.sampled_from([None, 0, 2, 3]),
           nx=st.integers(2, 60), ny=st.integers(2, 60), square=st.booleans())
    def test_matches_sum_of_terms(self, a1, a2, zeta, row, gain, drop, nx, ny, square):
        try:
            spec = CatStateSpec(a1, a2, zeta)
        except ValueError:
            reject()
        assume(spec.norm_A <= 5.0)
        terms = p_cat_terms(spec).terms
        # dropping one of the off-diagonal partners leaves a rep that is not Hermitian
        rep = PRepresentation(terms if drop is None else terms[:drop] + terms[drop + 1:])
        need = max(min_safe_sigma(c) for term in rep.terms
                   for c in (term.center_r, term.center_i))
        sigma = max(need, 0.1) * 1.5
        t, g = {"q": (1.0, 1.0), "p": (2.0 * sigma * sigma, 1.0),
                "amp": (gain * gain - 1.0, gain)}[row]
        half = g * max(abs(a1), abs(a2)) + 6.0 * max(1.0, math.sqrt(t / 2.0))
        grid = Grid2D(-half, half, -0.8 * half, 0.9 * half, nx, nx if square else ny)
        alpha = meshgrid_plane(grid)
        total, peaks = _sum_terms(rep, alpha, t, g)
        terms = list(gaussian_terms(rep, alpha, t, g))
        want = sum(values for values, _ in terms)
        assert total.shape == alpha.shape and peaks == sum(peak for _, peak in terms)
        bound = 4.0 * np.finfo(float).eps * peaks
        assert np.max(np.abs(total.real - want.real)) <= bound
        assert np.max(np.abs(np.imag(total) - want.imag)) <= bound

    @pytest.mark.parametrize("spec", [EVEN_CAT, SKEW_CAT, CatStateSpec(2.0 + 1.0j, -1.5 - 0.5j, 0.7j),
                                      CatStateSpec(0.8, -0.8, 0.0)])
    def test_cat_imaginary_part_is_exactly_zero(self, spec):
        # Q, amplified Q and P at gain 2, regularized P at sigma 0.6: the
        # imaginary product is skipped, so the convolution runs one real chain
        rep = p_cat_terms(spec)
        alpha = meshgrid_plane(Grid2D(-7.0, 7.0, -6.0, 6.5, 61, 47))
        for t, g in [(1.0, 1.0), (4.0, 2.0), (3.0, 2.0), (0.72, 1.0)]:
            assert _sum_terms(rep, alpha, t, g)[0].dtype == float
        assert not p_regularized_eval(rep, 0.6, alpha).imag.any()

    @pytest.mark.parametrize("edit", ["unpaired", "ulp"])
    def test_imaginary_part_of_terms_without_exact_partner(self, edit):
        # one off-diagonal term alone, or its partner's kappa one ulp away:
        # the second product computes the imaginary part
        terms = p_cat_terms(SKEW_CAT).terms
        last = terms[3]
        if edit == "ulp":
            kappa = complex(np.nextafter(last.kappa.real, np.inf), last.kappa.imag)
            last = PTerm(kappa=kappa, beta=last.beta, gamma=last.gamma)
        rep = PRepresentation(terms[:3] if edit == "unpaired" else terms[:3] + (last,))
        alpha = meshgrid_plane(Grid2D(-6.0, 6.0, -5.0, 5.5, 51, 43))
        total, peaks = _sum_terms(rep, alpha, 1.0)
        want = sum(values for values, _ in gaussian_terms(rep, alpha, 1.0))
        assert total.dtype == complex and total.imag.any()
        assert np.max(np.abs(total.imag - want.imag)) <= 4.0 * np.finfo(float).eps * peaks

    def test_residue_guard_trips_without_partner(self):
        rep = PRepresentation(p_cat_terms(SKEW_CAT).terms[:3])
        alpha = meshgrid_plane(Grid2D(-6.0, 6.0, -5.0, 5.5, 51, 43))
        with pytest.raises(FloatingPointError, match=r"Q-like: .*imaginary residue [1-9]"):
            _hermitian_sum(rep, alpha, 1.0, 1.0, "Q-like")


class TestQFourierTerm:
    def test_zero_frequency_is_term_weight(self):
        for term in p_cat_terms(SKEW_CAT).terms:
            assert q_fourier_term(term, 0.0) == pytest.approx(term.weight)

    @pytest.mark.parametrize("xi", [0.7, -1.2j, 0.5 + 0.5j])
    def test_matches_brute_force_transform(self, xi):
        # oracle: 2D trapezoid of the term's Q contribution
        # (kappa/pi) <alpha|gamma> <beta|alpha> against e^{-i(xi_r a_r + xi_i a_i)}
        term = p_cat_terms(EVEN_CAT).terms[2]
        grid = alpha_grid(half=7.0, n=281)
        gx, gy = grid.meshgrid()
        a = gx + 1j * gy
        q_term = (term.kappa / math.pi) * coherent_overlap(a, term.gamma) \
            * coherent_overlap(term.beta, a)
        grid.values = q_term * np.exp(-1j * (xi.real * gx + xi.imag * gy))
        assert q_fourier_term(term, xi) == pytest.approx(grid.integrate(), abs=1e-7)

    def test_gaussian_envelope_in_frequency(self):
        term = PTerm(kappa=1.0, beta=0.0, gamma=0.0)
        for r in (0.0, 1.0, 2.0):
            assert q_fourier_term(term, r) == pytest.approx(math.exp(-r * r / 4.0))


class TestPRegularized:
    def test_diagonal_peak_height(self):
        rep = PRepresentation(terms=(PTerm(kappa=1.0, beta=0.7, gamma=0.7),))
        sigma = 0.3
        want = 1.0 / (2.0 * math.pi * sigma * sigma)
        assert p_regularized_eval(rep, sigma, 0.7) == pytest.approx(want)

    def test_plane_integral_is_trace(self):
        grid = alpha_grid(half=7.0, n=281)
        field = p_representation_grid(p_cat_terms(EVEN_CAT), 0.5, grid)
        total = field.integrate()
        assert total.real == pytest.approx(1.0, abs=1e-8)
        assert abs(total.imag) < 1e-10

    def test_single_off_diagonal_term_is_complex(self):
        # the conjugate pair sums to a real field; one member alone does not
        rep = p_cat_terms(EVEN_CAT)
        one = PRepresentation(terms=rep.terms[2:3])
        pair = PRepresentation(terms=rep.terms[2:])
        assert abs(p_regularized_eval(one, 0.4, 0.5 + 0.5j).imag) > 1e-6
        assert abs(p_regularized_eval(pair, 0.4, 0.5 + 0.5j).imag) < 1e-15


GAIN_2 = AmplifierGain(2.0)
# each evaluator's outputs, as a list
EVALUATORS = {
    "q_function": lambda a: [q_function(SKEW_CAT, a)],
    "amplify_q": lambda a: [amplify_q(SKEW_CAT, GAIN_2, a)],
    "amplified_p": lambda a: [amplified_p(SKEW_CAT, GAIN_2, a)],
    "amplified_p_terms": lambda a: amplified_p_terms(SKEW_CAT, GAIN_2, a),
    "p_regularized_eval": lambda a: [p_regularized_eval(p_cat_terms(SKEW_CAT), 0.6, a)],
    # three terms without exact partners: a complex sum, from both products
    "p_regularized_eval-unpaired": lambda a: [p_regularized_eval(
        PRepresentation(p_cat_terms(SKEW_CAT).terms[:3]), 0.6, a)],
    "gaussian_terms": lambda a: [v for pair in gaussian_terms(p_cat_terms(SKEW_CAT), a, 0.7, 1.3)
                                 for v in pair],
}


class TestGridRoute:
    @pytest.mark.parametrize("name", EVALUATORS)
    def test_grid_gives_the_plane_result(self, name):
        grid = Grid2D(-6.0, 6.5, -5.0, 5.5, 51, 43)
        got, want = EVALUATORS[name](grid), EVALUATORS[name](meshgrid_plane(grid))
        for g, w in zip(got, want, strict=True):
            assert_bitwise_equal(g, w)

    @pytest.mark.parametrize("name", EVALUATORS)
    def test_cells_beyond_square_overflow_are_zero(self, name):
        # beyond |u| ~ 1.3e154 a term's squares overflow to inf -/+ inf i; scaled on
        # their real view they give 0, not NaN, also where every node of an axis overflows
        wide = EVALUATORS[name](Grid2D(-8e307, 8e307, -8e307, 8e307, 3, 3))
        for got, want in zip(wide, EVALUATORS[name](np.zeros((1, 1))), strict=True):
            got = np.asarray(got)
            assert np.isfinite(got).all() and np.count_nonzero(got) <= 1
            centre = got[1, 1] if got.ndim else got
            assert complex(centre) == pytest.approx(complex(np.ravel(want)[0]), rel=1e-14)
        for alpha in (Grid2D(1e200, 1e300, 1e200, 1e300, 3, 3),
                      Grid2D(-1.0, 1.0, 1e200, 1e300, 3, 3),
                      np.array([8e307 + 8e307j, -1e300 + 0.5j, 1e200 - 1e200j])):
            for got in EVALUATORS[name](alpha):
                assert np.isfinite(got).all() and not np.any(got)

    @pytest.mark.parametrize("name", EVALUATORS)
    def test_xp_grid_is_refused(self, name):
        with pytest.raises(ValueError, match="alpha-plane grid"):
            EVALUATORS[name](Grid2D(-6.0, 6.0, -6.0, 6.0, 21, 21, axis_semantics="xp"))


class TestGrid2D:

    def test_integrate_constant(self):
        grid = Grid2D(-1.0, 2.0, 0.0, 1.0, 31, 21)
        grid.values[:] = 2.0
        assert grid.integrate() == pytest.approx(6.0)

    def test_csv_roundtrip(self):
        grid = Grid2D(-1.0, 1.0, -2.0, 2.0, 5, 7, axis_semantics="xp")
        rng = np.random.default_rng(7)
        grid.values = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        buf = io.StringIO()
        grid.to_csv(buf, meta=["field = test"])
        back = Grid2D.from_csv(io.StringIO(buf.getvalue()), axis_semantics="xp")
        assert back.nx == 5 and back.ny == 7
        assert back.xs == pytest.approx(grid.xs)
        np.testing.assert_allclose(back.values, grid.values, rtol=0, atol=0)

    @pytest.mark.parametrize("grid", [Grid2D(1.0, 1.0000000000000004, 0.0, 1.0, 9, 9),
                                      Grid2D(0.0, 1.0, 0.0, 5e-324, 3, 3)],
                             ids=["9-x-nodes-across-2-ulps", "3-y-nodes-across-a-subnormal"])
    def test_csv_of_nodes_that_round_together_is_refused(self, grid, tmp_path):
        # its rows would read back as a smaller grid; nothing is opened or written
        path, buf = tmp_path / "grid.csv", io.StringIO()
        for target in (str(path), buf):
            with pytest.raises(ValueError, match="are not distinct"):
                grid.to_csv(target)
        assert not path.exists() and buf.getvalue() == ""

    def test_csv_missing_row_rejected(self):
        buf = io.StringIO()
        Grid2D(-1.0, 1.0, -1.0, 1.0, 3, 3).to_csv(buf)
        lines = buf.getvalue().splitlines()
        del lines[5]  # one interior point of the 3 x 3 grid
        with pytest.raises(ValueError, match="8 rows do not fill a 3 x 3 grid"):
            Grid2D.from_csv(io.StringIO("\n".join(lines)))

    def test_csv_duplicated_cell_rejected(self):
        buf = io.StringIO()
        Grid2D(-1.0, 1.0, -1.0, 1.0, 3, 3).to_csv(buf)
        lines = buf.getvalue().splitlines()
        lines[5] = lines[4]  # the row count still fills the 3 x 3 grid
        with pytest.raises(ValueError, match="9 rows do not fill a 3 x 3 grid"):
            Grid2D.from_csv(io.StringIO("\n".join(lines)))

    @pytest.mark.parametrize("text,match", [
        ("x,y,re,im\n", "0 rows do not fill a 0 x 0 grid"),
        ("# field = q\nx,y,re,im\n# integral = 0.0\n", "0 rows do not fill a 0 x 0 grid"),
        ("x,y,re,im\n0.0,0.0,1.0\n0.0,1.0,1.0\n1.0,0.0,1.0\n1.0,1.0,1.0\n", None),
        ("x,y,re,im\n0.0,0.0,1.0,0.0\n0.0,1.0,1.0,0.0,7.0\n", None),
        ("x,y,re,im\n0.0,0.0,1.0,0.0\n0.0,1.0,abc,0.0\n", None),
        ("x,y,re,im\n0.0,0.0,1.0,0.0\n0.0,1.0,,0.0\n", None),
        ("x,y,re,im\n" + "".join(f"{x},{y},1.0,0.0\n" for x in (0.0, 1.0, 3.0)
                                  for y in (0.0, 1.0)), "not the evenly spaced nodes"),
    ], ids=["header-only", "comments-only", "three-fields", "five-fields",
            "non-numeric", "empty-field", "non-uniform-x"])
    def test_csv_malformed_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            Grid2D.from_csv(io.StringIO(text))

    @given(csv_grids())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_csv_matches_per_cell_reference(self, grid):
        meta = ["field = q", "alpha1 = (1.5+0j)"]
        want = io.StringIO()
        reference_to_csv(grid, want, meta=meta)
        got = io.StringIO()
        grid.to_csv(got, meta=meta)
        assert got.getvalue() == want.getvalue()

        semantics = grid.axis_semantics
        ref = reference_from_csv(io.StringIO(want.getvalue()), axis_semantics=semantics)
        back = Grid2D.from_csv(io.StringIO(want.getvalue()), axis_semantics=semantics)
        assert back.values.tobytes() == ref.values.tobytes()  # signed zeros too
        assert np.array_equal(back.values, grid.values)
        axes = ("x_min", "x_max", "y_min", "y_max", "nx", "ny", "axis_semantics")
        assert [repr(getattr(back, a)) for a in axes] == [repr(getattr(ref, a)) for a in axes]

    def test_csv_read_memory_bounded(self, tmp_path):
        # a few float64 columns per cell, not Python objects per field (~190 B)
        n = 201
        grid = Grid2D(-5.0, 5.0, -4.0, 4.0, n, n)
        grid.values = np.random.default_rng(3).normal(size=(n, n)) * (1 - 2j)
        path = str(tmp_path / "grid.csv")
        grid.to_csv(path)
        tracemalloc.start()
        try:
            back = Grid2D.from_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.values, grid.values)
        assert peak < 120 * n * n

    def test_csv_write_memory_bounded_by_one_row(self):
        class Discard:
            def write(self, text):
                pass

        n = 401
        grid = Grid2D(-5.0, 5.0, -4.0, 4.0, n, n)
        grid.values = np.random.default_rng(4).normal(size=(n, n)) * (1 + 1j)
        tracemalloc.start()
        try:
            grid.to_csv(Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_json_roundtrip(self):
        grid = Grid2D(-3.0, 3.0, -3.0, 3.0, 4, 4)
        grid.values[1, 2] = 0.5 - 0.25j
        back = Grid2D.from_json(grid.to_json(meta={"note": "x"}))
        assert back.axis_semantics == "alpha"
        assert back.x_min == grid.x_min and back.ny == grid.ny
        np.testing.assert_array_equal(back.values, grid.values)

    @given(grid=json_grids(), meta=st.sampled_from(
        [None, {}, {"field": "q", "sigma": 0.5}, {"values": [[1.0, 2.0]]},
         {"note": 'a "values": [[1.0, 2.0]]', "nan": math.nan}]))
    @settings(max_examples=150)
    def test_json_matches_one_shot_dumps_and_reads_back_bitwise(self, grid, meta):
        want = reference_to_json(grid, meta)
        assert grid.to_json(meta) == want
        assert len(list(grid.json_chunks(meta))) == grid.nx + 2  # head, one per row, tail
        assert isinstance(loads_with_pairs(want, "values")["values"], np.ndarray)
        back = Grid2D.from_json(want)
        assert outcome(lambda _: back, want) == outcome(reference_from_json, want)
        np.testing.assert_array_equal(back.values, grid.values)  # NaN positions included
        zeros = grid.values == 0
        for part in ("real", "imag"):
            np.testing.assert_array_equal(np.signbit(getattr(back.values, part)[zeros]),
                                          np.signbit(getattr(grid.values, part)[zeros]))

    @pytest.mark.parametrize("text", REFUSED_JSON.values(), ids=REFUSED_JSON)
    def test_from_json_refuses_what_json_loads_refuses(self, text):
        want = outcome(reference_from_json, text)
        assert isinstance(want[0], type), "the reference reader accepts this text"
        assert outcome(Grid2D.from_json, text) == want

    @pytest.mark.parametrize("name", ACCEPTED_JSON)
    def test_from_json_reads_what_json_loads_reads(self, name):
        text = ACCEPTED_JSON[name]
        want = outcome(reference_from_json, text)
        assert not isinstance(want[0], type), want
        assert outcome(Grid2D.from_json, text) == want
        numpy_read = isinstance(loads_with_pairs(text, "values")["values"], np.ndarray)
        assert numpy_read == (name in NUMPY_READ_JSON)

    def test_from_json_refuses_a_bool_value(self):
        with pytest.raises(ValueError, match=r"not \[re, im\] number pairs"):
            Grid2D.from_json(REFUSED_JSON["bool"])

    def test_json_write_memory_bounded_by_one_row(self, tmp_path):
        n = 401
        grid = Grid2D(-5.0, 5.0, -4.0, 4.0, n, n)
        grid.values = np.random.default_rng(5).normal(size=(n, n)) * (1 - 1j)
        with open(tmp_path / "grid.json", "w") as out:
            tracemalloc.start()
            try:
                out.writelines(grid.json_chunks({"field": "test"}))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (tmp_path / "grid.json").read_text() == reference_to_json(grid, {"field": "test"})
        assert peak < 1e6

    def test_json_read_memory_below_three_texts(self):
        n = 401
        grid = Grid2D(-5.0, 5.0, -4.0, 4.0, n, n)
        grid.values = np.random.default_rng(6).normal(size=(n, n)) * (1 + 2j)
        text = grid.to_json()
        tracemalloc.start()
        try:
            back = Grid2D.from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.values.tobytes() == grid.values.tobytes()
        assert peak < 3 * len(text)

    def test_rejects_bad_semantics(self):
        with pytest.raises(ValueError, match="axis_semantics"):
            Grid2D(-1, 1, -1, 1, 3, 3, axis_semantics="polar")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            Grid2D(-1, 1, -1, 1, 3, 3, values=np.zeros((2, 2)))

    @pytest.mark.parametrize("bounds", [(6, -6, -6, 6), (-6, 6, 6, -6),
                                        (6, 6, -6, 6), (-6, 6, 2, 2)],
                             ids=["inverted-x", "inverted-y", "degenerate-x", "degenerate-y"])
    def test_rejects_inverted_or_degenerate_bounds(self, bounds):
        with pytest.raises(ValueError, match="x_min < x_max and y_min < y_max"):
            Grid2D(*bounds, 5, 5)

    def test_rejects_span_that_overflows(self):
        # each bound is finite, but their difference is not: linspace would make NaN nodes
        match = "spans between them must be finite"
        with pytest.raises(ValueError, match=match):
            Grid2D(-1e308, 1e308, -1.0, 1.0, 3, 3)
        data = json.loads(Grid2D(-1.0, 1.0, -1.0, 1.0, 3, 3).to_json())
        data["axes"].update(y_min=-1e308, y_max=1e308)
        with pytest.raises(ValueError, match=match):
            Grid2D.from_json(json.dumps(data))
        rows = [f"{x!r},{y!r},0.0,0.0\n" for x in (-1e308, 0.0, 1e308) for y in (-1.0, 1.0)]
        with pytest.raises(ValueError, match=match):
            Grid2D.from_csv(io.StringIO("x,y,re,im\n" + "".join(rows)))

    @pytest.mark.parametrize("field,value,match", [
        ("x_max", math.inf, "finite"), ("y_min", -math.inf, "finite"),
        ("x_min", math.nan, "finite"), ("nx", 3.0, "nx must be an integer"),
        ("ny", 1, "ny must be an integer"), ("nx", "3", "nx must be an integer")])
    def test_from_json_rejects_tampered_geometry(self, field, value, match):
        data = json.loads(Grid2D(-1.0, 1.0, -1.0, 1.0, 3, 3).to_json())
        (data if field in ("nx", "ny") else data["axes"])[field] = value
        with pytest.raises(ValueError, match=match):
            Grid2D.from_json(json.dumps(data))

    def test_opened_closes_paths_and_leaves_streams_open(self, tmp_path):
        buf = io.StringIO()
        with opened(buf, "w") as stream:
            assert stream is buf
        assert not buf.closed
        path = str(tmp_path / "grid.csv")
        with opened(path, "w") as stream:
            stream.write("x,y,re,im\n")
        assert stream.closed


class TestWignerFock:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_laguerre_closed_form(self, n):
        grid = Grid2D(-6.0, 6.0, -6.0, 6.0, 81, 81, axis_semantics="xp")
        # from n = 2 on, the +-6 window is inside the recommended reach
        with pytest.warns(UserWarning, match="grid extent") if n >= 2 else nullcontext():
            w = wigner_fock(n, grid)
        gx, gy = grid.meshgrid()
        r_sq = gx**2 + gy**2
        want = ((-1.0) ** n / math.pi) * np.exp(-r_sq) * eval_laguerre(n, 2.0 * r_sq)
        np.testing.assert_allclose(w.values.real, want, rtol=0, atol=1e-10)

    def test_momentum_marginal_is_position_density(self):
        # integrating W over p recovers |psi_n(x)|^2
        grid = Grid2D(-7.0, 7.0, -7.0, 7.0, 141, 141, axis_semantics="xp")
        w = wigner_fock(2, grid)
        dp = grid.dy
        marginal = np.trapezoid(w.values.real, dx=dp, axis=1)
        want = fock_wavefunction(2, grid.xs) ** 2
        np.testing.assert_allclose(marginal, want, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_cells_beyond_overflow_are_zero(self, n):
        # 2 (x^2 + p^2) overflows at |x| = 1e200, where the recurrence would
        # make NaN; those cells are 0, and the x = 0 cells those of a small grid
        big = wigner_fock(n, Grid2D(-1e200, 1e200, -10.0, 10.0, 3, 3, axis_semantics="xp"))
        small = wigner_fock(n, Grid2D(-10.0, 10.0, -10.0, 10.0, 3, 3, axis_semantics="xp"))
        assert not big.values[[0, 2]].any()
        assert_bitwise_equal(big.values[1], small.values[1])

    def test_rejects_alpha_grid(self):
        with pytest.raises(ValueError, match="XP"):
            wigner_fock(0, alpha_grid())

    def test_warns_on_small_grid(self):
        grid = Grid2D(-2.0, 2.0, -2.0, 2.0, 21, 21, axis_semantics="xp")
        with pytest.warns(UserWarning, match="extent"):
            wigner_fock(4, grid)

    # the library-sweep strata: n 0-3 at 401^2, 4-7 at 201^2, 8-10 at 101^2
    @pytest.mark.parametrize("n,nodes", [(n, 401) for n in range(4)]
                             + [(n, 201) for n in range(4, 8)]
                             + [(n, 101) for n in range(8, 11)])
    def test_matches_quadrature_reference(self, n, nodes):
        half = 2.0 * math.sqrt(n) + 6.0
        grid = Grid2D(-half, half, -half, half, nodes, nodes, axis_semantics="xp")
        w = wigner_fock(n, grid)
        np.testing.assert_allclose(w.values.real, reference_wigner_fock(n, grid).real,
                                   rtol=0, atol=1e-13)
        np.testing.assert_array_equal(w.values.imag, 0.0)

    @pytest.mark.parametrize("n,match", [(-1, "non-negative integer"),
                                         (1.5, "non-negative integer"),
                                         (65, "exceeds the guard")])
    def test_rejects_bad_n(self, n, match):
        grid = Grid2D(-6.0, 6.0, -6.0, 6.0, 21, 21, axis_semantics="xp")
        with pytest.raises(ValueError, match=match):
            wigner_fock(n, grid)

    def test_wigner_memory_bounded(self):
        n = 401
        grid = Grid2D(-9.5, 9.5, -9.5, 9.5, n, n, axis_semantics="xp")
        tracemalloc.start()
        try:
            wigner_fock(3, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * n * n


class TestConvolutionTransforms:
    def test_coherent_projector_wigner_closed_form(self):
        # P of width sigma centered at b convolves to a Gaussian of
        # per-axis variance sigma^2 + 1/4
        b, sigma = 1.0, 0.5
        rep = PRepresentation(terms=(PTerm(kappa=1.0, beta=b, gamma=b),))
        grid = alpha_grid(half=6.0, n=161)
        w = wigner_from_p(p_representation_grid(rep, sigma, grid), grid)
        gx, gy = grid.meshgrid()
        s_sq = sigma * sigma + 0.25
        want = np.exp(-((gx - b) ** 2 + gy**2) / (2.0 * s_sq)) / (2.0 * math.pi * s_sq)
        np.testing.assert_allclose(w.values.real, want, rtol=0, atol=1e-9)
        assert np.max(np.abs(w.values.imag)) < 1e-12

    def test_q_from_wigner_coherent(self):
        b = 0.8
        grid = alpha_grid(half=6.0, n=161)
        gx, gy = grid.meshgrid()
        w = grid.like(values=(2.0 / math.pi) * np.exp(-2.0 * ((gx - b) ** 2 + gy**2)))
        q = q_from_wigner(w, grid)
        want = np.exp(-((gx - b) ** 2 + gy**2)) / math.pi
        np.testing.assert_allclose(q.values.real, want, rtol=0, atol=1e-9)

    # square grids share one axis kernel; the others build ky on its own
    @pytest.mark.parametrize("src,out,part", [
        (Grid2D(-3.0, 3.0, -3.0, 3.0, 61, 61), Grid2D(-2.0, 2.0, -2.0, 2.0, 11, 11), 1j),
        (Grid2D(-3.0, 3.0, -3.0, 3.0, 61, 61), Grid2D(-2.0, 2.0, -2.0, 2.0, 11, 11), 0.0),
        (Grid2D(-3.0, 2.5, -2.0, 2.5, 41, 33), Grid2D(-2.0, 2.0, -1.5, 1.0, 9, 7), 1j),
        (Grid2D(-3.0, 2.5, -2.0, 2.5, 41, 33), Grid2D(-2.0, 2.0, -1.5, 1.0, 9, 7), 0.0),
        # equal sizes, but the x and y axes differ on one side
        (Grid2D(-3.0, 3.0, -3.0, 3.0, 31, 31), Grid2D(-2.0, 2.0, -1.0, 1.0, 11, 11), 1j),
        (Grid2D(-3.0, 3.0, -2.0, 2.0, 31, 31), Grid2D(-2.0, 2.0, -2.0, 2.0, 11, 11), 0.0)],
        ids=["complex-square", "real-square", "complex-non-square", "real-non-square",
             "complex-unequal-out-axes", "real-unequal-src-axes"])
    def test_direct_method_agrees_with_separable(self, src, out, part):
        rng = np.random.default_rng(31)
        shape = src.values.shape
        src = src.like(values=rng.normal(size=shape) + part * rng.normal(size=shape))
        a = _gaussian_convolve(src, out, method="separable")
        b = _gaussian_convolve(src, out, method="direct")
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-11)
        if not part:
            assert not a.values.imag.any()

    # (source, output, complex field?, factors per x and y kernel): half-spans 2..16
    # at 61..801 nodes; 2.9 takes an odd number of points, the middle one on node 0;
    # at [-10, 10] m = 172, so m (n + n) < n^2 only at 401 nodes
    @pytest.mark.parametrize("src,out,part,factors", [
        (Grid2D(-2.0, 2.0, -2.0, 2.0, 101, 101), None, 0.0, (2, 2)),
        (Grid2D(-2.9, 2.9, -2.9, 2.9, 201, 201), None, 1j, (2, 2)),
        (Grid2D(-4.0, 4.0, -4.0, 4.0, 61, 61), None, 1j, (1, 1)),
        (Grid2D(-4.0, 4.0, -4.0, 4.0, 201, 201), None, 0.0, (2, 2)),
        (Grid2D(-6.5, 6.5, -6.5, 6.5, 401, 401), None, 1j, (2, 2)),
        (Grid2D(-8.0, 8.0, -8.0, 8.0, 401, 401), None, 0.0, (2, 2)),
        (Grid2D(-10.0, 10.0, -10.0, 10.0, 401, 401), None, 1j, (2, 2)),
        (Grid2D(-10.0, 10.0, -10.0, 10.0, 101, 101), None, 0.0, (1, 1)),
        (Grid2D(-12.0, 12.0, -12.0, 12.0, 801, 801), None, 0.0, (2, 2)),
        (Grid2D(-16.0, 16.0, -16.0, 16.0, 801, 801), None, 1j, (2, 2)),
        (Grid2D(-12.0, 12.0, -3.0, 3.0, 801, 61), None, 1j, (2, 1)),
        (Grid2D(-7.0, 5.0, -10.0, 10.0, 301, 401), None, 0.0, (2, 2)),
        (Grid2D(-12.0, 12.0, -12.0, 12.0, 321, 321), Grid2D(-6.0, 6.0, -6.0, 6.0, 161, 161),
         0.0, (1, 1)),
        (Grid2D(-12.0, 12.0, -12.0, 12.0, 801, 801), Grid2D(-6.0, 6.0, -6.0, 6.0, 401, 401),
         1j, (2, 2)),
        (Grid2D(-8.0, 8.0, -8.0, 8.0, 401, 401), Grid2D(-9.0, 3.0, -2.0, 2.0, 301, 101),
         1j, (2, 1))],
        ids=["2-101", "2.9-201-odd-points", "4-61", "4-201", "6.5-401", "8-401", "10-401",
             "10-101", "12-801", "16-801", "non-square-801x61", "non-square-301x401",
             "verify-321-to-161", "801-to-401", "401-to-301x101"])
    def test_factored_kernels_agree_with_exact(self, src, out, part, factors):
        # within 4e-15 of the output maximum of today's exact product; the field
        # is a cat's Q spread over the grid, turned by a phase when complex
        out = out or src
        reach = min(src.x_max - src.x_min, src.y_max - src.y_min) / 5.0
        gx, gy = src.meshgrid()
        q = q_function(CatStateSpec(reach + 0.5j * reach, -reach, 0.8 - 0.3j), src)
        src = src.like(values=q * np.exp(part * (gx + 2.0 * gy)))
        axes = [(o, s, trapezoid_weights(len(s), d))
                for o, s, d in ((out.xs, src.xs, src.dx), (out.ys, src.ys, src.dy))]
        assert tuple(len(_axis_kernel(*axis)) for axis in axes) == factors
        kx, ky = (np.exp(-2.0 * np.subtract.outer(o, s) ** 2) * w for o, s, w in axes)
        want = (2.0 / math.pi) * (kx @ src.values @ ky.T)
        got = _gaussian_convolve(src, out).values
        assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))
        assert bool(part) == bool(got.imag.any())

    @pytest.mark.parametrize("half", [2.0, 2.9, 4.0, 6.5, 10.0, 12.0, 16.0, 24.0, 32.0])
    def test_factored_kernel_bound(self, half):
        # m = ceil(16 L) + 12 points keep A @ B within 2.5e-15 of the weighted kernel's peak
        nodes = np.linspace(-half, half, 1601)
        weights = trapezoid_weights(len(nodes), nodes[1] - nodes[0])
        a, b = _axis_kernel(nodes, nodes, weights)
        assert a.shape[1] == math.ceil(16.0 * half) + 12
        exact = np.exp(-2.0 * np.subtract.outer(nodes, nodes) ** 2) * weights
        assert np.max(np.abs(a @ b - exact)) <= 2.5e-15 * weights.max()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(a1=complex_within(2.0), a2=complex_within(2.0), zeta=complex_within(2.0))
    def test_cat_regularized_p_is_exactly_real(self, a1, a2, zeta):
        # the premise of the real-only chain: conjugate partner terms cancel
        # each other's imaginary parts exactly
        try:
            spec = CatStateSpec(a1, a2, zeta)
        except ValueError:
            reject()
        grid = alpha_grid(n=61)
        p = p_representation_grid(p_cat_terms(spec), 0.6, grid)
        assert not p.values.imag.any()
        assert not wigner_from_p(p, grid).values.imag.any()

    def test_nan_imaginary_cell_reaches_output(self):
        src = alpha_grid(n=21)
        src.values = np.ones(src.values.shape, dtype=complex)
        src.values[3, 4] = complex(1.0, math.nan)
        out = _gaussian_convolve(src, src).values
        assert np.isnan(out.imag).all()
        assert np.isfinite(out.real).all()

    def test_convolution_memory_bounded(self):
        # real factored kernels and products: the output, one real product and
        # the small factors; 2.5 planes with exact kernels, 5 with complex ones
        grid = alpha_grid(n=401)
        src = p_representation_grid(p_cat_terms(SKEW_CAT), 0.6, grid)
        tracemalloc.start()
        try:
            _gaussian_convolve(src, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.95 * src.values.nbytes

    def test_unknown_method_rejected(self):
        src = alpha_grid(n=11)
        with pytest.raises(ValueError, match="method"):
            _gaussian_convolve(src, src, method="fft")

    def test_transforms_take_only_grids(self):
        rep = PRepresentation(terms=(PTerm(kappa=1.0, beta=0.0, gamma=0.0),))
        grid = alpha_grid(n=41)
        with pytest.raises(TypeError):
            wigner_from_p(rep, grid, sigma=0.5)
        with pytest.raises(TypeError):
            q_from_wigner(grid, grid, method="direct")

    def test_aliasing_warning(self):
        rep = PRepresentation(terms=(PTerm(kappa=1.0, beta=0.0, gamma=0.0),))
        coarse = Grid2D(-6.0, 6.0, -6.0, 6.0, 31, 31)
        with pytest.warns(UserWarning, match="alias"):
            p_representation_grid(rep, 0.05, coarse)


class TestTransformChainOnCat:
    def test_q_via_p_then_wigner(self):
        # P (regularized) -> W -> Q approaches the analytic Q as sigma -> 0
        # with O(sigma^2) widening error.  Small amplitudes only: the
        # off-diagonal kernels grow like e^{(Im center)^2 / 2 sigma^2} and
        # their cancellation swamps double precision for separated components.
        spec = CatStateSpec(alpha1=0.5, alpha2=-0.5, zeta=1.0)
        wide = Grid2D(-9.0, 9.0, -9.0, 9.0, 361, 361)
        out = alpha_grid(half=4.0, n=81)
        gx, gy = out.meshgrid()
        want = q_function(spec, gx + 1j * gy)
        devs = []
        for sigma in (0.2, 0.1):
            w = wigner_from_p(p_representation_grid(p_cat_terms(spec), sigma, wide), wide)
            q = q_from_wigner(w, out)
            devs.append(np.max(np.abs(q.values.real - want)))
            assert np.max(np.abs(q.values.imag)) < 1e-10
        assert devs[1] < 0.01
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.2)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(r1=st.floats(0.0, 1.5), r2=st.floats(0.0, 1.5), t1=st.floats(0.0, 2 * math.pi),
           t2=st.floats(0.0, 2 * math.pi), zeta=COMPLEX_2, sigma=st.floats(0.3, 1.0))
    def test_width_closes_at_each_step(self, r1, r2, t1, t2, zeta, sigma):
        # the convolution takes a width-t term to width t + 1/2, so the
        # regularized P at sigma becomes the regularized P at sqrt(sigma^2 + 1/4)
        # (the Wigner function) and then at sqrt(sigma^2 + 1/2) (the Q-function)
        try:
            spec = CatStateSpec(r1 * np.exp(1j * t1), r2 * np.exp(1j * t2), zeta)
        except ValueError:
            reject()
        assume(spec.norm_A <= 5.0)
        rep = p_cat_terms(spec)
        assume(max(cancellation_factor(c, sigma) for term in rep.terms
                   for c in (term.center_r, term.center_i)) <= 1e3)
        pad = Grid2D(-9.0, 9.0, -9.0, 9.0, 361, 361)
        w = wigner_from_p(p_representation_grid(rep, sigma, pad), pad)
        inner = np.abs(pad.xs) <= 5.0  # the +-5 window of the padded grid
        want_w = p_regularized_eval(rep, math.sqrt(sigma * sigma + 0.25), meshgrid_plane(pad))
        np.testing.assert_allclose(w.values[np.ix_(inner, inner)],
                                   want_w[np.ix_(inner, inner)], rtol=0, atol=1e-10)
        out = alpha_grid(half=5.0, n=101)
        q = q_from_wigner(w, out)
        want_q = p_regularized_eval(rep, math.sqrt(sigma * sigma + 0.5), meshgrid_plane(out))
        np.testing.assert_allclose(q.values, want_q, rtol=0, atol=1e-10)
