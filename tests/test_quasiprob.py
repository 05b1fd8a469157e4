import io
import json
import math
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

from catphase.amplifier import AmplifierGain, amplified_p, amplify_q
from catphase.gendelta import cancellation_factor, min_safe_sigma
from catphase.numerics import trapezoid_weights
from catphase.quasiprob import Grid2D, PRepresentation, PTerm, _gaussian_convolve, \
    alpha_from_xp, fock_wavefunction, gaussian_terms, p_cat_terms, p_regularized_eval, \
    opened, p_representation_grid, q_fourier_term, q_from_wigner, q_function, wigner_fock, \
    wigner_from_p, xp_from_alpha
from catphase.states import CatStateSpec, cat_density_matrix, coherent_fock_coeffs, \
    coherent_overlap

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
        # each field summed by _sum_terms holds its complex sum and the term
        # being built, two planes, and never the term before that one
        gain = AmplifierGain(2.0)
        fields = [lambda a: q_function(SKEW_CAT, a), lambda a: amplify_q(SKEW_CAT, gain, a),
                  lambda a: amplified_p(SKEW_CAT, gain, a),
                  lambda a: p_regularized_eval(p_cat_terms(SKEW_CAT), 0.6, a)]
        alpha = alpha_grid(half=7.0, n=401).plane()
        for field in fields:
            tracemalloc.start()
            try:
                field(alpha)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * alpha.nbytes

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
        alpha = grid.plane()
        grid.values = q_function(spec, alpha)
        # Q is a square, so only rounding of its terms can take it below 0
        peaks = sum(peak for _, peak in gaussian_terms(p_cat_terms(spec), alpha, 1.0))
        assert grid.values.min() >= -np.finfo(float).eps * peaks
        assert grid.integrate().real == pytest.approx(1.0, abs=1e-6)

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


class TestGrid2D:
    def test_plane_is_the_meshgrid_sum(self):
        grid = Grid2D(-1.5, 2.0, -3.0, 0.5, 7, 5)
        gx, gy = grid.meshgrid()
        np.testing.assert_array_equal(grid.plane(), gx + 1j * gy)

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

    def test_direct_method_agrees_with_separable(self):
        rng = np.random.default_rng(31)
        src = Grid2D(-3.0, 3.0, -3.0, 3.0, 61, 61)
        src.values = rng.normal(size=(61, 61)) + 1j * rng.normal(size=(61, 61))
        out = Grid2D(-2.0, 2.0, -2.0, 2.0, 11, 11)
        a = _gaussian_convolve(src, out, method="separable")
        b = _gaussian_convolve(src, out, method="direct")
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-11)

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
        want_w = p_regularized_eval(rep, math.sqrt(sigma * sigma + 0.25), pad.plane())
        np.testing.assert_allclose(w.values[np.ix_(inner, inner)],
                                   want_w[np.ix_(inner, inner)], rtol=0, atol=1e-10)
        out = alpha_grid(half=5.0, n=101)
        q = q_from_wigner(w, out)
        want_q = p_regularized_eval(rep, math.sqrt(sigma * sigma + 0.5), out.plane())
        np.testing.assert_allclose(q.values, want_q, rtol=0, atol=1e-10)
