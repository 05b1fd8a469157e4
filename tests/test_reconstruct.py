import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catphase.gendelta import cancellation_factor, delta_kernel, sifting_axis
from catphase.numerics import QuadratureSpec, gaussian_moment_integral, log_factorial, \
    trapezoid_weights
from catphase.quasiprob import PRepresentation, PTerm, _hermitian_sum, p_cat_terms
from catphase.reconstruct import NUMERIC_AMPLIFICATION_GUARD, NUMERIC_MOMENT_ORDER_MAX, \
    _axis_moments, _binomial_table, _term_factors, reconstruct_rho, \
    reconstruct_rho_numeric, rho_from_pterm, roundtrip_report
from catphase.states import CatStateSpec, FockDensityMatrix, _coherent_column, \
    cat_density_matrix, coherent_fock_coeffs, recommended_n_max


def polar(r_min, r_max):
    return st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
                     st.floats(r_min, r_max), st.floats(-math.pi, math.pi))


def reference_reconstruct_rho(rep, n_max):
    """The per-term oracle for reconstruct_rho: each term kappa |gamma><beta|
    built as its own outer product and added in order."""
    total = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for term in rep.terms:
        col = _coherent_column(complex(term.gamma), n_max)
        row = _coherent_column(complex(term.beta).conjugate(), n_max)
        total = total + term.kappa * np.outer(col, row)
    return FockDensityMatrix(n_max=n_max, entries=total)


def reference_reconstruct_numeric(rep, sigma, n_max, quad):
    """The per-node oracle for reconstruct_rho_numeric: the real-part axis
    is sifted first, then the imaginary-part axis, both windows from one
    sifting_axis call, summed one real-part node at a time so memory stays
    (n_max + 1) x node_count."""
    if n_max > NUMERIC_MOMENT_ORDER_MAX:
        warnings.warn(
            f"numeric path is only certified for j + k <= {NUMERIC_MOMENT_ORDER_MAX}; "
            f"higher-order entries of n_max = {n_max} carry larger quadrature error",
            stacklevel=2)
    factor = max(cancellation_factor(c, sigma)
                 for t in rep.terms for c in (t.center_r, t.center_i))
    if factor > NUMERIC_AMPLIFICATION_GUARD:
        raise OverflowError(
            f"regularization too small: cancellation factor {factor:.3e} exceeds "
            f"{NUMERIC_AMPLIFICATION_GUARD:.0e} for sigma = {sigma}")

    n = np.arange(n_max + 1)
    inv_sqrt_fact = np.exp(-0.5 * np.array([log_factorial(k) for k in n]))
    total = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for term in rep.terms:
        (xr, xi), (wr, wi) = sifting_axis([term.center_r, term.center_i], sigma, quad)
        # coherent-projector kernel e^{-x^2} e^{-y^2} (x+iy)^j (x-iy)^k / sqrt(j!k!)
        wr = wr * np.exp(-xr * xr)
        wi = wi * np.exp(-xi * xi)
        g = np.zeros_like(total)
        for x, w in zip(xr, wr):
            u_pow = np.vander(x + 1j * xi, n.size, increasing=True)  # (x+iy)^j
            g += w * ((u_pow.T * wi) @ u_pow.conj())
        total = total + term.weight * g * np.outer(inv_sqrt_fact, inv_sqrt_fact)
    return FockDensityMatrix(n_max=n_max, entries=total)


def benchmark_axes(spec):
    """The sifting centres, width and window the benchmark gives a cat."""
    rep = p_cat_terms(spec)
    worst = max(max(abs(np.imag(t.center_r)), abs(np.imag(t.center_i))) for t in rep.terms)
    sigma = max(0.2, worst / math.sqrt(2.0 * math.log(1e6)))
    centers = np.array([c for t in rep.terms for c in (t.center_r, t.center_i)], dtype=complex)
    return centers, sigma, 10.0 * sigma


@st.composite
def perfbench_like_cats(draw):
    """Cats drawn as the benchmark draws them: moduli in 0.5..4, roughly
    opposite amplitudes, |zeta| in 0.5..1.5."""
    r1, r2 = draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 4.0))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    phi = theta + math.pi + draw(st.floats(-0.5, 0.5))
    rho, psi = draw(st.floats(0.5, 1.5)), draw(st.floats(0.0, 2.0 * math.pi))
    return CatStateSpec(r1 * complex(math.cos(theta), math.sin(theta)),
                        r2 * complex(math.cos(phi), math.sin(phi)),
                        rho * complex(math.cos(psi), math.sin(psi)))


SPECS = [
    CatStateSpec(alpha1=2.0, alpha2=-2.0, zeta=1.0),
    CatStateSpec(alpha1=1.5, alpha2=-1.5, zeta=1.0j),
    CatStateSpec(alpha1=1.0 + 0.5j, alpha2=-1.0 + 0.3j, zeta=0.6 - 0.4j),
]


class TestSingleTermReconstruction:
    def test_diagonal_is_coherent_projector(self):
        beta = 0.8 - 0.3j
        got = rho_from_pterm(PTerm(kappa=1.0, beta=beta, gamma=beta), 20).entries
        c = coherent_fock_coeffs(beta, 20)
        np.testing.assert_allclose(got, np.outer(c, np.conj(c)), rtol=0, atol=1e-14)

    def test_vacuum_entry_of_plain_coherent_state(self):
        beta = 1.3
        got = rho_from_pterm(PTerm(kappa=1.0, beta=beta, gamma=beta), 5).entries
        assert got[0, 0] == pytest.approx(math.exp(-beta * beta))

    def test_off_diagonal_bra_and_ket_amplitudes_differ(self):
        # kappa |gamma><beta|: the first column follows gamma, the first
        # row follows conj(beta)
        beta, gamma = 1.0, -1.0
        got = rho_from_pterm(PTerm(kappa=1.0, beta=beta, gamma=gamma), 6).entries
        col_ratio = got[1:, 0] / got[:-1, 0]
        row_ratio = got[0, 1:] / got[0, :-1]
        n = np.arange(1, 7)
        np.testing.assert_allclose(col_ratio, gamma / np.sqrt(n), rtol=1e-12)
        np.testing.assert_allclose(row_ratio, np.conj(beta) / np.sqrt(n), rtol=1e-12)

    def test_trace_of_term_is_weight(self):
        t = PTerm(kappa=0.7, beta=0.6 + 0.4j, gamma=-0.2j)
        tr = complex(np.trace(rho_from_pterm(t, 40).entries))
        assert tr == pytest.approx(t.weight, abs=1e-12)

    @pytest.mark.parametrize("a", [38.5, 39.0, 45.0])
    def test_coherent_projector_has_unit_trace_at_large_amplitude(self, a):
        # e^{-|a|^2/2} alone is subnormal or zero here; the column never forms it
        rho = rho_from_pterm(PTerm(kappa=1.0, beta=a, gamma=a), recommended_n_max(a))
        assert abs(rho.trace() - 1.0) <= 1e-9

    def test_scaling_in_kappa_is_linear(self):
        base = rho_from_pterm(PTerm(kappa=1.0, beta=0.5, gamma=-0.5j), 8).entries
        scaled = rho_from_pterm(PTerm(kappa=2.0 - 1.0j, beta=0.5, gamma=-0.5j), 8).entries
        np.testing.assert_allclose(scaled, (2.0 - 1.0j) * base, rtol=1e-14)


class TestFullReconstruction:
    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_direct_density_matrix(self, spec):
        rep = p_cat_terms(spec)
        got = reconstruct_rho(rep, 30).entries
        want = cat_density_matrix(spec, 30).entries
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("spec", SPECS)
    def test_hermitian_with_unit_trace(self, spec):
        rho = reconstruct_rho(p_cat_terms(spec), 30)
        assert rho.hermiticity_defect() < 1e-14
        assert rho.trace() == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a1=polar(0.0, 6.0), a2=polar(0.0, 6.0), zeta=polar(0.2, 2.0))
    def test_density_matrix_at_recommended_n_max(self, a1, a2, zeta):
        assume(abs(a1 - a2) >= 0.3)
        spec = CatStateSpec(a1, a2, zeta)
        rho = reconstruct_rho(p_cat_terms(spec), recommended_n_max(spec))
        assert abs(rho.trace() - 1.0) <= 1e-9
        assert rho.hermiticity_defect() < 1e-14

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a1=polar(0.0, 6.0), a2=polar(0.0, 6.0), zeta=polar(0.2, 2.0))
    def test_product_matches_per_term_sum(self, a1, a2, zeta):
        # the one product of the factors sums the four terms in another order
        # than the oracle does, so the two differ by rounding only
        assume(abs(a1 - a2) >= 0.3)
        spec = CatStateSpec(a1, a2, zeta)
        rep, n_max = p_cat_terms(spec), recommended_n_max(spec)
        got = reconstruct_rho(rep, n_max).entries
        want = reference_reconstruct_rho(rep, n_max).entries
        assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("reconstruct", [
        lambda rep: reconstruct_rho(rep, 3),
        lambda rep: reconstruct_rho_numeric(rep, 0.4, 3, QuadratureSpec(0.0, 3.0, 101))],
        ids=["closed-form", "numeric"])
    def test_empty_representation_reconstructs_to_zero(self, reconstruct):
        rho = reconstruct(PRepresentation(()))
        np.testing.assert_array_equal(rho.entries, np.zeros((4, 4)))


class TestNumericReconstruction:
    @pytest.mark.parametrize("rep", [PRepresentation(()),
                                     p_cat_terms(CatStateSpec(1.0, -1.0, 1.0))],
                             ids=["empty", "cat"])
    @pytest.mark.parametrize("sigma", [-1.0, 0.0, math.nan])
    def test_sigma_refused_with_or_without_terms(self, rep, sigma):
        # an empty representation sifts nothing, so sigma is checked before the terms
        with pytest.raises(ValueError, match="sigma must be positive"):
            reconstruct_rho_numeric(rep, sigma, 2, QuadratureSpec(0.0, 3.0, 11))

    # node spacing sigma / 10; the windows reach 10 sigma, 14 for the widest kernels
    @pytest.mark.parametrize("amplitude, sigma, halfwidth", [
        (0.8, 0.2, 2.0), (0.8, 0.3, 3.0), (1.5, 0.6, 6.0), (2.5, 1.0, 14.0)])
    def test_husimi_function_is_the_smoothed_cats(self, amplitude, sigma, halfwidth):
        # an oracle independent of the sifting: the Husimi function
        # e^{-|a|^2} / pi sum rho_jk conj(a)^j a^k / sqrt(j! k!) of the matrix
        # built from P smoothed to width sigma is the cat's Q-function smoothed
        # the same way, the width-(1 + 2 sigma^2) Gaussian of every term
        rep = p_cat_terms(CatStateSpec(amplitude, -amplitude, 1.0))
        quad = QuadratureSpec(0.0, halfwidth, round(20 * halfwidth / sigma) + 1)
        with pytest.warns(UserWarning, match="certified"):
            rho = reconstruct_rho_numeric(rep, sigma, 40, quad).entries
        a = np.array([0.0, 0.5 + 0.5j, -1.2 + 0.3j, 2.0 - 1.0j, -0.4 - 2.1j, 3.0, 2.1j])
        inv_sqrt_fact = np.exp(-0.5 * np.array([log_factorial(k) for k in range(41)]))
        v = a[:, None] ** np.arange(41) * inv_sqrt_fact
        husimi = np.exp(-np.abs(a) ** 2) / math.pi * np.einsum("pj,jk,pk->p", v.conj(), rho, v)
        want = _hermitian_sum(rep, a, 1.0 + 2.0 * sigma * sigma, 1.0, "smoothed Q")
        assert np.max(np.abs(husimi - want)) <= 2e-13

    def test_diagonal_term_converges(self):
        rep = PRepresentation(terms=(PTerm(kappa=1.0, beta=0.7, gamma=0.7),))
        quad = QuadratureSpec(center=0.0, halfwidth=0.5, node_count=1001)
        got = reconstruct_rho_numeric(rep, 0.02, 4, quad).entries
        want = rho_from_pterm(rep.terms[0], 4).entries
        assert np.max(np.abs(got - want)) < 1e-3

    def test_off_diagonal_error_shrinks_quadratically(self):
        rep = PRepresentation(terms=(PTerm(kappa=1.0, beta=0.5, gamma=-0.5),))
        want = rho_from_pterm(rep.terms[0], 4).entries
        quad = QuadratureSpec(center=0.0, halfwidth=6.0, node_count=601)
        devs = [np.max(np.abs(reconstruct_rho_numeric(rep, s, 4, quad).entries - want))
                for s in (0.2, 0.1)]
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.15)

    def test_guard_rejects_catastrophic_cancellation(self):
        # Im(center) = 1.5 at sigma = 0.15 amplifies by e^50, far past the guard
        rep = PRepresentation(terms=(PTerm(kappa=1.0, beta=1.5, gamma=-1.5),))
        quad = QuadratureSpec(center=0.0, halfwidth=6.0, node_count=201)
        with pytest.raises(OverflowError, match="regularization too small"):
            reconstruct_rho_numeric(rep, 0.15, 2, quad)
        assert math.exp(1.5**2 / (2 * 0.15**2)) > NUMERIC_AMPLIFICATION_GUARD

    def test_unresolved_quadrature_raises(self):
        # nodes 0.1 apart cannot resolve sigma = 0.01: the sum would give rho_00 = 33.57
        # where the closed form gives 0.527
        rep = p_cat_terms(CatStateSpec(0.8, -0.8, 0))
        with pytest.raises(FloatingPointError, match="cannot resolve sigma = 0.01"):
            reconstruct_rho_numeric(rep, 0.01, 4, QuadratureSpec(0.0, 4.0, 41))

    def test_warns_beyond_certified_order(self):
        rep = PRepresentation(terms=(PTerm(kappa=1.0, beta=0.3, gamma=0.3),))
        quad = QuadratureSpec(center=0.0, halfwidth=4.0, node_count=101)
        with pytest.warns(UserWarning, match="certified"):
            reconstruct_rho_numeric(rep, 0.3, 14, quad)

    def test_matches_two_dimensional_trapezoid_sum(self):
        # reference: the same trapezoid rule summed over the full node grid
        rep = p_cat_terms(CatStateSpec(alpha1=0.8 + 0.3j, alpha2=-0.6, zeta=0.5 + 0.5j))
        sigma, n_max, nodes = 0.3, 6, 61
        want = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        for t in rep.terms:
            axes = []
            for c in (t.center_r, t.center_i):
                v = np.linspace(np.real(c) - 3.0, np.real(c) + 3.0, nodes)
                axes.append((v, delta_kernel(v - c, sigma) * trapezoid_weights(nodes, v[1] - v[0])))
            (x, wx), (y, wy) = axes
            u = x[:, None] + 1j * y[None, :]
            w = np.outer(wx, wy) * np.exp(-(x[:, None] ** 2 + y[None, :] ** 2))
            for j in range(n_max + 1):
                for k in range(n_max + 1):
                    want[j, k] += t.weight * np.sum(w * u ** j * np.conj(u) ** k) \
                        / math.sqrt(math.factorial(j) * math.factorial(k))
        quad = QuadratureSpec(center=0.0, halfwidth=3.0, node_count=nodes)
        got = reconstruct_rho_numeric(rep, sigma, n_max, quad).entries
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    def test_memory_bounded_by_output(self):
        # one (n_max + 1) x nodes table at a time, not (n_max + 1) x nodes^2
        rep = p_cat_terms(SPECS[0])
        quad = QuadratureSpec(center=0.0, halfwidth=3.0, node_count=801)
        tracemalloc.start()
        try:
            reconstruct_rho_numeric(rep, 0.4, 12, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_working_set_stays_cubic_in_n_max(self):
        # the 41 x 41 x 81 real binomial table at n_max = 40 takes 1.1 MB and
        # the whole call peaks near 1.3 MB; a 41^4 complex tensor would take 45 MB
        rep = p_cat_terms(SPECS[0])
        quad = QuadratureSpec(center=0.0, halfwidth=3.0, node_count=301)
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="certified"):
                reconstruct_rho_numeric(rep, 0.4, 40, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_memory_of_many_nodes_stays_near_the_axes_nodes_and_weights(self):
        # at 20001 nodes the eight axes' nodes take 1.3 MB and their complex
        # weights 2.6 MB, the kernels formed in place in them; with the 1.3 MB
        # real plane of e^{-x^2} the call peaks at 5.27 MB
        rep = p_cat_terms(SPECS[2])
        quad = QuadratureSpec(center=0.0, halfwidth=3.0, node_count=20001)
        tracemalloc.start()
        try:
            reconstruct_rho_numeric(rep, 0.4, 12, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.4e6

    @pytest.mark.parametrize("nodes", [201, 301, 601])
    @pytest.mark.parametrize("n_max", [0, 12, 40])
    @pytest.mark.parametrize("order", ["as-given", "reversed"])
    def test_batched_moments_equal_each_axis_alone(self, nodes, n_max, order):
        # bit for bit: every row of one call over all of a cat's axes, in either
        # order, is its axis's own one-centre call
        for spec in SPECS:
            centers, sigma, halfwidth = benchmark_axes(spec)
            if order == "reversed":
                centers = centers[::-1]
            quad = QuadratureSpec(center=0.0, halfwidth=halfwidth, node_count=nodes)
            got = _axis_moments(centers, sigma, quad, 2 * n_max)
            assert got.shape == (len(centers), 2 * n_max + 1)
            for c, row in zip(centers, got):
                assert row.tobytes() == _axis_moments(np.array([c]), sigma, quad,
                                                      2 * n_max)[0].tobytes()

    @pytest.mark.parametrize("n_max", range(41))
    def test_binomial_table_is_exact(self, n_max):
        # the coefficients of (1 - s)^j (1 + s)^k, from math.comb in integers,
        # over sqrt(j! k!) as the table scales them
        exact = [[[sum((-1) ** i * math.comb(j, i) * math.comb(k, a - i) for i in range(a + 1))
                   for a in range(2 * n_max + 1)]
                  for k in range(n_max + 1)] for j in range(n_max + 1)]
        inv_sqrt_fact = np.exp(-0.5 * np.array([log_factorial(k) for k in range(n_max + 1)]))
        want = np.array(exact, dtype=float) * np.multiply.outer(inv_sqrt_fact,
                                                                 inv_sqrt_fact)[:, :, None]
        assert _binomial_table(n_max).tobytes() == want.tobytes()

    def test_raises_no_warning(self):
        rep = p_cat_terms(SPECS[2])
        quad = QuadratureSpec(center=0.0, halfwidth=4.0, node_count=301)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reconstruct_rho_numeric(rep, 0.4, 12, quad)

    def test_axis_moments_sift_monomials_to_closed_form(self):
        # x^m e^{-x^2} against the kernel at each centre c, real or complex, in
        # one call: e^{-c^2 / 2 sigma^2} / (sqrt(2 pi) sigma) times the integral
        # of x^m e^{-(1 + 1/2 sigma^2) x^2 + (c / sigma^2) x}
        terms = [PTerm(kappa=1.0, beta=0.8 + 0.3j, gamma=-0.6 + 0.1j),
                 PTerm(kappa=1.0, beta=-0.5 + 0.2j, gamma=0.4 - 0.3j)]
        centers = np.array([0.7, -1.2, *(c for t in terms for c in (t.center_r, t.center_i))],
                           dtype=complex)
        assert np.count_nonzero(centers.imag) == 4
        sigma = 0.3
        quad = QuadratureSpec(center=0.0, halfwidth=12.0 * sigma, node_count=2001)
        got = _axis_moments(centers, sigma, quad, 24)
        assert got.shape == (len(centers), 25)
        for c, row in zip(centers, got):
            scale = np.exp(-c * c / (2.0 * sigma * sigma)) / (math.sqrt(2.0 * math.pi) * sigma)
            want = [scale * gaussian_moment_integral(m, 1.0 + 0.5 / sigma ** 2, c / sigma ** 2)
                    for m in range(25)]
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=0)

    @pytest.mark.filterwarnings("ignore:numeric path is only certified:UserWarning")
    @pytest.mark.parametrize("n_max", [12, 24])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spec=perfbench_like_cats())
    def test_moment_form_matches_per_node_oracle(self, spec, n_max):
        # the benchmark's inputs: the smallest width of at least 0.2 whose
        # cancellation factor is at most 1e6, halfwidth 10 sigma, n_max 12
        # (and twice that), and its doubled-node tolerance
        rep = p_cat_terms(spec)
        worst = max(max(abs(np.imag(t.center_r)), abs(np.imag(t.center_i)))
                    for t in rep.terms)
        sigma = max(0.2, worst / math.sqrt(2.0 * math.log(1e6)))
        factor = max(1.0, cancellation_factor(1j * worst, sigma))
        quad = QuadratureSpec(center=0.0, halfwidth=10.0 * sigma, node_count=201)
        got = reconstruct_rho_numeric(rep, sigma, n_max, quad).entries
        want = reference_reconstruct_numeric(rep, sigma, n_max, quad).entries
        assert np.max(np.abs(got - want)) <= 1e-13 * factor * np.max(np.abs(want))


class TestRoundTripReport:
    def test_clean_cat_round_trips(self):
        report = roundtrip_report(SPECS[0], n_max=30)
        assert report.n_max == 30
        assert report.max_abs_deviation < 1e-10
        assert report.trace_deviation < 1e-10
        assert all(ok for _, ok in report.per_term_checks)
        assert len(report.per_term_checks) == 4

    def test_json_payload(self):
        report = roundtrip_report(SPECS[1], n_max=25)
        data = json.loads(report.to_json())
        assert data["n_max"] == 25
        assert data["max_abs_deviation"] == report.max_abs_deviation
        assert data["per_term_checks"] == [[i, True] for i in range(4)]

    def test_one_pass(self, monkeypatch):
        calls = []

        def counted(fn):
            return lambda *args: calls.append(fn.__name__) or fn(*args)

        monkeypatch.setattr("catphase.reconstruct._term_factors", counted(_term_factors))
        for module in ("states", "reconstruct"):
            monkeypatch.setattr(f"catphase.{module}.coherent_fock_coeffs",
                                counted(coherent_fock_coeffs), raising=False)
        report = roundtrip_report(SPECS[2], n_max=20)
        assert len(report.per_term_checks) == 4
        assert sorted(calls) == ["_term_factors"] + ["coherent_fock_coeffs"] * 2

    def test_term_checks_catch_swapped_bra_and_ket(self, monkeypatch):
        def swapped(rep, n_max):
            return _term_factors(PRepresentation(
                [PTerm(t.kappa, beta=t.gamma, gamma=t.beta) for t in rep.terms]), n_max)

        monkeypatch.setattr("catphase.reconstruct._term_factors", swapped)
        report = roundtrip_report(SPECS[0], n_max=30)
        # only the off-diagonal terms have bra != ket
        assert report.per_term_checks == ((0, True), (1, True), (2, False), (3, False))

    def test_peak_memory_is_the_direct_matrix(self):
        # cat_density_matrix peaks at 3 (n_max + 1)^2 complex matrices; the
        # reconstruction holds one more, the product, only after that peak
        n_max = 600
        tracemalloc.start()
        try:
            report = roundtrip_report(CatStateSpec(10.0, -10.0, 1.0), n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.max_abs_deviation < 1e-10
        assert peak <= 3.25 * (n_max + 1) ** 2 * 16

    def test_truncation_shows_up_in_trace(self):
        # n_max far below the photon content leaves visible trace deficit
        with pytest.warns(UserWarning, match="tail mass"):
            report = roundtrip_report(SPECS[0], n_max=3)
        assert report.trace_deviation > 1e-3
