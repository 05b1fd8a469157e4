"""Self-contained verification suite: every check returns a record with
a pass flag and the measured values, so the CLI can print one line per
criterion and the test suite can assert on the same code path.
"""

import math

import numpy as np

from .amplifier import AmplifierGain, amplified_p, amplified_p_factored, \
    amplified_p_terms, amplify_q, sigma_of_gain
from .blas import single_blas_thread
from .gendelta import AnalyticTestFunction, cancellation_factor, delta_moment, sift, \
    sift_shifted_line
from .numerics import QuadratureSpec, trapezoid_weights
from .quasiprob import Grid2D, fock_wavefunction, p_cat_terms, q_from_wigner, q_function, \
    wigner_fock, wigner_from_p
from .reconstruct import _axis_moments, roundtrip_report, rho_from_pterm
from .states import CatStateSpec, coherent_fock_coeffs, coherent_overlap

MOMENT_TEST_POINTS = (1.0 + 0.0j, 1.0j, 1.0 + 1.0j, 2.0 - 0.5j)


def check_moment_identity():
    """Normalization of the zeroth moment and the O(sigma^2) signature:
    the deviation |moment_n(sigma) - z^n| must shrink 4x (+-10%) when
    sigma halves from 0.1 to 0.05."""
    worst_norm = 0.0
    worst_ratio_err = 0.0
    ok = True
    for z in MOMENT_TEST_POINTS:
        for sigma in (0.1, 0.05):
            worst_norm = max(worst_norm, abs(delta_moment(0, z, sigma) - 1.0))
    ok &= worst_norm <= 1e-12
    for z in MOMENT_TEST_POINTS:
        for n in range(2, 9):
            dev_coarse = abs(delta_moment(n, z, 0.1) - z ** n)
            dev_fine = abs(delta_moment(n, z, 0.05) - z ** n)
            ratio = dev_coarse / dev_fine
            worst_ratio_err = max(worst_ratio_err, abs(ratio - 4.0))
            ok &= abs(ratio - 4.0) <= 0.4
    return bool(ok), (f"max |moment_0 - 1| = {worst_norm:.2e}; "
                      f"worst sigma-halving ratio deviation from 4 = {worst_ratio_err:.3f}")


def check_sifting():
    """Shifted-line sifting of (1 + x) e^{-x^2/4} at 1 + 0.4i, sigma = 0.05,
    against the exact continuation; direct route compared wherever its
    cancellation factor stays below 1e6."""
    f = AnalyticTestFunction.gaussian_envelope(scale=math.sqrt(2.0), coeffs=(1.0, 1.0))
    z0 = 1.0 + 0.4j
    quad = QuadratureSpec(center=z0.real, halfwidth=14.0, node_count=20001)
    target = f(z0)
    val = sift_shifted_line(f, z0, 0.05, quad)
    rel = abs(val - target) / abs(target)
    shifted_ok = rel <= 1e-6

    direct_dev = 0.0
    for sigma in (0.4, 0.3, 0.2, 0.1):
        factor = cancellation_factor(z0, sigma)
        if factor >= 1e6:
            continue
        d = sift(f, z0, sigma, quad)
        s = sift_shifted_line(f, z0, sigma, quad)
        # cancellation eats log10(factor) digits of the direct result
        tol = 1e-12 * factor + 1e-12
        direct_dev = max(direct_dev, abs(d - s) - tol)
    direct_ok = direct_dev <= 0.0
    return bool(shifted_ok and direct_ok), (
        f"shifted-line relative deviation = {rel:.3e} (tolerance 1e-6); "
        f"direct-route excess over cancellation-adjusted tolerance = {direct_dev:.3e}")


ROUNDTRIP_SPECS = (
    (2.0, -2.0, 1.0),
    (1.5, -1.5, 1.0j),
    (1.0 + 0.5j, -1.0 + 0.3j, 0.6 - 0.4j),
)


def check_roundtrip():
    """Closed-form reconstruction equals the direct density matrix to
    1e-10 elementwise, and every term matches its coherent outer product."""
    worst = 0.0
    terms_ok = True
    for a1, a2, z in ROUNDTRIP_SPECS:
        report = roundtrip_report(CatStateSpec(a1, a2, z), n_max=30)
        worst = max(worst, report.max_abs_deviation)
        terms_ok &= all(ok for _, ok in report.per_term_checks)
    passed = worst < 1e-10 and terms_ok
    return bool(passed), (f"max elementwise deviation = {worst:.2e}; "
                          f"per-term structure checks {'pass' if terms_ok else 'FAIL'}")


def _wigner_grid(n):
    """W of |n> on [-7, 7]^2 at 201^2, the grid of both Wigner criteria.

    The extent covers wigner_fock's recommended 2 sqrt(n) + 4 up to n = 2."""
    return wigner_fock(n, Grid2D(-7.0, 7.0, -7.0, 7.0, 201, 201, axis_semantics="xp"))


def check_wigner_marginal():
    """Integrating the Fock-state Wigner function over p recovers
    |psi_n(x)|^2 per grid column, n = 0, 1, 2."""
    worst = 0.0
    for n in (0, 1, 2):
        w = _wigner_grid(n)
        with single_blas_thread():
            marginal = np.real(w.values) @ trapezoid_weights(w.ny, w.dy)
        target = fock_wavefunction(n, w.xs) ** 2
        worst = max(worst, float(np.max(np.abs(marginal - target))))
    return worst <= 1e-6, f"max marginal deviation = {worst:.2e}"


def check_wigner_negativity():
    """The two-photon Wigner function is negative somewhere on the grid
    and equals 1/pi at the origin.  wigner_fock evaluates the Laguerre
    closed form, where (-1)^2 L_2(0) / pi = 1/pi holds by construction, so
    the origin check pins the grid's centre node and the sign convention;
    the negativity is the nonclassical signature."""
    w = _wigner_grid(2)
    w_min = float(np.min(np.real(w.values)))
    i0 = w.nx // 2
    origin_dev = abs(float(np.real(w.values[i0, i0])) - 1.0 / math.pi)
    passed = w_min < 0.0 and origin_dev <= 1e-6
    return bool(passed), (f"min W_2 = {w_min:.4f} (negative required); "
                          f"|W_2(0,0) - 1/pi| = {origin_dev:.2e}")


def check_transform_loop():
    """Amplified P -> Wigner -> Q by convolution matches the directly
    scaled Q-function for the g = 2 cat, max-abs 1e-5 on [-6,6]^2 at 161^2.
    The convolutions run on a padded domain at the same spacing so that
    tail truncation stays below the comparison tolerance."""
    spec = CatStateSpec(1.5, -1.5, 1.0)
    gain = AmplifierGain(2.0)
    out = Grid2D(-6.0, 6.0, -6.0, 6.0, 161, 161, axis_semantics="alpha")
    pad = Grid2D(-12.0, 12.0, -12.0, 12.0, 321, 321, axis_semantics="alpha")
    p_pad = pad.like(values=amplified_p(spec, gain, pad))
    q_grid = q_from_wigner(wigner_from_p(p_pad, pad), out)
    q_direct = amplify_q(spec, gain, out)
    dev = float(np.max(np.abs(np.real(q_grid.values) - q_direct)))
    return dev <= 1e-5, f"max |Q(chain) - Q(direct)| = {dev:.2e}"


def check_factorization():
    """The smooth amplified P term and its two-Gaussian factorization are
    the same function to 1e-12, and sigma(sqrt(3)) = 1 to rounding."""
    spec = CatStateSpec(1.2 + 0.4j, -0.9 - 0.6j, 0.8 - 0.3j)
    alphas = np.array([0.0, 1.0, -2.5 + 1.0j, 3.0 - 4.0j, 5.0 + 3.0j, -6.0j])
    worst = 0.0
    for g in (1.1, 2.0, 5.0):
        gain = AmplifierGain(g)
        for term, direct in zip(p_cat_terms(spec).terms,
                                amplified_p_terms(spec, gain, alphas)):
            factored = amplified_p_factored(term, gain, alphas)
            worst = max(worst, float(np.max(np.abs(direct - factored))))
    sigma_dev = abs(sigma_of_gain(math.sqrt(3.0)) - 1.0)
    passed = worst <= 1e-12 and sigma_dev <= 5e-16
    return bool(passed), (f"max |unfactored - factored| = {worst:.2e}; "
                          f"|sigma(sqrt 3) - 1| = {sigma_dev:.1e}")


def weak_convergence_integral(term, gain):
    """Integral of e^{-|alpha|^2} against the amplified P term at `gain`: the
    term's weight times the zeroth sifted moments of its two axes, both from
    one _axis_moments call (one sifting_axis window each, 501 nodes of
    halfwidth 5, refused when they cannot resolve the gain's sigma)."""
    quad = QuadratureSpec(0.0, 5.0, 501)
    centers = gain.g * np.array([term.center_r, term.center_i], dtype=complex)
    return term.weight * math.prod(_axis_moments(centers, gain.sigma, quad, 0)[:, 0])


def check_weak_convergence():
    """Integrals of a fixed test function against the off-diagonal
    amplified P term converge to the closed-form sifted value as g -> 1,
    with error proportional to g^2 - 1 (ratio 2 +- 15% per halving).  The
    amplified P term and e^{-|alpha|^2} both separate along Re and Im alpha,
    so each integral is a product of two one-axis sifting sums."""
    term = p_cat_terms(CatStateSpec(0.5, -0.5, 1.0)).terms[2]
    target = rho_from_pterm(term, 0).entries[0, 0]
    errors = [abs(weak_convergence_integral(term, AmplifierGain(1.0 + 2.0 ** (-k))) - target)
              for k in range(2, 7)]
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    ok = all(abs(r - 2.0) <= 0.3 for r in ratios)
    return bool(ok), ("error per k-step ratios = "
                      + ", ".join(f"{r:.3f}" for r in ratios) + " (want 2 +- 15%)")


def check_overlap_consistency():
    """Analytic coherent overlap vs the truncated Fock inner product."""
    amplitudes = (0.0, 0.7, -1.3, 2.0, 1.0j, 1.0 + 1.0j, -1.5 + 0.5j, 0.3 - 1.9j)
    columns = [coherent_fock_coeffs(a, 40) for a in amplitudes]
    with single_blas_thread():
        worst = max(abs(np.vdot(ca, cb) - coherent_overlap(a, b))
                    for a, ca in zip(amplitudes, columns) for b, cb in zip(amplitudes, columns))
    return worst <= 1e-10, f"max |analytic - truncated| = {worst:.2e}"


# Five random cats as (r1, r2, rz, t1, t2, tz): moduli uniform in [0.3, 2],
# phases uniform in [0, 2 pi), the draws of np.random.default_rng(173504) in
# that order, written out so that `verify` does not load numpy.random.
Q_NORMALIZATION_CATS = (
    (0.31870184905953025, 1.907824108535127, 0.6756229109992313,
     3.7908742578428996, 0.35104944359426377, 4.077218810445264),
    (0.6546936228054788, 1.574733459185634, 1.8011041066946025,
     3.438086462981895, 4.381242510471128, 6.231505522416724),
    (0.8831270466881971, 1.1064110398055946, 0.9647106237333236,
     1.1371102470027752, 3.8138471612913305, 4.02035480704729),
    (0.6950166078283148, 1.9441827868738535, 1.8575371769131648,
     4.42290063125332, 1.1253528285145233, 0.6910270431296585),
    (1.970760059634391, 0.7215423150246137, 1.101157751792768,
     2.554457662134041, 5.445439092810191, 4.686727502631595),
)


def check_q_normalization():
    """Q integrates to 1 within 1e-6 and stays nonnegative for the five
    random cat specs of Q_NORMALIZATION_CATS."""
    worst_norm = 0.0
    worst_min = math.inf
    grid = Grid2D(-6.0, 6.0, -6.0, 6.0, 201, 201, axis_semantics="alpha")
    for r1, r2, rz, t1, t2, tz in Q_NORMALIZATION_CATS:
        spec = CatStateSpec(r1 * np.exp(1j * t1), r2 * np.exp(1j * t2),
                            rz * np.exp(1j * tz))
        q = grid.like(values=q_function(spec, grid))
        worst_norm = max(worst_norm, abs(q.integrate().real - 1.0))
        worst_min = min(worst_min, float(np.min(q.values.real)))
    passed = worst_norm <= 1e-6 and worst_min >= -1e-12
    return bool(passed), (f"max |integral - 1| = {worst_norm:.2e}; "
                          f"min Q = {worst_min:.2e}")


CRITERIA = (
    ("moment-identity", check_moment_identity),
    ("sifting", check_sifting),
    ("round-trip", check_roundtrip),
    ("wigner-marginal", check_wigner_marginal),
    ("wigner-negativity", check_wigner_negativity),
    ("transform-loop", check_transform_loop),
    ("factorization", check_factorization),
    ("weak-convergence", check_weak_convergence),
    ("overlap-consistency", check_overlap_consistency),
    ("q-normalization", check_q_normalization),
)


def run_all():
    """Execute every criterion; returns a list of result records."""
    results = []
    for name, fn in CRITERIA:
        passed, details = fn()
        results.append({"criterion": name, "passed": passed, "details": details})
    return results
