"""Density-matrix reconstruction from the four-term P-representation.

The closed-form route applies the complex-center sifting result
analytically: each term collapses to kappa |gamma><beta| with the bra
and ket taking *different* amplitudes for off-diagonal terms.  The
numeric route sifts each monomial x^m on the real-part and imaginary-part
axes and combines the moments by one real table K of (n_max + 1)^2
(2 n_max + 1) entries, the coefficients of (1-s)^j (1+s)^k: with u = -iy,
(x+iy)^j (x-iy)^k = (x-u)^j (x+u)^k = sum_a K[j,k,a] x^(j+k-a) u^a.  It
demonstrates the sifting mechanism behind strict cancellation guards.
The 2 m axes of m terms are sifted together, their windows from one
gendelta.sifting_axis call, and the moments are running powers of the
weights: memory is the axes' two 2 m x node_count arrays of nodes and
weights and one real plane, or K where that is larger.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .blas import single_blas_thread
from .gendelta import cancellation_factor, sifting_axis
from .numerics import _gaussian_exponent, log_factorial, require_count, require_positive
from .states import FockDensityMatrix, _coherent_column, cat_density_matrix
from .quasiprob import PRepresentation, p_cat_terms

NUMERIC_AMPLIFICATION_GUARD = 1e10
NUMERIC_MOMENT_ORDER_MAX = 12
TERM_TOL = 1e-12


def _term_factors(rep, n_max):
    """Columns C (n_max + 1, m) and rows R (m, n_max + 1) of the terms of `rep`: term k,
    kappa |gamma><beta|, is C[:, k:k+1] * R[k:k+1], and its entry jk is
    kappa e^{-(|beta|^2 + |gamma|^2)/2} gamma^j conj(beta)^k / sqrt(j! k!)."""
    n_max = require_count(n_max, "n_max")
    cols = np.empty((n_max + 1, len(rep.terms)), dtype=complex)
    rows = np.empty((len(rep.terms), n_max + 1), dtype=complex)
    for k, term in enumerate(rep.terms):
        cols[:, k] = _coherent_column(complex(term.gamma), n_max)
        rows[k] = term.kappa * _coherent_column(complex(term.beta).conjugate(), n_max)
    return cols, rows


def reconstruct_rho(rep, n_max):
    """Sum of the closed-form terms: one product of their factors, on one BLAS thread."""
    cols, rows = _term_factors(rep, n_max)
    with single_blas_thread():
        return FockDensityMatrix(n_max=n_max, entries=cols @ rows)


def rho_from_pterm(term, n_max):
    """Closed-form density matrix kappa |gamma><beta| of one term: its one-term reconstruct_rho."""
    return reconstruct_rho(PRepresentation((term,)), n_max)


def _axis_moments(centers, sigma, quad, order):
    """Sifted moments sum_x w(x) e^{-x^2} x^m, m = 0..order, one row for each
    of the 1-d array `centers`, on their sifting_axis windows: the paper's
    x^n -> z^n sifting of each monomial against the complex-centred kernel.
    The weights take e^{-x^2}, exponentiated in place, and then x once per
    order, in place, so memory is sifting_axis's and one real plane."""
    x, w = sifting_axis(centers, sigma, quad)
    gauss = _gaussian_exponent([(x, 0.0)], 1.0)
    w *= np.exp(gauss, out=gauss)
    moments = np.empty((len(w), order + 1), dtype=complex)
    moments[:, 0] = w.sum(axis=1)
    for k in range(1, order + 1):
        w *= x
        moments[:, k] = w.sum(axis=1)
    return moments


def _binomial_table(n_max):
    """K[j, k, a], the coefficient of s^a in (1 - s)^j (1 + s)^k, over sqrt(j! k!).

    Pascal's rule on slices: times (1 + s) along k, then times (1 - s) along j
    for every k at once.  Every coefficient is an integer below 2^53 up to
    n_max = 40, so the table is exact before the factorials."""
    table = np.zeros((n_max + 1, n_max + 1, 2 * n_max + 1))
    table[:, :, 0] = 1.0
    for k in range(1, n_max + 1):
        np.add(table[0, k - 1, 1:], table[0, k - 1, :-1], out=table[0, k, 1:])
    for j in range(1, n_max + 1):
        np.subtract(table[j - 1, :, 1:], table[j - 1, :, :-1], out=table[j, :, 1:])
    inv_sqrt_fact = np.exp(-0.5 * np.array([log_factorial(k) for k in range(n_max + 1)]))
    table *= np.multiply.outer(inv_sqrt_fact, inv_sqrt_fact)[:, :, None]
    return table


def reconstruct_rho_numeric(rep, sigma, n_max, quad):
    """Reconstruction by quadrature against the regularized P-function,
    from one-axis sifted moments.  Each term's coherent-projector kernel
    e^{-x^2 - y^2} (x+iy)^j (x-iy)^k / sqrt(j!k!) expands, with u = -iy, as
    (x-u)^j (x+u)^k = sum_a K'[j,k,a] x^(j+k-a) u^a, K'[j,k,.] the
    coefficients of (1-s)^j (1+s)^k.  With the real table K = K' / sqrt(j!k!)
    and Mx, My the sifted moments of the real-part and imaginary-part axes
    (sifting_axis windows) to order 2 n_max, the terms' sum is one contraction

        G_jk = sum_a K[j,k,a] H[j+k,a],  H[s,a] = sum of weight Mx[s-a] (-i)^a My[a]

    over a sliding window of H.  The moments of all 2 m axes of the m terms
    come from one _axis_moments call, on one sifting_axis call's windows,
    and K is built after them: memory is the 2 m x node_count nodes and
    weights of the axes and a real plane, or K where that is larger.
    Raises OverflowError when e^{|Im center|^2 / 2 sigma^2} exceeds the
    amplification guard, and FloatingPointError when the nodes of `quad`
    cannot resolve sigma (sifting_axis's guard); warns when n_max exceeds 12
    (polynomial moment growth dominates the quadrature error there).  A sigma
    that is not positive is refused first, with or without terms.
    """
    require_positive(sigma, "sigma")
    n_max = require_count(n_max, "n_max")
    if n_max > NUMERIC_MOMENT_ORDER_MAX:
        warnings.warn(
            f"numeric path is only certified for n_max <= {NUMERIC_MOMENT_ORDER_MAX}; "
            f"the entries of n_max = {n_max} carry larger quadrature error",
            stacklevel=2)
    centers = [c for t in rep.terms for c in (t.center_r, t.center_i)]
    factor = max((cancellation_factor(c, sigma) for c in centers), default=1.0)
    if factor > NUMERIC_AMPLIFICATION_GUARD:
        raise OverflowError(
            f"regularization too small: cancellation factor {factor:.3e} exceeds "
            f"{NUMERIC_AMPLIFICATION_GUARD:.0e} for sigma = {sigma}")

    orders = np.arange(2 * n_max + 1)
    i_pow = np.array([1, -1j, -1, 1j])[orders % 4]  # exact; numpy's (-1j) ** a is not from 100
    h = np.zeros((orders.size, orders.size), dtype=complex)
    if centers:
        moments = _axis_moments(centers, sigma, quad, 2 * n_max)
        # tril zeros the wrapped Mx[s - a] of a > s
        shifted = np.tril(moments[0::2, np.subtract.outer(orders, orders)])
        for t, mx, my in zip(rep.terms, shifted, moments[1::2]):
            h += t.weight * mx * i_pow * my
    window = np.lib.stride_tricks.sliding_window_view(h, n_max + 1, axis=0)  # [j,a,k]: h[j+k,a]
    return FockDensityMatrix(n_max, np.einsum("jka,jak->jk", _binomial_table(n_max), window))


@dataclass(frozen=True)
class RoundTripReport:
    n_max: int
    max_abs_deviation: float
    trace_deviation: float
    per_term_checks: tuple  # (term index, matched) pairs

    def to_json(self):
        return json.dumps({
            "n_max": self.n_max,
            "max_abs_deviation": self.max_abs_deviation,
            "trace_deviation": self.trace_deviation,
            "per_term_checks": [[i, bool(ok)] for i, ok in self.per_term_checks],
        })


def roundtrip_report(spec, n_max):
    """Direct density matrix vs the reconstructed one: each term's factors are checked
    against the amplitudes' columns, the direct matrix is subtracted in place from their
    product C @ R (peak: cat_density_matrix's own), and the trace is that of R @ C."""
    rho_direct = cat_density_matrix(spec, n_max)
    column = {a: _coherent_column(a, n_max) for a in (spec.alpha1, spec.alpha2)}
    rep = p_cat_terms(spec)
    cols, rows = _term_factors(rep, n_max)
    checks = tuple((k, float(max(np.max(np.abs(cols[:, k] - column[t.gamma])), np.max(
        np.abs(rows[k] - t.kappa * column[t.beta].conj())))) < TERM_TOL)
        for k, t in enumerate(rep.terms))
    with single_blas_thread():
        deviation = cols @ rows
        trace = complex(np.trace(rows @ cols))
    deviation -= rho_direct.entries
    return RoundTripReport(rho_direct.n_max, float(np.max(np.abs(deviation))),
                           abs(trace.real - 1.0), checks)
