"""Density-matrix reconstruction from the four-term P-representation.

The closed-form route applies the complex-center sifting result
analytically: each term collapses to kappa |gamma><beta| with the bra
and ket taking *different* amplitudes for off-diagonal terms.  The
numeric route sifts each monomial x^m on the real-part and imaginary-part
axes and combines the moments by one real table K of (n_max + 1)^2
(2 n_max + 1) entries, the coefficients of (1-s)^j (1+s)^k: with u = -iy,
(x+iy)^j (x-iy)^k = (x-u)^j (x+u)^k = sum_a K[j,k,a] x^(j+k-a) u^a.  It
demonstrates the sifting mechanism behind strict cancellation guards.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .blas import single_blas_thread
from .gendelta import cancellation_factor, sifting_axis
from .numerics import log_factorial, require_count
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


def _axis_moments(center, sigma, quad, order):
    """Sifted moments sum_x w(x) e^{-x^2} x^m, m = 0..order, on the
    sifting_axis window of `center`: the paper's x^n -> z^n sifting of each
    monomial against the complex-centred kernel, one Vandermonde product."""
    x, w = sifting_axis(center, sigma, quad)
    with single_blas_thread():
        return (w * np.exp(-x * x)) @ np.vander(x, order + 1, increasing=True)


def _binomial_table(n_max):
    """K[j, k, a], the coefficient of s^a in (1 - s)^j (1 + s)^k, over sqrt(j! k!)."""
    table = np.zeros((n_max + 1, n_max + 1, 2 * n_max + 1))
    table[0, 0, 0] = 1.0
    for m in range(1, n_max + 1):  # times (1 + s) along k
        table[0, m] = table[0, m - 1] + np.roll(table[0, m - 1], 1)
    for m in range(1, n_max + 1):  # times (1 - s) along j
        table[m] = table[m - 1] - np.roll(table[m - 1], 1, axis=1)
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

    over a sliding window of H.  K is built once per call, after the moments:
    memory is the larger of K and one node_count x (2 n_max + 1) Vandermonde.
    Raises when e^{|Im center|^2 / 2 sigma^2} exceeds the amplification guard,
    and warns when n_max exceeds 12 (polynomial moment growth dominates the
    quadrature error there).
    """
    n_max = require_count(n_max, "n_max")
    if n_max > NUMERIC_MOMENT_ORDER_MAX:
        warnings.warn(
            f"numeric path is only certified for n_max <= {NUMERIC_MOMENT_ORDER_MAX}; "
            f"the entries of n_max = {n_max} carry larger quadrature error",
            stacklevel=2)
    factor = max((cancellation_factor(c, sigma)
                  for t in rep.terms for c in (t.center_r, t.center_i)), default=1.0)
    if factor > NUMERIC_AMPLIFICATION_GUARD:
        raise OverflowError(
            f"regularization too small: cancellation factor {factor:.3e} exceeds "
            f"{NUMERIC_AMPLIFICATION_GUARD:.0e} for sigma = {sigma}")

    orders = np.arange(2 * n_max + 1)
    i_pow = np.array([1, -1j, -1, 1j])[orders % 4]  # exact; numpy's (-1j) ** a is not from 100
    h = np.zeros((orders.size, orders.size), dtype=complex)
    for t in rep.terms:  # tril zeros the wrapped Mx[s - a] of a > s
        mx, my = (_axis_moments(c, sigma, quad, 2 * n_max) for c in (t.center_r, t.center_i))
        h += t.weight * np.tril(mx[np.subtract.outer(orders, orders)]) * i_pow * my
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
