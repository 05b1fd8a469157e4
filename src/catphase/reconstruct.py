"""Density-matrix reconstruction from the four-term P-representation.

The closed-form route applies the complex-center sifting result
analytically: each term collapses to kappa |gamma><beta| with the bra
and ket taking *different* amplitudes for off-diagonal terms.  The
numeric route re-derives the same matrix by iterated real-axis
quadrature against the regularized kernels; it exists to demonstrate
the sifting mechanism and is gated behind strict cancellation guards.
"""

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gendelta import cancellation_factor, sifting_axis
from .numerics import log_factorial
from .states import FockDensityMatrix, cat_density_matrix, coherent_fock_coeffs
from .quasiprob import p_cat_terms

NUMERIC_AMPLIFICATION_GUARD = 1e10
NUMERIC_MOMENT_ORDER_MAX = 12
TERM_TOL = 1e-12


def rho_from_pterm(term, n_max):
    """Closed-form density matrix of one P-representation term:

        rho_jk = kappa e^{-(|beta|^2 + |gamma|^2)/2} gamma^j conj(beta)^k / sqrt(j! k!),

    i.e. kappa |gamma><beta| in the truncated number basis.
    """
    n = np.arange(n_max + 1)
    half_log_fact = 0.5 * np.array([log_factorial(k) for k in n])
    beta_c, gamma = np.conj(complex(term.beta)), complex(term.gamma)
    prefactor = term.kappa * math.exp(-0.5 * (abs(term.beta) ** 2 + abs(term.gamma) ** 2))
    col = gamma ** n * np.exp(-half_log_fact)
    row = beta_c ** n * np.exp(-half_log_fact)
    return FockDensityMatrix(n_max=n_max, entries=prefactor * np.outer(col, row))


def reconstruct_rho(rep, n_max):
    """Sum of the closed-form single-term reconstructions."""
    total = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for term in rep.terms:
        total = total + rho_from_pterm(term, n_max).entries
    return FockDensityMatrix(n_max=n_max, entries=total)


def reconstruct_rho_numeric(rep, sigma, n_max, quad):
    """Reconstruction by iterated quadrature against the regularized
    P-function: for each term, the real-part axis is sifted first, then
    the imaginary-part axis, both on sifting_axis windows, summed one
    real-part node at a time so memory stays (n_max + 1) x node_count.

    Raises when e^{|Im center|^2 / 2 sigma^2} exceeds the amplification
    guard, and warns when matrix elements beyond j + k = 12 are requested
    (polynomial moment growth dominates the quadrature error there).
    """
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
        xr, wr = sifting_axis(term.center_r, sigma, quad)
        xi, wi = sifting_axis(term.center_i, sigma, quad)
        # coherent-projector kernel e^{-x^2} e^{-y^2} (x+iy)^j (x-iy)^k / sqrt(j!k!)
        wr = wr * np.exp(-xr * xr)
        wi = wi * np.exp(-xi * xi)
        g = np.zeros_like(total)
        for x, w in zip(xr, wr):
            u_pow = np.vander(x + 1j * xi, n.size, increasing=True)  # (x+iy)^j
            g += w * ((u_pow.T * wi) @ u_pow.conj())
        total = total + term.weight * g * np.outer(inv_sqrt_fact, inv_sqrt_fact)
    return FockDensityMatrix(n_max=n_max, entries=total)


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
    """Direct density matrix vs the one rebuilt through the four-term
    representation, plus a per-term check that each reconstructed term is
    the expected coherent outer product kappa |gamma><beta|.
    """
    rho_direct = cat_density_matrix(spec, n_max)
    rep = p_cat_terms(spec)
    rho_recon = reconstruct_rho(rep, n_max)
    checks = []
    for i, term in enumerate(rep.terms):
        got = rho_from_pterm(term, n_max).entries
        want = term.kappa * np.outer(coherent_fock_coeffs(term.gamma, n_max),
                                     np.conj(coherent_fock_coeffs(term.beta, n_max)))
        checks.append((i, float(np.max(np.abs(got - want))) < TERM_TOL))
    return RoundTripReport(
        n_max=n_max,
        max_abs_deviation=float(np.max(np.abs(rho_recon.entries - rho_direct.entries))),
        trace_deviation=abs(rho_recon.trace() - 1.0),
        per_term_checks=tuple(checks),
    )
