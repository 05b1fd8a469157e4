"""Coherent states, Schrodinger cat states, and truncated Fock-basis
density matrices.
"""

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import complex_from_pairs, complex_pairs, log_factorial

TAIL_MASS_WARN = 1e-10


def coherent_overlap(alpha, beta):
    """Overlap <alpha|beta> = exp(-(|alpha|^2 + |beta|^2 - 2 conj(alpha) beta) / 2)."""
    return np.exp(-0.5 * (abs(alpha) ** 2 + abs(beta) ** 2 - 2.0 * np.conj(alpha) * beta))


def cat_normalization(alpha1, alpha2, zeta):
    """Normalization A of the two-component superposition |a1> + zeta |a2>.

    A = [1 + |zeta|^2 + 2 Re(zeta <a1|a2>)]^(-1/2).  Raises for the
    degenerate case where the normalizer is not positive (e.g. zeta = -1
    with alpha2 = alpha1).
    """
    try:
        norm_sq = 1.0 + abs(zeta) ** 2 + 2.0 * (zeta * coherent_overlap(alpha1, alpha2)).real
    except OverflowError:  # a Python float's square out of range
        raise OverflowError(f"cat state out of range: |alpha1|^2, |alpha2|^2 or |zeta|^2 "
                            f"overflows for alpha1 = {alpha1}, alpha2 = {alpha2}, "
                            f"zeta = {zeta}") from None
    if norm_sq <= 0 or not math.isfinite(norm_sq):
        raise ValueError(
            f"degenerate cat state: <psi|psi> proportional to {norm_sq}, cannot normalize")
    return 1.0 / math.sqrt(norm_sq)


@dataclass(frozen=True)
class CatStateSpec:
    """Two coherent amplitudes plus a relative coefficient; the
    normalization constant is derived and cached at construction.
    """

    alpha1: complex
    alpha2: complex
    zeta: complex
    norm_A: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "norm_A",
                           cat_normalization(self.alpha1, self.alpha2, self.zeta))


def recommended_n_max(spec_or_alpha):
    """Truncation heuristic n_max >= |a|^2 + 7|a| + 10 for the largest amplitude;
    it keeps the neglected Poisson tail below TAIL_MASS_WARN for |a| <= 45."""
    if isinstance(spec_or_alpha, CatStateSpec):
        a = max(abs(spec_or_alpha.alpha1), abs(spec_or_alpha.alpha2))
    else:
        a = abs(spec_or_alpha)
    return int(math.ceil(a * a + 7.0 * a + 10.0))


def _coherent_column(alpha, n_max):
    """c_n = e^{-|a|^2/2} a^n / sqrt(n!) for n = 0..n_max, the number-basis
    column of |alpha>.  Each magnitude is one exp of its logarithm, so no
    power of |a| or factorial is formed and every entry is finite at any
    amplitude and order.  A negative n_max raises ValueError."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    n = np.arange(n_max + 1)
    mag = abs(alpha)
    if mag == 0.0:
        return (n == 0).astype(complex)
    log_mag = -0.5 * mag * mag + n * math.log(mag) - 0.5 * np.array(
        [log_factorial(k) for k in n])
    return np.exp(log_mag) * np.exp(1j * n * np.angle(complex(alpha)))


def coherent_fock_coeffs(alpha, n_max):
    """Number-basis coefficients c_n = e^{-|a|^2/2} a^n / sqrt(n!) for n = 0..n_max.

    Warns when the neglected Poisson tail mass exceeds 1e-10.
    """
    c = _coherent_column(alpha, n_max)
    tail = 1.0 - float(np.sum(np.abs(c) ** 2))
    if tail > TAIL_MASS_WARN:
        warnings.warn(
            f"Fock truncation n_max = {n_max} leaves tail mass {tail:.3e} "
            f"for |alpha| = {abs(alpha):.3f}", stacklevel=2)
    return c


@dataclass(frozen=True)
class FockDensityMatrix:
    """Truncated number-basis density matrix; entries[j, k] multiplies |j><k|."""

    n_max: int
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_max", _require_n_max(self.n_max))
        entries = np.asarray(self.entries, dtype=complex)
        expected = (self.n_max + 1, self.n_max + 1)
        if entries.shape != expected:
            raise ValueError(f"entries shape {entries.shape} != {expected}")
        object.__setattr__(self, "entries", entries)

    def trace(self):
        return complex(np.trace(self.entries)).real

    def hermiticity_defect(self):
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def to_json(self):
        return json.dumps({"n_max": self.n_max, "entries": complex_pairs(self.entries)})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        n = _require_n_max(data["n_max"])  # checked before numpy reshapes by it
        return cls(n_max=n, entries=complex_from_pairs(data["entries"]).reshape(n + 1, n + 1))


def _require_n_max(n):
    """n as a Fock truncation: an integer >= 0, bools refused, numpy integers as int."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n_max must be an integer >= 0, got {n!r}")
    return int(n)


def cat_density_matrix(spec, n_max):
    """Density matrix of the cat state in the truncated number basis.

    rho = A^2 (|a1><a1| + |z|^2 |a2><a2| + z |a2><a1| + conj(z) |a1><a2|),
    assembled from outer products of coherent-state coefficient vectors.
    """
    c1 = coherent_fock_coeffs(spec.alpha1, n_max)
    c2 = coherent_fock_coeffs(spec.alpha2, n_max)
    a_sq = spec.norm_A ** 2
    z = spec.zeta
    rho = a_sq * (np.outer(c1, c1.conj())
                  + abs(z) ** 2 * np.outer(c2, c2.conj())
                  + z * np.outer(c2, c1.conj())
                  + np.conj(z) * np.outer(c1, c2.conj()))
    return FockDensityMatrix(n_max=n_max, entries=rho)
