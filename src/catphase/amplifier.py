"""Linear phase-insensitive amplifier channel on cat states.

Gain g rescales the Q-function argument by 1/g; for g > 1 the
P-function becomes a smooth sum of Gaussians whose width
sigma = sqrt((g^2 - 1) / 2) collapses to zero as g -> 1, degenerating
into the singular four-term representation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gendelta import delta_kernel
from .quasiprob import _hermitian_sum, gaussian_terms, p_cat_terms


def sigma_of_gain(g):
    """Gaussian width sqrt((g^2 - 1) / 2) of the amplified P at a finite gain g >= 1."""
    if not (math.isfinite(g) and g >= 1.0):
        raise ValueError(f"amplitude gain must be finite and >= 1, got {g}")
    return math.sqrt((g * g - 1.0) / 2.0)


@dataclass(frozen=True)
class AmplifierGain:
    """Amplitude gain g >= 1.  Power gain never appears in this interface."""

    g: float

    def __post_init__(self):
        sigma_of_gain(self.g)

    @property
    def sigma(self):
        return sigma_of_gain(self.g)


def amplify_q(spec, gain, alpha):
    """Amplified Q, (1/g^2) Q_in(alpha / g): the quasiprob table's t = g^2 row."""
    g = gain.g
    return _hermitian_sum(p_cat_terms(spec), alpha, g * g, g, "amplified Q")


def amplified_p(spec, gain, alpha):
    """Smooth P-function of the amplified cat state (g > 1 strictly):
    the t = g^2 - 1 row of the quasiprob table, centres scaled by g.

    Near unit gain on separated cats the terms grow past what double
    precision can cancel; quasiprob's guard then raises FloatingPointError.
    """
    g = gain.g
    if g <= 1.0:
        raise ValueError(
            "P-function is singular at g = 1; use p_cat_terms / p_regularized_eval "
            "for the unamplified representation")
    return _hermitian_sum(p_cat_terms(spec), alpha, g * g - 1.0, g, "amplified P")


def amplified_p_factored(term, gain, alpha):
    """Two-Gaussian factorization of one amplified P-function term:

        kappa <beta|gamma> * kernel(alpha_r - g (conj(beta) + gamma) / 2, sigma)
                           * kernel(alpha_i - i g (conj(beta) - gamma) / 2, sigma)

    with sigma = sqrt((g^2 - 1) / 2).  Identical to the unfactored
    Gaussian form; as g -> 1 the centers approach the singular-limit
    centers of the term.
    """
    g = gain.g
    if g <= 1.0:
        raise ValueError("factored form requires g > 1; see amplified_p")
    sigma = gain.sigma
    alpha = np.asarray(alpha, dtype=complex)
    out = term.weight * (delta_kernel(alpha.real - g * term.center_r, sigma)
                         * delta_kernel(alpha.imag - g * term.center_i, sigma))
    return out if out.shape else complex(out)


def amplified_p_terms(spec, gain, alpha):
    """Per-term amplified P values in the order of p_cat_terms(spec)."""
    g = gain.g
    return [values for values, _ in gaussian_terms(p_cat_terms(spec), alpha, g * g - 1.0, g)]
