"""Shared numerical kernels: Hermite polynomials, Gaussian moment
integrals, and fixed-node quadrature on the real line.

All routines are pure functions of their arguments and accept complex
inputs wherever that makes sense.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Largest order require_order accepts (hermite_poly, delta_moment and
# wigner_fock's Laguerre recurrence).  None forms a factorial, and
# e^{-u/2} L_n(u) stays within [-1, 1] at any n.  The limit keeps H_n(x),
# about (2|x|)^n, finite for |x| up to ~1e4, and a number state's reach
# 2 sqrt(n) + 4 at most 20.
HERMITE_N_MAX = 64


@dataclass(frozen=True)
class QuadratureSpec:
    """Fixed-node composite trapezoid rule on [center - halfwidth, center + halfwidth]."""

    center: float
    halfwidth: float
    node_count: int

    def __post_init__(self):
        if not (self.halfwidth > 0 and math.isfinite(self.halfwidth)):
            raise ValueError(f"halfwidth must be finite and positive, got {self.halfwidth}")
        if self.node_count < 2:
            raise ValueError(f"node_count must be >= 2, got {self.node_count}")

    @property
    def nodes(self):
        return np.linspace(self.center - self.halfwidth,
                           self.center + self.halfwidth, self.node_count)

    @property
    def weights(self):
        return trapezoid_weights(self.node_count, 2.0 * self.halfwidth / (self.node_count - 1))


def trapezoid_weights(n, h):
    """Composite trapezoid weights for n uniform nodes of spacing h."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def complex_pairs(values):
    """The JSON form of a complex array: its [re, im] float pairs in C order."""
    v = np.asarray(values, dtype=complex).ravel()
    return np.stack([v.real, v.imag], -1).tolist()


def complex_from_pairs(pairs):
    """Inverse of complex_pairs: a flat complex array, or ValueError unless
    `pairs` is a list of [re, im] pairs of numbers."""
    arr = np.array(pairs)
    if arr.dtype.kind not in "iuf" or arr.shape[1:] != (2,):
        raise ValueError(f"not [re, im] number pairs: {arr.dtype} array of shape {arr.shape}")
    return arr.astype(float).view(complex).ravel()


def require_positive(value, name):
    """Raise ValueError unless value > 0 and its square is not 0; NaN is refused too."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if value * value == 0:
        raise ValueError(f"{name} = {value} is too small: its square underflows to 0")


def require_order(n):
    """A polynomial order n as an int; an integral float such as 2.0 is
    accepted.  Rejects n that is not an integer in [0, HERMITE_N_MAX]."""
    if n < 0 or int(n) != n:
        raise ValueError(f"n must be a non-negative integer, got {n}")
    if n > HERMITE_N_MAX:
        raise ValueError(f"n = {n} exceeds the guard n <= {HERMITE_N_MAX}")
    return int(n)


def hermite_poly(n, x):
    """Physicists' Hermite polynomial H_n(x) by the three-term recurrence.

    H_{n+1}(x) = 2x H_n(x) - 2n H_{n-1}(x).  Accepts complex scalar or
    array x; n must not exceed HERMITE_N_MAX.
    """
    n = require_order(n)
    x = np.asarray(x, dtype=complex)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.shape else complex(h_prev)
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h if h.shape else complex(h)


def gaussian_moment_integral(n, a, b):
    """Closed form of the full-line integral of x^n e^{-a x^2 + b x}.

    Returns sqrt(pi/a) e^{b^2/4a} * (-i / (2 sqrt(a)))^n * H_n(i b / (2 sqrt(a))).
    Requires a > 0; b may be complex.
    """
    require_positive(a, "a")
    sqrt_a = math.sqrt(a)
    b = complex(b)
    prefactor = math.sqrt(math.pi / a) * cmath.exp(b * b / (4.0 * a))
    prefactor *= (-0.5j / sqrt_a) ** n
    return prefactor * hermite_poly(n, 0.5j * b / sqrt_a)


def quad_real_line(f, spec):
    """Composite trapezoid approximation of the integral of f over the
    window of `spec`.  f is called once on the full node array.
    """
    x = spec.nodes
    y = np.asarray(f(x), dtype=complex)
    bad = ~np.isfinite(y)
    if bad.any():
        idx = int(np.argmax(bad))
        raise FloatingPointError(
            f"integrand non-finite at node {idx} (x = {x[idx]!r}, value = {y[idx]!r})")
    return complex(np.dot(spec.weights, y))


def log_factorial(n):
    """log(n!) via log-gamma; stable up to the Fock truncations in scope."""
    return math.lgamma(n + 1)
