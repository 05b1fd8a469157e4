"""Gaussian-regularized delta kernels with complex centers: evaluation,
sifting along the real axis, closed-form moments, and the pointwise
classification of the underlying distribution's singular structure.

Two sifting routes are provided.  The direct route integrates
f(x) * kernel(x - z0) on the real axis and suffers catastrophic
cancellation of size exp(b^2 / 2 sigma^2) when the center has imaginary
part b.  The shifted-line route integrates f(x + ib) against a purely
real Gaussian weight and is the numerically trusted path; the two are
equal analytically.
"""

import cmath
import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .blas import single_blas_thread
from .numerics import _gaussian_exponent, log_factorial, quad_real_line, require_order, \
    require_positive, trapezoid_weights

# exp() overflows double precision just above e^709
OVERFLOW_EXPONENT = 700.0
# amplification beyond this leaves no reliable digits in the direct route
CANCELLATION_WARN_FACTOR = 1e12
# largest rounding of a sifting node, relative to the kernel width
NODE_ROUNDING_TOL = math.sqrt(np.finfo(float).eps)


def min_safe_sigma(z):
    """Smallest regularization width for which delta_kernel(z, sigma) stays finite."""
    return abs(np.imag(z)) / math.sqrt(2.0 * OVERFLOW_EXPONENT)


def delta_kernel(z, sigma):
    """Regularized delta kernel (1 / (sqrt(2 pi) sigma)) e^{-z^2 / 2 sigma^2}, by
    `_kernel` on a copy of z, raising OverflowError where (Im z)^2 / 2 sigma^2 overflows."""
    require_positive(sigma, "sigma")
    val = _kernel(np.array(z, dtype=complex, ndmin=1), sigma)
    return val.reshape(np.shape(z)) if np.ndim(z) else complex(val[0])


def _kernel(z, sigma):
    """delta_kernel(z, sigma) in place over the complex array z (at least 1-d):
    the width-2 exponent of z / sigma, each part rounded once, so that a square
    overflows only where the kernel underflows, then one exp.  Raises OverflowError,
    naming the sigma that would do, where (Im z)^2 / 2 sigma^2 > OVERFLOW_EXPONENT."""
    # max |Im z| without a temporary of z's size
    reach = max(float(np.max(z.imag, initial=0.0)), -float(np.min(z.imag, initial=0.0)))
    if reach * reach / (2.0 * sigma * sigma) > OVERFLOW_EXPONENT:
        raise OverflowError(
            f"regularization too small: sigma = {sigma} with |Im z| = {reach} "
            f"overflows; need sigma >= {min_safe_sigma(1j * reach):.6g}")
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(z.view(float), sigma, out=z.view(float))
        _gaussian_exponent([(z, 0.0)], 2.0, out=z)
        np.exp(z, out=z)
    return np.multiply(z, 1.0 / (math.sqrt(2.0 * math.pi) * sigma), out=z)


def delta_kernel_fourier(z, sigma_prime, quad):
    """Kernel via its Fourier representation
    (1 / 2 pi) * integral of e^{-i z p} e^{-p^2 / 2 sigma_prime^2} dp,
    evaluated by quadrature over the window of `quad`.  Agrees with
    delta_kernel(z, 1 / sigma_prime) when the window covers +-8 sigma_prime.
    """
    require_positive(sigma_prime, "sigma_prime")
    if quad.halfwidth < 8.0 * sigma_prime:
        warnings.warn(
            f"quadrature halfwidth {quad.halfwidth} < 8 sigma' = {8 * sigma_prime}; "
            "Fourier window truncated", stacklevel=2)
    z = complex(z)
    return quad_real_line(
        lambda p: np.exp(-1j * z * p) * np.exp(-p * p / (2.0 * sigma_prime ** 2)),
        quad) / (2.0 * math.pi)


class DeltaRegion(enum.Enum):
    REAL_AXIS_INFINITY = "real_axis_infinity"
    ZERO = "zero"
    COMPLEX_INFINITY = "complex_infinity"


def classify_point(z):
    """Limit behavior of the kernel at z as sigma -> 0.

    On the imaginary axis (Re z = 0) the magnitude diverges with a fixed
    phase; off it, the magnitude goes to zero when (Re z)^2 > (Im z)^2
    and to a divergence of undefined phase otherwise.
    """
    z = complex(z)
    if z.real == 0.0:
        return DeltaRegion.REAL_AXIS_INFINITY
    # compare |Re| with |Im| rather than their squares, which can underflow
    if abs(z.real) > abs(z.imag):
        return DeltaRegion.ZERO
    return DeltaRegion.COMPLEX_INFINITY


@dataclass(frozen=True)
class RegularizedDelta:
    """Kernel of width sigma centered at a (possibly complex) point."""

    sigma: float
    center: complex = 0.0j

    def __post_init__(self):
        require_positive(self.sigma, "sigma")

    def __call__(self, x):
        return delta_kernel(np.asarray(x, dtype=complex) - self.center, self.sigma)


@dataclass(frozen=True)
class AnalyticTestFunction:
    """Closed family of entire test functions with exact continuation.

    Either a plain monomial x^n, or p(x) e^{-x^2 / (2 s^2)} with
    polynomial coefficients given lowest-degree first.  Calling the
    object with a complex argument evaluates the continuation directly.
    """

    family: str  # "monomial" | "gaussian_envelope"
    degree: int = 0
    scale: float = 1.0
    coeffs: tuple = (1.0,)

    @classmethod
    def monomial(cls, degree):
        if isinstance(degree, bool) or degree < 0 or int(degree) != degree:
            raise ValueError(f"degree must be a non-negative integer, got {degree}")
        return cls(family="monomial", degree=int(degree))

    @classmethod
    def gaussian_envelope(cls, scale, coeffs=(1.0,)):
        require_positive(scale, "scale")
        if math.isinf(float(scale) * float(scale)):
            raise ValueError(f"scale = {scale} is too large: its square overflows")
        return cls(family="gaussian_envelope", scale=float(scale),
                   coeffs=tuple(complex(c) for c in coeffs))

    def __call__(self, z):
        """f(z); a value that overflows comes back non-finite, for the caller's guard."""
        z = np.asarray(z, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.family == "monomial":
                out = z ** self.degree
            else:
                poly = np.zeros_like(z)
                for c in reversed(self.coeffs):
                    poly = poly * z + c
                out = poly * np.exp(-z * z / (2.0 * self.scale ** 2))
        return out if out.shape else complex(out)


def cancellation_factor(z0, sigma):
    """Growth exp(b^2 / 2 sigma^2) of the direct-route integrand, b = Im z0."""
    require_positive(sigma, "sigma")
    b = np.imag(z0)
    expo = b * b / (2.0 * sigma * sigma)
    return math.inf if expo > OVERFLOW_EXPONENT else math.exp(expo)


def delta_moment(n, z, sigma):
    """Closed-form moment of x^n against the kernel centered at z:

        sum over m of n! / (m! (n - 2m)!) * (sigma^2 / 2)^m * z^(n - 2m),

    which tends to z^n as sigma -> 0.  Raises OverflowError, naming n, z
    and sigma, when a power of z, a coefficient or the sum leaves double
    precision (a complex power that overflows may come back NaN, not raise).
    """
    n = require_order(n)
    require_positive(sigma, "sigma")
    z = complex(z)
    total = 0.0 + 0.0j
    try:
        for m in range(n // 2 + 1):
            log_coeff = (log_factorial(n) - log_factorial(m) - log_factorial(n - 2 * m)
                         + m * math.log(sigma * sigma / 2.0))
            total += math.exp(log_coeff) * z ** (n - 2 * m)
        if not cmath.isfinite(total) and cmath.isfinite(z):
            raise OverflowError
    except OverflowError:
        raise OverflowError(f"moment of order {n} at z = {z} with sigma = {sigma} "
                            f"overflows double precision") from None
    return total


def _check_window(quad, sigma, offset=0.0):
    """Warn when a window of `quad`'s halfwidth, its centre `offset` from the
    kernel's real centre, does not hold the kernel within 8 sigma of it."""
    if quad.halfwidth < 8.0 * sigma + abs(offset):
        off = f" + |Re z0 - center| = {abs(offset)}" if offset else ""
        warnings.warn(f"quadrature halfwidth {quad.halfwidth} < 8 sigma = {8 * sigma}{off}; "
                      "window truncates the regularized delta", stacklevel=3)


def _require_resolved(quad, sigma, low, high):
    """Raise FloatingPointError unless the nodes of `quad`, on windows centred
    at real points from `low` to `high`, resolve a kernel of width sigma: their
    spacing must not exceed sigma, and rounding at the windows' far edge may
    move a node by at most sqrt(eps) sigma, so that the sum keeps about half
    its digits."""
    require_positive(sigma, "sigma")
    rounding = float(np.spacing(max(abs(low), abs(high)) + quad.halfwidth))
    if not (quad.spacing <= sigma and rounding <= NODE_ROUNDING_TOL * sigma):
        raise FloatingPointError(
            f"sifting quadrature cannot resolve sigma = {sigma}: {quad.node_count} nodes on "
            f"[{low - quad.halfwidth:.6g}, {high + quad.halfwidth:.6g}] are "
            f"{quad.spacing:.3g} apart and rounded by up to {rounding:.3g}")


def sift(f, z0, sigma, quad):
    """Direct-route sifting: integral of f(x) * delta_kernel(x - z0, sigma)
    over the real axis.  Converges to f(z0) as sigma -> 0 with O(sigma^2)
    smoothing error.

    Monomials never go through raw quadrature (their decay is carried by
    the kernel alone, and the finite window cannot certify it); they are
    evaluated by the closed-form moment instead.  Other functions raise
    FloatingPointError when the nodes of `quad` cannot resolve sigma, and
    warn when its window does not hold Re z0 +- 8 sigma.
    """
    z0 = complex(z0)
    if f.family == "monomial":
        return delta_moment(f.degree, z0, sigma)
    _require_resolved(quad, sigma, quad.center, quad.center)
    _check_window(quad, sigma, z0.real - quad.center)
    if (factor := cancellation_factor(z0, sigma)) > CANCELLATION_WARN_FACTOR:
        warnings.warn(f"direct sifting at z0 = {z0} with sigma = {sigma} amplifies cancellation "
                      f"by {factor:.3e}; result digits unreliable", stacklevel=2)
    return quad_real_line(lambda x: f(x) * delta_kernel(x - z0, sigma), quad)


def sift_shifted_line(f, z0, sigma, quad):
    """Shifted-line sifting: integral of f(x + ib) * delta_kernel(x - a, sigma)
    with a = Re z0, b = Im z0.  The Gaussian weight is real, so there is
    no cancellation blow-up; analytically equal to sift(), and guarded by
    the same checks of the nodes and the window.
    """
    z0 = complex(z0)
    if f.family == "monomial":
        return delta_moment(f.degree, z0, sigma)
    _require_resolved(quad, sigma, quad.center, quad.center)
    _check_window(quad, sigma, z0.real - quad.center)
    a, b = z0.real, z0.imag
    return quad_real_line(lambda x: f(x + 1j * b) * delta_kernel(x - a, sigma), quad)


def sifting_axis(centers, sigma, quad):
    """Nodes x and weights w, each of shape (k, node_count), of the sifting
    axes of the k entries of the 1-d array `centers`: row i has `quad`'s
    halfwidth and node count centred at Re centers[i] (not at quad.center),
    each trapezoid weight times delta_kernel(x - centers[i], sigma), formed
    in place in w by `_kernel` (with its guard): memory is these two arrays.

    Raises FloatingPointError, as sift does, when the nodes cannot resolve
    sigma: a spacing above sigma, or rounding at max |Re center| + halfwidth
    above sqrt(eps) sigma.
    """
    centers = np.asarray(centers, dtype=complex)
    _require_resolved(quad, sigma, float(np.min(centers.real)), float(np.max(centers.real)))
    n = quad.node_count
    x = np.ascontiguousarray(np.linspace(centers.real - quad.halfwidth,
                                         centers.real + quad.halfwidth, n, axis=-1))
    w = _kernel(x - centers[:, None], sigma)
    # trapezoid weights 0.5 h and h, as trapezoid_weights(n, h) makes them
    w *= x[:, 1:2] - x[:, :1]
    w *= trapezoid_weights(n, 1.0)
    return x, w


def delta2_sift(f, z, sigma, quad):
    """Sifting against the regularized two-dimensional delta: the double
    integral of f(zeta_r, zeta_i) times a product of two real Gaussians
    of width sigma centered at (Re z, Im z).  f is a callable of two real
    array arguments; converges to f(Re z, Im z) as sigma -> 0.

    Both axes come from one sifting_axis call, at the two center
    coordinates, and share its resolution guard; f is evaluated on their
    node_count x node_count product grid.
    """
    z = complex(z)
    _check_window(quad, sigma)
    (xr, xi), (wr, wi) = sifting_axis([z.real, z.imag], sigma, quad)
    vals = np.broadcast_to(np.asarray(f(xr[:, None], xi[None, :]), dtype=complex),
                           (len(xr), len(xi)))
    with single_blas_thread():
        return complex(wr @ vals @ wi)
