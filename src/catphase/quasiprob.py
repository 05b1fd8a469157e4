"""Quasiprobability distributions of cat states: Q-function, Wigner
function, the four-term Glauber-Sudarshan representation, and the
Gaussian-convolution transforms between them.

Convention: the coherent amplitude relates to the quadratures by
alpha = (x + i p) / sqrt(2); `alpha_from_xp` and `xp_from_alpha` convert
between the two planes.

Every term kappa |gamma><beta| is one Gaussian with complex centres
(Cahill and Glauber's s-ordered family), evaluated by `gaussian_terms`:

    kappa <beta|gamma> / (pi t) e^{-(alpha - g gamma)(conj(alpha) - g conj(beta)) / t}.

The fields differ only in its width t and centre scale g:

    Q-function                      t = 1            g = 1
    regularized P of width sigma    t = 2 sigma^2    g = 1
    amplified Q at gain g           t = g^2          g
    amplified P at gain g           t = g^2 - 1      g

With alpha = x + i y the exponent separates into one Gaussian along each
axis, centred at the term's complex generalized-delta centres
c_r = (conj(beta) + gamma) / 2 and c_i = i (conj(beta) - gamma) / 2:

    kappa <beta|gamma> / (pi t) e^{-(x - g c_r)^2 / t} e^{-(y - g c_i)^2 / t}.

On a tensor grid (Re alpha constant along axis 1, Im alpha along axis 0,
as `Grid2D.plane` builds it) the two factors are an (nx, 1) column and
a (1, ny) row, so a term costs nx + ny complex exps and one outer product.

The Wigner function is the s = 0 member of the same family.  For a number
state |n> it has Groenewold's closed form (-1)^n / pi e^{-r^2} L_n(2 r^2)
on the (x, p) plane, which `wigner_fock` evaluates by the Laguerre
recurrence; a cat's Wigner function is reached from its P-function by the
Gaussian convolution of `wigner_from_p`.
"""

import json
import math
import numbers
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .gendelta import min_safe_sigma
from .numerics import complex_from_pairs, complex_pairs, hermite_poly, log_factorial, \
    require_order, require_positive, trapezoid_weights
from .states import coherent_overlap

IMAG_RESIDUE_TOL = 1e-12


def alpha_from_xp(x, p):
    return (x + 1j * p) / math.sqrt(2.0)


def xp_from_alpha(alpha):
    alpha = np.asarray(alpha, dtype=complex)
    return math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag


@dataclass(frozen=True)
class PTerm:
    """One |gamma><beta| component of a density operator, weight kappa.

    The generalized-delta centers of the corresponding P-representation
    term are (conj(beta) + gamma) / 2 on the real-part axis and
    i (conj(beta) - gamma) / 2 on the imaginary-part axis; both are real
    exactly when beta = gamma (the diagonal case).
    """

    kappa: complex
    beta: complex
    gamma: complex

    @property
    def is_diagonal(self):
        return bool(np.isclose(self.beta, self.gamma, rtol=0.0, atol=1e-14))

    @property
    def kind(self):
        return "diagonal" if self.is_diagonal else "off_diagonal"

    @property
    def center_r(self):
        return (np.conj(self.beta) + self.gamma) / 2.0

    @property
    def center_i(self):
        return 1j * (np.conj(self.beta) - self.gamma) / 2.0

    @property
    def weight(self):
        """kappa <beta|gamma>, the coefficient carried into the P-function."""
        return self.kappa * coherent_overlap(self.beta, self.gamma)


@dataclass(frozen=True)
class PRepresentation:
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


def p_cat_terms(spec):
    """Four-term P-representation of a cat state.

    Diagonal weights A^2 and A^2 |zeta|^2 sit at the two amplitudes; the
    conjugate pair of off-diagonal terms carries A^2 zeta and
    A^2 conj(zeta) with complex centers.
    """
    a_sq = spec.norm_A ** 2
    z = spec.zeta
    terms = (
        PTerm(kappa=a_sq, beta=spec.alpha1, gamma=spec.alpha1),
        PTerm(kappa=a_sq * abs(z) ** 2, beta=spec.alpha2, gamma=spec.alpha2),
        PTerm(kappa=a_sq * z, beta=spec.alpha1, gamma=spec.alpha2),
        PTerm(kappa=a_sq * np.conj(z), beta=spec.alpha2, gamma=spec.alpha1),
    )
    # zeta = 0 collapses the state to a single coherent projector
    return PRepresentation(terms=tuple(t for t in terms if t.kappa != 0))


def _tensor_axes(alpha):
    """The (nx, 1) column of Re alpha and the (1, ny) row of Im alpha when
    alpha is a 2-D tensor grid (Re alpha constant along axis 1, Im alpha
    along axis 0), else None.  A NaN cell equals nothing, so it never
    passes for a grid and reaches the guards through the pointwise path.
    """
    if alpha.ndim != 2 or not alpha.size:
        return None
    x, y = alpha.real[:, :1], alpha.imag[:1, :]
    if (alpha.real == x).all() and (alpha.imag == y).all():
        return x, y
    return None


def gaussian_terms(rep, alpha, t, g=1.0):
    """Each term of `rep` as the complex-centred Gaussian of width t and
    centre scale g (module docstring), yielded in order as (values, peak)
    pairs, peak = max |values|.

    Each term is evaluated in its factored form, one Gaussian along Re alpha
    times one along Im alpha.  On a tensor grid the factors are a column
    and a row whose outer product is the term, and the peak is read off the
    largest real exponent of each; any other alpha (scalars, scattered
    points, "xy" meshgrids) sums the two exponents before one exp per point.
    """
    alpha = np.asarray(alpha, dtype=complex)
    axes = _tensor_axes(alpha)
    x, y = axes if axes else (alpha.real, alpha.imag)
    for term in rep.terms:
        # conjugate partners have conjugate centres and weights, and every
        # step below is conjugation-symmetric, so they come out as exact
        # conjugates; complex() keeps a real centre from leaving ex a float
        # array that cannot take ey in place
        ex = x - complex(g * term.center_r)
        ex *= ex
        ey = y - complex(g * term.center_i)
        ey *= ey
        scale = term.weight / (math.pi * t)
        if axes:
            ex /= -t
            ey /= -t
            values = scale * np.exp(ex) * np.exp(ey)
            top = np.max(ex.real) + np.max(ey.real)
        else:
            ex += ey
            ex /= -t
            top = np.max(ex.real, initial=-np.inf)
            values = np.exp(ex)
            values *= scale
        yield values, float(abs(scale) * np.exp(top))
        del values  # once the caller drops it, this term is freed before the next


def _sum_terms(rep, alpha, t, g=1.0):
    """Sum of gaussian_terms and the sum of their peaks."""
    total = np.zeros(np.shape(alpha), dtype=complex)
    peaks = 0.0
    # overflow reaches the callers' guards as non-finite values; the errstate
    # stays out of the generator, where it would leak while it is suspended
    with np.errstate(over="ignore", invalid="ignore"):
        for values, peak in gaussian_terms(rep, alpha, t, g):
            total += values
            del values  # so only one term is alive while the next is built
            peaks += peak
    return total, peaks


def _require_finite(values, what):
    bad = np.size(values) - np.count_nonzero(np.isfinite(values))
    if bad:
        raise FloatingPointError(f"{what}: {bad} of {np.size(values)} values are not finite")


def _hermitian_sum(rep, alpha, t, g, what):
    """Real field of a Hermitian `rep`: the sum of its gaussian_terms,
    behind the one numeric guard of the real fields.  Partner terms cancel
    each other's imaginary parts exactly, so the residue cannot show lost
    digits; eps times the sum of the term peaks bounds the rounding.  Raises
    FloatingPointError when that bound or the residue exceeds
    IMAG_RESIDUE_TOL, or a value is not finite.
    """
    total, peaks = _sum_terms(rep, alpha, t, g)
    rounding = np.finfo(float).eps * peaks
    residue = np.max(np.abs(total.imag), initial=0.0)
    if not (rounding <= IMAG_RESIDUE_TOL and residue <= IMAG_RESIDUE_TOL):
        raise FloatingPointError(
            f"{what}: term peaks sum to {peaks:.3e}, so rounding reaches {rounding:.3e} "
            f"(imaginary residue {residue:.3e}); tolerance {IMAG_RESIDUE_TOL}")
    out = total.real.copy()  # contiguous, and frees the complex sum
    _require_finite(out, what)
    return out if out.shape else float(out)


def q_function(spec, alpha):
    """Husimi Q-function (1/pi) <alpha|rho|alpha> of a cat state.

    Accepts a complex scalar or array; the result is real and
    nonnegative, guarded by _hermitian_sum.
    """
    return _hermitian_sum(p_cat_terms(spec), alpha, 1.0, 1.0, "Q-function")


def q_fourier_term(term, xi):
    """Fourier transform of one Q-function term at conjugate variable xi:

        kappa <beta|gamma> e^{-|xi|^2/4}
            e^{-i (conj(beta) + gamma) xi_r / 2} e^{(conj(beta) - gamma) xi_i / 2}.
    """
    xi = np.asarray(xi, dtype=complex)
    xr, xi_i = xi.real, xi.imag
    bc = np.conj(term.beta)
    out = (term.weight * np.exp(-np.abs(xi) ** 2 / 4.0)
           * np.exp(-0.5j * (bc + term.gamma) * xr)
           * np.exp(0.5 * (bc - term.gamma) * xi_i))
    return out if out.shape else complex(out)


def p_regularized_eval(rep, sigma, alpha):
    """Regularized P-function: each term contributes its weight times a
    width-sigma Gaussian at the term's (possibly complex) centers, the
    t = 2 sigma^2 row of the module table.  Complex-valued in general for
    off-diagonal terms; raises FloatingPointError when a value overflows.
    """
    require_positive(sigma, "sigma")
    total, _ = _sum_terms(rep, alpha, 2.0 * sigma * sigma)
    need = max((min_safe_sigma(c) for term in rep.terms
                for c in (term.center_r, term.center_i)), default=0.0)
    _require_finite(total, f"regularized P at sigma = {sigma} (need sigma >= {need:.6g})")
    return total if total.shape else complex(total)


# ---------------------------------------------------------------------------
# grids

_AXIS_SEMANTICS = ("alpha", "xp")


def opened(target, mode="r"):
    """Context manager for a path or a stream: a path is opened in `mode`
    and closed on exit; a stream is yielded unchanged and left open."""
    return open(target, mode) if isinstance(target, (str, bytes)) else nullcontext(target)


def _require_size(n, name):
    """n as the node count of a grid axis: an integer >= 2, else ValueError."""
    if not (isinstance(n, numbers.Integral) and n >= 2):
        raise ValueError(f"{name} must be an integer >= 2, got {n!r}")
    return n


@dataclass
class Grid2D:
    """Uniformly sampled complex field over a rectangle.

    values[i, j] is the sample at (xs[i], ys[j]).  axis_semantics records
    whether the axes are (Re alpha, Im alpha) or the (x, p) quadratures.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    values: np.ndarray = None
    axis_semantics: str = "alpha"

    def __post_init__(self):
        _require_size(self.nx, "nx")
        _require_size(self.ny, "ny")
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"bounds must be finite, got {bounds}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"bounds must satisfy x_min < x_max and y_min < y_max, got "
                f"x [{self.x_min}, {self.x_max}], y [{self.y_min}, {self.y_max}]")
        if self.axis_semantics not in _AXIS_SEMANTICS:
            raise ValueError(f"axis_semantics must be one of {_AXIS_SEMANTICS}")
        if self.values is None:
            self.values = np.zeros((self.nx, self.ny), dtype=complex)
        else:
            self.values = np.asarray(self.values, dtype=complex)
            if self.values.shape != (self.nx, self.ny):
                raise ValueError(
                    f"values shape {self.values.shape} != {(self.nx, self.ny)}")

    @property
    def xs(self):
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def ys(self):
        return np.linspace(self.y_min, self.y_max, self.ny)

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dy(self):
        return (self.y_max - self.y_min) / (self.ny - 1)

    def meshgrid(self):
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    def like(self, values=None):
        return Grid2D(self.x_min, self.x_max, self.y_min, self.y_max,
                      self.nx, self.ny, values=values,
                      axis_semantics=self.axis_semantics)

    def plane(self):
        """The alpha = x + i y value of every cell, built in one pass."""
        return self.xs[:, None] + 1j * self.ys

    def integrate(self):
        """2D trapezoid integral of the field over the rectangle."""
        wx = trapezoid_weights(self.nx, self.dx)
        wy = trapezoid_weights(self.ny, self.dy)
        return complex(wx @ self.values @ wy)

    # -- serialization ------------------------------------------------------

    def to_csv(self, stream, meta=None):
        """Header `x,y,re,im`, one row per point, '#'-prefixed metadata lines.

        Each axis is formatted once; the file is written one grid row (one
        x) at a time, so memory beyond the grid is bounded by one row."""
        with opened(stream, "w") as out:
            for line in (meta or []):
                out.write(f"# {line}\n")
            out.write("x,y,re,im\n")
            ys = [f",{y!r}," for y in self.ys.tolist()]
            for x, row in zip(map(repr, self.xs.tolist()), self.values):
                re = map(repr, row.real.tolist())
                im = map(repr, row.imag.tolist())
                out.write("".join([f"{x}{y}{r},{i}\n" for y, r, i in zip(ys, re, im)]))

    @classmethod
    def from_csv(cls, stream, axis_semantics="alpha"):
        """Inverse of `to_csv`: rows may come in any order, but every
        (x, y) cell of the rectangle must appear exactly once."""
        with opened(stream) as lines, warnings.catch_warnings():
            # an empty file is reported below as 0 rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(
                (line for line in lines if not line.lstrip().startswith("x,")),
                delimiter=",", comments="#", ndmin=2)
        if len(rows) and rows.shape[1] != 4:
            raise ValueError(f"rows have {rows.shape[1]} fields, expected 4 (x,y,re,im)")
        rows = rows.reshape(-1, 4)  # an empty file loads as shape (0, 1)
        xs, xi = np.unique(rows[:, 0], return_inverse=True)
        ys, yi = np.unique(rows[:, 1], return_inverse=True)
        values = np.zeros((len(xs), len(ys)), dtype=complex)
        values.real[xi, yi] = rows[:, 2]
        values.imag[xi, yi] = rows[:, 3]
        filled = np.zeros(values.shape, dtype=bool)
        filled[xi, yi] = True
        # a missing or repeated (x, y) would leave a cell a silent zero;
        # a file without data rows is no grid
        if not len(rows) or len(rows) != filled.size or not filled.all():
            raise ValueError(f"{len(rows)} rows do not fill a {len(xs)} x {len(ys)} grid")
        grid = cls(float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1]),
                   len(xs), len(ys), values=values, axis_semantics=axis_semantics)
        # cells sampled off the evenly spaced nodes would be relabelled onto them
        if not (np.array_equal(xs, grid.xs) and np.array_equal(ys, grid.ys)):
            raise ValueError(f"x and y values are not the evenly spaced nodes of a "
                             f"{len(xs)} x {len(ys)} grid")
        return grid

    def to_json(self, meta=None):
        return json.dumps({
            "meta": meta or {},
            "axes": {"x_min": self.x_min, "x_max": self.x_max,
                     "y_min": self.y_min, "y_max": self.y_max,
                     "semantics": self.axis_semantics},
            "nx": self.nx, "ny": self.ny,
            "values": complex_pairs(self.values),
        })

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        ax = data["axes"]
        flat = complex_from_pairs(data["values"])
        # sizes are checked before numpy reshapes by them
        nx, ny = _require_size(data["nx"], "nx"), _require_size(data["ny"], "ny")
        return cls(ax["x_min"], ax["x_max"], ax["y_min"], ax["y_max"], nx, ny,
                   values=flat.reshape(nx, ny), axis_semantics=ax.get("semantics", "alpha"))


# ---------------------------------------------------------------------------
# Wigner functions

def fock_wavefunction(n, x):
    """Dimensionless position wavefunction of the n-photon state:
    pi^{-1/4} (2^n n!)^{-1/2} H_n(x) e^{-x^2/2}."""
    x = np.asarray(x, dtype=float)
    log_norm = -0.25 * math.log(math.pi) - 0.5 * (n * math.log(2.0) + log_factorial(n))
    return math.exp(log_norm) * np.real(hermite_poly(n, x)) * np.exp(-0.5 * x * x)


def wigner_fock(n, grid, q_halfwidth=10.0, q_nodes=2001):
    """Wigner function of the number state |n> on an (x, p) grid, in
    Groenewold's closed form (Physica 12, 405 (1946)):

        W_n(x, p) = (-1)^n / pi * e^{-r^2} L_n(2 r^2),   r^2 = x^2 + p^2,

    with the Laguerre polynomial L_n built by its three-term recurrence.
    The values are real, so the imaginary part is exactly 0.  n must be an
    integer in [0, HERMITE_N_MAX]; a grid not reaching |x|, |p| >=
    2 sqrt(n) + 4 misses part of the state and draws a warning.

    `q_halfwidth` and `q_nodes` are unused.  They are the shift-variable
    quadrature's window, kept in the signature only until the benchmark
    tracer, which binds `q_nodes`, stops reading them.
    """
    if grid.axis_semantics != "xp":
        raise ValueError("wigner_fock requires an XP-quadrature grid")
    n = require_order(n)
    reach = 2.0 * math.sqrt(n) + 4.0
    if max(abs(grid.x_min), grid.x_max) < reach or max(abs(grid.y_min), grid.y_max) < reach:
        warnings.warn(f"grid extent below the recommended |x|,|p| >= {reach:.2f} "
                      f"for n = {n}", stacklevel=2)
    xs, ps = grid.xs, grid.ys
    u = 2.0 * np.add.outer(xs * xs, ps * ps)
    # e^{-u/2} L_k(u) obeys the same recurrence; starting from the Gaussian
    # keeps far cells at 0 where L_n alone would overflow to inf * 0
    w_prev, w = 0.0, np.exp(-0.5 * u)
    for k in range(n):
        w, w_prev = ((2 * k + 1 - u) * w - k * w_prev) / (k + 1), w
    return grid.like(values=((-1) ** n / math.pi) * w)


# ---------------------------------------------------------------------------
# Gaussian-convolution transforms

def _gaussian_convolve(src, out_grid, method="separable"):
    """(2/pi) * double integral of src(beta) e^{-2 |alpha - beta|^2} d2beta,
    sampled on out_grid.  The kernel is separable, so the trapezoid sum
    factors into two matrix products; the `direct` method performs the
    same sum without factoring and exists as a cross-check.
    """
    wx = trapezoid_weights(src.nx, src.dx)
    wy = trapezoid_weights(src.ny, src.dy)
    dx_out = np.subtract.outer(out_grid.xs, src.xs)
    dy_out = np.subtract.outer(out_grid.ys, src.ys)
    if method == "separable":
        kx = np.exp(-2.0 * dx_out ** 2) * wx[None, :]
        ky = np.exp(-2.0 * dy_out ** 2) * wy[None, :]
        vals = (2.0 / math.pi) * (kx @ src.values @ ky.T)
    elif method == "direct":
        weighted = src.values * np.outer(wx, wy)
        vals = np.empty((out_grid.nx, out_grid.ny), dtype=complex)
        for i in range(out_grid.nx):
            for j in range(out_grid.ny):
                kern = np.exp(-2.0 * (dx_out[i][:, None] ** 2 + dy_out[j][None, :] ** 2))
                vals[i, j] = (2.0 / math.pi) * np.sum(weighted * kern)
    else:
        raise ValueError(f"unknown method {method!r}")
    return out_grid.like(values=vals)


def p_representation_grid(rep, sigma, grid):
    """Sample the regularized P-function of `rep` on an alpha-plane grid,
    warning when sigma is too small for the grid spacing to resolve."""
    if sigma < 2.0 * max(grid.dx, grid.dy):
        warnings.warn(f"P width sigma = {sigma} below 2 grid spacings "
                      f"({grid.dx:.3g}, {grid.dy:.3g}); field is aliased", stacklevel=2)
    return grid.like(values=p_regularized_eval(rep, sigma, grid.plane()))


def wigner_from_p(p_field, grid):
    """Wigner function on `grid` from a P field sampled on a Grid2D, by
    Gaussian convolution: a width-t term comes out at width t + 1/2.  A
    PRepresentation is sampled first, by p_representation_grid."""
    return _gaussian_convolve(p_field, grid)


def q_from_wigner(w_field, grid):
    """Q-function on `grid` from a Wigner field sampled on a Grid2D, by the
    same Gaussian convolution."""
    return _gaussian_convolve(w_field, grid)
