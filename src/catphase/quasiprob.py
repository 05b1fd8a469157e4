"""Quasiprobability distributions of cat states: Q-function, Wigner
function, the four-term Glauber-Sudarshan representation, and the
Gaussian-convolution transforms between them.

Convention: the coherent amplitude relates to the quadratures by
alpha = (x + i p) / sqrt(2); `alpha_from_xp` and `xp_from_alpha` convert
between the two planes.

Every term kappa |gamma><beta| is one Gaussian with complex centres
(Cahill and Glauber's s-ordered family), evaluated in one place, `_sum_terms`:

    kappa <beta|gamma> / (pi t) e^{-(alpha - g gamma)(conj(alpha) - g conj(beta)) / t}.

The fields differ only in its width t and centre scale g:

    Q-function                      t = 1            g = 1
    regularized P of width sigma    t = 2 sigma^2    g = 1
    amplified Q at gain g           t = g^2          g
    amplified P at gain g           t = g^2 - 1      g

With alpha = x + i y the exponent separates into one Gaussian along each
axis, centred at the term's complex generalized-delta centres
c_r = (conj(beta) + gamma) / 2 and c_i = i (conj(beta) - gamma) / 2:

    kappa <beta|gamma> / (pi t) e^{-(x - g c_r)^2 / t} e^{-(y - g c_i)^2 / t},

the weight <beta|gamma> / (pi t) entering as its log, added to the exponents:
far apart, the overlap underflows and an axis factor alone overflows, while
the term is finite wherever its value is.

On a tensor grid (a `Grid2D`'s axes, or an array with Re alpha constant
along axis 1 and Im alpha along axis 0) the two factors are an (nx, 1)
column and a (1, ny) row, so a term costs nx + ny complex exps.  Stacking
the m terms' columns as C (nx, m) and rows as R (m, ny), their sum is C @ R,
whose real part is the one real product [Re C, Im C] @ [Re R; -Im R].
A conjugate pair sums to a real field (a cat's off-diagonal terms are such
a pair, a diagonal term its own partner); that product is then the sum.
`gaussian_terms` yields the terms as one-term sums.

The Wigner function is the s = 0 member of the same family.  For a number
state |n> it has Groenewold's closed form (-1)^n / pi e^{-r^2} L_n(2 r^2)
on the (x, p) plane, which `wigner_fock` evaluates by the Laguerre
recurrence; a cat's Wigner function is reached from its P-function by the
Gaussian convolution of `wigner_from_p`.

That convolution, and `q_from_wigner`'s, is (2/pi) kx @ V @ ky.T for the
axis kernels e^{-2 (x - x')^2} times the trapezoid weights.  Where it saves
flops an axis kernel is two factors, the kernel on ceil(16 L) + 12
Chebyshev points of the source's half-span L and the barycentric Lagrange
matrix from them to the source nodes: within 4e-15 of the exact product's
output maximum.  Elsewhere, as on 101-node axes of half-span above 2.375
and 201-node ones above 5.5, it keeps the exact matrix (`_axis_kernel`).
"""

import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .blas import single_blas_thread
from .numerics import chebyshev_lagrange, complex_from_pairs, dumps_with_pairs, hermite_poly, \
    loads_with_pairs, log_factorial, require_count, require_order, require_positive, \
    trapezoid_weights
from .states import coherent_overlap

IMAG_RESIDUE_TOL = 1e-12
_LOWEST = -np.finfo(float).max


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

    def log_weight(self, t):
        """log(<beta|gamma> / (pi t)), kappa aside, of the term's width-t Gaussian:
        finite where <beta|gamma> underflows; swapping beta and gamma conjugates it."""
        b, c = complex(self.beta), complex(self.gamma)
        return -math.log(math.pi * t) - (abs(b) ** 2 + abs(c) ** 2 - 2.0 * b.conjugate() * c) / 2.0


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
    """The (nx, 1) column of Re alpha and the (1, ny) row of Im alpha: an
    alpha Grid2D's axes (an (x, p) one raises ValueError), or those of a
    2-D tensor-grid array (Re alpha constant along axis 1, Im alpha along
    axis 0); else None.  A NaN cell equals nothing, so it never passes
    for a grid and reaches the guards through the pointwise path.
    """
    if isinstance(alpha, Grid2D):
        if alpha.axis_semantics != "alpha":
            raise ValueError("the fields need an alpha-plane grid, not an (x, p) one")
        return alpha.xs[:, None], alpha.ys[None, :]
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.ndim != 2 or not alpha.size:
        return None
    x, y = alpha.real[:, :1], alpha.imag[:1, :]
    return (x, y) if (alpha.real == x).all() and (alpha.imag == y).all() else None


def _axis_square(u, centre, out=None):
    """(u - centre)^2 into `out` (new if None), one axis's part of a term's exponent
    (module docstring), complex even for a real centre to take the other's in place."""
    d = np.subtract(u, complex(centre), out=out)
    d *= d
    return d


def _scale(z, factor):
    """z times a real factor in place, on its real view: in a complex product the
    factor's 0j would meet an overflowed square (|u| > 1.3e154) as inf * 0 = NaN."""
    parts = z.view(float)
    parts *= factor
    return z


def _axis_factors(rep, x, y, t, g):
    """The factored terms of `rep` on the tensor grid of column x (nx, 1)
    and row y (1, ny): columns C (nx, m), rows R (m, ny) and the m peaks,
    term k being the outer product C[:, k:k+1] * R[k:k+1] (module
    docstring).  The log weight is shared between the two exponents so
    that each factor peaks at the square root of the term's peak over
    |kappa|: a factor overflows only when its term's peak does.
    """
    cols = np.empty((x.shape[0], len(rep.terms)), dtype=complex)
    rows = np.empty((len(rep.terms), y.shape[1]), dtype=complex)
    peaks = np.empty(len(rep.terms))
    for k, term in enumerate(rep.terms):
        ex = _scale(_axis_square(x[:, 0], g * term.center_r), -1.0 / t)
        ey = _scale(_axis_square(y[0], g * term.center_i), -1.0 / t)
        # a top of -inf, where every square overflowed, is clamped to keep the shift finite
        top_x, top_y = ex.real.max(initial=_LOWEST), ey.real.max(initial=_LOWEST)
        log_w = term.log_weight(t)
        shift = (log_w + top_y - top_x) / 2.0
        # every step is conjugation-symmetric, so partners get exact conjugate factors;
        # kappa stays out of the log, so kappas an ulp apart do not (see _conjugate_paired)
        cols[:, k] = term.kappa * np.exp(ex + shift)
        rows[k] = np.exp(ey + (log_w - shift))
        peaks[k] = abs(term.kappa) * np.exp(log_w.real + top_x + top_y)
    return cols, rows, peaks


def _conjugate_paired(cols, rows):
    """True when the terms pair off into exact conjugates, column and row
    alike, a real term being its own partner: the imaginary parts of the
    partners' products then cancel exactly."""
    left = list(range(cols.shape[1]))
    while left:
        k = left.pop()
        col, row = np.conj(cols[:, k]), np.conj(rows[k])
        partner = next((j for j in left + [k]
                        if np.array_equal(cols[:, j], col) and np.array_equal(rows[j], row)),
                       None)
        if partner is None:
            return False
        if partner != k:
            left.remove(partner)
    return True


def _factor_sum(cols, rows, real):
    """Sum of the terms C[:, k:k+1] * R[k:k+1] as real products on one BLAS thread:

        Re = [Re C, Im C] @ [Re R; -Im R],    Im = [Re C, Im C] @ [Im R; Re R].

    Re is written into `real`, which is the sum, and the second product is
    skipped, when the terms pair off into exact conjugates, as every cat's
    terms do; else the sum is complex.
    """
    lhs = np.concatenate([cols.real, cols.imag], axis=1)
    paired = _conjugate_paired(cols, rows)
    with single_blas_thread():
        np.matmul(lhs, np.concatenate([rows.real, -rows.imag]), out=real)
        if paired:
            return real
        imag = lhs @ np.concatenate([rows.imag, rows.real])
    total = np.empty(real.shape, dtype=complex)
    total.real, total.imag = real, imag
    return total


def _sum_terms(rep, alpha, t, g=1.0):
    """Sum of the terms of `rep`, each the complex-centred Gaussian of width t
    and centre scale g (module docstring), and the sum of their peaks (max
    |term|): the one evaluator of the terms.  A real sum has an imaginary
    part of exactly 0 (a complex one may too).

    On a tensor grid `_factor_sum` gives the sum, into an array reserved
    first so that a grid too large to hold fails before its factors are
    built.  Elsewhere each term's exponents and log weight are summed in one
    buffer pair, reused across the terms, before one exp per point.  A term
    is non-finite only where its peak overflows; the guards refuse it.
    """
    axes = _tensor_axes(alpha)
    # overflow reaches the callers' guards as non-finite values
    with np.errstate(over="ignore", invalid="ignore"):
        if axes:
            real = np.empty((axes[0].shape[0], axes[1].shape[1]))
            cols, rows, peaks = _axis_factors(rep, *axes, t, g)
            return _factor_sum(cols, rows, real), sum(peaks)
        points = np.atleast_1d(np.asarray(alpha, dtype=complex))
        total, ex, ey = (np.zeros(points.shape, dtype=complex) for _ in range(3))
        peak_sum = 0.0
        for term in rep.terms:
            _axis_square(points.real, g * term.center_r, ex)
            ex += _axis_square(points.imag, g * term.center_i, ey)
            _scale(ex, -1.0 / t)
            ex += term.log_weight(t)
            peak_sum += abs(term.kappa) * np.exp(np.max(ex.real, initial=-np.inf))
            np.exp(ex, out=ex)
            ex *= term.kappa
            total += ex
    return total.reshape(np.shape(alpha)), peak_sum


def gaussian_terms(rep, alpha, t, g=1.0):
    """Each term of `rep` as its one-term `_sum_terms`, yielded in order as
    (values, peak) pairs, peak = max |values|.  On a tensor grid a term
    that is its own conjugate (a diagonal one) comes back real."""
    for term in rep.terms:
        yield _sum_terms(PRepresentation((term,)), alpha, t, g)


def _require_finite(values, what):
    bad = np.size(values) - np.count_nonzero(np.isfinite(values))
    if bad:
        raise FloatingPointError(f"{what}: {bad} of {np.size(values)} values are not finite")


def _hermitian_sum(rep, alpha, t, g, what):
    """Real field of a Hermitian `rep`: the real part of the sum of its
    gaussian_terms, behind the one numeric guard of the real fields.
    Partner terms cancel each other's imaginary parts exactly (on a tensor
    grid the sum is then real), so the residue cannot show lost digits;
    eps times the sum of the term peaks bounds the rounding.  Raises
    FloatingPointError when that bound or the residue exceeds
    IMAG_RESIDUE_TOL, or a value is not finite.
    """
    total, peaks = _sum_terms(rep, alpha, t, g)
    rounding = np.finfo(float).eps * peaks
    residue = np.max(np.abs(total.imag), initial=0.0) if np.iscomplexobj(total) else 0.0
    if not (rounding <= IMAG_RESIDUE_TOL and residue <= IMAG_RESIDUE_TOL):
        raise FloatingPointError(
            f"{what}: term peaks sum to {peaks:.3e}, so rounding reaches {rounding:.3e} "
            f"(imaginary residue {residue:.3e}); tolerance {IMAG_RESIDUE_TOL}")
    # a real sum is returned as it is; the real part of a complex one is
    # copied, since a view would keep the complex sum alive
    out = np.require(total.real, requirements=["C", "O"])
    _require_finite(out, what)
    return out if out.shape else float(out)


def q_function(spec, alpha):
    """Husimi Q-function (1/pi) <alpha|rho|alpha> of a cat state.

    Accepts a complex scalar or array, or an alpha Grid2D; the result is
    real and nonnegative, guarded by _hermitian_sum.
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
    total = _sum_terms(rep, alpha, 2.0 * sigma * sigma)[0]
    _require_finite(total, f"regularized P at sigma = {sigma}")
    return np.asarray(total, dtype=complex) if total.shape else complex(total)


# ---------------------------------------------------------------------------
# grids

_AXIS_SEMANTICS = ("alpha", "xp")


def opened(target, mode="r"):
    """Context manager for a path or a stream: a path is opened in `mode`
    and closed on exit; a stream is yielded unchanged and left open."""
    return open(target, mode) if isinstance(target, (str, bytes)) else nullcontext(target)


def _distinct_nodes(grid):
    """True when each axis's nodes strictly increase.  Grid2D does not check
    it, since library callers build grids on every call; a grid whose nodes
    round together reads back from CSV as a smaller one."""
    return all((np.diff(nodes) > 0).all() for nodes in (grid.xs, grid.ys))


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
        self.nx, self.ny = require_count(self.nx, "nx", 2), require_count(self.ny, "ny", 2)
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max)
        spans = (float(self.x_max) - float(self.x_min), float(self.y_max) - float(self.y_min))
        if not all(map(math.isfinite, bounds + spans)):
            raise ValueError(f"bounds and the spans between them must be finite, got {bounds}")
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

    def integrate(self):
        """2D trapezoid integral of the field over the rectangle."""
        wx = trapezoid_weights(self.nx, self.dx)
        wy = trapezoid_weights(self.ny, self.dy)
        with single_blas_thread():
            return complex(wx @ self.values @ wy)

    # -- serialization ------------------------------------------------------

    def to_csv(self, stream, meta=None):
        """Header `x,y,re,im`, one row per point, '#'-prefixed metadata lines.

        Each axis is formatted once; the file is written one grid row (one
        x) at a time, so memory beyond the grid is bounded by one row.
        Raises ValueError, before the stream is opened, when an axis's nodes
        round together: `from_csv` would read the rows back as a smaller grid."""
        if not _distinct_nodes(self):
            raise ValueError(f"the {self.nx} x {self.ny} nodes of bounds "
                             f"{[self.x_min, self.x_max, self.y_min, self.y_max]} are not distinct")
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

    def json_chunks(self, meta=None):
        """The text of `to_json(meta)` in chunks, one grid row of values at a
        time, so a writer holds one row's text beyond the grid."""
        return dumps_with_pairs({
            "meta": meta or {},
            "axes": {"x_min": self.x_min, "x_max": self.x_max,
                     "y_min": self.y_min, "y_max": self.y_max,
                     "semantics": self.axis_semantics},
            "nx": self.nx, "ny": self.ny,
        }, "values", self.values)

    def to_json(self, meta=None):
        return "".join(self.json_chunks(meta))

    @classmethod
    def from_json(cls, text):
        data = loads_with_pairs(text, "values")
        ax = data["axes"]
        flat = complex_from_pairs(data["values"])
        # sizes are checked before numpy reshapes by them
        nx, ny = require_count(data["nx"], "nx", 2), require_count(data["ny"], "ny", 2)
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
    with np.errstate(over="ignore"):
        u = 2.0 * np.add.outer(np.square(grid.xs), np.square(grid.ys))
    # e^{-u/2} L_k(u) obeys the same recurrence; starting from the Gaussian keeps far
    # cells at 0 where L_n alone would overflow to inf * 0, and so does clamping u where
    # it overflows (|x| or |p| beyond ~1.3e154), where (2k + 1 - u) * 0 would be NaN
    np.minimum(u, np.finfo(float).max, out=u)
    w_prev, w = 0.0, np.exp(-0.5 * u)
    for k in range(n):
        w, w_prev = ((2 * k + 1 - u) * w - k * w_prev) / (k + 1), w
    return grid.like(values=((-1) ** n / math.pi) * w)


# ---------------------------------------------------------------------------
# Gaussian-convolution transforms

def _axis_kernel(out_axis, src_axis, weights):
    """The factors of one axis of the separable convolution: real matrices
    whose product is the (out, src) matrix e^{-2 (out - src)^2} times the
    source's trapezoid weights.

    Factored case, (A, B): A = e^{-2 (out - c_k)^2} on the m first-kind
    Chebyshev points c_k of the source axis's span, and B the barycentric
    Lagrange matrix from those points to the source nodes
    (`chebyshev_lagrange`) times the weights.  This is the interpolation of
    Greengard and Strain's fast Gauss transform (SIAM J. Sci. Stat. Comput.
    12, 79 (1991)).  m = ceil(16 L) + 12 points for the
    half-span L keep A @ B within 2.5e-15 of the kernel's peak at L = 2..32,
    about its rounding floor.  Exact case, (K,): the one matrix, wherever
    applying A and B costs at least the flops of applying K, m (out + src)
    >= out src: on square grids, half-spans above 2.375 at 101 nodes, 5.5 at
    201 and 11.75 at 401.
    """
    n_out, n_src = len(out_axis), len(src_axis)
    m = math.ceil(min(16.0 * (src_axis[-1] - src_axis[0]) / 2.0, n_src)) + 12
    if m * (n_out + n_src) >= n_out * n_src:
        return (np.exp(-2.0 * np.subtract.outer(out_axis, src_axis) ** 2) * weights,)
    points, lagrange = chebyshev_lagrange(src_axis, m)
    return np.exp(-2.0 * np.subtract.outer(out_axis, points) ** 2), lagrange.T * weights


def _gaussian_convolve(src, out_grid, method="separable"):
    """(2/pi) * double integral of src(beta) e^{-2 |alpha - beta|^2} d2beta,
    sampled on out_grid.  The kernel is separable, so the trapezoid sum
    factors into one chain of matrix products; the `direct` method performs
    the same sum without factoring and exists as a cross-check.  It stays
    until the benchmark tracer, which binds `method` to count the
    convolution's flops, stops reading it; the branch can then move into
    the tests as an oracle.

    The separable method works in real arithmetic.  Each axis's kernel is
    one real matrix or, where that costs fewer flops, two low-rank factors
    through Chebyshev points (`_axis_kernel`), within 4e-15 of the exact
    matrix's output maximum at half-spans 2..16 and 61..801 nodes; the chain
    kx @ . @ ky.T runs over whatever the kernels are, in the cheapest order
    (`np.linalg.multi_dot`).  One kernel serves both axes when the two grids
    are square (equal x and y axes on each side).  The real part of the
    field runs through the chain; the imaginary part runs through it only
    when it has a nonzero (or NaN) cell; the real fields the library
    convolves have an imaginary part of exactly 0, and then the output's is
    exactly 0 too.  The products run on one BLAS thread (see catphase.blas),
    so their time does not hang on a second core being free.
    """
    if method == "direct":
        wx = trapezoid_weights(src.nx, src.dx)
        wy = trapezoid_weights(src.ny, src.dy)
        dx_out = np.subtract.outer(out_grid.xs, src.xs)
        dy_out = np.subtract.outer(out_grid.ys, src.ys)
        weighted = src.values * np.outer(wx, wy)
        vals = np.empty((out_grid.nx, out_grid.ny), dtype=complex)
        for i in range(out_grid.nx):
            for j in range(out_grid.ny):
                kern = np.exp(-2.0 * (dx_out[i][:, None] ** 2 + dy_out[j][None, :] ** 2))
                vals[i, j] = (2.0 / math.pi) * np.sum(weighted * kern)
        return out_grid.like(values=vals)
    if method != "separable":
        raise ValueError(f"unknown method {method!r}")
    values = src.values
    kx = _axis_kernel(out_grid.xs, src.xs, trapezoid_weights(src.nx, src.dx))
    square = all((g.x_min, g.x_max, g.nx) == (g.y_min, g.y_max, g.ny) for g in (src, out_grid))
    ky = kx if square else _axis_kernel(out_grid.ys, src.ys, trapezoid_weights(src.ny, src.dy))

    def chain(part):
        return np.linalg.multi_dot([*kx, part, *(f.T for f in reversed(ky))])

    vals = np.empty((out_grid.nx, out_grid.ny), dtype=complex)
    with single_blas_thread():
        vals.real = chain(values.real)
        # NaN is nonzero, so a NaN imaginary cell still reaches the output
        vals.imag = chain(values.imag) if values.imag.any() else 0.0
    return out_grid.like(values=_scale(vals, 2.0 / math.pi))


def p_representation_grid(rep, sigma, grid):
    """Sample the regularized P-function of `rep` on an alpha-plane grid,
    warning when sigma is too small for the grid spacing to resolve."""
    if sigma < 2.0 * max(grid.dx, grid.dy):
        warnings.warn(f"P width sigma = {sigma} below 2 grid spacings "
                      f"({grid.dx:.3g}, {grid.dy:.3g}); field is aliased", stacklevel=2)
    return grid.like(values=p_regularized_eval(rep, sigma, grid))


def wigner_from_p(p_field, grid):
    """Wigner function on `grid` from a P field sampled on a Grid2D, by
    Gaussian convolution: a width-t term comes out at width t + 1/2.  A
    PRepresentation is sampled first, by p_representation_grid."""
    return _gaussian_convolve(p_field, grid)


def q_from_wigner(w_field, grid):
    """Q-function on `grid` from a Wigner field sampled on a Grid2D, by the
    same Gaussian convolution."""
    return _gaussian_convolve(w_field, grid)
