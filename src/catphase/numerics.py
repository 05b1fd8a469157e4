"""Shared numerical kernels: Hermite polynomials, Gaussian moment
integrals, fixed-node quadrature and Chebyshev interpolation on the real
line.

All routines are pure functions of their arguments and accept complex
inputs wherever that makes sense.
"""

import cmath
import json
import math
import numbers
import re
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
        object.__setattr__(self, "node_count", require_count(self.node_count, "node_count", 2))

    @property
    def nodes(self):
        return np.linspace(self.center - self.halfwidth,
                           self.center + self.halfwidth, self.node_count)

    @property
    def spacing(self):
        return 2.0 * self.halfwidth / (self.node_count - 1)

    @property
    def weights(self):
        return trapezoid_weights(self.node_count, self.spacing)


def trapezoid_weights(n, h):
    """Composite trapezoid weights for n uniform nodes of spacing h."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def chebyshev_lagrange(nodes, m):
    """The m first-kind Chebyshev points spanning the increasing `nodes`, and
    the (nodes, m) barycentric Lagrange matrix from them to the nodes (Berrut
    and Trefethen, SIAM Review 46, 501 (2004)): row j interpolates at nodes[j]
    from values at the points."""
    half = (nodes[-1] - nodes[0]) / 2.0
    theta = (np.arange(m) + 0.5) * (math.pi / m)
    points = nodes[0] + half * (1.0 + np.cos(theta))
    # gaps to the rounded points, in half-spans: no nonzero gap is small enough
    # for its reciprocal to overflow
    gap = np.subtract.outer(nodes, points) / half
    hit = gap == 0.0
    gap[hit] = 1.0
    lagrange = (-1.0) ** np.arange(m) * np.sin(theta) / gap
    lagrange /= lagrange.sum(axis=1, keepdims=True)
    # a node on a point takes that point's value alone
    on_point = hit.any(axis=1)
    lagrange[on_point] = hit[on_point]
    return points, lagrange


def complex_pairs(values):
    """The JSON form of a complex array: its [re, im] float pairs in C order."""
    v = np.asarray(values, dtype=complex).ravel()
    return np.stack([v.real, v.imag], -1).tolist()


def complex_from_pairs(pairs):
    """Inverse of complex_pairs: a flat complex array, or ValueError unless
    `pairs` is a list of [re, im] pairs of numbers (a bool is no number) or
    an (n, 2) array of them."""
    arr = np.asarray(pairs)
    if (arr.dtype.kind not in "iuf" or arr.shape[1:] != (2,) or (
            not isinstance(pairs, np.ndarray)
            and any(isinstance(x, bool) for pair in pairs for x in pair))):
        raise ValueError(f"not [re, im] number pairs: {arr.dtype} array of shape {arr.shape}")
    return arr.astype(float).view(complex).ravel()


def dumps_with_pairs(doc, key, values):
    """The text of json.dumps({**doc, key: complex_pairs(values)}), byte for
    byte, in chunks: the head, then the pairs of one row of `values` (one
    index of its first axis) at a time, then the closing brace.  `key` must
    not be in `doc`, so that the pairs come last."""
    head = json.dumps({**doc, key: None})
    yield head[:-len("null}")] + "["
    for i, row in enumerate(np.asarray(values, dtype=complex)):
        yield (", " if i else "") + json.dumps(complex_pairs(row))[1:-1]
    yield "]}"


_WS = "[ \t\n\r]*"  # JSON's whitespace; re's \s also takes \v, \f and Unicode spaces
# A float as json.dumps writes it.  A bare integer takes the json.loads path:
# it decodes as an int, so "-0" would lose the sign that numpy's parser keeps.
_FLOAT = r"(?:-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)|NaN|-?Infinity)"
# One [re, im] pair with what follows it: a comma before the next pair, or the
# closing bracket (not consumed).  re.subn deletes these in one linear pass,
# where a fullmatch of a repeated group keeps backtracking state for each pair.
# The patterns compile on first use (re caches them), not when catphase loads.
_PAIR = rf"\[{_WS}{_FLOAT}{_WS},{_WS}{_FLOAT}{_WS}\]{_WS}(?:,{_WS}(?=\[)|(?=\]))"
_OPEN, _EMPTY = rf"\[{_WS}\[", rf"\[{_WS}\]"
_COLON, _TAIL = rf"{_WS}:{_WS}", rf"\]{_WS}\}}{_WS}"
_BLANK = str.maketrans("[]", "  ")


def _loads_fast(text, key):
    """loads_with_pairs(text, key) where data[key] is an array of float pairs
    and the top-level object's last member; None for any other text."""
    end = text.rfind("]") + 1
    if not end or not re.compile(_TAIL).fullmatch(text, end - 1):
        return None
    # no quote stands inside the array, so the last quoted key before it is its own
    quoted = json.dumps(key)
    at = text.rfind(quoted, 0, end)
    colon = re.compile(_COLON).match(text, at + len(quoted)) if at >= 0 else None
    # after '{' or ',' the quote opens the key; after a backslash it would
    # close a longer key such as "a\"values"
    if colon is None or not text[:at].rstrip(" \t\n\r").endswith(("{", ",")):
        return None
    start = colon.end()
    pairs = text[start:end]
    rest, count = re.subn(_PAIR, "", pairs)
    if not (re.match(_OPEN, pairs) and re.fullmatch(_EMPTY, rest)):
        return None
    try:
        # null followed by the closing brace is the top-level object's last
        # member, so json.loads keeps it over any earlier key of that name
        data = json.loads(text[:start] + "null" + text[end:])
    except ValueError:
        return None
    pairs = pairs.translate(_BLANK)  # the bracketed copy is freed before numpy parses
    numbers = np.fromstring(pairs, sep=",")
    if numbers.size != 2 * count:  # numpy stops early at any number it cannot read
        return None
    data[key] = numbers.reshape(count, 2)
    return data


def loads_with_pairs(text, key):
    """json.loads(text), except that data[key] may come back as an (n, 2)
    float array equal to the list of pairs; complex_from_pairs reads either.

    Where data[key] is an array of float pairs and the top-level object's
    last member, as dumps_with_pairs writes it, the array is checked against
    JSON's grammar, parsed by numpy in one call and cut out of the text that
    json.loads reads, in about twice the text's memory.  Any other text goes
    to json.loads whole, so it raises as json.loads does."""
    data = _loads_fast(text, key) if isinstance(text, str) else None
    return json.loads(text) if data is None else data


def require_positive(value, name):
    """Raise ValueError unless value > 0 and its square is not 0; NaN is refused too."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if value * value == 0:
        raise ValueError(f"{name} = {value} is too small: its square underflows to 0")


def require_count(n, name, minimum=0):
    """n as an int; ValueError unless n is an integer (not a bool) >= minimum."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {n!r}")
    return int(n)


def require_order(n):
    """A polynomial order n as an int; an integral float such as 2.0 is
    accepted.  Rejects a bool and n that is not an integer in [0, HERMITE_N_MAX]."""
    if isinstance(n, bool) or n < 0 or int(n) != n:
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
