"""Shared numerical kernels: the one Gaussian exponent, Hermite polynomials,
Gaussian moment integrals, fixed-node quadrature and Chebyshev interpolation
on the real line, and the one path-or-stream opener of the serializers.

All numerical routines are pure functions of their arguments and accept complex
inputs wherever that makes sense.
"""

import cmath
import json
import math
import numbers
import re
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .blas import single_blas_thread

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


def _gaussian_exponent(axes, t, out=None):
    """-sum (u - c)^2 / t over the (u, c) pairs of `axes` (nodes u, complex or real
    centres c) in one array of the full shape: `out`, else the first pair's u - c.
    The squares are summed, then scaled, a complex sum on its real view, where the
    0j of a complex factor cannot meet an overflowed square as inf * 0 = NaN."""
    (u, c), *rest = axes
    expo = np.subtract(u, c, out=out)
    expo *= expo
    for u, c in rest:
        square = np.subtract(u, c)
        expo += np.square(square, out=square)
    parts = expo.view(float) if np.iscomplexobj(expo) else expo
    parts *= -1.0 / t
    return expo


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
    gap = np.subtract.outer(nodes, points)
    gap /= half
    hit = gap == 0.0
    gap[hit] = 1.0
    # in place, so the gaps and the matrix share one (nodes, m) array
    lagrange = np.divide((-1.0) ** np.arange(m) * np.sin(theta), gap, out=gap)
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


def pairs_text(doc, key, values):
    """The text of json.dumps({**doc, key: complex_pairs(values)}), byte for
    byte, as (head, rows, tail): rows(start, stop) is the text of the pairs
    of rows start:stop of `values` (indices of its first axis), so head, the
    rows of consecutive spans from 0 to len(values), and tail join to the
    whole text.  `key` must not be in `doc`, so that the pairs come last.
    Real `values` (any that are not complex) are read as floats, and each
    pair's imaginary part is written as the constant 0.0."""
    values = np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)
    head = json.dumps({**doc, key: None})

    def rows(start, stop):
        block = values[start:stop]
        if np.iscomplexobj(values):
            pairs = json.dumps(complex_pairs(block))[1:-1]
        else:
            # json.dumps spells each real as in a pair ([re, 0.0]), NaN and Infinity included
            reals = json.dumps(block.ravel().tolist())[1:-1]
            pairs = "[" + ", 0.0], [".join(reals.split(", ")) + ", 0.0]" if reals else ""
        return (", " if start and pairs else "") + pairs

    return head[:-len("null}")] + "[", rows, "]}"


def dumps_with_pairs(doc, key, values):
    """The text of json.dumps({**doc, key: complex_pairs(values)}) in chunks
    (see pairs_text): the head, the pairs of one row of `values` at a time,
    then the closing brace."""
    head, rows, tail = pairs_text(doc, key, values)
    yield head
    yield from map(rows, range(len(values)), range(1, len(values) + 1))
    yield tail


_WS = "[ \t\n\r]*"  # JSON's whitespace; re's \s also takes \v, \f and Unicode spaces
# The patterns compile on first use (re caches them), not when catphase loads.
_OPEN = rf"\[{_WS}\["
_COLON, _TAIL = rf"{_WS}:{_WS}", rf"\]{_WS}\}}{_WS}"
_SLICE = 1 << 18  # characters of pairs text that _parse_pairs reads at a time


def _loads_fast(text, key):
    """loads_with_pairs(text, key) where data[key] is an array of number
    pairs and the top-level object's last member; None for any other text."""
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
    first = re.compile(_OPEN).match(text, start)
    if first is None:
        return None
    try:
        # null followed by the closing brace is the top-level object's last
        # member, so json.loads keeps it over any earlier key of that name
        data = json.loads(text[:start] + "null" + text[end:])
    except ValueError:
        return None
    pairs = _parse_pairs(text, first.end() - 1, end)
    if pairs is None:
        return None
    data[key] = pairs
    return data


# The bytes _pairs_shaped locates: '[', ',' and ']', and the 'l' of false
# and null and the 'r' of true.  No number, NaN or Infinity holds an 'l' or
# an 'r', and numpy would take true and false for the numbers 1 and 0.
_MARKS = b"[,]lr"
_UNBRACKET = str.maketrans("[]", "  ")


def _pairs_shaped(pairs):
    """True when the text `pairs`, JSON whitespace aside, holds its '[',
    ',' and ']' as a list of pairs does, '[,],' per pair and '[,]' for the
    last, with something between each pair's brackets and its comma, and
    holds no 'l' or 'r'.

    Such text, its brackets made spaces, reads as a JSON list of numbers
    exactly where the pairs read as one, to the same numbers: a number
    outside its brackets, as in [1, ] 2, would leave a bracket side empty,
    and one against a bracket, as in [1, 2]5, is parted from its
    neighbour by the space."""
    solid = np.frombuffer(pairs.encode().translate(None, b" \t\n\r"), np.uint8)
    marked = solid == _MARKS[0]
    for mark in _MARKS[1:]:
        marked |= solid == mark
    at = np.flatnonzero(marked)
    filled = np.diff(at) > 1  # something stands between two marks
    return (len(at) % 4 == 3 and solid[at].tobytes() == b"[,]," * (len(at) // 4) + b"[,]"
            and filled[0::4].all() and filled[1::4].all())


def _parse_pairs(text, start, end):
    """The flat complex array of the pairs from text[start], the first
    pair's '[', to the array's closing ']' at text[end - 1]; None unless
    json.loads reads them as [re, im] pairs of numbers.

    json.loads reads slices of about _SLICE characters, each cut at a pair's
    '[' (inside the array a '[' only opens a pair), into the output sized
    beforehand by the count of '['.  Once `_pairs_shaped` has checked a
    slice's brackets and commas, and refused true and false, which numpy
    takes for numbers, json.loads reads it as one flat list, its brackets
    made spaces.  The list must read as int64 or float64: other dtypes,
    such as uint64 for 2^63 alone, may convert integers otherwise than the
    whole array's dtype would."""
    out = np.empty(text.count("[", start, end), complex)
    flat = out.view(float)
    at = 0
    while True:
        cut = text.find("[", start + _SLICE, end)
        chunk = text[start:cut if cut >= 0 else end].rstrip(" \t\n\r")
        # a slice ends with the comma before the next one, the last with the array's ']'
        if not chunk.endswith("," if cut >= 0 else "]"):
            return None
        pairs = chunk[:-1]
        try:
            if not _pairs_shaped(pairs):
                return None
            arr = np.asarray(json.loads(f"[{pairs.translate(_UNBRACKET)}]"))
        except (ValueError, RecursionError):
            return None
        if arr.dtype not in (np.int64, np.float64):
            return None
        flat[at:at + len(arr)] = arr
        at += len(arr)
        if cut < 0:
            return out
        start = cut


def loads_with_pairs(text, key):
    """json.loads(text), except that data[key] may come back as the flat
    complex array of its [re, im] pairs, which a reader takes as it is.

    Where data[key] is an array of number pairs and the top-level object's
    last member, as dumps_with_pairs writes it, the array is cut out of the
    text that json.loads reads, then read in slices of 256 k characters,
    each checked for the brackets and commas of pairs and read by
    json.loads as one flat list of numbers: beyond the text, memory is the
    array and one slice's text and list.
    Any other text goes to json.loads whole, so it raises as json.loads
    does; its data[key] is a list, which complex_from_pairs reads."""
    data = _loads_fast(text, key) if isinstance(text, str) else None
    return json.loads(text) if data is None else data


def json_members(data, names, what):
    """The members `names` of the JSON object `data`, in order; ValueError
    naming `what` when `data` is no object, or naming the member it lacks."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    missing = [name for name in names if name not in data]
    if missing:
        raise ValueError(f"{what} has no member {missing[0]!r}")
    return [data[name] for name in names]


def opened(target, mode="r"):
    """Context manager for a path or a stream: a path is opened in `mode`
    and closed on exit; a stream is yielded unchanged and left open."""
    return open(target, mode) if isinstance(target, (str, bytes)) else nullcontext(target)


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
    window of `spec`.  f is called once on the full node array, its value
    broadcast to them; a value that overflows raises FloatingPointError.
    """
    x = spec.nodes
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.broadcast_to(np.asarray(f(x), dtype=complex), x.shape)
    bad = ~np.isfinite(y)
    if bad.any():
        idx = int(np.argmax(bad))
        raise FloatingPointError(
            f"integrand non-finite at node {idx} (x = {float(x[idx])!r}, "
            f"value = {complex(y[idx])!r})")
    with single_blas_thread():
        return complex(np.dot(spec.weights, y))


def log_factorial(n):
    """log(n!) via log-gamma; stable up to the Fock truncations in scope."""
    return math.lgamma(n + 1)
