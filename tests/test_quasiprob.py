import cmath
import io
import json
import math
import os
import re
import threading
import tracemalloc
import warnings
from contextlib import nullcontext

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

from catphase import numerics
from catphase.amplifier import AmplifierGain, amplified_p, amplified_p_terms, amplify_q
from catphase.gendelta import cancellation_factor, min_safe_sigma
from catphase.numerics import HERMITE_N_MAX, complex_from_pairs, complex_pairs, json_members, \
    loads_with_pairs, require_count, trapezoid_weights
from catphase.quasiprob import Grid2D, PRepresentation, PTerm, _axis_kernel, \
    _gaussian_convolve, _hermitian_sum, _sum_terms, alpha_from_xp, fock_wavefunction, \
    gaussian_terms, opened, p_cat_terms, p_regularized_eval, p_representation_grid, \
    q_fourier_term, q_from_wigner, q_function, wigner_fock, wigner_from_p, xp_from_alpha
from catphase.states import CatStateSpec, cat_density_matrix, coherent_fock_coeffs, \
    coherent_overlap
from test_numerics import FLOAT_PART, GOOD_PAIRS, MALFORMED_PAIRS

EVEN_CAT = CatStateSpec(alpha1=1.5, alpha2=-1.5, zeta=1.0)
SKEW_CAT = CatStateSpec(alpha1=1.0 + 0.5j, alpha2=-1.0 + 0.3j, zeta=0.6 - 0.4j)


def complex_in(half):
    part = st.floats(-half, half)
    return st.builds(complex, part, part)


COMPLEX_2, COMPLEX_3 = complex_in(2.0), complex_in(3.0)


def complex_within(radius):
    """Complex numbers of modulus at most `radius`, at any phase."""
    return st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
                     st.floats(0.0, radius), st.floats(-math.pi, math.pi))


def alpha_grid(half=6.0, n=201):
    return Grid2D(-half, half, -half, half, n, n)


def meshgrid_plane(grid):
    """The alpha = x + i y value of every cell of `grid`, as a library caller builds it."""
    gx, gy = grid.meshgrid()
    return gx + 1j * gy


def assert_bitwise_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def separated_cat_window(a1, a2, g=1.0):
    """The rectangle holding both components of a cat's Q amplified at gain g
    with a margin of 6 g, at a spacing of g / 2, however far apart they are."""
    lo = g * complex(min(a1.real, a2.real) - 6.0, min(a1.imag, a2.imag) - 6.0)
    hi = g * complex(max(a1.real, a2.real) + 6.0, max(a1.imag, a2.imag) + 6.0)
    nx, ny = (math.ceil(2.0 * side / g) + 1 for side in (hi.real - lo.real, hi.imag - lo.imag))
    return Grid2D(lo.real, hi.real, lo.imag, hi.imag, nx, ny)


def reference_to_csv(grid, stream, meta=None):
    """The per-cell CSV writer that `Grid2D.to_csv` replaced, kept as its oracle."""
    for line in (meta or []):
        stream.write(f"# {line}\n")
    stream.write("x,y,re,im\n")
    xs, ys = grid.xs, grid.ys
    for i in range(grid.nx):
        for j in range(grid.ny):
            v = grid.values[i, j]
            stream.write(f"{float(xs[i])!r},{float(ys[j])!r},"
                         f"{float(v.real)!r},{float(v.imag)!r}\n")


def reference_from_csv(stream, axis_semantics="alpha"):
    """The per-line CSV parser that `Grid2D.from_csv` replaced, kept as its oracle."""
    rows = []
    for line in stream:
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("x,"):
            continue
        x, y, re, im = line.split(",")
        rows.append((float(x), float(y), float(re), float(im)))
    xs = sorted({r[0] for r in rows})
    ys = sorted({r[1] for r in rows})
    grid = Grid2D(xs[0], xs[-1], ys[0], ys[-1], len(xs), len(ys),
                  axis_semantics=axis_semantics)
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    filled = np.zeros((grid.nx, grid.ny), dtype=bool)
    for x, y, re, im in rows:
        i, j = xi[x], yi[y]
        grid.values[i, j] = complex(re, im)
        filled[i, j] = True
    if len(rows) != filled.size or not filled.all():
        raise ValueError(f"{len(rows)} rows do not fill a {len(xs)} x {len(ys)} grid")
    return grid


def reference_wigner_fock(n, grid, q_halfwidth=10.0, q_nodes=2001):
    """The shift-variable quadrature that `wigner_fock` replaced, kept as its oracle:

        W(x, p) = (1/pi) * integral of psi_n(x+q) psi_n(x-q) e^{-2 i p q} dq.
    """
    q = np.linspace(-q_halfwidth, q_halfwidth, q_nodes)
    wq = trapezoid_weights(q_nodes, q[1] - q[0])
    xs, ps = grid.xs, grid.ys
    c = fock_wavefunction(n, xs[:, None] + q[None, :]) * \
        fock_wavefunction(n, xs[:, None] - q[None, :])
    phases = np.exp(-2j * np.outer(q, ps)) * wq[:, None]
    return (c @ phases) / math.pi


def mp_wigner_fock(n, x, p):
    """Groenewold's closed form (-1)^n / pi e^{-r^2} L_n(2 r^2) at 40 digits, at the
    float nodes x and p as they are: no rounding of 2 x^2 or 2 p^2, no overflow."""
    with mpmath.workdps(40):
        r_sq = mpmath.mpf(x) ** 2 + mpmath.mpf(p) ** 2
        return float((-1) ** n / mpmath.pi * mpmath.exp(-r_sq) * mpmath.laguerre(n, 0, 2 * r_sq))


def wigner_rounding(n):
    """(n + 1) eps / pi: n + 1 products of axis factors of order 1, times 1/pi."""
    return (n + 1) * np.finfo(float).eps / math.pi


def reference_gaussian_terms(rep, alpha, t, g=1.0):
    """The expanded evaluator that the factored `gaussian_terms` replaced,
    kept as its oracle: one complex exp per point of

        (g conj(beta) alpha + g gamma conj(alpha) - |alpha|^2 - g^2 conj(beta) gamma) / t.
    """
    alpha = np.asarray(alpha, dtype=complex)
    alpha_c = np.conj(alpha)
    mod_sq = alpha.real ** 2 + alpha.imag ** 2
    for term in rep.terms:
        bc = np.conj(term.beta)
        expo = (g * bc * alpha + g * term.gamma * alpha_c - mod_sq
                - g * g * (bc * term.gamma)) / t
        scale = term.weight / (math.pi * t)
        peak = abs(scale) * np.exp(np.max(expo.real, initial=-np.inf))
        yield scale * np.exp(expo), float(peak)


def field_inputs(kind, half, rng):
    """alpha over [-half, half]^2 as an "ij" tensor grid, an "xy" meshgrid,
    a "sheared" grid (Re alpha a tensor column, Im alpha not a row) or
    scattered points."""
    if kind == "scattered":
        return rng.uniform(-half, half, 300) + 1j * rng.uniform(-half, half, 300)
    xs, ys = np.linspace(-half, half, 23), np.linspace(-half, half, 19)
    gx, gy = np.meshgrid(xs, ys, indexing="xy" if kind == "xy" else "ij")
    if kind == "sheared":
        gy = gy + 0.1 * gx
    return gx + 1j * gy


# values whose shortest repr is unusual: signed zero, subnormal, the switch
# to exponent notation at 1e-5 and 1e16, inexact decimals, extreme exponents
AWKWARD_FLOATS = st.sampled_from([
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 9.999999999999999e-06,
    1e16, 9999999999999998.0, 0.1, -0.30000000000000004, 1e-300, 1.7976931348623157e308,
    -1.2345678901234567e-250, math.pi * 1e200])
CSV_VALUES = st.one_of(AWKWARD_FLOATS, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def csv_grids(draw):
    nx, ny = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    lo = st.floats(-1e6, 1e6, allow_subnormal=False)
    width = st.floats(1e-3, 1e6)
    x_min, y_min = draw(lo), draw(lo)
    grid = Grid2D(x_min, x_min + draw(width), y_min, y_min + draw(width), nx, ny,
                  axis_semantics=draw(st.sampled_from(["alpha", "xp"])))
    # axes whose nodes round together are no grid either writer can describe
    assume(len(set(grid.xs.tolist())) == nx and len(set(grid.ys.tolist())) == ny)
    cells = st.lists(CSV_VALUES, min_size=nx * ny, max_size=nx * ny)
    grid.values.real = np.reshape(draw(cells), (nx, ny))
    grid.values.imag = np.reshape(draw(cells), (nx, ny))
    return grid


def reference_to_json(grid, meta=None):
    """Grid2D.to_json as one json.dumps of the whole document."""
    return json.dumps({
        "meta": meta or {},
        "axes": {"x_min": grid.x_min, "x_max": grid.x_max,
                 "y_min": grid.y_min, "y_max": grid.y_max,
                 "semantics": grid.axis_semantics},
        "nx": grid.nx, "ny": grid.ny,
        "values": complex_pairs(grid.values),
    })


def reference_from_json(text):
    """Grid2D.from_json as json.loads of the whole text and complex_from_pairs."""
    ax, values, nx, ny = json_members(json.loads(text), ("axes", "values", "nx", "ny"), "grid")
    bounds = json_members(ax, ("x_min", "x_max", "y_min", "y_max"), "grid member 'axes'")
    flat = complex_from_pairs(values)
    nx, ny = require_count(nx, "nx", 2), require_count(ny, "ny", 2)
    return Grid2D(*bounds, nx, ny, values=flat.reshape(nx, ny),
                  axis_semantics=ax.get("semantics", "alpha"))


def outcome(read, text):
    """What `read(text)` gives: the grid's geometry and value bits, or the
    type and message of what it raises."""
    try:
        grid = read(text)
    except Exception as exc:  # any exception: which one is the outcome
        return type(exc), str(exc)
    axes = ("x_min", "x_max", "y_min", "y_max", "nx", "ny", "axis_semantics")
    return [repr(getattr(grid, a)) for a in axes], grid.values.tobytes()


def csv_outcomes(text, directory, axis_semantics="alpha"):
    """outcome() of Grid2D.from_csv on `text` read from a StringIO and from
    a file at a path (its bytes as they stand), in that order."""
    path = directory / "grid.csv"
    path.write_bytes(text.encode())
    return [outcome(lambda src: Grid2D.from_csv(src, axis_semantics=axis_semantics), src)
            for src in (io.StringIO(text), str(path))]


# A 2 x 3 grid's rows, and CSV layouts of them that the per-line reference
# parser and Grid2D.from_csv both read: the head (blank lines, '#' comments
# and `x,` headers) comes before the first row, comments and blank lines
# anywhere after it
CSV_ROWS = "".join(f"{x},{y},{x + y / 4},{-y}\n" for x in (-1.0, 1.0) for y in (0.0, 0.5, 1.0))
CSV_LAYOUTS = {
    "comments-before-header": "# field = q\n# alpha1 = (1.5+0j)\nx,y,re,im\n" + CSV_ROWS,
    "blank-lines-before-header": "\n\n# field = q\n\nx,y,re,im\n\n" + CSV_ROWS,
    "header-after-comments-and-again": "# a\nx,y,re,im\n# b\nx,y,re,im\n" + CSV_ROWS,
    "indented-header": "  x,y,re,im\n" + CSV_ROWS,
    "no-header": CSV_ROWS,
    "crlf": ("# field = q\nx,y,re,im\n" + CSV_ROWS).replace("\n", "\r\n"),
    "footer-comments": "x,y,re,im\n" + CSV_ROWS + "# integral = 0.25\n# note = done\n",
    "comments-and-blank-lines-between-rows": "x,y,re,im\n" + CSV_ROWS.replace("\n", "\n# c\n\n", 2),
    "no-final-newline": "x,y,re,im\n" + CSV_ROWS[:-1],
}


# the 3 x 3 grid of GOOD_PAIRS, and its text with one edit
GOOD_JSON = json.dumps({"meta": {"field": "q"},
                        "axes": {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0, "y_max": 1.0},
                        "nx": 3, "ny": 3, "values": GOOD_PAIRS})
VALUES_AT = GOOD_JSON.index('"values"')


def edited(*subs):
    """GOOD_JSON with each (old, new) or (old, new, count) substitution made in
    its values: the first copy of `old`, or the first `count` copies."""
    head, values = GOOD_JSON[:VALUES_AT], GOOD_JSON[VALUES_AT:]
    for old, new, *count in subs:
        assert old in values
        values = values.replace(old, new, *(count or [1]))
    return head + values


def with_pairs(pairs):
    """A 3 x 3 grid's JSON text with `pairs` as its values."""
    return json.dumps({"axes": {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0, "y_max": 1.0},
                       "nx": 3, "ny": 3, "values": pairs})


# texts that json.loads and complex_from_pairs refuse, each of which Grid2D.from_json
# must refuse with the same exception and message
REFUSED_JSON = {
    **{f"pairs-{name}": with_pairs(pairs) for name, pairs in MALFORMED_PAIRS.items()},
    # numbers numpy's text parser reads but JSON does not
    **{f"number-{bad}": edited(("0.25", bad))
       for bad in ("nan", "inf", "+1", ".5", "01", "1.", "-NaN", "infinity", "1e", "0x1")},
    "bool": edited(("0.25", "true")),
    "one-number": edited(("[0.25, -0.5]", "[0.25]")),
    "three-numbers": edited(("[0.25, -0.5]", "[0.25, -0.5, 1.0]")),
    "empty-pair": edited(("[0.25, -0.5]", "[]")),
    "trailing-comma": edited(("]]", "],]")),
    "trailing-comma-in-pair": edited(("[0.25, -0.5]", "[0.25, -0.5,]")),
    "missing-comma": edited(("], [", "] [")),
    "leading-comma": edited(("[[", "[,[")),
    "first-pair-unbracketed": edited(("[[0.0, -0.5], ", "[0.0, -0.5], [")),
    "extra-bracket": edited(("]]", "]]]")),
    "nested": edited(("[[", "[[[")),
    "nested-deeply": edited(("[[", "[" * 10 ** 5 + "[["), ("]]", "]]" + "]" * 10 ** 5)),
    "empty": with_pairs([]),
    "vertical-tab": edited((", ", ",\v")),
    "no-break-space": edited((", ", ",\u00a0")),
    "integer-beyond-float": edited(("0.25", "1" + "0" * 400)),
    "head-broken": GOOD_JSON.replace('"nx": 3,', '"nx": 3,,'),
    "nx-tampered": GOOD_JSON.replace('"nx": 3', '"nx": 4'),
    "ny-tampered": GOOD_JSON.replace('"ny": 3', '"ny": 2'),
    "nx-bool": GOOD_JSON.replace('"nx": 3', '"nx": true'),
    "values-missing": GOOD_JSON.replace('"values"', '"valuez"'),
    "values-last-repeated-short": GOOD_JSON[:-1] + ', "values": [[1.0, 2.0]]}',
    **{f"truncated-{cut}": GOOD_JSON[:cut] for cut in (-1, -2, -3, -9, VALUES_AT + 12, 40)},
}

# texts that json.loads and complex_from_pairs accept, each of which Grid2D.from_json
# must read to the same bits
ACCEPTED_JSON = {
    "meta-holds-values": GOOD_JSON.replace('"field": "q"', '"values": [[7.0, 8.0]]'),
    "meta-holds-values-text": GOOD_JSON.replace('"q"', '"a\\"values\\": [[7.0, 8.0]]"'),
    "values-repeated": GOOD_JSON.replace('"meta"', '"values": [[7.0, 8.0]], "meta"'),
    "values-first": json.dumps({"values": GOOD_PAIRS, "nx": 3, "ny": 3, "meta": {
        "values": [[7.0, 8.0]]}, "axes": {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0,
                                         "y_max": 1.0}}),
    "key-ending-in-values": GOOD_JSON[:-1] + ', "a\\"values": [[7.0, 8.0]]}',
    "escaped-key": GOOD_JSON.replace('"values"', '"valu\\u0065s"'),
    "integers": edited(("0.0", "0", 9)),
    "negative-integer-zero": edited(("0.0", "-0", 9)),
    "integer-beyond-int64": with_pairs([[k, -k] for k in range(8)] + [[2 ** 63, 0]]),
    "json-whitespace": edited((", ", " ,\t\r\n ", 9)),
    "indented": json.dumps(json.loads(GOOD_JSON), indent=2),
    "no-spaces": json.dumps(json.loads(GOOD_JSON), separators=(",", ":")),
    "trailing-newline": GOOD_JSON + "\n",
    "exponents": edited(("0.25", "2.5E-1"), ("0.75", "7.5e-1"), ("1.0,", "1e+0,")),
    "extremes": edited(("0.25", "1e400"), ("0.5,", "-1e400,"), ("0.75", "2.4e-324"),
                       ("1.25", "-0.0e0"), ("1.5", "2.5e-324")),
    "non-finite": edited(("0.25", "NaN"), ("0.5,", "Infinity,"), ("0.75", "-Infinity")),
    "long-mantissa": edited(("0.25", "0.1000000000000000055511151231257827021181583404541015625")),
}

# the accepted texts whose pairs are read slice by slice; the rest go through
# json.loads whole
SLICE_READ_JSON = {"meta-holds-values", "meta-holds-values-text", "values-repeated",
                   "integers", "negative-integer-zero", "integer-beyond-int64",
                   "json-whitespace", "indented", "no-spaces", "trailing-newline", "exponents",
                   "extremes", "non-finite", "long-mantissa"}


def slice_cuts(text, key="values"):
    """Where loads_with_pairs cuts the pairs of `text` into slices: the '['
    found first at least numerics._SLICE characters past the previous cut,
    the first cut being the first pair's '['."""
    at, cuts = text.index("[", text.rindex(f'"{key}"')) + 1, []
    while (at := text.find("[", at + numerics._SLICE)) >= 0:
        cuts.append(at)
    return cuts


def number_spans(text, cut):
    """The (start, end) of the number that opens the pair at `cut` and of
    the number that closes the pair before it."""
    after = re.compile(r"[-+.0-9eE]+").match(text, cut + 1)
    close = text.rindex("]", 0, cut)
    before = re.compile(r"[-+.0-9eE]+$").search(text, 0, close)
    return (after.start(), after.end()), (before.start(), before.end())


def replace_numbers(new):
    return lambda text, cut: [text[:a] + new + text[b:] for a, b in number_spans(text, cut)]


def integers_before(last):
    """An edit that spells each number before the cut as an integer, the
    last of them as `last`: slices of integers meet slices of floats."""
    def edit(text, cut):
        at = text.index("[", text.rindex('"values"'))
        a, b = number_spans(text, cut)[1]
        ints = re.sub(r"-?[.0-9]+", lambda m: str(int(float(m[0]))), text[at:a])
        return [text[:at] + ints + last + text[b:]]
    return edit


def replace_pairs(*news, count=1):
    """An edit that puts each of `news` in place of the `count` pairs that
    open at the cut, one edited text each."""
    def edit(text, cut):
        end = cut
        for _ in range(count):
            end = text.index("]", end) + 1
        return [text[:cut] + new + text[end:] for new in news]
    return edit


# edits made at a slice cut: each returns the edited texts for one cut
SLICE_EDITS = {
    "pair-without-comma": lambda text, cut: [text[:cut] + text[cut:].replace(",", "", 1)],
    "pair-unclosed": lambda text, cut: [text[:text.rindex("]", 0, cut)]
                                        + text[text.rindex("]", 0, cut) + 1:]],
    "pair-nested": lambda text, cut: [text[:cut] + "[" + text[cut:]],
    "pair-trailing-comma": lambda text, cut: [text[:cut] + "[1.0, 2.0,]" + text[cut:]],
    "double-comma": lambda text, cut: [text[:cut].rstrip() + "," + text[cut:]],
    "number-for-comma": lambda text, cut: [text[:cut].rstrip()[:-1] + " 1 " + text[cut:]],
    "bool": replace_numbers("true"),
    "integer": replace_numbers("1"),
    "negative-integer-zero": replace_numbers("-0"),
    "integer-slice": integers_before("7"),
    "integer-slice-beyond-int64": integers_before(str(2 ** 63)),
    "integer-slice-beyond-float": integers_before("1" + "0" * 400),
    "numpy-only-number": replace_numbers("nan"),
    "newline": lambda text, cut: [text[:text.rindex(",", 0, cut)] + " \n,\r\n\t" + text[cut:]],
    "vertical-tab": lambda text, cut: [text[:text.rindex(",", 0, cut)] + ",\v" + text[cut:]],
    # pairs of another shape: only their brackets and commas tell them from pairs
    "pair-of-one-pair-of-three-pair-empty": replace_pairs("[1.5]", "[1.5, 2.5, 3.5]", "[]"),
    "ragged-pairs-with-two-numbers-each": replace_pairs(
        "[1.5, 2.5, 3.5], [4.5]", "[1.5], [2.5, 3.5, 4.5]", "[], [1.5, 2.5, 3.5, 4.5]",
        "[1.5, 2.5, 3.5, 4.5], []", count=2),
    "pair-in-a-pair": replace_pairs("[[1.5, 2.5]]", "[[1.5, 2.5], [3.5, 4.5]]"),
    "number-outside-its-pair": replace_pairs("[1.5, ] 2.5", "1.5 [, 2.5]", "[1.5,\n] 2.5",
                                             "1.5 [ , 2.5]", "[1.5, 2.5], 3.5 [, 4.5]", count=2),
    "number-against-a-bracket": replace_pairs("[1.5, 2.5]5", "[1.5, 2.5], 5[3.5, 4.5]",
                                              "[1.5, 2]5, [3.5, 4.5]", count=2),
    "string-holding-a-mark": replace_pairs('["[", 2.5]', '[1.5, "]"]', '[",", 2.5]',
                                           '["[1.5, 2.5]", 2.5]', '["a", "b"]'),
    "false": replace_numbers("false"),
    "null": replace_numbers("null"),
    "string": replace_numbers('"1"'),
    "pair-spaced": replace_pairs("[ 1.5 ,\n\t2.5\r\n]", "[\n  1.5,\n  2.5\n]"),
}


# JSON numbers by spelling: integers (some of them 2^63, beyond int64: pairs of
# those alone are uint64 to numpy), signed zeros and non-finite values, floats
# as repr writes them, and exponents
NUMBER_SPELLINGS = (
    st.one_of(st.integers(-10 ** 6, 10 ** 6), st.just(2 ** 63)).map(str),
    st.sampled_from(["-0", "-0.0", "NaN", "Infinity", "-Infinity"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds("{}{}{}{}".format, st.integers(-999, 999), st.sampled_from(["", ".5"]),
              st.sampled_from(["e", "E", "e+", "E-"]), st.integers(0, 330)),
)
JSON_SPACE = st.sampled_from(["", " ", "  ", "\n", "\t", "\r\n "])


@st.composite
def spelled_grid_json(draw):
    """A small grid's JSON text with its pairs in random JSON spellings, a
    few of them per text, and random spacing.  Some texts have one odd
    entry: an integer beyond the floats, true, false, null or a string."""
    nx, ny = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    kinds = draw(st.sets(st.sampled_from(NUMBER_SPELLINGS), min_size=1))
    numbers = draw(st.lists(st.one_of(*kinds), min_size=2 * nx * ny, max_size=2 * nx * ny))
    if draw(st.integers(0, 3)) == 0:
        numbers[draw(st.integers(0, len(numbers) - 1))] = draw(st.sampled_from(
            ["1" + "0" * 400, "true", "false", "null", '"1"']))

    def space():
        return draw(JSON_SPACE)

    pairs = [f"[{space()}{real}{space()},{space()}{imag}{space()}]"
             for real, imag in zip(numbers[::2], numbers[1::2])]
    values = "[" + "".join(f"{space()}{pair}{space()}," for pair in pairs)[:-1] + "]"
    head = json.dumps({"axes": {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0, "y_max": 1.0},
                       "nx": nx, "ny": ny})
    return f'{head[:-1]}, "values": {values}}}'


@st.composite
def json_grids(draw):
    nx, ny = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    bounds = st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2, unique=True).map(sorted)
    grid = Grid2D(*draw(bounds), *draw(bounds), nx, ny,
                  axis_semantics=draw(st.sampled_from(["alpha", "xp"])))
    cells = st.lists(FLOAT_PART, min_size=nx * ny, max_size=nx * ny)
    grid.values.real = np.reshape(draw(cells), (nx, ny))
    grid.values.imag = np.reshape(draw(cells), (nx, ny))
    return grid


class TestConventions:
    def test_alpha_xp_roundtrip(self):
        a = np.array([0.3 + 0.7j, -1.2j, 2.0])
        x, p = xp_from_alpha(a)
        assert alpha_from_xp(x, p) == pytest.approx(a)

    def test_vacuum_is_origin(self):
        assert alpha_from_xp(0.0, 0.0) == 0.0


class TestPTerm:
    def test_diagonal_centers_are_the_amplitude(self):
        t = PTerm(kappa=0.5, beta=1.0 - 2.0j, gamma=1.0 - 2.0j)
        assert t.center_r == pytest.approx(1.0)
        assert t.center_i == pytest.approx(-2.0)
        assert t.weight == pytest.approx(0.5)

    def test_opposite_real_amplitudes_center_on_imaginary_axis(self):
        # |gamma><beta| with beta = -gamma = a real: centers (0, i a)
        a = 2.0
        t = PTerm(kappa=1.0, beta=a, gamma=-a)
        assert t.center_r == pytest.approx(0.0)
        assert t.center_i == pytest.approx(1j * a)

    def test_weight_includes_overlap(self):
        t = PTerm(kappa=2.0, beta=1.0, gamma=0.5j)
        assert t.weight == pytest.approx(2.0 * coherent_overlap(1.0, 0.5j))


class TestPCatTerms:
    def test_four_terms_and_kinds(self):
        rep = p_cat_terms(SKEW_CAT)
        assert len(rep.terms) == 4
        # diagonal terms first, by the exact test the evaluator pairs terms with
        assert [t.beta == t.gamma for t in rep.terms] == [True, True, False, False]

    def test_off_diagonal_terms_are_conjugate_partners(self):
        rep = p_cat_terms(SKEW_CAT)
        t_a, t_b = rep.terms[2], rep.terms[3]
        assert t_b.kappa == pytest.approx(np.conj(t_a.kappa))
        assert t_b.beta == t_a.gamma and t_b.gamma == t_a.beta

    def test_zero_superposition_weight_collapses_to_one_term(self):
        rep = p_cat_terms(CatStateSpec(alpha1=0.8, alpha2=-0.8, zeta=0.0))
        assert len(rep.terms) == 1
        (t,) = rep.terms
        assert t.beta == t.gamma == 0.8
        assert t.kappa == pytest.approx(1.0)

    def test_weights_sum_to_trace(self):
        for spec in (EVEN_CAT, SKEW_CAT):
            total = sum(t.weight for t in p_cat_terms(spec).terms)
            assert total == pytest.approx(1.0, abs=1e-13)


class TestQFunction:
    @pytest.mark.parametrize("spec", [EVEN_CAT, SKEW_CAT])
    def test_matches_number_basis_expectation(self, spec):
        # oracle: (1/pi) <alpha|rho|alpha> from the truncated density matrix
        rho = cat_density_matrix(spec, n_max=40).entries
        for alpha in (0.0, 1.5, -1.5, 1.0j, 0.7 - 0.3j):
            v = coherent_fock_coeffs(alpha, 40)
            want = np.real(np.conj(v) @ rho @ v) / math.pi
            assert q_function(spec, alpha) == pytest.approx(want, abs=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a1=COMPLEX_2, a2=COMPLEX_2, zeta=COMPLEX_2, alpha=COMPLEX_3)
    def test_matches_number_basis_expectation_for_random_specs(self, a1, a2, zeta, alpha):
        try:
            spec = CatStateSpec(a1, a2, zeta)
        except ValueError:
            reject()
        # nearly cancelling components blow A up, and every rounding error with it
        assume(spec.norm_A <= 5.0)
        rho = cat_density_matrix(spec, n_max=50).entries
        v = coherent_fock_coeffs(alpha, 50)
        want = np.real(np.conj(v) @ rho @ v) / math.pi
        assert q_function(spec, alpha) == pytest.approx(want, abs=1e-10)

    def test_non_finite_point_raises(self):
        with pytest.raises(FloatingPointError, match="Q-function"):
            q_function(EVEN_CAT, np.array([0.0, complex("nan")]))

    # (10, 10) is the origin, where a NaN replaced by 0 would pass for a grid
    @pytest.mark.parametrize("cell", [(0, 0), (7, 0), (0, 9), (7, 9), (10, 10), (-1, -1)])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_non_finite_grid_cell_raises(self, cell, part):
        # a NaN cell breaks the tensor-grid pattern, so it cannot hide in an axis
        gx, gy = alpha_grid(n=21).meshgrid()
        (gx if part == "real" else gy)[cell] = np.nan
        with pytest.raises(FloatingPointError, match="Q-function"):
            q_function(EVEN_CAT, gx + 1j * gy)

    def test_grid_memory_bounded(self):
        # on a tensor grid a real field is one real product, half a complex
        # plane, and the regularized P adds the complex plane it returns; no
        # complex sum and no term plane
        gain = AmplifierGain(2.0)
        fields = [(lambda a: q_function(SKEW_CAT, a), 0.75),
                  (lambda a: amplify_q(SKEW_CAT, gain, a), 0.75),
                  (lambda a: amplified_p(SKEW_CAT, gain, a), 0.75),
                  (lambda a: p_regularized_eval(p_cat_terms(SKEW_CAT), 0.6, a), 1.75)]
        alpha = meshgrid_plane(alpha_grid(half=7.0, n=401))
        for field, planes in fields:
            tracemalloc.start()
            try:
                field(alpha)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < planes * alpha.nbytes

    def test_grid_route_memory_bounded(self):
        # a Grid2D hands over its axes, so no alpha plane is built or scanned:
        # a real field is its real sum, half a complex plane, and the
        # regularized P adds the complex plane it returns
        gain = AmplifierGain(2.0)
        fields = [(lambda a: q_function(SKEW_CAT, a), 0.6),
                  (lambda a: amplify_q(SKEW_CAT, gain, a), 0.6),
                  (lambda a: amplified_p(SKEW_CAT, gain, a), 0.6),
                  (lambda a: p_regularized_eval(p_cat_terms(SKEW_CAT), 0.6, a), 1.55)]
        grid = alpha_grid(half=7.0, n=401)
        plane_bytes = grid.nx * grid.ny * np.dtype(complex).itemsize
        for field, planes in fields:
            tracemalloc.start()
            try:
                field(grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < planes * plane_bytes

    def test_nonnegative_on_grid(self):
        grid = alpha_grid()
        gx, gy = grid.meshgrid()
        q = q_function(EVEN_CAT, gx + 1j * gy)
        assert q.min() >= -1e-14

    def test_normalization(self):
        grid = alpha_grid()
        gx, gy = grid.meshgrid()
        grid.values = q_function(SKEW_CAT, gx + 1j * gy)
        assert grid.integrate() == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a1=complex_within(3.0), a2=complex_within(3.0), zeta=complex_within(2.0))
    def test_nonnegative_and_normalized_for_random_cats(self, a1, a2, zeta):
        try:
            spec = CatStateSpec(a1, a2, zeta)
        except ValueError:
            reject()
        # the window holds every component to 6 widths, where Q is below 1e-15
        half = max(abs(a1), abs(a2)) + 6.0
        grid = Grid2D(-half, half, -half, half, 201, 201)
        alpha = meshgrid_plane(grid)
        grid.values = q_function(spec, alpha)
        # Q is a square, so only rounding of its terms can take it below 0
        peaks = sum(peak for _, peak in gaussian_terms(p_cat_terms(spec), alpha, 1.0))
        assert grid.values.min() >= -np.finfo(float).eps * peaks
        assert grid.integrate().real == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(r1=st.floats(0.0, 200.0), r2=st.floats(0.0, 200.0), phase1=st.floats(-math.pi, math.pi),
           phase2=st.floats(-math.pi, math.pi), zeta=complex_within(2.0))
    @example(r1=27.0, r2=27.0, phase1=0.0, phase2=math.pi, zeta=1.0)
    @example(r1=200.0, r2=200.0, phase1=0.0, phase2=math.pi, zeta=1.0)
    def test_separated_cats_bounded_and_normalized(self, r1, r2, phase1, phase2, zeta):
        # the overlap of far components underflows while their Im-axis
        # factors would overflow; with the log weight in the exponent
        # neither happens, so Q is evaluated, not refused
        a1, a2 = r1 * cmath.exp(1j * phase1), r2 * cmath.exp(1j * phase2)
        try:
            spec = CatStateSpec(a1, a2, zeta)
        except ValueError:
            reject()
        assume(spec.norm_A <= 5.0)
        grid = separated_cat_window(a1, a2)
        alpha = meshgrid_plane(grid)
        grid.values = q_function(spec, alpha)
        peaks = sum(peak for _, peak in gaussian_terms(p_cat_terms(spec), alpha, 1.0))
        assert grid.values.min() >= -np.finfo(float).eps * peaks
        assert grid.values.max() <= 1.0 / math.pi
        assert grid.integrate().real == pytest.approx(1.0, abs=1e-6)
        # the same cells as scattered points take the pointwise path
        rng = np.random.default_rng(grid.nx * grid.ny)
        cells = rng.choice(alpha.size, size=min(alpha.size, 20000), replace=False)
        points = q_function(spec, alpha.ravel()[cells])
        assert np.max(np.abs(points - grid.values.real.ravel()[cells])) <= 1e-12

    def test_scalar_in_scalar_out(self):
        assert isinstance(q_function(EVEN_CAT, 0.3 + 0.1j), float)


class TestGaussianTerms:
    @pytest.mark.parametrize("t, g, kind", [
        pytest.param(t, g, kind, id=f"{t}-{g}" + ("-scattered" if kind == "scattered" else ""))
        for kind in ("ij", "scattered")
        for t, g in [(1.0, 1.0), (0.5, 1.0), (1.1025 - 1.0, 1.05)]])
    def test_conjugate_partners_are_exact_conjugates(self, t, g, kind):
        # the imaginary residue of a Hermitian sum is exactly zero, which is
        # why the field guard bounds rounding by the term peaks instead
        alpha = field_inputs(kind, 6.0, np.random.default_rng(11))
        values = [v for v, _ in gaussian_terms(p_cat_terms(SKEW_CAT), alpha, t, g)]
        np.testing.assert_array_equal(values[3], np.conj(values[2]))

    @pytest.mark.parametrize("kind", ["points", "ij"])
    def test_peak_is_largest_modulus(self, kind):
        alpha = (np.array([0.0, 1.0 - 0.5j, 2.0 + 1.0j, -3.0j]) if kind == "points"
                 else field_inputs(kind, 4.0, None))
        for values, peak in gaussian_terms(p_cat_terms(SKEW_CAT), alpha, 0.3, 1.2):
            assert peak == pytest.approx(np.max(np.abs(values)), rel=1e-13)

    @pytest.mark.parametrize("kind", ["grid", "scattered"])
    def test_terms_are_one_term_sums(self, kind):
        # a diagonal term is its own conjugate partner, so on a grid it comes back real
        grid = Grid2D(-6.0, 6.5, -5.0, 5.5, 51, 43)
        alpha = grid if kind == "grid" else field_inputs(kind, 6.0, np.random.default_rng(5))
        rep = p_cat_terms(SKEW_CAT)
        terms = gaussian_terms(rep, alpha, 0.7, 1.3)
        for term, (values, peak) in zip(rep.terms, terms, strict=True):
            diagonal = term.beta == term.gamma
            assert values.dtype == (float if diagonal and kind == "grid" else complex)
            total, peak_sum = _sum_terms(PRepresentation((term,)), alpha, 0.7, 1.3)
            assert_bitwise_equal(values, total)
            assert peak == peak_sum

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a1=COMPLEX_2, a2=COMPLEX_2, zeta=COMPLEX_2, row=st.sampled_from(["q", "p", "amp"]),
           width=st.floats(1.0, 3.0), gain=st.floats(1.2, 3.0),
           kind=st.sampled_from(["ij", "xy", "sheared", "scattered"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_expanded_reference(self, a1, a2, zeta, row, width, gain, kind, seed):
        try:
            spec = CatStateSpec(a1, a2, zeta)
        except ValueError:
            reject()
        assume(spec.norm_A <= 5.0)
        rep = p_cat_terms(spec)
        need = max(min_safe_sigma(c) for term in rep.terms
                   for c in (term.center_r, term.center_i))
        # below sigma ~ 0.1 the reference's expanded exponent can lose more
        # than 1e-13 of the peak sum to cancellation (up to 2e-12 over 200
        # random specs near min_safe_sigma); test_accurate_at_min_safe_sigma
        # checks the factored form there
        sigma = max(need, 0.1) * width
        t, g = {"q": (1.0, 1.0), "p": (2.0 * sigma * sigma, 1.0),
                "amp": (gain * gain - 1.0, gain)}[row]
        half = g * max(abs(a1), abs(a2)) + 6.0 * max(1.0, math.sqrt(t / 2.0))
        alpha = field_inputs(kind, half, np.random.default_rng(seed))
        got = list(gaussian_terms(rep, alpha, t, g))
        want = list(reference_gaussian_terms(rep, alpha, t, g))
        assert len(got) == len(want)
        peaks = sum(peak for _, peak in want)
        assert math.isfinite(peaks)
        for (values, peak), (values_ref, peak_ref) in zip(got, want):
            assert values.shape == alpha.shape
            assert np.max(np.abs(values - values_ref)) <= 1e-13 * peaks
            assert peak == pytest.approx(peak_ref, rel=1e-13)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("spec", [EVEN_CAT, SKEW_CAT,
                                      CatStateSpec(2.0 + 1.0j, -1.5 - 0.5j, 0.7j)])
    def test_accurate_at_min_safe_sigma(self, spec):
        # at the narrowest regularized P whose terms stay finite (both axes'
        # growth within e^700) the factored form still matches a long-double
        # evaluation of -((x - c_r)^2 + (y - c_i)^2) / t to 1e-13 of the peaks
        rep = p_cat_terms(spec)
        reach = max(math.hypot(np.imag(term.center_r), np.imag(term.center_i))
                    for term in rep.terms)
        sigma = min_safe_sigma(1j * reach)
        t = 2.0 * sigma * sigma
        gx, gy = alpha_grid(half=8.0, n=81).meshgrid()
        x, y = gx.astype(np.longdouble), gy.astype(np.longdouble)
        got = list(gaussian_terms(rep, gx + 1j * gy, t))
        peaks = sum(peak for _, peak in got)
        assert math.isfinite(peaks)
        for term, (values, _) in zip(rep.terms, got):
            cr, ci = complex(term.center_r), complex(term.center_i)
            u, v = x - cr.real, y - ci.real
            re = (cr.imag ** 2 + ci.imag ** 2 - u * u - v * v) / t
            im = 2 * (u * cr.imag + v * ci.imag) / t
            want = complex(term.weight / (math.pi * t)) * np.exp(re) * (np.cos(im) + 1j * np.sin(im))
            assert np.max(np.abs(values - want)) <= 1e-13 * peaks


class TestSumTerms:
    """_sum_terms on tensor grids: one real product of the terms' axis
    factors, and a second for the imaginary part unless it is exactly 0."""

    @settings(max_examples=60)
    @given(a1=COMPLEX_2, a2=COMPLEX_2, zeta=COMPLEX_2, row=st.sampled_from(["q", "p", "amp"]),
           gain=st.floats(1.2, 3.0), drop=st.sampled_from([None, 0, 2, 3]),
           nx=st.integers(2, 60), ny=st.integers(2, 60), square=st.booleans())
    def test_matches_sum_of_terms(self, a1, a2, zeta, row, gain, drop, nx, ny, square):
        try:
            spec = CatStateSpec(a1, a2, zeta)
        except ValueError:
            reject()
        assume(spec.norm_A <= 5.0)
        terms = p_cat_terms(spec).terms
        # dropping one of the off-diagonal partners leaves a rep that is not Hermitian
        rep = PRepresentation(terms if drop is None else terms[:drop] + terms[drop + 1:])
        need = max(min_safe_sigma(c) for term in rep.terms
                   for c in (term.center_r, term.center_i))
        sigma = max(need, 0.1) * 1.5
        t, g = {"q": (1.0, 1.0), "p": (2.0 * sigma * sigma, 1.0),
                "amp": (gain * gain - 1.0, gain)}[row]
        half = g * max(abs(a1), abs(a2)) + 6.0 * max(1.0, math.sqrt(t / 2.0))
        grid = Grid2D(-half, half, -0.8 * half, 0.9 * half, nx, nx if square else ny)
        alpha = meshgrid_plane(grid)
        total, peaks = _sum_terms(rep, alpha, t, g)
        terms = list(gaussian_terms(rep, alpha, t, g))
        want = sum(values for values, _ in terms)
        assert total.shape == alpha.shape and peaks == sum(peak for _, peak in terms)
        bound = 4.0 * np.finfo(float).eps * peaks
        assert np.max(np.abs(total.real - want.real)) <= bound
        assert np.max(np.abs(np.imag(total) - want.imag)) <= bound

    @pytest.mark.parametrize("spec", [EVEN_CAT, SKEW_CAT, CatStateSpec(2.0 + 1.0j, -1.5 - 0.5j, 0.7j),
                                      CatStateSpec(0.8, -0.8, 0.0)])
    def test_cat_imaginary_part_is_exactly_zero(self, spec):
        # Q, amplified Q and P at gain 2, regularized P at sigma 0.6: the
        # imaginary product is skipped, so the convolution runs one real chain
        rep = p_cat_terms(spec)
        alpha = meshgrid_plane(Grid2D(-7.0, 7.0, -6.0, 6.5, 61, 47))
        for t, g in [(1.0, 1.0), (4.0, 2.0), (3.0, 2.0), (0.72, 1.0)]:
            assert _sum_terms(rep, alpha, t, g)[0].dtype == float
        assert not p_regularized_eval(rep, 0.6, alpha).imag.any()

    @pytest.mark.parametrize("edit", ["unpaired", "ulp"])
    def test_imaginary_part_of_terms_without_exact_partner(self, edit):
        # one off-diagonal term alone, or its partner's kappa one ulp away:
        # the second product computes the imaginary part
        terms = p_cat_terms(SKEW_CAT).terms
        last = terms[3]
        if edit == "ulp":
            kappa = complex(np.nextafter(last.kappa.real, np.inf), last.kappa.imag)
            last = PTerm(kappa=kappa, beta=last.beta, gamma=last.gamma)
        rep = PRepresentation(terms[:3] if edit == "unpaired" else terms[:3] + (last,))
        alpha = meshgrid_plane(Grid2D(-6.0, 6.0, -5.0, 5.5, 51, 43))
        total, peaks = _sum_terms(rep, alpha, 1.0)
        want = sum(values for values, _ in gaussian_terms(rep, alpha, 1.0))
        assert total.dtype == complex and total.imag.any()
        assert np.max(np.abs(total.imag - want.imag)) <= 4.0 * np.finfo(float).eps * peaks

    def test_residue_guard_trips_without_partner(self):
        rep = PRepresentation(p_cat_terms(SKEW_CAT).terms[:3])
        alpha = meshgrid_plane(Grid2D(-6.0, 6.0, -5.0, 5.5, 51, 43))
        with pytest.raises(FloatingPointError, match=r"Q-like: .*imaginary residue [1-9]"):
            _hermitian_sum(rep, alpha, 1.0, 1.0, "Q-like")


class TestQFourierTerm:
    def test_zero_frequency_is_term_weight(self):
        for term in p_cat_terms(SKEW_CAT).terms:
            assert q_fourier_term(term, 0.0) == pytest.approx(term.weight)

    @pytest.mark.parametrize("xi", [0.7, -1.2j, 0.5 + 0.5j])
    def test_matches_brute_force_transform(self, xi):
        # oracle: 2D trapezoid of the term's Q contribution
        # (kappa/pi) <alpha|gamma> <beta|alpha> against e^{-i(xi_r a_r + xi_i a_i)}
        term = p_cat_terms(EVEN_CAT).terms[2]
        grid = alpha_grid(half=7.0, n=281)
        gx, gy = grid.meshgrid()
        a = gx + 1j * gy
        q_term = (term.kappa / math.pi) * coherent_overlap(a, term.gamma) \
            * coherent_overlap(term.beta, a)
        grid.values = q_term * np.exp(-1j * (xi.real * gx + xi.imag * gy))
        assert q_fourier_term(term, xi) == pytest.approx(grid.integrate(), abs=1e-7)

    def test_gaussian_envelope_in_frequency(self):
        term = PTerm(kappa=1.0, beta=0.0, gamma=0.0)
        for r in (0.0, 1.0, 2.0):
            assert q_fourier_term(term, r) == pytest.approx(math.exp(-r * r / 4.0))


class TestPRegularized:
    def test_diagonal_peak_height(self):
        rep = PRepresentation(terms=(PTerm(kappa=1.0, beta=0.7, gamma=0.7),))
        sigma = 0.3
        want = 1.0 / (2.0 * math.pi * sigma * sigma)
        assert p_regularized_eval(rep, sigma, 0.7) == pytest.approx(want)

    def test_plane_integral_is_trace(self):
        grid = alpha_grid(half=7.0, n=281)
        field = p_representation_grid(p_cat_terms(EVEN_CAT), 0.5, grid)
        total = field.integrate()
        assert total.real == pytest.approx(1.0, abs=1e-8)
        assert abs(total.imag) < 1e-10

    def test_single_off_diagonal_term_is_complex(self):
        # the conjugate pair sums to a real field; one member alone does not
        rep = p_cat_terms(EVEN_CAT)
        one = PRepresentation(terms=rep.terms[2:3])
        pair = PRepresentation(terms=rep.terms[2:])
        assert abs(p_regularized_eval(one, 0.4, 0.5 + 0.5j).imag) > 1e-6
        assert abs(p_regularized_eval(pair, 0.4, 0.5 + 0.5j).imag) < 1e-15


GAIN_2 = AmplifierGain(2.0)
# each evaluator's outputs, as a list
EVALUATORS = {
    "q_function": lambda a: [q_function(SKEW_CAT, a)],
    "amplify_q": lambda a: [amplify_q(SKEW_CAT, GAIN_2, a)],
    "amplified_p": lambda a: [amplified_p(SKEW_CAT, GAIN_2, a)],
    "amplified_p_terms": lambda a: amplified_p_terms(SKEW_CAT, GAIN_2, a),
    "p_regularized_eval": lambda a: [p_regularized_eval(p_cat_terms(SKEW_CAT), 0.6, a)],
    # three terms without exact partners: a complex sum, from both products
    "p_regularized_eval-unpaired": lambda a: [p_regularized_eval(
        PRepresentation(p_cat_terms(SKEW_CAT).terms[:3]), 0.6, a)],
    "gaussian_terms": lambda a: [v for pair in gaussian_terms(p_cat_terms(SKEW_CAT), a, 0.7, 1.3)
                                 for v in pair],
}


class TestGridRoute:
    @pytest.mark.parametrize("name", EVALUATORS)
    def test_grid_gives_the_plane_result(self, name):
        grid = Grid2D(-6.0, 6.5, -5.0, 5.5, 51, 43)
        got, want = EVALUATORS[name](grid), EVALUATORS[name](meshgrid_plane(grid))
        for g, w in zip(got, want, strict=True):
            assert_bitwise_equal(g, w)

    @pytest.mark.parametrize("name", EVALUATORS)
    def test_cells_beyond_square_overflow_are_zero(self, name):
        # beyond |u| ~ 1.3e154 a term's squares overflow to inf -/+ inf i; scaled on
        # their real view they give 0, not NaN, also where every node of an axis overflows
        wide = EVALUATORS[name](Grid2D(-8e307, 8e307, -8e307, 8e307, 3, 3))
        for got, want in zip(wide, EVALUATORS[name](np.zeros((1, 1))), strict=True):
            got = np.asarray(got)
            assert np.isfinite(got).all() and np.count_nonzero(got) <= 1
            centre = got[1, 1] if got.ndim else got
            assert complex(centre) == pytest.approx(complex(np.ravel(want)[0]), rel=1e-14)
        for alpha in (Grid2D(1e200, 1e300, 1e200, 1e300, 3, 3),
                      Grid2D(-1.0, 1.0, 1e200, 1e300, 3, 3),
                      np.array([8e307 + 8e307j, -1e300 + 0.5j, 1e200 - 1e200j])):
            for got in EVALUATORS[name](alpha):
                assert np.isfinite(got).all() and not np.any(got)

    @pytest.mark.parametrize("name", EVALUATORS)
    def test_xp_grid_is_refused(self, name):
        with pytest.raises(ValueError, match="alpha-plane grid"):
            EVALUATORS[name](Grid2D(-6.0, 6.0, -6.0, 6.0, 21, 21, axis_semantics="xp"))


class TestGrid2D:

    def test_integrate_constant(self):
        grid = Grid2D(-1.0, 2.0, 0.0, 1.0, 31, 21)
        grid.values[:] = 2.0
        assert grid.integrate() == pytest.approx(6.0)

    def test_csv_roundtrip(self):
        grid = Grid2D(-1.0, 1.0, -2.0, 2.0, 5, 7, axis_semantics="xp")
        rng = np.random.default_rng(7)
        grid.values = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        buf = io.StringIO()
        grid.to_csv(buf, meta=["field = test"])
        back = Grid2D.from_csv(io.StringIO(buf.getvalue()), axis_semantics="xp")
        assert back.nx == 5 and back.ny == 7
        assert back.xs == pytest.approx(grid.xs)
        np.testing.assert_allclose(back.values, grid.values, rtol=0, atol=0)

    @pytest.mark.parametrize("grid", [Grid2D(1.0, 1.0000000000000004, 0.0, 1.0, 9, 9),
                                      Grid2D(0.0, 1.0, 0.0, 5e-324, 3, 3)],
                             ids=["9-x-nodes-across-2-ulps", "3-y-nodes-across-a-subnormal"])
    def test_csv_of_nodes_that_round_together_is_refused(self, grid, tmp_path):
        # its rows would read back as a smaller grid; nothing is opened or written
        path, buf = tmp_path / "grid.csv", io.StringIO()
        for target in (str(path), buf):
            with pytest.raises(ValueError, match="are not distinct"):
                grid.to_csv(target)
        assert not path.exists() and buf.getvalue() == ""

    # a second line, a data row injected after the comment, and a carriage return
    @pytest.mark.parametrize("line", ["timestamp = a\nb", "timestamp = a\n1,2,3,4", "note = a\rb"])
    def test_csv_meta_line_with_a_line_break_is_refused(self, line, tmp_path):
        # what follows the break would read back as data; nothing is opened or written
        grid, path, buf = Grid2D(-1.0, 1.0, -1.0, 1.0, 3, 3), tmp_path / "grid.csv", io.StringIO()
        for target in (str(path), buf):
            with pytest.raises(ValueError, match="holds a line break"):
                grid.to_csv(target, meta=["field = q", line])
        assert not path.exists() and buf.getvalue() == ""

    def test_csv_missing_row_rejected(self):
        buf = io.StringIO()
        Grid2D(-1.0, 1.0, -1.0, 1.0, 3, 3).to_csv(buf)
        lines = buf.getvalue().splitlines()
        del lines[5]  # one interior point of the 3 x 3 grid
        with pytest.raises(ValueError, match="8 rows do not fill a 3 x 3 grid"):
            Grid2D.from_csv(io.StringIO("\n".join(lines)))

    def test_csv_duplicated_cell_rejected(self):
        buf = io.StringIO()
        Grid2D(-1.0, 1.0, -1.0, 1.0, 3, 3).to_csv(buf)
        lines = buf.getvalue().splitlines()
        lines[5] = lines[4]  # the row count still fills the 3 x 3 grid
        with pytest.raises(ValueError, match="9 rows do not fill a 3 x 3 grid"):
            Grid2D.from_csv(io.StringIO("\n".join(lines)))

    @pytest.mark.parametrize("text,match", [
        ("x,y,re,im\n", "0 rows do not fill a 0 x 0 grid"),
        ("# field = q\nx,y,re,im\n# integral = 0.0\n", "0 rows do not fill a 0 x 0 grid"),
        ("x,y,re,im\n0.0,0.0,1.0\n0.0,1.0,1.0\n1.0,0.0,1.0\n1.0,1.0,1.0\n", None),
        ("x,y,re,im\n0.0,0.0,1.0,0.0\n0.0,1.0,1.0,0.0,7.0\n", None),
        ("x,y,re,im\n0.0,0.0,1.0,0.0\n0.0,1.0,abc,0.0\n", None),
        ("x,y,re,im\n0.0,0.0,1.0,0.0\n0.0,1.0,,0.0\n", None),
        ("x,y,re,im\n" + "".join(f"{x},{y},1.0,0.0\n" for x in (0.0, 1.0, 3.0)
                                  for y in (0.0, 1.0)), "not the evenly spaced nodes"),
    ], ids=["header-only", "comments-only", "three-fields", "five-fields",
            "non-numeric", "empty-field", "non-uniform-x"])
    def test_csv_malformed_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            Grid2D.from_csv(io.StringIO(text))

    @given(grid=csv_grids())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_csv_matches_per_cell_reference(self, grid, tmp_path_factory):
        meta = ["field = q", "alpha1 = (1.5+0j)"]
        want = io.StringIO()
        reference_to_csv(grid, want, meta=meta)
        got = io.StringIO()
        grid.to_csv(got, meta=meta)
        assert got.getvalue() == want.getvalue()

        # read back from a stream and from a path
        semantics = grid.axis_semantics
        ref = reference_from_csv(io.StringIO(want.getvalue()), axis_semantics=semantics)
        reads = csv_outcomes(want.getvalue(), tmp_path_factory.mktemp("csv"), semantics)
        assert reads == [outcome(lambda _: ref, None)] * 2  # geometry, and signed zeros too
        back = Grid2D.from_csv(io.StringIO(want.getvalue()), axis_semantics=semantics)
        assert np.array_equal(back.values, grid.values)

    @pytest.mark.parametrize("layout", CSV_LAYOUTS)
    def test_csv_layouts_read_as_the_reference_reads_them(self, layout, tmp_path):
        text = CSV_LAYOUTS[layout]
        want = outcome(reference_from_csv, io.StringIO(text))
        assert not isinstance(want[0], type), want
        assert csv_outcomes(text, tmp_path) == [want, want]

    @pytest.mark.parametrize("text,message", [
        ("x,y,re,im\n", "0 rows do not fill a 0 x 0 grid"),
        ("# field = q\n\nx,y,re,im\n# integral = 0.0\n", "0 rows do not fill a 0 x 0 grid"),
        ("", "0 rows do not fill a 0 x 0 grid"),
        # a behaviour change: such a line was dropped, and is now refused as any other
        # line that is not numbers
        (CSV_ROWS.replace("\n", "\nx,y,re,im\n", 1),
         "could not convert string 'x' to float64 at row 1, column 1"),
        (CSV_ROWS + "  x,y,re,im\n", "could not convert string '  x' to float64 at row 6"),
        # loadtxt skips neither an indented comment nor a line of spaces
        ("  # field = q\n" + CSV_ROWS, "could not convert string '  ' to float64 at row 0"),
        ("x,y,re,im\n \n" + CSV_ROWS, "could not convert string ' ' to float64 at row 0"),
    ], ids=["header-only", "comments-and-header-only", "empty", "header-inside-the-rows",
            "header-after-the-rows", "indented-comment-first", "spaces-line-first"])
    def test_csv_head_only_or_header_among_rows_refused(self, text, message, tmp_path):
        (got_type, got_message), path_read = csv_outcomes(text, tmp_path)
        assert path_read == (got_type, got_message)
        assert got_type is ValueError and got_message.startswith(message), got_message

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_csv_path_named_as_compressed_reads_back(self, suffix, tmp_path):
        # to_csv writes text under any name; np.loadtxt, given such a path,
        # would open it as compressed
        grid = Grid2D(-1.0, 1.0, -2.0, 2.0, 3, 4)
        grid.values = np.arange(12).reshape(3, 4) * (0.5 - 0.25j)
        path = str(tmp_path / f"grid.csv{suffix}")
        grid.to_csv(path, meta=["field = test"])
        assert Grid2D.from_csv(path).values.tobytes() == grid.values.tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_csv_path_to_a_pipe_reads_every_row(self, tmp_path):
        # a pipe can be read once: the head read must not be lost to a second
        # open, here past the first read buffer of the file object
        grid = Grid2D(-1.0, 1.0, -2.0, 2.0, 40, 30)
        grid.values = np.arange(1200).reshape(40, 30) * (0.5 - 0.25j)
        text = io.StringIO()
        grid.to_csv(text, meta=["field = test"])
        assert len(text.getvalue()) > 4 * io.DEFAULT_BUFFER_SIZE
        path = str(tmp_path / "grid.csv")
        os.mkfifo(path)

        def write():
            with open(path, "w") as out:
                out.write(text.getvalue())
        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        back = Grid2D.from_csv(path)
        writer.join(timeout=10)
        assert back.values.tobytes() == grid.values.tobytes()

    @pytest.mark.parametrize("source", ["path", "stream"])
    def test_csv_read_memory_bounded(self, source, tmp_path):
        # a few float64 columns per cell, not Python objects per field (~190 B)
        n = 201
        grid = Grid2D(-5.0, 5.0, -4.0, 4.0, n, n)
        grid.values = np.random.default_rng(3).normal(size=(n, n)) * (1 - 2j)
        path = str(tmp_path / "grid.csv")
        grid.to_csv(path, meta=["field = test"])
        with open(path) if source == "stream" else nullcontext(path) as src:
            tracemalloc.start()
            try:
                back = Grid2D.from_csv(src)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        np.testing.assert_array_equal(back.values, grid.values)
        # the parsed rows (32 B per cell) and the grid (16 B): no sort, no inverse index
        assert peak < 50 * n * n

    @pytest.mark.parametrize("order", ["shuffled", "reversed", "y-major", "x-blocks-swapped",
                                       "y-reversed-under-each-x"])
    def test_csv_rows_out_of_to_csv_order_read_to_the_same_grid(self, order):
        grid = Grid2D(-1.0, 1.0, -0.0, 2.0, 6, 5, axis_semantics="xp")
        grid.values = np.random.default_rng(8).normal(size=(6, 5)) * (1 - 3j)
        grid.values[2, 3] = complex(-0.0, math.nan)
        buf = io.StringIO()
        grid.to_csv(buf, meta=["field = test"])
        head, *rows = buf.getvalue().splitlines(keepends=True)[1:]
        if order == "shuffled":
            np.random.default_rng(9).shuffle(rows)
        elif order == "reversed":
            rows.reverse()
        elif order == "y-major":
            rows = [rows[i * 5 + j] for j in range(5) for i in range(6)]
        elif order == "x-blocks-swapped":
            rows = rows[5:10] + rows[:5] + rows[10:]
        else:
            rows = [rows[i * 5 + j] for i in range(6) for j in reversed(range(5))]

        def read(text):
            return Grid2D.from_csv(io.StringIO(text), axis_semantics="xp")

        text = head + "".join(rows)
        assert outcome(read, text) == outcome(read, buf.getvalue())
        assert read(text).values.tobytes() == grid.values.tobytes()

    # a 4 x 5 file in to_csv's order with one edit, refused as an unsorted file is
    @pytest.mark.parametrize("edit,message", [
        (lambda rows: rows[:-1], "19 rows do not fill a 4 x 5 grid"),
        (lambda rows: rows[:7] + rows[8:], "19 rows do not fill a 4 x 5 grid"),
        (lambda rows: rows[:7] + rows[6:7] + rows[8:], "20 rows do not fill a 4 x 5 grid"),
        (lambda rows: rows + rows[-1:], "21 rows do not fill a 4 x 5 grid"),
        (lambda rows: rows[:5] * 2 + rows[10:], "20 rows do not fill a 3 x 5 grid"),
        (lambda rows: rows[:10] + rows[:5] + rows[15:], "20 rows do not fill a 3 x 5 grid"),
        (lambda rows: rows + rows[-5:], "25 rows do not fill a 4 x 5 grid"),
        (lambda rows: rows[:5] + rows[10:], "not the evenly spaced nodes of a 3 x 5 grid"),
    ], ids=["missing-last", "missing-interior", "repeated-neighbour", "repeated-at-end",
            "repeated-x", "repeated-x-apart", "repeated-last-x", "missing-x"])
    def test_csv_in_order_with_a_missing_or_repeated_cell_is_refused(self, edit, message):
        buf = io.StringIO()
        Grid2D(-1.0, 1.0, -2.0, 2.0, 4, 5).to_csv(buf)
        head, *rows = buf.getvalue().splitlines(keepends=True)
        with pytest.raises(ValueError, match=re.escape(message)):
            Grid2D.from_csv(io.StringIO(head + "".join(edit(rows))))

    @pytest.mark.parametrize("source", ["path", "stream"])
    def test_csv_read_of_shuffled_rows_memory_bounded(self, source, tmp_path):
        # the parsed rows (32 B per cell), lexsort's order (8 B), the sorted x
        # and y columns (16 B) and the grid (16 B); np.unique's fill took 81 B
        n = 201
        grid = Grid2D(-5.0, 5.0, -4.0, 4.0, n, n)
        grid.values = np.random.default_rng(3).normal(size=(n, n)) * (1 - 2j)
        buf = io.StringIO()
        grid.to_csv(buf, meta=["field = test"])
        head, *rows = buf.getvalue().splitlines(keepends=True)[1:]
        np.random.default_rng(9).shuffle(rows)
        path = tmp_path / "grid.csv"
        path.write_text(head + "".join(rows))
        with open(path) if source == "stream" else nullcontext(str(path)) as src:
            tracemalloc.start()
            try:
                back = Grid2D.from_csv(src)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert back.values.tobytes() == grid.values.tobytes()
        assert peak < 76 * n * n

    @given(grid=csv_grids(), data=st.data())
    @settings(max_examples=60)
    def test_csv_rows_in_any_order_read_as_in_to_csv_order(self, grid, data):
        semantics = grid.axis_semantics
        buf = io.StringIO()
        grid.to_csv(buf, meta=["field = q"])
        lines = buf.getvalue().splitlines(keepends=True)
        head, rows = "".join(lines[:2]), lines[2:]
        order = data.draw(st.permutations(range(len(rows))))
        text = head + "".join(rows[i] for i in order)

        def read(text):
            return Grid2D.from_csv(io.StringIO(text), axis_semantics=semantics)

        want = outcome(read, buf.getvalue())
        assert not isinstance(want[0], type), want
        assert outcome(read, text) == want  # bounds, sizes and value bits
        assert outcome(lambda t: reference_from_csv(io.StringIO(t), semantics), text) == want

    @given(grid=csv_grids(), data=st.data())
    @settings(max_examples=60)
    def test_csv_rows_with_one_dropped_or_repeated_are_refused_in_any_order(self, grid, data):
        buf = io.StringIO()
        grid.to_csv(buf)
        head, *rows = buf.getvalue().splitlines(keepends=True)
        i = data.draw(st.integers(0, len(rows) - 1))
        rows = rows[:i] + rows[i + 1:] if data.draw(st.booleans()) else rows[:i + 1] + rows[i:]
        order = data.draw(st.permutations(range(len(rows))))

        def read(text):
            return Grid2D.from_csv(io.StringIO(text))

        message = f"{len(rows)} rows do not fill a {grid.nx} x {grid.ny} grid"
        assert outcome(read, head + "".join(rows)) == (ValueError, message)
        assert outcome(read, head + "".join(rows[k] for k in order)) == (ValueError, message)

    # each fills its grid but for a count below 2 or a NaN node, which the grid
    # itself refuses, in to_csv's order and in any other
    @pytest.mark.parametrize("rows,message", [
        ([(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)], "nx must be an integer >= 2, got 1"),
        ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], "ny must be an integer >= 2, got 1"),
        ([(0.0, 0.0), (0.0, 1.0), (math.nan, 0.0), (math.nan, 1.0)],
         "bounds and the spans between them must be finite, got (0.0, nan, 0.0, 1.0)"),
        ([(0.0, math.nan), (0.0, 1.0), (1.0, math.nan), (1.0, 1.0)],
         "bounds and the spans between them must be finite, got (0.0, 1.0, 1.0, nan)"),
    ], ids=["single-x", "single-y", "nan-x", "nan-y"])
    def test_csv_of_a_degenerate_grid_is_refused_by_the_grid(self, rows, message, tmp_path):
        for listed in (rows, rows[::-1]):
            text = "x,y,re,im\n" + "".join(f"{x},{y},1.0,0.0\n" for x, y in listed)
            assert csv_outcomes(text, tmp_path) == [(ValueError, message)] * 2

    def test_csv_write_memory_bounded_by_one_row(self):
        class Discard:
            def write(self, text):
                pass

        n = 401
        grid = Grid2D(-5.0, 5.0, -4.0, 4.0, n, n)
        grid.values = np.random.default_rng(4).normal(size=(n, n)) * (1 + 1j)
        tracemalloc.start()
        try:
            grid.to_csv(Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_json_roundtrip(self):
        grid = Grid2D(-3.0, 3.0, -3.0, 3.0, 4, 4)
        grid.values[1, 2] = 0.5 - 0.25j
        back = Grid2D.from_json(grid.to_json(meta={"note": "x"}))
        assert back.axis_semantics == "alpha"
        assert back.x_min == grid.x_min and back.ny == grid.ny
        np.testing.assert_array_equal(back.values, grid.values)

    @given(grid=json_grids(), meta=st.sampled_from(
        [None, {}, {"field": "q", "sigma": 0.5}, {"values": [[1.0, 2.0]]},
         {"note": 'a "values": [[1.0, 2.0]]', "nan": math.nan}]))
    @settings(max_examples=150)
    def test_json_matches_one_shot_dumps_and_reads_back_bitwise(self, grid, meta):
        want = reference_to_json(grid, meta)
        assert grid.to_json(meta) == want
        assert len(list(grid.json_chunks(meta))) == grid.nx + 2  # head, one per row, tail
        assert isinstance(loads_with_pairs(want, "values")["values"], np.ndarray)
        back = Grid2D.from_json(want)
        assert outcome(lambda _: back, want) == outcome(reference_from_json, want)
        np.testing.assert_array_equal(back.values, grid.values)  # NaN positions included
        zeros = grid.values == 0
        for part in ("real", "imag"):
            np.testing.assert_array_equal(np.signbit(getattr(back.values, part)[zeros]),
                                          np.signbit(getattr(grid.values, part)[zeros]))

    @pytest.mark.parametrize("text", REFUSED_JSON.values(), ids=REFUSED_JSON)
    def test_from_json_refuses_what_json_loads_refuses(self, text):
        want = outcome(reference_from_json, text)
        assert isinstance(want[0], type), "the reference reader accepts this text"
        assert outcome(Grid2D.from_json, text) == want

    @pytest.mark.parametrize("name", ACCEPTED_JSON)
    def test_from_json_reads_what_json_loads_reads(self, name):
        text = ACCEPTED_JSON[name]
        want = outcome(reference_from_json, text)
        assert not isinstance(want[0], type), want
        assert outcome(Grid2D.from_json, text) == want
        slice_read = isinstance(loads_with_pairs(text, "values")["values"], np.ndarray)
        assert slice_read == (name in SLICE_READ_JSON)

    def test_from_json_refuses_a_bool_value(self):
        with pytest.raises(ValueError, match=r"not \[re, im\] number pairs"):
            Grid2D.from_json(REFUSED_JSON["bool"])

    def test_json_write_memory_bounded_by_one_row(self, tmp_path):
        n = 401
        grid = Grid2D(-5.0, 5.0, -4.0, 4.0, n, n)
        grid.values = np.random.default_rng(5).normal(size=(n, n)) * (1 - 1j)
        with open(tmp_path / "grid.json", "w") as out:
            tracemalloc.start()
            try:
                out.writelines(grid.json_chunks({"field": "test"}))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (tmp_path / "grid.json").read_text() == reference_to_json(grid, {"field": "test"})
        assert peak < 1e6

    def test_json_read_memory_one_plane_and_a_slice_beyond_the_text(self):
        # the grid, filled in place, plus one slice's copies of the text and its lists
        n = 401
        grid = Grid2D(-5.0, 5.0, -4.0, 4.0, n, n)
        grid.values = np.random.default_rng(6).normal(size=(n, n)) * (1 + 2j)
        text = grid.to_json()
        tracemalloc.start()
        try:
            back = Grid2D.from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.values.tobytes() == grid.values.tobytes()
        assert peak < grid.values.nbytes + 2e6

    def test_json_of_several_slices_reads_back_bitwise(self):
        grid = Grid2D(-5.0, 5.0, -4.0, 4.0, 301, 280)
        grid.values = np.random.default_rng(10).normal(size=(301, 280)) * (1 - 0.5j)
        grid.values.flat[::97] = complex(-0.0, math.inf)
        grid.values.flat[5::89] = complex(math.nan, -math.inf)
        text = grid.to_json({"field": "q"})
        assert len(slice_cuts(text)) >= 2
        assert isinstance(loads_with_pairs(text, "values")["values"], np.ndarray)
        assert outcome(Grid2D.from_json, text) == outcome(reference_from_json, text)
        assert Grid2D.from_json(text).values.tobytes() == grid.values.tobytes()

    @pytest.mark.parametrize("edit", SLICE_EDITS)
    def test_edit_at_a_slice_cut_reads_as_json_loads_reads_it(self, edit, monkeypatch):
        # slices of a few pairs, so that every few pairs meet at a cut
        monkeypatch.setattr(numerics, "_SLICE", 40)
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 4, 4)
        grid.values = np.arange(16).reshape(4, 4) / 8.0 - 0.25j
        text = grid.to_json()
        cuts = slice_cuts(text)
        assert len(cuts) >= 5
        assert outcome(Grid2D.from_json, text) == outcome(reference_from_json, text)
        for cut in cuts:
            for edited_text in SLICE_EDITS[edit](text, cut):
                want = outcome(reference_from_json, edited_text)
                assert outcome(Grid2D.from_json, edited_text) == want
                if edit in ("newline", "integer", "negative-integer-zero", "integer-slice",
                            "integer-slice-beyond-int64", "pair-spaced"):
                    assert not isinstance(want[0], type), "json.loads reads this text"
                    values = loads_with_pairs(edited_text, "values")["values"]
                    assert isinstance(values, np.ndarray)

    @given(text=spelled_grid_json())
    @settings(max_examples=300)
    def test_pairs_in_any_json_spelling_read_as_json_loads_reads_them(self, text):
        with pytest.MonkeyPatch.context() as patch:
            # slices of a few pairs, so that most texts are read in several
            patch.setattr(numerics, "_SLICE", 40)
            assert outcome(Grid2D.from_json, text) == outcome(reference_from_json, text)

    def test_rejects_bad_semantics(self):
        with pytest.raises(ValueError, match="axis_semantics"):
            Grid2D(-1, 1, -1, 1, 3, 3, axis_semantics="polar")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            Grid2D(-1, 1, -1, 1, 3, 3, values=np.zeros((2, 2)))

    @pytest.mark.parametrize("bounds", [(6, -6, -6, 6), (-6, 6, 6, -6),
                                        (6, 6, -6, 6), (-6, 6, 2, 2)],
                             ids=["inverted-x", "inverted-y", "degenerate-x", "degenerate-y"])
    def test_rejects_inverted_or_degenerate_bounds(self, bounds):
        with pytest.raises(ValueError, match="x_min < x_max and y_min < y_max"):
            Grid2D(*bounds, 5, 5)

    def test_rejects_span_that_overflows(self):
        # each bound is finite, but their difference is not: linspace would make NaN nodes
        match = "spans between them must be finite"
        with pytest.raises(ValueError, match=match):
            Grid2D(-1e308, 1e308, -1.0, 1.0, 3, 3)
        data = json.loads(Grid2D(-1.0, 1.0, -1.0, 1.0, 3, 3).to_json())
        data["axes"].update(y_min=-1e308, y_max=1e308)
        with pytest.raises(ValueError, match=match):
            Grid2D.from_json(json.dumps(data))
        rows = [f"{x!r},{y!r},0.0,0.0\n" for x in (-1e308, 0.0, 1e308) for y in (-1.0, 1.0)]
        with pytest.raises(ValueError, match=match):
            Grid2D.from_csv(io.StringIO("x,y,re,im\n" + "".join(rows)))

    @pytest.mark.parametrize("field,value,match", [
        ("x_max", math.inf, "finite"), ("y_min", -math.inf, "finite"),
        ("x_min", math.nan, "finite"), ("nx", 3.0, "nx must be an integer"),
        ("ny", 1, "ny must be an integer"), ("nx", "3", "nx must be an integer")])
    def test_from_json_rejects_tampered_geometry(self, field, value, match):
        data = json.loads(Grid2D(-1.0, 1.0, -1.0, 1.0, 3, 3).to_json())
        (data if field in ("nx", "ny") else data["axes"])[field] = value
        with pytest.raises(ValueError, match=match):
            Grid2D.from_json(json.dumps(data))

    def test_opened_closes_paths_and_leaves_streams_open(self, tmp_path):
        buf = io.StringIO()
        with opened(buf, "w") as stream:
            assert stream is buf
        assert not buf.closed
        path = str(tmp_path / "grid.csv")
        with opened(path, "w") as stream:
            stream.write("x,y,re,im\n")
        assert stream.closed


# reals whose spelling a writer must keep: signed zeros, subnormals, the
# largest magnitudes and the non-finite values (json.dumps writes NaN and Infinity)
SPELLED_REALS = [-0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e308, -1e308,
                 1.7976931348623157e308, math.nan, math.inf, -math.inf, 1.0 / 3.0]


def spelled_real_values(nx, ny):
    """An (nx, ny) float array of SPELLED_REALS at seeded cells among normals
    scaled by 1e-300 to 1e300."""
    rng = np.random.default_rng(nx * 1000 + ny)
    values = rng.normal(size=(nx, ny)) * 10.0 ** rng.integers(-300, 300, size=(nx, ny))
    values.flat[rng.permutation(nx * ny)[:len(SPELLED_REALS)]] = SPELLED_REALS
    return values


class TestRealGrid:
    """A real field is stored as float64, and its text, integral and
    convolutions are those of its complex twin (the same values stored as
    complex128)."""

    @pytest.mark.parametrize("values, dtype", [
        (np.ones((3, 4)), np.float64), (np.ones((3, 4), dtype=np.float32), np.float64),
        (np.arange(12).reshape(3, 4), np.float64), (np.eye(3, 4, dtype=bool), np.float64),
        ([[1.0] * 4] * 3, np.float64), (np.ones((3, 4)) * 1j, np.complex128),
        (np.ones((3, 4), dtype=np.complex64), np.complex128), ([[1j] * 4] * 3, np.complex128)],
        ids=["float64", "float32", "int", "bool", "float-list", "complex128", "complex64",
             "complex-list"])
    def test_values_keep_their_kind(self, values, dtype):
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 3, 4, values=values)
        assert grid.values.dtype == dtype
        np.testing.assert_array_equal(grid.values, np.asarray(values))
        # an array already of the stored dtype is held without a copy
        assert (grid.values is values) == (getattr(values, "dtype", None) == dtype)

    def test_no_values_are_complex_zeros(self):
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 3, 4)
        assert grid.values.dtype == np.complex128 and not grid.values.any()
        assert grid.like().values.dtype == np.complex128

    @pytest.mark.parametrize("nx, ny", [(7, 6), (6, 7), (5, 5), (8, 8)])
    def test_library_writers_write_the_complex_twins_text(self, nx, ny):
        real = Grid2D(-1.0, 1.0, -2.0, 3.0, nx, ny, values=spelled_real_values(nx, ny))
        twin = real.like(values=real.values.astype(complex))
        assert (real.values.dtype, twin.values.dtype) == (np.float64, np.complex128)
        meta = ["field = test"]
        texts = []
        for grid in (real, twin):
            buf = io.StringIO()
            grid.to_csv(buf, meta=meta)
            texts.append((buf.getvalue(), grid.to_json({"field": "test"}),
                          "".join(grid.json_chunks({"field": "test"}))))
        assert texts[0] == texts[1]
        csv_text, json_text, chunks = texts[0]
        oracle = io.StringIO()
        reference_to_csv(twin, oracle, meta=meta)
        assert csv_text == oracle.getvalue()
        assert json_text == chunks == reference_to_json(twin, {"field": "test"})
        for spelled in ("[NaN, 0.0]", "[Infinity, 0.0]", "[-Infinity, 0.0]", "[-0.0, 0.0]",
                        "[5e-324, 0.0]", "[-1e-310, 0.0]", "[1.7976931348623157e+308, 0.0]"):
            assert spelled in json_text
        for spelled in (",nan,0.0\n", ",inf,0.0\n", ",-inf,0.0\n", ",-0.0,0.0\n"):
            assert spelled in csv_text

    # grids on which a real product's sum parts from a complex one's in the last bit
    @pytest.mark.parametrize("spec, n", [(EVEN_CAT, 201), (SKEW_CAT, 401)])
    def test_integral_is_the_complex_twins(self, spec, n):
        # the CLI's CSV footer writes it
        grid = alpha_grid(half=6.0, n=n)
        real = grid.like(values=q_function(spec, grid))
        twin = real.like(values=real.values.astype(complex))
        assert real.integrate().real.hex() == twin.integrate().real.hex()
        assert real.values.dtype == np.float64

    def test_readers_return_complex_grids(self, tmp_path):
        real = Grid2D(-1.0, 1.0, -2.0, 3.0, 5, 4, values=spelled_real_values(5, 4))
        path = str(tmp_path / "grid.csv")
        real.to_csv(path)
        for back in (Grid2D.from_csv(path), Grid2D.from_json(real.to_json())):
            assert back.values.dtype == np.complex128
            assert_bitwise_equal(back.values, real.values.astype(complex))

    def test_library_fields_are_real(self):
        grid = alpha_grid(n=41)
        xp = Grid2D(-8.0, 8.0, -8.0, 8.0, 41, 41, axis_semantics="xp")
        assert p_representation_grid(p_cat_terms(SKEW_CAT), 0.6, grid).values.dtype == float
        assert wigner_fock(3, xp).values.dtype == float
        # a term without its conjugate partner keeps a complex grid; the
        # pointwise regularized P stays complex for any terms
        lone = PRepresentation((PTerm(kappa=1.0, beta=0.5, gamma=-0.5j),))
        assert p_representation_grid(lone, 0.6, grid).values.dtype == complex
        assert p_regularized_eval(p_cat_terms(SKEW_CAT), 0.6, grid).dtype == complex

    @pytest.mark.parametrize("method", ["separable", "direct"])
    def test_convolution_output_follows_its_source(self, method):
        grid = alpha_grid(half=3.0, n=21)
        real = p_representation_grid(p_cat_terms(SKEW_CAT), 0.6, grid)
        twin = real.like(values=real.values.astype(complex))
        out_real = _gaussian_convolve(real, grid, method)
        out_twin = _gaussian_convolve(twin, grid, method)
        assert (out_real.values.dtype, out_twin.values.dtype) == (np.float64, np.complex128)
        # the twin's imaginary part is all 0, and so is its output's
        assert not out_twin.values.imag.any()
        if method == "separable":
            assert_bitwise_equal(out_real.values, out_twin.values.real.copy())
        else:
            # the direct oracle's real and complex sums may part in the last bit
            np.testing.assert_allclose(out_real.values, out_twin.values.real, rtol=1e-14)

    def test_chain_is_its_complex_twins_real_part(self):
        # P -> W -> Q of a real P, bit for bit the chain of its complex twin
        grid = alpha_grid(half=7.0, n=201)
        p = p_representation_grid(p_cat_terms(SKEW_CAT), 0.6, grid)
        real = q_from_wigner(wigner_from_p(p, grid), grid)
        twin = q_from_wigner(wigner_from_p(p.like(values=p.values.astype(complex)), grid), grid)
        assert real.values.dtype == np.float64
        assert_bitwise_equal(real.values, twin.values.real.copy())

    def test_p_grid_memory_bounded(self):
        # the real sum of the terms is the grid's values: about 1.13 real
        # planes at 401^2, the rest being the axis factors
        grid = alpha_grid(half=7.0, n=401)
        rep = p_cat_terms(SKEW_CAT)
        tracemalloc.start()
        try:
            p_representation_grid(rep, 0.6, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.15 * grid.nx * grid.ny * np.dtype(float).itemsize


class TestWignerFock:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_laguerre_closed_form(self, n):
        grid = Grid2D(-6.0, 6.0, -6.0, 6.0, 81, 81, axis_semantics="xp")
        # from n = 2 on, the +-6 window is inside the recommended reach
        with pytest.warns(UserWarning, match="grid extent") if n >= 2 else nullcontext():
            w = wigner_fock(n, grid)
        gx, gy = grid.meshgrid()
        r_sq = gx**2 + gy**2
        want = ((-1.0) ** n / math.pi) * np.exp(-r_sq) * eval_laguerre(n, 2.0 * r_sq)
        np.testing.assert_allclose(w.values.real, want, rtol=0, atol=1e-10)

    def test_momentum_marginal_is_position_density(self):
        # integrating W over p recovers |psi_n(x)|^2
        grid = Grid2D(-7.0, 7.0, -7.0, 7.0, 141, 141, axis_semantics="xp")
        w = wigner_fock(2, grid)
        dp = grid.dy
        marginal = np.trapezoid(w.values.real, dx=dp, axis=1)
        want = fock_wavefunction(2, grid.xs) ** 2
        np.testing.assert_allclose(marginal, want, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_cells_beyond_overflow_are_zero(self, n):
        # 2 (x^2 + p^2) overflows at |x| = 1e200, where the recurrence would
        # make NaN; those cells are 0, and the x = 0 cells those of a small grid
        big = wigner_fock(n, Grid2D(-1e200, 1e200, -10.0, 10.0, 3, 3, axis_semantics="xp"))
        small = wigner_fock(n, Grid2D(-10.0, 10.0, -10.0, 10.0, 3, 3, axis_semantics="xp"))
        assert not big.values[[0, 2]].any()
        assert_bitwise_equal(big.values[1], small.values[1])

    def test_rejects_alpha_grid(self):
        with pytest.raises(ValueError, match="XP"):
            wigner_fock(0, alpha_grid())

    def test_warns_on_small_grid(self):
        grid = Grid2D(-2.0, 2.0, -2.0, 2.0, 21, 21, axis_semantics="xp")
        with pytest.warns(UserWarning, match="extent"):
            wigner_fock(4, grid)

    # the library-sweep strata: n 0-3 at 401^2, 4-7 at 201^2, 8-10 at 101^2
    @pytest.mark.parametrize("n,nodes", [(n, 401) for n in range(4)]
                             + [(n, 201) for n in range(4, 8)]
                             + [(n, 101) for n in range(8, 11)])
    def test_matches_quadrature_reference(self, n, nodes):
        half = 2.0 * math.sqrt(n) + 6.0
        grid = Grid2D(-half, half, -half, half, nodes, nodes, axis_semantics="xp")
        w = wigner_fock(n, grid)
        np.testing.assert_allclose(w.values.real, reference_wigner_fock(n, grid).real,
                                   rtol=0, atol=1e-13)
        np.testing.assert_array_equal(w.values.imag, 0.0)

    @pytest.mark.parametrize("n,match", [(-1, "non-negative integer"),
                                         (1.5, "non-negative integer"),
                                         (65, "exceeds the guard")])
    def test_rejects_bad_n(self, n, match):
        grid = Grid2D(-6.0, 6.0, -6.0, 6.0, 21, 21, axis_semantics="xp")
        with pytest.raises(ValueError, match=match):
            wigner_fock(n, grid)

    def test_wigner_memory_bounded(self):
        n = 401
        grid = Grid2D(-9.5, 9.5, -9.5, 9.5, n, n, axis_semantics="xp")
        tracemalloc.start()
        try:
            wigner_fock(3, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the real product (8 B a cell) is the grid's values; the axis factors
        # add (n + 1) rows per axis
        assert peak < 1.05 * 8 * n * n

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20, 40, HERMITE_N_MAX])
    def test_matches_mpmath_oracle(self, n):
        # at the origin, at random cells of a grid holding the state and the 5 x 5
        # cells nearest its origin, where the terms cancel most, and at cells where
        # 2 x^2 alone (x = 1e154: x^2 is finite) or 2 p^2 alone (p = 1e200)
        # overflows, every value is within (n + 1) eps / pi of the 40-digit one
        half = 2.0 * math.sqrt(n) + 6.0
        inner = Grid2D(-half, half, -0.9 * half, 1.1 * half, 61, 53, axis_semantics="xp")
        far_x = Grid2D(-1e154, 1e154, -half, half, 3, 41, axis_semantics="xp")
        far_p = Grid2D(-half, half, -1e200, 1e200, 41, 3, axis_semantics="xp")
        assert far_x.xs[1] == far_x.ys[20] == far_p.ys[1] == 0.0
        rng = np.random.default_rng(n)
        cells = [(inner, rng.integers(61), rng.integers(53)) for _ in range(40)]
        cells += [(inner, i, j) for i in range(28, 33) for j in range(22, 27)]
        cells += [(grid, i, j) for grid in (far_x, far_p)
                  for i in range(grid.nx) for j in range(grid.ny)]
        values = {id(grid): wigner_fock(n, grid).values for grid in (inner, far_x, far_p)}
        for grid, i, j in cells:
            got = values[id(grid)][i, j]
            assert got.imag == 0.0
            want = mp_wigner_fock(n, grid.xs[i], grid.ys[j])
            assert abs(got.real - want) <= wigner_rounding(n), (grid.xs[i], grid.ys[j])

    @given(n=st.integers(0, HERMITE_N_MAX), spacing=st.floats(0.1, 0.2),
           shifts=st.tuples(*[st.floats(-1.0, 1.0)] * 4))
    @settings(max_examples=30)
    def test_normalized_and_bounded(self, n, spacing, shifts):
        # on any window holding the state, at spacings that resolve its ripples,
        # the trapezoid integral is 1 and no value exceeds 1/pi beyond rounding
        half = 2.0 * math.sqrt(n) + 7.0
        lo_x, hi_x, lo_p, hi_p = (s + b for s, b in zip(shifts, (-half, half, -half, half)))
        nx, ny = (math.ceil((hi - lo) / spacing) + 1 for lo, hi in ((lo_x, hi_x), (lo_p, hi_p)))
        w = wigner_fock(n, Grid2D(lo_x, hi_x, lo_p, hi_p, nx, ny, axis_semantics="xp"))
        assert abs(w.integrate() - 1.0) <= 1e-10
        assert np.abs(w.values.real).max() <= 1.0 / math.pi + wigner_rounding(n)


def reference_axis_kernel(out_axis, src_axis, weights):
    """_axis_kernel's factors built the direct way: far exponents set to -inf
    before exp, the Lagrange matrix in an array of its own, and the second
    factor a new product with the weights."""
    def gauss(out_axis, src_axis):
        expo = np.subtract.outer(out_axis, src_axis)
        expo *= expo
        expo *= -2.0
        expo[expo < -72.0] = -np.inf
        return np.exp(expo, out=expo)

    n_out, n_src = len(out_axis), len(src_axis)
    m = math.ceil(min(16.0 * (src_axis[-1] - src_axis[0]) / 2.0, n_src)) + 12
    if m * (n_out + n_src) >= n_out * n_src:
        kernel = gauss(out_axis, src_axis)
        kernel *= weights
        return (kernel,)
    half = (src_axis[-1] - src_axis[0]) / 2.0
    theta = (np.arange(m) + 0.5) * (math.pi / m)
    points = src_axis[0] + half * (1.0 + np.cos(theta))
    gap = np.subtract.outer(src_axis, points) / half
    hit = gap == 0.0
    gap[hit] = 1.0
    lagrange = (-1.0) ** np.arange(m) * np.sin(theta) / gap
    lagrange /= lagrange.sum(axis=1, keepdims=True)
    on_point = hit.any(axis=1)
    lagrange[on_point] = hit[on_point]
    return gauss(out_axis, points), lagrange.T * weights


# the benchmark's square axes (101, 201 and 401 nodes at field_bound half-spans
# 6.5..10) and verify's padded 321-node source for its 161-node output
KERNEL_AXES = [*((np.linspace(-half, half, n), np.linspace(-half, half, n))
                 for n in (101, 201, 401) for half in (6.5, 8.0, 9.9, 10.0)),
               (np.linspace(-6.0, 6.0, 161), np.linspace(-12.0, 12.0, 321))]


class TestConvolutionTransforms:
    @pytest.mark.parametrize("out_axis, src_axis", KERNEL_AXES)
    def test_axis_kernel_equals_reference_build(self, out_axis, src_axis):
        # bit for bit, whatever the factors' memory order
        weights = trapezoid_weights(len(src_axis), src_axis[1] - src_axis[0])
        got = _axis_kernel(out_axis, src_axis, weights)
        want = reference_axis_kernel(out_axis, src_axis, weights)
        assert [f.shape for f in got] == [f.shape for f in want]
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    @pytest.mark.parametrize("half", [9.9, 24.0])
    @pytest.mark.parametrize("nodes", [101, 401, 1601])
    def test_axis_kernel_signals_no_floating_point_error(self, half, nodes):
        # far entries become exact zeros without exp underflowing on them
        axis = np.linspace(-half, half, nodes)
        with np.errstate(all="raise"):
            _axis_kernel(axis, axis, trapezoid_weights(nodes, axis[1] - axis[0]))

    def test_convolution_raises_no_warning(self):
        grid = alpha_grid(half=9.9, n=401)
        p = p_representation_grid(p_cat_terms(SKEW_CAT), 0.3, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _gaussian_convolve(_gaussian_convolve(p, grid), grid)

    def test_coherent_projector_wigner_closed_form(self):
        # P of width sigma centered at b convolves to a Gaussian of
        # per-axis variance sigma^2 + 1/4
        b, sigma = 1.0, 0.5
        rep = PRepresentation(terms=(PTerm(kappa=1.0, beta=b, gamma=b),))
        grid = alpha_grid(half=6.0, n=161)
        w = wigner_from_p(p_representation_grid(rep, sigma, grid), grid)
        gx, gy = grid.meshgrid()
        s_sq = sigma * sigma + 0.25
        want = np.exp(-((gx - b) ** 2 + gy**2) / (2.0 * s_sq)) / (2.0 * math.pi * s_sq)
        np.testing.assert_allclose(w.values.real, want, rtol=0, atol=1e-9)
        assert np.max(np.abs(w.values.imag)) < 1e-12

    def test_q_from_wigner_coherent(self):
        b = 0.8
        grid = alpha_grid(half=6.0, n=161)
        gx, gy = grid.meshgrid()
        w = grid.like(values=(2.0 / math.pi) * np.exp(-2.0 * ((gx - b) ** 2 + gy**2)))
        q = q_from_wigner(w, grid)
        want = np.exp(-((gx - b) ** 2 + gy**2)) / math.pi
        np.testing.assert_allclose(q.values.real, want, rtol=0, atol=1e-9)

    # square grids share one axis kernel; the others build ky on its own
    @pytest.mark.parametrize("src,out,part", [
        (Grid2D(-3.0, 3.0, -3.0, 3.0, 61, 61), Grid2D(-2.0, 2.0, -2.0, 2.0, 11, 11), 1j),
        (Grid2D(-3.0, 3.0, -3.0, 3.0, 61, 61), Grid2D(-2.0, 2.0, -2.0, 2.0, 11, 11), 0.0),
        (Grid2D(-3.0, 2.5, -2.0, 2.5, 41, 33), Grid2D(-2.0, 2.0, -1.5, 1.0, 9, 7), 1j),
        (Grid2D(-3.0, 2.5, -2.0, 2.5, 41, 33), Grid2D(-2.0, 2.0, -1.5, 1.0, 9, 7), 0.0),
        # equal sizes, but the x and y axes differ on one side
        (Grid2D(-3.0, 3.0, -3.0, 3.0, 31, 31), Grid2D(-2.0, 2.0, -1.0, 1.0, 11, 11), 1j),
        (Grid2D(-3.0, 3.0, -2.0, 2.0, 31, 31), Grid2D(-2.0, 2.0, -2.0, 2.0, 11, 11), 0.0)],
        ids=["complex-square", "real-square", "complex-non-square", "real-non-square",
             "complex-unequal-out-axes", "real-unequal-src-axes"])
    def test_direct_method_agrees_with_separable(self, src, out, part):
        rng = np.random.default_rng(31)
        shape = src.values.shape
        src = src.like(values=rng.normal(size=shape) + part * rng.normal(size=shape))
        a = _gaussian_convolve(src, out, method="separable")
        b = _gaussian_convolve(src, out, method="direct")
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-11)
        if not part:
            assert not a.values.imag.any()

    # (source, output, complex field?, factors per x and y kernel): half-spans 2..16
    # at 61..801 nodes; 2.9 takes an odd number of points, the middle one on node 0;
    # at [-10, 10] m = 172, so m (n + n) < n^2 only at 401 nodes
    @pytest.mark.parametrize("src,out,part,factors", [
        (Grid2D(-2.0, 2.0, -2.0, 2.0, 101, 101), None, 0.0, (2, 2)),
        (Grid2D(-2.9, 2.9, -2.9, 2.9, 201, 201), None, 1j, (2, 2)),
        (Grid2D(-4.0, 4.0, -4.0, 4.0, 61, 61), None, 1j, (1, 1)),
        (Grid2D(-4.0, 4.0, -4.0, 4.0, 201, 201), None, 0.0, (2, 2)),
        (Grid2D(-6.5, 6.5, -6.5, 6.5, 401, 401), None, 1j, (2, 2)),
        (Grid2D(-8.0, 8.0, -8.0, 8.0, 401, 401), None, 0.0, (2, 2)),
        (Grid2D(-10.0, 10.0, -10.0, 10.0, 401, 401), None, 1j, (2, 2)),
        (Grid2D(-10.0, 10.0, -10.0, 10.0, 101, 101), None, 0.0, (1, 1)),
        (Grid2D(-12.0, 12.0, -12.0, 12.0, 801, 801), None, 0.0, (2, 2)),
        (Grid2D(-16.0, 16.0, -16.0, 16.0, 801, 801), None, 1j, (2, 2)),
        (Grid2D(-12.0, 12.0, -3.0, 3.0, 801, 61), None, 1j, (2, 1)),
        (Grid2D(-7.0, 5.0, -10.0, 10.0, 301, 401), None, 0.0, (2, 2)),
        (Grid2D(-12.0, 12.0, -12.0, 12.0, 321, 321), Grid2D(-6.0, 6.0, -6.0, 6.0, 161, 161),
         0.0, (1, 1)),
        (Grid2D(-12.0, 12.0, -12.0, 12.0, 801, 801), Grid2D(-6.0, 6.0, -6.0, 6.0, 401, 401),
         1j, (2, 2)),
        (Grid2D(-8.0, 8.0, -8.0, 8.0, 401, 401), Grid2D(-9.0, 3.0, -2.0, 2.0, 301, 101),
         1j, (2, 1))],
        ids=["2-101", "2.9-201-odd-points", "4-61", "4-201", "6.5-401", "8-401", "10-401",
             "10-101", "12-801", "16-801", "non-square-801x61", "non-square-301x401",
             "verify-321-to-161", "801-to-401", "401-to-301x101"])
    def test_factored_kernels_agree_with_exact(self, src, out, part, factors):
        # within 4e-15 of the output maximum of today's exact product; the field
        # is a cat's Q spread over the grid, turned by a phase when complex
        out = out or src
        reach = min(src.x_max - src.x_min, src.y_max - src.y_min) / 5.0
        gx, gy = src.meshgrid()
        q = q_function(CatStateSpec(reach + 0.5j * reach, -reach, 0.8 - 0.3j), src)
        src = src.like(values=q * np.exp(part * (gx + 2.0 * gy)))
        axes = [(o, s, trapezoid_weights(len(s), d))
                for o, s, d in ((out.xs, src.xs, src.dx), (out.ys, src.ys, src.dy))]
        assert tuple(len(_axis_kernel(*axis)) for axis in axes) == factors
        kx, ky = (np.exp(-2.0 * np.subtract.outer(o, s) ** 2) * w for o, s, w in axes)
        want = (2.0 / math.pi) * (kx @ src.values @ ky.T)
        got = _gaussian_convolve(src, out).values
        assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))
        assert bool(part) == bool(got.imag.any())

    @pytest.mark.parametrize("half", [2.0, 2.9, 4.0, 6.5, 10.0, 12.0, 16.0, 24.0, 32.0])
    def test_factored_kernel_bound(self, half):
        # m = ceil(16 L) + 12 points keep A @ B within 2.5e-15 of the weighted kernel's peak
        nodes = np.linspace(-half, half, 1601)
        weights = trapezoid_weights(len(nodes), nodes[1] - nodes[0])
        a, b = _axis_kernel(nodes, nodes, weights)
        assert a.shape[1] == math.ceil(16.0 * half) + 12
        exact = np.exp(-2.0 * np.subtract.outer(nodes, nodes) ** 2) * weights
        assert np.max(np.abs(a @ b - exact)) <= 2.5e-15 * weights.max()

    # exact kernels at 101 and 401 nodes (401 from half-span 12 on), factors at 1601
    @pytest.mark.parametrize("nodes", [101, 401, 1601])
    @pytest.mark.parametrize("half", [10.0, 12.0, 16.0, 24.0, 32.0])
    def test_kernel_has_no_subnormal_entry(self, half, nodes):
        # entries below e^{-72} (nodes more than 6 apart) are exactly 0, so no
        # product multiplies a subnormal kernel entry
        axis = np.linspace(-half, half, nodes)
        factors = _axis_kernel(axis, axis, trapezoid_weights(nodes, axis[1] - axis[0]))
        for factor in factors:
            magnitude = np.abs(factor)
            assert not ((magnitude > 0.0) & (magnitude < np.finfo(float).tiny)).any()
        assert (factors[0] == 0.0).any()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(a1=complex_within(2.0), a2=complex_within(2.0), zeta=complex_within(2.0))
    def test_cat_regularized_p_is_exactly_real(self, a1, a2, zeta):
        # the premise of the real-only chain: conjugate partner terms cancel
        # each other's imaginary parts exactly
        try:
            spec = CatStateSpec(a1, a2, zeta)
        except ValueError:
            reject()
        grid = alpha_grid(n=61)
        p = p_representation_grid(p_cat_terms(spec), 0.6, grid)
        assert not p.values.imag.any()
        assert not wigner_from_p(p, grid).values.imag.any()

    def test_nan_imaginary_cell_reaches_output(self):
        src = alpha_grid(n=21)
        src.values = np.ones(src.values.shape, dtype=complex)
        src.values[3, 4] = complex(1.0, math.nan)
        out = _gaussian_convolve(src, src).values
        assert np.isnan(out.imag).all()
        assert np.isfinite(out.real).all()

    # in real planes of 401^2 (1.29 MB): a real source's chain ends in its real
    # output, about 1.81 planes with the kernels and the chain's temporaries; a
    # complex source's output (2 planes) is reserved once those are freed
    @pytest.mark.parametrize("dtype, planes", [(float, 1.9), (complex, 3.1)],
                             ids=["real", "complex"])
    def test_convolution_memory_bounded(self, dtype, planes):
        grid = alpha_grid(n=401)
        src = p_representation_grid(p_cat_terms(SKEW_CAT), 0.6, grid)
        src = src.like(values=src.values.astype(dtype))
        tracemalloc.start()
        try:
            _gaussian_convolve(src, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= planes * grid.nx * grid.ny * np.dtype(float).itemsize

    def test_unknown_method_rejected(self):
        src = alpha_grid(n=11)
        with pytest.raises(ValueError, match="method"):
            _gaussian_convolve(src, src, method="fft")

    def test_transforms_take_only_grids(self):
        rep = PRepresentation(terms=(PTerm(kappa=1.0, beta=0.0, gamma=0.0),))
        grid = alpha_grid(n=41)
        with pytest.raises(TypeError):
            wigner_from_p(rep, grid, sigma=0.5)
        with pytest.raises(TypeError):
            q_from_wigner(grid, grid, method="direct")

    def test_aliasing_warning(self):
        rep = PRepresentation(terms=(PTerm(kappa=1.0, beta=0.0, gamma=0.0),))
        coarse = Grid2D(-6.0, 6.0, -6.0, 6.0, 31, 31)
        with pytest.warns(UserWarning, match="alias"):
            p_representation_grid(rep, 0.05, coarse)


class TestTransformChainOnCat:
    def test_q_via_p_then_wigner(self):
        # P (regularized) -> W -> Q approaches the analytic Q as sigma -> 0
        # with O(sigma^2) widening error.  Small amplitudes only: the
        # off-diagonal kernels grow like e^{(Im center)^2 / 2 sigma^2} and
        # their cancellation swamps double precision for separated components.
        spec = CatStateSpec(alpha1=0.5, alpha2=-0.5, zeta=1.0)
        wide = Grid2D(-9.0, 9.0, -9.0, 9.0, 361, 361)
        out = alpha_grid(half=4.0, n=81)
        gx, gy = out.meshgrid()
        want = q_function(spec, gx + 1j * gy)
        devs = []
        for sigma in (0.2, 0.1):
            w = wigner_from_p(p_representation_grid(p_cat_terms(spec), sigma, wide), wide)
            q = q_from_wigner(w, out)
            devs.append(np.max(np.abs(q.values.real - want)))
            assert np.max(np.abs(q.values.imag)) < 1e-10
        assert devs[1] < 0.01
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.2)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(r1=st.floats(0.0, 1.5), r2=st.floats(0.0, 1.5), t1=st.floats(0.0, 2 * math.pi),
           t2=st.floats(0.0, 2 * math.pi), zeta=COMPLEX_2, sigma=st.floats(0.3, 1.0))
    def test_width_closes_at_each_step(self, r1, r2, t1, t2, zeta, sigma):
        # the convolution takes a width-t term to width t + 1/2, so the
        # regularized P at sigma becomes the regularized P at sqrt(sigma^2 + 1/4)
        # (the Wigner function) and then at sqrt(sigma^2 + 1/2) (the Q-function)
        try:
            spec = CatStateSpec(r1 * np.exp(1j * t1), r2 * np.exp(1j * t2), zeta)
        except ValueError:
            reject()
        assume(spec.norm_A <= 5.0)
        rep = p_cat_terms(spec)
        assume(max(cancellation_factor(c, sigma) for term in rep.terms
                   for c in (term.center_r, term.center_i)) <= 1e3)
        pad = Grid2D(-9.0, 9.0, -9.0, 9.0, 361, 361)
        w = wigner_from_p(p_representation_grid(rep, sigma, pad), pad)
        inner = np.abs(pad.xs) <= 5.0  # the +-5 window of the padded grid
        want_w = p_regularized_eval(rep, math.sqrt(sigma * sigma + 0.25), meshgrid_plane(pad))
        np.testing.assert_allclose(w.values[np.ix_(inner, inner)],
                                   want_w[np.ix_(inner, inner)], rtol=0, atol=1e-10)
        out = alpha_grid(half=5.0, n=101)
        q = q_from_wigner(w, out)
        want_q = p_regularized_eval(rep, math.sqrt(sigma * sigma + 0.5), meshgrid_plane(out))
        np.testing.assert_allclose(q.values, want_q, rtol=0, atol=1e-10)
