"""Command-line front end: phase-space grid emission, amplifier runs,
round-trip reports, sifting studies, and the verification suite.

Exit codes: 0 success, 1 usage error, 2 numeric guard tripped,
3 verification failure.

Every BLAS product of catphase runs on one thread (catphase.blas), so the
CLI starts OpenBLAS with one thread rather than a worker pool it would not
use: OPENBLAS_NUM_THREADS defaults to 1 when this module loads before
numpy.  A value the user set wins, and a process that loaded numpy first
keeps its pool and its environment.  Each command imports the modules it
uses.

`grid` and `amplify` format a large grid's text in two processes, forking
one worker (quasiprob.Grid2D._write), where no other thread runs: when
this module loaded numpy on one OpenBLAS thread.
"""

import argparse
import cmath
import json
import math
import os
import re
import sys
import warnings

# OpenBLAS reads its thread count once, as numpy loads.  The grid writers
# fork only where numpy loads here on one OpenBLAS thread: a process that
# loaded it before, or an OpenBLAS pool, may run other threads, which a
# fork would copy in whatever state they hold.
_FORK_WRITES = False
if "numpy" not in sys.modules:
    _FORK_WRITES = os.environ.setdefault("OPENBLAS_NUM_THREADS", "1") == "1"

import numpy as np  # noqa: E402

from .numerics import complex_pairs, opened, require_count, require_positive  # noqa: E402

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3

ROUNDTRIP_FAIL_THRESHOLD = 1e-8


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a parse failure as UsageError (exit 1), not argparse's exit 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Python 3.13's pattern: a value such as -1.5e0 or -.5 is a number, not a flag
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message)


def finite_float(text):
    """Type of every float flag; argparse reports NaN and infinities as invalid."""
    if math.isfinite(value := float(text)):
        return value
    raise ValueError(text)


def _add_state_args(parser):
    parser.add_argument("--alpha1", nargs=2, type=finite_float, metavar=("RE", "IM"),
                        help="first coherent amplitude")
    parser.add_argument("--alpha2", nargs=2, type=finite_float, metavar=("RE", "IM"),
                        help="second coherent amplitude")
    parser.add_argument("--zeta", nargs=2, type=finite_float, metavar=("RE", "IM"),
                        help="relative coefficient of the second component")


def _add_grid_args(parser):
    parser.add_argument("--bounds", nargs=4, type=finite_float,
                        metavar=("XMIN", "XMAX", "YMIN", "YMAX"))
    parser.add_argument("--nx", type=int, default=201)
    parser.add_argument("--ny", type=int, help="default: --nx")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="output path; '-' or absent = stdout")
    parser.add_argument("--timestamp",
                        help="metadata timestamp string; omitted from output unless given")


def build_parser():
    parser = _Parser(
        prog="catphase",
        description="Phase-space toolkit for Schrodinger cat states")
    parser.add_argument("--config",
                        help="JSON file of argument defaults; explicit flags win")
    sub = parser.add_subparsers(dest="command")

    p_grid = sub.add_parser("grid", help="emit a sampled phase-space field")
    _add_state_args(p_grid)
    _add_grid_args(p_grid)
    p_grid.add_argument("--field", choices=("q", "wigner", "p_regularized"))
    p_grid.add_argument("--fock-n", type=int, help="photon number for --field wigner")
    p_grid.add_argument("--sigma", type=finite_float,
                        help="regularization width for --field p_regularized")

    p_amp = sub.add_parser("amplify", help="amplified Q or P field")
    _add_state_args(p_amp)
    _add_grid_args(p_amp)
    p_amp.add_argument("--gain", type=finite_float)
    p_amp.add_argument("--field", choices=("q", "p"))

    p_rt = sub.add_parser("roundtrip", help="density-matrix round-trip report")
    _add_state_args(p_rt)
    p_rt.add_argument("--n-max", type=int, default=30)

    p_sift = sub.add_parser("sift", help="sifting study over a sigma schedule")
    p_sift.add_argument("--z0", nargs=2, type=finite_float, metavar=("RE", "IM"))
    p_sift.add_argument("--sigma0", type=finite_float)
    p_sift.add_argument("--levels", type=int, default=4,
                        help="number of sigma halvings in the schedule")
    p_sift.add_argument("--monomial", type=int,
                        help="test function x^N (mutually exclusive with the envelope)")
    p_sift.add_argument("--envelope-scale", type=finite_float)
    p_sift.add_argument("--envelope-coeffs", nargs="+", type=finite_float, default=[1.0],
                        help="polynomial coefficients, lowest degree first")
    p_sift.add_argument("--halfwidth", type=finite_float, default=12.0)
    p_sift.add_argument("--nodes", type=int, default=8001)
    p_sift.add_argument("--out")

    sub.add_parser("verify", help="run every verification criterion")
    return parser


def _splice_config(args, argv):
    """argv with the entries of the --config file spliced in as flags right
    after the command name, so they pass the parser's checks and explicit
    flags, which come later, win."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise UsageError(f"config {args.config} is not a JSON object")
    flags = []
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest in ("config", "command") or not hasattr(args, dest):
            raise UsageError(f"unknown config key: {key}")
        values = value if isinstance(value, list) else [value]
        if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool)
                   for v in values):
            raise UsageError(f"config key {key}: {value!r} is not a flag value")
        flag = "--" + dest.replace("_", "-")
        flags += [flag, *map(str, values)] if isinstance(value, list) else [f"{flag}={value}"]
    # before the command name come only --config and its value
    i = 0
    while argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    return [*argv[:i + 1], *flags, *argv[i + 1:]]


def _require(args, names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise UsageError(f"missing required option --{name}")


def _spec_from(args):
    from .states import CatStateSpec

    _require(args, ["alpha1", "alpha2", "zeta"])
    return CatStateSpec(complex(*args.alpha1), complex(*args.alpha2), complex(*args.zeta))


def _grid_from(args, semantics):
    """The requested grid's geometry.  Its values are a read-only zero view,
    not a plane, since every command replaces them through `like`.  Nodes
    that round together are refused: their CSV would read back as a
    smaller grid."""
    from .quasiprob import Grid2D, _distinct_nodes

    _require(args, ["bounds"])
    nx = require_count(args.nx, "nx", 2)
    ny = nx if args.ny is None else require_count(args.ny, "ny", 2)
    x0, x1, y0, y1 = args.bounds
    grid = Grid2D(x0, x1, y0, y1, nx, ny, values=np.broadcast_to(0j, (nx, ny)),
                  axis_semantics=semantics)
    if not _distinct_nodes(grid):
        raise UsageError(f"bounds {args.bounds} are too close for {nx} x {ny} distinct nodes")
    return grid


def _output(args):
    """The --out target, opened for writing; absent or '-' means stdout."""
    return opened(sys.stdout if args.out in (None, "-") else args.out, "w")


def _emit_grid(grid, args, meta):
    from .quasiprob import _comment_lines

    if args.timestamp is not None:
        meta["timestamp"] = args.timestamp
    # complex amplitudes serialize as "re+imj" strings in both formats
    meta = {k: (str(v) if isinstance(v, complex) else v) for k, v in meta.items()}
    if args.format == "csv":
        # the metadata lines and the footer's integral are checked before anything is written
        meta = _comment_lines(f"{k} = {v}" for k, v in meta.items())
        with np.errstate(over="ignore", invalid="ignore"):
            total = grid.integrate().real
        if not math.isfinite(total):
            raise FloatingPointError(f"the integral over bounds {args.bounds} is {total}: "
                                     "the cell areas or the values overflow")
    with _output(args) as stream:
        grid._write(stream, grid._text(args.format, meta), fork=_FORK_WRITES)
        if args.format == "json":
            stream.write("\n")
        else:
            # footer diagnostics stay comment-prefixed so the file still parses
            stream.write(f"# integral = {total!r}\n")
            w_min = float(np.min(grid.values.real))
            if w_min < 0.0:
                stream.write(f"# min = {w_min!r} (negative values present)\n")


def cmd_grid(args):
    from .quasiprob import p_cat_terms, p_representation_grid, q_function, wigner_fock

    _require(args, ["field"])
    field = args.field
    if field == "wigner":
        _require(args, ["fock-n"])
        grid = _grid_from(args, "xp")
        grid = wigner_fock(args.fock_n, grid)
        meta = {"field": "wigner", "fock_n": args.fock_n, "axes": "xp"}
    else:
        spec = _spec_from(args)
        grid = _grid_from(args, "alpha")
        meta = {"field": field, "alpha1": spec.alpha1, "alpha2": spec.alpha2,
                "zeta": spec.zeta, "axes": "alpha"}
        if field == "q":
            grid = grid.like(values=q_function(spec, grid))
        elif field == "p_regularized":
            _require(args, ["sigma"])
            grid = p_representation_grid(p_cat_terms(spec), args.sigma, grid)
            meta["sigma"] = args.sigma
    _emit_grid(grid, args, meta)
    return EXIT_OK


def cmd_amplify(args):
    from .amplifier import AmplifierGain, amplified_p, amplify_q

    _require(args, ["gain", "field"])
    spec = _spec_from(args)
    grid = _grid_from(args, "alpha")
    gain = AmplifierGain(args.gain)
    if args.field == "q":
        grid = grid.like(values=amplify_q(spec, gain, grid))
    elif gain.g == 1.0:
        raise FloatingPointError(
            f"P-function is singular at gain {gain.g} (sigma_of_gain({gain.g}) = "
            f"{gain.sigma}); it cannot be sampled on a grid -- "
            "use grid --field p_regularized with an explicit sigma instead")
    else:
        grid = grid.like(values=amplified_p(spec, gain, grid))
    meta = {"field": args.field, "gain": args.gain, "sigma": gain.sigma,
            "alpha1": spec.alpha1, "alpha2": spec.alpha2, "zeta": spec.zeta,
            "axes": "alpha"}
    _emit_grid(grid, args, meta)
    return EXIT_OK


def cmd_roundtrip(args):
    from .reconstruct import roundtrip_report

    spec = _spec_from(args)
    report = roundtrip_report(spec, args.n_max)
    print(report.to_json())
    # NaN compares false, so only a checked deviation passes
    if report.max_abs_deviation <= ROUNDTRIP_FAIL_THRESHOLD:
        return EXIT_OK
    return EXIT_VERIFY


def cmd_sift(args):
    from .gendelta import AnalyticTestFunction, cancellation_factor, sift, sift_shifted_line
    from .numerics import QuadratureSpec

    _require(args, ["z0", "sigma0"])
    if args.monomial is not None:
        f = AnalyticTestFunction.monomial(args.monomial)
        f_desc = {"family": "monomial", "degree": args.monomial}
    else:
        _require(args, ["envelope-scale"])
        coeffs = args.envelope_coeffs
        f = AnalyticTestFunction.gaussian_envelope(args.envelope_scale, coeffs)
        f_desc = {"family": "gaussian_envelope", "scale": args.envelope_scale,
                  "coeffs": coeffs}
    levels = require_count(args.levels, "--levels", 1)
    # the narrowest width, checked before a schedule of that many levels is built
    require_positive(math.ldexp(args.sigma0, 1 - levels),
                     f"--sigma0 {args.sigma0} halved {levels - 1} times")
    z0 = complex(*args.z0)
    sigmas = [args.sigma0 * 2.0 ** (-k) for k in range(levels)]
    quad = QuadratureSpec(center=z0.real, halfwidth=args.halfwidth, node_count=args.nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        direct = complex_pairs([sift(f, z0, s, quad) for s in sigmas])
    shifted = complex_pairs([sift_shifted_line(f, z0, s, quad) for s in sigmas])
    continuation = f(z0)
    if not cmath.isfinite(continuation):
        raise FloatingPointError(f"the continuation f(z0) at z0 = {z0} is {continuation}, "
                                 "not a finite number")
    record = {
        "z0": [z0.real, z0.imag],
        "function": f_desc,
        "sigma_schedule": sigmas,
        "direct": direct,
        "shifted": shifted,
        "continuation": complex_pairs(continuation)[0],
        "cancellation_factor": [cancellation_factor(z0, s) for s in sigmas],
    }
    with _output(args) as stream:
        stream.write(json.dumps(record) + "\n")
    return EXIT_OK


def cmd_verify(_args):
    from .verify import run_all

    results = run_all()
    all_ok = True
    for record in results:
        status = "PASS" if record["passed"] else "FAIL"
        all_ok &= record["passed"]
        print(f"[{status}] {record['criterion']}: {record['details']}")
    return EXIT_OK if all_ok else EXIT_VERIFY


COMMANDS = {
    "grid": cmd_grid,
    "amplify": cmd_amplify,
    "roundtrip": cmd_roundtrip,
    "sift": cmd_sift,
    "verify": cmd_verify,
}


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # each warning is one stderr line; the caller's warning state comes back on return
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            args = parser.parse_args(argv)
            if args.command is None:
                parser.print_usage(sys.stderr)
                return EXIT_USAGE
            if args.config:
                args = parser.parse_args(_splice_config(args, argv))
            return COMMANDS[args.command](args)
        except (UsageError, ValueError, OSError) as exc:
            # unparsable flags, config values and paths
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (OverflowError, FloatingPointError, MemoryError) as exc:
            # numpy names the size it could not allocate; a bare MemoryError is empty
            print(f"numeric guard: {str(exc) or 'out of memory'}", file=sys.stderr)
            return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
