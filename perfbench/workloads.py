"""The three benchmark workloads, their seeded op schedules and the
per-op output checks.

A workload is a function `cycle(rng)` returning a list of steps.  One
step runs one op (or a write op and the read op that follows it)
through a `Runner` and checks each op's output.  All inputs are drawn
from `rng` when the cycle is built, so a seed fixes every input; the
op kinds and grid sizes of a cycle are the same for every seed, and
only their order and the physical parameters change.

Checks are physics identities or exact recomputations, never golden
files.  A failed op is one that raised, exited with an unexpected code,
produced non-finite values, or failed its check; the last two also mark
the op's output as wrong.
"""

import ctypes
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import catphase as cp
import catphase.cli
from catphase.gendelta import min_safe_sigma
from catphase.quasiprob import Grid2D
from spans import VERIFY_CRITERIA

CLI_TIMEOUT_S = 150
DENSITY_TOL = 1e-6        # |integral - 1| for Q, amplified P and Wigner grids
TRANSFORM_LOOP_TOL = 1e-5  # max |Q(chain) - Q(direct)|, as in catphase verify
ROUNDTRIP_TOL = 1e-8      # the CLI's own roundtrip failure threshold
CANCELLATION_LIMIT = 1e6  # largest cancellation factor an input may carry
# One amplifier op per cycle probes the known amplified_p defect (wide cat
# near unit gain), the others draw healthy gains; see README.md.
DEFECT_GAINS, DEFECT_MODULI = (1.05, 1.1), (3.0, 4.0)
BROAD_GAINS, BROAD_MODULI = (1.2, 3.0), (0.5, 4.0)
ALL_GAINS = (1.05, 3.0)
VERIFY_EXPECTED = {name: name != "sifting" for name in VERIFY_CRITERIA}
EXIT_VERIFY = 3


# ---------------------------------------------------------------------------
# running ops

class ExitCodeError(Exception):
    pass


class Runner:
    """Runs ops one at a time (closed loop, one client) and records each
    op's latency, cells and outcome.  CLI ops start a fresh interpreter,
    or with `in_process` are replayed through `catphase.cli.main(argv)`.
    """

    def __init__(self, workdir, src_dir, in_process=False, tracer=None):
        self.workdir = workdir
        self.in_process = in_process
        self.tracer = tracer
        self.records = []
        self.env = dict(os.environ, PYTHONPATH=src_dir)

    def path(self, name):
        return os.path.join(self.workdir, name)

    def timed(self, kind, cells, fn):
        """Time fn(); an exception makes the op failed, not the run."""
        op_id = len(self.records)
        if self.tracer:
            self.tracer.begin_op(op_id)
        start = time.perf_counter()
        try:
            result, why = fn(), ""
        except Exception as exc:  # op boundary: any raise is a failed op
            result, why = None, f"raised {exc!r}"[:300]
        latency = time.perf_counter() - start
        if self.tracer:
            self.tracer.end_op()
        record = {"id": op_id, "kind": kind, "latency": latency, "cells": cells,
                  "ok": not why, "wrong": False, "why": why}
        self.records.append(record)
        return result, record

    def checked(self, kind, cells, fn, check):
        """Run a timed op, then its (untimed) output check."""
        result, record = self.timed(kind, cells, fn)
        if record["ok"]:
            try:
                why = check(result)
            except Exception as exc:  # a check that cannot run fails the op
                why = f"check raised {exc!r}"[:300]
            if why:
                self.fail(record, why)
        return result, record

    @staticmethod
    def fail(record, why):
        """Mark an op that reported success as having a wrong output."""
        record["ok"] = False
        record["wrong"] = True
        record["why"] = record["why"] or why

    def cli(self, argv, expected_code=0):
        """Run `catphase <argv>` and return its stdout; an exit code other
        than `expected_code` raises, which fails the op."""
        if self.in_process:
            reset_process_state()
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = catphase.cli.main(argv)
            stdout = out.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "catphase.cli", *argv],
                                  capture_output=True, text=True, env=self.env,
                                  timeout=CLI_TIMEOUT_S)
            code, stdout = proc.returncode, proc.stdout
        if code != expected_code:
            raise ExitCodeError(f"exit code {code}, expected {expected_code}")
        return stdout


def reset_process_state():
    """Empty the per-process caches of catphase (mutable dict defaults and
    functools caches), so an op replayed in process starts as cold as the
    fresh interpreter it stands in for."""
    for name, module in list(sys.modules.items()):
        if name != "catphase" and not name.startswith("catphase."):
            continue
        for fn in vars(module).values():
            fn = getattr(fn, "__wrapped__", fn)
            for default in getattr(fn, "__defaults__", None) or ():
                if isinstance(default, dict):
                    default.clear()
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def release_free_heap():
    """Hand freed heap pages back to the OS (glibc), so that the peak RSS
    set by the largest allocation does not also depend on how earlier ops
    happened to fragment the heap."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


# ---------------------------------------------------------------------------
# seeded inputs

def _r(x):
    return repr(float(x))


def sample_spec(rng, moduli=BROAD_MODULI):
    """Cat amplitudes of modulus within `moduli`, roughly opposite, and
    |zeta| in 0.5..1.5."""
    r1, r2 = rng.uniform(*moduli, 2)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    a1 = complex(r1 * math.cos(theta), r1 * math.sin(theta))
    phi = theta + math.pi + rng.uniform(-0.5, 0.5)
    a2 = complex(r2 * math.cos(phi), r2 * math.sin(phi))
    rho, psi = rng.uniform(0.5, 1.5), rng.uniform(0.0, 2.0 * math.pi)
    return a1, a2, complex(rho * math.cos(psi), rho * math.sin(psi))


def spec_argv(spec):
    a1, a2, z = spec
    return ["--alpha1", _r(a1.real), _r(a1.imag), "--alpha2", _r(a2.real), _r(a2.imag),
            "--zeta", _r(z.real), _r(z.imag)]


def sample_amplifier(rng, defect):
    """(cat spec, gain): inside the defect region or broad and healthy."""
    spec = sample_spec(rng, DEFECT_MODULI if defect else BROAD_MODULI)
    return spec, float(rng.uniform(*(DEFECT_GAINS if defect else BROAD_GAINS)))


def safe_sigma(imag_part, floor):
    """Smallest width whose cancellation factor exp(b^2 / 2 sigma^2) stays
    within CANCELLATION_LIMIT, and at least `floor`."""
    return max(floor, abs(imag_part) / math.sqrt(2.0 * math.log(CANCELLATION_LIMIT)))


def worst_imag_center(rep):
    return max(max(abs(np.imag(t.center_r)), abs(np.imag(t.center_i))) for t in rep.terms)


def field_bound(spec, gain=1.0):
    """Half-width of a square window holding all but ~e^-36 of the field."""
    reach = max(abs(spec[0]), abs(spec[1]))
    width = max(1.0, math.sqrt((gain * gain - 1.0) / 2.0))
    return gain * reach + 6.0 * width


def square(bound, n, semantics="alpha"):
    return Grid2D(-bound, bound, -bound, bound, n, n, axis_semantics=semantics)


def plane(grid):
    gx, gy = grid.meshgrid()
    return gx + 1j * gy


# ---------------------------------------------------------------------------
# checks: each returns "" when the output is right, else the reason

def check_finite(values):
    bad = int(np.count_nonzero(~np.isfinite(values)))
    return f"{bad} non-finite values" if bad else ""


def check_density(grid, tol=DENSITY_TOL):
    total = grid.integrate()
    if not (abs(total.real - 1.0) <= tol and abs(total.imag) <= tol):
        return f"integral {total!r} != 1"
    return ""


def check_nonnegative(values):
    low = float(np.min(values.real))
    return f"min {low!r} < 0" if low < -1e-12 * max(1.0, float(np.max(values.real))) else ""


def check_readback(read, expected):
    """A grid read back from a file equals the in-process recomputation exactly."""
    got = (read.x_min, read.x_max, read.y_min, read.y_max, read.nx, read.ny)
    want = (expected.x_min, expected.x_max, expected.y_min, expected.y_max,
            expected.nx, expected.ny)
    if got != want:
        return f"read-back axes {got} != {want}"
    if not np.array_equal(read.values, expected.values):
        diff = int(np.count_nonzero(read.values != expected.values))
        return f"read-back differs from recomputation in {diff} cells"
    return ""


def first_failure(*reasons):
    return next((r for r in reasons if r), "")


def check_field(grid, density, nonnegative):
    why = check_finite(grid.values)
    if not why and density:
        why = check_density(grid)
    if not why and nonnegative:
        why = check_nonnegative(grid.values)
    return why


def smoothed_envelope(coeffs, scale, z0, sigma):
    """Closed form of the integral of p(x) e^{-x^2/2s^2} against the
    width-sigma kernel centered at z0, with the two Gaussian exponents
    combined so that nothing overflows for small sigma."""
    a = 0.5 / scale ** 2 + 0.5 / sigma ** 2
    b = z0 / sigma ** 2
    root = math.sqrt(a)
    poly = sum(c * (-0.5j / root) ** k * cp.hermite_poly(k, 0.5j * b / root)
               for k, c in enumerate(coeffs))
    return (math.sqrt(math.pi / a) / (math.sqrt(2.0 * math.pi) * sigma)
            * np.exp(-z0 * z0 / (2.0 * (scale ** 2 + sigma ** 2))) * poly)


def check_sifted(value, coeffs, scale, z0, sigma, factor):
    """Sifted value equals the closed form; direct-route roundoff grows
    with the cancellation factor, so its tolerance does too."""
    want = smoothed_envelope(coeffs, scale, z0, sigma)
    tol = 1e-10 * (1.0 + factor) * max(1.0, abs(want))
    if not abs(complex(value) - want) <= tol:
        return f"sifted {complex(value)!r} != closed form {want!r} at sigma {sigma!r}"
    return ""


# ---------------------------------------------------------------------------
# grid-export: CLI writes a large grid, then the file is read back

# (field, format, side, probes the amplifier defect)
GRID_EXPORTS = (
    ("q", "csv", 801, False), ("q", "json", 601, False),
    ("p_regularized", "csv", 401, False), ("p_regularized", "json", 801, False),
    ("wigner", "csv", 401, False), ("wigner", "json", 501, False),
    ("amplify_p", "csv", 501, False), ("amplify_p", "json", 401, True),
)


def _export_step(rng, field, fmt, n, defect):
    """One CLI write of `field` at n x n in `fmt`, then the read op."""
    semantics, density, nonneg = "alpha", True, False
    if field == "wigner":
        fock_n = int(rng.integers(0, 11))
        bound = 2.0 * math.sqrt(fock_n) + 6.0
        argv = ["grid", "--field", "wigner", "--fock-n", str(fock_n)]
        semantics = "xp"

        def recompute(grid):
            return cp.wigner_fock(fock_n, grid)
    elif field == "amplify_p":
        spec, g = sample_amplifier(rng, defect)
        cat, bound = cp.CatStateSpec(*spec), field_bound(spec, g)
        argv = ["amplify", "--field", "p", "--gain", _r(g), *spec_argv(spec)]

        def recompute(grid):
            values = cp.amplified_p(cat, cp.AmplifierGain(g), plane(grid))
            return grid.like(values=values.astype(complex))
    elif field == "q":
        spec = sample_spec(rng)
        cat, bound = cp.CatStateSpec(*spec), field_bound(spec)
        argv = ["grid", "--field", "q", *spec_argv(spec)]
        nonneg = True

        def recompute(grid):
            return grid.like(values=cp.q_function(cat, plane(grid)).astype(complex))
    else:
        spec = sample_spec(rng)
        bound = field_bound(spec)
        rep = cp.p_cat_terms(cp.CatStateSpec(*spec))
        sigma = safe_sigma(worst_imag_center(rep), max(0.2, 6.0 * bound / (n - 1)))
        argv = ["grid", "--field", "p_regularized", "--sigma", _r(sigma), *spec_argv(spec)]
        density = False

        def recompute(grid):
            return cp.p_representation_grid(rep, sigma, grid)
    argv += ["--bounds", _r(-bound), _r(bound), _r(-bound), _r(bound), "--nx", str(n)]

    def step(run):
        path = run.path(f"grid.{fmt}")
        _, write = run.timed(f"write-{field}-{fmt}-{n}", n * n,
                             lambda: run.cli([*argv, "--format", fmt, "--out", path]))
        if not write["ok"]:
            return  # nothing trustworthy to read back
        if fmt == "csv":
            def read():
                return Grid2D.from_csv(path, axis_semantics=semantics)
        else:
            def read():
                with open(path) as fh:
                    return Grid2D.from_json(fh.read())
        grid, read_rec = run.checked(
            f"read-{fmt}-{n}", n * n, read,
            lambda g: check_readback(g, recompute(square(bound, n, semantics))))
        if read_rec["ok"]:
            why = check_field(grid, density, nonneg)
        else:
            why = "output could not be verified: " + read_rec["why"]
        if why:
            run.fail(write, why)
    return step


def grid_export_cycle(rng):
    """The eight exports, CSV and JSON alternating, in seeded order."""
    csv = [e for e in GRID_EXPORTS if e[1] == "csv"]
    js = [e for e in GRID_EXPORTS if e[1] == "json"]
    csv = [csv[i] for i in rng.permutation(len(csv))]
    js = [js[i] for i in rng.permutation(len(js))]
    pairs = zip(csv, js) if rng.integers(0, 2) else zip(js, csv)
    return [_export_step(rng, *export) for pair in pairs for export in pair]


# ---------------------------------------------------------------------------
# analysis-cli: small-output CLI commands, one fresh process each

ROUNDTRIP_N_MAX = 60
SIFT_LEVELS = 4
SIFT_NODES = 8001  # the CLI default


def _verify_step(rng):
    def check(out):
        seen = {}
        for line in out.splitlines():
            status, _, rest = line.partition(" ")
            seen[rest.split(":", 1)[0]] = status == "[PASS]"
        if seen != VERIFY_EXPECTED:
            return f"criteria {seen} != expected {VERIFY_EXPECTED}"
        return ""

    def step(run):
        # exit code 3: the sifting criterion fails by design
        run.checked("verify", 0, lambda: run.cli(["verify"], EXIT_VERIFY), check)
    return step


def _roundtrip_step(rng):
    argv = ["roundtrip", *spec_argv(sample_spec(rng)), "--n-max", str(ROUNDTRIP_N_MAX)]

    def check(out):
        rep = json.loads(out)
        if rep["n_max"] != ROUNDTRIP_N_MAX or not all(ok for _, ok in rep["per_term_checks"]):
            return f"bad report {rep}"
        if not (rep["max_abs_deviation"] < ROUNDTRIP_TOL and rep["trace_deviation"] < ROUNDTRIP_TOL):
            return f"deviation {rep['max_abs_deviation']!r}, trace {rep['trace_deviation']!r}"
        return ""

    def step(run):
        # cells: the direct and the reconstructed density matrices
        run.checked("roundtrip", 2 * (ROUNDTRIP_N_MAX + 1) ** 2, lambda: run.cli(argv), check)
    return step


def _sift_params(rng, floor):
    """Test point, envelope and a width in [floor(z0), 0.4]."""
    z0 = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.1, 0.6))
    scale = float(rng.uniform(0.8, 1.6))
    coeffs = [1.0, float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0))]
    low = max(0.05, floor(z0))
    return z0, scale, coeffs, float(rng.uniform(low, max(low, 0.4)))


def _sift_step(rng):
    # the direct route refuses widths whose kernel would overflow (exit 2);
    # keep the schedule's last width 10% above that documented limit
    z0, scale, coeffs, sigma0 = _sift_params(
        rng, lambda z: 1.1 * min_safe_sigma(z) * 2.0 ** (SIFT_LEVELS - 1))
    argv = ["sift", "--z0", _r(z0.real), _r(z0.imag), "--sigma0", _r(sigma0),
            "--levels", str(SIFT_LEVELS), "--envelope-scale", _r(scale),
            "--envelope-coeffs", *map(_r, coeffs)]

    def check(out):
        rec = json.loads(out)
        sigmas = [sigma0 * 2.0 ** (-k) for k in range(SIFT_LEVELS)]
        if rec["sigma_schedule"] != sigmas:
            return f"schedule {rec['sigma_schedule']} != {sigmas}"
        reasons = []
        for sigma, factor, direct, shifted in zip(sigmas, rec["cancellation_factor"],
                                                   rec["direct"], rec["shifted"]):
            reasons.append(check_sifted(complex(*shifted), coeffs, scale, z0, sigma, 0.0))
            if factor < CANCELLATION_LIMIT:
                reasons.append(check_sifted(complex(*direct), coeffs, scale, z0, sigma, factor))
        return first_failure(*reasons)

    def step(run):
        # cells: quadrature nodes of both routes at every level
        run.checked("sift", 2 * SIFT_LEVELS * SIFT_NODES, lambda: run.cli(argv), check)
    return step


def analysis_cli_cycle(rng):
    makers = [_verify_step, _roundtrip_step, _sift_step]
    return [makers[i](rng) for i in rng.permutation(len(makers))]


# ---------------------------------------------------------------------------
# library-sweep: in-process public calls, no process start, no files

LIBRARY_SIZES = (101, 201, 401)
RECONSTRUCT_NODES = (201, 301)
RECONSTRUCT_N_MAX = 12
LIBRARY_SIFT_NODES = 2001
SIFT_CALLS_PER_ROUTE = 3
# photon numbers 0..10 in three strata, the costliest on the smallest grid
WIGNER_N_STRATA = ((8, 11), (4, 8), (0, 4))


def _q_call(rng, n):
    spec = sample_spec(rng)
    cat, grid = cp.CatStateSpec(*spec), square(field_bound(spec), n)
    alpha = plane(grid)

    def step(run):
        run.checked(f"q_function-{n}", n * n, lambda: cp.q_function(cat, alpha),
                    lambda v: check_field(grid.like(values=v), True, True))
    return step


def _amplify_q_call(rng, n):
    spec = sample_spec(rng)
    g = float(rng.uniform(*ALL_GAINS))
    cat, gain, grid = cp.CatStateSpec(*spec), cp.AmplifierGain(g), square(field_bound(spec, g), n)
    alpha = plane(grid)

    def step(run):
        run.checked(f"amplify_q-{n}", n * n, lambda: cp.amplify_q(cat, gain, alpha),
                    lambda v: check_field(grid.like(values=v), True, True))
    return step


def _amplified_p_call(rng, n, defect):
    spec, g = sample_amplifier(rng, defect)
    cat, gain, grid = cp.CatStateSpec(*spec), cp.AmplifierGain(g), square(field_bound(spec, g), n)
    alpha = plane(grid)

    def check(values):
        p = grid.like(values=values)
        why = check_field(p, True, False)
        if why:
            return why
        # P -> Wigner -> Q by Gaussian convolution matches the amplified Q
        q_chain = cp.q_from_wigner(cp.wigner_from_p(p, grid), grid)
        dev = float(np.max(np.abs(q_chain.values - cp.amplify_q(cat, gain, alpha))))
        return f"P->W->Q deviates from amplify_q by {dev:.3e}" if not dev <= TRANSFORM_LOOP_TOL else ""

    def step(run):
        run.checked(f"amplified_p-{n}", n * n, lambda: cp.amplified_p(cat, gain, alpha), check)
    return step


def _transform_chain_call(rng, n):
    spec = sample_spec(rng)
    rep = cp.p_cat_terms(cp.CatStateSpec(*spec))
    bound = field_bound(spec)
    sigma = safe_sigma(worst_imag_center(rep), max(0.2, 6.0 * bound / (n - 1)))
    grid = square(bound, n)

    def chain():
        p = cp.p_representation_grid(rep, sigma, grid)
        return cp.q_from_wigner(cp.wigner_from_p(p, grid), grid)

    def check(q):
        # two convolutions with (2/pi) e^{-2|d|^2} add variance 1/2 per axis
        # to the width-sigma kernels: Q = regularized P at sqrt(sigma^2 + 1/2)
        want = cp.p_regularized_eval(rep, math.sqrt(sigma * sigma + 0.5), plane(grid))
        dev = float(np.max(np.abs(q.values - want)))
        return check_finite(q.values) or (
            f"P->W->Q deviates from closed form by {dev:.3e}" if not dev <= TRANSFORM_LOOP_TOL else "")

    def step(run):
        run.checked(f"p_to_q_chain-{n}", 3 * n * n, chain, check)
    return step


def _wigner_call(rng, n, fock_n):
    grid = square(2.0 * math.sqrt(fock_n) + 6.0, n, "xp")

    def check(w):
        centre = w.values[n // 2, n // 2].real
        return check_field(w, True, False) or (
            f"W(0,0) = {centre!r} != (-1)^n/pi"
            if not abs(centre - (-1) ** fock_n / math.pi) <= DENSITY_TOL else "")

    def step(run):
        run.checked(f"wigner_fock-{n}", n * n, lambda: cp.wigner_fock(fock_n, grid), check)
    return step


def _reconstruct_call(rng, nodes):
    rep = cp.p_cat_terms(cp.CatStateSpec(*sample_spec(rng)))
    worst = worst_imag_center(rep)
    sigma = safe_sigma(worst, 0.2)
    factor = max(1.0, cp.cancellation_factor(1j * worst, sigma))
    halfwidth = 10.0 * sigma

    def numeric(count):
        return cp.reconstruct_rho_numeric(rep, sigma, RECONSTRUCT_N_MAX,
                                          cp.QuadratureSpec(0.0, halfwidth, count))

    def check(rho):
        # the same reconstruction at doubled node density must agree, to a
        # tolerance that grows with the cancellation the inputs carry
        release_free_heap()
        fine = numeric(2 * nodes - 1).entries
        dev = float(np.max(np.abs(rho.entries - fine)))
        tol = 1e-13 * factor * max(1.0, float(np.max(np.abs(fine))))
        return check_finite(rho.entries) or (
            f"differs from doubled-node rerun by {dev:.3e}" if not dev <= tol else "")

    def step(run):
        run.checked(f"reconstruct_rho_numeric-{nodes}", (RECONSTRUCT_N_MAX + 1) ** 2,
                    lambda: numeric(nodes), check)
    return step


def _sift_call(rng, direct):
    # direct-route inputs keep the cancellation factor within CANCELLATION_LIMIT
    z0, scale, coeffs, sigma = _sift_params(
        rng, (lambda z: safe_sigma(z.imag, 0.0)) if direct else (lambda z: 0.0))
    f = cp.AnalyticTestFunction.gaussian_envelope(scale, coeffs)
    quad = cp.QuadratureSpec(z0.real, 12.0, LIBRARY_SIFT_NODES)
    factor = cp.cancellation_factor(z0, sigma) if direct else 0.0

    def step(run):
        call = (lambda: cp.sift(f, z0, sigma, quad)) if direct else \
            (lambda: cp.sift_shifted_line(f, z0, sigma, quad))
        run.checked("sift" if direct else "sift_shifted_line", LIBRARY_SIFT_NODES, call,
                    lambda v: check_sifted(v, coeffs, scale, z0, sigma, factor))
    return step


def library_sweep_cycle(rng):
    defect = int(rng.integers(0, len(LIBRARY_SIZES)))  # the amplified_p size probing the defect
    steps = []
    for i, (n, (lo, hi)) in enumerate(zip(LIBRARY_SIZES, WIGNER_N_STRATA)):
        steps += [_q_call(rng, n), _amplify_q_call(rng, n), _amplified_p_call(rng, n, i == defect),
                  _transform_chain_call(rng, n), _wigner_call(rng, n, int(rng.integers(lo, hi)))]
    steps += [_reconstruct_call(rng, nodes) for nodes in RECONSTRUCT_NODES]
    steps += [_sift_call(rng, direct) for direct in (True, False) * SIFT_CALLS_PER_ROUTE]
    return [steps[i] for i in rng.permutation(len(steps))]


WORKLOADS = {
    "grid-export": grid_export_cycle,
    "analysis-cli": analysis_cli_cycle,
    "library-sweep": library_sweep_cycle,
}

# grid sides (cells per axis) each workload uses, for the run record
GRID_SIZES = {
    "grid-export": sorted({e[2] for e in GRID_EXPORTS}),
    "analysis-cli": [],
    "library-sweep": list(LIBRARY_SIZES),
}
