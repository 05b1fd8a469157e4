"""catphase benchmark: one closed-loop client driving the CLI and the
library through seeded workloads, checking every op's output.

Run from the repository root:

    python3 perfbench/run.py --workload grid-export --seed 1 --seconds 30 --trace 0

--trace 0 prints every end-to-end metric; --trace 1 replays the ops in
process, alternating untraced and span-recording cycles of the same
ops, and prints every per-layer metric plus the tracing overhead.  The
last line of stdout is one JSON object {"correct", "attempted",
"failed", "metrics"}; the lines before it state each metric with its
sample count, every failed op, and the run record.
See perfbench/README.md for the workloads and predictions.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, "perfbench", ".work")
SETUP_SAMPLES = 7
# op_tail_s percentile per workload, fixed so that runs stay comparable.
# Each keeps at least ten ops beyond it at 35 s and falls inside a group
# of ops with similar latency (verify on analysis-cli, the 401^2 field
# calls on library-sweep), so that it is steady from run to run.
TAIL_PERCENTILE = {"grid-export": 65, "analysis-cli": 85, "library-sweep": 75}
# one unrecorded cycle first, so lazy BLAS and allocator set-up is not timed
WARMUP = {"library-sweep"}
# Wall seconds one cycle takes, checks included, on the reference machine
# (2 vCPU x86_64, Python 3.11, OpenBLAS 0.3.31 with 2 threads).  A run does
# the number of whole cycles that fills --seconds at this speed, so every
# run of a workload, on any commit, measures the same mix of ops.
CYCLE_SECONDS = {"grid-export": 20.0, "analysis-cli": 1.4, "library-sweep": 3.3}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-export", "analysis-cli", "library-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(env):
    """Median wall time of a fresh interpreter running `import catphase.cli`."""
    cmd = [sys.executable, "-c", "import catphase.cli"]
    subprocess.run(cmd, env=env, check=True)  # compiles bytecode; not counted
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), samples


def cycle_count(workload, seconds):
    """Cycles that fill `seconds` at the reference speed (see CYCLE_SECONDS)."""
    return max(1, int(seconds / CYCLE_SECONDS[workload] + 0.5))


def run_phase(cycle, seed, cycles, runner):
    """`cycles` cycles of the seeded schedule."""
    rng = np.random.default_rng(seed)
    for _ in range(cycles):
        for step in cycle(rng):
            step(runner)


def run_traced(cycle, seed, cycles, plain, traced, tracer):
    """Alternate untraced and traced cycles (ABBA order) over the same
    seeded ops, `cycles` of each."""
    lanes = [(plain, np.random.default_rng(seed), False),
             (traced, np.random.default_rng(seed), True)]
    for rounds in range(cycles):
        for runner, rng, with_spans in (lanes if rounds % 2 == 0 else lanes[::-1]):
            steps = cycle(rng)
            if with_spans:
                tracer.install()
            try:
                for step in steps:
                    step(runner)
            finally:
                if with_spans:
                    tracer.uninstall()


def blas_record():
    """OpenBLAS version and thread count as the loaded library reports them."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                return record
    return record


def run_record(args, cycles, extra):
    from workloads import GRID_SIZES

    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_record(), "nproc": os.cpu_count(), "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cycles": cycles,
            "grid_sides": GRID_SIZES[args.workload], **extra}


def end_to_end(records, workload, setup_s):
    latencies = sorted(r["latency"] for r in records)
    n = len(latencies)
    busy = sum(latencies)
    failed = sum(not r["ok"] for r in records)
    pct = TAIL_PERCENTILE[workload]
    rank = max(1, math.ceil(pct / 100.0 * n))  # nearest rank
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_SAMPLES} fresh imports"),
        "ops_per_s": (n / busy, "1/s", f"{n} ops over {busy:.3f} s of op time"),
        "cells_per_s": (sum(r["cells"] for r in records) / busy, "1/s",
                        f"{sum(r['cells'] for r in records)} cells"),
        "op_p50_s": (statistics.median(latencies), "s", f"median of {n} ops"),
        "op_tail_s": (latencies[rank - 1], "s",
                      f"p{pct} of {n} ops, {n - rank} beyond"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", "max of this process and its children"),
        "ok_ratio": ((n - failed) / n, "ratio",
                     f"{n - failed}/{n} ok; failed_ratio = {failed}/{n}"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value!r} {unit}  ({note})")
    kinds = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r["latency"])
    print("op kinds (count, median s): " + ", ".join(
        f"{k} {len(v)} {statistics.median(v):.4f}" for k, v in sorted(kinds.items())))
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "catphase", "cli.py")):
        print("perfbench: no src/catphase here; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from spans import Tracer
    from workloads import WORKLOADS, Runner

    cycle = WORKLOADS[args.workload]
    cycles = cycle_count(args.workload, args.seconds)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        if args.workload in WARMUP:
            run_phase(cycle, args.seed + 1_000_003, 1, Runner(WORKDIR, SRC))
        if args.trace:
            plain = Runner(WORKDIR, SRC, in_process=True)
            tracer = Tracer()
            runner = Runner(WORKDIR, SRC, in_process=True, tracer=tracer)
            # each lane gets half the run
            cycles = max(1, cycles // 2)
            run_traced(cycle, args.seed, cycles, plain, runner, tracer)
            # both lanes ran the same ops in the same order: pair them
            overhead = statistics.median(
                t["latency"] - p["latency"] for p, t in zip(plain.records, runner.records))
            failed_ops = {r["id"] for r in runner.records if not r["ok"]}
            metrics = tracer.per_layer(len(runner.records), failed_ops, overhead)
            for name, m in metrics.items():
                print(f"{name} = {m['value']!r} {m['unit']}  ({len(runner.records)} ops)")
            extra = {"untraced_ops": len(plain.records), "traced_ops": len(runner.records),
                     "spans": len(tracer.spans)}
        else:
            setup_s, setup_samples = measure_setup(dict(os.environ, PYTHONPATH=SRC))
            runner = Runner(WORKDIR, SRC)
            run_phase(cycle, args.seed, cycles, runner)
            metrics = end_to_end(runner.records, args.workload, setup_s)
            extra = {"setup_samples_s": setup_samples}
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    records = runner.records
    for r in records:
        if not r["ok"]:
            print(f"failed op {r['id']} {r['kind']}: {r['why']}")
    print("run_record " + json.dumps(run_record(args, cycles, extra)))
    print(json.dumps({
        # false only if an op that reported success returned a wrong output
        "correct": not any(r["wrong"] for r in records),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
