"""Self-check of the benchmark: its output checks catch corrupted grid
files and non-finite fields, and the metric names it prints are the
ones BENCHMARK.json declares.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads as wl  # noqa: E402
from catphase import CatStateSpec, q_function  # noqa: E402
from catphase.quasiprob import Grid2D  # noqa: E402


@pytest.fixture
def q_grid():
    spec = wl.sample_spec(np.random.default_rng(0))
    grid = wl.square(wl.field_bound(spec), 41)
    grid.values = q_function(CatStateSpec(*spec), wl.plane(grid)).astype(complex)
    return grid


def test_exact_readback_passes(q_grid, tmp_path):
    path = str(tmp_path / "q.csv")
    q_grid.to_csv(path)
    assert wl.check_readback(Grid2D.from_csv(path), q_grid) == ""
    assert wl.check_field(q_grid, density=True, nonnegative=True) == ""


def test_one_ulp_in_a_csv_file_is_caught(q_grid, tmp_path):
    path = tmp_path / "q.csv"
    q_grid.to_csv(str(path))
    lines = path.read_text().splitlines()
    x, y, re, im = lines[300].split(",")
    lines[300] = ",".join([x, y, repr(float(np.nextafter(float(re), np.inf))), im])
    path.write_text("\n".join(lines) + "\n")
    assert "differs" in wl.check_readback(Grid2D.from_csv(str(path)), q_grid)


def test_truncated_csv_file_is_caught(q_grid, tmp_path):
    path = tmp_path / "q.csv"
    q_grid.to_csv(str(path))
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    assert wl.check_readback(Grid2D.from_csv(str(path)), q_grid) != ""


def test_corrupted_json_file_is_caught(q_grid):
    data = json.loads(q_grid.to_json())
    data["values"][7][0] *= 1.5
    assert "differs" in wl.check_readback(Grid2D.from_json(json.dumps(data)), q_grid)


def test_non_finite_field_fails_the_op(q_grid, tmp_path):
    values = q_grid.values.copy()
    values[3, 3] = np.nan
    run = wl.Runner(str(tmp_path), os.path.join(ROOT, "src"))
    run.checked("q_function", values.size, lambda: values,
                lambda v: wl.check_field(q_grid.like(values=v), True, True))
    record = run.records[0]
    assert not record["ok"] and record["wrong"]
    assert "non-finite" in record["why"]


def test_unnormalized_field_is_caught(q_grid):
    assert "integral" in wl.check_field(q_grid.like(values=2.0 * q_grid.values), True, True)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analysis-cli", "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(kind)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-export", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
