import ast
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from catphase import blas, quasiprob
from catphase.quasiprob import Grid2D, _gaussian_convolve, q_function, wigner_fock
from catphase.states import CatStateSpec
from test_package import run_fresh
from test_quasiprob import meshgrid_plane

CONTROLS = blas._thread_controls()
needs_openblas = pytest.mark.skipif(CONTROLS is None, reason="numpy carries no OpenBLAS here")


@needs_openblas
def test_section_runs_on_one_thread_and_restores_the_count():
    get, put = CONTROLS
    before = get()
    put(2)
    try:
        with blas.single_blas_thread():
            assert get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError):
            with blas.single_blas_thread():
                raise RuntimeError("inside")
        assert get() == 2
    finally:
        put(before)


def test_section_without_openblas_is_a_no_op(monkeypatch):
    monkeypatch.setattr(blas, "_controls", [None])
    with blas.single_blas_thread():
        product = np.eye(3) @ np.arange(3.0)
    np.testing.assert_array_equal(product, np.arange(3.0))


# exact kernels at 21 nodes, Chebyshev factors at 201
@pytest.mark.parametrize("n", [21, 201])
def test_convolution_products_run_in_a_section(monkeypatch, n):
    entered = []

    @contextmanager
    def recording():
        entered.append(True)
        yield

    monkeypatch.setattr(quasiprob, "single_blas_thread", recording)
    grid = Grid2D(-3.0, 3.0, -3.0, 3.0, n, n)
    _gaussian_convolve(grid.like(values=np.ones((n, n), dtype=complex)), grid)
    assert entered == [True]


@pytest.mark.parametrize("call", [
    lambda grid: q_function(CatStateSpec(1.5, -1.5, 1.0), meshgrid_plane(grid)),
    lambda grid: q_function(CatStateSpec(1.5, -1.5, 1.0), grid),
    lambda grid: grid.like(values=np.ones((21, 21), dtype=complex)).integrate(),
    lambda grid: wigner_fock(3, Grid2D(-8.0, 8.0, -8.0, 8.0, 21, 21, axis_semantics="xp"))],
    ids=["field-sum", "field-sum-grid", "integrate", "wigner-fock"])
def test_field_sum_and_integral_run_in_a_section(monkeypatch, call):
    entered = []

    @contextmanager
    def recording():
        entered.append(True)
        yield

    monkeypatch.setattr(quasiprob, "single_blas_thread", recording)
    call(Grid2D(-3.0, 3.0, -3.0, 3.0, 21, 21))
    assert entered == [True]


# -- the CLI's thread default, read in fresh processes ------------------------

READ_THREADS = "from catphase import blas; print(blas._thread_controls()[0]())"


def _env_without_thread_count():
    return {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}


@needs_openblas
def test_cli_starts_openblas_on_one_thread():
    assert run_fresh("import catphase.cli; " + READ_THREADS,
                     env=_env_without_thread_count()) == "1"


@needs_openblas
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps its threads at the CPUs")
def test_cli_keeps_the_users_thread_count():
    env = dict(_env_without_thread_count(), OPENBLAS_NUM_THREADS="2")
    assert run_fresh("import catphase.cli; " + READ_THREADS, env=env) == "2"


@needs_openblas
def test_cli_loaded_after_numpy_leaves_the_environment_alone():
    code = "import numpy, os, catphase.cli; print('OPENBLAS_NUM_THREADS' in os.environ)"
    assert run_fresh(code, env=_env_without_thread_count()) == "False"


# -- every BLAS product runs in a section -------------------------------------

PRODUCT_CALLS = {"np.dot", "np.vdot", "np.matmul", "np.inner", "np.linalg.multi_dot",
                 "np.tensordot"}


def _is_product_call(node):
    """A product call, or an np.einsum that numpy's optimizer may route
    through tensordot: one given any optimize= other than a literal False."""
    name = _dotted(node.func)
    optimized = any(kw.arg == "optimize" and not (
        isinstance(kw.value, ast.Constant) and kw.value.value is False) for kw in node.keywords)
    return name in PRODUCT_CALLS or name == "np.einsum" and optimized


def _dotted(node):
    """'a.b.c' for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _is_section(item):
    call = item.context_expr
    return isinstance(call, ast.Call) and _dotted(call.func) == "single_blas_thread"


def _unsectioned_products(tree):
    """(line, what) of each product not lexically inside a section; a function
    defined inside a section does not run in it, so its body starts outside."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inside = False
        elif isinstance(node, ast.With) and any(map(_is_section, node.items)):
            inside = True
        if not inside:
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((node.lineno, "@"))
            elif isinstance(node, ast.Call) and _is_product_call(node):
                found.append((node.lineno, _dotted(node.func)))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


SOURCES = sorted(Path(blas.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_product_runs_in_a_section(path):
    assert _unsectioned_products(ast.parse(path.read_text())) == []


def test_product_guard_sees_products_outside_sections():
    tree = ast.parse("with single_blas_thread():\n"
                     "    a = b @ c\n"
                     "    def later():\n"
                     "        return np.dot(b, c)\n"
                     "d = np.linalg.multi_dot([a, b])\n"
                     "d @= e\n"
                     "f = np.tensordot(a, b, axes=1)\n"
                     "g = np.einsum('ij,jk->ik', a, b, optimize=True)\n"
                     "h = np.einsum('ij,jk->ik', a, b)\n"
                     "k = np.einsum('ij,jk->ik', a, b, optimize=False)\n")
    assert _unsectioned_products(tree) == [(4, "np.dot"), (5, "np.linalg.multi_dot"), (6, "@"),
                                           (7, "np.tensordot"), (8, "np.einsum")]
