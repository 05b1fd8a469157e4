from contextlib import contextmanager

import numpy as np
import pytest

from catphase import blas, quasiprob
from catphase.quasiprob import Grid2D, _gaussian_convolve, q_function
from catphase.states import CatStateSpec
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
    lambda grid: grid.like(values=np.ones((21, 21), dtype=complex)).integrate()],
    ids=["field-sum", "field-sum-grid", "integrate"])
def test_field_sum_and_integral_run_in_a_section(monkeypatch, call):
    entered = []

    @contextmanager
    def recording():
        entered.append(True)
        yield

    monkeypatch.setattr(quasiprob, "single_blas_thread", recording)
    call(Grid2D(-3.0, 3.0, -3.0, 3.0, 21, 21))
    assert entered == [True]
