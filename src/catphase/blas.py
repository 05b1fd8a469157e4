"""One-thread sections for the OpenBLAS that numpy carries.

OpenBLAS splits a large product between its threads, and its worker
threads keep spinning for tens of milliseconds after the call has
returned.  On a shared two-core machine the second core is often busy:
a split product then waits for it, so the same product takes a
different time from one call to the next.  Real products of a few
hundred rows lose little on one thread, so every BLAS product of
catphase (each `@`, `np.dot`, `np.vdot`, `np.matmul` and
`np.linalg.multi_dot`) runs inside `single_blas_thread`; a test walks the
source to keep it so.

A product outside a section wakes the worker pool, and the spinning
workers then take CPU from the calls that follow it.  With numpy's pool
of two threads on a shared 2-core x86_64, `verify`'s sifting criterion
took a median of about 21 ms in one process and 70 ms in the next (its
transform-loop 13 or 26 ms) while `quad_real_line`'s `np.dot` ran outside
a section; with every product in a section, 15-22 ms (transform-loop
11-14 ms) in each of eight processes.

The CLI never uses the pool, so it starts OpenBLAS on one thread
(`catphase.cli` sets OPENBLAS_NUM_THREADS to 1 unless it is set or numpy
is already loaded); starting the pool cost about a third of a fresh
`import catphase.cli`.  A library process keeps the pool it started.

The thread count is process-wide state of the library.  It is read and
set through OpenBLAS's own C functions; where numpy carries another BLAS,
or OpenBLAS is not where numpy's wheels put it, the section is a no-op.
Sections do not nest: the lock that orders them is not reentrant, so a
section wraps a product expression, never a call that may open one.
"""

import ctypes
import glob
import os
import threading
from contextlib import contextmanager

import numpy as np

# symbol name parts of openblas_{get,set}_num_threads in the builds numpy ships
_SYMBOL_FORMS = (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"),
                 ("openblas", ""))

_lock = threading.Lock()
_controls = []  # [(get, set)] or [None], looked up on first use


def _find_controls():
    """(get, set) for the thread count of numpy's OpenBLAS, or None."""
    root = os.path.dirname(np.__file__)
    paths = sorted(glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
                   + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _SYMBOL_FORMS:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                return get, put
    return None


def _thread_controls():
    """_find_controls(), looked up once."""
    if not _controls:
        _controls.append(_find_controls())
    return _controls[0]


@contextmanager
def single_blas_thread():
    """Run the enclosed BLAS calls on one thread, then restore the count.

    Sections from several Python threads run one at a time, so that each
    restores the count it found.  BLAS calls made meanwhile outside any
    section also run on one thread.
    """
    with _lock:
        controls = _thread_controls()
        if controls is None:
            yield
            return
        get, put = controls
        before = get()
        put(1)
        try:
            yield
        finally:
            put(before)
