"""Acceptance gate: one test per verification criterion, each printing a
[PASS]/[FAIL] line with the measured values.

The `sifting` criterion is expected to fail: the shifted-line route
carries an irreducible O(sigma^2) smoothing error (about 1e-3 relative
at sigma = 0.05), three orders of magnitude above the demanded 1e-6.
The assertion is kept at the demanded tolerance rather than weakened.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from catphase.amplifier import AmplifierGain, amplified_p_factored
from catphase.numerics import trapezoid_weights
from catphase.quasiprob import p_cat_terms
from catphase.states import CatStateSpec
from catphase.verify import CRITERIA, Q_NORMALIZATION_CATS, weak_convergence_integral


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_criterion(name, fn, capsys):
    passed, details = fn()
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {name}: {details}")
    assert passed, f"{name}: {details}"


def test_q_normalization_cats_are_the_seeded_draws():
    rng = np.random.default_rng(173504)
    draws = [(*rng.uniform(0.3, 2.0, 3), *rng.uniform(0.0, 2.0 * math.pi, 3)) for _ in range(5)]
    assert [tuple(map(float, cat)) for cat in draws] == list(Q_NORMALIZATION_CATS)


@pytest.mark.parametrize("name", ["wigner-marginal", "wigner-negativity"])
def test_wigner_criteria_warn_about_nothing(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        passed, details = dict(CRITERIA)[name]()
    assert passed, f"{name}: {details}"


def test_weak_convergence_record():
    # the ratios printed by `catphase verify`, fixed by the gains and the grid
    passed, details = dict(CRITERIA)["weak-convergence"]()
    assert passed
    assert "1.715, 1.838, 1.913, 1.955" in details


def plane_weak_integral(term, gain):
    """The weak-convergence integral summed over the whole 501^2 plane of
    the public factored form, kept as the oracle of the axis product."""
    xs = np.linspace(-5.0, 5.0, 501)
    w = trapezoid_weights(xs.size, xs[1] - xs[0])
    f = np.exp(-(xs[:, None] ** 2 + xs[None, :] ** 2))
    plane = xs[:, None] + 1j * xs[None, :]
    return complex(w @ (f * amplified_p_factored(term, gain, plane)) @ w)


@pytest.mark.parametrize("k", range(2, 7))
def test_weak_convergence_axis_product_matches_plane(k):
    term = p_cat_terms(CatStateSpec(0.5, -0.5, 1.0)).terms[2]
    gain = AmplifierGain(1.0 + 2.0 ** (-k))
    want = plane_weak_integral(term, gain)
    got = weak_convergence_integral(term, gain)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_weak_convergence_builds_no_plane():
    # one 501^2 complex plane alone is 4 MB
    tracemalloc.start()
    try:
        passed, _ = dict(CRITERIA)["weak-convergence"]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passed
    assert peak < 1e6
