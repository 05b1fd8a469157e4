"""Acceptance gate: one test per verification criterion, each printing a
[PASS]/[FAIL] line with the measured values.

The `sifting` criterion is expected to fail: the shifted-line route
carries an irreducible O(sigma^2) smoothing error (about 1e-3 relative
at sigma = 0.05), three orders of magnitude above the demanded 1e-6.
The assertion is kept at the demanded tolerance rather than weakened.
"""

import warnings

import pytest

from catphase import verify
from catphase.verify import CRITERIA


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_criterion(name, fn, capsys):
    passed, details = fn()
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {name}: {details}")
    assert passed, f"{name}: {details}"


@pytest.mark.parametrize("name", ["wigner-marginal", "wigner-negativity"])
def test_wigner_criteria_warn_about_nothing(name):
    verify._wigner_grid.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        passed, details = dict(CRITERIA)[name]()
    assert passed, f"{name}: {details}"
