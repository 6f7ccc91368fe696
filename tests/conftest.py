"""Fixtures shared across the test modules."""

import functools
import os
import sys

import mpmath
import pytest

from ml2v.selftest import run_suite

# Tests that start `python -m ml2v.cli` in a subprocess need this session's
# import path; pytest's `pythonpath` setting reaches only this process.
os.environ["PYTHONPATH"] = os.pathsep.join(sys.path)


@pytest.fixture(autouse=True)
def mpmath_precision_untouched():
    """Fail a test that starts or ends with mpmath's process-wide precision
    away from its default 15 digits: a test module that sets mp.dps would
    run every later test at its precision.  References take theirs from
    mp.workdps."""
    assert mpmath.mp.dps == 15, f"mpmath.mp.dps is {mpmath.mp.dps} before the test"
    yield
    assert mpmath.mp.dps == 15, f"the test left mpmath.mp.dps at {mpmath.mp.dps}"


@pytest.fixture(scope="session")
def cached_run_suite():
    """selftest.run_suite with each suite run once per session."""
    return functools.cache(run_suite)


@pytest.fixture(scope="session")
def assert_suite_passes(cached_run_suite):
    """Assert that a named selftest suite passes."""

    def check(name: str) -> None:
        res = cached_run_suite(name)
        assert res.passed, f"{name}: {res.detail}"

    return check
