"""Fixtures shared across the test modules."""

import functools

import pytest

from ml2v.selftest import run_suite


@pytest.fixture(scope="session")
def assert_suite_passes():
    """Assert that a named selftest suite passes; each suite runs once per session."""
    run = functools.cache(run_suite)

    def check(name: str) -> None:
        res = run(name)
        assert res.passed, f"{name}: {res.detail}"

    return check
