"""The hyperbola route: eval_hyperbola against the oracle within est_error,
with poles carried across its contour, and eval_auto where the keyhole
contour used to fail."""

import cmath
import importlib.util
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from ml2v.core import validate_params
from ml2v.errors import NumericFailure
from ml2v.oracle import oracle_eval
from ml2v.representations import (
    _PHI,
    HYPERBOLA_CHECK_N,
    HYPERBOLA_N,
    eval_auto,
    eval_hyperbola,
)

_spec = importlib.util.spec_from_file_location(
    "sweep", Path(__file__).resolve().parents[1] / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)

# The 20-digit oracle at the Stokes-line point, computed once (it took 263 s
# on a shared 2-core host); its tail bound was 7.6e-202.
STOKES_REF = -0.0002822552664187124 - 0.0007241540190013151j


def _certified(ev, tol=1e-8):
    return ev.est_error <= tol * max(1.0, abs(ev.value))


@pytest.mark.parametrize(
    "orders, x, y, ref",
    [
        # the series returned 6.4e28 with est_error 1.7e31
        ((0.5, 0.5, 1), -10.0, 6j, None),
        # alpha*beta = 2 leaves no keyhole angle; the series returned -422.78
        ((2, 1, 1), -40.0, -40.0, None),
        # the Stokes-line point: every route raised BudgetExceeded
        ((0.5, 0.8, 1), 4.2527 + 16.6915j, -15.0718 - 9.5754j, STOKES_REF),
    ],
)
def test_auto_certifies_where_the_keyhole_failed(orders, x, y, ref):
    p = validate_params(*orders)
    ev = eval_auto(x, y, p)
    if ref is None:
        ref = oracle_eval(x, y, p, digits=30).as_complex()
    assert ev.method == "hyperbola"
    assert _certified(ev)
    assert abs(ev.value - ref) <= ev.est_error


def test_auto_certifies_the_axis_and_annulus_panels():
    # tools/sweep.py's axis strata and the (0.25, 0.25, 1) annulus, 20
    # points each: the keyhole left axis points uncertified and raised
    # BudgetExceeded on the annulus
    for name, pts in sweep.strata(count=20, seed=6).items():
        if name.startswith(("axis", "annulus")):
            for orders, x, y in pts:
                assert sweep.outcome(orders, x, y, 1e-8) == ("certified", "hyperbola"), (
                    name, orders, x, y)


def _annulus(rng):
    """Uniform by area in 1 < |w| <= 4, the points workload's annulus."""
    return cmath.rect(math.sqrt(rng.uniform(1.0, 16.0)), rng.uniform(-math.pi, math.pi))


# Orders of the points strata (equal-dyadic, low-dyadic, unequal, complex mu)
# and boundary orders, alpha*beta >= 2 among them.
HONESTY_SETS = [
    (0.75, 0.75, 1), (0.25, 0.25, 1), (0.6, 1.3, 1), (0.9, 0.7, 1.2 - 0.6j),
    (2, 1, 1), (2, 0.5, 0.5 + 0.3j), (1.5, 2, 1), (2, 2, 0.8 + 0.5j),
]


@pytest.mark.parametrize("orders", HONESTY_SETS)
def test_hyperbola_honest_against_the_oracle(orders):
    p = validate_params(*orders)
    rng = random.Random(f"hyperbola-honesty-{orders}")
    for _ in range(2):
        x, y = _annulus(rng), _annulus(rng)
        ev = eval_hyperbola(x, y, p)
        ref = oracle_eval(x, y, p, digits=20).as_complex()
        assert abs(ev.value - ref) <= ev.est_error, (x, y)


def _on_hyperbola(n, u):
    h, m = 1.0818 / n, 4.4921 * n
    return m * (1.0 + cmath.sin(1j * u * h - _PHI))


@pytest.mark.parametrize("n", [HYPERBOLA_N, HYPERBOLA_CHECK_N], ids=["value", "check"])
@pytest.mark.parametrize("u0", [0.5, 3.37, -6.5])
def test_pole_carried_across_the_hyperbola(n, u0):
    # x's pole s = x^2 moves from left of the n-rule's contour (Im u > 0)
    # to right of it, at u0 node spacings along it; the residue's weight
    # goes from 0 to 1 and the value stays honest all the way
    p = validate_params(0.5, 0.5, 1)
    y = -1.5 + 2.0j
    for delta in (3.0, 0.3, 1e-2, 1e-5, 0.0, -1e-5, -1e-2, -0.3, -3.0):
        x = cmath.sqrt(_on_hyperbola(n, u0 + 1j * delta))
        ev = eval_hyperbola(x, y, p)
        ref = oracle_eval(x, y, p, digits=20).as_complex()
        assert abs(ev.value - ref) <= ev.est_error, delta


def test_pole_on_a_node_is_typed_or_honest():
    p = validate_params(0.5, 0.5, 1)
    y = -1.5 + 2.0j
    for k in (0, 3, -5):
        for delta in (0.0, 1e-9, -1e-9):
            x = cmath.sqrt(_on_hyperbola(HYPERBOLA_N, k + 1j * delta))
            try:
                ev = eval_hyperbola(x, y, p)
            except NumericFailure:
                continue
            ref = oracle_eval(x, y, p, digits=20).as_complex()
            assert abs(ev.value - ref) <= ev.est_error, (k, delta)


def _bits(job):
    orders, x, y = job
    try:
        ev = eval_hyperbola(x, y, validate_params(*orders))
    except NumericFailure as exc:
        return type(exc).__name__
    return ev.value.real.hex(), ev.value.imag.hex(), ev.est_error.hex(), ev.method


def test_hyperbola_bits_do_not_depend_on_threads():
    rng = random.Random(17)
    jobs = [(orders, _annulus(rng), _annulus(rng)) for orders in HONESTY_SETS for _ in range(12)]
    single = [_bits(j) for j in jobs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(_bits, jobs * 4, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert threaded == single * 4
