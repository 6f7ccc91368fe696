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

from ml2v.core import Parameters, validate_params
from ml2v.errors import NumericFailure
from ml2v.oracle import oracle_eval
from ml2v.representations import (
    _PHI,
    HYPERBOLA_CHECK_N,
    HYPERBOLA_MEMO_SIZE,
    HYPERBOLA_N,
    _hyperbola_tables,
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


def _route_bits(job):
    """eval_hyperbola's and eval_auto's bits and tags, or exception and message."""
    p, x, y = job
    out = []
    for f in (eval_hyperbola, eval_auto):
        try:
            ev = f(x, y, p)
        except NumericFailure as exc:
            out.append((type(exc).__name__, str(exc)))
        else:
            out.append((ev.value.real.hex(), ev.value.imag.hex(), ev.est_error.hex(), ev.method))
    return tuple(out)


def _bits(job):
    orders, x, y = job
    return _route_bits((validate_params(*orders), x, y))


def test_hyperbola_bits_do_not_depend_on_threads():
    # the threads start with a cold memo and race to fill it, each call with
    # its own (equal) Parameters
    rng = random.Random(17)
    jobs = [(orders, _annulus(rng), _annulus(rng)) for orders in HONESTY_SETS for _ in range(12)]
    # a double pole, and a point at large arguments
    jobs += [((0.75, 0.75, 1), 2.5 - 1j, 2.5 - 1j), ((0.5, 0.8, 1), 20.0 + 4j, -18.0 + 9j)]
    single = [_bits(j) for j in jobs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    _hyperbola_tables.cache_clear()
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(_bits, jobs * 4, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert threaded == single * 4


def _memo_jobs():
    """Seeded annulus points at HONESTY_SETS and the grid orders, a double
    pole (x = y at equal orders), and two points at large arguments."""
    rng = random.Random(23)
    sets = [validate_params(*orders) for orders in HONESTY_SETS + [(0.5, 0.8, 1)]]
    jobs = [(p, _annulus(rng), _annulus(rng)) for p in sets for _ in range(4)]
    jobs.append((validate_params(0.75, 0.75, 1), 2.5 - 1j, 2.5 - 1j))
    jobs += [(sets[-1], 20.0 + 4j, -18.0 + 9j), (sets[0], -16.0 - 16j, 30.0)]
    return jobs


def test_hyperbola_bits_do_not_depend_on_the_memo():
    jobs = _memo_jobs()
    cold = []
    for job in jobs:
        _hyperbola_tables.cache_clear()
        cold.append(_route_bits(job))
    kinds = {b[0][3] if len(b[0]) == 4 else b[0][0] for b in cold}
    assert kinds >= {"hyperbola", "DegenerateDenominator"}
    assert {b[1][3] for b in cold} == {"hyperbola", "series"}
    warm = [_route_bits(j) for j in jobs]
    assert _hyperbola_tables.cache_info().hits > 0
    assert warm == cold
    # evict every job's tables between two calls
    held = {j[0]: _hyperbola_tables(j[0]) for j in jobs}
    for i in range(HYPERBOLA_MEMO_SIZE + 1):
        eval_hyperbola(2.0, -3.0 + 1j, validate_params(0.3 + 0.01 * i, 0.9, 1))
    assert all(_hyperbola_tables(p) is not t for p, t in held.items())
    assert _hyperbola_tables.cache_info().currsize <= HYPERBOLA_MEMO_SIZE
    assert [_route_bits(j) for j in jobs] == cold


@pytest.mark.parametrize(
    "first, second",
    [
        (validate_params(0.5, 0.8, 1), validate_params(0.5, 0.8, 1)),
        (validate_params(0.5, 0.8, 1 + 0j), validate_params(0.5, 0.8, complex(1.0, -0.0))),
        (validate_params(0.5, 0.8, complex(1.0, -0.0)), validate_params(0.5, 0.8, 1 + 0j)),
        (Parameters(2, 1, 1), validate_params(2, 1, 1)),
        (validate_params(0.9, 0.7, 1.2 - 0.6j), validate_params(0.9, 0.7, 1.2 - 0.6j)),
    ],
)
def test_equal_parameters_share_tables_with_the_same_bits(first, second):
    # lru_cache merges equal keys: second's tables are first's
    assert first == second and first is not second
    rng = random.Random(29)
    points = [(_annulus(rng), _annulus(rng)) for _ in range(6)] + [(25.0 - 3j, 17.0 + 20j)]
    _hyperbola_tables.cache_clear()
    own = [_route_bits((second, x, y)) for x, y in points]
    _hyperbola_tables.cache_clear()
    _hyperbola_tables(first)
    assert [_route_bits((second, x, y)) for x, y in points] == own
    assert _hyperbola_tables(second) is _hyperbola_tables(first)


def test_hyperbola_tables_are_read_only():
    for table in _hyperbola_tables(validate_params(0.5, 0.8, 1)):
        with pytest.raises(ValueError):
            table[0] = 0.0
