"""eval_many and hyperbola_many: one batched hyperbola pass over many points
of one Parameters, each result bit-for-bit the one-point call's; and the
failure contract that no uncertified value leaves eval_auto."""

import cmath
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from ml2v import eval_auto, eval_many, validate_params
from ml2v import representations as rep
from ml2v.errors import BudgetExceeded, DegenerateDenominator, DomainError, NumericFailure
from ml2v.representations import (
    HYPERBOLA_BLOCK,
    _hyperbola_tables,
    branch_residues,
    eval_hyperbola,
    hyperbola_many,
)

TOL = 1e-8
ORDERS = [(0.5, 0.8, 1), (0.75, 0.75, 1), (0.7, 0.7, 0.5 + 0.3j), (2, 1, 1)]


def _bits(r):
    """float.hex of value and est_error and the tag, or exception type and message."""
    if isinstance(r, Exception):
        return type(r).__name__, str(r)
    return r.value.real.hex(), r.value.imag.hex(), r.est_error.hex(), r.method


def _one(f, x, y, p, tol=TOL):
    try:
        return _bits(f(x, y, p, tol))
    except (NumericFailure, DomainError) as exc:
        return _bits(exc)


def _polar(rng, lo, hi):
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


def _mixed(orders, seed):
    """Seeded points of every route: the unit disk, the annulus 1 < |w| <= 4,
    large arguments |x|, |y| >= 15, a double pole (x and y share the pole
    s0 = -3 + 2i) in the middle and a non-finite point."""
    a, b, _ = orders
    rng = random.Random(f"many-{orders}-{seed}")
    pts = [(_polar(rng, 0, 1), _polar(rng, 0, 1)) for _ in range(6)]
    pts += [(_polar(rng, 1, 4), _polar(rng, 1, 4)) for _ in range(10)]
    pts += [(_polar(rng, 15, 60), _polar(rng, 15, 60)) for _ in range(4)]
    s0 = -3 + 2j
    pts.insert(len(pts) // 2, (s0**a, s0**b))
    pts.insert(3, (complex(math.nan, 0), 2.0))
    return pts


@pytest.mark.parametrize("orders", ORDERS)
def test_many_equals_auto_point_by_point(orders):
    p = validate_params(*orders)
    pts = _mixed(orders, 0)
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    many = [_bits(r) for r in eval_many(xs, ys, p, TOL)]
    assert many == [_one(eval_auto, x, y, p) for x, y in pts]
    hyper = [_bits(r) for r in hyperbola_many(xs, ys, p, TOL)]
    assert hyper == [_one(eval_hyperbola, x, y, p) for x, y in pts]
    kinds = {b[0] if len(b) == 2 else b[3].split("-")[0] for b in many}
    # the non-finite point fails alone, as a DomainError in its own slot
    assert many[3][0] == "DomainError" and kinds >= {"series", "hyperbola", "DomainError"}
    # the double pole fails the hyperbola alone, and only its own point
    assert sum(b[0] == "DegenerateDenominator" for b in hyper) == 1


def test_many_covers_every_route():
    seen = set()
    for orders in ORDERS:
        p = validate_params(*orders)
        pts = _mixed(orders, 0)
        seen |= {_bits(r)[-1].split("-")[0] if not isinstance(r, Exception) else type(r).__name__
                 for r in eval_many([x for x, _ in pts], [y for _, y in pts], p, TOL)}
    # large arguments take the hyperbola too: the asymptotics are a reference
    assert seen >= {"series", "hyperbola", "DomainError"} and "asymptotic" not in seen, seen


def test_many_does_not_depend_on_order_or_company():
    p = validate_params(0.5, 0.8, 1)
    pts = _mixed((0.5, 0.8, 1), 1) + _mixed((0.5, 0.8, 1), 2)
    alone = [_bits(r) for r in eval_many([x for x, _ in pts], [y for _, y in pts], p)]
    rng = random.Random(5)
    for _ in range(3):
        order = list(range(len(pts)))
        rng.shuffle(order)
        keep = order[: rng.randint(1, len(order))]
        got = eval_many([pts[i][0] for i in keep], [pts[i][1] for i in keep], p)
        assert [_bits(r) for r in got] == [alone[i] for i in keep]


def test_many_longer_than_a_block():
    p = validate_params(0.5, 0.8, 1)
    rng = random.Random(11)
    pts = [(_polar(rng, 1, 8), _polar(rng, 1, 8)) for _ in range(HYPERBOLA_BLOCK + 40)]
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    many = [_bits(r) for r in eval_many(xs, ys, p)]
    assert len(many) == len(pts)
    assert many == [_one(eval_auto, x, y, p) for x, y in pts]


def test_many_of_no_points_and_bad_calls():
    p = validate_params(0.5, 0.8, 1)
    assert eval_many([], [], p) == [] and hyperbola_many([], [], p) == []
    with pytest.raises(DomainError, match="differ in length"):
        eval_many([1.0, 2.0], [1.0], p)
    for tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            eval_many([2.0], [3.0], p, tol)
        with pytest.raises(DomainError):
            hyperbola_many([2.0], [3.0], p, tol)


def test_many_bits_do_not_depend_on_threads():
    # four threads race to fill a cleared memo, each with its own batches
    jobs = [(validate_params(*orders), _mixed(orders, seed)) for orders in ORDERS for seed in (3, 4)]

    def run(job):
        p, pts = job
        return [_bits(r) for r in eval_many([x for x, _ in pts], [y for _, y in pts], p)]

    single = [run(j) for j in jobs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    _hyperbola_tables.cache_clear()
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(run, jobs * 4, timeout=120))
    finally:
        sys.setswitchinterval(switch)
    assert threaded == single * 4


def test_residue_pass_flags_each_degenerate_pole():
    # s = 2 + i is an x-pole and a y-pole; the pole in between is not degenerate
    a, b = 0.5, 0.8
    s = 2 + 1j
    x, y = s**a, s**b
    poles = [(0, b, a, x, y), (0, b, a, 3.0 + 1j, -2.0), (0, a, b, y, x)]
    terms, degenerate = rep._residue_pass(poles, 1 + 0j)
    assert sorted(degenerate) == [0, 2]
    assert all(isinstance(d, DegenerateDenominator) for d in degenerate.values())
    # branch_residues raises the first one in list order
    with pytest.raises(DegenerateDenominator) as caught:
        branch_residues(poles, 1 + 0j)
    assert str(caught.value) == str(degenerate[0])
    assert branch_residues(poles[1:2], 1 + 0j) == terms[1:2]


# Double poles where the hyperbola raises DegenerateDenominator and the
# series cannot certify: eval_auto returned them with exit 0.
UNCERTIFIED = [
    # est_error 47
    ((0.5, 0.8, 1), 0.454869570036895 + 5.4960809970146505j,
     -11.130528790172699 + 10.58829922644027j),
    # |value| 1.05e62, est_error 3.9e63
    ((0.5, 0.5, 1), 12 + 5j, 12 + 5j),
]


@pytest.mark.parametrize("orders, x, y", UNCERTIFIED)
def test_auto_raises_rather_than_return_an_uncertified_value(orders, x, y):
    p = validate_params(*orders)
    with pytest.raises(BudgetExceeded, match="misses tol") as caught:
        eval_auto(x, y, p, TOL)
    ev = caught.value.evaluation
    assert ev.method == "series" and ev.est_error > TOL * max(1.0, abs(ev.value))
    (slot,) = eval_many([x], [y], p, TOL)
    assert _bits(slot) == _bits(caught.value) and _bits(slot.evaluation) == _bits(ev)
