"""Large-argument expansions: cases, tail algebra, decay rates, honesty."""

import ast
import cmath
import dataclasses
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from ml2v import asymptotics
from ml2v.asymptotics import (
    AsymptoticCase,
    TruncationOrders,
    _tail_terms,
    asympt_tail_sum,
    classify_case,
    eval_asymptotic,
)
from ml2v.core import ContourSpec, angle_window, validate_params
from ml2v.errors import DomainError, MagnitudeFloor, NumericFailure
from ml2v.gamma import recip_gamma
from ml2v.oracle import oracle_eval
from ml2v.representations import (
    choose_contour,
    contour_clearance,
    eval_auto,
    eval_with_contour,
    pole_images,
)

P_HALF = validate_params(0.5, 0.5, 1)
P_08 = validate_params(0.8, 0.8, 1)


def test_orders_validation():
    TruncationOrders(1, 4)
    with pytest.raises(DomainError):
        TruncationOrders(0, 2)
    with pytest.raises(DomainError):
        TruncationOrders(2, -1)
    TruncationOrders(np.int64(2), 3)
    for bad in (3.0, 2.5, "3", None):
        with pytest.raises(DomainError):
            TruncationOrders(bad, 3)
        with pytest.raises(DomainError):
            TruncationOrders(3, bad)


def test_non_integer_orders_raise_domain_error():
    # rejected up front: a float order would otherwise fail in slicing with
    # a TypeError, or size the table by rounding up
    with pytest.raises(DomainError):
        eval_asymptotic(30.0, 20.0, P_HALF, TruncationOrders(3.0, 3))
    with pytest.raises(DomainError):
        asympt_tail_sum(30.0, 20.0, P_HALF, TruncationOrders(2.5, 3))


def test_default_tau1_in_window():
    # the default sector angle lies in the admissible window, and
    # classify_case uses it when no tau1 is given
    for pp in (P_HALF, P_08, validate_params(1.2, 0.9, 1)):
        lo = math.pi * pp.alpha * pp.beta / 2
        hi = min(math.pi, math.pi * pp.alpha * pp.beta)
        tau1 = angle_window(pp)[2]
        assert lo < tau1 <= hi
        for x, y in ((20.0, 10.0), (-20.0, 10.0), (20.0j, -10.0)):
            assert classify_case(x, y, pp) is classify_case(x, y, pp, tau1=tau1)


def test_tau1_window_enforced():
    with pytest.raises(DomainError):
        classify_case(10.0, 10.0, P_08, tau1=0.1)
    with pytest.raises(DomainError):
        classify_case(10.0, 10.0, P_08, tau1=math.pi)


def test_case_classification():
    assert classify_case(20.0, 10.0, P_HALF) is AsymptoticCase.CASE1
    assert classify_case(20.0, -10.0, P_HALF) is AsymptoticCase.CASE2
    assert classify_case(-20.0, 10.0, P_HALF) is AsymptoticCase.CASE3
    assert classify_case(-20.0, -10.0, P_HALF) is AsymptoticCase.CASE4


def test_tail_vanishes_at_unit_orders():
    # mu = alpha = beta = 1 puts every tail gamma at a pole
    assert asympt_tail_sum(7.0, 9.0, validate_params(1, 1, 1)) == 0


def test_tail_single_term():
    pp = validate_params(0.7, 0.9, 0.5 + 0.3j)
    got = asympt_tail_sum(5.0, -7.0, pp, TruncationOrders(1, 1))
    want = recip_gamma(pp.mu - pp.alpha - pp.beta) / (5.0 * -7.0)
    assert got == pytest.approx(want, rel=1e-14)


def test_tail_matches_hand_loop():
    pp = validate_params(0.7, 0.9, 0.5 + 0.3j)
    x, y = 4.0 - 2.0j, -6.0 + 1.0j
    orders = TruncationOrders(p_alpha=2, p_beta=3)
    want = 0j
    for n in range(1, orders.p_beta + 1):
        for m in range(1, orders.p_alpha + 1):
            want += (
                x**-n * y**-m * recip_gamma(pp.mu - pp.alpha * n - pp.beta * m)
            )
    got = asympt_tail_sum(x, y, pp, orders)
    assert got == pytest.approx(want, rel=1e-13)


def test_tail_rejects_zero_argument():
    with pytest.raises(DomainError):
        asympt_tail_sum(0.0, 3.0, P_HALF)


def test_magnitude_floor():
    with pytest.raises(MagnitudeFloor):
        eval_asymptotic(2.0, 30.0, P_HALF)


def test_case1_exact_at_unit_orders():
    # tail vanishes; the two exponential terms give the closed form exactly
    pp = validate_params(1, 1, 1)
    x, y = 30.0, 20.0
    ev = eval_asymptotic(x, y, pp)
    ref = (x * math.exp(x) - y * math.exp(y)) / (x - y)
    assert ev.method == "asymptotic-case1"
    assert abs(ev.value - ref) / ref <= 1e-13
    assert abs(ev.value - ref) <= ev.est_error


def test_case23_honest_and_symmetric():
    ev3 = eval_asymptotic(-8.0, 9.0, P_08)
    ev2 = eval_asymptotic(9.0, -8.0, P_08)
    assert ev3.method == "asymptotic-case3"
    assert ev2.method == "asymptotic-case2"
    assert ev3.value == pytest.approx(ev2.value, rel=1e-14)
    ref = oracle_eval(-8.0, 9.0, P_08, digits=30).as_complex()
    assert abs(ev3.value - ref) <= ev3.est_error


def test_secondary_preimage_residue_included():
    # x < 0 with beta < 1 and a wide sector: both conjugate preimages are
    # inside and the pair of residues keeps the expansion accurate
    pp = validate_params(1.2, 0.9, 1)
    ev = eval_asymptotic(-20.0, 20.0, pp)
    assert ev.method == "asymptotic-case1"
    ref = oracle_eval(-20.0, 20.0, pp, digits=30).as_complex()
    assert abs(ev.value - ref) <= ev.est_error


def test_tau1_override_flips_case_consistently():
    pp = P_08
    x = 10 * cmath.exp(0.6j * math.pi)
    y = 10.0
    lo = math.pi * pp.alpha * pp.beta / 2
    hi = math.pi * pp.alpha * pp.beta
    narrow = eval_asymptotic(x, y, pp, tau1=lo * 1.1)
    wide = eval_asymptotic(x, y, pp, tau1=hi * 0.999)
    assert narrow.method == "asymptotic-case3"
    assert wide.method == "asymptotic-case1"
    ref = oracle_eval(x, y, pp, digits=30).as_complex()
    assert abs(narrow.value - ref) <= narrow.est_error
    assert abs(wide.value - ref) <= wide.est_error


def test_algebraic_decay_ladder(assert_suite_passes):
    # x = y = -t at alpha = beta = 1/2: err <= est_error and the error after
    # truncation at order p falls like t^-(2+p), on the corpus ladder
    assert_suite_passes("decay")


def test_first_order_decay_constant():
    # the leading coefficient at p = 1 approaches 1/sqrt(pi)
    t = 40.0
    ref = oracle_eval(-t, -t, P_HALF, digits=30).as_complex()
    ev = eval_asymptotic(-t, -t, P_HALF, TruncationOrders(1, 1))
    scaled = abs(ev.value - ref) * t**3
    assert abs(scaled - 1.0 / math.sqrt(math.pi)) < 0.01


def test_expansion_identity_random(assert_suite_passes):
    # finite expansion with exact remainder, sampled off the denominator zeros
    assert_suite_passes("expansion")


def test_cold_call_at_unequal_orders_is_prompt_and_honest():
    # the estimate needs no oracle: a first call in a fresh interpreter at
    # unequal, non-dyadic orders returns at once (it once hung for minutes)
    code = (
        "import time; t = time.perf_counter()\n"
        "from ml2v.asymptotics import eval_asymptotic\n"
        "from ml2v.core import angle_window, validate_params\n"
        "ev = eval_asymptotic(-30.0, -25.0, validate_params(0.5, 0.8, 1))\n"
        "print(repr(ev.value), repr(ev.est_error), time.perf_counter() - t)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    value, est, seconds = (ast.literal_eval(w) for w in out.stdout.split())
    assert seconds < 10.0
    pp = validate_params(0.5, 0.8, 1)
    ref = eval_with_contour(-30.0, -25.0, pp, choose_contour(-30.0, -25.0, pp), tol=1e-13)
    assert abs(value - ref.value) <= est


# (x, y) at (1.2, 0.9, 1) where an error constant calibrated against the
# oracle at x = y = -10, -20, -40 understated the error; the same points
# as the benchmark's LARGE_DISHONEST
DISHONEST_120_090 = (
    (-6.136594049682714 + 18.21078306001843j, 13.195190600664633 - 44.826007360400716j),
    (-17.087927510554113 - 7.923649425585795j, 18.33983364661026 - 55.17562739608184j),
    (-14.995428461622627 - 10.570641722821842j, 14.98448887874843 - 54.574987437519965j),
)


@pytest.mark.parametrize("x,y", DISHONEST_120_090)
def test_next_ring_estimate_honest_at_wide_orders(x, y):
    pp = validate_params(1.2, 0.9, 1)
    ev = eval_asymptotic(x, y, pp)
    ref = eval_with_contour(x, y, pp, choose_contour(x, y, pp), tol=1e-12)
    assert ref.est_error < 0.1 * ev.est_error
    assert abs(ev.value - ref.value) <= ev.est_error


# Points where the expansion drops the residue of a pole image just outside
# its sector; its rings alone at orders (3, 3) give est_error 7.97e-5 against
# an error of 0.0893 (the residue of the image at -1.075 pi, past the cut),
# and 5.03e-5 against 2.0e-3 (the image at 1.119 pi).
DROPPED_IMAGE = (
    ((1.4, 1.3, 0.4 - 0.8j),
     -39.43636481753434 - 23.79495630105877j, 7.91083719899921 + 52.52690364778153j),
    ((1.9, 0.9, 1),
     -41.44471792877551 - 39.68815881092204j, 11.635930528439706 + 39.044700236645994j),
)


@pytest.mark.parametrize("orders,x,y", DROPPED_IMAGE)
def test_auto_honest_where_the_expansion_drops_an_image(orders, x, y):
    pp = validate_params(*orders)
    ev = eval_auto(x, y, pp)
    ref = oracle_eval(x, y, pp, digits=20).as_complex()
    assert abs(ev.value - ref) <= ev.est_error


# Parameter sets of the default-order honesty check: the two of the large
# benchmark workload, unequal orders, low orders, and a small beta with a
# complex mu.
HONESTY_SETS = (
    (0.5, 0.5, 1), (0.7, 0.7, 0.5 + 0.3j), (0.5, 0.8, 1), (0.3, 0.4, 1), (0.9, 0.25, 2 + 0.5j),
)
HONESTY_DRAWS = 40


def _honesty_point(rng, pp, edge):
    """(x, y) with 15 <= |x|, |y| <= 80 whose residue exponents inside the
    angle window stay below 600; with edge, an image of x or of y lies
    within 0.08 rad of the top of the window, where the sector ends."""
    _, hi, _ = angle_window(pp)
    d = 1.0 / (pp.alpha * pp.beta)
    while True:
        x, y = (cmath.rect(math.exp(rng.uniform(math.log(15), math.log(80))),
                           rng.uniform(-math.pi, math.pi)) for _ in "xy")
        angles = [(abs(z), abs(cmath.phase(z)))
                  for z in pole_images(x, pp.beta) + pole_images(y, pp.alpha)]
        if max((r**d * math.cos(d * t) for r, t in angles if t <= hi), default=0.0) > 600:
            continue
        if not edge or any(abs(t - hi) < 0.08 for _, t in angles):
            return x, y


def _second_contour(x, y, pp, tol):
    """eval_with_contour on a contour below the dispatcher's angle that
    clears every pole image by 5%, or None."""
    lo, hi, _ = angle_window(pp)
    images = pole_images(x, pp.beta) + pole_images(y, pp.alpha)
    for frac in (0.6, 0.8, 0.4):
        for eps in (0.8, 1.25, 0.5, 1.8):
            spec = ContourSpec(eps, lo + frac * (hi - lo))
            if min(contour_clearance(z, spec) for z in images) >= 0.05:
                try:
                    return eval_with_contour(x, y, pp, spec, tol)
                except NumericFailure:
                    continue
    return None


@pytest.mark.parametrize("orders", HONESTY_SETS)
def test_default_orders_honest_against_a_second_contour(orders):
    pp = validate_params(*orders)
    rng = random.Random(f"asymptotic-honesty-{orders}")
    checked = 0
    for i in range(HONESTY_DRAWS):
        x, y = _honesty_point(rng, pp, edge=i % 2 == 0)
        try:
            ev = eval_asymptotic(x, y, pp)
        except NumericFailure:
            continue
        ref = _second_contour(x, y, pp, 1e-14 * max(1.0, abs(ev.value)))
        if ref is None:
            continue
        checked += 1
        assert abs(ev.value - ref.value) <= ev.est_error + ref.est_error, (x, y)
    assert checked >= HONESTY_DRAWS // 2


@pytest.mark.parametrize(
    "x,y,p",
    [
        (-15.0 + 2.0j, 16.0 - 3.0j, 5),
        (-30.0 + 12.0j, 25.0 - 30.0j, 10),
        (-60.0 + 5.0j, -70.0 - 3.0j, 12),
    ],
)
def test_default_orders_are_the_explicit_orders_they_choose(x, y, p):
    pp = validate_params(1.2, 0.9, 1)
    side = asymptotics.ORDER_MAX + 2
    assert asymptotics._smallest_ring(_tail_terms(x, y, pp, side, side)) == p
    explicit = eval_asymptotic(x, y, pp, TruncationOrders(p, p))
    assert _bits(eval_asymptotic(x, y, pp)) == _bits(explicit)


def test_explicit_orders_keep_their_bits():
    # explicit orders are used as given: (3, 3) at a point without a dropped
    # image, pinned to the bit
    ev = eval_asymptotic(-40.0 + 12.0j, 25.0 - 30.0j, P_HALF, TruncationOrders(3, 3))
    assert _bits(ev) == (
        "-0x1.4cdb230265b6ep-19", "-0x1.773b8eacd91a0p-23", "0x1.10f0fcd75eb44p-26",
        "asymptotic-case3",
    )


def test_tail_terms_underflow_at_huge_arguments():
    # x^4 overflows a double here: numpy's complex power gave nan terms and
    # an infinite est_error, where the terms underflow to 0
    x, y = -1.105e89 - 2.103e89j, 20.0 + 5.0j
    assert np.isfinite(_tail_terms(x, y, P_HALF, 5, 5)).all()
    ev = eval_asymptotic(x, y, P_HALF)
    ref = eval_with_contour(x, y, P_HALF, choose_contour(x, y, P_HALF))
    assert math.isfinite(ev.est_error)
    assert abs(ev.value - ref.value) <= ev.est_error + ref.est_error


def test_result_independent_of_call_history():
    pp = validate_params(0.7, 0.7, 0.5 + 0.3j)
    x, y = -40.0 + 12.0j, 25.0 - 30.0j
    before = eval_asymptotic(x, y, pp)
    eval_asymptotic(x, y, pp, TruncationOrders(1, 2))
    eval_asymptotic(-30.0, -25.0, validate_params(0.5, 0.8, 1))
    eval_asymptotic(x, y, P_HALF, TruncationOrders(4, 4))
    assert eval_asymptotic(x, y, pp) == before


def _bits(ev):
    return (ev.value.real.hex(), ev.value.imag.hex(), ev.est_error.hex(), ev.method)


def test_tail_table_memo_hits(monkeypatch):
    # no table is kept between calls: each call builds its 1/Gamma table
    # once, through the module global recip_gamma
    calls = []

    def counted(s):
        calls.append(np.shape(s))
        return recip_gamma(s)

    monkeypatch.setattr(asymptotics, "recip_gamma", counted)
    x, y = -40.0 + 12.0j, 25.0 - 30.0j
    eval_asymptotic(x, y, P_HALF)
    side = asymptotics.ORDER_MAX + 2
    assert calls == [(side, side)]
    eval_asymptotic(-30.0, 60.0j, P_HALF)
    assert calls[1:] == [(side, side)]
    eval_asymptotic(x, y, P_HALF, TruncationOrders(2, 4))
    assert calls[2:] == [(6, 4)]
    eval_asymptotic(x, y, P_08, TruncationOrders(2, 4))
    eval_asymptotic(x, y, P_08, TruncationOrders(2, 4))
    assert calls[3:] == [(6, 4), (6, 4)]


@pytest.mark.parametrize("mu", [1.0, 0.5, -0.7, 2.0])
def test_tail_table_cold_and_warm_bit_identical(mu):
    # Parameters whose mu differ only in the sign of a zero imaginary part
    # are equal, and their tables must not depend on that sign nor on the
    # calls made before
    pp = validate_params(0.7, 0.6, mu)
    pm = dataclasses.replace(pp, mu=complex(mu, -0.0))
    assert pp == pm
    points = ((30.0, 20.0), (30.0, -20.0), (-40.0 + 12.0j, 25.0 - 30.0j), (-20.0, -50.0))

    def fingerprint(p, x, y):
        tail = asympt_tail_sum(x, y, p)
        return _bits(eval_asymptotic(x, y, p)), tail.real.hex(), tail.imag.hex()

    cold = {(k, x, y): fingerprint(p, x, y) for k, p in enumerate((pp, pm)) for x, y in points}
    for k in (1, 0, 1, 0):
        for x, y in points:
            assert fingerprint((pp, pm)[k], x, y) == cold[k, x, y]


# Parameter sets at which the hyperbola, eval_auto's route at large
# arguments, and the expansion check each other: equal orders, a complex mu,
# unequal orders and alpha > 1.
CROSS_SETS = ((0.5, 0.5, 1), (0.7, 0.7, 0.5 + 0.3j), (0.5, 0.8, 1), (1.2, 0.9, 1))
CROSS_DRAWS = 60


def _large_point(rng, pp):
    """(x, y) with |x|, |y| log-uniform in [15, 80] and a uniform phase whose
    residue exponents Re zeta^(1/(alpha beta)), over every pole image zeta,
    stay at or below 600, so that the value fits in a double."""
    d = 1.0 / (pp.alpha * pp.beta)
    while True:
        x, y = (cmath.rect(math.exp(rng.uniform(math.log(15), math.log(80))),
                           rng.uniform(-math.pi, math.pi)) for _ in "xy")
        images = pole_images(x, pp.beta) + pole_images(y, pp.alpha)
        if max(((z**d).real for z in images), default=0.0) <= 600:
            return x, y


@pytest.mark.parametrize("orders", CROSS_SETS)
def test_hyperbola_and_asymptotics_agree_at_large_arguments(orders):
    pp = validate_params(*orders)
    rng = random.Random(f"hyperbola-vs-asymptotics-{orders}")
    checked = 0
    for _ in range(CROSS_DRAWS):
        x, y = _large_point(rng, pp)
        try:
            asym = eval_asymptotic(x, y, pp)
        except NumericFailure:
            continue
        if asym.est_error > 1e-8 * max(1.0, abs(asym.value)):
            continue
        # wherever the expansion certifies, eval_auto certifies too
        ev = eval_auto(x, y, pp)
        checked += 1
        assert ev.method == "hyperbola", (x, y)
        assert abs(ev.value - asym.value) <= ev.est_error + asym.est_error, (x, y)
    assert checked >= CROSS_DRAWS // 2
