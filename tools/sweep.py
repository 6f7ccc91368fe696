#!/usr/bin/env python3
"""Seeded sweep of eval_auto over the strata where its routes have failed,
with per-stratum counts.

    PYTHONPATH=<tree>/src python tools/sweep.py [--count N] [--seed S] [--tol T]

Each stratum draws N points (default 200) from its own random.Random, seeded
by the seed and the stratum's name, so a stratum's points do not depend on
the other strata or on the package under test:

* unit disk: the axis order sets and (0.25, 0.25, 1) in turn, |x| and |y|
  uniform by area in the unit disk with a uniform phase or one on an axis,
  and one argument in ten exactly 0: where eval_auto takes the series;
* axis: at (0.5, 0.5, 1), (0.5, 0.8, 1), (0.7, 0.7, 0.5+0.3i) and
  (1.2, 0.9, 1), |x| and |y| log-uniform in [1, 15], with a uniform phase
  ("uniform") or one of 0, pi/2, pi, -pi/2 ("axis");
* annulus: (0.25, 0.25, 1), |x| and |y| uniform in [1, 4], uniform phase;
* edge: the orders of the benchmark's points workload (equal-dyadic,
  low-dyadic, unequal and complex mu in turn), 1 < |x|, |y| <= 4, drawn
  again until a pole image of x (zeta^(1/beta) = x) or of y lies within
  EDGE_BAND of the top of the admissible angle window, where the keyhole
  contour's rays run;
* boundary: alpha or beta = 2, alpha*beta >= 2 included, complex mu among
  them, |x| and |y| log-uniform in [1, 40];
* past the keyhole window: alpha*beta >= 2 with both orders below 2, and
  boundary orders with Re mu <= 0, |x| and |y| log-uniform in [1, 40];
* large: the axis order sets in turn, |x| and |y| log-uniform in [15, 80].

The last three strata draw a uniform phase, and draw a point again until
every residue exponent Re zeta^(1/(alpha beta)), over the pole images zeta
of x and of y, is at most LARGE_EXPONENT_CAP, so that the value fits in a
double.

For each stratum it prints the points, how many eval_auto certified
(est_error <= tol * max(1, |value|)), how many it returned uncertified, how
many raised a NumericFailure or DomainError, the seconds spent, and the
method tag or exception name of every point.  It then evaluates every
stratum again through eval_many, one call per parameter set, and counts the
points whose outcome (value, est_error and tag, or exception type and
message) differs from eval_auto's, on stderr.  It exits 1 if any does, and
0 otherwise.
"""

import argparse
import cmath
import math
import random
import sys
import time
import warnings
from collections import Counter

AXIS_SETS = ((0.5, 0.5, 1), (0.5, 0.8, 1), (0.7, 0.7, 0.5 + 0.3j), (1.2, 0.9, 1))
ANNULUS_SET = (0.25, 0.25, 1)
BOUNDARY_SETS = ((2, 1, 1), (2, 0.5, 0.5 + 0.3j), (1.5, 2, 1), (2, 2, 1))
WIDE_SETS = ((1.9, 1.9, 1), (1.5, 1.5, 1), (1.9, 1.2, 0.5 + 0.3j), (2, 0.5, -1), (0.5, 2, 0),
             (2, 1.5, -0.5 + 0.3j))
EDGE_BAND = 0.08
LARGE_EXPONENT_CAP = 600.0


def _axis_phase(rng):
    return rng.choice((0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi))


def _unit_disk_point(rng):
    if rng.random() < 0.1:
        return 0j
    phase = _axis_phase(rng) if rng.random() < 0.5 else rng.uniform(-math.pi, math.pi)
    return cmath.rect(math.sqrt(rng.random()), phase)


def _log_uniform(rng, lo, hi, phase):
    return cmath.rect(math.exp(rng.uniform(math.log(lo), math.log(hi))), phase)


def _edge_orders(rng, i):
    kind = i % 4
    if kind == 0:
        a = b = rng.choice((0.5, 0.75, 1.0, 1.25))
        return a, b, 1
    if kind == 1:
        return 0.25, 0.25, 1
    while True:
        a, b = rng.uniform(0.3, 1.7), rng.uniform(0.3, 1.7)
        if a * b <= 1.8:
            break
    return a, b, (1 if kind == 2 else complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0)))


def _near_edge(pole_images, w, power, a, b):
    hi = min(math.pi, math.pi * a * b)
    return any(abs(abs(cmath.phase(z)) - hi) < EDGE_BAND for z in pole_images(w, power))


def _capped_point(rng, pole_images, a, b, lo, hi):
    d = 1.0 / (a * b)
    while True:
        x, y = (_log_uniform(rng, lo, hi, rng.uniform(-math.pi, math.pi)) for _ in "xy")
        images = pole_images(x, b) + pole_images(y, a)
        if max(((z**d).real for z in images), default=0.0) <= LARGE_EXPONENT_CAP:
            return x, y


def strata(count, seed):
    """{name: [(orders, x, y), ...]}, count points per stratum."""
    from ml2v.representations import pole_images

    rng = random.Random(f"{seed}-unit-disk")
    disk_sets = AXIS_SETS + (ANNULUS_SET,)
    out = {"unit disk": [
        (disk_sets[i % len(disk_sets)], _unit_disk_point(rng), _unit_disk_point(rng))
        for i in range(count)
    ]}
    for a, b, mu in AXIS_SETS:
        for kind in ("uniform", "axis"):
            rng = random.Random(f"{seed}-axis-{a}-{b}-{mu}-{kind}")

            def phase():
                return _axis_phase(rng) if kind == "axis" else rng.uniform(-math.pi, math.pi)

            out[f"axis ({a:g}, {b:g}, {mu:g}) {kind}"] = [
                ((a, b, mu), _log_uniform(rng, 1, 15, phase()), _log_uniform(rng, 1, 15, phase()))
                for _ in range(count)
            ]
    rng = random.Random(f"{seed}-annulus")
    out["annulus (0.25, 0.25, 1)"] = [
        (ANNULUS_SET, *(cmath.rect(rng.uniform(1, 4), rng.uniform(-math.pi, math.pi)) for _ in "xy"))
        for _ in range(count)
    ]
    rng = random.Random(f"{seed}-edge")
    edge = []
    while len(edge) < count:
        a, b, mu = _edge_orders(rng, len(edge))
        while True:
            x, y = (cmath.rect(math.sqrt(rng.uniform(1, 16)), rng.uniform(-math.pi, math.pi))
                    for _ in "xy")
            if _near_edge(pole_images, x, b, a, b) or _near_edge(pole_images, y, a, a, b):
                break
        edge.append(((a, b, mu), x, y))
    out["edge band, points orders"] = edge
    for name, tag, sets, lo, hi in (("boundary orders", "boundary", BOUNDARY_SETS, 1, 40),
                                    ("past the keyhole window", "wide", WIDE_SETS, 1, 40),
                                    ("large, axis orders", "large", AXIS_SETS, 15, 80)):
        rng = random.Random(f"{seed}-{tag}")
        out[name] = [
            ((a, b, mu), *_capped_point(rng, pole_images, a, b, lo, hi))
            for a, b, mu in (sets[i % len(sets)] for i in range(count))
        ]
    return out


def _auto(orders, x, y, tol):
    """eval_auto's Evaluation, or the NumericFailure or DomainError it raised."""
    from ml2v import DomainError, NumericFailure, eval_auto, validate_params

    try:
        return eval_auto(x, y, validate_params(*orders), tol)
    except (NumericFailure, DomainError) as exc:
        return exc


def outcome(orders, x, y, tol):
    """("certified", tag), ("uncertified", tag) or ("raised", exception name)."""
    ev = _auto(orders, x, y, tol)
    if isinstance(ev, Exception):
        return "raised", type(ev).__name__
    ok = ev.est_error <= tol * max(1.0, abs(ev.value))
    return ("certified" if ok else "uncertified"), ev.method


def _key(ev):
    """What two evaluations of one point must share: value, est_error and
    tag, or exception type and message."""
    if isinstance(ev, Exception):
        return type(ev).__name__, str(ev)
    return ev.value, ev.est_error, ev.method


def batch_mismatches(pts, tol):
    """The points of pts, [(orders, x, y), ...], whose eval_many outcome
    differs from eval_auto's; eval_many takes each parameter set's points in
    one call."""
    from ml2v import eval_many, validate_params

    groups = {}
    for pt in pts:
        groups.setdefault(pt[0], []).append(pt)
    bad = []
    for orders, group in groups.items():
        many = eval_many([x for _, x, _ in group], [y for _, _, y in group],
                         validate_params(*orders), tol)
        bad += [pt for pt, ev in zip(group, many) if _key(ev) != _key(_auto(*pt, tol))]
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description="Seeded per-stratum outcome counts of eval_auto.")
    ap.add_argument("--count", type=int, default=200, help="points per stratum")
    ap.add_argument("--seed", type=int, default=6)
    ap.add_argument("--tol", type=float, default=1e-8)
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")
    print(f"{'stratum':<36} {'points':>6} {'certified':>9} {'uncertified':>11} "
          f"{'raised':>6} {'seconds':>8}  tags")
    totals = Counter()
    for name, pts in strata(args.count, args.seed).items():
        counts, tags = Counter(), Counter()
        t0 = time.perf_counter()
        for orders, x, y in pts:
            kind, tag = outcome(orders, x, y, args.tol)
            counts[kind] += 1
            tags[tag] += 1
        secs = time.perf_counter() - t0
        totals.update(counts)
        totals["seconds"] += secs
        print(f"{name:<36} {len(pts):>6} {counts['certified']:>9} {counts['uncertified']:>11} "
              f"{counts['raised']:>6} {secs:>8.2f}  "
              + ", ".join(f"{t} {n}" for t, n in tags.most_common()))
    n = totals["certified"] + totals["uncertified"] + totals["raised"]
    print(f"{'total':<36} {n:>6} {totals['certified']:>9} {totals['uncertified']:>11} "
          f"{totals['raised']:>6} {totals['seconds']:>8.2f}")
    bad = [pt for pts in strata(args.count, args.seed).values()
           for pt in batch_mismatches(pts, args.tol)]
    print(f"eval_many: {n - len(bad)} of {n} outcomes equal to eval_auto's", file=sys.stderr)
    for orders, x, y in bad:
        print(f"  differs at {orders} x={x!r} y={y!r}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
