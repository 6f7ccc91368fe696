"""Reference values for the seeded subsample, built after the timed phase.

A point's reference comes from, in order of preference:

* ``corpus``: the packaged 30-digit oracle corpus, when the point is in it;
* ``oracle``: ``oracle_eval(..., digits=30)``, when the oracle is affordable
  (equal orders take its closed-form diagonal path; unequal orders only at
  small arguments, where the two-dimensional sum stays short);
* ``contour2``: ``eval_with_contour`` at tol/100 on a second admissible
  contour, with a different angle and arc radius from the dispatcher's, when
  the oracle is not affordable or runs over its deadline;
* ``none``: no reference could be made (or the run's time was up); the
  point still counts by its own certificate.

Values are cached in ``.refcache.jsonl`` next to this file, keyed by
(alpha, beta, mu, x, y), so a seed measured twice pays once.
"""

from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

from harness import DEADLINE_S, DeadlineHit, deadline

CACHE = Path(__file__).resolve().parent / ".refcache.jsonl"

# Points referenced per run, drawn from the first REF_POOL[workload] points
# of the seed's inputs (every run attempts those: see worker.MIN_SAMPLES),
# and how many references may use the oracle (about a second each); the rest
# use a second contour.  The points of one grid sweep share its geometry and
# their accuracy, so grid's pool spans twelve sweeps: drawn from the first
# one or two, the fewest correct digits moved between 11.7 and 17 from seed
# to seed.
REF_POOL = {"grid": 1200, "points": 128, "large": 128}
REF_COUNT = 96
ORACLE_MAX = 6

# Oracle affordability, in the oracle's own size measure max(|x|, |y|)^(1/min order):
# the two-dimensional sum (unequal orders) grows quadratically in it.
ORACLE_NATS_EQUAL = 2000.0
ORACLE_NATS_UNEQUAL = 30.0

_DBL = 2.3e-16


def key(params: list[float], x: list[float], y: list[float]) -> str:
    return json.dumps([*params, *x, *y])


def load_cache() -> dict[str, dict]:
    out = {}
    if CACHE.exists():
        with open(CACHE, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                out[rec["key"]] = rec
    return out


def subsample(attempted: int, workload: str, seed: int) -> list[int]:
    """Seeded indices among the first points attempted, independent of any outcome."""
    rng = random.Random(f"refs-{workload}-{seed}")
    pool = min(REF_POOL[workload], attempted)
    return sorted(rng.sample(range(pool), min(REF_COUNT, pool)))


def _affordable(params: list[float], x: complex, y: complex) -> bool:
    a, b = params[0], params[1]
    big = max(abs(x), abs(y), 1.0)
    nats = big ** (1.0 / min(a, b))
    return nats <= (ORACLE_NATS_EQUAL if a == b else ORACLE_NATS_UNEQUAL)


def _second_contours(ml2v, x, y, params):
    """Admissible contours unlike the dispatcher's: lower angles, and the
    first arc radius on a ladder of small radii that clears every pole image
    by 5% (the best-clearing one otherwise)."""
    from ml2v.representations import contour_clearance

    lo, hi = ml2v.admissible_theta_window(params, warn=False)
    images = [w for w in ml2v.pole_images(x, params.beta) + ml2v.pole_images(y, params.alpha)
              if w != 0]
    for frac in (0.6, 0.8, 0.4):
        theta = lo + frac * (hi - lo)
        best, best_clear = None, -1.0
        for eps in (0.8, 1.25, 0.5, 1.8, 0.3, 2.6):
            spec = ml2v.ContourSpec(eps, theta)
            clear = min((contour_clearance(w, spec) for w in images), default=math.inf)
            if clear >= 0.05:
                best = spec
                break
            if clear > best_clear:
                best, best_clear = spec, clear
        yield best


def _limit(stop_at: float) -> float:
    return min(DEADLINE_S, stop_at - time.monotonic())


def compute(ml2v, params: list[float], x: complex, y: complex, tol: float,
            oracle: bool, stop_at: float) -> dict:
    """One reference: {"check", "value": [re, im], "err"} or {"check": "none"}.

    Nothing runs past ``stop_at`` (a ``time.monotonic()`` instant).
    """
    p = ml2v.validate_params(params[0], params[1], complex(params[2], params[3]))
    note = ""
    if oracle and _affordable(params, x, y) and _limit(stop_at) > 0:
        try:
            with deadline(_limit(stop_at)):
                ov = ml2v.oracle_eval(x, y, p, digits=30)
            v = ov.as_complex()
            if math.isfinite(abs(v)):
                return {"check": "oracle", "value": [v.real, v.imag],
                        "err": ov.tail_bound + _DBL * abs(v)}
            note = "oracle value overflows a double"
        except DeadlineHit:
            note = "oracle over its deadline"
        except ml2v.BudgetExceeded:
            note = "oracle over its digit budget"
    for spec in _second_contours(ml2v, x, y, p):
        if _limit(stop_at) <= 0:
            return {"check": "none", "note": "run out of time"}
        try:
            with deadline(_limit(stop_at)):
                ev = ml2v.eval_with_contour(x, y, p, spec, tol / 100)
        except DeadlineHit:
            continue
        except (ArithmeticError, ValueError, RuntimeError):
            continue
        if math.isfinite(ev.est_error) and ev.est_error <= tol / 100 * max(1.0, abs(ev.value)):
            return {"check": "contour2", "value": [ev.value.real, ev.value.imag],
                    "err": ev.est_error, "note": note,
                    "contour": [spec.epsilon, spec.theta]}
    return {"check": "none", "note": note or "no second contour certified"}


def corpus_index(ml2v) -> dict[str, dict]:
    out = {}
    for rec in ml2v.load_corpus():
        v = rec.value()
        params = [rec.alpha, rec.beta, rec.mu.real, rec.mu.imag]
        out[key(params, [rec.x.real, rec.x.imag], [rec.y.real, rec.y.imag])] = {
            "check": "corpus", "value": [v.real, v.imag],
            "err": rec.tail_bound + _DBL * abs(v)}
    return out


def references(ml2v, points: list[dict], tol: float, stop_at: float) -> list[dict]:
    """References for ``points`` (dicts with params, x, y), cache first."""
    cache = load_cache()
    corpus = corpus_index(ml2v)
    out = []
    for i, pt in enumerate(points):
        k = key(pt["params"], pt["x"], pt["y"])
        ref = corpus.get(k) or cache.get(k)
        if ref is None:
            ref = compute(ml2v, pt["params"], complex(*pt["x"]), complex(*pt["y"]), tol,
                          oracle=i < ORACLE_MAX, stop_at=stop_at)
            if ref.get("note") == "run out of time":
                out.append(ref)
                continue
            ref["key"] = k
            with open(CACHE, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(ref) + "\n")
            cache[k] = ref
        out.append(ref)
    return out
