"""Invariant self-test battery behind the command line's selftest command.

Six suites, each checking one analytic identity the evaluators must
satisfy: the reciprocal-gamma Hankel identity, contour-deformation
invariance, the shift recurrence in mu, argument-swap symmetry, the
finite-expansion remainder identity, and the asymptotic decay ladder
against the frozen corpus.  This module holds the only copy of each
check, with one seed, one sample count and one tolerance; the test
suite runs them through ``ml2v selftest`` and through the tests named
after them.  A suite fails on a nan (``np.max`` keeps it, ``max`` would
not) and on an exception, which is reported, never raised, so a broken
build still produces a full table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import TruncationOrders, eval_asymptotic, expansion_sides
from .core import ContourSpec, validate_params
from .gamma import recip_gamma, recip_gamma_hankel
from .oracle import load_corpus
from .representations import choose_contour, eval_with_contour
from .series import SeriesBudget, eval_double_series

SUITES = ("gamma", "deformation", "recurrence", "symmetry", "expansion", "decay")

_SERIES_BUDGET = SeriesBudget(tol=1e-13)
# the decay ladder x = y = -t
LADDER_T = (10.0, 20.0, 40.0, 80.0)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _suite_gamma() -> tuple[bool, str]:
    # 5 x 4 grid over Re s in [-3, 4], Im s in [-2, 2]
    deltas = []
    for re in np.linspace(-3.0, 4.0, 5):
        for im in np.linspace(-2.0, 2.0, 4):
            s = complex(re, im)
            deltas.append(abs(recip_gamma_hankel(s) - complex(recip_gamma(s))))
    worst = float(np.max(deltas))
    return worst <= 1e-8, f"max |hankel - reflection| = {worst:.3e}"


def _suite_deformation() -> tuple[bool, str]:
    # same value from two admissible (eps, theta) choices, any route pattern
    params = validate_params(0.5, 0.8, 1.0)
    deltas = []
    for x, y in ((-4.0, 2.0), (2.0, -4.0), (-3.0, -3.0), (3.0, 4.0)):
        base = choose_contour(x, y, params)
        alt = ContourSpec(base.epsilon * 1.9, base.theta * 0.96)
        v1 = eval_with_contour(x, y, params, base, tol=1e-9).value
        v2 = eval_with_contour(x, y, params, alt, tol=1e-9).value
        deltas.append(abs(v1 - v2))
    worst = float(np.max(deltas))
    return worst <= 2e-7, f"max cross-contour |delta| = {worst:.3e}"


def _random_points():
    # recurrence and symmetry draw the same 200 points from one seed
    rng = np.random.default_rng(424242)
    for _ in range(200):
        a, b = rng.uniform(0.4, 1.3), rng.uniform(0.4, 1.3)
        while a * b >= 2:
            a, b = rng.uniform(0.4, 1.3), rng.uniform(0.4, 1.3)
        mu = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3))
        x = rng.uniform(0.2, 3.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        y = rng.uniform(0.2, 3.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        yield a, b, mu, x, y


def _suite_recurrence() -> tuple[bool, str]:
    # E(mu) = 1/Gamma(mu) + x E(mu+a) + y E(mu+b) - x y E(mu+a+b)
    ratios = []
    for a, b, mu, x, y in _random_points():
        evs = [
            eval_double_series(x, y, validate_params(a, b, mu + s), _SERIES_BUDGET)
            for s in (0.0, a, b, a + b)
        ]
        lhs = evs[0].value
        rhs = (
            complex(recip_gamma(mu))
            + x * evs[1].value
            + y * evs[2].value
            - x * y * evs[3].value
        )
        scale = max(1.0, *(abs(e.value) for e in evs))
        slack = 4.0 * sum(e.est_error for e in evs) + 1e-12 * scale
        ratios.append(abs(lhs - rhs) / slack)
    worst = float(np.max(ratios))
    return worst <= 1.0, f"max residual / allowance = {worst:.3f}"


def _suite_symmetry() -> tuple[bool, str]:
    # E_{a,b}(x, y; mu) = E_{b,a}(y, x; mu)
    ratios = []
    for a, b, mu, x, y in _random_points():
        e1 = eval_double_series(x, y, validate_params(a, b, mu), _SERIES_BUDGET)
        e2 = eval_double_series(y, x, validate_params(b, a, mu), _SERIES_BUDGET)
        slack = 4.0 * (e1.est_error + e2.est_error) + 1e-13
        ratios.append(abs(e1.value - e2.value) / slack)
    worst = float(np.max(ratios))
    return worst <= 1.0, f"max |swap delta| / allowance = {worst:.3f}"


def _suite_expansion() -> tuple[bool, str]:
    # finite expansion with exact remainder, sampled off the denominator zeros
    rng = np.random.default_rng(101)
    residuals = []
    while len(residuals) < 100:
        a, b = rng.uniform(0.5, 1.4), rng.uniform(0.5, 1.4)
        if a * b >= 2:
            continue
        pp = validate_params(a, b, complex(rng.uniform(0.3, 1.5), rng.uniform(-0.4, 0.4)))
        zeta = rng.uniform(0.5, 3.0) * cmath.exp(1j * rng.uniform(-math.pi * 0.999, math.pi * 0.999))
        x = rng.uniform(2, 6) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        y = rng.uniform(2, 6) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        w1, w2 = zeta ** (1 / b), zeta ** (1 / a)
        if abs(w1 - x) < 0.05 * (1 + abs(w1) + abs(x)):
            continue
        if abs(w2 - y) < 0.05 * (1 + abs(w2) + abs(y)):
            continue
        orders = TruncationOrders(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        lhs, rhs = expansion_sides(zeta, x, y, pp, orders)
        residuals.append(abs(lhs - rhs) / abs(lhs))
    worst = float(np.max(residuals))
    return worst <= 1e-12, f"max relative residual = {worst:.3e}"


def decay_ladder() -> dict[float, complex]:
    """Frozen 30-digit references for E_{1/2,1/2}(-t, -t; 1), keyed by t."""
    return {
        -rec.x.real: rec.value()
        for rec in load_corpus()
        if rec.alpha == rec.beta == 0.5 and rec.mu == 1 and rec.x == rec.y
    }


def _suite_decay() -> tuple[bool, str]:
    # truncation error at (-t, -t), a = b = 1/2, stays within est_error and
    # shrinks like t^-(2+p)
    refs = decay_ladder()
    if not set(LADDER_T) <= set(refs):
        return False, "frozen corpus lacks the decay ladder records"
    params = validate_params(0.5, 0.5, 1.0)
    growth, honesty = [], []
    for p in (1, 2, 3):
        orders = TruncationOrders(p, p)
        scaled = []
        for t in LADDER_T:
            ev = eval_asymptotic(-t, -t, params, orders)
            err = abs(ev.value - refs[t])
            honesty.append(err / ev.est_error)
            scaled.append(err * t ** (2 + p))
        growth += [hi / lo for lo, hi in zip(scaled, scaled[1:])]
    worst_ratio, worst_honesty = float(np.max(growth)), float(np.max(honesty))
    return worst_ratio <= 2.0 and worst_honesty <= 1.0, (
        f"max scaled-error growth ratio = {worst_ratio:.3f}, "
        f"max error / estimate = {worst_honesty:.3f}"
    )


_BODIES = {
    "gamma": _suite_gamma,
    "deformation": _suite_deformation,
    "recurrence": _suite_recurrence,
    "symmetry": _suite_symmetry,
    "expansion": _suite_expansion,
    "decay": _suite_decay,
}


def run_suite(name: str) -> SuiteResult:
    """Run one named suite; exceptions become a failed result."""
    body = _BODIES.get(name)
    if body is None:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    try:
        ok, detail = body()
    except Exception as exc:
        return SuiteResult(name, False, f"{type(exc).__name__}: {exc}")
    return SuiteResult(name, ok, detail)


def run_suites(names=None) -> list[SuiteResult]:
    if names is None:
        names = SUITES
    return [run_suite(n) for n in names]
