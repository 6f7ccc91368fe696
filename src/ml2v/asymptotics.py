"""Large-argument expansions of E(x, y) in four angular-sector cases.

For |x|, |y| large the contour integral collapses onto a finite algebraic
tail

    T = sum_{n=1..p_beta} sum_{m=1..p_alpha} x^(-n) y^(-m)
        / Gamma(mu - alpha n - beta m)

plus, for every pole preimage whose angle lies inside the sector |arg
zeta| <= tau1, the same residue term the contour representations use.
Case1 keeps residues from both arguments, Case2 only x's, Case3 only
y's, Case4 neither.

The remainder is of the order of the first omitted terms (Paris &
Kaminski, Asymptotics and Mellin-Barnes Integrals, 2001), so est_error is
twice the magnitude sum of the two omitted rings, the terms with
max(n - p_beta, m - p_alpha) in {1, 2}: two rings, because 1/Gamma can
vanish on one.  A rounding allowance per part comes on top: 8 EPS |T|
for the tail and EPS * residue_weight * |t| for each residue t, whose
exponents are built in long double (see residue_terms_x).  Nothing is
calibrated.  The 1/Gamma table of the tail and its rings depends on the
parameters and the orders only, never on (x, y), so the last TAIL_MEMO_SIZE
(Parameters, orders) tables are kept; a table is a pure function of its
key, and the estimate still depends on the call's arguments alone.
"""

from __future__ import annotations

import cmath
import functools
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Evaluation, Parameters, angle_window
from .errors import DomainError, MagnitudeFloor
from .gamma import recip_gamma
from .oracle import oracle_eval  # noqa: F401  unused; perfbench/tracer.py wraps it here
from .representations import (
    error_bound,
    pole_images,
    residue_terms_x,
    residue_terms_y,
    residue_weight,
)

# Below this magnitude for min(|x|, |y|) the o() error model says nothing;
# the dispatcher keeps such points on the series or contour routes.
MAGNITUDE_FLOOR = 5.0

# Distinct (Parameters, rows, cols) whose tail 1/Gamma tables are kept.
TAIL_MEMO_SIZE = 16


class AsymptoticCase(Enum):
    CASE1 = "case1"    # both arguments inside their sectors
    CASE2 = "case2"    # only x inside
    CASE3 = "case3"    # only y inside
    CASE4 = "case4"    # neither


# Case by (x inside, y inside).
_CASES = {
    (True, True): AsymptoticCase.CASE1,
    (True, False): AsymptoticCase.CASE2,
    (False, True): AsymptoticCase.CASE3,
    (False, False): AsymptoticCase.CASE4,
}


@dataclass(frozen=True)
class TruncationOrders:
    """Tail truncation orders: p_beta bounds the x-powers (n-sum), p_alpha
    the y-powers (m-sum)."""

    p_alpha: int = 3
    p_beta: int = 3

    def __post_init__(self) -> None:
        try:
            pa, pb = operator.index(self.p_alpha), operator.index(self.p_beta)
        except TypeError:
            raise DomainError(
                f"truncation orders must be integers, got "
                f"p_alpha={self.p_alpha!r}, p_beta={self.p_beta!r}"
            ) from None
        if pa < 1 or pb < 1:
            raise DomainError(
                f"truncation orders must be >= 1, got "
                f"p_alpha={self.p_alpha}, p_beta={self.p_beta}"
            )


def _sectors(
    x: complex, y: complex, params: Parameters, tau1: float | None
) -> tuple[AsymptoticCase, tuple[complex, ...], tuple[complex, ...]]:
    """The case, and the pole preimages of x and of y whose angle lies
    inside the sector |arg| <= tau1 (default: angle_window's default angle)."""
    lo, hi, default = angle_window(params)
    if tau1 is None:
        tau1 = default
    if not lo < tau1 <= hi:
        raise DomainError(f"tau1 = {tau1} outside the admissible window ({lo}, {hi}]")
    xi = tuple(z for z in pole_images(x, params.beta) if abs(cmath.phase(z)) <= tau1)
    yi = tuple(z for z in pole_images(y, params.alpha) if abs(cmath.phase(z)) <= tau1)
    return _CASES[bool(xi), bool(yi)], xi, yi


def classify_case(
    x: complex, y: complex, params: Parameters, tau1: float | None = None
) -> AsymptoticCase:
    """Sector classification by which arguments contribute residues.

    An argument is inside when any of its pole preimages has angle within
    tau1; for the principal preimage this is the familiar test of arg x
    against tau1/beta (arg y against tau1/alpha).  Raises DomainError for
    a tau1 outside the admissible window, GeometryError when that window
    is empty.
    """
    return _sectors(x, y, params, tau1)[0]


@functools.lru_cache(maxsize=TAIL_MEMO_SIZE)
def _tail_gammas(params: Parameters, rows: int, cols: int) -> np.ndarray:
    """Read-only 1/Gamma(mu - alpha n - beta m) for n <= rows, m <= cols."""
    n = np.arange(1, rows + 1, dtype=float)
    m = np.arange(1, cols + 1, dtype=float)
    nn, mm = np.meshgrid(n, m, indexing="ij")
    rg = recip_gamma(params.mu - params.alpha * nn - params.beta * mm)
    rg.flags.writeable = False
    return rg


def _tail_terms(x: complex, y: complex, params: Parameters, rows: int, cols: int) -> np.ndarray:
    """x^(-n) y^(-m) / Gamma(mu - alpha n - beta m) for n <= rows, m <= cols."""
    n = np.arange(1, rows + 1, dtype=float)
    m = np.arange(1, cols + 1, dtype=float)
    rg = _tail_gammas(params, rows, cols)
    # exp(-n log x) underflows to 0 at huge |x|, where numpy's complex power
    # overflows x^n and returns nan; the caller rejects a non-finite term
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(-n * np.log(x))[:, None] * np.exp(-m * np.log(y))[None, :] * rg


def asympt_tail_sum(
    x: complex, y: complex, params: Parameters, orders: TruncationOrders | None = None
) -> complex:
    """The exact finite double sum of inverse powers over reciprocal gamma."""
    if orders is None:
        orders = TruncationOrders()
    x, y = complex(x), complex(y)
    if x == 0 or y == 0:
        raise DomainError("tail sum needs x != 0 and y != 0")
    return complex(np.sum(_tail_terms(x, y, params, orders.p_beta, orders.p_alpha)))


def eval_asymptotic(
    x: complex,
    y: complex,
    params: Parameters,
    orders: TruncationOrders | None = None,
    tau1: float | None = None,
) -> Evaluation:
    """Case-dispatched expansion value with a next-ring error estimate.

    Raises MagnitudeFloor when min(|x|, |y|) < MAGNITUDE_FLOOR and
    DegenerateDenominator when a needed residue denominator collapses.
    """
    if orders is None:
        orders = TruncationOrders()
    x, y = complex(x), complex(y)
    if min(abs(x), abs(y)) < MAGNITUDE_FLOOR:
        raise MagnitudeFloor(
            f"min(|x|, |y|) = {min(abs(x), abs(y)):.3g} below the asymptotic "
            f"floor {MAGNITUDE_FLOOR}"
        )
    case, xi, yi = _sectors(x, y, params, tau1)
    pb, pa = orders.p_beta, orders.p_alpha
    # one block holds the tail and the two omitted rings around it; the
    # tail is summed from a contiguous copy, exactly as asympt_tail_sum does
    terms = _tail_terms(x, y, params, pb + 2, pa + 2)
    parts = [complex(np.ascontiguousarray(terms[:pb, :pa]).sum())]
    parts += residue_terms_x(x, y, params, xi)
    parts += residue_terms_y(x, y, params, yi)
    weights = [8.0] + [residue_weight(z, params.beta, params.alpha) for z in xi]
    weights += [residue_weight(z, params.alpha, params.beta) for z in yi]
    rings = np.abs(terms)
    rings[:pb, :pa] = 0.0
    est = error_bound(2.0 * float(rings.sum()), weights, parts)
    return Evaluation(sum(parts), est, f"asymptotic-{case.value}")


def expansion_sides(
    zeta: complex,
    x: complex,
    y: complex,
    params: Parameters,
    orders: TruncationOrders | None = None,
) -> tuple[complex, complex]:
    """Both sides of the finite-expansion identity behind the tail sum.

    Left: 1 / ((zeta^(1/beta) - x) * (zeta^(1/alpha) - y)).  Right: the
    truncated double sum plus its exact remainder.  They agree identically
    for any zeta off the denominator zeros; tests verify the algebra that
    the asymptotic derivation rests on.
    """
    if orders is None:
        orders = TruncationOrders()
    a, b = params.alpha, params.beta
    pa, pb = orders.p_alpha, orders.p_beta
    zeta, x, y = complex(zeta), complex(x), complex(y)
    w1 = zeta ** (1.0 / b)
    w2 = zeta ** (1.0 / a)
    lhs = 1.0 / ((w1 - x) * (w2 - y))
    total = 0.0 + 0.0j
    for n in range(1, pb + 1):
        for m in range(1, pa + 1):
            total += zeta ** ((n - 1) / b + (m - 1) / a) / (x**n * y**m)
    num = x**pb * zeta ** (pa / a) + y**pa * zeta ** (pb / b) - zeta ** (pa / a + pb / b)
    rem = num / (x**pb * y**pa * (w1 - x) * (w2 - y))
    return lhs, total + rem
