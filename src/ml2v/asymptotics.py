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
vanish on one.  Left to itself (orders None), eval_asymptotic truncates at
the first square order p = p_alpha = p_beta in 3..ORDER_MAX whose next
two-ring estimate is not smaller than its own: the terms of a divergent
expansion shrink to a smallest ring and then grow.  It stops at the first
such ring, not the smallest over all p, since a later dip can understate
the error.  Every order's rings come from one (ORDER_MAX + 2)^2 table.

The formula also drops every pole image just outside the sector: on this
sheet or the next, with tau1 < |arg zeta| and d (|arg zeta| - tau1) < pi/2,
d = 1/(alpha beta).  A ray turned onto such an image still decays, so the
expansion holds with its residue as well as without it: the residue is
exponentially small as |zeta| grows, but not at a finite point (the Stokes
phenomenon), and twice its magnitude joins est_error.

A rounding allowance per part comes on top: 8 EPS |T| for the tail and
EPS * residue_weight * |t| for each residue t, whose exponents are built in
long double (see residue_terms_x).  Nothing is calibrated or kept between
calls.

eval_auto does not call this module: at large arguments it takes the
hyperbola (representations.eval_hyperbola), the Bromwich form of the same
contour representations, and the expansion stays as an independent check
of it, in ml2v compare, --method asymptotic and the selftest suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Evaluation, Parameters, angle_window, check_count, finite
from .errors import DomainError, MagnitudeFloor
from .gamma import recip_gamma
from .oracle import oracle_eval  # noqa: F401  unused; perfbench/tracer.py wraps it here
from .representations import (
    branch_residues,
    error_bound,
    residue_terms_x,
    residue_terms_y,
    residue_weight,
    sector_images,
)

# Below this magnitude for min(|x|, |y|) the o() error model says nothing,
# and eval_asymptotic raises MagnitudeFloor.
MAGNITUDE_FLOOR = 5.0

# Highest square truncation order eval_asymptotic tries when it chooses the
# orders itself; its table is (ORDER_MAX + 2) x (ORDER_MAX + 2).
ORDER_MAX = 12


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
        check_count("p_alpha", self.p_alpha, 1)
        check_count("p_beta", self.p_beta, 1)


def _sectors(
    x: complex, y: complex, params: Parameters, tau1: float | None
) -> tuple[AsymptoticCase, tuple[complex, ...], tuple[complex, ...], list[int], list[int]]:
    """The case, the pole preimages of x and of y whose angle lies inside the
    sector |arg| <= tau1 (default: angle_window's default angle), and the
    branches of the images of x and of y the expansion drops (see the module
    docstring)."""
    lo, hi, default = angle_window(params)
    if tau1 is None:
        tau1 = default
    if not lo < tau1 <= hi:
        raise DomainError(f"tau1 = {tau1} outside the admissible window ({lo}, {hi}]")
    # a dropped image lies within pi / (2 d) = pi alpha beta / 2 = lo of tau1
    xi, xk = sector_images(x, params.beta, tau1, lo)
    yi, yk = sector_images(y, params.alpha, tau1, lo)
    return _CASES[bool(xi), bool(yi)], xi, yi, xk, yk


def classify_case(
    x: complex, y: complex, params: Parameters, tau1: float | None = None
) -> AsymptoticCase:
    """Sector classification by which arguments contribute residues.

    An argument is inside when any of its pole preimages has angle within
    tau1; for the principal preimage this is the familiar test of arg x
    against tau1/beta (arg y against tau1/alpha).  Raises DomainError for
    a non-finite x or y or a tau1 outside the admissible window,
    GeometryError when that window is empty.
    """
    x, y = finite(x=x, y=y)
    return _sectors(x, y, params, tau1)[0]


def _tail_terms(x: complex, y: complex, params: Parameters, rows: int, cols: int) -> np.ndarray:
    """x^(-n) y^(-m) / Gamma(mu - alpha n - beta m) for n <= rows, m <= cols."""
    n = np.arange(1, rows + 1, dtype=float)
    m = np.arange(1, cols + 1, dtype=float)
    rg = recip_gamma(params.mu - params.alpha * n[:, None] - params.beta * m[None, :])
    # exp(-n log x) underflows to 0 at huge |x|, where numpy's complex power
    # overflows x^n and returns nan; the caller rejects a non-finite term
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(-n * np.log(x))[:, None] * np.exp(-m * np.log(y))[None, :] * rg


def asympt_tail_sum(
    x: complex, y: complex, params: Parameters, orders: TruncationOrders | None = None
) -> complex:
    """The exact finite double sum of inverse powers over reciprocal gamma.
    Raises DomainError for a non-finite or zero x or y."""
    x, y = finite(x=x, y=y)
    if orders is None:
        orders = TruncationOrders()
    if x == 0 or y == 0:
        raise DomainError("tail sum needs x != 0 and y != 0")
    return complex(np.sum(_tail_terms(x, y, params, orders.p_beta, orders.p_alpha)))


def _smallest_ring(terms: np.ndarray) -> int:
    """The first square order p in 3..ORDER_MAX whose next two-ring estimate
    is not smaller than its own, from one 2-D cumulative sum of |terms|."""
    s = np.diagonal(np.abs(terms).cumsum(axis=0).cumsum(axis=1))
    # ring(p) sums the terms with max(n, m) in {p + 1, p + 2}
    rings = s[3 + 1:ORDER_MAX + 2] - s[3 - 1:ORDER_MAX]
    up = np.flatnonzero(rings[1:] >= rings[:-1])
    return 3 + int(up[0]) if up.size else ORDER_MAX


def eval_asymptotic(
    x: complex,
    y: complex,
    params: Parameters,
    orders: TruncationOrders | None = None,
    tau1: float | None = None,
) -> Evaluation:
    """Case-dispatched expansion value with a next-ring error estimate.

    With orders None the tail is truncated at the first square order p in
    3..ORDER_MAX whose next two-ring estimate is not smaller (see the module
    docstring); explicit orders are used as given.  Raises DomainError for
    a non-finite x or y, MagnitudeFloor when min(|x|, |y|) <
    MAGNITUDE_FLOOR and DegenerateDenominator when a needed residue
    denominator collapses.
    """
    x, y = finite(x=x, y=y)
    if min(abs(x), abs(y)) < MAGNITUDE_FLOOR:
        raise MagnitudeFloor(
            f"min(|x|, |y|) = {min(abs(x), abs(y)):.3g} below the asymptotic "
            f"floor {MAGNITUDE_FLOOR}"
        )
    case, xi, yi, xk, yk = _sectors(x, y, params, tau1)
    # one block holds the tail and the two omitted rings around it
    if orders is None:
        terms = _tail_terms(x, y, params, ORDER_MAX + 2, ORDER_MAX + 2)
        pb = pa = _smallest_ring(terms)
        terms = terms[:pb + 2, :pa + 2]
    else:
        pb, pa = orders.p_beta, orders.p_alpha
        terms = _tail_terms(x, y, params, pb + 2, pa + 2)
    # the tail is summed from a contiguous copy, exactly as asympt_tail_sum does
    parts = [complex(np.ascontiguousarray(terms[:pb, :pa]).sum())]
    parts += residue_terms_x(x, y, params, xi)
    parts += residue_terms_y(x, y, params, yi)
    weights = [8.0] + [residue_weight(z, params.beta, params.alpha) for z in xi]
    weights += [residue_weight(z, params.alpha, params.beta) for z in yi]
    rings = np.abs(terms)
    rings[:pb, :pa] = 0.0
    a, b, mu = params.alpha, params.beta, params.mu
    dropped = branch_residues([(k, b, a, x, y) for k in xk] + [(k, a, b, y, x) for k in yk], mu)
    est = error_bound(2.0 * (float(rings.sum()) + sum(map(abs, dropped))), weights, parts)
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
