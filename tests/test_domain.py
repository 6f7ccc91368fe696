"""The package's domain is the function's: every order pair in (0, 2] with
any finite mu, alpha*beta >= 2 and boundary orders with Re(mu) <= 0
included.  eval_auto serves it through the hyperbola, which needs no angle
window; the keyhole and the asymptotics, which do, report that as a
NumericFailure."""

import cmath
import math
import random

import pytest

from ml2v import asymptotics
from ml2v.core import ContourSpec, validate_params
from ml2v.errors import BudgetExceeded, GeometryError
from ml2v.oracle import oracle_eval
from ml2v.representations import (
    choose_contour,
    eval_auto,
    eval_hyperbola,
    eval_with_contour,
)
from ml2v.series import eval_double_series, eval_ml_one

# Orders past the keyhole's angle window (alpha*beta >= 2 with both orders
# below 2), and boundary orders with Re(mu) <= 0.
WIDE_SETS = [(1.9, 1.9, 1), (1.5, 1.5, 1), (1.9, 1.2, 0.5 + 0.3j), (2, 0.5, -1), (0.5, 2, 0)]


def _certified(ev, tol=1e-8):
    return ev.est_error <= tol * max(1.0, abs(ev.value))


@pytest.mark.parametrize("orders", WIDE_SETS)
def test_auto_and_series_honest_against_the_oracle(orders):
    p = validate_params(*orders)
    rng = random.Random(f"domain-honesty-{orders}")
    for _ in range(8):
        # |x|, |y| log-uniform in [0.3, 6]: the series' disk and the hyperbola's plane
        x, y = (cmath.rect(math.exp(rng.uniform(math.log(0.3), math.log(6.0))),
                           rng.uniform(-math.pi, math.pi)) for _ in "xy")
        ref = oracle_eval(x, y, p, digits=20).as_complex()
        ev = eval_auto(x, y, p)
        assert _certified(ev) and abs(ev.value - ref) <= ev.est_error, (x, y, ev)
        ev = eval_double_series(x, y, p)
        assert abs(ev.value - ref) <= ev.est_error, (x, y, ev)


@pytest.mark.parametrize(
    "orders, ref",
    [
        ((1.9, 1.9, 1), 0.70874526483485 + 1.71376351382876j),
        ((2, 0.5, -1), 0.48314887519283 + 2.79340608971965j),
    ],
)
def test_auto_reproducers_match_the_oracle(orders, ref):
    # ref is the 20-digit oracle, rounded to 14 places
    ev = eval_auto(3 + 2j, -4 + 1j, validate_params(*orders))
    assert ev.method == "hyperbola" and _certified(ev)
    assert abs(ev.value - ref) <= ev.est_error + 1e-14


def test_auto_huge_argument_is_the_one_variable_limit():
    # E(x, y) = -E_{beta, mu - alpha}(y) / x + O(1/x^2) as |x| -> inf near
    # arg x = pi.  The keyhole's image |x|^1.2 overflows a double; the
    # hyperbola works in s = x^(1/alpha) and needs no such image
    p = validate_params(1.2, 1.2, 1)
    x = -1e280 + 1e279j
    one = eval_ml_one(3.0, 1.2, -0.2)
    ev = eval_auto(x, 3.0, p)
    assert ev.method == "hyperbola" and _certified(ev)
    assert abs(ev.value - (-one.value / x)) <= ev.est_error + one.est_error / abs(x)


@pytest.mark.parametrize("orders", [(1.9, 1.9, 1), (1.5, 1.5, 1), (1.9, 1.2, 0.5 + 0.3j)])
def test_keyhole_and_asymptotics_report_an_empty_window(orders):
    p = validate_params(*orders)
    with pytest.raises(GeometryError, match="no admissible contour angle"):
        choose_contour(20.0, 30.0, p)
    with pytest.raises(GeometryError, match="no admissible contour angle"):
        eval_with_contour(20.0, 30.0, p, ContourSpec(1.0, math.pi))
    with pytest.raises(GeometryError, match="no admissible contour angle"):
        asymptotics.eval_asymptotic(20.0, 30.0, p)


@pytest.mark.parametrize(
    "orders, x",
    [
        # zeta^(1/p_den) overflows a double: the degeneracy floor is inf, and
        # no pole is degenerate
        ((0.5, 1.6, 1), 1e250),
        ((1, 1.6, 1), 1e200),
    ],
)
def test_hyperbola_overflowed_root_is_no_degeneracy(orders, x):
    with pytest.raises(BudgetExceeded):
        eval_hyperbola(x, 2.0, validate_params(*orders))


def test_hyperbola_large_root_that_fits_stays_certified():
    ev = eval_hyperbola(1e100j, -5.0, validate_params(0.5, 1.6, 1))
    assert _certified(ev)
    assert ev.value == pytest.approx(1.17109e-117 - 6.48153e-101j, rel=1e-5)
