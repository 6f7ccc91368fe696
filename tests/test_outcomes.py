"""Typed outcomes: eval_auto and each route it calls return a finite value
and est_error or raise a type from errors.py, and the routes hand on only
the NumericFailure family."""

import cmath
import dataclasses
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ml2v.asymptotics as asymptotics
import ml2v.representations as representations
from ml2v import cli, errors
from ml2v.core import validate_params
from ml2v.errors import BudgetExceeded, DomainError, NumericFailure
from ml2v.oracle import oracle_eval
from ml2v.representations import (
    choose_contour,
    classify_pair,
    eval_auto,
    eval_hyperbola,
    eval_with_contour,
    pole_images,
)
from ml2v.series import SeriesBudget, eval_double_series, eval_ml_one

ROUTE_FAILURES = {
    errors.RegionError: ValueError,
    errors.GeometryError: ValueError,
    errors.QuadratureError: RuntimeError,
    errors.PoleProximityError: ValueError,
    errors.DegenerateDenominator: ZeroDivisionError,
    errors.MagnitudeFloor: ValueError,
    errors.BudgetExceeded: RuntimeError,
}


def test_route_failures_form_one_family():
    for kind, builtin in ROUTE_FAILURES.items():
        assert issubclass(kind, NumericFailure) and issubclass(kind, builtin)
    assert not issubclass(DomainError, NumericFailure)
    assert issubclass(DomainError, ValueError)


def _argument(draw) -> complex:
    """|z| log-uniform in [0.1, 1e300], any phase."""
    return cmath.rect(10.0 ** draw(st.floats(-1.0, 300.0)), draw(st.floats(-math.pi, math.pi)))


@st.composite
def _cases(draw):
    alpha, beta = draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 2.0))
    mu = complex(draw(st.floats(-1.0, 2.0)), draw(st.floats(-1.0, 1.0)))
    return validate_params(alpha, beta, mu), _argument(draw), _argument(draw)


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(_cases())
def test_auto_result_is_finite_or_typed(case):
    params, x, y = case
    try:
        ev = eval_auto(x, y, params)
    except NumericFailure:  # finite input is never a DomainError
        return
    assert ev.est_error <= 1e-8 * max(1.0, abs(ev.value))


def _direct_routes(params, x, y):
    # the term budget keeps the series' share of the property's time bounded
    yield lambda: eval_double_series(x, y, params, SeriesBudget(max_terms=5000))
    yield lambda: eval_with_contour(x, y, params, choose_contour(x, y, params))
    yield lambda: eval_hyperbola(x, y, params)
    if min(abs(x), abs(y)) >= asymptotics.MAGNITUDE_FLOOR:
        yield lambda: asymptotics.eval_asymptotic(x, y, params)


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(_cases())
def test_route_result_is_finite_or_typed(case):
    for route in _direct_routes(*case):
        try:
            ev = route()
        except NumericFailure:
            continue
        assert cmath.isfinite(ev.value) and math.isfinite(ev.est_error)


@pytest.mark.parametrize(
    "x, y, orders, kind",
    [
        # the pole image |x|^1.6 overflows a double: out of every route's reach
        (1e200, 2.0, (1.0, 1.6, 1.0), BudgetExceeded),
        # residue terms overflow, and inf - inf once made est_error nan
        (-1.105016848960226e89 - 2.1032005491960428e89j,
         9.767437409987782e49 + 3.0923269790118426e49j,
         (1.6993131208295111, 1.0549864208954447, 0.9450112899127583), BudgetExceeded),
        # residue_weight's |image|^16 overflows
        (1e80, 3.0, (0.25, 0.25, 1.0), BudgetExceeded),
    ],
)
def test_auto_overflow_is_typed(x, y, orders, kind):
    with pytest.raises(kind):
        eval_auto(x, y, validate_params(*orders))


@pytest.mark.parametrize(
    "x, y, orders",
    [
        # the hyperbola's residue terms leave the double range
        (-1.105016848960226e89 - 2.1032005491960428e89j,
         9.767437409987782e49 + 3.0923269790118426e49j,
         (1.6993131208295111, 1.0549864208954447, 0.9450112899127583)),
        # the integrand's denominator overflows at the contour's tail end points
        (1e9, 1e300, (1.0, 1.0, 1.0)),
    ],
)
def test_auto_overflow_warns_nothing(x, y, orders):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BudgetExceeded):
            eval_auto(x, y, validate_params(*orders))


def test_auto_lets_an_asymptotic_bug_through(monkeypatch):
    # a large-argument point: eval_auto takes the hyperbola there, whose
    # residue pass raises a bug that no route may swallow
    def broken(*args, **kwargs):
        raise ValueError("a bug, not a route failure")

    monkeypatch.setattr(representations, "_residue_pass", broken)
    with pytest.raises(ValueError, match="a bug"):
        eval_auto(30.0, 20.0, validate_params(1, 1, 1))


def test_cli_overflow_exits_numeric(capsys):
    rc = cli.main(["eval", "--alpha", "0.25", "--beta", "0.25", "--x", "1e80", "--y", "3"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_NUMERIC
    assert err.startswith("numeric failure: no method certified a value")


P058 = validate_params(0.5, 0.8, 1)
SPEC = choose_contour(2.0, 3.0, P058)

# Each public evaluator as a function of (x, y); a one-variable one is
# called on both.
EVALUATORS = {
    "eval_with_contour": lambda x, y: eval_with_contour(x, y, P058, SPEC),
    "eval_hyperbola": lambda x, y: eval_hyperbola(x, y, P058),
    "eval_asymptotic": lambda x, y: asymptotics.eval_asymptotic(x, y, P058),
    "choose_contour": lambda x, y: choose_contour(x, y, P058),
    "classify_pair": lambda x, y: classify_pair(x, y, P058, SPEC),
    "classify_case": lambda x, y: asymptotics.classify_case(x, y, P058),
    "pole_images": lambda x, y: (pole_images(x, 0.5), pole_images(y, 0.5)),
    "eval_double_series": lambda x, y: eval_double_series(x, y, P058),
    "eval_ml_one": lambda x, y: (eval_ml_one(x, 0.5, 1), eval_ml_one(y, 0.5, 1)),
    "oracle_eval": lambda x, y: oracle_eval(x, y, P058),
    "eval_auto": lambda x, y: eval_auto(x, y, P058),
}


@pytest.mark.parametrize("other", [1.0, 20.0])
@pytest.mark.parametrize("slot", ["x", "y"])
@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, complex(-math.inf, 1.0), complex(0.0, math.nan)],
    ids=["nan", "inf", "-inf+1j", "nan*1j"],
)
@pytest.mark.parametrize("name", EVALUATORS)
def test_bad_input_is_a_domain_error(name, bad, slot, other):
    # a non-finite argument is bad input, rejected before any work and
    # without a warning, not a route failure that "another method may" mend
    args = (bad, other) if slot == "x" else (other, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            EVALUATORS[name](*args)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("evaluate", [
    lambda tol: eval_with_contour(2.0, 3.0, P058, SPEC, tol),
    lambda tol: eval_auto(2.0, 3.0, P058, tol),
    lambda tol: eval_hyperbola(2.0, 3.0, P058, tol),
], ids=["eval_with_contour", "eval_auto", "eval_hyperbola"])
def test_bad_tol_is_a_domain_error_before_any_node(evaluate, tol, monkeypatch):
    calls = []
    make = representations.ml_integrand

    def counted(x, y, params):
        real = make(x, y, params)
        return dataclasses.replace(real, f=lambda z: calls.append(z) or real.f(z))

    monkeypatch.setattr(representations, "ml_integrand", counted)
    with pytest.raises(DomainError):
        evaluate(tol)
    assert calls == []
