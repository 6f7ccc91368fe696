"""Contour-plus-residue evaluation routes and the automatic dispatcher."""

import cmath
import functools
import math
import random
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from mpmath import mp

import ml2v.contour as con
import ml2v.representations as rep
from ml2v.asymptotics import eval_asymptotic
from ml2v.contour import IntegrandSpec, _truncation_radius, build_contour
from ml2v.core import EPS, ContourSpec, RegionLabel, angle_window, validate_params
from ml2v.errors import (
    BudgetExceeded,
    DegenerateDenominator,
    DomainError,
    NumericFailure,
    QuadratureError,
    RegionError,
)
from ml2v.oracle import oracle_eval
from ml2v.representations import (
    choose_contour,
    classify_pair,
    contour_clearance,
    eval_auto,
    eval_hyperbola,
    eval_with_contour,
    ml_integrand,
    pole_images,
    residue_terms_x,
    residue_terms_y,
    residue_weight,
)
from ml2v.series import eval_double_series

P111 = validate_params(1, 1, 1)
BASE = ContourSpec(1.0, 3 * math.pi / 4)


def closed_form(x, y):
    if x == y:
        return (1 + x) * cmath.exp(x)
    return (x * cmath.exp(x) - y * cmath.exp(y)) / (x - y)


def test_pole_image():
    assert pytest.approx(2.0) in pole_images(4.0, 0.5)
    assert pytest.approx(2.0j) in pole_images(-4.0, 0.5)
    assert pole_images(0.0, 0.7) == (0j,)
    # phase 2*pi falls off the principal sheet: no pole on the cut plane
    assert pole_images(-1.0, 2.0) == ()
    assert pole_images(1j, 1.5) != ()


def test_pole_images_enumeration():
    from ml2v.representations import pole_images

    assert pole_images(0.0, 0.7) == (0j,)
    # power 1/2: a second preimage appears at the reflected angle
    got = pole_images(4.0, 0.5)
    assert len(got) == 2
    assert sorted(got, key=lambda z: z.real) == [
        pytest.approx(-2.0),
        pytest.approx(2.0),
    ]
    # negative real argument with power just below 1: conjugate pair
    got = pole_images(-2.0, 0.9)
    assert len(got) == 2
    assert got[0] == pytest.approx(got[1].conjugate())
    # power above 1 pushes the image off the cut plane entirely
    assert pole_images(-2.0, 1.2) == ()
    assert len(pole_images(2.0, 1.2)) == 1


def test_conjugate_pole_pair_regression():
    # beta < 1 with a wide admissible angle: both preimages of a negative
    # real x sit in the wedge and both residues are required
    pp = validate_params(1.2, 0.9, 1)
    ref = eval_double_series(-2.0, -2.0, pp)
    ev = eval_auto(-2.0, -2.0, pp)
    assert abs(ev.value - ref.value) <= ev.est_error + ref.est_error

    spec = choose_contour(-2.0, -2.0, pp)
    direct = eval_with_contour(-2.0, -2.0, pp, spec, route="remark1")
    assert abs(direct.value - ref.value) <= direct.est_error + ref.est_error
    # swallowing both poles into the disk must give the same value
    big = eval_with_contour(-2.0, -2.0, pp, ContourSpec(2.5, spec.theta), route="lemma1")
    assert abs(big.value - direct.value) <= big.est_error + direct.est_error


def test_classify_pair_labels():
    lx, ly = classify_pair(-2.0, 2.0, P111, BASE)
    assert lx is RegionLabel.OMEGA_MINUS
    assert ly is RegionLabel.OMEGA_PLUS
    # inside the arc counts as Omega- even on the positive axis
    lx, ly = classify_pair(0.5, -0.5, P111, BASE)
    assert lx is RegionLabel.OMEGA_MINUS
    assert ly is RegionLabel.OMEGA_MINUS


def test_lemma1_closed_form():
    ev = eval_with_contour(-2.0, -3.0, P111, BASE, route="lemma1")
    ref = closed_form(-2.0, -3.0)
    assert ev.method == "lemma1"
    assert abs(ev.value - ref) <= max(ev.est_error, 1e-12)
    assert ev.est_error <= 1e-7


def test_lemma2_closed_form():
    ev = eval_with_contour(-1.0, 2.0, P111, BASE, route="lemma2")
    ref = closed_form(-1.0, 2.0)
    assert ev.method == "lemma2"
    assert abs(ev.value - ref) <= max(ev.est_error, 1e-12)


def test_remark1_closed_form():
    ev = eval_with_contour(2.0, -1.0, P111, BASE, route="remark1")
    ref = closed_form(2.0, -1.0)
    assert ev.method == "remark1"
    assert abs(ev.value - ref) <= max(ev.est_error, 1e-12)


def test_lemma3_closed_form():
    ev = eval_with_contour(2.0, 3.0, P111, BASE, route="lemma3")
    ref = 3 * math.e**3 - 2 * math.e**2
    assert ev.method == "lemma3"
    assert abs(ev.value - ref) / ref <= 1e-10


def test_general_orders_match_series():
    pp = validate_params(0.8, 0.6, 1.1)
    spec = choose_contour(-1.0, -1.0, pp)
    ev = eval_with_contour(-1.0, -1.0, pp, spec, route="lemma1")
    ref = eval_double_series(-1.0, -1.0, pp)
    assert abs(ev.value - ref.value) <= ev.est_error + ref.est_error


def test_zero_argument_inside_arc():
    pp = validate_params(0.9, 0.7, 0.8)
    spec = choose_contour(0.0, 2.0, pp)
    ev = eval_with_contour(0.0, 2.0, pp, spec, route="lemma2")
    ref = eval_double_series(0.0, 2.0, pp)
    assert abs(ev.value - ref.value) <= ev.est_error + ref.est_error


def test_route_mismatch_raises():
    with pytest.raises(RegionError):
        eval_with_contour(2.0, 3.0, P111, BASE, route="lemma1")
    with pytest.raises(RegionError):
        eval_with_contour(-2.0, -3.0, P111, BASE, route="lemma3")
    with pytest.raises(RegionError):
        eval_with_contour(2.0, -1.0, P111, BASE, route="lemma2")


@pytest.mark.parametrize("route", ["lemma9", "", "Lemma1", "auto", "series"])
def test_unknown_route_is_a_domain_error(route, monkeypatch):
    # a bad route is the caller's error, raised before any geometry
    monkeypatch.setattr(rep, "_placement", lambda *a: pytest.fail("placed a point"))
    with pytest.raises(DomainError, match="route"):
        eval_with_contour(-2.0, -3.0, P111, BASE, route=route)


def test_deprecated_route_aliases():
    # the entry points deprecated in 0.3.0 are gone in 0.4.0: each route is
    # eval_with_contour(..., route=...)
    import ml2v

    for route in ("lemma1", "lemma2", "remark1", "lemma3"):
        with pytest.raises(AttributeError):
            getattr(ml2v, f"eval_{route}")


def test_image_on_contour_raises():
    x = 1.0 * cmath.exp(0.3j)  # image sits exactly on the arc
    with pytest.raises(RegionError):
        eval_with_contour(x, 3.0, P111, BASE, route="lemma3")


def test_degenerate_images_raise():
    with pytest.raises(DegenerateDenominator):
        eval_with_contour(3.0, 3.0, P111, BASE, route="lemma3")
    pp = validate_params(0.5, 1, 1)
    with pytest.raises(DegenerateDenominator):
        residue_terms_y(2.0 ** 0.5, 2.0, pp, pole_images(2.0, pp.alpha))


def test_residue_only_path(monkeypatch):
    # with the integrand forced to zero, lemma2 returns exactly the y residue
    def silent(x, y, params):
        real = ml_integrand(x, y, params)
        return IntegrandSpec(lambda z: np.zeros_like(z), real.decay)

    monkeypatch.setattr("ml2v.representations.ml_integrand", silent)
    ev = eval_with_contour(-1.0, 2.0, P111, BASE, route="lemma2")
    res = sum(residue_terms_y(-1.0, 2.0, P111, pole_images(2.0, P111.alpha)))
    assert ev.value == pytest.approx(res, rel=1e-15)


def test_contour_parameter_independence():
    a = eval_with_contour(-2.0, -3.0, P111, ContourSpec(1.0, 3 * math.pi / 4), route="lemma1")
    b = eval_with_contour(-2.0, -3.0, P111, ContourSpec(0.4, 2.2), route="lemma1")
    assert abs(a.value - b.value) <= 2e-7
    assert abs(a.value - b.value) <= a.est_error + b.est_error


def test_continuation_across_arc():
    # growing eps swallows y's image; the route changes, the value must not
    small = eval_with_contour(-1.0, 2.0, P111, ContourSpec(1.0, 3 * math.pi / 4), route="lemma2")
    big = eval_with_contour(-1.0, 2.0, P111, ContourSpec(2.5, 3 * math.pi / 4), route="lemma1")
    assert abs(small.value - big.value) <= small.est_error + big.est_error


def test_choose_contour_clearance():
    pp = validate_params(0.8, 0.8, 1)
    spec = choose_contour(6.0, 7.0, pp)
    for w, power in ((6.0, pp.beta), (7.0, pp.alpha)):
        for img in pole_images(w, power):
            assert contour_clearance(img, spec) >= 0.05


@pytest.mark.parametrize("x,y", [(math.nan, 2.0), (1.0, complex(0, math.inf)), (-math.inf, 1.0)])
def test_auto_rejects_non_finite_arguments(x, y):
    with pytest.raises(DomainError):
        eval_auto(x, y, P111)


def test_auto_small_uses_series():
    ev = eval_auto(0.3, -0.2, P111)
    assert ev.method == "series"
    assert abs(ev.value - closed_form(0.3, -0.2)) <= 1e-12


def _keyhole_and_auto(x, y, pp, route):
    """eval_with_contour on choose_contour's contour, which must take route,
    and eval_auto, which must take the hyperbola; the two agree within
    their estimates."""
    ev = eval_with_contour(x, y, pp, choose_contour(x, y, pp))
    assert ev.method == route
    auto = eval_auto(x, y, pp)
    assert auto.method == "hyperbola"
    assert abs(auto.value - ev.value) <= auto.est_error + ev.est_error
    return ev, auto


def test_auto_routes_and_accuracy():
    pp = validate_params(0.8, 0.8, 1)
    ref = eval_double_series(-5.0, -5.0, pp)
    for ev in _keyhole_and_auto(-5.0, -5.0, pp, "lemma1"):
        assert abs(ev.value - ref.value) <= ev.est_error + ref.est_error

    ref = eval_double_series(6.0, 7.0, pp)
    for ev in _keyhole_and_auto(6.0, 7.0, pp, "lemma3"):
        assert abs(ev.value - ref.value) / abs(ref.value) <= 1e-10


def test_auto_mixed_routes():
    # narrow admissible window: the signs of x and y pick the keyhole route
    pp = validate_params(0.5, 0.8, 1)
    for x, y, route in ((-4.0, 2.0, "lemma2"), (2.0, -4.0, "remark1")):
        ref = eval_double_series(x, y, pp)
        for ev in _keyhole_and_auto(x, y, pp, route):
            assert abs(ev.value - ref.value) <= ev.est_error + ref.est_error


def test_auto_wide_window_absorbs_mixed_signs():
    # alpha*beta = 1 pushes theta to pi; the chosen disk swallows both
    # images and the pure integral route applies at mixed signs too
    for ev in _keyhole_and_auto(-1.0, 2.0, P111, "lemma1"):
        assert abs(ev.value - closed_form(-1.0, 2.0)) <= max(ev.est_error, 1e-12)


def test_auto_degenerate_falls_back_to_series():
    ev = eval_auto(3.0, 3.0, P111)
    assert ev.method == "series"
    ref = closed_form(3.0, 3.0)
    assert abs(ev.value - ref) <= max(ev.est_error, 1e-11 * abs(ref))


@pytest.mark.parametrize("x, y", [(30.0, 20.0), (40.0, -30.0)])
def test_auto_rejects_infinite_estimates(x, y):
    # the true value overflows a double: the contour route (lemma3, remark1)
    # returns est_error = inf there, which must not count as a result
    t0 = time.process_time()
    with pytest.raises(BudgetExceeded):
        eval_auto(x, y, validate_params(0.5, 0.5, 1))
    assert time.process_time() - t0 < 2.0


def test_auto_large_uses_asymptotics():
    # alpha = beta = mu = 1: the algebraic tail vanishes and the two
    # exponential terms reproduce the closed form exactly; eval_auto takes
    # the hyperbola there, and the expansion checks it
    asym = eval_asymptotic(30.0, 20.0, P111)
    assert asym.method == "asymptotic-case1"
    ref = closed_form(30.0, 20.0)
    assert abs(asym.value - ref) / abs(ref) <= 1e-13
    assert abs(asym.value - ref) <= asym.est_error
    ev = eval_auto(30.0, 20.0, P111)
    assert ev.method == "hyperbola"
    assert abs(ev.value - ref) <= ev.est_error
    assert abs(ev.value - asym.value) <= ev.est_error + asym.est_error


def test_auto_swap_symmetry():
    pp = validate_params(0.7, 1.1, 0.9)
    qq = validate_params(1.1, 0.7, 0.9)
    a = eval_auto(-3.0, 2.5, pp)
    b = eval_auto(2.5, -3.0, qq)
    assert abs(a.value - b.value) <= a.est_error + b.est_error


def test_auto_complex_corner_honest():
    pp = validate_params(0.5, 0.8, 1)
    x, y = 4 + 4j, -4.0
    ev = eval_auto(x, y, pp)
    ref = oracle_eval(x, y, pp, digits=30).as_complex()
    assert abs(ev.value - ref) <= max(ev.est_error, 1e-7 * max(1.0, abs(ref)))
    assert ev.est_error <= 1e-7 * max(1.0, abs(ref))


def _residue_reference(z, p_def, p_den, mu, w_def, w_den):
    """The residue term at the image z of w_def, at 60 digits, through
    principal powers of zeta = w_def^p_def on z's branch."""
    k = round((cmath.phase(z) / p_def - cmath.phase(w_def)) / (2 * math.pi))
    with mp.workdps(60):
        pd, pn, w = mp.mpf(p_def), mp.mpf(p_den), mp.mpc(w_def)
        zeta = mp.exp(pd * (mp.log(w) + 2j * mp.pi * k))
        d = 1 / (pd * pn)
        num = mp.exp(zeta**d) * zeta ** ((1 + pd + pn - mp.mpc(mu)) * d)
        return complex(num / (pn * w * (zeta ** (1 / pn) - mp.mpc(w_den))))


@functools.cache
def _residue_cases(count=150, seed=761):
    """Seeded residue terms with their references: orders in [0.25, 1.7],
    complex mu, 0.3 <= |w| <= 80, Re zeta^d <= 650, and a reference in the
    normal double range (a subnormal term has no relative accuracy)."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        a, b = rng.uniform(0.25, 1.7), rng.uniform(0.25, 1.7)
        if a * b >= 1.95:
            continue
        p = validate_params(a, b, complex(rng.uniform(0.2, 2.5), rng.uniform(-1, 1)))
        x, y = (cmath.rect(rng.uniform(0.3, 80), rng.uniform(-math.pi, math.pi)) for _ in "xy")
        for terms, w, w_den, p_def, p_den in ((residue_terms_x, x, y, b, a), (residue_terms_y, y, x, a, b)):
            for z in pole_images(w, p_def):
                if (z ** (1 / (p_def * p_den))).real > 650:
                    continue
                ref = _residue_reference(z, p_def, p_den, p.mu, w, w_den)
                if 1e-290 < abs(ref) < math.inf:
                    cases.append((terms, x, y, p, z, p_def, p_den, ref))
    return cases


def _assert_residues_honest():
    worst = 0.0
    for terms, x, y, p, z, p_def, p_den, ref in _residue_cases():
        (t,) = terms(x, y, p, (z,))
        bound = EPS * residue_weight(z, p_def, p_den) * abs(t)
        worst = max(worst, abs(t - ref) / bound)
    assert worst <= 1.0, f"worst |t - ref| / slack = {worst:.3g}"


def test_residue_terms_honest_against_60_digits():
    _assert_residues_honest()


def test_residue_terms_honest_where_long_double_is_double(monkeypatch):
    # the weight reads the working epsilon, so it stays honest on platforms
    # whose long double is a plain double; branch_residues builds every
    # column, the exponent's included, in _CLD, so _CLD alone sets its precision
    monkeypatch.setattr(rep, "_CLD", np.complex128)
    monkeypatch.setattr(rep, "EPS_LD", EPS)
    monkeypatch.setattr(rep, "_TWO_PI_I", 2j * math.pi)
    _assert_residues_honest()


def _residue_sides(rng):
    """Seeded poles of one point, as (x-side, y-side) lists of
    (k, p_def, p_den, w_def, w_den), and its mu: orders in [0.3, 1.7], up
    to three branches a side, |w| log-uniform in [0.1, 2000]."""
    a, b = rng.uniform(0.3, 1.7), rng.uniform(0.3, 1.7)
    mu = complex(rng.uniform(-2.0, 3.0), rng.choice((0.0, rng.uniform(-2.0, 2.0))))
    x, y = (cmath.rect(10 ** rng.uniform(-1, 3.3), rng.uniform(-math.pi, math.pi)) for _ in "xy")
    kx = rng.sample(range(-2, 3), rng.randint(0, 3))
    ky = rng.sample(range(-2, 3), rng.randint(0, 3))
    return [(k, b, a, x, y) for k in kx], [(k, a, b, y, x) for k in ky], mu


def _hex_terms(terms):
    return [(t.real.hex(), t.imag.hex()) for t in terms]


def test_one_residue_pass_matches_per_side_passes():
    rng = random.Random(1907)
    seen = set()
    for _ in range(300):
        xs, ys, mu = _residue_sides(rng)
        try:
            sides = rep.branch_residues(xs, mu) + rep.branch_residues(ys, mu)
        except DegenerateDenominator:
            continue
        both = rep.branch_residues(xs + ys, mu)
        assert _hex_terms(both) == _hex_terms(sides), (xs, ys, mu)
        alone = [t for pole in xs + ys for t in rep.branch_residues([pole], mu)]
        assert _hex_terms(both) == _hex_terms(alone), (xs, ys, mu)
        seen.update(("branches" if len({p[0] for p in xs + ys}) > 1 else "one-branch",
                     "complex mu" if mu.imag else "real mu"))
        seen.update("inf" if cmath.isinf(t) else "0" if t == 0 else "finite" for t in both)
    assert seen >= {"branches", "complex mu", "inf", "0", "finite"}, seen


def test_one_residue_pass_reports_a_double_pole_on_the_x_side_first():
    # s = 2 + i is an x-pole (s^alpha = x) and a y-pole (s^beta = y)
    a, b = 0.5, 0.8
    s = 2 + 1j
    x, y = s**a, s**b
    with pytest.raises(
        DegenerateDenominator,
        match=r"^pole on branch 0 of zeta\^\(1/0\.8\) = 1\.45535\+0\.343561j: "
        r"\|zeta\^\(1/0\.5\) - 1\.7742\+0\.69002j\| = \S+ is inside the degeneracy floor$",
    ):
        rep.branch_residues([(0, b, a, x, y), (0, a, b, y, x)], 1 + 0j)
    with pytest.raises(DegenerateDenominator, match=r"^pole on branch 0 of zeta\^\(1/0\.8\)"):
        eval_hyperbola(x, y, validate_params(a, b, 1))


def test_residue_pass_over_no_poles_is_empty():
    assert rep.branch_residues([], 1 + 0j) == []


# Points whose route adds residue terms: keyhole routes on the grid
# parameters (through eval_with_contour on choose_contour's contour) and the
# asymptotic cases 1-3 at large arguments (through eval_asymptotic); eval_auto
# takes the hyperbola at all of them.
RESIDUE_POINTS = [
    ((0.5, 0.8, 1), -4.0, 2.0, "lemma2"),
    ((0.5, 0.8, 1), 2.0, -4.0, "remark1"),
    ((0.5, 0.8, 1), 5 + 1j, 6 - 2j, "lemma3"),
    ((0.5, 0.5, 1), -30.0, 25.0, "asymptotic-case3"),
    ((0.5, 0.5, 1), 20 + 5j, -40.0, "asymptotic-case2"),
    ((0.7, 0.7, 0.5 + 0.3j), 30.0, 20.0, "asymptotic-case1"),
    ((0.7, 0.7, 0.5 + 0.3j), -40 + 12j, 25 - 30j, "asymptotic-case3"),
]


def _residue_point_evaluations(orders, x, y, method):
    """The row's route, which must take method, then eval_auto's result and
    eval_hyperbola's (None where it raises a NumericFailure)."""
    p = validate_params(*orders)
    if method.startswith("asymptotic"):
        ev = eval_asymptotic(x, y, p)
    else:
        ev = eval_with_contour(x, y, p, choose_contour(x, y, p))
    assert ev.method == method
    auto = eval_auto(x, y, p)
    assert auto.method == "hyperbola"
    try:
        hyp = eval_hyperbola(x, y, p)
    except NumericFailure:
        hyp = None
    return ev, auto, hyp


@pytest.mark.parametrize("orders,x,y,method", RESIDUE_POINTS)
def test_residue_routes_use_no_mpmath(monkeypatch, orders, x, y, method):
    def refuse(*args, **kwargs):
        raise AssertionError("mpmath reached on a double-precision path")

    monkeypatch.setattr(mpmath.mp, "mpc", refuse)
    for ev in _residue_point_evaluations(orders, x, y, method):
        assert ev is None or math.isfinite(ev.est_error)


@pytest.mark.parametrize("orders,x,y,method", RESIDUE_POINTS)
def test_residue_routes_ignore_mpmath_precision(orders, x, y, method):
    plain = _residue_point_evaluations(orders, x, y, method)
    for dps in (5, 50):
        with mp.workdps(dps):
            assert _residue_point_evaluations(orders, x, y, method) == plain


def test_overflowing_integrand_raises_quietly():
    # eps = 1.8 at orders 0.25: exp(z^16) overflows on the arc, which must
    # end the quadrature at once, with no numpy warning
    p = validate_params(0.25, 0.25, 1)
    lo, hi, _ = angle_window(p)
    spec = ContourSpec(1.8, lo + 0.6 * (hi - lo))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="not finite"):
            eval_with_contour(1.5 + 0.5j, -2 + 1j, p, spec, tol=1e-10)


@pytest.mark.parametrize("eps", [1e-300, 1e-200, 1e-160])
def test_tiny_arc_keeps_its_log_quietly(eps):
    # below |z| = 1.5e-154, x^2 + y^2 is subnormal or 0: the half log of
    # _point_free must neither warn nor lose the arc's digits
    p = validate_params(0.3, 1.9, 2)
    x, y = -3.0, 2.0
    spec = ContourSpec(eps, choose_contour(x, y, p).theta)
    z = eps * np.exp(1j * np.linspace(-spec.theta, spec.theta, 9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = eval_with_contour(x, y, p, spec, tol=1e-10, route="lemma2")
        got = rep._point_free(z, p)
    ref = eval_hyperbola(x, y, p, tol=1e-10)
    assert abs(ev.value - ref.value) <= ev.est_error + ref.est_error
    a, b = p.alpha, p.beta
    d, e = 1.0 / (a * b), (1.0 + a + b - p.mu) / (a * b) - 1.0
    with mp.workdps(40):
        for u, *vals in zip(z, *got):
            um = mpmath.mpc(u.real, u.imag)
            want = (mpmath.exp(um ** mpmath.mpf(d)) * um ** mpmath.mpc(e),
                    um ** mpmath.mpf(1.0 / b), um ** mpmath.mpf(1.0 / a))
            for g, w in zip(vals, want):
                # the factors that leave the double range are not compared
                if abs(w) > 1e-290:
                    assert abs((g - w) / w) <= 1e-13, (u, g, w)


# Contour-route points under two orders with the same product alpha*beta, so
# that they share choose_contour's contours.
KEYHOLE_PARAMS = (validate_params(0.5, 0.8, 1), validate_params(0.8, 0.5, 0.5 + 0.3j))
KEYHOLE_POINTS = ((-3.0, 2.0), (2.5 + 1j, -1.5), (2j, 2.5), (4.0, -4.0), (-3.0, -3.0))


def _contour_bits(case):
    x, y, p = case
    ev = eval_with_contour(x, y, p, choose_contour(x, y, p))
    return ev.value.real.hex(), ev.value.imag.hex(), ev.est_error.hex(), ev.method


def test_keyhole_results_independent_of_order_and_threads():
    cases = [(x, y, p) for p in KEYHOLE_PARAMS for x, y in KEYHOLE_POINTS]
    forward = [_contour_bits(c) for c in cases]
    assert {b[3] for b in forward} == {"lemma1", "lemma2", "remark1", "lemma3"}
    backward = [_contour_bits(c) for c in reversed(cases)][::-1]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(_contour_bits, cases * 4, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert backward == forward
    assert threaded == forward * 4


# Orders and contour angles for the factor accuracy check: theta = pi, complex
# mu, exponents that are all small integers, some of them, and none.
FACTOR_CASES = (
    ((1.0, 1.0, 1), math.pi),
    ((1.2, 0.9, 1), math.pi),
    ((1.2, 0.9, 0.4 - 0.7j), math.pi),
    ((0.5, 0.5, 1), None),
    ((0.5, 0.5, 0.5 + 0.3j), None),
    ((0.7, 0.7, 0.5 + 0.3j), None),
    ((1.53, 0.349, 1), None),
    ((0.25, 0.6, 2), None),
)


@pytest.mark.parametrize("orders,theta", FACTOR_CASES)
def test_point_free_factors_as_accurate_as_complex_powers(orders, theta):
    p = validate_params(*orders)
    a, b = p.alpha, p.beta
    d = 1.0 / (a * b)
    e = (1.0 + a + b - p.mu) * d - 1.0
    spec = ContourSpec(1.0, angle_window(p)[2] if theta is None else theta)
    panels = build_contour(spec, d, _truncation_radius(spec, d, 1e-16))
    # the initial sweep and the refinement quarters of every third panel
    start, end = panels[::3, 0::2], panels[::3, 1::2]
    cuts = [(1.0 - t) * start + t * end for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    quarters = np.empty((4, len(start), 4))
    quarters[:, :, 0::2], quarters[:, :, 1::2] = cuts[:-1], cuts[1:]
    sweep = con._nodes(panels)[0]
    z = np.concatenate([sweep.ravel(), con._nodes(quarters.reshape(-1, 4))[0].ravel()])
    new = rep._point_free(z, p)
    old = (np.exp(z**d) * z**e, z ** (1.0 / b), z ** (1.0 / a))
    with mp.workdps(30):
        zm = [mpmath.mpc(v.real, v.imag) for v in z]
        ref = (
            [mpmath.exp(u ** mpmath.mpf(d)) * u ** mpmath.mpc(e) for u in zm],
            [u ** mpmath.mpf(1.0 / b) for u in zm],
            [u ** mpmath.mpf(1.0 / a) for u in zm],
        )
        for got, was, want in zip(new, old, ref):
            err_new = max(abs((g - w) / w) for g, w in zip(got, want))
            err_old = max(abs((g - w) / w) for g, w in zip(was, want))
            assert err_new <= 2 * err_old, (float(err_new), float(err_old))
