"""Contour discretization and adaptive quadrature on the keyhole path."""

import cmath
import dataclasses
import math
import random
import re

import numpy as np
import pytest
from mpmath import mp

from ml2v import contour, representations
from ml2v.contour import IntegrandSpec, _truncation_radius, build_contour, integrate
from ml2v.core import ContourSpec, validate_params
from ml2v.errors import GeometryError, PoleProximityError, QuadratureError
from ml2v.representations import (
    choose_contour,
    contour_clearance,
    eval_with_contour,
    ml_integrand,
    pole_images,
)

P111 = validate_params(1, 1, 1)


def _hankel_recip_gamma(s, spec, tol=1e-10):
    ig = IntegrandSpec(f=lambda u: np.exp(u) * u ** (-s), decay=1.0)
    ev = integrate(spec, ig, tol=tol)
    return ev.value / (2j * math.pi), ev.est_error


def _panels(spec, decay, trunc_tol=1e-16):
    """build_contour's panel rows at the truncation radius for trunc_tol."""
    return build_contour(spec, decay, _truncation_radius(spec, decay, trunc_tol))


def test_truncation_radius_example():
    # ln(1/1e-16)/|cos(3pi/4)| raised to 1/1: R ~= 52.1
    spec = ContourSpec(1.0, 3 * math.pi / 4)
    radius = _truncation_radius(spec, 1.0, 1e-16)
    assert radius == pytest.approx(52.101553072484705, rel=1e-12)
    assert len(build_contour(spec, 1.0, radius)) >= 10


def test_geometry_rejections():
    spec = ContourSpec(1.0, 3 * math.pi / 4)
    with pytest.raises(GeometryError):
        _truncation_radius(spec, 0.0, 1e-16)
    with pytest.raises(GeometryError):
        _truncation_radius(spec, -1.0, 1e-16)
    # cos(theta * decay) >= 0: no ray decay
    with pytest.raises(GeometryError):
        _truncation_radius(ContourSpec(1.0, math.pi / 2), 1.0, 1e-16)
    with pytest.raises(GeometryError):
        _truncation_radius(ContourSpec(1.0, math.pi / 4), 1.0, 1e-16)
    with pytest.raises(GeometryError):
        _truncation_radius(spec, 1.0, 0.0)


def test_reciprocal_gamma_integral_standard_contour():
    spec = ContourSpec(1.0, 3 * math.pi / 4)
    for s in [1.0, 2.5, 0.5, -0.5 + 1.0j, 4.0 - 2.0j]:
        with mp.workdps(40):
            ref = complex(mp.rgamma(mp.mpc(s)))
        got, est = _hankel_recip_gamma(s, spec)
        assert abs(got - ref) <= 1e-12, f"s={s}"
        assert abs(got - ref) <= max(est / (2 * math.pi), 1e-13)


def test_reciprocal_gamma_integral_full_angle_contour():
    # theta = pi is legal: the ray is traversed twice with opposite branch sides
    spec = ContourSpec(1.0, math.pi)
    for s in [0.5, 2.5, -1.5]:
        with mp.workdps(40):
            ref = complex(mp.rgamma(mp.mpc(s)))
        got, _ = _hankel_recip_gamma(s, spec)
        assert abs(got - ref) <= 1e-12, f"s={s}"


def test_deformation_invariance():
    # integrand entire off the cut: value independent of (epsilon, theta)
    s = 1.7 - 0.4j
    a, _ = _hankel_recip_gamma(s, ContourSpec(1.0, 3 * math.pi / 4))
    b, _ = _hankel_recip_gamma(s, ContourSpec(0.35, 2.5))
    assert abs(a - b) <= 1e-12


def test_real_parameter_result_is_real():
    got, _ = _hankel_recip_gamma(2.5, ContourSpec(1.0, 3 * math.pi / 4))
    assert abs(got.imag) <= 1e-13 * abs(got.real)


def test_tighter_tolerance_tightens_result():
    spec = ContourSpec(1.0, 3 * math.pi / 4)
    ig = IntegrandSpec(f=lambda u: np.exp(u) * u ** (-2.5), decay=1.0)
    loose = integrate(spec, ig, tol=1e-4)
    tight = integrate(spec, ig, tol=1e-12)
    assert loose.est_error <= 1e-4
    assert tight.est_error <= 1e-12
    with mp.workdps(40):
        ref = complex(2j * math.pi * mp.rgamma(2.5))
    assert abs(tight.value - ref) < abs(loose.value - ref) + 1e-13
    assert tight.method == "quadrature"


def test_pole_proximity_rejected():
    # the floor is 1e-3 * eps: a pole image 5e-4 off the arc is inside it,
    # yet outside the on-contour band
    spec = ContourSpec(1.0, 3 * math.pi / 4)
    near_arc = 1.0005 * cmath.exp(0.3j)
    # at beta = 1 the argument is its own pole image, which the message names
    with pytest.raises(PoleProximityError, match=re.escape(f"pole {near_arc:.6g} sits ")):
        eval_with_contour(near_arc, -3.0, P111, spec)
    # a comfortably distant pole is fine
    ev = eval_with_contour(40j, -3.0, P111, spec)
    assert math.isfinite(ev.est_error)


def test_pole_proximity_raised_before_any_evaluation(monkeypatch):
    calls = []

    def counted(x, y, params):
        real = ml_integrand(x, y, params)

        def f(z):
            calls.append(int(np.size(z)))
            return real.f(z)

        return dataclasses.replace(real, f=f)

    monkeypatch.setattr("ml2v.representations.ml_integrand", counted)
    spec = ContourSpec(1.0, 3 * math.pi / 4)
    with pytest.raises(PoleProximityError):
        eval_with_contour(1.0005 * cmath.exp(0.3j), -3.0, P111, spec)
    assert calls == []


def test_node_budget_exhaustion(monkeypatch):
    spec = ContourSpec(1.0, 3 * math.pi / 4)
    ig = IntegrandSpec(f=lambda u: np.exp(u) * u ** (-2.5), decay=1.0)
    monkeypatch.setattr(contour, "DEFAULT_NODE_BUDGET", 10)
    with pytest.raises(QuadratureError):
        integrate(spec, ig, tol=1e-12)


def _counted(f):
    """f wrapped to record the number of points of every call."""
    calls = []

    def g(z):
        calls.append(int(np.size(z)))
        return f(z)

    return g, calls


def test_one_integrand_call_per_round():
    spec = ContourSpec(1.0, 3 * math.pi / 4)
    sweep = 24 * len(_panels(spec, 1.0))
    for tol, rounds in ((1e-8, 0), (1e-13, 1)):
        f, calls = _counted(lambda u: np.exp(u) * u ** (-2.5))
        ev = integrate(spec, IntegrandSpec(f=f, decay=1.0), tol=tol)
        assert ev.est_error <= tol
        # one tail estimate, the initial sweep of all panels, then one call
        # per refinement round holding all four quarters of every panel it
        # splits
        assert calls[:2] == [2, sweep]
        assert len(calls) == 2 + rounds
        assert all(n % 96 == 0 for n in calls[2:])


def test_budget_exhausted_during_refinement(monkeypatch):
    spec = ContourSpec(1.0, 3 * math.pi / 4)
    f, calls = _counted(lambda u: np.exp(u) * u ** (-2.5))
    integrate(spec, IntegrandSpec(f=f, decay=1.0), tol=1e-13)
    sweep, converged = 2 + 24 * len(_panels(spec, 1.0)), sum(calls)
    budget = (sweep + converged) // 2
    assert sweep + 48 <= budget < converged
    f, calls = _counted(lambda u: np.exp(u) * u ** (-2.5))
    monkeypatch.setattr(contour, "DEFAULT_NODE_BUDGET", budget)
    with pytest.raises(QuadratureError, match=r"exhausted \(\d+ nodes used\)") as info:
        integrate(spec, IntegrandSpec(f=f, decay=1.0), tol=1e-13)
    assert sweep < sum(calls) <= budget
    assert f"({sum(calls)} nodes used)" in str(info.value)


def test_non_finite_sweep_raises_at_once():
    # an inf on the inner panels ends the quadrature after the first sweep
    # instead of refining panels that cannot converge
    spec = ContourSpec(1.0, 3 * math.pi / 4)
    f, calls = _counted(lambda u: np.where(np.abs(u) < 3.0, np.inf, np.exp(u) * u ** (-2.5)))
    with pytest.raises(QuadratureError, match="not finite on the contour"):
        integrate(spec, IntegrandSpec(f=f, decay=1.0), tol=1e-10)
    assert calls == [2, 24 * len(_panels(spec, 1.0))]


def test_rounding_floor_raises_after_the_sweep():
    # exp(u) integrates to 2 pi i / Gamma(0) = 0 over the Hankel contour, here
    # from terms up to e^20: no refinement gets the sum below EPS * e^20
    spec = ContourSpec(20.0, 3 * math.pi / 4)
    f, calls = _counted(np.exp)
    with pytest.raises(QuadratureError, match="rounding floor"):
        integrate(spec, IntegrandSpec(f=f, decay=1.0), tol=1e-8)
    assert calls == [2, 24 * len(_panels(spec, 1.0))]


def _check_ray_radii(rs, eps, radius, c, decay):
    """rs runs from eps to radius, and its panels keep _ray_radii's bound."""
    rs = np.array(rs)
    assert rs[0] == eps and rs[-1] == radius
    ratio, nats = rs[1:] / rs[:-1], c * np.diff(rs**decay)
    assert np.all(ratio[:-1] >= contour._RAY_GROWTH_MIN * (1 - 1e-15)) and np.all(ratio > 1)
    assert np.all(ratio <= 2 * (1 + 1e-15))
    # a panel past PANEL_NATS is one the least growth forced
    long = nats > contour.PANEL_NATS * (1 + 1e-9)
    assert np.all(ratio[long] <= contour._RAY_GROWTH_MIN * (1 + 1e-15))
    bound = 1 + min(math.log(radius / eps) / math.log(contour._RAY_GROWTH_MIN),
                    math.log2(radius / eps) + c * (radius**decay - eps**decay) / contour.PANEL_NATS)
    assert len(rs) - 1 <= bound


@pytest.mark.parametrize("eps,trunc_tol", [(8.0, 1e-16), (1.0, 1e-300), (0.04, 1e-300)])
def test_ray_panels_keep_their_bound_at_steep_decay(eps, trunc_tol):
    # theta * decay = pi: the rays decay like exp(-r^16); at eps = 8 that is
    # e^(-2.8e14) at the arc, and R is eps's floor
    spec = ContourSpec(eps, math.pi / 16)
    radius = _truncation_radius(spec, 16.0, trunc_tol)
    panels = build_contour(spec, 16.0, radius)
    out = panels[(panels[:, 2] == spec.theta) & (panels[:, 3] == spec.theta)]
    assert np.all(out[1:, 0] == out[:-1, 1])
    _check_ray_radii(np.append(out[:, 0], out[-1, 1]), eps, radius, 1.0, 16.0)
    if eps == 8.0:
        assert radius == contour._RAY_GROWTH_MIN * eps and len(out) == 1


def test_ray_panels_keep_their_bound_at_slow_decay():
    # decay 0.3 has no ray decay at theta <= pi, so the law is given directly:
    # R is about 2.9e9, and the panels mostly double
    c, decay = 0.7, 0.3
    radius = (math.log(1e300) / c) ** (1 / decay)
    _check_ray_radii(contour._ray_radii(1.0, radius, c, decay), 1.0, radius, c, decay)


def test_low_order_annulus_points_converge_in_one_sweep(monkeypatch):
    # at (0.25, 0.25, 1) the integrand falls like exp(-r^16) within 0.3 eps of
    # the arc; panels graded by that law need no refinement where every pole
    # image clears the contour by twice choose_contour's target (an image
    # closer to the arc asks for refinement near it)
    p = validate_params(0.25, 0.25, 1)
    rng = random.Random(5)
    sizes = []

    def counted(x, y, params):
        real = ml_integrand(x, y, params)

        def f(z):
            sizes.append(int(np.size(z)))
            return real.f(z)

        return dataclasses.replace(real, f=f)

    monkeypatch.setattr("ml2v.representations.ml_integrand", counted)
    done = 0
    while done < 12:
        x, y = (cmath.rect(math.sqrt(rng.uniform(1, 16)), rng.uniform(-math.pi, math.pi)) for _ in "xy")
        spec = choose_contour(x, y, p)
        images = pole_images(x, p.beta) + pole_images(y, p.alpha)
        clear = min(contour_clearance(z, spec) for z in images)
        if spec.epsilon != 1.0 or clear < 2 * representations._CLEARANCE_TARGET:
            continue
        sizes.clear()
        ev = eval_with_contour(x, y, p, spec)
        assert ev.est_error <= 1e-8 * max(1.0, abs(ev.value))
        # tail estimates of two nodes each, then the one sweep
        assert all(n == 2 for n in sizes[:-1]) and sizes[-1] > 2
        done += 1
