"""Contour-plus-residue evaluation routes and the automatic dispatcher."""

import cmath
import math

import numpy as np
import pytest

from ml2v.contour import IntegrandSpec
from ml2v.core import ContourSpec, RegionLabel, validate_params
from ml2v.errors import DegenerateDenominator, DomainError, RegionError
from ml2v.oracle import oracle_eval
from ml2v.representations import (
    choose_contour,
    classify_pair,
    contour_clearance,
    eval_auto,
    eval_lemma1,
    eval_lemma2,
    eval_lemma3,
    eval_remark1,
    ml_integrand,
    pole_images,
    residue_terms_y,
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
    direct = eval_remark1(-2.0, -2.0, pp, spec)
    assert abs(direct.value - ref.value) <= direct.est_error + ref.est_error
    # swallowing both poles into the disk must give the same value
    big = eval_lemma1(-2.0, -2.0, pp, ContourSpec(2.5, spec.theta))
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
    ev = eval_lemma1(-2.0, -3.0, P111, BASE)
    ref = closed_form(-2.0, -3.0)
    assert ev.method == "lemma1"
    assert abs(ev.value - ref) <= max(ev.est_error, 1e-12)
    assert ev.est_error <= 1e-7


def test_lemma2_closed_form():
    ev = eval_lemma2(-1.0, 2.0, P111, BASE)
    ref = closed_form(-1.0, 2.0)
    assert ev.method == "lemma2"
    assert abs(ev.value - ref) <= max(ev.est_error, 1e-12)


def test_remark1_closed_form():
    ev = eval_remark1(2.0, -1.0, P111, BASE)
    ref = closed_form(2.0, -1.0)
    assert ev.method == "remark1"
    assert abs(ev.value - ref) <= max(ev.est_error, 1e-12)


def test_lemma3_closed_form():
    ev = eval_lemma3(2.0, 3.0, P111, BASE)
    ref = 3 * math.e**3 - 2 * math.e**2
    assert ev.method == "lemma3"
    assert abs(ev.value - ref) / ref <= 1e-10


def test_general_orders_match_series():
    pp = validate_params(0.8, 0.6, 1.1)
    spec = choose_contour(-1.0, -1.0, pp)
    ev = eval_lemma1(-1.0, -1.0, pp, spec)
    ref = eval_double_series(-1.0, -1.0, pp)
    assert abs(ev.value - ref.value) <= ev.est_error + ref.est_error


def test_zero_argument_inside_arc():
    pp = validate_params(0.9, 0.7, 0.8)
    spec = choose_contour(0.0, 2.0, pp)
    ev = eval_lemma2(0.0, 2.0, pp, spec)
    ref = eval_double_series(0.0, 2.0, pp)
    assert abs(ev.value - ref.value) <= ev.est_error + ref.est_error


def test_route_mismatch_raises():
    with pytest.raises(RegionError):
        eval_lemma1(2.0, 3.0, P111, BASE)
    with pytest.raises(RegionError):
        eval_lemma3(-2.0, -3.0, P111, BASE)
    with pytest.raises(RegionError):
        eval_lemma2(2.0, -1.0, P111, BASE)


def test_image_on_contour_raises():
    x = 1.0 * cmath.exp(0.3j)  # image sits exactly on the arc
    with pytest.raises(RegionError):
        eval_lemma3(x, 3.0, P111, BASE)


def test_degenerate_images_raise():
    with pytest.raises(DegenerateDenominator):
        eval_lemma3(3.0, 3.0, P111, BASE)
    pp = validate_params(0.5, 1, 1)
    with pytest.raises(DegenerateDenominator):
        residue_terms_y(2.0 ** 0.5, 2.0, pp, pole_images(2.0, pp.alpha))


def test_residue_only_path(monkeypatch):
    # with the integrand forced to zero, lemma2 returns exactly the y residue
    def silent(x, y, params):
        real = ml_integrand(x, y, params)
        return IntegrandSpec(lambda z: np.zeros_like(z), real.decay, real.poles)

    monkeypatch.setattr("ml2v.representations.ml_integrand", silent)
    ev = eval_lemma2(-1.0, 2.0, P111, BASE)
    res = sum(residue_terms_y(-1.0, 2.0, P111, pole_images(2.0, P111.alpha)))
    assert ev.value == pytest.approx(res, rel=1e-15)


def test_contour_parameter_independence():
    a = eval_lemma1(-2.0, -3.0, P111, ContourSpec(1.0, 3 * math.pi / 4))
    b = eval_lemma1(-2.0, -3.0, P111, ContourSpec(0.4, 2.2))
    assert abs(a.value - b.value) <= 2e-7
    assert abs(a.value - b.value) <= a.est_error + b.est_error


def test_continuation_across_arc():
    # growing eps swallows y's image; the route changes, the value must not
    small = eval_lemma2(-1.0, 2.0, P111, ContourSpec(1.0, 3 * math.pi / 4))
    big = eval_lemma1(-1.0, 2.0, P111, ContourSpec(2.5, 3 * math.pi / 4))
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


def test_auto_routes_and_accuracy():
    pp = validate_params(0.8, 0.8, 1)
    ev = eval_auto(-5.0, -5.0, pp)
    assert ev.method == "lemma1"
    ref = eval_double_series(-5.0, -5.0, pp)
    assert abs(ev.value - ref.value) <= ev.est_error + ref.est_error

    ev = eval_auto(6.0, 7.0, pp)
    assert ev.method == "lemma3"
    ref = eval_double_series(6.0, 7.0, pp)
    assert abs(ev.value - ref.value) / abs(ref.value) <= 1e-10


def test_auto_mixed_routes():
    # narrow admissible window: the signs of x and y pick the route
    pp = validate_params(0.5, 0.8, 1)
    ev = eval_auto(-4.0, 2.0, pp)
    assert ev.method == "lemma2"
    ref = eval_double_series(-4.0, 2.0, pp)
    assert abs(ev.value - ref.value) <= ev.est_error + ref.est_error
    ev = eval_auto(2.0, -4.0, pp)
    assert ev.method == "remark1"
    ref = eval_double_series(2.0, -4.0, pp)
    assert abs(ev.value - ref.value) <= ev.est_error + ref.est_error


def test_auto_wide_window_absorbs_mixed_signs():
    # alpha*beta = 1 pushes theta to pi; the chosen disk swallows both
    # images and the pure integral route applies at mixed signs too
    ev = eval_auto(-1.0, 2.0, P111)
    assert ev.method == "lemma1"
    assert abs(ev.value - closed_form(-1.0, 2.0)) <= max(ev.est_error, 1e-12)


def test_auto_degenerate_falls_back_to_series():
    ev = eval_auto(3.0, 3.0, P111)
    assert ev.method == "series"
    ref = closed_form(3.0, 3.0)
    assert abs(ev.value - ref) <= max(ev.est_error, 1e-11 * abs(ref))


def test_auto_large_uses_asymptotics():
    # alpha = beta = mu = 1: the algebraic tail vanishes and the two
    # exponential terms reproduce the closed form exactly
    ev = eval_auto(30.0, 20.0, P111)
    assert ev.method == "asymptotic-case1"
    ref = closed_form(30.0, 20.0)
    assert abs(ev.value - ref) / abs(ref) <= 1e-13
    assert abs(ev.value - ref) <= ev.est_error


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
