"""Placement of pole images against the contour: one measurement per image
feeds the region label, the Omega+ residue set and the pole floor."""

import cmath
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import ml2v.core as core
import ml2v.representations as rep
from ml2v.core import (
    ContourSpec,
    RegionLabel,
    admissible_theta_window,
    classify_region,
    contour_distance,
    validate_params,
)
from ml2v.errors import DegenerateDenominator, PoleProximityError, RegionError
from ml2v.representations import (
    POLE_FLOOR_REL,
    choose_contour,
    eval_with_contour,
    pole_images,
)


def test_one_distance_per_pole_image(monkeypatch):
    # (3, 3) at (0.5, 0.8, 1): one x image and two y images, all in Omega+
    p = validate_params(0.5, 0.8, 1)
    x, y = 3.0, 3.0
    spec = choose_contour(x, y, p)
    n_images = len(pole_images(x, p.beta)) + len(pole_images(y, p.alpha))
    assert n_images == 3
    calls = []

    def counted(point, contour):
        calls.append(point)
        return contour_distance(point, contour)

    monkeypatch.setattr(core, "contour_distance", counted)
    monkeypatch.setattr(rep, "contour_distance", counted)
    ev = eval_with_contour(x, y, p, spec)
    assert ev.method == "lemma3"
    assert len(calls) == n_images


class _Integrated(Exception):
    """Raised in place of the contour integral: every check has passed."""


def _near_contour(draw, spec: ContourSpec) -> complex:
    """A point on the arc or on one of the rays, moved off it by 1e-10 to
    about 0.5 times eps, or a point anywhere within a few radii."""
    eps, th = spec.epsilon, spec.theta
    off = draw(st.sampled_from((-1.0, 1.0))) * eps * 10.0 ** draw(st.floats(-10.0, -0.3))
    piece = draw(st.sampled_from(("arc", "upper", "lower", "free")))
    if piece == "arc":
        return cmath.rect(eps + off, th * draw(st.floats(-1.0, 1.0)))
    if piece == "free":
        return complex(draw(st.floats(-4 * eps, 4 * eps)), draw(st.floats(-4 * eps, 4 * eps)))
    sgn = 1.0 if piece == "upper" else -1.0
    r = eps * (1.0 + draw(st.floats(0.0, 20.0)))
    return complex(r, off) * cmath.exp(1j * sgn * th)


@st.composite
def _placements(draw):
    a = draw(st.floats(0.1, 1.95))
    b = draw(st.floats(0.1, min(1.95, 1.99 / a)))
    params = validate_params(a, b, 1)
    lo, hi = admissible_theta_window(params, warn=False)
    u = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1.0)))
    spec = ContourSpec(draw(st.floats(0.04, 8.0)), min(hi, lo + u * (hi - lo)))
    # an argument whose principal pole image is the drawn point
    x = _near_contour(draw, spec) ** (1.0 / b)
    y = _near_contour(draw, spec) ** (1.0 / a)
    return params, spec, x, y


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(_placements())
def test_placement_agrees_with_classify_region_and_pole_floor(case):
    params, spec, x, y = case
    images = []
    for w, power in ((x, params.beta), (y, params.alpha)):
        label, inside, dists = rep._placement(w, power, spec)
        imgs = pole_images(w, power)
        labels = [classify_region(z, spec) for z in imgs]
        assert dists == tuple((z, contour_distance(z, spec)) for z in imgs)
        assert inside == tuple(z for z, l in zip(imgs, labels) if l is RegionLabel.OMEGA_PLUS)
        if RegionLabel.ON_CONTOUR in labels:
            assert label is RegionLabel.ON_CONTOUR
        else:
            assert label is (RegionLabel.OMEGA_PLUS if inside else RegionLabel.OMEGA_MINUS)
        images += imgs

    pinned = any(classify_region(z, spec) is RegionLabel.ON_CONTOUR for z in images)
    near = any(contour_distance(z, spec) < POLE_FLOOR_REL * spec.epsilon for z in images)
    with mock.patch.object(rep, "_contour_piece", side_effect=_Integrated):
        try:
            eval_with_contour(x, y, params, spec)
            raise AssertionError("the contour integral was skipped")
        except RegionError:
            outcome = "pinned"
        except DegenerateDenominator:
            outcome = "degenerate"
        except PoleProximityError:
            outcome = "near"
        except _Integrated:
            outcome = "integrated"
    if pinned:
        assert outcome == "pinned"
    elif outcome != "degenerate":
        # the residue checks fire before the pole floor; otherwise the
        # floor rejects exactly the points with an image inside it
        assert outcome == ("near" if near else "integrated")
