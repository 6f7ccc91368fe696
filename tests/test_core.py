"""Domain validation, contour geometry, and region classification."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ml2v import (
    ContourSpec,
    DomainError,
    GeometryError,
    RegionLabel,
    ThinWindowWarning,
    admissible_theta_window,
    classify_region,
    validate_params,
)
from ml2v.core import check_angle_window, contour_distance


def test_validate_standard_regime():
    p = validate_params(0.5, 0.8, 1 + 0j)
    assert p.alpha == 0.5 and p.beta == 0.8 and p.mu == 1 + 0j


def test_validate_boundary_regime():
    p = validate_params(2.0, 0.5, 1 + 0j)
    assert (p.alpha, p.beta, p.mu) == (2.0, 0.5, 1 + 0j)


@pytest.mark.parametrize(
    "alpha,beta,mu",
    [
        (1.5, 1.5, 1.0),      # alpha*beta = 2.25: E is entire, the hyperbola needs no angle
        (1.9, 1.9, 1.0),
        (2.0, 0.5, -1.0),     # a boundary order with Re(mu) <= 0
        (0.5, 2.0, 0.0),
        (2.0, 2.0, -3.0 + 1.0j),
    ],
)
def test_validate_accepts_every_order_in_the_function_domain(alpha, beta, mu):
    p = validate_params(alpha, beta, mu)
    assert (p.alpha, p.beta, p.mu) == (alpha, beta, complex(mu))


@pytest.mark.parametrize(
    "alpha,beta,mu",
    [
        (-0.5, 1.0, 1.0),
        (1.0, 0.0, 1.0),
        (2.5, 0.5, 1.0),
        (0.5, 2.0000001, 1.0),
        (math.nan, 1.0, 1.0),
        (1.0, math.inf, 1.0),
        (1.0, 1.0, complex(1.0, math.nan)),
    ],
)
def test_validate_rejects(alpha, beta, mu):
    with pytest.raises(DomainError):
        validate_params(alpha, beta, mu)


def test_regime_is_pure_function_of_inputs():
    a = validate_params(0.7, 0.7, 0.5 + 0.3j)
    b = validate_params(0.7, 0.7, 0.5 + 0.3j)
    assert a == b


def test_contour_spec_rejects_bad_geometry():
    with pytest.raises(DomainError):
        ContourSpec(epsilon=0.0, theta=1.0)
    with pytest.raises(DomainError):
        ContourSpec(epsilon=1.0, theta=0.0)
    with pytest.raises(DomainError):
        ContourSpec(epsilon=1.0, theta=3.5)
    ContourSpec(epsilon=1.0, theta=math.pi)  # boundary angle is legal


def test_classify_region_examples():
    spec = ContourSpec(epsilon=0.5, theta=math.pi / 2)
    assert classify_region(2.0 + 0j, spec) is RegionLabel.OMEGA_PLUS
    assert classify_region(-1.0 + 0j, spec) is RegionLabel.OMEGA_MINUS
    # arc-ray junction point
    assert classify_region(0.5j, spec) is RegionLabel.ON_CONTOUR


def test_origin_and_disk_are_omega_minus():
    spec = ContourSpec(epsilon=0.5, theta=math.pi / 2)
    assert classify_region(0j, spec) is RegionLabel.OMEGA_MINUS
    assert classify_region(0.2 + 0.1j, spec) is RegionLabel.OMEGA_MINUS


def test_classification_conjugation_symmetric():
    rng = np.random.default_rng(7)
    spec = ContourSpec(epsilon=0.8, theta=2.0)
    for _ in range(200):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert classify_region(z, spec) is classify_region(z.conjugate(), spec)


def test_shrinking_delta_b_never_flips_sides():
    # a point may leave OnContour as delta_b shrinks, but an open-region
    # label must not jump to the other open region
    rng = np.random.default_rng(11)
    spec = ContourSpec(epsilon=1.0, theta=2.2)
    for _ in range(300):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        coarse = classify_region(z, spec, delta_b=1e-3)
        fine = classify_region(z, spec, delta_b=1e-4)
        if coarse is not RegionLabel.ON_CONTOUR:
            assert fine is coarse


def test_contour_distance_on_ray():
    spec = ContourSpec(epsilon=1.0, theta=math.pi / 2)
    # 3i sits on the upper ray
    assert contour_distance(3j, spec) == pytest.approx(0.0, abs=1e-15)
    assert contour_distance(3j + 0.25, spec) == pytest.approx(0.25)


def test_theta_window_nominal():
    p = validate_params(1.0, 1.0, 1.0)
    lo, hi = admissible_theta_window(p)
    assert lo == pytest.approx(math.pi / 2)
    assert hi == pytest.approx(math.pi)


def test_theta_window_thin_warns():
    p = validate_params(1.4, 1.4, 1.0)  # alpha*beta = 1.96
    with pytest.warns(ThinWindowWarning):
        admissible_theta_window(p)


def test_theta_window_empty_raises():
    p = validate_params(2.0, 1.0, 1.0)  # boundary regime, alpha*beta = 2
    with pytest.raises(GeometryError):
        admissible_theta_window(p)


def test_check_angle_window():
    p = validate_params(1.0, 1.0, 1.0)
    check_angle_window(ContourSpec(1.0, 3 * math.pi / 4), p)
    with pytest.raises(GeometryError):
        check_angle_window(ContourSpec(1.0, math.pi / 4), p)
