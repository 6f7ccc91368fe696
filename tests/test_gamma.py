"""Reciprocal gamma kernel and its contour-integral cross-check."""

import math

import numpy as np
import pytest
from mpmath import mp

from ml2v.core import ContourSpec
from ml2v.errors import GeometryError
from ml2v.gamma import recip_gamma, recip_gamma_hankel


def test_exact_values():
    assert recip_gamma(1.0) == pytest.approx(1.0, abs=1e-14)
    assert recip_gamma(2.0) == pytest.approx(1.0, abs=1e-14)
    assert recip_gamma(4.0) == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert recip_gamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)


def test_zeros_at_nonpositive_integers():
    assert recip_gamma(0.0) == 0.0
    assert recip_gamma(-1.0) == 0.0
    assert recip_gamma(-7.0) == 0.0
    # within the snap window
    assert recip_gamma(-2.0 + 1e-13) == 0.0
    # just outside: small but nonzero
    v = recip_gamma(-2.0 + 1e-9)
    assert v != 0.0
    assert abs(v) < 1e-8


def test_real_overflow_is_a_real_infinity():
    # the reflection must not leave nan in Im where a real 1/Gamma overflows
    for s in (-171.3, -200.3):
        got = recip_gamma(s)
        assert got.imag == 0.0
        with mp.workdps(40):
            sign = float(mp.sign(mp.rgamma(s)))
        assert got.real == math.copysign(math.inf, sign)
    got = recip_gamma(np.array([-171.3, -200.3, 3.0]))
    assert got[:2].tolist() == [math.inf, -math.inf]
    assert got[2] == pytest.approx(0.5, rel=1e-13)


def test_complex_overflow_has_no_nan():
    # a non-real argument whose 1/Gamma overflows gets infinite parts signed
    # by the phase of 1/Gamma, not nan from multiplying infinities
    for s in (-171.3 + 0.1j, -171.3 - 0.1j, -200.7 + 3j):
        with mp.workdps(40):
            phase = float(mp.arg(mp.rgamma(mp.mpc(s))))
        want = complex(math.copysign(math.inf, math.cos(phase)),
                       math.copysign(math.inf, math.sin(phase)))
        assert recip_gamma(s) == want
    got = recip_gamma(np.array([-171.3 + 0.1j, -171.3, 2.5 + 1j]))
    assert not np.isnan(got).any()
    assert got[1] == math.inf and got[1].imag == 0.0
    assert got[2] == pytest.approx(recip_gamma(2.5 + 1j), rel=1e-15)


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(11)
    s = rng.uniform(-6, 6, 50) + 1j * rng.uniform(-4, 4, 50)
    vec = recip_gamma(s)
    for i, si in enumerate(s):
        assert vec[i] == recip_gamma(complex(si))


def test_accuracy_vs_reference_grid():
    rng = np.random.default_rng(7)
    pts = [complex(rng.uniform(-30, 30), rng.uniform(-20, 20)) for _ in range(200)]
    pts += [complex(re, im) for re in np.linspace(-3, 4, 8) for im in np.linspace(-2, 2, 5)]
    target = 1e-12
    for s in pts:
        with mp.workdps(40):
            ref = complex(mp.rgamma(mp.mpc(s)))
        if abs(ref) < 1e-250:
            continue
        assert abs(recip_gamma(s) - ref) <= target * abs(ref), f"s={s}"


def test_reflection_identity():
    # 1/Gamma(s) * 1/Gamma(1-s) = sin(pi s)/pi
    rng = np.random.default_rng(3)
    tol = 1e-12
    for _ in range(100):
        s = complex(rng.uniform(-8, 8), rng.uniform(-5, 5))
        lhs = recip_gamma(s) * recip_gamma(1.0 - s)
        with mp.workdps(40):
            rhs = complex(mp.sinpi(mp.mpc(s)) / mp.pi)
        assert abs(lhs - rhs) <= tol * max(1.0, abs(rhs))


def test_recurrence_identity():
    # 1/Gamma(s) = s * 1/Gamma(s+1)
    rng = np.random.default_rng(5)
    tol = 1e-12
    for _ in range(100):
        s = complex(rng.uniform(-8, 8), rng.uniform(-5, 5))
        lhs = recip_gamma(s)
        rhs = s * recip_gamma(s + 1.0)
        assert abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs))


def test_hankel_route_grid(assert_suite_passes):
    # 20-point grid spanning both half-planes, tolerance 1e-8
    assert_suite_passes("gamma")


def test_hankel_default_and_full_angle():
    with mp.workdps(40):
        ref = complex(mp.rgamma(2.5))
    assert abs(recip_gamma_hankel(2.5, tol=1e-9) - ref) <= 1e-9
    got = recip_gamma_hankel(2.5, ContourSpec(1.0, math.pi), tol=1e-9)
    assert abs(got - ref) <= 1e-9


def test_hankel_requires_decaying_rays():
    with pytest.raises(GeometryError):
        recip_gamma_hankel(1.0, ContourSpec(1.0, math.pi / 2))
