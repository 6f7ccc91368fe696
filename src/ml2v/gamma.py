"""Reciprocal gamma: rational-kernel evaluation and the Hankel-contour route.

recip_gamma is the workhorse used by every series and asymptotic sum; it is
entire, vectorized, and returns exact zeros at the non-positive integers.
recip_gamma_hankel recomputes 1/Gamma(s) as the contour integral

    1/Gamma(s) = (1/(2 pi i)) * integral over gamma(eps; theta) of e^u u^(-s) du

with the principal branch of u^(-s); it exists purely as an independent
cross-check of the contour machinery against the direct kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .contour import IntegrandSpec, integrate
from .core import ContourSpec, check_positive, finite

# Classic 9-term rational kernel, g = 7.  Certified against a 50-digit
# reference during development: relative error stays below ~2e-13 on
# |Re s| <= 170, well under every tolerance used downstream.
_KERNEL_G = 7.0
_KERNEL = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)

# Arguments within this window of a non-positive integer snap to the exact
# zero of 1/Gamma.
POLE_SNAP = 1e-12


def _sinpi(z: np.ndarray) -> np.ndarray:
    """sin(pi z) with exact integer argument reduction.

    Direct np.sin(pi*z) loses relative accuracy near the zeros because pi*n
    rounds; splitting off the nearest integer keeps small residuals exact.
    """
    n = np.round(z.real)
    r = z - n
    sign = np.where(np.mod(n, 2.0) == 0.0, 1.0, -1.0)
    return sign * np.sin(np.pi * r)


def _kernel_loggamma(z: np.ndarray) -> np.ndarray:
    """log Gamma(z) for Re z >= 0.5 via the rational kernel.

    Working in logs lets huge arguments underflow or overflow cleanly in the
    final exp instead of producing inf*0 artifacts mid-formula.
    """
    w = z - 1.0
    acc = np.full_like(w, _KERNEL[0])
    for i in range(1, len(_KERNEL)):
        acc = acc + _KERNEL[i] / (w + i)
    t = w + _KERNEL_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (w + 0.5) * np.log(t) - t + np.log(acc)


def _reflection(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reflection split shared by recip_gamma and log_recip_gamma.

    Returns the mask Re z < 1/2, sin(pi z)/pi on it (1 elsewhere), and
    log Gamma of 1 - z on it (of z elsewhere), so that 1/Gamma(z) is
    sine * exp(lg) on the mask and exp(-lg) off it.
    """
    refl = z.real < 0.5
    with np.errstate(all="ignore"):
        # Series blocks mostly lie right of 1/2: skip the sine when none reflects.
        sine = np.where(refl, _sinpi(z) / math.pi, 1.0) if refl.any() else np.ones_like(z)
        return refl, sine, _kernel_loggamma(np.where(refl, 1.0 - z, z))


def _at_poles(z: np.ndarray) -> np.ndarray:
    """Arguments within POLE_SNAP of a non-positive integer."""
    n = np.round(z.real)
    return (np.abs(z - n) < POLE_SNAP) & (n <= 0)


def recip_gamma(s):
    """1/Gamma(s) for complex s (scalar or ndarray), entire in s.

    Non-positive integer arguments (within POLE_SNAP) return exactly 0.
    Re s < 1/2 goes through the reflection sin(pi s) Gamma(1-s) / pi with
    reduced sine, so near-pole arguments keep full relative accuracy.
    """
    arr = np.asarray(s, dtype=complex)
    z = np.atleast_1d(arr)
    refl, sine, lg = _reflection(z)
    # Select rather than multiply by sine everywhere: 1 * w turns -0j into +0j.
    with np.errstate(all="ignore"):
        w = np.exp(np.where(refl, lg, -lg))
        out = np.where(refl, sine * w, w)
        # Where 1/Gamma overflows, sine * w multiplies infinities into a nan
        # part: redo those as exp(log sine + lg), a real infinity for real s.
        bad = refl & np.isnan(out)
        if bad.any():
            big = np.exp(np.log(sine + 0j) + lg)
            out = np.where(bad, np.where(z.imag == 0, big.real + 0j, big), out)
    out = np.where(_at_poles(z), 0.0, out)
    return complex(out[0]) if arr.ndim == 0 else out


def log_recip_gamma(s):
    """log(1/Gamma(s)) as a complex number: Re = log magnitude, Im = a phase.

    Never under- or overflows for finite s; the magnitude part is exactly
    -inf at the poles of Gamma.  The phase is only meaningful modulo 2 pi.
    Used where |1/Gamma| spans more than the double exponent range.
    """
    arr = np.asarray(s, dtype=complex)
    z = np.atleast_1d(arr)
    refl, sine, lg = _reflection(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(refl, np.log(sine + 0j) + lg, -lg)
    out = np.where(_at_poles(z), complex(-math.inf, 0.0), out)
    return complex(out[0]) if arr.ndim == 0 else out


def recip_gamma_hankel(
    s: complex,
    contour: ContourSpec | None = None,
    tol: float = 1e-9,
) -> complex:
    """1/Gamma(s) via the Hankel contour integral, principal branch of u^(-s).

    Requires theta > pi/2 so e^u decays on the rays.  Raises DomainError
    for a non-finite s or a tol that is not positive and finite,
    GeometryError when theta <= pi/2 and QuadratureError when tol is
    unreachable within the node budget, both from the quadrature layer.
    """
    (s,) = finite(s=s)
    check_positive("tol", tol)
    if contour is None:
        contour = ContourSpec(epsilon=1.0, theta=3.0 * math.pi / 4.0)
    integrand = IntegrandSpec(f=lambda u: np.exp(u) * u ** (-s), decay=1.0)
    ev = integrate(contour, integrand, tol=tol * 2.0 * math.pi * 0.9)
    return complex(ev.value / (2j * math.pi))
