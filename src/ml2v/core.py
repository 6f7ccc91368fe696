"""Parameter domain, contour geometry, and region classification.

The function under study is

    E(x, y) = sum_{n,m >= 0} x^n y^m / Gamma(alpha*n + beta*m + mu),

entire in (x, y) for alpha, beta > 0.  Everything downstream (series windows,
contour angles, region splits) is driven by the small amount of geometry
defined here: the keyhole contour gamma(eps; theta) made of two rays at
arg = +-theta and the arc of radius eps joining them, oriented by
non-decreasing argument, and the two regions it separates.  Omega+ is the
open wedge |arg z| < theta outside the arc; Omega- is everything else,
including the open disk |z| < eps.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, GeometryError, ThinWindowWarning

# Machine epsilon of a double: the unit of every rounding allowance.
EPS = sys.float_info.epsilon

# Admissible angle window narrower than this fraction of its upper edge
# triggers ThinWindowWarning (alpha*beta near 2 squeezes the window shut).
THIN_WINDOW_FRACTION = 0.05

# Default classification tolerance: delta_b = DELTA_B_REL * max(1, |point|).
DELTA_B_REL = 1e-9


class RegionLabel(Enum):
    OMEGA_PLUS = "omega+"
    OMEGA_MINUS = "omega-"
    ON_CONTOUR = "on-contour"


@dataclass(frozen=True, slots=True)
class Parameters:
    """Validated (alpha, beta, mu) triple; build via validate_params."""

    alpha: float
    beta: float
    mu: complex


@dataclass(frozen=True)
class Evaluation:
    """A certified value with its absolute error estimate and the method
    that made it.

    Both value and est_error are finite: a route that cannot certify a
    value raises a NumericFailure instead of building an Evaluation.
    """

    value: complex
    est_error: float
    method: str

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.value) and 0 <= self.est_error < math.inf):
            raise ValueError(
                f"an Evaluation needs a finite value and a finite nonnegative "
                f"est_error, got {self.value!r} and {self.est_error!r}"
            )


@dataclass(frozen=True)
class ContourSpec:
    """Keyhole contour gamma(eps; theta): rays at arg = +-theta, arc radius eps.

    theta = pi is allowed and means the circle plus the twice-passed negative
    half-axis (upper passage at arg +pi, lower at arg -pi).
    """

    epsilon: float
    theta: float

    def __post_init__(self) -> None:
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise DomainError(f"contour radius must be positive, got {self.epsilon}")
        if not (0.0 < self.theta <= math.pi):
            raise DomainError(f"contour angle must lie in (0, pi], got {self.theta}")


def validate_params(alpha: float, beta: float, mu: complex) -> Parameters:
    """Validate orders and offset, returning Parameters.

    Raises DomainError for a non-finite value and for alpha or beta outside
    (0, 2].  Every finite mu is accepted, and so is alpha*beta >= 2: E is
    entire for all of them.  A route that cannot reach such parameters (the
    keyhole and the asymptotics need alpha*beta < 2 for their angle window)
    raises a NumericFailure there.
    """
    alpha = float(alpha)
    beta = float(beta)
    mu = complex(mu)
    if not (math.isfinite(alpha) and math.isfinite(beta) and cmath.isfinite(mu)):
        raise DomainError("parameters must be finite")
    if alpha <= 0 or beta <= 0:
        raise DomainError(f"orders must be positive, got alpha={alpha}, beta={beta}")
    if alpha > 2 or beta > 2:
        raise DomainError(f"orders above 2 unsupported, got alpha={alpha}, beta={beta}")
    return Parameters(alpha, beta, mu)


def finite(**args: complex) -> tuple[complex, ...]:
    """The named arguments as complex numbers, in order; raises DomainError
    unless every one is finite."""
    zs = tuple(map(complex, args.values()))
    if all(map(cmath.isfinite, zs)):
        return zs
    got = ", ".join(f"{name}={z}" for name, z in zip(args, zs))
    raise DomainError(f"{' and '.join(args)} must be finite, got {got}")


def check_tol(tol: float) -> None:
    """Raise DomainError unless tol is positive and finite."""
    if not (tol > 0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol}")


def admissible_theta_window(params: Parameters, warn: bool = True) -> tuple[float, float]:
    """Open-closed interval (lo, hi] of contour angles with integrand decay.

    lo = pi*alpha*beta/2 (decay requires cos(theta/(alpha*beta)) < 0),
    hi = min(pi, pi*alpha*beta) (principal branch plus theta <= pi).
    Raises GeometryError when empty; warns ThinWindowWarning when thin.
    """
    ab = params.alpha * params.beta
    lo = 0.5 * math.pi * ab
    hi = min(math.pi, math.pi * ab)
    if hi <= lo:
        raise GeometryError(
            f"no admissible contour angle: alpha*beta = {ab} leaves ({lo}, {hi}] empty"
        )
    if warn and (hi - lo) < THIN_WINDOW_FRACTION * hi:
        warnings.warn(
            f"admissible angle window ({lo:.6f}, {hi:.6f}] is thin "
            f"(alpha*beta = {ab:.4f} near 2)",
            ThinWindowWarning,
            stacklevel=2,
        )
    return lo, hi


def angle_window(params: Parameters) -> tuple[float, float, float]:
    """The admissible window (lo, hi] and the default angle inside it.

    The default sits just below hi, where the rays decay fastest, or at the
    midpoint when the window is too thin for that.  Raises GeometryError
    when the window is empty.
    """
    lo, hi = admissible_theta_window(params, warn=False)
    theta = hi * (1.0 - 1e-3)
    if theta <= lo:
        theta = 0.5 * (lo + hi)
    return lo, hi, theta


def check_angle_window(contour: ContourSpec, params: Parameters) -> None:
    """Raise GeometryError unless the contour angle sits in the admissible window."""
    lo, hi = admissible_theta_window(params, warn=False)
    if not (lo < contour.theta <= hi):
        raise GeometryError(
            f"contour angle {contour.theta:.6f} outside admissible window "
            f"({lo:.6f}, {hi:.6f}] for alpha*beta = {params.alpha * params.beta}"
        )


def contour_distance(point: complex, contour: ContourSpec) -> float:
    """Euclidean distance from a point to the contour's three pieces."""
    eps, th = contour.epsilon, contour.theta
    p = complex(point)
    ph = cmath.phase(p)
    # arc of radius eps spanning |arg| <= theta
    if abs(ph) <= th:
        d = abs(abs(p) - eps)
    else:
        d = min(
            abs(p - eps * cmath.exp(1j * th)),
            abs(p - eps * cmath.exp(-1j * th)),
        )
    # the two rays {r e^{+-i theta} : r >= eps}
    for sgn in (1.0, -1.0):
        q = p * cmath.exp(-1j * sgn * th)
        if q.real >= eps:
            d = min(d, abs(q.imag))
        else:
            d = min(d, abs(q - eps))
    return d


def place_point(
    point: complex, contour: ContourSpec, delta_b: float | None = None
) -> tuple[RegionLabel, float]:
    """classify_region's label of a point, with the contour_distance it read."""
    p = complex(point)
    if delta_b is None:
        delta_b = DELTA_B_REL * max(1.0, abs(p))
    d = contour_distance(p, contour)
    if d <= delta_b:
        return RegionLabel.ON_CONTOUR, d
    if abs(cmath.phase(p)) < contour.theta and abs(p) > contour.epsilon:
        return RegionLabel.OMEGA_PLUS, d
    return RegionLabel.OMEGA_MINUS, d


def classify_region(
    point: complex, contour: ContourSpec, delta_b: float | None = None
) -> RegionLabel:
    """Classify a point as Omega+, Omega-, or on-contour within delta_b.

    delta_b defaults to DELTA_B_REL * max(1, |point|).  Omega+ is the wedge
    |arg point| < theta with |point| > eps; Omega- is the complement
    (including the open disk |point| < eps).
    """
    return place_point(point, contour, delta_b)[0]
