"""Keyhole-contour discretization and adaptive panel quadrature.

The contour is stored as one (P, 4) array of panel rows (r0, r1, phi0, phi1):
the panel is the path z = r e^{i phi} with r and phi both linear in the rule
abscissa, so a ray panel holds phi at -theta or +theta and an arc panel holds
r = eps.  Points, dz and splits are then the same formula for both kinds.

Each panel is evaluated with the 8- and 16-node Gauss-Legendre rules, 24
integrand evaluations (the rules share no nodes); the difference of the two
is the panel error estimate and the 16-node value is kept.  The initial
sweep evaluates every panel in one integrand call.  A sweep whose rounding
floor, EPS times the sum of the fine-rule terms' moduli, exceeds the
tolerance is rejected at once: no refinement can reach below it.  Each
refinement round then splits the fewest worst panels whose estimates add up
to the excess over the tolerance into four equal parts each, as many as the
node budget DEFAULT_NODE_BUDGET allows, again in one call, until the error
sum meets the tolerance or the budget runs out.  The integrands of interest
decay like exp(cos(theta*d) * r^d) along the rays, so ray panels are graded
by that law (see _ray_radii): each spans at most a factor 2 in r and at
most PANEL_NATS of the decay exponent.  Arc panels are uniform in angle.

integrate sizes the contour itself.  The truncation radius R solves
exp(cos(theta*d) * R^d) <= trunc_tol, starting from trunc_tol =
min(1e-16, tol/100); an a-posteriori tail estimate from the actual endpoint
magnitudes then catches the algebraic prefactors that solve ignores.  While
that estimate exceeds tol/10, trunc_tol shrinks (R grows), at most six
times; the last estimate is folded into the reported error, and
build_contour panelizes that final R as given.  Nothing is kept from one
call to the next.

theta = pi is a valid contour (circle plus the twice-passed negative axis).
The ray points are r exp(+-i pi), whose tiny imaginary residue places each
passage on the correct side of the principal branch cut, which is exactly
where the upper and lower passage belong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import EPS, ContourSpec, Evaluation
from .errors import GeometryError, QuadratureError

DEFAULT_NODE_BUDGET = 200_000

# Angular width per initial arc panel, before the decay-rate scaling.
_ARC_PANEL_ANGLE = math.pi / 8

# The most the decay exponent |cos(theta*d)| r^d may grow across one ray
# panel, and the least factor by which each ray panel grows r (which also
# floors R over eps).
PANEL_NATS = 8.0
_RAY_GROWTH_MIN = 1.05
_LN2 = math.log(2.0)

_GL_COARSE = np.polynomial.legendre.leggauss(8)
_GL_FINE = np.polynomial.legendre.leggauss(16)
# The abscissae of both rules, coarse first, mapped from [-1, 1] to [0, 1].
_T = 0.5 * (np.concatenate([_GL_COARSE[0], _GL_FINE[0]]) + 1.0)
_N_COARSE = len(_GL_COARSE[0])
_EVALS_PER_PANEL = len(_T)


@dataclass(frozen=True)
class IntegrandSpec:
    """Evaluation contract for a contour integrand.

    f maps an ndarray of contour points to integrand values; decay is the
    exponent d in the ray decay law exp(cos(theta*d) r^d).
    """

    f: Callable[[np.ndarray], np.ndarray]
    decay: float


def _ray_radii(eps: float, radius: float, c: float, decay: float) -> list[float]:
    """Ray panel breakpoints from eps to R for the decay law exp(-c r^decay).

    Each panel ends at the smaller of 2 r and the radius where c r^decay has
    grown by PANEL_NATS, but at least at _RAY_GROWTH_MIN r; the last one ends
    at R.  So a panel either doubles r or adds at least PANEL_NATS to
    c r^decay, and every panel grows r by _RAY_GROWTH_MIN: a ray has at most
    1 + min(log(R/eps) / log(_RAY_GROWTH_MIN),
    log2(R/eps) + c (R^decay - eps^decay) / PANEL_NATS) panels, and
    c R^decay is ln(1/trunc_tol) unless R is floored over eps.
    """
    log_nats = math.log(PANEL_NATS / c)

    def step(r: float) -> float:
        # c r'^decay = c r^decay + PANEL_NATS, solved in logs so that no power
        # of r overflows: log(r'/r) = log(1 + e^u) / decay
        u = log_nats - decay * math.log(r)
        grow = (max(u, 0.0) + math.log1p(math.exp(-abs(u)))) / decay
        return r * max(_RAY_GROWTH_MIN, math.exp(min(grow, _LN2)))

    rs = [eps]
    while (r := step(rs[-1])) < radius:
        rs.append(r)
    rs.append(radius)
    return rs


def _truncation_radius(spec: ContourSpec, decay: float, trunc_tol: float) -> float:
    """R with exp(cos(theta*decay) * R^decay) = trunc_tol, at least
    _RAY_GROWTH_MIN eps (one ray panel).

    Raises GeometryError when cos(theta*decay) >= 0 (no ray decay, the
    truncation radius would not exist).
    """
    if decay <= 0:
        raise GeometryError(f"decay exponent must be positive, got {decay}")
    c = math.cos(spec.theta * decay)
    if c >= 0:
        raise GeometryError(
            f"cos(theta*decay) = {c:.6f} >= 0: integrand does not decay on the rays"
        )
    if not (0 < trunc_tol < 1):
        raise GeometryError(f"trunc_tol must lie in (0, 1), got {trunc_tol}")
    radius = (math.log(1.0 / trunc_tol) / -c) ** (1.0 / decay)
    return max(radius, _RAY_GROWTH_MIN * spec.epsilon)


def _nodes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and path factors 0.5 dz/dt of panel rows, one row each: the
    abscissae _T of both rules on the panel's path t -> r e^{i phi}."""
    r0, r1, phi0, phi1 = rows.T[:, :, None]
    dr, dphi = r1 - r0, phi1 - phi0
    e = np.exp(1j * (phi0 + _T * dphi))
    z = (r0 + _T * dr) * e
    return z, 0.5 * (dr * e + 1j * dphi * z)


def build_contour(spec: ContourSpec, decay: float, radius: float) -> np.ndarray:
    """Panel rows (r0, r1, phi0, phi1) of gamma(eps; theta) truncated at
    radius, in path order, for an integrand of given decay (radius from
    _truncation_radius, which rejects a contour whose rays do not decay)."""
    eps, theta = spec.epsilon, spec.theta
    rs = _ray_radii(eps, radius, -math.cos(theta * decay), decay)
    n_arc = max(4, math.ceil(theta * (1.0 + abs(decay)) / _ARC_PANEL_ANGLE))
    phis = np.linspace(-theta, theta, n_arc + 1)
    rows = (
        # incoming ray, from R e^{-i theta} down to eps e^{-i theta}
        [(r_out, r_in, -theta, -theta) for r_out, r_in in zip(rs[::-1], rs[-2::-1])]
        # arc from -theta to +theta
        + [(eps, eps, p0, p1) for p0, p1 in zip(phis[:-1], phis[1:])]
        # outgoing ray, from eps e^{i theta} up to R e^{i theta}
        + [(r_in, r_out, theta, theta) for r_in, r_out in zip(rs[:-1], rs[1:])]
    )
    return np.array(rows, dtype=float)


def _eval_nodes(
    z: np.ndarray, path: np.ndarray, f: Callable
) -> tuple[np.ndarray, np.ndarray, float]:
    """Fine-rule values and |fine - coarse| estimates of the panels with
    these nodes and path factors, and the sum of the fine-rule terms'
    moduli, from one call of f on all the nodes."""
    # integrate rejects an overflowing integrand by its non-finite estimate
    with np.errstate(over="ignore", invalid="ignore"):
        g = f(z) * path
        coarse = np.sum(g[:, :_N_COARSE] * _GL_COARSE[1], axis=1)
        terms = g[:, _N_COARSE:] * _GL_FINE[1]
        fine = np.sum(terms, axis=1)
        return fine, np.abs(fine - coarse), float(np.abs(terms).sum())


def _tail_estimate(spec: ContourSpec, decay: float, radius: float, f: Callable) -> float:
    """A-posteriori bound on the two discarded ray tails beyond radius."""
    c = abs(math.cos(spec.theta * decay))
    ends = radius * np.exp(np.array([1j * spec.theta, -1j * spec.theta]))
    # as in _eval_nodes: an overflowing integrand gives a non-finite tail,
    # which integrate rejects
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.abs(f(ends))
    scale = radius ** (1.0 - decay) / (decay * c)
    return float(np.sum(mags) * scale)


def integrate(spec: ContourSpec, integrand: IntegrandSpec, tol: float) -> Evaluation:
    """Adaptive quadrature of integrand.f over gamma(eps; theta), sized for tol.

    Returns the raw contour integral (no 1/(2 pi i) normalization) with an
    error estimate combining panel estimates and the truncation tail.
    Raises GeometryError (from _truncation_radius) before any node is evaluated
    when the rays do not decay, and QuadratureError as soon as a sweep meets
    a non-finite integrand value, when the initial sweep's rounding floor
    exceeds tol, or if the tolerance is unreachable within
    DEFAULT_NODE_BUDGET nodes.
    """
    f, decay = integrand.f, integrand.decay
    tt = min(1e-16, tol * 1e-2)
    radius = _truncation_radius(spec, decay, tt)
    tail = _tail_estimate(spec, decay, radius, f)
    for _ in range(6):
        if tail <= 0.1 * tol or tt <= 1e-290:
            break
        shrink = 0.1 * tol / tail if math.isfinite(tail) and tail > 0 else 0.0
        tt = max(1e-300, tt * min(0.5, shrink))
        radius = _truncation_radius(spec, decay, tt)
        tail = _tail_estimate(spec, decay, radius, f)

    rows = build_contour(spec, decay, radius)
    nodes_used = 2 + _EVALS_PER_PANEL * len(rows)
    if nodes_used > DEFAULT_NODE_BUDGET:
        raise QuadratureError(
            f"node budget {DEFAULT_NODE_BUDGET} exhausted during initial panel sweep"
        )
    vals, ests, moduli = _eval_nodes(*_nodes(rows), f)
    # the sum's rounding error is about EPS * moduli; refinement cannot go
    # below it (a non-finite sum is left to the check below)
    if tol < EPS * moduli < math.inf:
        raise QuadratureError(
            f"rounding floor {EPS * moduli:.3g} of the integrand's cancelling sum "
            f"exceeds tol {tol:.3g}"
        )
    while not (total_est := tail + float(np.sum(ests))) <= tol:
        # "not <=" lets in the inf or nan estimate of a non-finite node value
        if not math.isfinite(total_est):
            raise QuadratureError(
                f"integrand is not finite on the contour (error estimate {total_est:.3g})"
            )
        affordable = (DEFAULT_NODE_BUDGET - nodes_used) // (4 * _EVALS_PER_PANEL)
        if affordable < 1:
            raise QuadratureError(
                f"estimated error {total_est:.3g} > tol {tol:.3g} with node "
                f"budget {DEFAULT_NODE_BUDGET} exhausted ({nodes_used} nodes used)"
            )
        # the fewest worst panels whose estimates cover the excess over tol
        worst = np.argsort(-ests)
        need = np.searchsorted(np.cumsum(ests[worst]), total_est - tol) + 1
        split = worst[: min(need, affordable)]
        # each split row becomes four: columns 0::2 are the starts (r0, phi0),
        # 1::2 the ends (r1, phi1), and the cuts keep both ends to the bit
        start, end = rows[split, 0::2], rows[split, 1::2]
        cuts = [(1.0 - t) * start + t * end for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        quarters = np.empty((4, len(split), 4))
        quarters[:, :, 0::2], quarters[:, :, 1::2] = cuts[:-1], cuts[1:]
        quarters = quarters.reshape(-1, 4)
        q_vals, q_ests, _ = _eval_nodes(*_nodes(quarters), f)
        nodes_used += _EVALS_PER_PANEL * len(quarters)
        rows = np.concatenate([np.delete(rows, split, axis=0), quarters])
        vals = np.concatenate([np.delete(vals, split), q_vals])
        ests = np.concatenate([np.delete(ests, split), q_ests])

    return Evaluation(value=complex(np.sum(vals)), est_error=total_est, method="quadrature")
