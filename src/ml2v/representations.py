"""Contour-integral evaluation of E(x, y) with residue corrections.

The keyhole routes evaluate one contour integral

    I = (1/(2 pi i alpha beta)) * integral over gamma(eps; theta) of
        exp(zeta^(1/(alpha beta))) * zeta^((1+alpha+beta-mu)/(alpha beta) - 1)
        / ((zeta^(1/beta) - x) * (zeta^(1/alpha) - y)) dzeta

and differs only in which residue terms join it.  The factor zeta^(1/beta)
is not injective on the cut plane when beta < 1, so the x denominator can
vanish at several preimages |x|^beta * exp(i*beta*(arg x + 2 pi k)), one per
integer k that keeps the angle inside (-pi, pi]; likewise for y with alpha.
Every preimage that lies in the outer wedge Omega+ contributes its residue.
eval_with_contour evaluates all four placements and tags each with its
route: lemma1 (no residues), lemma2 (y residues), remark1 (x residues) or
lemma3 (both), the public naming used across the CLI.  Given route=, it
requires that placement.

eval_hyperbola evaluates the same integral in s = zeta^(1/(alpha beta)),
where it is a Bromwich integral, by the trapezoidal rule on one fixed
hyperbola shared by every point, plus a closed-form correction per pole
of the cut plane that weighs its residue by the pole's place against the
contour; no region is classified and no contour is chosen per point.

eval_auto sends both arguments in the unit disk to the double series and
every other point to eval_hyperbola, and a point the hyperbola fails back
to the series, and raises BudgetExceeded rather than return a value that
misses tol.  It uses neither the keyhole nor the asymptotic expansions:
choose_contour, eval_with_contour and asymptotics.eval_asymptotic stay as
independent checks of it, where alpha*beta < 2 leaves them an angle window;
the hyperbola needs none.
eval_many and hyperbola_many take many points of one Parameters: the
hyperbola's nodes do not depend on (x, y), so its points are one (points x
nodes) product; eval_auto and eval_hyperbola are their one-point calls.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .contour import IntegrandSpec, integrate
from .core import (
    EPS,
    ContourSpec,
    Evaluation,
    Parameters,
    RegionLabel,
    angle_window,
    check_angle_window,
    check_positive,
    contour_distance,
    finite,
    place_point,
)
from .errors import (
    BudgetExceeded,
    DegenerateDenominator,
    DomainError,
    NumericFailure,
    PoleProximityError,
    RegionError,
)
from .series import SeriesBudget, eval_double_series

# Residue denominators smaller than this relative floor abort the
# representation in favor of the series.
DEGENERACY_FLOOR_REL = 1e-6

# Pole images closer to the contour than this fraction of the arc radius
# abort the quadrature rather than degrade it.
POLE_FLOOR_REL = 1e-3

# Residue exponents are built in long double; EPS_LD is its epsilon on
# this platform (EPS itself where long double is a plain double).
_LD, _CLD = np.longdouble, np.clongdouble
EPS_LD = float(np.finfo(_LD).eps)
_TWO_PI_I = 2j * np.arctan2(_LD(0.0), _LD(-1.0))

# The smallest normal double: below it, x^2 + y^2 loses digits (see _point_free).
_TINY = float(np.finfo(float).tiny)

# eval_auto sends a point with |x|, |y| <= SERIES_RADIUS to the series.
SERIES_RADIUS = 1.0

# choose_contour aims for at least this contour clearance per pole image,
# relative to max(1, |image|).
_CLEARANCE_TARGET = 0.05
_EPSILON_LADDER = (1.0, 0.5, 2.0, 0.25, 4.0, 0.1, 8.0, 0.04)


def _image_radius(w: complex, power: float) -> float:
    """|w|^power, the modulus of w's pole images; BudgetExceeded where it
    overflows a double (the images are out of a route's reach, not bad
    input)."""
    try:
        return abs(w) ** power
    except OverflowError:
        raise BudgetExceeded(f"the pole images of {w:.6g} overflow a double") from None


def sector_images(
    w: complex, power: float, tau1: float, reach: float
) -> tuple[tuple[complex, ...], list[int]]:
    """One pass over the pole images of w, at angles power * (arg w + 2 pi k):
    those inside the sector -pi < angle, |angle| <= tau1, and the branches k
    of those with tau1 < |angle| < tau1 + reach (the images the asymptotic
    expansion drops, on this sheet or the next).  Raises BudgetExceeded
    where the images overflow a double."""
    ph = cmath.phase(w)
    r = _image_radius(w, power)
    span = (tau1 + reach) / power
    inside, dropped = [], []
    for k in range(math.floor((-span - ph) / (2.0 * math.pi)),
                   math.ceil((span - ph) / (2.0 * math.pi)) + 1):
        ang = power * (ph + 2.0 * math.pi * k)
        if -math.pi < ang and abs(ang) <= tau1:
            inside.append(cmath.rect(r, ang))
        elif tau1 < abs(ang) < tau1 + reach:
            dropped.append(k)
    return tuple(inside), dropped


def pole_images(w: complex, power: float) -> tuple[complex, ...]:
    """All cut-plane solutions zeta of zeta^(1/power) = w: the images of
    sector_images with tau1 = pi.  For power >= 1 there is at most one; for
    power < 1 up to ceil(1/power) coexist, each a genuine pole of the
    integrand.  Raises DomainError for a non-finite w or a power that is
    not positive and finite, and BudgetExceeded where the images overflow
    a double."""
    (w,) = finite(w=w)
    check_positive("power", power)
    if w == 0:
        return (0j,)
    return sector_images(w, power, math.pi, 0.0)[0]


def _multiplied_out(e: complex) -> bool:
    """Whether numpy's complex power z**e multiplies z out: a real integer
    exponent below 100 in size."""
    return e.imag == 0 and e.real.is_integer() and abs(e.real) < 100


def _point_free(z: np.ndarray, params: Parameters) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(z^d) z^p, z^(1/beta) and z^(1/alpha): the integrand's factors that
    do not depend on (x, y).

    Each power z^e is exp(e log z) from one principal log per node,
    log z = log(x^2 + y^2)/2 + i arctan2(y, x).  The half log rounds closer
    than log(hypot(x, y)) near |z| = 1, where the arc of eps = 1 runs; where
    x^2 + y^2 falls below the smallest normal double (|z| < 1.5e-154, a tiny
    arc) it would lose digits or underflow to 0, so log|z| is taken there.
    arctan2 keeps the sign of a theta = pi node's imaginary part and so the
    side of the cut each passage belongs to.  A small integer power is left
    to numpy, which multiplies it out, cheaper and exact-er.
    """
    a, b = params.alpha, params.beta
    d = 1.0 / (a * b)
    p = (1.0 + a + b - params.mu) * d - 1.0
    log_z = None
    if not all(map(_multiplied_out, (d, p, 1.0 / b, 1.0 / a))):
        r2 = z.real * z.real + z.imag * z.imag
        tiny = r2 < _TINY
        log_z = 0.5 * np.log(np.where(tiny, 1.0, r2)) + 1j * np.arctan2(z.imag, z.real)
        log_z.real[tiny] = np.log(np.abs(z[tiny]))

    def power(e: complex) -> np.ndarray:
        return z**e if _multiplied_out(e) else np.exp(e * log_z)

    zd = power(d)
    ea = np.exp(zd) * z**p if _multiplied_out(p) else np.exp(zd + p * log_z)
    return ea, power(1.0 / b), power(1.0 / a)


def ml_integrand(x: complex, y: complex, params: Parameters) -> IntegrandSpec:
    """Integrand of the contour representation: the (x, y)-free factors of
    _point_free, one log per node, over the two denominators."""

    def f(z: np.ndarray) -> np.ndarray:
        ea, zb, za = _point_free(z, params)
        return ea / ((zb - x) * (za - y))

    return IntegrandSpec(f=f, decay=1.0 / (params.alpha * params.beta))


def _placement(
    w: complex, power: float, spec: ContourSpec
) -> tuple[RegionLabel, tuple[complex, ...], tuple[tuple[complex, float], ...]]:
    """Region label of w against spec (see classify_pair), those of its
    preimages that lie in Omega+, and every preimage with its distance to
    the contour, each measured once."""
    placed = [(img, *place_point(img, spec)) for img in pole_images(w, power)]
    inside = tuple(im for im, l, _ in placed if l is RegionLabel.OMEGA_PLUS)
    dists = tuple((im, d) for im, _, d in placed)
    if any(l is RegionLabel.ON_CONTOUR for _, l, _ in placed):
        return RegionLabel.ON_CONTOUR, inside, dists
    return (RegionLabel.OMEGA_PLUS if inside else RegionLabel.OMEGA_MINUS), inside, dists


def classify_pair(
    x: complex, y: complex, params: Parameters, spec: ContourSpec
) -> tuple[RegionLabel, RegionLabel]:
    """Region labels of x and y via their preimages against the contour.

    An argument is Omega+ when any of its preimages lies in the outer
    wedge, on-contour when any preimage is pinned on the contour within
    tolerance, and Omega- otherwise (including arguments whose phase keeps
    every preimage off the cut plane).  Raises DomainError for a non-finite
    x or y.
    """
    x, y = finite(x=x, y=y)
    return _placement(x, params.beta, spec)[0], _placement(y, params.alpha, spec)[0]


def residue_weight(image: complex, p_def: float, p_den: float) -> float:
    """Rounding weight W of the residue term t at image: |error| <= EPS * W * |t|.

    8 covers the final rounding to a double, the rest the long-double
    rounding of v, which exp(zeta^d) = exp(exp(v)) amplifies by |zeta^d|;
    inf where |zeta^d| overflows a double.  An image that underflowed to 0
    takes the floor: |zeta|^d (1 + d |log zeta|) -> 0 there.
    """
    if image == 0:
        return 8.0 + 16.0 * (EPS_LD / EPS)
    d = 1.0 / (p_def * p_den)
    try:
        zd_v = abs(image) ** d * (1.0 + d * abs(cmath.log(image)))
    except OverflowError:
        return math.inf
    return 8.0 + 16.0 * (EPS_LD / EPS) * (1.0 + zd_v)


def error_bound(base: float, weights: list[float], terms: list[complex]) -> float:
    """base + EPS * sum(w * |t|) over terms t with rounding weights w.

    Raises BudgetExceeded where a modulus overflows a double or the bound
    is not finite (inf - inf among overflowing terms makes it nan).
    """
    try:
        est = base + EPS * sum(w * abs(t) for w, t in zip(weights, terms))
    except OverflowError:
        est = math.inf
    if not math.isfinite(est):
        raise BudgetExceeded("no finite error bound: a term leaves the double range")
    return est


def _residue_terms(
    images: tuple[complex, ...],
    p_def: float,
    p_den: float,
    mu: complex,
    w_def: complex,
    w_den: complex,
) -> list[complex]:
    """Residues (see residue_terms_x) at the preimages images of w_def under
    zeta -> zeta^(1/p_def), with w_den in the other denominator."""
    k = [round((cmath.phase(z) / p_def - cmath.phase(w_def)) / (2.0 * math.pi)) for z in images]
    return branch_residues([(kk, p_def, p_den, w_def, w_den) for kk in k], mu)


def branch_residues(
    poles: list[tuple[int, float, float, complex, complex]], mu: complex
) -> list[complex]:
    """Residues at the poles (k, p_def, p_den, w_def, w_den), in one long-double
    pass: at zeta with log zeta = p_def (log w_def + 2 pi i k), one per branch
    k, on the cut plane or past it (the analytic continuation of the
    integrand across the cut), with w_den in the other denominator.  Raises
    DegenerateDenominator at the first pole, in list order, where
    zeta^(1/p_den) - w_den nearly vanishes.

    exp(zeta^d) amplifies rounding of its exponent by |zeta^d|, so nothing
    is rounded through the double images: with v = log(w_def on the image's
    branch) / p_den, zeta^d = exp(v), zeta^(1/p_den) = exp(p_def v) and
    zeta^(p+1) = exp((1 + p_def + p_den - mu) v), all in long double.
    """
    if not poles:
        return []
    with np.errstate(all="ignore"):
        residues, degenerate = _residue_pass(poles, mu)
    if degenerate:
        raise degenerate[min(degenerate)]
    return residues


def _residue_pass(
    poles: list[tuple[int, float, float, complex, complex]], mu: complex
) -> tuple[list[complex], dict[int, DegenerateDenominator]]:
    """branch_residues' terms, and the DegenerateDenominator of each
    degenerate pole by its index (that pole's term is meaningless); under
    the caller's np.errstate."""
    if not poles:
        return [], {}
    # one column per field; the real fields are exact as (value, 0)
    k, p_def, p_den, w_def, w_den = np.array(poles, dtype=_CLD).T
    v = (np.log(w_def) + _TWO_PI_I * k) / p_den
    root = np.exp(p_def * v)
    den = root - w_den
    c = 1.0 + p_def + p_den - mu
    degenerate = {}
    # a Python test per pole: below about ten poles it costs less than the
    # numpy calls of one vectorized test, and a grid block's 130 poles add
    # about 0.2 us per point; a root that overflows a double makes the floor
    # inf, which is no degeneracy
    for i, ((kk, pd, pn, wd, wn), g, r) in enumerate(
            zip(poles, den.astype(complex).tolist(), root.astype(complex).tolist())):
        if abs(g) <= DEGENERACY_FLOOR_REL * (1.0 + abs(r) + abs(wn)) < math.inf:
            degenerate[i] = DegenerateDenominator(
                f"pole on branch {kk} of zeta^(1/{pd:g}) = {wd:.6g}: "
                f"|zeta^(1/{pn:g}) - {wn:.6g}| = {abs(g):.3g} is inside "
                f"the degeneracy floor"
            )
    # the denominator joins the exponent: an overflow is a signed inf, not nan
    terms = np.exp(np.exp(v) + c * v - np.log(den * w_def * p_den)).astype(complex).tolist()
    return terms, degenerate


def residue_terms_x(
    x: complex, y: complex, params: Parameters, images: tuple[complex, ...]
) -> list[complex]:
    """Per-preimage residue contributions from the x denominator.

    At a preimage zeta with zeta^(1/beta) = x the residue of the
    normalized integral is exp(zeta^d) * zeta^(p+1) / (alpha * x *
    (zeta^(1/alpha) - y)); at the principal preimage this reduces to the
    closed form (1/alpha) exp(x^(1/alpha)) x^((1+beta-mu)/alpha) /
    (x^(beta/alpha) - y).  Built in long double from log x on zeta's branch,
    each term is within EPS * residue_weight(zeta, beta, alpha) * |term|.
    """
    return _residue_terms(images, params.beta, params.alpha, params.mu, x, y)


def residue_terms_y(
    x: complex, y: complex, params: Parameters, images: tuple[complex, ...]
) -> list[complex]:
    """Per-preimage residue contributions from the y denominator."""
    return _residue_terms(images, params.alpha, params.beta, params.mu, y, x)


def _contour_piece(
    x: complex, y: complex, params: Parameters, spec: ContourSpec, tol: float
) -> tuple[complex, float]:
    """The normalized contour integral and its absolute error estimate."""
    scale = 2.0 * math.pi * params.alpha * params.beta
    ev = integrate(spec, ml_integrand(x, y, params), tol=tol * scale * 0.9)
    return complex(ev.value / (1j * scale)), ev.est_error / scale


# Method tag of each (x, y) placement.
_ROUTES = {
    (RegionLabel.OMEGA_MINUS, RegionLabel.OMEGA_MINUS): "lemma1",
    (RegionLabel.OMEGA_MINUS, RegionLabel.OMEGA_PLUS): "lemma2",
    (RegionLabel.OMEGA_PLUS, RegionLabel.OMEGA_MINUS): "remark1",
    (RegionLabel.OMEGA_PLUS, RegionLabel.OMEGA_PLUS): "lemma3",
}


def eval_with_contour(
    x: complex,
    y: complex,
    params: Parameters,
    spec: ContourSpec,
    tol: float = 1e-8,
    route: str | None = None,
) -> Evaluation:
    """The contour integral plus the residues of every Omega+ preimage.

    route is the method tag of the placement the caller requires, or None
    to accept whichever holds.  Raises DomainError for a non-finite x or y,
    a tol that is not positive and finite or a route that is no method
    tag, GeometryError when spec's angle leaves the admissible
    window, RegionError when an image is pinned on the contour or the
    placement is not route's, DegenerateDenominator when a residue
    denominator collapses (which is how branch_residues sees an x- and a
    y-preimage in Omega+ coincide: the two simple poles then merge into a
    double pole the residue terms cannot represent), and
    PoleProximityError, before any integrand call, when a preimage lies
    within POLE_FLOOR_REL * eps of the contour (the distance _placement
    measured for the label).
    """
    x, y = finite(x=x, y=y)
    check_positive("tol", tol)
    if route is not None and route not in _ROUTES.values():
        raise DomainError(
            f"route must be one of {', '.join(_ROUTES.values())} or None, got {route!r}"
        )
    lx, x_in, x_dist = _placement(x, params.beta, spec)
    ly, y_in, y_dist = _placement(y, params.alpha, spec)
    pinned = RegionLabel.ON_CONTOUR in (lx, ly)
    # with no route required, a pinned image is reported before the angle
    if route is not None or not pinned:
        check_angle_window(spec, params)
    if pinned:
        raise RegionError(
            f"{route or 'contour'}: an argument image lies on the contour "
            f"within tolerance"
        )
    found = _ROUTES[lx, ly]
    if route is not None and found != route:
        raise RegionError(
            f"{route} does not apply: (x, y) regions are "
            f"({lx.value}, {ly.value}), which call for {found}"
        )
    terms = (residue_terms_x(x, y, params, x_in) if x_in else []) + (
        residue_terms_y(x, y, params, y_in) if y_in else []
    )
    floor = POLE_FLOOR_REL * spec.epsilon
    for pole, dist in x_dist + y_dist:
        if dist < floor:
            raise PoleProximityError(
                f"pole {pole:.6g} sits {dist:.3g} from the contour "
                f"(floor {floor:.3g}); choose a different contour"
            )
    val, est = _contour_piece(x, y, params, spec, tol)
    if not terms:
        return Evaluation(val, est + 8.0 * EPS * abs(val), found)
    weights = [residue_weight(z, params.beta, params.alpha) for z in x_in]
    weights += [residue_weight(z, params.alpha, params.beta) for z in y_in]
    total = sum(terms) + val
    return Evaluation(total, error_bound(est, weights + [16.0], terms + [total]), found)


def choose_contour(x: complex, y: complex, params: Parameters) -> ContourSpec:
    """Default contour for (x, y): widest admissible angle, cleared radius.

    theta sits just inside the top of the admissible window (maximal ray
    decay); eps starts at 1 and walks a ladder until both pole images clear
    the contour by a relative margin, keeping the quadrature well away from
    the integrand's poles.  Raises DomainError for a non-finite x or y,
    GeometryError where alpha*beta >= 2 leaves the angle window empty, and
    BudgetExceeded where a pole image overflows a double.
    """
    x, y = finite(x=x, y=y)
    theta = angle_window(params)[2]
    images = [
        img
        for img in pole_images(x, params.beta) + pole_images(y, params.alpha)
        if img != 0
    ]
    best, best_clear = None, -1.0
    for eps in _EPSILON_LADDER:
        spec = ContourSpec(eps, theta)
        clear = min(
            (contour_clearance(img, spec) for img in images), default=math.inf
        )
        if clear >= _CLEARANCE_TARGET:
            return spec
        if clear > best_clear:
            best, best_clear = spec, clear
    # the first rung sets best: its clearance is at least 0
    return best


def contour_clearance(point: complex, spec: ContourSpec) -> float:
    """Distance from point to the contour, relative to max(1, |point|)."""
    return contour_distance(point, spec) / max(1.0, abs(point))


# The Bromwich contour of eval_hyperbola: s(u) = m (1 + sin(i u - phi)) at
# u = k h, k = -n..n, with Weideman & Trefethen's hyperbola parameters for
# t = 1 (Math. Comp. 76, 2007): h = 1.0818/n, m = 4.4921 n, phi = 1.1721.
# The sum at HYPERBOLA_N is the value and the one at HYPERBOLA_CHECK_N its
# error check.  n is fixed rather than raised with tol: the quadrature error
# falls like 3.2^-n, but rounding grows like exp(m (1 - sin phi)).
HYPERBOLA_N = 16
HYPERBOLA_CHECK_N = 12
_PHI = 1.1721


def _hyperbola(n: int) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Nodes s_k and weights h m cos(i u_k - phi) / (2 pi) of the n-rule,
    and its (2 pi / h, m) for _pole_weight."""
    h, m = 1.0818 / n, 4.4921 * n
    w = 1j * h * np.arange(-n, n + 1) - _PHI
    return m * (1.0 + np.sin(w)), h * m * np.cos(w) / (2.0 * math.pi), (2.0 * math.pi / h, m)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# Both rules' nodes in one array, the value rule's first, fixed at import and
# shared read-only by every point and every Parameters.
(_S_VAL, _W_VAL, _VALUE_RULE), (_S_CHK, _W_CHK, _CHECK_RULE) = (
    _hyperbola(n) for n in (HYPERBOLA_N, HYPERBOLA_CHECK_N)
)
_SPLIT = 2 * HYPERBOLA_N + 1
_HS = _read_only(np.concatenate([_S_VAL, _S_CHK]))
_HL = _read_only(np.log(_HS))
_HW = _read_only(np.concatenate([_W_VAL, _W_CHK]))
# 8 + |s_k| and |log s_k| over the value rule: its terms' rounding weights
_HS_WEIGHT = _read_only(8.0 + np.abs(_S_VAL))
_HL_ABS = _read_only(np.abs(_HL[:_SPLIT]))

# Distinct Parameters whose node tables eval_hyperbola keeps: perfbench's
# points workload returns to five Parameters between about six one-off ones
# per 16 points, and 32 entries keep 98% of its reachable hits where 16 keep
# 89%.
HYPERBOLA_MEMO_SIZE = 32


@functools.lru_cache(maxsize=HYPERBOLA_MEMO_SIZE)
def _hyperbola_tables(params: Parameters) -> tuple[np.ndarray, ...]:
    """Read-only factors of eval_hyperbola's terms that do not depend on
    (x, y): w_k exp(s_k + (alpha+beta-mu) log s_k), s_k^alpha and s_k^beta
    over both rules, and the value rule's rounding weights."""
    a, b = params.alpha, params.beta
    c = a + b - params.mu
    with np.errstate(all="ignore"):
        tables = (_HW * np.exp(_HS + c * _HL), np.exp(a * _HL), np.exp(b * _HL),
                  _HS_WEIGHT + abs(c) * _HL_ABS)
    return tuple(map(_read_only, tables))


def _pole_weight(s: complex, rule: tuple[float, float]) -> complex:
    """1/(1 - exp(-2 pi i u/h)) at the u with s(u) = s on the rule's hyperbola.

    The exponent is -(2 pi / h) (asin(s/m - 1) + phi), whose real part lies
    below (2 pi / h)(pi/2 - phi), about 37 at n = 16, for every s on the cut
    plane: the weight neither overflows nor loses a far-right residue.
    """
    k, m = rule
    return 1.0 / (1.0 - cmath.exp(-k * (cmath.asin(s / m - 1.0) + _PHI)))


def _branches(w: complex, power: float) -> list[int]:
    """The branches k of the poles s^power = w on the cut plane, those with
    |Im log s| = |arg w + 2 pi k| / power < pi (none for w = 0)."""
    if w == 0:
        return []
    ph, span = cmath.phase(w), power * math.pi
    return [
        k
        for k in range(math.ceil((-span - ph) / (2.0 * math.pi)),
                       math.floor((span - ph) / (2.0 * math.pi)) + 1)
        if abs(ph + 2.0 * math.pi * k) < span
    ]


# Points per pass of the hyperbola's batch code: a block's (points x nodes)
# arrays stay near a megabyte however long the sweep is.
HYPERBOLA_BLOCK = 256


def _hyperbola_block(
    pts: list[tuple[complex, complex]], params: Parameters, tol: float
) -> list[Evaluation | NumericFailure]:
    """eval_hyperbola at finite points, HYPERBOLA_BLOCK at a time: in each
    block every node sum is one (points x nodes) product and every pole is
    in one residue pass, and a degenerate pole fails only its own point."""
    if len(pts) > HYPERBOLA_BLOCK:
        return [r for lo in range(0, len(pts), HYPERBOLA_BLOCK)
                for r in _hyperbola_block(pts[lo:lo + HYPERBOLA_BLOCK], params, tol)]
    if not pts:
        return []
    a, b, mu = params.alpha, params.beta, params.mu
    num, s_a, s_b, weight = _hyperbola_tables(params)
    poles, ends = [], []
    for x, y in pts:
        poles += [(k, b, a, x, y) for k in _branches(x, a)]
        poles += [(k, a, b, y, x) for k in _branches(y, b)]
        ends.append(len(poles))
    with np.errstate(all="ignore"):
        residues, degenerate = _residue_pass(poles, mu)
        xy = np.array(pts, dtype=complex)
        # t = num / ((s_a - x) (s_b - y)), one row per point
        t = s_a - xy[:, :1]
        t *= s_b - xy[:, 1:]
        np.divide(num, t, out=t)
        # one dot product per row: its bits do not depend on the block
        roundings = np.vecdot(np.abs(t[:, :_SPLIT]), weight).tolist()
    values = np.add.reduce(t[:, :_SPLIT], axis=1).tolist()
    checks = np.add.reduce(t[:, _SPLIT:], axis=1).tolist()
    out: list[Evaluation | NumericFailure] = []
    lo = 0
    for (x, y), hi, value, check, rounding in zip(pts, ends, values, checks, roundings):
        try:
            if degenerate:
                for j in range(lo, hi):
                    if j in degenerate:
                        raise degenerate[j]
            out.append(_pole_corrected(x, y, tol, value, check, EPS * rounding,
                                       zip(poles[lo:hi], residues[lo:hi])))
        except NumericFailure as exc:
            out.append(exc)
        lo = hi
    return out


def _pole_corrected(
    x: complex, y: complex, tol: float, value: complex, check: complex, rounding: float, poles
) -> Evaluation:
    """One point of _hyperbola_block: its node sums value and check, each
    corrected by its poles' (pole, residue) pairs, and est_error (see
    eval_hyperbola)."""
    terms, weights = [], []
    try:
        for (k, _, p_den, w, _), r in poles:
            if r == 0:  # underflowed: it corrects nothing, whatever its weight
                continue
            s = cmath.exp((cmath.log(w) + 2j * math.pi * k) / p_den)
            term = r * _pole_weight(s, _VALUE_RULE)
            check += r * _pole_weight(s, _CHECK_RULE)
            value += term
            terms.append(term)
            # in s the exponent is exp(v) itself: residue_weight at unit orders
            weights.append(residue_weight(s, 1.0, 1.0))
    except (OverflowError, ZeroDivisionError):
        raise BudgetExceeded("a pole of the hyperbola's sum leaves the double range") from None
    if not (cmath.isfinite(value) and cmath.isfinite(check) and math.isfinite(rounding)):
        raise BudgetExceeded("the hyperbola's sum leaves the double range")
    est = error_bound(2.0 * abs(value - check) + rounding, weights, terms)
    if est > tol * max(1.0, abs(value)):
        raise BudgetExceeded(
            f"hyperbola: est_error {est:.3g} misses tol {tol:.3g} at x={x:.6g}, y={y:.6g}"
        )
    return Evaluation(value, est, "hyperbola")


def _batch(route, xs, ys, params: Parameters, tol: float) -> list:
    """route over the finite points (xs[i], ys[i]), with the DomainError
    finite raises in the slot of every other point.  Raises DomainError for
    a tol that is not positive and finite or for xs and ys of different
    lengths."""
    check_positive("tol", tol)
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        raise DomainError(f"xs and ys differ in length: {len(xs)} and {len(ys)}")
    out: list = []
    for x, y in zip(xs, ys):
        try:
            out.append(finite(x=x, y=y))
        except DomainError as exc:
            out.append(exc)
    todo = [i for i, p in enumerate(out) if isinstance(p, tuple)]
    for i, r in zip(todo, route([out[i] for i in todo], params, tol)):
        out[i] = r
    return out


def _one(route, x: complex, y: complex, params: Parameters, tol: float):
    """route at the one point (x, y): its Evaluation, or what it failed with raised."""
    x, y = finite(x=x, y=y)
    check_positive("tol", tol)
    (r,) = route([(x, y)], params, tol)
    if isinstance(r, Exception):
        raise r
    return r


def hyperbola_many(
    xs, ys, params: Parameters, tol: float = 1e-8
) -> list[Evaluation | NumericFailure | DomainError]:
    """eval_hyperbola at every point (xs[i], ys[i]), in input order: its
    Evaluation, or the NumericFailure or DomainError it raises there.  The
    points share one node table and are summed HYPERBOLA_BLOCK at a time;
    each result is bit-for-bit the one-point call's.  Raises DomainError for
    a tol that is not positive and finite or for xs and ys of different
    lengths."""
    return _batch(_hyperbola_block, xs, ys, params, tol)


def eval_hyperbola(x: complex, y: complex, params: Parameters, tol: float = 1e-8) -> Evaluation:
    """E(x, y) as the Bromwich integral of the paper's representations.

    With s = zeta^(1/(alpha beta)) the keyhole integral becomes
    E = (1/2 pi i) * integral of e^s s^(alpha+beta-mu) / ((s^alpha - x)(s^beta - y)) ds
    along any contour that leaves every pole on its left.  On the fixed
    hyperbola s(u) (see HYPERBOLA_N) the trapezoidal sum T misses each
    pole s_j of the cut plane (s_j^alpha = x or s_j^beta = y) by its residue
    R_j (branch_residues) times 1/(1 - exp(-2 pi i u_j / h)), u_j = s^-1(s_j):
    the full residue far right of the contour, none far left, and a
    continuous weight across it (Trefethen & Weideman, SIAM Rev. 56, 2014).
    The value is that corrected sum at HYPERBOLA_N; est_error adds twice its
    distance to the sum at HYPERBOLA_CHECK_N, the rounding EPS * |t_k| *
    (8 + |s_k| + |alpha+beta-mu| |log s_k|) of each term t_k, and
    residue_weight's rounding of each correction term.  The node factors
    that depend on params alone come from a memo of the last
    HYPERBOLA_MEMO_SIZE Parameters, and every R_j from one residue pass.
    This is hyperbola_many at one point: the bits are the same in any batch,
    and with or without the memo.

    Raises DomainError for a non-finite x or y or a tol that is not positive
    and finite, DegenerateDenominator where an x-pole and a y-pole nearly
    coincide (a double pole), and BudgetExceeded where a sum leaves the
    double range or est_error exceeds tol * max(1, |value|).
    """
    return _one(_hyperbola_block, x, y, params, tol)


def _uncertified(x: complex, y: complex, params: Parameters) -> str:
    return (f"no method certified a value at x={x:.6g}, y={y:.6g} "
            f"(alpha={params.alpha}, beta={params.beta})")


def _series(x: complex, y: complex, params: Parameters, tol: float) -> Evaluation:
    """The double series at tol min(tol, 1e-12), raising BudgetExceeded,
    with the Evaluation attached, where it misses tol * max(1, |value|)."""
    try:
        ev = eval_double_series(x, y, params, SeriesBudget(tol=min(tol, 1e-12)))
    except BudgetExceeded as exc:
        raise BudgetExceeded(_uncertified(x, y, params)) from exc
    if ev.est_error > tol * max(1.0, abs(ev.value)):
        raise BudgetExceeded(
            f"{_uncertified(x, y, params)}: the series' est_error {ev.est_error:.3g} "
            f"misses tol {tol:.3g}",
            evaluation=ev,
        )
    return ev


def _auto(
    pts: list[tuple[complex, complex]], params: Parameters, tol: float
) -> list[Evaluation | NumericFailure]:
    """eval_auto's routes at finite points: the series in the unit disk, one
    hyperbola pass over every other point, and the series for each point
    the hyperbola fails."""
    out: list = [None] * len(pts)
    far = [i for i, (x, y) in enumerate(pts) if max(abs(x), abs(y)) > SERIES_RADIUS]
    if far:
        for i, ev in zip(far, _hyperbola_block([pts[i] for i in far], params, tol)):
            out[i] = ev
    for i, ev in enumerate(out):
        if not isinstance(ev, Evaluation):
            try:
                out[i] = _series(*pts[i], params, tol)
            except NumericFailure as exc:
                out[i] = exc
    return out


def eval_many(
    xs, ys, params: Parameters, tol: float = 1e-8
) -> list[Evaluation | NumericFailure | DomainError]:
    """eval_auto at every point (xs[i], ys[i]), in input order: its
    Evaluation, or the NumericFailure or DomainError it raises there.

    Each point takes eval_auto's routes in eval_auto's order; the points
    outside the unit disk share one batched pass of the hyperbola
    (hyperbola_many).  Only a non-finite point gets a DomainError; every
    other failure is a NumericFailure.
    Each result is bit-for-bit eval_auto's.  Raises DomainError for a tol
    that is not positive and finite or for xs and ys of different lengths.
    """
    return _batch(_auto, xs, ys, params, tol)


def eval_auto(x: complex, y: complex, params: Parameters, tol: float = 1e-8) -> Evaluation:
    """Dispatch between the series and the hyperbola route.

    Small arguments (both within the unit disk) go straight to the series.
    Every other point goes to eval_hyperbola, and a point it fails back to
    the series.  A route that raises a NumericFailure hands the point on;
    any other exception propagates.
    This is eval_many at one point.  Raises DomainError for a non-finite
    argument or a tol that is not positive and finite, and BudgetExceeded
    where no route certifies a result (a value too large for a double
    included): where the last route, the series, returned a value whose
    est_error exceeds tol * max(1, |value|), the exception's evaluation
    holds it.  Every order pair validate_params accepts is served, alpha *
    beta >= 2 and boundary orders with Re(mu) <= 0 included: the hyperbola
    needs no angle window.
    """
    return _one(_auto, x, y, params, tol)
