"""Seeded inputs for the three benchmark workloads, and the defect probe.

Everything here is plain Python on ``random.Random``: the inputs depend on
the seed alone, never on the package under test, so two commits are always
measured on the same points.

The timed workloads are drawn so that no point fails on the package this
benchmark was written against: their arguments keep every pole image
outside EDGE_BAND of the top of the admissible angle window (where the
contour rays run), and ``large`` leaves out two parameter sets: (0.5, 0.8,
1), whose first large-argument call hangs in the asymptotic calibration,
and (1.2, 0.9, 1), where about 0.3% of ordinary large arguments miss their
reference by more than est_error (LARGE_DISHONEST).  These are known
defects, and they are not hidden: the *defect probe* (run with the traced
run, outside the timed runs) evaluates a fixed panel drawn from the same
distributions restricted to EDGE_BAND, and on ``large`` the cold first call
of every parameter set and the LARGE_DISHONEST points checked against their
references, and reports how many of them fail.  Inside the band the contour routes often spend their
whole node budget, and about a third of the points then fail after 0.5 to
1.5 s (uncertified series fallback, or BudgetExceeded); outside it no
failure was seen in 40 seeds of each workload.  At their natural weight the
band's failures take most of the time: of 1600 unstratified ``points``
inputs 4.75% failed, taking 93% of the time, and of 400 large arguments at
(0.5, 0.5) 10.75% raised BudgetExceeded.
"""

from __future__ import annotations

import cmath
import math
import random

TOL = 1e-8

GRID_PARAMS = (0.5, 0.8, 1 + 0j)
GRID_RADIUS = 8.0
# Samples per sweep along x and y.
GRID_X_COUNT = 10
GRID_Y_COUNT = 10

# Pole images within this angle of the top of the admissible window (where
# the contour rays run) are the edge stratum; see the module docstring.
# Measured failures reach 0.048 rad.
EDGE_BAND = 0.08
# Defect probe panel size in points (grid: one-point sweeps).
EDGE_PANEL = {"grid": 10, "points": 12, "large": 24}

POINTS_RADIUS = 4.0
# One cycle = every parameter stratum crossed with every argument stratum.
# Argument stratum 0 keeps both arguments in the unit disk (a quarter of all
# points); the other three spread them over 1 < |w| <= POINTS_RADIUS.
POINTS_PARAM_STRATA = ("equal-dyadic", "low-dyadic", "unequal", "complex-mu")
POINTS_ARG_STRATA = 4

LARGE_PARAMS = (
    (0.5, 0.5, 1 + 0j),
    (0.7, 0.7, 0.5 + 0.3j),
)
# The defect probe also covers the sets left out of the timed workload.
LARGE_PROBE_PARAMS = ((0.5, 0.8, 1 + 0j), (1.2, 0.9, 1 + 0j)) + LARGE_PARAMS
# (x, y) at (1.2, 0.9, 1) where the asymptotic route's error is more than
# its est_error plus the reference's own error.  The first came up in
# ``large`` at seed 601, when it still held this set; the 25-digit oracle
# confirms it (error 3.32e-6, est_error 3.23e-6).  The other two are the
# worst of four such points (ratios 1.02 to 1.33, against the second-contour
# reference of refs.py) in 1500 ordinary large arguments drawn like
# ``large``'s.  At (0.5, 0.5, 1) and (0.7, 0.7, 0.5+0.3i) no draw of 1500
# went above 0.51.
LARGE_DISHONEST = (
    ((-6.136594049682714, 18.21078306001843), (13.195190600664633, -44.826007360400716)),
    ((-17.087927510554113, -7.923649425585795), (18.33983364661026, -55.17562739608184)),
    ((-14.995428461622627, -10.570641722821842), (14.98448887874843, -54.574987437519965)),
)
LARGE_RMIN, LARGE_RMAX = 15.0, 80.0
# Residue exponents above this real part overflow a double (e^709); points
# whose value cannot be represented at all are outside what any
# double-precision method can return, so they are not drawn.
LARGE_EXP_CAP = 600.0
# Sector-stratified points per set and case in one cycle.
LARGE_REPEATS = 3

WORKLOADS = ("grid", "points", "large")


def _disk(rng: random.Random, rmin: float, rmax: float) -> complex:
    """Uniform by area in the annulus rmin < |w| <= rmax."""
    r = math.sqrt(rng.uniform(rmin * rmin, rmax * rmax))
    return cmath.rect(r, rng.uniform(-math.pi, math.pi))


def _unequal_orders(rng: random.Random) -> tuple[float, float]:
    while True:
        a, b = rng.uniform(0.3, 1.7), rng.uniform(0.3, 1.7)
        if a * b <= 1.8:
            return a, b


def _ordinary(x: complex, y: complex, a: float, b: float) -> bool:
    return not near_edge(x, y, a, b)


def _any(x: complex, y: complex, a: float, b: float) -> bool:
    return True


def points_cycle(rng: random.Random, keep=_ordinary) -> list[dict]:
    """One cycle of independent points, every stratum once per argument class.

    ``keep(x, y, alpha, beta)`` says which arguments the stratum takes;
    others are drawn again.
    """
    out = []
    for arg_class in range(POINTS_ARG_STRATA):
        for stratum in POINTS_PARAM_STRATA:
            if stratum == "equal-dyadic":
                a = b = rng.choice((0.5, 0.75, 1.0, 1.25))
                mu = 1 + 0j
            elif stratum == "low-dyadic":
                a = b = 0.25
                mu = 1 + 0j
            elif stratum == "unequal":
                a, b = _unequal_orders(rng)
                mu = 1 + 0j
            else:
                a, b = _unequal_orders(rng)
                mu = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
            lo, hi = (0.0, 1.0) if arg_class == 0 else (1.0, POINTS_RADIUS)
            while True:
                x, y = _disk(rng, lo, hi), _disk(rng, lo, hi)
                if keep(x, y, a, b):
                    break
            out.append({
                "params": [a, b, mu.real, mu.imag],
                "x": _pair(x),
                "y": _pair(y),
                "stratum": f"{stratum}/{'disk' if arg_class == 0 else 'annulus'}",
            })
    return out


def edge_distance(w: complex, power: float, a: float, b: float) -> float:
    """Angle from the pole images of w to the top of the admissible window."""
    hi = min(math.pi, math.pi * a * b)
    return min((abs(abs(t) - hi) for t in _preimage_angles(w, power)), default=math.inf)


def near_edge(x: complex, y: complex, a: float, b: float) -> bool:
    """True when an image of x (power beta) or y (power alpha) is inside EDGE_BAND."""
    return (x != 0 and edge_distance(x, b, a, b) < EDGE_BAND) or (
        y != 0 and edge_distance(y, a, a, b) < EDGE_BAND)


# --- large arguments: the asymptotic sectors, mirrored from the paper ------


def _preimage_angles(w: complex, power: float) -> list[float]:
    """Angles of the cut-plane solutions zeta of zeta^(1/power) = w."""
    ph = cmath.phase(w)
    lo = math.floor((-math.pi / power - ph) / (2 * math.pi))
    hi = math.ceil((math.pi / power - ph) / (2 * math.pi))
    angles = []
    for k in range(lo, hi + 1):
        ang = power * (ph + 2 * math.pi * k)
        if -math.pi < ang <= math.pi:
            angles.append(ang)
    return angles


def sector_case(x: complex, y: complex, a: float, b: float) -> int:
    """Asymptotic case 1..4 of (x, y): which arguments have a preimage in the
    sector |arg| <= tau1, with tau1 just inside the top of the angle window."""
    lo = 0.5 * math.pi * a * b
    hi = min(math.pi, math.pi * a * b)
    tau1 = hi * (1 - 1e-3)
    if tau1 <= lo:
        tau1 = 0.5 * (lo + hi)
    in_x = any(abs(t) <= tau1 for t in _preimage_angles(x, b))
    in_y = any(abs(t) <= tau1 for t in _preimage_angles(y, a))
    return {(True, True): 1, (True, False): 2, (False, True): 3}.get((in_x, in_y), 4)


def _max_exponent(w: complex, power: float, a: float, b: float) -> float:
    """Largest real part of zeta^(1/(a b)) over the preimages zeta of w."""
    d = 1.0 / (a * b)
    mag = abs(w) ** (power * d)
    return max((mag * math.cos(t * d) for t in _preimage_angles(w, power)), default=0.0)


def _large_point(rng: random.Random, a: float, b: float, case: int,
                 keep=_ordinary) -> tuple[complex, complex]:
    """A representable large-argument point, in the requested case if any draw lands there."""
    fallback = None
    for _ in range(400):
        x = cmath.rect(math.exp(rng.uniform(math.log(LARGE_RMIN), math.log(LARGE_RMAX))),
                       rng.uniform(-math.pi, math.pi))
        y = cmath.rect(math.exp(rng.uniform(math.log(LARGE_RMIN), math.log(LARGE_RMAX))),
                       rng.uniform(-math.pi, math.pi))
        if max(_max_exponent(x, b, a, b), _max_exponent(y, a, a, b)) > LARGE_EXP_CAP:
            continue
        if not keep(x, y, a, b):
            continue
        if sector_case(x, y, a, b) == case:
            return x, y
        if fallback is None:
            fallback = (x, y)
    # the case is empty for these orders (e.g. every x is inside when
    # tau1/beta exceeds pi): keep the first representable draw instead
    return fallback if fallback is not None else (-LARGE_RMIN + 0j, -LARGE_RMIN + 0j)


def large_cycle(rng: random.Random, keep=_ordinary, param_sets=LARGE_PARAMS) -> list[dict]:
    """LARGE_REPEATS points per parameter set and asymptotic case."""
    out = []
    for a, b, mu in param_sets * LARGE_REPEATS:
        for case in (1, 2, 3, 4):
            x, y = _large_point(rng, a, b, case, keep)
            out.append({
                "params": [a, b, mu.real, mu.imag],
                "x": _pair(x),
                "y": _pair(y),
                "stratum": f"({a:g},{b:g},{_fmt(mu)})/case{sector_case(x, y, a, b)}",
            })
    return out


# --- grid ------------------------------------------------------------------


def grid_sweep(rng: random.Random) -> dict:
    """One ordinary ``ml2v grid`` sweep: GRID_X_COUNT x GRID_Y_COUNT samples
    on two segments whose endpoints are uniform in |w| <= GRID_RADIUS, none
    of them inside EDGE_BAND (other draws are made again)."""
    a, b, _ = GRID_PARAMS
    while True:
        x0, x1, y0, y1 = (_disk(rng, 0.0, GRID_RADIUS) for _ in range(4))
        if not any(near_edge(x, 0j, a, b) for x in _samples(x0, x1, GRID_X_COUNT)) and \
                not any(near_edge(0j, y, a, b) for y in _samples(y0, y1, GRID_Y_COUNT)):
            return {"x": [_pair(x0), _pair(x1)], "y": [_pair(y0), _pair(y1)],
                    "counts": [GRID_X_COUNT, GRID_Y_COUNT], "stratum": "grid"}


def grid_edge_point(rng: random.Random) -> dict:
    """A one-point ``ml2v grid`` sweep at (x, y) uniform in |w| <= GRID_RADIUS
    with an image inside EDGE_BAND.

    The probe's panel is made of single points: a sample on the edge in a
    10 x 10 sweep takes its whole line of ten with it, which would make the
    panel's failure count a matter of which line it hit.
    """
    a, b, _ = GRID_PARAMS
    while True:
        x, y = _disk(rng, 0.0, GRID_RADIUS), _disk(rng, 0.0, GRID_RADIUS)
        if near_edge(x, y, a, b):
            return {"x": [_pair(x), _pair(x)], "y": [_pair(y), _pair(y)], "counts": [1, 1],
                    "stratum": "grid/edge"}


def _samples(lo: complex, hi: complex, n: int) -> list[complex]:
    """The points ``ml2v grid`` takes on a segment: lo + (hi - lo) * k / (n - 1)."""
    return [lo + (hi - lo) * (k / (n - 1)) for k in range(n)]


class Stream:
    """The seed's inputs: cycle ``c`` comes from its own generator, so any
    cycle can be made on demand and always comes out the same."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed

    def cycle(self, c: int):
        """A grid sweep, or a list of points, from the ordinary stratum."""
        rng = random.Random(f"ml2v-{self.workload}-{self.seed}-{c}")
        if self.workload == "grid":
            return grid_sweep(rng)
        return (points_cycle if self.workload == "points" else large_cycle)(rng)

    def setup_points(self) -> list[dict]:
        """One untimed first call per parameter set the workload reuses.

        On ``large`` it is where the asymptotic calibration runs; its points
        are the same for every seed, so that setup_s measures the
        calibration and not the seed's arguments.  ``points`` reuses no set.
        """
        if self.workload == "grid":
            a, b, mu = GRID_PARAMS
            return [{"params": [a, b, mu.real, mu.imag], "x": [0.5, 0.5], "y": [-0.5, 0.25],
                     "stratum": "setup"}]
        if self.workload == "large":
            return _first_calls(LARGE_PARAMS)
        return []

    def probe(self) -> tuple[list[dict], list]:
        """The defect probe, the same for every seed: (first calls, panel).

        The first calls are the set-up calls of every parameter set the
        probe reuses (on ``large`` LARGE_PROBE_PARAMS, cold).  The panel is
        EDGE_PANEL[workload] points (grid: one-point sweeps) from the edge
        stratum: the in-band draws of whole cycles drawn without a stratum,
        in the order drawn, so it keeps the band's natural mix of parameter
        sets and cases.  On ``large`` the LARGE_DISHONEST points follow,
        marked ``"check": True`` to be checked against a reference.
        """
        rng = random.Random(f"ml2v-{self.workload}-edge")
        size = EDGE_PANEL[self.workload]
        if self.workload == "grid":
            return self.setup_points(), [grid_edge_point(rng) for _ in range(size)]
        if self.workload == "points":
            draw, first = points_cycle, []
        else:
            def draw(r, keep):
                return large_cycle(r, keep, LARGE_PROBE_PARAMS)
            first = _first_calls(LARGE_PROBE_PARAMS)
        out: list[dict] = []
        while len(out) < size:
            for pt in draw(rng, _any):
                a, b = pt["params"][:2]
                if near_edge(complex(*pt["x"]), complex(*pt["y"]), a, b):
                    out.append(dict(pt, stratum="edge/" + pt["stratum"]))
        out = out[:size]
        if self.workload == "large":
            out += [{"params": [1.2, 0.9, 1.0, 0.0], "x": list(x), "y": list(y),
                     "stratum": "dishonest/(1.2,0.9,1)", "check": True}
                    for x, y in LARGE_DISHONEST]
        return first, out


def _first_calls(param_sets) -> list[dict]:
    """One large-argument point per parameter set, the same for every seed."""
    cycle = large_cycle(random.Random("ml2v-large-setup"), param_sets=param_sets)
    return [next(p for p in cycle if p["params"][:2] == [a, b]) for a, b, _ in param_sets]


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _fmt(mu: complex) -> str:
    return f"{mu.real:g}{mu.imag:+g}i" if mu.imag else f"{mu.real:g}"
