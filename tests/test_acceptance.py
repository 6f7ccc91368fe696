"""Acceptance battery: closed-form anchors, cross-method agreement, contour
deformation, the pole-crossing jump, and oracle consistency.

The reciprocal-gamma, recurrence, symmetry, expansion and decay identities
have their only bodies in ``ml2v.selftest``; the tests here run those suites.
"""

import cmath
from collections import Counter

import mpmath as mp
import pytest

from ml2v import cli
from ml2v.core import ContourSpec, admissible_theta_window, validate_params
from ml2v.errors import DegenerateDenominator, NumericFailure, PoleProximityError, RegionError
from ml2v.oracle import load_corpus, oracle_eval
from ml2v.representations import (
    _contour_piece,
    choose_contour,
    eval_auto,
    eval_with_contour,
    pole_images,
    residue_terms_y,
)
from ml2v.series import SeriesBudget, eval_double_series

P111 = validate_params(1.0, 1.0, 1.0)

# shared cross-method grid: real 5x5 lattice plus complex corner pairs,
# under three parameter triples spanning the admissible region
GRID_SETS = (
    validate_params(0.5, 0.8, 1.0),
    validate_params(1.2, 0.9, 1.0),
    validate_params(0.7, 0.7, 0.5 + 0.3j),
)
AXIS = (-4.0, -2.0, 0.0, 2.0, 4.0)
CORNER_PAIRS = (
    (4 + 4j, -4 + 4j),
    (-4 - 4j, 4 - 4j),
    (4 + 4j, 4 - 4j),
    (-4 + 4j, -4 - 4j),
)


def grid_points():
    pts = [(complex(x), complex(y)) for x in AXIS for y in AXIS]
    pts.extend(CORNER_PAIRS)
    return pts


def closed_form(x: complex, y: complex) -> complex:
    if x == y:
        return (1 + x) * cmath.exp(x)
    return (x * cmath.exp(x) - y * cmath.exp(y)) / (x - y)


def anchor_points():
    # the frozen alpha = beta = 1 slice: 20 points, |x|,|y| <= 5, (2,1) included
    pts = [
        (rec.x, rec.y)
        for rec in load_corpus()
        if rec.alpha == 1 and rec.beta == 1 and rec.mu == 1
    ]
    assert len(pts) == 20 and (2 + 0j, 1 + 0j) in pts
    return pts


def test_closed_form_anchor_series():
    budget = SeriesBudget(tol=1e-13)
    for x, y in anchor_points():
        ref = closed_form(x, y)
        ev = eval_double_series(x, y, P111, budget)
        assert abs(ev.value - ref) <= 1e-10 * abs(ref)


def test_closed_form_anchor_representations():
    # every representation whose region pattern holds at some admissible
    # contour must reproduce the closed form
    lo, hi = admissible_theta_window(P111, warn=False)
    theta = hi * (1.0 - 1e-3)
    routes = ("lemma1", "lemma2", "remark1", "lemma3")
    seen = set()
    for x, y in anchor_points():
        ref = closed_form(x, y)
        specs = [choose_contour(x, y, P111)]
        specs += [ContourSpec(eps, theta) for eps in (0.6, 2.0, 7.0)]
        applied = 0
        for spec in specs:
            for route in routes:
                try:
                    ev = eval_with_contour(x, y, P111, spec, tol=1e-9, route=route)
                except (RegionError, DegenerateDenominator, PoleProximityError):
                    continue
                assert abs(ev.value - ref) <= 1e-7 * abs(ref)
                seen.add(ev.method)
                applied += 1
        assert applied >= 1
    assert {"lemma1", "lemma2", "remark1", "lemma3"} <= seen


def test_cross_method_agreement_grid():
    # eval_auto's hyperbola and the keyhole routes on choose_contour's
    # contour, each against the series
    budget = SeriesBudget(tol=1e-12)
    lemma_tags = {"lemma1", "lemma2", "remark1", "lemma3"}
    checked = Counter()
    for params in GRID_SETS:
        for x, y in grid_points():
            if max(abs(x), abs(y)) <= 1.0:
                continue    # eval_auto's series disk
            evs = [eval_auto(x, y, params, tol=1e-8)]
            try:
                evs.append(eval_with_contour(x, y, params, choose_contour(x, y, params), tol=1e-8))
            except NumericFailure:
                pass
            evs = [ev for ev in evs if ev.method in lemma_tags | {"hyperbola"}]
            if not evs:
                continue    # degenerate: both went to the series
            ref = eval_double_series(x, y, params, budget)
            ref_value = ref.value
            if ref.est_error > 5e-8:
                # the double summation is conditioning-limited here (term
                # magnitudes dwarf the sum), so take the same series from
                # the extended-precision summation instead
                ref_value = oracle_eval(x, y, params, digits=30).as_complex()
            for ev in evs:
                assert abs(ev.value - ref_value) <= 1e-7
                checked[ev.method] += 1
    assert checked["hyperbola"] >= 50
    assert sum(checked[tag] for tag in lemma_tags) >= 50
    assert set(checked) == lemma_tags | {"hyperbola"}


def test_named_routes_match_dispatch():
    # on the acceptance grid, the route eval_with_contour reports gives the
    # identical Evaluation and the other three named routes refuse the point
    routes = ("lemma1", "lemma2", "remark1", "lemma3")
    seen = set()
    for pp in GRID_SETS:
        for x, y in grid_points():
            spec = choose_contour(x, y, pp)
            try:
                ev = eval_with_contour(x, y, pp, spec)
            except (RegionError, DegenerateDenominator):
                continue
            seen.add(ev.method)
            for route in routes:
                if route == ev.method:
                    assert eval_with_contour(x, y, pp, spec, route=route) == ev
                else:
                    with pytest.raises(RegionError):
                        eval_with_contour(x, y, pp, spec, route=route)
    assert seen == set(routes)


def test_reciprocal_gamma_hankel_identity(assert_suite_passes):
    assert_suite_passes("gamma")


def _admissible_variants(base: ContourSpec, params) -> list[ContourSpec]:
    lo, hi = admissible_theta_window(params, warn=False)
    out = []
    for fe, ft in ((1.9, 0.96), (0.6, 0.98), (2.6, 0.94), (0.35, 0.99)):
        th = base.theta * ft
        if lo < th <= hi:
            out.append(ContourSpec(base.epsilon * fe, th))
    return out


def test_contour_deformation_invariance():
    compared = 0
    degenerate = 0
    for params in GRID_SETS:
        for x, y in grid_points():
            base = choose_contour(x, y, params)
            try:
                v1 = eval_with_contour(x, y, params, base, tol=1e-9).value
            except DegenerateDenominator:
                degenerate += 1
                continue
            for alt in _admissible_variants(base, params):
                try:
                    v2 = eval_with_contour(x, y, params, alt, tol=1e-9).value
                except (RegionError, DegenerateDenominator, PoleProximityError):
                    continue
                assert abs(v1 - v2) <= 2e-7
                compared += 1
                break
            else:
                pytest.fail(f"no admissible second contour at x={x}, y={y}")
    assert compared >= 80
    assert degenerate <= 4


def _normalized_integral(x, y, params, spec, tol=1e-10) -> complex:
    return _contour_piece(x, y, params, spec, tol)[0]


def test_pole_crossing_jump_matches_residue():
    # moving the arc across y's pole image changes the raw integral by
    # exactly the residue the wider route no longer needs
    params = validate_params(0.5, 0.8, 1.0)
    x, y = -4.0 + 0j, 2.0 + 0j
    _, hi = admissible_theta_window(params, warn=False)
    theta = hi * (1.0 - 1e-3)
    spec_out = ContourSpec(0.5, theta)     # y image at sqrt(2) outside the arc
    spec_in = ContourSpec(2.5, theta)      # arc swallows it
    inner = _normalized_integral(x, y, params, spec_out)
    outer = _normalized_integral(x, y, params, spec_in)
    images = [z for z in pole_images(y, params.alpha) if abs(cmath.phase(z)) < theta and abs(z) > spec_out.epsilon]
    residue = sum(residue_terms_y(x, y, params, images))
    assert abs(residue) > 1e-3
    assert abs((outer - inner) - residue) <= 1e-6
    # and the two route totals agree
    t_in = eval_with_contour(x, y, params, spec_in, tol=1e-9, route="lemma1").value
    t_out = eval_with_contour(x, y, params, spec_out, tol=1e-9, route="lemma2").value
    assert abs(t_in - t_out) <= 2e-7


def test_asymptotic_decay_ladder(assert_suite_passes):
    assert_suite_passes("decay")


def test_expansion_identity_bulk(assert_suite_passes):
    assert_suite_passes("expansion")


def test_recurrence_and_symmetry_bulk(assert_suite_passes):
    assert_suite_passes("recurrence")
    assert_suite_passes("symmetry")


def test_oracle_digit_consistency():
    # frozen 30-digit values against a live 50-digit recompute
    worst = mp.mpf(0)
    with mp.workdps(70):
        for rec in load_corpus():
            ov = oracle_eval(rec.x, rec.y, rec.params(), digits=50)
            v30 = mp.mpc(mp.mpf(rec.value_re), mp.mpf(rec.value_im))
            rel = abs(ov.value - v30) / abs(ov.value)
            worst = max(worst, rel)
    assert worst <= mp.mpf("1e-25")


def test_corpus_replay_via_compare(capsys):
    rc = cli.main(["compare", "--corpus"])
    out = capsys.readouterr().out
    assert rc == 0
    delta = float(out.split("max |delta| = ")[1].splitlines()[0])
    assert delta <= 1e-7
