"""Self-checks of the benchmark harness: inputs, verdicts, tail rule, deadline."""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402
import workloads  # noqa: E402

TOL = workloads.TOL


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    def dump(seed):
        s = workloads.Stream(workload, seed)
        return json.dumps([s.cycle(c) for c in range(3)] + [s.setup_points()]).encode()

    assert dump(7) == dump(7)
    assert dump(7) != dump(8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_probe_is_in_the_band_and_the_same_for_every_seed(workload):
    first, panel = workloads.Stream(workload, 7).probe()
    assert json.dumps([first, panel]) == json.dumps(workloads.Stream(workload, 8).probe())
    if workload == "large":
        assert [p["params"][:2] for p in first] == \
            [[a, b] for a, b, _ in workloads.LARGE_PROBE_PARAMS]
        checked = panel[workloads.EDGE_PANEL[workload]:]
        assert len(checked) == len(workloads.LARGE_DISHONEST)
        assert all(pt["check"] for pt in checked)
        panel = panel[:workloads.EDGE_PANEL[workload]]
    for pt in panel:
        x, y = (pt["x"][0], pt["y"][0]) if workload == "grid" else (pt["x"], pt["y"])
        a, b = workloads.GRID_PARAMS[:2] if workload == "grid" else pt["params"][:2]
        assert workloads.near_edge(complex(*x), complex(*y), a, b)
    assert len(panel) == workloads.EDGE_PANEL[workload]


def test_inputs_respect_the_workload_domains():
    for pt in workloads.Stream("points", 3).cycle(0):
        a, b = pt["params"][:2]
        assert 0 < a * b < 2
        assert max(abs(complex(*pt["x"])), abs(complex(*pt["y"]))) <= workloads.POINTS_RADIUS
    assert sum(p["stratum"].endswith("/disk") for p in workloads.Stream("points", 3).cycle(0)) \
        * 4 == len(workloads.Stream("points", 3).cycle(0))
    cases = set()
    for pt in workloads.Stream("large", 3).cycle(0):
        x, y = complex(*pt["x"]), complex(*pt["y"])
        assert workloads.LARGE_RMIN <= min(abs(x), abs(y))
        assert max(abs(x), abs(y)) <= workloads.LARGE_RMAX
        cases.add(workloads.sector_case(x, y, *pt["params"][:2]))
    assert cases == {1, 2, 3, 4}
    for pt in workloads.Stream("points", 3).cycle(1) + workloads.Stream("large", 3).cycle(1):
        assert not workloads.near_edge(complex(*pt["x"]), complex(*pt["y"]), *pt["params"][:2])
    sweep = workloads.Stream("grid", 3).cycle(0)
    assert sweep["counts"] == [workloads.GRID_X_COUNT, workloads.GRID_Y_COUNT]
    a, b = workloads.GRID_PARAMS[:2]
    for end in sweep["x"] + sweep["y"]:
        assert abs(complex(*end)) <= workloads.GRID_RADIUS
    xs = workloads._samples(complex(*sweep["x"][0]), complex(*sweep["x"][1]), 10)
    ys = workloads._samples(complex(*sweep["y"][0]), complex(*sweep["y"][1]), 10)
    assert not any(workloads.near_edge(x, y, a, b) for x in xs for y in ys)


def _value(v, est):
    return {"status": "value", "value": [v.real, v.imag], "est_error": est}


def test_verdict_classes():
    ok = _value(0.5 + 0.1j, 1e-12)
    ref = {"value": [0.5, 0.1], "err": 1e-20}
    assert harness.verdict(ok, TOL, ref) == harness.OK
    assert harness.verdict(ok, TOL, None) == harness.OK
    assert harness.verdict({"status": "raised", "error": "BudgetExceeded"}, TOL, None) \
        == harness.RAISED
    assert harness.verdict(_value(0.5, math.inf), TOL, None) == harness.NONFINITE
    assert harness.verdict(_value(complex(math.inf, 0), 1e-12), TOL, None) == harness.NONFINITE
    # certified means est_error <= tol * max(1, |value|)
    assert harness.verdict(_value(0.5, 2e-8), TOL, None) == harness.UNCERTIFIED
    assert harness.verdict(_value(1e3, 5e-6), TOL, None) == harness.OK
    assert harness.verdict(_value(0.5 + 1e-9, 1e-12), TOL, {"value": [0.5, 0.0], "err": 0.0}) \
        == harness.DISHONEST
    assert harness.verdict({"status": harness.DEADLINE}, TOL, None) == harness.DEADLINE
    assert harness.verdict({"status": harness.SKIPPED}, TOL, None) == harness.SKIPPED


@pytest.mark.parametrize("n", [20, 50, 99, 100, 101, 999, 1000, 1001, 4321, 20000])
def test_tail_leaves_ten_samples_beyond(n):
    samples = [float((i * 7919) % n) for i in range(n)]
    value, pct, count = harness.tail(samples)
    assert count == n
    assert pct in harness.TAIL_LADDER
    assert sum(s > value for s in samples) >= harness.TAIL_BEYOND
    higher = [p for p in harness.TAIL_LADDER if p > pct]
    if higher:
        assert n - math.ceil(higher[0] * n / 100) < harness.TAIL_BEYOND


def test_tail_percentile_is_capped():
    samples = [float(i) for i in range(20000)]
    assert harness.tail(samples)[1] == 99.9
    assert harness.tail(samples, top=99.0)[1] == 99.0


def test_tail_counts_groups_beyond_the_percentile():
    # 2000 samples in sweeps of 100: beyond p99 lie 20 samples of 1 sweep,
    # beyond p90 200 samples of 2 sweeps, beyond p50 10 sweeps
    samples = [float(i) for i in range(2000)]
    sweeps = [i // 100 for i in range(2000)]
    assert harness.tail(samples)[1] == 99.0
    value, pct, _ = harness.tail(samples, sweeps)
    assert pct == 50.0
    assert len({g for s, g in zip(samples, sweeps) if s > value}) >= harness.TAIL_BEYOND


def test_tail_with_too_few_samples_is_the_maximum():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_deadline_interrupts_a_busy_loop():
    t0 = time.perf_counter()
    with pytest.raises(harness.DeadlineHit):
        with harness.deadline(0.05):
            while True:
                pass
    assert time.perf_counter() - t0 < 1.0


def test_correct_digits_scale():
    assert harness.correct_digits(1.0 + 1e-9, 1.0) == pytest.approx(9.0, abs=0.01)
    assert harness.correct_digits(1e-3 + 1e-11, 1e-3) == pytest.approx(11.0, abs=0.01)
    assert harness.correct_digits(2.0, 2.0) == 17.0
