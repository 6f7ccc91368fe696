"""ml2v benchmark: end-to-end metrics per workload, or per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {grid,points,large} --seed N \
        --seconds S --trace {0,1}

Each run starts fresh interpreters (``worker.py``) so the package's
process-wide caches start cold.  With ``--trace 0`` it starts the timed
process, whose set-up is the first of SETUP_REPS, then the other set-ups,
and reports their median as ``setup_s``.  The timed phase runs whole
seeded cycles; afterwards a seeded subsample of its points is checked
against a reference.  Times are scaled to a nominal machine speed by a
reference kernel timed between cycles and after each set-up
(``harness.REF_NOMINAL_S``); the unscaled figures are printed next to them.
With ``--trace 1`` it runs the defect probe (known failures kept out of the
timed workloads, see ``workloads.py``), then the workload once untraced and
once with every layer wrapped, and prints the per-layer metrics, the
probe's failures and the tracing overhead (traced minus untraced).  The
last line of standard output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Details of every point, with the check made on it, go to ``.perfbench/``.
Every worker has a stop time within RUN_BUDGET_S of the start, so a run
ends within it whatever the program does; a timed run killed at its stop
time is reported from the points it finished, as not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import harness
import workloads

HERE = Path(__file__).resolve().parent
# The tail percentile reported per workload.  A run has at least MIN_SAMPLES
# points, so 10 lie beyond p99; grid's points come in ~40 sweeps of 100 that
# share their geometry, and beyond its p99 lie only a handful of sweeps.
TAIL_TOP = {"grid": 90.0, "points": 99.0, "large": 99.0}
# Set-ups per run, each in a fresh interpreter, the timed run's own included;
# setup_s is their median.  large pays the asymptotic calibration of two
# parameter sets on every set-up, about 3 s, so it sets up six times.
SETUP_REPS = {"grid": 25, "points": 25, "large": 6}
# Every worker is told to stop by RUN_BUDGET_S after the start; the timed
# run gets up to MAIN_BUDGET_S of it, the extra set-ups the rest.  A worker
# still running GRACE_S after its stop time is killed.
RUN_BUDGET_S = 165.0
MAIN_BUDGET_S = 120.0
GRACE_S = 8.0
# The traced run's defect probe stops by PROBE_BUDGET_S after the start.
PROBE_BUDGET_S = 60.0


def _spawn(root: Path, outdir: Path, args, mode: str, tag: str, trace: int, refs: int,
           stop_at: float) -> dict | None:
    """Run one worker; None if it had to be killed at its stop time."""
    out = outdir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--trace", str(trace), "--refs", str(refs), "--out", str(out),
           "--stop-at", repr(stop_at)]
    if trace:
        cmd += ["--spans", str(outdir / f"{tag}.spans.jsonl")]
    env = dict(os.environ, **harness.THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(HERE), env.get("PYTHONPATH")) if p)
    t_spawn = time.monotonic()
    try:
        # run() kills the worker and waits for it when the timeout expires
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                              timeout=max(stop_at - t_spawn, 0.0) + GRACE_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited with {proc.returncode}")
    res = json.loads(out.read_text())
    res["setup_s"] = res["ready_at"] - t_spawn - res["gen_s"]
    if mode == "run":
        res["records"] = _read_records(out)
        for i, ref in res.get("refs", {}).items():
            res["records"][int(i)]["ref"] = ref
        _scale(res)
    return res


def _scale(res: dict) -> None:
    """Scale the timed phase to the nominal machine speed by the median of
    the kernel timings taken during it.

    One scale per run: against a per-cycle scale it gave the same spread of
    pts_per_s from seed to seed and a smaller one of the latencies, because
    a single kernel timing is noisier than the cycle it would scale.
    """
    scale = harness.REF_NOMINAL_S / statistics.median(res["ref_kernel_s"])
    for r in res["records"]:
        r["dt_raw"] = r["dt"]
        r["dt"] *= scale
    res["raw_s"] = sum(res["cycle_s"])
    res["timed_s"] = res["raw_s"] * scale


def _setup_s(runs: list[dict], kernel_s: list[float]) -> tuple[float, float]:
    """(scaled, unscaled) median set-up time of ``runs``.

    Scaled like the timed phase, by the median of ``kernel_s``, the run's
    kernel timings; calls cut at their deadline take the same wall time on
    any machine and are not scaled.
    """
    scale = harness.REF_NOMINAL_S / statistics.median(kernel_s)
    scaled = [(r["setup_s"] - r["setup_deadline_s"]) * scale + r["setup_deadline_s"]
              for r in runs]
    return statistics.median(scaled), statistics.median(r["setup_s"] for r in runs)


def _read_records(out: Path) -> list[dict]:
    path = out.with_suffix(".records.jsonl")
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.endswith("\n")]


def _killed_run(outdir: Path, tag: str, stop_at: float, started: float) -> dict:
    """What is left of a timed run killed at its stop time: the records it
    flushed, and one deadline failure for the run itself."""
    records = _read_records(outdir / f"{tag}.json")
    records.append({"status": harness.DEADLINE, "dt": stop_at - started, "stratum": "killed"})
    for r in records:
        r["dt_raw"] = r["dt"]
    total = sum(r["dt"] for r in records)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"records": records, "timed_s": total, "raw_s": total, "cycle_s": [],
            "ref_kernel_s": [harness.REF_NOMINAL_S], "rss_peak_mb": rss,
            "setup_s": stop_at - started, "setup_kernel_s": harness.REF_NOMINAL_S,
            "setup_deadline_s": 0.0, "setup_calls": [], "hung": [], "killed": True}


_UNCHECKED = (None, "none", "already-failed")


def classify(res: dict, tol: float) -> list[str]:
    return [harness.verdict(r, tol, r.get("ref") if r.get("ref", {}).get("check") not in
                            _UNCHECKED else None) for r in res["records"]]


def end_to_end(res: dict, setup_s: float, tol: float, workload: str) -> tuple[dict, dict]:
    records = res["records"]
    verdicts = classify(res, tol)
    ok = sum(v == harness.OK for v in verdicts)
    timed = [r for r in records if r["status"] != harness.SKIPPED]
    lat = [r["dt"] * 1e3 for r in timed]
    # the points of one grid sweep share its geometry: each sweep is one
    # sample for the tail rule
    sweeps = [r["cycle"] for r in timed] if workload == "grid" else None
    tail_v, tail_p, tail_n = harness.tail(lat, sweeps, TAIL_TOP[workload])
    digits = [harness.correct_digits(complex(*r["value"]), complex(*r["ref"]["value"]))
              for r, v in zip(records, verdicts)
              if v == harness.OK and r.get("ref", {}).get("check") not in _UNCHECKED]
    metrics = {
        "setup_s": (setup_s, "s"),
        "pts_per_s": (ok / res["timed_s"], "1/s"),
        "lat_p50_ms": (statistics.median(lat), "ms"),
        "lat_tail_ms": (tail_v, "ms"),
        "ok_share": (ok / len(records), "ratio"),
        "digits_min": (min(digits) if digits else 0.0, "digits"),
        "rss_peak_mb": (res["rss_peak_mb"], "MB"),
    }
    raw = [r["dt_raw"] * 1e3 for r in timed]
    info = {"unscaled": {"pts_per_s": ok / res["raw_s"], "lat_p50_ms": statistics.median(raw),
                         "lat_tail_ms": harness.tail(raw, sweeps, TAIL_TOP[workload])[0]},
            "ref_kernel_ms_median": 1e3 * statistics.median(res["ref_kernel_s"]),
            "tail_percentile": tail_p, "tail_samples": tail_n,
            "fail_share": 1 - ok / len(records), "verdicts": Counter(verdicts),
            "checks": Counter(r["ref"]["check"] for r in records if "ref" in r),
            "digits_checked": len(digits)}
    return metrics, info


def honesty(res: dict) -> float:
    """Largest |value - reference| / (est_error + reference error) over
    referenced values; above 1 means a dishonest estimate."""
    worst = 0.0
    for r in res["records"]:
        ref = r.get("ref", {})
        if r["status"] == "value" and ref.get("check") not in _UNCHECKED:
            err = abs(complex(*r["value"]) - complex(*ref["value"]))
            worst = max(worst, err / max(r["est_error"] + ref["err"], 1e-300))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "ml2v" / "__init__.py").is_file():
        print("perfbench: no ml2v source tree at ./src/ml2v; run from the root of a checkout",
              file=sys.stderr)
        return 2
    outdir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    tol = workloads.TOL
    end_all = started + RUN_BUDGET_S

    def timed_run(tag: str, trace: int, refs: int, stop_at: float) -> dict:
        res = _spawn(root, outdir, args, "run", tag, trace, refs, stop_at)
        return res if res is not None else _killed_run(outdir, tag, stop_at, started)

    if not args.trace:
        main_run = timed_run("run", 0, 1, started + MAIN_BUDGET_S)
        setups = [main_run]
        for i in range(1, SETUP_REPS[args.workload]):
            # start a set-up only when one as slow as the slowest so far still fits
            if end_all - time.monotonic() < 1.5 * max(r["setup_s"] for r in setups) + GRACE_S:
                break
            res = _spawn(root, outdir, args, "setup", f"setup{i}", 0, 0, end_all)
            if res is not None and not res["cut"]:
                setups.append(res)
        setup_s, setup_unscaled = _setup_s(
            setups, main_run["ref_kernel_s"] + [r["setup_kernel_s"] for r in setups[1:]])
        metrics, info = end_to_end(main_run, setup_s, tol, args.workload)
        info["unscaled"]["setup_s"] = setup_unscaled
        info["setup_s_each_unscaled"] = [r["setup_s"] for r in setups]
    else:
        probe_stop = started + PROBE_BUDGET_S
        probe = _spawn(root, outdir, args, "probe", "probe", 0, 0, probe_stop)
        if probe is None:
            probe = {"records": [{"status": harness.DEADLINE, "stratum": "killed"}]}
        probe_verdicts = classify(probe, tol)
        half = probe_stop + 0.5 * (end_all - probe_stop)
        main_run = timed_run("untraced", 0, 1, half)
        traced = timed_run("traced", 1, 0, end_all)
        base, _ = end_to_end(main_run, _setup_s([main_run], main_run["ref_kernel_s"])[0], tol,
                             args.workload)
        with_trace, _ = end_to_end(traced, _setup_s([traced], traced["ref_kernel_s"])[0], tol,
                                   args.workload)
        metrics = {k: tuple(v) for k, v in traced.get("layers", {}).items()}
        metrics["representations.err_over_est_max"] = (honesty(main_run), "ratio")
        metrics["trace.points"] = (float(len(traced["records"])), "count")
        metrics["defects.probe_points"] = (float(len(probe_verdicts)), "count")
        metrics["defects.probe_failed"] = (
            float(sum(v != harness.OK for v in probe_verdicts)), "count")
        for name in ("setup_s", "pts_per_s", "lat_p50_ms"):
            metrics[f"trace.overhead.{name}"] = (with_trace[name][0] - base[name][0],
                                                 base[name][1])
        info = {"untraced": {k: v[0] for k, v in base.items()},
                "traced": {k: v[0] for k, v in with_trace.items()},
                "probe": Counter(f"{r['stratum']}: {v}"
                                 for r, v in zip(probe["records"], probe_verdicts))}

    verdicts = classify(main_run, tol)
    attempted = len(verdicts)
    failed = sum(v != harness.OK for v in verdicts)
    # correct: no value was passed off as certified while missing its reference
    correct = harness.DISHONEST not in verdicts and not main_run.get("killed")
    machine = harness.machine_record()
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "info": info,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "setup_calls": main_run["setup_calls"], "hung": main_run["hung"],
              "killed": bool(main_run.get("killed")),
              "records": main_run["records"]}
    (outdir / "result.json").write_text(json.dumps(detail, indent=1))

    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} points in "
          f"{len(main_run['cycle_s'])} cycles, {main_run['timed_s']:.3f} s timed, tol {tol:g}")
    for k, (v, u) in metrics.items():
        note = (f" (p{info['tail_percentile']:g} of {info['tail_samples']} samples)"
                if k == "lat_tail_ms" else "")
        print(f"  {k:<44} {v:.6g} {u}{note}")
    print(f"  info: {json.dumps(info)}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
