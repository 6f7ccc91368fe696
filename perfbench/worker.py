"""One benchmark process: set-up, then the timed phase (``run`` mode) or the
defect probe (``probe`` mode).

Started by ``run.py`` in a fresh interpreter, so the package's process-wide
caches (the asymptotic calibration cache, mpmath's caches) start cold, as
they do for a user's first call.  Writes one JSON document to ``--out`` and,
in ``run`` mode, one JSON line per timed point next to it
(``<out>.records.jsonl``), flushed after every cycle.  In ``probe`` mode the
set-up calls are the probe's first calls and the document holds the probe's
records.  Nothing it runs goes past ``--stop-at`` (a ``time.monotonic()``
instant): calls are cut there and count as deadline failures, and
references not made by then are left out.

    python3 perfbench/worker.py --workload points --seed 1 --mode run \
        --seconds 10 --trace 0 --refs 1 --out result.json --stop-at 1e9
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import resource
import sys
import time
from pathlib import Path

import harness
import workloads
from harness import DEADLINE_S, DeadlineHit, deadline

GRID_SWEEP_DEADLINE_S = 120.0

# The timed phase also runs until this many points, so the tail percentile
# (run.TAIL_TOP) has its ten samples beyond in every run: a thousand points
# for p99, thirty sweeps for grid's p90.
MIN_SAMPLES = {"grid": 3000, "points": 1000, "large": 1000}

# The reference kernel is timed after a cycle once this long has passed
# since its last timing.
KERNEL_EVERY_S = 0.25

# Time kept back from the timed phase for the references.
REFS_RESERVE_S = 30.0


def _load_package(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import ml2v

    if not Path(ml2v.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"ml2v imported from {ml2v.__file__}, not from {src}")
    return ml2v


class Params:
    """Parameters objects built during set-up, one per distinct triple."""

    def __init__(self, ml2v) -> None:
        self._ml2v = ml2v
        self._made: dict[tuple, object] = {}

    def __call__(self, p: list[float]):
        k = tuple(p)
        made = self._made.get(k)
        if made is None:
            made = self._made[k] = self._ml2v.validate_params(p[0], p[1], complex(p[2], p[3]))
        return made


def _call(eval_auto, params, pt: dict, tol: float, stop_at: float) -> dict:
    """eval_auto under the per-call deadline; latency in seconds as "dt"."""
    x, y = complex(*pt["x"]), complex(*pt["y"])
    limit = min(DEADLINE_S, stop_at - time.monotonic())
    if limit <= 0:
        return {"status": harness.DEADLINE, "dt": 0.0, "error": "run out of time"}
    t0 = time.perf_counter()
    try:
        with deadline(limit):
            ev = eval_auto(x, y, params, tol)
    except DeadlineHit:
        return {"status": harness.DEADLINE, "dt": time.perf_counter() - t0}
    except Exception as exc:  # every failure of the program is a data point
        return {"status": "raised", "error": type(exc).__name__,
                "dt": time.perf_counter() - t0}
    dt = time.perf_counter() - t0
    return {"status": "value", "value": [ev.value.real, ev.value.imag],
            "est_error": ev.est_error, "method": ev.method, "dt": dt}


def _point_cycle(cycle: list[dict], eval_auto, params: Params, tol: float,
                 hung: set, trace, stop_at: float) -> list[dict]:
    out = []
    for pt in cycle:
        key = tuple(pt["params"])
        if key in hung:
            rec = {"status": harness.SKIPPED, "dt": 0.0}
        else:
            span = trace.begin("eval_auto") if trace else None
            rec = _call(eval_auto, params(pt["params"]), pt, tol, stop_at)
            if trace:
                trace.end(span)
        out.append({**pt, **rec})
    return out


def _fmt_complex(z: list[float]) -> str:
    re, im = z
    return f"{re!r}{'-' if im < 0 else '+'}{abs(im)!r}i"


def _grid_cycle(sweep: dict, cli, tol: float, trace, stop_at: float) -> list[dict]:
    """One in-process ``ml2v grid`` sweep; rows parsed back from its CSV."""
    a, b, mu = workloads.GRID_PARAMS
    params = [a, b, mu.real, mu.imag]
    nx, ny = sweep["counts"]
    count = nx * ny
    # option=value, so argparse does not read "-4.2+1i" as an option
    argv = ["grid", f"--alpha={a!r}", f"--beta={b!r}", f"--mu={_fmt_complex(params[2:])}",
            f"--tol={tol!r}", f"--x-count={nx}", f"--y-count={ny}",
            f"--x-min={_fmt_complex(sweep['x'][0])}", f"--x-max={_fmt_complex(sweep['x'][1])}",
            f"--y-min={_fmt_complex(sweep['y'][0])}", f"--y-max={_fmt_complex(sweep['y'][1])}"]
    limit = min(GRID_SWEEP_DEADLINE_S, stop_at - time.monotonic())
    out, err = io.StringIO(), io.StringIO()
    span = trace.begin("cli.main") if trace else None
    t0 = time.perf_counter()
    try:
        if limit <= 0:
            raise DeadlineHit()
        with deadline(limit), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(argv)
    except DeadlineHit:
        dt = time.perf_counter() - t0
        if trace:
            trace.end(span)
        return [{"status": harness.DEADLINE, "dt": dt / count, "params": params,
                 "x": None, "y": None, "stratum": sweep["stratum"]} for _ in range(count)]
    if trace:
        trace.end(span)
    rows = []
    for row in csv.DictReader(io.StringIO(out.getvalue())):
        rec = {"params": params,
               "x": [float(row["x_re"]), float(row["x_im"])],
               "y": [float(row["y_re"]), float(row["y_im"])],
               "stratum": sweep["stratum"],
               "dt": float(row["ms"]) / 1e3}
        est = float(row["est_error"])
        if row["val_re"] == "nan":
            rec.update(status="raised", error="cli row without a value")
        else:
            rec.update(status="value", value=[float(row["val_re"]), float(row["val_im"])],
                       est_error=est, method=row["method"] + (f"-{row['case']}" if row["case"] else ""))
        rows.append(rec)
    if len(rows) != count:
        raise SystemExit(f"grid sweep printed {len(rows)} rows, expected {count}")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "probe"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--refs", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--stop-at", type=float, required=True)
    args = ap.parse_args(argv)
    stop_at = args.stop_at

    # ---- inputs, made before set-up and left out of setup_s ("gen_s")
    t_gen = time.monotonic()
    stream = workloads.Stream(args.workload, args.seed)
    if args.mode == "probe":
        setup_points, panel = stream.probe()
        first = [] if args.workload == "grid" else panel
    else:
        setup_points = stream.setup_points()
        first = stream.cycle(0) if args.workload != "grid" else []
    gen_s = time.monotonic() - t_gen
    tol = workloads.TOL

    # ---- set-up: import, Parameters, one first call per reused parameter set
    ml2v = _load_package(Path.cwd())
    from ml2v import cli

    trace = None
    if args.trace:
        from tracer import Tracer

        trace = Tracer(tol)
        trace.install()
    params = Params(ml2v)
    eval_auto = ml2v.eval_auto
    hung: set = set()
    setup_calls = []
    for pt in setup_points:
        rec = _call(eval_auto, params(pt["params"]), pt, tol, stop_at)
        if rec["status"] == harness.DEADLINE:
            hung.add(tuple(pt["params"]))
        setup_calls.append({**pt, **rec})
    for pt in first:
        params(pt["params"])
    ready_at = time.monotonic()
    # the machine's speed right after set-up (see harness.REF_NOMINAL_S)
    setup_kernel_s = harness.ref_kernel_s()
    result = {"ready_at": ready_at, "gen_s": gen_s, "setup_kernel_s": setup_kernel_s,
              "setup_deadline_s": sum(r["dt"] for r in setup_calls
                                      if r["status"] == harness.DEADLINE),
              "setup_calls": setup_calls,
              "hung": [list(h) for h in hung],
              "cut": any(r.get("error") == "run out of time" for r in setup_calls)}
    if args.mode == "setup":
        Path(args.out).write_text(json.dumps(result))
        return 0
    if args.mode == "probe":
        if args.workload == "grid":
            recs = [r for sweep in panel for r in _grid_cycle(sweep, cli, tol, None, stop_at)]
        else:
            recs = _point_cycle(panel, eval_auto, params, tol, hung, None, stop_at)
        import refs

        todo = [r for r in recs if r.get("check") and harness.verdict(r, tol, None) == harness.OK]
        for r, ref in zip(todo, refs.references(ml2v, todo, tol, stop_at)):
            r["ref"] = ref
        result["records"] = setup_calls + recs
        Path(args.out).write_text(json.dumps(result))
        return 0

    # ---- timed phase: whole cycles until --seconds of them and MIN_SAMPLES
    # points.  The reference kernel runs between cycles, outside their
    # timing; run.py scales the run's times by it.  Records
    # go to a file as they come, so the harness's own memory does not grow
    # with the program's speed and rss_peak_mb stays the program's.
    import refs

    if trace:
        trace.start_timed()
    pool: list[dict] = []       # the first records, the subsample's pool
    n = 0
    timed_s = 0.0
    cycle_s: list[float] = []
    ref_s = [setup_kernel_s]
    kernel_at = time.monotonic()
    with open(Path(args.out).with_suffix(".records.jsonl"), "w", encoding="utf-8") as fh:
        for c in itertools.count():
            cycle = stream.cycle(c)
            if args.workload != "grid":
                for pt in cycle:
                    params(pt["params"])
            t0 = time.perf_counter()
            if args.workload == "grid":
                recs = _grid_cycle(cycle, cli, tol, trace, stop_at)
            else:
                recs = _point_cycle(cycle, eval_auto, params, tol, hung, trace, stop_at)
            dt = time.perf_counter() - t0
            if time.monotonic() - kernel_at >= KERNEL_EVERY_S:
                ref_s.append(harness.ref_kernel_s())
                kernel_at = time.monotonic()
            for r in recs:
                rec = dict(r, cycle=c)
                fh.write(json.dumps(rec) + "\n")
                if len(pool) < refs.REF_POOL[args.workload]:
                    pool.append(rec)
                n += 1
            fh.flush()
            cycle_s.append(dt)
            timed_s += dt
            if timed_s >= args.seconds and n >= MIN_SAMPLES[args.workload]:
                break
            if time.monotonic() >= stop_at - REFS_RESERVE_S:
                break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        trace.stop_timed()
        trace.uninstall()
        result["layers"] = trace.metrics(n)
        if args.spans:
            trace.write(args.spans)
    ref_s.append(harness.ref_kernel_s())
    result.update(points=n, cycle_s=cycle_s, ref_kernel_s=ref_s,
                  rss_peak_mb=rss_kb / 1024.0)

    # ---- references, outside the timed phase: a seeded subsample of the
    # first points
    if args.refs:
        idx = refs.subsample(len(pool), args.workload, args.seed)
        # a point that already failed cannot fail again; it needs no reference
        todo = [i for i in idx if harness.verdict(pool[i], tol, None) == harness.OK]
        made = dict(zip(todo, refs.references(ml2v, [pool[i] for i in todo], tol, stop_at)))
        result["refs"] = {i: made.get(i, {"check": "already-failed"}) for i in idx}
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
