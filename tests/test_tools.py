"""The gate tools under tools/: the sweep's per-stratum table and the
fingerprint comparison's exit status.  fingerprint.py record is not run here
(it evaluates the whole fingerprint call set).  Also the benchmark's per-layer
tracer, which wraps package functions by name."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# name, points, certified, uncertified, raised, seconds, tags
ROW = re.compile(r"^(.*?)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+\.\d+)(?:\s|$)")


def _tool(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "tools" / args[0]), *args[1:]],
                          capture_output=True, text=True, env=env, timeout=300)


def test_sweep_certifies_every_stratum():
    run = _tool("sweep.py", "--count", "10")
    assert run.returncode == 0, run.stderr
    header, *rows = run.stdout.splitlines()
    assert header.split()[:6] == [
        "stratum", "points", "certified", "uncertified", "raised", "seconds"]
    parsed = [ROW.match(r) for r in rows]
    assert all(parsed), rows
    strata = {m[1]: tuple(map(int, m.groups()[1:5])) for m in parsed}
    assert strata.pop("total")[0] == 10 * len(strata)
    # four axis order sets, each with a uniform and an axis phase stratum
    assert sum(name.startswith("axis (") for name in strata) == 8
    assert {"unit disk", "annulus (0.25, 0.25, 1)", "edge band, points orders",
            "boundary orders", "past the keyhole window", "large, axis orders"} < set(strata)
    assert len(strata) == 14
    for name, (points, certified, uncertified, raised) in strata.items():
        assert (points, certified, uncertified, raised) == (10, 10, 0, 0), name


# A hand-made record: group, inputs, float.hex of the value's real and
# imaginary parts, float.hex of est_error, tag.
RECORD = [
    ("auto", "0.5 0.8 1 (2+1j) (-3+0j)", 1.25, -0.5, 1e-9, "hyperbola"),
    ("auto", "0.5 0.8 1 (0.5+0j) 0.25j", 0.75, 0.125, 1e-13, "series"),
    ("residues", "0.5 0.8 1 2 3 x (4+0j)", 3.0, 0.0, 2e-15, "-"),
]


def _write(path, rows):
    lines = []
    for group, inputs, re_, im, est, tag in rows:
        lines.append(f"{group}\t{inputs}\t{re_.hex()} {im.hex()}\t{est.hex()}\t{tag}")
    lines.append("asymptotic\t1 2 3\t-\t-\tMagnitudeFloor")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _compare(tmp_path, changed):
    a = _write(tmp_path / "a.txt", RECORD)
    b = _write(tmp_path / "b.txt", changed)
    return _tool("fingerprint.py", "compare", a, b)


def test_fingerprint_compare_passes_a_record_against_itself(tmp_path):
    run = _compare(tmp_path, RECORD)
    assert run.returncode == 0, run.stdout + run.stderr
    assert re.search(r"^auto\s+2\s+2\s+0\s+0\s", run.stdout, re.M), run.stdout


def test_fingerprint_compare_passes_a_move_within_the_estimates(tmp_path):
    moved = list(RECORD)
    moved[0] = (*RECORD[0][:2], 1.25 + 1.5e-9, -0.5, 1e-9, "hyperbola")
    run = _compare(tmp_path, moved)
    assert run.returncode == 0, run.stdout + run.stderr
    assert re.search(r"^auto\s+2\s+1\s+0\s+0\s", run.stdout, re.M), run.stdout


def test_fingerprint_compare_fails_a_tag_change(tmp_path):
    retagged = list(RECORD)
    retagged[1] = (*RECORD[1][:5], "lemma1")
    run = _compare(tmp_path, retagged)
    assert run.returncode == 1, run.stdout + run.stderr
    assert re.search(r"^auto\s+2\s+1\s+1\s+0\s", run.stdout, re.M), run.stdout


def test_fingerprint_compare_fails_a_move_beyond_the_estimates(tmp_path):
    moved = list(RECORD)
    moved[2] = (*RECORD[2][:2], 3.0 + 5e-15, 0.0, 2e-15, "-")
    run = _compare(tmp_path, moved)
    assert run.returncode == 1, run.stdout + run.stderr
    assert re.search(r"^residues\s+1\s+0\s+0\s+1\s", run.stdout, re.M), run.stdout


def test_perfbench_tracer_wraps_and_restores_the_package():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)

    from ml2v import asymptotics, representations
    from ml2v.core import validate_params

    tracer = tracer_mod.Tracer(1e-8)
    tracer.install()
    wrapped = list(tracer._saved)
    try:
        p = validate_params(0.5, 0.5, 1)
        tracer.start_timed()
        for x, y in ((0.3, -0.2j), (-3.0, 2.0), (-40.0, -30.0)):
            representations.eval_auto(x, y, p)
        spec = representations.choose_contour(-3.0, 2.0, p)
        representations.eval_with_contour(-3.0, 2.0, p, spec)
        # eval_auto takes the hyperbola at large arguments: call the expansion
        asymptotics.eval_asymptotic(-40.0, -30.0, p)
        tracer.stop_timed()
        metrics = tracer.metrics(4)
    finally:
        tracer.uninstall()
    for name in ("series.calls", "asymptotics.calls", "contour.integrate.calls"):
        assert metrics[name][0] > 0, name
    assert wrapped
    for module, attr, original in wrapped:
        assert getattr(module, attr) is original, attr
