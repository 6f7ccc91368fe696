"""
Automatic regime dispatch and the command line
==============================================

eval_auto picks the evaluation method from the argument magnitudes:
the double series inside the unit disk, and everywhere else, large
arguments included, the contour representation summed on a fixed
hyperbola, with the series as the fallback when that route degenerates.
The asymptotic expansion (demo 03) checks the hyperbola far out.  The
same dispatcher backs the ml2v command line.
"""

import subprocess
import sys

from ml2v import eval_asymptotic, eval_auto, validate_params

# sweep along the negative diagonal at fractional orders: the method
# hands over from series to hyperbola as |x| leaves the unit disk, and the
# expansion agrees with the hyperbola where both arguments are large
params = validate_params(0.5, 0.5, 1.0)
print(f"{'x = y':>8} {'method':>18} {'value':>15} {'est error':>11} {'asymptotic':>15}")
for t in (0.5, 3.0, 10.0, 25.0, 60.0):
    ev = eval_auto(-t, -t, params, tol=1e-6)
    asym = f"{eval_asymptotic(-t, -t, params).value.real:15.6e}" if t >= 15 else ""
    print(f"{-t:8.1f} {ev.method:>18} {ev.value.real:15.6e} {ev.est_error:11.1e} {asym:>15}")

# the same function drives the CLI; a few invocations end to end
def run(args, tail=None):
    proc = subprocess.run(
        [sys.executable, "-m", "ml2v.cli", *args],
        capture_output=True,
        text=True,
    )
    print(f"\n$ ml2v {' '.join(args)}")
    lines = proc.stdout.rstrip().splitlines()
    if tail is not None and len(lines) > tail:
        print(f"... ({len(lines) - tail} lines elided)")
        lines = lines[-tail:]
    print("\n".join(lines))
    return proc

# single point, JSON
run(["eval", "--alpha", "1", "--beta", "1", "--x", "2", "--y", "1",
     "--format", "json"])

# a small grid in CSV, automatic method choice per point
run(["grid", "--alpha", "0.5", "--beta", "0.8",
     "--x-min", "-4", "--x-max", "4", "--x-count", "3",
     "--y", "2", "--tol", "1e-8"])

# cross-checking every applicable method at one point
run(["compare", "--alpha", "0.5", "--beta", "0.8", "--x", "-3", "--y", "2"])

# replaying the frozen corpus is the standing regression gate
proc = run(["compare", "--corpus"], tail=3)
print(f"(exit code {proc.returncode})")
