"""
Large-argument asymptotic expansions
====================================

For large |x|, |y| the function is a sum of exponential residue terms
(one per pole preimage inside the angular sector) and an algebraic tail
in inverse powers.  Four sector cases decide which arguments contribute
exponentials; case4 (neither) is purely algebraic and describes joint
decay along the negative axes.
"""

from ml2v import (
    TruncationOrders,
    classify_case,
    eval_asymptotic,
    oracle_eval,
    validate_params,
)
from ml2v.selftest import LADDER_T, decay_ladder

# case1: both arguments carry exponential terms.  x = -20 keeps its pair
# of conjugate pole preimages inside the sector because beta < 1 bends
# the cut plane around
params = validate_params(1.2, 0.9, 1.0)
x, y = -20.0, 20.0
print(f"classify_case({x}, {y}) = {classify_case(x, y, params)}")
ev = eval_asymptotic(x, y, params)
ref = oracle_eval(x, y, params, digits=30).as_complex()
print(f"expansion : {ev.value.real:.10e}   ({ev.method})")
print(f"oracle    : {ref.real:.10e}")
print(f"rel error : {abs(ev.value - ref) / abs(ref):.2e}   (estimate {ev.est_error / abs(ref):.2e})")

# case4: along the negative diagonal everything decays algebraically,
# and raising the truncation order buys whole powers of 1/t; the frozen
# corpus holds the 30-digit references for this ladder
params = validate_params(0.5, 0.5, 1.0)
ladder = decay_ladder()
print("\njoint decay at x = y = -t, alpha = beta = 0.5")
print(f"{'t':>5} {'p=1':>12} {'p=2':>12} {'p=3':>12}")
for t in LADDER_T:
    ref = ladder[t]
    errs = []
    for p in (1, 2, 3):
        ev = eval_asymptotic(-t, -t, params, TruncationOrders(p, p))
        errs.append(abs(ev.value - ref))
    print(f"{t:5.0f} " + " ".join(f"{e:12.3e}" for e in errs))

# without explicit orders the tail stops at the first order p whose next
# two rings of terms are not smaller than its own, and the error estimate
# is twice those two omitted rings, so it certifies the expansion only
# where it truly wins (ml2v compare relies on this); at t = 6 the chosen
# order reaches about 1e-8, where explicit orders (3, 3) give about 1e-4
params = validate_params(0.5, 0.5, 1.0)
for t in (6.0, 15.0, 40.0):
    ev = eval_asymptotic(-t, -t, params)
    ref = oracle_eval(-t, -t, params, digits=30).as_complex()
    print(
        f"\nt = {t:5.1f}: value {ev.value.real:+.8e}  actual err {abs(ev.value - ref):.1e}"
        f"  estimate {ev.est_error:.1e}  ({ev.method})"
    )
