#!/usr/bin/env python3
"""Bit-level fingerprints of ml2v on a fixed seeded call set, and their diff.

    PYTHONPATH=<tree>/src python tools/fingerprint.py record > A.txt
    python tools/fingerprint.py compare A.txt B.txt

record prints one line per call: group, inputs, float.hex of the value and of
est_error, and the method tag or exception type.  The calls: the corpus and
seeded points through eval_auto, the same points through eval_with_contour on
choose_contour's contour and through eval_hyperbola (the hyperbola group, which
adds seeded points at boundary orders, alpha or beta = 2; a tree without
eval_hyperbola records AttributeError there), residue_terms_x/_y at every
pole image of those points, recip_gamma/log_recip_gamma on a seeded array,
and the near group:
seeded points through eval_with_contour on choose_contour's contour after y
is moved so that one of its pole images sits just inside or outside the arc,
at 1e-11 to 2e-3 times eps.  Those offsets straddle the on-contour band
(1e-9 * max(1, |image|)) and the pole floor (1e-3 * eps), so the near lines
record which check rejects each point first.  The series group calls
eval_double_series directly: seeded unit-disk points at orders down to 0.25
and at complex mu with Re mu < 1/2, the log route (from part-way through
the sum or from its first run) and overflowed power tables at fixed points,
and seeded points under term budgets that end part-way through a run of
anti-diagonals.  The asymptotic group calls
eval_asymptotic and asympt_tail_sum directly on seeded points with
15 <= |x|, |y| <= 400, ASYM_PER_CASE points in each of the four sector cases
per parameter set, at truncation orders drawn from 1-5 for each variable and
with tau1 either left to its default or drawn inside the admissible window,
and again with the orders left to eval_asymptotic (a "default" line); a
tail-sum line's est_error is 0.  A residue line's est_error is
the term's rounding slack EPS * residue_weight * |t| (a flat weight of 8 for
trees without residue_weight); residue and tail-sum lines print the term and
its slack as they are, inf included, without building an Evaluation.
The cli group runs fixed ``ml2v grid`` sweeps in this process through
cli.main (auto, hyperbola and series sweeps, a --format json sweep, and a
hyperbola sweep over a double pole whose failed row exits 3); its tag is
the exit code and a digest of stdout, with the ms column blanked, and of
stderr, so any change of output bytes or exit code is a tag change.
compare counts per group the bit-identical lines, the tag or exception
changes, the values that differ by more than est_A + est_B, and gives the
worst |dvalue| / (est_A + est_B).  It exits 1 when any line changes its tag
or exception or moves by more than est_A + est_B, and 0 otherwise.
"""

import cmath
import contextlib
import hashlib
import io
import math
import random
import re
import sys
import warnings
from collections import Counter

import numpy as np

SEED = 4242
PARAM_SETS = ((0.5, 0.8, 1), (1.2, 0.9, 1), (0.7, 0.7, 0.5 + 0.3j), (1, 1, 1), (0.5, 0.5, 1),
              (0.25, 0.25, 1))
POINTS_PER_SET = 40
# log10 of a near point's offset from the arc, relative to eps: around the
# on-contour band, inside the pole floor, and just outside it
NEAR_STRATA = ((-11.0, -8.0), (-6.0, -3.0), (-3.0, math.log10(2e-3)))
# hyperbola group: boundary orders, alpha*beta >= 2 among them
HYPERBOLA_SETS = ((2, 1, 1), (2, 0.5, 0.5 + 0.3j), (1.5, 2, 1), (2, 2, 1))
# series group: unit-disk orders, fixed points whose last runs take the log
# route ((-400, -30), and (1, -1) and (-12, -12) once 1/Gamma underflows),
# whose first run already does ((0, 0) at mu = 200) or whose power tables
# overflow ((30, 20)), and term budgets
SERIES_SETS = ((0.25, 0.25, 1), (0.25, 0.6, 1), (0.5, 0.8, 1), (1.2, 0.9, 1),
               (0.7, 0.6, 0.2 + 0.7j), (0.4, 0.9, -1.3 + 0.4j))
SERIES_FIXED = ((-400.0, -30.0, (1.9, 0.9, 1)), (30.0, 20.0, (0.5, 0.5, 1)),
                (1.0, -1.0, (0.5, 0.1, 1)), (-12.0, -12.0, (0.5, 0.5, 1)),
                (0.0, 0.0, (0.5, 0.5, 200)))
SERIES_BUDGETS = (20, 50, 136, 137, 300, 1000, 5000)
# asymptotic group: points per sector case and parameter set, and the draws
# allowed to find them
ASYM_PER_CASE = 10
ASYM_TRIES = 5000
# cli group: ml2v grid argument lists, and the ms column of their CSV rows
# (after 13 commas) and JSON objects
CLI_SWEEPS = (
    "grid --alpha 0.5 --beta 0.8 --x-min -8-8i --x-max 8+8i --y-min -8+2i --y-max 8-1i "
    "--x-count 10 --y-count 10",
    "grid --alpha 1 --beta 1 --x-min 1 --x-max 5 --y 3 --x-count 5",
    "grid --alpha 1.2 --beta 0.9 --mu 0.5+0.3i --x-min -6+1i --x-max 6 --y 2-4i --x-count 7 "
    "--method hyperbola",
    "grid --alpha 0.7 --beta 0.7 --mu 0.5+0.3i --x-min -0.9 --x-max 0.9i --y 0.3-0.2i "
    "--x-count 6 --method series",
    "grid --alpha 0.5 --beta 0.8 --x-min -8-8i --x-max 8+8i --y-min -8+2i --y-max 8-1i "
    "--x-count 4 --y-count 5 --format json",
    "grid --alpha 1 --beta 1 --x-min 1 --x-max 5 --y 3 --x-count 5 --method hyperbola",
)
CSV_MS = re.compile(r"^((?:[^,\n]*,){13})[^,\n]*$", re.M)
JSON_MS = re.compile(r'("ms": )[^\n]*')


def _hex(v: complex) -> str:
    return f"{v.real.hex()} {v.imag.hex()}"


def _line(group: str, inputs: str, call) -> str:
    """call returns an Evaluation or a (value, est_error, tag) triple."""
    try:
        out = call()
    except Exception as exc:  # the exception type is part of the fingerprint
        return f"{group}\t{inputs}\t-\t-\t{type(exc).__name__}"
    value, est, tag = out if isinstance(out, tuple) else (out.value, out.est_error, out.method)
    return f"{group}\t{inputs}\t{_hex(complex(value))}\t{float(est).hex()}\t{tag}"


def _cli_line(cli, argv: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv.split())
        except SystemExit as exc:
            code = exc.code
    text = JSON_MS.sub(r"\1-", CSV_MS.sub(r"\1-", out.getvalue()))
    digest = hashlib.sha256(f"{text}\0{err.getvalue()}".encode()).hexdigest()[:16]
    return f"cli\t{argv}\t-\t-\t{code}:{digest}"


def record() -> None:
    import ml2v
    from ml2v import representations as rep
    from ml2v.asymptotics import TruncationOrders, asympt_tail_sum, classify_case, eval_asymptotic
    from ml2v.core import angle_window
    from ml2v.gamma import log_recip_gamma, recip_gamma
    from ml2v.series import SeriesBudget, eval_double_series

    weight = getattr(rep, "residue_weight", lambda *_: 8.0)

    def residue(side, x, y, p, z):
        terms = rep.residue_terms_x if side == "x" else rep.residue_terms_y
        (t,) = terms(x, y, p, (z,))
        powers = (p.beta, p.alpha) if side == "x" else (p.alpha, p.beta)
        return t, sys.float_info.epsilon * weight(z, *powers) * abs(t), "-"

    warnings.simplefilter("ignore")
    for rec in ml2v.load_corpus():
        inputs = f"{rec.alpha} {rec.beta} {rec.mu!r} {rec.x!r} {rec.y!r}"
        print(_line("corpus", inputs, lambda: ml2v.eval_auto(rec.x, rec.y, rec.params())))
    rng = random.Random(SEED)
    for a, b, mu in PARAM_SETS:
        p = ml2v.validate_params(a, b, mu)
        for _ in range(POINTS_PER_SET):
            x, y = (cmath.rect(10 ** rng.uniform(-1, 1.6), rng.uniform(-math.pi, math.pi)) for _ in "xy")
            inputs = f"{a} {b} {mu!r} {x!r} {y!r}"
            print(_line("auto", inputs, lambda: ml2v.eval_auto(x, y, p)))
            print(_line("contour", inputs, lambda: ml2v.eval_with_contour(x, y, p, ml2v.choose_contour(x, y, p))))
            print(_line("hyperbola", inputs, lambda: rep.eval_hyperbola(x, y, p)))
            for side, w, power in (("x", x, b), ("y", y, a)):
                for z in rep.pole_images(w, power):
                    print(_line("residues", f"{inputs} {side} {z!r}", lambda: residue(side, x, y, p, z)))
    hrng = random.Random(SEED + 4)
    for a, b, mu in HYPERBOLA_SETS:
        p = ml2v.validate_params(a, b, mu)
        for _ in range(POINTS_PER_SET):
            x, y = (cmath.rect(10 ** hrng.uniform(-1, 1.6), hrng.uniform(-math.pi, math.pi)) for _ in "xy")
            print(_line("hyperbola", f"{a} {b} {mu!r} {x!r} {y!r}", lambda: rep.eval_hyperbola(x, y, p)))
    near = random.Random(SEED + 1)
    for a, b, mu in PARAM_SETS:
        p = ml2v.validate_params(a, b, mu)
        for _ in range(POINTS_PER_SET):
            x, y = (cmath.rect(10 ** near.uniform(-1, 1.6), near.uniform(-math.pi, math.pi)) for _ in "xy")
            spec = ml2v.choose_contour(x, y, p)
            off = near.choice((-1, 1)) * 10 ** near.uniform(*near.choice(NEAR_STRATA))
            # y = image^(1/alpha), so the image is one of y's pole images
            y = cmath.rect(spec.epsilon * (1 + off), near.uniform(-spec.theta, spec.theta)) ** (1 / a)
            inputs = f"{a} {b} {mu!r} {x!r} {y!r} {spec.epsilon!r} {spec.theta!r}"
            print(_line("near", inputs, lambda: ml2v.eval_with_contour(x, y, p, spec)))
    srng = random.Random(SEED + 2)
    for a, b, mu in SERIES_SETS:
        p = ml2v.validate_params(a, b, mu)
        for _ in range(POINTS_PER_SET // 2):
            x, y = (cmath.rect(srng.uniform(0, 1), srng.uniform(-math.pi, math.pi)) for _ in "xy")
            print(_line("series", f"{a} {b} {mu!r} {x!r} {y!r}", lambda: eval_double_series(x, y, p)))
    for x, y, orders in SERIES_FIXED:
        inputs = f"{' '.join(map(repr, orders))} {x!r} {y!r}"
        print(_line("series", inputs, lambda: eval_double_series(x, y, ml2v.validate_params(*orders))))
    for max_terms in SERIES_BUDGETS:
        a, b, mu = srng.choice(SERIES_SETS)
        x, y = (cmath.rect(srng.uniform(1, 8), srng.uniform(-math.pi, math.pi)) for _ in "xy")
        budget = SeriesBudget(max_terms=max_terms)
        inputs = f"{a} {b} {mu!r} {x!r} {y!r} {max_terms}"
        print(_line("series", inputs, lambda: eval_double_series(x, y, ml2v.validate_params(a, b, mu), budget)))
    arng = random.Random(SEED + 3)
    for a, b, mu in PARAM_SETS:
        p = ml2v.validate_params(a, b, mu)
        lo, hi, _ = angle_window(p)
        per_case: Counter = Counter()
        for _ in range(ASYM_TRIES):
            x, y = (cmath.rect(10 ** arng.uniform(math.log10(15), math.log10(400)),
                               arng.uniform(-math.pi, math.pi)) for _ in "xy")
            tau1 = arng.choice((None, hi - (hi - lo) * arng.random()))
            orders = TruncationOrders(arng.randint(1, 5), arng.randint(1, 5))
            case = classify_case(x, y, p, tau1)
            if per_case[case] == ASYM_PER_CASE:
                continue
            per_case[case] += 1
            inputs = f"{a} {b} {mu!r} {x!r} {y!r} {orders.p_alpha} {orders.p_beta} {tau1!r}"
            print(_line("asymptotic", inputs, lambda: eval_asymptotic(x, y, p, orders, tau1)))
            print(_line("asymptotic", f"{inputs} default",
                        lambda: eval_asymptotic(x, y, p, None, tau1)))
            print(_line("asymptotic", f"{inputs} tail",
                        lambda: (asympt_tail_sum(x, y, p, orders), 0.0, "-")))
            if sum(per_case.values()) == 4 * ASYM_PER_CASE:
                break
    g = np.random.default_rng(SEED)
    poles = -np.arange(30.0)
    s = np.concatenate([g.normal(0, 25, 400) + 1j * g.normal(0, 4, 400), g.normal(0, 25, 200) + 0j,
                        g.normal(0, 25, 200) - 0j, poles, poles + g.normal(0, 1e-12, 30), poles + 0.5])
    for name, fn in (("recip_gamma", recip_gamma), ("log_recip_gamma", log_recip_gamma)):
        for si, v in zip(s, fn(s)):
            print(f"{name}\t{complex(si)!r}\t{_hex(complex(v))}\t{0.0.hex()}\t-")
    from ml2v import cli

    for argv in CLI_SWEEPS:
        print(_cli_line(cli, argv))


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        pairs = list(zip(fa.read().splitlines(), fb.read().splitlines(), strict=True))
    stats: dict[str, list] = {}
    for la, lb in pairs:
        (group, inputs, va, ea, ta), (_, inputs_b, vb, eb, tb) = la.split("\t"), lb.split("\t")
        assert inputs == inputs_b, f"call sets differ: {inputs} / {inputs_b}"
        st = stats.setdefault(group, [0, 0, 0, 0, 0.0])
        st[0], st[1], st[2] = st[0] + 1, st[1] + (la == lb), st[2] + (ta != tb)
        if la != lb and "-" not in (va, vb):
            za, zb = (complex(*map(float.fromhex, v.split())) for v in (va, vb))
            delta, bound = abs(za - zb), float.fromhex(ea) + float.fromhex(eb)
            st[3] += delta > bound
            st[4] = max(st[4], delta / bound if bound > 0 else (0.0 if delta == 0 else math.inf))
    print(f"{'group':<16} {'lines':>6} {'identical':>9} {'tag_changes':>11} {'over_est':>8} {'worst_d/est':>11}")
    for group, (n, same, tags, over, worst) in stats.items():
        print(f"{group:<16} {n:>6} {same:>9} {tags:>11} {over:>8} {worst:>11.3g}")
    return int(any(tags or over for _, _, tags, over, _ in stats.values()))


if __name__ == "__main__":
    if sys.argv[1:2] == ["record"]:
        record()
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
