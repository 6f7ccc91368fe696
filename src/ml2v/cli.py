"""Command-line front end: point evaluation, grid sweeps, cross-method
comparison, and the invariant self-test suite.

Output contract: CSV rows under the fixed header

    alpha,beta,mu_re,mu_im,x_re,x_im,y_re,y_im,val_re,val_im,est_error,method,case,ms

or JSON carrying the same fields; CSV prints numbers at 17 significant
digits and JSON as Python's shortest repr, so both parse to identical
doubles.  ms is wall time in milliseconds: eval's evaluation time, and in
grid the whole sweep's evaluation time divided by its point count (grid
evaluates a sweep of auto or hyperbola points in one batched call, so no
point has a time of its own).  Exit codes:
0 success, 1 selftest failure, 2 domain error, 3 numeric failure.
Complex literals on the command line are finite "a+bi" / "a-bi" / "a" with
no spaces (a trailing j is accepted too); one that starts with a minus may
follow its flag after a space or after "=".  A non-finite literal, or a
--tol that is not positive and finite, is a domain error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import math
import sys
import time

from .asymptotics import TruncationOrders, eval_asymptotic
from .core import EPS, ContourSpec, Evaluation, Parameters, check_count, check_positive, validate_params
from .errors import BudgetExceeded, DomainError, NumericFailure
from .oracle import load_corpus, oracle_eval
from .representations import (
    choose_contour,
    eval_auto,
    eval_hyperbola,
    eval_many,
    eval_with_contour,
    hyperbola_many,
)
from .selftest import SUITES, run_suites
from .series import SeriesBudget, eval_double_series

CSV_HEADER = (
    "alpha,beta,mu_re,mu_im,x_re,x_im,y_re,y_im,"
    "val_re,val_im,est_error,method,case,ms"
)

CONTOUR_METHODS = ("lemma1", "lemma2", "remark1", "lemma3")
METHODS = ("auto", "series", *CONTOUR_METHODS, "hyperbola", "asymptotic", "oracle")

# The evaluations that read each knob: an eval/grid method, "compare" (points
# or a grid) or "compare --corpus".  The CLI rejects a knob given to any
# other evaluation (exit 2), and --help lists the readers.
KNOB_READERS = {
    "tol": ("auto", "series", *CONTOUR_METHODS, "hyperbola", "compare", "compare --corpus"),
    "p_alpha": ("asymptotic", "compare"),
    "p_beta": ("asymptotic", "compare"),
    "epsilon": (*CONTOUR_METHODS, "compare"),
    "theta": (*CONTOUR_METHODS, "compare"),
}

# compare runs the asymptotic expansion where min(|x|, |y|) reaches this.
ASYMPTOTIC_RADIUS = 15.0

# The grid methods that evaluate a whole sweep in one batched call.
BATCHED = {"auto": eval_many, "hyperbola": hyperbola_many}

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3


def _complex_literal(text: str) -> complex:
    """Parse "a+bi" / "a-bi" / "a"; no spaces or parentheses."""
    s = str(text).strip()
    if not s or any(ch.isspace() for ch in s) or "(" in s or ")" in s:
        raise DomainError(f"bad complex literal {text!r}")
    try:
        return complex(s.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise DomainError(f"bad complex literal {text!r}") from None


def parse_complex(text: str) -> complex:
    """A finite complex literal "a+bi" / "a-bi" / "a"."""
    z = _complex_literal(text)
    if not cmath.isfinite(z):
        raise DomainError(f"complex literal {text!r} is not finite")
    return z


def _tol(args, default: float) -> float:
    return check_positive("tol", default if args.tol is None else args.tol)


def fmt17(v: float) -> str:
    return f"{float(v):.17g}"


def _c_str(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.10g}"
    return f"{z.real:.10g}{z.imag:+.10g}i"


def _split_method(tag: str) -> tuple[str, str]:
    if tag.startswith("asymptotic-"):
        return "asymptotic", tag.split("-", 1)[1]
    return tag, ""


def _point_fields(x: complex, y: complex, ev: Evaluation | Exception, method: str) -> tuple:
    """The columns x_re .. case of one row; a point that raised has a nan
    value, est_error inf and the method asked for."""
    if isinstance(ev, Exception):
        return x.real, x.imag, y.real, y.imag, math.nan, math.nan, math.inf, method, ""
    return (x.real, x.imag, y.real, y.imag, ev.value.real, ev.value.imag, ev.est_error,
            *_split_method(ev.method))


def _json_value(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None if math.isnan(v) else "inf"
    return v


def emit_rows(params: Parameters, pts: list[tuple[complex, complex]], evs: list,
              method: str, ms: float, fmt: str, single: bool = False) -> None:
    """Print one row per point pts[i] with its result evs[i] (an Evaluation,
    or the exception it raised) under the CSV header, or as JSON."""
    head = (params.alpha, params.beta, params.mu.real, params.mu.imag)
    ms = round(ms, 3)
    if fmt == "csv":
        # the columns shared by every row are formatted once
        lead, tail = ",".join(map(fmt17, head)), fmt17(ms)
        lines = [CSV_HEADER]
        for (x, y), ev in zip(pts, evs):
            *nums, tag, case = _point_fields(x, y, ev, method)
            lines.append(f"{lead},{','.join(map(fmt17, nums))},{tag},{case},{tail}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        keys = CSV_HEADER.split(",")
        objs = [dict(zip(keys, map(_json_value, (*head, *_point_fields(x, y, ev, method), ms))))
                for (x, y), ev in zip(pts, evs)]
        payload = objs[0] if single and len(objs) == 1 else objs
        print(json.dumps(payload, indent=2))


def _contour_for(args, x: complex, y: complex, params: Parameters) -> ContourSpec:
    base = choose_contour(x, y, params)
    return ContourSpec(
        base.epsilon if args.epsilon is None else args.epsilon,
        base.theta if args.theta is None else args.theta,
    )


def _orders(args) -> TruncationOrders | None:
    """--p-alpha and --p-beta, each TruncationOrders' default where the other
    is given; None, eval_asymptotic's own choice, where neither is."""
    given = {k: v for k, v in (("p_alpha", args.p_alpha), ("p_beta", args.p_beta))
             if v is not None}
    return TruncationOrders(**given) if given else None


def evaluate_point(args, x: complex, y: complex, params: Parameters,
                   method: str, tol: float) -> Evaluation:
    """One evaluation by method: a METHODS name, or "contour" for the keyhole
    on whichever placement holds."""
    if method == "auto":
        return eval_auto(x, y, params, tol)
    if method == "series":
        return eval_double_series(x, y, params, SeriesBudget(tol=min(tol, 1e-10)))
    if method == "hyperbola":
        return eval_hyperbola(x, y, params, tol)
    if method == "asymptotic":
        return eval_asymptotic(x, y, params, _orders(args))
    if method == "oracle":
        ov = oracle_eval(x, y, params, digits=30)
        v = ov.as_complex()
        est = float(ov.tail_bound) + 4.0 * EPS * abs(v)
        if not math.isfinite(est):  # also where v is not finite
            raise BudgetExceeded("the oracle's value or tail bound does not fit in a double")
        return Evaluation(v, est, "oracle")
    spec = _contour_for(args, x, y, params)
    return eval_with_contour(x, y, params, spec, tol,
                             route=None if method == "contour" else method)


def _params_from(args) -> Parameters:
    mu = parse_complex(args.mu)
    return validate_params(args.alpha, args.beta, mu)


def _axis_values(args, name: str) -> list[complex]:
    point = getattr(args, name)
    lo = getattr(args, f"{name}_min")
    hi = getattr(args, f"{name}_max")
    if point is not None:
        return [parse_complex(point)]
    if lo is None or hi is None:
        raise DomainError(f"grid needs --{name} or both --{name}-min and --{name}-max")
    count = check_count(f"--{name}-count", getattr(args, f"{name}_count"), 1)
    zlo, zhi = parse_complex(lo), parse_complex(hi)
    if not cmath.isfinite(zhi - zlo):
        raise DomainError(f"the width from --{name}-min {lo} to --{name}-max {hi} is not finite")
    if count == 1:
        return [zlo]
    return [zlo + (zhi - zlo) * (k / (count - 1)) for k in range(count)]


def cmd_eval(args) -> int:
    params = _params_from(args)
    x, y = parse_complex(args.x), parse_complex(args.y)
    tol = _tol(args, 1e-8)
    t0 = time.perf_counter()
    ev = evaluate_point(args, x, y, params, args.method, tol)
    ms = (time.perf_counter() - t0) * 1e3
    emit_rows(params, [(x, y)], [ev], args.method, ms, args.format, single=True)
    return EXIT_OK


def cmd_grid(args) -> int:
    params = _params_from(args)
    xs = _axis_values(args, "x")
    ys = _axis_values(args, "y")
    tol = _tol(args, 1e-8)
    pts = [(x, y) for x in xs for y in ys]      # x-major row order
    t0 = time.perf_counter()
    batch = BATCHED.get(args.method)
    if batch is not None:
        results = batch([x for x, _ in pts], [y for _, y in pts], params, tol)
    else:
        results = [_settled(args, x, y, params, tol) for x, y in pts]
    ms = (time.perf_counter() - t0) * 1e3 / len(pts)
    failed = [(x, y, ev) for (x, y), ev in zip(pts, results) if isinstance(ev, Exception)]
    for x, y, exc in failed:
        print(f"point x={_c_str(x)} y={_c_str(y)} failed: {exc}", file=sys.stderr)
    emit_rows(params, pts, results, args.method, ms, args.format)
    return EXIT_NUMERIC if failed else EXIT_OK


def _settled(args, x: complex, y: complex, params: Parameters,
             tol: float) -> Evaluation | NumericFailure | DomainError:
    """evaluate_point, or the NumericFailure or DomainError it raised."""
    try:
        return evaluate_point(args, x, y, params, args.method, tol)
    except (NumericFailure, DomainError) as exc:
        return exc


def _compare_methods(args, x: complex, y: complex, params: Parameters,
                     tol: float) -> list[tuple[str, Evaluation | None, str]]:
    """(name, evaluation-or-None, note) for every applicable method."""
    names = ["series", "contour", "hyperbola"]
    if min(abs(x), abs(y)) >= ASYMPTOTIC_RADIUS:
        names.append("asymptotic")
    entries: list[tuple[str, Evaluation | None, str]] = []
    for name in names:
        try:
            ev = evaluate_point(args, x, y, params, name, tol)
        except (NumericFailure, DomainError) as exc:
            entries.append((name, None, f"skipped: {exc}"))
        else:
            entries.append((_split_method(ev.method)[0], ev, ""))
    return entries


def _compare_corpus(args) -> int:
    path = None if args.corpus == "__packaged__" else args.corpus
    records = load_corpus(path)
    tol = _tol(args, 1e-7)
    # one eval_many call per Parameters, printed in record order
    groups: dict[Parameters, list[int]] = {}
    for i, rec in enumerate(records):
        groups.setdefault(rec.params(), []).append(i)
    results: list = [None] * len(records)
    for params, idx in groups.items():
        evs = eval_many([records[i].x for i in idx], [records[i].y for i in idx], params, tol=1e-8)
        for i, ev in zip(idx, evs):
            results[i] = ev
    worst = 0.0
    flagged = 0
    for i, (rec, ev) in enumerate(zip(records, results)):
        ref = rec.value()
        if isinstance(ev, Exception):
            print(f"record {i}: FLAG ({type(ev).__name__}: {ev})")
            flagged += 1
            continue
        delta = abs(ev.value - ref)
        worst = max(worst, delta)
        ok = delta <= tol
        flagged += 0 if ok else 1
        print(
            f"record {i}: alpha={rec.alpha:g} beta={rec.beta:g} "
            f"x={_c_str(rec.x)} y={_c_str(rec.y)} method={ev.method} "
            f"|delta| {delta:.3e} {'ok' if ok else 'FLAG'}"
        )
    print(f"max |delta| = {fmt17(worst)}")
    print(f"flagged: {flagged} of {len(records)}")
    return EXIT_OK if flagged == 0 else EXIT_NUMERIC


def cmd_compare(args) -> int:
    if args.corpus is not None:
        return _compare_corpus(args)
    if args.alpha is None or args.beta is None:
        raise DomainError("compare needs --alpha and --beta (or --corpus)")
    params = _params_from(args)
    xs = _axis_values(args, "x")
    ys = _axis_values(args, "y")
    tol = _tol(args, 1e-8)
    worst = 0.0
    flagged = 0
    for x in xs:
        for y in ys:
            print(f"point x={_c_str(x)} y={_c_str(y)}")
            entries = _compare_methods(args, x, y, params, tol)
            for name, ev, note in entries:
                if ev is None:
                    print(f"  {name}: {note}")
                else:
                    print(
                        f"  {name}: value {fmt17(ev.value.real)} "
                        f"{fmt17(ev.value.imag)}  est {ev.est_error:.3e}"
                    )
            usable = [(n, e) for n, e, _ in entries if e is not None]
            if not usable:
                print("  no method gave a value FLAG")
                flagged += 1
            for (n1, e1), (n2, e2) in itertools.combinations(usable, 2):
                delta = abs(e1.value - e2.value)
                limit = e1.est_error + e2.est_error + tol * max(
                    1.0, abs(e1.value), abs(e2.value)
                )
                worst = max(worst, delta)
                ok = delta <= limit
                flagged += 0 if ok else 1
                print(
                    f"  pair {n1}/{n2}: |delta| {delta:.3e} "
                    f"limit {limit:.3e} {'ok' if ok else 'FLAG'}"
                )
    print(f"max |delta| = {fmt17(worst)}")
    print(f"flagged: {flagged}")
    return EXIT_OK if flagged == 0 else EXIT_NUMERIC


def cmd_selftest(args) -> int:
    names = args.suite if args.suite else None
    results = run_suites(names)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail} of {len(results)} suites passed")
    return EXIT_OK if n_fail == 0 else EXIT_SELFTEST


def _read_by(knob: str) -> str:
    return "read by " + ", ".join(KNOB_READERS[knob])


def _check_knobs(parser: argparse.ArgumentParser, args) -> None:
    """Reject, exit 2, a knob given to an evaluation that does not read it."""
    if args.command == "selftest":
        return
    reader = args.method if args.command != "compare" else (
        "compare --corpus" if args.corpus is not None else "compare")
    for knob, readers in KNOB_READERS.items():
        if getattr(args, knob) is not None and reader not in readers:
            parser.error(f"--{knob.replace('_', '-')} is not read by {reader} ({_read_by(knob)})")


def _add_param_flags(sp, required: bool = True) -> None:
    sp.add_argument("--alpha", type=float, required=required, help="first order (> 0)")
    sp.add_argument("--beta", type=float, required=required, help="second order (> 0)")
    sp.add_argument("--mu", default="1", help="offset, complex literal a+bi")
    sp.add_argument("--tol", type=float, default=None,
                    help=f"target absolute tolerance ({_read_by('tol')})")
    sp.add_argument("--p-alpha", type=int, default=None,
                    help=f"asymptotic truncation order, y sum ({_read_by('p_alpha')}; "
                         "default 3 with --p-beta, else the smallest-ring order)")
    sp.add_argument("--p-beta", type=int, default=None,
                    help=f"asymptotic truncation order, x sum ({_read_by('p_beta')}; "
                         "default 3 with --p-alpha, else the smallest-ring order)")
    sp.add_argument("--epsilon", type=float, default=None,
                    help=f"contour arc radius override ({_read_by('epsilon')})")
    sp.add_argument("--theta", type=float, default=None,
                    help=f"contour ray angle override ({_read_by('theta')})")


def _add_axis_flags(sp) -> None:
    for name in ("x", "y"):
        sp.add_argument(f"--{name}", default=None, help=f"fixed {name}, complex literal")
        sp.add_argument(f"--{name}-min", default=None, help=f"{name} range start")
        sp.add_argument(f"--{name}-max", default=None, help=f"{name} range end")
        sp.add_argument(f"--{name}-count", type=int, default=5, help=f"{name} sample count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ml2v",
        description="Two-variable Mittag-Leffler function E_{alpha,beta}(x, y; mu)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate at a single point")
    _add_param_flags(p_eval)
    p_eval.add_argument("--x", required=True, help="first argument, complex literal")
    p_eval.add_argument("--y", required=True, help="second argument, complex literal")
    p_eval.add_argument("--method", choices=METHODS, default="auto")
    p_eval.add_argument("--format", choices=("csv", "json"), default="csv")
    p_eval.set_defaults(func=cmd_eval)

    p_grid = sub.add_parser("grid", help="sweep a grid of points")
    _add_param_flags(p_grid)
    _add_axis_flags(p_grid)
    p_grid.add_argument("--method", choices=METHODS, default="auto")
    p_grid.add_argument("--format", choices=("csv", "json"), default="csv")
    p_grid.set_defaults(func=cmd_grid)

    p_cmp = sub.add_parser("compare", help="cross-check every applicable method")
    _add_param_flags(p_cmp, required=False)
    _add_axis_flags(p_cmp)
    p_cmp.add_argument(
        "--corpus",
        nargs="?",
        const="__packaged__",
        default=None,
        metavar="PATH",
        help="replay the frozen oracle corpus (optional path)",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_self = sub.add_parser("selftest", help="run the invariant suites")
    p_self.add_argument(
        "--suite", action="append", choices=SUITES, help="run only this suite (repeatable)"
    )
    p_self.set_defaults(func=cmd_selftest)
    return parser


# main's parser: built on main's first call, and read-only from then on
_parser = functools.cache(build_parser)


def _attach_negative_literals(argv: list[str]) -> list[str]:
    """Write "--x -2-1i" as "--x=-2-1i": argparse reads "-2" as a value
    but any other literal that starts with a minus as an unknown option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and tok.startswith("-"):
            try:
                _complex_literal(tok)
            except DomainError:
                pass
            else:
                out[-1] += "=" + tok
                continue
        out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    args = parser.parse_args(_attach_negative_literals(argv))
    _check_knobs(parser, args)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
