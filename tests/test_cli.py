"""Command-line interface: formats, exit codes, and the selftest battery."""

import json
import math
import subprocess
import sys
from types import SimpleNamespace

import pytest

from ml2v import cli, contour, selftest, validate_params
from ml2v.asymptotics import TruncationOrders, eval_asymptotic
from ml2v.errors import DomainError

E = math.e
CLOSED_21 = 2 * E * E - E    # (x e^x - y e^y)/(x - y) at (2, 1)


def run_cli(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def csv_rows(text):
    lines = text.strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    keys = lines[0].split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


def test_parse_complex_forms():
    assert cli.parse_complex("2") == 2 + 0j
    assert cli.parse_complex("-3.5") == -3.5 + 0j
    assert cli.parse_complex("1+2i") == 1 + 2j
    assert cli.parse_complex("1-2i") == 1 - 2j
    assert cli.parse_complex("0.5i") == 0.5j
    assert cli.parse_complex("4+4j") == 4 + 4j
    for bad in ("1 + 2i", "(1+2j)", "abc", ""):
        with pytest.raises(DomainError):
            cli.parse_complex(bad)


def _without_ms(text):
    return [{k: v for k, v in row.items() if k != "ms"} for row in csv_rows(text)]


@pytest.mark.parametrize(
    "head,flag,literal,tail",
    [
        (["eval", "--alpha", "1", "--beta", "1"], "--x", "-2-1i", ["--y", "1"]),
        (["eval", "--alpha", "0.8", "--beta", "0.9", "--x", "1", "--y", "-1"],
         "--mu", "-0.5+1i", []),
        (["grid", "--alpha", "0.5", "--beta", "0.8", "--x", "1", "--y-max", "2",
          "--y-count", "2"], "--y-min", "-8-3i", []),
    ],
    ids=["x", "mu", "grid-bound"],
)
def test_negative_literal_after_a_space(head, flag, literal, tail, capsys):
    # argparse alone takes "-2-1i" for an option; both spellings must agree
    rc_eq, out_eq, _ = run_cli(head + [f"{flag}={literal}"] + tail, capsys)
    rc_sp, out_sp, err = run_cli(head + [flag, literal] + tail, capsys)
    assert rc_eq == rc_sp == 0, err
    assert _without_ms(out_sp) == _without_ms(out_eq)


def test_eval_series_closed_form(capsys):
    rc, out, _ = run_cli(
        ["eval", "--alpha", "1", "--beta", "1", "--mu", "1",
         "--x", "2", "--y", "1", "--method", "series"],
        capsys,
    )
    assert rc == 0
    (row,) = csv_rows(out)
    assert row["method"] == "series"
    assert abs(float(row["val_re"]) - CLOSED_21) <= 1e-9 * CLOSED_21
    assert abs(float(row["val_im"])) <= 1e-12
    assert float(row["est_error"]) < 1e-8


def test_eval_hyperbola_closed_form(capsys):
    rc, out, _ = run_cli(
        ["eval", "--alpha", "1", "--beta", "1", "--mu", "1",
         "--x", "2", "--y", "1", "--method", "hyperbola", "--tol", "1e-10"],
        capsys,
    )
    assert rc == 0
    (row,) = csv_rows(out)
    assert row["method"] == "hyperbola"
    assert abs(float(row["val_re"]) - CLOSED_21) <= float(row["est_error"]) <= 1e-10 * CLOSED_21


def test_eval_inadmissible_orders_exit_2(capsys):
    rc, _, err = run_cli(
        ["eval", "--alpha", "2.5", "--beta", "1.5", "--mu", "1", "--x", "1", "--y", "1"],
        capsys,
    )
    assert rc == 2
    assert "domain error" in err


EVAL_05 = ["eval", "--alpha", "0.5", "--beta", "0.8"]


@pytest.mark.parametrize(
    "argv",
    [
        EVAL_05 + ["--x", "nan", "--y", "2"],
        EVAL_05 + ["--x", "1e400", "--y", "2"],
        EVAL_05 + ["--x", "-1e400", "--y", "2"],
        EVAL_05 + ["--x", "1", "--y", "2+1e400i"],
        EVAL_05 + ["--x", "inf", "--y", "2"],
        EVAL_05 + ["--mu", "nan", "--x", "1", "--y", "2"],
        EVAL_05 + ["--x", "1", "--y", "2", "--tol", "nan"],
        EVAL_05 + ["--x", "1", "--y", "2", "--tol", "inf"],
        EVAL_05 + ["--x", "1", "--y", "2", "--tol", "0"],
        EVAL_05 + ["--x", "1", "--y", "2", "--tol", "-1e-8"],
        ["grid", "--alpha", "0.5", "--beta", "0.8", "--x-min", "nan", "--x-max", "1",
         "--y", "1"],
        # each bound is finite, but not the width between them
        ["grid", "--alpha", "0.5", "--beta", "0.8", "--x-min", "-1e308", "--x-max", "1e308",
         "--x-count", "3", "--y", "1", "--method", "series"],
    ],
    ids=["x-nan", "x-overflow", "x-neg-overflow", "y-imag-overflow", "x-inf", "mu-nan",
         "tol-nan", "tol-inf", "tol-zero", "tol-negative", "grid-bound-nan",
         "grid-width-overflow"],
)
def test_non_finite_input_exit_2(argv, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert "domain error" in err
    assert out == ""


POINT_11 = ["--alpha", "1", "--beta", "1", "--x", "2", "--y", "1"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["eval", *POINT_11, "--method", "asymptotic", "--tol", "1e-6"], "--tol"),
        (["grid", *POINT_11, "--method", "oracle", "--tol", "1e-6"], "--tol"),
        (["eval", *POINT_11, "--epsilon", "2"], "--epsilon"),
        (["eval", *POINT_11, "--method", "series", "--theta", "1"], "--theta"),
        (["grid", *POINT_11, "--method", "asymptotic", "--theta", "1"], "--theta"),
        (["eval", *POINT_11, "--method", "lemma1", "--p-alpha", "4"], "--p-alpha"),
        (["eval", *POINT_11, "--p-beta", "4"], "--p-beta"),
        (["compare", "--corpus", "--epsilon", "2"], "--epsilon"),
        (["compare", "--corpus", "--p-beta", "4"], "--p-beta"),
        (["grid", *POINT_11, "--method", "hyperbola", "--epsilon", "2"], "--epsilon"),
    ],
    ids=["asymptotic-tol", "oracle-tol", "auto-epsilon", "series-theta", "asymptotic-theta",
         "lemma1-p-alpha", "auto-p-beta", "corpus-epsilon", "corpus-p-beta", "hyperbola-epsilon"],
)
def test_unread_knob_exit_2(argv, flag, capsys):
    # a knob the chosen evaluation does not read is a usage error, not ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_DOMAIN
    assert f"{flag} is not read by" in capsys.readouterr().err


def test_eval_origin_is_one(capsys):
    rc, out, _ = run_cli(
        ["eval", "--alpha", "1", "--beta", "1", "--mu", "1", "--x", "0", "--y", "0"],
        capsys,
    )
    assert rc == 0
    (row,) = csv_rows(out)
    assert abs(float(row["val_re"]) - 1.0) <= 1e-12


def test_eval_csv_json_numeric_agreement(capsys):
    argv = ["eval", "--alpha", "0.8", "--beta", "0.8", "--mu", "0.9",
            "--x", "-5", "--y", "-5", "--method", "lemma1"]
    rc1, out_csv, _ = run_cli(argv + ["--format", "csv"], capsys)
    rc2, out_json, _ = run_cli(argv + ["--format", "json"], capsys)
    assert rc1 == rc2 == 0
    (row,) = csv_rows(out_csv)
    obj = json.loads(out_json)
    for key in cli.CSV_HEADER.split(","):
        if key == "ms":
            continue    # wall time differs between runs
        if key in ("method", "case"):
            assert row[key] == obj[key]
        else:
            assert float(row[key]) == obj[key]


def test_eval_asymptotic_case_column(capsys):
    rc, out, _ = run_cli(
        ["eval", "--alpha", "1", "--beta", "1", "--mu", "1",
         "--x", "30", "--y", "20", "--method", "asymptotic"],
        capsys,
    )
    assert rc == 0
    (row,) = csv_rows(out)
    assert row["method"] == "asymptotic"
    assert row["case"] == "case1"


@pytest.mark.parametrize("flags,orders", [([], None), (["--p-alpha", "4"], {"p_alpha": 4})],
                         ids=["default", "p-alpha"])
def test_asymptotic_orders_are_eval_asymptotics(flags, orders, capsys):
    # without --p-*, eval_asymptotic picks the order of the smallest ring
    # (est_error 1.4e-19 here; a fixed order 3 gives 3.7e-8), and a lone
    # --p-alpha leaves p_beta at TruncationOrders' default
    p = validate_params(0.5, 0.5, 1)
    want = eval_asymptotic(-40, -30, p, TruncationOrders(**orders) if orders else None)
    args = ["--alpha", "0.5", "--beta", "0.5", "--x", "-40", "--y", "-30", *flags]
    rc, out, _ = run_cli(["eval", *args, "--method", "asymptotic"], capsys)
    assert rc == 0
    (row,) = csv_rows(out)
    got = complex(float(row["val_re"]), float(row["val_im"]))
    assert (got, float(row["est_error"])) == (want.value, want.est_error)
    rc, out, _ = run_cli(["compare", *args], capsys)
    assert rc == 0
    line = (f"  asymptotic: value {cli.fmt17(want.value.real)} "
            f"{cli.fmt17(want.value.imag)}  est {want.est_error:.3e}")
    assert line in out.splitlines()
    if orders is None:
        assert want.value.real == 1.3677349260999944e-05
        assert want.est_error < 2e-19


def test_eval_oracle_method(capsys):
    rc, out, _ = run_cli(
        ["eval", "--alpha", "1", "--beta", "1", "--mu", "1",
         "--x", "2", "--y", "1", "--method", "oracle"],
        capsys,
    )
    assert rc == 0
    (row,) = csv_rows(out)
    assert row["method"] == "oracle"
    assert abs(float(row["val_re"]) - CLOSED_21) <= 1e-12 * CLOSED_21


def test_eval_oracle_overflow_prints_no_row(capsys):
    # E(800, 1) ~ e^800 does not fit in a double: a numeric failure, no row
    rc, out, err = run_cli(
        ["eval", "--alpha", "1", "--beta", "1", "--x", "800", "--y", "1", "--method", "oracle"],
        capsys,
    )
    assert rc == cli.EXIT_NUMERIC
    assert out == ""
    assert err.startswith("numeric failure: the oracle's value")


def test_eval_wrong_lemma_exit_3(capsys):
    # both images inside the disk, so lemma2's precondition fails
    rc, _, err = run_cli(
        ["eval", "--alpha", "0.8", "--beta", "0.8", "--mu", "1",
         "--x", "-5", "--y", "-5", "--method", "lemma2"],
        capsys,
    )
    assert rc == 3
    assert "numeric failure" in err


@pytest.mark.parametrize("method", ["asymptotic", "lemma1"])
def test_eval_empty_angle_window_exit_3(method, capsys):
    # alpha*beta = 2 with a boundary order: the angle window (pi, pi] is
    # empty, a GeometryError whichever route needs it
    rc, _, err = run_cli(
        ["eval", "--alpha", "2", "--beta", "1", "--mu", "1",
         "--x", "30", "--y", "20", "--method", method],
        capsys,
    )
    assert rc == 3
    assert "no admissible contour angle" in err


def test_eval_contour_override_multi_preimage_point(capsys):
    # conjugate preimage pair swallowed by a wide arc; lemma1 then applies
    rc, out, _ = run_cli(
        ["eval", "--alpha", "1.2", "--beta", "0.9", "--mu", "1",
         "--x", "-2", "--y", "-2", "--method", "lemma1", "--epsilon", "2.5"],
        capsys,
    )
    assert rc == 0
    (row,) = csv_rows(out)
    rc2, out2, _ = run_cli(
        ["eval", "--alpha", "1.2", "--beta", "0.9", "--mu", "1",
         "--x", "-2", "--y", "-2", "--method", "series"],
        capsys,
    )
    assert rc2 == 0
    (row2,) = csv_rows(out2)
    assert abs(float(row["val_re"]) - float(row2["val_re"])) <= 1e-9


def test_grid_3x3_x_major(capsys):
    rc, out, _ = run_cli(
        ["grid", "--alpha", "1", "--beta", "1", "--mu", "1",
         "--x-min", "-1", "--x-max", "1", "--x-count", "3",
         "--y-min", "-1", "--y-max", "1", "--y-count", "3"],
        capsys,
    )
    assert rc == 0
    rows = csv_rows(out)
    assert len(rows) == 9
    points = [(float(r["x_re"]), float(r["y_re"])) for r in rows]
    expect = [(x, y) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]
    assert points == expect
    origin = next(r for r in rows if float(r["x_re"]) == 0 and float(r["y_re"]) == 0)
    assert abs(float(origin["val_re"]) - 1.0) <= 1e-12


def test_grid_json_round_trip(capsys):
    argv = ["grid", "--alpha", "1", "--beta", "1", "--mu", "1",
            "--x-min", "-1", "--x-max", "1", "--x-count", "3",
            "--y-min", "-1", "--y-max", "1", "--y-count", "3"]
    rc1, out_csv, _ = run_cli(argv, capsys)
    rc2, out_json, _ = run_cli(argv + ["--format", "json"], capsys)
    assert rc1 == rc2 == 0
    rows = csv_rows(out_csv)
    objs = json.loads(out_json)
    assert len(objs) == 9
    for row, obj in zip(rows, objs):
        for key in ("alpha", "x_re", "y_re", "val_re", "val_im", "est_error"):
            assert float(row[key]) == obj[key]
    assert json.loads(json.dumps(objs)) == objs


def test_grid_method_switch_with_magnitude(capsys):
    base = ["--alpha", "0.5", "--beta", "0.5", "--mu", "1",
            "--x-min", "-40", "--x-max", "-10", "--x-count", "7", "--y", "-20"]
    rc, out, _ = run_cli(["grid"] + base + ["--tol", "1e-6"], capsys)
    assert rc == 0
    rows = csv_rows(out)
    methods = {float(r["x_re"]): r["method"] for r in rows}
    # large arguments take the hyperbola too
    assert set(methods.values()) == {"hyperbola"}
    # the asymptotic rows of the same sweep, every one in case 4
    rc3, out3, _ = run_cli(["grid"] + base + ["--method", "asymptotic"], capsys)
    assert rc3 == 0
    asym = {float(r["x_re"]): r for r in csv_rows(out3)}
    assert all(r["case"] == "case4" for r in asym.values())
    for r in rows:
        a = asym[float(r["x_re"])]
        limit = float(r["est_error"]) + float(a["est_error"])
        assert abs(float(r["val_re"]) - float(a["val_re"])) <= limit
    # hyperbola rows cross-checked against the pure contour route
    rc2, out2, _ = run_cli(["grid"] + base + ["--method", "lemma1"], capsys)
    assert rc2 == 0
    ref = {float(r["x_re"]): float(r["val_re"]) for r in csv_rows(out2)}
    for r in rows:
        assert abs(float(r["val_re"]) - ref[float(r["x_re"])]) <= 1e-6


def test_grid_failed_row_continues(capsys):
    # (3, 3) collapses lemma3's denominator; (2, 3) is fine
    rc, out, err = run_cli(
        ["grid", "--alpha", "1", "--beta", "1", "--mu", "1",
         "--x-min", "2", "--x-max", "3", "--x-count", "2",
         "--y", "3", "--method", "lemma3"],
        capsys,
    )
    assert rc == 3
    rows = csv_rows(out)
    assert len(rows) == 2
    good = next(r for r in rows if float(r["x_re"]) == 2)
    bad = next(r for r in rows if float(r["x_re"]) == 3)
    assert float(good["est_error"]) < 1e-6
    assert bad["est_error"] == "inf"
    assert bad["val_re"] == "nan"
    assert "failed" in err


@pytest.mark.parametrize("method", ["auto", "hyperbola"])
def test_grid_rows_equal_eval_rows(method, capsys):
    # the unit disk, the annulus and a point the asymptotics take first
    params = ["--alpha", "0.5", "--beta", "0.8", "--mu", "1", "--method", method]
    rc, out, _ = run_cli(["grid", *params, "--x-min", "-0.5+0.25i", "--x-max", "20+4i",
                          "--x-count", "4", "--y-min", "0.5i", "--y-max", "-18+9i",
                          "--y-count", "3"], capsys)
    assert rc == 0
    rows = csv_rows(out)
    assert len(rows) == 12 and len({r["ms"] for r in rows}) == 1
    for row in rows:
        x = f"{row['x_re']}{float(row['x_im']):+.17g}i"
        y = f"{row['y_re']}{float(row['y_im']):+.17g}i"
        rc1, out1, _ = run_cli(["eval", *params, f"--x={x}", f"--y={y}"], capsys)
        assert rc1 == 0
        (single,) = csv_rows(out1)
        assert {k: v for k, v in single.items() if k != "ms"} == {
            k: v for k, v in row.items() if k != "ms"}


def test_grid_uncertified_row_exits_3_and_keeps_the_others(capsys):
    # x = y = 12+5i at equal orders is a double pole the series cannot certify
    rc, out, err = run_cli(
        ["grid", "--alpha", "0.5", "--beta", "0.5", "--mu", "1",
         "--x", "12+5i", "--y-min", "12+5i", "--y-max", "13+5i", "--y-count", "2"],
        capsys,
    )
    assert rc == 3
    bad, good = csv_rows(out)
    assert bad["val_re"] == "nan" and bad["est_error"] == "inf"
    value = complex(float(good["val_re"]), float(good["val_im"]))
    assert good["method"] == "hyperbola"
    assert float(good["est_error"]) <= 1e-8 * max(1.0, abs(value))
    assert "misses tol" in err


def test_eval_uncertified_double_pole_exits_3(capsys):
    # the series returned est_error 47 here, and eval exited 0
    rc, out, err = run_cli(
        ["eval", "--alpha", "0.5", "--beta", "0.8", "--x", "0.454869570036895+5.4960809970146505i",
         "--y", "-11.130528790172699+10.58829922644027i"],
        capsys,
    )
    assert rc == 3 and out == ""
    assert "est_error 47.3 misses tol 1e-08" in err


def test_compare_series_vs_lemma1(capsys):
    rc, out, _ = run_cli(
        ["compare", "--alpha", "0.8", "--beta", "0.8", "--mu", "1",
         "--x", "-5", "--y", "-5"],
        capsys,
    )
    assert rc == 0
    assert "series" in out and "lemma1" in out
    assert "  pair lemma1/hyperbola: " in out
    assert "flagged: 0" in out
    delta = float(out.split("max |delta| = ")[1].splitlines()[0])
    assert delta <= 1e-8


def test_compare_degenerate_skipped(capsys):
    rc, out, _ = run_cli(
        ["compare", "--alpha", "1", "--beta", "1", "--mu", "1", "--x", "3", "--y", "3"],
        capsys,
    )
    assert rc == 0
    # the x residue's denominator zeta^(1/alpha) - y vanishes at the double pole
    assert ("  contour: skipped: pole on branch 0 of zeta^(1/1) = 3+0j: "
            "|zeta^(1/1) - 3+0j| = 0 is inside the degeneracy floor") in out.splitlines()


def test_compare_flags_a_pair_without_a_finite_limit(capsys):
    # every method raises BudgetExceeded here: a point without a value is
    # flagged, not passed as an agreement of nothing
    rc, out, _ = run_cli(
        ["compare", "--alpha", "0.5", "--beta", "0.5", "--x", "30", "--y", "-40"], capsys
    )
    lines = out.splitlines()
    skipped = [line for line in lines if ": skipped: " in line]
    assert rc == cli.EXIT_NUMERIC
    assert [line.split(":")[0].strip() for line in skipped] == [
        "series", "contour", "hyperbola", "asymptotic"]
    assert "  no method gave a value FLAG" in lines
    assert not any(line.startswith("  pair ") for line in lines)
    assert "flagged: 1" in out


def test_compare_has_no_format_flag(capsys):
    # compare prints text only; --format belongs to eval and grid
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--alpha", "1", "--beta", "1", "--x", "3", "--y", "3",
                  "--format", "json"])
    assert exc.value.code == cli.EXIT_DOMAIN
    assert "--format" in capsys.readouterr().err


def test_compare_corpus_replay(capsys):
    rc, out, _ = run_cli(["compare", "--corpus"], capsys)
    assert rc == 0
    assert "flagged: 0 of" in out
    delta = float(out.split("max |delta| = ")[1].splitlines()[0])
    assert delta <= 1e-7


def test_selftest_all_suites(capsys, monkeypatch, cached_run_suite):
    # the table comes from the session's one run of each suite
    monkeypatch.setattr(selftest, "run_suite", cached_run_suite)
    rc, out, _ = run_cli(["selftest"], capsys)
    assert rc == 0
    assert "6 of 6 suites passed" in out
    for name in ("gamma", "deformation", "recurrence", "symmetry", "expansion", "decay"):
        assert name in out


def test_selftest_suite_filter(capsys, monkeypatch, cached_run_suite):
    monkeypatch.setattr(selftest, "run_suite", cached_run_suite)
    rc, out, _ = run_cli(["selftest", "--suite", "gamma"], capsys)
    assert rc == 0
    assert "1 of 1 suites passed" in out
    assert "deformation" not in out


def test_selftest_budget_negative_control(capsys, monkeypatch):
    # starving the quadrature must surface as a deformation failure, exit 1
    monkeypatch.setattr(contour, "DEFAULT_NODE_BUDGET", 40)
    rc, out, _ = run_cli(["selftest", "--suite", "deformation"], capsys)
    assert rc == 1
    assert "FAIL" in out


NAN = complex(math.nan, math.nan)


@pytest.mark.parametrize(
    "suite,target,result",
    [
        ("gamma", "recip_gamma_hankel", NAN),
        ("deformation", "eval_with_contour", SimpleNamespace(value=NAN)),
        ("recurrence", "eval_double_series", SimpleNamespace(value=NAN, est_error=0.0)),
        ("symmetry", "eval_double_series", SimpleNamespace(value=NAN, est_error=0.0)),
        ("expansion", "expansion_sides", (NAN, NAN)),
        ("decay", "eval_asymptotic", SimpleNamespace(value=NAN, est_error=1.0)),
    ],
    ids=selftest.SUITES,
)
def test_selftest_suite_fails_on_nan(suite, target, result, monkeypatch):
    # a nan from the evaluator under check must fail the suite, not vanish
    # from its worst-case statistic
    monkeypatch.setattr(selftest, target, lambda *a, **k: result)
    res = selftest.run_suite(suite)
    assert not res.passed
    assert "nan" in res.detail


def test_module_invocation_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "ml2v.cli", "eval", "--alpha", "1", "--beta", "1",
         "--mu", "1", "--x", "2", "--y", "1", "--method", "series"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    row = proc.stdout.strip().splitlines()[1].split(",")
    assert abs(float(row[8]) - CLOSED_21) <= 1e-9 * CLOSED_21
