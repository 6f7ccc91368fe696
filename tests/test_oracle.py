"""Extended-precision oracle: closed-form anchors, certificates, corpus IO."""

from __future__ import annotations

import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import pytest

from ml2v import BudgetExceeded, DomainError, validate_params
from ml2v.oracle import (
    CorpusRecord,
    _as_fraction,
    load_corpus,
    make_record,
    oracle_eval,
)

ONE_ONE = validate_params(1.0, 1.0, 1.0)


def closed_form_11(x: complex, y: complex):
    """(x e^x - y e^y) / (x - y) at alpha = beta = mu = 1, mp precision."""
    x, y = mp.mpc(x), mp.mpc(y)
    if x == y:
        return (1 + x) * mp.exp(x)
    return (x * mp.exp(x) - y * mp.exp(y)) / (x - y)


def test_digits_window_enforced():
    with pytest.raises(DomainError):
        oracle_eval(1.0, 1.0, ONE_ONE, digits=19)
    with pytest.raises(DomainError):
        oracle_eval(1.0, 1.0, ONE_ONE, digits=101)


def test_matches_exponential_anchor():
    ov = oracle_eval(2.0, 1.0, ONE_ONE, 30)
    with mp.workdps(45):
        err = abs(ov.value - closed_form_11(2.0, 1.0))
        assert err < mp.mpf("1e-24")
    assert ov.tail_bound <= 10.0 ** (5 - 30) * max(abs(ov.as_complex()), 1.0)


def test_equal_arguments_use_derivative_form():
    ov = oracle_eval(2.0, 2.0, ONE_ONE, 30)
    with mp.workdps(45):
        assert abs(ov.value - closed_form_11(2.0, 2.0)) < mp.mpf("1e-24")


def test_near_equal_arguments_survive_inner_cancellation():
    ov = oracle_eval(2.0, 2.0 + 1e-9, ONE_ONE, 30)
    with mp.workdps(60):
        assert abs(ov.value - closed_form_11(2.0, 2.0 + 1e-9)) < mp.mpf("1e-24")


def test_heavy_cancellation_is_handled():
    # E(-20, -20) = -19 e^{-20}: the peak block is ~e20 times the result
    ov = oracle_eval(-20.0, -20.0, ONE_ONE, 30)
    with mp.workdps(60):
        rel = abs(ov.value - closed_form_11(-20.0, -20.0)) / abs(closed_form_11(-20.0, -20.0))
        assert rel < mp.mpf("1e-16")
        assert abs(ov.value - closed_form_11(-20.0, -20.0)) < mp.mpf("1e-25")


def test_zero_arguments_reduce_to_reciprocal_gamma():
    par = validate_params(0.5, 0.8, 0.5 + 0.3j)
    ov = oracle_eval(0.0, 0.0, par, 30)
    with mp.workdps(40):
        assert abs(ov.value - mp.rgamma(mp.mpc(0.5, 0.3))) < mp.mpf("1e-28")


def test_one_sided_zero_reduces_to_one_variable_series():
    # y = 0 leaves sum_k x^k / Gamma(alpha k + mu), independent of beta
    a = oracle_eval(-4.0, 0.0, validate_params(0.5, 0.8, 1.0), 30)
    b = oracle_eval(-4.0, 0.0, validate_params(0.5, 1.3, 1.0), 30)
    with mp.workdps(40):
        assert abs(a.value - b.value) < mp.mpf("1e-26")


def test_general_orders_against_brute_force():
    # beta = 0.8 is summed at its exact binary value, not at 4/5
    par = validate_params(0.5, 0.8, 1.0)
    ov = oracle_eval(-2.0 + 1j, 1.5 - 0.5j, par, 30)
    with mp.workdps(45):
        brute = mp.mpc(0)
        x, y = mp.mpc(-2, 1), mp.mpc(1.5, -0.5)
        beta = mp.mpf(0.8)
        for n in range(90):
            for m in range(60):
                brute += x**n * y**m * mp.rgamma(mp.mpf(n) / 2 + beta * m + 1)
        assert abs(ov.value - brute) < mp.mpf("1e-22")


@pytest.mark.parametrize(
    "x,y,alpha,beta,mu",
    [
        (-4 + 0j, 3 + 0j, 0.5, 0.8, 1.0),
        (2 + 2j, -1 - 3j, 1.2, 0.9, 1.0),
        (4 + 4j, 4 - 4j, 0.7, 0.7, 0.5 + 0.3j),
        (-10.0, -10.0, 0.5, 0.5, 1.0),
    ],
)
def test_dual_precision_agreement(x, y, alpha, beta, mu):
    par = validate_params(alpha, beta, mu)
    v30 = oracle_eval(x, y, par, 30)
    v50 = oracle_eval(x, y, par, 50)
    with mp.workdps(60):
        d = abs(v30.value - v50.value) / max(abs(v50.value), mp.mpf(1))
        assert d < mp.mpf("1e-25")


def test_budget_exceeded_for_huge_arguments():
    par = validate_params(0.5, 0.5, 1.0)
    with pytest.raises(BudgetExceeded):
        oracle_eval(-1e4, -1e4, par, 30)


def test_rational_reading_of_orders():
    # only exact dyadic readings qualify; 0.8 as a double is not 4/5
    assert _as_fraction(0.5) == mp.mpf(1) / 2
    assert _as_fraction(0.75).denominator == 4
    assert _as_fraction(1.0) == 1
    assert _as_fraction(0.8) is None
    assert _as_fraction(math.pi / 3) is None


def test_corpus_record_roundtrip(tmp_path):
    par = validate_params(1.2, 0.9, 1.0)
    rec = make_record(-2 + 1j, 0.5 - 0.25j, par, 30)
    line = rec.to_json()
    back = CorpusRecord.from_json(line)
    assert back == rec
    assert abs(back.value() - rec.value()) == 0.0
    # frozen value really is the oracle value to double precision
    ov = oracle_eval(-2 + 1j, 0.5 - 0.25j, par, 30)
    assert abs(back.value() - ov.as_complex()) < 1e-13 * max(1.0, abs(ov.as_complex()))


def test_corpus_values_have_the_bits_of_a_53_bit_parse():
    ctx = mp.MPContext()
    ctx.prec = 53
    for rec in load_corpus():
        want = (float(ctx.mpf(rec.value_re)), float(ctx.mpf(rec.value_im)))
        got = rec.value()
        assert (got.real.hex(), got.imag.hex()) == tuple(v.hex() for v in want)


def test_corpus_replay_loads_no_mpmath():
    code = ("import sys\n"
            "from ml2v.oracle import load_corpus\n"
            "values = [r.value() for r in load_corpus()]\n"
            "assert 'mpmath' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def _oracle_bits(digits: int):
    ov = oracle_eval(1.5 + 0.5j, -2 + 1j, validate_params(0.5, 0.8, 1), digits)
    return ov.value.real._mpf_, ov.value.imag._mpf_, ov.tail_bound.hex(), ov.digits


def test_oracle_bits_do_not_depend_on_threads():
    # a call that set mpmath's process-wide precision would sum the calls
    # of the other threads at its own precision
    digits = [20, 25, 40, 60]
    prec = mp.mp.prec
    single = {d: _oracle_bits(d) for d in digits}
    jobs = digits * 3
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(_oracle_bits, jobs, timeout=120))
    finally:
        sys.setswitchinterval(switch)
    assert threaded == [single[d] for d in jobs]
    # and no call changes mpmath's own precision
    assert mp.mp.prec == prec
