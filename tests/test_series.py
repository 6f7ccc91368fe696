"""Certified double-series summation and its one-variable relative."""

import cmath
import itertools
import math
import time
import warnings

import numpy as np
import pytest

from ml2v import series
from ml2v.core import EPS, validate_params
from ml2v.errors import BudgetExceeded, DomainError
from ml2v.oracle import oracle_eval
from ml2v.series import SeriesBudget, eval_double_series, eval_ml_one

P111 = validate_params(1, 1, 1)


def closed_form(x, y):
    # alpha = beta = mu = 1 reduces E to (x e^x - y e^y)/(x - y)
    if x == y:
        return (1 + x) * cmath.exp(x)
    return (x * cmath.exp(x) - y * cmath.exp(y)) / (x - y)


def test_budget_validation():
    SeriesBudget()
    with pytest.raises(DomainError):
        SeriesBudget(tol=0.0)
    with pytest.raises(DomainError):
        SeriesBudget(tol=math.inf)
    with pytest.raises(DomainError):
        SeriesBudget(max_terms=3)


@pytest.mark.parametrize("max_terms", [10.5, "100", math.nan, math.inf])
def test_budget_rejects_a_non_integer_term_count(max_terms):
    # 10.5 and "100" once raised a bare TypeError mid-sum; nan and inf
    # turned the budget off
    with pytest.raises(DomainError, match="integer"):
        SeriesBudget(max_terms=max_terms)


def test_closed_form_anchor():
    ev = eval_double_series(2.0, 1.0, P111)
    ref = 2 * math.e**2 - math.e
    assert abs(ev.value - ref) / ref <= 1e-12
    assert abs(ev.value - ref) <= ev.est_error
    assert ev.method == "series"


def test_closed_form_random_points():
    rng = np.random.default_rng(19)
    for _ in range(25):
        x = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        y = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        ev = eval_double_series(x, y, P111)
        ref = closed_form(x, y)
        assert abs(ev.value - ref) <= ev.est_error + 1e-12 * max(1.0, abs(ref))


def test_equal_arguments_limit():
    ev = eval_double_series(1.5, 1.5, P111)
    ref = 2.5 * math.exp(1.5)
    assert abs(ev.value - ref) <= 1e-12 * ref


def test_swap_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(15):
        a, b = rng.uniform(0.4, 1.3), rng.uniform(0.4, 1.3)
        mu = complex(rng.uniform(-0.5, 2.0), rng.uniform(-0.5, 0.5))
        x = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        y = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        e1 = eval_double_series(x, y, validate_params(a, b, mu))
        e2 = eval_double_series(y, x, validate_params(b, a, mu))
        assert abs(e1.value - e2.value) <= e1.est_error + e2.est_error + 1e-13


def test_shift_recurrence():
    # E(mu) = 1/Gamma(mu) + x E(mu+a) + y E(mu+b) - x y E(mu+a+b)
    from ml2v.gamma import recip_gamma

    rng = np.random.default_rng(31)
    for _ in range(15):
        a, b = rng.uniform(0.4, 1.4), rng.uniform(0.4, 1.4)
        if a * b >= 2:
            continue
        mu = complex(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5))
        x = complex(rng.uniform(-2.5, 2.5), rng.uniform(-1, 1))
        y = complex(rng.uniform(-2.5, 2.5), rng.uniform(-1, 1))
        evs = [
            eval_double_series(x, y, validate_params(a, b, m))
            for m in (mu, mu + a, mu + b, mu + a + b)
        ]
        lhs = evs[0].value
        rhs = recip_gamma(mu) + x * evs[1].value + y * evs[2].value - x * y * evs[3].value
        slack = 4 * sum(e.est_error for e in evs) + 1e-12 * max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= slack


def test_negative_mu_pole_guard():
    # early reciprocal-gamma zeros must not trigger a premature stop
    pp = validate_params(0.7, 0.7, -2.5)
    ev = eval_double_series(3.0, 2.0, pp)
    ref = oracle_eval(3.0, 2.0, pp, digits=30).as_complex()
    assert abs(ev.value - ref) <= max(ev.est_error, 1e-12 * abs(ref))


def test_all_zero_value():
    ev = eval_double_series(0.0, 0.0, validate_params(1, 1, 0))
    assert ev.value == 0
    assert ev.est_error < 1e-15


def test_budget_exhaustion_is_soft():
    with pytest.raises(BudgetExceeded):
        eval_double_series(30.0, 30.0, validate_params(0.5, 0.5, 1), SeriesBudget(max_terms=50))


def test_overflow_stops_at_first_infinite_block():
    # terms of E(30, 20) near e^900 leave the double range at block 772,
    # their rounding weight already at block 751: the sum stops there,
    # quietly, instead of running out the term budget
    pp = validate_params(0.5, 0.5, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t0 = time.process_time()
        with pytest.raises(BudgetExceeded):
            eval_double_series(30.0, 20.0, pp)
        elapsed = time.process_time() - t0
    assert elapsed < 0.5


@pytest.mark.parametrize(
    "x, y, orders, calls, bits",
    [
        # 30^k leaves the double range at k = 209, the sum itself later:
        # the 14 runs of 16 blocks that start at k <= 208 call recip_gamma,
        # and no bits, since the sum raises BudgetExceeded
        (30.0, 20.0, (0.5, 0.5, 1), 14, ()),
        # a certified value whose last runs take the log route: what is left
        # after terms near 1e20 cancel, well within est_error
        (-400.0, -30.0, (1.9, 0.9, 1), 6,
         ("0x1.e05056d738f5fp+12", "-0x1.8b5872561d57ep+1", "0x1.50c43b781583fp+20")),
    ],
)
def test_overflowed_powers_skip_recip_gamma(monkeypatch, x, y, orders, calls, bits):
    # a non-finite power makes its direct term non-finite, so from the first
    # run that holds one every run takes the log route, and a run that starts
    # with the power tables overflowed builds no 1/Gamma table.  The counts
    # are those of a cold memo.
    series._run_gammas.cache_clear()
    seen = []
    real = series.recip_gamma
    monkeypatch.setattr(series, "recip_gamma", lambda a: seen.append(1) or real(a))
    try:
        ev = eval_double_series(x, y, validate_params(*orders))
        got = (ev.value.real.hex(), ev.value.imag.hex(), ev.est_error.hex())
    except BudgetExceeded:
        got = ()
    assert len(seen) == calls
    assert got == bits


def test_log_route_holds_from_its_first_run(monkeypatch):
    # at order 0.1 on the unit circle 1/Gamma(0.5 n + 0.1 m + 1) underflows
    # from block 352 on: from the first run that takes the log route, every
    # run is built by one log_recip_gamma call and no 1/Gamma table
    calls, blocks = [], []
    for name in ("recip_gamma", "log_recip_gamma"):
        real = getattr(series, name)
        monkeypatch.setattr(series, name, lambda a, name=name, real=real: calls.append(name) or real(a))
    real_blocks = series._blocks
    monkeypatch.setattr(series, "_blocks", lambda *a: (blocks.append(b) or b for b in real_blocks(*a)))
    eval_double_series(1, -1, validate_params(0.5, 0.1, 1))
    first = calls.index("log_recip_gamma")
    assert "recip_gamma" not in calls[first:]
    assert calls.count("log_recip_gamma") <= math.ceil(len(blocks) / 16)


@pytest.mark.parametrize("y", [0.0, 0.5])
def test_zero_arguments_raise_no_warning(y):
    # 1/Gamma(200) underflows, so the first run already takes the log route,
    # where log|0| = -inf meets n = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = eval_double_series(0.0, y, validate_params(0.5, 0.5, 200))
    assert ev.value == 0 and ev.est_error == 0


@pytest.mark.parametrize("max_terms, blocks", [(20, 5), (136, 16), (137, 16), (500, 31)])
def test_term_budget_stops_at_the_last_whole_block(max_terms, blocks):
    # K blocks hold K(K+1)/2 terms: the budget keeps the largest such K, whether
    # it ends part-way through a run of blocks (5, 31) or on its boundary (16)
    args = (0.9 + 0.2j, -0.7 + 0.4j, validate_params(0.25, 0.25, 1))
    got = list(series._blocks(*args, max_terms))
    assert len(got) == blocks
    assert got == list(itertools.islice(series._blocks(*args, 10**6), blocks))


@pytest.mark.parametrize(
    "x, y, orders, bits",
    [
        # a low-order unit-disk point, certified after about 60 blocks
        (-0.3 + 0.9j, -0.8 + 0.1j, (0.25, 0.25, 1),
         ("0x1.c2b948714d3b5p-3", "0x1.ade8c090594aap-3", "0x1.0d3eba4721350p-40")),
        # Re mu < 1/2: recip_gamma reflects the first blocks' arguments only,
        # inside one run
        (0.6 - 0.3j, -0.5 + 0.7j, (0.7, 0.6, -1.3 + 0.4j),
         ("0x1.796643f6521d5p-1", "-0x1.1a9835dee8002p-1", "0x1.0fee105235690p-42")),
    ],
)
def test_pinned_bits(x, y, orders, bits):
    ev = eval_double_series(x, y, validate_params(*orders))
    assert (ev.value.real.hex(), ev.value.imag.hex(), ev.est_error.hex()) == bits
    assert ev.method == "series"


def _bits(ev):
    return (ev.value.real.hex(), ev.value.imag.hex(), ev.est_error.hex(), ev.method)


@pytest.mark.parametrize(
    "x, y, orders",
    [
        (-0.3 + 0.9j, -0.8 + 0.1j, (0.25, 0.25, 1)),
        (0.6 - 0.3j, -0.5 + 0.7j, (0.7, 0.6, -1.3 + 0.4j)),
        # blocks past the first runs take the log route
        (-400.0, -30.0, (1.9, 0.9, 1)),
    ],
)
def test_result_independent_of_call_history(x, y, orders):
    # the 1/Gamma run tables are a pure function of (Parameters, run), so a
    # cold memo, a warm one and one that another Parameters went through
    # give the same bits
    pp = validate_params(*orders)
    other = validate_params(0.3, 0.9, 0.5 + 0.2j)
    series._run_gammas.cache_clear()
    cold = _bits(eval_double_series(x, y, pp))
    misses = series._run_gammas.cache_info().misses
    assert _bits(eval_double_series(x, y, pp)) == cold
    assert series._run_gammas.cache_info().misses == misses
    eval_double_series(0.7 - 0.2j, -0.4 + 0.6j, other)
    assert _bits(eval_double_series(x, y, pp)) == cold
    series._run_gammas.cache_clear()
    eval_double_series(0.7 - 0.2j, -0.4 + 0.6j, other)
    assert _bits(eval_double_series(x, y, pp)) == cold


def test_memo_keeps_no_run_past_the_cap(monkeypatch):
    # E(30, 20) runs 14 runs of blocks before its terms leave the double
    # range; only those below the cap are kept, so a second call builds the
    # rest again
    pp = validate_params(0.5, 0.5, 1)
    kept = series.SERIES_MEMO_BLOCKS // 16
    series._run_gammas.cache_clear()
    series._run_layout.cache_clear()
    seen = []
    real = series.recip_gamma
    monkeypatch.setattr(series, "recip_gamma", lambda a: seen.append(1) or real(a))
    for calls in (14, 14 + 14 - kept):
        with pytest.raises(BudgetExceeded):
            eval_double_series(30.0, 20.0, pp)
        assert len(seen) == calls
    assert series._run_gammas.cache_info().currsize == kept
    assert series._run_layout.cache_info().currsize == kept
    # the kept entries are exactly the runs below the cap
    info = series._run_gammas.cache_info()
    for k0 in range(0, series.SERIES_MEMO_BLOCKS, 16):
        rg, underflow = series._run_gammas(pp, k0)
        assert not rg.flags.writeable
        series._run_layout(k0)
    assert series._run_gammas.cache_info().hits == info.hits + kept
    assert series._run_gammas.cache_info().misses == info.misses
    assert series._run_layout.cache_info().currsize == kept


@pytest.mark.parametrize(
    "x, y, orders",
    [
        (-0.3 + 0.9j, -0.8 + 0.1j, (0.25, 0.25, 1)),
        (0.9 - 0.4j, 0.95j, (0.4, 0.9, -1.3 + 0.4j)),
    ],
)
def test_block_reductions_match_a_term_loop(x, y, orders):
    # each run is reduced in one pass, in another order than a sum per
    # block: against terms built one by one, sums agree within the
    # (4 + k) EPS weight per term that est_error carries, peaks within the
    # powers' rounding
    from ml2v.gamma import recip_gamma

    pp = validate_params(*orders)
    for k, (bsum, asum, peak) in enumerate(series._blocks(x, y, pp, 60 * 61 // 2)):
        t = [x**n * y ** (k - n) * complex(recip_gamma(pp.alpha * n + pp.beta * (k - n) + pp.mu))
             for n in range(k + 1)]
        slack = (4 + k) * EPS * sum(map(abs, t))
        assert abs(bsum - sum(t)) <= slack
        assert abs(asum - sum(map(abs, t))) <= slack
        assert abs(peak - max(map(abs, t))) <= slack


def test_cancellation_error_estimate_honest():
    pp = validate_params(0.5, 0.5, 1)
    for t in (6.0, 10.0):
        ev = eval_double_series(-t, -t, pp)
        ref = oracle_eval(-t, -t, pp, digits=30).as_complex()
        assert abs(ev.value - ref) <= ev.est_error


def test_underflow_tail_not_dropped():
    # regression: reciprocal-gamma underflow must not fake series convergence
    pp = validate_params(0.5, 0.5, 1)
    ev = eval_double_series(-12.0, -12.0, pp)
    ref = oracle_eval(-12.0, -12.0, pp, digits=30).as_complex()
    assert abs(ev.value - ref) <= ev.est_error


def test_large_positive_arguments_accurate():
    pp = validate_params(0.5, 0.5, 1)
    ev = eval_double_series(12.0, 12.0, pp)
    ref = oracle_eval(12.0, 12.0, pp, digits=30).as_complex()
    assert abs(ev.value - ref) <= 1e-12 * abs(ref)


def test_one_variable_exponential():
    ev = eval_ml_one(1.7, 1.0, 1.0)
    assert abs(ev.value - math.exp(1.7)) <= max(ev.est_error, 1e-12)
    ev = eval_ml_one(4.0, 2.0, 1.0)
    assert abs(ev.value - math.cosh(2.0)) <= max(ev.est_error, 1e-12)


def test_one_variable_shifted_kappa():
    # kappa = -3: first four coefficients vanish, E = z^4 e^z
    z = 0.8 + 0.3j
    ev = eval_ml_one(z, 1.0, -3.0)
    ref = z**4 * cmath.exp(z)
    assert abs(ev.value - ref) <= max(ev.est_error, 1e-12)
    # kappa = 200: 1/Gamma(200) underflows, and at z = 0 the log route must
    # not form 0 * log 0 = nan
    for z in (0.0, 0.5):
        ev = eval_ml_one(z, 1.0, 200.0)
        assert ev.value == 0 and ev.est_error == 0


def test_one_variable_overflow_is_soft():
    # terms beyond the double range end the sum with BudgetExceeded, as in
    # the double series, instead of raising OverflowError
    for z, rho, kappa in ((800.0, 1.0, 1.0), (50.0, 0.2, 1.0), (10.0, 0.3, -2.5 + 0.5j)):
        with pytest.raises(BudgetExceeded):
            eval_ml_one(z, rho, kappa)


def test_one_variable_validation():
    for rho in (0.0, -0.5, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="rho"):
            eval_ml_one(1.0, rho, 1.0)
