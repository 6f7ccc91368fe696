"""Double power series with an explicit truncation-error certificate.

Summation runs over anti-diagonal blocks S_k = sum_{n+m=k} x^n y^m
/ Gamma(n*alpha + m*beta + mu).  Once every gamma argument in a block has
real part >= 1 the block magnitudes decay monotonically for large k; after
two consecutive blocks whose peak term drops below half the previous
peak, the geometric bound tail <= 2 * (current block magnitude sum) holds
and summation stops when that bound meets the tolerance.

If the certificate never fires within the term budget, or the terms leave
the double range, the sum raises BudgetExceeded: callers (the automatic
dispatcher in particular) treat that as a route failure they can route
around.

The terms come in runs of 16 blocks, each from one table of
1/Gamma(alpha n + beta m + mu) that depends on the parameters and the run
alone, never on (x, y), and each run is reduced to its block sums,
magnitude sums and peaks in one pass.  Runs that start below
SERIES_MEMO_BLOCKS keep their index layout, and the last SERIES_MEMO_SIZE
(Parameters, run) tables are kept; a run past the cap, such as those of an
order-0.1 point that needs about 2000 blocks, keeps nothing.  A kept table
holds at most 16 * 112 + 136 = 1928 complex entries, about 31 kB, so the
tables take at most about 2.0 MB and the layouts 0.13 MB.  A table is a
pure function of its key: the value is the same to the bit with or without
the memo.

From the first run whose powers of x or y overflow, whose 1/Gamma
underflows right of the poles or which holds a non-finite term, that run
and every later one are built in log space, one log_recip_gamma call per
run and no 1/Gamma table.  The switch stays on because past that point the
powers only grow and 1/Gamma only shrinks: every gamma argument has
imaginary part Im mu.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import EPS, Evaluation, Parameters, check_tol, finite
from .errors import BudgetExceeded, DomainError
from .gamma import log_recip_gamma, recip_gamma


@dataclass(frozen=True)
class SeriesBudget:
    """Stopping control: absolute-ish tolerance and a total term budget."""

    tol: float = 1e-12
    max_terms: int = 2_000_000

    def __post_init__(self) -> None:
        check_tol(self.tol)
        try:
            operator.index(self.max_terms)
        except TypeError:
            raise DomainError(f"max_terms must be an integer, got {self.max_terms!r}") from None
        if self.max_terms < 4:
            raise DomainError(f"max_terms must be at least 4, got {self.max_terms}")


def _log_abs(w: complex) -> float:
    return math.log(abs(w)) if w != 0 else -math.inf


# Anti-diagonal blocks per recip_gamma call: its fixed cost, not the
# element work, dominates a low-order block.
_RUN = 16

# Runs of blocks that start below SERIES_MEMO_BLOCKS keep their index layout
# and, for the last SERIES_MEMO_SIZE (Parameters, run) pairs, their 1/Gamma
# table; see the module docstring.
SERIES_MEMO_BLOCKS = 128
SERIES_MEMO_SIZE = 64


@functools.lru_cache(maxsize=SERIES_MEMO_BLOCKS // _RUN)
def _run_layout(k0: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (n, m, starts) of the run of blocks k0 .. k0 + _RUN - 1:
    block k = k0 + j holds n = 0 .. k, m = k - n at starts[j] .. starts[j] + k."""
    ks = np.arange(k0, k0 + _RUN)
    starts = np.cumsum(ks + 1) - ks - 1
    n = np.arange(starts[-1] + ks[-1] + 1) - np.repeat(starts, ks + 1)
    m = np.repeat(ks, ks + 1) - n
    for a in (n, m, starts):
        a.flags.writeable = False
    return n, m, starts


def _gamma_args(params: Parameters, n, m):
    """alpha n + beta m + mu: one formula, so that the log route's arguments
    have the bits of the table's."""
    return params.alpha * n + params.beta * m + params.mu


def _gammas(args) -> tuple[np.ndarray, bool]:
    """1/Gamma(args) over a run of blocks, and whether any of it underflowed
    to 0 right of the poles: that is not a true zero, and such a run needs
    the log route."""
    rg = recip_gamma(args)
    return rg, bool(np.any((rg == 0) & (args.real > 0.5)))


@functools.lru_cache(maxsize=SERIES_MEMO_SIZE)
def _run_gammas(params: Parameters, k0: int) -> tuple[np.ndarray, bool]:
    """_gammas, the table read-only, of the run of blocks from
    k0 < SERIES_MEMO_BLOCKS."""
    n, m, _ = _run_layout(k0)
    rg, underflow = _gammas(_gamma_args(params, n, m))
    rg.flags.writeable = False
    return rg, underflow


def _extend(powers, z, size):
    """The power table z^0 .. z^(len - 1) grown to z^(size - 1).  Each new
    entry is the previous one times z, so the table has the bits of a
    product taken one step at a time."""
    factors = np.full(size - len(powers) + 1, z)
    factors[0] = powers[-1]
    return np.concatenate((powers[:-1], np.cumprod(factors)))


def _log_terms(x, y, n, m, args):
    """Terms x^n y^m / Gamma(args) built in log space; n = 0 and m = 0 add
    nothing to the log magnitude, also where x or y is 0."""
    lx, ly = _log_abs(x), _log_abs(y)
    px, py = cmath.phase(x), cmath.phase(y)
    lrg = log_recip_gamma(args)
    logmag = (
        np.where(n > 0, n * lx, 0.0)
        + np.where(m > 0, m * ly, 0.0)
        + lrg.real
    )
    phase = n * px + m * py + lrg.imag
    terms = np.exp(logmag + 1j * phase)
    terms[logmag == -np.inf] = 0.0
    return terms


def _blocks(x, y, params, max_terms):
    """Anti-diagonal blocks k = 0, 1, ... as (sum, magnitude sum, peak
    magnitude), for as long as the total term count stays within max_terms.

    The terms of _RUN consecutive blocks are built in one go, directly or,
    from the first run that needs it on, in log space (see the module
    docstring), and reduced in one pass.
    """
    xp = np.array([1.0 + 0.0j])
    yp = np.array([1.0 + 0.0j])
    log_route = False
    used = 0
    for k0 in itertools.count(step=_RUN):
        kept = k0 < SERIES_MEMO_BLOCKS
        n, m, starts = _run_layout(k0) if kept else _run_layout.__wrapped__(k0)
        # overflowed powers and sums past the double range are inf or nan,
        # and the certificate stops at them; _log_terms forms 0 * log 0 in
        # the branches np.where drops
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            if not log_route:
                xp, yp = _extend(xp, x, k0 + _RUN), _extend(yp, y, k0 + _RUN)
                # a power that overflows later in the run makes a term non-finite
                log_route = not (np.isfinite(xp[k0]) and np.isfinite(yp[k0]))
            if not log_route:
                if kept:
                    rg, log_route = _run_gammas(params, k0)
                else:
                    rg, log_route = _gammas(_gamma_args(params, n, m))
            if not log_route:
                terms = xp[n] * yp[m] * rg
                log_route = not np.isfinite(terms).all()
            if log_route:
                terms = _log_terms(x, y, n, m, _gamma_args(params, n, m))
            mags = np.abs(terms)
            sums = np.add.reduceat(terms, starts).tolist()
            abs_sums = np.add.reduceat(mags, starts).tolist()
            peaks = np.maximum.reduceat(mags, starts).tolist()
        for k, block in enumerate(zip(sums, abs_sums, peaks), start=k0):
            if used + k + 1 > max_terms:
                return
            yield block
            used += k + 1


def _single_terms(z, rho, kappa, max_terms):
    """Terms z^n / Gamma(rho*n + kappa), n < max_terms, as one-term blocks.

    The sequence ends with an infinite block once a term leaves the double
    range: nothing past it can be certified.
    """
    zp = 1.0 + 0.0j
    for n in range(max_terms):
        arg = rho * n + kappa
        rg = recip_gamma(arg)
        term = zp * rg
        try:
            if not cmath.isfinite(term) or (rg == 0 and arg.real > 0.5):
                lrg = log_recip_gamma(arg)
                lt = (n * _log_abs(z) if n else 0.0) + lrg.real
                term = 0.0 if lt == -math.inf else cmath.exp(
                    lt + 1j * (n * cmath.phase(z) + lrg.imag)
                )
            mag = abs(term)
        except OverflowError:
            yield complex(math.inf), math.inf, math.inf
            return
        yield term, mag, mag
        zp *= z


def _term_condition(k: int, sigma_hi: float, mu_mag: float) -> float:
    """Relative-error growth factor for a block-k term, in units of eps.

    Covers the k-long power chains and the conditioning of exp(log Gamma)
    at the largest gamma argument reachable inside the block.
    """
    arg = max(sigma_hi * k + mu_mag, 0.5)
    return 4.0 + k + abs(math.lgamma(arg))


def _certified_sum(
    blocks, kmin: int, sigma: float, mu_mag: float, tol: float
) -> Evaluation:
    """Sum (value, magnitude sum, peak magnitude) blocks 0, 1, ... under the
    geometric tail certificate.

    Blocks before kmin are summed without ratio tracking.  Raises
    BudgetExceeded when the blocks run out (the term budget) before the
    certificate fires, or once the sum or its rounding weight leaves the
    double range: nothing past that block can be certified.
    """
    value = 0.0 + 0.0j
    weighted_abs = 0.0
    prev_peak = None
    run = 0
    for k, (bval, bsum, bpeak) in enumerate(blocks):
        value += bval
        weighted_abs += _term_condition(k, sigma, mu_mag) * bsum
        if not (cmath.isfinite(value) and math.isfinite(weighted_abs)):
            raise BudgetExceeded(f"series terms left the double range at block {k}")
        if k >= kmin:
            if prev_peak is not None and (
                bpeak < 0.5 * prev_peak or (bpeak == 0.0 and prev_peak == 0.0)
            ):
                run += 1
            elif prev_peak is not None:
                run = 0
            prev_peak = bpeak
            if run >= 2 and 2.0 * bsum <= tol * max(1.0, abs(value)):
                return Evaluation(value, 2.0 * bsum + EPS * weighted_abs, "series")
    raise BudgetExceeded("series tail not certified within the term budget")


def eval_double_series(
    x: complex,
    y: complex,
    params: Parameters,
    budget: SeriesBudget | None = None,
) -> Evaluation:
    """E(x, y) by certified anti-diagonal summation.

    est_error combines the certified tail bound with a weighted rounding
    term eps * sum w_k |t_{n,m}| accounting for cancellation between terms;
    the weights track how ill-conditioned each term's construction is.
    Raises DomainError for a non-finite x or y.
    """
    x, y = finite(x=x, y=y)
    if budget is None:
        budget = SeriesBudget()
    a, b, mu = params.alpha, params.beta, params.mu
    # Ratio tracking only starts once every gamma argument in the block has
    # real part >= 1: below that, reciprocal-gamma zeros and sign changes
    # can fake a decay run.
    kmin = max(0, math.ceil((1.0 - mu.real) / min(a, b)))
    blocks = _blocks(x, y, params, budget.max_terms)
    return _certified_sum(blocks, kmin, max(a, b), abs(mu), budget.tol)


def eval_ml_one(
    z: complex,
    rho: float,
    kappa: complex,
    budget: SeriesBudget | None = None,
) -> Evaluation:
    """One-variable relative sum_{n>=0} z^n / Gamma(rho*n + kappa).

    Same certificate as the double series with blocks of a single term.
    Raises DomainError for a non-finite z or kappa, or a rho that is not
    positive and finite.
    """
    z, kappa = finite(z=z, kappa=kappa)
    if budget is None:
        budget = SeriesBudget()
    if not (rho > 0 and math.isfinite(rho)):
        raise DomainError(f"rho must be positive and finite, got {rho}")
    kmin = max(0, math.ceil((1.0 - kappa.real) / rho))
    blocks = _single_terms(z, rho, kappa, budget.max_terms)
    return _certified_sum(blocks, kmin, rho, abs(kappa), budget.tol)
