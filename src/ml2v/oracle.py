"""Extended-precision reference evaluator and the frozen regression corpus.

The oracle recomputes the defining double series in arbitrary-precision
arithmetic (mpmath), summing anti-diagonal blocks n + m = k with a certified
geometric tail bound.  It is deliberately independent of the double-precision
evaluators: no contour, no asymptotics, just the series with enough guard
digits to survive cancellation.  mpmath is imported inside the functions
that use it, so importing ml2v for the double-precision routes does not
load it.  Every call works on its own mpmath context (_context), never on
mpmath's process-wide mp, so a result does not depend on what other
threads set mp's precision to, and no call changes it.  Corpus records
read their decimal values with float(), so replaying the corpus needs no
mpmath.

Three performance devices keep large arguments tractable:

* gamma ladders: when the step alpha is exactly a small rational p/q (the
  dyadic orders 0.5, 0.75, ...), the reciprocal gammas 1/Gamma(alpha*n + c)
  advance by exact integer recurrences (one length-p product per term)
  after q direct seeds; other orders use direct rgamma calls so the series
  is summed at the exact binary parameter values;
* closed-form anti-diagonals: when alpha == beta the gamma factor is constant
  along a diagonal, so sum_{n+m=k} x^n y^m collapses to
  (x^(k+1) - y^(k+1)) / (x - y), or (k+1) x^k on the diagonal x = y;
* an adaptive guard loop that measures the observed peak-block magnitude
  against the result and re-runs with more digits until the requested count
  is certified, raising BudgetExceeded instead of silently degrading.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Iterator

from .core import Parameters, check_count, finite, validate_params
from .errors import BudgetExceeded

# Requested output digits must sit in this window.
MIN_DIGITS, MAX_DIGITS = 20, 100

# Internal working-precision ceiling; beyond this we report, not degrade.
_MAX_WDPS = 6000

# Anti-diagonal block caps.  The 2-D path has quadratic term count and is
# only meant for moderate arguments.
_BLOCK_CAP_1D = 250_000
_BLOCK_CAP_2D = 6_000

# Geometric-domination certificate: max-term ratio below 1/2 for two
# consecutive blocks, then the tail is bounded by twice the last block.
_RATIO = 0.5
_RATIO_RUN = 2

# Stop a few blocks deeper than the certificate needs, so two runs at
# different digit counts agree comfortably within the looser one's bound.
_TARGET_SAFETY = 8

_CORPUS_RESOURCE = "oracle_corpus.jsonl"


@dataclass(frozen=True)
class OracleValue:
    """Certified high-precision value: mpmath complex, tail bound, digit count."""

    value: object          # mpmath mpc
    tail_bound: float      # absolute bound on the truncated tail
    digits: int

    def as_complex(self) -> complex:
        return complex(self.value)


def _context(dps: int):
    """A private mpmath context at dps decimal digits."""
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = dps
    return ctx


def _as_fraction(a: float) -> Fraction | None:
    """Exact small-denominator rational value of a float order, if it has one.

    Only exact readings qualify: 0.8 as a double is not 4/5, and snapping
    it to 4/5 would change E by ~1e-15 relative, which a 30-digit
    certificate cannot absorb.  Dyadic orders like 0.5 or 0.75 are exactly
    their fraction, so those get the fast gamma recurrences; everything
    else falls back to direct rgamma calls at the exact binary value.
    """
    frac = Fraction(a)
    if frac.denominator <= 64 and frac > 0:
        return frac
    return None


class _RgammaLadder:
    """Yields 1/Gamma(step*n + offset) for n = 0, 1, 2, ... in order.

    With a rational step the values advance by exact integer gamma
    recurrences once the argument's real part has safely cleared the poles;
    otherwise (or before that) each value is a direct rgamma call.
    """

    def __init__(self, ctx, frac: Fraction | None, step: float, offset) -> None:
        self._ctx = ctx
        self._frac = frac
        self._step = step
        self._offset = offset
        self._n = 0
        self._hist: deque = deque(maxlen=frac.denominator if frac else 1)

    def _arg(self, n: int):
        mp = self._ctx
        if self._frac is not None:
            return mp.mpf(self._frac.numerator * n) / self._frac.denominator + self._offset
        return mp.mpf(self._step) * n + self._offset

    def __next__(self):
        mp = self._ctx
        n = self._n
        self._n += 1
        if self._frac is None:
            return mp.rgamma(self._arg(n))
        q = self._frac.denominator
        p = self._frac.numerator
        base_arg = self._arg(n - q)
        if len(self._hist) < q or mp.re(base_arg) <= 0.25:
            # seeds, and any stretch where the recurrence could cross a pole
            val = mp.rgamma(self._arg(n))
        else:
            prod = base_arg
            for i in range(1, p):
                prod *= base_arg + i
            val = self._hist[0] / prod
        self._hist.append(val)
        return val


def _blocks_pow1d(mp, z, frac, step: float, offset) -> Iterator[tuple]:
    """Blocks of sum_k z^k / Gamma(step*k + offset); block k is one term."""
    ladder = _RgammaLadder(mp, frac, step, offset)
    zp = mp.mpc(1)
    while True:
        t = zp * next(ladder)
        a = abs(t)
        yield t, a, a
        zp *= z


def _blocks_diag1d(mp, x, y, frac, step: float, offset) -> Iterator[tuple]:
    """Anti-diagonal blocks for alpha == beta, inner sums in closed form.

    Block k is (sum_{n+m=k} x^n y^m) / Gamma(step*k + offset); the magnitude
    sum uses the same closed form on |x|, |y| so the certificate sees the
    true term mass, not the cancelled inner sum.
    """
    ladder = _RgammaLadder(mp, frac, step, offset)
    ax, ay = abs(x), abs(y)
    same = x == y
    xk, yk = mp.mpc(1), mp.mpc(1)          # x^k, y^k
    axk, ayk = mp.mpf(1), mp.mpf(1)
    k = 0
    while True:
        r = next(ladder)
        if same:
            inner = (k + 1) * xk
            mag_inner = (k + 1) * axk
        else:
            inner = (xk * x - yk * y) / (x - y)
            if ax == ay:
                mag_inner = (k + 1) * axk
            else:
                mag_inner = (axk * ax - ayk * ay) / (ax - ay)
        maxterm = max(axk, ayk)
        ar = abs(r)
        yield inner * r, mag_inner * ar, maxterm * ar
        xk *= x
        yk *= y
        axk *= ax
        ayk *= ay
        k += 1


def _blocks_2d(mp, x, y, afrac, alpha: float, beta: float, mu) -> Iterator[tuple]:
    """Literal anti-diagonal blocks for alpha != beta.

    One gamma ladder per row m (offset beta*m + mu, step alpha); each ladder
    advances exactly once per diagonal, in order.
    """
    bfrac = _as_fraction(beta)
    ladders: dict[int, _RgammaLadder] = {}
    xpow = [mp.mpc(1)]
    ypow = [mp.mpc(1)]
    k = 0
    while True:
        xpow.append(xpow[-1] * x)
        ypow.append(ypow[-1] * y)
        total = mp.mpc(0)
        mag = mp.mpf(0)
        mx = mp.mpf(0)
        for n in range(k + 1):
            m = k - n
            lad = ladders.get(m)
            if lad is None:
                if bfrac is not None:
                    off = mp.mpf(bfrac.numerator * m) / bfrac.denominator + mu
                else:
                    off = mp.mpf(beta) * m + mu
                lad = ladders[m] = _RgammaLadder(mp, afrac, alpha, off)
            t = xpow[n] * ypow[m] * next(lad)
            total += t
            a = abs(t)
            mag += a
            if a > mx:
                mx = a
        yield total, mag, mx
        k += 1


def _certify(mp, blocks: Iterator[tuple], digits: int, cap: int):
    """Sum blocks until the geometric tail certificate triggers.

    The certificate is relative to the accumulated value (with a 10^-digits
    absolute floor for near-zero sums), so `digits` means significant
    digits of the result even when the result is small.
    Returns (value, tail_bound, peak_block_magnitude, n_blocks).
    """
    target_scale = mp.mpf(10) ** (2 - digits)
    floor = mp.mpf(10) ** (-digits)
    value = mp.mpc(0)
    peak = mp.mpf(0)
    prev_max = None
    run = 0
    for k, (bval, bmag, bmax) in enumerate(blocks):
        value += bval
        if bmag > peak:
            peak = bmag
        if prev_max is not None:
            ok = bmax < _RATIO * prev_max or (bmax == 0 and prev_max == 0)
            run = run + 1 if ok else 0
        prev_max = bmax
        if run >= _RATIO_RUN:
            tail = 2 * bmag
            if tail * _TARGET_SAFETY <= target_scale * max(abs(value), floor):
                return value, tail, peak, k + 1
        if k + 1 >= cap:
            raise BudgetExceeded(
                f"tail not certified within {cap} anti-diagonal blocks"
            )
    raise AssertionError("unreachable")


def _peak_log10_estimate(x: complex, y: complex, alpha: float, beta: float, mu: complex) -> float:
    """Rough a-priori log10 of the largest block, for sizing guard digits.

    Based on max_k [k log A - log Gamma(sigma k)] ~ A^(1/sigma) nats with
    A = max(|x|, |y|), sigma = min(alpha, beta).  The a-posteriori guard loop
    catches any shortfall.
    """
    big = max(abs(x), abs(y))
    if big <= 1.0:
        return 0.0
    sigma = min(alpha, beta)
    try:
        nats = big ** (1.0 / sigma)
    except OverflowError:
        return float("inf")
    return 1.02 * nats * math.log10(math.e) + 3.0 * max(0.0, -mu.real) + 10.0


def oracle_eval(x: complex, y: complex, params: Parameters, digits: int = 30) -> OracleValue:
    """Evaluate E(x, y) to `digits` certified decimal digits.

    Raises DomainError for a non-finite x or y or digits that are not an
    integer in [20, 100], and BudgetExceeded when arguments are so large
    that cancellation would consume the working-precision ceiling
    (reported, never silently degraded).
    """
    xc, yc = finite(x=x, y=y)
    digits = check_count("digits", digits, MIN_DIGITS, MAX_DIGITS)
    alpha, beta, mu = params.alpha, params.beta, params.mu

    est = _peak_log10_estimate(xc, yc, alpha, beta, mu)
    guard = 18 + (int(est) if math.isfinite(est) else _MAX_WDPS)
    if xc != yc and alpha == beta and xc != 0 and yc != 0:
        rel = abs(xc - yc) / max(abs(xc), abs(yc))
        if rel < 1e-2:
            guard += int(-math.log10(rel)) + 6
    if digits + guard > _MAX_WDPS:
        raise BudgetExceeded(
            f"arguments need ~{guard} guard digits, above the {_MAX_WDPS} ceiling"
        )

    mp = _context(15)
    for _ in range(6):
        wdps = digits + guard
        mp.dps = wdps
        X = mp.mpc(xc)
        Y = mp.mpc(yc)
        MU = mp.mpc(mu)
        if yc == 0:
            blocks = _blocks_pow1d(mp, X, _as_fraction(alpha), alpha, MU)
            cap = _BLOCK_CAP_1D
        elif xc == 0:
            blocks = _blocks_pow1d(mp, Y, _as_fraction(beta), beta, MU)
            cap = _BLOCK_CAP_1D
        elif alpha == beta:
            blocks = _blocks_diag1d(mp, X, Y, _as_fraction(alpha), alpha, MU)
            cap = _BLOCK_CAP_1D
        else:
            blocks = _blocks_2d(mp, X, Y, _as_fraction(alpha), alpha, beta, MU)
            cap = _BLOCK_CAP_2D
        value, tail, peak, _ = _certify(mp, blocks, digits, cap)

        av = abs(value)
        if av == 0 or peak == 0:
            break
        cancel = float(mp.log10(peak / av)) if peak > av else 0.0
        if wdps - cancel >= digits + 5:
            break
        deficit = digits + 5 - (wdps - cancel)
        guard = max(guard + int(deficit) + 10, 2 * guard)
        if digits + guard > _MAX_WDPS:
            raise BudgetExceeded(
                f"cancellation needs ~{guard} guard digits, above the "
                f"{_MAX_WDPS} ceiling"
            )
    else:
        raise BudgetExceeded("guard-digit loop failed to converge")

    import mpmath

    mp.dps = 15
    big = mp.mpf(10) ** 300
    return OracleValue(
        # every bit of the value, as a number of mpmath's mp: the caller's
        # arithmetic on it runs at the caller's precision, as with any mp number
        value=mpmath.mp.make_mpc(value._mpc_),
        tail_bound=float(tail) if tail < big else math.inf,
        digits=digits,
    )


# ---------------------------------------------------------------------------
# frozen corpus


@dataclass(frozen=True)
class CorpusRecord:
    """One frozen oracle point, value kept as decimal strings."""

    alpha: float
    beta: float
    mu: complex
    x: complex
    y: complex
    digits: int
    value_re: str
    value_im: str
    tail_bound: float

    def value(self) -> complex:
        # float() rounds a decimal string correctly, as mpmath does at 53 bits
        return complex(float(self.value_re), float(self.value_im))

    def params(self) -> Parameters:
        return validate_params(self.alpha, self.beta, self.mu)

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": self.alpha,
                "beta": self.beta,
                "mu": [self.mu.real, self.mu.imag],
                "x": [self.x.real, self.x.imag],
                "y": [self.y.real, self.y.imag],
                "digits": self.digits,
                "value": [self.value_re, self.value_im],
                "tail_bound": self.tail_bound,
            }
        )

    @classmethod
    def from_json(cls, line: str) -> "CorpusRecord":
        d = json.loads(line)
        return cls(
            alpha=d["alpha"],
            beta=d["beta"],
            mu=complex(*d["mu"]),
            x=complex(*d["x"]),
            y=complex(*d["y"]),
            digits=d["digits"],
            value_re=d["value"][0],
            value_im=d["value"][1],
            tail_bound=d["tail_bound"],
        )


def make_record(x: complex, y: complex, params: Parameters, digits: int = 30) -> CorpusRecord:
    """Run the oracle and freeze the result as a corpus record."""
    ov = oracle_eval(x, y, params, digits)
    mp = _context(digits + 5)
    re_s = mp.nstr(mp.re(ov.value), digits)
    im_s = mp.nstr(mp.im(ov.value), digits)
    x, y = complex(x), complex(y)
    return CorpusRecord(
        alpha=params.alpha,
        beta=params.beta,
        mu=params.mu,
        x=x,
        y=y,
        digits=digits,
        value_re=re_s,
        value_im=im_s,
        tail_bound=ov.tail_bound,
    )


def write_corpus(records: list[CorpusRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


def load_corpus(path=None) -> list[CorpusRecord]:
    """Load corpus records from a path, or the packaged frozen corpus."""
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    else:
        lines = (
            resources.files("ml2v")
            .joinpath("data", _CORPUS_RESOURCE)
            .read_text(encoding="utf-8")
            .splitlines()
        )
    return [CorpusRecord.from_json(line) for line in lines if line.strip()]
