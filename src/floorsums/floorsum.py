"""Exact evaluation of S_f(x) = sum_{n<=x} f(floor(x/n)) with empirical
error scans.

Two evaluators: a naive O(x) reference and a split evaluator that sums
f(floor(x/n)) directly for n up to a split point N (the head, one point
evaluation each) and then groups the remaining n by their common quotient
value d with exact multiplicities floor(x/d) - max(N, floor(x/(d+1))) (the
blocks, one sieve entry each, streamed in segments).  Both are exact; the
split only affects speed, so they cross-check each other.  The default split
balances the two costs: N = isqrt(x // SPLIT_RATIO).

The main-term constant C_f = sum f(n)/(n(n+1)) is accumulated in segments
with an explicit per-function tail bound.  Integer-valued functions are
summed in exact integers; Lambda sums go through math.fsum.  Everything is
pure: grid scans parallelize trivially over x, and a shared immutable sieve
may be read from any number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import isqrt

import numpy as np

from .arith import (FACTOR_BUDGET, SEGMENT_SIZE, SIEVE_BUDGET, FunctionKind,
                    SieveTable, build_sieve, eval_point, iter_segment_values, primes_upto)
from .errors import BudgetError, WindowError

NAIVE_BUDGET = 10**7
FAST_BUDGET = FACTOR_BUDGET     # the head evaluates f at x itself
# N point evaluations plus x/N block entries cost N c_point + (x/N) c_entry,
# least at N = sqrt(x / SPLIT_RATIO) with SPLIT_RATIO = c_point / c_entry.
# At x = 1e12 a block entry costs 20-42 ns and an eval_point 21-27 us (2 vCPU),
# a ratio of 630-1330 by kind; the time is flat within noise for ratios
# 250-1000, and a new ratio moves the split and so Lambda's last bits.
SPLIT_RATIO = 500
BLOCK_CHUNK = 1 << 16           # block entries whose multiplicities exist at once
RESIDUAL_FLOOR = 1e-9
CUTOFF_BUDGET = 10**9           # 10x the largest default cutoff (scan's 10^8)


@dataclass(frozen=True)
class FloorSumReport:
    """S_f(x) with its main-term constant and residual E(x) = S - x C_f."""

    kind: FunctionKind
    x: int
    sum: int | float
    constant: float
    constant_tail_bound: float
    residual: float


@dataclass(frozen=True)
class FitReport:
    """Exact sums S_f(x) over a grid of x values, the main-term constant C_f
    they are compared with, and the log-log regression of their residual
    magnitudes."""

    grid: tuple[int, ...]
    sums: tuple[int | float, ...]
    residuals: tuple[float, ...]
    slope: float
    intercept: float
    constant: float


def _check_table(kind: FunctionKind, table: SieveTable | None) -> None:
    if table is not None and table.kind != kind:
        raise ValueError(f"table holds {table.kind}, expected {kind}")


def _lookup(kind: FunctionKind, n: int, table: SieveTable | None):
    if table is not None and table.covers(n, n):
        return table.value(n)
    return eval_point(kind, n)


def floor_sum_naive(kind: FunctionKind, x: int, table: SieveTable | None = None):
    """Direct O(x) evaluation; exact (Lambda via compensated summation)."""
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    if x > NAIVE_BUDGET:
        raise BudgetError(f"naive evaluation limited to x <= {NAIVE_BUDGET}")
    _check_table(kind, table)
    if table is None or not table.covers(1, x):
        table = build_sieve(kind, 1, x)
    q = x // np.arange(1, x + 1, dtype=np.int64)
    vals = table.values[q - table.lo]
    if kind.tag == "lambda":
        return math.fsum(vals)
    # int64 cannot wrap: x < 2^24 terms, each |f| <= tau_8(9979200) < 2^31 on [1, 1e7]
    return int(np.sum(vals))


def _blocks(kind: FunctionKind, x: int, N: int, table: SieveTable | None,
            lo: int, hi: int):
    """Yield (d_lo, f(d), m(d)) for d in [lo, hi], at most BLOCK_CHUNK entries
    at a time: m(d) = floor(x/d) - max(N, floor(x/(d+1))) counts the n > N
    with floor(x/n) = d.  Values come from `table` when it covers [lo, hi],
    else from the streamed sieve."""
    if lo > hi:
        return
    if table is not None and table.covers(lo, hi):
        segments = [(lo, table.values[lo - table.lo: hi - table.lo + 1])]
    else:
        segments = iter_segment_values(kind, lo, hi)
    for seg_lo, vals in segments:
        for i in range(0, len(vals), BLOCK_CHUNK):
            v = vals[i: i + BLOCK_CHUNK]
            d = np.arange(seg_lo + i, seg_lo + i + len(v), dtype=np.int64)
            m = x // d
            m -= np.maximum(N, x // (d + 1))
            yield seg_lo + i, v, m


def _float_terms(kind: FunctionKind, x: int, N: int, table: SieveTable | None,
                 lo: int, hi: int):
    """The nonzero block terms f(d) m(d), d in [lo, hi], as Python floats."""
    for _, v, m in _blocks(kind, x, N, table, lo, hi):
        t = v * m
        yield from t[t != 0].tolist()


def floor_sum_fast(kind: FunctionKind, x: int, split: int | None = None,
                   table: SieveTable | None = None):
    """Split evaluation, exactly equal to floor_sum_naive for integer kinds.

    The head sums f(floor(x/n)) for n <= N by point evaluation; the blocks
    sum f(d) m(d) over d <= x // (N+1), streamed from the sieve in chunks.
    `split` overrides the default N = max(1, isqrt(x // SPLIT_RATIO)); the
    result does not depend on it.  A covering `table` short-circuits point
    evaluations and the sieve.  Integer sums are exact Python ints; each
    chunk's int64 dot product is checked against 2^63 before it is taken.
    Lambda is summed with math.fsum in a fixed order: the quotients
    d <= x // (isqrt(x)+1), the only ones shared by several n, first, then
    that partial sum with every other term, one per n.  Head terms come from
    eval_point and block terms from the sieve, which may give log p one ulp
    apart (see eval_point); so the float result can differ from
    floor_sum_naive, and between splits N <= isqrt(x), in its last bits.
    """
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    if x > FAST_BUDGET:
        raise BudgetError(f"fast evaluation limited to x <= {FAST_BUDGET}")
    _check_table(kind, table)
    N = max(1, isqrt(x // SPLIT_RATIO)) if split is None else split
    if not 1 <= N <= x:
        raise ValueError(f"split must lie in [1, x], got {N}")
    d0 = x // (N + 1)
    if d0 > SIEVE_BUDGET:
        raise BudgetError(f"block range of {d0} entries exceeds budget {SIEVE_BUDGET}")

    head = (_lookup(kind, x // n, table) for n in range(1, N + 1))

    if kind.tag == "lambda":
        shared = min(x // (isqrt(x) + 1), d0)
        inner = math.fsum(_float_terms(kind, x, N, table, 1, shared))
        return math.fsum(chain([inner], head,
                               _float_terms(kind, x, N, table, shared + 1, d0)))
    total = sum(head)
    for d_lo, v, m in _blocks(kind, x, N, table, 1, d0):
        # the chunk's sum of |f(d)| m(d) is at most max|f| times its sum of
        # m(d), which telescopes to at most x//d_lo - x//(d_hi+1)
        bound = max(int(v.max()), -int(v.min())) * (x // d_lo - x // (d_lo + len(v)))
        if bound >= 2**63:
            raise BudgetError(f"block sum at d = {d_lo} may exceed int64 (bound {bound})")
        total += int(np.dot(v, m))
    return total


# ---------------------------------------------------------------------------
# main-term constant and tail envelopes

_ENVELOPE_EPS = 0.3


def _power_envelope(local) -> float:
    """B = prod_p max(1, sup_a local(p, a)) over the finitely many p where
    the local factor exceeds 1 (local must be decreasing in p)."""
    B = 1.0
    for p in map(int, primes_upto(10**4)):
        best = 0.0
        for a in range(1, 2001):
            v = local(p, a)
            if v > best:
                best = v
            elif v < 1e-9 * max(best, 1.0):
                break
        if best <= 1.0:
            break
        B *= best
    return B * (1 + 1e-9)


def _tail_bound(kind: FunctionKind, cutoff: int) -> float:
    """Upper bound on sum_{n > cutoff} |f(n)|/(n(n+1)).

    Functions with every |f(p^a)| <= 1 use the exact telescoped tail;
    log-size functions (Lambda, the additive omega) use the integral bound;
    the others use |f(n)| <= B n^eps with eps=0.3 and B the exact product of
    local suprema of |f(p^a)|/p^(eps a) over prime powers.
    """
    c = cutoff
    if kind.tag == "lambda":
        return (math.log(c) + 1.0) / c
    if kind.additive:
        return (math.log(c) + 1.0) / (c * math.log(2))
    # every local factor is constant from a = 4 on or exceeds 1 at a = 1
    if all(abs(kind.local(a)) <= 1 for a in range(64)):
        return 1.0 / (c + 1)
    eps = _ENVELOPE_EPS
    B = _power_envelope(lambda p, a: abs(kind.local(a)) / p ** (eps * a))
    return B * c ** (eps - 1.0) / (1.0 - eps)


def main_term_constant(kind: FunctionKind, cutoff: int) -> tuple[float, float]:
    """(sum_{n<=cutoff} f(n)/(n(n+1)), tail bound on the remainder)."""
    if cutoff < 10**3:
        raise ValueError("cutoff must be >= 1000")
    if cutoff > CUTOFF_BUDGET:
        raise BudgetError(f"main-term constant limited to cutoff <= {CUTOFF_BUDGET}")
    parts = []
    buf = np.empty(min(cutoff, SEGMENT_SIZE))
    for seg_lo, vals in iter_segment_values(kind, 1, cutoff):
        n = np.arange(seg_lo, seg_lo + len(vals) + 1, dtype=np.float64)
        terms = np.multiply(n[:-1], n[1:], out=buf[:len(vals)])      # n (n + 1)
        np.divide(vals, terms, out=terms)
        parts.append(float(terms.sum()))
        del n               # freed before the next segment is sieved: lower peak RSS
    return math.fsum(parts), _tail_bound(kind, cutoff)


# ---------------------------------------------------------------------------
# psi-correction bookkeeping

def psi_of_quotient(x: int, d: int) -> Fraction:
    """psi(x/d) as an exact rational for integer x, d."""
    return Fraction(x % d, d) - Fraction(1, 2)


def psi_correction_sum(kind: FunctionKind, x: int, N: int) -> float:
    """sum_{N < d <= x/N} f(d) (psi(x/(d+1)) - psi(x/d)), psi exact.

    The window x^(1/3) <= N < x^(1/2) is enforced; an empty d-range gives 0.
    """
    if not (N**3 >= x and N * N < x):
        raise WindowError(f"need x^(1/3) <= N < x^(1/2), got x={x}, N={N}")
    hi = x // N
    if hi < N + 1:
        return 0.0
    tab = build_sieve(kind, N + 1, hi)
    terms = []
    for d in range(N + 1, hi + 1):
        fd = tab.value(d)
        if fd == 0:
            continue
        terms.append(fd * ((x % (d + 1)) / (d + 1) - (x % d) / d))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# empirical error scans

def error_scan(kind: FunctionKind, x_grid, cutoff: int = 10**8) -> FitReport:
    """Residuals E(x) = S_f(x) - x C_f over a grid, with a log-log OLS slope.

    |E| is floored at 1e-9 before the log so exact cancellations do not
    produce -inf.  C_f is summed to `cutoff` and reported with the fit.
    """
    grid = [int(v) for v in x_grid]
    if len(grid) < 2:
        raise ValueError("grid must contain at least 2 points for a fit")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    constant, _ = main_term_constant(kind, cutoff)
    sums = [floor_sum_fast(kind, x) for x in grid]
    residuals = [abs(float(s) - x * constant) for x, s in zip(grid, sums)]
    logs = np.log([max(r, RESIDUAL_FLOOR) for r in residuals])
    slope, intercept = np.polyfit(np.log(grid), logs, 1)
    return FitReport(grid=tuple(grid), sums=tuple(sums), residuals=tuple(residuals),
                     slope=float(slope), intercept=float(intercept),
                     constant=constant)


def summarize(kind: FunctionKind, x: int, method: str = "fast",
              cutoff: int = 10**7) -> FloorSumReport:
    """One-shot report: exact sum, main-term constant, residual.

    The constant comes first, so a cutoff over its budget is refused before
    the sum is evaluated."""
    if method not in ("fast", "naive"):
        raise ValueError(f"unknown method {method!r}")
    c, tail = main_term_constant(kind, cutoff)
    s = floor_sum_fast(kind, x) if method == "fast" else floor_sum_naive(kind, x)
    return FloorSumReport(kind=kind, x=x, sum=s, constant=c,
                          constant_tail_bound=tail,
                          residual=float(s) - x * c)
