"""Exact evaluation of S_f(x) = sum_{n<=x} f(floor(x/n)) with empirical
error scans.

Two evaluators: a naive O(x) reference and a split evaluator in three
parts.  The head sums f(floor(x/n)) directly for n up to a split point N,
all N quotients factored in one `eval_points` call.  The shared blocks
group the n > N by their quotient d, for the d <= x // (isqrt(x)+1) that
several n may share, with exact multiplicities floor(x/d) - max(N,
floor(x/(d+1))), one division each.  The per-n range adds f(floor(x/n))
for every other n, one division and one lookup each.  Both parts read one
sieve of [1, x // (N+1)], streamed in segments.  Both evaluators are exact
(Lambda's sums correctly rounded), equal at every split, so they
cross-check each other.  The default split balances the costs: N =
isqrt(x // SPLIT_RATIO).  Either evaluator takes an optional sieve table
in place of all its own evaluation of f and reads its prefix f(1..x)
(`SieveTable.prefix`); a table that does not hold the summed function or
cover [1, x] is refused before any work.  Every int64 sum is bounded
before any work by lookups of f's `_magnitude`, never by reading the
values it sums.

The main-term constant C_f = sum f(n)/(n(n+1)) comes two ways.
`series_constant` evaluates it from the Dirichlet series of f, without a
sieve, with an a-priori error bound of at most 1e-12; `summarize` and
`error_scan` use it by default.  `main_term_constant` sums it in segments to
a cutoff, with an explicit per-function tail bound; every explicit cutoff
uses that.  Integer-valued functions are summed in exact integers; Lambda
sums go through math.fsum.

One evaluator computes every split sum: `floor_sum_fast` is its pass over
one point and `error_scan` its pass over a whole grid, so their sums agree
in value and type.  The heads of consecutive points are factored together,
and every block and per-n range reads one prefix of f and streams the rest:
a table's, or a sieve prefix shared only across grid points, as one point
gains nothing from it.  Everything is pure, and a shared immutable sieve
may be read from any number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import chain
from math import isqrt

import numpy as np

from .arith import (FACTOR_BUDGET, MOBIUS, SEGMENT_SIZE, SIEVE_BUDGET, FunctionKind,
                    SieveTable, _check_tau_order, _magnitude, _tabulate, build_sieve,
                    eval_points, iter_segment_values, primes_upto)
from .errors import BudgetError, require_integers

NAIVE_BUDGET = 10**7
FAST_BUDGET = FACTOR_BUDGET     # the head evaluates f at x itself
# N head rows plus x/N block entries cost N c_row + (x/N) c_entry, least at
# N = sqrt(x / SPLIT_RATIO) with SPLIT_RATIO = c_row / c_entry.  At x = 1e12
# and N = 2e5 a head row costs 0.46-0.72 us and a block entry 6-22 ns (sieve
# and division; 2 vCPU), a ratio of 23-80 by kind.  Summed over tau3, mu,
# Lambda and 2^omega, a sweep of ratios 5-500 at x = 1e8..1e12 put the least
# time at 15-35, with 25 within noise of it at every x; at x = 1e12 ratio 100
# was 1.4x slower.  With the per-n range in place of the blocks above the
# shared range, a sweep of 15-100 summed over the nine CLI names was flat
# within noise from 20 to 70 at every x in 1e8..1e12.
SPLIT_RATIO = 25
BLOCK_CHUNK = 1 << 16           # block entries whose multiplicities exist at once
# error_scan's two caps keep its peak RSS that of one point's sum.  A 20-point
# tau3 grid to 1e12 took 13 MiB more with the whole 2^20-entry prefix shared,
# and 3 MiB more with every head held before summing; on 20-point grids to
# 1e7, heads of 4096 rows per call took 0.25 MiB more, of 1024 rows nothing.
HEAD_ROWS = 1 << 10             # scan head rows factored in one eval_points call
SHARED_PREFIX = 1 << 16         # sieve entries that every point of a scan reads
RESIDUAL_FLOOR = 1e-9
CUTOFF_BUDGET = 10**9           # largest sieved cutoff: 10^9 terms at 11-41 ns each (2 vCPU)


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
    they are compared with and its error bound, and the log-log regression
    of their residual magnitudes."""

    grid: tuple[int, ...]
    sums: tuple[int | float, ...]
    residuals: tuple[float, ...]
    slope: float
    intercept: float
    constant: float
    constant_tail_bound: float


def _check_x(x, method: str) -> int:
    """x as a Python int, once it is an integer within the method's budget."""
    x = require_integers(x=x)
    budget = FAST_BUDGET if method == "fast" else NAIVE_BUDGET
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    if x > budget:
        raise BudgetError(f"{method} evaluation limited to x <= {budget}")
    return x


def _table_prefix(kind: FunctionKind, table: SieveTable, x: int) -> np.ndarray:
    """f(1..x) from a table that stands in for every value of f the sum
    reads: it must hold `kind` and cover [1, x]."""
    if table.kind != kind:
        raise ValueError(f"table holds {table.kind}, expected {kind}")
    return table.prefix(x)


def floor_sum_naive(kind: FunctionKind, x: int, table: SieveTable | None = None):
    """Direct O(x) evaluation; exact (Lambda via compensated summation).
    A `table` replaces the sieve of [1, x], which is otherwise held in the
    kernel's narrow working dtype.  The quotients floor(x/n) are formed
    BLOCK_CHUNK n at a time, each chunk's values summed in int64 (Lambda's
    fed to one fsum), so no array but f(1..x) grows with x."""
    x = _check_x(x, "naive")
    values = None if table is None else _table_prefix(kind, table, x)
    if kind.tag != "lambda":                # x terms of |f| <= _magnitude(kind, x)
        if table is None:
            _check_tau_order(kind)          # the sieve's refusal comes first
        if (bound := _magnitude(kind, x) * x) >= 2**63:
            raise BudgetError(f"naive sum of the table may exceed int64 (bound {bound})")
    if values is None:                      # f(1..x) in the sieve's working dtype
        values = _tabulate(kind, 1, x)
    chunks = map(values.__getitem__, _quotient_indices(x))
    if kind.tag == "lambda":
        return math.fsum(chain.from_iterable(map(np.ndarray.tolist, chunks)))
    return sum(int(v.sum(dtype=np.int64)) for v in chunks)


def _quotient_indices(x: int):
    """floor(x/n) - 1 for n = 1..x, BLOCK_CHUNK n at a time, as int64 arrays."""
    for lo in range(1, x + 1, BLOCK_CHUNK):
        q = x // np.arange(lo, min(lo + BLOCK_CHUNK, x + 1), dtype=np.int64)
        q -= 1                  # in place: one chunk-sized array less at the peak
        yield q


def _pieces(kind: FunctionKind, prefix, x: int, N: int, shared: int, d0: int):
    """The n > N of the sum, from one pass over f on [1, d0]: the values
    f(1..len(prefix)) of `prefix`, then `iter_segment_values` for the rest.
    Yields (v, m), at most BLOCK_CHUNK entries at a time: first the
    blocks d <= shared, with v = f(d) and multiplicity m(d) = floor(x/d) -
    max(N, floor(x/(d+1))), the number of n > N with floor(x/n) = d; then
    one term v = f(floor(x/n)) per n in (N, x // (shared+1)], with m None.
    Those n have their quotients in (shared, d0], and the n of one
    segment's quotients form one range."""
    top = min(len(prefix), d0)
    segments = chain([(1, prefix[:top])] if top else (),
                     iter_segment_values(kind, top + 1, d0) if d0 > top else ())
    for seg_lo, vals in segments:
        seg_hi = seg_lo + len(vals) - 1
        for lo in range(seg_lo, min(seg_hi, shared) + 1, BLOCK_CHUNK):
            hi = min(lo + BLOCK_CHUNK - 1, seg_hi, shared)
            q = x // np.arange(lo, hi + 2, dtype=np.int64)
            m = q[:-1] - np.maximum(N, q[1:])
            yield vals[lo - seg_lo: hi - seg_lo + 1], m
        if seg_hi <= shared:
            continue
        # the n > N with floor(x/n) in [max(seg_lo, shared + 1), seg_hi]
        n_lo, n_hi = max(N, x // (seg_hi + 1)) + 1, x // max(seg_lo, shared + 1)
        for lo in range(n_lo, n_hi + 1, BLOCK_CHUNK):
            i = x // np.arange(lo, min(lo + BLOCK_CHUNK - 1, n_hi) + 1, dtype=np.int64)
            i -= seg_lo                 # in place: one chunk-sized array less at the peak
            yield vals[i], None


def _floats(pieces):
    """The nonzero terms of `pieces` as Python floats: f(floor(x/n)), and
    f(d) m(d) as four exact parts, Veltkamp's split of f(d) by 2^27 + 1 into
    halves of 26 bits times m mod 2^26 and the rest of m (27 bits, m < 2^53)."""
    for v, m in pieces:
        if m is not None:
            live = v != 0
            v, m = v[live], m[live]
            c = v * (2.0**27 + 1)
            hi = c - (c - v)
            low = m & (2**26 - 1)
            v = np.concatenate([hi * low, (v - hi) * low, hi * (m - low), (v - hi) * (m - low)])
        yield from v[v != 0].tolist()


def _split_sum(kind: FunctionKind, x: int, N: int, d0: int, head: np.ndarray, prefix):
    """S_f(x) from the head values f(floor(x/n)), n <= N, and f on [1, d0],
    read from `prefix` and streamed beyond it (see `_pieces`), summed as
    `floor_sum_fast` says."""
    pieces = _pieces(kind, prefix, x, N, min(x // (isqrt(x) + 1), d0), d0)
    if kind.tag == "lambda":
        return math.fsum(_floats(chain([(head, None)], pieces)))
    total = sum(head.tolist())              # exact, in Python ints
    # v comes in the sieve's narrow working dtype: each chunk is summed in
    # int64, against m's int64 or by an int64 accumulator
    for v, m in pieces:
        total += int(v.sum(dtype=np.int64) if m is None else m.dot(v))
    return total


def floor_sum_fast(kind: FunctionKind, x: int, split: int | None = None,
                   table: SieveTable | None = None):
    """Split evaluation, exactly equal to floor_sum_naive for integer kinds.

    Three parts cover the n <= x.  The head sums f(floor(x/n)) for n <= N,
    the N quotients factored in one `eval_points` call.  The shared blocks
    sum f(d) m(d) over d <= shared = min(x // (isqrt(x)+1), x // (N+1)),
    the quotients that several n may share, with m(d) from one division per
    d.  The per-n range adds f(floor(x/n)) for each n in (N, x // (shared+1)],
    one division and one lookup per n; those quotients lie in (shared,
    x // (N+1)] and have multiplicity 0 or 1.  The blocks and the per-n
    range read one sieve pass over [1, x // (N+1)], streamed in chunks.
    `split` overrides the default N = max(1, isqrt(x // SPLIT_RATIO)); the
    result does not depend on it.  A `table` replaces both the factoring and
    the sieve.  Integer sums are exact: the head in Python ints, and the
    int64 chunks checked against the kind's `_magnitude` before any work,
    the first block at its own bound and every later chunk at one bound.
    Lambda is one math.fsum of every term, each f(d) m(d) in exact parts
    (`_floats`); eval_points and the sieve give every term the same bits, so
    it is floor_sum_naive's correctly rounded sum, bit for bit, at any split.
    """
    return _split_sums(kind, [_check_x(x, "fast")], split, table)[0]


def _split_sums(kind: FunctionKind, grid: list[int], split: int | None = None,
                table: SieveTable | None = None) -> list:
    """S_f(x) at every x of `grid`, an increasing list of checked x, as
    `floor_sum_fast(kind, x, split, table)` says, in one pass.  Each x splits
    at N = `split`, by default max(1, isqrt(x // SPLIT_RATIO)), and sieves up
    to d0 = x // (N+1), within SIEVE_BUDGET.

    Every block and per-n range reads one prefix of f and streams what lies
    beyond it.  A table is a prefix that covers every block, and the heads
    are looked up in it.  Without one, the heads of consecutive points are
    factored together, at most HEAD_ROWS rows per `eval_points` call (a
    bigger head alone), each group summed before the next is factored; and
    where two or more points read it, the prefix is one sieve of [1, min(D,
    SHARED_PREFIX)], D the largest d0.  One point streams all of its range,
    so no sieving prime is walked twice."""
    prefix = () if table is None else _table_prefix(kind, table, grid[-1])
    groups, rows = [], math.inf         # the first point opens a group
    for x in grid:
        N = max(1, isqrt(x // SPLIT_RATIO)) if split is None else require_integers(split=split)
        if not 1 <= N <= x:
            raise ValueError(f"split must lie in [1, x], got {N}")
        d0 = x // (N + 1)
        if d0 > SIEVE_BUDGET:
            raise BudgetError(f"block range of {d0} entries exceeds budget {SIEVE_BUDGET}")
        if kind.tag != "lambda":
            if table is None:
                _check_tau_order(kind)              # eval_points' refusal comes first
            # the first block, d <= end, sums |f| <= _magnitude(kind, end) over
            # x - x // (end + 1) n; every later piece |f| <= _magnitude(kind, d0)
            # over at most the second count of n
            end = min(BLOCK_CHUNK, x // (isqrt(x) + 1), d0)
            for top, count in ((end, x - x // (end + 1)),
                               (d0, max(BLOCK_CHUNK, x // (BLOCK_CHUNK + 1) + 1))):
                if (bound := _magnitude(kind, top) * count) >= 2**63:
                    raise BudgetError(f"block sum of {count} terms may exceed int64 (bound {bound})")
        if rows + N > HEAD_ROWS:
            groups.append([])
            rows = 0
        groups[-1].append((x, N, d0))
        rows += N
    if table is None and len(grid) > 1:
        top = max(d0 for group in groups for *_, d0 in group)
        prefix = build_sieve(kind, 1, min(top, SHARED_PREFIX)).values
    sums = []
    for group in groups:
        q = [x // np.arange(1, N + 1, dtype=np.int64) for x, N, _ in group]
        q = q[0] if len(q) == 1 else np.concatenate(q)     # small table sums are hot: no copy
        head = eval_points(kind, q) if table is None else prefix[q - 1]
        start = 0
        for x, N, d0 in group:
            sums.append(_split_sum(kind, x, N, d0, head[start: start + N], prefix))
            start += N
    return sums


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


def _tail_bound(kind: FunctionKind, cutoff: int | None) -> float:
    """The error bound of the main-term constant taken at `cutoff`: for an
    integer cutoff, an upper bound on sum_{n > cutoff} |f(n)|/(n(n+1)); for
    None, the a-priori bound of `series_constant(kind)`.

    Functions with every |f(p^a)| <= 1 use the exact telescoped tail;
    log-size functions (Lambda, the additive omega) use the integral bound;
    the others use |f(n)| <= B n^eps with eps=0.3 and B the exact product of
    local suprema of |f(p^a)|/p^(eps a) over prime powers.
    """
    if cutoff is None:
        return series_constant(kind)[1]
    c = cutoff
    if kind.tag == "lambda":
        return (math.log(c) + 1.0) / c
    if kind.additive:
        return (math.log(c) + 1.0) / (c * math.log(2))
    # every |local factor| is at most 1 iff |f(n)| <= 1 on n <= 16: each
    # kind's factor is constant from a = 4 on or exceeds 1 at a = 1
    if _magnitude(kind, 16) <= 1:
        return 1.0 / (c + 1)
    eps = _ENVELOPE_EPS
    B = _power_envelope(lambda p, a: abs(kind.local(a)) / p ** (eps * a))
    return B * c ** (eps - 1.0) / (1.0 - eps)


def main_term_constant(kind: FunctionKind, cutoff: int) -> tuple[float, float]:
    """(sum_{n<=cutoff} f(n)/(n(n+1)), tail bound on the remainder)."""
    cutoff = require_integers(cutoff=cutoff)
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
# main-term constant from Dirichlet series

_U = 2.0 ** -53                 # unit roundoff of float64
_ULPS = 4                       # assumed error of numpy's power, log, log1p, expm1, in ulps
_SERIES_K = 80                  # the series sums k = 2.._SERIES_K
_EM_N = 10                      # zeta sums: n < _EM_N directly, then Euler-Maclaurin
# B_2j/(2j)! for j = 1..10: the corrections take j <= 9, the remainder bound j = 10
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000,
              43867 / 5109094217170944000, -174611 / 802857662698291200000)


class _Bounded:
    """A float64 array with an elementwise absolute error bound.

    Each operation propagates its operands' bounds (to all orders for + - *
    and /, by the mean value theorem for log1p and expm1) and adds its own
    rounding: u |value|, or _ULPS ulps for a library function.  Python ints
    and exactly representable floats enter with bound 0."""

    __slots__ = ("v", "e")

    def __init__(self, v, e=0.0):
        self.v, self.e = v, e

    def __getitem__(self, i):
        return _Bounded(self.v[i], self.e[i])

    def __neg__(self):
        return _Bounded(-self.v, self.e)

    def __add__(self, o):
        o = o if isinstance(o, _Bounded) else _Bounded(o)
        v = self.v + o.v
        return _Bounded(v, self.e + o.e + _U * abs(v))

    __radd__ = __add__

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        o = o if isinstance(o, _Bounded) else _Bounded(o)
        v = self.v * o.v
        return _Bounded(v, abs(self.v) * o.e + abs(o.v) * self.e + self.e * o.e + _U * abs(v))

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = o if isinstance(o, _Bounded) else _Bounded(o)
        v = self.v / o.v
        return _Bounded(v, (self.e + abs(v) * o.e) / (abs(o.v) - o.e) + _U * abs(v))

    def __rtruediv__(self, o):
        return _Bounded(o) / self

    def log1p(self):
        v = np.log1p(self.v)
        return _Bounded(v, self.e / (1 + self.v - self.e) + _library(v))

    def expm1(self):
        v = np.expm1(self.v)
        return _Bounded(v, np.exp(self.v + self.e) * self.e + _library(v))


def _library(v):
    """The rounding bound of a library function's result: _ULPS ulps <= 2 _ULPS u |v|."""
    return 2 * _ULPS * _U * abs(v)


def _computed(v) -> _Bounded:
    return _Bounded(v, _library(v))


def _zeta_sums(s: np.ndarray, log_weight: bool) -> _Bounded:
    """zeta(s) - 1 = sum_{n>=2} n^-s, or -zeta'(s) = sum_{n>=2} log(n) n^-s
    with `log_weight`, for integers s >= 2 given as floats.

    The terms n < _EM_N are summed directly; the tail n >= _EM_N is the
    Euler-Maclaurin expansion of g(x) = x^-s (or log(x) x^-s) with the
    corrections B_2j/(2j)! (s)_(2j-1) N^(1-s-2j) (times log N - H_(2j-1)(s)
    for the log weight, H_m(s) = sum_{i<m} 1/(s+i)), j <= 9.  Its remainder
    is at most 2 |B_20|/20! times the integral of |g^(20)| over [N, inf),
    since |B_20({x}) - B_20| <= 2 |B_20|; |g^(m)(x)| <= (s)_m x^(-s-m)
    (log x + H_m(s)) bounds that integral in closed form.  The sum runs from
    the small tail up to n = 2, so every partial sum is below the total."""
    N = _EM_N
    L = _computed(np.log(float(N)))
    power = _computed(N ** (1.0 - s))                 # N^(1-s)
    if log_weight:
        tail = power * (L / (s - 1) + 1 / _Bounded((s - 1) ** 2)) + L * _computed(N ** -s) * 0.5
    else:
        tail = power / (s - 1) + _computed(N ** -s) * 0.5
    rising = _Bounded(s)                              # (s)_(2j-1)
    harmonic = _Bounded(1 / s, _U / s)                # H_(2j-1)(s)
    for j, c in enumerate(_EM_COEFFS[:-1], start=1):
        term = _Bounded(c, _U * abs(c)) * rising * _computed(N ** (1.0 - s - 2 * j))
        tail = tail + (term * (L - harmonic) if log_weight else term)
        rising = rising * (s + 2 * j - 1) * (s + 2 * j)
        harmonic = harmonic + 1 / _Bounded(s + 2 * j - 1) + 1 / _Bounded(s + 2 * j)
    a = s + len(_EM_COEFFS) * 2 - 1                   # rising = (s)_(2J+1), a = s + 2J + 1
    remainder = 2 * abs(_EM_COEFFS[-1]) * rising.v * N ** -a
    if log_weight:
        remainder *= math.log(N) + harmonic.v + 2 / a   # L + 1/a + H_(2J+2)(s)
    total = _Bounded(tail.v, tail.e + remainder)
    for n in range(N - 1, 1, -1):
        term = _computed(float(n) ** -s)
        total = total + (_computed(np.log(float(n))) * term if log_weight else term)
    return total


def _prime_zeta(z1: _Bounded, K: int) -> _Bounded:
    """P(k) = sum_p p^-k = sum_{j>=1} mu(j)/j log zeta(jk) for k = 2..K,
    from z1[t - 2] = zeta(t) - 1, t = 2..2K.

    It takes the j <= J = 1 + 63 // k, so jk <= k + 63 <= 2K.  The rest is at
    most sum_{j>J} (zeta(jk) - 1) <= 4 * 2^(-(J+1)k), as zeta(t) - 1 <=
    2^-t (1 + 2/(t-1)) <= 2 * 2^-t for t >= 3."""
    k = np.arange(2, K + 1)
    J = 1 + 63 // k
    mu = build_sieve(MOBIUS, 1, J.max()).values.tolist()
    logs = z1.log1p()
    total = _Bounded(np.zeros(K - 1), np.ldexp(4.0, -(J + 1) * k))
    for j in range(1, len(mu) + 1):
        idx = np.minimum(j * k, 2 * K) - 2
        live = (J >= j) * mu[j - 1]                   # mu(j) where j <= J(k), else 0
        term = logs[idx] * live / j
        total = total + term
    return total


@cache
def _series_table(name: str) -> _Bounded:
    """A kind-independent table of `series_constant`, built once per process
    with read-only arrays: "zeta" is zeta(t) - 1 for t = 2..2K, "log" is
    -zeta'(k) and "prime" is P(k) for k = 2..K, where K = _SERIES_K."""
    K = _SERIES_K
    if name == "prime":
        table = _prime_zeta(_series_table("zeta"), K)
    else:
        top = 2 * K if name == "zeta" else K
        table = _zeta_sums(np.arange(2.0, top + 1), log_weight=name == "log")
    table.v.flags.writeable = table.e.flags.writeable = False
    return table


def series_constant(kind: FunctionKind) -> tuple[float, float]:
    """(C_f = sum f(n)/(n(n+1)), an a-priori bound on its error), from the
    Dirichlet series D_f(s) = sum f(n) n^-s without sieving.

    For n >= 2, 1/(n(n+1)) = sum_{k>=2} (-1)^k n^-k, so
    C_f = f(1)/2 + sum_{k>=2} (-1)^k (D_f(k) - f(1)).  Each D_f is a closed
    form in zeta, zeta' and the prime zeta function P (see `_zeta_sums` and
    `_prime_zeta`, tabulated once per process by `_series_table`), evaluated
    in float64 with a running error bound (`_Bounded`).  The terms
    k > _SERIES_K sum to sum_{n>=2} f(n) (-1)^(K+1) n^-(K+1) / (1 + 1/n),
    at most 2^(1-K) sum_{n>=2} |f(n)| n^-2 in absolute value.  The bound adds that,
    the Euler-Maclaurin remainders and every rounding; it lies in
    (0, 1e-12] for every supported kind (tau8's is the largest)."""
    _check_tau_order(kind)
    K = _SERIES_K
    z1 = _series_table("zeta")                                     # zeta(t) - 1, t = 2..2K
    z, z2 = z1[:K - 1], z1[2::2]                                   # at k and 2k, k = 2..K
    tag = kind.tag
    if tag == "one" or (tag == "tau" and kind.r == 1):
        d = z
    elif tag == "mobius":
        d = -z / (1 + z)
    elif tag == "mobius_squared":
        d = (z - z2) / (1 + z2)
    elif tag == "lambda":
        d = _series_table("log") / (1 + z)
    elif tag == "tau":
        d = (kind.r * z.log1p()).expm1()
    elif tag == "omega":
        d = (1 + z) * _series_table("prime")
    elif tag == "two_pow_omega":
        d = (z * (2 + z) - z2) / (1 + z2)
    else:                                                          # chi_two
        d = -z2 / (1 + z2)
    f1 = 0 if tag in ("lambda", "omega") else 1
    signed = d.v * (1 - 2 * (np.arange(2, K + 1) % 2))            # (-1)^k (D_f(k) - f(1))
    value = math.fsum([f1 / 2, *signed.tolist()])
    # sum_{n>=2} |f(n)| n^-2: D_f(2) - f(1) for f >= 0, and zeta(2) - 1 for mu
    # and chi_2, whose |f| <= 1
    abs_sum = (z if tag in ("mobius", "chi_two") else d)
    head = float(abs_sum.v[0] + abs_sum.e[0])
    bound = float(np.sum(d.e)) + _U * abs(value) + 2.0 ** (1 - K) * head
    return value, bound * (1 + 2.0 ** -20)        # slack for the bound's own rounding


# ---------------------------------------------------------------------------
# empirical error scans

def _main_term(kind: FunctionKind, cutoff: int | None) -> tuple[float, float]:
    """(C_f, its error bound): `series_constant(kind)`, or with a `cutoff`
    the partial sum `main_term_constant(kind, cutoff)`."""
    return series_constant(kind) if cutoff is None else main_term_constant(kind, cutoff)


def error_scan(kind: FunctionKind, x_grid, cutoff: int | None = None) -> FitReport:
    """Residuals E(x) = S_f(x) - x C_f over a grid, with a log-log OLS slope.

    |E| is floored at 1e-9 before the log so exact cancellations do not
    produce -inf.  C_f is `series_constant(kind)`, or with a `cutoff` the
    partial sum `main_term_constant(kind, cutoff)`; it is reported with the
    fit, and its error bound as `constant_tail_bound`.  Every grid point is
    checked to be an integer within the split evaluator's budget before the
    constant is computed.
    """
    grid = [_check_x(x, "fast") for x in x_grid]
    if len(grid) < 2:
        raise ValueError("grid must contain at least 2 points for a fit")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    constant, tail = _main_term(kind, cutoff)
    sums = _split_sums(kind, grid)
    residuals = [abs(float(s) - x * constant) for x, s in zip(grid, sums)]
    logs = np.log([max(r, RESIDUAL_FLOOR) for r in residuals])
    slope, intercept = np.polyfit(np.log(grid), logs, 1)
    return FitReport(grid=tuple(grid), sums=tuple(sums), residuals=tuple(residuals),
                     slope=float(slope), intercept=float(intercept),
                     constant=constant, constant_tail_bound=tail)


def summarize(kind: FunctionKind, x: int, method: str = "fast",
              cutoff: int | None = None) -> FloorSumReport:
    """One-shot report: exact sum, main-term constant, residual.

    The constant is `series_constant(kind)`, or with a `cutoff` the partial
    sum `main_term_constant(kind, cutoff)`; its error bound is reported as
    `constant_tail_bound`.  x is checked against the method's budget, and
    the cutoff against its own, before any constant or sum is computed."""
    if method not in ("fast", "naive"):
        raise ValueError(f"unknown method {method!r}")
    x = _check_x(x, method)
    c, tail = _main_term(kind, cutoff)
    s = floor_sum_fast(kind, x) if method == "fast" else floor_sum_naive(kind, x)
    return FloorSumReport(kind=kind, x=x, sum=s, constant=c,
                          constant_tail_bound=tail,
                          residual=float(s) - x * c)
