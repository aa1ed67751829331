"""Sieve-based and factorization-based evaluation of arithmetic functions.

Supported functions: the constant 1, the Mobius function mu, the squarefree
indicator mu^2, the von Mangoldt function Lambda, the Piltz divisor functions
tau_r, omega (number of distinct prime factors), 2^omega (number of unitary
divisors), and chi_2 (chi_2(m^2) = mu(m), zero off squares).

Each function is defined once, by its local factor g(a) = f(p^a) in
`_LOCAL_FACTORS`: f(n) is the product of g(a) over the prime powers p^a
exactly dividing n (the sum, for the additive omega).  Lambda, whose value
at p^a depends on p, is the one special case; `eval_points` counts its
distinct primes with omega's table, as Lambda(n) = log p exactly where
omega(n) = 1.  The table drives both evaluators: a single segmented kernel
that walks the prime powers up to hi with the primes up to sqrt(hi), and
`eval_points`, which trial-divides an integer array of n <= 10^12 by the
primes up to cbrt(max n) and classifies each cofactor as 1, p, p^2 or pq
(nothing else is left).  The tail bounds on main-term constants in
`floorsum` read the same table, and so does `_magnitude`, the largest |f(n)|
over n <= hi, which the kernel's working dtype and every int64 guard on a
named kind read.  The kernel does not walk 2^1..2^4, 3^1, 3^2, 5 and 7
strided: it starts from one period of that walk on n mod 5040, built once
per function, and walks on from there.

The kernel finds the one prime factor above sqrt(hi) that an n may have by
an exact test on logarithms: an unsigned byte per n adds round(s log2 p) for
every walked p^a dividing n, and a sum below one threshold per binade
[2^k, 2^(k+1)) marks the factor.  Its rounding error, at most half a unit per
odd prime factor, stays below the factor's weight of more than
s log2 sqrt(hi) units for every hi (see `_log_scale`).

Tables are immutable after construction and all operations are pure, so
concurrent reads are safe.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, isqrt

import numpy as np

from .errors import BudgetError, CoverageError, read_array, require_integers

SEGMENT_SIZE = 1 << 20
SIEVE_BUDGET = 1 << 27      # entries per table
# largest isqrt(hi) of a sieved range, so hi < 2^48: the primes up to it take
# 0.12 s and about 35 MiB to find (0.06 s at 10^7, for windows near 10^14; 2 vCPUs)
PRIME_BUDGET = 1 << 24
FACTOR_BUDGET = 10**12      # largest n eval_points accepts; a cost cap: _is_prime is exact to 2^64
# fixed: eval_points multiplies local factors in unchecked int64, and
# series_constant's 1e-12 error bound is met up to tau_8 (5.3e-13)
MAX_TAU_R = 8

_TAGS = ("one", "mobius", "mobius_squared", "lambda", "tau", "omega",
         "two_pow_omega", "chi_two")


@dataclass(frozen=True)
class FunctionKind:
    """One of the supported arithmetic functions.

    `r` is only meaningful for the tau family; tau(1) is the constant 1
    function in all but name.
    """

    tag: str
    r: int = 0

    def __post_init__(self):
        object.__setattr__(self, "r", require_integers(r=self.r))
        if self.tag not in _TAGS:
            raise ValueError(f"unknown function tag {self.tag!r}")
        if self.tag == "tau":
            if self.r < 1:
                raise ValueError("tau order r must be >= 1")
        elif self.r != 0:
            raise ValueError(f"{self.tag} takes no order parameter")

    @property
    def additive(self) -> bool:
        return self.tag == "omega"

    def local(self, a: int) -> int:
        """g(a) = f(p^a) for every prime p; Lambda has none."""
        if self.tag == "lambda":
            raise ValueError("Lambda has no local factor: Lambda(p^a) = log p depends on p")
        return _LOCAL_FACTORS[self.tag](a, self.r)

    def __str__(self) -> str:
        return f"tau{self.r}" if self.tag == "tau" else self.tag


ONE = FunctionKind("one")
MOBIUS = FunctionKind("mobius")
MOBIUS_SQUARED = FunctionKind("mobius_squared")
LAMBDA = FunctionKind("lambda")
OMEGA = FunctionKind("omega")
TWO_POW_OMEGA = FunctionKind("two_pow_omega")
CHI_TWO = FunctionKind("chi_two")


# g(a) = f(p^a) for a >= 0 and every prime p (see the module docstring);
# `r` is the tau order.  Lambda depends on p itself and has no entry.
_LOCAL_FACTORS = {
    "one": lambda a, r: 1,
    "mobius": lambda a, r: (1, -1, 0)[min(a, 2)],
    "mobius_squared": lambda a, r: int(a < 2),
    "tau": lambda a, r: comb(a + r - 1, r - 1),
    "omega": lambda a, r: int(a > 0),
    "two_pow_omega": lambda a, r: 2 if a else 1,
    # chi_2(m^2) = mu(m): mu's factor read on even exponents
    "chi_two": lambda a, r: 0 if a % 2 else _LOCAL_FACTORS["mobius"](a // 2, r),
}


def tau(r: int) -> FunctionKind:
    return FunctionKind("tau", r)


def _check_tau_order(kind: FunctionKind) -> None:
    if kind.tag == "tau" and kind.r > MAX_TAU_R:
        raise BudgetError(f"tau order {kind.r} exceeds configured maximum {MAX_TAU_R}")


_KIND_ALIASES = {
    "one": ONE, "1": ONE, "unit": ONE,
    "mu": MOBIUS, "mobius": MOBIUS,
    "mu2": MOBIUS_SQUARED, "musq": MOBIUS_SQUARED,
    "mobius_squared": MOBIUS_SQUARED, "squarefree": MOBIUS_SQUARED,
    "lambda": LAMBDA, "von_mangoldt": LAMBDA,
    "omega": OMEGA,
    "2omega": TWO_POW_OMEGA, "two_pow_omega": TWO_POW_OMEGA, "2^omega": TWO_POW_OMEGA,
    "two_omega": TWO_POW_OMEGA, "two-omega": TWO_POW_OMEGA,
    "chi2": CHI_TWO, "chi_two": CHI_TWO,
}


def kind_from_name(name: str) -> FunctionKind:
    """Parse a function name as used on the command line (e.g. 'tau3', 'mu2')."""
    key = name.strip().lower()
    if key in _KIND_ALIASES:
        return _KIND_ALIASES[key]
    if key.startswith("tau"):
        rest = key[3:].lstrip(":")
        if rest == "":
            return tau(2)
        if rest.isdigit():
            return tau(int(rest))
    raise ValueError(f"unknown function name {name!r}")


@dataclass(frozen=True)
class SieveTable:
    """Values of one arithmetic function from n = lo on, lo an integer >= 1.

    `values[i]` holds f(lo + i) in a 1-d array: any signed integer dtype
    for an integer function (`build_sieve` gives the kernel's working dtype,
    int8 for 1, mu, mu^2, omega and chi_2), float64 (log p values) for
    Lambda, any integer or float dtype for a derived table; any other array
    is refused.  The array is marked read-only, a writable one or a view
    copied first, so that a check of the values holds for the table's life.
    The table ends where its values do, at hi = lo + len(values) - 1.
    `kind` is None for a derived table (a Dirichlet product), which no
    evaluator accepts in place of a table of a named function.  Every
    reader of f(1..n) takes it from `prefix`, which checks its coverage and
    its values against the kind's `_magnitude`, which int64 guards read, so
    a narrow dtype is no risk (Lambda's against log n, which NaN fails).  A
    product refuses two integer tables whose dtypes share no integer dtype
    (uint64 with a signed one), as numpy would take it in float64.
    """

    kind: FunctionKind | None
    lo: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", require_integers(lo=self.lo))
        if self.lo < 1:
            raise ValueError(f"need lo >= 1, got lo={self.lo}")
        v = self.values
        want = ("integer or float" if self.kind is None
                else "float64" if self.kind.tag == "lambda" else "signed integer")
        if not (isinstance(v, np.ndarray) and v.ndim == 1
                and (v.dtype.kind in "iuf" if self.kind is None
                     else v.dtype == np.float64 if self.kind.tag == "lambda"
                     else v.dtype.kind == "i")):
            got = f"{v.ndim}-d {v.dtype}" if isinstance(v, np.ndarray) else type(v).__name__
            raise ValueError(f"{self.kind or 'derived'} table needs a 1-d {want} array, got {got}")
        if v.flags.writeable or not v.flags.owndata:    # a view's base may be written
            v = v.copy()
            v.flags.writeable = False
            object.__setattr__(self, "values", v)

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)

    def value(self, n: int):
        """f(n) as a Python int or float, following the array's dtype."""
        n = require_integers(n=n)
        if not self.lo <= n <= self.hi:
            raise CoverageError(f"n={n} outside table range [{self.lo}, {self.hi}]")
        return self.values.item(n - self.lo)

    def prefix(self, n: int) -> np.ndarray:
        """f(1..n) as a view, f(n) at index n - 1; CoverageError unless the
        table covers [1, n], ValueError if its values exceed its kind's
        magnitude (`_beyond_magnitude`, scanned on the first call and kept)."""
        n = require_integers(n=n)
        if self.lo != 1 or not 0 <= n <= self.hi:
            raise CoverageError(f"table covers [{self.lo}, {self.hi}], need [1, {n}]")
        if "_excess" not in vars(self):
            vars(self)["_excess"] = _beyond_magnitude(self.kind, self.lo, self.values)
        if self._excess is not None:
            raise ValueError(self._excess)
        return self.values[:n]


@lru_cache(maxsize=32)
def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, as an int64 array (classic Eratosthenes)."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(n) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


_MAX_EXPONENT = 63              # every hi < 2^64


@lru_cache(maxsize=None)
def _steps(kind: FunctionKind) -> dict[int, int | tuple[int, int]]:
    """How f changes on the multiples of p^a, for a = 1..63: from g(a-1)
    to g(a), as the difference (additive) or as the ratio num/den in lowest
    terms (multiplicative).  Exponents where g does not change are left out;
    a multiplicative factor that reaches 0 must stay 0.  Worked out once per
    kind.
    """
    g = [kind.local(a) for a in range(_MAX_EXPONENT + 1)]
    steps = {}
    for a in range(1, _MAX_EXPONENT + 1):
        if g[a] == g[a - 1]:
            continue
        if kind.additive:
            steps[a] = g[a] - g[a - 1]
        else:
            ratio = Fraction(g[a], g[a - 1])
            steps[a] = (ratio.numerator, ratio.denominator)
    return steps


_RECORDS: dict[FunctionKind, tuple[int, list[int], list[int]]] = {}
_RECORD_BITS = 20               # the least walk: no sum up to x = 1e10 asks for more


def _records(kind: FunctionKind, bits: int) -> tuple[list[int], list[int]]:
    """The records of |f| below 2^B, for some B >= bits: the n, from n = 0
    with value 0, where |f(n)| exceeds |f(m)| for every m < n, in order,
    and those values.  The records below 2^b are a prefix of those below
    2^B, so one list per kind serves every bit length up to its own; the
    first walk covers at least _RECORD_BITS bits (0.1-0.2 ms), and a kind
    is walked again only when a longer list is asked for.
    |f(n)| depends on n's exponents alone; moving them in decreasing order
    onto 2, 3, 5, ... gives an n' <= n with the same value, so only those n'
    are walked."""
    held = _RECORDS.get(kind)
    if held is not None and held[0] >= bits:
        return held[1], held[2]
    bits = max(bits, _RECORD_BITS)
    g = [abs(kind.local(a)) for a in range(bits + 1)]
    combine = int.__add__ if kind.additive else int.__mul__
    small = primes_upto(64).tolist()         # their product exceeds 2^64
    top = 1 << bits
    least = {0: 0}                           # each |f| value met: its least n'
    stack = [(0, 1, g[0], bits)]             # (i, n', |f(n')|, n''s last exponent)
    while stack:
        i, n, value, amax = stack.pop()
        if least.get(value, top) > n:
            least[value] = n
        p = small[i]
        q, a = n * p, 1
        while a <= amax and q < top:
            stack.append((i + 1, q, combine(value, g[a]), a))
            q, a = q * p, a + 1
    ns, values = [top], []                   # a value is a record if no larger one comes first
    for value in sorted(least, reverse=True):
        if least[value] < ns[-1]:
            ns.append(least[value])
            values.append(value)
    held = _RECORDS[kind] = bits, ns[:0:-1], values[::-1]
    return held[1], held[2]


def _magnitude(kind: FunctionKind, hi: int) -> int:
    """The largest |f(n)| over 1 <= n <= hi (0 for hi = 0), exactly, for a named integer kind."""
    ns, values = _records(kind, hi.bit_length())
    return values[bisect_right(ns, hi) - 1]


def _beyond_magnitude(kind: FunctionKind | None, lo: int, values: np.ndarray) -> str | None:
    """Why `values`, f from n = lo on, exceed `_magnitude(kind, n)` at some n,
    or None (always for a derived table): one max and one min per run between
    two of `_records`, where the bound is constant.  Lambda(n) = log p <=
    log n is bounded per binade instead, 0 <= Lambda(n) <= (k+1) log 2 on
    [2^k, 2^(k+1)), which NaN fails."""
    if kind is None:
        return None
    top = lo + len(values) - 1
    if kind.tag == "lambda":
        for k in range(lo.bit_length() - 1, top.bit_length()):
            # np.log(p) lies within 4 ulps of log p < (k+1) log 2, and the bound
            # within 1.5 ulps of (k+1) log 2: the factor 1 + 2^-49, 8 ulps, covers both
            bound = (k + 1) * math.log(2) * (1 + 2**-49)
            run = values[max((1 << k) - lo, 0): (2 << k) - lo]
            if not (run.min(initial=0.0) >= 0 and run.max(initial=0.0) <= bound):
                i = int(np.argmin((run >= 0) & (run <= bound)))
                return (f"{kind} table holds {run[i]} at n={max(1 << k, lo) + i}, "
                        f"beyond 0 <= {kind}(m) <= {bound} for m < 2^{k + 1}")
        return None
    ns, bounds = _records(kind, top.bit_length())
    k = bisect_right(ns, top)                # the records up to top
    for start, stop, bound in zip(ns[:k], ns[1:k] + [top + 1], bounds):
        run = values[max(start - lo, 0): max(stop - lo, 0)]
        if _abs_max(run) > bound:
            i = int(run.argmax() if run.max() > bound else run.argmin())
            return (f"{kind} table holds {run[i]} at n={max(start, lo) + i}, "
                    f"beyond |{kind}(m)| <= {bound} for m <= n")
    return None


@lru_cache(maxsize=None)
def _working_dtype(kind: FunctionKind, bits: int) -> np.dtype:
    """The narrowest signed dtype that holds every value the walk forms on
    n < 2^bits: each is f(m) for some m <= n, one g(b), b <= a, per p^a
    exactly dividing n (a quotient taken first is smaller still)."""
    bound = _magnitude(kind, (1 << bits) - 1)
    if bound >= 2**63:
        raise BudgetError(f"{kind} may exceed int64 below 2^{bits}")
    return np.min_scalar_type(-bound - 1)


def _advance(val: np.ndarray, step, additive: bool) -> None:
    """Move every entry of `val` (a view) by one step of _steps."""
    if additive:
        val += step
        return
    num, den = step
    if (num, den) == (-1, 1):
        np.negative(val, out=val)
    else:
        # exact: every entry moved is a multiple of g(a-1), so of den;
        # dividing first keeps every value within _working_dtype's bound
        if den > 1:
            val //= den
        val *= num


def _log_scale(hi: int, primes: np.ndarray) -> tuple[int, int]:
    """(s, t) such that an n <= hi in [2^k, 2^(k+1)) has a prime factor
    above the walked ones iff acc(n) < s k - t (see _segment_values).

    acc(n), the sum of round(s log2 p) over the walked p^a dividing n, is
    within 1/2 per odd prime factor of s log2 m, m the walked part of n
    (s log2 2 = s is exact), so within e/2 for e = floor(log_3 hi), or 0
    when no odd prime is walked.  Without the factor m = n, and the integer
    acc(n) >= s k - e/2 is >= s k - t for t = floor(e/2).  With it n = m q,
    where q exceeds B = max(isqrt(hi), last prime) as `primes` is a prefix
    of the primes; so acc(n) < s (k + 1 - g) + e/2 for g = log2(B + 1),
    which is at most s k - t once s (g - 1) >= e/2 + t.  The 1e-6 covers
    float rounding in log2.
    """
    e = 0
    if primes.size > 1 and primes[1] <= hi:     # an odd prime is walked
        power = 3
        while power <= hi:
            e, power = e + 1, power * 3
    if e == 0:
        return 1, 0
    gap = math.log2(max(isqrt(hi), int(primes[-1])) + 1) - 1     # >= 1, as B >= 3
    return math.ceil((e / 2 + e // 2 + 1e-6) / gap), e // 2


# the kernel's wheel, (p, a) for P = 5040 = 2^4 3^2 5 7: for b <= a, whether
# p^b divides n depends on n mod P alone
_WHEEL = ((2, 4), (3, 2), (5, 1), (7, 1))
_PERIOD = 5040


@lru_cache(maxsize=None)
def _wheel_period(kind: FunctionKind, s: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The kernel's walk over the p^b, b <= a for (p, a) in _WHEEL, on one period,
    n mod _PERIOD at index n: (val, acc) by the same `_advance` steps and
    round(s log2 p) weights, acc None for s = 0.  Built once per (kind, s),
    each read-only in its narrowest dtype: 5-25 KiB per kind."""
    steps = _steps(kind)
    val = np.full(_PERIOD, kind.local(0), dtype=np.int64)
    acc = np.zeros(_PERIOD, dtype=np.int64)
    for p, top in _WHEEL:
        for a in range(1, top + 1):
            acc[::p ** a] += round(s * math.log2(p))
            if a in steps:
                _advance(val[::p ** a], steps[a], kind.additive)
    val = val.astype(np.min_scalar_type(-_magnitude(kind, _PERIOD) - 1))    # f(gcd(n, P))
    val.flags.writeable = False
    if not s:
        return val, None
    acc = acc.astype(np.min_scalar_type(int(acc.max())))
    acc.flags.writeable = False
    return val, acc


def _from_period(period: np.ndarray, lo: int, size: int, dtype) -> np.ndarray:
    """A fresh `dtype` array of `size` entries holding period[n mod _PERIOD]
    for n from lo on: one period sliced at lo mod _PERIOD, then doubled in
    place, with no temporary."""
    out = np.empty(size, dtype=dtype)
    r = lo % _PERIOD
    k = min(size, _PERIOD)
    first = period[r: r + k]
    out[:len(first)] = first
    out[len(first): k] = period[: k - len(first)]
    while k < size:                 # out[:k] holds whole periods
        n = min(k, size - k)
        out[k: k + n] = out[:n]
        k += n
    return out


def _segment_values(kind: FunctionKind, lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """f on [lo, hi] from one walk over the prime powers p^a <= hi, p in `primes`.

    `primes` holds every prime up to some bound of at least isqrt(hi), so an
    n in [lo, hi] has at most one prime factor above the walked ones.  Every
    n starts at g(0) and moves from g(a-1) to g(a) on the multiples of p^a,
    in the narrowest dtype that holds every value formed (_working_dtype),
    which is the dtype returned; chi_2 comes in it too, a constant kind as a
    read-only broadcast of its one value, and Lambda in float64.  Where n
    has a prime factor above the walked ones, f moves from g(0) to g(1) once
    more (skipped when g(1) = g(0), or on [1, 1]).  That residual test is
    exact without forming n's walked part: an unsigned accumulator adds
    round(s log2 p) at every multiple of p^a, and n has such a factor iff
    its sum is below s k - t on n in [2^k, 2^(k+1)).
    The rounding error is at most 1/2 per odd prime factor, at most
    floor(log_3 hi)/2 in all, while the factor is worth more than
    log2 isqrt(hi) bits; _log_scale picks s and t from hi so that the error
    stays below the gap (s = 2 from hi = 16 on), and the accumulator's width
    holds s log2 hi (uint8 for every hi < 2^64).
    val and acc start from one period of the wheel P = 5040
    (`_wheel_period`), which holds the walk over 2^1..2^4, 3^1, 3^2, 5 and 7
    at n mod P: p^b divides n iff it divides n mod P.  The walk then takes
    2, 3, 5 and 7 from exponents 5, 3, 2 and 2, and every other prime from
    1; `primes` shorter than 2, 3, 5, 7 is extended to them, still a prefix
    of the primes as _log_scale needs.  Every value formed, in the period
    or after it, is one `_working_dtype` covers.
    Lambda is set at the prime powers themselves, and at the n no walked
    prime divides: 1 (log 1 = 0) and the primes above the walked ones.
    """
    size = hi - lo + 1
    if kind.tag == "chi_two":       # mu on the m with m^2 in [lo, hi], read on the squares
        val = np.zeros(size, dtype=_working_dtype(kind, hi.bit_length()))
        m_lo, root = isqrt(lo - 1) + 1, isqrt(hi)
        if m_lo <= root:
            m = np.arange(m_lo, root + 1)
            val[m * m - lo] = _segment_values(MOBIUS, m_lo, root, primes_upto(isqrt(root)))
        return val

    if kind.tag == "lambda":
        val = np.zeros(size, dtype=np.float64)
        rest = np.ones(size, dtype=bool)        # no walked prime divides n
        walked = primes[primes <= hi]
        for p, log_p in zip(walked.tolist(), np.log(walked.astype(np.float64)).tolist()):
            rest[-lo % p::p] = False
            q = p
            while q <= hi:
                if q >= lo:
                    val[q - lo] = log_p
                q *= p
        n = np.flatnonzero(rest) + lo          # primes above the walked ones, and 1
        val[n - lo] = np.log(n.astype(np.float64))     # log 1 = 0
        return val

    steps = _steps(kind)
    dtype = _working_dtype(kind, hi.bit_length())
    if not steps:                   # f is constant (one, tau_1)
        return np.broadcast_to(dtype.type(kind.local(0)), size)     # read-only, no memory
    # n = 1 has no prime factor, and the working dtype of [1, 1] need not hold g(1)
    residual = 1 in steps and hi > 1
    top = _MAX_EXPONENT if residual else max(steps)     # the last exponent the walk reads
    if primes.size < len(_WHEEL):   # the wheel's primes are walked at any hi
        primes = primes_upto(_WHEEL[-1][0])
    s, t = _log_scale(hi, primes) if residual else (0, 0)
    val_period, acc_period = _wheel_period(kind, s)
    val = _from_period(val_period, lo, size, dtype)
    if residual:
        acc = _from_period(acc_period, lo, size, np.min_scalar_type(s * hi.bit_length() + t))
    for p, a in zip_longest(primes.tolist(), [a + 1 for _, a in _WHEEL], fillvalue=1):
        if p > hi:
            break
        if residual:
            c = round(s * math.log2(p))
        q = p ** a
        while q <= hi and a <= top:
            start = -lo % q         # index of the first multiple of q in [lo, hi]
            if start < size:
                if residual:
                    acc[start::q] += c
                if a in steps:
                    _advance(val[start::q], steps[a], kind.additive)
            q, a = q * p, a + 1
    if residual:
        move = np.empty(size, dtype=dtype)  # 1 where n has a prime factor above the walked ones
        for k in range(lo.bit_length() - 1, hi.bit_length()):
            i, j = max(lo, 1 << k) - lo, min(hi, (2 << k) - 1) - lo + 1
            np.less(acc[i:j], max(0, s * k - t), out=move[i:j])
        del acc
        # f moves from g(0) to g(1) there, where g(0) is 0 (additive) or
        # f(1) = 1: add g(1) times move, or multiply by 1 + (g(1) - 1) times move;
        # hi >= 2, so the working dtype holds f(2) = g(1), and g(1) - 1
        if kind.additive:
            move *= kind.local(1)
            val += move
        else:
            move *= kind.local(1) - 1
            move += 1
            val *= move
    return val


def _check_range(lo, hi) -> tuple[int, int]:
    """(lo, hi) as Python ints, once both are integers with 1 <= lo <= hi
    and the sieving primes, those up to isqrt(hi), within PRIME_BUDGET."""
    lo, hi = require_integers(lo=lo, hi=hi)
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    if isqrt(hi) > PRIME_BUDGET:
        raise BudgetError(f"sieving up to hi={hi} needs the primes up to {isqrt(hi)}, "
                          f"beyond budget {PRIME_BUDGET}")
    return lo, hi


def iter_segment_values(kind: FunctionKind, lo: int, hi: int):
    """Yield (seg_lo, values) chunks covering [lo, hi] without holding it all.

    Streaming counterpart of build_sieve for scans over ranges larger than
    the table budget (e.g. main-term constants at cutoff 1e8).  Each chunk
    comes in the kernel's working dtype, the narrowest signed dtype that
    holds f on [1, 2^k) for the chunk's last n below 2^k (`_working_dtype`:
    int8 for 1, mu, mu^2, omega and chi_2; a constant function's chunk is a
    read-only broadcast of its value), Lambda in float64; a reader that sums
    one accumulates in a dtype of its own.  build_sieve copies them into a
    table of the working dtype of its whole range.
    """
    lo, hi = _check_range(lo, hi)
    _check_tau_order(kind)
    primes = primes_upto(isqrt(hi))
    seg_lo = lo
    while seg_lo <= hi:
        seg_hi = min(seg_lo + SEGMENT_SIZE - 1, hi)
        yield seg_lo, _segment_values(kind, seg_lo, seg_hi, primes)
        seg_lo = seg_hi + 1


def build_sieve(kind: FunctionKind, lo: int, hi: int) -> SieveTable:
    """Tabulate `kind` on [lo, hi] by segmented sieving, in the kernel's
    working dtype of [1, hi] (see `_tabulate`).

    Raises BudgetError when the table would exceed SIEVE_BUDGET entries or
    when a tau order above MAX_TAU_R is requested.
    """
    lo, hi = _check_range(lo, hi)
    if hi - lo + 1 > SIEVE_BUDGET:
        raise BudgetError(f"table of {hi - lo + 1} entries exceeds budget {SIEVE_BUDGET}")
    out = _tabulate(kind, lo, hi)
    out.flags.writeable = False
    return SieveTable(kind=kind, lo=lo, values=out)


def _tabulate(kind: FunctionKind, lo: int, hi: int) -> np.ndarray:
    """f on [lo, hi] in a fresh array, filled one segment at a time: in
    `_working_dtype(kind, hi.bit_length())`, which holds every segment's
    values (a segment's own is no wider), or float64 for Lambda."""
    _check_tau_order(kind)          # its refusal comes before the dtype's
    out = np.empty(hi - lo + 1, dtype=np.float64 if kind.tag == "lambda"
                   else _working_dtype(kind, hi.bit_length()))
    for seg_lo, vals in iter_segment_values(kind, lo, hi):
        out[seg_lo - lo: seg_lo - lo + len(vals)] = vals
    return out


# ---------------------------------------------------------------------------
# point evaluation by trial division and a cofactor test

_TEST_BLOCK = 1 << 16           # divisibility tests (primes x rows) held at once
_PRUNE_EVERY = 16               # primes between two prunings of the finished rows


# (bound, bases): Miller-Rabin on the bases, each reduced mod m, is exact for
# every odd m below the bound; the smallest known sets, from
# https://miller-rabin.appspot.com/ (the last is Jim Sinclair's)
_MR_BASES = (
    (341_531, (9345883071009581737,)),
    (350_269_456_337, (4230279247111683200, 14694767155120705706, 16641139526367750375)),
    (55_245_642_489_451, (2, 141889084524735, 1199124725622454117, 11096072698276303650)),
    (7_999_252_175_582_851, (2, 4130806001517, 149795463772692060, 186635894390467037,
                             3967304179347715805)),
    (585_226_005_592_931_977, (2, 123635709730000, 9233062284813009, 43835965440333360,
                               761179012939631437, 1263739024124850375)),
    (2**64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
)


def _is_prime(m: int) -> bool:
    """Miller-Rabin, exact for every odd 3 <= m < 2^64: on the first set of
    _MR_BASES whose bound exceeds m, each base reduced mod m and skipped
    where m divides it."""
    m1 = m - 1
    s = (m1 & -m1).bit_length() - 1         # m - 1 = d 2^s with d odd
    d = m1 >> s
    for bound, bases in _MR_BASES:
        if m < bound:
            break
    for a in bases:
        a %= m
        if a == 0:
            continue
        x = pow(a, d, m)
        if x == 1 or x == m1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m1:
                break
        else:
            return False
    return True


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for n >= 0."""
    c = round(n ** (1 / 3))
    while c ** 3 > n:
        c -= 1
    while (c + 1) ** 3 <= n:
        c += 1
    return c


@lru_cache(maxsize=32)
def _odd_primes(c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The odd primes p <= c, with p^-1 mod 2^64 and floor((2^64 - 1) / p)
    as uint64.

    Multiplying by p^-1 is a bijection mod 2^64 that maps each multiple
    k p <= 2^64 - 1 onto k, so onto [0, floor((2^64 - 1) / p)], and every
    other uint64 above that.  So for every m < 2^64, p divides m iff
    m p^-1 mod 2^64 <= floor((2^64 - 1) / p), and the product is then m / p.
    Newton's step x -> x (2 - p x) doubles the correct low bits of x = p,
    right to 3 bits as p^2 = 1 mod 8."""
    primes = primes_upto(c)[1:]
    p = primes.astype(np.uint64)
    inv = p.copy()
    for _ in range(5):                      # 3 -> 96 bits
        inv *= np.uint64(2) - p * inv
    out = primes, inv, np.uint64(2**64 - 1) // p
    for a in out:
        a.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _local_values(kind: FunctionKind) -> np.ndarray:
    """g(a) = f(p^a) for a = 0..63, as a read-only int64 array."""
    g = np.array([kind.local(a) for a in range(_MAX_EXPONENT + 1)], dtype=np.int64)
    g.flags.writeable = False
    return g


def eval_points(kind: FunctionKind, n: np.ndarray) -> np.ndarray:
    """f on an integer array of 1 <= n <= FACTOR_BUDGET, entrywise the value
    build_sieve gives, bit for bit: Lambda takes log p from np.log on
    float64, as the sieve does.  Every value depends on its n alone.

    The powers of 2 come off by a bit test, and the odd primes up to
    c = floor(cbrt(max n)) by exact divisibility tests on uint64 (see
    `_odd_primes`): a block of primes at a time against every row still
    being divided, as many primes as keep the block within _TEST_BLOCK tests
    (one at least).  Every _PRUNE_EVERY primes, the rows whose cofactor is
    below the square of the next prime leave, as it is then 1 or a prime.
    Every prime factor of a cofactor exceeds c, and (c + 1)^3 > n leaves at
    most two of them: 1, p, p^2 or pq.  Below (c + 1)^2 it is 1 or p;
    above, `isqrt` finds p^2 and `_is_prime` tells p from pq.
    """
    _check_tau_order(kind)
    n = require_integers(n=read_array(n))
    if n.size and n.min() < 1:
        raise ValueError("n must be >= 1")
    top = int(n.max()) if n.size else 1
    if top > FACTOR_BUDGET:
        raise BudgetError(f"n={top} exceeds factorization budget {FACTOR_BUDGET}")
    m = n.astype(np.int64).ravel()          # the cofactor still to factor
    lam = kind.tag == "lambda"
    g = _local_values(OMEGA if lam else kind)   # Lambda(n) = log p where omega(n) = 1
    if (g == g[0]).all():                   # f is constant (one, tau_1)
        return np.full(n.shape, g[0], dtype=np.int64)
    val = np.full(m.size, g[0], dtype=np.int64)
    if lam:
        prime = np.ones(m.size, dtype=np.int64)     # the last prime factor found

    def record(rows, a, p):
        """p^a exactly divides n at `rows` (an index may repeat)."""
        if lam or kind.additive:
            np.add.at(val, rows, g[a])
            if lam:
                prime[rows] = p
        else:
            np.multiply.at(val, rows, g[a])

    low = m & -m                            # the power of 2 dividing m
    rows = np.flatnonzero(low > 1)
    m[rows] //= low[rows]
    record(rows, np.frexp(low[rows].astype(np.float64))[1] - 1, 2)

    c = _icbrt(top)
    odd, inv, lim = _odd_primes(c)
    live = np.flatnonzero(m > 1)            # rows still being divided
    mv = m[live].astype(np.uint64)          # and their cofactors
    i = pruned = 0
    while i < odd.size:
        if i >= pruned:
            keep = np.flatnonzero(mv >= int(odd[i]) ** 2)
            live, mv = live[keep], mv[keep]
            if not live.size:
                break
            pruned = i + _PRUNE_EVERY
        k = min(max(1, _TEST_BLOCK // live.size), odd.size - i)
        t = np.multiply.outer(inv[i: i + k], mv)
        j, r = np.divmod(np.flatnonzero(t <= lim[i: i + k, None]), live.size)
        if r.size:                      # p = odd[i + j] divides m at r
            p_inv, p_lim = inv[i + j], lim[i + j]
            q = t[j, r]                 # m / p^a
            unit = p_inv.copy()         # p^-a mod 2^64
            a = np.ones(r.size, dtype=np.int64)
            more = np.arange(r.size)
            while more.size:
                t = q[more] * p_inv[more]
                div = t <= p_lim[more]
                more = more[div]
                q[more] = t[div]
                unit[more] *= p_inv[more]
                a[more] += 1
            np.multiply.at(mv, r, unit)     # divided by every p^a found at r
            rows = live[r]
            m[rows] = mv[r]
            record(rows, a, odd[i + j])
        i += k

    rows = np.flatnonzero(m > 1)            # the cofactor is p, p^2 or pq there,
    big = rows[m[rows] >= (c + 1) ** 2]     # and below (c + 1)^2 a prime
    root = np.array([isqrt(v) for v in m[big].tolist()], dtype=np.int64)
    square = root * root == m[big]
    record(big[square], 2, root[square])
    rest = big[~square]
    pq = rest[[not _is_prime(v) for v in m[rest].tolist()]]
    record(np.repeat(pq, 2), 1, 0)          # p != q
    m[big[square]] = m[pq] = 1
    rows = np.flatnonzero(m > 1)
    record(rows, 1, m[rows])
    if lam:
        out = np.zeros(m.size, dtype=np.float64)
        one = np.flatnonzero(val == 1)
        out[one] = np.log(prime[one].astype(np.float64))
        return out.reshape(n.shape)
    return val.reshape(n.shape)


# ---------------------------------------------------------------------------
# Dirichlet convolution on tables

def dirichlet_convolve(f: SieveTable, g: SieveTable, limit: int) -> SieveTable:
    """Pointwise Dirichlet product (f * g)(n) = sum_{d | n} f(d) g(n/d) on [1, limit],
    as a read-only derived table; both tables must cover [1, limit]."""
    limit = require_integers(limit=limit)
    if limit < 1:
        raise ValueError(f"need limit >= 1, got {limit}")
    fv, gv, dtype = _check_product(f, g, limit)
    out = _convolve(fv, gv, limit, dtype)
    out.flags.writeable = False
    return SieveTable(kind=None, lo=1, values=out)


def _abs_max(v: np.ndarray) -> int:
    """The largest |value| of an integer array as a Python int, 0 if empty."""
    return max(int(v.max(initial=0)), -int(v.min(initial=0)))


def _check_product(f: SieveTable, g: SieveTable, limit: int,
                   sums: int = 1) -> tuple[np.ndarray, np.ndarray, np.dtype]:
    """f(1..L) and g(1..L), L = limit, from `prefix`, and the dtype of their
    product: for integer tables the narrowest dtype that holds both tables'
    and the bound on the product's values, or on a sum of `sums` of them,
    signed unless both tables are unsigned.  |(f * g)(n)| <= F G tau(n) <=
    F G 2 isqrt(L): F and G the `_magnitude` of a named kind, which `prefix`
    checks its table holds, or where that refuses, as for a derived table,
    the largest |value| on [1, L].  A bound past int64 (uint64 for two
    unsigned tables) is refused with BudgetError, before any work.  A float
    product (Lambda) passes in numpy's dtype, and integer tables whose
    product numpy would take in float64 are refused with ValueError."""
    fv, gv = f.prefix(limit), g.prefix(limit)
    dtype = np.result_type(fv, gv)
    if dtype.kind not in "iu":
        if fv.dtype.kind in "iu" and gv.dtype.kind in "iu":     # uint64 with a signed dtype
            raise ValueError(f"{fv.dtype} and {gv.dtype} tables share no integer dtype")
        return fv, gv, dtype
    unsigned = dtype.kind == "u"
    widest = np.dtype(np.uint64 if unsigned else np.int64)
    for read in (False, True):
        F, G = (_abs_max(v) if read or t.kind is None else _magnitude(t.kind, limit)
                for t, v in ((f, fv), (g, gv)))
        if (bound := F * G * 2 * isqrt(limit) * sums) <= np.iinfo(widest).max:
            held = np.min_scalar_type(bound if unsigned else -bound - 1)
            return fv, gv, np.promote_types(dtype, held)
    raise BudgetError(f"Dirichlet product on [1, {limit}] may exceed {widest} (bound {bound})")


def _identity_dtype(f: np.ndarray, g: np.ndarray) -> np.dtype:
    """The dtype of the identity layer's coefficient vectors over f and g:
    int64 for integer arrays (uint64 for a pair that numpy takes in it),
    float64 once one is float64 (Lambda)."""
    dtype = np.result_type(f, g)
    return dtype if dtype == np.uint64 else np.result_type(dtype, np.int64)


def _convolve(f: np.ndarray, g: np.ndarray, limit: int, dtype=None) -> np.ndarray:
    """(f * g) on [1, limit] at index n - 1, for value arrays that start at
    n = 1 and read as zero past their ends, in `dtype`, which must hold both
    arrays and every value formed (`_check_product`'s dtype; if None, the
    identity layer's `_identity_dtype`), by the hyperbola split: the
    pairs d <= e by ascending d, then d > e by descending e, one strided
    update per d <= sqrt(limit) with f(d) != 0 and per e with g(e) != 0; a
    coefficient of +-1 adds or subtracts the other array in place, with no
    limit-sized temporary.  Each n sums its terms f(d) g(n/d) from +0 in
    ascending d, and a zero term skipped changes no bit, as a sum from +0 is
    never -0, so float (Lambda) products have the bits of that order.
    `identities._hyperbola_terms` relies on this for its windowed terms."""
    out = np.zeros(limit, dtype=_identity_dtype(f, g) if dtype is None else dtype)
    root = isqrt(limit)
    for d in (np.flatnonzero(f[:root]) + 1).tolist():      # d <= e: n = d e from d^2 on
        e = min(limit // d, len(g))
        _add_scaled(out[d * d - 1: d * e: d], f[d - 1], g[d - 1: e])
    for e in (np.flatnonzero(g[:root])[::-1] + 1).tolist():    # d > e: n = d e from e (e + 1) on
        d = min(limit // e, len(f))
        _add_scaled(out[e * e + e - 1: e * d: e], g[e - 1], f[e: d])
    return out


def _add_scaled(view: np.ndarray, c, v: np.ndarray) -> None:
    """view += c v in place, c v formed in view's dtype (an int8 table's
    products would wrap in int8), with no temporary for c = +-1: 1 v is v
    and x - y is x + (-y), so the bits are those of c v, floats included."""
    if c == 1:
        view += v
    elif c == -1:
        view -= v
    else:
        view += np.multiply(c, v, dtype=view.dtype)
