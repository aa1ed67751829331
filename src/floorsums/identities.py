"""Exact numeric verification of Vaughan decompositions and the Dirichlet
hyperbola principle, with and without exponential weights.

Each verifier evaluates both sides of an identity independently and returns
(lhs, rhs, |lhs - rhs|); the sides agree to rounding (relative 1e-9) for any
admissible parameters and any phase.  On its window every side is a sum of
terms sum_k c(k) w(k), one dot product each, taken by `_window_sides`:
w(k) = e(F(k)) (or 1) is computed once per window by `unit_array`, on
k in (R, R1] for the three dyadic verifiers and k in [1, x] for
`hyperbola_sides`.  Each coefficient vector c is a Dirichlet product of
value arrays cut to the term's ranges, from arith's kernel `_convolve`
(k at index k - 1): a double sum sum_n a(n) sum_{R/n < m <= R1/n} b(m) w(mn)
is (a * b) read on (R, R1], so real range endpoints never meet a
floating-point division.  On integer tables the identity is an equality of
integer coefficient vectors, and the phase only adds the rounding of the
dot products.  Both hyperbola forms take their term lists from one builder,
`_hyperbola_terms`, cut at different points; up to `_PAIR_CAP` it reads a
cached index of divisor pairs on the window alone, with the bits of the
kernel's products.

A product's value at n does not depend on the limit it is built to (the
kernel sums each n's terms in ascending d, and a sieve's value at n does not
depend on where its table ends), so a Vaughan product built on [1, 2 _MAX_R]
and read on (R, R1] is the product built on [1, R1], bit for bit.
`run_verification` sieves each suite table once per process
(`_suite_table`) and builds each cutoff U's Vaughan products once per
process and subject (`_vaughan_products`); the draws bound both caches.  The
suite's opaque phase is evaluated in numpy.

Note on the Vaughan forms: the third sum of the Lambda identity and of the
mu identity both restrict the inner variable to m > max(U, R/n).  On the
window m > R/n holds by itself, so the term is the product of two tables cut
to n > U and m > U.  For U >= 2 the cut of b is vacuous (b_m = [m=1] below
the cutoff) but it is what makes the identity exact all the way down to
U = 1.  The mu identity carries no logarithmic weight on its a_n sums.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Optional

import numpy as np

from .arith import (CHI_TWO, LAMBDA, MOBIUS, MOBIUS_SQUARED, OMEGA, ONE, TWO_POW_OMEGA,
                    SieveTable, _convolve, build_sieve, tau)
from .errors import WindowError, require_integers

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhaseFunction:
    """A phase t -> F(t) used inside e(F(t)) on integer arguments t >= 1.

    Every built-in form is F(t) = z / (t + a)^r: `reciprocal` (r = 1, a = 0),
    `power_reciprocal` (a = 0) and `shifted_reciprocal` (z = h x, r = 1,
    a in {0, 1}), with z an int or a float.  One exact formula reduces them
    all: z = p/q by `z.as_integer_ratio()` (exact for both), so F(t) mod 1
    = (p mod d) / d with d = q (t + a)^r, in integers and one correctly
    rounded division.  Opaque callables must be pure and deterministic;
    their values are reduced in floating point.
    """

    form: str                       # reciprocal | power_reciprocal | shifted_reciprocal | opaque
    z: int | float = 0
    r: int = 1
    a: int = 0
    fn: Optional[Callable[[int], float]] = None

    @classmethod
    def reciprocal(cls, z) -> "PhaseFunction":
        if not 0 <= z < math.inf:           # also false for nan
            raise ValueError(f"need 0 <= z < inf, got z={z}")
        return cls(form="reciprocal", z=z)

    @classmethod
    def power_reciprocal(cls, z, r: int) -> "PhaseFunction":
        require_integers(r=r)
        if not 0 <= z < math.inf or r < 1:
            raise ValueError(f"need 0 <= z < inf and r >= 1, got z={z}, r={r}")
        return cls(form="power_reciprocal", z=z, r=r)

    @classmethod
    def shifted_reciprocal(cls, h, x, a: int) -> "PhaseFunction":
        require_integers(a=a)
        if not (0 <= h < math.inf and 0 <= x < math.inf and h * x < math.inf) \
                or a not in (0, 1):
            raise ValueError(f"need 0 <= h, x, hx < inf and a in {{0, 1}}, "
                             f"got h={h}, x={x}, a={a}")
        return cls(form="shifted_reciprocal", z=h * x, a=a)

    @classmethod
    def opaque(cls, fn: Callable[[int], float]) -> "PhaseFunction":
        return cls(form="opaque", fn=fn)

    def frac(self, t: int) -> float:
        """F(t) mod 1 in [0, 1), for an integer t >= 1."""
        _check_t(t)
        return self._frac(int(t))

    def _frac(self, t: int) -> float:
        if self.fn is not None:
            return self.fn(t) % 1.0
        p, q = self.z.as_integer_ratio()
        d = q * (t + self.a) ** self.r
        return (p % d) / d

    def unit(self, t: int) -> complex:
        """e(F(t)) = exp(2 pi i F(t))."""
        return cmath.exp(1j * TWO_PI * self.frac(t))

    def unit_array(self, t: np.ndarray) -> np.ndarray:
        """Vectorized e(F(t)) for integer arrays of t >= 1, checked once per
        array, with the phases of `frac`.
        With z = p/q, the int64 path is taken only when p < 2^62 and every
        d = q (t + a)^r < 2^53, tested in Python integers: then p mod d and d
        convert to float64 exactly, so their quotient is correctly rounded.
        Otherwise each entry is reduced on a Python int: an opaque phase by
        `frac`'s formula fn(k) % 1.0 inline, a window out of range by
        `_frac`, `frac`'s formula without its check.
        The suite's opaque draw c1 sqrt(t) + c2/t (`_SqrtPhase`) is taken in
        float64 arrays: sqrt, *, /, + and mod 1 are each correctly rounded
        entrywise, as in the scalar formula, so the bits are the same."""
        t = np.asarray(t)
        _check_t(t)
        t = t.astype(np.int64, copy=False)
        if isinstance(self.fn, _SqrtPhase):
            tf = t.astype(np.float64)
            return np.exp(1j * TWO_PI * np.mod(self.fn.c1 * np.sqrt(tf) + self.fn.c2 / tf, 1.0))
        if self.fn is not None:
            ph = [self.fn(k) % 1.0 for k in t.tolist()]
        else:
            p, q = self.z.as_integer_ratio()
            if p < 2**62 and (t.size == 0 or q * (int(t.max()) + self.a) ** self.r < 2**53):
                d = q * (t + self.a) ** self.r
                return np.exp(1j * TWO_PI * (np.mod(p, d) / d))
            ph = [self._frac(k) for k in t.tolist()]
        return np.exp(1j * TWO_PI * np.array(ph, dtype=np.float64))


def _check_t(t) -> None:
    """Refuse a t, an integer or an array of them, that is not >= 1."""
    require_integers(t=t)
    low = t.min(initial=1) if isinstance(t, np.ndarray) else t
    if low < 1:
        raise ValueError(f"need t >= 1, got {low}")


@dataclass(frozen=True)
class _SqrtPhase:
    """The opaque phase t -> c1 sqrt(t) + c2/t that `random_phase` draws; a
    type of its own so that `unit_array` can take it in numpy."""

    c1: float
    c2: float

    def __call__(self, t: int) -> float:
        return self.c1 * math.sqrt(t) + self.c2 / t


# ---------------------------------------------------------------------------
# coefficient vectors: Dirichlet products of range-restricted tables

def _part(values: np.ndarray, lo: int) -> np.ndarray:
    """A table starting at 1 cut to n > lo: a copy, zero for n <= lo."""
    out = values.copy()
    out[:lo] = 0
    return out


def _window_sides(sides, R: int, R1: int,
                  phase: PhaseFunction | None) -> tuple[complex, complex, float]:
    """(lhs, rhs, |lhs - rhs|) on the window (R, R1] for `sides`, the lhs and
    rhs term lists of coefficient vectors that start at n = 1 and cover R1:
    each side is sum_j c_j . w with w = e(F(k)) on the window (1 when `phase`
    is None), one dot product per term, as a Python int, float or complex."""
    w = (np.ones(R1 - R, dtype=np.int64) if phase is None
         else phase.unit_array(np.arange(R + 1, R1 + 1)))
    lhs, rhs = (sum(np.dot(c[R:R1], w) for c in terms).item() for terms in sides)
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# identity verifiers

def _check_dyadic(R: int, R1: int, U: int = 1) -> None:
    """Integers 1 < R < R1 <= 2R and 1 <= U <= sqrt(R); U = 1 suits every window."""
    require_integers(R=R, R1=R1, U=U)
    if not (1 < R < R1 <= 2 * R):
        raise WindowError(f"need 1 < R < R1 <= 2R, got R={R}, R1={R1}")
    if not (1 <= U and U * U <= R):
        raise WindowError(f"need 1 <= U <= sqrt(R), got U={U}, R={R}")


def _vaughan_lambda_terms(lam: np.ndarray, mu: np.ndarray, U: int):
    """The lhs and rhs coefficient vectors of `vaughan_lambda_sides` on
    [1, L], from the tables Lambda on [1, L] and mu on at least [1, U]."""
    L, mu = len(lam), mu[:U]
    one = np.ones(L, dtype=np.int64)
    a = _convolve(mu, lam[:U], U * U)
    b = _convolve(mu, one, L)
    logs = np.log(np.arange(1, L + 1))
    return [lam], [_convolve(mu, logs, L), -_convolve(a, one, L),
                   -_convolve(_part(lam, U), _part(b, U), L)]


def _vaughan_mobius_terms(mu: np.ndarray, U: int):
    """The lhs and rhs coefficient vectors of `vaughan_mobius_sides` on
    [1, L], from the table mu on [1, L]."""
    L = len(mu)
    one = np.ones(L, dtype=np.int64)
    mu_hi = _part(mu, U)
    a = _convolve(mu[:U], mu[:U], U * U)
    b_plus = _convolve(mu_hi, one, L)
    return [mu], [-_convolve(a, one, L), _convolve(b_plus, mu_hi, L)]


def vaughan_lambda_sides(R: int, R1: int, U: int,
                         phase: PhaseFunction) -> tuple[complex, complex, float]:
    """Both sides of the Vaughan decomposition of sum Lambda(n) e(F(n)):
    Lambda = (mu 1_U * log) - (a * 1) - (Lambda 1_{>U} * b 1_{>U}) on (R, R1],
    with a = mu 1_U * Lambda 1_U and b = mu 1_U * 1."""
    _check_dyadic(R, R1, U)
    lam, mu = build_sieve(LAMBDA, 1, R1).values, build_sieve(MOBIUS, 1, U).values
    return _window_sides(_vaughan_lambda_terms(lam, mu, U), R, R1, phase)


def vaughan_mobius_sides(R: int, R1: int, U: int,
                         phase: PhaseFunction) -> tuple[complex, complex, float]:
    """Both sides of the Vaughan decomposition of sum mu(n) e(F(n)):
    mu = -(a * 1) + (b+ * mu 1_{>U}) on (R, R1], with a = mu 1_U * mu 1_U and
    b+ = mu 1_{>U} * 1 = [n = 1] - mu 1_U * 1, which vanishes on n <= U."""
    _check_dyadic(R, R1, U)
    mu = build_sieve(MOBIUS, 1, R1).values
    return _window_sides(_vaughan_mobius_terms(mu, U), R, R1, phase)


_PAIR_CAP = 1 << 11     # largest limit the pair index serves (measured crossover 2048-4096)


@functools.lru_cache(maxsize=1)
def _divisor_pairs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair d e = n <= _PAIR_CAP, as read-only index arrays
    (n - 1, d - 1, e - 1) sorted by n and, within each n, by ascending d:
    15,937 pairs, built on first use."""
    d = np.arange(1, _PAIR_CAP + 1)
    count = _PAIR_CAP // d                  # the e paired with each d
    d = np.repeat(d, count)
    e = np.arange(d.size) - np.repeat(np.cumsum(count) - count, count) + 1
    order = np.argsort(d * e, kind="stable")    # stable: d stays ascending
    out = tuple(a[order] - 1 for a in (d * e, d, e))
    for a in out:
        a.flags.writeable = False
    return out


def _hyperbola_terms(fv: np.ndarray, gv: np.ndarray, a: int, b: int, c: int, R: int):
    """The lhs and rhs coefficient vectors of the hyperbola split
    f * g = (f 1_a * g) + (g 1_b * f) - (f 1_(c,a] * g 1_b) on the window
    (R, L], from f and g on [1, L], as vectors on [1, L].  It holds on the
    window when (a + 1)(b + 1) > L, as no d e <= L has d > a and e > b, and
    c b <= R, as the overlap left out at d <= c lies below the window.

    Up to L = _PAIR_CAP the terms are read from the divisor-pair index on
    the window alone, zero below it: f(d) g(e) and g(d) f(e) are gathered
    once over the pairs d e = n in (R, L], and each term is one `np.add.at`
    over them, the pairs its cuts drop zeroed.  Each n sums its terms from
    +0 in ascending d, as `_convolve` does, and a zero term changes no bit,
    so every term has the bits of the product `_convolve` builds."""
    L = len(fv)
    if L > _PAIR_CAP:
        return [_convolve(fv, gv, L)], [_convolve(fv[:a], gv, L), _convolve(gv[:b], fv, L),
                                        -_convolve(_part(fv[:a], c), gv[:b], L)]
    n, d, e = _divisor_pairs()
    lo, hi = np.searchsorted(n, [R, L]).tolist()       # the pairs with R <= n - 1 < L
    n, d, e = n[lo:hi], d[lo:hi], e[lo:hi]
    fg, gf = fv[d] * gv[e], gv[d] * fv[e]
    f_cut = d < a                                      # d <= a: the index holds d - 1

    def term(prod):
        out = np.zeros(L, dtype=prod.dtype)
        np.add.at(out, n, prod)
        return out

    # a pair that a cut drops adds a zero, which changes no bit
    return [term(fg)], [term(fg * f_cut), term(gf * (d < b)),
                        -term(fg * (f_cut & (e < b) & (d >= c)))]


def hyperbola_sides(f: SieveTable, g: SieveTable, phase: PhaseFunction | None,
                    x: int, U: int) -> tuple[complex, complex, float]:
    """Both sides of the hyperbola split of sum_{n<=x} (f*g)(n) e(F(n)):
    f * g = (f 1_U * g) + (g 1_{x/U} * f) - (f 1_U * g 1_{x/U}) on [1, x].
    With `phase` None the weight is 1, and on integer tables both sides are
    exact int64 sums."""
    require_integers(x=x, U=U)
    if not 1 <= U <= x:
        raise WindowError(f"need 1 <= U <= x, got U={U}, x={x}")
    terms = _hyperbola_terms(f.prefix(x), g.prefix(x), U, x // U, 0, 0)
    return _window_sides(terms, 0, x, phase)


def hyperbola_exp_sides(f: SieveTable, g: SieveTable, phase: PhaseFunction,
                        R: int, R1: int, U: int) -> tuple[complex, complex, float]:
    """Both sides of the dyadic exponential form of the hyperbola split.

    Identity over pairs mn in (R, R1]: the f-smooth range n <= U R1/R, the
    g-smooth range n <= R/U, minus the overlap correction; as coefficients,
    f * g = (f 1_{UR1/R} * g) + (g 1_{R/U} * f) - (f 1_{(U, UR1/R]} * g 1_{R/U}).
    """
    require_integers(R=R, R1=R1, U=U)
    if not (R < R1 and 1 <= U <= R):
        raise WindowError(f"need R < R1 and 1 <= U <= R, got R={R}, R1={R1}, U={U}")
    terms = _hyperbola_terms(f.prefix(R1), g.prefix(R1), U * R1 // R, R // U, U, R)
    return _window_sides(terms, R, R1, phase)


# ---------------------------------------------------------------------------
# randomized verification suites (shared by the CLI and the test suite)

VERIFY_SUBJECTS = ("vaughan-lambda", "vaughan-mu", "hyperbola", "hyperbola-exp")

_PHASE_PARAM_MAX = 10**6
_MAX_R, _MAX_X = 500, 400     # verify draws R <= _MAX_R, x <= _MAX_X <= 2 _MAX_R
_MAX_TRIALS = 10**4           # 0.03-0.1 ms and one report dict per trial
_SUITE_KINDS = (ONE, MOBIUS, MOBIUS_SQUARED, LAMBDA, tau(2), tau(3), OMEGA,
                TWO_POW_OMEGA, CHI_TWO)   # the hyperbola suites draw f and g from these


@functools.cache
def _suite_table(kind) -> SieveTable:
    """The read-only table of `kind` on [1, 2 _MAX_R], sieved once per
    process: the suites draw from _SUITE_KINDS, so at most 9 are kept."""
    return build_sieve(kind, 1, 2 * _MAX_R)


@functools.cache
def _vaughan_products(subject: str, U: int):
    """The lhs and rhs Vaughan products of cutoff U on [1, 2 _MAX_R], made
    read-only and built once per process: U <= isqrt(_MAX_R) keeps at most
    2 x 22 of them.  A trial reads them on its window."""
    if subject == "vaughan-lambda":
        sides = _vaughan_lambda_terms(_suite_table(LAMBDA).values,
                                      _suite_table(MOBIUS).values, U)
    else:
        sides = _vaughan_mobius_terms(_suite_table(MOBIUS).values, U)
    for terms in sides:
        for c in terms:
            c.flags.writeable = False
    return sides


def random_phase(rng) -> PhaseFunction:
    """Draw a phase uniformly over the built-in forms, params in [1, 1e6]."""
    form = rng.choice(("reciprocal", "power_reciprocal", "shifted_reciprocal",
                       "opaque"))
    if form == "reciprocal":
        z = rng.randint(1, _PHASE_PARAM_MAX) if rng.random() < 0.5 \
            else rng.uniform(1, _PHASE_PARAM_MAX)
        return PhaseFunction.reciprocal(z)
    if form == "power_reciprocal":
        return PhaseFunction.power_reciprocal(rng.randint(1, _PHASE_PARAM_MAX),
                                              rng.randint(1, 3))
    if form == "shifted_reciprocal":
        return PhaseFunction.shifted_reciprocal(rng.randint(1, 100),
                                                rng.randint(1, _PHASE_PARAM_MAX // 100),
                                                rng.randint(0, 1))
    c1 = rng.uniform(1, 1000)
    c2 = rng.uniform(1, _PHASE_PARAM_MAX)
    return PhaseFunction.opaque(_SqrtPhase(c1, c2))


def _trial_rng(seed: int, trial: int):
    import random
    return random.Random((int(seed) << 20) ^ trial)     # random refuses numpy ints


def run_verification(subject: str, trials: int, seed: int) -> list[dict]:
    """Per-trial residual reports for one identity family.

    Instances draw R in [20, _MAX_R], admissible U, and phases from all forms;
    per-instance seeds derive from (seed, trial) so runs are reproducible
    and trials are independent.  f and g come from `_suite_table` and the
    Vaughan products from `_vaughan_products`, both kept for the process.
    """
    if subject not in VERIFY_SUBJECTS:
        raise ValueError(f"unknown subject {subject!r}; pick from {VERIFY_SUBJECTS}")
    require_integers(trials=trials, seed=seed)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if trials > _MAX_TRIALS:
        raise ValueError(f"need trials <= {_MAX_TRIALS}, got {trials}")
    if seed < 0:        # random.Random seeds from |seed|: -s would replay s's trial 0
        raise ValueError(f"need seed >= 0, got {seed}")
    out = []
    for t in range(trials):
        rng = _trial_rng(seed, t)
        R = rng.randint(20, _MAX_R)
        R1 = rng.randint(R + 1, 2 * R)
        phase = random_phase(rng)
        if subject in ("vaughan-lambda", "vaughan-mu"):
            U = rng.randint(1, isqrt(R))
            _check_dyadic(R, R1, U)
            lhs, rhs, res = _window_sides(_vaughan_products(subject, U), R, R1, phase)
            params = {"R": R, "R1": R1, "U": U}
        elif subject == "hyperbola":
            x = rng.randint(30, _MAX_X)
            U = rng.randint(1, x)
            f, g = _suite_table(rng.choice(_SUITE_KINDS)), _suite_table(rng.choice(_SUITE_KINDS))
            lhs, rhs, res = hyperbola_sides(f, g, phase, x, U)
            params = {"x": x, "U": U, "f": str(f.kind), "g": str(g.kind)}
        else:
            U = rng.randint(1, R)
            f, g = _suite_table(rng.choice(_SUITE_KINDS)), _suite_table(rng.choice(_SUITE_KINDS))
            lhs, rhs, res = hyperbola_exp_sides(f, g, phase, R, R1, U)
            params = {"R": R, "R1": R1, "U": U, "f": str(f.kind), "g": str(g.kind)}
        rel = res / (1 + abs(lhs))
        out.append({"trial": t, "residual": res, "relative": rel,
                    "phase": phase.form, **params})
    return out
