"""Exact numeric verification of Vaughan decompositions and the Dirichlet
hyperbola principle, with and without exponential weights.

Each verifier evaluates both sides of an identity independently and returns
(lhs, rhs, |lhs - rhs|); the sides agree to rounding (relative 1e-9) for any
admissible parameters and any phase.  Every side is one double sum
sum_n a(n) sum_{lo(n) < m <= hi(n)} b(m) w(mn) over a weight list w computed
once per call: w(k) = e(F(k)) for a phase F, or h(k).  w is computed only
on the window the sums read: k in (R, R1] for the three dyadic verifiers,
whose every term has R < mn <= R1, and k in [1, x] for `hyperbola_sides`.
Range conditions with real endpoints (R/n < m <= R1/n and friends) are
evaluated by exact integer comparisons, never by floating-point division.

Note on the Vaughan forms: the third sum of the Lambda identity and of the
mu identity both restrict the inner variable to m > max(U, R/n).  For U >= 2
the extra guard is vacuous (b_m = [m=1] below the cutoff) but it is what
makes the identity exact all the way down to U = 1.  The mu identity carries
no logarithmic weight on its a_n sums.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Optional

import numpy as np

from .arith import (CHI_TWO, LAMBDA, MOBIUS, MOBIUS_SQUARED, OMEGA, ONE,
                    TWO_POW_OMEGA, SieveTable, build_sieve, dirichlet_convolve,
                    tau)
from .errors import CoverageError, WindowError

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
        if z < 0:
            raise ValueError("z must be >= 0")
        return cls(form="reciprocal", z=z)

    @classmethod
    def power_reciprocal(cls, z, r: int) -> "PhaseFunction":
        if z < 0 or r < 1:
            raise ValueError("need z >= 0 and r >= 1")
        return cls(form="power_reciprocal", z=z, r=r)

    @classmethod
    def shifted_reciprocal(cls, h, x, a: int) -> "PhaseFunction":
        if h < 0 or x < 0 or a not in (0, 1):
            raise ValueError("need h, x >= 0 and a in {0, 1}")
        return cls(form="shifted_reciprocal", z=h * x, a=a)

    @classmethod
    def opaque(cls, fn: Callable[[int], float]) -> "PhaseFunction":
        return cls(form="opaque", fn=fn)

    @classmethod
    def zero(cls) -> "PhaseFunction":
        return cls.reciprocal(0)

    def frac(self, t: int) -> float:
        """F(t) mod 1 in [0, 1)."""
        if self.fn is not None:
            return self.fn(t) % 1.0
        p, q = self.z.as_integer_ratio()
        d = q * (t + self.a) ** self.r
        return (p % d) / d

    def unit(self, t: int) -> complex:
        """e(F(t)) = exp(2 pi i F(t))."""
        return cmath.exp(1j * TWO_PI * self.frac(t))

    def unit_array(self, t: np.ndarray) -> np.ndarray:
        """Vectorized e(F(t)) for integer arrays, with the phases of `frac`.
        The int64 path is taken only when z < 2^62 and every (t + a)^r < 2^53,
        tested in Python integers: then z mod d and d convert to float64
        exactly, so their quotient is correctly rounded.  Otherwise each
        entry goes through `frac`."""
        t = np.asarray(t, dtype=np.int64)
        if (self.fn is None and isinstance(self.z, int) and self.z < 2**62
                and (t.size == 0 or (int(t.max()) + self.a) ** self.r < 2**53)):
            d = (t + self.a) ** self.r
            ph = np.mod(self.z, d) / d
        else:
            ph = np.array([self.frac(int(v)) for v in t], dtype=np.float64)
        return np.exp(1j * TWO_PI * ph)


# ---------------------------------------------------------------------------
# Vaughan coefficients: products of sieved tables

def _product(f: np.ndarray, g: np.ndarray, limit: int) -> np.ndarray:
    """(f * g) on [1, limit], indexed by n (entry 0 unused), for tables f, g
    of at most `limit` entries that start at 1 and are zero past their ends."""
    f, g = (SieveTable(None, 1, limit, np.pad(v, (0, limit - len(v)))) for v in (f, g))
    return np.insert(dirichlet_convolve(f, g, limit).values, 0, 0)


# ---------------------------------------------------------------------------
# identity verifiers

def _indexed(values: np.ndarray, hi: int) -> list:
    """values[0..hi-1] of a table starting at 1, as a list indexed by n."""
    return [0] + values[:hi].tolist()


def _units(phase: PhaseFunction, lo: int, hi: int) -> list:
    """e(F(k)) for lo < k <= hi, as a list indexed by k; None below the
    window, so a read outside it fails."""
    return [None] * (lo + 1) + list(map(phase.unit, range(lo + 1, hi + 1)))


def _dot(b, w: list, lo: int, hi: int, step: int = 1, skip_zeros: bool = False):
    """sum_{lo < m <= hi} b[m] w[m step], leaving out the zero b[m] if
    `skip_zeros`; b None stands for b = 1."""
    ws = w[(lo + 1) * step:hi * step + 1:step]
    if b is None:
        return sum(ws)
    return sum(x * y for x, y in zip(b[lo + 1:hi + 1], ws, strict=True)
               if x or not skip_zeros)


def _double_sum(a: list, ns: range, b, w: list, lo, hi, skip_zeros: bool = False):
    """sum_{n in ns} a[n] sum_{lo(n) < m <= hi(n)} b[m] w[mn], in ascending n
    and m, leaving out the zero a[n] and b[m] if `skip_zeros`.

    Which terms are left out decides whether an all-zero side is an int, a
    float or a complex, so each verifier keeps the convention it is written
    with: the Vaughan forms skip zeros, the hyperbola forms do not.
    """
    return sum(a[n] * _dot(b, w, lo(n), hi(n), n, skip_zeros)
               for n in ns if a[n] or not skip_zeros)


def _check_dyadic(R: int, R1: int, U: int) -> None:
    if not (1 < R < R1 <= 2 * R):
        raise WindowError(f"need 1 < R < R1 <= 2R, got R={R}, R1={R1}")
    if not (1 <= U and U * U <= R):
        raise WindowError(f"need 1 <= U <= sqrt(R), got U={U}, R={R}")


def vaughan_lambda_sides(R: int, R1: int, U: int,
                         phase: PhaseFunction) -> tuple[complex, complex, float]:
    """Both sides of the Vaughan decomposition of sum Lambda(n) e(F(n))."""
    _check_dyadic(R, R1, U)
    lam_t, mu_t = build_sieve(LAMBDA, 1, R1).values, build_sieve(MOBIUS, 1, U).values
    a = _product(mu_t, lam_t[:U], U * U).tolist()
    b = _product(mu_t, build_sieve(ONE, 1, R1).values, R1).tolist()
    lam, mu = _indexed(lam_t, R1), _indexed(mu_t, U)
    w = _units(phase, R, R1)
    logs = [0.0] + [math.log(m) for m in range(1, R1 + 1)]
    lo, hi = (lambda n: R // n), (lambda n: R1 // n)

    lhs = _dot(lam, w, R, R1, skip_zeros=True)
    rhs = (_double_sum(mu, range(1, U + 1), logs, w, lo, hi, True)
           - _double_sum(a, range(1, U * U + 1), None, w, lo, hi, True)
           - _double_sum(lam, range(U + 1, R1 // U + 1), b, w,
                         lambda n: max(U, R // n), hi, True))
    return lhs, rhs, abs(lhs - rhs)


def vaughan_mobius_sides(R: int, R1: int, U: int,
                         phase: PhaseFunction) -> tuple[complex, complex, float]:
    """Both sides of the Vaughan decomposition of sum mu(n) e(F(n))."""
    _check_dyadic(R, R1, U)
    mu_t = build_sieve(MOBIUS, 1, R1).values
    a = _product(mu_t[:U], mu_t[:U], U * U).tolist()
    b_plus = -_product(mu_t[:U], build_sieve(ONE, 1, R1).values, R1)
    b_plus[1] += 1
    mu = _indexed(mu_t, R1)
    w = _units(phase, R, R1)
    lo, hi = (lambda n: R // n), (lambda n: R1 // n)

    lhs = _dot(mu, w, R, R1, skip_zeros=True)
    rhs = (-_double_sum(a, range(1, U * U + 1), None, w, lo, hi, True)
           + _double_sum(b_plus.tolist(), range(U + 1, R1 // U + 1), mu, w,
                         lambda n: max(U, R // n), hi, True))
    return lhs, rhs, abs(lhs - rhs)


def hyperbola_sides(f: SieveTable, g: SieveTable, h_values, x: int,
                    U: int) -> tuple[complex, complex, float]:
    """Both sides of the hyperbola split of sum_{n<=x} (f*g)(n) h(n).

    `h_values` is a callable on [1, x] (None means h = 1, keeping integer
    inputs exact end to end).
    """
    if not 1 <= U <= x:
        raise WindowError(f"need 1 <= U <= x, got U={U}, x={x}")
    if not (f.covers(1, x) and g.covers(1, x)):
        raise CoverageError(f"tables must cover [1, {x}]")
    w = [None] + ([1] * x if h_values is None else list(map(h_values, range(1, x + 1))))
    fv, gv = _indexed(f.values, x), _indexed(g.values, x)
    lhs = _dot(_indexed(dirichlet_convolve(f, g, x).values, x), w, 0, x)

    lo, hi = (lambda n: 0), (lambda n: x // n)
    rhs = (_double_sum(fv, range(1, U + 1), gv, w, lo, hi)
           + _double_sum(gv, range(1, x // U + 1), fv, w, lo, hi)
           - _double_sum(fv, range(1, U + 1), gv, w, lo, lambda n: x // U))
    return lhs, rhs, abs(lhs - rhs)


def _exp_setup(f: SieveTable, g: SieveTable, R: int, R1: int, U: int):
    """Window and coverage checks of the dyadic form; (f, g) as lists."""
    if not (R < R1 and 1 <= U <= R):
        raise WindowError(f"need R < R1 and 1 <= U <= R, got R={R}, R1={R1}, U={U}")
    if not (f.covers(1, R1) and g.covers(1, R1)):
        raise CoverageError("tables too short for the requested ranges")
    return _indexed(f.values, R1), _indexed(g.values, R1)


def hyperbola_exp_sides(f: SieveTable, g: SieveTable, phase: PhaseFunction,
                        R: int, R1: int, U: int) -> tuple[complex, complex, float]:
    """Both sides of the dyadic exponential form of the hyperbola split.

    Identity over pairs mn in (R, R1]: the f-smooth range n <= U R1/R, the
    g-smooth range n <= R/U, minus the overlap correction.
    """
    fv, gv = _exp_setup(f, g, R, R1, U)
    w = _units(phase, R, R1)
    hi_f = (U * R1) // R
    lhs = _dot(_indexed(dirichlet_convolve(f, g, R1).values, R1), w, R, R1)

    lo, hi = (lambda n: R // n), (lambda n: R1 // n)
    rhs = (_double_sum(fv, range(1, hi_f + 1), gv, w, lo, hi)
           + _double_sum(gv, range(1, R // U + 1), fv, w, lo, hi)
           - _double_sum(fv, range(U + 1, hi_f + 1), gv, w, lo, lambda n: R // U))
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# randomized verification suites (shared by the CLI and the test suite)

VERIFY_SUBJECTS = ("vaughan-lambda", "vaughan-mu", "hyperbola", "hyperbola-exp")

_PHASE_PARAM_MAX = 10**6
_MAX_R, _MAX_X = 500, 400     # verify draws R <= _MAX_R, x <= _MAX_X <= 2 _MAX_R
_MAX_TRIALS = 10**4           # about 1 ms and one report dict per trial


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
    return PhaseFunction.opaque(lambda t, c1=c1, c2=c2: c1 * math.sqrt(t) + c2 / t)


def _trial_rng(seed: int, trial: int):
    import random
    return random.Random((seed << 20) ^ trial)


def run_verification(subject: str, trials: int, seed: int) -> list[dict]:
    """Per-trial residual reports for one identity family.

    Instances draw R in [20, _MAX_R], admissible U, and phases from all forms;
    per-instance seeds derive from (seed, trial) so runs are reproducible
    and trials are independent.  f and g come from one table per kind.
    """
    if subject not in VERIFY_SUBJECTS:
        raise ValueError(f"unknown subject {subject!r}; pick from {VERIFY_SUBJECTS}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if trials > _MAX_TRIALS:
        raise ValueError(f"need trials <= {_MAX_TRIALS}, got {trials}")
    kinds = (ONE, MOBIUS, MOBIUS_SQUARED, LAMBDA, tau(2), tau(3), OMEGA,
             TWO_POW_OMEGA, CHI_TWO)
    table = functools.cache(lambda kind: build_sieve(kind, 1, 2 * _MAX_R))
    out = []
    for t in range(trials):
        rng = _trial_rng(seed, t)
        R = rng.randint(20, _MAX_R)
        R1 = rng.randint(R + 1, 2 * R)
        phase = random_phase(rng)
        if subject in ("vaughan-lambda", "vaughan-mu"):
            U = rng.randint(1, isqrt(R))
            fn = vaughan_lambda_sides if subject == "vaughan-lambda" else vaughan_mobius_sides
            lhs, rhs, res = fn(R, R1, U, phase)
            params = {"R": R, "R1": R1, "U": U}
        elif subject == "hyperbola":
            x = rng.randint(30, _MAX_X)
            U = rng.randint(1, x)
            f, g = table(rng.choice(kinds)), table(rng.choice(kinds))
            lhs, rhs, res = hyperbola_sides(f, g, phase.unit, x, U)
            params = {"x": x, "U": U, "f": str(f.kind), "g": str(g.kind)}
        else:
            U = rng.randint(1, R)
            f, g = table(rng.choice(kinds)), table(rng.choice(kinds))
            lhs, rhs, res = hyperbola_exp_sides(f, g, phase, R, R1, U)
            params = {"R": R, "R1": R1, "U": U, "f": str(f.kind), "g": str(g.kind)}
        rel = res / (1 + abs(lhs))
        out.append({"trial": t, "residual": res, "relative": rel,
                    "phase": phase.form, **params})
    return out
