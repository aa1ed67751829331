"""Direct evaluation of exponential sums over arithmetic functions, the
unweighted bilinear sum behind bilinear-power, and desk-scale sanity ratios
measured |S| / claimed bound.

The bound checks are sanity probes, not proofs: each case evaluates the sum
exactly (compensated summation, exact mod-1 phase reduction), evaluates the
claimed bound expression with implied constant 1 and a fixed epsilon factor
z^0.05, and reports the ratio.  Thresholds live in the test suite, not here.

Cases (kind, phase, window, claimed bound):
  lambda-reciprocal      Lambda, e(z/n),   R <= z^(2/3),
                         z^(1/6) R^((7k+l+6)/(12(k+1))) + R^(7/8)
  bilinear-power         unit coefficients, e(z/(mn)^r), R <= z^(2/(2r+1)),
                         log(z+2)^2 (z^(1/6) R^((2(4-r)+k(9-2r)+l)/(12(k+1))) + R^(7/8))
  tau-exponent-pair      tau_r, e(z/n) with T = z/R,
                         T^k R^((l-k)/r + 1 - 1/r) log(R)^r + (R/T) log(R)^(r+1)
  mobius-power           mu, e(z/n^2),     R <= z^(2/5),   z^(1/6) R^(38/97) + R^(7/8)
  squarefree-reciprocal  mu^2, e(z/n),     R <= z^(7/10),  z^(3497/13774) R^(15/71)
  unitary-reciprocal     2^omega, e(z/n),  R <= z^(2(k+1)/(3(k+1)-l)), z^k R^((1+l-3k)/2)
  omega-reciprocal       omega, e(z/n),    R <= z^(26/41), z^(1/6) R^(128/195)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (LAMBDA, MOBIUS, MOBIUS_SQUARED, OMEGA, SIEVE_BUDGET, TWO_POW_OMEGA,
                    FunctionKind, build_sieve, tau)
from .errors import BudgetError, WindowError, require_integers, require_reals
from .identities import PhaseFunction, _check_dyadic
from .pairs import ExponentPair

EPSILON = 0.05                  # fixed: the claimed bounds carry a factor z^EPSILON
# bits of R^den and z^num together in an exact window test; on a 2-vCPU host
# 1.2e6 bits take 0.04 s and 1.2e7 bits 1.2 s (a --pair with a large denominator)
_MAX_POWER_BITS = 2**22


def exp_sum(kind: FunctionKind, R: int, R1: int, phase: PhaseFunction) -> complex:
    """sum_{R < n <= R1} f(n) e(F(n)) with compensated summation."""
    R, R1, _ = _check_dyadic(R, R1)
    tab = build_sieve(kind, R + 1, R1)
    n = np.arange(R + 1, R1 + 1, dtype=np.int64)
    vals = tab.values
    mask = vals != 0
    units = phase.unit_array(n[mask])
    w = vals[mask].astype(np.float64)
    return complex(math.fsum(w * units.real), math.fsum(w * units.imag))


def type_II_sum(M: int, N: int, phase: PhaseFunction) -> complex:
    """Bilinear sum_{N<n<=2N} sum_{M<m<=2M} e(F(mn)): the units of the N x M
    grid of products mn in one `unit_array` call, its row sums added by fsum."""
    M, N = require_integers(M=M, N=N)
    if max(M, 1) * max(N, 1) > SIEVE_BUDGET:     # the aranges of M and N entries too
        raise BudgetError(f"grid of {M} x {N} entries exceeds budget {SIEVE_BUDGET}")
    m = np.arange(M + 1, 2 * M + 1, dtype=np.int64)
    n = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    rows = phase.unit_array(np.multiply.outer(n, m)).sum(axis=1)
    return complex(math.fsum(rows.real), math.fsum(rows.imag))


# ---------------------------------------------------------------------------
# claimed-bound sanity checks

@dataclass(frozen=True)
class BoundCheckReport:
    case: str
    measured: float
    claimed: float
    ratio: float
    parameters: dict


def _window_int(R: int, z, num: int, den: int) -> bool:
    # R <= z^(num/den), exactly when z is an integer
    if isinstance(z, int):
        bits = den * R.bit_length() + num * z.bit_length()
        if bits > _MAX_POWER_BITS:
            raise BudgetError(f"exact window test R^{den} <= z^{num} needs {bits} bits, "
                              f"above {_MAX_POWER_BITS}")
        return R**den <= z**num
    return R <= z ** (num / den)


def _require_pair(pair) -> ExponentPair:
    if pair is None:
        raise ValueError("this case needs an exponent pair")
    return pair


def _quadratic_feasibility(p: ExponentPair) -> Fraction:
    # 20k^2 + k(23 - 8l) + 2 - 7l, must be > 0 for the Lambda single-sum bound
    return 20 * p.k**2 + p.k * (23 - 8 * p.l) + 2 - 7 * p.l


def check_bound(case: str, z, R: int, pair: ExponentPair | None = None,
                r: int = 2) -> BoundCheckReport:
    """Measured |S| against the claimed bound for one case at (z, R).

    R1 is fixed at 2R.  Raises WindowError outside the case's admissible
    (z, R) window; never clips silently.  No pass/fail judgment is made here.
    """
    R, r = require_integers(R=R, r=r)
    z = require_reals(z=z)
    if not z < math.inf:                    # inf and nan
        raise ValueError(f"need a finite z, got z={z}")
    if z <= 0 or R < 2:
        raise ValueError("need z > 0 and R >= 2")
    R1 = 2 * R
    eps_factor = float(z) ** EPSILON
    logR = math.log(R)

    if case == "lambda-reciprocal":
        p = _require_pair(pair)
        if p.k > Fraction(1, 6):
            raise WindowError("pair must satisfy k <= 1/6")
        if _quadratic_feasibility(p) <= 0:
            raise WindowError("pair fails 20k^2 + k(23-8l) + 2 - 7l > 0")
        if not _window_int(R, z, 2, 3):
            raise WindowError(f"need R <= z^(2/3): z={z}, R={R}")
        kind = LAMBDA
        measured = abs(exp_sum(kind, R, R1, PhaseFunction.reciprocal(z)))
        expo = (7 * p.k + p.l + 6) / (12 * (p.k + 1))
        claimed = eps_factor * (float(z) ** (1 / 6) * R ** float(expo) + R ** (7 / 8))
    elif case == "bilinear-power":
        p = _require_pair(pair)
        if not _window_int(R, z, 2, 2 * r + 1):
            raise WindowError(f"need R <= z^(2/(2r+1)): z={z}, R={R}, r={r}")
        N = max(math.isqrt(R), min(int(round(R ** 0.6)), int(R ** (2 / 3))))
        M = max(1, R // (2 * N))
        measured = abs(type_II_sum(M, N, PhaseFunction.power_reciprocal(z, r)))
        expo = (2 * (4 - r) + p.k * (9 - 2 * r) + p.l) / (12 * (p.k + 1))
        claimed = (eps_factor * math.log(float(z) + 2) ** 2
                   * (float(z) ** (1 / 6) * R ** float(expo) + R ** (7 / 8)))
        kind = f"bilinear(N={N}, M={M})"          # a label, not a FunctionKind
    elif case == "tau-exponent-pair":
        p = _require_pair(pair)
        T = float(z) / R
        if T <= 0:
            raise WindowError("need z/R > 0")
        kind = tau(r)
        measured = abs(exp_sum(kind, R, R1, PhaseFunction.reciprocal(z)))
        expo = (p.l - p.k) / r + 1 - Fraction(1, r)
        claimed = eps_factor * (T ** float(p.k) * R ** float(expo) * logR**r
                                + (R / T) * logR ** (r + 1))
    elif case == "mobius-power":
        if not _window_int(R, z, 2, 5):
            raise WindowError(f"need R <= z^(2/5): z={z}, R={R}")
        kind = MOBIUS
        measured = abs(exp_sum(kind, R, R1, PhaseFunction.power_reciprocal(z, 2)))
        claimed = eps_factor * (float(z) ** (1 / 6) * R ** (38 / 97) + R ** (7 / 8))
    elif case == "squarefree-reciprocal":
        if not _window_int(R, z, 7, 10):
            raise WindowError(f"need R <= z^(7/10): z={z}, R={R}")
        kind = MOBIUS_SQUARED
        measured = abs(exp_sum(kind, R, R1, PhaseFunction.reciprocal(z)))
        claimed = eps_factor * float(z) ** (3497 / 13774) * R ** (15 / 71)
    elif case == "unitary-reciprocal":
        p = _require_pair(pair)
        w = 2 * (p.k + 1) / (3 * (p.k + 1) - p.l)
        if not _window_int(R, z, w.numerator, w.denominator):
            raise WindowError(f"need R <= z^{w}: z={z}, R={R}")
        kind = TWO_POW_OMEGA
        measured = abs(exp_sum(kind, R, R1, PhaseFunction.reciprocal(z)))
        claimed = eps_factor * float(z) ** float(p.k) * R ** float((1 + p.l - 3 * p.k) / 2)
    elif case == "omega-reciprocal":
        if not _window_int(R, z, 26, 41):
            raise WindowError(f"need R <= z^(26/41): z={z}, R={R}")
        kind = OMEGA
        measured = abs(exp_sum(kind, R, R1, PhaseFunction.reciprocal(z)))
        claimed = eps_factor * float(z) ** (1 / 6) * R ** (128 / 195)
    else:
        raise ValueError(f"unknown case {case!r}")

    params = {"z": z, "R": R, "R1": R1, "kind": str(kind),
              "pair": str(pair) if pair else None, "r": r, "epsilon": EPSILON}
    return BoundCheckReport(case=case, measured=measured, claimed=claimed,
                            ratio=measured / claimed, parameters=params)


BOUND_CASES = ("lambda-reciprocal", "bilinear-power", "tau-exponent-pair",
               "mobius-power", "squarefree-reciprocal", "unitary-reciprocal",
               "omega-reciprocal")
