"""Exponential sums, bilinear sums, and bound sanity ratios."""

import cmath
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from floorsums import arith as A
from floorsums import expsum as E
from floorsums.errors import BudgetError, WindowError
from floorsums.identities import PhaseFunction
from floorsums.pairs import BoundProfile, ExponentPair

CLASSIC = ExponentPair(Fraction(1, 6), Fraction(2, 3))


def test_exp_sum_counts_with_zero_phase():
    v = E.exp_sum(A.ONE, 10, 20, PhaseFunction.reciprocal(0))
    assert v == pytest.approx(10)


def test_exp_sum_triangle_inequality_bound():
    v = E.exp_sum(A.MOBIUS, 100, 200, PhaseFunction.power_reciprocal(777, 2))
    assert abs(v) <= 100


def test_exp_sum_against_quad_precision_oracle():
    # independent reference at 50 digits
    mp.mp.dps = 50
    z, R, R1 = 10**4, 100, 200
    ref = mp.mpc(0)
    for n in range(R + 1, R1 + 1):
        p = next(d for d in range(2, n + 1) if n % d == 0)
        m = n
        while m % p == 0:
            m //= p
        if m == 1:                  # n is a power of its smallest prime p
            ref += mp.log(p) * mp.e ** (2j * mp.pi * mp.mpf(z % n) / n)
    got = E.exp_sum(A.LAMBDA, R, R1, PhaseFunction.reciprocal(z))
    assert abs(complex(ref) - got) <= 1e-9 * (1 + abs(got))


def test_exp_sum_linearity_over_partition():
    ph = PhaseFunction.reciprocal(123457)
    for kind in (A.LAMBDA, A.MOBIUS_SQUARED, A.tau(3)):
        a = E.exp_sum(kind, 100, 150, ph)
        b = E.exp_sum(kind, 150, 200, ph)
        c = E.exp_sum(kind, 100, 200, ph)
        assert abs(a + b - c) <= 1e-10 * (1 + abs(c))


def test_exp_sum_with_no_nonzero_coefficient_is_zero():
    # chi_2 vanishes on (10, 15], so no phase is evaluated at all
    for ph in (PhaseFunction.reciprocal(5), PhaseFunction.power_reciprocal(5, 2)):
        assert E.exp_sum(A.CHI_TWO, 10, 15, ph) == 0j


def test_exp_sum_window():
    with pytest.raises(WindowError):
        E.exp_sum(A.ONE, 10, 21, PhaseFunction.reciprocal(0))
    with pytest.raises(WindowError):
        E.exp_sum(A.ONE, 10, 10, PhaseFunction.reciprocal(0))
    # the window's own names, before any table is asked for
    for R, R1, name in ((10.5, 20, "R, got 10.5"), (10, 20.0, "R1, got 20.0"),
                        (True, 2, "R, got True")):
        with pytest.raises(ValueError, match=f"need integer {name}"):
            E.exp_sum(A.ONE, R, R1, PhaseFunction.reciprocal(0))


# ---------------------------------------------------------------------------
# the bilinear sum

def test_type_II_constant_coefficients():
    v = E.type_II_sum(8, 12, PhaseFunction.reciprocal(0))
    assert v == pytest.approx(96)


def test_type_II_matches_double_loop_oracle():
    rng = random.Random(13)
    phases = [PhaseFunction.reciprocal(271828),
              PhaseFunction.reciprocal(3.25e8),
              PhaseFunction.power_reciprocal(10**9 + 7, 2),
              PhaseFunction.power_reciprocal(987654321, 3),
              PhaseFunction.opaque(lambda t: 0.37 * math.sqrt(t))]
    for ph in phases:
        for _ in range(4):
            M, N = rng.randint(1, 25), rng.randint(1, 25)
            direct = sum(cmath.exp(2j * math.pi * ph.frac(m * n))
                         for n in range(N + 1, 2 * N + 1)
                         for m in range(M + 1, 2 * M + 1))
            assert E.type_II_sum(M, N, ph) == pytest.approx(direct, abs=1e-10)


def _type_II_rows(M, N, phase):
    """The bilinear sum one row per n, each row summed by np.sum."""
    m = np.arange(M + 1, 2 * M + 1, dtype=np.int64)
    rows = [np.sum(phase.unit_array(m * n)) for n in range(N + 1, 2 * N + 1)]
    return complex(math.fsum(r.real for r in rows), math.fsum(r.imag for r in rows))


def test_type_II_is_one_grid_call_with_the_row_bits(monkeypatch):
    rng = random.Random(30)
    cases = [(rng.randint(1, 2000), rng.randint(1, 60), z, rng.randint(1, 3))
             for z in [rng.randint(1, 10**12) for _ in range(12)]
             + [rng.uniform(1, 10**12) for _ in range(12)]]
    # (mn)^3 crosses 2^53 inside the grid, so rows differ in their rule
    cases += [(500, 300, 10**18 + 7, 3), (500, 300, 987654.25, 3)]
    unit_array = PhaseFunction.unit_array
    for M, N, z, r in cases:
        ph = PhaseFunction.power_reciprocal(z, r)
        want = _type_II_rows(M, N, ph)
        calls = []
        monkeypatch.setattr(PhaseFunction, "unit_array",
                            lambda self, t: calls.append(t.shape) or unit_array(self, t))
        assert E.type_II_sum(M, N, ph) == want, (M, N, z, r)
        assert calls == [(N, M)]
        monkeypatch.undo()


def test_type_II_grid_is_budgeted(monkeypatch):
    monkeypatch.setattr(PhaseFunction, "unit_array", lambda *a: pytest.fail("work was done"))
    with pytest.raises(BudgetError, match="exceeds budget"):
        E.type_II_sum(2**14, 2**13 + 1, PhaseFunction.reciprocal(7))


def test_type_II_rank_one_factorizes_with_split_phase():
    # F(t) = a log t splits as G(m) + H(n) on products, so the bilinear sum
    # factors into a product of two one-dimensional sums
    a = 3.7
    M, N = 11, 17
    ph = PhaseFunction.opaque(lambda t: a * math.log(t))
    v = E.type_II_sum(M, N, ph)
    prod = (sum(cmath.exp(2j * math.pi * a * math.log(m))
                for m in range(M + 1, 2 * M + 1))
            * sum(cmath.exp(2j * math.pi * a * math.log(n))
                  for n in range(N + 1, 2 * N + 1)))
    assert v == pytest.approx(prod, rel=1e-9)


# ---------------------------------------------------------------------------
# bound profiles and sanity checks

def test_bound_profile_constraints():
    prof = BoundProfile(Fraction(1, 12), Fraction(19, 24), Fraction(0))
    assert all(prof.constraint_report("lambda").values())
    bad = BoundProfile(Fraction(1, 2), Fraction(1, 2), Fraction(0))
    rep = bad.constraint_report("lambda")
    assert not rep["2 alpha + beta < 1"]
    tau_prof = BoundProfile(Fraction(1, 6), Fraction(7, 12))
    assert all(tau_prof.constraint_report("tau").values())


def test_reciprocal_phase_derivative_scaling():
    # |F^(j)| ~ T R^-j with T = z/R for F = z/t, j <= 3, on [R, 2R]
    z, R = 10**6, 1000
    T = z / R
    for j in (1, 2, 3):
        deriv = lambda t: math.factorial(j) * z / t ** (j + 1)
        lo, hi = deriv(2 * R), deriv(R)
        target = T * R ** (-j)
        assert lo <= target * math.factorial(j)
        assert hi >= target / 2 ** (j + 1)


@pytest.mark.parametrize("case,z,R,needs_pair,r", [
    ("lambda-reciprocal", 10**6, 3981, True, 2),
    ("tau-exponent-pair", 10**6, 4000, True, 2),
    ("tau-exponent-pair", 10**6, 4000, True, 3),
    ("mobius-power", 10**7, 500, False, 2),
    ("squarefree-reciprocal", 10**6, 3000, False, 2),
    ("unitary-reciprocal", 10**6, 1995, True, 2),
    ("omega-reciprocal", 10**6, 3981, False, 2),
    ("bilinear-power", 10**7, 900, True, 1),
    ("bilinear-power", 10**9, 400, True, 2),
])
def test_bound_cases_report_modest_ratios(case, z, R, needs_pair, r):
    rep = E.check_bound(case, z, R, pair=CLASSIC if needs_pair else None, r=r)
    assert rep.claimed > 0
    assert rep.ratio >= 0
    assert rep.ratio <= 10, rep
    assert rep.parameters["z"] == z and rep.parameters["R"] == R


def test_bound_window_violations_raise():
    with pytest.raises(WindowError):
        E.check_bound("omega-reciprocal", 10**6, 10**5)
    with pytest.raises(WindowError):
        E.check_bound("squarefree-reciprocal", 100, 99)
    with pytest.raises(WindowError):
        E.check_bound("lambda-reciprocal", 10**6, 10**5, pair=CLASSIC)
    # infeasible pair for the Lambda single-sum case
    with pytest.raises(WindowError):
        E.check_bound("lambda-reciprocal", 10**6, 1000,
                      pair=ExponentPair(Fraction(1, 2), Fraction(1, 2)))


def test_float_z_window_matches_integer_z():
    # mobius-power needs R <= z^(2/5); 10^(12/5) = 251.19
    for z in (10**6, 1e6):
        assert E.check_bound("mobius-power", z, 251).parameters["R"] == 251
        with pytest.raises(WindowError):
            E.check_bound("mobius-power", z, 252)


def test_exact_window_test_is_work_capped():
    # k = 1/1000003 makes R^den <= z^num a comparison of 1.2e8-bit integers
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="bits"):
        E.check_bound("unitary-reciprocal", 10**6, 100,
                      pair=ExponentPair(Fraction(1, 1000003), Fraction(1, 2)))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("call, message", [
    (lambda: E.type_II_sum(5.5, 5, PhaseFunction.reciprocal(7)), "need integer M, got 5.5"),
    (lambda: E.type_II_sum(5, True, PhaseFunction.reciprocal(7)), "need integer N, got True"),
    (lambda: E.check_bound("bilinear-power", 10**6, 100, pair=CLASSIC, r=1.5),
     "need integer r, got 1.5"),
    (lambda: E.check_bound("omega-reciprocal", 10**6, 1000.5), "need integer R, got 1000.5"),
], ids=["type-II-M-float", "type-II-N-bool", "bilinear-r-float", "omega-R-float"])
def test_malformed_inputs_are_refused(monkeypatch, call, message):
    def fail(*args):
        raise AssertionError("work was done")

    monkeypatch.setattr(E, "exp_sum", fail)
    monkeypatch.setattr(PhaseFunction, "unit_array", fail)
    with pytest.raises(ValueError, match=message):
        call()


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        E.check_bound("nonsense", 10, 10)


@pytest.mark.parametrize("case", E.BOUND_CASES)
@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
def test_non_finite_z_rejected_in_every_case(case, z):
    # nan fails every comparison, so z <= 0 alone would let it through
    with pytest.raises(ValueError) as err:
        E.check_bound(case, z, 100, pair=CLASSIC)
    assert type(err.value) is ValueError
