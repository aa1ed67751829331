"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Budgets are generous on purpose; the suite runs well inside them on a laptop.
"""

import random
import time
from fractions import Fraction as F

import numpy as np

from floorsums import arith as A
from floorsums import expsum as E
from floorsums import floorsum as FS
from floorsums import identities as I
from floorsums import pairs as P
from floorsums import psi as PS

SIX_KINDS = [A.LAMBDA, A.tau(2), A.tau(3), A.MOBIUS_SQUARED, A.TWO_POW_OMEGA,
             A.OMEGA]
BOURGAIN = P.SEED_PAIRS["bourgain"]


def report(name: str, ok: bool, t0: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"\n  criterion {name}: {status} ({time.perf_counter() - t0:.2f}s){extra}")
    assert ok, name


def test_criterion_01_golden_exponents():
    t0 = time.perf_counter()
    got = {
        "lambda": P.theorem_exponent("lambda", BOURGAIN),
        "tau2": P.theorem_exponent("tau:2", BOURGAIN),
        "tau3": P.theorem_exponent("tau:3", P.apply_A(BOURGAIN)),
        "tau4": P.theorem_exponent("tau:4", P.heath_brown_pair(7)),
        "tau5": P.theorem_exponent("tau:5", P.heath_brown_pair(9)),
        "tau6": P.theorem_exponent("tau:6", P.heath_brown_pair(11)),
        "2omega": P.theorem_exponent("two_omega", BOURGAIN),
    }
    want = {
        "lambda": F(97, 203), "tau2": F(19, 40), "tau3": F(283, 574),
        "tau4": F(125, 251), "tau5": F(493, 988), "tau6": F(428, 857),
        "2omega": F(97, 202),
    }
    ok = got == want and time.perf_counter() - t0 < 1.0
    report("1 golden exponents", ok, t0, ", ".join(f"{k}={v}" for k, v in got.items()))


def test_criterion_02_closed_form_identity():
    t0 = time.perf_counter()
    ok = all(
        P.theorem_exponent(f"tau:{r}", P.heath_brown_pair(2 * r - 1))
        == F(1, 2) - F(1, 2 * (4 * r**3 - r - 1))
        for r in range(4, 13)
    ) and time.perf_counter() - t0 < 1.0
    report("2 closed-form tau_r exponents (r=4..12)", ok, t0)


def test_criterion_03_balancer_goldens():
    t0 = time.perf_counter()
    T = P.TermExponent.of
    mu2 = P.balance_exponents(P.BalanceProblem.of([
        T(N=1),
        T(scale=F(1, 31045), x=17271, N=-7367),
        T(x=F(17271, 13774), N=F(-127, 71)),
        T(scale=F(1, 17271), x=9904, N=-6407),
        T(x=F(6407, 13774), N=F(-15, 71)),
    ], "N"))
    omega = P.balance_exponents(P.BalanceProblem.of([
        T(N=1),
        T(scale=F(1, 455), x=386, N=-321),
        T(x=F(7, 13), N=F(-69, 845)),
        T(x=F(107, 130), N=F(-128, 195)),
        T(x=F(7, 6), N=F(-262, 195)),
    ], "N", interval=(F(15, 41), F(1, 2))))
    prof = P.profile_to_exponent(P.BoundProfile(F(1, 12), F(19, 24), F(0)),
                                 "lambda")
    uvec = P.balance_exponents(P.BalanceProblem.of([
        T(z=F(55, 194), U=F(21, 97)),
        T(z=F(1, 6), R=F(5, 6), U=F(-371, 582)),
    ], "U"))
    ok = (mu2.nu_star == F(1919, 4268) and omega.nu_star == F(455, 914)
          and prof == F(26, 53)
          and uvec.nu_star == {"z": F(-68, 497), "R": F(485, 497)}
          and time.perf_counter() - t0 < 1.0)
    report("3 balancer goldens", ok, t0,
           f"nu*={mu2.nu_star}, {omega.nu_star}, {prof}, U=({uvec.nu_star['z']}, "
           f"{uvec.nu_star['R']})")


def test_criterion_04_pair_calculus():
    t0 = time.perf_counter()
    a = P.apply_A(BOURGAIN)
    ba = P.apply_B(a)
    ok = (a.as_tuple() == (F(13, 194), F(76, 97))
          and ba.as_tuple() == (F(55, 194), F(55, 97)))
    rng = random.Random(161803)
    for _ in range(1000):
        k = F(rng.randint(0, 500), 1000)
        l = F(rng.randint(500, 1000), 1000)
        p = P.ExponentPair(k, l)
        ok = ok and P.apply_B(P.apply_B(p)).as_tuple() == (k, l)
    ok = ok and time.perf_counter() - t0 < 1.0
    report("4 A/B pair calculus", ok, t0)


def test_criterion_05_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    xmax = 10**4
    for kind in SIX_KINDS:
        table = A.build_sieve(kind, 1, xmax)
        for x in range(1, xmax + 1):
            naive = FS.floor_sum_naive(kind, x, table=table)
            fast = FS.floor_sum_fast(kind, x, table=table)
            if kind.tag == "lambda":
                if abs(naive - fast) > 1e-9 * (1 + abs(naive)):
                    ok = False
                    break
            elif naive != fast:
                ok = False
                break
        if not ok:
            break
    # three seeded random kinds at larger x through the point-evaluation path
    rng = random.Random(20260810)
    picks = rng.sample(SIX_KINDS, 3)
    for kind in picks:
        for x in (10**5, 10**6):
            naive = FS.floor_sum_naive(kind, x)
            fast = FS.floor_sum_fast(kind, x)
            if kind.tag == "lambda":
                ok = ok and abs(naive - fast) <= 1e-9 * (1 + abs(naive))
            else:
                ok = ok and naive == fast
    elapsed = time.perf_counter() - t0
    report("5 fast/naive oracle equivalence", ok and elapsed < 120, t0,
           f"kinds at 1e5/1e6: {', '.join(str(k) for k in picks)}")


def test_criterion_06_identity_residuals():
    t0 = time.perf_counter()
    worst = {}
    for subject in I.VERIFY_SUBJECTS:
        reports = I.run_verification(subject, 100, seed=1)
        worst[subject] = max(r["relative"] for r in reports)
    ok = all(v <= 1e-9 for v in worst.values())
    elapsed = time.perf_counter() - t0
    report("6 identity residuals (100 trials each)", ok and elapsed < 120, t0,
           ", ".join(f"{s}={v:.2e}" for s, v in worst.items()))


def test_criterion_07_convolution_identities():
    t0 = time.perf_counter()
    n = 10**6
    one = A.build_sieve(A.ONE, 1, n)
    mu = A.build_sieve(A.MOBIUS, 1, n)
    conv = A.dirichlet_convolve(mu, one, n)
    ok = conv.value(1) == 1 and not conv.values[1:].any()
    prev = one
    for r in range(2, 7):
        target = A.build_sieve(A.tau(r), 1, n)
        got = A.dirichlet_convolve(prev, one, n)
        ok = ok and (got.values == target.values).all()
        prev = target
    chi = A.build_sieve(A.CHI_TWO, 1, n)
    t2 = A.build_sieve(A.tau(2), 1, n)
    w = A.build_sieve(A.TWO_POW_OMEGA, 1, n)
    mu2 = A.build_sieve(A.MOBIUS_SQUARED, 1, n)
    ok = ok and (A.dirichlet_convolve(chi, t2, n).values == w.values).all()
    ok = ok and (A.dirichlet_convolve(mu2, one, n).values == w.values).all()
    elapsed = time.perf_counter() - t0
    report("7 convolution identities on [1, 1e6]", ok and elapsed < 60, t0)


def test_criterion_08_vaaler_bound_and_telescoping():
    t0 = time.perf_counter()
    viols = {H: PS.verify_pointwise_bound(H, 10**4) for H in (1, 2, 5, 10, 100)}
    ok = all(v <= 1e-9 for v in viols.values())
    cutoff = 10**6
    c, tail = FS.main_term_constant(A.tau(1), cutoff)
    ok = ok and abs(c - (1 - 1 / (cutoff + 1))) <= 1e-12
    ok = ok and abs(1 - c) <= tail + 1e-12
    elapsed = time.perf_counter() - t0
    report("8 Vaaler pointwise bound + telescoped constant", ok and elapsed < 60,
           t0, ", ".join(f"H={H}:{v:.1e}" for H, v in viols.items()))


def test_criterion_09_desk_scale_error_behavior():
    # sanity probe only: asymptotic exponents are not reproducible at this scale
    t0 = time.perf_counter()
    grid = sorted(set(int(round(v)) for v in np.logspace(3, 7, 20)))
    ok = True
    details = []
    for kind in (A.tau(2), A.MOBIUS_SQUARED, A.TWO_POW_OMEGA):
        fit = FS.error_scan(kind, grid, cutoff=10**8)
        bound_ok = all(r <= 5 * x**0.55 for x, r in zip(fit.grid, fit.residuals))
        ok = ok and fit.slope <= 0.60 and bound_ok
        details.append(f"{kind}: slope={fit.slope:.3f}")
    elapsed = time.perf_counter() - t0
    report("9 desk-scale residual scan", ok and elapsed < 600, t0,
           "; ".join(details))


def test_criterion_10_bound_sanity_ratios():
    t0 = time.perf_counter()
    z = 10**6
    classic = P.ExponentPair(F(1, 6), F(2, 3))
    ratios = {
        "lambda-reciprocal": E.check_bound("lambda-reciprocal", z,
                                           int(z**0.6), pair=classic).ratio,
        "unitary-reciprocal": E.check_bound("unitary-reciprocal", z,
                                            int(z**0.55), pair=classic).ratio,
        "omega-reciprocal": E.check_bound("omega-reciprocal", z,
                                          int(z**0.6)).ratio,
    }
    ok = all(v <= 10 for v in ratios.values())
    elapsed = time.perf_counter() - t0
    report("10 bound sanity ratios", ok and elapsed < 300, t0,
           ", ".join(f"{k}={v:.4f}" for k, v in ratios.items()))
