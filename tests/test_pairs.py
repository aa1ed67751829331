"""Exponent-pair calculus, theorem exponents, and the exact balancer."""

import random
from fractions import Fraction as F

import pytest

from floorsums import pairs as P

BOURGAIN = P.SEED_PAIRS["bourgain"]
CLASSIC = P.SEED_PAIRS["classic"]
TRIVIAL = P.SEED_PAIRS["trivial"]


def random_admissible_pair(rng, eps=False):
    # random exact rationals inside the box 0 <= k <= 1/2 <= l <= 1
    k = F(rng.randint(0, 500), 1000)
    l = F(rng.randint(500, 1000), 1000)
    return P.ExponentPair(k, l, eps_carrier=eps)


def test_A_process_golden_images():
    assert P.apply_A(BOURGAIN).as_tuple() == (F(13, 194), F(76, 97))
    assert P.apply_A(TRIVIAL).as_tuple() == (F(0), F(1))
    assert P.apply_A(CLASSIC).as_tuple() == (F(1, 14), F(11, 14))


def test_B_process_golden_images():
    assert P.apply_B(P.apply_A(BOURGAIN)).as_tuple() == (F(55, 194), F(55, 97))
    assert P.apply_B(CLASSIC).as_tuple() == (F(1, 6), F(2, 3))   # fixed point
    assert P.apply_B(TRIVIAL).as_tuple() == (F(1, 2), F(1, 2))


def test_B_is_involution_on_1000_random_pairs():
    rng = random.Random(314159)
    for _ in range(1000):
        p = random_admissible_pair(rng)
        q = P.apply_B(P.apply_B(p))
        assert q.as_tuple() == p.as_tuple()


def test_processes_preserve_admissibility_and_metadata():
    rng = random.Random(16)
    for _ in range(300):
        p = random_admissible_pair(rng, eps=bool(rng.getrandbits(1)))
        for q in (P.apply_A(p), P.apply_B(p)):
            assert 0 <= q.k <= F(1, 2) <= q.l <= 1
            assert q.eps_carrier == p.eps_carrier


def test_word_replay_reproduces_pair():
    p = P.apply_word("ABBA", BOURGAIN)
    assert p.word_str() == "ABBA"
    replay = BOURGAIN
    for ch in reversed(p.word):
        replay = P.apply_A(replay) if ch == "A" else P.apply_B(replay)
    assert replay.as_tuple() == p.as_tuple()


def test_admissibility_box_enforced():
    with pytest.raises(ValueError):
        P.ExponentPair(F(2, 3), F(2, 3))
    with pytest.raises(ValueError):
        P.ExponentPair(F(0), F(1, 3))


def test_heath_brown_values():
    assert P.heath_brown_pair(7).as_tuple() == (F(1, 162), F(359, 378))
    assert P.heath_brown_pair(3).as_tuple() == (F(1, 10), F(23, 30))
    assert P.heath_brown_pair(9).as_tuple() == (F(1, 352), F(767, 792))
    assert P.heath_brown_pair(5).eps_carrier
    with pytest.raises(ValueError):
        P.heath_brown_pair(2)


def orbit(seeds, depth):
    """{((k, l), word, seed name, eps_carrier)} over the A/B orbit that
    `minimize_over_pairs` walks."""
    return {((F(a, c), F(b, c)), word, s.seed, s.eps_carrier)
            for (a, b, c), (word, s) in P._orbit(seeds, depth).items()}


def test_orbit_from_trivial_seed():
    got = {kl for kl, *_ in orbit([TRIVIAL], 1)}
    assert got == {(F(0), F(1)), (F(1, 2), F(1, 2))}
    assert {kl for kl, *_ in orbit([TRIVIAL], 0)} == {(F(0), F(1))}
    deep = {kl for kl, *_ in orbit([BOURGAIN], 2)}
    assert (F(55, 194), F(55, 97)) in deep
    with pytest.raises(ValueError):
        P._orbit([TRIVIAL], 21)
    with pytest.raises(ValueError, match=r"\[0, 20\]"):
        P._orbit([TRIVIAL], -2)


# ---------------------------------------------------------------------------
# theorem exponents

def test_theorem_exponent_goldens():
    assert P.theorem_exponent("lambda", BOURGAIN) == F(97, 203)
    assert P.theorem_exponent("tau:2", BOURGAIN) == F(19, 40)
    assert P.theorem_exponent("tau:3", P.apply_A(BOURGAIN)) == F(283, 574)
    assert P.theorem_exponent("tau:4", P.heath_brown_pair(7)) == F(125, 251)
    assert P.theorem_exponent("two_omega", BOURGAIN) == F(97, 202)


def test_theorem_exponent_accepts_function_kinds():
    from floorsums.arith import LAMBDA, TWO_POW_OMEGA, tau
    assert P.theorem_exponent(LAMBDA, BOURGAIN) == F(97, 203)
    assert P.theorem_exponent(tau(2), BOURGAIN) == F(19, 40)
    assert P.theorem_exponent(TWO_POW_OMEGA, BOURGAIN) == F(97, 202)


@pytest.mark.parametrize("name", ["two_omega", "two-omega", "2omega", " Two-Omega "])
def test_two_omega_names_parse_to_the_unitary_divisor_kind(name):
    from floorsums.arith import TWO_POW_OMEGA, kind_from_name
    assert kind_from_name(name) == TWO_POW_OMEGA
    assert P.theorem_exponent(name, BOURGAIN) == F(97, 202)


@pytest.mark.parametrize("r", range(4, 13))
def test_tau_closed_form_r4_to_r12(r):
    expo = P.theorem_exponent(f"tau:{r}", P.heath_brown_pair(2 * r - 1))
    assert expo == F(1, 2) - F(1, 2 * (4 * r**3 - r - 1))


def test_tau_closed_form_small_orders():
    # the published tau_4, tau_5, tau_6 exponents, at hb(7), hb(9), hb(11)
    assert P.theorem_exponent("tau:4", P.heath_brown_pair(7)) == F(125, 251)
    assert P.theorem_exponent("tau:5", P.heath_brown_pair(9)) == F(493, 988)
    assert P.theorem_exponent("tau:6", P.heath_brown_pair(11)) == F(428, 857)


def test_infeasible_pairs_name_their_constraint():
    r = P.theorem_exponent("tau:6", CLASSIC)       # 1 - 2/3 < (1/6) * 5
    assert isinstance(r, P.Infeasible)
    assert "1 - l" in r.constraint
    r = P.theorem_exponent("lambda", P.ExponentPair(F(1, 4), F(3, 4)))
    assert isinstance(r, P.Infeasible)
    assert "1/6" in r.constraint


def test_trivial_pair_is_infeasible_for_two_omega():
    # k + l = 1 fails the strict constraint; the marker is falsy, so an
    # `if theorem_exponent(...)` cannot take it for an exponent
    r = P.theorem_exponent("two-omega", P.SEED_PAIRS["trivial"])
    assert P.SEED_PAIRS["trivial"].as_tuple() == (0, 1)
    assert r == P.Infeasible("k + l < 1")
    assert bool(r) is False


def test_eps_carrier_boundary_rules():
    # k = 1/6 exactly: fine for a bare pair, ruled out for a +eps carrier
    bare = P.ExponentPair(F(1, 6), F(2, 3))
    carrier = P.ExponentPair(F(1, 6), F(2, 3), eps_carrier=True)
    assert P.theorem_exponent("lambda", bare) == F(98, 205)
    assert isinstance(P.theorem_exponent("lambda", carrier), P.Infeasible)
    # tau constraint tight at the base point: +eps pushes the wrong way
    r_val = 3
    k = F(1, 4)
    l = 1 - k * (r_val - 1)      # equality in 1 - l > k(r-1)
    tight = P.ExponentPair(k, l, eps_carrier=True)
    assert isinstance(P.theorem_exponent(f"tau:{r_val}", tight), P.Infeasible)
    assert isinstance(P.theorem_exponent(f"tau:{r_val}", P.ExponentPair(k, l)),
                      P.Infeasible)   # strict fails at equality without eps too


# ---------------------------------------------------------------------------
# an independent Fraction reference: the A/B formulas, a breadth-first orbit,
# and the three theorem exponents with their constraints probed at (k+eps, l+eps)

REF_EPS = F(1, 10**9)
REF_TARGETS = ["lambda"] + [f"tau:{r}" for r in range(2, 9)] + ["two-omega"]


def _ref_A(k, l):
    return k / (2 * k + 2), (k + l + 1) / (2 * k + 2)


def _ref_B(k, l):
    return l - F(1, 2), k + F(1, 2)


def _ref_orbit(seeds, depth):
    """(k, l) -> (level, word, seed) of its first derivation, breadth first."""
    found, level = {}, []
    for s in seeds:
        if s.as_tuple() not in found:
            found[s.as_tuple()] = (0, "", s)
            level.append(s.as_tuple())
    for d in range(1, depth + 1):
        nxt = []
        for kl in level:
            word, s = found[kl][1:]
            for letter, process in (("A", _ref_A), ("B", _ref_B)):
                q = process(*kl)
                if q not in found:
                    found[q] = (d, letter + word, s)
                    nxt.append(q)
        level = nxt
    return found


def _ref_exponent(target, k, l, eps):
    if target == "lambda":
        value = 14 * (k + 1) / (29 * k - l + 30)
        checks = [("k <= 1/6", lambda k, l: F(1, 6) - k, False),
                  ("3k + 4l >= 1", lambda k, l: 3 * k + 4 * l - 1, False),
                  ("l^2 + l + 3 - k(5-l) - 9k^2 > 0",
                   lambda k, l: l * l + l + 3 - k * (5 - l) - 9 * k * k, True)]
    elif target == "two-omega":
        value = 2 * (k + 1) / (3 * k - l + 5)
        checks = [("k + l < 1", lambda k, l: 1 - k - l, True)]
    else:
        r = int(target[4:])
        value = (k * (r - 1) + l + r - 1) / (k * (r - 1) + l + 2 * r - 1)
        checks = [("1 - l > k(r-1)", lambda k, l: 1 - l - k * (r - 1), True)]
    for name, g, strict in checks:
        v = g(k, l)
        if v == 0:
            v = g(k + REF_EPS, l + REF_EPS) if eps else (-1 if strict else 1)
        if v <= 0:
            return P.Infeasible(name)
    return value


def test_orbit_matches_fraction_reference():
    seeds = [CLASSIC, BOURGAIN] + [P.heath_brown_pair(m) for m in range(5, 20)]
    ref = _ref_orbit(seeds, 8)
    for depth in range(9):
        want = {(kl, word, s.seed, s.eps_carrier)
                for kl, (level, word, s) in ref.items() if level <= depth}
        assert orbit(seeds, depth) == want, depth


def test_theorem_exponent_matches_fraction_reference():
    rng = random.Random(1729)
    points = []
    for _ in range(10000):
        den = rng.choice((6, 12, 84, 97, 1000, 2**20, 10**9))
        points.append((F(rng.randint(0, den // 2), den),
                       F(rng.randint(-(-den // 2), den), den)))
    # exactly on each constraint that can be tight in the box: k = 1/6,
    # 1 - l = k(r-1) and k + l = 1 (3k + 4l >= 2 there, and the quadratic is
    # positive wherever k <= 1/6 holds)
    boundary = []
    for i in range(61):
        l = F(1, 2) + F(i, 120)
        boundary += [(F(1, 6), l), (1 - l, l)] + [((1 - l) / (r - 1), l) for r in range(2, 9)]
    for n, (k, l) in enumerate(points + boundary):
        targets = (REF_TARGETS if n >= len(points)
                   else ["lambda", f"tau:{rng.randint(2, 8)}", "two-omega"])
        for eps in (False, True):
            p = P.ExponentPair(k, l, eps_carrier=eps)
            for target in targets:
                want = _ref_exponent(target, k, l, eps)
                assert P.theorem_exponent(target, p) == want, (target, k, l, eps)
    assert 2 * (len(points) + len(boundary)) >= 20000


# ---------------------------------------------------------------------------
# profiles

def test_lambda_profile_golden():
    prof = P.BoundProfile(F(1, 12), F(19, 24), F(0))
    assert P.profile_to_exponent(prof, "lambda") == F(26, 53)


@pytest.mark.parametrize("target, message", [
    ("mu", "no profile exponent for kind mobius"),
    ("two_omega", "no profile exponent for kind two_pow_omega"),
    ("garbage", "unknown function name"),
    ("lambda2", "unknown function name")])
def test_profile_rejects_targets_without_a_theorem(target, message):
    with pytest.raises(ValueError, match=message):
        P.profile_to_exponent(P.BoundProfile(F(1, 12), F(19, 24), F(0)), target)


def test_profile_constraint_violation_named():
    with pytest.raises(P.ProfileConstraintError, match="2 alpha"):
        P.profile_to_exponent(P.BoundProfile(F(1, 2), F(1, 2), F(0)), "lambda")


def test_lambda_profile_reduces_to_theorem_exponent():
    # beta = (7k+l+6)/(12(k+1)), gamma = 7/8 reproduces the Lambda exponent
    rng = random.Random(2718)
    done = 0
    while done < 1000:
        p = random_admissible_pair(rng)
        if isinstance(P.theorem_exponent("lambda", p), P.Infeasible):
            continue
        beta = (7 * p.k + p.l + 6) / (12 * (p.k + 1))
        prof = P.BoundProfile(F(1, 6), beta, F(7, 8))
        try:
            got = P.profile_to_exponent(prof, "lambda")
        except P.ProfileConstraintError:
            continue
        assert got == P.theorem_exponent("lambda", p)
        done += 1


def test_tau_profile_reduces_to_theorem_exponent():
    rng = random.Random(1618)
    done = 0
    while done < 200:
        p = random_admissible_pair(rng)
        r = rng.randint(2, 8)
        if isinstance(P.theorem_exponent(f"tau:{r}", p), P.Infeasible):
            continue
        alpha = p.k
        beta = (p.l - p.k) / r + 1 - F(1, r) - p.k
        try:
            got = P.profile_to_exponent(P.BoundProfile(alpha, beta), "tau")
        except P.ProfileConstraintError:
            continue
        assert got == P.theorem_exponent(f"tau:{r}", p)
        done += 1


def test_profile_independent_evaluation_agrees():
    # (1+a)/(3-b) recomputed through plain Fraction arithmetic
    rng = random.Random(5)
    for _ in range(50):
        a = F(rng.randint(1, 40), 120)
        b = F(rng.randint(1, 100), 150)
        if 2 * a + b >= 1 or a * (0 - 3) > b - 0:
            continue
        prof = P.BoundProfile(a, b, F(0))
        assert P.profile_to_exponent(prof, "lambda") == (1 + a) / (3 - b)


# ---------------------------------------------------------------------------
# balancer

T = P.TermExponent.of


def test_term_exponent_str():
    # variables in sorted order, exponents as reduced rationals; a scale
    # other than 1 wraps the monomial
    assert str(T(x=F(1, 2), H=-1)) == "H^-1 x^1/2"
    assert str(T(scale=F(1, 3), x=F(2, 3), R=1)) == "(R^1 x^2/3)^1/3"
    assert str(T(scale=2)) == "(1)^2"


def test_balance_symmetric_crossing():
    prob = P.BalanceProblem.of([T(x=0, N=1), T(x=1, N=-1)], "N",
                               interval=(F(0), F(1)))
    res = P.balance_exponents(prob)
    assert res.nu_star == F(1, 2) and res.value == F(1, 2)
    assert res.active_terms == (0, 1)


def test_balance_mu2_system():
    prob = P.BalanceProblem.of([
        T(N=1),
        T(scale=F(1, 31045), x=17271, N=-7367),
        T(x=F(17271, 13774), N=F(-127, 71)),
        T(scale=F(1, 17271), x=9904, N=-6407),
        T(x=F(6407, 13774), N=F(-15, 71)),
    ], "N")
    res = P.balance_exponents(prob)
    assert res.nu_star == F(1919, 4268)
    assert res.value == F(1919, 4268)
    assert 0 in res.active_terms and len(res.active_terms) >= 2


def test_balance_omega_system():
    prob = P.BalanceProblem.of([
        T(N=1),
        T(scale=F(1, 455), x=386, N=-321),
        T(x=F(7, 13), N=F(-69, 845)),
        T(x=F(107, 130), N=F(-128, 195)),
        T(x=F(7, 6), N=F(-262, 195)),
    ], "N", interval=(F(15, 41), F(1, 2)))
    res = P.balance_exponents(prob)
    assert res.nu_star == F(455, 914)
    assert res.value == F(455, 914)


def test_balance_two_symbol_U_choice():
    prob = P.BalanceProblem.of([
        T(z=F(55, 194), U=F(21, 97)),
        T(z=F(1, 6), R=F(5, 6), U=F(-371, 582)),
    ], "U")
    res = P.balance_exponents(prob)
    assert res.nu_star == {"z": F(-68, 497), "R": F(485, 497)}
    assert res.active_terms == (0, 1)


def test_balance_certificate_random_systems():
    rng = random.Random(23)
    for _ in range(100):
        terms = [T(x=F(rng.randint(-20, 40), 24), N=F(rng.randint(-30, 30), 12))
                 for _ in range(rng.randint(1, 6))]
        prob = P.BalanceProblem.of(terms, "N", interval=(F(0), F(1)))
        res = P.balance_exponents(prob)
        vals = [t.without("N").get("x", F(0)) + t.exponent_of("N") * res.nu_star
                for t in terms]
        assert max(vals) == res.value
        assert any(v == res.value for i, v in enumerate(vals)
                   if i in res.active_terms)
        # perturbation in either direction cannot beat the optimum
        for probe in (res.nu_star - P.EPS_PROBE, res.nu_star + P.EPS_PROBE):
            if 0 <= probe <= 1:
                pv = max(t.without("N").get("x", F(0))
                         + t.exponent_of("N") * probe for t in terms)
                assert pv >= res.value


def test_balance_interval_defaults():
    # free variable N defaults to [1/3, 1/2]
    prob = P.BalanceProblem.of([T(N=1), T(x=1, N=-1)], "N")
    res = P.balance_exponents(prob)
    assert res.nu_star == F(1, 2)        # crossing at 1/2 is the right endpoint
    # other variables default to [0, 1]
    prob = P.BalanceProblem.of([T(U=1), T(x=1, U=-1)], "U")
    assert P.balance_exponents(prob).nu_star == F(1, 2)


def test_balance_errors():
    with pytest.raises(ValueError):
        P.balance_exponents(P.BalanceProblem.of([], "N"))
    with pytest.raises(ValueError):
        P.balance_exponents(P.BalanceProblem.of(
            [T(z=1, U=1), T(R=1, U=-1), T(z=1, R=1, U=2)], "U"))


# ---------------------------------------------------------------------------
# Srinivasan elimination

def test_eliminate_H_lambda_shape():
    al, be = F(1, 6), F(47, 84)
    inp = [T(D=1, H=-1), T(H=1 + al, x=1 + al, D=be - 2), T(H=al, x=al, D=be)]
    out = P.eliminate_H(inp)
    assert out == [
        T(scale=1 / (al + 2), x=1 + al, D=al + be - 1),
        T(x=1 + al, D=be - 2),
        T(scale=1 / (al + 1), x=al, D=al + be),
        T(x=al, D=be),
    ]


def test_eliminate_H_tau_shape_and_passthrough():
    al, be = F(1, 6), F(7, 12)
    inp = [T(D=1, H=-1), T(H=al, x=al, D=be), T(D=2, x=-1)]
    out = P.eliminate_H(inp)
    assert T(scale=1 / (al + 1), x=al, D=al + be) in out
    assert T(x=al, D=be) in out
    assert T(D=2, x=-1) in out           # H-free terms pass through
    assert len(out) == 3


def test_eliminate_H_decreasing_only_yields_empty():
    assert P.eliminate_H([T(D=1, H=-1)]) == []


def test_eliminate_H_shape_violations():
    with pytest.raises(ValueError):
        P.eliminate_H([T(H=1, x=1)])                 # no decreasing term
    with pytest.raises(ValueError):
        P.eliminate_H([T(D=1, H=-1), T(x=1, H=-1)])  # two decreasing terms
    with pytest.raises(ValueError):
        P.eliminate_H([T(D=1, H=-2), T(x=1, H=1)])   # slope must be exactly -1


# ---------------------------------------------------------------------------
# search

def test_minimize_over_pairs_meets_published_choices():
    seeds = [TRIVIAL, CLASSIC, BOURGAIN]
    p, e = P.minimize_over_pairs("tau:2", seeds, 6)
    assert e <= F(19, 40)
    p, e = P.minimize_over_pairs("lambda", seeds, 6)
    assert e <= F(97, 203)


def test_minimize_over_pairs_deterministic_tiebreak():
    seeds = [TRIVIAL, CLASSIC, BOURGAIN]
    a = P.minimize_over_pairs("tau:3", seeds, 5)
    b = P.minimize_over_pairs("tau:3", seeds, 5)
    assert a[0].as_tuple() == b[0].as_tuple() and a[1] == b[1]


def test_minimize_over_pairs_no_feasible():
    with pytest.raises(ValueError):
        P.minimize_over_pairs("tau:8", [CLASSIC], 0)


def test_rational_serialization_round_trip():
    assert P.format_rational(F(97, 203)) == "97/203"
    assert P.format_rational(F(3)) == "3"
    assert P.parse_rational("97/203") == F(97, 203)
    assert P.parse_rational("-68/497") == F(-68, 497)
    assert P.parse_rational("5") == F(5)


@pytest.mark.parametrize("call, message", [
    (lambda: P.BoundProfile(F(1, 10), F(1, 2)).constraint_report("mu"),
     "unknown profile family 'mu'"),
    (lambda: P.TermExponent.of(x=1, y=1), "unknown variable 'y'"),
    (lambda: P.balance_exponents(P.BalanceProblem.of(
        [P.TermExponent.of(x=1, N=-1)], "N", (F(1, 2), F(1, 3)))), "empty interval"),
    (lambda: P.balance_exponents(P.BalanceProblem.of(
        [P.TermExponent.of(x=1, z=1, N=1), P.TermExponent.of(x=2, z=1, N=1)], "N")),
     "equal slope"),
    (lambda: P.heath_brown_pair(3.5), "need integer m, got 3.5"),
    (lambda: P.minimize_over_pairs("tau:2", [CLASSIC], True), "need integer depth, got True"),
], ids=["profile-family", "variable", "empty-interval", "vector-equal-slopes",
        "hb-float", "depth-bool"])
def test_malformed_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
