"""Exact-rational exponent-pair calculus and one-variable minimax balancing.

Everything here is exact and no operation ever rounds.  An exponent pair
(k, l) certifies |sum e(F(n))| << T^k R^{l-k} + R/T for monomial-like phases.
Internally a pair is the reduced integer triple (a, b, c), c > 0, k = a/c,
l = b/c: the A and B processes are one integer map, and each target's theorem
exponent is one table row of integer forms in (a, b, c), read by one
evaluator.  `Fraction`s carry values across the module boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from .arith import FunctionKind, kind_from_name
from .errors import require_integers, require_reals

HALF = Fraction(1, 2)

# exact perturbation used to probe constraint tightness for +eps pairs and
# to certify balancer optima
EPS_PROBE = Fraction(1, 10**9)
_PROBE = EPS_PROBE.denominator


def parse_rational(s: str) -> Fraction:
    """Parse 'p/q' or 'p' into an exact Fraction."""
    s = s.strip()
    if "/" in s:
        num, den = map(int, s.split("/", 1))
        if den == 0:
            raise ValueError(f"need a nonzero denominator, got {s!r}")
        return Fraction(num, den)
    return Fraction(int(s))


def format_rational(q: Fraction) -> str:
    """Serialize exactly, 'p/q' (or plain 'p' for integers); never decimal."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class ExponentPair:
    """An exponent pair (k, l) with its derivation word.

    `word` lists the A/B processes in composition order (leftmost applied
    last), starting from the named `seed`.  `eps_carrier` marks pairs that
    only hold with +eps on each coordinate.
    """

    k: Fraction
    l: Fraction
    eps_carrier: bool = False
    word: tuple[str, ...] = ()
    seed: str = "custom"

    def __post_init__(self):
        k, l = map(Fraction, require_reals(k=self.k, l=self.l))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        if not (0 <= k <= HALF <= l <= 1):
            raise ValueError(f"(k, l) = ({k}, {l}) outside admissible box")

    def as_tuple(self) -> tuple[Fraction, Fraction]:
        return (self.k, self.l)

    def word_str(self) -> str:
        return "".join(self.word) or "-"

    def __str__(self) -> str:
        eps = " (+eps)" if self.eps_carrier else ""
        return f"({self.k}, {self.l}){eps}"


#: classical seed pairs usable by name in the CLI and in searches
SEED_PAIRS: dict[str, ExponentPair] = {
    "trivial": ExponentPair(Fraction(0), Fraction(1), seed="trivial"),
    "classic": ExponentPair(Fraction(1, 6), Fraction(2, 3), seed="classic"),
    "bourgain": ExponentPair(Fraction(13, 84), Fraction(55, 84),
                             eps_carrier=True, seed="bourgain"),
}


def _triple(p: ExponentPair) -> tuple[int, int, int]:
    """The reduced (a, b, c) with k = a/c and l = b/c."""
    c = lcm(p.k.denominator, p.l.denominator)
    return p.k.numerator * (c // p.k.denominator), p.l.numerator * (c // p.l.denominator), c


def _process(letter: str, a: int, b: int, c: int) -> tuple[int, int, int]:
    """A: (k, l) -> (k/(2k+2), (k+l+1)/(2k+2)); B: (k, l) -> (l - 1/2, k + 1/2)."""
    if letter not in ("A", "B"):
        raise ValueError(f"invalid process letter {letter!r}")
    a, b, c = (a, a + b + c, 2 * a + 2 * c) if letter == "A" else (2 * b - c, 2 * a + c, 2 * c)
    g = gcd(a, b, c)
    return a // g, b // g, c // g


def apply_word(word: str, p: ExponentPair) -> ExponentPair:
    """Apply a word over {A, B} in composition order ('BA' = B after A)."""
    a, b, c = _triple(p)
    for letter in reversed(word):
        a, b, c = _process(letter, a, b, c)
    return ExponentPair(Fraction(a, c), Fraction(b, c), p.eps_carrier,
                        tuple(word) + p.word, p.seed)


def apply_A(p: ExponentPair) -> ExponentPair:
    """A-process: (k, l) -> (k/(2k+2), (k+l+1)/(2k+2))."""
    return apply_word("A", p)


def apply_B(p: ExponentPair) -> ExponentPair:
    """B-process (an involution): (k, l) -> (l - 1/2, k + 1/2)."""
    return apply_word("B", p)


def heath_brown_pair(m: int) -> ExponentPair:
    """The pair (2/((m-1)^2 (m+2)), 1 - (3m-2)/(m(m-1)(m+2))) + eps, m >= 3."""
    m = require_integers(m=m)
    if m < 3:
        raise ValueError("heath_brown_pair requires m >= 3")
    k = Fraction(2, (m - 1) ** 2 * (m + 2))
    l = 1 - Fraction(3 * m - 2, m * (m - 1) * (m + 2))
    return ExponentPair(k, l, eps_carrier=True, seed=f"hb:{m}")


def _orbit(seeds: Iterable[ExponentPair], depth: int) -> dict[tuple[int, int, int], tuple]:
    """Every pair reachable from the seeds by A/B words of length <= depth:
    reduced triple -> (word, seed) of its first derivation (shortest word,
    seeds in given order, A before B)."""
    depth = require_integers(depth=depth)
    if not 0 <= depth <= 20:
        raise ValueError(f"depth must lie in [0, 20], got {depth}")
    seen: dict[tuple[int, int, int], tuple[str, ExponentPair]] = {}
    for s in seeds:
        seen.setdefault(_triple(s), ("", s))
    start = 0
    for _ in range(depth):
        # the last level is the tail of `seen`, which keeps insertion order
        level, start = list(seen)[start:], len(seen)
        for t in level:
            word, s = seen[t]
            for letter in "AB":
                seen.setdefault(_process(letter, *t), (letter + word, s))
    return seen


# ---------------------------------------------------------------------------
# feasibility and theorem exponents

@dataclass(frozen=True)
class Infeasible:
    """Marker naming the feasibility constraint a pair violates."""

    constraint: str

    def __bool__(self) -> bool:
        return False


def _target_kind(target) -> FunctionKind:
    """A FunctionKind as given, or parsed from its command-line name."""
    return target if isinstance(target, FunctionKind) else kind_from_name(target)


def _exponent_row(target):
    """(numerator, denominator, constraints): the exponent is a ratio of
    linear forms in (a, b, c); each constraint (name, g, strict) asks g > 0 or
    g >= 0, with g(a, b, c) of the sign of the named form in (k, l)."""
    kind = _target_kind(target)
    if kind.tag == "lambda":  # 14(k+1) / (29k - l + 30)
        return (14, 0, 14), (29, -1, 30), (
            ("k <= 1/6", lambda a, b, c: c - 6 * a, False),
            ("3k + 4l >= 1", lambda a, b, c: 3 * a + 4 * b - c, False),
            ("l^2 + l + 3 - k(5-l) - 9k^2 > 0",
             lambda a, b, c: b * b + b * c + 3 * c * c - a * (5 * c - b) - 9 * a * a, True))
    if kind.tag == "tau":  # (k(r-1) + l + r - 1) / (k(r-1) + l + 2r - 1)
        r = kind.r
        if r < 2:
            raise ValueError("tau target needs r >= 2")
        return (r - 1, 1, r - 1), (r - 1, 1, 2 * r - 1), (
            ("1 - l > k(r-1)", lambda a, b, c: c - b - (r - 1) * a, True),)
    if kind.tag == "two_pow_omega":  # 2(k+1) / (3k - l + 5)
        return (2, 0, 2), (3, -1, 5), (("k + l < 1", lambda a, b, c: c - a - b, True),)
    raise ValueError(f"no theorem exponent for kind {kind}")


def _evaluate(row, a: int, b: int, c: int, eps: bool) -> Union[str, tuple[int, int]]:
    """(numerator, denominator) of the row's exponent, or the name of the
    first violated constraint.  A tight constraint holds for a bare pair if
    not strict, for a +eps carrier if g > 0 at (k + EPS_PROBE, l + EPS_PROBE)."""
    (n0, n1, n2), (d0, d1, d2), constraints = row
    for name, g, strict in constraints:
        v = g(a, b, c)
        if v < 0 or v == 0 and (g(a * _PROBE + c, b * _PROBE + c, c * _PROBE) <= 0
                                if eps else strict):
            return name
    return n0 * a + n1 * b + n2 * c, d0 * a + d1 * b + d2 * c


def theorem_exponent(target, p: ExponentPair) -> Union[Fraction, Infeasible]:
    """Error exponent the pair yields for the target's floor-quotient sum.

    Targets: Lambda, tau_r (r >= 2) and 2^omega, as a FunctionKind or a
    name `kind_from_name` parses ('lambda', 'tau:r', 'two-omega', ...).
    Returns the exact rational exponent, or an Infeasible marker naming the
    violated constraint.
    """
    e = _evaluate(_exponent_row(target), *_triple(p), p.eps_carrier)
    return Infeasible(e) if isinstance(e, str) else Fraction(*e)


# ---------------------------------------------------------------------------
# bound profiles -> exponents

@dataclass(frozen=True)
class BoundProfile:
    """Exponents (alpha, beta, gamma) of a single-sum bound z^a R^b + R^g."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction = Fraction(0)

    def __post_init__(self):
        reals = require_reals(alpha=self.alpha, beta=self.beta, gamma=self.gamma)
        for name, v in zip(("alpha", "beta", "gamma"), reals):
            object.__setattr__(self, name, Fraction(v))

    def constraint_report(self, family: str) -> dict[str, bool]:
        a, b, g = self.alpha, self.beta, self.gamma
        if family == "lambda":
            return {
                "alpha > 0": a > 0,
                "beta > 0": b > 0,
                "0 <= gamma < 1": 0 <= g < 1,
                "2 alpha + beta < 1": 2 * a + b < 1,
                "alpha (gamma - 3) <= beta - gamma": a * (g - 3) <= b - g,
                "alpha (gamma+1) + gamma (beta-2) + 1 >= 0": a * (g + 1) + g * (b - 2) + 1 >= 0,
            }
        if family == "tau":
            return {
                "alpha > 0": a > 0,
                "beta > 0": b > 0,
                "2 alpha + beta < 1": 2 * a + b < 1,
                "4 alpha + 2 beta > 1": 4 * a + 2 * b > 1,
            }
        raise ValueError(f"unknown profile family {family!r}")


class ProfileConstraintError(ValueError):
    """A bound profile violates one of its named feasibility constraints."""


def profile_to_exponent(profile, target) -> Fraction:
    """Turn a bound profile into the floor-quotient error exponent.

    target Lambda: (1+alpha)/(3-beta); target tau_r: (2a+b)/(2a+b+1).  The
    target is parsed as in `theorem_exponent`; any other kind is a
    ValueError.  Raises ProfileConstraintError naming the first violated
    constraint.
    """
    prof = profile if isinstance(profile, BoundProfile) else BoundProfile(*profile)
    kind = _target_kind(target)
    if kind.tag not in ("lambda", "tau"):
        raise ValueError(f"no profile exponent for kind {kind}")
    family = kind.tag
    for name, ok in prof.constraint_report(family).items():
        if not ok:
            raise ProfileConstraintError(name)
    if family == "lambda":
        return (1 + prof.alpha) / (3 - prof.beta)
    s = 2 * prof.alpha + prof.beta
    return s / (s + 1)


# ---------------------------------------------------------------------------
# term exponents, Srinivasan elimination, minimax balancing

VARIABLES = ("x", "z", "R", "N", "D", "H", "U")


@dataclass(frozen=True)
class TermExponent:
    """A monomial (prod var^e_var)^scale over the named variables."""

    exponents: tuple[tuple[str, Fraction], ...]
    scale: Fraction = Fraction(1)

    @classmethod
    def of(cls, scale=1, **exps) -> "TermExponent":
        items = tuple(sorted((v, Fraction(e)) for v, e in exps.items() if Fraction(e) != 0))
        for v, _ in items:
            if v not in VARIABLES:
                raise ValueError(f"unknown variable {v!r}")
        return cls(exponents=items, scale=Fraction(scale))

    def exponent_of(self, var: str) -> Fraction:
        for v, e in self.exponents:
            if v == var:
                return self.scale * e
        return Fraction(0)

    def without(self, var: str) -> dict[str, Fraction]:
        return {v: self.scale * e for v, e in self.exponents if v != var}

    def __str__(self) -> str:
        inner = " ".join(f"{v}^{format_rational(e)}" for v, e in self.exponents) or "1"
        if self.scale == 1:
            return inner
        return f"({inner})^{format_rational(self.scale)}"


def eliminate_H(terms: list[TermExponent], free: str = "H") -> list[TermExponent]:
    """Srinivasan elimination of an auxiliary parameter.

    Requires exactly one term strictly decreasing in `free` with effective
    exponent -1 (the A/H term); every other term must be nondecreasing.  Each
    increasing term T*H^c is replaced by the balanced geometric mean
    (T * A^c)^(1/(c+1)) together with its own H=1 evaluation T; H-free terms
    pass through; the decreasing term contributes nothing further.
    """
    dec = [t for t in terms if t.exponent_of(free) < 0]
    if len(dec) != 1:
        raise ValueError(f"need exactly one decreasing term in {free}, found {len(dec)}")
    if dec[0].exponent_of(free) != -1:
        raise ValueError(f"decreasing term must carry {free}^-1 exactly")
    anchor = dec[0].without(free)  # the A of A/H
    out: list[TermExponent] = []
    for t in terms:
        if t is dec[0]:
            continue
        c = t.exponent_of(free)
        base = t.without(free)
        if c == 0:
            out.append(TermExponent.of(**base))
            continue
        merged = dict(base)
        for v, e in anchor.items():
            merged[v] = merged.get(v, Fraction(0)) + c * e
        out.append(TermExponent.of(scale=Fraction(1, 1) / (c + 1), **merged))
        out.append(TermExponent.of(**base))
    return out


@dataclass(frozen=True)
class BalanceProblem:
    """Minimize over nu the max of affine exponent forms in the free variable.

    With a single fixed symbol (say x, exponent normalized so nu is the free
    variable's exponent base x) this is an exact 1-D minimax.  With two or
    more fixed symbols only two-term balances are defined: the optimum equates
    the terms' exponent vectors.  A scalar balance searches `interval`, by
    default [1/3, 1/2] for the free variable N and [0, 1] for any other.
    """

    terms: tuple[TermExponent, ...]
    free_variable: str
    interval: tuple[Fraction, Fraction] | None = None

    @classmethod
    def of(cls, terms, free_variable, interval=None) -> "BalanceProblem":
        iv = None
        if interval is not None:
            iv = (Fraction(interval[0]), Fraction(interval[1]))
        return cls(terms=tuple(terms), free_variable=free_variable, interval=iv)


@dataclass(frozen=True)
class BalanceResult:
    nu_star: Union[Fraction, dict]
    value: Union[Fraction, dict]
    active_terms: tuple[int, ...]


def _scalar_balance(slopes, intercepts, lo, hi) -> tuple[Fraction, Fraction, tuple[int, ...]]:
    if lo > hi:
        raise ValueError("empty interval")
    cands = {lo, hi}
    n = len(slopes)
    for i in range(n):
        for j in range(i + 1, n):
            if slopes[i] != slopes[j]:
                v = (intercepts[j] - intercepts[i]) / (slopes[i] - slopes[j])
                if lo <= v <= hi:
                    cands.add(v)

    def value_at(v: Fraction) -> Fraction:
        return max(a + b * v for a, b in zip(intercepts, slopes))

    nu = min(sorted(cands), key=value_at)
    val = value_at(nu)
    active = tuple(i for i in range(n) if intercepts[i] + slopes[i] * nu == val)
    # certificate: no admissible perturbation improves the max
    for probe in (nu - EPS_PROBE, nu + EPS_PROBE):
        if lo <= probe <= hi and value_at(probe) < val:
            raise AssertionError("balancer certificate failed")
    return nu, val, active


def balance_exponents(problem: BalanceProblem) -> BalanceResult:
    """Exact minimax choice of the free variable's exponent.

    Scalar mode (at most one fixed symbol): the optimum lies at an interval
    endpoint or a pairwise crossing; all candidates are compared exactly and
    the result carries the active term set.  Vector mode (two fixed symbols,
    two terms of opposite slope): solves the equal-exponent-vector equation.
    """
    terms = problem.terms
    if not terms:
        raise ValueError("no terms to balance")
    free = problem.free_variable
    fixed_symbols = sorted({v for t in terms for v in t.without(free)})

    if len(fixed_symbols) <= 1:
        sym = fixed_symbols[0] if fixed_symbols else "x"
        slopes = [t.exponent_of(free) for t in terms]
        intercepts = [t.without(free).get(sym, Fraction(0)) for t in terms]
        lo, hi = problem.interval or ((Fraction(1, 3), HALF) if free == "N"
                                      else (Fraction(0), Fraction(1)))
        nu, val, active = _scalar_balance(slopes, intercepts, lo, hi)
        return BalanceResult(nu_star=nu, value=val, active_terms=active)

    if len(terms) != 2:
        raise ValueError("vector-intercept balances support exactly two terms")
    (t1, t2) = terms
    b1, b2 = t1.exponent_of(free), t2.exponent_of(free)
    if b1 == b2:
        raise ValueError("terms have equal slope in the free variable")
    a1, a2 = t1.without(free), t2.without(free)
    nu = {s: (a2.get(s, Fraction(0)) - a1.get(s, Fraction(0))) / (b1 - b2)
          for s in fixed_symbols}
    value = {s: a1.get(s, Fraction(0)) + b1 * nu[s] for s in fixed_symbols}
    # tightness is vector equality of both terms at the optimum
    other = {s: a2.get(s, Fraction(0)) + b2 * nu[s] for s in fixed_symbols}
    if other != value:
        raise AssertionError("vector balance certificate failed")
    return BalanceResult(nu_star=nu, value=value, active_terms=(0, 1))


def minimize_over_pairs(target, seeds: Iterable[ExponentPair],
                        depth: int) -> tuple[ExponentPair, Fraction]:
    """Feasible pair minimizing theorem_exponent over the A/B orbit of seeds.

    Ties break lexicographically on (k, l).  Raises if nothing is feasible.
    """
    orbit = _orbit(seeds, depth)
    row = _exponent_row(target)
    feasible = [(e, t) for t, (_, s) in orbit.items()
                if not isinstance(e := _evaluate(row, *t, s.eps_carrier), str)]
    if not feasible:
        raise ValueError(f"no feasible pair for target {target!r}")
    n, d = feasible[0][0]
    for (n1, d1), _ in feasible:  # denominators are positive on the admissible box
        if n1 * d < n * d1:
            n, d = n1, d1
    t = min((t for (n1, d1), t in feasible if n1 * d == n * d1),
            key=lambda t: (Fraction(t[0], t[2]), Fraction(t[1], t[2])))
    return apply_word(*orbit[t]), Fraction(n, d)
