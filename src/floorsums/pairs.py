"""Exact-rational exponent-pair calculus and one-variable minimax balancing.

Everything here is exact: pairs, profiles, term exponents and balance results
are built from `fractions.Fraction` and no operation ever rounds.  An exponent
pair (k, l) certifies |sum e(F(n))| << T^k R^{l-k} + R/T for monomial-like
phases; the A and B processes transform pairs, and the theorem-exponent
evaluators turn a pair into the error exponent of the corresponding
floor-quotient estimate, or report which feasibility constraint fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .arith import FunctionKind, kind_from_name

HALF = Fraction(1, 2)

# exact perturbation used to probe constraint tightness for +eps pairs and
# to certify balancer optima
EPS_PROBE = Fraction(1, 10**9)


def parse_rational(s: str) -> Fraction:
    """Parse 'p/q' or 'p' into an exact Fraction."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
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
        k, l = Fraction(self.k), Fraction(self.l)
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


def pair(k, l, eps_carrier: bool = False) -> ExponentPair:
    return ExponentPair(Fraction(k), Fraction(l), eps_carrier=eps_carrier)


#: classical seed pairs usable by name in the CLI and in searches
SEED_PAIRS: dict[str, ExponentPair] = {
    "trivial": ExponentPair(Fraction(0), Fraction(1), seed="trivial"),
    "classic": ExponentPair(Fraction(1, 6), Fraction(2, 3), seed="classic"),
    "bourgain": ExponentPair(Fraction(13, 84), Fraction(55, 84),
                             eps_carrier=True, seed="bourgain"),
}


def apply_A(p: ExponentPair) -> ExponentPair:
    """A-process: (k, l) -> (k/(2k+2), (k+l+1)/(2k+2))."""
    d = 2 * p.k + 2
    return ExponentPair(p.k / d, (p.k + p.l + 1) / d,
                        eps_carrier=p.eps_carrier, word=("A",) + p.word, seed=p.seed)


def apply_B(p: ExponentPair) -> ExponentPair:
    """B-process (an involution): (k, l) -> (l - 1/2, k + 1/2)."""
    return ExponentPair(p.l - HALF, p.k + HALF,
                        eps_carrier=p.eps_carrier, word=("B",) + p.word, seed=p.seed)


def apply_word(word: str, p: ExponentPair) -> ExponentPair:
    """Apply a word over {A, B} in composition order ('BA' = B after A)."""
    for ch in reversed(word):
        if ch == "A":
            p = apply_A(p)
        elif ch == "B":
            p = apply_B(p)
        else:
            raise ValueError(f"invalid process letter {ch!r}")
    return p


def heath_brown_pair(m: int) -> ExponentPair:
    """The pair (2/((m-1)^2 (m+2)), 1 - (3m-2)/(m(m-1)(m+2))) + eps, m >= 3."""
    if m < 3:
        raise ValueError("heath_brown_pair requires m >= 3")
    k = Fraction(2, (m - 1) ** 2 * (m + 2))
    l = 1 - Fraction(3 * m - 2, m * (m - 1) * (m + 2))
    return ExponentPair(k, l, eps_carrier=True, seed=f"hb:{m}")


def enumerate_pairs(seeds: Iterable[ExponentPair], depth: int) -> set[ExponentPair]:
    """All pairs reachable from the seeds by A/B words of length <= depth.

    Deduplicated by exact (k, l); the first derivation found (shortest word,
    seeds in given order, A before B) is the one kept.
    """
    if not 0 <= depth <= 20:
        raise ValueError(f"depth must lie in [0, 20], got {depth}")
    seen: dict[tuple[Fraction, Fraction], ExponentPair] = {}
    frontier: list[ExponentPair] = []
    for s in seeds:
        if s.as_tuple() not in seen:
            seen[s.as_tuple()] = s
            frontier.append(s)
    for _ in range(depth):
        nxt = []
        for p in frontier:
            for q in (apply_A(p), apply_B(p)):
                if q.as_tuple() not in seen:
                    seen[q.as_tuple()] = q
                    nxt.append(q)
        frontier = nxt
    return set(seen.values())


# ---------------------------------------------------------------------------
# feasibility and theorem exponents

@dataclass(frozen=True)
class Infeasible:
    """Marker naming the feasibility constraint a pair violates."""

    constraint: str

    def __bool__(self) -> bool:
        return False


def _constraint_ok(pair_: ExponentPair, g, strict: bool) -> bool:
    """Check g(k, l) > 0 (strict) or >= 0 at the pair's base point.

    For +eps carriers a tight constraint only survives when the perturbation
    (k+eps, l+eps) moves strictly inside; probed exactly with EPS_PROBE.
    """
    v = g(pair_.k, pair_.l)
    if v < 0:
        return False
    if v > 0:
        return True
    # tight at the base point
    if pair_.eps_carrier:
        return g(pair_.k + EPS_PROBE, pair_.l + EPS_PROBE) > 0
    return not strict


def _target_kind(target) -> FunctionKind:
    """A FunctionKind as given, or parsed from its command-line name."""
    return target if isinstance(target, FunctionKind) else kind_from_name(target)


def theorem_exponent(target, p: ExponentPair) -> Union[Fraction, Infeasible]:
    """Error exponent the pair yields for the target's floor-quotient sum.

    Targets: Lambda, tau_r (r >= 2) and 2^omega, as a FunctionKind or a
    name `kind_from_name` parses ('lambda', 'tau:r', 'two-omega', ...).
    Returns the exact rational exponent, or an Infeasible marker naming the
    violated constraint.
    """
    kind = _target_kind(target)
    k, l = p.k, p.l
    if kind.tag == "lambda":
        checks = [
            ("k <= 1/6", lambda k, l: Fraction(1, 6) - k, False),
            ("3k + 4l >= 1", lambda k, l: 3 * k + 4 * l - 1, False),
            ("l^2 + l + 3 - k(5-l) - 9k^2 > 0",
             lambda k, l: l * l + l + 3 - k * (5 - l) - 9 * k * k, True),
        ]
        for cname, g, strict in checks:
            if not _constraint_ok(p, g, strict):
                return Infeasible(cname)
        return 14 * (k + 1) / (29 * k - l + 30)
    if kind.tag == "tau":
        r = kind.r
        if r < 2:
            raise ValueError("tau target needs r >= 2")
        if not _constraint_ok(p, lambda k, l: 1 - l - k * (r - 1), True):
            return Infeasible("1 - l > k(r-1)")
        return (k * (r - 1) + l + r - 1) / (k * (r - 1) + l + 2 * r - 1)
    if kind.tag == "two_pow_omega":
        if not _constraint_ok(p, lambda k, l: 1 - k - l, True):
            return Infeasible("k + l < 1")
        return 2 * (k + 1) / (3 * k - l + 5)
    raise ValueError(f"no theorem exponent for kind {kind}")


def tau_closed_form(r: int) -> Fraction:
    """1/2 - 1/(2(4r^3 - r - 1)), the exponent the hb(2r-1) pair produces."""
    return HALF - Fraction(1, 2 * (4 * r**3 - r - 1))


# ---------------------------------------------------------------------------
# bound profiles -> exponents

@dataclass(frozen=True)
class BoundProfile:
    """Exponents (alpha, beta, gamma) of a single-sum bound z^a R^b + R^g."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "gamma", Fraction(self.gamma))

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
    the terms' exponent vectors.
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

    def default_interval(self) -> tuple[Fraction, Fraction]:
        if self.interval is not None:
            return self.interval
        if self.free_variable == "N":
            return (Fraction(1, 3), HALF)
        return (Fraction(0), Fraction(1))


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
        lo, hi = problem.default_interval()
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
    best: tuple[Fraction, Fraction, Fraction, ExponentPair] | None = None
    for p in enumerate_pairs(list(seeds), depth):
        e = theorem_exponent(target, p)
        if isinstance(e, Infeasible):
            continue
        key = (e, p.k, p.l)
        if best is None or key < best[:3]:
            best = (e, p.k, p.l, p)
    if best is None:
        raise ValueError(f"no feasible pair for target {target!r}")
    return best[3], best[0]
