"""The argument contract of the public surface, fuzzed.

Each callable below that takes integer or real scalars is called with
arguments drawn in every form a caller may pass: numpy integers of every
width, uint64 at and above 2^63, numpy and Python floats, `Fraction`s, bools
and numpy bools.  A numpy number must act as the Python number it equals:
the call returns the same value, bit for bit and of the same types, or
raises the same typed error with the same message.  A form the argument
does not take (a bool anywhere; a float or a `Fraction` for an integer) must
be refused with ValueError, BudgetError, CoverageError or WindowError.  Any
other exception fails.  The array arguments (`unit_array`'s t,
`eval_points`' n, `fejer_envelope`'s x, the f and g of `dirichlet_convolve`
and both hyperbola verifiers, a named table's values) are drawn in every
form and dtype too: each draw is refused with a typed error before any
work, or gives the value of a Python-int reference.  Sizes stay small
(x <= 10^4, R <= 200), so that the module runs in a few seconds.
"""

import math
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorsums import arith as A
from floorsums import expsum as E
from floorsums import floorsum as FS
from floorsums import identities as I
from floorsums import pairs as P
from floorsums import psi
from floorsums.errors import BudgetError, CoverageError, WindowError

TYPED = (ValueError, BudgetError)       # CoverageError and WindowError are ValueErrors
REFUSED = object()                      # the canonical value of a form that must be refused
INTEGER_TYPES = (np.int8, np.int16, np.int32, np.int64,
                 np.uint8, np.uint16, np.uint32, np.uint64)
HUGE = st.sampled_from([2**63, 2**64 - 1])      # uint64 at and above 2^63
NOT_FINITE = st.sampled_from([math.inf, math.nan])


def _numpy_integers(v: int) -> list:
    return [t(v) for t in INTEGER_TYPES if np.iinfo(t).min <= v <= np.iinfo(t).max]


def _integer_forms(v: int) -> list:
    """(form, canonical) for an integer argument of value v."""
    forms = [(v, v)] + [(n, v) for n in _numpy_integers(v)]
    refused = [float(v), np.float64(v), Fraction(v)] + [bool(v), np.bool_(v)] * (v in (0, 1))
    return forms + [(r, REFUSED) for r in refused]


def _real_forms(v) -> list:
    """(form, canonical) for a real argument of value v: an int, a float or
    a Fraction, each its own canonical value."""
    forms = [(v, v)]
    if isinstance(v, int):
        forms += [(n, v) for n in _numpy_integers(v)]
    elif isinstance(v, float):
        forms += [(np.float64(v), v)]
    if v in (0, 1):
        forms += [(bool(v), REFUSED), (np.bool_(v), REFUSED)]
    return forms


def integer(values):
    return values.flatmap(lambda v: st.sampled_from(_integer_forms(v)))


def real(values):
    return values.flatmap(lambda v: st.sampled_from(_real_forms(v)))


def _key(result):
    """A comparable image of a result: bytes and dtype for an array, repr
    (which shows a float's bits and a numpy scalar's type) otherwise."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, A.SieveTable):
        return repr((result.kind, result.lo)), _key(result.values)
    if isinstance(result, tuple):
        return tuple(map(_key, result))
    return repr(result)


def _outcome(call, args):
    try:
        return "returned", _key(call(*args))
    except TYPED as exc:
        return "raised", type(exc).__name__, str(exc)


SMALL = st.integers(-2, 300)
PHASE = I.PhaseFunction.reciprocal(7)
CLASSIC = P.SEED_PAIRS["classic"]
TABLE = A.build_sieve(A.MOBIUS, 1, 300)
ONE = A.build_sieve(A.ONE, 1, 300)
KINDS = (A.ONE, A.MOBIUS, A.LAMBDA, A.tau(3), A.OMEGA)

# name -> (call, argument strategies); each call takes only the drawn arguments
CASES = {
    "tau": (A.tau, [integer(st.integers(-2, 12) | HUGE)]),
    "SieveTable": (lambda lo: A.SieveTable(None, lo, np.arange(5)), [integer(SMALL | HUGE)]),
    "SieveTable.value": (A.build_sieve(A.tau(2), 5, 60).value, [integer(SMALL | HUGE)]),
    "SieveTable.prefix": (A.build_sieve(A.tau(2), 1, 60).prefix, [integer(SMALL | HUGE)]),
    "build_sieve": (lambda lo, hi: A.build_sieve(A.tau(2), lo, hi),
                    [integer(SMALL), integer(SMALL | HUGE)]),
    "dirichlet_convolve": (lambda n: A.dirichlet_convolve(TABLE, ONE, n), [integer(SMALL | HUGE)]),
    "floor_sum_fast": (lambda k, x, n: FS.floor_sum_fast(KINDS[k], x, split=n),
                       [st.sampled_from([(k, k) for k in range(len(KINDS))]),
                        integer(st.integers(-2, 10**4) | HUGE), integer(SMALL | HUGE)]),
    "floor_sum_naive": (lambda x: FS.floor_sum_naive(A.LAMBDA, x),
                        [integer(st.integers(-2, 10**4) | HUGE)]),
    "main_term_constant": (lambda c: FS.main_term_constant(A.tau(2), c),
                           [integer(st.integers(990, 1100) | HUGE)]),
    "error_scan": (lambda a, b, c: FS.error_scan(A.MOBIUS, [a, b], cutoff=c),
                   [integer(st.integers(-2, 10**4)), integer(st.integers(-2, 10**4) | HUGE),
                    integer(st.integers(995, 1005))]),
    "reciprocal.frac": (lambda z, t: I.PhaseFunction.reciprocal(z).frac(t),
                        [real(st.integers(-1, 10**6) | st.floats(-1, 1e9) | NOT_FINITE | HUGE),
                         integer(SMALL | HUGE)]),
    "power_reciprocal.unit": (lambda z, r, t: I.PhaseFunction.power_reciprocal(z, r).unit(t),
                              [real(st.integers(0, 10**6) | st.floats(0, 1e6) | HUGE),
                               integer(st.integers(-1, 4)), integer(SMALL | HUGE)]),
    "shifted_reciprocal.frac": (
        lambda h, x, a, t: I.PhaseFunction.shifted_reciprocal(h, x, a).frac(t),
        [real(st.integers(0, 100) | st.floats(0, 100)), real(st.integers(0, 10**4) | HUGE),
         integer(st.integers(-1, 2) | HUGE), integer(SMALL | HUGE)]),
    "reciprocal.unit_array": (lambda z, t: I.PhaseFunction.reciprocal(z).unit_array(t),
                              [real(st.integers(0, 10**6) | st.fractions(0, 10**6)),
                               integer(SMALL | HUGE)]),
    "vaughan_lambda_sides": (lambda R, R1, U: I.vaughan_lambda_sides(R, R1, U, PHASE),
                             [integer(st.integers(-1, 200) | HUGE),
                              integer(st.integers(-1, 400) | HUGE), integer(st.integers(-1, 16))]),
    "vaughan_mobius_sides": (lambda R, R1, U: I.vaughan_mobius_sides(R, R1, U, PHASE),
                             [integer(st.integers(-1, 200)), integer(st.integers(-1, 400)),
                              integer(st.integers(-1, 16) | HUGE)]),
    "hyperbola_sides": (lambda x, U: I.hyperbola_sides(TABLE, ONE, None, x, U),
                        [integer(SMALL | HUGE), integer(SMALL | HUGE)]),
    "hyperbola_exp_sides": (lambda R, R1, U: I.hyperbola_exp_sides(TABLE, ONE, PHASE, R, R1, U),
                            [integer(st.integers(-1, 150) | HUGE), integer(SMALL | HUGE),
                             integer(st.integers(-1, 150))]),
    "exp_sum": (lambda R, R1: E.exp_sum(A.MOBIUS, R, R1, PHASE),
                [integer(st.integers(-1, 200) | HUGE), integer(st.integers(-1, 400) | HUGE)]),
    "type_II_sum": (lambda M, N: E.type_II_sum(M, N, PHASE),
                    [integer(st.integers(-2, 40) | HUGE), integer(st.integers(-2, 40) | HUGE)]),
    "check_bound": (lambda c, z, R, r: E.check_bound(E.BOUND_CASES[c], z, R, pair=CLASSIC, r=r),
                    [st.sampled_from([(c, c) for c in range(len(E.BOUND_CASES))]),
                     real(st.integers(-1, 10**7) | st.floats(-1, 1e7) | NOT_FINITE | HUGE),
                     integer(st.integers(0, 200) | HUGE), integer(st.integers(0, 3))]),
    "ExponentPair": (P.ExponentPair,
                     [real(st.sampled_from([0, 1, 0.25, 0.5, Fraction(1, 6), Fraction(7, 8)])),
                      real(st.sampled_from([0, 1, 0.5, 0.75, Fraction(2, 3)]))]),
    "profile_to_exponent": (lambda a, b, g: P.profile_to_exponent((a, b, g), "lambda"),
                            [real(st.sampled_from([0, 1, 0.5, Fraction(1, 6), -1])),
                             real(st.sampled_from([0, 1, 0.5, Fraction(2, 3)])),
                             real(st.sampled_from([0, 1, 0.875]))]),
    "TermExponent.of": (lambda s, e: P.TermExponent.of(scale=s, N=e),
                        [real(st.sampled_from([0, 1, 2, 0.5, Fraction(1, 3)])),
                         real(st.sampled_from([0, 1, -1, 0.25, Fraction(2, 7)]))]),
    "BalanceProblem.of": (lambda a, b: P.BalanceProblem.of([], "N", (a, b)),
                          [real(st.sampled_from([0, 1, -2, 0.25, Fraction(1, 3)])),
                           real(st.sampled_from([0, 1, 0.5, Fraction(1, 2)]))]),
    "heath_brown_pair": (P.heath_brown_pair, [integer(st.integers(-1, 40) | HUGE)]),
    "minimize_over_pairs": (lambda d: P.minimize_over_pairs("lambda", [CLASSIC], d),
                            [integer(st.integers(-1, 5) | HUGE)]),
    "vaaler_polynomial": (psi.vaaler_polynomial, [integer(st.integers(-1, 3000) | HUGE)]),
    "fejer_envelope": (psi.fejer_envelope,
                       [integer(st.integers(-1, 3000) | HUGE),
                        real(st.integers(-3, 3) | st.floats(-3, 3) | st.fractions(-3, 3))]),
    "verify_pointwise_bound": (psi.verify_pointwise_bound,
                               [integer(st.integers(-1, 200) | HUGE),
                                integer(st.integers(990, 1100) | HUGE)]),
}


@pytest.mark.parametrize("call, args", CASES.values(), ids=CASES)
@settings(max_examples=30)
@given(data=st.data())
def test_an_argument_acts_as_the_python_number_it_equals(call, args, data):
    drawn = data.draw(st.tuples(*args))
    forms = [form for form, _ in drawn]
    got = _outcome(call, forms)
    if any(canonical is REFUSED for _, canonical in drawn):
        assert got[0] == "raised", forms
    else:
        assert got == _outcome(call, [canonical for _, canonical in drawn]), forms


# ---------------------------------------------------------------------------
# array arguments: unit_array's t

def _t_forms(v: list) -> list:
    """unit_array's t with entries v, in every form a caller may pass: a
    list, an object array, 1-d, 2-d and (for one entry) 0-d, and the
    integer arrays that can hold v."""
    forms = [v, np.array(v, dtype=object), np.array(v, dtype=object).reshape(1, -1)]
    for dtype in (np.int64, np.uint64, np.int16):
        info = np.iinfo(dtype)
        if all(info.min <= k <= info.max for k in v):
            forms += [np.array(v, dtype=dtype), np.array(v, dtype=dtype).reshape(-1, 1)]
    if len(v) == 1:
        forms += [np.array(v[0], dtype=object), np.array(v[0])]
    return forms


@settings(max_examples=60)
@given(v=st.lists(SMALL | HUGE, max_size=4),
       z=st.sampled_from([7, 123456.75, 2**70]))
def test_unit_array_takes_t_in_every_array_form(v, z):
    # each form acts as the int64 array of its entries, in its own shape, or
    # every form is refused alike: an entry below 1 or at 2^63 and above
    ph = I.PhaseFunction.reciprocal(z)
    ok = all(1 <= k < 2**63 for k in v)
    want = np.exp(1j * I.TWO_PI * np.array([ph.frac(k) for k in v] if ok else [],
                                            dtype=np.float64))
    for t in _t_forms(v):
        if not ok:
            with pytest.raises(ValueError, match="need t"):
                ph.unit_array(t)
            continue
        got = ph.unit_array(t)
        assert got.dtype == np.complex128 and got.shape == np.shape(t), t
        assert got.tobytes() == want.tobytes(), t


@pytest.mark.parametrize("t", [[1.0, 2.0], [True], [2, 2.5], np.array([], dtype=np.float64),
                               np.array([3.0]), np.array([1, 2], dtype=object) * 1.5,
                               [[1, 2], [3]], "12"], ids=repr)
def test_unit_array_refuses_t_that_is_not_integers(t):
    with pytest.raises(ValueError, match="need integer t"):
        I.PhaseFunction.reciprocal(7).unit_array(t)


# ---------------------------------------------------------------------------
# array arguments: eval_points' n

def _no_work(monkeypatch, *names):
    for name in names:
        monkeypatch.setattr(A, name, lambda *a: pytest.fail("work was done"))


def _point_reference(kind, n: int) -> int:
    """f(n) in Python ints, from n's factorization by trial division and
    the local factors g(a) = f(p^a)."""
    exps, p = [], 2
    while p * p <= n:
        a = 0
        while n % p == 0:
            n, a = n // p, a + 1
        exps.append(a)
        p += 1
    exps.append(int(n > 1))
    values = [kind.local(a) for a in exps]
    return sum(values) if kind.additive else math.prod(values)


def _n_forms(v: list) -> list:
    """(n, integers) for eval_points' n with entries v: n in every form a
    caller may pass, and whether it holds integers alone.  A list is read
    entry by entry, so a bool or a float in it is not an integer, and
    neither is a ragged nest."""
    forms = [(v, True), ([v, v], True), ([v, v + [1]], False), ([], True),
             (v + [True], False), ([np.True_] + v, False), (v + [2.0], False)]
    for dtype in INTEGER_TYPES:
        info = np.iinfo(dtype)
        if all(info.min <= k <= info.max for k in v):
            forms += [(np.array(v, dtype=dtype), True), (np.array([v], dtype=dtype), True)]
    return forms


@settings(max_examples=60)
@given(v=st.lists(st.integers(-1, 3000) | st.sampled_from(
           [A.FACTOR_BUDGET, A.FACTOR_BUDGET + 1, 2**63, 2**64 - 1]), max_size=4),
       kind=st.sampled_from([A.ONE, A.MOBIUS, A.tau(3), A.OMEGA, A.CHI_TWO]))
def test_eval_points_takes_n_in_every_array_form(v, kind):
    # each form of integers alone within [1, FACTOR_BUDGET] gives f at every
    # entry in its own shape; any other is refused with a typed error before
    # any work
    for n, integers in _n_forms(v):
        entries = np.array(n, dtype=object).ravel().tolist() if integers else []
        if integers and all(1 <= k <= A.FACTOR_BUDGET for k in entries):
            got = A.eval_points(kind, n)
            assert got.dtype == np.int64 and got.shape == np.shape(n), n
            assert got.ravel().tolist() == [_point_reference(kind, k) for k in entries], n
            continue
        with pytest.MonkeyPatch.context() as mp:
            _no_work(mp, "_local_values", "_odd_primes")
            with pytest.raises(TYPED):
                A.eval_points(kind, n)


# ---------------------------------------------------------------------------
# array arguments: fejer_envelope's x

def _x_forms(v: list) -> list:
    """(x, reals) for fejer_envelope's x with entries v: x in every form a
    caller may pass, and whether it holds reals alone.  A list is read entry
    by entry, so a bool or a complex entry in it is not a real."""
    forms = [(v, True), ([v, v], True), (np.array(v, dtype=object), True),
             (np.array(v, dtype=np.float64), True),
             (v + [True], False), ([np.True_] + v, False), (v + [1j], False),
             (np.array([k != 0 for k in v] + [True]), False),
             (np.array([float(k) for k in v] + [1j]), False)]
    if all(isinstance(k, int) and abs(k) < 2**63 for k in v):
        forms += [(np.array(v, dtype=np.int64), True), (np.array(v, dtype=np.int16), True)]
    if len(v) == 1:
        forms += [(np.array(v[0], dtype=object), True)]
    return forms


@settings(max_examples=60)
@given(v=st.lists(st.integers(-3, 3) | st.floats(-3, 3) | st.fractions(-3, 3) | HUGE,
                  max_size=4),
       H=st.integers(1, 50))
def test_fejer_envelope_takes_x_in_every_array_form(v, H):
    # each form of reals alone acts as the float64 array of its entries, in
    # its own shape; any other is refused with ValueError
    for x, reals in _x_forms(v):
        if not reals:
            with pytest.raises(ValueError, match="need real x"):
                psi.fejer_envelope(H, x)
            continue
        entries = np.array(x, dtype=object).ravel().tolist()
        want = psi.fejer_envelope(H, np.array(entries, dtype=np.float64).reshape(np.shape(x)))
        got = psi.fejer_envelope(H, x)
        assert _key(got) == _key(want), x


# ---------------------------------------------------------------------------
# array arguments: the f and g of dirichlet_convolve and the hyperbola verifiers

PRODUCT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.float16, np.float32, np.float64)
NAMED_KINDS = (A.ONE, A.MOBIUS, A.tau(3), A.LAMBDA)


@st.composite
def product_tables(draw, dtype):
    """A table on [1, 1..60] for a product: for dtype None a named kind's
    sieve, else a derived table of that dtype, its values up to a drawn
    scale (near 2^63 and the dtype's largest value included), a float table
    at times with one entry of +-its dtype's largest value.  A float table
    holding NaN or +-inf cannot be built
    (`test_a_derived_float_table_is_refused_unless_finite_and_bounded`)."""
    if dtype is None:
        return A.build_sieve(draw(st.sampled_from(NAMED_KINDS)), 1, 60)
    dtype = np.dtype(dtype)
    top = int(np.iinfo(dtype).max if dtype.kind == "i" else np.finfo(dtype).max)
    scale = min(top, draw(st.sampled_from([top, 1, 3, 100, 2**20, 2**40, 2**60 + 1, 2**63 - 1])))
    values = draw(st.lists(st.integers(-scale, scale) | st.sampled_from([-scale, scale]),
                           min_size=1, max_size=60))
    if dtype.kind == "f" and draw(st.integers(0, 3)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from([-top, top]))
    return A.SieveTable(None, 1, np.array(values, dtype=dtype))


def _product_reference(f, g, limit: int) -> list:
    """(value, sum of |terms|, number of terms) of (f * g)(n) for n = 1..limit,
    in Fractions, which equal Python ints for integer tables."""
    fv, gv = (list(map(Fraction, t.values.tolist())) for t in (f, g))
    terms = [[fv[d - 1] * gv[n // d - 1] for d in range(1, n + 1) if n % d == 0]
             for n in range(1, limit + 1)]
    return [(sum(t), sum(map(abs, t)), len(t)) for t in terms]


def _refused(call, module, work: str) -> bool:
    """Whether `call` is refused with a typed error before `module.work`
    runs; False if it runs."""
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, work, lambda *a: pytest.fail("work was done"))
            call()
    except TYPED:
        return True
    except pytest.fail.Exception:
        pass
    return False


EPS = Fraction(float(np.finfo(np.float64).eps))     # a float product is taken in float64


def _check_product_of(f, g, limit: int) -> None:
    """A pair gives its product or is refused with a typed error before any
    work: BudgetError where the product could pass int64's or float64's
    largest value, and CoverageError.  An integer pair gives the product
    exactly, in a signed dtype, and a float pair within float64's rounding."""
    if _refused(lambda: A.dirichlet_convolve(f, g, limit), A, "_convolve"):
        return
    got = A.dirichlet_convolve(f, g, limit).values
    want = _product_reference(f, g, limit)
    if f.values.dtype.kind == g.values.dtype.kind == "i":
        assert got.dtype.kind == "i", got.dtype
        assert got.tolist() == [total for total, _, _ in want]
        return
    assert got.dtype == np.float64 and np.isfinite(got).all()
    for n, (value, (total, size, count)) in enumerate(zip(got.tolist(), want), start=1):
        assert abs(Fraction(value) - total) <= 4 * (count + 2) * EPS * size, n


@settings(max_examples=20)
@given(data=st.data())
def test_dirichlet_convolve_takes_every_dtype_pair(data):
    # one named table and one derived table of each dtype, taken in every pair
    tables = [data.draw(product_tables(dtype)) for dtype in (None, *PRODUCT_DTYPES)]
    for f in tables:
        for g in tables:
            _check_product_of(f, g, data.draw(st.integers(1, min(len(f), len(g)) + 1)))


def _check_sides_of(f, g, R: int, R1: int, U: int) -> None:
    """Both unweighted sides of the hyperbola split on (R, R1] by
    `hyperbola_sides` (R = 0, x = R1) or `hyperbola_exp_sides`, refused as
    `_check_product_of` says or equal to sum_{R < n <= R1} (f * g)(n):
    exactly, as Python ints, for an integer pair, and within float64's
    rounding of the 3 (R1 - R) terms and each one's products for a float pair."""
    def call():
        if R == 0:
            return I.hyperbola_sides(f, g, None, R1, U)
        return I.hyperbola_exp_sides(f, g, None, R, R1, U)

    if _refused(call, I, "_hyperbola_terms"):
        return
    want = _product_reference(f, g, R1)[R:]
    total, size = sum(t for t, _, _ in want), sum(s for _, s, _ in want)
    lhs, rhs, _ = call()
    if f.values.dtype.kind == g.values.dtype.kind == "i":
        assert type(lhs) is type(rhs) is int and lhs == rhs == total, (lhs, rhs, total)
        return
    terms = 3 * (R1 - R) + 2 * math.isqrt(R1) + 4
    for side in (lhs, rhs):
        assert math.isfinite(side) and abs(Fraction(side) - total) <= 4 * terms * EPS * 3 * size


@settings(max_examples=20)
@given(data=st.data())
def test_hyperbola_verifiers_take_every_dtype_pair(data):
    # the pairs of test_dirichlet_convolve_takes_every_dtype_pair; these
    # verifiers had no dtype fuzzing while a uint64 pair's overlap term,
    # negated in uint64, wrapped to sides of 5.17e20 for a sum of 207
    tables = [data.draw(product_tables(dtype)) for dtype in (None, *PRODUCT_DTYPES)]
    for f in tables:
        for g in tables:
            n = min(len(f), len(g)) + 1             # R1 one past the tables at times
            R = data.draw(st.integers(0, n - 1))    # 0: hyperbola_sides on [1, R1]
            R1 = data.draw(st.integers(R + 1, n))
            _check_sides_of(f, g, R, R1, data.draw(st.integers(1, R or R1)))


# ---------------------------------------------------------------------------
# array arguments: the values of a named kind's table

INT64_MAX = 2**63 - 1


def _range_at(name: str, n: int):
    """(floor, bound) of the CLI kind `name` at n: the largest |f(m)| over
    m <= n, -that for mu and chi_2, which take negative values, and 0 for
    the others; for Lambda 0 and (k+1) log 2 (1 + 2^-49) on [2^k, 2^(k+1))."""
    if name == "lambda":
        return 0, n.bit_length() * math.log(2) * (1 + 2**-49)
    m = A._magnitude(A.kind_from_name(name), n)
    return (-m if name in ("mu", "chi2") else 0), m


@st.composite
def named_tables(draw):
    """(name, values): a CLI kind and 1-300 values, each within its range
    at its n or, at a few drawn n, outside it at times: for an integer kind
    anywhere in int64, one past either end included; for Lambda, float64
    values in [0, bound] or NaN, +-inf, a negative value or one ulp past
    the bound."""
    name = draw(st.sampled_from(["one", "mu", "mu2", "lambda", "tau2", "tau3", "omega",
                                 "2omega", "chi2"]))
    size = draw(st.integers(1, 300))
    wild = draw(st.sets(st.integers(1, size), max_size=3))
    values = []
    for n in range(1, size + 1):
        floor, bound = _range_at(name, n)
        if name == "lambda":
            inside = st.floats(0, bound)
            past = math.nextafter(bound, math.inf)
            beyond = st.sampled_from([math.nan, math.inf, -math.inf, past]) | st.floats(max_value=-5e-324)
        else:
            inside = st.integers(floor, bound)
            beyond = st.sampled_from([floor - 1, bound + 1]) | st.integers(-INT64_MAX, INT64_MAX)
        values.append(draw(beyond if n in wild else inside))
    return name, values


@settings(max_examples=80)
@given(table=named_tables(), data=st.data())
def test_a_table_is_taken_iff_it_holds_its_kind(table, data):
    # refused when built iff some value lies outside [floor, bound] at its
    # n (NaN lies nowhere); an accepted table's sums are exact: the Python-
    # int sum, or for Lambda floor_sum_naive's correctly rounded one, by repr
    name, values = table
    kind = A.kind_from_name(name)
    ranges = [_range_at(name, n) for n in range(1, len(values) + 1)]
    held = all(floor <= v <= bound for (floor, bound), v in zip(ranges, values))
    array = np.array(values, dtype=np.float64 if name == "lambda" else np.int64)
    if not held:
        with pytest.raises(ValueError, match=f"^{kind} table holds"):
            A.SieveTable(kind, 1, array)
        return
    t = A.SieveTable(kind, 1, array)
    for x in data.draw(st.lists(st.integers(1, len(values)), min_size=1, max_size=3)):
        terms = [values[x // n - 1] for n in range(1, x + 1)]
        want = math.fsum(terms) if name == "lambda" else sum(terms)     # Python ints
        for fn in (FS.floor_sum_naive, FS.floor_sum_fast):
            got = fn(kind, x, table=t)
            assert type(got) is type(want) and repr(got) == repr(want), (fn.__name__, x)


# ---------------------------------------------------------------------------
# the defects a numpy or bool argument caused, pinned

def _flat(value, n):
    values = np.full(n, value, dtype=np.int64)
    values.flags.writeable = False
    return A.SieveTable(kind=None, lo=1, values=values)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308],
                         ids=["nan", "inf", "-inf", "1e308"])
def test_a_derived_float_table_is_refused_unless_finite_and_bounded(value):
    # NaN tables gave all-NaN products and hyperbola sides (nan, nan, nan):
    # such a table cannot be built
    if not math.isfinite(value):
        with pytest.raises(ValueError, match=f"^derived table holds {value} at n=3, "
                                             "which is not finite$"):
            A.SieveTable(None, 1, np.array([0.0, 1.0, value, 2.0]))
        return
    # 1e308 ones gave inf products with a RuntimeWarning ("overflow
    # encountered in add"); refused, with F, G and 2 isqrt(L) sums stated,
    # as their product is inf
    t, one = A.SieveTable(None, 1, np.full(50, value)), A.build_sieve(A.ONE, 1, 50)
    calls = ((lambda: A.dirichlet_convolve(t, one, 50), "[1, 50]", "1e+308 * 1 * 14"),
             (lambda: I.hyperbola_sides(one, t, None, 50, 5), "[1, 50]", "1 * 1e+308 * 2100"),
             (lambda: I.hyperbola_exp_sides(t, one, PHASE, 20, 40, 4), "[1, 40]",
              "1e+308 * 1 * 12"))
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("error")
        _no_work(mp, "_convolve")
        mp.setattr(I, "_hyperbola_terms", lambda *a: pytest.fail("work was done"))
        for call, limit, factors in calls:
            with pytest.raises(BudgetError) as refused:
                call()
            assert str(refused.value) == (f"Dirichlet product on {limit} may exceed float64 "
                                          f"(bound {factors})")


def test_hyperbola_bound_is_taken_in_python_ints(monkeypatch):
    # 3 x as int64 wrapped the guard's bound: sides of -5057542381537067008
    monkeypatch.setattr(I, "_hyperbola_terms", lambda *a: pytest.fail("work was done"))
    t = _flat(2**26, 1000)
    for x in (1000, np.int64(1000)):
        with pytest.raises(BudgetError, match="may exceed int64"):
            I.hyperbola_sides(t, t, None, x, 10)


@pytest.mark.parametrize("make, n, t, want", [
    # an int64 r made (t + a)^r wrap to 0: nan
    (lambda r: I.PhaseFunction.power_reciprocal(7, r), 3, 2**40, 5.266214691683848e-36),
    # an int64 a made q (t + a) wrap: 1.0, outside [0, 1)
    (lambda a: I.PhaseFunction.shifted_reciprocal(1.5, 3, a), 1, 2**62, 9.75781955236954e-19),
], ids=["power-r", "shifted-a"])
def test_phase_orders_are_python_ints(make, n, t, want):
    for phase in (make(n), make(np.int64(n))):
        assert type(phase.r) is int and type(phase.a) is int
        assert phase.frac(t) == want


def test_bound_check_takes_numpy_sizes():
    # R.bit_length() was an AttributeError on np.int64
    want = E.check_bound("mobius-power", 10**6, 100)
    got = E.check_bound("mobius-power", 10**6, np.int64(100))
    assert repr(got) == repr(want) and round(got.ratio, 4) == 0.0297


def test_bound_check_window_is_exact_for_a_numpy_z():
    # a numpy z took the float test: 1000^(2/3) = 99.99999999999997 < 100
    want = E.check_bound("lambda-reciprocal", 1000, 100, pair=CLASSIC)
    got = E.check_bound("lambda-reciprocal", np.int64(1000), 100, pair=CLASSIC)
    assert repr(got) == repr(want) and round(got.ratio, 4) == 0.0989
    assert type(got.parameters["z"]) is int


def test_vaughan_cutoff_square_is_not_wrapped():
    # U U as int64 wrapped to 0 and passed the window: residual 1.08
    for U in (2**32, np.int64(2**32)):
        with pytest.raises(WindowError, match="sqrt"):
            I.vaughan_mobius_sides(100, 150, U, I.PhaseFunction.reciprocal(7))


def test_type_II_budget_is_not_wrapped(monkeypatch):
    # M N as int64 wrapped to 0, passed the budget and went on to two
    # aranges of 2^32 entries
    class NoAllocation:
        def __getattr__(self, name):
            pytest.fail(f"np.{name} was called")

    monkeypatch.setattr(E, "np", NoAllocation())
    monkeypatch.setattr(I.PhaseFunction, "unit_array", lambda *a: pytest.fail("work was done"))
    for M, N in [(np.int64(2**32), np.int64(2**32)), (0, 2**40), (2**40, -1)]:
        with pytest.raises(BudgetError, match="exceeds budget"):
            E.type_II_sum(M, N, I.PhaseFunction.reciprocal(7))


def test_bool_pair_coordinates_are_refused():
    # (False, True) was built as the pair (0, 1)
    with pytest.raises(ValueError, match="need an int or float k, got False"):
        P.ExponentPair(False, True)
    with pytest.raises(ValueError, match="need an int or float l, got np.True_"):
        P.ExponentPair(0, np.True_)
    assert P.ExponentPair(np.int64(0), np.float64(1.0)) == P.ExponentPair(0, 1)


def test_bool_exponents_are_refused():
    # N=True was built as N^1, and (False, True) as the interval (0, 1)
    with pytest.raises(ValueError, match="need an int or float N, got True"):
        P.TermExponent.of(N=True)
    with pytest.raises(ValueError, match="need an int or float scale, got np.False_"):
        P.TermExponent.of(scale=np.False_, x=1)
    with pytest.raises(ValueError, match="need an int or float lo, got False"):
        P.BalanceProblem.of([], "N", (False, True))
    assert P.TermExponent.of(scale=np.int64(2), N=np.float64(0.5)) == P.TermExponent.of(2, N=0.5)


# ---------------------------------------------------------------------------
# the suite's own settings

def test_a_failing_hypothesis_test_is_an_ordinary_failure(tmp_path):
    # where libcst is installed, the Hypothesis plugin's report of a failing
    # example ended the session with INTERNALERROR under filterwarnings=error
    (tmp_path / "conftest.py").write_text(Path(__file__).with_name("conftest.py").read_text())
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings =\n    error\n")
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(n):\n    assert n < 5\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout
    assert "INTERNALERROR" not in run.stdout and "1 failed" in run.stdout, run.stdout
