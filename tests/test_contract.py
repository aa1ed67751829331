"""The argument contract of the public surface, fuzzed.

Each callable below that takes integer or real scalars is called with
arguments drawn in every form a caller may pass: numpy integers of every
width, uint64 at and above 2^63, numpy and Python floats, `Fraction`s, bools
and numpy bools.  A numpy number must act as the Python number it equals:
the call returns the same value, bit for bit and of the same types, or
raises the same typed error with the same message.  A form the argument
does not take (a bool anywhere; a float or a `Fraction` for an integer) must
be refused with ValueError, BudgetError, CoverageError or WindowError.  Any
other exception fails.  Sizes stay small (x <= 10^4, R <= 200), so that the
module runs in a few seconds.
"""

import math
import subprocess
import sys
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
from floorsums.errors import BudgetError, WindowError

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
# the defects a numpy or bool argument caused, pinned

def _flat(value, n):
    values = np.full(n, value, dtype=np.int64)
    values.flags.writeable = False
    return A.SieveTable(kind=None, lo=1, values=values)


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
