"""Floor-quotient sum evaluators, constants, and the block rearrangement."""

import math
import random
import re
import tracemalloc
from bisect import bisect_left
from fractions import Fraction
from math import isqrt

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorsums import arith as A
from floorsums import floorsum as FS
from floorsums import identities as I
from floorsums.errors import BudgetError, CoverageError

SIX_KINDS = [A.LAMBDA, A.tau(2), A.tau(3), A.MOBIUS_SQUARED, A.TWO_POW_OMEGA,
             A.OMEGA]


def brute_floor_sum(kind, x):
    """Definition-level oracle: point evaluation term by term."""
    vals = A.eval_points(kind, x // np.arange(1, x + 1)).tolist()
    return math.fsum(vals) if kind.tag == "lambda" else sum(vals)


def test_naive_examples():
    assert FS.floor_sum_naive(A.ONE, 10) == 10 == brute_floor_sum(A.ONE, 10)
    assert FS.floor_sum_naive(A.tau(2), 6) == 11 == brute_floor_sum(A.tau(2), 6)
    # x = 1: the single term f(1)
    for kind in SIX_KINDS:
        assert FS.floor_sum_naive(kind, 1) == A.eval_points(kind, np.array([1])).item()


def test_naive_matches_brute_oracle():
    rng = random.Random(5)
    for _ in range(25):
        kind = rng.choice(SIX_KINDS)
        x = rng.randint(1, 400)
        got = FS.floor_sum_naive(kind, x)
        ref = brute_floor_sum(kind, x)
        if kind.tag == "lambda":
            assert got == pytest.approx(ref, rel=1e-12)
        else:
            assert got == ref


def test_fast_examples():
    assert FS.floor_sum_fast(A.ONE, 10) == 10
    assert FS.floor_sum_fast(A.tau(2), 1) == 1
    v = FS.floor_sum_fast(A.MOBIUS_SQUARED, 10**4)
    assert v == FS.floor_sum_naive(A.MOBIUS_SQUARED, 10**4)


def test_derived_table_is_not_a_table_of_one():
    # mu * 1 is [n = 1]; read as a table of 1 it would give S_1(1000) = 500
    mu = A.build_sieve(A.MOBIUS, 1, 1000)
    one = A.build_sieve(A.ONE, 1, 1000)
    derived = A.dirichlet_convolve(mu, one, 1000)
    assert derived.kind is None
    assert isinstance(derived.value(1), int)
    with pytest.raises(ValueError):
        FS.floor_sum_fast(A.ONE, 1000, table=derived)
    with pytest.raises(ValueError):
        FS.floor_sum_naive(A.ONE, 1000, table=derived)
    assert FS.floor_sum_fast(A.ONE, 1000, table=one) == 1000


def forbid_evaluation(monkeypatch):
    """Make every sieve and point evaluation floorsum starts fail."""
    def fail(*args):
        raise AssertionError("f was evaluated")

    for name in ("build_sieve", "iter_segment_values", "eval_points"):
        monkeypatch.setattr(FS, name, fail)


@pytest.mark.parametrize("fn", [FS.floor_sum_naive, FS.floor_sum_fast], ids=["naive", "fast"])
def test_table_must_hold_the_kind_and_cover_one_to_x(monkeypatch, fn):
    x, N = 1000, isqrt(1000 // FS.SPLIT_RATIO)
    mu, one = A.build_sieve(A.MOBIUS, 1, x), A.build_sieve(A.ONE, 1, x)
    refused = [(A.dirichlet_convolve(mu, one, x), ValueError, "holds None"),
               (mu, ValueError, "holds mobius"),
               (A.build_sieve(A.ONE, 1, x - 1), CoverageError, r"\[1, 999\], need"),
               (A.build_sieve(A.ONE, 2, x), CoverageError, r"\[2, 1000\], need"),
               (A.build_sieve(A.ONE, x // N, x), CoverageError, "need"),   # the head's range
               (A.build_sieve(A.ONE, 1, x // (N + 1)), CoverageError, "need")]  # the blocks'
    wide = A.build_sieve(A.TWO_POW_OMEGA, 1, 3 * x)
    want = fn(A.TWO_POW_OMEGA, x)
    forbid_evaluation(monkeypatch)
    for table, error, message in refused:
        with pytest.raises(error, match=message):
            fn(A.ONE, x, table=table)
    # a table that covers [1, x] replaces every evaluation of f
    assert fn(A.TWO_POW_OMEGA, x, table=wide) == want
    assert fn(A.ONE, x, table=one) == x


def test_a_table_ends_where_its_values_do(monkeypatch):
    # a hand-built table of 1000 values covers [1, 1000] and nothing more
    t = A.SieveTable(kind=A.ONE, lo=1, values=np.ones(1000, dtype=np.int64))
    assert (t.hi, len(t)) == (1000, 1000)
    assert t.prefix(1000).tolist() == [1] * 1000
    with pytest.raises(CoverageError, match=r"table covers \[1, 1000\], need \[1, 1001\]"):
        t.prefix(1001)
    forbid_evaluation(monkeypatch)

    def no_product(*args):
        raise AssertionError("a Dirichlet product was formed")

    monkeypatch.setattr(A, "_convolve", no_product)
    monkeypatch.setattr(I, "_convolve", no_product)
    phase = I.PhaseFunction.reciprocal(7)
    for call in (lambda: FS.floor_sum_naive(A.ONE, 2000, table=t),
                 lambda: FS.floor_sum_fast(A.ONE, 2000, table=t),
                 lambda: A.dirichlet_convolve(t, t, 2000),
                 lambda: I.hyperbola_sides(t, t, phase, 2000, 10),
                 lambda: I.hyperbola_exp_sides(t, t, phase, 1000, 2000, 10),
                 lambda: t.value(1500)):
        with pytest.raises(CoverageError):
            call()
    assert FS.floor_sum_naive(A.ONE, 1000, table=t) == 1000
    assert FS.floor_sum_fast(A.ONE, 1000, table=t) == 1000
    assert t.value(1000) == 1


ENTRY_POINTS = {"naive": lambda x: FS.floor_sum_naive(A.tau(2), x),
                "fast": lambda x: FS.floor_sum_fast(A.tau(2), x),
                "summarize": lambda x: FS.summarize(A.tau(2), x),
                "error_scan": lambda x: FS.error_scan(A.tau(2), [1000, x])}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("x", [True, 10.5, 1e6, Fraction(10**6), np.float64(10**6)],
                         ids=["bool", "float", "integral-float", "fraction", "numpy-float"])
def test_x_must_be_an_integer(monkeypatch, entry, x):
    forbid_evaluation(monkeypatch)
    with pytest.raises(ValueError, match="need integer x"):
        ENTRY_POINTS[entry](x)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_x_may_be_a_numpy_integer(entry):
    want = ENTRY_POINTS[entry](10**5)
    assert ENTRY_POINTS[entry](np.int64(10**5)) == want
    assert ENTRY_POINTS[entry](np.uint32(10**5)) == want


def test_fast_equals_naive_all_kinds():
    rng = random.Random(11)
    for kind in SIX_KINDS + [A.ONE, A.MOBIUS, A.CHI_TWO]:
        for _ in range(10):
            x = rng.randint(1, 5000)
            a = FS.floor_sum_naive(kind, x)
            b = FS.floor_sum_fast(kind, x)
            assert repr(a) == repr(b), (kind, x)


def test_block_rearrangement_exact_100_random_triples():
    # S_f(x) = sum_{n<=N} f(floor(x/n)) + sum_d f(d) (floor(x/d) - max(N, floor(x/(d+1))))_+
    # for ANY split N, not just isqrt(x); exact integer identity
    rng = random.Random(99)
    kinds = [A.ONE, A.MOBIUS, A.MOBIUS_SQUARED, A.tau(2), A.tau(4), A.OMEGA,
             A.TWO_POW_OMEGA, A.CHI_TWO]
    for _ in range(100):
        kind = rng.choice(kinds)
        x = rng.randint(2, 10**5)
        n = rng.randint(1, x)
        assert FS.floor_sum_fast(kind, x, split=n) == FS.floor_sum_naive(kind, x)


INTEGER_KINDS = [A.ONE, A.MOBIUS, A.MOBIUS_SQUARED, A.tau(2), A.tau(3), A.OMEGA,
                 A.TWO_POW_OMEGA, A.CHI_TWO]
# the profile of conftest.py draws the same examples every run: about 1 s each (2 vCPU)
SPLIT_EXAMPLES = settings(max_examples=100)


@st.composite
def x_and_split(draw, root_at_most=False):
    """x <= 10^6 and a split N in [1, x], or in [1, isqrt(x)]."""
    x = draw(st.integers(1, 10**6))
    return x, draw(st.integers(1, isqrt(x) if root_at_most else x))


# every kind the evaluators take: the tau orders up to MAX_TAU_R and the other CLI names
EVALUATED_KINDS = [A.ONE, A.MOBIUS, A.MOBIUS_SQUARED, A.OMEGA, A.TWO_POW_OMEGA, A.CHI_TWO,
                   *map(A.tau, range(1, A.MAX_TAU_R + 1))]


# the kinds whose sieve segments come in int8 or int16 up to x = 10^7
NARROW_KINDS = [k for k in EVALUATED_KINDS if A._working_dtype(k, 24).itemsize <= 2]


def test_one_sums_to_x_through_narrow_segments():
    # one's segments are int8 ones: every chunk of up to BLOCK_CHUNK of them
    # must be summed in int64, not in the segment's own dtype
    assert A._working_dtype(A.ONE, 34) == np.int8
    for x in [10**k for k in range(11)] + [65537, 3 * 10**8 + 7, 9_999_999_967]:
        assert FS.floor_sum_fast(A.ONE, x) == x, x


@pytest.mark.parametrize("kind", NARROW_KINDS, ids=str)
def test_fast_equals_naive_on_narrow_segments(kind):
    # the naive sum forms its quotients BLOCK_CHUNK at a time and reads an
    # int8 or int16 table; the split sum streams segments in that dtype
    x = 10**6 + 2**17 * NARROW_KINDS.index(kind) * 3 + 1
    assert x > FS.BLOCK_CHUNK and A._working_dtype(kind, x.bit_length()).itemsize <= 2
    assert FS.floor_sum_fast(kind, x) == FS.floor_sum_naive(kind, x)


def _traced_peak(fn, *args) -> int:
    """The peak of memory traced while fn(*args) runs; numpy's buffers included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sums_hold_no_int64_copy_of_their_values():
    # one at 10^10 streams a 5e5-entry segment: 0.5 MB in int8, 4 MB in
    # int64 (a 5.9 MiB peak).  The naive tau3 sum at 10^6 holds f(1..x) in
    # int16 and BLOCK_CHUNK quotients at a time; three int64 arrays of x
    # entries peaked at 30.5 MiB
    assert _traced_peak(FS.floor_sum_fast, A.ONE, 10**10) < 3 * 2**20
    assert _traced_peak(FS.floor_sum_naive, A.tau(3), 10**6) < 10 * 2**20


@SPLIT_EXAMPLES
@given(st.sampled_from(INTEGER_KINDS), x_and_split())
def test_fast_equals_naive_for_any_split(kind, x_n):
    # the head, the shared blocks and the per-n range in every proportion
    x, n = x_n
    assert FS.floor_sum_fast(kind, x, split=n) == FS.floor_sum_naive(kind, x)


@SPLIT_EXAMPLES
@given(x_and_split(root_at_most=True))
def test_lambda_repr_does_not_depend_on_a_split_up_to_the_root(x_n):
    x, n = x_n
    want = FS.floor_sum_fast(A.LAMBDA, x, split=isqrt(x))
    assert repr(FS.floor_sum_fast(A.LAMBDA, x, split=n)) == repr(want)


DEGENERATE_X = [1, 2, 3] + [v for s in (5, 31, 300)
                            for v in (s * s, s * s + s - 1, s * s + s, s * s + 2 * s)]


@pytest.mark.parametrize("x", DEGENERATE_X)
def test_splits_from_the_root_on_leave_the_per_n_range_empty(x):
    root = isqrt(x)
    splits = sorted({root, root + 1, x // 2, x} & set(range(1, x + 1)))
    values = A.build_sieve(A.ONE, 1, x).values
    for n in splits:
        d0 = x // (n + 1)
        # every piece is a shared block: each carries its multiplicities
        pieces = FS._pieces(A.ONE, values, x, n, min(x // (root + 1), d0), d0)
        assert all(m is not None for _, m in pieces), n
    for kind in INTEGER_KINDS:
        want = FS.floor_sum_naive(kind, x)
        for n in splits:
            assert FS.floor_sum_fast(kind, x, split=n) == want, (kind, n)


@pytest.mark.parametrize("x", [20000, 50021])
def test_blocks_and_per_n_chunks_straddle_segments(monkeypatch, x):
    # segments of 1000 entries and chunks of 37: the shared range ends inside
    # a segment, and the per-n range of one segment spans several chunks
    monkeypatch.setattr(A, "SEGMENT_SIZE", 1000)
    monkeypatch.setattr(FS, "BLOCK_CHUNK", 37)
    for kind in INTEGER_KINDS:
        for n in (1, 7, isqrt(x // 25)):
            assert FS.floor_sum_fast(kind, x, split=n) == FS.floor_sum_naive(kind, x), (kind, n)
    want = FS.floor_sum_naive(A.LAMBDA, x)
    for n in (1, 7, isqrt(x)):
        assert repr(FS.floor_sum_fast(A.LAMBDA, x, split=n)) == repr(want), n


@pytest.mark.parametrize("split", [2.5, 2.0, np.float64(3), True, Fraction(3)],
                         ids=["float", "integral-float", "numpy-float", "bool", "fraction"])
def test_fast_split_must_be_an_integer(split):
    with pytest.raises(ValueError, match="need integer split"):
        FS.floor_sum_fast(A.tau(2), 100, split=split)


def test_fast_split_accepts_numpy_integers():
    # uint8 arithmetic would wrap at N + 1 = 256
    want = FS.floor_sum_naive(A.tau(2), 1000)
    assert FS.floor_sum_fast(A.tau(2), 1000, split=np.int64(3)) == want
    assert FS.floor_sum_fast(A.tau(2), 1000, split=np.uint8(255)) == want
    # and so may main_term_constant's cutoff, with its tail bound a Python float
    c, tail = FS.main_term_constant(A.tau(2), np.int64(2000))
    assert (c, tail) == FS.main_term_constant(A.tau(2), 2000) and type(tail) is float


def test_lambda_sum_is_split_invariant_bit_for_bit():
    # one fsum of exact terms: its rounding does not depend on the split
    rng = random.Random(17)
    for _ in range(12):
        x = int(10 ** rng.uniform(4, 6))
        want = FS.floor_sum_fast(A.LAMBDA, x)
        root = isqrt(x)
        for n in {1, root, *(rng.randint(1, root) for _ in range(4))}:
            got = FS.floor_sum_fast(A.LAMBDA, x, split=n)
            assert repr(got) == repr(want), (x, n)


def test_lambda_fast_equals_naive_at_every_split():
    # each block product f(d) m(d) enters the one fsum as exact parts, so the
    # split sum is the correctly rounded sum of the naive terms at every N
    table = A.build_sieve(A.LAMBDA, 1, 300)
    for x in range(1, 301):
        want = repr(FS.floor_sum_naive(A.LAMBDA, x, table=table))
        for n in range(1, x + 1):
            assert repr(FS.floor_sum_fast(A.LAMBDA, x, split=n, table=table)) == want, (x, n)


@pytest.mark.parametrize("x", [10**5, 10**6, 9979200])
def test_lambda_fast_equals_naive_on_both_sides_of_the_root(x):
    # 9979200 differed at the default split while the blocks had a fsum of
    # their own; a split above the root leaves the per-n range empty (those
    # are drawn below 64 roots, as every head row is one point evaluation)
    rng = random.Random(x)
    root = isqrt(x)
    want = repr(FS.floor_sum_naive(A.LAMBDA, x))
    splits = [None, 1, root, root + 1, *(rng.randint(1, root) for _ in range(4)),
              *(rng.randint(root + 2, 64 * root) for _ in range(4))]
    for n in splits:
        assert repr(FS.floor_sum_fast(A.LAMBDA, x, split=n)) == want, n


# S_f(x) at the default split, recorded before the split became cost-modelled
# and the blocks streamed; Lambda as the repr of its float, the correctly
# rounded sum of its terms (an exact Fraction sum of them)
LARGE_X_SUMS = {
    10**8 + 7: {"one": "100000007", "mu": "22408251", "mu2": "89180655",
                "lambda": "44983737.2978178", "tau2": "188093736",
                "tau3": "340514565", "omega": "59185419", "2omega": "169577318",
                "chi2": "43772165", "tau6": "1804407354"},
    10**9 + 9: {"one": "1000000009", "mu": "224083292", "mu2": "891809622",
                "lambda": "449843701.5368293", "tau2": "1880807175",
                "tau3": "3403428874", "omega": "591847295", "2omega": "1695715757",
                "chi2": "437721598", "tau6": "17844209386"},
}


@pytest.mark.parametrize("x", sorted(LARGE_X_SUMS))
def test_large_x_sums_pinned(x):
    for name, want in LARGE_X_SUMS[x].items():
        assert repr(FS.floor_sum_fast(A.kind_from_name(name), x)) == want, name


def test_blocks_span_several_segments(monkeypatch):
    x = 10**12
    assert x // (isqrt(x // FS.SPLIT_RATIO) + 1) > 4 * A.SEGMENT_SIZE
    rows = []
    points = FS.eval_points

    def counted(kind, n):
        rows.append(len(n))
        return points(kind, n)

    monkeypatch.setattr(FS, "eval_points", counted)
    assert FS.floor_sum_fast(A.ONE, x) == x
    # the head is the cost-modelled N, not isqrt(x), factored in one call
    assert rows == [isqrt(x // FS.SPLIT_RATIO)]


def test_block_sum_guards_int64():
    # a table labelled one that holds 2^62 (its naive sum wrapped to 0) or
    # 2^43 does not hold one, whose every value is 1: the int64 guards read
    # one's magnitude, not the values, so such a table cannot be built
    for value in (2**62, 2**43):
        with pytest.raises(ValueError, match=f"one table holds {value} at n=1, beyond "
                                             r"0 <= one\(m\) <= 1 for m <= n"):
            A.SieveTable(kind=A.ONE, lo=1, values=np.full(1000, value, dtype=np.int64))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, -5.0, 1e308], ids=["nan", "negative", "huge"])
def test_a_lambda_table_is_value_checked_before_any_work(value):
    # NaN summed to nan, -5.0 to -500.0, and 1e308 overflowed the split
    # fsum; such a table cannot be built, so no sum is ever asked to take it
    with pytest.raises(ValueError, match=rf"^lambda table holds {re.escape(str(value))} at "
                                         r"n=1, beyond 0 <= lambda\(m\) <= 0\.69\d* for m <= n$"):
        A.SieveTable(A.LAMBDA, 1, np.full(100, value))
    # and at n = 2^k, one ulp past the bound of its binade, lo > 1 included
    for lo in (1, 3):
        values = A.build_sieve(A.LAMBDA, lo, 100).values.copy()
        values[64 - lo] = np.nextafter(A._magnitude(A.LAMBDA, 64), math.inf)
        with pytest.raises(ValueError, match=r"at n=64, beyond 0 <= lambda\(m\) <= 4\.85"):
            A.SieveTable(A.LAMBDA, lo, values)
        values[64 - lo] = A._magnitude(A.LAMBDA, 64)
        assert A.SieveTable(A.LAMBDA, lo, values).hi == 100


def test_sieved_lambda_tables_pass_their_check():
    # log p against (k+1) log 2 at every binade, the Mersenne primes to 2^19 included
    assert A.build_sieve(A.LAMBDA, 1, 2**20).prefix(2**20)[2**19 - 2] == math.log(2**19 - 1)
    lo = 10**12 - 2**16
    assert A._beyond_magnitude(A.LAMBDA, lo, A.build_sieve(A.LAMBDA, lo, 10**12).values) is None


@pytest.mark.parametrize("x, count, bound", [
    (7 * 10**11, 699989319011, 9225075236527687680),
    (10**12, 999984741444, 13178678909321502720),
])
def test_tau8_first_block_is_refused_before_any_work(monkeypatch, x, count, bound):
    # tau_8 reaches 13178880 on [1, 2^16], the first block piece at these x;
    # the message is the one the per-piece data scan gave
    forbid_evaluation(monkeypatch)
    message = f"block sum of {count} terms may exceed int64 (bound {bound})"
    with pytest.raises(BudgetError) as refused:
        FS.floor_sum_fast(A.tau(8), x)
    assert str(refused.value) == message
    assert bound == A._magnitude(A.tau(8), FS.BLOCK_CHUNK) * count >= 2**63


def test_tau8_is_summed_just_below_the_first_block_bound():
    x = 699 * 10**9
    top = min(FS.BLOCK_CHUNK, x // (isqrt(x) + 1))
    assert A._magnitude(A.tau(8), top) * (x - x // (top + 1)) < 2**63
    # the sum the per-piece data scans accepted
    assert FS.floor_sum_fast(A.tau(8), x) == 35262055531822


@pytest.mark.parametrize("kind", EVALUATED_KINDS, ids=str)
def test_every_sum_but_the_first_block_fits_int64(kind):
    """The int64 checks of both sums refuse no sieved input but a first block.

    A table holds its kind (`SieveTable.prefix` checks it) and a sieve is the
    kind, so every value summed is at most `_magnitude(kind, n)` at its n.
    floor_sum_naive checks x <= NAIVE_BUDGET of them at `_magnitude(kind, x)`.
    In floor_sum_fast every value lies in [1, d0], d0 <= SIEVE_BUDGET; a
    per-n piece sums at most BLOCK_CHUNK terms, and a block piece past the
    first starts at d > BLOCK_CHUNK, so its multiplicities sum to at most
    x // (BLOCK_CHUNK + 1) with x <= FAST_BUDGET: `_split_sums` checks both
    counts at `_magnitude(kind, d0)`.  That start needs the sieve segments
    and the shared prefix, where block pieces also break, to be no shorter
    than BLOCK_CHUNK.  So at every budget these checks pass, and only the
    first block piece's check refuses a kind the sieve makes (tau_8 from
    x = 7.0e11 on)."""
    assert A.SEGMENT_SIZE >= FS.BLOCK_CHUNK and FS.SHARED_PREFIX >= FS.BLOCK_CHUNK
    assert A._magnitude(kind, FS.NAIVE_BUDGET) * FS.NAIVE_BUDGET < 2**63
    pieces = max(FS.BLOCK_CHUNK, FS.FAST_BUDGET // (FS.BLOCK_CHUNK + 1) + 1)
    assert A._magnitude(kind, A.SIEVE_BUDGET) * pieces < 2**63


def test_a_table_past_max_tau_r_is_bounded_by_its_magnitude():
    """No sieve makes tau_r for r > MAX_TAU_R, but a table of it is summed,
    each sum bounded by `_magnitude` at its own x."""
    r, hi = 200, 1000
    kind = A.tau(r)
    values = np.ones(hi, dtype=np.int64)
    for n in range(2, hi + 1):
        m = n
        for p in range(2, n + 1):
            a = 0
            while m % p == 0:
                m, a = m // p, a + 1
            values[n - 1] *= math.comb(a + r - 1, r - 1)
    table = A.SieveTable(kind, 1, values)
    for x in (1, 706, 917, 1000):
        want = sum(int(values[x // n - 1]) for n in range(1, x + 1))
        assert FS.floor_sum_fast(kind, x, table=table) == want
        if A._magnitude(kind, x) * x < 2**63:
            assert FS.floor_sum_naive(kind, x, table=table) == want
        else:
            bound = A._magnitude(kind, x) * x
            with pytest.raises(BudgetError, match=f"naive sum of the table may exceed int64 "
                                                  f"\\(bound {bound}\\)"):
                FS.floor_sum_naive(kind, x, table=table)
    assert A._magnitude(kind, 706) * 706 < 2**63 <= A._magnitude(kind, 917) * 917
    with pytest.raises(BudgetError, match="tau order 200"):
        FS.floor_sum_fast(kind, 100)


def test_a_later_block_piece_past_max_tau_r_is_bounded():
    # tau_1000 reaches 8.4e15 at 96 = 2^5 3 <= d0 = 142, and a later piece
    # may sum BLOCK_CHUNK terms; its first block, d <= 31, stays below 2^63
    kind = A.tau(1000)
    table = A.SieveTable(kind, 1, np.ones(1000, dtype=np.int64))
    bound = A._magnitude(kind, 142) * FS.BLOCK_CHUNK
    assert A._magnitude(kind, 31) * (1000 - 1000 // 32) < 2**63 <= bound
    with pytest.raises(BudgetError) as refused:
        FS.floor_sum_fast(kind, 1000, table=table)
    assert str(refused.value) == f"block sum of 65536 terms may exceed int64 (bound {bound})"
    assert FS.floor_sum_fast(kind, 100, table=table) == 100


@pytest.mark.parametrize("fn, x, hi", [(FS.floor_sum_naive, 100, 100),
                                       (FS.floor_sum_fast, 100, 9),
                                       (FS.floor_sum_fast, 100, 33)],
                         ids=["naive", "fast-first-block", "fast-later-pieces"])
@pytest.mark.parametrize("kind", [A.tau(3), A.ONE], ids=str)
def test_both_sums_check_their_bounds_before_any_evaluation(monkeypatch, fn, x, hi, kind):
    # each bound is one `_magnitude` lookup: at x for the naive sum, and for
    # the split at x = 100 (N = 2) at the first block's end 9 and at d0 = 33;
    # a magnitude of 2^62 there refuses the sum before f is evaluated
    forbid_evaluation(monkeypatch)
    monkeypatch.setattr(FS, "_magnitude", lambda k, top: 2**62 if top == hi else 1)
    with pytest.raises(BudgetError, match="may exceed int64"):
        fn(kind, x)


@pytest.mark.parametrize("kind", INTEGER_KINDS + [A.tau(8)], ids=str)
def test_magnitude_is_the_largest_value_sieved(kind):
    for hi in (1, 2, 5040, 65536, 720720, 10**6):
        assert A._magnitude(kind, hi) == np.abs(A.build_sieve(kind, 1, hi).values).max(), hi
    assert A._magnitude(kind, 0) == 0


@pytest.mark.parametrize("kind", INTEGER_KINDS + [A.tau(8)], ids=str)
def test_one_records_list_per_kind_serves_every_shorter_length(monkeypatch, kind):
    # the records below 2^b are a prefix of those below 2^B: the list of a
    # 24-bit walk, held once, gives what a fresh walk of exactly b bits gives
    monkeypatch.setattr(A, "_RECORDS", {})
    fresh = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(A, "_RECORD_BITS", 0)
        for bits in range(1, 25):
            A._RECORDS.clear()
            fresh[bits] = A._records(kind, bits), [A._magnitude(kind, hi) for hi in
                                                   range(1 << (bits - 1), 1 << bits, 997)]
    A._RECORDS.clear()
    held = A._records(kind, 24)
    for bits, ((ns, values), magnitudes) in fresh.items():
        got = A._records(kind, bits)
        assert got[0] is held[0]            # no second walk
        k = bisect_left(got[0], 1 << bits)
        assert (got[0][:k], got[1][:k]) == (ns, values), bits
        assert [A._magnitude(kind, hi) for hi in range(1 << (bits - 1), 1 << bits, 997)] \
            == magnitudes, bits
    assert A._records(kind, 30)[0] is not held[0] and A._RECORDS[kind][0] == 30


def test_cold_sums_up_to_1e10_walk_each_kind_once(monkeypatch):
    # a kind's first walk covers _RECORD_BITS = 20 bits, and a sum up to
    # 1e10 asks for 14, 16 and 19 bits: each kind is walked once
    walks = []

    class Walks(dict):
        def __setitem__(self, kind, held):
            walks.append(kind)
            super().__setitem__(kind, held)

    monkeypatch.setattr(A, "_RECORDS", Walks())
    A._working_dtype.cache_clear()
    A._wheel_period.cache_clear()
    for x in (10**2, 10**5, 10**8, 3 * 10**9, 10**10):
        for kind in INTEGER_KINDS + [A.LAMBDA]:
            FS.summarize(kind, x)
    assert sorted(walks, key=str) == sorted(INTEGER_KINDS, key=str)


@pytest.mark.parametrize("kind", [k for k in EVALUATED_KINDS if not k.additive], ids=str)
def test_the_tail_telescopes_iff_every_local_factor_is_at_most_one(kind):
    # the test reads one magnitude, |f(n)| <= 1 on n <= 16, where it read
    # every local factor g(0..63); the additive omega takes its own bound
    telescoped = all(abs(kind.local(a)) <= 1 for a in range(64))
    for cutoff in (1000, 10**8):
        assert (FS._tail_bound(kind, cutoff) == 1.0 / (cutoff + 1)) == telescoped, cutoff


def test_a_second_sum_on_a_table_scans_nothing(monkeypatch):
    scans = []

    def counted(name, fn):
        def call(*args):
            scans.append(name)
            return fn(*args)
        return call

    for name in ("_beyond_magnitude", "_abs_max"):
        monkeypatch.setattr(A, name, counted(name, getattr(A, name)))
    table = A.build_sieve(A.tau(3), 1, 10**4)
    assert scans == ["_beyond_magnitude"]       # building a table checks it, once
    scans.clear()
    want = FS.floor_sum_naive(A.tau(3), 100)
    assert scans == ["_beyond_magnitude"]       # the naive sum's own sieve
    scans.clear()
    assert FS.floor_sum_fast(A.tau(3), 100, table=table) == want
    for x in (100, 10**4):
        assert FS.floor_sum_fast(A.tau(3), x, table=table) == \
            FS.floor_sum_naive(A.tau(3), x, table=table)
    assert scans == []


def psi(x, d):
    """psi(x/d) = {x/d} - 1/2 as an exact rational, for integers x, d."""
    return Fraction(x % d, d) - Fraction(1, 2)


def test_quotient_multiplicity_psi_reconstruction():
    # per-d exact identity: x/(d(d+1)) + psi(x/(d+1)) - psi(x/d)
    #                        = floor(x/d) - floor(x/(d+1))
    rng = random.Random(3)
    for _ in range(200):
        x = rng.randint(2, 10**6)
        d = rng.randint(1, x)
        lhs = Fraction(x, d * (d + 1)) + psi(x, d + 1) - psi(x, d)
        assert lhs == x // d - x // (d + 1)


def test_budgets():
    with pytest.raises(BudgetError):
        FS.floor_sum_naive(A.ONE, 10**7 + 1)
    with pytest.raises(BudgetError):
        FS.floor_sum_fast(A.ONE, 10**12 + 1)
    with pytest.raises(BudgetError):    # 5e11 block entries
        FS.floor_sum_fast(A.ONE, 10**12, split=1)
    # below the range is an argument error, not a budget one
    for x in (0, -5):
        with pytest.raises(ValueError, match="x >= 1"):
            FS.floor_sum_fast(A.ONE, x)
        with pytest.raises(ValueError, match="x >= 1"):
            FS.floor_sum_naive(A.ONE, x)


def test_main_term_constant_one_telescopes():
    for cutoff in (10**3, 10**5, 10**6):
        c, tail = FS.main_term_constant(A.ONE, cutoff)
        assert c == pytest.approx(1 - 1 / (cutoff + 1), abs=1e-12)
        assert abs(1 - c) <= tail + 1e-12
        assert tail >= 0


def test_main_term_constant_lambda_stable():
    c1, tail1 = FS.main_term_constant(A.LAMBDA, 10**7)
    c2, _ = FS.main_term_constant(A.LAMBDA, 2 * 10**7)
    assert abs(c1 - c2) <= 1e-6
    assert abs(c1 - c2) <= tail1


def test_main_term_constant_mu2_within_tail():
    c1, tail1 = FS.main_term_constant(A.MOBIUS_SQUARED, 10**6)
    c2, _ = FS.main_term_constant(A.MOBIUS_SQUARED, 10**7)
    assert abs(c1 - c2) <= tail1


@pytest.mark.parametrize("kind", [A.tau(2), A.tau(5), A.TWO_POW_OMEGA, A.OMEGA,
                                  A.LAMBDA], ids=str)
def test_tail_bound_covers_observed_drift(kind):
    c1, tail = FS.main_term_constant(kind, 10**4)
    c2, _ = FS.main_term_constant(kind, 10**6)
    assert abs(c1 - c2) <= tail


def test_monotone_constant_convergence():
    # partial sums are nondecreasing in the cutoff for nonnegative f
    for kind in (A.ONE, A.tau(2), A.TWO_POW_OMEGA, A.OMEGA, A.LAMBDA,
                 A.MOBIUS_SQUARED):
        prev = -1.0
        for cutoff in (10**3, 10**4, 10**5):
            c, _ = FS.main_term_constant(kind, cutoff)
            assert c >= prev
            prev = c


def test_main_term_constant_cutoff_guard():
    with pytest.raises(ValueError):
        FS.main_term_constant(A.ONE, 100)


def test_main_term_constant_cutoff_budget_rejected_before_any_segment(monkeypatch):
    def no_segment(*args):
        raise AssertionError("a segment was sieved")

    monkeypatch.setattr(FS, "iter_segment_values", no_segment)
    for cutoff in (FS.CUTOFF_BUDGET + 1, 10**12):
        with pytest.raises(BudgetError, match="cutoff <= 1000000000"):
            FS.main_term_constant(A.LAMBDA, cutoff)
    with pytest.raises(AssertionError, match="a segment was sieved"):
        FS.main_term_constant(A.LAMBDA, FS.CUTOFF_BUDGET)   # the edge is admitted


def test_summarize_checks_the_cutoff_before_the_sum(monkeypatch):
    def no_sum(*args):
        raise AssertionError("the sum was evaluated")

    monkeypatch.setattr(FS, "floor_sum_fast", no_sum)
    with pytest.raises(BudgetError, match="cutoff <= 1000000000"):
        FS.summarize(A.tau(3), 10**11, cutoff=10**12)


def test_summarize_checks_x_before_any_constant(monkeypatch):
    def no_segment(*args):
        raise AssertionError("a segment was sieved")

    monkeypatch.setattr(FS, "iter_segment_values", no_segment)
    for cutoff in (None, 10**7):
        with pytest.raises(BudgetError, match="naive evaluation limited to x <= 10000000"):
            FS.summarize(A.tau(3), 10**8, method="naive", cutoff=cutoff)
        with pytest.raises(BudgetError, match="fast evaluation limited to x <= 1000000000000$"):
            FS.summarize(A.tau(3), 10**13, cutoff=cutoff)
        with pytest.raises(ValueError, match="x >= 1"):
            FS.summarize(A.MOBIUS, 0, cutoff=cutoff)


def test_error_scan_checks_every_grid_point_before_the_constant(monkeypatch):
    def no_segment(*args):
        raise AssertionError("a segment was sieved")

    def no_series(*args):
        raise AssertionError("the series constant was computed")

    monkeypatch.setattr(FS, "iter_segment_values", no_segment)
    monkeypatch.setattr(FS, "series_constant", no_series)
    for cutoff in (None, 10**7):
        with pytest.raises(BudgetError, match="fast evaluation limited to x <= 1000000000000$"):
            FS.error_scan(A.tau(3), [1000, 10**12, 10**12 + 1], cutoff=cutoff)
        with pytest.raises(ValueError, match="x >= 1"):
            FS.error_scan(A.tau(3), [0, 1000], cutoff=cutoff)


# ---------------------------------------------------------------------------
# error_scan's one pass over its grid

NINE_NAMES = ("one", "mu", "mu2", "lambda", "tau2", "tau3", "omega", "2omega", "chi2")
SCAN_GRIDS = [
    [1000, 1624, 2637, 4281, 6952, 11288, 18330, 29764, 48329, 78476, 127427, 206914,
     335982, 545559, 885867, 1438450, 2335721, 3792690, 6158482, 10000000],  # 1000:10000000:20
    list(range(1, 60)),
    [1, 2, 3, 24, 25, 26, 100, 1000],
    # d0 passes SHARED_PREFIX, and the streamed rest of it a segment boundary
    [10**9, 3 * 10**10 + 1, 10**11 + 7],
]


def _typed(sums):
    return [(type(s), repr(s)) for s in sums]


@pytest.mark.parametrize("name", NINE_NAMES + ("tau4",))
def test_grid_sums_are_floor_sum_fast_bit_for_bit(name):
    # floor_sum_fast with and without a table, at the default split and at a second one
    kind = A.kind_from_name(name)
    table = A.build_sieve(kind, 1, 10**6)
    rng = random.Random(34)
    seeded = sorted({int(10 ** rng.uniform(0, 11)) for _ in range(4)})
    for grid in SCAN_GRIDS + [seeded]:
        want = _typed(FS._split_sums(kind, grid))
        for x, sum_x in zip(grid, want):
            for split in (None, max(1, isqrt(x // 100))):
                assert _typed([FS.floor_sum_fast(kind, x, split)]) == [sum_x], (x, split)
                if x <= 10**6:
                    got = FS.floor_sum_fast(kind, x, split, table)
                    assert _typed([got]) == [sum_x], (x, split, "table")


@settings(max_examples=40)
@given(st.sampled_from(NINE_NAMES),
       st.lists(st.integers(1, 10**7), min_size=2, max_size=5, unique=True).map(sorted),
       st.sampled_from([1, 40, FS.HEAD_ROWS]), st.sampled_from([1, 100, FS.SHARED_PREFIX]))
def test_grid_sums_equal_per_point_sums(name, grid, head_rows, prefix):
    kind = A.kind_from_name(name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FS, "HEAD_ROWS", head_rows)
        mp.setattr(FS, "SHARED_PREFIX", prefix)
        got = FS._split_sums(kind, grid)
    assert _typed(got) == _typed([FS.floor_sum_fast(kind, x) for x in grid])


def test_one_point_streams_its_whole_range_and_sieves_no_prefix(monkeypatch):
    # a prefix shared with no other point would walk every sieving prime twice
    streamed = []
    segments = FS.iter_segment_values
    monkeypatch.setattr(FS, "build_sieve", lambda *args: pytest.fail("a prefix was sieved"))
    monkeypatch.setattr(FS, "iter_segment_values",
                        lambda k, lo, hi: streamed.append((lo, hi)) or segments(k, lo, hi))
    for x in (10**5, 10**10):       # d0 below and above SHARED_PREFIX
        streamed.clear()
        FS.floor_sum_fast(A.tau(3), x)
        assert streamed == [(1, x // (isqrt(x // FS.SPLIT_RATIO) + 1))], x


def test_scan_groups_its_heads_and_sieves_one_prefix(monkeypatch):
    rows, built, streamed = [], [], []
    eval_points, build_sieve, segments = FS.eval_points, FS.build_sieve, FS.iter_segment_values
    monkeypatch.setattr(FS, "eval_points", lambda k, n: rows.append(len(n)) or eval_points(k, n))
    monkeypatch.setattr(FS, "build_sieve",
                        lambda k, lo, hi: built.append((lo, hi)) or build_sieve(k, lo, hi))
    monkeypatch.setattr(FS, "iter_segment_values",
                        lambda k, lo, hi: streamed.append((lo, hi)) or segments(k, lo, hi))
    monkeypatch.setattr(FS, "HEAD_ROWS", 20)
    monkeypatch.setattr(FS, "SHARED_PREFIX", 100)
    # heads of 6, 8, 14 and 63 rows, d0 = 142, 222, 333 and 1562
    FS.error_scan(A.MOBIUS, [1000, 2000, 5000, 10**5])
    assert rows == [14, 14, 63]         # the last head is above HEAD_ROWS: alone
    assert built == [(1, 100)]
    assert streamed == [(101, 142), (101, 222), (101, 333), (101, 1562)]
    rows[:], built[:], streamed[:] = [], [], []
    FS.error_scan(A.MOBIUS, [300, 500])     # d0 = 75 and 100: the prefix covers both
    assert (rows, built, streamed) == ([7], [(1, 100)], [])


# ---------------------------------------------------------------------------
# the Dirichlet-series constant

SERIES_KINDS = [A.ONE, A.MOBIUS, A.MOBIUS_SQUARED, A.LAMBDA, *map(A.tau, range(1, 9)),
                A.OMEGA, A.TWO_POW_OMEGA, A.CHI_TWO]


def _dirichlet_series(kind, s):
    """D_f(s) = sum f(n) n^-s in mpmath, from zeta, zeta' and primezeta."""
    z = mp.zeta
    return {"one": lambda: z(s), "mobius": lambda: 1 / z(s),
            "mobius_squared": lambda: z(s) / z(2 * s),
            "lambda": lambda: -z(s, 1, 1) / z(s), "tau": lambda: z(s) ** kind.r,
            "omega": lambda: z(s) * mp.primezeta(s),
            "two_pow_omega": lambda: z(s) ** 2 / z(2 * s),
            "chi_two": lambda: 1 / z(2 * s)}[kind.tag]()


def _reference_constant(kind):
    """C_f = f(1)/2 + sum_{k>=2} (-1)^k (D_f(k) - f(1)) at 50 digits; the
    terms past k = 200 are below 8 * 2^-200."""
    f1 = A.eval_points(kind, np.array([1])).item()
    return mp.mpf(f1) / 2 + mp.fsum((-1) ** k * (_dirichlet_series(kind, k) - f1)
                                    for k in range(2, 201))


@pytest.mark.parametrize("kind", SERIES_KINDS, ids=str)
def test_series_constant_is_within_its_bound_of_mpmath(kind):
    value, bound = FS.series_constant(kind)
    assert 0 < bound <= 1e-12
    with mp.workdps(50):
        assert abs(mp.mpf(value) - _reference_constant(kind)) <= bound


@pytest.mark.parametrize("kind", SERIES_KINDS, ids=str)
def test_series_constant_lies_within_the_sieved_tail(kind):
    value, bound = FS.series_constant(kind)
    for cutoff in (10**3, 10**4, 10**5, 10**6):
        c, tail = FS.main_term_constant(kind, cutoff)
        assert abs(value - c) <= tail + bound
        if kind not in (A.MOBIUS, A.CHI_TWO):       # f >= 0: partial sums from below
            assert c <= value + bound


@pytest.mark.parametrize("K", [6, 12])
def test_series_constant_cut_early_is_within_its_bound(monkeypatch, K):
    # at small K the bound on the terms k > K, 2^(1-K) sum |f(n)| n^-2,
    # dominates; omega's prime zeta table needs K >= 64 and is left out
    monkeypatch.setattr(FS, "_SERIES_K", K)
    FS._series_table.cache_clear()
    try:
        with mp.workdps(50):
            for kind in SERIES_KINDS:
                if kind != A.OMEGA:
                    value, bound = FS.series_constant(kind)
                    assert abs(mp.mpf(value) - _reference_constant(kind)) <= bound, kind
    finally:
        FS._series_table.cache_clear()       # no table outlives the patch


@pytest.mark.parametrize("N", [FS._EM_N, 3, 2])
def test_zeta_sums_are_within_their_bounds(monkeypatch, N):
    # at N = 2 and 3 the Euler-Maclaurin remainder dominates the bound
    monkeypatch.setattr(FS, "_EM_N", N)
    s = np.arange(2.0, 2 * FS._SERIES_K + 1)
    with mp.workdps(60):
        for log_weight, ref in ((False, lambda t: mp.zeta(t) - 1),
                                (True, lambda t: -mp.zeta(t, 1, 1))):
            got = FS._zeta_sums(s, log_weight)
            for t, v, e in zip(s.astype(int).tolist(), got.v, got.e):
                assert 0 < e and abs(mp.mpf(v) - ref(t)) <= e, (log_weight, t)


def test_series_tables_are_built_once_and_read_only(monkeypatch):
    calls = {"_zeta_sums": 0, "_prime_zeta": 0}

    def counted(name):
        real = getattr(FS, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(FS, name, counted(name))
    backward = [k for k in reversed(SERIES_KINDS) if k != A.OMEGA]
    got = {}
    try:
        for order in (SERIES_KINDS, [A.OMEGA, *backward]):     # "prime" builds "zeta" first
            FS._series_table.cache_clear()
            calls.update(dict.fromkeys(calls, 0))
            for kind in order:
                got.setdefault(kind, set()).add(repr(FS.series_constant(kind)))
            assert calls == {"_zeta_sums": 2, "_prime_zeta": 1}
    finally:
        FS._series_table.cache_clear()       # no table outlives the patch
    assert all(len(reprs) == 1 for reprs in got.values())
    for name in ("zeta", "log", "prime"):
        table = FS._series_table(name)
        for a in (table.v, table.e):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


def test_series_literals():
    for j, c in enumerate(FS._EM_COEFFS, start=1):
        assert c == float(mp.bernoulli(2 * j) / mp.factorial(2 * j))


@pytest.mark.parametrize("kind", SERIES_KINDS, ids=str)
def test_tail_bound_without_a_cutoff_is_the_series_bound(kind):
    assert FS._tail_bound(kind, None) == FS.series_constant(kind)[1]


@pytest.mark.parametrize("kind", SERIES_KINDS, ids=str)
def test_error_scan_defaults_to_the_series_constant(monkeypatch, kind):
    def no_sieve(*args):
        raise AssertionError("the constant was sieved")

    monkeypatch.setattr(FS, "main_term_constant", no_sieve)
    value, bound = FS.series_constant(kind)
    fit = FS.error_scan(kind, [1000, 2000])
    assert (fit.constant.hex(), fit.constant_tail_bound) == (value.hex(), bound)
    assert fit.residuals == tuple(abs(float(FS.floor_sum_fast(kind, x)) - x * value)
                                  for x in (1000, 2000))


def test_series_constant_needs_a_supported_tau_order():
    with pytest.raises(BudgetError, match="tau order 9"):
        FS.series_constant(A.tau(A.MAX_TAU_R + 1))


def test_summarize_defaults_to_the_series_constant(monkeypatch):
    def no_sieve(*args):
        raise AssertionError("the constant was sieved")

    monkeypatch.setattr(FS, "main_term_constant", no_sieve)
    rep = FS.summarize(A.tau(3), 10**5)
    assert (rep.constant, rep.constant_tail_bound) == FS.series_constant(A.tau(3))
    assert rep.residual == rep.sum - 10**5 * rep.constant


def test_full_bookkeeping_identity():
    # head + x * partial-C + head psi terms + psi correction - clip delta == S,
    # every piece exact rational
    for kind, x, n in [(A.tau(2), 10**4, 25), (A.MOBIUS_SQUARED, 8000, 22),
                       (A.TWO_POW_OMEGA, 6000, 20)]:
        s = FS.floor_sum_naive(kind, x)
        tab = A.build_sieve(kind, 1, x)
        head = sum(tab.value(x // m) for m in range(1, n + 1))
        d_hi = x // n
        partial_c = sum(Fraction(tab.value(d), d * (d + 1)) for d in range(1, d_hi + 1))
        psi_small = sum(tab.value(d) * (psi(x, d + 1) - psi(x, d))
                        for d in range(1, n + 1))
        psi_corr = sum(tab.value(d) * (psi(x, d + 1) - psi(x, d))
                       for d in range(n + 1, d_hi + 1))
        # unclipped block count minus the true (n > N)-restricted count
        d0 = x // (n + 1)
        clipped = sum(tab.value(d) * max(0, x // d - max(n, x // (d + 1)))
                      for d in range(1, d0 + 1))
        unclipped = sum(tab.value(d) * (x // d - x // (d + 1))
                        for d in range(1, d_hi + 1))
        clip_delta = unclipped - clipped
        total = head + x * partial_c + psi_small + psi_corr - clip_delta
        assert total == s


def test_error_scan_needs_grid():
    with pytest.raises(ValueError):
        FS.error_scan(A.tau(2), [1000])
    with pytest.raises(ValueError):
        FS.error_scan(A.tau(2), [1000, 1000])


def test_error_scan_shape_and_slope():
    fit = FS.error_scan(A.MOBIUS_SQUARED, [10**3, 3 * 10**3, 10**4, 10**5],
                        cutoff=10**6)
    assert len(fit.grid) == len(fit.residuals) == 4
    assert all(r >= 0 for r in fit.residuals)
    assert math.isfinite(fit.slope) and math.isfinite(fit.intercept)
    assert ((fit.constant, fit.constant_tail_bound)
            == FS.main_term_constant(A.MOBIUS_SQUARED, 10**6))


def test_summarize_report_fields():
    rep = FS.summarize(A.tau(2), 10**4, method="fast", cutoff=10**5)
    assert rep.sum == FS.floor_sum_naive(A.tau(2), 10**4)
    assert isinstance(rep.sum, int)
    assert rep.residual == pytest.approx(rep.sum - rep.x * rep.constant)
    assert rep.constant_tail_bound >= 0


@pytest.mark.parametrize("call, message", [
    (lambda: FS.floor_sum_fast(A.ONE, 100, split=0), r"split must lie in \[1, x\], got 0"),
    (lambda: FS.floor_sum_fast(A.ONE, 100, split=101), "got 101"),
    (lambda: FS.summarize(A.ONE, 100, method="exact"), "unknown method 'exact'"),
    (lambda: FS.main_term_constant(A.ONE, 2000.5), "need integer cutoff, got 2000.5"),
], ids=["split-0", "split-above-x", "method", "cutoff-float"])
def test_malformed_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
