"""Sieve tables, point evaluation, and Dirichlet convolution."""

import math
import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from floorsums import arith as A
from floorsums import floorsum as FS
from floorsums.errors import BudgetError, CoverageError

ALL_KINDS = [A.ONE, A.MOBIUS, A.MOBIUS_SQUARED, A.LAMBDA, A.tau(2), A.tau(3),
             A.tau(6), A.OMEGA, A.TWO_POW_OMEGA, A.CHI_TWO]


def trial_factor(n):
    """Independent factorization oracle: plain trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def reference_value(kind, n):
    """Definition-level oracle, independent of the sieve kernels."""
    f = trial_factor(n)
    exps = list(f.values())
    tag = kind.tag
    if tag == "one":
        return 1
    if tag == "mobius":
        return 0 if any(a > 1 for a in exps) else (-1) ** len(f)
    if tag == "mobius_squared":
        return 1 if all(a == 1 for a in exps) else 0
    if tag == "lambda":
        return math.log(next(iter(f))) if len(f) == 1 else 0.0
    if tag == "tau":
        v = 1
        for a in exps:
            v *= math.comb(a + kind.r - 1, kind.r - 1)
        return v
    if tag == "omega":
        return len(f)
    if tag == "two_pow_omega":
        return 2 ** len(f)
    if tag == "chi_two":
        r = math.isqrt(n)
        if r * r != n:
            return 0
        return reference_value(A.MOBIUS, r)
    raise AssertionError(tag)


def test_build_sieve_mu_squared_first_ten():
    t = A.build_sieve(A.MOBIUS_SQUARED, 1, 10)
    assert t.values.tolist() == [1, 1, 1, 0, 1, 1, 1, 0, 0, 1]


def test_build_sieve_lambda_prime_power():
    t = A.build_sieve(A.LAMBDA, 8, 8)
    assert t.values.tolist() == pytest.approx([math.log(2)])


def test_build_sieve_chi_two():
    t = A.build_sieve(A.CHI_TWO, 1, 9)
    assert t.values.tolist() == [1, 0, 0, -1, 0, 0, 0, 0, -1]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_sieve_matches_definition(kind):
    t = A.build_sieve(kind, 1, 300)
    for n in range(1, 301):
        ref = reference_value(kind, n)
        if kind.tag == "lambda":
            assert abs(t.value(n) - ref) < 1e-12, n
        else:
            assert t.value(n) == ref, n


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_sieve_offset_segment_matches_definition(kind):
    lo = 99_950
    t = A.build_sieve(kind, lo, lo + 200)
    for n in range(lo, lo + 201):
        ref = reference_value(kind, n)
        if kind.tag == "lambda":
            assert abs(t.value(n) - ref) < 1e-12, n
        else:
            assert t.value(n) == ref, n


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_sieve_past_int32_matches_eval_point(kind):
    # segments with hi >= 2^31 track their smooth parts in int64; the
    # windows near 999983^2 and the budget give the p^2, pq and prime
    # cofactors; both take log p from np.log on float64, so Lambda agrees
    # bit for bit
    for lo in (2**31 - 100, 999983**2 - 100, 10**12 - 200):
        got = A.eval_points(kind, np.arange(lo, lo + 201))
        want = A.build_sieve(kind, lo, lo + 200).values
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), lo


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_sieve_matches_eval_point_to_the_ulp(kind):
    # both take log p from np.log on float64, so Lambda agrees bit for bit;
    # math.log(285343) is one ulp off np.log's value on x86-64
    lo, hi = 280000, 300000
    got = A.eval_points(kind, np.arange(lo, hi + 1))
    want = A.build_sieve(kind, lo, hi).values
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _segment_reference(kind, lo, hi, primes):
    """The smooth-product kernel: f on [lo, hi] from one walk over the prime
    powers p^a <= hi, p in `primes`, all in int64 (Lambda float64).

    Every n starts at g(0) and moves from g(a-1) to g(a) on the multiples of
    p^a.  The walk also builds the part of n made of the primes walked;
    where that is less than n, one prime above sqrt(hi) remains, and f moves
    from g(0) to g(1) once more.  Lambda is set at the prime powers
    themselves, and at the n > 1 whose walked part is 1.
    """
    size = hi - lo + 1
    if kind.tag == "chi_two":
        val = np.zeros(size, dtype=np.int64)
        root = isqrt(hi)
        m = np.arange(isqrt(lo - 1) + 1, root + 1)
        if m.size:
            mu = _segment_reference(A.MOBIUS, 1, root, A.primes_upto(isqrt(root)))
            val[m * m - lo] = mu[m - 1]
        return val

    def advance(where, step):
        if kind.additive:
            val[where] += step
        elif step == 0:
            val[where] = 0
        else:
            val[where] *= step.numerator
            val[where] //= step.denominator

    lam = kind.tag == "lambda"
    amax = hi.bit_length() - 1
    steps = {}
    if lam:
        val = np.zeros(size, dtype=np.float64)
    else:
        g = [kind.local(a) for a in range(amax + 1)]
        for a in range(1, amax + 1):
            if g[a] != g[a - 1]:
                steps[a] = g[a] - g[a - 1] if kind.additive else Fraction(g[a], g[a - 1])
        val = np.full(size, g[0], dtype=np.int64)
        if not steps:
            return val
    residual = lam or 1 in steps
    if residual:
        smooth = np.ones(size, dtype=np.int32 if hi < 2**31 else np.int64)
    for p in primes.tolist():
        for a in range(1, amax + 1) if residual else sorted(steps):
            q = p ** a
            if q > hi:
                break
            start = -lo % q
            if start >= size:
                continue
            if residual:
                smooth[start::q] *= p
            if lam and q >= lo:
                val[q - lo] = math.log(p)
            elif a in steps:
                advance(slice(start, None, q), steps[a])
    if residual:
        n = np.arange(lo, hi + 1, dtype=smooth.dtype)
        if lam:
            large = (smooth == 1) & (n > 1)
            val[large] = np.log(n[large].astype(np.float64))
        else:
            advance(smooth < n, steps[1])
    return val


P = 5040                        # the kernel's wheel period, 2^4 3^2 5 7
KERNEL_WINDOWS = ([(1, 2**20), (2**20 + 1, 2**21)]
                  + [(2**k - 1000, 2**k + 999) for k in range(16, 31)]
                  + [(2**31 - 100, 2**31 + 100), (10**12 - 200, 10**12)]
                  + [(1, 1), (1, 2), (2, 3), (1, 10)]
                  # lo = 0, 1 and P - 1 mod P, over several periods
                  + [(200 * P + r, 203 * P + r + 17) for r in (0, 1, P - 1)]
                  # shorter than a period: inside one, and across a boundary
                  + [(3 * P + 100, 3 * P + 300), (7 * P - 100, 7 * P + 100), (P - 60, P - 1)]
                  # the primes up to isqrt(hi) reach 7 at hi = 49; below, the
                  # kernel extends them to the wheel's 2, 3, 5, 7
                  + [(1, 48), (1, 49), (1, 50), (40, 49)])


@pytest.mark.parametrize("lo, hi", KERNEL_WINDOWS)
def test_segment_kernel_matches_smooth_product_reference(lo, hi):
    # the same dtype and the same bytes as the smooth-product kernel, past
    # every binade edge of the residual test's thresholds; tau8 is the
    # widest working dtype
    primes = A.primes_upto(isqrt(hi))
    for kind in ALL_KINDS + [A.tau(8)]:
        got = A._segment_values(kind, lo, hi, primes)
        want = _segment_reference(kind, lo, hi, primes)
        assert got.dtype == want.dtype, kind
        assert got.tobytes() == want.tobytes(), kind


def test_segment_kernel_with_primes_past_hi():
    # a segment of a longer sieve walks the primes up to the whole range's
    # root, which can lie above the segment's hi
    for lo, hi in ((1, 5), (1, 15), (2, 48)):
        for kind in ALL_KINDS + [A.tau(8)]:
            got = A._segment_values(kind, lo, hi, A.primes_upto(100))
            want = _segment_reference(kind, lo, hi, A.primes_upto(100))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (kind, lo, hi)


def test_working_dtype_is_the_narrowest_that_holds_every_value():
    # |g| is non-decreasing in a for these kinds (mu and mu^2 peak at n = 1),
    # so the search's bound is the largest |f(n)| itself
    for kind in (A.MOBIUS, A.MOBIUS_SQUARED, A.tau(2), A.tau(3), A.tau(8),
                 A.OMEGA, A.TWO_POW_OMEGA):
        for bits in (4, 12, 20):
            largest = int(np.abs(A.build_sieve(kind, 1, 2**bits - 1).values).max())
            assert A._working_dtype(kind, bits) == np.min_scalar_type(-largest - 1), (kind, bits)
    # tau_64 wraps int64 at 7207200 < 2^23: refused, not wrapped
    with pytest.raises(BudgetError, match="may exceed int64"):
        A._working_dtype(A.tau(64), 23)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_main_term_constant_bits_match_reference_loop(kind):
    # four segments, the last of 5 entries, each walking the primes up to
    # isqrt(cutoff), not just up to its own isqrt(hi)
    cutoff = 3 * A.SEGMENT_SIZE + 5
    primes = A.primes_upto(isqrt(cutoff))
    parts = []
    for lo in range(1, cutoff + 1, A.SEGMENT_SIZE):
        hi = min(lo + A.SEGMENT_SIZE - 1, cutoff)
        vals = _segment_reference(kind, lo, hi, primes)
        n = np.arange(lo, hi + 1, dtype=np.float64)
        parts.append(float(np.sum(vals / (n * (n + 1)))))
    assert FS.main_term_constant(kind, cutoff)[0].hex() == math.fsum(parts).hex()


def test_value_range_invariants():
    n = 5000
    assert set(A.build_sieve(A.MOBIUS_SQUARED, 1, n).values.tolist()) <= {0, 1}
    assert set(A.build_sieve(A.MOBIUS, 1, n).values.tolist()) <= {-1, 0, 1}
    assert set(A.build_sieve(A.CHI_TWO, 1, n).values.tolist()) <= {-1, 0, 1}
    lam = A.build_sieve(A.LAMBDA, 1, n).values
    assert np.all(lam >= 0)


def test_eval_point_examples():
    assert A.eval_points(A.tau(3), np.array([4])).tolist() == [6]
    assert A.eval_points(A.OMEGA, np.array([12])).tolist() == [2]
    assert A.eval_points(A.TWO_POW_OMEGA, np.array([1])).tolist() == [1]


def test_tau3_point_matches_triple_enumeration():
    # tau_3(n) = #{(a,b,c): abc = n}
    n = (4, 12, 30, 64, 97)
    count = [sum(1 for a in range(1, v + 1) if v % a == 0
                 for b in range(1, v + 1) if (v // a) % b == 0) for v in n]
    assert A.eval_points(A.tau(3), np.array(n)).tolist() == count


def test_eval_point_agrees_with_sieve_random():
    rng = random.Random(2024)
    n = np.array([rng.randint(1, 10**5) for _ in range(10**4)])
    for kind in ALL_KINDS:
        a, b = A.build_sieve(kind, 1, 10**5).values[n - 1], A.eval_points(kind, n)
        if kind.tag == "lambda":
            assert np.max(np.abs(a - b)) < 1e-12
        else:
            assert np.array_equal(a, b)


def test_eval_point_large_arguments():
    # semiprime just under the budget: a pq cofactor after trial division
    p, q = 999983, 999979
    n = np.array([p * q])
    assert A.eval_points(A.tau(2), n).tolist() == [4]
    assert A.eval_points(A.OMEGA, n).tolist() == [2]
    assert A.eval_points(A.MOBIUS, n).tolist() == [1]
    lam = A.eval_points(A.LAMBDA, np.array([p * q, p])).tolist()
    assert lam == [0.0, pytest.approx(math.log(p))]
    assert A.eval_points(A.CHI_TWO, np.array([p * p])).tolist() == [-1]


def test_factor_budget_enforced():
    # at the budget eval_points trial-divides by the primes up to
    # cbrt(10^12) = 10^4 and leaves a cofactor that is 1, p, p^2 or pq; its
    # Miller-Rabin test and divisibility tests are exact below 2^64, and n
    # is held in int64.  The scalar references of the tests below,
    # _factor_reference and _is_prime_reference, are exact below 10007^3
    # and 2152302898747
    assert A.FACTOR_BUDGET < 10007**3
    assert A.FACTOR_BUDGET < 2_152_302_898_747
    assert A.FACTOR_BUDGET < 2**63
    assert A.eval_points(A.tau(2), np.array([10**12])).tolist() == [169]
    with pytest.raises(BudgetError):
        A.eval_points(A.tau(2), np.array([10**12 + 1]))


def test_is_prime_on_every_odd_m_of_the_one_base_set():
    m = np.arange(3, 341_531, 2)
    prime = np.isin(m, A.primes_upto(341_531))
    got = np.array([A._is_prime(v) for v in m.tolist()])
    assert np.array_equal(got, prime), m[got != prime][:5]


@pytest.mark.parametrize("m, prime", [
    # each base set's bound, composite and the first m the next set takes
    (341_531, False), (350_269_456_337, False), (55_245_642_489_451, False),
    (7_999_252_175_582_851, False), (585_226_005_592_931_977, False),
    # strong pseudoprimes to bases 2, 3, 5, 7, 11; a product of two primes near 2^32
    (2_152_302_898_747, False), (3_825_123_056_546_413_051, False),
    (4_294_967_291 * 4_294_967_279, False),
    # primes near 2^61, 2^63 and 2^64
    (2**61 - 1, True), (2**63 - 25, True), (2**64 - 59, True)])
def test_is_prime_on_bounds_pseudoprimes_and_large_primes(m, prime):
    assert A._is_prime(m) is prime


@pytest.mark.parametrize("bound", [350_269_456_337, 55_245_642_489_451])
def test_is_prime_matches_the_sieve_below_a_base_set_bound(bound):
    lo = bound - 2000
    tau2 = A.build_sieve(A.tau(2), lo, bound - 1).values
    m = np.arange(lo, bound)
    odd = m % 2 == 1
    got = [A._is_prime(v) for v in m[odd].tolist()]
    assert got == (tau2[odd] == 2).tolist()


# ---------------------------------------------------------------------------
# eval_points against scalar trial division

def _is_prime_reference(m):
    """Miller-Rabin on bases 2, 3, 5, 7, 11 (odd 11 < m < 2152302898747)."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


_PRIMES_BELOW_10007 = tuple(A.primes_upto(10**4).tolist())


def _factor_reference(n):
    """(exponents, the prime when there is exactly one) of 1 <= n <= 10^12,
    one n at a time: trial division by the primes below 10^4, then the
    cofactor, below 10007^3, is 1, p, p^2 or pq."""
    exps, prime = [], 0
    for p in _PRIMES_BELOW_10007:
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            a = 1
            while n % p == 0:
                n //= p
                a += 1
            exps.append(a)
            prime = p
    else:
        root = isqrt(n)
        if n > 1 and root * root == n:
            return exps + [2], root
        if n > 1 and not _is_prime_reference(n):
            return exps + [1, 1], 0
    if n > 1:
        exps.append(1)
        prime = n
    return exps, prime


def _values_reference(kind, factored):
    """f from each (exponents, prime) of _factor_reference."""
    if kind.tag == "lambda":
        return [float(np.log(float(p))) if len(e) == 1 else 0.0 for e, p in factored]
    g = [kind.local(a) for a in range(64)]
    combine = sum if kind.additive else math.prod
    return [combine([g[a] for a in e]) for e, _ in factored]


NINE_NAMES = ("one", "mu", "mu2", "lambda", "tau2", "tau3", "omega", "2omega", "chi2")
EDGE_POINTS = (1, 10007**2, 9973 * 10007, 999983 * 999979, 2**39, 3**25, 10**12)


@pytest.fixture(scope="module")
def factored_points():
    """50,000 seeded n in [1, 10^12], half uniform and half log-uniform,
    then the edge cases, with their reference factorizations."""
    rng = random.Random(20)
    n = [rng.randint(1, 10**12) for _ in range(25_000)]
    n += [int(10 ** rng.uniform(0, 12)) for _ in range(25_000)]
    n += EDGE_POINTS
    return np.array(n, dtype=np.int64), [_factor_reference(v) for v in n]


def _bits(values):
    return np.asarray(values).view(np.int64)


@pytest.mark.parametrize("name", NINE_NAMES)
def test_eval_points_match_scalar_trial_division(name, factored_points):
    kind = A.kind_from_name(name)
    n, factored = factored_points
    got = A.eval_points(kind, n)
    want = np.array(_values_reference(kind, factored), dtype=got.dtype)
    assert got.dtype == (np.float64 if name == "lambda" else np.int64)
    bad = np.flatnonzero(_bits(got) != _bits(want))      # Lambda bit for bit
    assert not bad.size, [(int(n[i]), got[i], want[i]) for i in bad[:5]]


@pytest.mark.parametrize("name", NINE_NAMES)
def test_eval_points_values_do_not_depend_on_the_batch(name, factored_points):
    kind = A.kind_from_name(name)
    n = factored_points[0][-400:]           # seeded log-uniform points and the edges
    whole = A.eval_points(kind, n)
    perm = np.random.default_rng(5).permutation(n.size)
    permuted = np.empty_like(whole)
    permuted[perm] = A.eval_points(kind, n[perm])
    single = [A.eval_points(kind, n[i: i + 1])[0] for i in range(n.size)]
    assert np.array_equal(_bits(permuted), _bits(whole))
    assert np.array_equal(_bits(np.array(single, dtype=whole.dtype)), _bits(whole))
    edges = A.eval_points(kind, np.array(EDGE_POINTS))
    assert np.array_equal(_bits(edges), _bits(whole[-len(EDGE_POINTS):]))


def test_eval_points_check_their_range_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started on an argument out of range")

    monkeypatch.setattr(A, "_local_values", no_work)
    monkeypatch.setattr(A, "_odd_primes", no_work)
    good = np.arange(1, 1001)
    for bad, error in ((0, ValueError), (-7, ValueError),
                       (A.FACTOR_BUDGET + 1, BudgetError), (2**70, BudgetError)):
        for kind in (A.tau(3), A.LAMBDA):
            if bad < 2**63:
                with pytest.raises(error):
                    A.eval_points(kind, np.append(good, bad))
            with pytest.raises(error):      # an object array of Python ints
                A.eval_points(kind, np.array([bad, 2 * bad], dtype=object))


@pytest.mark.parametrize("bad", [
    np.array([7.9]), np.array([7.0, 12.0]), np.array([], dtype=np.float64),
    np.array([True, False]), np.array([3, 7.9], dtype=object),
    np.array([3, Fraction(7)], dtype=object), np.array([3, True], dtype=object)],
    ids=["float", "integral-float", "empty-float", "bool", "object-float",
         "object-fraction", "object-bool"])
def test_eval_points_reject_non_integer_input(monkeypatch, bad):
    # a float would be truncated (Lambda at 7.9 read as log 7) and a bool
    # read as 1; both are refused before any work
    def no_work(*args):
        raise AssertionError("work started on a non-integer argument")

    monkeypatch.setattr(A, "_local_values", no_work)
    monkeypatch.setattr(A, "_odd_primes", no_work)
    for kind in (A.LAMBDA, A.MOBIUS, A.tau(3)):
        with pytest.raises(ValueError, match="need integer n"):
            A.eval_points(kind, bad)


def test_eval_points_accept_every_integer_dtype():
    n = np.arange(1, 200)
    want = A.build_sieve(A.MOBIUS, 1, 199).values
    for dtype in (np.int16, np.uint16, np.int32, np.uint64, object):   # object: Python ints
        assert np.array_equal(A.eval_points(A.MOBIUS, n.astype(dtype)), want), dtype


def test_divisibility_by_inverse_is_exact_below_2_64():
    # eval_points tests p | m as m p^-1 mod 2^64 <= (2^64 - 1) // p, which
    # then is m / p; exact for every m < 2^64 > FACTOR_BUDGET
    primes, inv, lim = A._odd_primes(10**4)
    p = primes.tolist()
    assert p == A.primes_upto(10**4).tolist()[1:]
    assert all(i * q % 2**64 == 1 for i, q in zip(inv.tolist(), p))
    assert lim.tolist() == [(2**64 - 1) // q for q in p]
    rng = random.Random(11)
    for q, i, l in list(zip(p, inv, lim))[::25] + [(p[-1], inv[-1], lim[-1])]:
        m = [rng.randrange(2**64) for _ in range(100)]
        m += [q * rng.randrange(2**64 // q + 1) for _ in range(100)] + [0, q, 2**64 - 1]
        t = np.array(m, dtype=np.uint64) * i
        assert (t <= l).tolist() == [v % q == 0 for v in m], q
        assert t[t <= l].tolist() == [v // q for v in m if v % q == 0], q


def test_sieve_budget_enforced():
    # refused before anything is allocated
    with pytest.raises(BudgetError):
        A.build_sieve(A.ONE, 1, 2**27 + 1)


def test_sieving_primes_are_budgeted(monkeypatch):
    # a 10-entry window at 1e16 sieved the primes up to 1e8 first: 8.4 s, 294 MiB
    from floorsums.expsum import exp_sum
    from floorsums.identities import PhaseFunction

    class Sieved(Exception):
        pass

    def no_primes(n):
        raise Sieved(n)

    monkeypatch.setattr(A, "primes_upto", no_primes)
    with pytest.raises(BudgetError, match="primes up to 100000000, beyond budget 16777216$"):
        exp_sum(A.MOBIUS, 10**16, 10**16 + 10, PhaseFunction.reciprocal(7))
    edge = (A.PRIME_BUDGET + 1) ** 2 - 1        # isqrt(edge) = PRIME_BUDGET
    for sieve in (A.build_sieve, lambda *a: next(A.iter_segment_values(*a))):
        with pytest.raises(BudgetError, match="beyond budget"):
            sieve(A.MOBIUS, edge + 1, edge + 1)
        with pytest.raises(Sieved):             # the edge is admitted
            sieve(A.MOBIUS, edge, edge)


def test_tau_order_capped():
    with pytest.raises(BudgetError):
        A.build_sieve(A.tau(9), 1, 100)
    with pytest.raises(BudgetError):
        A.eval_points(A.tau(9), np.array([12]))
    with pytest.raises(ValueError):
        A.tau(0)


def test_highest_tau_order_exact_in_sieve():
    # 7207200 = 2^5 3^2 5^2 7 11 13, where tau_64 wraps int64
    lo, hi = 7207200, 7207210
    t = A.build_sieve(A.tau(8), lo, hi)
    assert t.values.tolist() == A.eval_points(A.tau(8), np.arange(lo, hi + 1)).tolist()


def test_tau1_behaves_like_one():
    a = A.build_sieve(A.tau(1), 1, 500).values
    b = A.build_sieve(A.ONE, 1, 500).values
    assert (a == b).all()


def test_tables_immutable():
    t = A.build_sieve(A.ONE, 1, 10)
    with pytest.raises(ValueError):
        t.values[0] = 5


def test_convolution_examples():
    n = 200
    mu = A.build_sieve(A.MOBIUS, 1, n)
    one = A.build_sieve(A.ONE, 1, n)
    log_table = A.SieveTable(A.LAMBDA, 1, np.log(np.arange(1, n + 1, dtype=np.float64)))
    lam = A.dirichlet_convolve(mu, log_table, 8)
    assert lam.value(8) == pytest.approx(math.log(2))

    chi = A.build_sieve(A.CHI_TWO, 1, 20)
    t2 = A.build_sieve(A.tau(2), 1, 20)
    w = A.build_sieve(A.TWO_POW_OMEGA, 1, 20)
    assert (A.dirichlet_convolve(chi, t2, 20).values == w.values).all()

    t3 = A.build_sieve(A.tau(3), 1, 100)
    got = A.dirichlet_convolve(A.build_sieve(A.tau(2), 1, 100), one, 100)
    assert (got.values == t3.values[:100]).all()


def _convolve_reference(fv, gv, limit):
    """The product of two value arrays that start at n = 1 and read as zero
    past their ends, by one strided update per d <= limit, in ascending d."""
    out = np.zeros(limit, dtype=np.result_type(fv, gv))
    fv, gv = (np.concatenate([v[:limit], np.zeros(max(0, limit - len(v)), v.dtype)])
              for v in (fv, gv))
    for d in range(1, limit + 1):
        c = fv[d - 1]
        if c != 0:
            out[d - 1:: d] += c * gv[:limit // d]
    return out


@pytest.fixture(scope="module")
def tables_10007():
    return {kind: A.build_sieve(kind, 1, 10007) for kind in ALL_KINDS}


# perfect squares and their neighbours are where the two passes meet
@pytest.mark.parametrize("limit", [1, 2, 3, 4, 8, 9, 15, 16, 17, 24, 99, 100, 101,
                                   1000, 2025, 2047, 2048, 2049, 10007])
def test_convolution_bits_match_reference(tables_10007, limit):
    # Lambda products are float sums: equal bytes need the same order of
    # additions for every n, which approx comparisons cannot see
    for f in tables_10007.values():
        for g in tables_10007.values():
            got = A.dirichlet_convolve(f, g, limit).values
            want = _convolve_reference(f.values, g.values, limit)
            assert got.dtype == want.dtype, (f.kind, g.kind)
            assert got.tobytes() == want.tobytes(), (f.kind, g.kind)


def _support_cases(rng, limit):
    """Value arrays for the kernel: int and float, shorter than `limit`,
    all-zero, and cut below some U, as the verifiers pass them."""
    root = isqrt(limit)
    mu = A.build_sieve(A.MOBIUS, 1, limit).values
    lam = A.build_sieve(A.LAMBDA, 1, limit).values
    t3 = A.build_sieve(A.tau(3), 1, limit).values
    logs = np.log(np.arange(1, limit + 1, dtype=np.float64))
    U = rng.randint(1, root + 1)
    cut = [v.copy() for v in (mu, lam, t3, logs)]
    for v in cut:
        v[:U] = 0
    return ([mu, lam, t3, logs, mu[:root], lam[:rng.randint(0, limit)], t3[:U * U],
             logs[:1], np.zeros(limit, np.int64), np.zeros(rng.randint(0, 3)), mu[:0]]
            + cut)


@pytest.mark.parametrize("limit", [1, 2, 3, 15, 16, 17, 99, 100, 1000, 2025,
                                   2047, 2048, 2049])
def test_convolve_kernel_bits_match_reference_on_supports(limit):
    # walking only the nonzero f(d) and g(e) keeps each n's sum in ascending
    # d, so float products keep their bytes; shorter arrays read as zero
    rng = random.Random(limit)
    cases = _support_cases(rng, limit)
    for f in cases:
        for g in cases:
            got = A._convolve(f, g, limit)
            want = _convolve_reference(f, g, limit)
            assert got.dtype == want.dtype, (len(f), len(g))
            assert got.tobytes() == want.tobytes(), (len(f), len(g))


def test_convolution_coverage_checked():
    f = A.build_sieve(A.ONE, 1, 10)
    g = A.build_sieve(A.ONE, 1, 20)
    with pytest.raises(CoverageError):
        A.dirichlet_convolve(f, g, 15)
    h = A.build_sieve(A.ONE, 2, 30)
    with pytest.raises(CoverageError):
        A.dirichlet_convolve(h, g, 10)
    with pytest.raises(ValueError, match="limit >= 1"):
        A.dirichlet_convolve(f, g, 0)


def _table(value, n):
    values = np.full(n, value, dtype=np.int64)
    values.flags.writeable = False
    return A.SieveTable(kind=None, lo=1, values=values)


def test_convolution_refuses_an_int64_wrap_before_any_work(monkeypatch):
    # (f * f)(12) = 6 2^80 for f = 2^40 wrapped to all zeros; the bound
    # F G 2 isqrt(12) = 4 2^80 >= 2^63 is refused
    big = _table(2**40, 12)
    monkeypatch.setattr(A, "_convolve", lambda *a: pytest.fail("work was done"))
    with pytest.raises(BudgetError, match=r"Dirichlet product on \[1, 12\] may exceed int64"):
        A.dirichlet_convolve(big, big, 12)
    # an int32 product wraps at 2^31: 2^20 squared was all zeros too
    narrow = A.SieveTable(kind=None, lo=1, values=np.full(12, 2**20, dtype=np.int32))
    with pytest.raises(BudgetError, match="may exceed int32"):
        A.dirichlet_convolve(narrow, narrow, 12)
    monkeypatch.undo()
    # F G 2 isqrt(12) = 6 2^58 < 2^63: accepted, and exact
    small = _table(2**29, 12)
    assert A.dirichlet_convolve(small, small, 12).value(12) == 6 * 2**58
    # a float product (Lambda) is not bounded
    lam = A.build_sieve(A.LAMBDA, 1, 100)
    assert A.dirichlet_convolve(lam, lam, 100).values.dtype == np.float64


def test_convolution_bound_passes_the_library_products():
    n = 10**6
    tau3, tau8 = A.build_sieve(A.tau(3), 1, n), A.build_sieve(A.tau(8), 1, n)
    # 10^6 = 2^6 5^6 and tau_r(p^6) = C(r + 5, 5)
    assert A.dirichlet_convolve(tau3, tau3, n).value(n) == math.comb(11, 5) ** 2
    assert A.dirichlet_convolve(tau8, A.build_sieve(A.ONE, 1, n), n).value(n) == \
        math.comb(14, 8) ** 2
    # tau_8 * tau_8 at 10^6 fits int64 but its bound (5.8 2^63) does not
    with pytest.raises(BudgetError):
        A.dirichlet_convolve(tau8, tau8, n)


def test_mobius_inversion_medium_range():
    n = 10**5
    mu = A.build_sieve(A.MOBIUS, 1, n)
    one = A.build_sieve(A.ONE, 1, n)
    conv = A.dirichlet_convolve(mu, one, n)
    assert conv.value(1) == 1
    assert not conv.values[1:].any()


def test_two_pow_omega_as_divisor_sum_of_mu_squared():
    n = 3000
    mu2 = A.build_sieve(A.MOBIUS_SQUARED, 1, n)
    one = A.build_sieve(A.ONE, 1, n)
    w = A.build_sieve(A.TWO_POW_OMEGA, 1, n)
    assert (A.dirichlet_convolve(mu2, one, n).values == w.values).all()


def test_kind_parsing():
    assert A.kind_from_name("tau3") == A.tau(3)
    assert A.kind_from_name("tau:4") == A.tau(4)
    assert A.kind_from_name("mu") == A.MOBIUS
    assert A.kind_from_name("2omega") == A.TWO_POW_OMEGA
    with pytest.raises(ValueError):
        A.kind_from_name("zeta")


@pytest.mark.parametrize("call, error, message", [
    (lambda: A.FunctionKind("zeta"), ValueError, "unknown function tag 'zeta'"),
    (lambda: A.FunctionKind("mobius", 2), ValueError, "mobius takes no order parameter"),
    (lambda: A.build_sieve(A.ONE, 5, 10).value(11), CoverageError,
     r"n=11 outside table range \[5, 10\]"),
    (lambda: A.build_sieve(A.ONE, 5, 10).value(4), CoverageError, "n=4 outside"),
    (lambda: A.build_sieve(A.ONE, 5, 10).value(True), ValueError, "need integer n, got True"),
    (lambda: A.build_sieve(A.ONE, 5, 10).value(7.5), ValueError, "need integer n, got 7.5"),
    (lambda: A.build_sieve(A.ONE, 5, 10).prefix(7), CoverageError,
     r"table covers \[5, 10\], need \[1, 7\]"),
    (lambda: A.SieveTable(A.ONE, 0, np.ones(3, np.int64)), ValueError, "need lo >= 1, got lo=0"),
    (lambda: A.SieveTable(A.ONE, 1.0, np.ones(3, np.int64)), ValueError,
     "need integer lo, got 1.0"),
    (lambda: A.SieveTable(A.tau(2), 1, np.array([1.5, 2, 2, 3, 2])), ValueError,
     "tau2 table needs a 1-d int64 array, got 1-d float64"),
    (lambda: A.SieveTable(A.ONE, 1, np.ones((2, 2), np.int64)), ValueError,
     "one table needs a 1-d int64 array, got 2-d int64"),
    (lambda: A.SieveTable(A.ONE, 1, [1, 1, 1]), ValueError,
     "one table needs a 1-d int64 array, got list"),
    (lambda: A.SieveTable(A.LAMBDA, 1, np.ones(3, np.int64)), ValueError,
     "lambda table needs a 1-d float64 array, got 1-d int64"),
    (lambda: A.SieveTable(None, 1, np.ones(3, bool)), ValueError,
     "derived table needs a 1-d integer or float array, got 1-d bool"),
    (lambda: A.LAMBDA.local(1), ValueError, "Lambda has no local factor"),
    (lambda: next(A.iter_segment_values(A.ONE, 10, 9)), ValueError,
     "need 1 <= lo <= hi, got lo=10, hi=9"),
    (lambda: A.tau(2.5), ValueError, "need integer r, got 2.5"),
    (lambda: A.tau(True), ValueError, "need integer r, got True"),
], ids=["tag", "order", "above-table", "below-table", "value-bool", "value-float",
        "prefix-not-from-one", "table-from-zero", "table-lo-float", "table-float-values",
        "table-2d", "table-list", "lambda-table-int", "derived-table-bool", "lambda-local",
        "segment-range", "tau-float", "tau-bool"])
def test_malformed_inputs_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_tau_order_may_be_a_numpy_integer():
    assert A.tau(np.int64(3)) == A.tau(3)
    assert str(A.tau(np.uint8(3))) == "tau3"


def _contents(t):
    return type(t.lo), t.lo, t.hi, t.values.tolist()


_MU20, _ONE20 = A.build_sieve(A.MOBIUS, 1, 20), A.build_sieve(A.ONE, 1, 20)
RANGE_CALLS = {
    "sieve-lo": lambda v: _contents(A.build_sieve(A.MOBIUS, v, 20)),
    "sieve-hi": lambda v: _contents(A.build_sieve(A.MOBIUS, 1, v)),
    "segments-lo": lambda v: [(s, a.tolist()) for s, a in A.iter_segment_values(A.MOBIUS, v, 20)],
    "segments-hi": lambda v: [(s, a.tolist()) for s, a in A.iter_segment_values(A.MOBIUS, 1, v)],
    "convolve-limit": lambda v: _contents(A.dirichlet_convolve(_MU20, _ONE20, v)),
}


@pytest.mark.parametrize("entry", RANGE_CALLS)
@pytest.mark.parametrize("v", [True, 2.5, 10.0, Fraction(10), np.float64(10)],
                         ids=["bool", "float", "integral-float", "fraction", "numpy-float"])
def test_range_must_be_integers(monkeypatch, entry, v):
    def fail(*args):
        raise AssertionError("work was done")

    monkeypatch.setattr(A, "_segment_values", fail)
    monkeypatch.setattr(A, "_convolve", fail)
    with pytest.raises(ValueError, match="need integer (lo|hi|limit)"):
        RANGE_CALLS[entry](v)


@pytest.mark.parametrize("entry", RANGE_CALLS)
def test_range_may_be_numpy_integers(entry):
    want = RANGE_CALLS[entry](10)
    assert RANGE_CALLS[entry](np.int64(10)) == want
    assert RANGE_CALLS[entry](np.uint32(10)) == want
