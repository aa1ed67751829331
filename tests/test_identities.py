"""Vaughan decompositions and hyperbola identities, verified exactly."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from floorsums import arith as A
from floorsums import identities as I
from floorsums.errors import BudgetError, CoverageError, WindowError


def rel(residual, lhs):
    return residual / (1 + abs(lhs))


# ---------------------------------------------------------------------------
# phases

def test_phase_forms_and_exact_reduction():
    ph = I.PhaseFunction.reciprocal(10**12 + 7)
    # exact mod-1 reduction: huge z keeps full precision
    assert ph.frac(3) == pytest.approx(((10**12 + 7) % 3) / 3, abs=0)
    ph = I.PhaseFunction.power_reciprocal(999999937, 2)
    assert ph.frac(10) == (999999937 % 100) / 100
    ph = I.PhaseFunction.shifted_reciprocal(3, 100, 1)
    assert ph.frac(9) == (300 % 10) / 10
    # float parameters reduce through exact rational arithmetic
    ph = I.PhaseFunction.reciprocal(2.5)
    assert ph.frac(2) == 0.25
    ph = I.PhaseFunction.opaque(lambda t: 1.75 * t)
    assert ph.frac(2) == pytest.approx(0.5)


def test_frac_matches_exact_rational_reference():
    # one formula, z = p/q by as_integer_ratio, for int and float z alike
    rng = random.Random(31)
    for _ in range(3000):
        scale = 10 ** rng.randint(0, 30)
        z = rng.randint(0, scale) if rng.random() < 0.5 else rng.uniform(0, scale)
        t, a, r = rng.randint(1, 10**6), rng.randint(0, 1), rng.randint(1, 4)
        ph = I.PhaseFunction(form="power_reciprocal", z=z, r=r, a=a)
        assert repr(ph.frac(t)) == repr(float((Fraction(z) / (t + a) ** r) % 1))


def test_phase_validation():
    with pytest.raises(ValueError):
        I.PhaseFunction.reciprocal(-1)
    with pytest.raises(ValueError):
        I.PhaseFunction.power_reciprocal(5, 0)
    with pytest.raises(ValueError):
        I.PhaseFunction.shifted_reciprocal(1, 1, 2)


@pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan])
def test_phase_rejects_non_finite_sizes(v):
    for make in (lambda: I.PhaseFunction.reciprocal(v),
                 lambda: I.PhaseFunction.power_reciprocal(v, 2),
                 lambda: I.PhaseFunction.shifted_reciprocal(v, 10, 0),
                 lambda: I.PhaseFunction.shifted_reciprocal(3, v, 1),
                 lambda: I.PhaseFunction.shifted_reciprocal(0, v, 0)):
        with pytest.raises(ValueError, match="< inf"):
            make()


def test_phase_sizes_may_be_numpy_numbers():
    # converted to Python numbers, so as_integer_ratio and int arithmetic apply
    got = I.PhaseFunction.reciprocal(np.int64(2**62)).unit_array(np.array([3]))
    assert got.tobytes() == I.PhaseFunction.reciprocal(2**62).unit_array(np.array([3])).tobytes()
    ph = I.PhaseFunction.reciprocal(np.uint64(2**63 + 1))
    assert type(ph.z) is int and ph.frac(3) == ((2**63 + 1) % 3) / 3
    assert type(I.PhaseFunction.power_reciprocal(np.float64(2.5), 2).z) is float
    # an int64 product h x would wrap at 2^63
    assert I.PhaseFunction.shifted_reciprocal(np.int64(2**40), np.int64(2**40), 1).z == 2**80


@pytest.mark.parametrize("make", [
    lambda: I.PhaseFunction.reciprocal(True),
    lambda: I.PhaseFunction.power_reciprocal(np.True_, 2),
    lambda: I.PhaseFunction.shifted_reciprocal(True, 10, 0),
    lambda: I.PhaseFunction.shifted_reciprocal(3, False, 1),
], ids=["reciprocal", "power", "shifted-h", "shifted-x"])
def test_phase_sizes_refuse_bools(make):
    # True would pass for z = 1
    with pytest.raises(ValueError, match="need an int or float"):
        make()


def test_shifted_phase_rejects_overflowing_product():
    with pytest.raises(ValueError, match="< inf"):
        I.PhaseFunction.shifted_reciprocal(1e200, 1e200, 0)
    # an int z of any size is finite
    assert I.PhaseFunction.reciprocal(10**400).frac(3) == (10**400 % 3) / 3


def test_unit_array_matches_scalar_path():
    rng = random.Random(12)
    for _ in range(20):
        ph = I.random_phase(rng)
        t = np.array([rng.randint(1, 10**6) for _ in range(50)], dtype=np.int64)
        arr = ph.unit_array(t)
        ref = np.array([ph.unit(int(v)) for v in t])
        assert np.allclose(arr, ref, atol=1e-12)


def _assert_unit_array_matches_unit(ph, t):
    ref = np.array([ph.unit(int(v)) for v in t])
    assert np.abs(ph.unit_array(t) - ref).max() <= 1e-12


def test_unit_array_does_not_wrap_int64():
    # 112^10 > 2^63: an int64 test of t^r wraps and picks the vector path
    ph = I.PhaseFunction.power_reciprocal(2**61 + 1, 10)
    _assert_unit_array_matches_unit(ph, np.arange(24, 113, dtype=np.int64))


def test_unit_array_tests_the_largest_entry_not_the_last():
    rng = random.Random(3)
    t = np.array([rng.randint(1, 10**5) for _ in range(200)] + [10**5, 7],
                 dtype=np.int64)
    _assert_unit_array_matches_unit(I.PhaseFunction.power_reciprocal(987654321, 4), t)


@pytest.mark.parametrize("ph, t", [
    # 37^10 < 2^53 < 40^10 and 70^10 < 2^62: phases on both sides of 2^53
    (I.PhaseFunction.power_reciprocal(10**18 + 12345, 10), range(30, 38)),
    (I.PhaseFunction.power_reciprocal(10**18 + 12345, 10), range(40, 71)),
    (I.PhaseFunction.power_reciprocal(10**18 + 12345, 10), range(30, 71)),
    (I.PhaseFunction.reciprocal(2**61 + 12345), range(2**53 - 40, 2**53)),
    (I.PhaseFunction.reciprocal(2**61 + 12345), range(2**53 - 20, 2**53 + 21)),
    (I.PhaseFunction.shifted_reciprocal(3, 2**60 + 1, 1), range(2**53 - 20, 2**53 + 21)),
    # an opaque phase is reduced per entry by frac's formula
    (I.PhaseFunction.opaque(lambda t: 123.25 * math.sqrt(t) + 987654.5 / t), range(1, 501)),
    # the suite's draw of the same form is taken in float64 arrays
    (I.PhaseFunction.opaque(I._SqrtPhase(123.25, 987654.5)), range(1, 1001)),
    (I.PhaseFunction.opaque(I._SqrtPhase(999.9, 0.1)), range(2**53 - 20, 2**53 + 21)),
], ids=lambda v: f"{v.start}..{v.stop - 1}" if isinstance(v, range) else v.form)
def test_unit_array_equals_frac_bit_for_bit(ph, t):
    # converting an int64 above 2^53 to float64 rounds, so the int64 path
    # must not take (t + a)^r past 2^53
    want = np.exp(1j * I.TWO_PI * np.array([ph.frac(v) for v in t]))
    assert ph.unit_array(np.array(t, dtype=np.int64)).tobytes() == want.tobytes()


def _frac_units(ph, t):
    return np.exp(1j * I.TWO_PI * np.array([ph.frac(int(v)) for v in t], dtype=np.float64))


def test_unit_array_equals_frac_for_float_z():
    # a float z = p/q takes the same exact int64 path as an int z
    rng = random.Random(53)
    for _ in range(60):
        z = rng.uniform(0, 10 ** rng.randint(0, 15))
        t = np.array(rng.sample(range(1, 10**6), 40) + [10**6], dtype=np.int64)
        for ph in (I.PhaseFunction.reciprocal(z),
                   *(I.PhaseFunction.power_reciprocal(z, r) for r in (1, 2, 3)),
                   *(I.PhaseFunction.shifted_reciprocal(rng.uniform(1, 100), z, a)
                     for a in (0, 1))):
            assert ph.unit_array(t).tobytes() == _frac_units(ph, t).tobytes(), ph


@pytest.mark.parametrize("ph, t_max", [
    # q (t_max + a)^r on both sides of 2^53, exactly 2^53 - 1 and 2^53 where
    # q and r allow it; q is 1, 2 or 4 for these z
    (I.PhaseFunction.reciprocal(1e15 + 7), 2**53 - 1),
    (I.PhaseFunction.reciprocal(1e15 + 7), 2**53),
    (I.PhaseFunction.reciprocal(123456.5), 2**52 - 1),
    (I.PhaseFunction.reciprocal(123456.5), 2**52),
    (I.PhaseFunction.reciprocal(2.0**62 - 2.0**9), 100),    # p = z on both sides of 2^62
    (I.PhaseFunction.reciprocal(2.0**62), 100),
    (I.PhaseFunction.reciprocal(2.0**70 + 2.0**20), 100),
    (I.PhaseFunction.power_reciprocal(987654.25, 1), 2**51 - 1),
    (I.PhaseFunction.power_reciprocal(987654.25, 1), 2**51),
    (I.PhaseFunction.power_reciprocal(123456.5, 2), 2**26 - 1),
    (I.PhaseFunction.power_reciprocal(123456.5, 2), 2**26),
    (I.PhaseFunction.power_reciprocal(98765.25, 3), 2**17 - 1),
    (I.PhaseFunction.power_reciprocal(98765.25, 3), 2**17),
    (I.PhaseFunction.shifted_reciprocal(3.0, 1e6, 1), 2**53 - 2),
    (I.PhaseFunction.shifted_reciprocal(3.0, 1e6, 1), 2**53 - 1),
    (I.PhaseFunction.shifted_reciprocal(2.5, 3.0, 0), 2**52 - 1),
    (I.PhaseFunction.shifted_reciprocal(2.5, 3.0, 0), 2**52),
], ids=lambda v: v.form if isinstance(v, I.PhaseFunction) else str(v))
def test_unit_array_float_z_at_the_int64_bound(monkeypatch, ph, t_max):
    t = np.arange(max(1, t_max - 30), t_max + 1, dtype=np.int64)
    want = _frac_units(ph, t)
    p, q = ph.z.as_integer_ratio()
    exact = p < 2**62 and q * (t_max + ph.a) ** ph.r < 2**53
    fracs = []
    frac = I.PhaseFunction._frac         # frac's formula, which the fallback calls unchecked
    monkeypatch.setattr(I.PhaseFunction, "_frac",
                        lambda self, v: fracs.append(v) or frac(self, v))
    assert ph.unit_array(t).tobytes() == want.tobytes()
    assert fracs == ([] if exact else t.tolist())


@pytest.mark.parametrize("ph", [
    I.PhaseFunction.reciprocal(10**6), I.PhaseFunction.reciprocal(123456.75),
    I.PhaseFunction.power_reciprocal(5, 2), I.PhaseFunction.shifted_reciprocal(3, 100, 1),
    I.PhaseFunction.opaque(lambda t: math.sqrt(t)),
    pytest.param(I.PhaseFunction.opaque(I._SqrtPhase(2.5, 3.5)), id="opaque_numpy")],
    ids=lambda ph: ph.form)
def test_unit_array_accepts_an_empty_array(ph):
    out = ph.unit_array(np.zeros(0, dtype=np.int64))
    assert out.shape == (0,) and out.dtype == np.complex128


_SHAPE_PHASES = [
    I.PhaseFunction.power_reciprocal(123457, 2),                    # int64
    I.PhaseFunction.opaque(I._SqrtPhase(2.5, 3.5)),                 # float64 draw
    I.PhaseFunction.opaque(math.sqrt),                              # per entry
    I.PhaseFunction.power_reciprocal(10**18 + 12345, 10),           # d >= 2^53: per entry
    I.PhaseFunction.power_reciprocal(2**70, 3),                     # p >= 2^62: per entry
]


@pytest.mark.parametrize("t", [
    np.array(41), np.array([41, 57, 60]), np.array([[1, 2], [3, 4]]),
    np.array([[40, 41, 57], [60, 70, 44]], dtype=np.uint32), np.zeros(0, dtype=np.int64),
    np.zeros((2, 0), dtype=np.int64)], ids=lambda t: f"shape{t.shape}")
@pytest.mark.parametrize("ph", _SHAPE_PHASES, ids=["int64", "sqrt-draw", "opaque",
                                                  "d-past-2^53", "p-past-2^62"])
def test_unit_array_keeps_the_shape_of_t(ph, t):
    out = ph.unit_array(t)
    assert out.shape == t.shape and out.dtype == np.complex128
    assert out.tobytes() == ph.unit_array(t.ravel()).reshape(t.shape).tobytes()
    assert out.tobytes() == _frac_units(ph, t.ravel()).tobytes()


def test_unit_array_tests_t_once(monkeypatch):
    calls = []
    check_t = I._check_t
    monkeypatch.setattr(I, "_check_t", lambda t: calls.append(t) or check_t(t))
    for ph in _SHAPE_PHASES:
        ph.unit_array(np.arange(40, 50).reshape(2, 5))
    assert len(calls) == len(_SHAPE_PHASES)


def test_check_t_returns_an_int_or_an_int64_array():
    assert type(I._check_t(np.uint8(7))) is int and I._check_t(2**70) == 2**70
    t = I._check_t(np.array([[3, 2**63 - 1]], dtype=np.uint64))
    assert t.dtype == np.int64 and t.tolist() == [[3, 2**63 - 1]]
    assert I._check_t(np.array([5, 6], dtype=object)).dtype == np.int64


# ---------------------------------------------------------------------------
# coefficients

def _coeffs(U, limit):
    """The four cutoff-U coefficient sequences, at index n - 1, built by the
    product kernel as the verifiers build them: a_lambda = mu 1_U *
    Lambda 1_U and a_mu = mu 1_U * mu 1_U on n <= U^2, b = mu 1_U * 1 and
    b_plus = [n = 1] - b on n <= limit."""
    mu = A.build_sieve(A.MOBIUS, 1, U).values
    b = A._convolve(mu, A.build_sieve(A.ONE, 1, limit).values, limit)
    b_plus = -b
    b_plus[0] += 1
    return {"a_lambda": A._convolve(mu, A.build_sieve(A.LAMBDA, 1, U).values, U * U),
            "b": b, "a_mu": A._convolve(mu, mu, U * U), "b_plus": b_plus}


def test_vaughan_coefficient_examples():
    co = _coeffs(2, 10)
    assert co["a_lambda"][3] == pytest.approx(-math.log(2))
    assert co["b"][5] == 0
    assert co["b"][0] == 1


def test_b_is_delta_below_cutoff():
    co = _coeffs(9, 100)
    for m in range(1, 10):
        assert co["b"][m - 1] == (1 if m == 1 else 0)


def test_a_lambda_against_double_sum():
    u, limit = 6, 60
    co = _coeffs(u, limit)
    mu = A.build_sieve(A.MOBIUS, 1, u)
    lam = A.build_sieve(A.LAMBDA, 1, u)
    for n in range(1, u * u + 1):
        direct = sum(mu.value(d) * lam.value(n // d)
                     for d in range(1, u + 1)
                     if n % d == 0 and n // d <= u)
        assert co["a_lambda"][n - 1] == pytest.approx(direct, abs=1e-12)


def test_a_mu_bounded_by_tau():
    u, limit = 12, 160
    co = _coeffs(u, limit)
    t2 = A.build_sieve(A.tau(2), 1, u * u)
    for n in range(1, u * u + 1):
        assert abs(int(co["a_mu"][n - 1])) <= t2.value(n)


def test_normalized_views_bounded():
    # |a_lambda| <= log R for R >= U^2 and |a_mu| <= 2^omega
    co = _coeffs(10, 120)
    assert np.max(np.abs(co["a_lambda"])) / math.log(120) <= 1 + 1e-12
    two_omega = A.build_sieve(A.TWO_POW_OMEGA, 1, 100).values
    assert np.max(np.abs(co["a_mu"]) / two_omega) <= 1 + 1e-12


def _vaughan_reference(U, limit):
    """The four coefficient arrays, at index n - 1, by explicit loops over d and e."""
    mu = A.build_sieve(A.MOBIUS, 1, limit).values
    lam = A.build_sieve(A.LAMBDA, 1, U).values
    a_lambda = np.zeros(U * U, dtype=np.float64)
    a_mu = np.zeros(U * U, dtype=np.int64)
    for d in range(1, U + 1):
        md = int(mu[d - 1])
        if md == 0:
            continue
        for e in range(1, U + 1):
            if lam[e - 1] != 0.0:
                a_lambda[d * e - 1] += md * lam[e - 1]
            a_mu[d * e - 1] += md * int(mu[e - 1])
    b = np.zeros(limit, dtype=np.int64)
    b_plus = np.zeros(limit, dtype=np.int64)
    for d in range(1, limit + 1):
        (b if d <= U else b_plus)[d - 1:: d] += int(mu[d - 1])
    return {"a_lambda": a_lambda, "b": b, "a_mu": a_mu, "b_plus": b_plus}


@pytest.mark.parametrize("U", range(1, 23))
def test_vaughan_coefficient_bits_match_reference(U):
    for limit in (U * U, U * U + 1, 1000):
        co = _coeffs(U, limit)
        for name, want in _vaughan_reference(U, limit).items():
            got = co[name]
            assert got.dtype == want.dtype, (limit, name)
            assert got.tobytes() == want.tobytes(), (limit, name)


def test_b_plus_complements_b():
    co = _coeffs(7, 80)
    # (mu 1^- * 1) + (mu 1^+ * 1) = mu * 1 = [n = 1]
    total = co["b"] + co["b_plus"]
    assert total[0] == 1
    assert not total[1:].any()


@pytest.fixture
def calls(monkeypatch):
    """Record every build_sieve (kind, lo, hi) and product-kernel limit that
    identities makes, from empty suite caches, which are emptied again after
    the test."""
    log = {"sieve": [], "convolve": []}

    def sieve(kind, lo, hi):
        log["sieve"].append((kind, lo, hi))
        return A.build_sieve(kind, lo, hi)

    def convolve(f, g, limit):
        log["convolve"].append(limit)
        return A._convolve(f, g, limit)

    monkeypatch.setattr(I, "build_sieve", sieve)
    monkeypatch.setattr(I, "_convolve", convolve)
    caches = (I._suite_table, I._vaughan_products)
    for cache in caches:
        cache.cache_clear()
    yield log
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("fn, kinds, limits", [
    (I.vaughan_lambda_sides, [(A.LAMBDA, 97), (A.MOBIUS, 7)], [49, 97, 97, 97, 97]),
    (I.vaughan_mobius_sides, [(A.MOBIUS, 97)], [49, 97, 97, 97])],
    ids=["lambda", "mu"])
def test_vaughan_verifiers_sieve_once_and_pin_their_products(calls, fn, kinds, limits):
    # each function is sieved once, and 1 not at all; a = mu 1_U * (Lambda or
    # mu) 1_U is built on [1, U^2], every other product on [1, R1]: lambda
    # builds b and its three terms, mu builds b+ and its two terms
    fn(50, 97, 7, I.PhaseFunction.reciprocal(1234.5))
    assert sorted(calls["sieve"], key=str) == sorted(
        [(k, 1, hi) for k, hi in kinds], key=str)
    assert calls["convolve"] == limits


@pytest.mark.parametrize("subject", I.VERIFY_SUBJECTS)
def test_run_verification_builds_one_table_per_kind(calls, subject):
    I.run_verification(subject, 20, 0)
    kinds = [k for k, _, _ in calls["sieve"]]
    assert kinds and len(kinds) == len(set(kinds))
    if subject.startswith("vaughan"):     # the products build their own 1
        assert A.ONE not in kinds
    # tables and products are kept for the process: a second run sieves nothing
    calls["sieve"].clear()
    I.run_verification(subject, 20, 0)
    assert calls["sieve"] == []


@pytest.mark.parametrize("subject, products", [("vaughan-lambda", 5), ("vaughan-mu", 4)])
def test_run_verification_builds_each_cutoffs_products_once(calls, subject, products):
    # a = mu 1_U * (Lambda or mu) 1_U on [1, U^2], every other product on
    # [1, 2 _MAX_R], once per distinct U in order of first use; a second run
    # of the subject reads the products the first one built
    cutoffs = list(dict.fromkeys(r["U"] for r in I.run_verification(subject, 200, 0)))
    assert len(cutoffs) > 5
    assert calls["convolve"] == [lim for U in cutoffs
                                 for lim in [U * U] + [2 * I._MAX_R] * (products - 1)]
    calls["convolve"].clear()
    I.run_verification(subject, 200, 0)
    assert calls["convolve"] == []


def test_suite_caches_are_bounded_by_the_draws_and_read_only(calls):
    # every subject on several seeds fills no more than the draws allow, and
    # every admissible key read afterwards adds nothing past that bound
    for subject in I.VERIFY_SUBJECTS:
        for seed in range(4):
            I.run_verification(subject, 100, seed)
    tables, products = len(I._SUITE_KINDS), 2 * math.isqrt(I._MAX_R)
    assert I._suite_table.cache_info().currsize <= tables
    assert I._vaughan_products.cache_info().currsize <= products
    arrays = [I._suite_table(kind).values for kind in I._SUITE_KINDS]
    for subject in ("vaughan-lambda", "vaughan-mu"):
        for U in range(1, math.isqrt(I._MAX_R) + 1):
            arrays += [c for terms in I._vaughan_products(subject, U) for c in terms]
    assert I._suite_table.cache_info().currsize == tables
    assert I._vaughan_products.cache_info().currsize == products
    assert not any(a.flags.writeable for a in arrays)


def _replay(subject, seed, trial):
    """The public verifier's (lhs, rhs, residual) on a trial's draws, and the
    parameters its report should name."""
    rng = I._trial_rng(seed, trial)
    R = rng.randint(20, I._MAX_R)
    R1 = rng.randint(R + 1, 2 * R)
    phase = I.random_phase(rng)
    if subject.startswith("vaughan"):
        U = rng.randint(1, math.isqrt(R))
        fn = I.vaughan_lambda_sides if subject == "vaughan-lambda" else I.vaughan_mobius_sides
        return fn(R, R1, U, phase), {"R": R, "R1": R1, "U": U}
    if subject == "hyperbola":
        x = rng.randint(30, I._MAX_X)
        U = rng.randint(1, x)
        f, g = (A.build_sieve(rng.choice(I._SUITE_KINDS), 1, x) for _ in "fg")
        return I.hyperbola_sides(f, g, phase, x, U), {"x": x, "U": U,
                                                      "f": str(f.kind), "g": str(g.kind)}
    U = rng.randint(1, R)
    f, g = (A.build_sieve(rng.choice(I._SUITE_KINDS), 1, R1) for _ in "fg")
    return I.hyperbola_exp_sides(f, g, phase, R, R1, U), {"R": R, "R1": R1, "U": U,
                                                          "f": str(f.kind), "g": str(g.kind)}


@pytest.mark.parametrize("subject", I.VERIFY_SUBJECTS,
                         ids=["lambda", "mu", "hyperbola", "hyperbola-exp"])
@pytest.mark.parametrize("seed", [0, 9])
def test_run_verification_matches_the_public_verifiers(subject, seed):
    # the run reads tables and products built once on [1, 2 _MAX_R] and
    # takes the phase of many windows in one pass; the public verifier builds
    # them on [1, R1] for each draw and takes its own window: same bits
    for report in I.run_verification(subject, 300, seed):
        (lhs, _, res), params = _replay(subject, seed, report["trial"])
        assert {k: report[k] for k in params} == params
        assert report["residual"].hex() == res.hex()
        assert report["relative"].hex() == (res / (1 + abs(lhs))).hex()


@pytest.mark.parametrize("subject", I.VERIFY_SUBJECTS)
def test_reports_do_not_depend_on_the_chunk_size(monkeypatch, subject):
    want = I.run_verification(subject, 200, 4)
    for entries in (1, 2**10):
        monkeypatch.setattr(I, "_CHUNK_ENTRIES", entries)
        # repr shows every key in order and every float's bits
        assert repr(I.run_verification(subject, 200, 4)) == repr(want)


@pytest.fixture
def passes(monkeypatch):
    """Record (entries, window sizes) of every `_unit_pass` and count the
    `_check_t` and `_check_product` calls made."""
    log = {"passes": [], "check_t": 0, "check_product": 0}
    unit_pass, check_t, check_product = I._unit_pass, I._check_t, I._check_product

    def recorded(phases, t, sizes):
        log["passes"].append((t.size, sizes.tolist()))
        return unit_pass(phases, t, sizes)

    def counted(name, fn):
        return lambda *a: log.__setitem__(name, log[name] + 1) or fn(*a)

    monkeypatch.setattr(I, "_unit_pass", recorded)
    monkeypatch.setattr(I, "_check_t", counted("check_t", check_t))
    monkeypatch.setattr(I, "_check_product", counted("check_product", check_product))
    return log


@pytest.mark.parametrize("entries", [1, 2**10, 2**14])
@pytest.mark.parametrize("subject", I.VERIFY_SUBJECTS)
def test_a_phase_pass_holds_at_most_the_chunk_and_one_window(monkeypatch, passes,
                                                            subject, entries):
    monkeypatch.setattr(I, "_CHUNK_ENTRIES", entries)
    reports = I.run_verification(subject, 150, 2)
    sizes = [s for _, chunk in passes["passes"] for s in chunk]
    assert len(sizes) == len(reports)
    for total, chunk in passes["passes"]:
        assert total == sum(chunk) and sum(chunk[:-1]) < entries
    assert (len(passes["passes"]) == len(reports)) == (entries == 1)
    # t is checked once per pass, and the guard once per kind pair
    assert passes["check_t"] == len(passes["passes"])
    pairs = {(r["f"], r["g"]) for r in reports if "f" in r}
    assert passes["check_product"] == len(pairs)


@pytest.mark.parametrize("subject", ["hyperbola", "hyperbola-exp"])
def test_the_run_keeps_the_int64_guard(monkeypatch, subject):
    # a suite table whose products could wrap is refused before any phase
    values = np.full(2 * I._MAX_R, 2**40, dtype=np.int64)
    values.flags.writeable = False
    monkeypatch.setattr(I, "_suite_table", lambda kind: A.SieveTable(None, 1, values))
    monkeypatch.setattr(I, "_unit_pass", lambda *a: pytest.fail("work was done"))
    with pytest.raises(BudgetError, match="may exceed int64"):
        I.run_verification(subject, 5, 0)


def test_the_chunk_pass_equals_one_unit_array_per_window():
    windows = [
        (I.PhaseFunction.opaque(I._SqrtPhase(123.25, 987654.5)), np.arange(30, 90)),
        (I.PhaseFunction.reciprocal(123457), np.arange(1, 41)),
        (I.PhaseFunction.power_reciprocal(1234.75, 2), np.array([], dtype=np.int64)),
        # q (t + a)^r = 2 t >= 2^53: frac's formula per entry
        (I.PhaseFunction.reciprocal(1.5), np.arange(2**52 - 5, 2**52 + 5)),
        (I.PhaseFunction.shifted_reciprocal(2.5, 1000, 1), np.array([7, 3, 500, 2])),
        (I.PhaseFunction.opaque(I._SqrtPhase(2.5, 3.5)), np.arange(2**53 - 3, 2**53 + 3)),
        (I.PhaseFunction.opaque(math.sqrt), np.arange(5, 9)),
        (I.PhaseFunction.reciprocal(98765), np.array([9, 4, 11])),
    ]
    want = [ph.unit_array(t) for ph, t in windows]
    units = {id(t): u.tobytes() for (_, t), u in zip(windows, want)}
    for order in (windows, windows[::-1], windows[1::2] + windows[::2]):
        phases, ts = zip(*order)
        got = I._unit_pass(phases, np.concatenate(ts), np.array([t.size for t in ts]))
        assert got.tobytes() == b"".join(units[id(t)] for t in ts)
    # windows of one rule, and no window at all
    sqrt = [w for w in windows if isinstance(w[0].fn, I._SqrtPhase)]
    got = I._unit_pass([p for p, _ in sqrt], np.concatenate([t for _, t in sqrt]),
                       np.array([t.size for _, t in sqrt]))
    assert got.tobytes() == want[0].tobytes() + want[5].tobytes()
    assert I._unit_pass([], np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)).size == 0


def test_unit_array_takes_any_order_at_t_one():
    # every t + a is 1, so any r gives d = q, an r past int64 included
    for r in (1, 52, 53, 10**30):
        ph = I.PhaseFunction.power_reciprocal(123456.75, r)
        assert ph.unit_array([1, 1]).tobytes() == _frac_units(ph, [1, 1]).tobytes()


def _formed_frac(ph, t):
    """frac's formula with the power q (t + a)^r always formed."""
    p, q = ph.z.as_integer_ratio()
    d = q * (t + ph.a) ** ph.r
    return (p % d) / d


@pytest.mark.parametrize("z", [7, 123456.75, 2**61 + 1, 0.1], ids=repr)
def test_a_high_phase_order_is_settled_without_its_power(z):
    # from r = p.bit_length() + 1075 on, d > p 2^1075 at every t + a >= 2, so
    # p / d rounds to 0.0; one below, t = 2 can still round up to 2^-1074
    edge = z.as_integer_ratio()[0].bit_length() + 1075
    for r in (edge - 1, edge, edge + 1):
        ph = I.PhaseFunction.power_reciprocal(z, r)
        for t in (1, 2, 3, 1000):
            assert ph.frac(t).hex() == _formed_frac(ph, t).hex(), (r, t)
        assert ph.unit_array([1, 2, 3]).tobytes() == _frac_units(ph, [1, 2, 3]).tobytes()
    assert I.PhaseFunction.power_reciprocal(7, 3 + 1074).frac(2) == 2.0**-1074


def test_a_huge_phase_order_costs_no_power():
    # r = 10^7 took 7.2 s in unit_array, forming q (t + a)^r in Python ints
    ph = I.PhaseFunction.power_reciprocal(7, 10**10)
    start = time.perf_counter()
    assert ph.frac(2) == 0.0
    assert ph.unit_array([2, 3]).tobytes() == np.exp(1j * I.TWO_PI * np.zeros(2)).tobytes()
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("U", [1, 2, 7, 22])
def test_vaughan_terms_do_not_depend_on_their_limit(U):
    # products built on [1, 2 _MAX_R] and cut to [1, R1] equal those built
    # on [1, R1], byte for byte
    top = 2 * I._MAX_R
    tables = {k: A.build_sieve(k, 1, top).values for k in (A.LAMBDA, A.MOBIUS)}
    wide = (I._vaughan_lambda_terms(tables[A.LAMBDA], tables[A.MOBIUS], U),
            I._vaughan_mobius_terms(tables[A.MOBIUS], U))
    for R1 in sorted({U * U + 1, 2 * U * U + 3, 97, top - 1, top}):
        lam, mu = (A.build_sieve(k, 1, R1).values for k in (A.LAMBDA, A.MOBIUS))
        narrow = (I._vaughan_lambda_terms(lam, A.build_sieve(A.MOBIUS, 1, U).values, U),
                  I._vaughan_mobius_terms(mu, U))
        for w_sides, n_sides in zip(wide, narrow, strict=True):
            for w_terms, n_terms in zip(w_sides, n_sides, strict=True):
                assert [c[:R1].tobytes() for c in w_terms] == [c.tobytes() for c in n_terms]


@pytest.fixture
def windows(monkeypatch):
    """Record the arguments of every PhaseFunction.unit_array call."""
    seen = []
    unit_array = I.PhaseFunction.unit_array

    def recorded(self, t):
        seen.append(np.asarray(t).tolist())
        return unit_array(self, t)

    monkeypatch.setattr(I.PhaseFunction, "unit_array", recorded)
    return seen


@pytest.fixture
def units(monkeypatch):
    """Record the arguments of every scalar PhaseFunction.unit call."""
    seen = []
    unit = I.PhaseFunction.unit

    def counted(self, t):
        seen.append(t)
        return unit(self, t)

    monkeypatch.setattr(I.PhaseFunction, "unit", counted)
    return seen


@pytest.mark.parametrize("R, R1, U", [(4, 5, 1), (50, 97, 7), (120, 240, 10)])
def test_dyadic_verifiers_evaluate_the_phase_on_their_window(windows, units, R, R1, U):
    ph = I.PhaseFunction.reciprocal(98765.25)
    f = A.build_sieve(A.tau(2), 1, R1)
    for call in (lambda: I.vaughan_lambda_sides(R, R1, U, ph),
                 lambda: I.vaughan_mobius_sides(R, R1, U, ph),
                 lambda: I.hyperbola_exp_sides(f, f, ph, R, R1, U)):
        windows.clear()
        call()
        assert windows == [list(range(R + 1, R1 + 1))]
    assert units == []
    _hyperbola_exp_split(f, f, ph, R, R1, U)   # S3 and S4 may read mn <= R
    assert set(range(R + 1, R1 + 1)) <= set(units) <= set(range(1, R1 + 1))


def test_hyperbola_evaluates_the_phase_once_on_its_window(windows, units):
    f = A.build_sieve(A.tau(2), 1, 60)
    I.hyperbola_sides(f, f, I.PhaseFunction.reciprocal(98765.25), 60, 7)
    assert windows == [list(range(1, 61))] and units == []


def test_trials_budget_rejected_before_any_trial(monkeypatch):
    def no_trial(seed, trial):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(I, "_trial_rng", no_trial)
    for trials in (I._MAX_TRIALS + 1, 10**8):
        with pytest.raises(ValueError, match="trials <= 10000"):
            I.run_verification("hyperbola", trials, 0)


@pytest.mark.parametrize("subject", I.VERIFY_SUBJECTS)
def test_negative_seed_rejected_before_any_trial(monkeypatch, subject):
    # random.Random seeds from |seed|, and (-s << 20) ^ 0 = -(s << 20): a
    # negative seed would replay trial 0 of its absolute value
    def no_trial(seed, trial):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(I, "_trial_rng", no_trial)
    for seed in (-1, -5, -123):
        with pytest.raises(ValueError, match=f"seed >= 0, got {seed}"):
            I.run_verification(subject, 10, seed)


# ---------------------------------------------------------------------------
# Vaughan identity verifiers

def test_vaughan_lambda_examples():
    l, r, res = I.vaughan_lambda_sides(50, 97, 7, I.PhaseFunction.reciprocal(1234.5))
    assert res <= 1e-9 * (1 + abs(l))
    l, r, res = I.vaughan_lambda_sides(20, 40, 4,
                                       I.PhaseFunction.power_reciprocal(10**5, 2))
    assert res <= 1e-9 * (1 + abs(l))


def test_vaughan_lambda_zero_phase_is_chebyshev_difference():
    lam = A.build_sieve(A.LAMBDA, 1, 97)
    expected = math.fsum(lam.value(n) for n in range(51, 98))
    l, r, res = I.vaughan_lambda_sides(50, 97, 7, I.PhaseFunction.reciprocal(0))
    assert l == pytest.approx(expected, rel=1e-12)
    assert res <= 1e-9 * (1 + abs(l))


def test_vaughan_mobius_zero_phase_is_mertens_difference():
    mu = A.build_sieve(A.MOBIUS, 1, 97)
    expected = sum(mu.value(n) for n in range(51, 98))
    l, r, res = I.vaughan_mobius_sides(50, 97, 7, I.PhaseFunction.reciprocal(0))
    assert l == pytest.approx(expected, rel=1e-12)
    assert res <= 1e-9 * (1 + abs(l))


def test_vaughan_mobius_examples():
    l, r, res = I.vaughan_mobius_sides(50, 97, 7,
                                       I.PhaseFunction.power_reciprocal(9999, 2))
    assert res <= 1e-9 * (1 + abs(l))
    # degenerate cutoff U = 1 stays exact
    l, r, res = I.vaughan_mobius_sides(40, 80, 1, I.PhaseFunction.reciprocal(555))
    assert res <= 1e-9 * (1 + abs(l))
    l, r, res = I.vaughan_lambda_sides(40, 80, 1, I.PhaseFunction.reciprocal(555))
    assert res <= 1e-9 * (1 + abs(l))


def test_vaughan_window_checks():
    ph = I.PhaseFunction.reciprocal(0)
    with pytest.raises(WindowError):
        I.vaughan_lambda_sides(50, 101, 7, ph)    # R1 > 2R
    with pytest.raises(WindowError):
        I.vaughan_lambda_sides(50, 97, 8, ph)     # U > sqrt(R)
    with pytest.raises(WindowError):
        I.vaughan_mobius_sides(1, 2, 1, ph)       # R must exceed 1


# ---------------------------------------------------------------------------
# hyperbola verifiers

def test_hyperbola_divisor_count():
    one = A.build_sieve(A.ONE, 1, 10)
    l, r, res = I.hyperbola_sides(one, one, None, 10, 3)
    assert (l, r, res) == (27, 27, 0)


def test_hyperbola_degenerate_U_equals_x():
    one = A.build_sieve(A.ONE, 1, 50)
    l, r, res = I.hyperbola_sides(one, one, None, 50, 50)
    assert res == 0


def test_hyperbola_mobius_inversion_sum():
    mu = A.build_sieve(A.MOBIUS, 1, 100)
    one = A.build_sieve(A.ONE, 1, 100)
    l, r, res = I.hyperbola_sides(mu, one, None, 100, 10)
    assert (l, r) == (1, 1) and res == 0


def test_hyperbola_with_phase_and_lambda_weights():
    lam = A.build_sieve(A.LAMBDA, 1, 60)
    one = A.build_sieve(A.ONE, 1, 60)
    ph = I.PhaseFunction.reciprocal(777)
    l, r, res = I.hyperbola_sides(lam, one, ph, 60, 7)
    assert res <= 1e-9 * (1 + abs(l))


def test_hyperbola_coverage_guard():
    one = A.build_sieve(A.ONE, 1, 10)
    with pytest.raises(CoverageError):
        I.hyperbola_sides(one, one, None, 20, 3)
    with pytest.raises(WindowError):
        I.hyperbola_sides(one, one, None, 10, 11)


def _const(value, n):
    values = np.full(n, value, dtype=np.int64)
    values.flags.writeable = False
    return A.SieveTable(kind=None, lo=1, values=values)


@pytest.mark.parametrize("call", [
    lambda t: I.hyperbola_sides(t(40), t(40), None, 40, 5),
    lambda t: I.hyperbola_sides(t(40), t(40), I.PhaseFunction.reciprocal(7), 40, 5),
    lambda t: I.hyperbola_sides(t(3000), t(3000), None, 3000, 50),      # above the pair cap
    lambda t: I.hyperbola_exp_sides(t(40), t(40), I.PhaseFunction.reciprocal(0), 20, 40, 4),
    lambda t: I.hyperbola_exp_sides(t(3000), t(3000), I.PhaseFunction.reciprocal(0),
                                    1500, 3000, 4),
    # each product value fits, but a side sums 3 terms on R1 - R entries
    lambda t: I.hyperbola_exp_sides(t(60, 5 * 10**8), t(60, 5 * 10**8), None, 30, 60, 5),
], ids=["unweighted", "weighted", "unweighted-above-cap", "exp", "exp-above-cap",
        "exp-unweighted-sum"])
def test_hyperbola_refuses_an_int64_wrap_before_any_work(monkeypatch, call):
    # tables of 2^40 wrapped to sides (0, 0, 0) and (0j, 0j, 0.0)
    monkeypatch.setattr(I, "_hyperbola_terms", lambda *a: pytest.fail("work was done"))
    with pytest.raises(BudgetError, match="may exceed int64"):
        call(lambda n, value=2**40: _const(value, n))


def test_unweighted_hyperbola_side_bounds_its_sum():
    # F G 2 isqrt(40) = 12 2^56 < 2^63 holds each product value, but a side
    # sums 3 terms on 40 entries: refused unweighted, taken with a phase
    f = _const(2**28, 40)
    with pytest.raises(BudgetError):
        I.hyperbola_sides(f, f, None, 40, 5)
    lhs, rhs, res = I.hyperbola_sides(f, f, I.PhaseFunction.reciprocal(7), 40, 5)
    assert res <= 1e-9 * (1 + abs(lhs))
    g = _const(2**20, 40)
    assert I.hyperbola_sides(g, g, None, 40, 5) == (2**40 * 158, 2**40 * 158, 0)   # sum of tau(n)
    # the dyadic form sums 3 terms on R1 - R entries: its exact side 3.75e19
    # wrapped to 606511852580896768
    h = _const(5 * 10**8, 60)
    with pytest.raises(BudgetError):
        I.hyperbola_exp_sides(h, h, None, 30, 60, 5)
    lhs, rhs, res = I.hyperbola_exp_sides(h, h, I.PhaseFunction.reciprocal(7), 30, 60, 5)
    assert res <= 1e-9 * (1 + abs(lhs))


def test_hyperbola_exp_unitary_route():
    # 2^omega = chi_2 * tau feeding the dyadic exponential identity
    chi = A.build_sieve(A.CHI_TWO, 1, 500)
    t2 = A.build_sieve(A.tau(2), 1, 500)
    ph = I.PhaseFunction.reciprocal(98765)
    l, r, res = I.hyperbola_exp_sides(chi, t2, ph, 100, 200, 100)
    assert res <= 1e-9 * (1 + abs(l))
    w = A.build_sieve(A.TWO_POW_OMEGA, 1, 200)
    direct = sum(w.value(n) * ph.unit(n) for n in range(101, 201))
    assert abs(l - direct) <= 1e-9 * (1 + abs(l))


def test_hyperbola_exp_counts_with_zero_phase():
    one = A.build_sieve(A.ONE, 1, 100)
    t2 = A.build_sieve(A.tau(2), 1, 40)
    l, r, res = I.hyperbola_exp_sides(one, one, I.PhaseFunction.reciprocal(0), 20, 40, 4)
    expected = sum(t2.value(n) for n in range(21, 41))
    assert l == pytest.approx(expected) and res <= 1e-9 * (1 + abs(l))


def test_hyperbola_exp_squarefree_route_and_split():
    # mu^2 = chi_2 * 1 with U near R^(2/3); the four-sum split agrees too
    chi = A.build_sieve(A.CHI_TWO, 1, 400)
    one = A.build_sieve(A.ONE, 1, 400)
    ph = I.PhaseFunction.reciprocal(31415)
    R, R1, U = 64, 128, 16
    l, r, res = I.hyperbola_exp_sides(chi, one, ph, R, R1, U)
    assert res <= 1e-9 * (1 + abs(l))
    split = _hyperbola_exp_split(chi, one, ph, R, R1, U)
    assert abs(split - l) <= 1e-9 * (1 + abs(l))


def test_mu2_equals_chi2_star_one_to_1e6():
    n = 10**6
    chi = A.build_sieve(A.CHI_TWO, 1, n)
    one = A.build_sieve(A.ONE, 1, n)
    mu2 = A.build_sieve(A.MOBIUS_SQUARED, 1, n)
    conv = A.dirichlet_convolve(chi, one, n)
    assert (conv.values == mu2.values).all()


# ---------------------------------------------------------------------------
# the verifiers against hand-written loops, and their coefficient vectors

def _loops_vaughan_lambda(R, R1, U, e):
    lam = A.build_sieve(A.LAMBDA, 1, R1).values
    mu = A.build_sieve(A.MOBIUS, 1, U).values
    co = _vaughan_reference(U, max(R1, U * U))
    lhs = sum(lam[n - 1] * e(n) for n in range(R + 1, R1 + 1) if lam[n - 1] != 0.0)
    t1 = t2 = t3 = 0j
    for n in range(1, U + 1):
        if mu[n - 1] != 0:
            t1 += int(mu[n - 1]) * sum(math.log(m) * e(m * n)
                                       for m in range(R // n + 1, R1 // n + 1))
    for n in range(1, U * U + 1):
        if co["a_lambda"][n - 1] != 0.0:
            t2 += co["a_lambda"][n - 1] * sum(e(m * n) for m in range(R // n + 1, R1 // n + 1))
    for n in range(U + 1, R1 // U + 1):
        if lam[n - 1] != 0.0:
            t3 += lam[n - 1] * sum(int(co["b"][m - 1]) * e(m * n)
                                   for m in range(max(U, R // n) + 1, R1 // n + 1)
                                   if co["b"][m - 1] != 0)
    return lhs, t1 - t2 - t3


def _loops_vaughan_mobius(R, R1, U, e):
    mu = A.build_sieve(A.MOBIUS, 1, R1).values
    co = _vaughan_reference(U, max(R1, U * U))
    lhs = sum(int(mu[n - 1]) * e(n) for n in range(R + 1, R1 + 1) if mu[n - 1] != 0)
    s12 = s3 = 0j
    for n in range(1, U * U + 1):
        if co["a_mu"][n - 1] != 0:
            s12 += int(co["a_mu"][n - 1]) * sum(e(m * n) for m in range(R // n + 1, R1 // n + 1))
    for n in range(U + 1, R1 // U + 1):
        if co["b_plus"][n - 1] != 0:
            s3 += int(co["b_plus"][n - 1]) * sum(int(mu[m - 1]) * e(m * n)
                                          for m in range(max(U, R // n) + 1, R1 // n + 1)
                                          if mu[m - 1] != 0)
    return lhs, -s12 + s3


def _loops(a, ns, b, e, lo, hi):
    return sum(a(n) * sum(b(m) * e(m * n) for m in range(lo(n) + 1, hi(n) + 1))
               for n in ns)


def _loops_hyperbola(f, g, h, x, U):
    fv, gv = f.value, g.value
    lhs = sum(A.dirichlet_convolve(f, g, x).value(n) * h(n) for n in range(1, x + 1))
    return lhs, (_loops(fv, range(1, U + 1), gv, h, lambda n: 0, lambda n: x // n)
                 + _loops(gv, range(1, x // U + 1), fv, h, lambda n: 0, lambda n: x // n)
                 - _loops(fv, range(1, U + 1), gv, h, lambda n: 0, lambda n: x // U))


def _hyperbola_exp_split(f, g, phase, R, R1, U):
    """The intermediate four-sum S1 + S2 + S3 - S4 of the dyadic exponential
    hyperbola identity: a second form that equals its lhs independently of
    the three-term form `hyperbola_exp_sides` evaluates.  S3 and S4 may also
    read mn <= R, so the phase is evaluated on [1, R1]."""
    fv, gv, e = f.value, g.value, phase.unit
    lo, hi = (lambda n: R // n), (lambda n: R1 // n)
    return (_loops(fv, range(1, U + 1), gv, e, lo, hi)
            + _loops(gv, range(1, R // U + 1), fv, e, lo, hi)
            + _loops(gv, range(R // U + 1, R1 // U + 1), fv, e, lambda n: 0, hi)
            - _loops(fv, range(1, U + 1), gv, e, lambda n: R // U, lambda n: R1 // U))


def _loops_hyperbola_exp(f, g, e, R, R1, U):
    fv, gv, hi_f = f.value, g.value, (U * R1) // R
    lo, hi = (lambda n: R // n), (lambda n: R1 // n)
    conv = A.dirichlet_convolve(f, g, R1)
    lhs = sum(conv.value(n) * e(n) for n in range(R + 1, R1 + 1))
    return lhs, (_loops(fv, range(1, hi_f + 1), gv, e, lo, hi)
                 + _loops(gv, range(1, R // U + 1), fv, e, lo, hi)
                 - _loops(fv, range(U + 1, hi_f + 1), gv, e, lo, lambda n: R // U))


def _assert_close(got, want):
    """got == want up to rounding: 1e-12 relative to 1 + |want|, per side."""
    for g, w in zip(got, want, strict=True):
        assert abs(g - w) <= 1e-12 * (1 + abs(w)), (g, w)


def test_verifiers_match_their_loops():
    # the hand-written loops are the float reference of the coefficient-domain
    # verifiers: they sum the same terms in another order
    rng = random.Random(2024)
    kinds = [A.ONE, A.MOBIUS, A.MOBIUS_SQUARED, A.LAMBDA, A.tau(3), A.OMEGA,
             A.TWO_POW_OMEGA, A.CHI_TWO]
    for _ in range(40):
        R = rng.randint(4, 150)
        R1 = rng.randint(R + 1, 2 * R)
        ph = I.random_phase(rng) if rng.random() < 0.8 else I.PhaseFunction.reciprocal(0)
        U = rng.randint(1, math.isqrt(R))
        for fn, ref in ((I.vaughan_lambda_sides, _loops_vaughan_lambda),
                        (I.vaughan_mobius_sides, _loops_vaughan_mobius)):
            _assert_close(fn(R, R1, U, ph)[:2], ref(R, R1, U, ph.unit))

        f = A.build_sieve(rng.choice(kinds), 1, R1 + rng.randint(0, 3))
        g = A.build_sieve(rng.choice(kinds), 1, R1)
        U = rng.randint(1, R)
        _assert_close(I.hyperbola_exp_sides(f, g, ph, R, R1, U)[:2],
                      _loops_hyperbola_exp(f, g, ph.unit, R, R1, U))

        x = rng.randint(1, R1)
        U = rng.randint(1, x)
        for p in (ph, None):
            _assert_close(I.hyperbola_sides(f, g, p, x, U)[:2],
                          _loops_hyperbola(f, g, p.unit if p else (lambda n: 1), x, U))


@pytest.fixture
def sides(monkeypatch):
    """Record the coefficient vectors of every side the verifiers evaluate,
    read on their windows."""
    seen = []
    window_sides = I._window_sides

    def recorded(terms, R, R1, phase):
        seen.extend([np.array(c[R:R1]) for c in side] for side in terms)
        return window_sides(terms, R, R1, phase)

    monkeypatch.setattr(I, "_window_sides", recorded)
    return seen


def _coefficient_gap(sides, call):
    """Run one verifier; its lhs vector and the signed sum of its rhs vectors."""
    sides.clear()
    call()
    (lhs,), rhs = sides
    return lhs, sum(rhs)


def test_identities_are_equalities_of_coefficient_vectors(sides):
    # on integer tables each side's coefficients are exact integers, so the
    # identity holds entry for entry; Lambda carries the rounding of log
    rng = random.Random(16)
    kinds = [A.ONE, A.MOBIUS, A.MOBIUS_SQUARED, A.tau(2), A.tau(3), A.OMEGA,
             A.TWO_POW_OMEGA, A.CHI_TWO]
    worst = 0.0
    for _ in range(200):
        R = rng.randint(2, 3000)
        R1 = rng.randint(R + 1, 2 * R)
        U = rng.randint(1, math.isqrt(R))
        ph = I.random_phase(rng)
        lhs, rhs = _coefficient_gap(sides, lambda: I.vaughan_mobius_sides(R, R1, U, ph))
        # the lhs is the mu table itself, in the sieve's int8
        assert (lhs.dtype, rhs.dtype) == (np.int8, np.int64) and np.array_equal(lhs, rhs)
        lhs, rhs = _coefficient_gap(sides, lambda: I.vaughan_lambda_sides(R, R1, U, ph))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))

        f = A.build_sieve(rng.choice(kinds), 1, R1)
        g = A.build_sieve(rng.choice(kinds), 1, R1)
        U = rng.randint(1, R)
        lhs, rhs = _coefficient_gap(sides, lambda: I.hyperbola_exp_sides(f, g, ph, R, R1, U))
        assert lhs.dtype == rhs.dtype == np.int64 and np.array_equal(lhs, rhs)
        x = rng.randint(1, R1)
        U = rng.randint(1, x)
        lhs, rhs = _coefficient_gap(sides, lambda: I.hyperbola_sides(f, g, None, x, U))
        assert lhs.dtype == rhs.dtype == np.int64 and np.array_equal(lhs, rhs)
    assert worst <= 1e-13

    R = 10**5
    lhs, rhs = _coefficient_gap(sides, lambda: I.vaughan_mobius_sides(
        R, 2 * R, math.isqrt(R) // 2, I.PhaseFunction.reciprocal(12345)))
    assert np.array_equal(lhs, rhs)


def _kernel_hyperbola_terms(fv, gv, a, b, c):
    """The hyperbola split's four products, each built by the kernel on [1, L]."""
    L = len(fv)
    return [A._convolve(fv, gv, L)], [A._convolve(fv[:a], gv, L), A._convolve(gv[:b], fv, L),
                                      -A._convolve(I._part(fv[:a], c), gv[:b], L)]


def test_divisor_pair_index_lists_every_pair_by_n_then_d():
    n, d, e = I._divisor_pairs()
    want = sorted((p * q, p, q) for p in range(1, I._PAIR_CAP + 1)
                  for q in range(1, I._PAIR_CAP // p + 1))
    got = list(zip((n + 1).tolist(), (d + 1).tolist(), (e + 1).tolist()))
    assert got == want
    assert len(got) == 15937
    for a in (n, d, e):
        assert a.dtype == np.intp and not a.flags.writeable
    assert I._divisor_pairs() is I._divisor_pairs()


def test_windowed_hyperbola_terms_match_the_kernel_bit_for_bit():
    # up to _PAIR_CAP the builder reads only the pairs on the window (R, L];
    # its terms have the kernel's bits there, for every ordered pair of the
    # suite's kinds, in both forms (R = 0 for hyperbola_sides) and on both
    # sides of the cap
    cap = I._PAIR_CAP
    tables = {k: A.build_sieve(k, 1, cap + 1).values for k in I._SUITE_KINDS}
    rng = random.Random(81)
    for f in I._SUITE_KINDS:
        for g in I._SUITE_KINDS:
            cases = []
            for x in (rng.randint(30, I._MAX_X), 2 * I._MAX_R):
                U = rng.randint(1, x)
                cases.append((0, x, U, x // U, 0))
            R = rng.randint(20, I._MAX_R)
            for R, R1 in ((R, rng.randint(R + 1, 2 * R)), (I._MAX_R, 2 * I._MAX_R),
                          (cap // 2, cap), (cap // 2 + 1, cap + 1)):
                U = rng.randint(1, R)
                cases.append((R, R1, U * R1 // R, R // U, U))
            for R, L, a, b, c in cases:
                fv, gv = tables[f][:L], tables[g][:L]
                got = I._hyperbola_terms(fv, gv, a, b, c, R)
                want = _kernel_hyperbola_terms(fv, gv, a, b, c)
                for got_side, want_side in zip(got, want, strict=True):
                    assert ([(v.dtype, v[R:].tobytes()) for v in got_side]
                            == [(v.dtype, v[R:].tobytes()) for v in want_side]), (f, g, R, L)


def test_vaughan_mobius_residual_at_1e5():
    # exact coefficients leave one dot product's rounding per term
    l, r, res = I.vaughan_mobius_sides(10**5, 2 * 10**5, 158, I.PhaseFunction.reciprocal(12345))
    assert res <= 1e-11


# ---------------------------------------------------------------------------
# randomized suites

@pytest.mark.parametrize("subject", I.VERIFY_SUBJECTS)
def test_randomized_residuals(subject):
    reports = I.run_verification(subject, 30, seed=20240809)
    worst = max(r["relative"] for r in reports)
    assert worst <= 1e-9, (subject, worst)


def test_run_verification_reproducible():
    a = I.run_verification("vaughan-mu", 5, seed=42)
    b = I.run_verification("vaughan-mu", 5, seed=42)
    assert a == b
    c = I.run_verification("vaughan-mu", 5, seed=43)
    assert c != a


def test_exp_split_agrees_on_random_instances():
    rng = random.Random(77)
    kinds = [A.ONE, A.MOBIUS, A.tau(2), A.CHI_TWO, A.TWO_POW_OMEGA]
    for _ in range(15):
        R = rng.randint(20, 200)
        R1 = rng.randint(R + 1, 2 * R)
        U = rng.randint(1, R)
        f = A.build_sieve(rng.choice(kinds), 1, 2 * R1 + 1)
        g = A.build_sieve(rng.choice(kinds), 1, 2 * R1 + 1)
        ph = I.random_phase(rng)
        l, r, res = I.hyperbola_exp_sides(f, g, ph, R, R1, U)
        split = _hyperbola_exp_split(f, g, ph, R, R1, U)
        assert res <= 1e-9 * (1 + abs(l))
        assert abs(split - l) <= 1e-9 * (1 + abs(l))


def _one(hi):
    return A.build_sieve(A.ONE, 1, hi)


def _from_zero(hi):
    # f(n) = n on [0, hi], refused at construction: read from index 0 as if
    # it started at 1, it would be n + 1
    return A.SieveTable(kind=None, lo=0, values=np.arange(hi + 1))


@pytest.mark.parametrize("call, error, message", [
    (lambda: I.hyperbola_exp_sides(_one(40), _one(40), I.PhaseFunction.reciprocal(7), 40, 40, 4),
     WindowError, "need R < R1"),
    (lambda: I.hyperbola_exp_sides(_one(40), _one(40), I.PhaseFunction.reciprocal(7), 20, 40, 21),
     WindowError, "1 <= U <= R, got R=20, R1=40, U=21"),
    (lambda: I.hyperbola_exp_sides(_one(39), _one(40), I.PhaseFunction.reciprocal(7), 20, 40, 4),
     CoverageError, r"table covers \[1, 39\], need \[1, 40\]"),
    (lambda: I.hyperbola_sides(_from_zero(100), _one(100), None, 100, 10),
     ValueError, "need lo >= 1, got lo=0"),
    (lambda: I.hyperbola_exp_sides(_one(40), _from_zero(40), I.PhaseFunction.reciprocal(7),
                                   20, 40, 4),
     ValueError, "need lo >= 1, got lo=0"),
    (lambda: I.run_verification("zeta", 1, 0), ValueError, "unknown subject 'zeta'"),
    (lambda: I.PhaseFunction.power_reciprocal(5, 1.5), ValueError, "need integer r, got 1.5"),
    (lambda: I.PhaseFunction.shifted_reciprocal(1, 5, True), ValueError,
     "need integer a, got True"),
    (lambda: I.PhaseFunction.reciprocal(7).unit_array(np.array([1.5, 2.5])), ValueError,
     "need integer t, got dtype float64"),
    (lambda: I.PhaseFunction.reciprocal(7).unit_array(np.array([True, False])), ValueError,
     "need integer t, got dtype bool"),
    (lambda: I.PhaseFunction.reciprocal(7).unit_array(np.array([0, 1])), ValueError,
     "need t >= 1, got 0"),
    (lambda: I.PhaseFunction.reciprocal(7).unit_array(np.array([2**63 + 5], dtype=np.uint64)),
     ValueError, r"need t < 2\^63, got 9223372036854775813"),
    (lambda: I.PhaseFunction.reciprocal(7).unit_array(np.array([3, 2**63], dtype=object)),
     ValueError, r"need t < 2\^63, got 9223372036854775808"),
    (lambda: I.PhaseFunction.reciprocal(7).frac(2.5), ValueError, "need integer t, got 2.5"),
    (lambda: I.PhaseFunction.reciprocal(7).unit(True), ValueError, "need integer t, got True"),
    (lambda: I.PhaseFunction.reciprocal(7).frac(0), ValueError, "need t >= 1, got 0"),
    (lambda: I.PhaseFunction.opaque(math.sqrt).unit(-3), ValueError, "need t >= 1, got -3"),
    (lambda: I.hyperbola_sides(_one(100), _one(100), None, 100.5, 10), ValueError,
     "need integer x, got 100.5"),
    (lambda: I.hyperbola_sides(_one(100), _one(100), None, True, True), ValueError,
     "need integer x, got True"),
    (lambda: I.hyperbola_exp_sides(_one(100), _one(100), I.PhaseFunction.reciprocal(7),
                                   50.5, 100, 3), ValueError, "need integer R, got 50.5"),
    (lambda: I.vaughan_lambda_sides(50.5, 100, 3, I.PhaseFunction.reciprocal(7)), ValueError,
     "need integer R, got 50.5"),
    (lambda: I.vaughan_mobius_sides(50, 100, 3.0, I.PhaseFunction.reciprocal(7)), ValueError,
     "need integer U, got 3.0"),
    (lambda: I.run_verification("hyperbola", 2.5, 0), ValueError, "need integer trials"),
    (lambda: I.run_verification("hyperbola", 2, 0.5), ValueError, "need integer seed"),
    (lambda: I.run_verification("hyperbola", True, 0), ValueError,
     "need integer trials, got True"),
], ids=["exp-empty-window", "exp-cutoff", "exp-short-table", "table-from-zero",
        "exp-table-from-zero", "subject", "power-float", "shift-bool", "unit-array-float",
        "unit-array-bool", "unit-array-zero", "unit-array-uint64-wrap",
        "unit-array-object-overflow", "frac-float", "unit-bool", "frac-zero",
        "opaque-unit-negative", "x-float", "x-bool", "exp-R-float", "lambda-R-float",
        "mu-U-float", "trials-float", "seed-float", "trials-bool"])
def test_malformed_inputs_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_integer_arguments_may_be_numpy_integers():
    ph = I.PhaseFunction.reciprocal(1234.5)
    f = _one(100)
    assert (I.PhaseFunction.power_reciprocal(5, np.int64(2))
            == I.PhaseFunction.power_reciprocal(5, 2))
    assert I.hyperbola_sides(f, f, ph, np.int64(100), np.int32(7)) == \
        I.hyperbola_sides(f, f, ph, 100, 7)
    assert I.vaughan_mobius_sides(np.int64(50), 97, np.uint8(7), ph) == \
        I.vaughan_mobius_sides(50, 97, 7, ph)
    t = np.arange(1, 50, dtype=np.uint32)
    assert ph.unit_array(t).tobytes() == ph.unit_array(t.astype(np.int64)).tobytes()
    assert ph.unit_array(t.astype(object)).tobytes() == ph.unit_array(t).tobytes()
    assert ph.frac(np.uint8(7)) == ph.frac(7) and ph.unit(np.int64(7)) == ph.unit(7)
    assert I.run_verification("vaughan-mu", np.int64(3), np.int64(5)) == \
        I.run_verification("vaughan-mu", 3, 5)
