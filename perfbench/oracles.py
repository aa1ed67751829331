"""Independent checks of every benchmark request's output.

`Oracle.check(req, result)` returns None when the output is accepted and a
one-line reason when it is rejected.  Checks run in the parent process, after
the timed batch:

- sum and scan sums: `floor_sum_naive` for x <= 1e7; above that
  `floor_sum_fast` at the second split N = isqrt(x // 1000), which the exact
  any-split identity says gives the same sum.  Lambda sums agree to relative
  1e-12, the others exactly.
- main-term constants: within their tail bound of the Dirichlet-series value
  C_f = f(1)/2 + sum_{k>=2} (-1)^k (F(k) - f(1)), F(s) = sum f(n) n^-s,
  evaluated with mpmath from zeta, zeta' and the prime zeta function.
- verify and psi: relative residual and bound violation <= 1e-9; the psi
  envelope mean against its closed form.
- pairs: the pair rederived from its seed and A/B word, and its exponent
  recomputed exactly from the theorem formulas.
- expsum: ratio = measured / claimed <= 10.
- convolutions: entrywise against closed forms (1*1 = tau2, mu*1 = [n=1],
  mu*tau3 = tau2, chi2*1 = mu2, mu2*1 = 2^omega; Lambda*1 = log n to 1e-9).
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from math import isqrt

import numpy as np

from floorsums import arith, floorsum
from workloads import scan_grid

NAIVE_LIMIT = 10**7
REL_LAMBDA = 1e-12
RESIDUAL_MAX = 1e-9
RATIO_MAX = 10.0
SECOND_SPLIT_RATIO = 1000       # second split N = isqrt(x // 1000)


class Rejected(Exception):
    pass


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise Rejected(why)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Dirichlet-series reference constants

def reference_constant(name: str) -> float:
    """C_f = sum f(n)/(n(n+1)) from the Dirichlet series of f (mpmath)."""
    import mpmath as mp

    kind = arith.kind_from_name(name)
    tag = kind.tag

    def series(s):
        z = mp.zeta
        if tag == "one":
            return z(s)
        if tag == "mobius":
            return 1 / z(s)
        if tag == "mobius_squared":
            return z(s) / z(2 * s)
        if tag == "lambda":
            return -z(s, 1, 1) / z(s)
        if tag == "tau":
            return z(s) ** kind.r
        if tag == "omega":
            return z(s) * mp.primezeta(s)
        if tag == "two_pow_omega":
            return z(s) ** 2 / z(2 * s)
        if tag == "chi_two":
            return 1 / z(2 * s)
        raise ValueError(tag)

    f1 = 0 if tag in ("lambda", "omega") else 1
    with mp.workdps(40):
        total = mp.mpf(f1) / 2
        # F(k) - f(1) = O(r^k 2^-k); 140 terms reach far below double rounding
        for k in range(2, 140):
            total += (-1) ** k * (series(k) - f1)
        return float(total)


# ---------------------------------------------------------------------------
# independent pair calculus

def _hb(m: int) -> tuple[Fraction, Fraction]:
    return (Fraction(2, (m - 1) ** 2 * (m + 2)),
            1 - Fraction(3 * m - 2, m * (m - 1) * (m + 2)))


_SEEDS = {"trivial": (Fraction(0), Fraction(1)),
          "classic": (Fraction(1, 6), Fraction(2, 3)),
          "bourgain": (Fraction(13, 84), Fraction(55, 84))}


def _seed_pair(seed: str) -> tuple[Fraction, Fraction]:
    if seed.startswith("hb:"):
        return _hb(int(seed[3:]))
    return _SEEDS[seed]


def _apply_word(word: str, k: Fraction, l: Fraction) -> tuple[Fraction, Fraction]:
    for ch in reversed("" if word == "-" else word):
        if ch == "A":
            k, l = k / (2 * k + 2), (k + l + 1) / (2 * k + 2)
        else:
            k, l = l - Fraction(1, 2), k + Fraction(1, 2)
    return k, l


def _exponent(target: str, k: Fraction, l: Fraction) -> Fraction:
    if target == "lambda":
        return 14 * (k + 1) / (29 * k - l + 30)
    if target == "two-omega":
        return 2 * (k + 1) / (3 * k - l + 5)
    r = int(target.split(":")[1])
    return (k * (r - 1) + l + r - 1) / (k * (r - 1) + l + 2 * r - 1)


# ---------------------------------------------------------------------------

def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


class Oracle:
    def __init__(self):
        self._constants: dict[str, float] = {}
        self._sums: dict[tuple[str, int], int | float] = {}
        self._table: arith.SieveTable | None = None

    def constant(self, name: str) -> float:
        if name not in self._constants:
            self._constants[name] = reference_constant(name)
        return self._constants[name]

    def exact_sum(self, name: str, x: int):
        """S_f(x) by the naive sum (x <= 1e7) or at the second split."""
        key = (name, x)
        if key not in self._sums:
            kind = arith.kind_from_name(name)
            if x <= NAIVE_LIMIT:
                if self._table is None or self._table.kind != kind:
                    self._table = None      # release the previous 1e7 table first
                    self._table = arith.build_sieve(kind, 1, NAIVE_LIMIT)
                self._sums[key] = floorsum.floor_sum_naive(kind, x, table=self._table)
            else:
                self._sums[key] = floorsum.floor_sum_fast(
                    kind, x, split=isqrt(x // SECOND_SPLIT_RATIO))
        return self._sums[key]

    def _same_sum(self, name: str, got, want) -> bool:
        if arith.kind_from_name(name).tag == "lambda":
            return _close(float(got), float(want), REL_LAMBDA)
        return isinstance(got, int) and got == want

    # -- per request ------------------------------------------------------

    def check(self, req: dict, res: dict) -> str | None:
        """None if the output is correct, else why it was rejected."""
        try:
            if res.get("rc") != 0:
                return f"exit status {res.get('rc')} {res.get('exception', '')}".strip()
            if req["op"] == "convolve":
                self._check_convolve(req, res)
                return None
            lines = res["stdout"].strip().splitlines()
            _require(bool(lines), "no output")
            payload = json.loads(lines[-1])
            _require(not (isinstance(payload, dict) and "error" in payload),
                     f"error payload {payload}")
            argv = req["argv"]
            getattr(self, "_check_" + argv[0])(argv, payload, res)
            return None
        except Rejected as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _check_constant(self, name: str, value: float, tail: float) -> None:
        _require(math.isfinite(tail) and tail > 0, f"tail bound {tail}")
        ref = self.constant(name)
        _require(abs(value - ref) <= tail + 1e-12,
                 f"constant {value} is {abs(value - ref):.3g} from reference {ref}, "
                 f"tail bound {tail:.3g}")

    def _check_sum(self, argv, p, res):
        name, x = _arg(argv, "--function"), int(_arg(argv, "--x"))
        kind = arith.kind_from_name(name)
        _require(p["function"] == str(kind) and p["x"] == x, "wrong function or x")
        want = self.exact_sum(name, x)
        _require(self._same_sum(name, p["sum"], want), f"sum {p['sum']} != {want}")
        self._check_constant(name, p["constant"], p["constant_tail_bound"])
        expect = float(p["sum"]) - x * p["constant"]
        _require(_close(p["residual"], expect, 1e-12), f"residual {p['residual']} != {expect}")

    def _check_scan(self, argv, p, res):
        name = _arg(argv, "--function")
        kind = arith.kind_from_name(name)
        grid = scan_grid(_arg(argv, "--grid"))
        _require(p["function"] == str(kind) and p["grid"] == grid, "wrong function or grid")
        c = p["constant"]
        self._check_constant(name, c, floorsum._tail_bound(kind, p["cutoff"]))
        lam = kind.tag == "lambda"
        for x, r in zip(grid, p["residuals"], strict=True):
            s = self.exact_sum(name, x)
            expect = abs(float(s) - x * c)
            tol = REL_LAMBDA * max(1.0, abs(float(s))) if lam else 0.0
            _require(abs(r - expect) <= tol, f"residual at x={x}: {r} != {expect}")
        logs = np.log([max(r, floorsum.RESIDUAL_FLOOR) for r in p["residuals"]])
        slope, intercept = np.polyfit(np.log(grid), logs, 1)
        _require(_close(p["slope"], slope, 1e-9) and _close(p["intercept"], intercept, 1e-9),
                 "fit does not match residuals")
        if "out" in res:
            with open(res["out"], newline="") as fh:
                rows = list(csv.reader(fh))
            _require(rows[0] == ["x", "sum", "main_term", "residual"], "bad CSV header")
            _require([int(r[0]) for r in rows[1:]] == grid, "CSV grid differs")
            for xs, ss, ms, rs in rows[1:]:
                x = int(xs)
                s = self.exact_sum(name, x)
                got = float(ss) if lam else int(ss)
                _require(self._same_sum(name, got, s), f"CSV sum at x={x}: {ss} != {s}")
                _require(_close(float(ms), x * c, 1e-12), f"CSV main term at x={x}")
                _require(_close(float(rs), float(s) - x * c, 1e-12 * max(1.0, x * abs(c))),
                         f"CSV residual at x={x}")

    def _check_verify(self, argv, p, res):
        trials = int(_arg(argv, "--trials"))
        _require(p["subject"] == argv[1] and p["trials"] == trials
                 and p["seed"] == int(_arg(argv, "--seed")), "wrong subject, trials or seed")
        reps = p["reports"]
        _require(len(reps) == trials, "wrong report count")
        worst = max(r["relative"] for r in reps)
        _require(worst == p["max_relative_residual"], "max residual does not match reports")
        _require(worst <= RESIDUAL_MAX, f"relative residual {worst:.3g} > {RESIDUAL_MAX}")

    def _check_psi(self, argv, p, res):
        H, N = int(_arg(argv, "--H")), int(_arg(argv, "--grid"))
        _require(p["H"] == H and p["grid"] == N, "wrong H or grid")
        _require(p["max_violation"] <= RESIDUAL_MAX,
                 f"Vaaler bound violated by {p['max_violation']:.3g}")
        _require(p["coefficient_envelope_ok"] is True, "coefficient envelope")
        # sum_{j=0}^{N-1} F_H(j/N) = N sum_{|h|<=H, N|h} (1 - |h|/(H+1)); drop j = 0
        total = N * sum((1 - abs(h) / (H + 1)) for h in range(-(H // N) * N, H + 1, N))
        mean = (total - (H + 1)) / ((N - 1) * (2 * H + 2))
        _require(_close(p["envelope_mean"], mean, 1e-9),
                 f"envelope mean {p['envelope_mean']} != {mean}")
        _require(0 < p["envelope_max"] <= 0.5 + 1e-12, "envelope max outside (0, 1/2]")

    def _check_pairs(self, argv, p, res):
        target, depth = _arg(argv, "--target"), int(_arg(argv, "--depth"))
        _require(p["target"] == target and p["depth"] == depth, "wrong target or depth")
        _require(len(p["word"].strip("-")) <= depth, "word longer than depth")
        k, l = _apply_word(p["word"], *_seed_pair(p["seed"]))
        _require((k, l) == (Fraction(p["k"]), Fraction(p["l"])),
                 f"({p['k']}, {p['l']}) is not {p['word']} applied to {p['seed']}")
        want = _exponent(target, k, l)
        _require(Fraction(p["exponent"]) == want, f"exponent {p['exponent']} != {want}")

    def _check_expsum(self, argv, p, res):
        _require(p["case"] == _arg(argv, "--case"), "wrong case")
        _require(p["parameters"]["R"] == int(_arg(argv, "--R")), "wrong R")
        _require(p["measured"] >= 0 and p["claimed"] > 0, "nonpositive bound")
        _require(_close(p["ratio"], p["measured"] / p["claimed"], 1e-12), "ratio mismatch")
        _require(p["ratio"] <= RATIO_MAX, f"ratio {p['ratio']:.3g} > {RATIO_MAX}")

    def _check_convolve(self, req, res):
        L = req["limit"]
        vals = np.load(res["values"])
        _require(vals.shape == (L,), f"shape {vals.shape} != ({L},)")
        closed = req["closed_form"]
        if closed == "log":
            err = np.max(np.abs(vals - np.log(np.arange(1, L + 1, dtype=np.float64))))
            _require(err <= 1e-9, f"Lambda*1 differs from log n by {err:.3g}")
            return
        _require(vals.dtype.kind == "i", f"integer convolution has dtype {vals.dtype}")
        if closed == "unit":
            want = np.zeros(L, dtype=np.int64)
            want[0] = 1
        else:
            want = arith.build_sieve(arith.kind_from_name(closed), 1, L).values
        bad = np.flatnonzero(vals != want)
        _require(bad.size == 0, f"{req['f']}*{req['g']} != {closed} at n={bad[:1] + 1}")
