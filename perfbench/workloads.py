"""Seeded request batches for the three benchmark workloads.

A request is a JSON-able dict: ``{"id", "op", ...}`` where ``op`` is ``"cli"``
(``argv`` goes to ``floorsums.cli.main``) or ``"convolve"`` (the library call
``dirichlet_convolve(f, g, limit)`` on freshly sieved tables).  The literal
``@OUT`` in an argv is replaced by the worker with a CSV path inside the run
directory.  Generation is pure: one (workload, seed, seconds) triple always
gives the same list.

Batch sizes depend only on ``seconds`` (never on measured speed), so a faster
program finishes the same batch sooner.  Continuous parameters are drawn by
stratified log-uniform sampling, and categorical ones from cost strata, by a
fixed coupling to those strata or from seeded permutations, so that every seed
gets the same mix of cheap and expensive requests; without that, the spread of
``wall_s`` across seeds would be set by the luck of the draw rather than by
the program.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sum-large", "scan", "verify-mix")

NINE_NAMES = ("one", "mu", "mu2", "lambda", "tau2", "tau3", "omega", "2omega", "chi2")

# scan: one name per cost stratum per round.  A whole scan request, most of
# it the cutoff-1e8 constant, takes 1.4-2.1 s for the square-supported
# sieves, 6.9-7.8 s for mu, omega and 2^omega, 9.6-10.1 s for tau_2 and
# tau_3, and 5.1-5.9 s for lambda (2-vCPU host), so a free draw from the nine
# names would make the batch time a lottery.
SCAN_STRATA = (("one", "mu2", "chi2"), ("mu", "omega", "2omega"), ("tau2", "tau3"),
               ("lambda",))
SCAN_GRID = "1000:10000000:20"

VERIFY_SUBJECTS = ("vaughan-lambda", "vaughan-mu", "hyperbola", "hyperbola-exp")
PAIR_TARGETS = ("lambda", "tau:2", "tau:3", "tau:4", "tau:5", "tau:6", "two-omega")
PAIR_DEPTHS = (6, 7, 8, 9, 10)
PAIR_SEEDS = "classic,bourgain,hb:5..19"
EXPSUM_Z = 10**6
# the three acceptance-criterion-10 cases at z = 1e6
EXPSUM_CASES = (
    ("lambda-reciprocal", int(EXPSUM_Z ** 0.6), "1/6,2/3"),
    ("unitary-reciprocal", int(EXPSUM_Z ** 0.55), "1/6,2/3"),
    ("omega-reciprocal", int(EXPSUM_Z ** 0.6), None),
)
# (f, g, closed form of f*g), by the share of n with f(n) != 0: the work of
# dirichlet_convolve.  Round i takes pair i mod 6 with the i-th smallest L, so
# the batch's convolution work does not hinge on a random coupling of pairs
# with sizes (one*one at 1e6 costs a thousand times chi2*1 at 1e5).
CONVOLUTIONS = (("chi2", "one", "mu2"), ("lambda", "one", "log"),
                ("mu", "one", "unit"), ("mu", "tau3", "tau2"),
                ("mu2", "one", "2omega"), ("one", "one", "tau2"))

# nominal parent-commit cost of one round, used only to turn --seconds into a
# batch size.  A sum-large round asks once for each of the nine names.
_NOMINAL_S = {"sum-large": 16.0, "scan": 26.0, "verify-mix": 3.2}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"floorsums-perfbench/{workload}/{seed}")


def _cycled(rng: random.Random, items, n: int) -> list:
    """n items taken from back-to-back seeded permutations of `items`."""
    out: list = []
    while len(out) < n:
        perm = list(items)
        rng.shuffle(perm)
        out.extend(perm)
    return out[:n]


def _log_uniform_strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One log-uniform draw from each of n equal log-width strata, ascending."""
    a, b = math.log10(lo), math.log10(hi)
    width = (b - a) / n
    return [10 ** (a + width * (i + rng.random())) for i in range(n)]


def batch_size(workload: str, seconds: int) -> int:
    """Rounds in one batch."""
    return max(1, round(seconds / _NOMINAL_S[workload]))


def _sum_large(rng, rounds):
    # X takes one log-uniform draw from each of 9 * rounds strata.  Names are
    # coupled to strata by a fixed rule, not by the seed: with the cutoff-1e7
    # constant costing 0.06 s (one) to 1 s (tau3), a random coupling would
    # decide which name lands on the median request.  Round r gives the names
    # the strata r, r + rounds, ..., in NINE_NAMES order, reversed on odd
    # rounds, so each name meets both ends of the range.
    xs = _log_uniform_strata(rng, 1e8, 1e10, rounds * len(NINE_NAMES))
    reqs = []
    for r in range(rounds):
        names = NINE_NAMES if r % 2 == 0 else NINE_NAMES[::-1]
        for f, x in zip(names, xs[r::rounds]):
            reqs.append({"op": "cli", "argv": ["sum", "--function", f,
                                               "--x", str(int(round(x)))]})
    rng.shuffle(reqs)
    return reqs


def _scan(rng, rounds):
    reqs = []
    for _ in range(rounds):
        names = [rng.choice(stratum) for stratum in SCAN_STRATA]
        # each request gets --out with probability 1/2: exactly one of the
        # cheap/expensive pair (strata 0, 2) and one of the middle pair (1, 3)
        out = {rng.choice((0, 2)), rng.choice((1, 3))}
        order = list(range(len(names)))
        rng.shuffle(order)
        for i in order:
            argv = ["scan", "--function", names[i], "--grid", SCAN_GRID]
            if i in out:
                argv += ["--out", "@OUT"]
            reqs.append({"op": "cli", "argv": argv})
    return reqs


def _verify_mix(rng, rounds):
    # Round i runs the verify suites with their own seed i and pairs search at
    # depth 6 + i mod 5, so every batch does the same verification work; the
    # benchmark seed draws H, L, the pair targets and their order.
    Hs = _log_uniform_strata(rng, 1e2, 1e4, rounds)
    rng.shuffle(Hs)
    targets = _cycled(rng, PAIR_TARGETS, rounds)
    convs = [CONVOLUTIONS[i * len(CONVOLUTIONS) // rounds] for i in range(rounds)]
    Ls = _log_uniform_strata(rng, 1e5, 1e6, rounds)
    reqs = []
    for i in range(rounds):
        for subject in VERIFY_SUBJECTS:
            reqs.append({"op": "cli", "argv": ["verify", subject, "--trials", "100",
                                               "--seed", str(i)]})
        reqs.append({"op": "cli", "argv": ["psi", "--H", str(int(round(Hs[i]))),
                                           "--grid", "10000", "--report"]})
        reqs.append({"op": "cli", "argv": ["pairs", "search", "--target", targets[i],
                                           "--depth", str(PAIR_DEPTHS[i % len(PAIR_DEPTHS)]),
                                           "--seeds", PAIR_SEEDS]})
        for case, R, pair in EXPSUM_CASES:
            argv = ["expsum", "check", "--case", case, "--z", str(EXPSUM_Z), "--R", str(R)]
            if pair:
                argv += ["--pair", pair]
            reqs.append({"op": "cli", "argv": argv})
        f, g, closed = convs[i]
        reqs.append({"op": "convolve", "f": f, "g": g, "closed_form": closed,
                     "limit": int(round(Ls[i]))})
    return reqs


def generate(workload: str, seed: int, seconds: int) -> list[dict]:
    """The seeded request batch of one workload, ids in execution order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")
    rng = _rng(workload, seed)
    make = {"sum-large": _sum_large, "scan": _scan, "verify-mix": _verify_mix}[workload]
    reqs = make(rng, batch_size(workload, seconds))
    for i, r in enumerate(reqs):
        r["id"] = i
    return reqs


def requested_points(req: dict) -> list[tuple[str, int]]:
    """The distinct (function name, x) pairs whose S_f(x) a request asks for."""
    argv = req.get("argv", [])
    if argv[:1] == ["sum"]:
        return [(argv[argv.index("--function") + 1], int(argv[argv.index("--x") + 1]))]
    if argv[:1] == ["scan"]:
        f = argv[argv.index("--function") + 1]
        return [(f, x) for x in scan_grid(argv[argv.index("--grid") + 1])]
    return []


def scan_grid(spec: str) -> list[int]:
    """The x values of a lo:hi:points grid: log-spaced, rounded, deduplicated."""
    lo, hi, points = (int(v) for v in spec.split(":"))
    a, b = math.log10(lo), math.log10(hi)
    xs = [10 ** (a + (b - a) * i / (points - 1)) for i in range(points)]
    return sorted({int(round(v)) for v in xs})
