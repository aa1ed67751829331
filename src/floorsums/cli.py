"""Unified command-line front end.

Commands: sieve, sum, scan, constant, psi, verify, expsum, pairs.  JSON is
the canonical output format (keys sorted, reals as shortest round-trip
decimals, rationals as "p/q" strings); CSV columns are fixed per command.
Identical arguments produce byte-identical output.

Each subcommand declares only the options it reads.  Output options:
`sieve --out` (the CSV to write, required), `sum --format json|csv`, `scan
--out` (an extra CSV of the sums), and `--precision` on those three
(significant digits for reals in CSV, default 15, at least 1).  `verify
--seed` is the master seed of the randomized trials (non-negative, default
0).  Budgets are fixed module constants, not settings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import arith, expsum, floorsum, identities, pairs
from . import psi as psi_mod

_PRECISION_HELP = "significant digits for reals in CSV output (default 15)"
_MAX_GRID_POINTS = 10**3      # scan grid points; each is one exact sum S_f(x)
# seed pairs of one spec, as --depth is capped at 20: a depth-20 search grows
# with every seed (lambda: 4.5 s, 386 MiB with 17 seeds; 8.5 s, 722 MiB with 32)
_MAX_SEEDS = 32


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _fmt_real(v: float, precision: int) -> str:
    return format(float(v), f".{precision}g")


def _parse_pair(s: str) -> pairs.ExponentPair:
    parts = s.split(",")
    if len(parts) != 2:
        raise ValueError("pair must look like 13/84,55/84")
    return pairs.ExponentPair(pairs.parse_rational(parts[0]),
                              pairs.parse_rational(parts[1]))


def _parse_seeds(spec: str) -> list[pairs.ExponentPair]:
    """The pairs a seed spec names (pair names, hb:m, hb:a..b), counted
    before any is built and at most _MAX_SEEDS."""
    named = []          # a pair name, or a range of Heath-Brown m, per token
    for tok in spec.split(","):
        tok = tok.strip()
        if tok in pairs.SEED_PAIRS:
            named.append(tok)
        elif tok.startswith("hb:") and ".." in tok:
            lo, hi = map(int, tok[3:].split(".."))
            if lo > hi:
                raise ValueError(f"seed range {tok!r} is empty (hb:a..b needs a <= b)")
            named.append(range(lo, hi + 1))
        elif tok.startswith("hb:"):
            m = int(tok[3:])
            named.append(range(m, m + 1))
        else:
            raise ValueError(f"unknown seed {tok!r} (names: "
                             f"{', '.join(pairs.SEED_PAIRS)}, hb:m, hb:a..b)")
    count = sum(1 if isinstance(n, str) else len(n) for n in named)
    if count > _MAX_SEEDS:
        raise ValueError(f"seeds name {count} pairs, at most {_MAX_SEEDS}")
    return [p for n in named for p in ([pairs.SEED_PAIRS[n]] if isinstance(n, str)
                                       else map(pairs.heath_brown_pair, n))]


def _parse_grid(spec: str) -> list[int]:
    lo, hi, points = spec.split(":")
    lo, hi, points = int(lo), int(hi), int(points)
    if points < 2 or not 1 <= lo < hi:
        raise ValueError("grid must be lo:hi:points with 1 <= lo < hi, points >= 2")
    if points > _MAX_GRID_POINTS:
        raise ValueError(f"grid points must be <= {_MAX_GRID_POINTS}, got {points}")
    xs = np.logspace(np.log10(lo), np.log10(hi), points)
    return sorted(set(int(round(v)) for v in xs))


# built once per process, for callers that run many commands in-process: a
# build takes about 2 ms and leaves cyclic garbage (verify-mix, seeds 1-3:
# peak RSS 62.5-64.5 MiB with the cache, 0.4-0.6 MiB more without)
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="floorsums",
        description="Floor-quotient sums sum_{n<=x} f(floor(x/n)): exact "
                    "evaluators, identity verifiers, trigonometric psi "
                    "approximation, exponential-sum sanity checks, and an "
                    "exact-rational exponent-pair calculus.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="tabulate one arithmetic function on an interval",
                       description="Tabulate f(n) on [lo, hi] by segmented sieving and write CSV 'n,value'. "
                                   "Functions: one, mu, mu2, lambda, tau<r>, omega, 2omega, chi2.")
    p.add_argument("--function", required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--out", help="CSV file to write (required)")
    p.add_argument("--precision", type=int, default=15, help=_PRECISION_HELP)

    p = sub.add_parser("sum", help="evaluate S_f(x) = sum_{n<=x} f(floor(x/n))",
                       description="Exact floor-quotient sum by the naive O(x) or the sqrt-split method, "
                                   "with the main-term constant C_f = sum f(n)/(n(n+1)) and residual S - x C_f.")
    p.add_argument("--function", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--method", choices=("naive", "fast"), default="fast")
    p.add_argument("--cutoff", type=int, default=None,
                   help="sum the constant C_f by sieve to this cutoff (at most 10^9) instead "
                        "of from its Dirichlet series (the default)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--precision", type=int, default=15, help=_PRECISION_HELP)

    p = sub.add_parser("scan", help="residual scan over a log-spaced grid of x",
                       description="Evaluate S_f(x) over a grid, compare against x C_f, and fit the "
                                   "log-log slope of |S - x C_f| (ordinary least squares).")
    p.add_argument("--function", required=True)
    p.add_argument("--grid", required=True, help="lo:hi:points, log-spaced")
    p.add_argument("--cutoff", type=int, default=None,
                   help="sum the constant C_f by sieve to this cutoff (at most 10^9) instead "
                        "of from its Dirichlet series (the default)")
    p.add_argument("--out", help="also write the sums and residuals as CSV")
    p.add_argument("--precision", type=int, default=15, help=_PRECISION_HELP)

    p = sub.add_parser("constant", help="main-term constant C_f with its error bound",
                       description="C_f = sum_{n>=1} f(n)/(n(n+1)) from its Dirichlet series, with an "
                                   "a-priori error bound; with --cutoff, the partial sum to the cutoff "
                                   "plus an explicit upper bound on the discarded tail.")
    p.add_argument("--function", required=True)
    p.add_argument("--cutoff", type=int, default=None,
                   help="sum C_f by sieve to this cutoff (at most 10^9) instead of from its series")

    p = sub.add_parser("psi", help="Vaaler approximation quality of the Bernoulli function psi",
                       description="Check |psi(x) - psi_H(x)| <= F_H(x)/(2H+2) pointwise on a uniform grid, "
                                   "where psi_H is the degree-H Vaaler polynomial and F_H the Fejer kernel.")
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--grid", type=int, default=10**4)
    p.add_argument("--report", action="store_true", help="include envelope statistics")

    p = sub.add_parser("verify", help="randomized exact-identity verification",
                       description="Evaluate both sides of a decomposition identity on seeded random "
                                   "instances: Vaughan's identity for Lambda or mu (smooth, convolution and "
                                   "bilinear ranges split at a cutoff U), the Dirichlet hyperbola principle, "
                                   "or its dyadic exponential form; reports per-trial residuals.")
    p.add_argument("subject", choices=identities.VERIFY_SUBJECTS)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="master seed of the trials, non-negative")

    p = sub.add_parser("expsum", help="exponential-sum bound sanity ratios",
                       description="Measure |sum_{R<n<=2R} f(n) e(F(n))| exactly and compare against a "
                                   "claimed bound expression (implied constant 1, fixed epsilon factor "
                                   "z^0.05); reports measured, claimed and their ratio.")
    pe = p.add_subparsers(dest="expsum_cmd", required=True)
    pc = pe.add_parser("check", help="run one bound case",
                       description=f"Cases: {', '.join(expsum.BOUND_CASES)}.")
    pc.add_argument("--case", required=True, choices=expsum.BOUND_CASES)
    pc.add_argument("--z", required=True, help="phase size parameter (integer or real)")
    pc.add_argument("--R", type=int, required=True)
    pc.add_argument("--pair", default=None,
                    help="exponent pair as two rationals k,l: e.g. 1/6,2/3")
    pc.add_argument("--r", type=int, default=2, help="order for tau/bilinear cases")

    p = sub.add_parser("pairs", help="exact-rational exponent-pair calculus",
                       description="A/B-process derivations, error-exponent evaluation per target "
                                   "function, orbit search, and exact minimax balancing of exponent terms.")
    pp = p.add_subparsers(dest="pairs_cmd", required=True)
    d = pp.add_parser("derive", help="apply an A/B word to a seed pair")
    d.add_argument("--word", required=True, help="letters A/B in composition order, e.g. BA")
    d.add_argument("--seed", required=True, help=f"one of {', '.join(pairs.SEED_PAIRS)} or hb:m")
    d = pp.add_parser("exponent", help="error exponent for a target and a pair")
    d.add_argument("--target", required=True, help="lambda, tau:<r>, or two-omega")
    d.add_argument("--pair", required=True, help="k/l pair, e.g. 13/84,55/84")
    d = pp.add_parser("search", help="minimize the exponent over an A/B orbit")
    d.add_argument("--target", required=True)
    d.add_argument("--depth", type=int, required=True)
    d.add_argument("--seeds", required=True, help="e.g. classic,bourgain,hb:5..19")
    d = pp.add_parser("balance", help="exact minimax balance of exponent terms")
    d.add_argument("--spec", required=True, help="JSON file: free_variable, interval, terms")
    return ap


# ---------------------------------------------------------------------------
# command implementations

def _cmd_sieve(args) -> int:
    if args.out is None:
        raise ValueError("sieve needs --out for its CSV")
    kind = arith.kind_from_name(args.function)
    table = arith.build_sieve(kind, args.lo, args.hi)
    with open(args.out, "w") as fh:
        fh.write("n,value\n")
        if kind.tag == "lambda":
            for i, v in enumerate(table.values):
                fh.write(f"{table.lo + i},{_fmt_real(v, args.precision)}\n")
        else:
            for i, v in enumerate(table.values):
                fh.write(f"{table.lo + i},{int(v)}\n")
    _emit({"function": str(kind), "lo": args.lo, "hi": args.hi, "out": args.out,
           "entries": len(table)})
    return 0


def _cmd_sum(args) -> int:
    kind = arith.kind_from_name(args.function)
    rep = floorsum.summarize(kind, args.x, method=args.method, cutoff=args.cutoff)
    payload = {"function": str(kind), "x": rep.x, "sum": rep.sum,
               "constant": rep.constant,
               "constant_tail_bound": rep.constant_tail_bound,
               "residual": rep.residual, "method": args.method,
               "cutoff": args.cutoff}
    if args.format == "csv":
        p = args.precision
        print("function,x,sum,constant,constant_tail_bound,residual")
        s = rep.sum if isinstance(rep.sum, int) else _fmt_real(rep.sum, p)
        print(f"{kind},{rep.x},{s},{_fmt_real(rep.constant, p)},"
              f"{_fmt_real(rep.constant_tail_bound, p)},{_fmt_real(rep.residual, p)}")
    else:
        _emit(payload)
    return 0


def _cmd_scan(args) -> int:
    kind = arith.kind_from_name(args.function)
    grid = _parse_grid(args.grid)
    fit = floorsum.error_scan(kind, grid, cutoff=args.cutoff)
    if args.out:
        p = args.precision
        with open(args.out, "w") as fh:
            fh.write("x,sum,main_term,residual\n")
            for x, s in zip(fit.grid, fit.sums):
                main = x * fit.constant
                sv = s if isinstance(s, int) else _fmt_real(s, p)
                fh.write(f"{x},{sv},{_fmt_real(main, p)},"
                         f"{_fmt_real(float(s) - main, p)}\n")
    _emit({"function": str(kind), "grid": list(fit.grid),
           "residuals": list(fit.residuals), "slope": fit.slope,
           "intercept": fit.intercept, "constant": fit.constant,
           "constant_tail_bound": fit.constant_tail_bound, "cutoff": args.cutoff})
    return 0


def _cmd_constant(args) -> int:
    kind = arith.kind_from_name(args.function)
    value, tail = floorsum._main_term(kind, args.cutoff)
    _emit({"function": str(kind), "cutoff": args.cutoff, "value": value,
           "tail_bound": tail})
    return 0


def _cmd_psi(args) -> int:
    violation = psi_mod.verify_pointwise_bound(args.H, args.grid)
    payload = {"H": args.H, "grid": args.grid, "max_violation": violation}
    if args.report:
        xs = np.arange(1, args.grid) / args.grid
        env = psi_mod.fejer_envelope(args.H, xs)
        payload["envelope_mean"] = float(np.mean(env))
        payload["envelope_max"] = float(np.max(env))
        # |c_h| = |J_h|/(2 pi h) <= 1/(2h)
        h = np.arange(1, args.H + 1)
        damping = psi_mod.vaaler_polynomial(args.H)
        payload["coefficient_envelope_ok"] = bool(np.all(
            np.abs(damping) / (2 * np.pi * h) <= 1 / (2 * h) + 1e-15))
    _emit(payload)
    return 0


def _cmd_verify(args) -> int:
    reports = identities.run_verification(args.subject, args.trials, args.seed)
    worst = max(r["relative"] for r in reports)
    _emit({"subject": args.subject, "trials": args.trials, "seed": args.seed,
           "max_relative_residual": worst, "reports": reports})
    return 0


def _cmd_expsum(args) -> int:
    z = args.z
    zval: int | float = int(z) if z.lstrip("+-").isdigit() else float(z)
    pr = _parse_pair(args.pair) if args.pair else None
    rep = expsum.check_bound(args.case, zval, args.R, pair=pr, r=args.r)
    _emit({"case": rep.case, "measured": rep.measured, "claimed": rep.claimed,
           "ratio": rep.ratio, "parameters": rep.parameters})
    return 0


def _balance_problem_from_json(path: str) -> pairs.BalanceProblem:
    with open(path) as fh:
        spec = json.load(fh)
    terms = []
    for t in spec["terms"]:
        # a term is either a plain {var: "p/q"} map or carries explicit
        # "exponents" plus an optional "scale" for rooted terms
        if "exponents" in t or "scale" in t:
            exps = {v: pairs.parse_rational(e) for v, e in t.get("exponents", {}).items()}
            scale = pairs.parse_rational(str(t.get("scale", "1")))
        else:
            exps = {v: pairs.parse_rational(e) for v, e in t.items()}
            scale = 1
        terms.append(pairs.TermExponent.of(scale=scale, **exps))
    interval = spec.get("interval")
    if interval is not None:
        interval = (pairs.parse_rational(interval[0]), pairs.parse_rational(interval[1]))
    return pairs.BalanceProblem.of(terms, spec["free_variable"], interval)


def _rat_or_map(v) -> object:
    if isinstance(v, dict):
        return {k: pairs.format_rational(x) for k, x in sorted(v.items())}
    return pairs.format_rational(v)


def _cmd_pairs(args) -> int:
    if args.pairs_cmd == "derive":
        seeds = _parse_seeds(args.seed)
        if len(seeds) != 1:
            raise ValueError(f"derive needs exactly one seed pair, {args.seed!r} gives {len(seeds)}")
        base = seeds[0]
        p = pairs.apply_word(args.word, base)
        _emit({"seed": args.seed, "word": args.word,
               "k": pairs.format_rational(p.k), "l": pairs.format_rational(p.l),
               "eps_carrier": p.eps_carrier})
    elif args.pairs_cmd == "exponent":
        p = _parse_pair(args.pair)
        e = pairs.theorem_exponent(args.target, p)
        if isinstance(e, pairs.Infeasible):
            _emit({"infeasible": e.constraint})
        else:
            _emit(pairs.format_rational(e))
    elif args.pairs_cmd == "search":
        seeds = _parse_seeds(args.seeds)
        best, expo = pairs.minimize_over_pairs(args.target, seeds, args.depth)
        _emit({"target": args.target, "depth": args.depth,
               "k": pairs.format_rational(best.k), "l": pairs.format_rational(best.l),
               "word": best.word_str(), "seed": best.seed,
               "eps_carrier": best.eps_carrier,
               "exponent": pairs.format_rational(expo)})
    else:
        problem = _balance_problem_from_json(args.spec)
        res = pairs.balance_exponents(problem)
        _emit({"nu_star": _rat_or_map(res.nu_star), "value": _rat_or_map(res.value),
               "active_terms": list(res.active_terms)})
    return 0


_DISPATCH = {
    "sieve": _cmd_sieve, "sum": _cmd_sum, "scan": _cmd_scan,
    "constant": _cmd_constant, "psi": _cmd_psi, "verify": _cmd_verify,
    "expsum": _cmd_expsum, "pairs": _cmd_pairs,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        # checked before any output, so a CSV is never left half written
        if getattr(args, "precision", 1) < 1:
            raise ValueError(f"--precision must be >= 1, got {args.precision}")
        return _DISPATCH[args.command](args)
    except Exception as exc:  # argparse errors exit(2) before reaching here
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
