"""Command-line front end: outputs, determinism, error reporting."""

import argparse
import hashlib
import json
import shlex
import time
from pathlib import Path

import pytest

from floorsums import arith, cli, floorsum
from floorsums.identities import PhaseFunction


README_EXAMPLES = [line for line in (Path(__file__).parents[1] / "README.md")
                   .read_text().splitlines() if line.startswith("floorsums ")]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_pairs_exponent_golden(capsys):
    code, out = run(capsys, "pairs", "exponent", "--target", "lambda",
                    "--pair", "13/84,55/84")
    assert code == 0
    assert out.strip() == '"97/203"'


def test_pairs_exponent_infeasible(capsys):
    d = run_json(capsys, "pairs", "exponent", "--target", "tau:6",
                 "--pair", "1/6,2/3")
    assert "infeasible" in d


def test_pairs_derive(capsys):
    d = run_json(capsys, "pairs", "derive", "--word", "BA", "--seed", "bourgain")
    assert (d["k"], d["l"]) == ("55/194", "55/97")
    assert d["eps_carrier"] is True


def test_pairs_derive_single_hb_seed(capsys):
    one = run_json(capsys, "pairs", "derive", "--word", "BA", "--seed", "hb:5")
    span = run_json(capsys, "pairs", "derive", "--word", "BA", "--seed", "hb:5..5")
    assert (one["k"], one["l"], one["eps_carrier"]) == ("127/285", "29/57", True)
    assert one == {**span, "seed": "hb:5"}


def test_pairs_search(capsys):
    d = run_json(capsys, "pairs", "search", "--target", "tau:3", "--depth", "4",
                 "--seeds", "classic,bourgain")
    assert d["exponent"] == "283/574"


def test_pairs_search_hb_seed_range(capsys):
    from fractions import Fraction as F
    d = run_json(capsys, "pairs", "search", "--target", "tau:5", "--depth", "0",
                 "--seeds", "hb:5..19")
    # at least as good as the hb:9 member of the family, 1/2 - 1/(2(4r^3 - r - 1))
    r = 5
    assert F(d["exponent"]) <= F(1, 2) - F(1, 2 * (4 * r**3 - r - 1))


def test_pairs_seed_specs_are_counted_before_any_pair_is_built(capsys, monkeypatch):
    monkeypatch.setattr(cli.pairs, "heath_brown_pair", lambda m: pytest.fail("pair built"))
    start = time.perf_counter()
    code, out = run(capsys, "pairs", "search", "--target", "lambda", "--depth", "1",
                    "--seeds", "hb:3..1000000")
    assert time.perf_counter() - start < 1
    assert code == 1 and json.loads(out) == {
        "error": "ValueError", "message": "seeds name 999998 pairs, at most 32"}
    code, out = run(capsys, "pairs", "search", "--target", "lambda", "--depth", "1",
                    "--seeds", "classic,bourgain,hb:3..33")
    assert json.loads(out)["message"] == "seeds name 33 pairs, at most 32"
    monkeypatch.undo()
    d = run_json(capsys, "pairs", "search", "--target", "lambda", "--depth", "1",
                 "--seeds", "classic,hb:3..33")          # 32 pairs, the cap
    assert d["depth"] == 1


def test_pairs_balance(capsys, tmp_path):
    spec = {
        "free_variable": "N",
        "interval": ["1/3", "1/2"],
        "terms": [
            {"exponents": {"N": "1"}},
            {"scale": "1/31045", "exponents": {"x": "17271", "N": "-7367"}},
            {"exponents": {"x": "17271/13774", "N": "-127/71"}},
            {"scale": "1/17271", "exponents": {"x": "9904", "N": "-6407"}},
            {"exponents": {"x": "6407/13774", "N": "-15/71"}},
        ],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    d = run_json(capsys, "pairs", "balance", "--spec", str(path))
    assert d["nu_star"] == "1919/4268"
    assert d["value"] == "1919/4268"


def test_pairs_balance_plain_map_terms(capsys, tmp_path):
    # terms may also be bare variable -> rational maps (scale folded in)
    spec = {
        "free_variable": "U",
        "terms": [
            {"z": "55/194", "U": "21/97"},
            {"z": "1/6", "R": "5/6", "U": "-371/582"},
        ],
    }
    path = tmp_path / "uproblem.json"
    path.write_text(json.dumps(spec))
    d = run_json(capsys, "pairs", "balance", "--spec", str(path))
    assert d["nu_star"] == {"R": "485/497", "z": "-68/497"}
    assert d["active_terms"] == [0, 1]


def test_sum_fast_equals_naive_through_cli(capsys):
    fast = run_json(capsys, "sum", "--function", "tau2", "--x", "20000",
                    "--method", "fast", "--cutoff", "100000")
    naive = run_json(capsys, "sum", "--function", "tau2", "--x", "20000",
                     "--method", "naive", "--cutoff", "100000")
    assert fast["sum"] == naive["sum"]
    assert isinstance(fast["sum"], int)


def test_sum_csv_format(capsys):
    code, out = run(capsys, "sum", "--function", "mu2", "--x", "1000",
                    "--cutoff", "10000", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "function,x,sum,constant,constant_tail_bound,residual"
    assert row.startswith("mobius_squared,1000,")


def test_sieve_writes_csv(capsys, tmp_path):
    dest = tmp_path / "table.csv"
    d = run_json(capsys, "sieve", "--function", "mu2", "--lo", "1", "--hi", "10",
                 "--out", str(dest))
    assert d["entries"] == 10
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == "n,value"
    assert lines[4] == "4,0"


def test_sieve_writes_lambda_csv_at_precision(capsys, tmp_path):
    dest = tmp_path / "lam.csv"
    d = run_json(capsys, "sieve", "--function", "lambda", "--lo", "1", "--hi", "30",
                 "--out", str(dest), "--precision", "6")
    assert d == {"entries": 30, "function": "lambda", "hi": 30, "lo": 1, "out": str(dest)}
    log = {2: "0.693147", 3: "1.09861", 5: "1.60944", 7: "1.94591", 11: "2.3979",
           13: "2.56495", 17: "2.83321", 19: "2.94444", 23: "3.13549", 29: "3.3673"}
    prime = {4: 2, 8: 2, 16: 2, 9: 3, 27: 3, 25: 5}
    want = ["n,value"] + [f"{n},{log.get(prime.get(n, n), '0')}" for n in range(1, 31)]
    assert dest.read_text() == "\n".join(want) + "\n"


# sha256 of the CSV `sieve --out` writes at the default precision, for the
# nine CLI names: on [1, 3000], and on the 300 entries that end at 10^12
SIEVE_SHA256 = {
    "one": ("b53fd9ade726f14fd344309cc7da975103ecefe81c07cbcda0abad1b3e063e7c",
            "dad72a8b42b617b5e055736b6acf18fad4f93e372e21179984af95c000c84cb2"),
    "mu": ("77c2681578c58bf612942bd8cd4e456a014e1e07861a75ec999fc67c27224e09",
           "0ee7388141207a11e778103310d8a98178bf76b1aa18da5685221566be72736b"),
    "mu2": ("97807774bb40d44aacf374058a18e10f387aa27c35e66cd46ebe6d422a003a01",
            "ecec90e8b4dfb7c0cab4092c1800e84962343cc169d4f5c00be14d794497b787"),
    "lambda": ("efd202db091f9f41b7408c9e825a45360cb348c62aa7dbe3e2ef430e9424fc12",
               "9768775e10170735ccc209b309c99f73596149011eb7399bf77c1bd1c2cc8b34"),
    "tau2": ("91cfeee541beedb4ec39d28d9bf401f2083509655ca5421d2f331f717d8b7720",
             "e49ef3789f79f34c1f021fc5b4ef213e8435eedeb526e8bb67318cf206399f98"),
    "tau3": ("8bee14170c19a05563f18960cb841770c786535d1848ee4f03748e5fe4eaab1d",
             "95d8ff4cbc5c5ec2266c090f1e85205442181aafb23c62ee2982b0ae74209290"),
    "omega": ("da5a6160e9778878c2a15c04da7fcd57314b2829f5f8ed229934b87e680cde74",
              "4282947aec34ac40abda0647ab7ac697de71abb06b4ae9e7839595637132029e"),
    "2omega": ("488c02274dbb79b1f6196394093ed34bc2098ae65cd7cc5e0a9f861ec2b4f118",
               "b6999b80eb144cd085051380c24ec3f00542d40be8b60ee9c1684ead2afba5a8"),
    "chi2": ("ff180680fda447ee6ecfff264a7cfe09f6ea0a36aa7ed841165ca3dd1b8b1153",
             "6d3874640bcedc645a452ef5a42c7b4875b1aa9b4b6b641b2d91adf16611aedb"),
}


def test_sieve_csv_bytes_are_pinned(capsys, tmp_path):
    dest = tmp_path / "table.csv"
    for name, want in SIEVE_SHA256.items():
        for (lo, hi), sha in zip([(1, 3000), (10**12 - 299, 10**12)], want):
            run_json(capsys, "sieve", "--function", name, "--lo", str(lo), "--hi", str(hi),
                     "--out", str(dest))
            assert hashlib.sha256(dest.read_bytes()).hexdigest() == sha, (name, lo)


def test_scan_report_and_csv(capsys, tmp_path, monkeypatch):
    from floorsums import floorsum
    calls = []
    split_sum = floorsum._split_sum

    def counted(kind, x, *args):
        calls.append(x)
        return split_sum(kind, x, *args)

    monkeypatch.setattr(floorsum, "_split_sum", counted)
    dest = tmp_path / "scan.csv"
    d = run_json(capsys, "scan", "--function", "mu2", "--grid", "1000:20000:4",
                 "--cutoff", "100000", "--out", str(dest))
    assert len(d["grid"]) == len(d["residuals"]) == 4
    # one exact sum per grid point, shared by the report and the CSV
    assert sorted(calls) == d["grid"]
    assert dest.read_text() == (
        "x,sum,main_term,residual\n"
        "1000,888,891.803922961232,-3.80392296123216\n"
        "2714,2421,2420.35584691678,0.644153083216224\n"
        "7368,6563,6570.81130437836,-7.81130437835782\n"
        "20000,17814,17836.0784592246,-22.0784592246418\n")


def test_constant_command(capsys):
    d = run_json(capsys, "constant", "--function", "one", "--cutoff", "10000")
    assert d["value"] == pytest.approx(1 - 1 / 10001, abs=1e-12)
    assert d["tail_bound"] >= 0


def test_psi_command(capsys):
    d = run_json(capsys, "psi", "--H", "10", "--grid", "2000", "--report")
    assert d["max_violation"] <= 1e-9
    assert d["coefficient_envelope_ok"] is True


def test_verify_deterministic_bytes(capsys):
    _, a = run(capsys, "verify", "vaughan-lambda", "--trials", "5", "--seed", "1")
    _, b = run(capsys, "verify", "vaughan-lambda", "--trials", "5", "--seed", "1")
    assert a == b
    _, c = run(capsys, "verify", "vaughan-lambda", "--trials", "5", "--seed", "2")
    assert c != a


def test_verify_reports_residuals(capsys):
    d = run_json(capsys, "verify", "hyperbola-exp", "--trials", "4", "--seed", "7")
    assert d["max_relative_residual"] <= 1e-9
    assert len(d["reports"]) == 4


def test_expsum_check_command(capsys):
    d = run_json(capsys, "expsum", "check", "--case", "unitary-reciprocal",
                 "--z", "1000000", "--R", "1995", "--pair", "1/6,2/3")
    assert d["ratio"] <= 10
    assert d["parameters"]["kind"] == "two_pow_omega"


def test_expsum_bilinear_power_beyond_int64(capsys):
    # (mn)^10 reaches 88^10 > 2^63, so the sum must not take the int64 path
    z = 2**61 + 1
    d = run_json(capsys, "expsum", "check", "--case", "bilinear-power", "--z", str(z),
                 "--R", "56", "--r", "10", "--pair", "1/6,2/3")
    assert d["parameters"]["kind"] == "bilinear(N=11, M=2)"
    ph = PhaseFunction.power_reciprocal(z, 10)
    ref = abs(sum(ph.unit(m * n) for n in range(12, 23) for m in range(3, 5)))
    assert abs(d["measured"] - ref) <= 1e-9


@pytest.mark.parametrize("z", ["inf", "nan", "1e400"])
@pytest.mark.parametrize("case", ["tau-exponent-pair", "mobius-power", "bilinear-power"])
def test_expsum_non_finite_z_is_a_value_error(capsys, case, z):
    # 1e400 parses to inf; nan used to reach the window test of mobius-power
    code, out = run(capsys, "expsum", "check", "--case", case, "--z", z,
                    "--R", "100", "--pair", "1/6,2/3")
    assert code == 1
    assert json.loads(out) == {"error": "ValueError",
                               "message": f"need a finite z, got z={float(z)}"}


def test_error_reports_are_machine_readable(capsys):
    code, out = run(capsys, "sum", "--function", "nope", "--x", "10")
    assert code == 1
    d = json.loads(out)
    assert d["error"] == "ValueError"
    code, out = run(capsys, "expsum", "check", "--case", "omega-reciprocal",
                    "--z", "1000000", "--R", "100000")
    assert code == 1
    assert json.loads(out)["error"] == "WindowError"



# (argv, message, error name); a test's id is "argv-message"
MALFORMED = [
    ("verify vaughan-mu --trials 0", "trials >= 1", "ValueError"),
    ("verify hyperbola --trials -1", "trials >= 1", "ValueError"),
    ("verify vaughan-lambda --trials 5 --seed -1", "seed >= 0, got -1", "ValueError"),
    ("verify hyperbola --seed -123", "seed >= 0, got -123", "ValueError"),
    ("pairs derive --word A --seed hb:9..3", "'hb:9..3' is empty", "ValueError"),
    ("pairs derive --word A --seed classic,bourgain", "exactly one seed pair", "ValueError"),
    ("pairs derive --word AC --seed classic", "invalid process letter 'C'", "ValueError"),
    ("pairs search --target lambda --depth 3 --seeds hb:9..3,classic", "'hb:9..3' is empty",
     "ValueError"),
    ("pairs search --target lambda --depth -2 --seeds classic", "depth must lie in [0, 20]",
     "ValueError"),
    ("pairs search --target lambda --depth 2 --seeds foo", "unknown seed 'foo'", "ValueError"),
    ("pairs exponent --target lambda --pair 1/6", "pair must look like", "ValueError"),
    ("pairs exponent --target lambda --pair 1/0,1", "nonzero denominator, got '1/0'", "ValueError"),
    ("pairs exponent --target mu --pair 1/6,2/3", "no theorem exponent for kind mobius",
     "ValueError"),
    ("pairs exponent --target tau:1 --pair 1/6,2/3", "tau target needs r >= 2", "ValueError"),
    ("scan --function mu --grid 0:1000:5", "1 <= lo < hi", "ValueError"),
    ("scan --function mu --grid 10:1000:1001 --cutoff 1000 --out {tmp}/scan.csv",
     "grid points must be <= 1000", "ValueError"),
    ("sum --function mu --x 0", "need x >= 1", "ValueError"),
    ("sum --function tau3 --x -5 --method naive", "need x >= 1", "ValueError"),
    ("sum --function mu --x 100 --format csv --precision -1", "--precision must be >= 1",
     "ValueError"),
    ("sum --function mu --x 100 --precision 0", "--precision must be >= 1", "ValueError"),
    ("sieve --function lambda --lo 1 --hi 20 --out {tmp}/lam.csv --precision -1",
     "--precision must be >= 1", "ValueError"),
    ("sieve --function mu --lo 1 --hi 20 --out {tmp}/mu.csv --precision 0",
     "--precision must be >= 1", "ValueError"),
    ("sieve --function mu --lo 1 --hi 20", "sieve needs --out", "ValueError"),
    ("sieve --function mu --lo 10 --hi 1 --out {tmp}/mu.csv", "need 1 <= lo <= hi",
     "ValueError"),
    ("scan --function mu --grid 10:1000:5 --out {tmp}/scan.csv --precision -1",
     "--precision must be >= 1", "ValueError"),
    ("expsum check --case lambda-reciprocal --z 1000000 --R 100",
     "this case needs an exponent pair", "ValueError"),
    ("expsum check --case lambda-reciprocal --z 1000000 --R 100 --pair 0,1",
     "pair fails 20k^2", "WindowError"),
    ("expsum check --case bilinear-power --z 1000 --R 900 --pair 1/6,2/3",
     "need R <= z^(2/(2r+1))", "WindowError"),
    ("expsum check --case unitary-reciprocal --z 100 --R 100000 --pair 1/6,2/3",
     "need R <= z^14/17", "WindowError"),
    ("expsum check --case tau-exponent-pair --z 5e-324 --R 2 --pair 1/6,2/3",   # z/R rounds to 0
     "need z/R > 0", "WindowError"),
]


@pytest.mark.parametrize("argv, message, error", MALFORMED,
                         ids=[f"{argv}-{message}" for argv, message, _ in MALFORMED])
def test_malformed_inputs_are_typed_errors(capsys, tmp_path, argv, message, error):
    assert cli.main(argv.replace("{tmp}", str(tmp_path)).split()) == 1
    out = capsys.readouterr()
    d = json.loads(out.out)
    assert d["error"] == error
    assert message in d["message"]
    assert out.err == ""
    assert not any(tmp_path.iterdir())   # no CSV, not even a header


def test_grid_budget_rejected_before_allocating(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(cli.np, "logspace", no_grid)
    for points in (cli._MAX_GRID_POINTS + 1, 10**8):
        with pytest.raises(ValueError, match="grid points must be <= 1000"):
            cli._parse_grid(f"1:1000000:{points}")


def test_grid_budget_admits_its_edge():
    grid = cli._parse_grid(f"1000000:1000000000:{cli._MAX_GRID_POINTS}")
    assert len(grid) == cli._MAX_GRID_POINTS and grid[-1] == 10**9


@pytest.mark.parametrize("argv", [
    "constant --function lambda --cutoff 1000000000000",
    "sum --function mu --x 100 --method naive --cutoff 1000000001",
    "scan --function tau2 --grid 10:1000:5 --cutoff 1000000000000",
])
def test_cutoff_budget_is_a_json_error(capsys, monkeypatch, argv):
    def no_segment(*args):
        raise AssertionError("a segment was sieved")

    monkeypatch.setattr(floorsum, "iter_segment_values", no_segment)
    assert cli.main(argv.split()) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "BudgetError",
        "message": "main-term constant limited to cutoff <= 1000000000"}


@pytest.mark.parametrize("argv, message", [
    ("scan --function tau3 --grid 1000:10000000000000:3",
     "fast evaluation limited to x <= 1000000000000"),
    ("sum --function tau3 --x 100000000 --method naive",
     "naive evaluation limited to x <= 10000000"),
    ("sum --function tau3 --x 100000000 --method naive --cutoff 10000000",
     "naive evaluation limited to x <= 10000000"),
])
def test_x_budget_is_a_json_error_before_any_constant(capsys, monkeypatch, argv, message):
    def no_segment(*args):
        raise AssertionError("a segment was sieved")

    def no_series(*args):
        raise AssertionError("the series constant was computed")

    monkeypatch.setattr(floorsum, "iter_segment_values", no_segment)
    monkeypatch.setattr(floorsum, "series_constant", no_series)
    assert cli.main(argv.split()) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "BudgetError", "message": message}


def test_sum_and_constant_default_to_the_series_constant(capsys, monkeypatch):
    def no_sieve(*args):
        raise AssertionError("the constant was sieved")

    monkeypatch.setattr(floorsum, "main_term_constant", no_sieve)
    value, bound = floorsum.series_constant(arith.tau(3))
    d = run_json(capsys, "sum", "--function", "tau3", "--x", "100000")
    assert d["cutoff"] is None
    assert (d["constant"], d["constant_tail_bound"]) == (value, bound)
    d = run_json(capsys, "constant", "--function", "tau3")
    assert d == {"cutoff": None, "function": "tau3", "tail_bound": bound, "value": value}


def test_scan_defaults_to_the_series_constant(capsys, monkeypatch):
    def no_sieve(*args):
        raise AssertionError("the constant was sieved")

    monkeypatch.setattr(floorsum, "main_term_constant", no_sieve)
    value, bound = floorsum.series_constant(arith.tau(3))
    d = run_json(capsys, "scan", "--function", "tau3", "--grid", "1000:100000:3")
    assert d["cutoff"] is None
    assert (d["constant"], d["constant_tail_bound"]) == (value, bound)


def test_readme_has_examples():
    assert len(README_EXAMPLES) >= 11


@pytest.mark.parametrize("line", README_EXAMPLES)
def test_readme_example_parses(line):
    # an option the parser no longer has exits with status 2 here
    cli.build_parser().parse_args(shlex.split(line)[1:])


# every option each (sub)command accepts, besides -h
OPTION_SURFACE = {
    (): set(),
    ("sieve",): {"--function", "--lo", "--hi", "--out", "--precision"},
    ("sum",): {"--function", "--x", "--method", "--cutoff", "--format", "--precision"},
    ("scan",): {"--function", "--grid", "--cutoff", "--out", "--precision"},
    ("constant",): {"--function", "--cutoff"},
    ("psi",): {"--H", "--grid", "--report"},
    ("verify",): {"--trials", "--seed"},
    ("expsum",): set(),
    ("expsum", "check"): {"--case", "--z", "--R", "--pair", "--r"},
    ("pairs",): set(),
    ("pairs", "derive"): {"--word", "--seed"},
    ("pairs", "exponent"): {"--target", "--pair"},
    ("pairs", "search"): {"--target", "--depth", "--seeds"},
    ("pairs", "balance"): {"--spec"},
}


def _option_sets(parser, path=()):
    opts = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _option_sets(sub, path + (name,))
        else:
            opts.update(action.option_strings)
    yield path, opts - {"-h", "--help"}


def test_option_surface():
    assert dict(_option_sets(cli.build_parser())) == OPTION_SURFACE


@pytest.mark.parametrize("argv", [
    "constant --function mu --cutoff 1000 --format csv",
    "psi --H 5 --grid 1000 --out {tmp}/psi.csv",
    "expsum check --case unitary-reciprocal --z 1000000 --R 1995 --json",
    "expsum check --case unitary-reciprocal --z 1000000 --R 1995 --epsilon 0.05",
])
def test_options_a_command_does_not_read_are_rejected(capsys, tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.format(tmp=tmp_path).split())
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
