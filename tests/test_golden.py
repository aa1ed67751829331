"""CLI output pinned byte for byte.

`golden_cli.json` maps an argument line to the exact stdout it produced when
the file was recorded.  It covers every function's main-term constant and its
error bound, from the Dirichlet series and sieved to a cutoff (through
`constant`, `sum` and `scan`, with and without `--cutoff`), the exact sums
(also `sum` at x = 1e10 for tau3, mu, lambda and 2omega, and at x = 1e12 for
tau3 and lambda, recorded from the per-point head before it was batched),
the residual scans, the psi report, the four `verify` suites, one admissible
`expsum check` line per bound case (bilinear-power also at r = 1, 2 and 3,
and with a float z), `pairs derive`, and `pairs exponent` on
Bourgain's pair and on two pairs tight at a constraint (the non-strict
k <= 1/6 admits a bare pair, the strict tau one rejects it).  `pairs search`
is pinned at depth 8 for tau_3 and at depth 10 for every target the benchmark
searches: lambda, tau:2 to tau:6 and two-omega.  Two error lines pin
`verify --seed -1`, rejected before any trial, and `sum` of tau8 at x = 1e12,
whose first block could wrap int64, rejected before any evaluation.
"""

import json
from math import isqrt
from pathlib import Path

import pytest

from floorsums import arith, cli, floorsum

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_cli_output_is_byte_identical(capsys, argv):
    # a recorded error line exits with status 1, every other line with 0
    assert cli.main(argv.split()) == int(GOLDEN[argv].startswith('{"error": '))
    assert capsys.readouterr().out == GOLDEN[argv]


@pytest.mark.parametrize("name", ["tau3", "mu", "lambda", "2omega"])
def test_golden_sums_at_1e10_hold_at_a_second_split(name):
    # a smaller split moves the quotients of n in (N', N] from the point
    # evaluations of the head to the sieved blocks
    x = 10**10
    want = json.loads(GOLDEN[f"sum --function {name} --x {x}"])["sum"]
    got = floorsum.floor_sum_fast(arith.kind_from_name(name), x, split=isqrt(x // 1000))
    assert repr(got) == repr(want)
