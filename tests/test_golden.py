"""CLI output pinned byte for byte.

`golden_cli.json` maps an argument line to the exact stdout it produced when
the file was recorded.  It covers every function's main-term constant and its
error bound, from the Dirichlet series and sieved to a cutoff (through
`constant`, `sum` and `scan`, with and without `--cutoff`), the exact sums,
the residual scans, the psi report, the four `verify` suites, one admissible
`expsum check` line per bound case, and `pairs derive`, `pairs exponent` and
`pairs search`.
"""

import json
from pathlib import Path

import pytest

from floorsums import cli

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_cli_output_is_byte_identical(capsys, argv):
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == GOLDEN[argv]
