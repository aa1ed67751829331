"""The mutant catalogue: re-runnable proof that the tests catch the defects
they claim to catch.

Each mutant names a file, a snippet that occurs exactly once in it, the
replacement that plants a defect, and the test node ids that must fail once
it is planted.  For each mutant the script copies `src/`, `tests/` and
`pyproject.toml` to a temporary directory, applies the one replacement and
runs `python -m pytest -x -q` on its ids there, with that copy's `src` first
on the path.  First it runs every id on an unmutated copy, where all must
pass.  It exits 1 if a mutant survives (its ids pass), if an anchor is stale
(missing, or found more than once), or if an id cannot be run.

    python tools/mutants.py              # the whole catalogue, about two minutes

A change that rewrites a mutated line updates its anchor to the new code; a
change that retires a mutant says why.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


FLOORSUM, ARITH, IDENTITIES, PSI, ERRORS = (
    f"src/floorsums/{m}.py" for m in ("floorsum", "arith", "identities", "psi", "errors"))

CATALOGUE = (
    Mutant("first-block-bound-2^64", FLOORSUM,
           "_magnitude(kind, top) * count) >= 2**63:",
           "_magnitude(kind, top) * count) >= 2**64:",
           ("tests/test_floorsum.py::test_tau8_first_block_is_refused_before_any_work",)),
    Mutant("first-block-one-entry-short", FLOORSUM,
           "end = min(BLOCK_CHUNK, x // (isqrt(x) + 1), d0)",
           "end = min(BLOCK_CHUNK - 1, x // (isqrt(x) + 1), d0)",
           ("tests/test_floorsum.py::test_tau8_first_block_is_refused_before_any_work",)),
    Mutant("shared-prefix-below-a-block-chunk", FLOORSUM,
           "SHARED_PREFIX = 1 << 16",
           "SHARED_PREFIX = 1 << 15",
           ("tests/test_floorsum.py::test_every_sum_but_the_first_block_fits_int64",)),
    Mutant("naive-bound-dropped", FLOORSUM,
           "if (bound := _magnitude(kind, x) * x) >= 2**63:",
           "if (bound := _magnitude(kind, x) * x) >= 2**63 and False:",
           ("tests/test_floorsum.py::test_both_sums_check_their_bounds_before_any_evaluation",
            "tests/test_floorsum.py::test_a_table_past_max_tau_r_is_bounded_by_its_magnitude")),
    Mutant("naive-sieves-before-its-bound", FLOORSUM,
           "    values = None if table is None else _table_prefix(kind, table, x)",
           "    values = build_sieve(kind, 1, x).values if table is None else "
           "_table_prefix(kind, table, x)",
           ("tests/test_floorsum.py::test_both_sums_check_their_bounds_before_any_evaluation",)),
    Mutant("later-piece-bound-dropped", FLOORSUM,
           "            for top, count in ((end, x - x // (end + 1)),\n"
           "                               (d0, max(BLOCK_CHUNK, x // (BLOCK_CHUNK + 1) + 1))):",
           "            for top, count in ((end, x - x // (end + 1)),):",
           ("tests/test_floorsum.py::test_a_later_block_piece_past_max_tau_r_is_bounded",
            "tests/test_floorsum.py::test_both_sums_check_their_bounds_before_any_evaluation")),
    Mutant("table-of-another-kind-taken", FLOORSUM,
           "    if table.kind != kind:",
           "    if False:",
           ("tests/test_floorsum.py::test_table_must_hold_the_kind_and_cover_one_to_x",)),
    Mutant("magnitude-one-record-low", ARITH,
           "    return values[bisect_right(ns, hi) - 1]",
           "    return values[max(0, bisect_right(ns, hi) - 2)]",
           ("tests/test_floorsum.py::test_magnitude_is_the_largest_value_sieved",)),
    Mutant("table-check-skipped", ARITH,
           "        if (why := _beyond_magnitude(self.kind, self.lo, v)) is not None:",
           "        if (why := _beyond_magnitude(self.kind, self.lo, v)) is not None and False:",
           ("tests/test_floorsum.py::test_block_sum_guards_int64",
            "tests/test_contract.py::test_a_table_is_taken_iff_it_holds_its_kind",
            "tests/test_arith.py::test_a_product_refuses_a_table_beyond_its_kind",
            "tests/test_identities.py::test_hyperbola_refuses_a_table_beyond_its_kind")),
    Mutant("table-keeps-a-writable-array", ARITH,
           "        if v.flags.writeable or not v.flags.owndata:",
           "        if False:",
           ("tests/test_arith.py::test_tables_immutable",)),
    Mutant("table-keeps-a-read-only-view", ARITH,
           "        if v.flags.writeable or not v.flags.owndata:",
           "        if v.flags.writeable:",
           ("tests/test_arith.py::test_tables_immutable",)),
    Mutant("table-check-runs-one-entry-early", ARITH,
           "[max(n - lo, 0) for n in ns[j:k]]",
           "[max(n - lo - 1, 0) for n in ns[j:k]]",
           ("tests/test_arith.py::test_a_table_is_held_to_its_kind_at_every_n",)),
    Mutant("derived-float-table-unchecked", ARITH,
           "values.dtype.kind != \"f\" or np.isfinite(",
           "True or np.isfinite(",
           ("tests/test_contract.py::"
            "test_a_derived_float_table_is_refused_unless_finite_and_bounded",)),
    Mutant("float-product-unbounded", ARITH,
           "top = np.finfo(dtype).max.item() if",
           "top = math.inf if",
           ("tests/test_contract.py::"
            "test_a_derived_float_table_is_refused_unless_finite_and_bounded",
            "tests/test_contract.py::test_dirichlet_convolve_takes_every_dtype_pair",
            "tests/test_contract.py::test_hyperbola_verifiers_take_every_dtype_pair")),
    Mutant("add-scaled-minus-one-as-plus", ARITH,
           "    elif c == -1:\n        view -= v",
           "    elif c == -1:\n        view += v",
           ("tests/test_arith.py::test_convolution_examples",)),
    Mutant("product-bound-without-sums", ARITH,
           "terms = 2 * isqrt(limit) * sums",
           "terms = 2 * isqrt(limit)",
           ("tests/test_identities.py::test_unweighted_hyperbola_side_bounds_its_sum",)),
    Mutant("working-dtype-one-narrower", ARITH,
           "    return np.min_scalar_type(-bound - 1)",
           "    return np.min_scalar_type(-(bound >> 8) - 1)",
           ("tests/test_arith.py::test_working_dtype_is_the_narrowest_that_holds_every_value",)),
    Mutant("wheel-period-dtype-from-f(1)", ARITH,
           "np.min_scalar_type(-_magnitude(kind, _PERIOD) - 1)",
           "np.min_scalar_type(-_magnitude(kind, 1) - 1)",
           ("tests/test_arith.py::test_eval_point_agrees_with_sieve_random",)),
    Mutant("eval-points-p^2-as-pq", ARITH,
           "    square = root * root == m[big]",
           "    square = root * root == m[big] + 1",
           ("tests/test_arith.py::test_eval_point_large_arguments",)),
    Mutant("eval-points-read-a-list-through-asarray", ARITH,
           "    n = require_integers(n=read_array(n))",
           "    n = require_integers(n=np.asarray(n))",
           ("tests/test_arith.py::test_eval_points_reject_non_integer_input",
            "tests/test_arith.py::test_eval_points_accept_every_integer_dtype",
            "tests/test_contract.py::test_eval_points_takes_n_in_every_array_form")),
    Mutant("unit-array-reads-a-list-through-asarray", IDENTITIES,
           "t = _check_t(read_array(t))",
           "t = _check_t(np.asarray(t))",
           ("tests/test_contract.py::test_unit_array_refuses_t_that_is_not_integers",)),
    Mutant("miller-rabin-bases-2-to-11", ARITH,
           "    for a in bases:",
           "    for a in (2, 3, 5, 7, 11):",
           ("tests/test_arith.py::test_is_prime_on_bounds_pseudoprimes_and_large_primes",)),
    Mutant("wheel-exponents-one-too-high", ARITH,
           "[a + 1 for _, a in _WHEEL]",
           "[a + 2 for _, a in _WHEEL]",
           ("tests/test_arith.py::test_sieve_matches_eval_point_to_the_ulp",
            "tests/test_arith.py::test_sieve_matches_definition")),
    Mutant("log-scale-t-one-low", ARITH,
           "/ gap), e // 2",
           "/ gap), e // 2 - 1",
           ("tests/test_arith.py::test_segment_kernel_matches_smooth_product_reference",)),
    Mutant("series-tau-order-one-low", FLOORSUM,
           "d = (kind.r * z.log1p()).expm1()",
           "d = ((kind.r - 1) * z.log1p()).expm1()",
           ("tests/test_floorsum.py::test_series_constant_lies_within_the_sieved_tail",)),
    Mutant("series-tail-bound-dropped", FLOORSUM,
           " + 2.0 ** (1 - K) * head",
           "",
           ("tests/test_floorsum.py::test_series_constant_cut_early_is_within_its_bound",)),
    Mutant("pair-index-cut-inclusive", IDENTITIES,
           "f_cut = d < a ",
           "f_cut = d <= a ",
           ("tests/test_identities.py::test_windowed_hyperbola_terms_match_the_kernel_bit_for_bit",)),
    Mutant("unit-pass-parameters-by-sorted-sizes", IDENTITIES,
           "np.repeat(rows, sizes[rule == k], axis=0)",
           "np.repeat(rows, np.sort(sizes[rule == k]), axis=0)",
           ("tests/test_identities.py::test_run_verification_matches_the_public_verifiers",)),
    Mutant("psi-fold-one-residue-off", PSI,
           "np.bincount(h % grid_size,",
           "np.bincount((h + 1) % grid_size,",
           ("tests/test_psi.py::test_grid_values_match_exact_phase_reference",)),
    Mutant("per-n-range-one-quotient-short", FLOORSUM,
           "x // max(seg_lo, shared + 1)",
           "x // max(seg_lo, shared + 1) - 1",
           ("tests/test_floorsum.py::test_fast_equals_naive_all_kinds",
            "tests/test_floorsum.py::test_fast_equals_naive_for_any_split")),
    Mutant("block-multiplicity-from-N+1", FLOORSUM,
           "            m = q[:-1] - np.maximum(N, q[1:])",
           "            m = q[:-1] - np.maximum(N + 1, q[1:])",
           ("tests/test_floorsum.py::test_fast_equals_naive_all_kinds",
            "tests/test_floorsum.py::test_fast_equals_naive_for_any_split")),
    Mutant("segment-summed-in-its-own-dtype", FLOORSUM,
           "v.sum(dtype=np.int64) if m is None",
           "v.sum(dtype=v.dtype) if m is None",
           ("tests/test_floorsum.py::test_one_sums_to_x_through_narrow_segments",)),
    Mutant("block-product-as-v-times-m", FLOORSUM,
           "v = np.concatenate([hi * low, (v - hi) * low, hi * (m - low), (v - hi) * (m - low)])",
           "v = v * m",
           ("tests/test_floorsum.py::test_lambda_fast_equals_naive_at_every_split",
            "tests/test_floorsum.py::test_fast_equals_naive_all_kinds")),
    Mutant("nonnegative-floor-is-minus-bound", ARITH,
           "floors = [-b for b in bounds] if kind.signed else [0] * len(bounds)",
           "floors = [-b for b in bounds]",
           ("tests/test_arith.py::test_a_table_is_held_to_its_kind_at_every_n",
            "tests/test_contract.py::test_a_table_is_taken_iff_it_holds_its_kind")),
    Mutant("lambda-bound-one-binade-low", ARITH,
           "[0] + [1 << k for k in range(bits)]",
           "[0] + [2 << k for k in range(bits)]",
           ("tests/test_floorsum.py::test_a_lambda_table_is_value_checked_before_any_work",
            "tests/test_contract.py::test_a_table_is_taken_iff_it_holds_its_kind")),
    Mutant("naive-chunk-drops-its-last-quotient", FLOORSUM,
           "min(lo + BLOCK_CHUNK, x + 1)",
           "min(lo + BLOCK_CHUNK - 1, x + 1)",
           ("tests/test_floorsum.py::test_fast_equals_naive_on_narrow_segments",)),
    Mutant("segments-widened-to-int64", ARITH,
           "            val *= move\n    return val\n",
           "            val *= move\n    return val.astype(np.int64)\n",
           ("tests/test_floorsum.py::test_sums_hold_no_int64_copy_of_their_values",
            "tests/test_arith.py::test_segment_kernel_matches_smooth_product_reference")),
    Mutant("residual-step-formed-in-int8", ARITH,
           "move = np.empty(size, dtype=dtype)",
           "move = np.empty(size, dtype=np.int8)",
           ("tests/test_arith.py::"
            "test_kernel_forms_a_residual_step_past_int8_in_its_working_dtype",)),
    Mutant("product-dtype-one-step-narrower", ARITH,
           "else np.min_scalar_type(-bound - 1)",
           "else np.min_scalar_type((-bound - 1) >> 8)",
           ("tests/test_arith.py::"
            "test_every_named_product_is_exact_in_the_narrowest_dtype_of_its_bound",)),
    Mutant("add-scaled-product-in-the-input-dtype", ARITH,
           "view += np.multiply(c, v, dtype=view.dtype)",
           "view += c * v",
           ("tests/test_arith.py::"
            "test_every_named_product_is_exact_in_the_narrowest_dtype_of_its_bound",)),
    Mutant("hyperbola-terms-in-the-tables-dtype", IDENTITIES,
           "fg, gf = np.multiply(fv[d], gv[e], dtype=dtype), np.multiply(gv[d], fv[e], dtype=dtype)",
           "fg, gf = fv[d] * gv[e], gv[d] * fv[e]",
           ("tests/test_identities.py::test_identities_are_equalities_of_coefficient_vectors",
            "tests/test_identities.py::test_windowed_hyperbola_terms_match_the_kernel_bit_for_bit")),
    Mutant("sieve-table-widened-to-int64", ARITH,
           "out = np.empty(hi - lo + 1, dtype=_working_dtype(kind, hi.bit_length()))",
           "out = np.empty(hi - lo + 1, dtype=np.promote_types("
           "_working_dtype(kind, hi.bit_length()), np.int64))",
           ("tests/test_arith.py::test_a_table_and_its_product_hold_no_int64_copy",)),
    Mutant("fejer-takes-a-bool-entry", ERRORS,
           "return isinstance(v, numbers.Real) and not isinstance(v, bool)",
           "return isinstance(v, numbers.Real)",
           ("tests/test_contract.py::test_fejer_envelope_takes_x_in_every_array_form",)),
    Mutant("phase-order-shortcut-one-bit-early", IDENTITIES,
           "self.r >= p.bit_length() + 1075:",
           "self.r >= p.bit_length() + 1074:",
           ("tests/test_identities.py::test_a_high_phase_order_is_settled_without_its_power",)),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests) -> int:
    """pytest's exit status on `tests` in `tree`: 0 passed, 1 a test failed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          *tests], cwd=tree, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1):
        print(run.stdout[-2000:], run.stderr[-2000:], sep="\n")
    return run.returncode


def _stale(mutant: Mutant) -> str | None:
    count = (ROOT / mutant.path).read_text().count(mutant.old)
    return None if count == 1 else f"anchor found {count} times in {mutant.path}"


def main() -> int:
    failed = 0
    for mutant in CATALOGUE:
        if (why := _stale(mutant)) is not None:
            print(f"STALE     {mutant.name}: {why}")
            failed += 1
    ids = sorted({t for m in CATALOGUE for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        if (status := _pytest(Path(tmp), ids)) != 0:
            print(f"the unmutated tree fails its mutants' tests (pytest exit {status})")
            return 1
    for mutant in CATALOGUE:
        if _stale(mutant) is not None:
            continue
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            _copy(tree)
            target = tree / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
            status = _pytest(tree, mutant.tests)
        verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (pytest exit {status})")
        print(f"{verdict:9} {mutant.name} ({time.perf_counter() - start:.1f} s)")
        failed += status != 1
    print(f"{len(CATALOGUE) - failed} of {len(CATALOGUE)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
