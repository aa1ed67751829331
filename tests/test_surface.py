"""The public surface of the package: adding or removing a name is deliberate."""

import types

import floorsums

EXPORTS = {
    # arith and errors
    "CHI_TWO", "LAMBDA", "MOBIUS", "MOBIUS_SQUARED", "OMEGA", "ONE", "TWO_POW_OMEGA",
    "FunctionKind", "SieveTable", "build_sieve", "dirichlet_convolve", "kind_from_name",
    "tau", "BudgetError", "CoverageError", "WindowError",
    # expsum
    "BoundCheckReport", "check_bound", "exp_sum", "type_II_sum",
    # floorsum
    "FitReport", "FloorSumReport", "error_scan", "floor_sum_fast", "floor_sum_naive",
    "main_term_constant", "series_constant",
    # identities
    "PhaseFunction", "hyperbola_exp_sides", "hyperbola_sides", "vaughan_lambda_sides",
    "vaughan_mobius_sides",
    # pairs
    "BalanceProblem", "BalanceResult", "BoundProfile", "ExponentPair", "Infeasible",
    "TermExponent", "apply_A", "apply_B", "balance_exponents", "eliminate_H",
    "heath_brown_pair", "minimize_over_pairs", "profile_to_exponent", "theorem_exponent",
    # psi
    "fejer_envelope", "vaaler_polynomial", "verify_pointwise_bound",
}


def test_public_names_are_pinned():
    # submodules are attributes too, once imported; they are not exports
    exported = {name for name, value in vars(floorsums).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == EXPORTS
