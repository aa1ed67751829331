"""Floor-quotient sums of arithmetic functions.

Exact evaluation of S_f(x) = sum_{n<=x} f(floor(x/n)) for f in {1, mu, mu^2,
Lambda, tau_r, omega, 2^omega, chi_2}, exact verification of the classical
decompositions behind their error-term estimates (Vaughan identities,
hyperbola principle, Vaaler's psi approximation), desk-scale exponential-sum
bound checks, and an exact-rational exponent-pair calculus with a minimax
balancer that rederives the error exponents.
"""

from .arith import (CHI_TWO, LAMBDA, MOBIUS, MOBIUS_SQUARED, OMEGA, ONE,
                    TWO_POW_OMEGA, FunctionKind, SieveTable, build_sieve,
                    dirichlet_convolve, kind_from_name, tau)
from .errors import BudgetError, CoverageError, WindowError
from .expsum import BoundCheckReport, check_bound, exp_sum, type_II_sum
from .floorsum import (FitReport, FloorSumReport, error_scan, floor_sum_fast,
                       floor_sum_naive, main_term_constant, series_constant)
from .identities import (PhaseFunction, hyperbola_exp_sides, hyperbola_sides,
                         vaughan_lambda_sides, vaughan_mobius_sides)
from .pairs import (BalanceProblem, BalanceResult, BoundProfile, ExponentPair,
                    Infeasible, TermExponent, apply_A, apply_B,
                    balance_exponents, eliminate_H, heath_brown_pair,
                    minimize_over_pairs, profile_to_exponent, theorem_exponent)
from .psi import fejer_envelope, vaaler_polynomial, verify_pointwise_bound

__version__ = "0.1.0"
