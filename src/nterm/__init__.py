"""n-term approximation characteristics of weighted Fourier classes.

Submodules: lattice (shell decompositions of the integer lattice),
weights (admissible weight functions and their rearrangements),
functionals (extremal threshold functionals), approx (coefficient
sequences, greedy and exact class n-term errors), trig_lp (grid
evaluation and L_p norms of trigonometric polynomials), rates
(order-estimate tables), cli (command-line interface).
"""

from .approx import (
    CoefficientSequence,
    FunctionClassSpec,
    class_best_nterm_sp,
    class_best_nterm_sp_grid,
    class_membership_norm,
    extremal_function_f1,
    greedy_order,
    greedy_remainder_sp,
    greedy_remainders_sp,
    sp_norm,
)
from .functionals import (
    DivergentTailError,
    ExplicitSequence,
    FunctionalResult,
    NoThresholdError,
    find_l_star,
    h_functional,
    h_functional_grid,
    tail_sum,
)
from .lattice import (
    BudgetExceededError,
    GrowthFit,
    ShellDecomposition,
    ball_counts,
    enumerate_ball,
    fit_growth_bounds,
    quasi_norm,
    shell_counts,
    shell_index,
)
from .rates import RateTable, predicted_rate, rate_table, ratio_window
from .trig_lp import (
    GridSpec,
    evaluate_on_grid,
    exponential_sum_norm,
    hausdorff_young_gap,
    is_exact_quadrature,
    lp_norm,
)
from .weights import (
    RearrangedWeight,
    WeightFunction,
    ZeroDerivativeError,
    alpha,
    check_class_b,
    check_decay_condition,
    parse_weight,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CoefficientSequence",
    "DivergentTailError",
    "ExplicitSequence",
    "FunctionClassSpec",
    "FunctionalResult",
    "GridSpec",
    "GrowthFit",
    "NoThresholdError",
    "RateTable",
    "RearrangedWeight",
    "ShellDecomposition",
    "WeightFunction",
    "ZeroDerivativeError",
    "alpha",
    "ball_counts",
    "check_class_b",
    "check_decay_condition",
    "class_best_nterm_sp",
    "class_best_nterm_sp_grid",
    "class_membership_norm",
    "enumerate_ball",
    "evaluate_on_grid",
    "exponential_sum_norm",
    "extremal_function_f1",
    "find_l_star",
    "fit_growth_bounds",
    "greedy_order",
    "greedy_remainder_sp",
    "greedy_remainders_sp",
    "h_functional",
    "h_functional_grid",
    "hausdorff_young_gap",
    "is_exact_quadrature",
    "lp_norm",
    "parse_weight",
    "predicted_rate",
    "quasi_norm",
    "rate_table",
    "ratio_window",
    "shell_counts",
    "shell_index",
    "sp_norm",
    "tail_sum",
]
