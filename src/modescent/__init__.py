"""Multi-objective descent via the central direction.

The central direction is the shortest vector making at least unit-rate
progress against every normalized gradient; its norm blows up exactly where
the gradients start to conflict, which turns it into both a search
direction and a criticality diagnostic. This package bundles the direction
solvers, incremental descent loops that refresh one or two gradients per
iteration, proximity and robustness metrics, planar field sampling, and
slow-but-sure oracles used to cross-check the fast paths.
"""

from .directions import (
    DIRECTION,
    INFEASIBLE,
    DirectionOutcome,
    DirectionSolverError,
    GradientSlate,
    central_direction,
    descent_margin,
    steepest_direction,
)
from .fields import FieldGrid, sample_field, trace_streamline, write_streamlines_csv
from .metrics import (
    ProximityReport,
    alignment_gap,
    exterior_perturbation_margin,
    interior_perturbation_margin,
    perturbation_margin,
    proximity_at,
    rate_bound,
    rate_bound_margins,
)
from .oracle import (
    BruteForceResult,
    angular_sweep_alignment_gap,
    angular_sweep_feasible,
    brute_force_central,
    figure1_efficient_curve,
    finite_diff_gradient,
    hull_contains_origin_2d,
    nondominated_mask,
    pareto_filter_grid,
    project_to_simplex,
)
from .problems import (
    MultiObjectiveProblem,
    QueryLedger,
    evaluate,
    evaluate_all,
    gradient,
    gradient_all,
    gradients_at,
    make_figure1_problem,
    make_random_quadratic_family,
    make_scaled_variant,
    make_unbounded_linear_problem,
    problem_from_name,
    validate_problem,
    values_and_gradients,
)
from .solvers import (
    BRANCH_BLOWUP,
    BRANCH_UNBOUNDED,
    BRANCH_VANISHING,
    IterationRecord,
    StepSchedule,
    armijo_backtrack,
    classify_run,
    run_full_steepest,
    run_incremental_aggregated,
    run_incremental_central,
    run_incremental_central_armijo,
    run_scalarized,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BRANCH_BLOWUP",
    "BRANCH_UNBOUNDED",
    "BRANCH_VANISHING",
    "BruteForceResult",
    "DIRECTION",
    "DirectionOutcome",
    "DirectionSolverError",
    "FieldGrid",
    "GradientSlate",
    "INFEASIBLE",
    "IterationRecord",
    "MultiObjectiveProblem",
    "ProximityReport",
    "QueryLedger",
    "StepSchedule",
    "alignment_gap",
    "angular_sweep_alignment_gap",
    "angular_sweep_feasible",
    "armijo_backtrack",
    "brute_force_central",
    "central_direction",
    "classify_run",
    "descent_margin",
    "evaluate",
    "evaluate_all",
    "exterior_perturbation_margin",
    "figure1_efficient_curve",
    "finite_diff_gradient",
    "gradient",
    "gradient_all",
    "gradients_at",
    "hull_contains_origin_2d",
    "interior_perturbation_margin",
    "make_figure1_problem",
    "make_random_quadratic_family",
    "make_scaled_variant",
    "make_unbounded_linear_problem",
    "nondominated_mask",
    "pareto_filter_grid",
    "perturbation_margin",
    "problem_from_name",
    "project_to_simplex",
    "proximity_at",
    "rate_bound",
    "rate_bound_margins",
    "run_full_steepest",
    "run_incremental_aggregated",
    "run_incremental_central",
    "run_incremental_central_armijo",
    "run_scalarized",
    "sample_field",
    "steepest_direction",
    "trace_streamline",
    "validate_problem",
    "values_and_gradients",
    "write_streamlines_csv",
    "write_trace_csv",
]
