"""Stationarity analysis for switching-constrained programs.

A switching-constrained program minimises a smooth objective subject to
equalities, inequalities and switching pairs: for each pair of functions at
least one member must vanish.  This package parses problem files, locates
W-stationary points by exhaustive branch enumeration with damped Newton
multi-start, classifies them (nondegeneracy, W-index, minimizer verdict,
strong stability), follows KKT points of the relaxed problem to the limit,
and probes sublevel-set topology on desk-scale grids.
"""

__version__ = "0.1.0"

from .expr import (
    EvalDomainError,
    Expr,
    ParseError,
    Problem,
    eval_batch,
    eval_gradient,
    eval_hessian,
    eval_value,
    format_expr,
    format_problem,
    parse_problem,
)
from .linalg import (
    Inertia,
    SingularSystemError,
    ToleranceConfig,
    det_sign,
    inertia,
    nullspace_basis,
    rank,
    solve_linear,
)
from .stationarity import (
    BranchPattern,
    CombinatorialCapError,
    IndexSets,
    InfeasiblePointError,
    LicqViolationError,
    Multipliers,
    NotStationaryError,
    Rejection,
    SearchResult,
    SolveConfig,
    WStationaryPoint,
    active_sets,
    check_licq,
    enumerate_branches,
    feasibility_violation,
    find_stationary_points,
    licq_matrix,
    newton_solve_batch,
    newton_solve_branch,
    recover_multipliers,
    search_stationary_points,
    stationarity_residual,
)
from .classify import (
    Classification,
    NDReport,
    StabilityVerdict,
    SubsetCapError,
    WIndex,
    check_nondegeneracy,
    check_strong_stability,
    classify_point,
    lagrangian_hessian,
    quadratic_index,
    tangent_basis,
)
from .relaxation import (
    ContinuationPath,
    PathLossError,
    PathSample,
    RelaxedProblem,
    continue_path,
    kkt_points_relaxed,
    relax,
)
from .topology import (
    CriticalLevelReport,
    DegenerateInputError,
    DimensionError,
    GridSpec,
    LevelSweep,
    MountainPassReport,
    critical_level_report,
    feasibility_mask,
    mountain_pass_check,
    sublevel_components,
    sweep_levels,
)

__all__ = [name for name in dir() if not name.startswith("_")]
