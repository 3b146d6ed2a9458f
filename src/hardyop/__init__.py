"""Composition operators on the Hardy space of the unit disk: rational symbol
algebra, boundary norms, finite compressions with certified convergence
schedules, numerical ranges, and the closed-form formulas they verify."""

from .analysis import (
    IterateSweepReport,
    MinimalNormReport,
    PSolveResult,
    PullbackCheck,
    inner_pullback_check,
    iterate_sweep,
    minimal_norm_check,
    p_grid_sign_changes,
    p_solve,
    rudin_audit,
)
from .closedform import (
    DistanceTarget,
    EllipseDisk,
    RotationDistance,
    alpha_ellipse,
    const_ellipse,
    inner_alpha_distance,
    inner_const_distance,
    inner_symbol_norm,
    norm_bounds,
    recognize_distance_target,
    recognize_ellipse,
    recognize_opnorm_target,
    recognize_restricted_target,
    rotation_distance,
    rotation_distance_bruteforce,
)
from .compop import (
    ConvergenceReport,
    OpMatrix,
    comp_matrix,
    const_matrix,
    distance,
    norm_schedule,
    op_norm,
    restricted_norm,
    weighted_matrix,
)
from .errors import (
    BracketError,
    ConvergenceError,
    DegreeCapError,
    HardyOpError,
    InconsistencyError,
    NotSelfmapError,
    ParseError,
    PreconditionError,
    SolverInternalError,
    UnitDiskPoleError,
)
from .hardy import (
    InnerVerdict,
    PNormResult,
    h2_inner,
    h2_norm,
    inner_multiple,
    is_inner,
    kernel_distance,
    p_norm,
)
from .numrange import (
    EllipseComparison,
    NRBoundary,
    boundary,
    ellipse_compare,
    range_schedule,
    sample_w,
)
from .symbolic import (
    CoeffVec,
    SelfmapDiagnostics,
    Symbol,
    alpha,
    blaschke,
    circle_values,
    compose,
    constant,
    fixed_point,
    format_symbol,
    identity,
    iterate,
    parse_symbol,
    taylor,
    taylor_close,
    validate_selfmap,
)

__version__ = "0.1.0"
