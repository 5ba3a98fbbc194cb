"""Core library: packing classes, branch-and-bound, and the paper's
optimization problems (OPP, BMP/MinA&FindS, SPP/MinT&FindS, FixedS)."""

from .boxes import (
    Box,
    Container,
    PackingInstance,
    Placement,
    boxes_overlap,
    intervals_overlap,
    make_instance,
)
from .bitmask import BitmaskEdgeStateModel
from .kernels import (
    EngineProtocol,
    UnknownKernelError,
    available_kernels,
    get_kernel,
    make_model,
    register_kernel,
)
from .bounds import (
    ALL_BOUNDS,
    BOUND_NAMES,
    conflict_schedule_bound,
    critical_path_bound,
    dff_volume_bound,
    makespan_lower_bound,
    oversized_box_bound,
    prove_infeasible,
    spatial_conflict_bound,
    volume_bound,
)
from .bmp import (
    INFEASIBLE,
    OPTIMAL,
    UNKNOWN,
    AreaResult,
    OptimizationResult,
    Probe,
    base_lower_bound,
    minimize_area,
    minimize_base,
)
from .edgestate import (
    COMPARABILITY,
    COMPONENT,
    UNDECIDED,
    Conflict,
    EdgeStateModel,
    PropagationOptions,
)
from .fixed_schedule import (
    ScheduleError,
    feasible_placement_fixed_schedule,
    minimize_base_fixed_schedule,
    validate_schedule,
)
from .opp import SAT, UNSAT, OPPResult, SolverOptions, solve_opp
from .packing_class import ConditionReport, PackingClass
from .pareto import ParetoFront, ParetoPoint, minimal_latency, pareto_filter, pareto_front
from .preprocess import (
    AxisScaling,
    axis_gcd,
    denormalize_placement,
    normalize_instance,
    solve_opp_normalized,
)
from .rotation import (
    RotationResult,
    apply_rotations,
    is_rotatable,
    rotated_box,
    rotation_aware_heuristic,
    solve_opp_with_rotation,
)
from .placement import (
    component_graphs_of_placement,
    extract_placement,
    placement_from_orientations,
    positions_from_orientation,
)
from .search import (
    BranchAndBound,
    BranchingOptions,
    FaultRecord,
    InjectedFault,
    LimitReached,
    SearchCheckpoint,
    SearchStats,
    search_fingerprint,
)
from .spp import minimize_makespan

__all__ = [
    "Box",
    "Container",
    "PackingInstance",
    "Placement",
    "boxes_overlap",
    "intervals_overlap",
    "make_instance",
    "ALL_BOUNDS",
    "BOUND_NAMES",
    "KERNELS",
    "BitmaskEdgeStateModel",
    "EngineProtocol",
    "UnknownKernelError",
    "available_kernels",
    "get_kernel",
    "make_model",
    "register_kernel",
    "conflict_schedule_bound",
    "critical_path_bound",
    "dff_volume_bound",
    "makespan_lower_bound",
    "oversized_box_bound",
    "prove_infeasible",
    "spatial_conflict_bound",
    "volume_bound",
    "INFEASIBLE",
    "OPTIMAL",
    "UNKNOWN",
    "OptimizationResult",
    "Probe",
    "base_lower_bound",
    "AreaResult",
    "minimize_area",
    "minimize_base",
    "COMPARABILITY",
    "COMPONENT",
    "UNDECIDED",
    "Conflict",
    "EdgeStateModel",
    "PropagationOptions",
    "ScheduleError",
    "feasible_placement_fixed_schedule",
    "minimize_base_fixed_schedule",
    "validate_schedule",
    "SAT",
    "UNSAT",
    "OPPResult",
    "SolverOptions",
    "solve_opp",
    "ConditionReport",
    "PackingClass",
    "ParetoFront",
    "ParetoPoint",
    "minimal_latency",
    "pareto_filter",
    "pareto_front",
    "component_graphs_of_placement",
    "extract_placement",
    "placement_from_orientations",
    "positions_from_orientation",
    "AxisScaling",
    "axis_gcd",
    "denormalize_placement",
    "normalize_instance",
    "solve_opp_normalized",
    "RotationResult",
    "apply_rotations",
    "is_rotatable",
    "rotated_box",
    "rotation_aware_heuristic",
    "solve_opp_with_rotation",
    "BranchAndBound",
    "BranchingOptions",
    "FaultRecord",
    "InjectedFault",
    "LimitReached",
    "SearchCheckpoint",
    "SearchStats",
    "search_fingerprint",
    "minimize_makespan",
]


def __getattr__(name: str):
    # ``KERNELS`` reflects the live registry so it extends automatically
    # when kernels register.
    if name == "KERNELS":
        return available_kernels()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
