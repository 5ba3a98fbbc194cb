"""Top-level placement API: the problems of the paper, on FPGA terms.

Wraps the packing core with the domain vocabulary:

* :func:`place` — *FeasAT&FindS*: find a schedule + placement for a chip and
  a latency bound;
* :func:`minimize_chip` — *MinA&FindS* (BMP): smallest square chip for a
  latency bound;
* :func:`minimize_latency` — *MinT&FindS* (SPP): smallest latency on a chip;
* :func:`place_fixed_schedule` / :func:`minimize_chip_fixed_schedule` —
  *FeasA&FixedS* / *MinA&FixedS*: start times given;
* :func:`explore_tradeoffs` — the area/latency Pareto front of Figure 7.

Every wrapper takes its configuration keyword-only and threads an optional
``telemetry`` recorder down to the packing core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.bmp import DEGRADED, OPTIMAL, OptimizationResult, minimize_base
from ..core.deadline import Deadline
from ..core.fixed_schedule import (
    feasible_placement_fixed_schedule,
    minimize_base_fixed_schedule,
)
from ..core.opp import OPPResult, SolverOptions, solve_opp
from ..core.pareto import ParetoFront, pareto_front
from ..core.spp import minimize_makespan
from .chip import Chip, square_chip
from .dataflow import TaskGraph
from .schedule import ReconfigurationSchedule


@dataclass
class PlacementOutcome:
    """Result of a feasibility-style placement query."""

    status: str
    schedule: Optional[ReconfigurationSchedule] = None
    certificate: Optional[str] = None

    @property
    def is_feasible(self) -> bool:
        return self.status == "sat"


@dataclass
class ChipOptimizationOutcome:
    """Result of an optimization-style query (MinA / MinT)."""

    status: str
    optimum: Optional[int] = None
    chip: Optional[Chip] = None
    schedule: Optional[ReconfigurationSchedule] = None
    details: Optional[OptimizationResult] = None


def _dependency_dag(graph: TaskGraph):
    return graph.dependency_dag() if graph.arcs() else None


def place(
    graph: TaskGraph,
    chip: Chip,
    time_bound: int,
    *,
    options: Optional[SolverOptions] = None,
    cache: Optional[object] = None,
    telemetry: Optional[object] = None,
) -> PlacementOutcome:
    """FeasAT&FindS: feasible schedule and placement, if one exists."""
    instance = graph.to_instance(chip, time_bound)
    result = solve_opp(
        instance, options=options, cache=cache, telemetry=telemetry
    )
    schedule = None
    if result.placement is not None:
        schedule = ReconfigurationSchedule.from_placement(
            graph, chip, result.placement
        )
    return PlacementOutcome(
        status=result.status, schedule=schedule, certificate=result.certificate
    )


def minimize_chip(
    graph: TaskGraph,
    time_bound: int,
    *,
    options: Optional[SolverOptions] = None,
    cache: Optional[object] = None,
    deadline: Optional[Deadline] = None,
    telemetry: Optional[object] = None,
) -> ChipOptimizationOutcome:
    """MinA&FindS: the smallest square chip for the latency bound.

    ``deadline`` is an end-to-end :class:`~repro.core.deadline.Deadline`
    shared by every OPP probe of the search — when it trips mid-sweep the
    result degrades to the certified incumbent."""
    result = minimize_base(
        graph.boxes(),
        _dependency_dag(graph),
        time_bound=time_bound,
        options=options,
        cache=cache,
        deadline=deadline,
        telemetry=telemetry,
    )
    return _chip_outcome(graph, result)


def minimize_latency(
    graph: TaskGraph,
    chip: Chip,
    *,
    options: Optional[SolverOptions] = None,
    cache: Optional[object] = None,
    deadline: Optional[Deadline] = None,
    telemetry: Optional[object] = None,
) -> ChipOptimizationOutcome:
    """MinT&FindS: the smallest latency on the given chip."""
    result = minimize_makespan(
        graph.boxes(),
        _dependency_dag(graph),
        chip=(chip.width, chip.height),
        options=options,
        cache=cache,
        deadline=deadline,
        telemetry=telemetry,
    )
    outcome = ChipOptimizationOutcome(
        status=result.status, optimum=result.optimum, chip=chip, details=result
    )
    if result.placement is not None:
        outcome.schedule = ReconfigurationSchedule.from_placement(
            graph, chip, result.placement
        )
    return outcome


def place_fixed_schedule(
    graph: TaskGraph,
    chip: Chip,
    starts: Sequence[int],
    *,
    options: Optional[SolverOptions] = None,
    telemetry: Optional[object] = None,
) -> PlacementOutcome:
    """FeasA&FixedS: do the given start times admit a spatial placement?"""
    result = feasible_placement_fixed_schedule(
        graph.boxes(),
        list(starts),
        (chip.width, chip.height),
        precedence=_dependency_dag(graph),
        options=options,
        telemetry=telemetry,
    )
    schedule = None
    if result.placement is not None:
        schedule = ReconfigurationSchedule.from_placement(
            graph, chip, result.placement
        )
    return PlacementOutcome(status=result.status, schedule=schedule)


def minimize_chip_fixed_schedule(
    graph: TaskGraph,
    starts: Sequence[int],
    *,
    options: Optional[SolverOptions] = None,
    telemetry: Optional[object] = None,
) -> ChipOptimizationOutcome:
    """MinA&FixedS: smallest square chip for the given start times."""
    result = minimize_base_fixed_schedule(
        graph.boxes(),
        list(starts),
        precedence=_dependency_dag(graph),
        options=options,
        telemetry=telemetry,
    )
    return _chip_outcome(graph, result)


def explore_tradeoffs(
    graph: TaskGraph,
    *,
    with_dependencies: bool = True,
    max_time: Optional[int] = None,
    options: Optional[SolverOptions] = None,
    cache: Optional[object] = None,
    deadline: Optional[Deadline] = None,
    telemetry: Optional[object] = None,
) -> ParetoFront:
    """The chip-size / latency Pareto front (Figure 7).

    ``deadline`` is shared by every probe of the whole sweep; when it
    trips mid-sweep the result is an exact-prefix degraded front."""
    dag = _dependency_dag(graph) if with_dependencies else None
    return pareto_front(
        graph.boxes(),
        dag,
        max_time=max_time,
        options=options,
        cache=cache,
        deadline=deadline,
        telemetry=telemetry,
    )


def _chip_outcome(
    graph: TaskGraph, result: OptimizationResult
) -> ChipOptimizationOutcome:
    outcome = ChipOptimizationOutcome(
        status=result.status, optimum=result.optimum, details=result
    )
    if result.status == OPTIMAL and result.optimum is not None:
        outcome.chip = square_chip(result.optimum)
        if result.placement is not None:
            outcome.schedule = ReconfigurationSchedule.from_placement(
                graph, outcome.chip, result.placement
            )
    elif (
        result.status == DEGRADED
        and result.upper is not None
        and result.placement is not None
    ):
        # Deadline tripped mid-sweep: surface the certified incumbent —
        # a feasible chip at the proven upper bound, not the optimum.
        outcome.chip = square_chip(result.upper)
        outcome.schedule = ReconfigurationSchedule.from_placement(
            graph, outcome.chip, result.placement
        )
    return outcome
