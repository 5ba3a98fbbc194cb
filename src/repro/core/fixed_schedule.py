"""FixedS problems: the schedule (start times) is given.

When every start time is known, all edges of the *time* component graph are
determined: two tasks overlap in time or they do not (and if not, the
orientation is known too).  The paper's key observation is that the packing
class machinery then degenerates from three dimensions to two — the search
only branches on the spatial axes.

* :func:`feasible_placement_fixed_schedule` — *FeasA&FixedS*: does a chip of
  the given size admit a placement for the given schedule?
* :func:`minimize_base_fixed_schedule` — *MinA&FixedS*: the smallest square
  chip that does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..graphs.digraph import DiGraph
from ..telemetry import coerce as _coerce_telemetry
from .bmp import OPTIMAL, UNKNOWN, OptimizationResult, Probe
from .boxes import Box, Container, PackingInstance, Placement, intervals_overlap
from .edgestate import COMPONENT
from .opp import OPPResult, SolverOptions
from .search import BranchAndBound


class ScheduleError(ValueError):
    """The given start times violate the precedence constraints or bounds."""


def validate_schedule(
    boxes: Sequence[Box],
    starts: Sequence[int],
    precedence: Optional[DiGraph],
    time_bound: Optional[int] = None,
) -> None:
    """Raise :class:`ScheduleError` unless the start times are coherent."""
    if len(starts) != len(boxes):
        raise ScheduleError("one start time per box required")
    for i, s in enumerate(starts):
        if s < 0:
            raise ScheduleError(f"box {i} starts at negative time {s}")
        if time_bound is not None and s + boxes[i].widths[-1] > time_bound:
            raise ScheduleError(
                f"box {i} ends at {s + boxes[i].widths[-1]} beyond the bound "
                f"{time_bound}"
            )
    if precedence is not None:
        for u, v in precedence.arcs():
            if starts[u] + boxes[u].widths[-1] > starts[v]:
                raise ScheduleError(
                    f"precedence {u} -> {v} violated by starts "
                    f"{starts[u]} and {starts[v]}"
                )


def _time_axis_assignments(
    instance: PackingInstance, starts: Sequence[int]
) -> Tuple[List[Tuple[int, int, int, int]], List[Tuple[int, int, int]]]:
    """Pre-assignments fixing the whole time axis from the schedule."""
    axis = instance.time_axis
    states: List[Tuple[int, int, int, int]] = []
    arcs: List[Tuple[int, int, int]] = []
    for u in range(instance.n):
        for v in range(u + 1, instance.n):
            du = instance.boxes[u].widths[axis]
            dv = instance.boxes[v].widths[axis]
            if intervals_overlap(starts[u], du, starts[v], dv):
                states.append((axis, u, v, COMPONENT))
            elif starts[u] + du <= starts[v]:
                arcs.append((axis, u, v))
            else:
                arcs.append((axis, v, u))
    return states, arcs


def feasible_placement_fixed_schedule(
    boxes: Sequence[Box],
    starts: Sequence[int],
    chip: Tuple[int, int],
    *,
    precedence: Optional[DiGraph] = None,
    options: Optional[SolverOptions] = None,
    telemetry: Optional[object] = None,
) -> OPPResult:
    """FeasA&FixedS: decide whether the schedule fits the chip spatially.
    Everything past ``chip`` is keyword-only.

    The returned placement (when SAT) uses exactly the given start times.
    """
    options = options or SolverOptions()
    telemetry = _coerce_telemetry(telemetry)
    makespan = max(
        (starts[i] + boxes[i].widths[-1] for i in range(len(boxes))), default=1
    )
    validate_schedule(boxes, starts, precedence, makespan)
    instance = PackingInstance(
        list(boxes), Container((chip[0], chip[1], max(1, makespan))), precedence
    )
    states, arcs = _time_axis_assignments(instance, starts)
    with telemetry.span(
        "search", problem="fixed_feasible", boxes=len(boxes), chip=list(chip)
    ) as span:
        solver = BranchAndBound(
            instance,
            propagation=options.propagation,
            branching=options.branching,
            node_limit=options.node_limit,
            time_limit=options.time_limit,
            pre_states=states,
            pre_arcs=arcs,
            telemetry=telemetry if telemetry.enabled else None,
            kernel=options.kernel,
        )
        status, placement = solver.solve()
        span.set(status=status, nodes=solver.stats.nodes)
    if placement is not None:
        # Re-anchor the extracted placement onto the exact given start times
        # (the packing class only preserves the overlap structure).
        positions = [
            tuple(
                starts[i] if axis == instance.time_axis else pos[axis]
                for axis in range(instance.dimensions)
            )
            for i, pos in enumerate(placement.positions)
        ]
        placement = Placement(instance, positions)
        if not placement.is_feasible():
            # The overlap structure is identical, so this cannot happen; be
            # loud if it ever does.
            raise AssertionError("fixed-schedule re-anchoring broke feasibility")
    result = OPPResult(status=status, placement=placement, stats=solver.stats)
    if telemetry.enabled:
        result.trace = telemetry
    return result


def minimize_base_fixed_schedule(
    boxes: Sequence[Box],
    starts: Sequence[int],
    *,
    precedence: Optional[DiGraph] = None,
    options: Optional[SolverOptions] = None,
    telemetry: Optional[object] = None,
) -> OptimizationResult:
    """MinA&FixedS: the smallest square chip admitting the given schedule.
    Everything past ``starts`` is keyword-only."""
    telemetry = _coerce_telemetry(telemetry)
    with telemetry.span(
        "solve", problem="fixed_area", boxes=len(boxes)
    ) as span:
        result = _minimize_base_fixed_schedule(
            boxes, starts, precedence, options, telemetry
        )
        span.set(
            status=result.status,
            optimum=result.optimum,
            probes=len(result.probes),
        )
    if telemetry.enabled:
        result.trace = telemetry
    return result


def _minimize_base_fixed_schedule(
    boxes: Sequence[Box],
    starts: Sequence[int],
    precedence: Optional[DiGraph],
    options: Optional[SolverOptions],
    telemetry,
) -> OptimizationResult:
    result = OptimizationResult(status=UNKNOWN)
    if not boxes:
        result.status = OPTIMAL
        result.optimum = 0
        return result
    low = max(max(b.widths[0], b.widths[1]) for b in boxes)
    high = sum(max(b.widths[0], b.widths[1]) for b in boxes)

    def probe(side: int) -> OPPResult:
        start_t = time.monotonic()
        with telemetry.span("probe", value=side) as span:
            opp = feasible_placement_fixed_schedule(
                boxes,
                starts,
                (side, side),
                precedence=precedence,
                options=options,
                telemetry=telemetry if telemetry.enabled else None,
            )
            span.set(status=opp.status, nodes=opp.stats.nodes)
        seconds = time.monotonic() - start_t
        if telemetry.enabled:
            telemetry.counter("probe.count").add()
            telemetry.histogram("probe.seconds").observe(seconds)
        result.probes.append(
            Probe(
                value=side,
                status=opp.status,
                seconds=seconds,
                stage="fixed-schedule",
                nodes=opp.stats.nodes,
            )
        )
        return opp

    lo, hi = low, high
    best: Optional[Placement] = None
    while lo < hi:
        mid = (lo + hi) // 2
        opp = probe(mid)
        if opp.status == "sat":
            hi, best = mid, opp.placement
        elif opp.status == "unsat":
            lo = mid + 1
        else:
            result.lower, result.upper = lo, hi
            return result
    if best is None:
        opp = probe(hi)
        if opp.status != "sat":
            result.lower = hi
            return result
        best = opp.placement
    result.status = OPTIMAL
    result.optimum = hi
    result.lower = result.upper = hi
    result.placement = best
    return result
