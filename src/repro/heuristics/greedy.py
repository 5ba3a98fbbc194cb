"""Greedy placement heuristics — stage 2 of the paper's framework.

"In case of failure [of the lower bounds], try to find a feasible packing
by using fast heuristics."  A heuristic success settles the OPP instance as
SAT without any tree search; a failure is silent (the branch-and-bound
decides).  Two list-based heuristics are provided:

* :func:`list_schedule_placement` — precedence-aware: tasks are released by
  their predecessors' completion and packed bottom-left at the earliest
  feasible time (also the workhorse behind heuristic makespan upper bounds);
* :func:`bottom_left_placement` — precedence-free bottom-left-back packing
  in lexicographic (t, y, x) order with several sort rules.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.boxes import Container, PackingInstance, Placement
from .grid import OccupancyGrid, candidate_coordinates, find_first_fit


def _priority_order(instance: PackingInstance) -> List[int]:
    """Topological order, tie-broken by longest remaining path (critical
    tasks first), then by volume (big boxes first)."""
    n = instance.n
    if instance.precedence is None:
        return sorted(range(n), key=lambda v: -instance.boxes[v].volume)
    durations = [float(b.widths[instance.time_axis]) for b in instance.boxes]
    reversed_dag = instance.precedence.copy()
    reversed_dag.succ, reversed_dag.pred = reversed_dag.pred, reversed_dag.succ
    tail = reversed_dag.longest_path_lengths(durations)
    # List scheduling: repeatedly emit the ready task (all predecessors
    # emitted) with the longest remaining path, then the biggest volume.
    indegree = [instance.precedence.in_degree(v) for v in range(n)]
    ready = [v for v in range(n) if indegree[v] == 0]
    order: List[int] = []
    while ready:
        ready.sort(key=lambda v: (tail[v], instance.boxes[v].volume))
        v = ready.pop()
        order.append(v)
        for w in instance.precedence.succ[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return order


def list_schedule_placement(
    instance: PackingInstance, order: Optional[Sequence[int]] = None
) -> Optional[Placement]:
    """Precedence-respecting list scheduling with bottom-left packing.

    Each task is placed at the smallest feasible time not before its release
    (predecessors' completion), scanning candidate anchors bottom-left.
    Returns a feasible :class:`Placement` or ``None`` if some task cannot be
    placed within the container's time bound.
    """
    if order is None:
        order = _priority_order(instance)
    closure = instance.closed_precedence()
    time_axis = instance.time_axis
    grid = OccupancyGrid(instance.container)
    placed: List = []
    positions = [None] * instance.n
    # Time axis scanned outermost so the earliest feasible time wins.
    axis_order = [time_axis] + [
        a for a in range(instance.dimensions - 1, -1, -1) if a != time_axis
    ]
    for v in order:
        box = instance.boxes[v]
        minimum = [0] * instance.dimensions
        if closure is not None:
            release = 0
            for p in closure.pred[v]:
                if positions[p] is None:
                    return None  # order violated precedence; treat as failure
                release = max(
                    release,
                    positions[p][time_axis] + instance.boxes[p].widths[time_axis],
                )
            minimum[time_axis] = release
        candidates = candidate_coordinates(placed, instance.dimensions)
        spot = find_first_fit(grid, box, candidates, axis_order, minimum)
        if spot is None:
            return None
        grid.place(spot, box.widths)
        placed.append((spot, box.widths))
        positions[v] = spot
    placement = Placement(instance, [tuple(p) for p in positions])
    return placement if placement.is_feasible() else None


def bottom_left_placement(
    instance: PackingInstance, sort_rule: str = "volume"
) -> Optional[Placement]:
    """Bottom-left-back packing without precedence awareness.

    ``sort_rule`` ∈ {"volume", "base_area", "duration", "input"} selects the
    placement order.  With precedence constraints present this heuristic
    simply delegates to :func:`list_schedule_placement` (which respects
    them) and ignores the rule, so every rule gives the same placement.
    """
    rules = {
        "volume": lambda v: -instance.boxes[v].volume,
        "base_area": lambda v: -(
            instance.boxes[v].volume // instance.boxes[v].widths[instance.time_axis]
        ),
        "duration": lambda v: -instance.boxes[v].widths[instance.time_axis],
        "input": lambda v: v,
    }
    if sort_rule not in rules:
        raise ValueError(f"unknown sort rule {sort_rule!r}")
    if instance.has_precedence():
        return list_schedule_placement(instance)
    order = sorted(range(instance.n), key=rules[sort_rule])
    return list_schedule_placement(instance, order)


#: The precedence-free sort rules, in the order the heuristics try them.
_SORT_RULES = ("volume", "base_area", "duration", "input")


def heuristic_placement(instance: PackingInstance) -> Optional[Placement]:
    """Try all heuristics; return the first feasible placement found."""
    if instance.has_precedence():
        # Every sort rule delegates to this one list schedule.
        return list_schedule_placement(instance)
    for rule in _SORT_RULES:
        placement = bottom_left_placement(instance, rule)
        if placement is not None:
            return placement
    # Last resort for precedence-free instances: the plain list scheduler.
    return list_schedule_placement(instance)


def heuristic_makespan(instance: PackingInstance) -> Optional[int]:
    """A feasible makespan upper bound from the heuristics.

    The instance's own time extent is replaced by a generous horizon
    (sequential sum of durations), so the heuristics can always stack boxes
    at the end; the resulting makespan is a valid upper bound for SPP.
    """
    time_axis = instance.time_axis
    horizon = max(1, sum(b.widths[time_axis] for b in instance.boxes))
    sizes = list(instance.container.sizes)
    sizes[time_axis] = horizon
    relaxed = PackingInstance(
        list(instance.boxes),
        Container(tuple(sizes)),
        instance.precedence,
        instance.time_axis,
    )
    if relaxed.has_precedence():
        placements = [list_schedule_placement(relaxed)]
    else:
        placements = [bottom_left_placement(relaxed, rule) for rule in _SORT_RULES]
    spans = [p.makespan() for p in placements if p is not None]
    return min(spans) if spans else None
