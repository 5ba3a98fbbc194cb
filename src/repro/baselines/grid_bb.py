"""Baseline: Beasley-style grid position assignment.

The paper cites ILP formulations "such as [2]" (Beasley's exact
two-dimensional cutting model) that "model the placement of a module at
location (x, y) and time t by a 0-1-variable, requiring x·y·t 0-1 variables"
and fail on instances of interesting size.  No ILP solver is available
offline, so the same search space is explored by a depth-first assignment
of each box to one of its O(x·y·t) grid anchors with overlap constraint
checks — a faithful stand-in that demonstrates the blow-up relative to both
the packing-class solver and the normal-pattern geometric baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.boxes import PackingInstance, Placement
from ..heuristics.grid import OccupancyGrid

Coordinate = Tuple[int, ...]


@dataclass
class GridStats:
    nodes: int = 0
    variables: int = 0
    elapsed: float = 0.0


@dataclass
class GridResult:
    status: str
    placement: Optional[Placement] = None
    stats: GridStats = field(default_factory=GridStats)


class _Limit(Exception):
    pass


def solve_opp_grid(
    instance: PackingInstance,
    node_limit: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> GridResult:
    """Decide the OPP over the full grid-anchor search space."""
    stats = GridStats()
    start_time = time.monotonic()
    deadline = start_time + time_limit if time_limit is not None else None
    n = instance.n
    d = instance.dimensions
    sizes = instance.container.sizes
    time_axis = instance.time_axis
    closure = instance.closed_precedence()
    if closure is not None:
        order = closure.topological_order()
    else:
        order = sorted(range(n), key=lambda v: -instance.boxes[v].volume)

    # All grid anchors per box (the "0-1 variables" of the ILP model).
    anchors: List[List[Coordinate]] = []
    for v in range(n):
        widths = instance.boxes[v].widths
        axis_ranges = [range(sizes[a] - widths[a] + 1) for a in range(d)]
        box_anchors: List[Coordinate] = []

        def expand(axis: int, pos: List[int]) -> None:
            if axis == d:
                box_anchors.append(tuple(pos))
                return
            for value in axis_ranges[axis]:
                pos[axis] = value
                expand(axis + 1, pos)

        expand(0, [0] * d)
        anchors.append(box_anchors)
    stats.variables = sum(len(a) for a in anchors)

    grid = OccupancyGrid(instance.container)
    positions: List[Optional[Coordinate]] = [None] * n

    def dfs(depth: int) -> bool:
        stats.nodes += 1
        if node_limit is not None and stats.nodes > node_limit:
            raise _Limit()
        if deadline is not None and stats.nodes % 256 == 0:
            if time.monotonic() > deadline:
                raise _Limit()
        if depth == n:
            return True
        v = order[depth]
        widths = instance.boxes[v].widths
        floor = 0
        if closure is not None:
            for p in closure.pred[v]:
                if positions[p] is not None:
                    floor = max(
                        floor,
                        positions[p][time_axis]
                        + instance.boxes[p].widths[time_axis],
                    )
        for pos in anchors[v]:
            if pos[time_axis] < floor:
                continue
            if not grid.fits(pos, widths):
                continue
            grid.place(pos, widths)
            positions[v] = pos
            if dfs(depth + 1):
                return True
            grid.remove(pos, widths)
            positions[v] = None
        return False

    try:
        found = dfs(0)
    except _Limit:
        stats.elapsed = time.monotonic() - start_time
        return GridResult(status="unknown", stats=stats)
    stats.elapsed = time.monotonic() - start_time
    if not found:
        return GridResult(status="unsat", stats=stats)
    placement = Placement(instance, [positions[v] for v in range(n)])
    if not placement.is_feasible():
        raise AssertionError("grid baseline produced an invalid placement")
    return GridResult(status="sat", placement=placement, stats=stats)
