"""Optional 90° module rotation — an extension beyond the paper.

The paper fixes every module's orientation.  On cell-symmetric fabrics a
``w × h`` module can also be synthesized as ``h × w``; this module adds
rotation support in two forms:

* :func:`solve_opp_with_rotation` — **exact**: enumerates orientation
  assignments for the rotatable boxes (those with ``w ≠ h``), pruning with
  the stage-1 bounds, and runs the packing-class solver per assignment.
  Exponential in the number of rotatable boxes; intended for module counts
  where the plain solver is comfortable (the DE benchmark's ALUs, say).
* :func:`rotation_aware_heuristic` — greedy bottom-left placement that
  tries both orientations per box; linear cost, no optimality claim.

A rotation only swaps the two *spatial* extents; execution time is
unaffected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .boxes import Box, PackingInstance, Placement
from .bounds import prove_infeasible
from .opp import SolverOptions, solve_opp


def rotated_box(box: Box) -> Box:
    """The same module turned 90° (spatial extents swapped)."""
    widths = list(box.widths)
    widths[0], widths[1] = widths[1], widths[0]
    return Box(tuple(widths), name=box.name)


def is_rotatable(box: Box) -> bool:
    return box.widths[0] != box.widths[1]


def apply_rotations(
    instance: PackingInstance, rotated: Sequence[bool]
) -> PackingInstance:
    """A copy of the instance with the flagged boxes rotated."""
    if len(rotated) != instance.n:
        raise ValueError("one rotation flag per box required")
    boxes = [
        rotated_box(b) if flag else b
        for b, flag in zip(instance.boxes, rotated)
    ]
    return PackingInstance(
        boxes, instance.container, instance.precedence, instance.time_axis
    )


@dataclass
class RotationResult:
    """Outcome of an OPP decision with free rotation."""

    status: str
    placement: Optional[Placement] = None
    rotated: Optional[List[bool]] = None
    assignments_tried: int = 0


def solve_opp_with_rotation(
    instance: PackingInstance,
    *,
    options: Optional[SolverOptions] = None,
    max_assignments: int = 4096,
    telemetry: Optional[object] = None,
) -> RotationResult:
    """Exact OPP with free 90° rotation of every non-square box.
    Everything past the instance is keyword-only.

    Tries orientation assignments (cheapest first: fewest rotations), each
    filtered by the stage-1 bounds before the full solver runs.  Raises
    ``ValueError`` if the assignment space exceeds ``max_assignments`` —
    callers with many rotatable boxes should use the heuristic instead.
    """
    rotatable = [i for i in range(instance.n) if is_rotatable(instance.boxes[i])]
    if 2 ** len(rotatable) > max_assignments:
        raise ValueError(
            f"{len(rotatable)} rotatable boxes give 2^{len(rotatable)} "
            f"assignments > limit {max_assignments}"
        )
    result = RotationResult(status="unsat")
    saw_unknown = False
    for flags in sorted(
        itertools.product([False, True], repeat=len(rotatable)),
        key=sum,
    ):
        rotated = [False] * instance.n
        for i, flag in zip(rotatable, flags):
            rotated[i] = flag
        candidate = apply_rotations(instance, rotated)
        result.assignments_tried += 1
        if prove_infeasible(candidate) is not None:
            continue
        opp = solve_opp(candidate, options=options, telemetry=telemetry)
        if opp.status == "sat":
            return RotationResult(
                status="sat",
                placement=opp.placement,
                rotated=rotated,
                assignments_tried=result.assignments_tried,
            )
        if opp.status == "unknown":
            saw_unknown = True
    if saw_unknown:
        result.status = "unknown"
    return result


def rotation_aware_heuristic(
    instance: PackingInstance,
) -> Optional[Tuple[Placement, List[bool]]]:
    """Greedy bottom-left placement trying both orientations per box.

    Returns ``(placement, rotation_flags)`` on success; the placement's
    instance is the rotated copy.
    """
    from ..heuristics.greedy import _priority_order
    from ..heuristics.grid import OccupancyGrid, candidate_coordinates, find_first_fit

    order = _priority_order(instance)
    closure = instance.closed_precedence()
    time_axis = instance.time_axis
    grid = OccupancyGrid(instance.container)
    placed: List = []
    positions: List[Optional[Tuple[int, ...]]] = [None] * instance.n
    rotated = [False] * instance.n
    axis_order = [time_axis] + [
        a for a in range(instance.dimensions - 1, -1, -1) if a != time_axis
    ]
    for v in order:
        minimum = [0] * instance.dimensions
        if closure is not None:
            release = 0
            for p in closure.pred[v]:
                if positions[p] is None:
                    return None
                release = max(
                    release,
                    positions[p][time_axis]
                    + (
                        rotated_box(instance.boxes[p])
                        if rotated[p]
                        else instance.boxes[p]
                    ).widths[time_axis],
                )
            minimum[time_axis] = release
        candidates = candidate_coordinates(placed, instance.dimensions)
        variants = [(instance.boxes[v], False)]
        if is_rotatable(instance.boxes[v]):
            variants.append((rotated_box(instance.boxes[v]), True))
        best: Optional[Tuple[Tuple[int, ...], Box, bool]] = None
        for box, flag in variants:
            spot = find_first_fit(grid, box, candidates, axis_order, minimum)
            if spot is not None and (
                best is None
                or tuple(spot[a] for a in axis_order)
                < tuple(best[0][a] for a in axis_order)
            ):
                best = (spot, box, flag)
        if best is None:
            return None
        spot, box, flag = best
        grid.place(spot, box.widths)
        placed.append((spot, box.widths))
        positions[v] = spot
        rotated[v] = flag
    final = apply_rotations(instance, rotated)
    placement = Placement(final, [tuple(p) for p in positions])
    if not placement.is_feasible():
        return None
    return placement, rotated
