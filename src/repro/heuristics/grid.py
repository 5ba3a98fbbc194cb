"""Occupancy geometry used by the placement heuristics.

The heuristics (stage 2 of the paper's framework) keep the occupied part of
the container as the list of placed regions, each a (low corner, high
corner) pair: a box is free iff it lies inside the container and no placed
region overlaps it on every axis.  The cost of a test grows with the number
of placed boxes, not with their volume, which matters for the sweeps'
relaxed horizons (Table 2's codec probe spans ~365k cells).  Candidate
anchors are generated from the corners of already-placed boxes — the
classic bottom-left family.  Keeping modules as rectangles rather than
cells is also how free-space managers for dynamic FPGA placement
represent the chip.
"""

from __future__ import annotations

from itertools import product
from operator import add, gt, lt
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.boxes import Box, Container

Coordinate = Tuple[int, ...]


class OccupancyGrid:
    """The occupied regions of a d-dimensional container."""

    def __init__(self, container: Container) -> None:
        self.container = container
        self.sizes = container.sizes
        #: Placed regions as (low corner, high corner) pairs, high exclusive.
        self._regions: List[Tuple[Coordinate, Coordinate]] = []

    def _high(
        self, position: Sequence[int], widths: Sequence[int]
    ) -> Optional[Coordinate]:
        """The region's high corner, or ``None`` if it leaves the container."""
        high = tuple(map(add, position, widths))
        if min(position) < 0 or any(map(gt, high, self.sizes)):
            return None
        return high

    def _free(self, position: Sequence[int], high: Coordinate) -> bool:
        """No placed region overlaps ``[position, high)`` on every axis."""
        for low, top in self._regions:
            if all(map(lt, position, top)) and all(map(lt, low, high)):
                return False
        return True

    def fits(self, position: Sequence[int], widths: Sequence[int]) -> bool:
        """Inside the container and fully free?"""
        high = self._high(position, widths)
        return high is not None and self._free(position, high)

    def place(self, position: Sequence[int], widths: Sequence[int]) -> None:
        high = self._high(position, widths)
        if high is None or not self._free(position, high):
            raise ValueError(
                f"cells at {position} are occupied or outside the container"
            )
        self._regions.append((tuple(position), high))

    def remove(self, position: Sequence[int], widths: Sequence[int]) -> None:
        """Free a region placed earlier with the same position and widths."""
        try:
            self._regions.remove(
                (tuple(position), tuple(map(add, position, widths)))
            )
        except ValueError:
            raise ValueError(
                f"no region of widths {tuple(widths)} was placed at {position}"
            ) from None

    @property
    def cells(self) -> bytes:
        """The occupancy as one byte per cell (1 = occupied), cell ``c`` at
        offset ``sum(c[axis] * stride[axis])`` with axis 0 contiguous."""
        strides = []
        volume = 1
        for size in self.sizes:
            strides.append(volume)
            volume *= size
        cells = bytearray(volume)
        for low, high in self._regions:
            run = b"\x01" * (high[0] - low[0])
            for rest in product(*map(range, low[1:], high[1:])):
                start = low[0] + sum(c * s for c, s in zip(rest, strides[1:]))
                cells[start : start + len(run)] = run
        return bytes(cells)


def candidate_coordinates(
    placed: Iterable[Tuple[Coordinate, Sequence[int]]], dimensions: int
) -> List[List[int]]:
    """Anchor candidates per axis: 0 plus every placed box's end coordinate.

    A standard normal-pattern argument shows that if any placement exists,
    one exists where every box is "pushed" against the container wall or
    against another box on every axis, so these candidates suffice for the
    greedy heuristics.
    """
    candidates: List[List[int]] = [[0] for _ in range(dimensions)]
    for position, widths in placed:
        for axis in range(dimensions):
            candidates[axis].append(position[axis] + widths[axis])
    return [sorted(set(c)) for c in candidates]


def find_first_fit(
    grid: OccupancyGrid,
    box: Box,
    candidates: List[List[int]],
    axis_order: Optional[Sequence[int]] = None,
    minimum: Optional[Sequence[int]] = None,
) -> Optional[Coordinate]:
    """Scan candidate anchors in lexicographic order of ``axis_order``
    (innermost axis last) and return the first free position.

    ``minimum[axis]`` restricts the search to coordinates at least that
    value (used for precedence release times on the time axis).
    """
    d = len(grid.sizes)
    if axis_order is None:
        axis_order = list(range(d - 1, -1, -1))  # time outermost by default
    minimum = list(minimum) if minimum is not None else [0] * d
    filtered = [
        [c for c in candidates[axis] if c >= minimum[axis]] for axis in range(d)
    ]
    for axis in range(d):
        if minimum[axis] not in filtered[axis]:
            filtered[axis].insert(0, minimum[axis])

    widths = box.widths
    position = [0] * d

    # ``grid.fits`` on every full anchor, done incrementally: each level
    # keeps only the placed regions that still overlap on the axes fixed
    # so far, and an anchor is free when none is left at the last level.
    def scan(depth: int, regions: List) -> Optional[Coordinate]:
        if depth == d:
            return None if regions else tuple(position)
        axis = axis_order[depth]
        width = widths[axis]
        limit = grid.sizes[axis] - width
        for value in filtered[axis]:
            if value < 0 or value > limit:
                continue
            end = value + width
            position[axis] = value
            result = scan(
                depth + 1,
                [r for r in regions if r[0][axis] < end and value < r[1][axis]],
            )
            if result is not None:
                return result
        return None

    return scan(0, grid._regions)
