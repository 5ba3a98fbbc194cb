"""Occupancy-grid geometry used by the placement heuristics.

The heuristics (stage 2 of the paper's framework) work on an explicit cell
grid: the container is an occupancy array over its cells, and candidate
anchors are generated from the corners of already-placed boxes — the
classic bottom-left family.  The cells live in one flat ``bytearray`` with
axis 0 contiguous, so a box region is a handful of axis-0 runs and each
run is tested with a single ``bytearray.find``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.boxes import Box, Container

Coordinate = Tuple[int, ...]


class OccupancyGrid:
    """A d-dimensional occupancy grid over the container cells."""

    def __init__(self, container: Container) -> None:
        self.container = container
        self.sizes = container.sizes
        self._strides: List[int] = []
        cells = 1
        for size in self.sizes:
            self._strides.append(cells)
            cells *= size
        #: One byte per cell, 1 = occupied; cell ``c`` sits at offset
        #: ``sum(c[axis] * stride[axis])`` with axis 0 contiguous.
        self.cells = bytearray(cells)

    def _runs(
        self, position: Coordinate, widths: Sequence[int]
    ) -> List[int]:
        """Start offsets of the axis-0 runs that make up a region."""
        strides = self._strides
        starts = [sum(p * s for p, s in zip(position, strides))]
        for axis in range(1, len(strides)):
            step = strides[axis]
            span = widths[axis] * step
            starts = [s + k for s in starts for k in range(0, span, step)]
        return starts

    def _inside(self, position: Coordinate, widths: Sequence[int]) -> bool:
        for axis, size in enumerate(self.sizes):
            if position[axis] < 0 or position[axis] + widths[axis] > size:
                return False
        return True

    def fits(self, position: Coordinate, widths: Sequence[int]) -> bool:
        """Inside the container and fully free?"""
        if not self._inside(position, widths):
            return False
        find = self.cells.find
        width = widths[0]
        for start in self._runs(position, widths):
            if find(1, start, start + width) != -1:
                return False
        return True

    def place(self, position: Coordinate, widths: Sequence[int]) -> None:
        if not self.fits(position, widths):
            raise ValueError(
                f"cells at {position} are occupied or outside the container"
            )
        self._fill(position, widths, 1)

    def remove(self, position: Coordinate, widths: Sequence[int]) -> None:
        if not self._inside(position, widths):
            raise ValueError(f"region at {position} leaves the container")
        self._fill(position, widths, 0)

    def _fill(
        self, position: Coordinate, widths: Sequence[int], value: int
    ) -> None:
        width = widths[0]
        run = bytes([value]) * width
        cells = self.cells
        for start in self._runs(position, widths):
            cells[start : start + width] = run


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

    def scan(depth: int, position: List[int]) -> Optional[Coordinate]:
        if depth == d:
            pos = tuple(position)
            return pos if grid.fits(pos, box.widths) else None
        axis = axis_order[depth]
        for value in filtered[axis]:
            if value + box.widths[axis] > grid.sizes[axis]:
                continue
            position[axis] = value
            result = scan(depth + 1, position)
            if result is not None:
                return result
        return None

    return scan(0, [0] * d)
