"""The region-list :class:`OccupancyGrid` against the cell grid it replaced.

``CellGrid`` below is the earlier one-byte-per-cell grid, kept unchanged as
the reference: a box is a handful of axis-0 runs of a flat ``bytearray``,
each tested with ``bytearray.find``.  Seeded random ``place`` / ``fits`` /
``remove`` sequences on 1- to 4-dimensional containers must get the same
answers, the same exceptions and the same ``cells`` from both grids.  The
one deliberate difference, ``remove`` of a region that was never placed
(the cell grid silently cleared its cells), is pinned separately.
"""

import random
from typing import List, Sequence, Tuple

import pytest

from repro.core.boxes import Container
from repro.heuristics.grid import OccupancyGrid

Coordinate = Tuple[int, ...]


class CellGrid:
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


def _outcome(call, *args):
    try:
        return ("ok", call(*args))
    except ValueError:
        return ("ValueError", None)


def _region(rng: random.Random, sizes):
    """A random region, small more often than large, sometimes poking out
    of the container."""
    widths = tuple(rng.randint(1, rng.randint(1, size + 1)) for size in sizes)
    position = tuple(rng.randint(-1, size) for size in sizes)
    return position, widths


def _run_sequence(seed: int, steps: int = 40) -> None:
    rng = random.Random(seed)
    sizes = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
    reference = CellGrid(Container(sizes))
    grid = OccupancyGrid(Container(sizes))
    placed = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.2 and placed:
            position, widths = placed.pop(rng.randrange(len(placed)))
            op = "remove"
        elif roll < 0.25:
            # A region outside the container: never placed, and the cell
            # grid refuses it too.
            position, widths = _region(rng, sizes)
            if reference._inside(position, widths):
                continue
            op = "remove"
        else:
            position, widths = _region(rng, sizes)
            op = "place" if roll < 0.6 else "fits"
        expected = _outcome(getattr(reference, op), position, widths)
        got = _outcome(getattr(grid, op), position, widths)
        assert got == expected, (seed, op, position, widths)
        if op == "place" and got[0] == "ok":
            placed.append((position, widths))
        assert grid.cells == bytes(reference.cells), (seed, op, position)
    for position, widths in placed:
        assert grid.fits(position, widths) is False
        grid.remove(position, widths)
    assert not any(grid.cells)


@pytest.mark.parametrize("block", range(4))
def test_random_sequences_match_the_cell_grid(block):
    for seed in range(block * 50, block * 50 + 50):
        _run_sequence(seed)


@pytest.mark.slow
def test_random_sequences_match_the_cell_grid_extended():
    for seed in range(10_000, 12_500):
        _run_sequence(seed, steps=60)


def test_remove_of_an_unplaced_region_raises():
    grid = OccupancyGrid(Container((4, 4, 4)))
    grid.place((0, 0, 0), (2, 2, 2))
    before = grid.cells
    with pytest.raises(ValueError):
        grid.remove((2, 2, 2), (1, 1, 1))  # free cells, never placed
    with pytest.raises(ValueError):
        grid.remove((0, 0, 0), (1, 1, 1))  # inside a placed region
    with pytest.raises(ValueError):
        grid.remove((0, 0, 0), (2, 2, 3))  # overlaps, different widths
    assert grid.cells == before  # a refused remove changes nothing
    grid.remove((0, 0, 0), (2, 2, 2))
    with pytest.raises(ValueError):
        grid.remove((0, 0, 0), (2, 2, 2))  # already removed
    assert not any(grid.cells)
