"""Boxes, containers, instances, and placements.

Tasks on a partially reconfigurable FPGA are modeled as ``d``-dimensional
boxes (the paper uses ``d = 3``: the spatial cell requirements ``w_x, w_y``
and the execution time ``w_t``).  A *placement* assigns every box an anchor
(lower-left-early corner); it is feasible iff every box lies inside the
container, no two boxes overlap, and every precedence arc ``u ≺ v`` finishes
``u`` no later than ``v`` starts.

Everything in this module is dimension-generic; the FPGA layer
(:mod:`repro.fpga`) instantiates it with ``d = 3`` and the convention that
the *last* axis is time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from ..graphs.digraph import DiGraph

Coordinate = Tuple[int, ...]


@dataclass(frozen=True)
class Box:
    """An axis-aligned box with integral side lengths.

    ``widths[i]`` is the extent along axis ``i``; all extents are positive.
    ``name`` is a human-readable label used in reports and renderings.
    """

    widths: Tuple[int, ...]
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if not self.widths:
            raise ValueError("a box needs at least one dimension")
        if any(w <= 0 for w in self.widths):
            raise ValueError(f"box widths must be positive, got {self.widths}")

    @property
    def dimensions(self) -> int:
        return len(self.widths)

    @property
    def volume(self) -> int:
        v = 1
        for w in self.widths:
            v *= w
        return v

    def __str__(self) -> str:
        label = self.name or "box"
        return f"{label}({'x'.join(map(str, self.widths))})"


@dataclass(frozen=True)
class Container:
    """The rectangular container (chip area × allowed time)."""

    sizes: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if not self.sizes:
            raise ValueError("a container needs at least one dimension")
        if any(s <= 0 for s in self.sizes):
            raise ValueError(f"container sizes must be positive, got {self.sizes}")

    @property
    def dimensions(self) -> int:
        return len(self.sizes)

    @property
    def volume(self) -> int:
        v = 1
        for s in self.sizes:
            v *= s
        return v

    def __str__(self) -> str:
        return "x".join(map(str, self.sizes))


@dataclass
class PackingInstance:
    """An orthogonal packing instance, optionally with precedence constraints.

    ``precedence`` is a DAG on box indices; an arc ``u -> v`` means box ``u``
    must end before box ``v`` starts *along the time axis*
    (``time_axis``, by convention the last axis).  The solver works on the
    transitive closure; :meth:`closed_precedence` provides it.
    """

    boxes: List[Box]
    container: Container
    precedence: Optional[DiGraph] = None
    time_axis: int = -1

    def __post_init__(self) -> None:
        d = self.container.dimensions
        for b in self.boxes:
            if b.dimensions != d:
                raise ValueError(
                    f"box {b} has {b.dimensions} dimensions, container has {d}"
                )
        if self.precedence is not None:
            if self.precedence.n != len(self.boxes):
                raise ValueError("precedence DAG must have one vertex per box")
            if not self.precedence.is_acyclic():
                raise ValueError("precedence constraints contain a cycle")
        self.time_axis = self.time_axis % d

    @property
    def n(self) -> int:
        return len(self.boxes)

    @property
    def dimensions(self) -> int:
        return self.container.dimensions

    def has_precedence(self) -> bool:
        return self.precedence is not None and self.precedence.arc_count() > 0

    def closed_precedence(self) -> Optional[DiGraph]:
        """Transitive closure of the precedence DAG (or ``None``)."""
        if self.precedence is None:
            return None
        return self.precedence.transitive_closure()

    def total_volume(self) -> int:
        return sum(b.volume for b in self.boxes)

    def widths_along(self, axis: int) -> List[int]:
        return [b.widths[axis] for b in self.boxes]


@dataclass
class Placement:
    """Anchor positions for every box of an instance."""

    instance: PackingInstance
    positions: List[Coordinate] = field(default_factory=list)

    def start(self, box_index: int, axis: int) -> int:
        return self.positions[box_index][axis]

    def end(self, box_index: int, axis: int) -> int:
        return (
            self.positions[box_index][axis]
            + self.instance.boxes[box_index].widths[axis]
        )

    def makespan(self) -> int:
        """Largest end coordinate along the time axis (0 when empty)."""
        axis = self.instance.time_axis
        return max((self.end(i, axis) for i in range(len(self.positions))), default=0)

    # -- validation --------------------------------------------------------

    def violations(self) -> List[str]:
        """Return a list of human-readable feasibility violations (empty if
        the placement is feasible).  This validator is deliberately
        independent of the solver: plain coordinate arithmetic only."""
        problems: List[str] = []
        inst = self.instance
        if len(self.positions) != inst.n:
            return [
                f"placement has {len(self.positions)} positions "
                f"for {inst.n} boxes"
            ]
        d = inst.dimensions
        sizes = inst.container.sizes
        lows = self.positions
        # Each box's end corner, computed once (zip stops at the shorter of
        # position and widths, so a wrong-dimension position is reported
        # below rather than raising here).
        highs = [
            tuple(p + w for p, w in zip(pos, box.widths))
            for pos, box in zip(lows, inst.boxes)
        ]
        for i, pos in enumerate(lows):
            if len(pos) != d:
                problems.append(f"box {i} position has wrong dimension {pos}")
                continue
            for axis in range(d):
                if pos[axis] < 0 or highs[i][axis] > sizes[axis]:
                    problems.append(
                        f"box {i} ({inst.boxes[i]}) leaves the container on "
                        f"axis {axis}: [{pos[axis]}, {highs[i][axis]}) "
                        f"vs size {sizes[axis]}"
                    )
        axes = range(d)
        for i in range(inst.n):
            low_i, high_i = lows[i], highs[i]
            for j in range(i + 1, inst.n):
                low_j, high_j = lows[j], highs[j]
                for a in axes:
                    if low_i[a] >= high_j[a] or low_j[a] >= high_i[a]:
                        break
                else:
                    problems.append(f"boxes {i} and {j} overlap")
        closure = inst.closed_precedence()
        if closure is not None:
            axis = inst.time_axis
            for u, v in closure.arcs():
                if highs[u][axis] > lows[v][axis]:
                    problems.append(
                        f"precedence violated: box {u} ends at "
                        f"{highs[u][axis]} after box {v} starts at "
                        f"{lows[v][axis]}"
                    )
        return problems

    def is_feasible(self) -> bool:
        return not self.violations()


def boxes_overlap(placement: Placement, i: int, j: int) -> bool:
    """True iff boxes ``i`` and ``j`` overlap in *every* axis (i.e. their
    interiors intersect)."""
    d = placement.instance.dimensions
    return all(
        max(placement.start(i, a), placement.start(j, a))
        < min(placement.end(i, a), placement.end(j, a))
        for a in range(d)
    )


def intervals_overlap(start_a: int, len_a: int, start_b: int, len_b: int) -> bool:
    """Open-interval overlap test for two 1-D segments."""
    return max(start_a, start_b) < min(start_a + len_a, start_b + len_b)


def make_instance(
    widths: Iterable[Sequence[int]],
    container: Sequence[int],
    precedence_arcs: Iterable[Tuple[int, int]] = (),
    names: Optional[Sequence[str]] = None,
) -> PackingInstance:
    """Convenience constructor used heavily by tests and examples."""
    widths = [tuple(w) for w in widths]
    boxes = [
        Box(w, name=(names[i] if names else f"b{i}")) for i, w in enumerate(widths)
    ]
    arcs = list(precedence_arcs)
    dag = DiGraph(len(boxes), arcs) if arcs else None
    return PackingInstance(boxes, Container(tuple(container)), dag)
