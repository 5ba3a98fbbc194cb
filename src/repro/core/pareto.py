"""Area–time trade-off curves (Figure 7 of the paper).

For every achievable latency ``h_t`` the minimal square chip is computed
(BMP); the resulting staircase of (chip side, latency) pairs is filtered to
its Pareto-optimal subset.  The paper plots the DE benchmark curve twice:
with the precedence constraints (solid) and ignoring them (dashed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graphs.digraph import DiGraph
from .bmp import (
    DEGRADED,
    OPTIMAL,
    OptimizationResult,
    _ProbeRunner,
    _traced_minimize_base,
)
from .boxes import Box
from .deadline import Deadline
from .opp import SolverOptions
from .search import FaultRecord


@dataclass
class ParetoPoint:
    """One point of the trade-off curve."""

    time_bound: int
    side: int

    def dominates(self, other: "ParetoPoint") -> bool:
        return (
            self.time_bound <= other.time_bound
            and self.side <= other.side
            and (self.time_bound < other.time_bound or self.side < other.side)
        )


@dataclass
class ParetoFront:
    """The full sweep plus its Pareto-optimal subset.

    ``status`` / ``value`` / ``stats`` / ``faults`` / ``trace`` implement
    the common result protocol shared by every solver entry point (see
    :mod:`repro.api`).
    """

    sweep: List[ParetoPoint] = field(default_factory=list)
    points: List[ParetoPoint] = field(default_factory=list)
    results: List[OptimizationResult] = field(default_factory=list)
    faults: List[FaultRecord] = field(default_factory=list)
    trace: Optional[object] = None

    def as_pairs(self) -> List[Tuple[int, int]]:
        return [(p.time_bound, p.side) for p in self.points]

    @property
    def status(self) -> str:
        """``"optimal"`` when every latency step concluded, ``"degraded"``
        when the end-to-end deadline cut the sweep short (the points
        computed so far are still exact), ``"unknown"`` when any step ran
        into an ordinary solver limit (the curve may be incomplete)."""
        if any(r.status == DEGRADED or r.degraded is not None for r in self.results):
            return DEGRADED
        if any(r.status == "unknown" for r in self.results):
            return "unknown"
        return OPTIMAL

    @property
    def degraded(self) -> Optional[dict]:
        """The first step's ``{"reason", "gap"}`` degradation marker, or
        ``None`` when the sweep was never cut short by a deadline."""
        for r in self.results:
            if r.degraded is not None:
                return r.degraded
        return None

    @property
    def value(self) -> List[Tuple[int, int]]:
        """The Pareto-optimal (latency, chip side) pairs."""
        return self.as_pairs()

    @property
    def stats(self) -> dict:
        """Aggregate probe statistics (common result protocol)."""
        probes = [p for r in self.results for p in r.probes]
        return {
            "probes": len(probes),
            "nodes": sum(p.nodes for p in probes),
            "elapsed": sum(p.seconds for p in probes),
        }


def minimal_latency(boxes: List[Box], precedence: Optional[DiGraph]) -> int:
    """The smallest latency achievable on *any* chip: the critical path with
    precedence constraints, the longest single duration without."""
    durations = [b.widths[-1] for b in boxes]
    if precedence is not None:
        return int(precedence.critical_path_length([float(d) for d in durations]))
    return max(durations, default=0)


def pareto_front(
    boxes: List[Box],
    precedence: Optional[DiGraph] = None,
    *,
    max_time: Optional[int] = None,
    options: Optional[SolverOptions] = None,
    cache: Optional[object] = None,
    opp_solver: Optional[object] = None,
    deadline: Optional[Deadline] = None,
    telemetry: Optional[object] = None,
) -> ParetoFront:
    """Sweep latencies from the minimum achievable upward and minimize the
    chip for each; stop when the chip size reaches its absolute floor (the
    value for a fully sequential schedule), after which no trade-off
    remains.  Everything past ``precedence`` is keyword-only.

    ``deadline`` (a shared :class:`repro.core.deadline.Deadline`) is one
    wall clock for *every* OPP probe of the entire sweep — not per latency
    step.  When it trips the sweep stops, the front's status reports
    ``"degraded"``, and every point already computed stays exact.
    ``telemetry`` records the whole sweep under one ``solve`` span; each
    latency step nests its own BMP ``solve`` span beneath it.
    """
    runner = _ProbeRunner(
        options=options, cache=cache, opp_solver=opp_solver,
        deadline=deadline, telemetry=telemetry,
    )
    telemetry = runner.telemetry
    with telemetry.span(
        "solve", problem="pareto", boxes=len(boxes)
    ) as span:
        front = _pareto_front(list(boxes), precedence, max_time, runner)
        span.set(points=len(front.points), steps=len(front.results))
    for result in front.results:
        if result.faults:
            front.faults.extend(result.faults)
    if telemetry.enabled:
        front.trace = telemetry
    return front


def _pareto_front(
    boxes: List[Box],
    precedence: Optional[DiGraph],
    max_time: Optional[int],
    runner: _ProbeRunner,
) -> ParetoFront:
    # Every latency step's probes and witnesses share ``boxes``, the
    # front's one copy of the caller's list.
    front = ParetoFront()
    if not boxes:
        return front
    t_min = max(1, minimal_latency(boxes, precedence))
    t_sequential = sum(b.widths[-1] for b in boxes)
    if max_time is None:
        max_time = t_sequential
    floor_result = _traced_minimize_base(
        boxes, precedence, max(t_sequential, max_time), None, runner
    )
    floor = floor_result.optimum if floor_result.status == OPTIMAL else None

    # The front keeps one witness per latency step, and the witnesses of a
    # sweep mostly repeat the same anchor positions: share equal tuples.
    anchors: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    previous_side: Optional[int] = None
    for t in range(t_min, max_time + 1):
        result = _traced_minimize_base(
            boxes, precedence, t, previous_side, runner
        )
        front.results.append(result)
        if result.placement is not None:
            result.placement.positions = [
                anchors.setdefault(p, p) for p in result.placement.positions
            ]
        if runner.deadline_hit:
            break  # out of end-to-end time: keep the exact prefix
        if result.status != OPTIMAL:
            continue
        side = result.optimum
        front.sweep.append(ParetoPoint(time_bound=t, side=side))
        previous_side = side
        if floor is not None and side <= floor:
            break

    front.points = pareto_filter(front.sweep)
    return front


def pareto_filter(points: List[ParetoPoint]) -> List[ParetoPoint]:
    """Keep only non-dominated points (smaller is better on both axes)."""
    kept: List[ParetoPoint] = []
    for p in points:
        if any(q.dominates(p) for q in points if q is not p):
            continue
        if any(q.time_bound == p.time_bound and q.side == p.side for q in kept):
            continue
        kept.append(p)
    kept.sort(key=lambda p: p.time_bound)
    return kept
