"""On-line module placement — the dynamic scenario of the introduction.

The paper contrasts its *static* exact optimization with "on-line
strategies for compiling and reconfiguring such devices" (dynamic
allocation of a task sequence with run-time compaction, [3, 4, 16]).  This
module implements that baseline scenario: tasks arrive one at a time with
release times and are placed greedily, without knowledge of the future.
Comparing the on-line makespan against the offline optimum (the packing
solver) quantifies the price of not planning ahead — the motivation for
the paper's compile-time approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.boxes import Container
from ..heuristics.grid import OccupancyGrid
from .chip import Chip
from .dataflow import TaskGraph
from .schedule import ReconfigurationSchedule, ScheduledTask
from .task import Task


@dataclass(frozen=True)
class OnlineRequest:
    """One arriving task: place at or after ``release``."""

    task: Task
    release: int = 0

    def __post_init__(self) -> None:
        if self.release < 0:
            raise ValueError("release times must be non-negative")


@dataclass
class OnlineStats:
    placed: int = 0
    rejected: int = 0
    total_wait: int = 0  # sum of (start - release)

    @property
    def average_wait(self) -> float:
        return self.total_wait / self.placed if self.placed else 0.0


class OnlinePlacer:
    """Greedy first-fit on-line placer with full temporal lookahead.

    Tasks are placed in arrival order at the earliest feasible start time
    not before their release, scanning anchors bottom-left.  Placed tasks
    are never moved (no re-compaction) — the classic on-line baseline.
    """

    def __init__(self, chip: Chip, horizon: int = 1024) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.chip = chip
        self.horizon = horizon
        # Regions are indexed (x, y, t).
        self._grid = OccupancyGrid(
            Container((chip.width, chip.height, horizon))
        )
        self.placements: List[ScheduledTask] = []
        self.stats = OnlineStats()

    def submit(self, request: OnlineRequest) -> Optional[ScheduledTask]:
        """Place one arriving task; returns ``None`` (rejected) if it does
        not fit the chip or the horizon."""
        task = request.task
        if not self.chip.fits_module(task.width, task.height):
            self.stats.rejected += 1
            return None
        spot = self._find_first_fit(task, request.release)
        if spot is None:
            self.stats.rejected += 1
            return None
        x, y, start = spot
        self._grid.place(
            (x, y, start), (task.width, task.height, task.duration)
        )
        placed = ScheduledTask(task=task, x=x, y=y, start=start)
        self.placements.append(placed)
        self.stats.placed += 1
        self.stats.total_wait += start - request.release
        return placed

    def run(self, requests: Sequence[OnlineRequest]) -> List[Optional[ScheduledTask]]:
        """Process a whole arrival sequence in order."""
        return [self.submit(r) for r in requests]

    @property
    def makespan(self) -> int:
        return max((p.end for p in self.placements), default=0)

    def utilization(self) -> float:
        """Busy cell-cycles over chip capacity up to the makespan."""
        span = self.makespan
        if span == 0:
            return 0.0
        busy = sum(
            p.task.width * p.task.height * p.task.duration
            for p in self.placements
        )
        return busy / (self.chip.cells * span)

    def to_schedule(self) -> ReconfigurationSchedule:
        """Export the accepted placements as a validated schedule."""
        graph = TaskGraph(name="online")
        entries = []
        for p in self.placements:
            graph.add_task(p.task.name, p.task.module)
            entries.append(p)
        return ReconfigurationSchedule(graph, self.chip, entries)

    # -- internals ---------------------------------------------------------

    def _find_first_fit(
        self, task: Task, release: int
    ) -> Optional[Tuple[int, int, int]]:
        # Candidate start times: the release itself plus every end time of a
        # placed task after it (nothing frees up in between).
        ends = sorted(
            {release}
            | {p.end for p in self.placements if p.end > release}
        )
        for start in ends:
            if start + task.duration > self.horizon:
                return None
            spot = self._scan_positions(start, task)
            if spot is not None:
                return (spot[0], spot[1], start)
        return None

    def _scan_positions(
        self, start: int, task: Task
    ) -> Optional[Tuple[int, int]]:
        # Bottom-left scan over anchor candidates: 0 and edges of occupied
        # regions, conservatively every placed box edge.
        xs = sorted({0} | {p.x + p.task.width for p in self.placements})
        ys = sorted({0} | {p.y + p.task.height for p in self.placements})
        widths = (task.width, task.height, task.duration)
        for y in ys:
            for x in xs:
                if self._grid.fits((x, y, start), widths):
                    return (x, y)
        return None


def online_makespan(
    chip: Chip, requests: Sequence[OnlineRequest], horizon: int = 1024
) -> Tuple[int, OnlineStats]:
    """Convenience wrapper: run the placer, return (makespan, stats)."""
    placer = OnlinePlacer(chip, horizon=horizon)
    placer.run(requests)
    return placer.makespan, placer.stats


def batch_place(
    chip: Chip,
    requests: Sequence[OnlineRequest],
    lookahead: int = 1,
    horizon: int = 1024,
) -> OnlinePlacer:
    """On-line placement with a bounded lookahead buffer.

    A spectrum between pure on-line and offline-greedy: up to ``lookahead``
    pending requests are buffered, and at each step the *largest* buffered
    task (by cell-cycles) is placed first — the classic decreasing-size
    rule applied within the window.  ``lookahead=1`` is exactly the plain
    on-line placer; large windows approach the offline greedy.
    """
    if lookahead < 1:
        raise ValueError("lookahead must be at least 1")
    placer = OnlinePlacer(chip, horizon=horizon)
    pending: List[OnlineRequest] = []
    queue = list(requests)

    def volume(r: OnlineRequest) -> int:
        return r.task.width * r.task.height * r.task.duration

    while queue or pending:
        while queue and len(pending) < lookahead:
            pending.append(queue.pop(0))
        pending.sort(key=volume, reverse=True)
        placer.submit(pending.pop(0))
    return placer
