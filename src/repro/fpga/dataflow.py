"""Problem graphs: tasks plus data dependencies.

The dependency graph of Figure 2 (DE benchmark) and the problem graph of
Figure 9 (video codec) are instances of :class:`TaskGraph`: a set of tasks
with a DAG of data dependencies.  Following the paper, the transitive
closure of all data dependencies is computed before solving, "to allow our
algorithm to find contradictions to feasible packings already in the
input".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..core.boxes import Box, PackingInstance
from ..graphs.digraph import DiGraph
from .chip import Chip
from .module_library import ModuleType
from .task import Task

TaskRef = Union[str, Task]


class TaskGraph:
    """A set of tasks with precedence (data dependency) arcs."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.tasks: List[Task] = []
        self._index: Dict[str, int] = {}
        self._arcs: List[Tuple[int, int]] = []
        self._shared_dag: Optional[DiGraph] = None  # see packing_view()

    # -- construction ------------------------------------------------------

    def add_task(self, name: str, module: ModuleType) -> Task:
        if name in self._index:
            raise ValueError(f"task {name!r} already in graph")
        task = Task(name, module)
        self._index[name] = len(self.tasks)
        self.tasks.append(task)
        self._shared_dag = None
        return task

    def add_dependency(self, producer: TaskRef, consumer: TaskRef) -> None:
        """Add the arc producer -> consumer (producer must finish first)."""
        u = self.index_of(producer)
        v = self.index_of(consumer)
        if u == v:
            raise ValueError("a task cannot depend on itself")
        if (u, v) not in self._arcs:
            self._arcs.append((u, v))
            self._shared_dag = None
        if not self.dependency_dag().is_acyclic():
            self._arcs.remove((u, v))
            raise ValueError(
                f"dependency {self.tasks[u].name} -> {self.tasks[v].name} "
                "creates a cycle"
            )

    def add_chain(self, *tasks: TaskRef) -> None:
        """Add dependencies along a pipeline of tasks."""
        for producer, consumer in zip(tasks, tasks[1:]):
            self.add_dependency(producer, consumer)

    # -- queries --------------------------------------------------------------

    def index_of(self, ref: TaskRef) -> int:
        name = ref.name if isinstance(ref, Task) else ref
        try:
            return self._index[name]
        except KeyError as exc:
            raise KeyError(f"no task named {name!r}") from exc

    def task(self, ref: TaskRef) -> Task:
        return self.tasks[self.index_of(ref)]

    @property
    def n(self) -> int:
        return len(self.tasks)

    def arcs(self) -> List[Tuple[int, int]]:
        return list(self._arcs)

    def arc_names(self) -> List[Tuple[str, str]]:
        return [(self.tasks[u].name, self.tasks[v].name) for u, v in self._arcs]

    def dependency_dag(self) -> DiGraph:
        return DiGraph(self.n, self._arcs)

    def closed_dependency_dag(self) -> DiGraph:
        """Transitive closure — what the solver actually works with."""
        return self.dependency_dag().transitive_closure()

    def boxes(self) -> List[Box]:
        return [t.box() for t in self.tasks]

    def packing_view(self) -> Tuple[List[Box], Optional[DiGraph]]:
        """``(boxes, precedence)`` for solving this graph (``precedence`` is
        ``None`` without arcs).

        The DAG is built once per revision of the graph and shared by every
        solve of it, so results reference one DAG, as results of a
        :class:`PackingInstance` reference its own.  Treat it as read-only;
        :meth:`dependency_dag` returns a private copy.
        """
        if not self._arcs:
            return self.boxes(), None
        if self._shared_dag is None:
            self._shared_dag = self.dependency_dag()
        return self.boxes(), self._shared_dag

    def durations(self) -> List[int]:
        return [t.duration for t in self.tasks]

    def critical_path_length(self) -> int:
        """The unavoidable latency: the heaviest dependency chain."""
        dag = self.dependency_dag()
        return int(dag.critical_path_length([float(d) for d in self.durations()]))

    def total_cells_time(self) -> int:
        """Total space-time volume of all tasks (cells × cycles)."""
        return sum(t.box().volume for t in self.tasks)

    # -- bridge to the packing core ------------------------------------------

    def to_instance(self, chip: Chip, time_bound: int) -> PackingInstance:
        """The 3-D packing instance for this task graph on a chip with a
        latency bound."""
        precedence = self.dependency_dag() if self._arcs else None
        return PackingInstance(self.boxes(), chip.container(time_bound), precedence)

    def without_dependencies(self) -> "TaskGraph":
        """A copy with all precedence arcs dropped (for the unconstrained
        comparison curves of Figure 7)."""
        clone = TaskGraph(name=f"{self.name}-unordered" if self.name else "")
        for t in self.tasks:
            clone.add_task(t.name, t.module)
        return clone

    def __str__(self) -> str:
        label = self.name or "task-graph"
        return f"{label}: {self.n} tasks, {len(self._arcs)} dependencies"
