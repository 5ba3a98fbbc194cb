"""Directed graphs and DAG utilities.

Precedence constraints are a partial order on tasks, given as a directed
acyclic graph.  The solver needs: cycle detection, topological ordering,
transitive closure (the paper computes the closure of all data dependencies
before the search), transitive reduction (for compact display), and longest
weighted paths (the critical-path lower bound on the schedule length).
"""

from __future__ import annotations

from typing import (
    AbstractSet, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence,
    Set, Tuple,
)

Arc = Tuple[int, int]

#: The shared adjacency of a vertex without arcs in that direction; a vertex
#: gets its own set with its first arc.  An empty ``set`` costs ~200 bytes,
#: and most vertices of a precedence DAG are sources or sinks.
_NO_ARCS: FrozenSet[int] = frozenset()


class CycleError(ValueError):
    """Raised when a DAG-only operation meets a directed cycle."""

    def __init__(self, cycle: Sequence[int]):
        self.cycle = list(cycle)
        super().__init__(f"directed cycle: {' -> '.join(map(str, self.cycle))}")


class DiGraph:
    """A simple directed graph on vertices ``0 … n-1`` (no parallel arcs)."""

    __slots__ = ("n", "succ", "pred")

    def __init__(self, n: int, arcs: Iterable[Arc] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.succ: List[AbstractSet[int]] = [_NO_ARCS] * n
        self.pred: List[AbstractSet[int]] = [_NO_ARCS] * n
        for u, v in arcs:
            self.add_arc(u, v)

    def add_arc(self, u: int, v: int) -> None:
        """Add the arc ``u -> v`` (idempotent)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop on vertex {u} is not a valid arc")
        _link(self.succ, u, v)
        _link(self.pred, v, u)

    def remove_arc(self, u: int, v: int) -> None:
        if v not in self.succ[u]:
            raise KeyError(f"arc ({u}, {v}) not in graph")
        self.succ[u].remove(v)
        self.pred[v].remove(u)

    def has_arc(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self.succ[u]

    def arcs(self) -> Iterator[Arc]:
        for u in range(self.n):
            for v in self.succ[u]:
                yield (u, v)

    def arc_count(self) -> int:
        return sum(len(s) for s in self.succ)

    def copy(self) -> "DiGraph":
        g = DiGraph(self.n)
        g.succ = [set(s) if s else _NO_ARCS for s in self.succ]
        g.pred = [set(p) if p else _NO_ARCS for p in self.pred]
        return g

    def vertices(self) -> range:
        return range(self.n)

    def in_degree(self, u: int) -> int:
        return len(self.pred[u])

    def out_degree(self, u: int) -> int:
        return len(self.succ[u])

    def sources(self) -> List[int]:
        """Vertices with no predecessors."""
        return [u for u in range(self.n) if not self.pred[u]]

    def sinks(self) -> List[int]:
        """Vertices with no successors."""
        return [u for u in range(self.n) if not self.succ[u]]

    # -- DAG algorithms ------------------------------------------------------

    def topological_order(self) -> List[int]:
        """Kahn's algorithm; raises :class:`CycleError` on a directed cycle."""
        indeg = [len(self.pred[u]) for u in range(self.n)]
        queue = [u for u in range(self.n) if indeg[u] == 0]
        order: List[int] = []
        while queue:
            u = queue.pop()
            order.append(u)
            for v in self.succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != self.n:
            raise CycleError(self.find_cycle() or [])
        return order

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
        except CycleError:
            return False
        return True

    def find_cycle(self) -> Optional[List[int]]:
        """Return some directed cycle as a vertex list, or ``None``."""
        WHITE, GREY, BLACK = 0, 1, 2
        color = [WHITE] * self.n
        parent: Dict[int, int] = {}
        for root in range(self.n):
            if color[root] != WHITE:
                continue
            stack: List[Tuple[int, Iterator[int]]] = [(root, iter(self.succ[root]))]
            color[root] = GREY
            while stack:
                u, it = stack[-1]
                advanced = False
                for v in it:
                    if color[v] == WHITE:
                        color[v] = GREY
                        parent[v] = u
                        stack.append((v, iter(self.succ[v])))
                        advanced = True
                        break
                    if color[v] == GREY:
                        cycle = [v, u]
                        w = u
                        while w != v:
                            w = parent[w]
                            cycle.append(w)
                        cycle.reverse()
                        return cycle[:-1]
                if not advanced:
                    color[u] = BLACK
                    stack.pop()
        return None

    def transitive_closure(self) -> "DiGraph":
        """Return the transitive closure (a new graph).

        Requires acyclicity (precedence orders are DAGs); raises
        :class:`CycleError` otherwise.
        """
        order = self.topological_order()
        reach: List[Set[int]] = [set() for _ in range(self.n)]
        for u in reversed(order):
            r = set(self.succ[u])
            for v in self.succ[u]:
                r |= reach[v]
            reach[u] = r
        closure = DiGraph(self.n)
        for u in range(self.n):
            for v in reach[u]:
                closure.add_arc(u, v)
        return closure

    def transitive_reduction(self) -> "DiGraph":
        """Return the unique transitive reduction of a DAG (a new graph)."""
        closure = self.transitive_closure()
        reduction = DiGraph(self.n)
        for u, v in self.arcs():
            # u -> v is redundant iff some other successor w of u reaches v.
            if not any(v in closure.succ[w] for w in self.succ[u] if w != v):
                reduction.add_arc(u, v)
        return reduction

    def longest_path_lengths(self, weights: Sequence[float]) -> List[float]:
        """Earliest completion times under vertex weights (durations).

        ``result[v]`` is the length of the heaviest directed path *ending* at
        ``v`` and including ``v``'s own weight — i.e. the earliest time task
        ``v`` can finish if every task takes ``weights[task]``.
        """
        if len(weights) != self.n:
            raise ValueError("one weight per vertex required")
        finish = [0.0] * self.n
        for u in self.topological_order():
            start = max((finish[p] for p in self.pred[u]), default=0.0)
            finish[u] = start + weights[u]
        return finish

    def critical_path_length(self, weights: Sequence[float]) -> float:
        """Length of the heaviest directed path (the schedule lower bound)."""
        if self.n == 0:
            return 0.0
        return max(self.longest_path_lengths(weights))

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise IndexError(f"vertex {u} out of range [0, {self.n})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self.n == other.n and self.succ == other.succ

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiGraph(n={self.n}, arcs={sorted(self.arcs())})"


def _link(adjacency: List[AbstractSet[int]], u: int, v: int) -> None:
    if adjacency[u]:
        adjacency[u].add(v)  # type: ignore[union-attr]
    else:
        adjacency[u] = {v}
