"""Depth-first branch-and-bound over packing classes.

Stage 3 of the paper's framework: when the lower bounds cannot disprove a
packing and the heuristics cannot find one, the solver enumerates edge-state
assignments.  Branching fixes one (pair, axis) to COMPONENT or
COMPARABILITY; the propagation engine (:mod:`repro.core.edgestate`) then
cascades forced edges and orientations and signals conflicts.  At a leaf —
all pairs decided on all axes — the assignment is verified *exactly*:

1. every component graph must be chordal (cheap filter; interval graphs are
   chordal, and every feasible packing induces interval component graphs);
2. every comparability graph (the complement) must admit a transitive
   orientation extending the axis' forced arcs — for the time axis these
   include the precedence constraints (Theorem 2's feasibility test);
3. the longest-path placement extracted from the orientations is validated
   geometrically, independent of all solver data structures.

SAT answers therefore always carry a machine-checked placement; UNSAT
answers mean the exhaustive enumeration (sound propagation + exact leaf
tests) found nothing.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..graphs.chordal import is_chordal, is_chordal_masks
from ..telemetry import NODE_SAMPLE_INTERVAL, NO_TELEMETRY
from .boxes import PackingInstance, Placement
from .kernels import make_model, resolve as resolve_kernel
from .edgestate import (
    COMPARABILITY,
    COMPONENT,
    UNDECIDED,
    Conflict,
    EdgeStateModel,
    PropagationOptions,
)
from .placement import extract_placement, extract_placement_masks


#: A branching cursor: ``(time, spatial, overlap)`` indices into the branch
#: orders (see :meth:`BranchAndBound._pick_branch`).  The zero cursor is
#: valid at every node.
Cursor = Tuple[int, int, int]
ZERO_CURSOR: Cursor = (0, 0, 0)


class LimitReached(Exception):
    """Node or time budget exhausted; the search result is inconclusive."""


class CheckpointMismatch(ValueError):
    """A checkpoint or subtree descriptor that cannot be replayed here.

    Silent degradation (drop the checkpoint, restart from scratch) is the
    right call when the snapshot merely belongs to a *different* search —
    but it is the wrong call when resuming would silently *lose* state the
    caller believes is being carried forward.  Two cases raise instead:

    * a stored checkpoint taken mid-restart-schedule by the retired
      conflict-learning search (``restart_round > 0`` with a serialized
      nogood store; see :meth:`SearchCheckpoint.from_dict`) — its prefix
      was searched under that store, so replaying it without the store
      would quietly discard the restart context;
    * a distributed subtree prefix that diverges from the deterministic
      branching heuristic (or is refuted by propagation) — the descriptor
      was produced against a different tree, and searching "some other"
      subtree would corrupt the exactly-once accounting of the split.
    """

    def __init__(
        self,
        reason: str,
        *,
        restart_round: int = 0,
        fingerprint: str = "",
    ) -> None:
        super().__init__(reason)
        self.reason = reason
        self.restart_round = restart_round
        self.fingerprint = fingerprint


class InjectedFault(Exception):
    """A failure injected by a :mod:`repro.parallel.faults` plan.

    ``escalate=False`` faults are caught by the search and turned into an
    explicit ``unknown`` verdict with a machine-readable reason; escalating
    faults propagate like an unforeseen bug would, exercising the crash
    containment of the surrounding runtime (portfolio, worker pool).
    """

    def __init__(self, reason: str, escalate: bool = False) -> None:
        super().__init__(reason, escalate)
        self.reason = reason
        self.escalate = escalate


@dataclass
class FaultRecord:
    """One machine-readable fault observed while answering a query.

    ``kind`` is a stable identifier (``"injected"``, ``"pool_broken"``,
    ``"entrant_error"``, ``"entrant_stalled"``, ``"entrant_abandoned"``,
    ``"backend_degraded"``, ``"checkpoint_mismatch"``, ...); ``detail`` is
    free-form context, ``entrant`` names the portfolio configuration the
    fault hit (when any), and ``attempt`` counts retries.
    """

    kind: str
    detail: str = ""
    entrant: Optional[str] = None
    attempt: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "entrant": self.entrant,
            "attempt": self.attempt,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultRecord":
        return cls(
            kind=data["kind"],
            detail=data.get("detail", ""),
            entrant=data.get("entrant"),
            attempt=data.get("attempt", 0),
        )


@dataclass
class SearchCheckpoint:
    """A resumable snapshot of an interrupted branch-and-bound run.

    ``decisions`` is the decision prefix — the ``(axis, u, v, value)``
    assignments on the DFS stack when the search was interrupted.  Since the
    branching and value heuristics are deterministic functions of the model
    state, replaying the prefix reproduces the exact tree position; siblings
    tried *before* each recorded value were already exhausted, so the resume
    skips them and continues where the interrupted run stopped instead of
    restarting.  ``fingerprint`` ties the snapshot to the instance and
    branching configuration that produced it; a mismatched checkpoint is
    ignored (recorded as a ``checkpoint_mismatch`` fault), never replayed.
    """

    decisions: List[Tuple[int, int, int, int]] = field(default_factory=list)
    nodes: int = 0
    fingerprint: str = ""
    entrant: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "decisions": [list(d) for d in self.decisions],
            "nodes": self.nodes,
            "fingerprint": self.fingerprint,
            "entrant": self.entrant,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SearchCheckpoint":
        """Decode a stored checkpoint.

        Journals outlive the code that wrote them.  A payload taken
        mid-restart-schedule by the retired conflict-learning search
        (``restart_round > 0`` with a ``nogoods`` store) is refused with
        :class:`CheckpointMismatch`: its prefix was searched under that
        store, and this search cannot carry it.  Round-0 payloads and
        payloads without a store replay like any other prefix.
        """
        restart_round = data.get("restart_round", 0)
        if restart_round > 0 and data.get("nogoods") is not None:
            raise CheckpointMismatch(
                "checkpoint was taken mid-restart-schedule by a conflict-"
                f"learning run (restart_round={restart_round}, nogood store "
                "present); resuming would silently drop the restart context",
                restart_round=restart_round,
                fingerprint=data.get("fingerprint", ""),
            )
        return cls(
            decisions=[tuple(d) for d in data.get("decisions", [])],
            nodes=data.get("nodes", 0),
            fingerprint=data.get("fingerprint", ""),
            entrant=data.get("entrant"),
        )


def search_fingerprint(
    instance: PackingInstance,
    branching: Optional["BranchingOptions"] = None,
    pre_states: Optional[List[Tuple[int, int, int, int]]] = None,
    pre_arcs: Optional[List[Tuple[int, int, int]]] = None,
) -> str:
    """Identity of a search configuration for checkpoint validation."""
    branching = branching or BranchingOptions()
    payload = (
        tuple(instance.container.sizes),
        instance.time_axis % instance.dimensions,
        tuple(b.widths for b in instance.boxes),
        tuple(sorted(instance.precedence.arcs()))
        if instance.precedence is not None
        else (),
        branching.strategy,
        branching.value_order,
        branching.time_axis_boost,
        tuple(pre_states or ()),
        tuple(pre_arcs or ()),
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


@dataclass
class SearchStats:
    nodes: int = 0
    conflicts: int = 0
    leaves: int = 0
    leaf_failures: int = 0
    elapsed: float = 0.0
    propagated_states: int = 0
    propagated_arcs: int = 0
    limit: Optional[str] = None
    faults: int = 0

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SearchStats":
        """Decode stored counters.  Journals outlive the code that wrote
        them, so counter names this search no longer keeps are dropped."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def merge_model(self, model: EdgeStateModel) -> None:
        self.conflicts += model.stats.conflicts
        self.propagated_states += model.stats.forced_states
        self.propagated_arcs += model.stats.forced_arcs

    def merge(self, other: "SearchStats") -> None:
        """Fold another run's counters into this one (portfolio observability).

        Counters add up; ``elapsed`` takes the maximum because racing workers
        run concurrently, not back to back.  ``limit`` is left alone — the
        caller decides which run's limit reason (if any) describes the merge.
        """
        self.nodes += other.nodes
        self.conflicts += other.conflicts
        self.leaves += other.leaves
        self.leaf_failures += other.leaf_failures
        self.propagated_states += other.propagated_states
        self.propagated_arcs += other.propagated_arcs
        self.elapsed = max(self.elapsed, other.elapsed)
        self.faults += other.faults

    def carry(self, earlier: "SearchStats") -> None:
        """Fold an *earlier, sequential* slice of the same logical search
        into this one (budgeted probe resumption).

        Unlike :meth:`merge`, the slices ran back to back, so ``elapsed``
        adds up too.  Every counter accumulates — a resumed slice must
        never present itself as a fresh search that "reset" the
        conflict/leaf totals of the slices before it.
        """
        self.nodes += earlier.nodes
        self.conflicts += earlier.conflicts
        self.leaves += earlier.leaves
        self.leaf_failures += earlier.leaf_failures
        self.propagated_states += earlier.propagated_states
        self.propagated_arcs += earlier.propagated_arcs
        self.elapsed += earlier.elapsed
        self.faults += earlier.faults

    def canonical_dict(self) -> Dict[str, int]:
        """The deterministic tree-shape counters, nothing else.

        Wall-clock (``elapsed``), limit reasons, and runtime-incident
        counters (``faults``) vary run to run; everything returned here is
        a pure function of the explored tree.  Two runs (or one serial run
        and one distributed merge) explored the same tree iff these dicts
        are equal — the byte-identical-stats invariant of the distributed
        runtime is asserted on exactly this payload.
        """
        return {
            "nodes": self.nodes,
            "conflicts": self.conflicts,
            "leaves": self.leaves,
            "leaf_failures": self.leaf_failures,
            "propagated_states": self.propagated_states,
            "propagated_arcs": self.propagated_arcs,
        }


@dataclass
class SplitTask:
    """One frontier subtree descriptor produced by :meth:`BranchAndBound.split`.

    ``prefix`` is a decision list in checkpoint format (``(axis, u, v,
    value)``); replaying it on a fresh solver with the same configuration
    (via ``BranchAndBound(..., subtree=prefix)``) lands exactly on the
    frontier node, and the searches below the full frontier partition the
    serial tree.  ``order_key`` is the sequence of value-order indices along
    the path: lexicographic order on these keys is the serial DFS visit
    order, which is what makes the distributed merge deterministic.
    """

    prefix: List[Tuple[int, int, int, int]] = field(default_factory=list)
    order_key: Tuple[int, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "prefix": [list(d) for d in self.prefix],
            "order_key": list(self.order_key),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SplitTask":
        return cls(
            prefix=[tuple(d) for d in data.get("prefix", [])],
            order_key=tuple(data.get("order_key", [])),
        )


@dataclass
class SplitResult:
    """Outcome of splitting the top of a search tree into subtree tasks.

    ``status`` is ``"split"`` (``tasks`` cover the rest of the tree) or
    ``"unsat"`` (every branch conflicted while expanding — the split alone
    proved infeasibility and ``tasks`` is empty).  ``stats`` is the
    splitter's share of the serial accounting: the root and every expanded
    internal node, plus the conflicts and propagations observed while
    trying their children.  Adding the subtree searches' stats (in
    ``order_key`` order, via :meth:`SearchStats.carry`) reproduces the
    serial run's counters exactly.
    """

    status: str
    tasks: List[SplitTask] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)
    fingerprint: str = ""


@dataclass
class BranchingOptions:
    """How the tree is explored.

    ``strategy`` selects the variable/value heuristics:

    * ``"guided"`` (default) — decide time-axis pairs first (largest boxes
      first; precedence implications cascade from them), then the spatial
      relation of pairs that *overlap in time* (those are the geometrically
      constrained ones, tried separation-first), and only then the
      spatially irrelevant remainder (tried overlap-first — such pairs are
      free to share coordinates, which keeps the per-axis chains short).
    * ``"static"`` — one fixed (axis, pair) order by width product with the
      time axis boosted, always trying the ``value_order`` state first;
      this matches a naive reading of the original branching rule and is
      kept for ablation.
    """

    strategy: str = "guided"
    value_order: str = "comparability_first"
    time_axis_boost: float = 4.0


class BranchAndBound:
    """One OPP decision: does the instance admit a feasible packing?"""

    def __init__(
        self,
        instance: PackingInstance,
        propagation: Optional[PropagationOptions] = None,
        branching: Optional[BranchingOptions] = None,
        node_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
        deadline: Optional[Any] = None,
        pre_states: Optional[List[Tuple[int, int, int, int]]] = None,
        pre_arcs: Optional[List[Tuple[int, int, int]]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        resume_from: Optional[SearchCheckpoint] = None,
        fault_plan: Optional[Any] = None,
        telemetry: Optional[Any] = None,
        kernel: str = "bitmask",
        subtree: Optional[List[Tuple[int, int, int, int]]] = None,
    ) -> None:
        """``pre_states`` / ``pre_arcs`` fix edge states / orientations before
        the search starts — the FixedS problems fix the entire time axis this
        way, reducing the search to the two spatial dimensions.

        External pre-assignments distinguish otherwise identical boxes, so
        symmetry breaking (which canonicalizes their time order) must be
        disabled whenever any are present.

        ``should_stop`` enables cooperative cancellation: it is polled on the
        same cadence as the time limit, and a ``True`` return abandons the
        search with status ``"unknown"`` (portfolio racing cancels losers
        this way once one worker settles the instance).

        ``resume_from`` replays the decision prefix of an interrupted run
        (see :class:`SearchCheckpoint`); ``fault_plan`` is a
        :class:`repro.parallel.faults.FaultPlan` whose injection points fire
        during the search (testing only).

        ``telemetry`` (a :class:`repro.telemetry.Telemetry`) receives the
        search counters and sampled per-node events; the default no-op
        instance keeps the hot loop free of telemetry cost.

        ``kernel`` selects the propagation engine: ``"bitmask"`` (default,
        :class:`repro.core.bitmask.BitmaskEdgeStateModel`; ``"vector"`` is
        an alias) or ``"reference"`` (the oracle).  Both explore the
        identical tree, so the choice is deliberately *not* part of the
        checkpoint fingerprint — checkpoints are portable across kernels.

        ``subtree`` scopes the search to one subtree of the full tree: the
        decision prefix (a :class:`SplitTask` ``prefix``, produced by
        :meth:`split`) is applied as ordinary search decisions — each must
        match the deterministic branching heuristic, or
        :class:`CheckpointMismatch` is raised — and the search then
        exhausts only what lies below, never trying prefix siblings.
        Unlike ``pre_states``, a subtree prefix keeps symmetry breaking
        on, so the explored subtree is exactly the serial search's
        subtree.  Prefix-replay conflicts and propagations are *excluded*
        from this run's stats (the splitter already counted them)."""
        self.instance = instance
        self.telemetry = telemetry if telemetry is not None else NO_TELEMETRY
        self.kernel = kernel = resolve_kernel(kernel)
        if pre_states or pre_arcs:
            from dataclasses import replace

            propagation = replace(
                propagation or PropagationOptions(), symmetry_breaking=False
            )
        self.model = make_model(instance, propagation, kernel)
        self.pre_states = list(pre_states or [])
        self.pre_arcs = list(pre_arcs or [])
        self.branching = branching or BranchingOptions()
        self.node_limit = node_limit
        self.time_limit = time_limit
        #: A :class:`repro.core.deadline.Deadline` shared across layers:
        #: polled on the same 64-node cadence as the time limit, but the
        #: search budgets against ``solver_budget()`` (remaining minus the
        #: margin) and records ``"deadline"`` as the limit reason, so
        #: callers can tell "my per-solve cap ran out" (retry with a bigger
        #: one) from "the request's end-to-end deadline is near" (degrade).
        self.deadline = deadline
        self.should_stop = should_stop
        self.fault_plan = fault_plan
        self.stats = SearchStats()
        self.faults: List[FaultRecord] = []
        self.checkpoint: Optional[SearchCheckpoint] = None
        self.resume_from = resume_from
        self._path: List[Tuple[int, int, int, int]] = []
        self._fingerprint = search_fingerprint(
            instance, self.branching, self.pre_states, self.pre_arcs
        )
        if (
            resume_from is not None
            and resume_from.fingerprint
            and resume_from.fingerprint != self._fingerprint
        ):
            self.faults.append(
                FaultRecord(
                    kind="checkpoint_mismatch",
                    detail="checkpoint belongs to a different instance or "
                    "branching configuration; restarting from scratch",
                )
            )
            self.stats.faults += 1
            self.resume_from = None
        self._deadline: Optional[float] = None
        self._limit_reason = "time limit"
        if self.branching.strategy not in ("guided", "static"):
            raise ValueError(f"unknown strategy {self.branching.strategy!r}")
        self._subtree = [tuple(d) for d in (subtree or [])]
        if self._subtree and self.resume_from is not None:
            raise ValueError(
                "subtree and resume_from are mutually exclusive; a "
                "reissued subtree restarts from its prefix"
            )
        self._branch_order = self._make_branch_order()
        # The picker decides ``_time_order`` first, then ``_spatial_order``.
        # The static strategy is the same loop over one list.
        if self.branching.strategy == "static":
            self._time_order = self._branch_order
            self._spatial_order: List[Tuple[int, int, int]] = []
        else:
            self._time_order = [
                (axis, u, v)
                for axis, u, v in self._branch_order
                if axis == instance.time_axis
            ]
            self._spatial_order = [
                (axis, u, v)
                for axis, u, v in self._branch_order
                if axis != instance.time_axis
            ]
        if self.branching.value_order == "comparability_first":
            self._values = (COMPARABILITY, COMPONENT)
        elif self.branching.value_order == "component_first":
            self._values = (COMPONENT, COMPARABILITY)
        else:
            raise ValueError(f"unknown value order {self.branching.value_order!r}")

    def _make_branch_order(self) -> List[Tuple[int, int, int]]:
        inst = self.instance
        triples = []
        for axis in range(inst.dimensions):
            boost = (
                self.branching.time_axis_boost if axis == inst.time_axis else 1.0
            )
            for u in range(inst.n):
                for v in range(u + 1, inst.n):
                    score = (
                        boost
                        * inst.boxes[u].widths[axis]
                        * inst.boxes[v].widths[axis]
                    )
                    triples.append((score, axis, u, v))
        triples.sort(key=lambda t: -t[0])
        return [(axis, u, v) for _, axis, u, v in triples]

    def solve(self) -> Tuple[str, Optional[Placement]]:
        """Returns ``("sat", placement)``, ``("unsat", None)`` or
        ``("unknown", None)`` when a limit was reached."""
        start = time.monotonic()
        self._limit_reason = "time limit"
        if self.time_limit is not None:
            self._deadline = start + self.time_limit
        if self.deadline is not None:
            budget_end = self.deadline.expires_at - self.deadline.margin
            if self._deadline is None or budget_end < self._deadline:
                self._deadline = budget_end
                self._limit_reason = "deadline"
        try:
            try:
                self.model.seed()
                for axis, u, v, value in self.pre_states:
                    self.model.assign_state(axis, u, v, value, propagate=False)
                for axis, a, b in self.pre_arcs:
                    self.model.assign_arc(axis, a, b, propagate=False)
                if self.pre_states or self.pre_arcs:
                    self.model.propagate()
            except Conflict:
                return self._finish("unsat", None, start)
            if self._subtree:
                self._enter_subtree()
            replay = None
            if self.resume_from is not None and self.resume_from.decisions:
                replay = [tuple(d) for d in self.resume_from.decisions]
                if self.telemetry.enabled:
                    self.telemetry.counter("checkpoint.resumes").add()
                    self.telemetry.event(
                        "checkpoint.resume",
                        depth=len(replay),
                        nodes=self.resume_from.nodes,
                    )
                if self.node_limit is not None:
                    # Replaying the prefix re-visits one node per recorded
                    # decision (plus the root).  That is not new work: grant
                    # it on top of the budget, or a checkpoint deeper than
                    # the node limit could never make progress and chained
                    # resumes would stall forever at the same frontier.
                    self.node_limit += len(replay) + 1
            placement = self._dfs(replay, ZERO_CURSOR)
            status = "sat" if placement is not None else "unsat"
            return self._finish(status, placement, start)
        except LimitReached as limit:
            self.stats.limit = str(limit)
            self.checkpoint = self._snapshot()
            return self._finish("unknown", None, start)
        except InjectedFault as fault:
            if fault.escalate:
                raise
            self.stats.limit = f"fault:{fault.reason}"
            self.stats.faults += 1
            self.faults.append(FaultRecord(kind="injected", detail=fault.reason))
            self.checkpoint = self._snapshot()
            return self._finish("unknown", None, start)

    def _enter_subtree(self) -> None:
        """Apply the subtree prefix as search decisions (stats-neutral).

        Every prefix decision must be the branch the deterministic
        heuristic would pick at that node with a legal value — anything
        else means the descriptor was produced against a different tree
        and is a :class:`CheckpointMismatch`, never a silent drift.  The
        prefix stays on ``self._path`` (checkpoints see the true
        root-relative path), and the model counters are re-based
        afterwards so prefix propagation — already counted by the splitter
        — is excluded from this run's share of the accounting.
        """
        cursor = ZERO_CURSOR
        for axis, u, v, value in self._subtree:
            choice, cursor = self._pick_branch(cursor)
            if choice != (axis, u, v):
                raise CheckpointMismatch(
                    f"subtree prefix expects branch {(axis, u, v)} but the "
                    f"branching heuristic chose {choice!r}; the descriptor "
                    "belongs to a different configuration",
                    fingerprint=self._fingerprint,
                )
            if value not in self._value_order(axis, u, v):
                raise CheckpointMismatch(
                    f"subtree prefix value {value} is not a legal branch "
                    "value",
                    fingerprint=self._fingerprint,
                )
            try:
                self.model.assign_state(axis, u, v, value)
            except Conflict as exc:
                raise CheckpointMismatch(
                    "subtree prefix is refuted by propagation; the splitter "
                    "that produced it searched a different tree",
                    fingerprint=self._fingerprint,
                ) from exc
            self._path.append((axis, u, v, value))
        stats = self.model.stats
        stats.conflicts = 0
        stats.forced_states = 0
        stats.forced_arcs = 0

    def split(self, target: int) -> SplitResult:
        """Expand the top of the tree into ``>= target`` frontier subtrees.

        The splitter simulates the serial DFS at the nodes it expands: the
        node is counted, every value the heuristic would try is propagated
        (conflicting children are counted as conflicts, exactly where the
        serial search would count them), and surviving children join the
        frontier.  Expansion is breadth-first until the frontier reaches
        ``target`` (or the tree runs out); frontier nodes themselves are
        *not* counted — the subtree searches count their own roots — so
        every node of the serial tree is counted exactly once across the
        split and its subtree searches.  Returns the frontier in serial
        DFS order (see :class:`SplitTask`).

        Leaves discovered at the frontier are left as (trivial) tasks, not
        verified here: the splitter never settles SAT itself, which keeps
        its share of the accounting independent of the split target.
        """
        from collections import deque

        if target < 1:
            raise ValueError(f"split target must be positive, got {target}")
        if self.resume_from is not None:
            raise ValueError("cannot split a resumed search")
        if self._subtree:
            raise ValueError("cannot split inside a subtree search")
        start = time.monotonic()
        try:
            self.model.seed()
            for axis, u, v, value in self.pre_states:
                self.model.assign_state(axis, u, v, value, propagate=False)
            for axis, a, b in self.pre_arcs:
                self.model.assign_arc(axis, a, b, propagate=False)
            if self.pre_states or self.pre_arcs:
                self.model.propagate()
        except Conflict:
            self._finish("unsat", None, start)
            return SplitResult(
                status="unsat", stats=self.stats, fingerprint=self._fingerprint
            )
        pending: Any = deque([((), ())])
        settled: List[Tuple[Tuple, Tuple]] = []
        while pending and len(pending) + len(settled) < target:
            prefix, key = pending.popleft()
            expansion = self._expand_node(prefix)
            if expansion is None:
                settled.append((prefix, key))
            else:
                for idx, decision in expansion:
                    pending.append((prefix + (decision,), key + (idx,)))
        frontier = sorted(settled + list(pending), key=lambda item: item[1])
        tasks = [
            SplitTask(prefix=[tuple(d) for d in prefix], order_key=tuple(key))
            for prefix, key in frontier
        ]
        status = "split" if tasks else "unsat"
        self._finish(status, None, start)
        return SplitResult(
            status=status,
            tasks=tasks,
            stats=self.stats,
            fingerprint=self._fingerprint,
        )

    def _expand_node(
        self, prefix: Tuple[Tuple[int, int, int, int], ...]
    ) -> Optional[List[Tuple[int, Tuple[int, int, int, int]]]]:
        """Expand one frontier node; ``None`` means it is a leaf.

        Counts the node and its children's conflicts exactly as the serial
        DFS entering it would; returns the surviving ``(value_index,
        decision)`` children in value order.
        """
        mark = self.model.mark()
        try:
            self._replay_decisions(prefix)
            choice, _ = self._pick_branch(ZERO_CURSOR)
            if choice is None:
                return None
            self.stats.nodes += 1
            self.model.stats.nodes_entered += 1
            axis, u, v = choice
            children: List[Tuple[int, Tuple[int, int, int, int]]] = []
            for idx, value in enumerate(self._value_order(axis, u, v)):
                child_mark = self.model.mark()
                try:
                    self.model.assign_state(axis, u, v, value)
                except Conflict:
                    self.model.rollback(child_mark)
                    continue
                self.model.rollback(child_mark)
                children.append((idx, (axis, u, v, value)))
            return children
        finally:
            self.model.rollback(mark)

    def _replay_decisions(
        self, prefix: Tuple[Tuple[int, int, int, int], ...]
    ) -> None:
        """Re-apply an already-counted prefix without recounting its stats."""
        stats = self.model.stats
        before = (stats.conflicts, stats.forced_states, stats.forced_arcs)
        try:
            for axis, u, v, value in prefix:
                self.model.assign_state(axis, u, v, value)
        finally:
            stats.conflicts, stats.forced_states, stats.forced_arcs = before

    def _snapshot(self) -> SearchCheckpoint:
        return SearchCheckpoint(
            decisions=[tuple(d) for d in self._path],
            nodes=self.stats.nodes,
            fingerprint=self._fingerprint,
        )

    def _finish(
        self, status: str, placement: Optional[Placement], start: float
    ) -> Tuple[str, Optional[Placement]]:
        self.stats.elapsed = time.monotonic() - start
        self.stats.merge_model(self.model)
        if self.telemetry.enabled:
            metrics = self.telemetry.metrics
            metrics.counter("search.nodes").add(self.stats.nodes)
            metrics.counter("search.conflicts").add(self.stats.conflicts)
            metrics.counter("search.leaves").add(self.stats.leaves)
            metrics.counter("search.leaf_failures").add(self.stats.leaf_failures)
            metrics.counter("search.propagated_states").add(
                self.stats.propagated_states
            )
            metrics.counter("search.propagated_arcs").add(
                self.stats.propagated_arcs
            )
            metrics.histogram("search.seconds").observe(self.stats.elapsed)
            if self.stats.elapsed > 0:
                metrics.gauge("search.nodes_per_sec").set(
                    self.stats.nodes / self.stats.elapsed
                )
            if status == "unsat":
                metrics.counter("prune.search").add()
        return status, placement

    def _dfs(
        self,
        replay: Optional[List[Tuple[int, int, int, int]]],
        cursor: Cursor,
    ) -> Optional[Placement]:
        self.stats.nodes += 1
        self.model.stats.nodes_entered += 1
        if self.node_limit is not None and self.stats.nodes > self.node_limit:
            raise LimitReached("node limit")
        if self.fault_plan is not None:
            self.fault_plan.fire_node(self.stats.nodes)
        if self.stats.nodes % 64 == 0:
            if (
                self._deadline is not None
                and time.monotonic() > self._deadline
            ):
                raise LimitReached(self._limit_reason)
            if self.should_stop is not None and self.should_stop():
                raise LimitReached("cancelled")
            # Sampled node events ride the existing poll cadence, so the
            # telemetry-off hot loop pays one truthiness check and nothing
            # else; the interval is a multiple of 64 by construction.
            if (
                self.telemetry.enabled
                and self.stats.nodes % NODE_SAMPLE_INTERVAL == 0
            ):
                self.telemetry.event(
                    "node.sample",
                    nodes=self.stats.nodes,
                    depth=len(self._path),
                    conflicts=self.stats.conflicts,
                    leaves=self.stats.leaves,
                )
        choice, cursor = self._pick_branch(cursor)
        if choice is None:
            return self._verify_leaf()
        axis, u, v = choice
        resume_value: Optional[int] = None
        descend: Optional[List[Tuple[int, int, int, int]]] = None
        if replay:
            head = replay[0]
            if (head[0], head[1], head[2]) == (axis, u, v):
                resume_value, descend = head[3], replay[1:]
            # Otherwise the checkpoint has drifted from this tree (e.g. a
            # propagation change); explore the subtree in full — sound,
            # merely slower.
        values = self._value_order(axis, u, v)
        if resume_value is not None and resume_value not in values:
            # Corrupt or foreign checkpoint; never skip siblings on its word.
            resume_value, descend = None, None
        skipping = resume_value is not None
        for value in values:
            child_replay: Optional[List[Tuple[int, int, int, int]]] = None
            if skipping:
                if value != resume_value:
                    # Siblings ordered before the checkpointed value were
                    # exhausted by the interrupted run.
                    continue
                skipping = False
                child_replay = descend
            mark = self.model.mark()
            try:
                if self.fault_plan is not None:
                    self.fault_plan.fire_propagation(self.stats.nodes)
                self.model.assign_state(axis, u, v, value)
            except Conflict:
                self.model.rollback(mark)
                continue
            # The path is only unwound on a normal return: when a limit or
            # fault aborts the recursion, the stack as-is IS the checkpoint.
            self._path.append((axis, u, v, value))
            placement = self._dfs(child_replay, cursor)
            self._path.pop()
            if placement is not None:
                return placement
            self.model.rollback(mark)
        return None

    def _value_order(self, axis: int, u: int, v: int) -> Tuple[int, int]:
        if self.branching.strategy == "static":
            return self._values
        if axis != self.instance.time_axis:
            time_state = self.model.state[self.instance.time_axis][u][v]
            if time_state == COMPARABILITY:
                # The pair never coexists; sharing coordinates is free and
                # keeps the per-axis chains short.
                return (COMPONENT, COMPARABILITY)
        return self._values

    def _pick_branch(
        self, cursor: Cursor
    ) -> Tuple[Optional[Tuple[int, int, int]], Cursor]:
        """The next ``(axis, u, v)`` to branch on (``None`` at a leaf) and
        the cursor to hand to this node's children.

        The rule is "first undecided entry in a fixed order".  Along one
        DFS path decided pairs stay decided, so that first entry only moves
        forward: the cursor records how far the parent's scan got, and the
        child resumes there instead of at index 0.  The picked triple — and
        with it the tree — is the full scan's.  ``cursor`` holds three
        indices, each with every entry before it decided:

        * ``time`` into ``_time_order``;
        * ``spatial`` into ``_spatial_order`` (the fallback);
        * ``overlap`` into ``_spatial_order``, which may also skip undecided
          entries whose time state is not COMPONENT.  It only advances once
          every time pair is decided, and time states cannot change below
          that node.
        """
        state = self.model.state
        t, s, c = cursor
        # Guided: all time-axis pairs first (they drive the implications and
        # determine which spatial relations matter at all)...  Static: the
        # whole branch order is ``_time_order``, and nothing follows.
        order = self._time_order
        end = len(order)
        while t < end:
            axis, u, v = triple = order[t]
            if state[axis][u][v] == UNDECIDED:
                return triple, (t, s, c)
            t += 1
        order = self._spatial_order
        end = len(order)
        while s < end:
            axis, u, v = order[s]
            if state[axis][u][v] == UNDECIDED:
                break
            s += 1
        else:
            return None, (t, s, c)
        # ... then spatial pairs of boxes that overlap in time (the
        # geometrically constrained ones) ...
        time_state = state[self.instance.time_axis]
        if c < s:
            c = s
        while c < end:
            axis, u, v = triple = order[c]
            if (
                state[axis][u][v] == UNDECIDED
                and time_state[u][v] == COMPONENT
            ):
                return triple, (t, s, c)
            c += 1
        # ... and the spatially irrelevant remainder last.
        return order[s], (t, s, c)

    def _verify_leaf(self) -> Optional[Placement]:
        self.stats.leaves += 1
        model = self.model
        dimensions = self.instance.dimensions
        if hasattr(model, "component_masks"):
            # Mask kernels expose their adjacency directly; verify the leaf
            # on the masks without materializing Graph objects.  Chordality
            # and orientation-extendability are graph properties, so the
            # pass/fail outcome (and hence every counter) is identical to
            # the Graph path the reference kernel takes below.
            n = self.instance.n
            for axis in range(dimensions):
                if not is_chordal_masks(model.component_masks(axis), n):
                    self.stats.leaf_failures += 1
                    return None
            forced = [model.oriented_arcs(axis) for axis in range(dimensions)]
            placement = extract_placement_masks(
                self.instance,
                [model.comparability_masks(axis) for axis in range(dimensions)],
                forced,
            )
        else:
            component_graphs = [
                model.component_graph(axis) for axis in range(dimensions)
            ]
            for g in component_graphs:
                if not is_chordal(g):
                    self.stats.leaf_failures += 1
                    return None
            forced = [
                model.oriented_arcs(axis) for axis in range(dimensions)
            ]
            placement = extract_placement(
                self.instance, component_graphs, forced
            )
        if placement is None:
            self.stats.leaf_failures += 1
            return None
        if not placement.is_feasible():
            # Can only happen when a propagation rule is disabled (e.g. the
            # C2 filter in an ablation run); the leaf is simply infeasible.
            self.stats.leaf_failures += 1
            return None
        return placement
