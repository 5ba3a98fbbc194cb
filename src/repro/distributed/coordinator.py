"""The fault-tolerant coordinator of the distributed tree search.

One branch-and-bound tree is sharded across processes in three moves:

1. **split** — the core frontier splitter (:meth:`BranchAndBound.split`)
   carves the tree into decision-prefix subtrees, ordered by serial DFS
   position;
2. **lease** — subtrees move through the durable work queue
   (:mod:`repro.distributed.queue`): time-bounded leases with heartbeats,
   epoch fencing, exponential-backoff reissue under a bounded budget, and
   a write-ahead journal that survives a coordinator SIGKILL
   (:meth:`DistributedSolver.resume`);
3. **merge** — accepted claims fold deterministically, in serial DFS
   order, via :meth:`SearchStats.carry`.

No worker is trusted: SAT claims pass through the standalone arithmetic
checker (:func:`repro.certify.certify_payload`), UNSAT claims through the
attestation gate (:func:`repro.certify.check_subtree_claim`, optionally a
reference-kernel re-search); a refuted claim is quarantined to
``incidents.jsonl`` and its subtree re-searched under a fresh lease epoch.

**Bound broadcast.**  The OPP is a decision problem, so the incumbent
bound of the distributed search is the *SAT horizon*: the serial DFS
order of the first certified SAT subtree.  It is broadcast to live
workers (a shared value polled on the solver's cancellation cadence), who
cooperatively abandon subtrees ordered after it.

**Determinism.**  With ``deterministic=True`` (default) the
merged :meth:`SearchStats.canonical_dict` is a pure function of the
instance and the split target — independent of worker count, kill
schedule, lease timing, or which worker ran what.  For UNSAT verdicts it
additionally equals the serial solver's canonical stats exactly (every
tree node is counted exactly once, on whichever side of the frontier it
fell); for SAT verdicts the merge folds exactly the subtrees a serial run
would have entered before its first SAT leaf (orders ``<= sat_order``),
so it is reproducible run to run but the splitter's share above the
frontier is part of it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional

from ..certify import certify_payload, check_subtree_claim, recheck_subtree
from ..core.boxes import PackingInstance, Placement
from ..core.bounds import prove_infeasible_named
from ..core.deadline import DEADLINE_LIMIT, Deadline
from ..core.edgestate import PropagationOptions
from ..core.opp import SAT, UNKNOWN, UNSAT, SolverOptions
from ..core.search import (
    BranchingOptions,
    CheckpointMismatch,
    FaultRecord,
    InjectedFault,
    SearchStats,
)
from ..io.backoff import BackoffPolicy
from ..io.journal import JournalWriter
from ..io.serialize import instance_from_dict, instance_to_dict
from ..parallel.faults import DistributedFaultPlan, KILL_EXIT_CODE
from ..telemetry import coerce as _coerce_telemetry
from .queue import (
    ABANDONED,
    CANCELLED,
    DONE,
    QUEUE_JOURNAL_NAME,
    QUEUE_RECORD_KINDS,
    LeaseQueue,
    TaskEntry,
    replay_queue_journal,
)
from .subtree import SubtreeTask, split_instance
from .worker import (
    HORIZON_ALL,
    HORIZON_NONE,
    MSG_CLAIM,
    MSG_ERROR,
    MSG_HEARTBEAT,
    MSG_STARTED,
    MSG_STOP,
    MSG_TASK,
    _worker_main,
    solve_subtree,
)

#: File name of the refuted-claim quarantine log inside a run directory.
INCIDENTS_NAME = "incidents.jsonl"

#: Default number of subtree tasks the splitter aims for.  Deliberately a
#: constant (not a function of the worker count): the split frontier is
#: part of the deterministic merge identity, so the same instance must
#: split the same way under ``--workers 1`` and ``--workers 8``.
DEFAULT_TARGET_TASKS = 32


class CoordinatorKilled(RuntimeError):
    """Raised by the ``coordinator_kill_after`` chaos trigger.

    Stands in for a SIGKILL of the coordinator itself: the journal is left
    exactly as a crash would leave it (no ``queue-complete`` record,
    leases outstanding) and the run must come back via
    :meth:`DistributedSolver.resume`.
    """

    def __init__(self, run_dir: str, accepted: int) -> None:
        super().__init__(
            f"coordinator killed by chaos plan after {accepted} accepted "
            f"claims (resume from {run_dir!r})"
        )
        self.run_dir = run_dir
        self.accepted = accepted


@dataclass
class DistributedOptions:
    """Configuration of the distributed runtime (solver knobs ride inside
    ``solver``, a plain :class:`repro.core.opp.SolverOptions`).

    ``backend`` is ``"process"`` (real worker processes, the default) or
    ``"inline"`` (a single-threaded simulation of the full protocol —
    leases, epochs, chaos, certification — used by the deterministic
    tests and as a no-dependency fallback).  ``deterministic`` makes the
    merge wait for every subtree ordered before the first SAT so the
    result is reproducible; switching it off returns the first certified
    SAT immediately.  ``backoff`` spaces the reissues of a subtree whose
    lease expired.
    """

    workers: int = 2
    backend: str = "process"
    target_tasks: int = DEFAULT_TARGET_TASKS
    lease_duration: float = 5.0
    heartbeat_interval: float = 0.5
    reissue_budget: int = 3
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    deterministic: bool = True
    certify_claims: bool = True
    recheck_unsat: bool = False
    recheck_nodes: int = 200_000
    run_dir: Optional[str] = None
    fsync: bool = True
    respawn_budget: int = 4
    #: A shared :class:`repro.core.deadline.Deadline` for the request this
    #: solve serves — the run's one wall clock.  On expiry the remaining
    #: subtrees are abandoned and the verdict is an explicit ``unknown``
    #: with limit ``"deadline"``; it also clips lease durations so no
    #: worker holds a lease past the time anyone still cares about the
    #: answer.
    deadline: Optional[Deadline] = None
    solver: SolverOptions = field(default_factory=SolverOptions)
    chaos: Optional[DistributedFaultPlan] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1: {self.workers}")
        if self.backend not in ("process", "inline"):
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                "expected 'process' or 'inline'"
            )
        if self.target_tasks < 1:
            raise ValueError(
                f"target_tasks must be >= 1: {self.target_tasks}"
            )
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_interval >= self.lease_duration:
            raise ValueError(
                "heartbeat_interval must be shorter than lease_duration "
                f"({self.heartbeat_interval} >= {self.lease_duration})"
            )
        if self.respawn_budget < 0:
            raise ValueError("respawn_budget must be >= 0")


@dataclass
class DistributedResult:
    """Outcome of one distributed OPP decision.

    ``stats`` is the deterministic prefix-ordered fold (splitter share
    first, then accepted claims in serial DFS order); ``canonical`` says
    whether that fold covers every subtree it claims to (it is ``False``
    when a subtree was abandoned or the run was non-deterministic), and
    ``wasted_nodes`` counts accepted work that fell outside the merge
    (subtrees beyond the SAT horizon that finished anyway).
    """

    status: str
    placement: Optional[Placement] = None
    stats: SearchStats = field(default_factory=SearchStats)
    stage: str = "search"
    tasks: int = 0
    completed: int = 0
    cancelled: int = 0
    abandoned: int = 0
    leases: int = 0
    reissues: int = 0
    stale_claims: int = 0
    refuted_claims: int = 0
    workers: int = 0
    workers_respawned: int = 0
    sat_order: Optional[int] = None
    wasted_nodes: int = 0
    canonical: bool = False
    resumed: bool = False
    run_dir: Optional[str] = None
    faults: List[FaultRecord] = field(default_factory=list)

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT

    @property
    def value(self) -> None:
        """Decision problem: no objective (common result protocol)."""
        return None

    @property
    def limit(self) -> Optional[str]:
        return self.stats.limit

    def canonical_stats(self) -> Dict[str, int]:
        return self.stats.canonical_dict()


def _solver_options_payload(options: SolverOptions) -> Dict[str, Any]:
    """The journaled search identity a resume must reconstruct."""
    return {
        "kernel": options.kernel,
        "node_limit": options.node_limit,
        "time_limit": options.time_limit,
        "propagation": asdict(options.propagation),
        "branching": asdict(options.branching),
    }


def _solver_options_from_payload(data: Dict[str, Any]) -> SolverOptions:
    return SolverOptions(
        kernel=data.get("kernel", "bitmask"),
        node_limit=data.get("node_limit"),
        time_limit=data.get("time_limit"),
        propagation=PropagationOptions(**data.get("propagation", {})),
        branching=BranchingOptions(**data.get("branching", {})),
    )


class _WorkerHandle:
    """Coordinator-side bookkeeping for one worker process."""

    def __init__(self, worker_id: str, process: Any, task_queue: Any) -> None:
        self.worker_id = worker_id
        self.process = process
        self.task_queue = task_queue
        self.busy: Optional[str] = None
        self.epoch = 0


class DistributedSolver:
    """Coordinator for one distributed OPP decision.

    ``solve()`` runs the full pipeline (bounds, heuristics, split, leased
    distribution, certified deterministic merge); ``resume(run_dir)``
    rebuilds a crashed coordinator from its queue journal — orphaned
    leases are fenced (epoch bumped past anything a zombie worker could
    still claim) and the run continues with nothing lost or re-counted.
    """

    def __init__(
        self,
        instance: PackingInstance,
        options: Optional[DistributedOptions] = None,
        *,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.instance = instance
        self.options = options or DistributedOptions()
        self.telemetry = _coerce_telemetry(telemetry)
        self.faults: List[FaultRecord] = []
        self._fingerprint = ""
        self._split_stats = SearchStats()
        self._queue: Optional[LeaseQueue] = None
        self._journal: Optional[JournalWriter] = None
        self._run_dir: Optional[str] = None
        self._horizon = HORIZON_NONE
        self._horizon_cell: Optional[Any] = None
        self._accepted = 0
        self._resumed = False
        self._already_complete = False
        self._workers_respawned = 0
        self._limit_reason: Optional[str] = None

    # -- entry points ------------------------------------------------------

    def solve(self) -> DistributedResult:
        start = time.monotonic()
        options = self.options
        solver_opts = options.solver

        if solver_opts.use_bounds:
            named = prove_infeasible_named(
                self.instance, disabled=solver_opts.disabled_bounds
            )
            if named is not None:
                _, certificate = named
                stats = SearchStats()
                stats.elapsed = time.monotonic() - start
                return DistributedResult(
                    status=UNSAT, stats=stats, stage="bounds"
                )
        if solver_opts.use_heuristics:
            from ..heuristics.greedy import heuristic_placement

            placement = heuristic_placement(self.instance)
            if placement is not None:
                stats = SearchStats()
                stats.elapsed = time.monotonic() - start
                return DistributedResult(
                    status=SAT,
                    placement=placement,
                    stats=stats,
                    stage="heuristic",
                )

        split, tasks = split_instance(
            self.instance,
            target=options.target_tasks,
            propagation=solver_opts.propagation,
            branching=solver_opts.branching,
            kernel=solver_opts.kernel,
        )
        self._fingerprint = split.fingerprint
        self._split_stats = split.stats
        if split.status == "unsat" or not tasks:
            stats = SearchStats()
            stats.carry(split.stats)
            stats.elapsed = time.monotonic() - start
            return DistributedResult(
                status=UNSAT, stats=stats, stage="search", canonical=True
            )

        self._open_run_dir(options.run_dir)
        if self._journal is not None:
            self._journal.append(
                "queue-start",
                self._fingerprint,
                {
                    "instance": instance_to_dict(self.instance),
                    "fingerprint": self._fingerprint,
                    "split_stats": asdict(split.stats),
                    "solver": _solver_options_payload(solver_opts),
                    "tasks": [task.to_dict() for task in tasks],
                },
            )
        self._queue = self._make_queue(
            [TaskEntry(task=task) for task in tasks]
        )
        return self._run(start)

    @classmethod
    def resume(
        cls,
        run_dir: str,
        options: Optional[DistributedOptions] = None,
        *,
        telemetry: Optional[Any] = None,
    ) -> DistributedResult:
        """Continue a crashed run from its durable queue journal."""
        path = os.path.join(run_dir, QUEUE_JOURNAL_NAME)
        replayed = replay_queue_journal(path)
        start_data = replayed["start"]
        if start_data is None:
            raise ValueError(
                f"{path} holds no queue-start record; nothing to resume"
            )
        instance = instance_from_dict(start_data["instance"])
        options = options or DistributedOptions()
        # The search identity always comes from the journal: resuming
        # under a different kernel or branching would split a different
        # tree and break every attestation digest.
        options = replace(
            options,
            run_dir=run_dir,
            solver=_solver_options_from_payload(
                start_data.get("solver", {})
            ),
        )
        self = cls(instance, options, telemetry=telemetry)
        self._resumed = True
        self._fingerprint = start_data.get("fingerprint", "")
        self._split_stats = SearchStats.from_dict(
            start_data.get("split_stats", {})
        )
        self._already_complete = replayed["complete"] is not None
        self._run_dir = run_dir
        self._journal = JournalWriter(
            path,
            start_seq=replayed["last_seq"] + 1,
            fsync=options.fsync,
            kinds=QUEUE_RECORD_KINDS,
        )
        entries: List[TaskEntry] = replayed["entries"]
        by_id = {entry.task_id: entry for entry in entries}
        for task_id in replayed["fenced"]:
            # Journal each fence so the epoch chain stays auditable; a
            # coordinator restart never consumes the reissue budget.
            entry = by_id[task_id]
            self._journal.append(
                "task-reissued",
                task_id,
                {
                    "epoch": entry.epoch,
                    "reason": "coordinator restart: orphaned lease fenced",
                    "backoff": 0.0,
                    "reissues": entry.reissues,
                },
            )
            self.faults.append(
                FaultRecord(
                    kind="lease_fenced",
                    detail=f"{task_id} was leased when the coordinator "
                    "died; epoch fenced on resume",
                )
            )
        self._queue = self._make_queue(entries)
        # Re-derive the SAT horizon from already-accepted claims so the
        # resumed run cancels exactly what the first life would have.
        for entry in self._queue.ordered():
            if (
                entry.state == DONE
                and entry.claim is not None
                and entry.claim.get("status") == SAT
            ):
                self._accepted += 1
                self._note_sat(entry.order_index)
            elif entry.state == DONE:
                self._accepted += 1
        return self._run(time.monotonic())

    # -- shared plumbing ---------------------------------------------------

    def _open_run_dir(self, run_dir: Optional[str]) -> None:
        if run_dir is None:
            # Ephemeral run: full protocol, no durability requested.
            self._run_dir = None
            self._journal = None
            return
        os.makedirs(run_dir, exist_ok=True)
        self._run_dir = run_dir
        self._journal = JournalWriter(
            os.path.join(run_dir, QUEUE_JOURNAL_NAME),
            fsync=self.options.fsync,
            kinds=QUEUE_RECORD_KINDS,
        )

    def _make_queue(self, entries: List[TaskEntry]) -> LeaseQueue:
        lease = self.options.lease_duration
        if self.options.deadline is not None:
            # No lease may outlive the request: a worker that dies holding
            # one would otherwise pin its subtree past the point anyone
            # still cares.  Floored so heartbeats stay shorter than leases.
            budget = self.options.deadline.solver_budget()
            lease = min(
                lease, max(budget, self.options.heartbeat_interval * 2)
            )
        return LeaseQueue(
            entries,
            lease_duration=lease,
            reissue_budget=self.options.reissue_budget,
            backoff=self.options.backoff,
            journal=self._journal,
        )

    def _incident(self, payload: Dict[str, Any]) -> None:
        if self._run_dir is None:
            return
        payload = dict(payload)
        payload["wall_time"] = time.time()
        path = os.path.join(self._run_dir, INCIDENTS_NAME)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")

    def _note_sat(self, order_index: int) -> None:
        if self.options.deterministic:
            self._horizon = min(self._horizon, order_index)
        else:
            self._horizon = HORIZON_ALL
        if self._horizon_cell is not None:
            self._horizon_cell.value = self._horizon
        assert self._queue is not None
        self._queue.cancel_beyond(self._horizon)

    def _maybe_kill_coordinator(self) -> None:
        chaos = self.options.chaos
        if (
            chaos is not None
            and chaos.coordinator_kill_after is not None
            and not self._resumed
            and self._accepted >= chaos.coordinator_kill_after
        ):
            raise CoordinatorKilled(self._run_dir or "", self._accepted)

    # -- certification gate ------------------------------------------------

    def _refute(
        self,
        task: SubtreeTask,
        epoch: int,
        claim: Dict[str, Any],
        reason: str,
        worker: Optional[str],
    ) -> None:
        assert self._queue is not None
        self._incident(
            {
                "task_id": task.task_id,
                "epoch": epoch,
                "worker": worker,
                "claim_status": claim.get("status"),
                "reason": reason,
            }
        )
        self.faults.append(
            FaultRecord(
                kind="claim_refuted",
                detail=f"{task.task_id}: {reason}",
                entrant=worker,
            )
        )
        self._queue.reject(task.task_id, epoch, reason)

    def _handle_claim(
        self,
        task: SubtreeTask,
        epoch: int,
        claim: Dict[str, Any],
        worker: Optional[str] = None,
    ) -> str:
        """Gate, then settle, one worker claim.  Returns the disposition
        (``accepted`` / ``refuted`` / ``stale`` / ``cancelled`` /
        ``retried`` / ``finished``)."""
        assert self._queue is not None
        options = self.options
        status = claim.get("status")
        if status == SAT:
            if options.certify_claims:
                positions = claim.get("positions")
                closure = self.instance.closed_precedence()
                payload = {
                    "boxes": [
                        list(b.widths) for b in self.instance.boxes
                    ],
                    "container": list(self.instance.container.sizes),
                    "time_axis": self.instance.time_axis
                    % self.instance.dimensions,
                    "precedence": (
                        sorted([u, v] for u, v in closure.arcs())
                        if closure is not None
                        else []
                    ),
                    "status": SAT,
                    "positions": positions,
                }
                verdict = certify_payload(payload, recheck=False)
                if verdict.verdict != "certified":
                    self._refute(
                        task,
                        epoch,
                        claim,
                        f"SAT claim failed certification: {verdict.reason}",
                        worker,
                    )
                    return "refuted"
        elif status == UNSAT:
            if options.certify_claims:
                violations = check_subtree_claim(
                    claim,
                    digest=task.digest,
                    fingerprint=self._fingerprint,
                )
                if violations:
                    self._refute(
                        task,
                        epoch,
                        claim,
                        "UNSAT attestation rejected: "
                        + "; ".join(violations),
                        worker,
                    )
                    return "refuted"
                if options.recheck_unsat:
                    verdict = recheck_subtree(
                        self.instance,
                        task.prefix,
                        propagation=options.solver.propagation,
                        branching=options.solver.branching,
                        budget_nodes=options.recheck_nodes,
                    )
                    if verdict.verdict == "refuted":
                        self._refute(
                            task, epoch, claim, verdict.reason, worker
                        )
                        return "refuted"
        else:
            limit = claim.get("limit")
            if limit == "cancelled" or task.order_index > self._horizon:
                self._queue.cancel(
                    task.task_id,
                    epoch,
                    "cooperatively cancelled beyond the SAT horizon",
                )
                return "cancelled"
            self._queue.reject(
                task.task_id, epoch, f"worker gave up: {limit}"
            )
            return "retried"

        disposition = self._queue.complete(task.task_id, epoch, claim)
        if disposition != "accepted":
            return disposition
        self._accepted += 1
        if status == SAT:
            self._note_sat(task.order_index)
        self._maybe_kill_coordinator()
        return "accepted"

    # -- backends ----------------------------------------------------------

    def _run(self, start: float) -> DistributedResult:
        assert self._queue is not None
        if self._already_complete or self._queue.all_terminal():
            pass
        elif self.options.backend == "inline":
            self._run_inline()
        else:
            self._run_process()
        return self._finalize(start)

    def _deadline_expired(self) -> bool:
        deadline = self.options.deadline
        return deadline is not None and deadline.solver_budget() <= 0

    def _run_inline(self) -> None:
        """Single-threaded backend: the whole lease/epoch/chaos protocol
        with the worker loop run synchronously inside the coordinator."""
        assert self._queue is not None
        queue = self._queue
        options = self.options
        chaos = options.chaos if options.chaos is not None else None
        worker_id = "inline-0"
        while not queue.all_terminal():
            if self._deadline_expired():
                self._limit_reason = DEADLINE_LIMIT
                queue.abandon_remaining(DEADLINE_LIMIT)
                break
            queue.expire()
            entry = queue.claim(worker_id)
            if entry is None:
                wait = queue.next_available_in()
                if wait is None:
                    break
                time.sleep(min(max(wait, 0.0) + 0.001, 0.05))
                continue
            task, epoch = entry.task, entry.epoch
            order_index = task.order_index
            fault_plan = options.solver.fault_plan
            if chaos is not None:
                injected = chaos.search_plan(order_index, epoch)
                if injected is not None:
                    fault_plan = injected

            def should_stop() -> bool:
                return (
                    self._horizon != HORIZON_NONE
                    and order_index > self._horizon
                )

            try:
                claim = solve_subtree(
                    self.instance,
                    task.prefix,
                    options.solver,
                    should_stop=should_stop,
                    fault_plan=fault_plan,
                )
            except InjectedFault as fault:
                self.faults.append(
                    FaultRecord(
                        kind="worker_killed",
                        detail=f"{task.task_id}: {fault.reason}",
                        entrant=worker_id,
                    )
                )
                queue.orphan(
                    task.task_id, epoch, f"worker killed ({fault.reason})"
                )
                continue
            except CheckpointMismatch as exc:
                queue.reject(task.task_id, epoch, f"prefix replay: {exc}")
                continue
            if chaos is not None:
                claim = chaos.corrupt_claim(claim, order_index, epoch)
                if chaos.fires(
                    "drop_heartbeats_at_task", order_index, epoch
                ):
                    # Partition stand-in: the lease is lost before the
                    # (now stale) claim arrives.
                    queue.orphan(
                        task.task_id, epoch, "heartbeats lost (partition)"
                    )
            queue.expire()  # a stalled solve may have outlived its lease
            self._handle_claim(task, epoch, claim, worker_id)

    def _run_process(self) -> None:
        """Real worker processes over multiprocessing queues."""
        assert self._queue is not None
        import multiprocessing
        from queue import Empty

        queue = self._queue
        options = self.options
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._horizon_cell = ctx.Value("q", self._horizon)
        result_queue: Any = ctx.Queue()
        instance_payload = instance_to_dict(self.instance)
        chaos_payload = (
            options.chaos.to_dict()
            if options.chaos is not None and not self._resumed
            else None
        )
        worker_serial = 0
        tasks_by_id = {
            entry.task_id: entry.task for entry in queue.ordered()
        }

        def spawn() -> _WorkerHandle:
            nonlocal worker_serial
            worker_id = f"w{worker_serial}"
            worker_serial += 1
            task_queue: Any = ctx.Queue()
            process = ctx.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    instance_payload,
                    options.solver,
                    task_queue,
                    result_queue,
                    self._horizon_cell,
                    options.heartbeat_interval,
                    chaos_payload,
                ),
                daemon=True,
            )
            process.start()
            return _WorkerHandle(worker_id, process, task_queue)

        handles: Dict[str, _WorkerHandle] = {}
        for _ in range(options.workers):
            handle = spawn()
            handles[handle.worker_id] = handle

        def dispatch() -> None:
            for handle in handles.values():
                if handle.busy is not None or not handle.process.is_alive():
                    continue
                entry = queue.claim(handle.worker_id)
                if entry is None:
                    return
                handle.busy = entry.task_id
                handle.epoch = entry.epoch
                handle.task_queue.put(
                    (
                        MSG_TASK,
                        entry.task_id,
                        [list(d) for d in entry.task.prefix],
                        entry.task.order_index,
                        entry.epoch,
                    )
                )

        def release_idle(worker_id: str, task_id: str) -> None:
            handle = handles.get(worker_id)
            if handle is not None and handle.busy == task_id:
                handle.busy = None

        try:
            while not queue.all_terminal():
                if self._deadline_expired():
                    self._limit_reason = DEADLINE_LIMIT
                    queue.abandon_remaining(DEADLINE_LIMIT)
                    break
                queue.expire()
                # Reap dead workers: release their leases, respawn under
                # the respawn budget so capacity survives a kill schedule.
                for worker_id in list(handles):
                    handle = handles[worker_id]
                    if handle.process.is_alive():
                        continue
                    code = handle.process.exitcode
                    released = queue.release_worker(
                        worker_id, f"worker process died (exit {code})"
                    )
                    if released or handle.busy is not None:
                        self.faults.append(
                            FaultRecord(
                                kind="worker_killed"
                                if code == KILL_EXIT_CODE
                                else "worker_died",
                                detail=f"exit {code}; leases "
                                f"{released or [handle.busy]} released",
                                entrant=worker_id,
                            )
                        )
                    del handles[worker_id]
                    if self._workers_respawned < options.respawn_budget:
                        self._workers_respawned += 1
                        replacement = spawn()
                        handles[replacement.worker_id] = replacement
                if not handles and not queue.all_terminal():
                    self._limit_reason = "no workers left"
                    queue.abandon_remaining(
                        "no workers left (respawn budget exhausted)"
                    )
                    break
                dispatch()
                try:
                    message = result_queue.get(timeout=0.05)
                except Empty:
                    continue
                tag = message[0]
                if tag == MSG_STARTED:
                    _, worker_id, task_id, epoch = message
                    queue.assign_worker(task_id, epoch, worker_id)
                elif tag == MSG_HEARTBEAT:
                    _, worker_id, task_id, epoch = message
                    queue.heartbeat(task_id, epoch)
                elif tag == MSG_ERROR:
                    _, worker_id, task_id, epoch, detail = message
                    release_idle(worker_id, task_id)
                    self.faults.append(
                        FaultRecord(
                            kind="worker_error",
                            detail=f"{task_id}: {detail}",
                            entrant=worker_id,
                        )
                    )
                    queue.reject(
                        task_id, epoch, f"worker error: {detail}"
                    )
                elif tag == MSG_CLAIM:
                    _, worker_id, task_id, epoch, claim = message
                    release_idle(worker_id, task_id)
                    task = tasks_by_id[task_id]
                    self._handle_claim(task, epoch, claim, worker_id)
        finally:
            for handle in handles.values():
                try:
                    handle.task_queue.put((MSG_STOP,))
                except Exception:
                    pass
            result_queue.cancel_join_thread()
            for handle in handles.values():
                handle.process.join(timeout=1.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)

    # -- merge -------------------------------------------------------------

    def _finalize(self, start: float) -> DistributedResult:
        assert self._queue is not None
        queue = self._queue
        options = self.options
        entries = queue.ordered()

        sat_order: Optional[int] = None
        for entry in entries:
            if (
                entry.state == DONE
                and entry.claim is not None
                and entry.claim.get("status") == SAT
            ):
                sat_order = entry.order_index
                break

        merged = SearchStats()
        merged.carry(self._split_stats)
        wasted = 0
        completed = cancelled = abandoned = 0
        placement: Optional[Placement] = None
        abandon_reason = ""
        for entry in entries:
            if entry.state == DONE:
                completed += 1
                claim_stats = SearchStats.from_dict(entry.claim["stats"])
                if sat_order is None or entry.order_index <= sat_order:
                    merged.carry(claim_stats)
                else:
                    wasted += claim_stats.nodes
                if (
                    entry.order_index == sat_order
                    and entry.claim.get("positions") is not None
                ):
                    placement = Placement(
                        self.instance,
                        [tuple(p) for p in entry.claim["positions"]],
                    )
            elif entry.state == CANCELLED:
                cancelled += 1
            elif entry.state == ABANDONED:
                abandoned += 1
                abandon_reason = abandon_reason or entry.abandon_reason

        if sat_order is not None:
            status = SAT
        elif abandoned:
            status = UNKNOWN
            merged.limit = self._limit_reason or (
                f"subtrees abandoned: {abandon_reason}"
            )
        else:
            status = UNSAT
        merged.elapsed = time.monotonic() - start
        merged.faults = len(self.faults)

        canonical = (
            options.deterministic
            and (
                (status == UNSAT and completed == len(entries))
                or (
                    status == SAT
                    and all(
                        entry.state == DONE
                        for entry in entries
                        if entry.order_index <= sat_order
                    )
                )
            )
        )

        if self._journal is not None:
            if not self._already_complete:
                self._journal.append(
                    "queue-complete",
                    self._fingerprint,
                    {
                        "status": status,
                        "sat_order": sat_order,
                        "canonical": merged.canonical_dict(),
                    },
                )
            self._journal.close()

        if self.telemetry.enabled:
            counters = {
                "distributed.tasks": len(entries),
                "distributed.completed": completed,
                "distributed.cancelled": cancelled,
                "distributed.abandoned": abandoned,
                "distributed.leases": queue.leases,
                "distributed.reissues": queue.reissues,
                "distributed.stale_claims": queue.stale_claims,
                "distributed.refuted_claims": queue.rejected_claims,
                "distributed.wasted_nodes": wasted,
                "distributed.workers_respawned": self._workers_respawned,
            }
            for name, value in counters.items():
                if value:
                    self.telemetry.counter(name).add(value)
            self.telemetry.event(
                "distributed.merge",
                status=status,
                sat_order=sat_order,
                kernel=self.options.solver.kernel,
            )

        return DistributedResult(
            status=status,
            placement=placement,
            stats=merged,
            stage="search",
            tasks=len(entries),
            completed=completed,
            cancelled=cancelled,
            abandoned=abandoned,
            leases=queue.leases,
            reissues=queue.reissues,
            stale_claims=queue.stale_claims,
            refuted_claims=queue.rejected_claims,
            workers=options.workers if options.backend == "process" else 1,
            workers_respawned=self._workers_respawned,
            sat_order=sat_order,
            wasted_nodes=wasted,
            canonical=canonical,
            resumed=self._resumed,
            run_dir=self._run_dir,
            faults=self.faults,
        )


def solve_distributed(
    instance: PackingInstance,
    options: Optional[DistributedOptions] = None,
    *,
    telemetry: Optional[Any] = None,
) -> DistributedResult:
    """Decide one OPP instance across workers (see :class:`DistributedSolver`)."""
    return DistributedSolver(instance, options, telemetry=telemetry).solve()


def resume_distributed(
    run_dir: str,
    options: Optional[DistributedOptions] = None,
    *,
    telemetry: Optional[Any] = None,
) -> DistributedResult:
    """Resume a crashed distributed run from its journal."""
    return DistributedSolver.resume(run_dir, options, telemetry=telemetry)


__all__ = [
    "DEFAULT_TARGET_TASKS",
    "INCIDENTS_NAME",
    "CoordinatorKilled",
    "DistributedOptions",
    "DistributedResult",
    "DistributedSolver",
    "resume_distributed",
    "solve_distributed",
]
