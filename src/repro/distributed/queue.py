"""The durable, leased subtree work queue of the distributed runtime.

Every subtree task moves through a small state machine::

    pending --claim--> leased --accepted claim--> done
       ^                  |
       |   lease expired / worker died / claim refuted
       +------------------+   (reissue: epoch += 1, exponential backoff,
       |                       bounded by the reissue budget)
       +--> abandoned  (budget exhausted — reported as explicit unknown)
       +--> cancelled  (beyond the SAT horizon; its work is not needed)

Leases are **time-bounded**: a worker must heartbeat within the lease
duration or the coordinator treats the subtree as orphaned and reissues
it.  Each lease carries an ``epoch``; a claim is accepted only when its
epoch matches the task's current lease, so a partitioned or stalled worker
that finishes *after* its lease was reissued produces a recorded
``stale-epoch`` rejection instead of a double count.  Exactly-once
accounting is therefore structural: a task has at most one accepted claim,
ever.

All durable state rides the PR-5 journal format (checksummed, fsync'd,
torn-tail tolerant — :mod:`repro.io.journal`) with a queue-specific record
vocabulary, so a SIGKILLed coordinator resumes from ``queue.jsonl`` with
no subtree lost, re-reported, or double-counted.  :func:`audit_queue_journal`
re-derives the exactly-once invariants offline from the journal alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..io.backoff import BackoffPolicy
from ..io.journal import JournalWriter, read_journal
from .subtree import SubtreeTask

#: File name of the work-queue journal inside a run directory.
QUEUE_JOURNAL_NAME = "queue.jsonl"

#: Record kinds of a queue journal (same envelope as the batch journal).
QUEUE_RECORD_KINDS = (
    "queue-start",
    "task-leased",
    "task-reissued",
    "claim-rejected",
    "task-completed",
    "task-cancelled",
    "task-abandoned",
    "queue-complete",
)

#: Kinds that end a task's life cycle.
QUEUE_TERMINAL_KINDS = ("task-completed", "task-cancelled", "task-abandoned")

PENDING = "pending"
LEASED = "leased"
DONE = "done"
CANCELLED = "cancelled"
ABANDONED = "abandoned"


@dataclass
class TaskEntry:
    """One task's live queue state (see the module state machine)."""

    task: SubtreeTask
    state: str = PENDING
    epoch: int = 0
    worker: Optional[str] = None
    lease_expires: float = 0.0
    available_at: float = 0.0
    reissues: int = 0
    claim: Optional[Dict[str, Any]] = None
    abandon_reason: str = ""

    @property
    def task_id(self) -> str:
        return self.task.task_id

    @property
    def order_index(self) -> int:
        return self.task.order_index

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, CANCELLED, ABANDONED)


class LeaseQueue:
    """In-memory lease bookkeeping over an optional durable journal.

    ``clock`` is injectable for deterministic tests; the journal (when
    given) receives every state transition *before* it takes effect in
    memory, mirroring the write-ahead discipline of the batch runtime.
    """

    def __init__(
        self,
        entries: List[TaskEntry],
        *,
        lease_duration: float = 5.0,
        reissue_budget: int = 3,
        backoff: BackoffPolicy = BackoffPolicy(),
        journal: Optional[JournalWriter] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_duration <= 0:
            raise ValueError(f"lease_duration must be positive: {lease_duration}")
        if reissue_budget < 0:
            raise ValueError(f"reissue_budget must be >= 0: {reissue_budget}")
        self.entries: Dict[str, TaskEntry] = {}
        for entry in entries:
            if entry.task_id in self.entries:
                raise ValueError(f"duplicate task id {entry.task_id!r}")
            self.entries[entry.task_id] = entry
        self.lease_duration = lease_duration
        self.reissue_budget = reissue_budget
        # The shared backoff vocabulary (repro.io.backoff).  The queue
        # journals the *deterministic* delay — replay must reconstruct the
        # exact schedule — so reissue gating uses ``delay``, never jitter.
        self.backoff = backoff
        self.journal = journal
        self.clock = clock
        # Observability counters (mirrored into telemetry by the solver).
        self.leases = 0
        self.reissues = 0
        self.stale_claims = 0
        self.rejected_claims = 0

    # -- queries -----------------------------------------------------------

    def ordered(self) -> List[TaskEntry]:
        return sorted(self.entries.values(), key=lambda e: e.order_index)

    def all_terminal(self) -> bool:
        return all(entry.terminal for entry in self.entries.values())

    def outstanding(self) -> int:
        return sum(1 for e in self.entries.values() if e.state == LEASED)

    def next_available_in(self) -> Optional[float]:
        """Seconds until the earliest backoff-gated pending task is
        claimable (``None`` when nothing is pending)."""
        now = self.clock()
        waits = [
            max(0.0, e.available_at - now)
            for e in self.entries.values()
            if e.state == PENDING
        ]
        return min(waits) if waits else None

    # -- journal helper ----------------------------------------------------

    def _journal(
        self, kind: str, task_id: Optional[str], data: Dict[str, Any]
    ) -> None:
        if self.journal is not None:
            self.journal.append(kind, task_id, data)

    # -- transitions -------------------------------------------------------

    def claim(self, worker: str) -> Optional[TaskEntry]:
        """Lease the first eligible pending task (serial DFS order)."""
        now = self.clock()
        for entry in self.ordered():
            if entry.state != PENDING or entry.available_at > now:
                continue
            self._journal(
                "task-leased",
                entry.task_id,
                {"epoch": entry.epoch, "worker": worker},
            )
            entry.state = LEASED
            entry.worker = worker
            entry.lease_expires = now + self.lease_duration
            self.leases += 1
            return entry
        return None

    def heartbeat(self, task_id: str, epoch: int) -> bool:
        """Extend a live lease; ``False`` means the lease is gone (the
        worker should expect its eventual claim to be rejected as stale)."""
        entry = self.entries.get(task_id)
        if entry is None or entry.state != LEASED or entry.epoch != epoch:
            return False
        entry.lease_expires = self.clock() + self.lease_duration
        return True

    def assign_worker(self, task_id: str, epoch: int, worker: str) -> None:
        """Bind a lease to the worker that actually picked it up."""
        entry = self.entries.get(task_id)
        if entry is not None and entry.state == LEASED and entry.epoch == epoch:
            entry.worker = worker
            entry.lease_expires = self.clock() + self.lease_duration

    def complete(
        self, task_id: str, epoch: int, claim: Dict[str, Any]
    ) -> str:
        """Accept a worker claim — or explain why not.

        Returns ``"accepted"`` (first valid claim for the current lease),
        ``"stale"`` (the lease was reissued or expired from under the
        claimant — recorded, never counted), or ``"finished"`` (the task
        already reached a terminal state).
        """
        entry = self.entries.get(task_id)
        if entry is None:
            return "stale"
        if entry.terminal:
            self.stale_claims += 1
            self._journal(
                "claim-rejected",
                task_id,
                {"epoch": epoch, "reason": "task already terminal"},
            )
            return "finished"
        if entry.state != LEASED or entry.epoch != epoch:
            self.stale_claims += 1
            self._journal(
                "claim-rejected",
                task_id,
                {
                    "epoch": epoch,
                    "reason": f"stale epoch (current {entry.epoch}, "
                    f"state {entry.state})",
                },
            )
            return "stale"
        self._journal(
            "task-completed",
            task_id,
            {"epoch": epoch, "claim": claim},
        )
        entry.state = DONE
        entry.claim = claim
        return "accepted"

    def reject(self, task_id: str, epoch: int, reason: str) -> None:
        """Refuse a claim (refuted certification, worker-reported error)
        and put the subtree back through the reissue path."""
        entry = self.entries.get(task_id)
        if entry is None or entry.terminal:
            return
        self.rejected_claims += 1
        self._journal(
            "claim-rejected",
            task_id,
            {"epoch": epoch, "reason": reason},
        )
        if entry.state == LEASED and entry.epoch == epoch:
            self._reissue(entry, f"claim rejected: {reason}")

    def orphan(self, task_id: str, epoch: int, reason: str) -> None:
        """Treat a lease as lost right now (dead worker, simulated kill)."""
        entry = self.entries.get(task_id)
        if (
            entry is not None
            and entry.state == LEASED
            and entry.epoch == epoch
        ):
            self._reissue(entry, reason)

    def release_worker(self, worker: str, reason: str) -> List[str]:
        """Orphan every lease held by a (dead) worker."""
        released = []
        for entry in self.ordered():
            if entry.state == LEASED and entry.worker == worker:
                self._reissue(entry, reason)
                released.append(entry.task_id)
        return released

    def expire(self) -> List[str]:
        """Reissue every lease whose heartbeat deadline has passed."""
        now = self.clock()
        expired = []
        for entry in self.ordered():
            if entry.state == LEASED and now > entry.lease_expires:
                self._reissue(entry, "lease expired without heartbeat")
                expired.append(entry.task_id)
        return expired

    def cancel_beyond(self, horizon: int) -> List[str]:
        """Cancel pending tasks ordered after the SAT horizon (leased ones
        finish cooperatively and report themselves cancelled)."""
        cancelled = []
        for entry in self.ordered():
            if entry.state == PENDING and entry.order_index > horizon:
                self.cancel(entry.task_id, entry.epoch, "beyond SAT horizon")
                cancelled.append(entry.task_id)
        return cancelled

    def cancel(self, task_id: str, epoch: int, reason: str) -> None:
        entry = self.entries.get(task_id)
        if entry is None or entry.terminal:
            return
        self._journal(
            "task-cancelled", task_id, {"epoch": epoch, "reason": reason}
        )
        entry.state = CANCELLED

    def abandon_remaining(self, reason: str) -> List[str]:
        """Force every non-terminal task to ``abandoned`` (shutdown path)."""
        abandoned = []
        for entry in self.ordered():
            if not entry.terminal:
                self._abandon(entry, reason)
                abandoned.append(entry.task_id)
        return abandoned

    def _reissue(self, entry: TaskEntry, reason: str) -> None:
        if entry.reissues >= self.reissue_budget:
            self._abandon(
                entry,
                f"reissue budget ({self.reissue_budget}) exhausted; "
                f"last failure: {reason}",
            )
            return
        entry.reissues += 1
        entry.epoch += 1
        backoff = self.backoff.delay(entry.reissues)
        self._journal(
            "task-reissued",
            entry.task_id,
            {
                "epoch": entry.epoch,
                "reason": reason,
                "backoff": backoff,
                "reissues": entry.reissues,
            },
        )
        entry.state = PENDING
        entry.worker = None
        entry.available_at = self.clock() + backoff
        self.reissues += 1

    def _abandon(self, entry: TaskEntry, reason: str) -> None:
        self._journal(
            "task-abandoned",
            entry.task_id,
            {"epoch": entry.epoch, "reason": reason},
        )
        entry.state = ABANDONED
        entry.abandon_reason = reason


# ---------------------------------------------------------------------------
# Journal resume + offline audit
# ---------------------------------------------------------------------------


def replay_queue_journal(path: str) -> Dict[str, Any]:
    """Rebuild queue state from a (possibly torn) queue journal.

    Returns ``{"start": <queue-start data>, "entries": [TaskEntry, ...],
    "complete": <queue-complete data or None>, "last_seq": int,
    "corrupt": [...]}``.  In-flight leases are dropped (their workers died
    with the coordinator) and their epochs bumped past anything journaled,
    so a zombie claim from a previous life can never be accepted.
    """
    result = read_journal(path, QUEUE_RECORD_KINDS)
    start: Optional[Dict[str, Any]] = None
    complete: Optional[Dict[str, Any]] = None
    entries: Dict[str, TaskEntry] = {}
    for record in result.records:
        kind, task_id, data = record["kind"], record["id"], record["data"]
        if kind == "queue-start":
            start = data
            for task_data in data.get("tasks", []):
                task = SubtreeTask.from_dict(task_data)
                entries[task.task_id] = TaskEntry(task=task)
            continue
        if kind == "queue-complete":
            complete = data
            continue
        entry = entries.get(task_id)
        if entry is None:
            continue
        epoch = data.get("epoch", 0)
        if kind == "task-leased":
            entry.state = LEASED
            entry.epoch = max(entry.epoch, epoch)
        elif kind == "task-reissued":
            entry.state = PENDING
            entry.epoch = max(entry.epoch, epoch)
            entry.reissues = data.get("reissues", entry.reissues + 1)
        elif kind == "task-completed":
            entry.state = DONE
            entry.claim = data.get("claim")
        elif kind == "task-cancelled":
            entry.state = CANCELLED
        elif kind == "task-abandoned":
            entry.state = ABANDONED
            entry.abandon_reason = data.get("reason", "")
    fenced: List[str] = []
    for entry in entries.values():
        if entry.state == LEASED:
            # The lease died with the coordinator; fence its epoch so a
            # zombie claim from the previous life can never be accepted.
            entry.state = PENDING
            entry.epoch += 1
            entry.worker = None
            entry.available_at = 0.0
            fenced.append(entry.task_id)
    return {
        "start": start,
        "entries": [entries[k] for k in sorted(entries)],
        "complete": complete,
        "last_seq": result.last_seq,
        "corrupt": result.corrupt,
        "fenced": fenced,
    }


@dataclass
class QueueAudit:
    """Exactly-once accounting, re-derived from the journal alone."""

    tasks: int = 0
    completed: int = 0
    cancelled: int = 0
    abandoned: int = 0
    leases: int = 0
    reissues: int = 0
    rejected_claims: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def audit_queue_journal(path: str) -> QueueAudit:
    """Assert the queue invariants offline, from the journal alone:

    * every task of ``queue-start`` reaches **exactly one** terminal record
      (completed / cancelled / abandoned) — no subtree lost, none counted
      twice;
    * every acceptance matches the epoch of the lease it answers;
    * epochs never regress.
    """
    audit = QueueAudit()
    result = read_journal(path, QUEUE_RECORD_KINDS)
    declared: List[str] = []
    current_epoch: Dict[str, int] = {}
    terminal: Dict[str, List[str]] = {}
    for record in result.records:
        kind, task_id, data = record["kind"], record["id"], record["data"]
        if kind == "queue-start":
            declared = [t["task_id"] for t in data.get("tasks", [])]
            audit.tasks = len(declared)
            current_epoch = {t: 0 for t in declared}
            terminal = {t: [] for t in declared}
            continue
        if kind == "queue-complete":
            continue
        if task_id not in current_epoch:
            audit.violations.append(
                f"{kind} for undeclared task {task_id!r}"
            )
            continue
        epoch = data.get("epoch", 0)
        if kind == "task-leased":
            audit.leases += 1
            if terminal[task_id]:
                audit.violations.append(
                    f"lease of {task_id} after terminal state"
                )
            if epoch != current_epoch[task_id]:
                audit.violations.append(
                    f"lease of {task_id} at epoch {epoch}, expected "
                    f"{current_epoch[task_id]}"
                )
        elif kind == "task-reissued":
            audit.reissues += 1
            if epoch <= current_epoch[task_id]:
                audit.violations.append(
                    f"reissue of {task_id} regressed epoch to {epoch}"
                )
            current_epoch[task_id] = epoch
        elif kind == "claim-rejected":
            audit.rejected_claims += 1
        elif kind in QUEUE_TERMINAL_KINDS:
            if terminal[task_id]:
                audit.violations.append(
                    f"{task_id} reached a second terminal state {kind} "
                    f"after {terminal[task_id][-1]}"
                )
            terminal[task_id].append(kind)
            if kind == "task-completed":
                audit.completed += 1
                if epoch != current_epoch[task_id]:
                    audit.violations.append(
                        f"completion of {task_id} at epoch {epoch} does "
                        f"not match lease epoch {current_epoch[task_id]}"
                    )
            elif kind == "task-cancelled":
                audit.cancelled += 1
            else:
                audit.abandoned += 1
    for task_id in declared:
        if not terminal.get(task_id):
            audit.violations.append(
                f"{task_id} never reached a terminal state"
            )
    return audit
