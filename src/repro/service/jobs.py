"""Durable job state for the solve service.

Every job the daemon accepts is journaled with the same write-ahead
machinery the batch runtime uses (:mod:`repro.io.journal`), with a
service-specific record vocabulary:

``service-start``
    a daemon (re)started over this state directory;
``submitted``
    a job was admitted, with its **full wire request** — a resumed daemon
    needs no client to re-run it;
``running``
    the job was dispatched onto the executor;
``done`` / ``failed``
    the job reached a terminal state, with its **full wire response** — a
    resumed daemon re-reports it verbatim, byte for byte, without
    re-solving;
``interrupted``
    a graceful shutdown left jobs unfinished (they resume on restart).

The journal is fsync'd per record, so a SIGKILL at any byte boundary loses
at most one in-flight transition: terminal results are never lost and never
recomputed, and in-flight jobs are re-enqueued from their journaled
requests (batch jobs additionally continue from their *own* batch journal's
checkpoints — see :mod:`repro.service.app`).

Jobs also fan out **live progress events** to any number of SSE
subscribers: each subscriber owns an :class:`asyncio.Queue` that
:meth:`JobStore.publish` feeds from whatever thread the work runs on.

A job that reaches a terminal state is **frozen**: the store keeps only its
canonical status payload (the exact bytes ``/v1/status/<job>`` serves) and
its encoded event list, and drops the request, response and event dicts —
a long-running daemon retains every job it has seen.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..io.journal import JournalWriter, read_journal
from .protocol import dumps_canonical

#: File name of the service journal inside the state directory.
SERVICE_JOURNAL = "service.jsonl"

#: Record kinds of the service journal (see module docstring).
JOB_RECORD_KINDS = (
    "service-start",
    "submitted",
    "running",
    "done",
    "failed",
    "interrupted",
)

#: Kinds that end a job's life cycle.
JOB_TERMINAL_KINDS = ("done", "failed")

_JOB_ID_RE = re.compile(r"^job-(\d+)$")

#: Sentinel queued to every subscriber when a job's stream ends.
STREAM_END = None


@dataclass
class Job:
    """One unit of service work and its full lifecycle state."""

    job_id: str
    kind: str  # "solve" | "batch" | "certify"
    tenant: str
    request: Optional[Dict[str, Any]]  # the wire request, verbatim
    state: str = "queued"  # queued | running | done | failed
    response: Optional[Dict[str, Any]] = None  # the terminal wire payload
    error: Optional[str] = None
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    elapsed: float = 0.0
    replayed: bool = False  # reconstructed from the journal on resume
    events: List[Dict[str, Any]] = field(default_factory=list)
    subscribers: List[Tuple[asyncio.Queue, Any]] = field(default_factory=list)
    #: Set by :meth:`freeze`: the encoded status body and event list.
    frozen_status: Optional[str] = None
    frozen_events: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")

    def freeze(self) -> None:
        """Keep a terminal job in encoded form only."""
        self.frozen_status = dumps_canonical(self.snapshot())
        self.frozen_events = dumps_canonical(self.events)
        self.request = self.response = None
        self.events = []

    def status_payload(self) -> str:
        """The ``/v1/status/<job>`` body, canonically encoded."""
        if self.frozen_status is not None:
            return self.frozen_status
        return dumps_canonical(self.snapshot())

    def past_events(self) -> List[Dict[str, Any]]:
        """Every event published so far, in order (decoded when frozen)."""
        if self.frozen_events is not None:
            return json.loads(self.frozen_events)
        return list(self.events)

    def snapshot(self) -> Dict[str, Any]:
        """The ``/v1/status/<job>`` body of a job not yet frozen.  For
        terminal jobs this is exactly the dict that was journaled, so a
        resumed daemon re-reports it verbatim."""
        body: Dict[str, Any] = {
            "job": self.job_id,
            "kind": self.kind,
            "tenant": self.tenant,
            "state": self.state,
            "elapsed": self.elapsed,
            "replayed": self.replayed,
        }
        if self.response is not None:
            body["response"] = self.response
        if self.error is not None:
            body["error"] = self.error
        return body

    def terminal_record(self) -> Dict[str, Any]:
        """What the terminal journal record carries (identity of the job's
        outcome across kill/resume)."""
        return {
            "kind": self.kind,
            "tenant": self.tenant,
            "state": self.state,
            "elapsed": self.elapsed,
            "response": self.response,
            "error": self.error,
        }


class JobStore:
    """Journal-backed registry of every job this daemon has seen."""

    def __init__(
        self,
        state_dir: str,
        *,
        fsync: bool = True,
        resume: bool = False,
    ) -> None:
        os.makedirs(state_dir, exist_ok=True)
        self.state_dir = state_dir
        self.journal_path = os.path.join(state_dir, SERVICE_JOURNAL)
        self.jobs: Dict[str, Job] = {}
        #: Jobs journaled ``submitted``/``running`` but not terminal —
        #: a resumed daemon re-executes these from their journaled requests.
        self.pending: List[Job] = []
        self.corruption: List[Any] = []
        replay = read_journal(self.journal_path, kinds=JOB_RECORD_KINDS)
        if replay.records and not resume:
            raise ValueError(
                f"{self.journal_path} already holds service state; pass "
                "resume=True (CLI: --resume) to continue it"
            )
        next_seq = 0
        if resume:
            next_seq = replay.last_seq
            self.corruption = list(replay.corrupt)
            self._replay(replay.records)
        self._writer = JournalWriter(
            self.journal_path,
            start_seq=next_seq,
            fsync=fsync,
            kinds=JOB_RECORD_KINDS,
        )
        self._counter = self._max_job_number()
        self._writer.append(
            "service-start",
            data={"resumed": bool(resume), "pending": len(self.pending)},
        )

    def _max_job_number(self) -> int:
        highest = 0
        for job_id in self.jobs:
            match = _JOB_ID_RE.match(job_id)
            if match:
                highest = max(highest, int(match.group(1)))
        return highest

    def _replay(self, records: List[Dict[str, Any]]) -> None:
        for record in records:
            job_id = record["id"]
            if job_id is None:
                continue
            data = record["data"]
            if record["kind"] == "submitted":
                request = dict(data.get("request", {}))
                # Journals written while the wire had a ``learning``
                # switch store it in every request.  Learning never
                # changed an answer and the search no longer has it, so
                # the resumed job runs without the retired field.
                request.pop("learning", None)
                self.jobs[job_id] = Job(
                    job_id=job_id,
                    kind=data.get("kind", "solve"),
                    tenant=data.get("tenant", "public"),
                    request=request,
                    replayed=True,
                )
            elif record["kind"] == "running" and job_id in self.jobs:
                self.jobs[job_id].state = "running"
            elif record["kind"] in JOB_TERMINAL_KINDS and job_id in self.jobs:
                job = self.jobs[job_id]
                job.state = record["kind"]
                job.response = data.get("response")
                job.error = data.get("error")
                job.elapsed = data.get("elapsed", 0.0)
        for job in self.jobs.values():
            if job.terminal:
                job.freeze()
            else:
                job.state = "queued"
                self.pending.append(job)

    # -- lifecycle ---------------------------------------------------------

    def submit(self, kind: str, tenant: str, request: Dict[str, Any]) -> Job:
        self._counter += 1
        job = Job(
            job_id=f"job-{self._counter:06d}",
            kind=kind,
            tenant=tenant,
            request=request,
        )
        self.jobs[job.job_id] = job
        self._writer.append(
            "submitted",
            job.job_id,
            {"kind": kind, "tenant": tenant, "request": request},
        )
        return job

    def mark_running(self, job: Job) -> None:
        job.state = "running"
        job.started = time.time()
        self._writer.append("running", job.job_id, {})

    def finish(self, job: Job, response: Dict[str, Any]) -> None:
        job.state = "done"
        job.response = response
        self._seal(job)
        self._writer.append("done", job.job_id, job.terminal_record())
        self.publish(job, {"event": "done", "job": job.job_id})
        self.end_stream(job)
        job.freeze()

    def fail(self, job: Job, error: str) -> None:
        job.state = "failed"
        job.error = error
        self._seal(job)
        self._writer.append("failed", job.job_id, job.terminal_record())
        self.publish(job, {"event": "failed", "job": job.job_id, "error": error})
        self.end_stream(job)
        job.freeze()

    def _seal(self, job: Job) -> None:
        job.finished = time.time()
        if job.started is not None:
            job.elapsed = job.finished - job.started

    def interrupted(self, unfinished: int) -> None:
        self._writer.append("interrupted", data={"unfinished": unfinished})

    def close(self) -> None:
        self._writer.close()

    # -- progress streaming ------------------------------------------------

    def subscribe(self, job: Job) -> asyncio.Queue:
        """A queue of this job's events: every past event immediately, live
        ones as they happen, then :data:`STREAM_END`."""
        queue: asyncio.Queue = asyncio.Queue()
        for event in job.past_events():
            queue.put_nowait(event)
        if job.terminal:
            queue.put_nowait(STREAM_END)
        else:
            job.subscribers.append((queue, asyncio.get_running_loop()))
        return queue

    def unsubscribe(self, job: Job, queue: asyncio.Queue) -> None:
        job.subscribers = [
            (q, loop) for q, loop in job.subscribers if q is not queue
        ]

    def publish(self, job: Job, event: Dict[str, Any]) -> None:
        """Record an event and fan it out; safe from any thread."""
        stamped = dict(event)
        stamped.setdefault("t", time.time())
        job.events.append(stamped)
        for queue, loop in list(job.subscribers):
            loop.call_soon_threadsafe(queue.put_nowait, stamped)

    def end_stream(self, job: Job) -> None:
        for queue, loop in list(job.subscribers):
            loop.call_soon_threadsafe(queue.put_nowait, STREAM_END)
        job.subscribers = []

    # -- observability -----------------------------------------------------

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {
            "queued": 0, "running": 0, "done": 0, "failed": 0,
        }
        for job in self.jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts
