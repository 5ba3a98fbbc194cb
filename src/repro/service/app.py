"""The solver-as-a-service daemon: ``repro serve``.

A stdlib-only asyncio HTTP+JSON front-end over the existing runtime stack
(:func:`repro.core.opp.solve_opp`, :class:`repro.runtime.BatchRunner`,
:func:`repro.certify.certify_payload`).  Endpoints:

``POST /v1/solve``
    decide one packing instance.  ``wait: true`` (default) blocks until
    the answer; ``wait: false`` returns ``202`` with a job id.
``POST /v1/batch``
    run a manifest of instances under the crash-safe batch runtime;
    returns a job id (``wait: true`` blocks).
``POST /v1/certify``
    independently re-audit one certificate payload.
``GET /v1/status``
    service health: job counts, admission + per-tenant budget state,
    shared-cache counters, service metrics.
``GET /v1/status/<job>``
    one job's state; terminal jobs return their journaled response
    verbatim (byte-stable across daemon restarts).
``GET /v1/stream/<job>``
    Server-Sent Events: the job's progress — telemetry events from the
    live search (``node.sample``, ``prune``, ``cache.hit``), per-instance
    batch journal transitions, span summaries — then ``end``.
``POST /v1/shutdown``
    graceful stop (the SIGTERM path, reachable for smoke clients).

Three properties carry the "millions of users" story:

* **Admission control + tenant budgets** — a bounded queue and per-tenant
  wall-clock/node budgets turn overload into structured 429s instead of
  collapse (:mod:`repro.service.admission`).
* **Cross-tenant memoization** — all requests share one
  isomorphism-invariant :class:`~repro.parallel.cache.ResultCache`, so
  identical-up-to-isomorphism instances from different tenants cost one
  solve; a hit is served from the memo and re-validated geometrically.
* **Durability** — every job transition is write-ahead journaled
  (:mod:`repro.service.jobs`).  A killed daemon restarted with
  ``--resume`` re-reports terminal results verbatim and finishes
  in-flight work (batch jobs continue from their own batch-journal
  checkpoints), with no lost or duplicated results.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..certify import certify_payload
from ..core.deadline import DEADLINE_LIMIT, DEFAULT_MARGIN, Deadline
from ..core.opp import UNKNOWN, OPPResult, SolverOptions, solve_opp
from ..io.journal import JOURNAL_NAME, read_journal
from ..parallel.cache import ResultCache
from ..runtime.batch import BatchRunner
from ..telemetry import Telemetry
from .admission import AdmissionController, AdmissionError
from .jobs import STREAM_END, Job, JobStore
from .protocol import (
    BatchRequest,
    CertifyRequest,
    ProtocolError,
    SolveRequest,
    dumps_canonical,
    error_body,
    solve_response,
)

#: Largest request body the daemon will read (structured 413 beyond).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest header section the daemon will read.  A slow-loris client can
#: otherwise drip one header line per read-timeout forever.
MAX_HEADER_BYTES = 64 * 1024

#: Per-connection read deadline — for the *whole* request head (request
#: line plus every header), not per line, and again for the body.
READ_TIMEOUT = 30.0

#: Load thresholds (in-flight / capacity) of the brownout ladder:
#: below the first — full service; then clipped solve budget; then
#: incumbent-only (bounds + heuristics + token search).
BROWNOUT_LADDER = (0.75, 0.9)

#: The clipped per-solve budget from brownout level 1 (seconds).
BROWNOUT_TIME_LIMIT = 0.5

#: The token search budget at brownout level 2 (nodes).
BROWNOUT_NODE_LIMIT = 20_000

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _JobInterrupted(Exception):
    """A job stopped by daemon shutdown — left non-terminal on purpose, so
    a resumed daemon re-enqueues it instead of reporting a half-answer."""


class _HttpError(Exception):
    """An HTTP-level rejection with a structured JSON body."""

    def __init__(self, status: int, body: Dict[str, Any],
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(body.get("error", {}).get("reason", ""))
        self.status = status
        self.body = body
        self.headers = headers or {}


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune (mirrors the CLI flags)."""

    state_dir: str
    host: str = "127.0.0.1"
    port: int = 8765  # 0 = OS-assigned (announced on stdout)
    workers: int = 2  # executor threads = max concurrent solves
    queue_capacity: int = 64  # admitted-but-unfinished jobs
    concurrency: Optional[int] = None  # run slots (default: workers)
    tenant_seconds: Optional[float] = None  # per-tenant wall-clock budget
    tenant_nodes: Optional[int] = None  # per-tenant search-node budget
    cache_dir: Optional[str] = None  # disk-backed shared memo
    cache_capacity: int = 4096
    time_limit: Optional[float] = None  # hard per-solve cap (server-side)
    checkpoint_interval: float = 1.0  # batch-job durable checkpoint cadence
    fsync: bool = True
    resume: bool = False
    read_timeout: float = READ_TIMEOUT  # whole-head / body read deadline
    max_header_bytes: int = MAX_HEADER_BYTES
    #: Safety margin (seconds) the daemon reserves out of every request
    #: deadline for response serialization and transport — the server owns
    #: this slice of the budget; solvers never see it.
    deadline_margin: float = DEFAULT_MARGIN


class SolverService:
    """One daemon instance: shared cache, admission, jobs, HTTP front-end."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.telemetry = Telemetry()
        self.cache = ResultCache(
            capacity=config.cache_capacity, disk_path=config.cache_dir
        )
        self.cache.instrument(self.telemetry)
        self.admission = AdmissionController(
            capacity=config.queue_capacity,
            concurrency=config.concurrency or config.workers,
            tenant_seconds=config.tenant_seconds,
            tenant_nodes=config.tenant_nodes,
        )
        self.jobs = JobStore(
            config.state_dir, fsync=config.fsync, resume=config.resume
        )
        self.executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="repro-serve"
        )
        self.started = time.time()
        # Single-flight dedup: canonical cache key -> the event its first
        # (and only) solver sets once the memo holds the answer.
        self._inflight: Dict[str, threading.Event] = {}
        self._inflight_lock = threading.Lock()
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = asyncio.Event()
        self._stop_threads = threading.Event()  # cooperative batch shutdown
        self._tasks: set = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        # Re-enqueue work the previous daemon accepted but never finished.
        # Admission is durable: these were admitted once, so they bypass
        # the capacity/budget gates (force=True) instead of bouncing.
        for job in self.jobs.pending:
            ticket = self.admission.admit(job.tenant, force=True)
            self._spawn(self._run_job(job, ticket))
        self.jobs.pending = []

    def _spawn(self, coro: Any) -> "asyncio.Task":
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def serve_forever(self) -> int:
        """Run until :meth:`request_stop`; returns the CLI exit code
        (0 = clean, 5 = stopped with unfinished jobs, like ``batch``)."""
        await self._stopping.wait()
        return await self.shutdown()

    def request_stop(self) -> None:
        self._stop_threads.set()
        self._stopping.set()

    async def shutdown(self) -> int:
        if self._server is not None:
            self._server.close()
            try:
                # 3.12+ waits for open connection handlers here; bound it —
                # lingering SSE clients must not stall the shutdown.
                await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
            except asyncio.TimeoutError:
                pass
        self._stop_threads.set()
        if self._tasks:
            await asyncio.wait(self._tasks, timeout=30.0)
        unfinished = sum(
            1 for job in self.jobs.jobs.values() if not job.terminal
        )
        if unfinished:
            self.jobs.interrupted(unfinished)
        self.jobs.close()
        self.executor.shutdown(wait=False)
        return 5 if unfinished else 0

    # -- HTTP front-end ----------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as exc:
                await self._send(writer, exc.status, exc.body, exc.headers)
                return
            try:
                await self._dispatch(method, path, body, writer)
            except _HttpError as exc:
                await self._send(writer, exc.status, exc.body, exc.headers)
            except ProtocolError as exc:
                await self._send(writer, 400, exc.body())
            except AdmissionError as exc:
                headers = {}
                if exc.retry_after is not None:
                    headers["Retry-After"] = str(int(exc.retry_after) or 1)
                await self._send(
                    writer,
                    exc.http_status,
                    error_body(exc.code, exc.http_status, exc.reason),
                    headers,
                )
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:  # noqa: BLE001 — the 500 boundary
                await self._send(
                    writer,
                    500,
                    error_body(
                        "internal", 500, f"{type(exc).__name__}: {exc}"
                    ),
                )
        except (ConnectionError, asyncio.TimeoutError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        # One deadline for the whole request head.  A per-readline timeout
        # would let a slow-loris client drip one header byte per interval
        # and pin a reader task forever; here the *total* head read — and
        # separately the body read — must land inside ``read_timeout``.
        loop = asyncio.get_running_loop()
        head_deadline = loop.time() + self.config.read_timeout
        head_bytes = 0

        async def read_line(what: str) -> bytes:
            nonlocal head_bytes
            remaining = head_deadline - loop.time()
            if remaining <= 0:
                raise _HttpError(
                    408, error_body("timeout", 408, f"{what} never arrived")
                )
            try:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=remaining
                )
            except asyncio.TimeoutError:
                raise _HttpError(
                    408, error_body("timeout", 408, f"{what} never arrived")
                )
            head_bytes += len(line)
            if head_bytes > self.config.max_header_bytes:
                raise _HttpError(
                    431,
                    error_body(
                        "headers-too-large", 431,
                        f"request head exceeds "
                        f"{self.config.max_header_bytes} bytes",
                    ),
                )
            return line

        request_line = await read_line("request line")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(
                400,
                error_body("bad-request", 400, "malformed HTTP request line"),
            )
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await read_line("header")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(
                400, error_body("bad-request", 400, "bad Content-Length")
            )
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413,
                error_body(
                    "payload-too-large", 413,
                    f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
                ),
            )
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length),
                    timeout=self.config.read_timeout,
                )
            except (asyncio.IncompleteReadError, asyncio.TimeoutError):
                raise _HttpError(
                    400,
                    error_body("bad-request", 400, "truncated request body"),
                )
        return method, target.split("?", 1)[0], body

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        await self._send_encoded(writer, status, dumps_canonical(body), headers)

    async def _send_encoded(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        payload = (body + "\n").encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)
        await writer.drain()

    @staticmethod
    def _parse_json(body: bytes) -> Any:
        import json

        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(
                [{"field": "$", "reason": f"body is not valid JSON: {exc}"}]
            )

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        if path == "/v1/solve" or path == "/v1/batch" or path == "/v1/certify":
            if method != "POST":
                raise _HttpError(
                    405, error_body("method-not-allowed", 405, "POST only")
                )
            if self._stopping.is_set():
                raise _HttpError(
                    503,
                    error_body("shutting-down", 503, "daemon is stopping"),
                )
            await self._submit(path.rsplit("/", 1)[1], body, writer)
            return
        if path == "/v1/status" and method == "GET":
            await self._send(writer, 200, self._status_body())
            return
        if path == "/v1/health" and method == "GET":
            # Liveness: the loop is serving.  Always 200 while alive.
            await self._send(
                writer,
                200,
                {"status": "ok", "uptime": time.time() - self.started},
            )
            return
        if path == "/v1/ready" and method == "GET":
            # Readiness: would a submission be admitted right now?
            snapshot = self.admission.snapshot()
            ready = (
                not self._stopping.is_set()
                and snapshot["in_flight"] < snapshot["capacity"]
            )
            body = {
                "ready": ready,
                "in_flight": snapshot["in_flight"],
                "capacity": snapshot["capacity"],
                "brownout": self._brownout_level(),
            }
            await self._send(writer, 200 if ready else 503, body)
            return
        if path.startswith("/v1/status/") and method == "GET":
            job = self._job_or_404(path[len("/v1/status/"):])
            await self._send_encoded(writer, 200, job.status_payload())
            return
        if path.startswith("/v1/stream/") and method == "GET":
            job = self._job_or_404(path[len("/v1/stream/"):])
            await self._stream(job, writer)
            return
        if path == "/v1/shutdown" and method == "POST":
            await self._send(writer, 202, {"stopping": True})
            self.request_stop()
            return
        raise _HttpError(
            404, error_body("not-found", 404, f"no route for {method} {path}")
        )

    def _job_or_404(self, job_id: str) -> Job:
        job = self.jobs.jobs.get(job_id)
        if job is None:
            raise _HttpError(
                404, error_body("unknown-job", 404, f"no job {job_id!r}")
            )
        return job

    # -- submission --------------------------------------------------------

    async def _submit(
        self, kind: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        data = self._parse_json(body)
        if isinstance(data, dict):
            data.setdefault("kind", kind)
        request = {
            "solve": SolveRequest,
            "batch": BatchRequest,
            "certify": CertifyRequest,
        }[kind].from_dict(data)
        deadline: Optional[Deadline] = None
        if request.deadline_ms is not None:
            # Re-anchor the wire budget on this host's monotonic clock the
            # moment the request is understood; network transit already
            # ate its share of the margin.
            deadline = Deadline.from_wire(
                request.deadline_ms, margin=self.config.deadline_margin
            )
            self.telemetry.histogram("deadline.remaining_ms.admission").observe(
                deadline.to_wire()
            )
        ticket = self.admission.admit(request.tenant, deadline=deadline)
        try:
            job = self.jobs.submit(kind, request.tenant, request.to_dict())
        except Exception:
            self.admission.release(ticket)
            raise
        self.jobs.publish(
            job, {"event": "queued", "job": job.job_id, "kind": kind}
        )
        runner = self._run_job(job, ticket, deadline)
        if request.wait:
            await runner
            await self._send_encoded(writer, 200, job.status_payload())
        else:
            self._spawn(runner)
            await self._send(
                writer,
                202,
                {"job": job.job_id, "state": job.state, "kind": kind},
            )

    async def _run_job(
        self, job: Job, ticket: Any, deadline: Optional[Deadline] = None
    ) -> None:
        loop = asyncio.get_running_loop()
        started = time.monotonic()
        nodes = 0
        try:
            await self.admission.acquire(ticket)
            started = time.monotonic()
            if deadline is not None:
                self.telemetry.histogram(
                    "deadline.remaining_ms.start"
                ).observe(deadline.to_wire())
            self.jobs.mark_running(job)
            self.jobs.publish(job, {"event": "running", "job": job.job_id})
            response, nodes = await loop.run_in_executor(
                self.executor, self._execute, job, deadline
            )
            if deadline is not None:
                self.telemetry.histogram(
                    "deadline.remaining_ms.finish"
                ).observe(deadline.to_wire())
            self.jobs.finish(job, response)
        except (_JobInterrupted, asyncio.CancelledError):
            # No terminal record: the journal's last word on this job stays
            # ``running``, so a restart with --resume re-enqueues it.
            self.jobs.publish(
                job, {"event": "interrupted", "job": job.job_id}
            )
        except Exception as exc:  # noqa: BLE001 — jobs fail, daemons don't
            self.jobs.fail(job, f"{type(exc).__name__}: {exc}")
            self.telemetry.counter("service.job_failures").add()
        finally:
            self.admission.release(
                ticket, seconds=time.monotonic() - started, nodes=nodes
            )

    # -- execution (runs on executor threads) ------------------------------

    def _execute(
        self, job: Job, deadline: Optional[Deadline] = None
    ) -> Tuple[Dict[str, Any], int]:
        if job.kind == "solve":
            return self._execute_solve(job, deadline)
        if job.kind == "batch":
            return self._execute_batch(job, deadline)
        if job.kind == "certify":
            return self._execute_certify(job)
        raise ValueError(f"unknown job kind {job.kind!r}")

    def _brownout_level(self) -> int:
        """Current rung of the degradation ladder (0 = full service).

        Load is admitted-but-unfinished jobs over capacity; each
        :data:`BROWNOUT_LADDER` threshold the load clears sheds one more
        quality knob — solve budget, then search depth — so an
        overloaded daemon answers faster-but-weaker instead of queueing
        toward deadline misses."""
        load = self.admission.in_flight / self.admission.capacity
        return sum(1 for threshold in BROWNOUT_LADDER if load >= threshold)

    def _solver_options(
        self, kernel: Optional[str], time_limit: Optional[float],
        deadline: Optional[Deadline] = None,
    ) -> SolverOptions:
        limits = [
            l for l in (time_limit, self.config.time_limit) if l is not None
        ]
        level = self._brownout_level()
        if level >= 1:
            limits.append(BROWNOUT_TIME_LIMIT)
            self.telemetry.counter(f"service.brownout.level{level}").add()
        return SolverOptions(
            kernel=kernel or "bitmask",
            time_limit=min(limits) if limits else None,
            node_limit=BROWNOUT_NODE_LIMIT if level >= 2 else None,
            deadline=deadline,
        )

    def _execute_solve(
        self, job: Job, deadline: Optional[Deadline] = None
    ) -> Tuple[Dict[str, Any], int]:
        request = SolveRequest.from_dict(job.request)
        key = self.cache.key(request.instance)
        while True:
            cached = self.cache.get(request.instance)
            if cached is not None:
                # The shared memo answered: identical-up-to-isomorphism
                # instances — from any tenant — cost one solve, ever.
                self.telemetry.counter("service.cache_hits").add()
                self.jobs.publish(
                    job, {"event": "cache-hit", "status": cached.status}
                )
                return solve_response(cached, cache_hit=True), 0
            # Single-flight: if another thread is already solving this
            # canonical form, wait for its memo store instead of racing it.
            with self._inflight_lock:
                leader = self._inflight.get(key)
                if leader is None:
                    self._inflight[key] = threading.Event()
                    break
            while not leader.wait(timeout=0.02):
                if self._stop_threads.is_set():
                    raise _JobInterrupted(job.job_id)
                if deadline is not None and deadline.solver_budget() <= 0:
                    # Waiting out the leader would blow the budget; answer
                    # now with an honest degraded "unknown".
                    return self._degraded_response(), 0
            # Leader finished (or was interrupted / got an uncacheable
            # answer): re-check the memo, solving ourselves if it's empty.
        try:
            return self._solve_as_leader(job, request, deadline)
        finally:
            with self._inflight_lock:
                event = self._inflight.pop(key, None)
            if event is not None:
                event.set()

    def _degraded_response(self) -> Dict[str, Any]:
        """The honest answer when the deadline expired before any search
        could run: status ``unknown`` with an explicit degradation marker."""
        result = OPPResult(status=UNKNOWN, stage=DEADLINE_LIMIT)
        result.stats.limit = DEADLINE_LIMIT
        response = solve_response(result, cache_hit=False)
        response["degraded"] = {"reason": DEADLINE_LIMIT, "gap": None}
        self.telemetry.counter("service.degraded_total.deadline").add()
        return response

    def _solve_as_leader(
        self, job: Job, request: SolveRequest,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[Dict[str, Any], int]:
        job_telemetry = Telemetry()
        job_telemetry.add_listener(
            lambda name, attrs: self.jobs.publish(
                job, {"event": "telemetry", "name": name, "attrs": attrs}
            )
        )
        with job_telemetry.span("service.solve", job=job.job_id):
            result = solve_opp(
                request.instance,
                options=self._solver_options(
                    request.kernel, request.time_limit, deadline,
                ),
                should_stop=self._stop_threads.is_set,
                telemetry=job_telemetry,
            )
        if self._stop_threads.is_set() and result.status == "unknown":
            raise _JobInterrupted(job.job_id)
        self.telemetry.counter("service.solves").add()
        self.telemetry.metrics.merge(job_telemetry.metrics.snapshot())
        self.cache.put(request.instance, result)
        for span in job_telemetry.tracer.spans:
            self.jobs.publish(
                job,
                {"event": "span", "name": span.name,
                 "seconds": span.seconds, "attrs": dict(span.attrs)},
            )
        response = solve_response(result, cache_hit=False)
        if result.status == UNKNOWN and result.stats.limit == DEADLINE_LIMIT:
            # The end-to-end deadline — not a tuning limit — stopped this
            # solve; say so explicitly instead of a bare "unknown".
            response["degraded"] = {"reason": DEADLINE_LIMIT, "gap": None}
            self.telemetry.counter("service.degraded_total.deadline").add()
        return response, result.stats.nodes

    def _execute_batch(
        self, job: Job, deadline: Optional[Deadline] = None
    ) -> Tuple[Dict[str, Any], int]:
        request = BatchRequest.from_dict(job.request)
        out_dir = os.path.join(self.config.state_dir, "jobs", job.job_id)

        def on_outcome(outcome: Any) -> None:
            self.jobs.publish(
                job,
                {"event": "instance", "id": outcome.instance_id,
                 "kind": outcome.kind, "status": outcome.status,
                 "replayed": outcome.replayed},
            )

        runner = BatchRunner(
            out_dir,
            options=self._solver_options(
                request.kernel, None, deadline
            ),
            cache=self.cache,
            checkpoint_interval=self.config.checkpoint_interval,
            stop_event=self._stop_threads,
            fsync=self.config.fsync,
            telemetry=self.telemetry,
            on_outcome=on_outcome,
        )
        journal = os.path.join(out_dir, JOURNAL_NAME)
        if os.path.exists(journal) and read_journal(journal).records:
            # This job already ran under a previous daemon: continue its
            # own batch journal (terminal instances replay verbatim,
            # in-flight ones resume from their durable checkpoints).
            self.telemetry.counter("service.batch_resumes").add()
            result = runner.resume()
        else:
            result = runner.run(list(request.entries))
        if result.interrupted:
            # Graceful daemon shutdown mid-batch: leave the job
            # non-terminal so a resumed daemon finishes it.
            raise _JobInterrupted(job.job_id)
        outcomes = []
        nodes = 0
        for outcome in sorted(
            result.outcomes.values(), key=lambda o: o.instance_id
        ):
            nodes += outcome.nodes
            outcomes.append(
                {
                    "id": outcome.instance_id,
                    "kind": outcome.kind,
                    "status": outcome.status,
                    "positions": outcome.positions,
                    "certificate": outcome.certificate,
                    "certification": outcome.certification,
                }
            )
        counts = {
            kind: result.count(kind)
            for kind in ("done", "failed", "timed-out", "memory-limited",
                         "quarantined")
        }
        return {"counts": counts, "outcomes": outcomes}, nodes

    def _execute_certify(self, job: Job) -> Tuple[Dict[str, Any], int]:
        request = CertifyRequest.from_dict(job.request)
        verdict = certify_payload(request.certificate)
        self.telemetry.counter("service.certifications").add()
        return {"certification": verdict.to_dict()}, 0

    # -- streaming ---------------------------------------------------------

    async def _stream(self, job: Job, writer: asyncio.StreamWriter) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        queue = self.jobs.subscribe(job)
        try:
            while True:
                event = await queue.get()
                if event is STREAM_END:
                    writer.write(b"event: end\ndata: {}\n\n")
                    await writer.drain()
                    return
                writer.write(
                    f"data: {dumps_canonical(event)}\n\n".encode("utf-8")
                )
                await writer.drain()
        finally:
            self.jobs.unsubscribe(job, queue)

    # -- observability -----------------------------------------------------

    def _status_body(self) -> Dict[str, Any]:
        from .. import __version__

        stats = self.cache.stats
        return {
            "service": {
                "version": __version__,
                "uptime": time.time() - self.started,
                "state_dir": self.config.state_dir,
                "resumed": self.config.resume,
                "stopping": self._stopping.is_set(),
                "brownout": self._brownout_level(),
            },
            "jobs": self.jobs.counts(),
            "admission": self.admission.snapshot(),
            "cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "stores": stats.stores,
                "evictions": stats.evictions,
                "quarantined": stats.quarantined,
                "hit_rate": stats.hit_rate,
                "entries": len(self.cache),
            },
            "metrics": self.telemetry.metrics.snapshot(),
        }


def run_service(config: ServiceConfig) -> int:
    """Blocking daemon entry point (the CLI's ``serve`` handler).

    Announces readiness on stdout as ``serving on http://HOST:PORT`` —
    with ``port=0`` this line is how callers learn the bound port —
    installs SIGTERM/SIGINT as graceful-stop, and returns the exit code
    (0 clean, 5 stopped with unfinished jobs)."""
    import signal
    import sys

    async def _main() -> int:
        service = SolverService(config)
        await service.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, service.request_stop)
            except (NotImplementedError, ValueError):
                pass  # exotic platform / non-main thread
        print(
            f"serving on http://{config.host}:{service.port} "
            f"(state: {config.state_dir})",
            flush=True,
        )
        return await service.serve_forever()

    return asyncio.run(_main())
