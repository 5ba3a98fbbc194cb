"""Shared machinery for the service-level test suite.

Two ways to run the daemon:

* :class:`ServiceThread` — in-process, on a background asyncio loop.  Fast,
  lets tests reach into ``service.admission`` / ``service.cache`` directly,
  and the only option for deterministic white-box assertions.
* :func:`spawn_serve` — a real ``python -m repro serve`` subprocess, for the
  kill-and-resume chaos tests where the whole point is that nothing gets to
  flush or unwind (see tests/test_service_resume.py).

Plus a tiny ``http.client``-based JSON client, an SSE reader, and the
deterministic instances the suite solves.
"""

import asyncio
import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time

from repro.core.boxes import Box, Container, PackingInstance, make_instance
from repro.service import ServiceConfig, SolverService

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


# ---------------------------------------------------------------------------
# In-process daemon
# ---------------------------------------------------------------------------


class ServiceThread:
    """Run one :class:`SolverService` on a dedicated asyncio loop thread.

    Context manager: entering boots the daemon and blocks until the port is
    bound; exiting requests a graceful stop and joins the loop thread.
    ``stop()`` returns the daemon's exit code (0 clean, 5 unfinished jobs).
    """

    def __init__(self, state_dir, **overrides):
        settings = dict(state_dir=str(state_dir), port=0, fsync=False)
        settings.update(overrides)
        self.config = ServiceConfig(**settings)
        self.service = None
        self.loop = None
        self.exit_code = None
        self._error = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        try:
            self.exit_code = asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 — surfaced in __enter__
            self._error = exc
            self._ready.set()

    async def _amain(self):
        self.loop = asyncio.get_running_loop()
        self.service = SolverService(self.config)
        await self.service.start()
        self._ready.set()
        return await self.service.serve_forever()

    @property
    def port(self):
        return self.service.port

    def __enter__(self):
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise AssertionError("service thread never became ready")
        if self._error is not None:
            raise self._error
        return self

    def stop(self):
        if self._thread.is_alive() and self.loop is not None:
            self.loop.call_soon_threadsafe(self.service.request_stop)
        self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise AssertionError("service thread failed to stop")
        if self._error is not None:
            raise self._error
        return self.exit_code

    def __exit__(self, *exc_info):
        self.stop()


# ---------------------------------------------------------------------------
# HTTP client helpers
# ---------------------------------------------------------------------------


def request_bytes(port, method, path, payload=None, timeout=120.0):
    """One HTTP exchange; returns ``(status, raw_body, headers)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload)
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        return response.status, raw, dict(response.getheaders())
    finally:
        conn.close()


def request_json(port, method, path, payload=None, timeout=120.0):
    """One HTTP exchange; returns ``(status, decoded_body, headers)``."""
    status, raw, headers = request_bytes(port, method, path, payload, timeout)
    return status, json.loads(raw), headers


def journaled_status_body(state_dir, job_id, replayed):
    """The exact ``/v1/status/<job>`` bytes of a terminal job, rebuilt from
    its terminal record in the service journal."""
    from repro.io.journal import read_journal
    from repro.service.jobs import JOB_RECORD_KINDS, JOB_TERMINAL_KINDS, SERVICE_JOURNAL
    from repro.service.protocol import dumps_canonical

    records = read_journal(
        os.path.join(str(state_dir), SERVICE_JOURNAL), kinds=JOB_RECORD_KINDS
    ).records
    (data,) = [
        r["data"] for r in records
        if r["id"] == job_id and r["kind"] in JOB_TERMINAL_KINDS
    ]
    body = {k: v for k, v in data.items() if v is not None}
    body.update(job=job_id, replayed=replayed)
    return (dumps_canonical(body) + "\n").encode("utf-8")


def read_sse(port, job_id, timeout=120.0):
    """Consume ``/v1/stream/<job>`` to its end marker.

    Returns ``(events, ended)`` — the decoded ``data:`` payloads and whether
    the ``event: end`` terminator arrived before the connection closed.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", f"/v1/stream/{job_id}")
        response = conn.getresponse()
        assert response.status == 200, response.status
        events = []
        ended = False
        while True:
            line = response.readline()
            if not line:
                break
            line = line.strip()
            if line == b"event: end":
                ended = True
            elif line.startswith(b"data: ") and not ended:
                events.append(json.loads(line[len(b"data: "):]))
        return events, ended
    finally:
        conn.close()


def wait_until(predicate, deadline=60.0, interval=0.01, message="condition"):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


# ---------------------------------------------------------------------------
# Subprocess daemon (for the chaos tests)
# ---------------------------------------------------------------------------

_SERVE_LINE = re.compile(rb"serving on http://[^:]+:(\d+)")


def spawn_serve(state_dir, *extra):
    """Start a real ``python -m repro serve`` subprocess on an OS-assigned
    port.  The caller learns the port via :func:`wait_for_port`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--dir", str(state_dir), "--port", "0", "--no-fsync",
        "--checkpoint-interval", "0.05",
        *extra,
    ]
    return subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )


def wait_for_port(proc):
    """Block until the daemon announces its bound port on stdout."""
    line = proc.stdout.readline()
    match = _SERVE_LINE.search(line)
    if not match:
        stderr = b""
        if proc.poll() is not None:
            stderr = proc.stderr.read()
        raise AssertionError(
            f"daemon never announced a port: {line!r} {stderr.decode()!r}"
        )
    return int(match.group(1))


# ---------------------------------------------------------------------------
# Deterministic instances
# ---------------------------------------------------------------------------


def small_instance():
    """A tiny SAT decision, solved in well under a millisecond."""
    return make_instance([(2, 2, 1), (1, 1, 2), (2, 1, 1)], (3, 3, 3))


def unsat_instance():
    """A tiny UNSAT decision (total volume exceeds the container)."""
    return make_instance([(2, 2, 2), (2, 2, 2), (1, 2, 2)], (2, 2, 3))


def precedence_instance():
    """A SAT decision whose answer depends on the precedence arcs."""
    return make_instance(
        [(2, 2, 1), (2, 2, 1), (1, 1, 1)], (2, 2, 3), [(0, 1), (1, 2)]
    )


def iso_variant(instance):
    """An isomorphism-equivalent copy: boxes reversed and renamed.  The
    canonical-form cache must give it the same key as ``instance``."""
    n = len(instance.boxes)
    order = list(reversed(range(n)))
    boxes = [
        Box(instance.boxes[i].widths, name=f"alias-{i}") for i in order
    ]
    precedence = None
    if instance.precedence is not None:
        from repro.graphs.digraph import DiGraph

        relabel = {old: new for new, old in enumerate(order)}
        precedence = DiGraph(
            n,
            [(relabel[a], relabel[b]) for a, b in instance.precedence.arcs()],
        )
    return PackingInstance(
        boxes,
        Container(tuple(instance.container.sizes)),
        precedence,
        instance.time_axis,
    )


def solve_payload(instance, tenant="public", **extra):
    from repro.io.serialize import instance_to_dict

    payload = {"instance": instance_to_dict(instance), "tenant": tenant}
    payload.update(extra)
    return payload
