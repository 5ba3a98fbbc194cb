"""End-to-end HTTP behavior of the daemon.

The acceptance bar: an ``/v1/solve`` answer must be **byte-identical** to
calling :func:`repro.core.opp.solve_opp` directly — on the canonical
answer projection (status, value, certificate, witness positions), which
is exactly the instance-deterministic subset of a result — including
under concurrent multi-tenant load.  Plus the HTTP edges: structured
400/404/405/413 bodies, SSE streams, async job polling, batch and certify
round trips, graceful-shutdown exit codes.
"""

import json
import socket
import threading

from repro.core.opp import solve_opp
from repro.service.protocol import dumps_canonical, solve_answer
from tests._service_helpers import (
    ServiceThread,
    iso_variant,
    journaled_status_body,
    precedence_instance,
    read_sse,
    request_bytes,
    request_json,
    small_instance,
    solve_payload,
    unsat_instance,
    wait_until,
)


def _expected_answer(instance):
    return dumps_canonical(solve_answer(solve_opp(instance)))


def _http_answer(body):
    return dumps_canonical(body["response"]["answer"])


class TestSolveParity:
    def test_answers_byte_identical_to_direct_solve(self, tmp_path):
        cases = [small_instance(), unsat_instance(), precedence_instance()]
        with ServiceThread(tmp_path) as st:
            for instance in cases:
                body = request_json(
                    st.port, "POST", "/v1/solve", solve_payload(instance)
                )[1]
                assert body["state"] == "done"
                assert _http_answer(body) == _expected_answer(instance)

    def test_parity_under_concurrent_multi_tenant_load(self, tmp_path):
        """8 tenants × 3 instances at once, some isomorphic duplicates:
        every response must byte-match the direct solve, and the shared
        memo must have absorbed the duplicates."""
        cases = [small_instance(), unsat_instance(), precedence_instance()]
        expected = [_expected_answer(instance) for instance in cases]
        payload_sets = []
        for t in range(8):
            tenant = f"tenant-{t}"
            instances = cases if t % 2 == 0 else [
                iso_variant(c) for c in cases
            ]
            payload_sets.append(
                [solve_payload(i, tenant=tenant) for i in instances]
            )
        failures = []

        with ServiceThread(tmp_path, workers=4, queue_capacity=64) as st:
            def client(payloads, t=None):
                for i, payload in enumerate(payloads):
                    status, body, _ = request_json(
                        st.port, "POST", "/v1/solve", payload
                    )
                    if status != 200:
                        failures.append((status, body))
                        continue
                    answer = body["response"]["answer"]
                    if (
                        answer["status"]
                        != json.loads(expected[i])["status"]
                    ):
                        failures.append((payload["tenant"], i, answer))

            threads = [
                threading.Thread(target=client, args=(payloads,))
                for payloads in payload_sets
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            snapshot = request_json(st.port, "GET", "/v1/status")[1]

        assert not failures
        # 24 requests collapse onto 3 canonical forms: single-flight dedup
        # makes that exactly 3 solves — concurrent identical misses wait
        # for the first solver's memo store instead of racing it.
        counters = snapshot["metrics"]["counters"]
        assert counters["service.solves"] == 3
        assert snapshot["cache"]["hits"] == 24 - 3
        assert snapshot["jobs"]["done"] == 24
        assert snapshot["jobs"]["failed"] == 0

    def test_iso_variant_parity_not_just_status(self, tmp_path):
        """The full projection for an exact duplicate (same labeling) is
        byte-identical even when served from the memo."""
        instance = small_instance()
        with ServiceThread(tmp_path) as st:
            first = request_json(
                st.port, "POST", "/v1/solve",
                solve_payload(instance, tenant="a"),
            )[1]
            second = request_json(
                st.port, "POST", "/v1/solve",
                solve_payload(instance, tenant="b"),
            )[1]
        assert second["response"]["cache_hit"] is True
        assert _http_answer(first) == _http_answer(second)
        assert _http_answer(first) == _expected_answer(instance)


class TestFrozenJobs:
    """Terminal jobs are kept encoded; what they serve must not change."""

    def test_status_and_wait_bodies_are_the_journaled_record(self, tmp_path):
        with ServiceThread(tmp_path) as st:
            status, waited, _ = request_bytes(
                st.port, "POST", "/v1/solve", solve_payload(small_instance())
            )
            assert status == 200
            job = json.loads(waited)["job"]
            polled = request_bytes(st.port, "GET", f"/v1/status/{job}")[1]
            stored = st.service.jobs.jobs[job]
            assert stored.request is None and stored.response is None
        expected = journaled_status_body(tmp_path, job, replayed=False)
        assert waited == expected
        assert polled == expected

    def test_sse_replay_matches_live_subscriber(self, tmp_path):
        gate = threading.Event()
        live = {}
        with ServiceThread(tmp_path, workers=1) as st:
            # Hold the only executor thread so the job cannot finish
            # before the live subscriber is attached.
            st.service.executor.submit(gate.wait, 60)
            try:
                job = request_json(
                    st.port, "POST", "/v1/solve",
                    solve_payload(small_instance(), wait=False),
                )[1]["job"]
                reader = threading.Thread(
                    target=lambda: live.update(
                        stream=read_sse(st.port, job)
                    )
                )
                reader.start()
                wait_until(
                    lambda: st.service.jobs.jobs[job].subscribers,
                    message="a live subscriber",
                )
            finally:
                gate.set()
            reader.join(timeout=60)
            assert not reader.is_alive()
            replay = read_sse(st.port, job)
            assert st.service.jobs.jobs[job].frozen_events is not None
        events, ended = live["stream"]
        assert ended and replay[1]
        kinds = [e["event"] for e in events]
        assert kinds[:2] == ["queued", "running"] and kinds[-1] == "done"
        assert [dumps_canonical(e) for e in replay[0]] == [
            dumps_canonical(e) for e in events
        ]


class TestAsyncJobs:
    def test_wait_false_returns_202_then_polls_to_done(self, tmp_path):
        instance = small_instance()
        with ServiceThread(tmp_path) as st:
            status, body, _ = request_json(
                st.port, "POST", "/v1/solve",
                solve_payload(instance, wait=False),
            )
            assert status == 202
            job = body["job"]

            def done():
                return (
                    request_json(st.port, "GET", f"/v1/status/{job}")[1][
                        "state"
                    ]
                    == "done"
                )

            wait_until(done, message="async job completion")
            final = request_json(st.port, "GET", f"/v1/status/{job}")[1]
            assert _http_answer(final) == _expected_answer(instance)

    def test_stream_carries_progress_then_end(self, tmp_path):
        with ServiceThread(tmp_path) as st:
            status, body, _ = request_json(
                st.port, "POST", "/v1/solve",
                solve_payload(small_instance(), wait=False),
            )
            job = body["job"]
            events, ended = read_sse(st.port, job)
        assert ended
        kinds = [e.get("event") for e in events]
        assert "queued" in kinds
        assert "running" in kinds
        assert kinds[-1] == "done"

    def test_batch_job_round_trip(self, tmp_path):
        entries = [
            {"id": "a", "instance": solve_payload(small_instance())["instance"]},
            {"id": "b", "instance": solve_payload(unsat_instance())["instance"]},
        ]
        with ServiceThread(tmp_path) as st:
            status, body, _ = request_json(
                st.port, "POST", "/v1/batch",
                {"entries": entries, "wait": True},
            )
            assert status == 200, body
            outcomes = {
                o["id"]: o for o in body["response"]["outcomes"]
            }
            assert body["response"]["counts"]["done"] == 2
            assert outcomes["a"]["status"] == "sat"
            assert outcomes["b"]["status"] == "unsat"
            assert outcomes["b"]["certification"] is not None

    def test_certify_round_trip(self, tmp_path):
        instance = small_instance()
        result = solve_opp(instance)
        payload = result.certificate_payload(instance)
        with ServiceThread(tmp_path) as st:
            status, body, _ = request_json(
                st.port, "POST", "/v1/certify", {"certificate": payload}
            )
            assert status == 200, body
            verdict = body["response"]["certification"]
            assert verdict["verdict"] == "certified"


class TestHttpEdges:
    def test_unknown_route_404(self, tmp_path):
        with ServiceThread(tmp_path) as st:
            status, body, _ = request_json(st.port, "GET", "/v2/everything")
            assert status == 404
            assert body["error"]["code"] == "not-found"

    def test_wrong_method_405(self, tmp_path):
        with ServiceThread(tmp_path) as st:
            status, body, _ = request_json(st.port, "GET", "/v1/solve")
            assert status == 405
            assert body["error"]["code"] == "method-not-allowed"

    def test_unknown_job_404(self, tmp_path):
        with ServiceThread(tmp_path) as st:
            status, body, _ = request_json(
                st.port, "GET", "/v1/status/job-999999"
            )
            assert status == 404
            assert body["error"]["code"] == "unknown-job"

    def test_non_json_body_400(self, tmp_path):
        with ServiceThread(tmp_path) as st:
            import http.client

            conn = http.client.HTTPConnection(
                "127.0.0.1", st.port, timeout=30
            )
            conn.request("POST", "/v1/solve", body=b"not json at all")
            response = conn.getresponse()
            body = json.loads(response.read())
            conn.close()
            assert response.status == 400
            assert body["error"]["code"] == "bad-request"
            assert body["error"]["details"][0]["field"] == "$"

    def test_malformed_payload_is_structured_400(self, tmp_path):
        with ServiceThread(tmp_path) as st:
            status, body, _ = request_json(
                st.port, "POST", "/v1/solve",
                {"tenant": "", "bogus": 1},
            )
            assert status == 400
            fields = {d["field"] for d in body["error"]["details"]}
            assert {"tenant", "bogus", "instance"} <= fields

    def test_oversized_body_413(self, tmp_path):
        with ServiceThread(tmp_path) as st:
            with socket.create_connection(
                ("127.0.0.1", st.port), timeout=30
            ) as sock:
                sock.sendall(
                    b"POST /v1/solve HTTP/1.1\r\n"
                    b"Host: localhost\r\n"
                    b"Content-Length: 999999999\r\n\r\n"
                )
                response = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    response += chunk
            assert b"413" in response.split(b"\r\n", 1)[0]
            assert b"payload-too-large" in response

    def test_malformed_request_line_400(self, tmp_path):
        with ServiceThread(tmp_path) as st:
            with socket.create_connection(
                ("127.0.0.1", st.port), timeout=30
            ) as sock:
                sock.sendall(b"YO\r\n\r\n")
                response = sock.recv(65536)
            assert b"400" in response.split(b"\r\n", 1)[0]

    def test_status_shape(self, tmp_path):
        with ServiceThread(tmp_path) as st:
            body = request_json(st.port, "GET", "/v1/status")[1]
            import repro

            assert body["service"]["version"] == repro.__version__
            assert body["service"]["stopping"] is False
            assert set(body["jobs"]) == {
                "queued", "running", "done", "failed"
            }
            assert body["admission"]["capacity"] == 64
            assert body["cache"]["entries"] == 0


class TestShutdown:
    def test_clean_shutdown_exits_zero(self, tmp_path):
        st = ServiceThread(tmp_path)
        with st:
            request_json(
                st.port, "POST", "/v1/solve", solve_payload(small_instance())
            )
        assert st.exit_code == 0

    def test_shutdown_endpoint_rejects_new_work(self, tmp_path):
        st = ServiceThread(tmp_path)
        st.__enter__()
        try:
            status, _, _ = request_json(st.port, "POST", "/v1/shutdown")
            assert status == 202
            wait_until(
                lambda: st.service._stopping.is_set(),
                message="stop flag",
            )
            # The daemon may already be out of its accept loop; either a
            # structured 503 or a refused connection is a correct refusal.
            try:
                status, body, _ = request_json(
                    st.port, "POST", "/v1/solve",
                    solve_payload(small_instance()),
                )
                assert status == 503
                assert body["error"]["code"] == "shutting-down"
            except (ConnectionError, OSError):
                pass
        finally:
            assert st.stop() == 0


class TestHostileRequests:
    """Defensive parsing: hostile or broken *requests* must be bounced
    with structured errors inside ``read_timeout``, never pin a reader."""

    def test_slow_loris_head_408(self, tmp_path):
        """A client dripping header bytes gets a 408 when the whole-head
        deadline lapses — a per-line timeout would never fire."""
        with ServiceThread(tmp_path, read_timeout=0.4) as st:
            with socket.create_connection(
                ("127.0.0.1", st.port), timeout=30
            ) as sock:
                sock.sendall(b"POST /v1/solve HTTP/1.1\r\n")
                import time as _time

                start = _time.monotonic()
                # Drip one header byte per poll, slower than the head
                # deadline allows.
                response = b""
                try:
                    for byte in b"X-Slow: aaaaaaaaaaaaaaaa":
                        sock.sendall(bytes([byte]))
                        _time.sleep(0.05)
                except (BrokenPipeError, ConnectionResetError):
                    pass
                sock.settimeout(5.0)
                try:
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        response += chunk
                except (socket.timeout, ConnectionResetError):
                    pass
                elapsed = _time.monotonic() - start
            assert b"408" in response.split(b"\r\n", 1)[0]
            assert b"timeout" in response
            assert elapsed < 5.0  # bounced, not pinned

    def test_oversized_headers_431(self, tmp_path):
        with ServiceThread(tmp_path, max_header_bytes=1024) as st:
            with socket.create_connection(
                ("127.0.0.1", st.port), timeout=30
            ) as sock:
                sock.sendall(
                    b"POST /v1/solve HTTP/1.1\r\n"
                    b"X-Padding: " + b"a" * 4096 + b"\r\n\r\n"
                )
                response = b""
                try:
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        response += chunk
                except (ConnectionResetError, socket.timeout):
                    pass
            assert b"431" in response.split(b"\r\n", 1)[0]
            assert b"headers-too-large" in response

    def test_truncated_body_400(self, tmp_path):
        """A Content-Length promise the client never honors is a 400
        after ``read_timeout``, not a hung reader task."""
        with ServiceThread(tmp_path, read_timeout=0.4) as st:
            with socket.create_connection(
                ("127.0.0.1", st.port), timeout=30
            ) as sock:
                sock.sendall(
                    b"POST /v1/solve HTTP/1.1\r\n"
                    b"Content-Length: 5000\r\n\r\n"
                    b'{"partial":'
                )
                sock.settimeout(5.0)
                response = b""
                try:
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        response += chunk
                except (socket.timeout, ConnectionResetError):
                    pass
            assert b"400" in response.split(b"\r\n", 1)[0]
            assert b"truncated request body" in response


class TestHealthAndReady:
    def test_health_always_ok_while_alive(self, tmp_path):
        with ServiceThread(tmp_path) as st:
            status, body, _ = request_json(st.port, "GET", "/v1/health")
            assert status == 200
            assert body["status"] == "ok"
            assert body["uptime"] >= 0

    def test_ready_reflects_admission_headroom(self, tmp_path):
        with ServiceThread(tmp_path, queue_capacity=2) as st:
            status, body, _ = request_json(st.port, "GET", "/v1/ready")
            assert status == 200
            assert body["ready"] is True
            assert body["capacity"] == 2
            assert body["brownout"] == 0
            # Fill every queue slot; readiness must flip to 503 while
            # liveness stays 200.
            tickets = [
                st.service.admission.admit(f"t{i}") for i in range(2)
            ]
            try:
                status, body, _ = request_json(st.port, "GET", "/v1/ready")
                assert status == 503
                assert body["ready"] is False
                assert body["in_flight"] == 2
                status, body, _ = request_json(st.port, "GET", "/v1/health")
                assert status == 200
            finally:
                for ticket in tickets:
                    st.service.admission.release(ticket)

    def test_brownout_ladder_rungs(self, tmp_path, monkeypatch):
        # Load 0.6 / 0.8 / 0.95 of capacity lands on rungs 0 / 1 / 2: full
        # service, then the 0.5 s solve clip, then the 20k node cap on top.
        rungs = [
            (12, 0, None, None),
            (16, 1, 0.5, None),
            (19, 2, 0.5, 20_000),
        ]
        with ServiceThread(tmp_path, queue_capacity=20) as st:
            for in_flight, level, time_limit, node_limit in rungs:
                monkeypatch.setattr(
                    st.service.admission, "in_flight", in_flight
                )
                options = st.service._solver_options(None, None)
                assert (options.time_limit, options.node_limit) == (
                    time_limit, node_limit,
                ), in_flight
                status, body, _ = request_json(st.port, "GET", "/v1/ready")
                assert status == 200
                assert body["brownout"] == level, in_flight

    def test_status_reports_brownout_level(self, tmp_path):
        with ServiceThread(tmp_path) as st:
            body = request_json(st.port, "GET", "/v1/status")[1]
            assert body["service"]["brownout"] == 0
