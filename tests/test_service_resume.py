"""Kill-and-resume chaos tests for the service daemon (satellite 4).

A real ``python -m repro serve`` subprocess is SIGKILL'd at a randomized
point mid-batch — nothing gets to flush, unwind, or handle anything — and
restarted with ``--resume``.  The invariants (the service's durability
contract, docs/service.md):

* no lost results — the resumed daemon finishes every accepted job, and
  the batch outcomes match an uninterrupted reference run exactly
  (serial solving is deterministic, so *identical*, not equivalent);
* no duplicated results — at most one terminal record per job in the
  service journal, at most one terminal record per instance in the batch
  journal, across all daemon generations;
* terminal results replay **verbatim** — a job that finished before the
  kill re-reports its journaled response byte-for-byte, without
  re-solving.

SIGTERM gets the graceful variant: unfinished jobs are journaled
``interrupted``, the daemon exits with code 5 (like ``repro batch``), and
``--resume`` completes the work.

This extends the seeded chaos pattern of tests/test_batch_resume.py — a
few fast seeds in tier 1, an extended sweep behind ``-m slow``.
"""

import json
import random
import signal
import time

import pytest

from repro.io.journal import (
    JOURNAL_NAME,
    TERMINAL_KINDS,
    JournalWriter,
    read_journal,
)
from repro.io.serialize import instance_to_dict
from repro.runtime import ManifestEntry, run_batch
from repro.service.jobs import JOB_RECORD_KINDS, JOB_TERMINAL_KINDS, SERVICE_JOURNAL
from repro.service.protocol import BatchRequest, SolveRequest, dumps_canonical
from tests._service_helpers import (
    journaled_status_body,
    request_bytes,
    request_json,
    small_instance,
    solve_payload,
    spawn_serve,
    wait_for_port,
    wait_until,
)
from tests.test_batch_resume import _instances


def _batch_payload():
    return {
        "entries": [
            {"id": name, "instance": instance_to_dict(inst)}
            for name, inst in _instances()
        ],
        "wait": False,
    }


@pytest.fixture(scope="module")
def reference_outcomes(tmp_path_factory):
    """One uninterrupted run of the same 12 instances — the exact result
    set every killed-and-resumed service batch must reproduce."""
    out = tmp_path_factory.mktemp("reference")
    entries = [ManifestEntry(name, inst) for name, inst in _instances()]
    result = run_batch(entries, str(out), fsync=False)
    assert result.ok
    return {
        outcome.instance_id: {
            "kind": outcome.kind,
            "status": outcome.status,
            "positions": outcome.positions,
        }
        for outcome in result.outcomes.values()
    }


def _normalize(outcomes):
    return {
        o["id"]: {
            "kind": o["kind"],
            "status": o["status"],
            "positions": [tuple(p) for p in o["positions"]]
            if o["positions"] is not None
            else None,
        }
        for o in outcomes
    }


def _normalize_reference(reference):
    return {
        instance_id: {
            "kind": fields["kind"],
            "status": fields["status"],
            "positions": [tuple(p) for p in fields["positions"]]
            if fields["positions"] is not None
            else None,
        }
        for instance_id, fields in reference.items()
    }


def _submit_batch(port):
    status, body, _ = request_json(port, "POST", "/v1/batch", _batch_payload())
    assert status == 202, body
    return body["job"]


def _wait_terminal(port, job, deadline=180.0):
    state = {}

    def terminal():
        status, body, _ = request_json(port, "GET", f"/v1/status/{job}")
        state.update(body)
        return body["state"] in ("done", "failed")

    wait_until(terminal, deadline=deadline, interval=0.05,
               message=f"{job} to reach a terminal state")
    return state


def _shutdown(proc, port):
    request_json(port, "POST", "/v1/shutdown")
    stdout, stderr = proc.communicate(timeout=60)
    return proc.returncode, stderr


def _assert_no_duplicate_terminals(state_dir, job):
    service_records = read_journal(
        str(state_dir / SERVICE_JOURNAL), kinds=JOB_RECORD_KINDS
    ).records
    terminal = [
        r for r in service_records
        if r["kind"] in JOB_TERMINAL_KINDS and r["id"] == job
    ]
    assert len(terminal) == 1, (
        f"{len(terminal)} terminal service records for {job}"
    )
    batch_journal = state_dir / "jobs" / job / JOURNAL_NAME
    ids = [
        r["id"]
        for r in read_journal(str(batch_journal)).records
        if r["kind"] in TERMINAL_KINDS
    ]
    assert sorted(ids) == sorted(set(ids)), "instance re-reported"
    assert len(ids) == 12


def _kill_and_resume(tmp_path, seed, reference_outcomes):
    rng = random.Random(seed)
    state = tmp_path / f"state-{seed}"
    proc = spawn_serve(state)
    try:
        port = wait_for_port(proc)
        job = _submit_batch(port)
        # The submitted record (with the full request) is already durable;
        # a kill from here on may land before, during, or after the batch.
        time.sleep(rng.uniform(0.0, 0.45))
        proc.kill()  # SIGKILL: no handler, no flush, no goodbye
    finally:
        proc.wait(timeout=60)

    proc = spawn_serve(state, "--resume")
    try:
        port = wait_for_port(proc)
        final = _wait_terminal(port, job)
        assert final["state"] == "done", final
        assert final["response"]["counts"]["done"] == 12
        assert _normalize(final["response"]["outcomes"]) == (
            _normalize_reference(reference_outcomes)
        ), f"seed {seed}: resumed batch diverged from the reference"
        code, stderr = _shutdown(proc, port)
        assert code == 0, stderr.decode()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=60)

    _assert_no_duplicate_terminals(state, job)


class TestSigkillChaos:
    @pytest.mark.parametrize("seed", range(4))
    def test_kill_and_resume_reproduces_reference(
        self, tmp_path, seed, reference_outcomes
    ):
        _kill_and_resume(tmp_path, seed, reference_outcomes)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(4, 54))
    def test_kill_and_resume_extended(
        self, tmp_path, seed, reference_outcomes
    ):
        _kill_and_resume(tmp_path, seed, reference_outcomes)


class TestTerminalReplay:
    def test_finished_job_re_reports_verbatim(self, tmp_path):
        """A solve that completed before the kill must come back from the
        journal byte-for-byte — not be re-solved."""
        state = tmp_path / "state"
        proc = spawn_serve(state)
        try:
            port = wait_for_port(proc)
            first = request_json(
                port, "POST", "/v1/solve", solve_payload(small_instance())
            )[1]
            assert first["state"] == "done"
            job = first["job"]
            proc.kill()
        finally:
            proc.wait(timeout=60)

        proc = spawn_serve(state, "--resume")
        try:
            port = wait_for_port(proc)
            replayed = request_json(port, "GET", f"/v1/status/{job}")[1]
            assert replayed["state"] == "done"
            assert replayed["replayed"] is True
            assert dumps_canonical(replayed["response"]) == dumps_canonical(
                first["response"]
            )
            # Nothing was re-solved: the resumed daemon's solve counter
            # never moved.
            snapshot = request_json(port, "GET", "/v1/status")[1]
            assert "service.solves" not in snapshot["metrics"]["counters"]
            code, stderr = _shutdown(proc, port)
            assert code == 0, stderr.decode()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)

    def test_frozen_status_bytes_survive_resume(self, tmp_path):
        """The ``wait: true`` reply, the status body before the kill and
        the status body after ``--resume`` are all byte-equal to the
        journaled terminal record (only ``replayed`` flips)."""
        state = tmp_path / "state"
        proc = spawn_serve(state)
        try:
            port = wait_for_port(proc)
            waited = request_bytes(
                port, "POST", "/v1/solve", solve_payload(small_instance())
            )[1]
            job = json.loads(waited)["job"]
            polled = request_bytes(port, "GET", f"/v1/status/{job}")[1]
            proc.kill()
        finally:
            proc.wait(timeout=60)
        live = journaled_status_body(state, job, replayed=False)
        assert waited == live
        assert polled == live

        proc = spawn_serve(state, "--resume")
        try:
            port = wait_for_port(proc)
            resumed = request_bytes(port, "GET", f"/v1/status/{job}")[1]
            assert resumed == journaled_status_body(state, job, replayed=True)
            code, stderr = _shutdown(proc, port)
            assert code == 0, stderr.decode()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)

    def test_resume_refused_without_flag(self, tmp_path):
        state = tmp_path / "state"
        proc = spawn_serve(state)
        try:
            port = wait_for_port(proc)
            request_json(
                port, "POST", "/v1/solve", solve_payload(small_instance())
            )
            proc.kill()
        finally:
            proc.wait(timeout=60)

        proc = spawn_serve(state)  # no --resume: must refuse, exit 4
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 4, (stdout, stderr)
        assert b"--resume" in stderr


class TestLegacyJournal:
    def test_unfinished_jobs_with_learning_field_resume(self, tmp_path):
        """A daemon from before the ``learning`` wire field was retired
        journaled it (as ``false``) in every request; its unfinished solve
        and batch jobs still run to ``done`` on ``--resume``."""
        solve = SolveRequest.from_dict(solve_payload(small_instance()))
        batch = BatchRequest.from_dict(
            {"entries": _batch_payload()["entries"][:2]}
        )
        state = tmp_path / "state"
        state.mkdir()
        with JournalWriter(
            str(state / SERVICE_JOURNAL), fsync=False, kinds=JOB_RECORD_KINDS
        ) as writer:
            writer.append("service-start", data={"resumed": False, "pending": 0})
            for job, request in (("job-000001", solve), ("job-000002", batch)):
                wire = dict(request.to_dict(), learning=False)
                writer.append(
                    "submitted", job,
                    {"kind": wire["kind"], "tenant": "public", "request": wire},
                )

        proc = spawn_serve(state, "--resume")
        try:
            port = wait_for_port(proc)
            solved = _wait_terminal(port, "job-000001")
            assert solved["state"] == "done", solved
            assert solved["response"]["answer"]["status"] == "sat"
            batched = _wait_terminal(port, "job-000002")
            assert batched["state"] == "done", batched
            assert batched["response"]["counts"]["done"] == 2
            code, stderr = _shutdown(proc, port)
            assert code == 0, stderr.decode()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)


class TestSigtermGraceful:
    def test_sigterm_journals_interrupted_and_exits_5(self, tmp_path):
        state = tmp_path / "state"
        proc = spawn_serve(state)
        interrupted_midway = True
        try:
            port = wait_for_port(proc)
            job = _submit_batch(port)
            time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
        finally:
            stdout, stderr = proc.communicate(timeout=60)

        if proc.returncode == 0:
            # The batch won the race and finished before the signal
            # landed; nothing to resume, but the invariants still hold.
            interrupted_midway = False
        else:
            assert proc.returncode == 5, stderr.decode()
            records = read_journal(
                str(state / SERVICE_JOURNAL), kinds=JOB_RECORD_KINDS
            ).records
            assert records[-1]["kind"] == "interrupted"

        proc = spawn_serve(state, "--resume")
        try:
            port = wait_for_port(proc)
            final = _wait_terminal(port, job)
            assert final["state"] == "done"
            assert final["response"]["counts"]["done"] == 12
            if interrupted_midway:
                assert final["replayed"] in (True, False)  # job survived
            code, their_stderr = _shutdown(proc, port)
            assert code == 0, their_stderr.decode()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)

        _assert_no_duplicate_terminals(state, job)
