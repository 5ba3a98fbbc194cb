"""Process-backend chaos: real worker processes, real kills.

The inline-backend recovery paths are covered deterministically in
``tests/test_distributed.py``; this suite drives the same fault schedules
through actual ``multiprocessing`` workers — a SIGKILL-style ``os._exit``
mid-subtree, a stall that outlives its lease, a partition that swallows
heartbeats, a coordinator crash resumed from the journal — and asserts the
distributed verdict (and, for UNSAT, the merged canonical stats) still
matches the serial solver, with the journal audit proving exactly-once
accounting.  CI runs this file as the ``distributed-chaos`` job under a
job-level timeout, uploading ``queue.jsonl`` + ``incidents.jsonl`` on
failure.
"""

import itertools
import json
import os

import pytest

from repro.core.deadline import Deadline
from repro.core.opp import SolverOptions
from repro.core.search import BranchAndBound
from repro.distributed import (
    CoordinatorKilled,
    DistributedOptions,
    QUEUE_JOURNAL_NAME,
    audit_queue_journal,
    resume_distributed,
    solve_distributed,
)
from repro.instances.random_instances import differential_instances
from repro.io.backoff import BackoffPolicy
from repro.parallel.faults import DistributedFaultPlan


def unsat_instance():
    """Seeded UNSAT instance whose tree splits into 8 subtree tasks."""
    return list(itertools.islice(differential_instances(13, 24), 24))[23]


def sat_instance():
    for cand in differential_instances(3, 60):
        solver = BranchAndBound(cand)
        status, _ = solver.solve()
        if status == "sat" and solver.stats.nodes >= 15:
            if len(BranchAndBound(cand).split(8).tasks) >= 4:
                return cand
    raise AssertionError("no SAT multi-task instance in the pool")


def serial_canon(inst):
    solver = BranchAndBound(inst)
    status, _ = solver.solve()
    return status, solver.stats.canonical_dict()


def process_options(tmp_path, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("backend", "process")
    kw.setdefault("target_tasks", 8)
    kw.setdefault("backoff", BackoffPolicy(base=0.01, cap=0.1))
    kw.setdefault("fsync", False)
    kw.setdefault("deadline", Deadline.after(120.0, margin=0))
    kw.setdefault("run_dir", str(tmp_path / "run"))
    kw.setdefault(
        "solver", SolverOptions(use_bounds=False, use_heuristics=False)
    )
    return DistributedOptions(**kw)


def audit_of(options):
    audit = audit_queue_journal(
        os.path.join(options.run_dir, QUEUE_JOURNAL_NAME)
    )
    assert audit.ok, audit.violations
    return audit


class TestProcessChaos:
    def test_sigkill_worker_mid_subtree(self, tmp_path):
        """A worker process dies with a real ``os._exit`` mid-subtree: its
        lease is released on reap, the worker respawned, the subtree
        re-searched — nothing lost, nothing double-counted."""
        inst = unsat_instance()
        status, canon = serial_canon(inst)
        options = process_options(
            tmp_path, chaos=DistributedFaultPlan(kill_at_task=1)
        )
        result = solve_distributed(inst, options)
        assert result.status == status
        assert result.canonical_stats() == canon
        assert result.reissues >= 1
        assert result.workers_respawned >= 1
        assert any(f.kind == "worker_killed" for f in result.faults)
        audit_of(options)

    def test_stalled_worker_loses_lease_and_claim(self, tmp_path):
        """A stalled worker stops heartbeating, outlives its lease, and
        finally answers — the late claim must be fenced by its epoch."""
        inst = unsat_instance()
        status, canon = serial_canon(inst)
        options = process_options(
            tmp_path,
            lease_duration=0.3,
            heartbeat_interval=0.1,
            chaos=DistributedFaultPlan(stall_at_task=1, stall_seconds=0.8),
        )
        result = solve_distributed(inst, options)
        assert result.status == status
        assert result.canonical_stats() == canon
        assert result.reissues >= 1
        audit_of(options)

    def test_partitioned_worker_keeps_searching_uselessly(self, tmp_path):
        """A partition stand-in: the worker keeps working but none of its
        heartbeats arrive, and its answer comes back after the lease was
        reissued.  The claim is stale; the reissued lease settles the
        subtree exactly once."""
        inst = unsat_instance()
        status, canon = serial_canon(inst)
        options = process_options(
            tmp_path,
            lease_duration=0.3,
            heartbeat_interval=0.1,
            chaos=DistributedFaultPlan(
                drop_heartbeats_at_task=1,
                stall_at_task=1,
                stall_seconds=0.8,
            ),
        )
        result = solve_distributed(inst, options)
        assert result.status == status
        assert result.canonical_stats() == canon
        assert result.reissues >= 1
        audit_of(options)

    def test_lying_worker_refuted_in_process(self, tmp_path):
        """The certification gate holds across the process boundary."""
        inst = unsat_instance()
        status, canon = serial_canon(inst)
        options = process_options(
            tmp_path,
            chaos=DistributedFaultPlan(lie_at_task=0, lie_mode="flip_status"),
        )
        result = solve_distributed(inst, options)
        assert result.status == status
        assert result.canonical_stats() == canon
        assert result.refuted_claims >= 1
        with open(
            os.path.join(options.run_dir, "incidents.jsonl"),
            encoding="utf-8",
        ) as handle:
            assert any(json.loads(line)["reason"] for line in handle)
        audit_of(options)

    def test_coordinator_kill_and_resume(self, tmp_path):
        """The coordinator dies after two accepted claims; the run comes
        back via resume with the journal's epoch chain intact."""
        inst = unsat_instance()
        status, canon = serial_canon(inst)
        options = process_options(
            tmp_path, chaos=DistributedFaultPlan(coordinator_kill_after=2)
        )
        with pytest.raises(CoordinatorKilled):
            solve_distributed(inst, options)
        result = resume_distributed(
            options.run_dir, process_options(tmp_path)
        )
        assert result.resumed
        assert result.status == status
        assert result.canonical_stats() == canon
        audit = audit_of(options)
        assert audit.completed + audit.cancelled == audit.tasks


class TestWorkerCountInvariance:
    def test_merged_stats_identical_across_worker_counts(self, tmp_path):
        """Same instance, same split target, 1/2/4 workers (and the inline
        backend): the merged canonical stats are byte-identical — worker
        count and scheduling only affect wall clock and wasted work."""
        inst = sat_instance()
        blobs = {}
        for label, kw in (
            ("w1", {"workers": 1}),
            ("w2", {"workers": 2}),
            ("w4", {"workers": 4}),
            ("inline", {"workers": 1, "backend": "inline"}),
        ):
            options = process_options(
                tmp_path, run_dir=str(tmp_path / label), **kw
            )
            result = solve_distributed(inst, options)
            assert result.status == "sat"
            assert result.canonical, label
            blobs[label] = json.dumps(
                result.canonical_stats(), sort_keys=True
            )
            audit_of(options)
        assert len(set(blobs.values())) == 1, blobs
