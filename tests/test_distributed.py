"""The distributed tree search: leases, certification, deterministic merge.

The chaos suite proper (real worker processes, SIGKILL schedules) lives in
``tests/test_distributed_chaos.py``; everything here runs on the inline
backend or against the queue/certify layers directly, so it is fast and
fully deterministic.
"""

import itertools
import json
import os

import pytest

from repro.certify import check_subtree_claim, recheck_subtree
from repro.core.boxes import Box, Container, PackingInstance
from repro.core.deadline import Deadline
from repro.core.nogoods import LearningOptions
from repro.core.opp import SolverOptions
from repro.core.search import (
    BranchAndBound,
    CheckpointMismatch,
    SearchCheckpoint,
    SearchStats,
)
from repro.distributed import (
    CoordinatorKilled,
    DistributedOptions,
    DistributedSolver,
    LeaseQueue,
    QUEUE_JOURNAL_NAME,
    SubtreeTask,
    TaskEntry,
    audit_queue_journal,
    prefix_digest,
    replay_queue_journal,
    resume_distributed,
    solve_distributed,
    solve_subtree,
    split_instance,
)
from repro.distributed.coordinator import INCIDENTS_NAME
from repro.instances.random_instances import differential_instances
from repro.io.backoff import BackoffPolicy
from repro.io.journal import JournalWriter
from repro.parallel.faults import DistributedFaultPlan
from repro.distributed.queue import QUEUE_RECORD_KINDS


def fast_options(**kw):
    """Solver options that skip bounds/heuristics so the search stage (and
    therefore the accounting identity with the serial solver) is exercised."""
    return SolverOptions(use_bounds=False, use_heuristics=False, **kw)


def inline_options(**kw):
    kw.setdefault("backend", "inline")
    kw.setdefault("target_tasks", 8)
    kw.setdefault("backoff", BackoffPolicy(base=0.001, cap=0.01))
    kw.setdefault("solver", fast_options())
    return DistributedOptions(**kw)


def unsat_multitask_instance():
    """A seeded instance that is UNSAT and splits into several subtrees."""
    inst = list(itertools.islice(differential_instances(13, 24), 24))[23]
    return inst


def sat_multitask_instance():
    for cand in differential_instances(3, 60):
        solver = BranchAndBound(cand)
        status, _ = solver.solve()
        if status == "sat" and solver.stats.nodes >= 15:
            probe = BranchAndBound(cand)
            if len(probe.split(8).tasks) >= 4:
                return cand
    raise AssertionError("no SAT multi-task instance in the pool")


def make_tasks(n):
    return [
        TaskEntry(
            task=SubtreeTask(
                task_id=f"t{i:04d}", prefix=[], order_index=i, digest=f"d{i}"
            )
        )
        for i in range(n)
    ]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ---------------------------------------------------------------------------
# Lease queue mechanics
# ---------------------------------------------------------------------------


class TestLeaseQueue:
    def test_claims_follow_serial_dfs_order(self):
        q = LeaseQueue(make_tasks(3), clock=FakeClock())
        assert q.claim("w0").order_index == 0
        assert q.claim("w1").order_index == 1
        assert q.claim("w2").order_index == 2
        assert q.claim("w3") is None

    def test_accepted_claim_is_terminal_and_unique(self):
        q = LeaseQueue(make_tasks(1), clock=FakeClock())
        entry = q.claim("w0")
        assert q.complete(entry.task_id, entry.epoch, {"status": "unsat"}) == (
            "accepted"
        )
        # A second claim for a finished task is recorded, never counted.
        assert q.complete(entry.task_id, entry.epoch, {"status": "unsat"}) == (
            "finished"
        )
        assert q.stale_claims == 1
        assert q.all_terminal()

    def test_expired_lease_is_reissued_and_stale_claim_rejected(self):
        clock = FakeClock()
        q = LeaseQueue(make_tasks(1), lease_duration=1.0, clock=clock)
        entry = q.claim("w0")
        old_epoch = entry.epoch
        clock.advance(1.5)
        assert q.expire() == [entry.task_id]
        assert entry.state == "pending"
        assert entry.epoch == old_epoch + 1
        # The stalled worker finally answers: its epoch is fenced out.
        assert q.complete(entry.task_id, old_epoch, {"status": "unsat"}) == (
            "stale"
        )
        assert q.stale_claims == 1
        # The reissued lease settles the task exactly once.
        clock.advance(1.0)  # past the backoff
        entry2 = q.claim("w1")
        assert entry2.epoch == old_epoch + 1
        assert q.complete(entry2.task_id, entry2.epoch, {"status": "unsat"}) == (
            "accepted"
        )

    def test_heartbeat_extends_only_the_current_lease(self):
        clock = FakeClock()
        q = LeaseQueue(make_tasks(1), lease_duration=1.0, clock=clock)
        entry = q.claim("w0")
        clock.advance(0.8)
        assert q.heartbeat(entry.task_id, entry.epoch)
        clock.advance(0.8)  # 1.6 total: would have expired without the beat
        assert q.expire() == []
        assert not q.heartbeat(entry.task_id, entry.epoch + 7)

    def test_backoff_gates_reissued_tasks(self):
        clock = FakeClock()
        q = LeaseQueue(
            make_tasks(1),
            lease_duration=1.0,
            backoff=BackoffPolicy(base=0.5, cap=10.0),
            clock=clock,
        )
        entry = q.claim("w0")
        q.orphan(entry.task_id, entry.epoch, "killed")
        assert q.claim("w0") is None  # backoff not elapsed
        assert q.next_available_in() == pytest.approx(0.5)
        clock.advance(0.6)
        assert q.claim("w0") is not None

    def test_backoff_doubles_up_to_cap(self):
        clock = FakeClock()
        q = LeaseQueue(
            make_tasks(1),
            lease_duration=1.0,
            reissue_budget=10,
            backoff=BackoffPolicy(base=0.5, cap=1.5),
            clock=clock,
        )
        waits = []
        for _ in range(4):
            clock.advance(100.0)
            entry = q.claim("w0")
            q.orphan(entry.task_id, entry.epoch, "killed")
            waits.append(entry.available_at - clock.now)
        assert waits == [0.5, 1.0, 1.5, 1.5]

    def test_reissue_budget_exhaustion_abandons(self):
        clock = FakeClock()
        q = LeaseQueue(
            make_tasks(1),
            reissue_budget=2,
            backoff=BackoffPolicy(base=0.0),
            clock=clock,
        )
        for _ in range(2):
            entry = q.claim("w0")
            q.orphan(entry.task_id, entry.epoch, "killed")
        entry = q.claim("w0")
        q.orphan(entry.task_id, entry.epoch, "killed again")
        assert entry.state == "abandoned"
        assert "budget" in entry.abandon_reason
        assert q.all_terminal()

    def test_release_worker_orphans_every_lease(self):
        q = LeaseQueue(
            make_tasks(2), backoff=BackoffPolicy(base=0.0), clock=FakeClock()
        )
        a, b = q.claim("w0"), q.claim("w0")
        released = q.release_worker("w0", "process died")
        assert released == [a.task_id, b.task_id]
        assert a.state == "pending" and b.state == "pending"

    def test_cancel_beyond_spares_earlier_tasks(self):
        q = LeaseQueue(make_tasks(4), clock=FakeClock())
        assert q.cancel_beyond(1) == ["t0002", "t0003"]
        assert q.claim("w0").order_index == 0

    def test_duplicate_task_ids_rejected(self):
        tasks = make_tasks(1) + make_tasks(1)
        with pytest.raises(ValueError, match="duplicate task id"):
            LeaseQueue(tasks, clock=FakeClock())


# ---------------------------------------------------------------------------
# Journal: replay fencing + offline exactly-once audit
# ---------------------------------------------------------------------------


class TestQueueJournal:
    def write_journal(self, path, records):
        writer = JournalWriter(path, fsync=False, kinds=QUEUE_RECORD_KINDS)
        for kind, task_id, data in records:
            writer.append(kind, task_id, data)
        writer.close()

    def start_record(self, n):
        tasks = [entry.task.to_dict() for entry in make_tasks(n)]
        return ("queue-start", "fp", {"tasks": tasks, "fingerprint": "fp"})

    def test_replay_fences_orphaned_leases(self, tmp_path):
        path = str(tmp_path / QUEUE_JOURNAL_NAME)
        self.write_journal(
            path,
            [
                self.start_record(2),
                ("task-leased", "t0000", {"epoch": 0, "worker": "w0"}),
                ("task-completed", "t0000", {"epoch": 0, "claim": {"status": "unsat"}}),
                ("task-leased", "t0001", {"epoch": 0, "worker": "w1"}),
            ],
        )
        replayed = replay_queue_journal(path)
        assert replayed["fenced"] == ["t0001"]
        by_id = {e.task_id: e for e in replayed["entries"]}
        assert by_id["t0000"].state == "done"
        assert by_id["t0000"].claim == {"status": "unsat"}
        # The orphaned lease came back pending with its epoch bumped, so a
        # zombie claim from the dead coordinator's worker can never land.
        assert by_id["t0001"].state == "pending"
        assert by_id["t0001"].epoch == 1

    def test_audit_passes_a_clean_run(self, tmp_path):
        path = str(tmp_path / QUEUE_JOURNAL_NAME)
        self.write_journal(
            path,
            [
                self.start_record(2),
                ("task-leased", "t0000", {"epoch": 0}),
                ("task-completed", "t0000", {"epoch": 0, "claim": {}}),
                ("task-leased", "t0001", {"epoch": 0}),
                ("task-reissued", "t0001", {"epoch": 1, "reason": "expired"}),
                ("task-leased", "t0001", {"epoch": 1}),
                ("task-completed", "t0001", {"epoch": 1, "claim": {}}),
                ("queue-complete", "fp", {"status": "unsat"}),
            ],
        )
        audit = audit_queue_journal(path)
        assert audit.ok
        assert audit.tasks == 2
        assert audit.completed == 2
        assert audit.reissues == 1

    def test_audit_flags_double_completion(self, tmp_path):
        path = str(tmp_path / QUEUE_JOURNAL_NAME)
        self.write_journal(
            path,
            [
                self.start_record(1),
                ("task-leased", "t0000", {"epoch": 0}),
                ("task-completed", "t0000", {"epoch": 0, "claim": {}}),
                ("task-completed", "t0000", {"epoch": 0, "claim": {}}),
            ],
        )
        audit = audit_queue_journal(path)
        assert not audit.ok
        assert any("second terminal" in v for v in audit.violations)

    def test_audit_flags_lost_subtree(self, tmp_path):
        path = str(tmp_path / QUEUE_JOURNAL_NAME)
        self.write_journal(
            path,
            [
                self.start_record(2),
                ("task-leased", "t0000", {"epoch": 0}),
                ("task-completed", "t0000", {"epoch": 0, "claim": {}}),
            ],
        )
        audit = audit_queue_journal(path)
        assert not audit.ok
        assert any("never reached a terminal state" in v for v in audit.violations)

    def test_audit_flags_stale_epoch_completion(self, tmp_path):
        path = str(tmp_path / QUEUE_JOURNAL_NAME)
        self.write_journal(
            path,
            [
                self.start_record(1),
                ("task-leased", "t0000", {"epoch": 0}),
                ("task-reissued", "t0000", {"epoch": 1, "reason": "expired"}),
                ("task-completed", "t0000", {"epoch": 0, "claim": {}}),
            ],
        )
        audit = audit_queue_journal(path)
        assert not audit.ok
        assert any("does not match lease epoch" in v for v in audit.violations)


# ---------------------------------------------------------------------------
# Split accounting: serial identity of the merged fold
# ---------------------------------------------------------------------------


class TestSplitAccounting:
    @pytest.mark.parametrize("kernel", ["bitmask", "reference"])
    def test_split_plus_subtrees_equals_serial(self, kernel):
        """Every tree node is counted exactly once, on whichever side of
        the frontier it fell: splitter share + subtree claims == serial."""
        checked = 0
        for inst in differential_instances(21, 12):
            serial = BranchAndBound(inst, kernel=kernel)
            status, _ = serial.solve()
            if status != "unsat":
                continue
            split, tasks = split_instance(inst, target=6, kernel=kernel)
            total = SearchStats()
            total.carry(split.stats)
            for task in tasks:
                claim = solve_subtree(
                    inst, task.prefix, fast_options(kernel=kernel)
                )
                assert claim["status"] == "unsat"
                total.carry(SearchStats(**claim["stats"]))
            assert total.canonical_dict() == serial.stats.canonical_dict()
            checked += 1
        assert checked >= 2

    def test_unsat_attestation_shape(self):
        inst = unsat_multitask_instance()
        _, tasks = split_instance(inst, target=8)
        claim = solve_subtree(inst, tasks[0].prefix, fast_options())
        att = claim["attestation"]
        assert att["digest"] == tasks[0].digest
        assert att["nodes"] == claim["stats"]["nodes"] >= 1
        assert claim["positions"] is None

    def test_digest_binds_prefix_and_fingerprint(self):
        assert prefix_digest([(0, 0, 1, 1)], "fp") != prefix_digest(
            [(0, 0, 1, 1)], "other"
        )
        assert prefix_digest([(0, 0, 1, 1)], "fp") != prefix_digest(
            [(0, 0, 1, 2)], "fp"
        )


# ---------------------------------------------------------------------------
# The 50-instance serial-match invariant (inline backend)
# ---------------------------------------------------------------------------


class TestSerialMatch:
    def test_distributed_matches_serial_on_seeded_instances(self, tmp_path):
        """On 50+ seeded instances the distributed verdict matches serial;
        UNSAT merges are byte-identical to the serial canonical stats; and
        every journal passes the exactly-once audit."""
        checked = 0
        for i, inst in enumerate(differential_instances(29, 50)):
            serial = BranchAndBound(inst)
            status, _ = serial.solve()
            run_dir = str(tmp_path / f"run{i}")
            result = solve_distributed(
                inst, inline_options(run_dir=run_dir, fsync=False)
            )
            assert result.status == status
            if status == "unsat":
                assert (
                    result.canonical_stats() == serial.stats.canonical_dict()
                )
            journal = os.path.join(run_dir, QUEUE_JOURNAL_NAME)
            if os.path.exists(journal):
                audit = audit_queue_journal(journal)
                assert audit.ok, audit.violations
                assert audit.completed + audit.cancelled == audit.tasks
            checked += 1
        assert checked == 50

    def test_sat_merge_is_reproducible(self):
        inst = sat_multitask_instance()
        results = [
            solve_distributed(inst, inline_options()) for _ in range(2)
        ]
        assert results[0].status == "sat"
        assert results[0].sat_order == results[1].sat_order
        assert results[0].canonical_stats() == results[1].canonical_stats()
        assert results[0].canonical and results[1].canonical

    def test_sat_placement_is_geometrically_valid(self):
        inst = sat_multitask_instance()
        result = solve_distributed(inst, inline_options())
        assert result.status == "sat"
        assert result.placement is not None
        assert result.placement.is_feasible()


# ---------------------------------------------------------------------------
# Chaos on the inline backend: every recovery path, deterministically
# ---------------------------------------------------------------------------


class TestInlineChaos:
    def run_chaos(self, inst, chaos, tmp_path, **kw):
        run_dir = str(tmp_path / "run")
        options = inline_options(
            run_dir=run_dir,
            fsync=False,
            lease_duration=0.2,
            heartbeat_interval=0.05,
            chaos=chaos,
            **kw,
        )
        result = solve_distributed(inst, options)
        audit = audit_queue_journal(os.path.join(run_dir, QUEUE_JOURNAL_NAME))
        return result, audit, run_dir

    def serial_canon(self, inst):
        serial = BranchAndBound(inst)
        status, _ = serial.solve()
        return status, serial.stats.canonical_dict()

    def test_worker_kill_recovers_via_reissue(self, tmp_path):
        inst = unsat_multitask_instance()
        status, canon = self.serial_canon(inst)
        result, audit, _ = self.run_chaos(
            inst, DistributedFaultPlan(kill_at_task=1), tmp_path
        )
        assert result.status == status
        assert result.reissues >= 1
        assert result.canonical_stats() == canon
        assert audit.ok, audit.violations
        assert any(f.kind == "worker_killed" for f in result.faults)

    def test_stalled_worker_claim_is_stale_never_double_counted(self, tmp_path):
        inst = unsat_multitask_instance()
        status, canon = self.serial_canon(inst)
        result, audit, _ = self.run_chaos(
            inst,
            DistributedFaultPlan(stall_at_task=1, stall_seconds=0.4),
            tmp_path,
        )
        assert result.status == status
        assert result.stale_claims >= 1
        assert result.canonical_stats() == canon
        assert audit.ok, audit.violations

    def test_partitioned_worker_loses_lease(self, tmp_path):
        inst = unsat_multitask_instance()
        status, canon = self.serial_canon(inst)
        result, audit, _ = self.run_chaos(
            inst, DistributedFaultPlan(drop_heartbeats_at_task=2), tmp_path
        )
        assert result.status == status
        assert result.reissues >= 1
        assert result.canonical_stats() == canon
        assert audit.ok, audit.violations

    def assert_quarantined(self, result, run_dir):
        """The forged claim left a machine-readable incident record."""
        assert result.refuted_claims >= 1
        incidents_path = os.path.join(run_dir, INCIDENTS_NAME)
        assert os.path.exists(incidents_path)
        with open(incidents_path, encoding="utf-8") as handle:
            incidents = [json.loads(line) for line in handle]
        assert all(i["reason"] for i in incidents)
        assert any(f.kind == "claim_refuted" for f in result.faults)

    def test_fabricated_sat_is_refuted_by_the_checker(self, tmp_path):
        """A worker forging SAT on an UNSAT subtree fails the standalone
        placement checker; the subtree is re-searched and the merged stats
        still match serial byte for byte."""
        inst = unsat_multitask_instance()
        status, canon = self.serial_canon(inst)
        result, audit, run_dir = self.run_chaos(
            inst,
            DistributedFaultPlan(lie_at_task=0, lie_mode="flip_status"),
            tmp_path,
        )
        assert result.status == status == "unsat"
        assert result.canonical_stats() == canon
        assert audit.ok, audit.violations
        self.assert_quarantined(result, run_dir)

    def test_suppressed_sat_is_refuted_by_the_attestation_gate(self, tmp_path):
        """A worker stripping a SAT witness down to a fake UNSAT claim is
        caught structurally: its verified-leaf counters cannot describe an
        exhaustive refutation."""
        inst = sat_multitask_instance()
        clean = solve_distributed(inst, inline_options())
        assert clean.status == "sat"
        result, audit, run_dir = self.run_chaos(
            inst,
            DistributedFaultPlan(
                lie_at_task=clean.sat_order, lie_mode="flip_status"
            ),
            tmp_path,
        )
        assert result.status == "sat"
        assert result.sat_order == clean.sat_order
        assert audit.ok, audit.violations
        self.assert_quarantined(result, run_dir)

    def test_reissue_budget_exhaustion_is_an_explicit_unknown(self, tmp_path):
        inst = unsat_multitask_instance()

        class AlwaysKill(DistributedFaultPlan):
            """Kills every lease of the task, not just the first one."""

            def fires(self, trigger, order_index, epoch):
                return getattr(self, trigger) == order_index

        chaos = AlwaysKill(kill_at_task=1)
        result, audit, _ = self.run_chaos(
            inst, chaos, tmp_path, reissue_budget=2
        )
        assert result.status == "unknown"
        assert result.abandoned == 1
        assert "abandoned" in (result.stats.limit or "")
        assert audit.ok, audit.violations


# ---------------------------------------------------------------------------
# Coordinator kill + resume
# ---------------------------------------------------------------------------


class TestCoordinatorResume:
    def test_coordinator_kill_then_resume_completes_exactly_once(
        self, tmp_path
    ):
        inst = unsat_multitask_instance()
        serial = BranchAndBound(inst)
        status, _ = serial.solve()
        canon = serial.stats.canonical_dict()
        run_dir = str(tmp_path / "run")
        options = inline_options(
            run_dir=run_dir,
            fsync=False,
            chaos=DistributedFaultPlan(coordinator_kill_after=2),
        )
        with pytest.raises(CoordinatorKilled) as excinfo:
            solve_distributed(inst, options)
        assert excinfo.value.run_dir == run_dir
        # No terminal record for the whole queue: the journal looks crashed.
        mid = replay_queue_journal(
            os.path.join(run_dir, QUEUE_JOURNAL_NAME)
        )
        assert mid["complete"] is None
        result = resume_distributed(run_dir, inline_options())
        assert result.resumed
        assert result.status == status
        assert result.canonical_stats() == canon
        audit = audit_queue_journal(os.path.join(run_dir, QUEUE_JOURNAL_NAME))
        assert audit.ok, audit.violations
        assert audit.completed + audit.cancelled == audit.tasks

    def test_resume_journals_fence_records_for_orphaned_leases(self, tmp_path):
        """A lease outstanding at the crash shows up in the resumed journal
        as an explicit epoch-bumping reissue, keeping the audit chain whole."""
        inst = unsat_multitask_instance()
        run_dir = str(tmp_path / "run")
        result = solve_distributed(
            inst, inline_options(run_dir=run_dir, fsync=False)
        )
        assert result.status == "unsat"
        path = os.path.join(run_dir, QUEUE_JOURNAL_NAME)
        # Forge a crash: truncate the journal right after the first lease.
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        keep = []
        for line in lines:
            keep.append(line)
            if json.loads(line)["kind"] == "task-leased":
                break
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(keep)
        resumed = resume_distributed(run_dir, inline_options())
        assert resumed.status == "unsat"
        audit = audit_queue_journal(path)
        assert audit.ok, audit.violations
        with open(path, encoding="utf-8") as handle:
            kinds_reasons = [
                (r["kind"], r.get("data", {}).get("reason", ""))
                for r in map(json.loads, handle)
            ]
        assert any(
            kind == "task-reissued" and "coordinator restart" in reason
            for kind, reason in kinds_reasons
        )

    def test_resume_of_a_completed_run_is_idempotent(self, tmp_path):
        inst = unsat_multitask_instance()
        run_dir = str(tmp_path / "run")
        first = solve_distributed(
            inst, inline_options(run_dir=run_dir, fsync=False)
        )
        again = resume_distributed(run_dir, inline_options())
        assert again.status == first.status
        assert again.canonical_stats() == first.canonical_stats()
        audit = audit_queue_journal(os.path.join(run_dir, QUEUE_JOURNAL_NAME))
        assert audit.ok, audit.violations


# ---------------------------------------------------------------------------
# Certification gate units
# ---------------------------------------------------------------------------


class TestSubtreeCertification:
    def honest_claim(self):
        inst = unsat_multitask_instance()
        _, tasks = split_instance(inst, target=8)
        for task in tasks:  # a multi-node subtree, so a 1-node budget fails
            claim = solve_subtree(inst, task.prefix, fast_options())
            if claim["stats"]["nodes"] > 1:
                return inst, task, claim
        raise AssertionError("every subtree resolved at its root")

    def test_honest_unsat_claim_passes(self):
        _, task, claim = self.honest_claim()
        fp = claim["attestation"]["fingerprint"]
        assert check_subtree_claim(claim, digest=task.digest, fingerprint=fp) == []

    def test_digest_mismatch_is_refuted(self):
        _, task, claim = self.honest_claim()
        fp = claim["attestation"]["fingerprint"]
        violations = check_subtree_claim(
            claim, digest="someone-elses-subtree", fingerprint=fp
        )
        assert any("digest" in v for v in violations)

    def test_inconsistent_leaf_counters_are_refuted(self):
        _, task, claim = self.honest_claim()
        fp = claim["attestation"]["fingerprint"]
        claim["stats"]["leaf_failures"] = claim["stats"]["leaves"] + 1
        violations = check_subtree_claim(
            claim, digest=task.digest, fingerprint=fp
        )
        assert any("exhaustive refutation" in v for v in violations)

    def test_sat_claim_is_not_an_unsat_attestation(self):
        _, task, claim = self.honest_claim()
        claim["status"] = "sat"
        violations = check_subtree_claim(
            claim, digest=task.digest, fingerprint="fp"
        )
        assert violations == ["not an UNSAT claim: status 'sat'"]

    def test_recheck_subtree_agrees_with_honest_unsat(self):
        inst, task, _ = self.honest_claim()
        verdict = recheck_subtree(inst, task.prefix)
        assert verdict.verdict == "certified"
        assert verdict.method == "subtree-recheck"

    def test_recheck_subtree_refutes_a_sat_subtree(self):
        inst = sat_multitask_instance()
        result = solve_distributed(inst, inline_options())
        assert result.status == "sat"
        _, tasks = split_instance(inst, target=8)
        verdict = recheck_subtree(inst, tasks[result.sat_order].prefix)
        assert verdict.verdict == "refuted"

    def test_recheck_subtree_budget_exhaustion_is_inconclusive(self):
        inst, task, _ = self.honest_claim()
        verdict = recheck_subtree(inst, task.prefix, budget_nodes=1)
        assert verdict.verdict == "inconclusive"

    def test_end_to_end_recheck_unsat_accepts_honest_workers(self, tmp_path):
        inst = unsat_multitask_instance()
        result = solve_distributed(
            inst,
            inline_options(
                run_dir=str(tmp_path / "run"), fsync=False, recheck_unsat=True
            ),
        )
        assert result.status == "unsat"
        assert result.refuted_claims == 0


# ---------------------------------------------------------------------------
# Options validation, telemetry, result protocol
# ---------------------------------------------------------------------------


class TestOptionsAndTelemetry:
    def test_option_validation(self):
        with pytest.raises(ValueError, match="workers"):
            DistributedOptions(workers=0)
        with pytest.raises(ValueError, match="backend"):
            DistributedOptions(backend="carrier-pigeon")
        with pytest.raises(ValueError, match="heartbeat_interval"):
            DistributedOptions(lease_duration=1.0, heartbeat_interval=1.0)

    def test_distributed_telemetry_counters_and_report(self):
        from repro.telemetry import Telemetry
        from repro.telemetry.report import render, summarize

        inst = unsat_multitask_instance()
        telemetry = Telemetry()
        result = solve_distributed(
            inst,
            inline_options(chaos=DistributedFaultPlan(kill_at_task=1)),
            telemetry=telemetry,
        )
        assert result.status == "unsat"
        summary = summarize(telemetry)
        assert summary["distributed_tasks"] == result.tasks
        assert summary["distributed_completed"] == result.completed
        assert summary["distributed_reissues"] >= 1
        text = render(telemetry)
        assert "distributed:" in text
        assert f"{result.tasks} subtrees" in text

    def test_result_protocol_fields(self):
        inst = unsat_multitask_instance()
        result = solve_distributed(inst, inline_options())
        assert result.is_unsat and not result.is_sat
        assert result.value is None
        assert result.limit is None
        assert result.stats.elapsed > 0

    def test_deadline_abandons_remaining(self):
        # The margin swallows the whole budget: expired from the start.
        inst = unsat_multitask_instance()
        result = solve_distributed(
            inst, inline_options(deadline=Deadline.after(60.0, margin=60.0))
        )
        assert result.status == "unknown"
        assert result.abandoned == result.tasks
        assert result.stats.limit == "deadline"

    def test_bounds_stage_short_circuits(self):
        # Two 2x2x2 boxes cannot fit a 2x2x2 container: volume bound fires.
        inst = PackingInstance(
            [Box((2, 2, 2)), Box((2, 2, 2))], Container((2, 2, 2))
        )
        result = solve_distributed(
            inst, DistributedOptions(backend="inline")
        )
        assert result.status == "unsat"
        assert result.stage == "bounds"


# ---------------------------------------------------------------------------
# Satellite: structured CheckpointMismatch on learning-store mismatch
# ---------------------------------------------------------------------------


class TestCheckpointLearningMismatch:
    def instance(self):
        return PackingInstance(
            [Box((1, 1, 1)), Box((1, 1, 1))], Container((2, 2, 2))
        )

    def checkpoint(self, restart_round=2, nogoods=True):
        # A foreign checkpoint is *dropped* (recorded as a fault), so the
        # mismatch under test needs this instance's real fingerprint.
        fingerprint = BranchAndBound(self.instance())._fingerprint
        return SearchCheckpoint(
            decisions=[],
            fingerprint=fingerprint,
            restart_round=restart_round,
            nogoods={"nogoods": [], "activity_inc": 1.0} if nogoods else None,
        )

    def test_learning_checkpoint_with_learning_off_raises(self):
        with pytest.raises(CheckpointMismatch) as excinfo:
            BranchAndBound(self.instance(), resume_from=self.checkpoint())
        err = excinfo.value
        assert err.restart_round == 2
        assert err.fingerprint
        assert "restart" in err.reason
        assert isinstance(err, ValueError)

    def test_round_zero_checkpoint_resumes_without_learning(self):
        BranchAndBound(
            self.instance(), resume_from=self.checkpoint(restart_round=0)
        )

    def test_no_store_payload_resumes_without_learning(self):
        BranchAndBound(
            self.instance(), resume_from=self.checkpoint(nogoods=False)
        )

    def test_learning_on_accepts_learning_checkpoint(self):
        BranchAndBound(
            self.instance(),
            resume_from=self.checkpoint(),
            learning=LearningOptions(enabled=True),
        )

    def test_subtree_and_resume_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            BranchAndBound(
                self.instance(),
                resume_from=self.checkpoint(restart_round=0, nogoods=False),
                subtree=[(0, 0, 1, 1)],
            )


# ---------------------------------------------------------------------------
# CLI: the dsolve subcommand
# ---------------------------------------------------------------------------


class TestDsolveCli:
    def write_instance(self, tmp_path):
        from repro.io.serialize import instance_to_dict

        inst = unsat_multitask_instance()
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance_to_dict(inst)))
        return str(path)

    def test_dsolve_unsat_exit_code_and_audit(self, tmp_path, capsys):
        from repro.cli import main

        instance_path = self.write_instance(tmp_path)
        run_dir = str(tmp_path / "run")
        code = main(
            [
                "dsolve",
                instance_path,
                "--backend",
                "inline",
                "--target-tasks",
                "8",
                "--out",
                run_dir,
            ]
        )
        out = capsys.readouterr().out
        assert code == 2  # EXIT_UNSAT
        assert "status: unsat" in out
        assert "merge: canonical" in out
        audit = audit_queue_journal(os.path.join(run_dir, QUEUE_JOURNAL_NAME))
        assert audit.ok, audit.violations

    def test_dsolve_resume_requires_out(self, capsys):
        from repro.cli import main

        assert main(["dsolve", "--resume"]) == 4  # EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_dsolve_requires_instance_or_resume(self, capsys):
        from repro.cli import main

        assert main(["dsolve"]) == 4
