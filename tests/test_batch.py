"""The crash-safe batch runtime: manifests, journal state machine,
watchdogs, checkpointed slices, graceful shutdown, and resume.

The SIGKILL chaos tests (subprocess hard kills at random points) live in
``test_batch_resume.py``; this file drives the runner in-process where
every component — clock, memory probe, stop event — is injectable.
"""

import json
import threading

import pytest

from repro.core.boxes import make_instance
from repro.core.opp import SolverOptions
from repro.io.journal import JOURNAL_NAME, read_journal
from repro.runtime import (
    BatchRunner,
    ManifestEntry,
    ManifestError,
    Watchdog,
    WatchdogLimits,
    entries_from_instances,
    load_manifest,
    run_batch,
)
from repro.io.serialize import instance_to_dict


def _sat():
    return make_instance([(2, 2, 2), (2, 2, 2)], (4, 4, 4))


def _unsat():
    return make_instance([(4, 4, 4), (4, 4, 4)], (4, 4, 4))


def _hard():
    """Bounds and heuristics both fail here (verified), forcing a search
    with real nodes — the instance the watchdog/checkpoint tests need."""
    return make_instance(
        [(4, 4, 2), (3, 1, 1), (3, 3, 1), (1, 2, 1), (4, 4, 1), (1, 2, 1)],
        (4, 4, 4),
        [(3, 4), (5, 4)],
    )


def _slow():
    """A feasible instance whose raw search (no bounds, no heuristics)
    takes ~13k nodes / hundreds of milliseconds — long enough that tiny
    watchdog limits and checkpoint slices reliably fire mid-solve."""
    import random

    from repro.instances import random_feasible_instance

    instance, _ = random_feasible_instance(
        random.Random(31), (6, 6, 6), 9, precedence_density=0.4
    )
    return instance


_SLOW_OPTIONS = SolverOptions(use_bounds=False, use_heuristics=False)


class TestManifest:
    def test_json_list(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                [
                    {"id": "a", "instance": instance_to_dict(_sat())},
                    {"instance": instance_to_dict(_unsat()), "time_limit": 9},
                ]
            )
        )
        entries = load_manifest(str(path))
        assert [e.instance_id for e in entries] == ["a", "inst-0001"]
        assert entries[1].time_limit == 9

    def test_jsonl(self, tmp_path):
        path = tmp_path / "m.jsonl"
        lines = [
            json.dumps({"id": "x", "instance": instance_to_dict(_sat())}),
            "",
            json.dumps(instance_to_dict(_unsat())),  # bare instance entry
        ]
        path.write_text("\n".join(lines))
        entries = load_manifest(str(path))
        assert [e.instance_id for e in entries] == ["x", "inst-0001"]

    def test_directory(self, tmp_path):
        mdir = tmp_path / "instances"
        mdir.mkdir()
        (mdir / "beta.json").write_text(json.dumps(instance_to_dict(_sat())))
        (mdir / "alpha.json").write_text(
            json.dumps({"instance": instance_to_dict(_unsat())})
        )
        entries = load_manifest(str(mdir))
        assert [e.instance_id for e in entries] == ["alpha", "beta"]

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        entry = {"id": "dup", "instance": instance_to_dict(_sat())}
        path.write_text(json.dumps([entry, entry]))
        with pytest.raises(ManifestError):
            load_manifest(str(path))

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('"just a string"')
        with pytest.raises(ManifestError):
            load_manifest(str(path))

    def test_entry_validation(self):
        with pytest.raises(ManifestError):
            ManifestEntry("a", _sat(), time_limit=-1)
        with pytest.raises(ManifestError):
            ManifestEntry("", _sat())

    def test_round_trip_through_journal_encoding(self):
        entry = ManifestEntry("a", _sat(), time_limit=3, memory_limit_mb=64)
        again = ManifestEntry.from_dict(entry.to_dict(), default_id="?")
        assert again.instance_id == "a"
        assert again.time_limit == 3
        assert again.memory_limit_mb == 64
        assert [b.widths for b in again.instance.boxes] == [
            b.widths for b in entry.instance.boxes
        ]


class TestWatchdog:
    def test_unlimited_never_trips(self):
        dog = Watchdog(WatchdogLimits())
        assert dog.check() is None
        assert not dog.should_stop()
        assert dog.remaining() is None

    def test_time_limit_trips_and_latches(self):
        clock = iter([0.0, 0.5, 2.0, 99.0]).__next__
        dog = Watchdog(WatchdogLimits(time_limit=1.0), clock=clock)
        assert dog.check() is None
        assert dog.check() == "timed-out"
        assert dog.tripped == "timed-out"
        assert dog.check() == "timed-out"  # latched; clock not consulted

    def test_memory_limit_trips(self):
        dog = Watchdog(
            WatchdogLimits(memory_limit_mb=1),
            memory_probe=lambda: 2 * 1024 * 1024,
        )
        assert dog.check() == "memory-limited"
        assert "memory limit exceeded" in dog.detail

    def test_unobservable_memory_never_trips(self):
        dog = Watchdog(
            WatchdogLimits(memory_limit_mb=1), memory_probe=lambda: None
        )
        assert dog.check() is None

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            WatchdogLimits(time_limit=0)
        with pytest.raises(ValueError):
            WatchdogLimits(memory_limit_mb=-5)


class TestWatchdogPollInterval:
    """The memory-probe throttle (``poll_interval``).

    The regression scenario: an allocation spike that rises and falls
    entirely *between* two probes at the default 50 ms cadence is invisible
    — the process would be OOM-killed before the watchdog ever saw it — and
    a tightened interval is what catches it.
    """

    class _Clock:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            return self.now

    def _spiking_watchdog(self, **kwargs):
        """RSS spikes to 64 MiB only during (0.015s, 0.035s); 32 MiB limit."""
        from repro.runtime.watchdog import Watchdog

        clock = self._Clock()
        probe = lambda: (
            64 * 1024 * 1024 if 0.015 <= clock.now <= 0.035 else 1024 * 1024
        )
        dog = Watchdog(
            WatchdogLimits(memory_limit_mb=32),
            clock=clock,
            memory_probe=probe,
            **kwargs,
        )
        return dog, clock

    def _drive(self, dog, clock):
        for step in range(21):  # 5 ms cadence across the first 100 ms
            clock.now = step * 0.005
            if dog.check() is not None:
                break
        return dog.tripped

    def test_default_interval_misses_a_fast_spike(self):
        dog, clock = self._spiking_watchdog()
        assert dog.poll_interval == 0.05
        assert self._drive(dog, clock) is None

    def test_tight_interval_catches_the_same_spike(self):
        dog, clock = self._spiking_watchdog(poll_interval=0.01)
        assert self._drive(dog, clock) == "memory-limited"

    def test_non_positive_interval_rejected(self):
        with pytest.raises(ValueError, match="poll_interval"):
            self._spiking_watchdog(poll_interval=0.0)


class TestBatchRun:
    def test_journal_records_full_lifecycle(self, tmp_path):
        entries = [ManifestEntry("s", _sat()), ManifestEntry("u", _unsat())]
        result = run_batch(entries, str(tmp_path), fsync=False)
        assert result.ok
        assert result.outcomes["s"].kind == "done"
        assert result.outcomes["s"].status == "sat"
        assert result.outcomes["u"].status == "unsat"
        assert result.outcomes["s"].certification["verdict"] == "certified"
        kinds = [
            r["kind"] for r in read_journal(str(tmp_path / JOURNAL_NAME)).records
        ]
        assert kinds[0] == "batch-start"
        assert kinds[-1] == "batch-complete"
        assert kinds.count("admitted") == 2
        assert kinds.count("done") == 2

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        entries = entries_from_instances([_sat()])
        run_batch(entries, str(tmp_path), fsync=False)
        with pytest.raises(ValueError, match="resume"):
            run_batch(entries, str(tmp_path), fsync=False)

    def test_resume_of_complete_batch_replays_without_solving(self, tmp_path):
        entries = [ManifestEntry("s", _sat())]
        first = run_batch(entries, str(tmp_path), fsync=False)

        def exploding_solver(*args, **kwargs):  # pragma: no cover
            raise AssertionError("a completed instance was re-solved")

        runner = BatchRunner(str(tmp_path), fsync=False)
        runner._solve_once = exploding_solver
        second = runner.resume()
        assert second.identity() == first.identity()
        assert second.outcomes["s"].replayed

    def test_checkpoint_slices_are_journaled_and_answer_matches(self, tmp_path):
        # Tiny slices force mid-solve checkpoints; the sliced answer must
        # equal the unsliced one (the resume replays the decision prefix).
        # The instance needs a genuinely long search (bounds and heuristics
        # off, ~13k nodes) or no slice boundary is ever crossed.
        instance = _slow()
        baseline = run_batch(
            [ManifestEntry("h", instance)],
            str(tmp_path / "one-shot"),
            options=_SLOW_OPTIONS,
            checkpoint_interval=None,
            certify=False,
            fsync=False,
        )
        sliced = run_batch(
            [ManifestEntry("h", instance)],
            str(tmp_path / "sliced"),
            options=_SLOW_OPTIONS,
            checkpoint_interval=0.02,
            certify=False,
            fsync=False,
        )
        assert sliced.outcomes["h"].status == baseline.outcomes["h"].status
        assert sliced.outcomes["h"].positions == baseline.outcomes["h"].positions
        kinds = [
            r["kind"]
            for r in read_journal(
                str(tmp_path / "sliced" / JOURNAL_NAME)
            ).records
        ]
        assert "checkpointed" in kinds

    def test_watchdog_timeout_is_terminal_with_incident(self, tmp_path):
        entries = [
            ManifestEntry("slow", _slow(), time_limit=0.05),
            ManifestEntry("fast", _sat()),
        ]
        result = run_batch(
            entries,
            str(tmp_path),
            options=_SLOW_OPTIONS,
            checkpoint_interval=0.01,
            fsync=False,
        )
        assert result.outcomes["slow"].kind == "timed-out"
        assert result.outcomes["fast"].kind == "done"  # others unaffected
        incidents = [
            json.loads(line)
            for line in (tmp_path / "incidents.jsonl").read_text().splitlines()
        ]
        assert any(i["kind"] == "timed-out" for i in incidents)
        assert not result.interrupted

    def test_memory_watchdog_trips_via_probe(self, tmp_path):
        result = run_batch(
            [ManifestEntry("fat", _slow(), memory_limit_mb=1)],
            str(tmp_path),
            options=_SLOW_OPTIONS,
            checkpoint_interval=0.01,
            memory_probe=lambda: 1 << 34,  # pretend 16 GiB RSS
            fsync=False,
        )
        assert result.outcomes["fat"].kind == "memory-limited"
        assert "memory limit exceeded" in result.outcomes["fat"].detail

    def test_quarantine_on_certification_failure(self, tmp_path):
        # A solver whose witness is corrupted end-to-end: patch the result's
        # payload extraction by corrupting positions post-solve.
        from repro.core.opp import solve_opp

        runner = BatchRunner(str(tmp_path), fsync=False)
        original = runner._solve_once

        def corrupting(instance, time_limit, resume_from, should_stop):
            result = original(instance, time_limit, resume_from, should_stop)
            if result.placement is not None:
                result.placement.positions[1] = result.placement.positions[0]
            return result

        runner._solve_once = corrupting
        result = runner.run([ManifestEntry("bad", _sat())])
        assert result.outcomes["bad"].kind == "quarantined"
        assert not result.ok
        incidents = (tmp_path / "incidents.jsonl").read_text()
        assert "certification-failure" in incidents

    def test_graceful_stop_interrupts_and_resume_completes(self, tmp_path):
        stop = threading.Event()
        entries = [
            ManifestEntry("first", _sat()),
            ManifestEntry("second", _hard(), ),
            ManifestEntry("third", _unsat()),
        ]
        runner = BatchRunner(
            str(tmp_path),
            checkpoint_interval=0.005,
            stop_event=stop,
            certify=False,
            fsync=False,
        )
        original = runner._solve_once
        calls = []

        def stopping(instance, time_limit, resume_from, should_stop):
            calls.append(1)
            if len(calls) == 2:  # trip the event mid-batch
                stop.set()
            return original(instance, time_limit, resume_from, should_stop)

        runner._solve_once = stopping
        result = runner.run(entries)
        assert result.interrupted
        assert "third" not in result.outcomes
        kinds = [
            r["kind"] for r in read_journal(str(tmp_path / JOURNAL_NAME)).records
        ]
        assert kinds[-1] == "interrupted"

        resumed = BatchRunner(str(tmp_path), certify=False, fsync=False).resume()
        assert not resumed.interrupted
        assert resumed.outcomes["first"].replayed
        assert resumed.outcomes["second"].kind == "done"
        assert resumed.outcomes["third"].status == "unsat"

    def test_per_instance_limits_override_defaults(self, tmp_path):
        entries = [
            ManifestEntry("quick", _sat(), time_limit=30),
            ManifestEntry("strict", _slow(), time_limit=0.05),
        ]
        result = run_batch(
            entries,
            str(tmp_path),
            options=_SLOW_OPTIONS,
            time_limit=120,  # batch default; "strict" overrides it down
            checkpoint_interval=0.01,
            fsync=False,
        )
        assert result.outcomes["quick"].kind == "done"
        assert result.outcomes["strict"].kind == "timed-out"

    def test_run_batch_accepts_bare_instances(self, tmp_path):
        result = run_batch([_sat(), _unsat()], str(tmp_path), fsync=False)
        assert sorted(result.outcomes) == ["inst-0000", "inst-0001"]

    def test_unknown_without_checkpoint_fails_with_incident(self, tmp_path):
        # A solver that gives up without leaving a checkpoint can be neither
        # resumed nor retried meaningfully: the runner must fail the
        # instance instead of spinning on it.
        runner = BatchRunner(str(tmp_path), fsync=False)
        original = runner._solve_once

        def giving_up(instance, time_limit, resume_from, should_stop):
            from repro.core.opp import SolverOptions, solve_opp

            result = solve_opp(instance, options=SolverOptions(node_limit=1))
            result.checkpoint = None
            return result

        runner._solve_once = giving_up
        result = runner.run([ManifestEntry("n", _hard())])
        outcome = result.outcomes["n"]
        assert outcome.kind == "failed"
        assert not result.ok
        assert (
            "without a resumable checkpoint"
            in (tmp_path / "incidents.jsonl").read_text()
        )

    def test_stalled_checkpoint_fails_instead_of_spinning(self, tmp_path):
        # Same checkpoint twice in a row means the solver is not advancing;
        # the stall guard must convert that into a terminal failure.
        from repro.core.opp import solve_opp

        stuck = solve_opp(_hard(), options=SolverOptions(node_limit=1))
        assert stuck.status == "unknown" and stuck.checkpoint is not None

        runner = BatchRunner(str(tmp_path), fsync=False)
        runner._solve_once = lambda *a, **k: stuck
        result = runner.run([ManifestEntry("n", _hard())])
        assert result.outcomes["n"].kind == "failed"
        assert "no progress" in (tmp_path / "incidents.jsonl").read_text()

    def test_telemetry_counters(self, tmp_path):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        run_batch(
            [ManifestEntry("s", _sat())],
            str(tmp_path),
            telemetry=telemetry,
            fsync=False,
        )
        metrics = telemetry.metrics.snapshot()
        assert metrics["counters"]["batch.instances"] == 1
        assert metrics["counters"]["batch.done"] == 1
