"""End-to-end deadline propagation and anytime graceful degradation.

Covers the deadline object itself (wire round trip, margin ownership),
the one shared backoff vocabulary, and how each solver layer behaves when
the deadline trips: bare unknowns carry ``stats.limit == "deadline"``,
optimization sweeps degrade to a *certified incumbent* plus proven
bounds, Pareto sweeps keep their exact prefix, the watchdog folds the
deadline into its sticky trip mechanism, and admission refuses provably
unmeetable requests up front.

Determinism: every test drives a fake clock or a generous real deadline —
nothing here sleeps for its answer.
"""

import time

import pytest

from repro.certify import certify_payload
from repro.core.bmp import DEGRADED, minimize_area, minimize_base
from repro.core.boxes import Box, make_instance
from repro.core.deadline import (
    DEADLINE_LIMIT,
    DEFAULT_MARGIN,
    Deadline,
    DeadlineError,
)
from repro.core.opp import OPPResult, SolverOptions, solve_opp
from repro.core.pareto import pareto_front
from repro.core.spp import minimize_makespan
from repro.graphs import DiGraph
from repro.io.backoff import BackoffPolicy
from repro.runtime.watchdog import Watchdog, WatchdogLimits
from repro.service.admission import AdmissionController, AdmissionError


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def boxes_of(widths):
    return [Box(w, name=f"b{i}") for i, w in enumerate(widths)]


def chain_dag(n):
    return DiGraph(n, [(i, i + 1) for i in range(n - 1)])


class TestDeadline:
    def test_after_and_remaining(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, margin=0.5, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert deadline.solver_budget() == pytest.approx(1.5)
        clock.advance(1.9)
        assert not deadline.expired()
        assert deadline.solver_budget() == pytest.approx(0.0)
        clock.advance(0.2)
        assert deadline.expired()

    def test_margin_is_reserved_not_elastic(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, margin=0.25, clock=clock)
        clock.advance(0.8)
        # 200 ms remain on the wall but the margin owns 250: budget is 0.
        assert deadline.remaining() == pytest.approx(0.2)
        assert deadline.solver_budget() == 0.0

    def test_wire_round_trip_reanchors(self):
        sender = FakeClock(10.0)
        receiver = FakeClock(99999.0)  # a different host's monotonic epoch
        deadline = Deadline.after(3.0, clock=sender)
        wire = deadline.to_wire()
        assert wire == 3000
        landed = Deadline.from_wire(wire, clock=receiver)
        assert landed.remaining() == pytest.approx(3.0)

    def test_wire_validation(self):
        with pytest.raises(DeadlineError):
            Deadline.from_wire(0)
        with pytest.raises(DeadlineError):
            Deadline.from_wire(-5)
        with pytest.raises(DeadlineError):
            Deadline.from_wire(True)
        with pytest.raises(DeadlineError):
            Deadline.from_wire("1000")
        with pytest.raises(DeadlineError):
            Deadline.after(0)
        with pytest.raises(DeadlineError):
            Deadline.after(1.0, margin=-0.1)

    def test_clip(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, margin=0.5, clock=clock)
        assert deadline.clip(None) == pytest.approx(1.5)
        assert deadline.clip(1.0) == pytest.approx(1.0)
        assert deadline.clip(9.0) == pytest.approx(1.5)


class TestBackoffPolicy:
    def test_deterministic_delay_doubles_and_caps(self):
        policy = BackoffPolicy(base=0.1, cap=0.35)
        assert [policy.delay(i) for i in (1, 2, 3, 4)] == [
            0.1, 0.2, 0.35, 0.35,
        ]

    def test_jittered_stays_in_envelope(self):
        import random

        policy = BackoffPolicy(base=0.1, cap=2.0)
        rng = random.Random(7)
        for attempt in range(1, 8):
            draw = policy.jittered(attempt, rng)
            assert 0.0 <= draw <= policy.delay(attempt)

    def test_sleep_clips_to_remaining(self):
        policy = BackoffPolicy(base=10.0, cap=10.0)
        slept = []
        waited = policy.sleep(
            1, remaining=0.05, sleeper=slept.append
        )
        assert waited <= 0.05
        assert slept == [waited] if waited > 0 else slept == []

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=-1)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.5)


class TestSolveDeadline:
    def test_expired_deadline_returns_unknown_with_deadline_limit(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        clock.advance(5.0)
        instance = make_instance([(2, 2, 1), (1, 1, 2)], (3, 3, 3))
        result = solve_opp(
            instance, options=SolverOptions(deadline=deadline)
        )
        assert result.status == "unknown"
        assert result.stats.limit == DEADLINE_LIMIT

    def test_generous_deadline_changes_nothing(self):
        instance = make_instance([(2, 2, 1), (1, 1, 2)], (3, 3, 3))
        plain = solve_opp(instance)
        bounded = solve_opp(
            instance,
            options=SolverOptions(deadline=Deadline.after(60.0)),
        )
        assert bounded.status == plain.status == "sat"
        assert bounded.stats.nodes == plain.stats.nodes


class TestDegradedSweeps:
    def test_bmp_degrades_to_certified_incumbent(self, monkeypatch):
        """Trip the deadline mid-binary-search: the result must carry the
        incumbent placement, the proven bounds, and the degraded marker."""
        clock = FakeClock()
        deadline = Deadline.after(10.0, margin=0.0, clock=clock)
        # Five 3x3 unit-duration modules at time bound 1: the volume lower
        # bound (7) is unsat, the doubling phase certifies an incumbent,
        # and the binary search still has probes left — the deadline trips
        # on the third probe, mid-refinement.
        boxes = boxes_of([(3, 3, 1)] * 5)
        probes = {"n": 0}

        import repro.core.bmp as bmp_mod

        original = bmp_mod._ProbeRunner._solve_once

        def tripping(self, instance, resume_from):
            probes["n"] += 1
            if probes["n"] >= 3:
                clock.advance(100.0)  # the deadline expires mid-sweep
            return original(self, instance, resume_from)

        monkeypatch.setattr(bmp_mod._ProbeRunner, "_solve_once", tripping)
        result = minimize_base(boxes, time_bound=1, deadline=deadline)
        assert probes["n"] >= 3
        assert result.status == DEGRADED
        assert result.degraded is not None
        assert result.degraded["reason"] == DEADLINE_LIMIT
        assert result.placement is not None
        assert result.upper is not None
        assert result.lower is not None
        assert result.degraded["gap"] == result.upper - result.lower

    def test_deadline_after_sat_probe_keeps_the_incumbent(self):
        """Five 3x3x1 modules at h_t = 1 probe side 7 (unsat), 14 and 11
        (sat), then 9, which stops on a per-decision cap just as the
        deadline runs out.  The sweep returns the certified side-11
        witness as ``degraded`` instead of dropping it."""
        clock = FakeClock(time.monotonic())
        deadline = Deadline.after(10.0, margin=0.0, clock=clock)
        capped = SolverOptions(
            node_limit=1, use_bounds=False, use_heuristics=False
        )
        sides = []

        def engine(instance, *, deadline=None, resume_from=None):
            side = instance.container.sizes[0]
            sides.append(side)
            if side == 9:
                clock.advance(100.0)  # the deadline expires mid-probe
                return solve_opp(
                    instance, options=capped, resume_from=resume_from
                )
            return solve_opp(instance)

        result = minimize_base(
            boxes_of([(3, 3, 1)] * 5),
            time_bound=1,
            opp_solver=engine,
            deadline=deadline,
        )
        assert sides == [7, 14, 11, 9]
        assert result.status == DEGRADED
        assert (result.lower, result.upper) == (8, 11)
        assert result.degraded == {"reason": DEADLINE_LIMIT, "gap": 3}
        witness = result.placement
        assert witness.instance.container.sizes[:2] == (11, 11)
        payload = OPPResult(status="sat", placement=witness).certificate_payload(
            witness.instance
        )
        assert certify_payload(payload).certified

    def test_expired_deadline_yields_marked_unknown(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        clock.advance(5.0)
        result = minimize_base(
            boxes_of([(2, 2, 2), (2, 2, 2)]),
            chain_dag(2),
            time_bound=4,
            deadline=deadline,
        )
        assert result.status == "unknown"
        assert result.degraded is not None
        assert result.degraded["reason"] == DEADLINE_LIMIT

    def test_area_and_spp_accept_deadline(self):
        boxes = boxes_of([(2, 2, 2), (2, 2, 2)])
        area = minimize_area(
            boxes, chain_dag(2), time_bound=4,
            deadline=Deadline.after(60.0),
        )
        assert area.status == "optimal"
        assert area.degraded is None
        spp = minimize_makespan(
            boxes, chain_dag(2), chip=(2, 2),
            deadline=Deadline.after(60.0),
        )
        assert spp.status == "optimal"
        assert spp.degraded is None

    def test_pareto_prefix_is_exact_under_deadline(self):
        boxes = boxes_of([(2, 2, 2), (2, 2, 2)])
        full = pareto_front(boxes, chain_dag(2))
        bounded = pareto_front(
            boxes, chain_dag(2), deadline=Deadline.after(60.0)
        )
        assert bounded.status == full.status
        assert bounded.as_pairs() == full.as_pairs()


class TestWatchdogDeadline:
    def test_deadline_trips_watchdog_first(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, margin=0.25, clock=clock)
        dog = Watchdog(
            WatchdogLimits(time_limit=100.0), clock=clock, deadline=deadline
        )
        assert dog.check() is None
        clock.advance(0.9)
        assert dog.check() == "deadline"
        assert "deadline" in dog.detail
        # Sticky: later checks keep reporting the first trip.
        clock.advance(500.0)
        assert dog.check() == "deadline"

    def test_remaining_is_tightest_budget(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, margin=0.0, clock=clock)
        dog = Watchdog(
            WatchdogLimits(time_limit=1.0), clock=clock, deadline=deadline
        )
        assert dog.remaining() == pytest.approx(1.0)
        tight = Watchdog(
            WatchdogLimits(time_limit=10.0), clock=clock, deadline=deadline
        )
        assert tight.remaining() == pytest.approx(2.0)


class TestDeadlineAdmission:
    def test_unmeetable_deadline_refused_with_retry_after(self):
        clock = FakeClock()
        controller = AdmissionController(
            capacity=8, concurrency=1, clock=clock
        )
        controller.mean_job_seconds = 5.0
        # Fill the run slot so a new ticket must queue behind it.
        first = controller.admit("a")
        controller._start_locked(first)
        expired = Deadline.after(0.5, margin=0.0, clock=clock)
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit("b", deadline=Deadline.after(
                1.0, margin=0.0, clock=clock
            ))
        assert excinfo.value.code == "deadline-unmeetable"
        assert excinfo.value.retry_after >= 5.0
        assert controller.stats.rejected_deadline == 1
        clock.advance(1.0)
        with pytest.raises(AdmissionError):
            controller.admit("b", deadline=expired)

    def test_meetable_deadline_admitted(self):
        controller = AdmissionController(capacity=8, concurrency=2)
        ticket = controller.admit(
            "a", deadline=Deadline.after(30.0)
        )
        assert ticket.tenant == "a"
        assert controller.stats.rejected_deadline == 0

    def test_ewma_tracks_observed_durations(self):
        controller = AdmissionController(capacity=8, concurrency=2)
        before = controller.mean_job_seconds
        ticket = controller.admit("a")
        controller._start_locked(ticket)
        controller.release(ticket, seconds=11.0)
        assert controller.mean_job_seconds > before


class TestDefaultMargin:
    def test_default_margin_is_sane(self):
        # The margin is the server/client's slice for serialization and
        # transport; a quarter second is the documented contract.
        assert DEFAULT_MARGIN == 0.25
