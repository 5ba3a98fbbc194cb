"""Chaos suite: every injected failure yields a correct verdict or an
explicit ``unknown`` with a machine-readable fault reason — never an
uncaught exception, never a silently wrong answer.

All injection points are seeded/deterministic (:mod:`repro.parallel.faults`),
so a red run here names its exact reproduction.
"""

import random
import time

import pytest

from repro.core import (
    InjectedFault,
    LearningOptions,
    SolverOptions,
    make_instance,
    solve_opp,
)
from repro.instances.random_instances import random_feasible_instance
from repro.io.backoff import BackoffPolicy
from repro.parallel import (
    FaultPlan,
    PortfolioSolver,
    PortfolioConfig,
    ResultCache,
    RetryPolicy,
    corrupt_cache_entry,
)
from repro.parallel.faults import plan_from_env, resolve_plan, NO_FAULTS

SEARCH_HEAVY = [
    [4, 3, 4], [1, 1, 4], [4, 2, 1], [2, 2, 1],
    [3, 2, 2], [2, 1, 2], [2, 1, 4], [1, 4, 2],
]
SEARCH_ONLY = dict(use_bounds=False, use_heuristics=False)


def _instance():
    return make_instance(SEARCH_HEAVY, [4, 5, 6])


def _configs(plan, **extra):
    """Two entrants: a full-featured one and a search-only one (the usual
    fault target, since it is guaranteed to reach the injection node)."""
    return [
        PortfolioConfig("guided", SolverOptions(fault_plan=plan)),
        PortfolioConfig(
            "static", SolverOptions(fault_plan=plan, **(extra or SEARCH_ONLY))
        ),
    ]


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(kill_at_node=0)
        with pytest.raises(ValueError):
            FaultPlan(stall_at_node=3, stall_seconds=-1)

    def test_json_roundtrip(self):
        plan = FaultPlan(raise_at_node=7, target="static", escalate=True)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"explode_at": 3})

    def test_targeting(self):
        plan = FaultPlan(raise_at_node=5, target="static")
        assert resolve_plan(plan, "static") is plan
        assert resolve_plan(plan, "guided") is NO_FAULTS
        assert resolve_plan(None, "anything") is NO_FAULTS


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(entrant_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(pool_rebuilds=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=BackoffPolicy(base=-0.1))
        with pytest.raises(ValueError):
            RetryPolicy(drain_grace=-1.0)

    def test_backoff_exponential_and_capped(self):
        policy = RetryPolicy(backoff=BackoffPolicy(base=0.1, cap=0.35))
        assert policy.backoff.delay(1) == pytest.approx(0.1)
        assert policy.backoff.delay(2) == pytest.approx(0.2)
        assert policy.backoff.delay(3) == pytest.approx(0.35)  # capped
        assert policy.backoff.delay(10) == pytest.approx(0.35)


class TestInjectedRaise:
    def test_contained_raise_yields_explicit_unknown(self):
        result = solve_opp(
            _instance(),
            options=SolverOptions(
                fault_plan=FaultPlan(raise_at_node=10), **SEARCH_ONLY
            ),
        )
        assert result.status == "unknown"
        assert result.stats.limit == "fault:propagation_raise"
        assert [f.kind for f in result.faults] == ["injected"]
        assert result.checkpoint is not None  # resumable after the fault

    def test_escalating_raise_escapes_like_a_real_bug(self):
        plan = FaultPlan(raise_at_node=10, escalate=True)
        with pytest.raises(InjectedFault):
            solve_opp(
                _instance(),
                options=SolverOptions(fault_plan=plan, **SEARCH_ONLY),
            )

    def test_resume_after_fault_reaches_verdict(self):
        faulted = solve_opp(
            _instance(),
            options=SolverOptions(
                fault_plan=FaultPlan(raise_at_node=50), **SEARCH_ONLY
            ),
        )
        resumed = solve_opp(
            _instance(),
            options=SolverOptions(**SEARCH_ONLY),
            resume_from=faulted.checkpoint,
        )
        assert resumed.status == "sat"


def _configs_faulty_first(plan):
    """The serial backend races in order and stops at the first conclusive
    entrant, so the fault target must run first to be exercised at all."""
    return list(reversed(_configs(plan)))


class TestSerialContainment:
    def test_escalating_entrant_does_not_kill_the_race(self):
        plan = FaultPlan(raise_at_node=5, target="static", escalate=True)
        with PortfolioSolver(
            configs=_configs_faulty_first(plan), backend="serial"
        ) as s:
            result = s.solve(_instance())
        assert result.status == "sat"
        assert result.winner == "guided"
        assert any(
            f.kind == "entrant_error" and f.entrant == "static"
            for f in result.faults
        )
        assert result.stats.faults >= 1

    def test_kill_plan_outside_worker_is_contained(self):
        # Outside a worker process the kill becomes an escalating raise
        # (killing the host would take the test runner down); the serial
        # backend must contain it like any other entrant crash.
        plan = FaultPlan(kill_at_node=5, target="static")
        with PortfolioSolver(
            configs=_configs_faulty_first(plan), backend="serial"
        ) as s:
            result = s.solve(_instance())
        assert result.status == "sat"
        assert any(f.kind == "entrant_error" for f in result.faults)


class TestThreadContainment:
    def test_stalled_entrant_does_not_block_the_answer(self):
        plan = FaultPlan(stall_at_node=5, stall_seconds=60.0, target="static")
        retry = RetryPolicy(drain_grace=0.5)
        start = time.monotonic()
        with PortfolioSolver(
            configs=_configs(plan), workers=2, backend="thread", retry=retry
        ) as s:
            result = s.solve(_instance())
        elapsed = time.monotonic() - start
        assert result.status == "sat"
        assert result.winner == "guided"
        assert elapsed < 30.0  # nowhere near the 60 s stall
        assert any(
            f.kind == "entrant_stalled" and f.entrant == "static"
            for f in result.faults
        )

    def test_raising_entrant_recorded_not_raised(self):
        plan = FaultPlan(raise_at_node=5, target="static", escalate=True)
        with PortfolioSolver(
            configs=_configs(plan), workers=2, backend="thread"
        ) as s:
            result = s.solve(_instance())
        assert result.status == "sat"
        assert any(f.kind == "entrant_error" for f in result.faults)


class TestProcessCrashRecovery:
    RETRY = RetryPolicy(
        entrant_retries=1, pool_rebuilds=2, backoff=BackoffPolicy(base=0.01)
    )

    def test_killed_worker_race_still_concludes(self):
        """The targeted worker dies via os._exit; the pool is rebuilt, the
        victim spills to the thread backend after its retries, and the
        surviving entrant's verdict comes through."""
        plan = FaultPlan(kill_at_node=5, target="static")
        with PortfolioSolver(
            configs=_configs(plan), workers=2, backend="process",
            retry=self.RETRY,
        ) as s:
            result = s.solve(_instance())
        assert result.status == "sat"
        assert result.placement is not None and result.placement.is_feasible()
        kinds = {f.kind for f in result.faults}
        assert "pool_broken" in kinds
        assert "backend_degraded" in kinds

    def test_all_entrants_killed_yields_explicit_unknown(self):
        """When every entrant is killed everywhere (even on the degraded
        backends the kill plan raises), the runtime must conclude with an
        explicit unknown + fault trail, not hang or crash."""
        plan = FaultPlan(kill_at_node=3)  # untargeted: applies to everyone
        configs = [
            PortfolioConfig("static", SolverOptions(fault_plan=plan, **SEARCH_ONLY)),
        ]
        with PortfolioSolver(
            configs=configs, workers=1, backend="process", retry=self.RETRY
        ) as s:
            result = s.solve(_instance())
        assert result.status == "unknown"
        assert result.faults
        assert result.stats.limit is not None
        assert result.stats.limit.startswith("fault:")

    def test_pool_reused_after_recovery_solve(self):
        plan = FaultPlan(kill_at_node=5, target="static")
        with PortfolioSolver(
            configs=_configs(plan), workers=2, backend="process",
            retry=self.RETRY,
        ) as s:
            first = s.solve(_instance())
            # The solver degraded but must remain usable for later solves.
            clean = s.solve(make_instance([[1, 1, 1]], [2, 2, 2]))
        assert first.status == "sat"
        assert clean.status == "sat"


class TestLearningUnderFaults:
    """A fault landing mid-learning must not leak a broken nogood store.

    The two leak paths guarded here: (1) a killed learning worker must
    contribute *nothing* to the merged portfolio stats (its partial store
    and counters die with it), and (2) a contained fault's checkpoint must
    carry a store that still round-trips and resumes cleanly — an
    interrupted learner is resumable, not corrupt.
    """

    LEARNING = LearningOptions(enabled=True, restart_base=2, max_restarts=4)
    RETRY = RetryPolicy(
        entrant_retries=1, pool_rebuilds=2, backoff=BackoffPolicy(base=0.01)
    )

    def _learning_configs(self, plan):
        return [
            PortfolioConfig(
                "guided",
                SolverOptions(fault_plan=plan, learning=self.LEARNING),
            ),
            PortfolioConfig(
                "static",
                SolverOptions(
                    fault_plan=plan, learning=self.LEARNING, **SEARCH_ONLY
                ),
            ),
        ]

    def test_worker_killed_mid_learning_leaks_no_corrupt_stats(self):
        plan = FaultPlan(kill_at_node=5, target="static")
        with PortfolioSolver(
            configs=self._learning_configs(plan), workers=2,
            backend="process", retry=self.RETRY,
        ) as solver:
            result = solver.solve(_instance())
        assert result.status == "sat"
        assert result.placement is not None and result.placement.is_feasible()
        # Merged learning counters must equal the per-entrant sum exactly:
        # a killed worker contributes nothing, never garbage.
        for name in ("restarts", "nogoods_learned", "nogood_prunes"):
            per_entrant = sum(
                getattr(s, name) for s in result.per_config.values()
            )
            assert getattr(result.stats, name) == per_entrant, name
            assert getattr(result.stats, name) >= 0

    def test_contained_fault_checkpoint_store_resumes(self):
        faulted = solve_opp(
            _instance(),
            options=SolverOptions(
                fault_plan=FaultPlan(raise_at_node=40),
                learning=self.LEARNING,
                **SEARCH_ONLY,
            ),
        )
        assert faulted.status == "unknown"
        assert faulted.checkpoint is not None
        # The snapshot's store must survive a wire round trip intact...
        from repro.core.search import SearchCheckpoint

        wire = faulted.checkpoint.to_dict()
        revived = SearchCheckpoint.from_dict(wire)
        assert revived.to_dict() == wire
        # ... and the resumed solve must reach the clean verdict.
        resumed = solve_opp(
            _instance(),
            options=SolverOptions(learning=self.LEARNING, **SEARCH_ONLY),
            resume_from=revived,
        )
        assert resumed.status == "sat"

    def test_escalating_fault_mid_restart_contained_by_race(self):
        plan = FaultPlan(raise_at_node=5, target="static", escalate=True)
        with PortfolioSolver(
            configs=list(reversed(self._learning_configs(plan))),
            backend="serial",
        ) as solver:
            result = solver.solve(_instance())
        assert result.status == "sat"
        assert any(
            f.kind == "entrant_error" and f.entrant == "static"
            for f in result.faults
        )


class TestCacheCorruption:
    def _seed_cache(self, tmp_path):
        cache = ResultCache(disk_path=str(tmp_path))
        instance = _instance()
        first = solve_opp(instance, cache=cache)
        assert first.status == "sat"
        assert cache.stats.stores == 1
        return instance, first.status

    @pytest.mark.parametrize("seed", range(6))
    def test_corruption_quarantined_and_recomputed(self, tmp_path, seed):
        instance, verdict = self._seed_cache(tmp_path)
        corrupt_cache_entry(str(tmp_path), seed=seed)
        # A fresh cache (cold memory) must detect the damage on load.
        cache = ResultCache(disk_path=str(tmp_path))
        assert cache.get(instance) is None
        assert cache.stats.quarantined == 1
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert len(quarantined) == 1
        # Recompute: same verdict as before the corruption, re-cacheable.
        again = solve_opp(instance, cache=cache)
        assert again.status == verdict
        assert cache.get(instance) is not None

    def test_legacy_unchecksummed_entry_quarantined(self, tmp_path):
        instance, _ = self._seed_cache(tmp_path)
        entry = next(tmp_path.glob("*.json"))
        entry.write_text('{"status": "unsat", "certificate": "forged"}')
        cache = ResultCache(disk_path=str(tmp_path))
        # The forged (pre-checksum format) verdict must not be served.
        assert cache.get(instance) is None
        assert cache.stats.quarantined == 1

    def test_corrupt_empty_dir_raises(self, tmp_path):
        with pytest.raises(ValueError):
            corrupt_cache_entry(str(tmp_path))


class TestEnvHook:
    def test_env_plan_fires(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", '{"raise_at_node": 10}')
        result = solve_opp(_instance(), options=SolverOptions(**SEARCH_ONLY))
        assert result.status == "unknown"
        assert result.stats.limit == "fault:propagation_raise"

    def test_malformed_env_plan_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "{broken")
        assert plan_from_env() is None
        result = solve_opp(_instance())
        assert result.status == "sat"  # a broken harness never breaks a solve

    def test_targeted_env_plan_skips_sequential_solves(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", '{"raise_at_node": 10, "target": "static"}'
        )
        result = solve_opp(_instance(), options=SolverOptions(**SEARCH_ONLY))
        assert result.status == "sat"  # unnamed solve is not the target


class TestDifferentialUnderFaults:
    """Fault-injected portfolio racing vs. the clean sequential solver:
    every non-unknown verdict must agree, and nothing may escape."""

    PLANS = [
        FaultPlan(raise_at_node=5, target="static"),
        FaultPlan(raise_at_node=3, target="static", escalate=True),
        FaultPlan(kill_at_node=4, target="static"),
        FaultPlan(stall_at_node=2, stall_seconds=20.0, target="static"),
    ]

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_verdicts_agree(self, backend):
        rng = random.Random(20260806)
        retry = RetryPolicy(drain_grace=0.5)
        for index in range(8):
            instance, _ = random_feasible_instance(
                rng, container=(4, 4, 4), num_boxes=4
            )
            reference = solve_opp(instance)
            plan = self.PLANS[index % len(self.PLANS)]
            with PortfolioSolver(
                configs=_configs(plan), workers=2, backend=backend,
                retry=retry,
            ) as solver:
                chaotic = solver.solve(instance)
            if chaotic.status != "unknown":
                assert chaotic.status == reference.status, (
                    f"instance {index}: {chaotic.status} != "
                    f"{reference.status} under {plan}"
                )
            if chaotic.placement is not None:
                assert chaotic.placement.is_feasible()
