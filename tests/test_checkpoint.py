"""Checkpointable search: serialization, resume soundness, deadline budgets.

The search-heavy instance used throughout is the 8-box / [4,5,6] container
instance whose bounds stage cannot decide it and whose heuristics fail, so
every verdict requires real branch-and-bound work (a few hundred nodes).
"""

import time

import pytest

from repro.core import (
    Box,
    SearchCheckpoint,
    SolverOptions,
    make_instance,
    search_fingerprint,
    solve_opp,
)
from repro.core.bmp import minimize_base
from repro.core.deadline import Deadline
from repro.core.spp import minimize_makespan

SEARCH_HEAVY = [
    [4, 3, 4], [1, 1, 4], [4, 2, 1], [2, 2, 1],
    [3, 2, 2], [2, 1, 2], [2, 1, 4], [1, 4, 2],
]
CONTAINER = [4, 5, 6]

# Search stages only: force the verdict to come from branch-and-bound.
SEARCH_ONLY = dict(use_bounds=False, use_heuristics=False)


def _instance():
    return make_instance(SEARCH_HEAVY, CONTAINER)


class TestCheckpointObject:
    def test_roundtrip(self):
        ckpt = SearchCheckpoint(
            decisions=[(0, 1, 2, 1), (2, 0, 3, 0)],
            nodes=17,
            fingerprint="abc123",
            entrant="static",
        )
        clone = SearchCheckpoint.from_dict(ckpt.to_dict())
        assert clone.decisions == ckpt.decisions
        assert clone.nodes == ckpt.nodes
        assert clone.fingerprint == ckpt.fingerprint
        assert clone.entrant == ckpt.entrant

    def test_limit_exit_produces_checkpoint(self):
        result = solve_opp(
            _instance(), options=SolverOptions(node_limit=50, **SEARCH_ONLY)
        )
        assert result.status == "unknown"
        assert result.checkpoint is not None
        assert result.checkpoint.decisions  # non-empty prefix
        assert result.checkpoint.nodes == result.stats.nodes

    def test_conclusive_solve_has_no_checkpoint(self):
        result = solve_opp(_instance(), options=SolverOptions(**SEARCH_ONLY))
        assert result.status == "sat"
        assert result.checkpoint is None


class TestResume:
    def test_resume_reaches_same_verdict(self):
        opts = SolverOptions(**SEARCH_ONLY)
        full = solve_opp(_instance(), options=opts)
        partial = solve_opp(
            _instance(), options=SolverOptions(node_limit=50, **SEARCH_ONLY)
        )
        assert partial.status == "unknown"
        resumed = solve_opp(
            _instance(), options=opts, resume_from=partial.checkpoint
        )
        assert resumed.status == full.status == "sat"
        assert resumed.placement.is_feasible()

    def test_node_accounting_continues_not_restarts(self):
        """The resumed search does strictly less work than a fresh one, and
        the partial + resumed node totals add up to the fresh total plus
        only the replayed prefix (one node per recorded decision, plus the
        root)."""
        opts = SolverOptions(**SEARCH_ONLY)
        full = solve_opp(_instance(), options=opts)
        partial = solve_opp(
            _instance(), options=SolverOptions(node_limit=50, **SEARCH_ONLY)
        )
        resumed = solve_opp(
            _instance(), options=opts, resume_from=partial.checkpoint
        )
        assert resumed.stats.nodes < full.stats.nodes
        replay_overhead = len(partial.checkpoint.decisions) + 1
        total = partial.stats.nodes + resumed.stats.nodes
        assert total <= full.stats.nodes + replay_overhead + 1
        assert total >= full.stats.nodes  # nothing is skipped either

    def test_chained_resume(self):
        """Many small slices stitched together still conclude correctly."""
        checkpoint = None
        for _ in range(100):
            result = solve_opp(
                _instance(),
                options=SolverOptions(node_limit=40, **SEARCH_ONLY),
                resume_from=checkpoint,
            )
            if result.status != "unknown":
                break
            assert result.checkpoint is not None
            checkpoint = result.checkpoint
        assert result.status == "sat"
        assert result.placement.is_feasible()

    def test_foreign_checkpoint_rejected(self):
        """A checkpoint from a different instance must not steer (and
        silently prune) the search: it is dropped and recorded."""
        other = make_instance([[1, 1, 1], [1, 1, 1]], [2, 2, 2])
        partial = solve_opp(
            _instance(), options=SolverOptions(node_limit=50, **SEARCH_ONLY)
        )
        result = solve_opp(
            other, options=SolverOptions(**SEARCH_ONLY),
            resume_from=partial.checkpoint,
        )
        assert result.status == "sat"  # solved from scratch, correctly
        assert any(f.kind == "checkpoint_mismatch" for f in result.faults)

    def test_fingerprint_sensitive_to_configuration(self):
        from repro.core import BranchingOptions

        inst = _instance()
        base = search_fingerprint(inst, BranchingOptions(), [], [])
        static = search_fingerprint(
            inst, BranchingOptions(strategy="static"), [], []
        )
        assert base != static


class TestDeadlineBudget:
    """The sweep-wide :class:`Deadline` shared by every probe."""

    def test_budget_respected_within_tolerance(self):
        """A BMP sweep under a deadline finishes within 1.2x of it
        (the slack covers one clipped slice plus scheduling noise)."""
        boxes = [Box(tuple(w)) for w in SEARCH_HEAVY]
        budget = 0.2
        opts = SolverOptions(time_limit=0.02, **SEARCH_ONLY)
        start = time.monotonic()
        minimize_base(
            boxes,
            time_bound=6,
            options=opts,
            deadline=Deadline.after(budget, margin=0),
        )
        elapsed = time.monotonic() - start
        assert elapsed <= budget * 1.2 + 0.1

    def test_probe_resumes_across_slices(self):
        """When the per-probe time limit is far tighter than the budget,
        the runner resumes interrupted probes from checkpoints instead of
        restarting them: the sweep still concludes, in several slices."""
        from repro.core.bmp import _ProbeRunner

        runner = _ProbeRunner(
            options=SolverOptions(node_limit=60, **SEARCH_ONLY),
            deadline=Deadline.after(30.0, margin=0),
        )
        result = runner.solve(_instance())
        assert result.status == "sat"
        assert runner.resume_slices >= 2  # needed >120 nodes in 60-node slices
        # Accounting: the final result reports cumulative nodes across all
        # slices, which must exceed a single slice's limit.
        assert result.stats.nodes > 60

    def test_exhausted_budget_reports_reason(self):
        boxes = [Box(tuple(w)) for w in SEARCH_HEAVY]
        opts = SolverOptions(time_limit=0.01, **SEARCH_ONLY)
        # Expire the deadline before the sweep starts: a 1 ms deadline
        # that is still running can outlive the search's 64-node poll and
        # let a probe find SAT (a degraded answer instead of unknown).
        deadline = Deadline.after(0.001, margin=0)
        while not deadline.expired():
            time.sleep(0.001)
        result = minimize_base(
            boxes,
            time_bound=6,
            options=opts,
            deadline=deadline,
        )
        assert result.status == "unknown"
        assert result.probes  # at least one (budget-exhausted) probe record

    def test_invalid_budget_rejected(self):
        boxes = [Box(tuple(w)) for w in SEARCH_HEAVY]
        with pytest.raises(ValueError):
            minimize_base(
                boxes,
                time_bound=6,
                deadline=Deadline.after(-1.0, margin=0),
            )

    def test_spp_accepts_budget(self):
        boxes = [Box((1, 1, 1)), Box((1, 1, 1))]
        result = minimize_makespan(
            boxes, chip=(2, 2), deadline=Deadline.after(30.0, margin=0)
        )
        assert result.status == "optimal"
        assert result.optimum == 1

    def test_budget_none_is_legacy_behavior(self):
        boxes = [Box(tuple(w)) for w in SEARCH_HEAVY]
        result = minimize_base(boxes, time_bound=6)
        assert result.status == "optimal"
        assert result.optimum == 5
