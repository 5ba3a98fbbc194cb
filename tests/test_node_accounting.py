"""Node-counter reconciliation across every accounting layer.

Four counters claim to describe the same search:

* ``SearchStats.nodes`` — incremented at each branch-and-bound node;
* ``PropagationStats.nodes_entered`` — the kernel-side counter, bumped by
  the search loop on the model it drives;
* the ``search.nodes`` telemetry counter — added at solve finish, summed
  across portfolio entrants by ``merge_entrant``;
* ``SearchCheckpoint.nodes`` — the snapshot taken when a solve is
  interrupted.

These tests pin them to each other in every execution mode (direct
search, ``solve_opp``, budgeted probe resumption, and the serial /
thread / process portfolio backends) so a future change to any one layer
cannot silently drift from the others.  The budgeted-resume case guards
the historical failure mode: ``_ProbeRunner`` folds each slice's nodes
into the returned stats, and the returned checkpoint must be updated in
the same breath or ``checkpoint.nodes == stats.nodes`` (pinned by
``tests/test_checkpoint.py`` for single-slice results) breaks on carried
results.
"""

import random
from dataclasses import fields

import pytest

from repro.core import BranchAndBound, SolverOptions, solve_opp
from repro.core.bmp import _ProbeRunner
from repro.core.deadline import Deadline
from repro.core.kernels import available
from repro.core.search import BranchingOptions, SearchStats
from repro.instances.random_instances import random_instance
from repro.parallel import PortfolioSolver
from repro.parallel.faults import FaultPlan
from repro.parallel.portfolio import PortfolioConfig
from repro.telemetry import Telemetry

#: Every registered kernel plus the ``vector`` alias, which must reconcile
#: exactly like the kernel it names.
KERNELS = available() + ("vector",)

SEARCH_ONLY = dict(use_bounds=False, use_heuristics=False, use_annealing=False)


def _searchy_instance():
    """A deterministic instance whose search-only tree has dozens of
    nodes (so the counters have something to disagree about)."""
    rng = random.Random(42)
    insts = [
        random_instance(
            rng, container=(5, 5, 5), num_boxes=7, max_width=4,
            precedence_density=0.3,
        )
        for _ in range(7)
    ]
    return insts[-1]


def _instance_pool(seed, count):
    rng = random.Random(seed)
    return [
        random_instance(
            rng, container=(4, 4, 5), num_boxes=6, max_width=3,
            precedence_density=0.3,
        )
        for _ in range(count)
    ]


class TestSerialAgreement:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_search_model_and_telemetry_counters_agree(self, kernel):
        telemetry = Telemetry()
        solver = BranchAndBound(
            _searchy_instance(), kernel=kernel, telemetry=telemetry
        )
        solver.solve()
        assert solver.stats.nodes > 0
        assert solver.model.stats.nodes_entered == solver.stats.nodes
        assert telemetry.counter("search.nodes").value == solver.stats.nodes

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_agreement_holds_across_a_pool(self, kernel):
        for inst in _instance_pool(900, 10):
            solver = BranchAndBound(inst, node_limit=3000, kernel=kernel)
            solver.solve()
            assert solver.model.stats.nodes_entered == solver.stats.nodes

    def test_solve_opp_reports_search_nodes_to_telemetry(self):
        telemetry = Telemetry()
        result = solve_opp(
            _searchy_instance(),
            options=SolverOptions(**SEARCH_ONLY),
            telemetry=telemetry,
        )
        assert result.stats.nodes > 0
        assert telemetry.counter("search.nodes").value == result.stats.nodes

    def test_interrupted_solve_checkpoint_matches_stats(self):
        result = solve_opp(
            _searchy_instance(),
            options=SolverOptions(node_limit=10, **SEARCH_ONLY),
        )
        assert result.status == "unknown"
        assert result.checkpoint is not None
        assert result.checkpoint.nodes == result.stats.nodes


class TestBudgetedResumeCarry:
    """The ``_ProbeRunner`` carry path: slices must sum, not drift."""

    def _stuck_probe(self):
        # An injected propagation fault fires at the same node count in
        # every slice, so the runner resumes until it sees the same
        # frontier twice and returns a carried, still-unknown result.
        runner = _ProbeRunner(
            options=SolverOptions(
                fault_plan=FaultPlan(raise_at_node=7), **SEARCH_ONLY
            ),
            deadline=Deadline.after(60.0, margin=0),
        )
        return runner, runner.solve(_searchy_instance())

    def test_carried_result_sums_slice_nodes(self):
        runner, opp = self._stuck_probe()
        assert opp.status == "unknown"
        assert runner.resume_slices >= 1
        # Every slice stops at the injected fault after exactly 7 nodes.
        assert opp.stats.nodes == 7 * (runner.resume_slices + 1)

    def test_carried_result_checkpoint_matches_stats(self):
        _, opp = self._stuck_probe()
        assert opp.checkpoint is not None
        assert opp.checkpoint.nodes == opp.stats.nodes

    def test_unbudgeted_probe_has_no_carry(self):
        runner = _ProbeRunner(options=SolverOptions(**SEARCH_ONLY))
        opp = runner.solve(_searchy_instance())
        assert runner.resume_slices == 0
        assert opp.status == "sat"

    COUNTERS = (
        "nodes", "conflicts", "leaves", "leaf_failures",
        "propagated_states", "propagated_arcs", "faults",
    )

    def test_carry_accumulates_every_counter(self):
        # The historical bug: only ``nodes`` was carried across resume
        # slices — conflicts, leaves and propagation work silently reset
        # each slice.  Reconstruct the
        # runner's slice sequence by hand with plain resumed solves and
        # assert the carried result equals the exact field-wise sum.
        runner, opp = self._stuck_probe()
        expected = SearchStats()
        checkpoint = None
        for _ in range(runner.resume_slices + 1):
            piece = solve_opp(
                _searchy_instance(),
                options=SolverOptions(
                    fault_plan=FaultPlan(raise_at_node=7), **SEARCH_ONLY
                ),
                resume_from=checkpoint,
            )
            expected.carry(piece.stats)
            checkpoint = piece.checkpoint
        for name in self.COUNTERS:
            assert getattr(opp.stats, name) == getattr(expected, name), (
                f"carried {name} diverged from the slice-wise sum"
            )
        assert opp.stats.conflicts > 0  # the old bug would zero this

    def test_carry_helper_covers_every_integer_counter(self):
        # A new SearchStats counter that ``carry`` forgets would resurrect
        # the reset bug silently; this meta-test fails the moment a field
        # is added without extending the carry (and this test's list).
        int_fields = {
            f.name for f in fields(SearchStats)
            if f.type == "int" and f.name != "faults"
        } | {"faults"}
        assert int_fields == set(self.COUNTERS), (
            "SearchStats integer counters and the carry coverage drifted"
        )


class TestPortfolioBackends:
    """stats.nodes == sum(per-entrant nodes) == merged telemetry counter."""

    @staticmethod
    def _configs():
        return [
            PortfolioConfig("search-guided", SolverOptions(**SEARCH_ONLY)),
            PortfolioConfig(
                "search-static",
                SolverOptions(
                    branching=BranchingOptions(strategy="static"),
                    **SEARCH_ONLY,
                ),
            ),
        ]

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_counters_reconcile(self, backend):
        telemetry = Telemetry()
        with PortfolioSolver(
            configs=self._configs(), workers=2, backend=backend,
            telemetry=telemetry,
        ) as solver:
            result = solver.solve(_searchy_instance())
        assert result.status == "sat"
        per_entrant = sum(s.nodes for s in result.per_config.values())
        assert result.stats.nodes == per_entrant
        assert telemetry.counter("search.nodes").value == result.stats.nodes
        assert result.stats.nodes > 0
