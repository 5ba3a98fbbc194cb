"""Differential equivalence suite: every registered kernel vs the oracle.

The ``bitmask`` kernel (``repro.core.bitmask``) is a rewrite of the
reference edge-state engine and is required to be *semantically
identical* to it: same SAT/UNSAT
answers, same optima, and — because the propagation rules reach the same
fixpoints and the branch heuristics read the same state — the same search
tree node for node.  The kernel pool is taken live from the registry
(:func:`repro.core.available_kernels`), so a newly registered engine is
automatically held to the same bar.  This suite hammers that claim with
several hundred seeded random instances:

* mixed instances with and without precedence constraints,
* rotation-aware solves (``solve_opp_with_rotation``),
* the BMP/SPP optimization drivers (optima must agree),
* node-count equality with symmetry breaking disabled *and* enabled,
* chaos runs under a ``REPRO_FAULT_PLAN`` injection (both kernels must
  fault at the same node with the same recorded limit),
* checkpoint kill/resume across every ordered kernel pair.

Instances are deliberately small (n <= 8) so the whole file stays in the
tier-1 budget while still exercising every propagation rule.
"""

import json
import random

import pytest

from repro.core import (
    BranchAndBound,
    PropagationOptions,
    SolverOptions,
    available_kernels,
    solve_opp,
)
from repro.core.bmp import minimize_base
from repro.core.rotation import solve_opp_with_rotation
from repro.core.search import SearchCheckpoint
from repro.core.spp import minimize_makespan
from repro.instances.random_instances import (
    differential_instances,
    random_feasible_instance,
    random_instance,
)

SEARCH_ONLY = dict(use_bounds=False, use_heuristics=False)


def _options(kernel, **overrides):
    base = dict(SEARCH_ONLY)
    base.update(overrides)
    return SolverOptions(kernel=kernel, **base)


def _signature(result):
    """The facts both kernels must agree on for one OPP solve."""
    return (result.status, result.stats.nodes, result.stats.leaves)


def _assert_same_solve(instance, **overrides):
    """Every registered kernel must produce the reference signature."""
    results = {
        kernel: solve_opp(instance, options=_options(kernel, **overrides))
        for kernel in available_kernels()
    }
    slow = results["reference"]
    for kernel, result in results.items():
        assert _signature(result) == _signature(slow), (
            f"kernel divergence on {instance.boxes} in "
            f"{instance.container.sizes}: {kernel}={_signature(result)} "
            f"reference={_signature(slow)}"
        )
    return results["bitmask"], slow


class TestOPPDifferential:
    """Raw decision-problem agreement over large seeded instance pools."""

    @pytest.mark.parametrize("seed", [101, 202, 303, 404])
    def test_mixed_instances_agree(self, seed):
        # 4 x 50 = 200 instances from the mixed generator (precedence
        # density and container shape both vary with the seed).
        for inst in differential_instances(seed, 50):
            _assert_same_solve(inst, node_limit=3000)

    @pytest.mark.parametrize("density", [0.0, 0.5])
    def test_precedence_free_and_heavy_agree(self, density):
        # 2 x 30 = 60 instances pinning the precedence dimension to the
        # extremes: none at all, and half of all pairs constrained.
        rng = random.Random(7000 + int(density * 10))
        for _ in range(30):
            inst = random_instance(
                rng,
                container=(4, 4, 5),
                num_boxes=6,
                max_width=3,
                precedence_density=density,
            )
            _assert_same_solve(inst, node_limit=3000)

    def test_harder_instances_agree(self):
        # 20 larger instances so non-trivial search trees (dozens to
        # hundreds of nodes) are compared, not just root refutations.
        rng = random.Random(42)
        for _ in range(20):
            inst = random_instance(
                rng,
                container=(5, 5, 5),
                num_boxes=7,
                max_width=4,
                precedence_density=0.3,
            )
            _assert_same_solve(inst, node_limit=3000)

    def test_feasible_instances_are_sat_under_both(self):
        # 25 instances built around a known placement: both kernels must
        # answer SAT (a divergent UNSAT here is a soundness bug, not just
        # a mismatch).
        rng = random.Random(9)
        for _ in range(25):
            inst, _placement = random_feasible_instance(
                rng, container=(5, 5, 5), num_boxes=5, precedence_density=0.3
            )
            fast, slow = _assert_same_solve(inst, node_limit=20000)
            assert fast.status == "sat"
            assert slow.status == "sat"

    def test_full_pipeline_agrees(self):
        # 30 instances through the full three-stage pipeline (bounds and
        # heuristics enabled) — exercises the stage dispatch, not just
        # the raw search.
        rng = random.Random(77)
        for _ in range(30):
            inst = random_instance(
                rng, container=(4, 4, 4), num_boxes=6, max_width=3,
                precedence_density=0.2,
            )
            results = {
                kernel: solve_opp(
                    inst, options=SolverOptions(kernel=kernel, node_limit=3000)
                )
                for kernel in available_kernels()
            }
            slow = results["reference"]
            for result in results.values():
                assert _signature(result) == _signature(slow)
                assert result.stage == slow.stage


class TestNodeCountEquality:
    """The satellite requirement: node-for-node identical trees."""

    def test_nodes_equal_with_symmetry_breaking_disabled(self):
        rng = random.Random(1234)
        propagation = PropagationOptions(symmetry_breaking=False)
        for _ in range(25):
            inst = random_instance(
                rng, container=(4, 4, 5), num_boxes=6, max_width=3,
                precedence_density=0.25,
            )
            _assert_same_solve(inst, node_limit=3000, propagation=propagation)

    def test_nodes_equal_with_symmetry_breaking_enabled(self):
        # Stronger than required: the bitmask kernel reproduces the
        # reference tree even with the interchangeability cuts active,
        # because both kernels apply the identical canonical ordering.
        rng = random.Random(4321)
        propagation = PropagationOptions(symmetry_breaking=True)
        for _ in range(25):
            inst = random_instance(
                rng, container=(4, 4, 5), num_boxes=6, max_width=3,
                precedence_density=0.25,
            )
            _assert_same_solve(inst, node_limit=3000, propagation=propagation)

    @pytest.mark.parametrize(
        "ablation",
        [
            {"check_c4": False},
            {"check_c2": False},
            {"check_c5": False},
            {"check_area": False},
            {"implications": False},
        ],
        ids=lambda a: "no_" + next(iter(a)),
    )
    def test_nodes_equal_under_rule_ablations(self, ablation):
        # 5 x 10 = 50 solves: each propagation rule individually disabled
        # must still give identical trees (the kernels mirror each other
        # rule by rule, not just at full strength).
        rng = random.Random(sum(map(ord, next(iter(ablation)))))
        propagation = PropagationOptions(**ablation)
        for _ in range(10):
            inst = random_instance(
                rng, container=(4, 4, 4), num_boxes=6, max_width=3,
                precedence_density=0.2,
            )
            _assert_same_solve(inst, node_limit=3000, propagation=propagation)

    def test_kernel_internal_counter_matches_search_stats(self):
        rng = random.Random(5150)
        for _ in range(10):
            inst = random_instance(
                rng, container=(4, 4, 5), num_boxes=6, max_width=3,
                precedence_density=0.3,
            )
            for kernel in available_kernels():
                solver = BranchAndBound(inst, node_limit=3000, kernel=kernel)
                solver.solve()
                assert solver.model.stats.nodes_entered == solver.stats.nodes


class TestOptimizationDifferential:
    """BMP and SPP optima must agree between kernels."""

    def test_bmp_optima_agree(self):
        rng = random.Random(2024)
        for _ in range(12):
            inst = random_instance(
                rng, container=(4, 4, 3), num_boxes=5, max_width=3,
                precedence_density=0.3,
            )
            results = {}
            for kernel in available_kernels():
                results[kernel] = minimize_base(
                    inst.boxes,
                    inst.precedence,
                    time_bound=inst.container.sizes[inst.time_axis],
                    options=SolverOptions(kernel=kernel, node_limit=20000),
                    max_side=8,
                )
            slow = results["reference"]
            for fast in results.values():
                assert fast.status == slow.status
                assert fast.optimum == slow.optimum

    def test_spp_optima_agree(self):
        rng = random.Random(2025)
        for _ in range(12):
            inst = random_instance(
                rng, container=(4, 4, 4), num_boxes=5, max_width=3,
                precedence_density=0.4,
            )
            results = {}
            for kernel in available_kernels():
                results[kernel] = minimize_makespan(
                    inst.boxes,
                    inst.precedence,
                    chip=(inst.container.sizes[0], inst.container.sizes[1]),
                    options=SolverOptions(kernel=kernel, node_limit=20000),
                )
            slow = results["reference"]
            for fast in results.values():
                assert fast.status == slow.status
                assert fast.optimum == slow.optimum

    def test_rotation_solves_agree(self):
        rng = random.Random(808)
        for _ in range(15):
            inst = random_instance(
                rng, container=(4, 4, 4), num_boxes=5, max_width=3,
                precedence_density=0.2,
            )
            results = {}
            for kernel in available_kernels():
                results[kernel] = solve_opp_with_rotation(
                    inst, options=SolverOptions(kernel=kernel, node_limit=3000)
                )
            slow = results["reference"]
            for fast in results.values():
                assert fast.status == slow.status
                assert fast.assignments_tried == slow.assignments_tried
                if slow.placement is not None:
                    assert fast.placement is not None


class TestChaosDifferential:
    """Fault injection must hit both kernels at the same point."""

    def _chaos_instance(self):
        # A seed known to produce a tree deeper than the injection point
        # under search-only options (asserted below, so a generator change
        # fails loudly rather than silently weakening the test).
        rng = random.Random(42)
        insts = [
            random_instance(
                rng, container=(5, 5, 5), num_boxes=7, max_width=4,
                precedence_density=0.3,
            )
            for _ in range(7)
        ]
        return insts[-1]

    def test_injected_raise_hits_same_node(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps({"raise_at_node": 10}))
        inst = self._chaos_instance()
        for kernel in available_kernels():
            result = solve_opp(inst, options=_options(kernel))
            assert result.status == "unknown"
            assert result.stats.limit == "fault:propagation_raise"
            assert result.stats.nodes == 10
            assert [f.kind for f in result.faults] == ["injected"]

    def test_differential_holds_under_injection_sweep(self, monkeypatch):
        # Inject at several depths; the two kernels must always agree on
        # status, limit, and the node count at which the fault landed.
        inst = self._chaos_instance()
        clean = solve_opp(inst, options=_options("bitmask"))
        assert clean.stats.nodes > 15  # deep enough for the sweep
        for at_node in (1, 3, 7, 15):
            monkeypatch.setenv(
                "REPRO_FAULT_PLAN", json.dumps({"raise_at_node": at_node})
            )
            slow = solve_opp(inst, options=_options("reference"))
            for kernel in available_kernels():
                fast = solve_opp(inst, options=_options(kernel))
                assert _signature(fast) == _signature(slow)
                assert fast.stats.limit == slow.stats.limit

    def test_explicit_fault_plan_via_options(self):
        # The same plan shipped through SolverOptions.fault_plan instead
        # of the environment — both kernels must honor it identically.
        from repro.parallel.faults import FaultPlan

        inst = self._chaos_instance()
        plan = FaultPlan(raise_at_node=5)
        slow = solve_opp(inst, options=_options("reference", fault_plan=plan))
        assert slow.stats.limit == "fault:propagation_raise"
        for kernel in available_kernels():
            fast = solve_opp(inst, options=_options(kernel, fault_plan=plan))
            assert _signature(fast) == _signature(slow)
            assert fast.stats.limit == "fault:propagation_raise"


class TestLearningDifferential:
    """What is left of the learning matrix: the search no longer learns,
    but journals may still hold checkpoints a learning run wrote."""

    def test_checkpoint_without_learning_refuses_mid_restart_resume(self):
        # A checkpoint taken mid-restart-schedule by a learning run was
        # searched under its nogood store; replaying it would silently
        # drop that restart context, so loading the stored payload refuses
        # loudly with a structured CheckpointMismatch.  The same payload
        # at round 0 still resumes to the clean verdict.
        from repro.core.search import CheckpointMismatch
        from repro.parallel.faults import FaultPlan

        rng = random.Random(42)
        for _ in range(7):
            inst = random_instance(
                rng, container=(5, 5, 5), num_boxes=7, max_width=4,
                precedence_density=0.3,
            )
        interrupted = solve_opp(
            inst,
            options=_options(
                "bitmask", fault_plan=FaultPlan(raise_at_node=25)
            ),
        )
        stored = json.loads(json.dumps(interrupted.checkpoint.to_dict()))
        stored["nogoods"] = {
            "nogoods": [{"literals": [list(stored["decisions"][0])]}],
            "activity_inc": 1.0,
        }
        with pytest.raises(CheckpointMismatch, match="restart") as excinfo:
            SearchCheckpoint.from_dict({**stored, "restart_round": 3})
        assert excinfo.value.restart_round == 3
        assert excinfo.value.fingerprint == stored["fingerprint"]
        resumed = solve_opp(
            inst,
            options=_options("bitmask"),
            resume_from=SearchCheckpoint.from_dict(
                {**stored, "restart_round": 0}
            ),
        )
        clean = solve_opp(inst, options=_options("bitmask"))
        assert resumed.status == clean.status


class TestCrossKernelCheckpoints:
    """Checkpoints are kernel-portable.

    The checkpoint fingerprint deliberately excludes the kernel name:
    because every kernel explores the identical tree, a search interrupted
    on one engine resumes on *any* other.  For each origin kernel this
    takes a mid-search checkpoint (fault-injected at node 25), round-trips
    it through the JSON wire format, resumes it on every registered kernel,
    and requires all continuations to be signature-identical and to land on
    the clean answer — covering every ordered kernel pair."""

    def _instance(self):
        rng = random.Random(42)
        insts = [
            random_instance(
                rng, container=(5, 5, 5), num_boxes=7, max_width=4,
                precedence_density=0.3,
            )
            for _ in range(7)
        ]
        return insts[-1]

    def _interrupted_wire(self, inst, origin, **overrides):
        from repro.parallel.faults import FaultPlan

        interrupted = solve_opp(
            inst,
            options=_options(
                origin, fault_plan=FaultPlan(raise_at_node=25), **overrides
            ),
        )
        assert interrupted.status == "unknown"
        assert interrupted.checkpoint is not None
        return json.dumps(interrupted.checkpoint.to_dict(), sort_keys=True)

    @pytest.mark.parametrize("origin", available_kernels())
    def test_checkpoint_resumes_identically_on_every_kernel(self, origin):
        inst = self._instance()
        wire = self._interrupted_wire(inst, origin)
        clean = solve_opp(inst, options=_options("reference"))
        signatures = set()
        for target in available_kernels():
            revived = SearchCheckpoint.from_dict(json.loads(wire))
            resumed = solve_opp(
                inst, options=_options(target), resume_from=revived
            )
            assert resumed.status == clean.status, (
                f"checkpoint from {origin} resumed on {target} diverged"
            )
            signatures.add(_signature(resumed))
        assert len(signatures) == 1, (
            f"resume of a {origin} checkpoint is target-dependent: "
            f"{signatures}"
        )


class TestPrecedenceWitnesses:
    """Hand-built precedence structures both kernels must judge alike."""

    def test_chain_saturating_time_axis(self):
        from repro.core.boxes import make_instance

        inst = make_instance(
            [(2, 2, 2)] * 3, (2, 2, 6), precedence_arcs=[(0, 1), (1, 2)]
        )
        _assert_same_solve(inst)

    def test_chain_overflowing_time_axis(self):
        from repro.core.boxes import make_instance

        inst = make_instance(
            [(2, 2, 2)] * 3, (2, 2, 5), precedence_arcs=[(0, 1), (1, 2)]
        )
        fast, _ = _assert_same_solve(inst)
        assert fast.status == "unsat"

    def test_diamond_dependency(self):
        from repro.core.boxes import make_instance

        inst = make_instance(
            [(2, 2, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1)], (3, 3, 3),
            precedence_arcs=[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        _assert_same_solve(inst)
