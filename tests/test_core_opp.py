"""OPP solver tests: unit cases, stage behavior, and brute-force equivalence."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    OPPResult,
    Placement,
    PropagationOptions,
    SolverOptions,
    make_instance,
    solve_opp,
)
from repro.core.search import BranchAndBound, BranchingOptions
from repro.instances.random_instances import random_feasible_instance

SEARCH_ONLY = SolverOptions(use_bounds=False, use_heuristics=False)


def brute_force_sat(instance):
    """Ground truth by enumerating every grid placement."""
    ranges = []
    for b in instance.boxes:
        ranges.append(
            list(
                itertools.product(
                    *[
                        range(instance.container.sizes[a] - b.widths[a] + 1)
                        for a in range(instance.dimensions)
                    ]
                )
            )
        )
    for combo in itertools.product(*ranges):
        if Placement(instance, list(combo)).is_feasible():
            return True
    return False


class TestBasics:
    def test_single_box_fits(self):
        r = solve_opp(
            make_instance([(2, 2, 2)], (2, 2, 2)), options=SEARCH_ONLY
        )
        assert r.is_sat
        assert r.placement.positions == [(0, 0, 0)]

    def test_single_box_too_large(self):
        r = solve_opp(
            make_instance([(3, 2, 2)], (2, 2, 2)), options=SEARCH_ONLY
        )
        assert r.is_unsat

    def test_empty_instance(self):
        r = solve_opp(make_instance([], (2, 2, 2)), options=SEARCH_ONLY)
        assert r.is_sat

    def test_sat_answers_carry_validated_placement(self):
        inst = make_instance(
            [(2, 1, 1), (1, 2, 1), (1, 1, 2)], (2, 2, 2),
            precedence_arcs=[(0, 1)],
        )
        r = solve_opp(inst, options=SEARCH_ONLY)
        assert r.is_sat
        assert r.placement.is_feasible()

    def test_stage_reporting(self):
        bound_case = solve_opp(make_instance([(3, 3, 3)], (2, 2, 2)))
        assert bound_case.stage == "bounds"
        assert bound_case.certificate is not None
        heuristic_case = solve_opp(make_instance([(1, 1, 1)], (2, 2, 2)))
        assert heuristic_case.stage == "heuristic"

    def test_time_limit_gives_unknown(self):
        inst = make_instance(
            [(2, 2, 1), (2, 2, 1), (2, 1, 2), (1, 2, 2), (1, 1, 1)],
            (3, 3, 3),
        )
        options = SolverOptions(
            use_bounds=False, use_heuristics=False, time_limit=0.0
        )
        r = solve_opp(inst, options=options)
        assert r.status in ("unknown", "sat", "unsat")
        # A zero budget must never fabricate an answer the exact solver
        # would not give.
        reference = solve_opp(inst, options=SEARCH_ONLY)
        if r.status != "unknown":
            assert r.status == reference.status

    def test_annealing_stage(self):
        inst = make_instance(
            [(2, 2, 2), (2, 1, 1), (1, 2, 1), (2, 2, 1)], (3, 3, 4)
        )
        options = SolverOptions(use_heuristics=False, use_annealing=True)
        r = solve_opp(inst, options=options)
        assert r.is_sat
        # Either annealing or the search found it; if annealing did, the
        # stage says so.
        assert r.stage in ("annealing", "search", "bounds")

    def test_node_limit_gives_unknown(self):
        # A nontrivial UNSAT search with a 1-node budget cannot finish.
        inst = make_instance(
            [(2, 2, 1), (2, 2, 1), (2, 1, 2), (1, 2, 2), (1, 1, 1)],
            (3, 3, 3),
        )
        options = SolverOptions(
            use_bounds=False, use_heuristics=False, node_limit=1
        )
        r = solve_opp(inst, options=options)
        assert r.status in ("unknown", "sat")  # must not claim unsat


class TestPrecedence:
    def test_chain_needs_sequential_time(self):
        inst = make_instance(
            [(2, 2, 1)] * 3, (2, 2, 3), precedence_arcs=[(0, 1), (1, 2)]
        )
        assert solve_opp(inst, options=SEARCH_ONLY).is_sat

    def test_chain_too_long(self):
        inst = make_instance(
            [(2, 2, 1)] * 4, (2, 2, 3), precedence_arcs=[(0, 1), (1, 2), (2, 3)]
        )
        assert solve_opp(inst, options=SEARCH_ONLY).is_unsat

    def test_precedence_changes_answer(self):
        # Without precedence: both fit concurrently.  With a chain, the
        # window is too small.
        boxes = [(1, 1, 2), (1, 1, 2)]
        free = make_instance(boxes, (2, 1, 2))
        chained = make_instance(boxes, (2, 1, 2), precedence_arcs=[(0, 1)])
        assert solve_opp(free, options=SEARCH_ONLY).is_sat
        assert solve_opp(chained, options=SEARCH_ONLY).is_unsat

    def test_diamond_dependencies(self):
        inst = make_instance(
            [(1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)],
            (2, 1, 3),
            precedence_arcs=[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        r = solve_opp(inst, options=SEARCH_ONLY)
        assert r.is_sat
        # 1 and 2 must share the middle cycle side by side.
        assert r.placement.start(1, 2) == r.placement.start(2, 2) == 1
        # On a 1-cell chip the middle layer cannot host both: UNSAT.
        tight = make_instance(
            [(1, 1, 1)] * 4,
            (1, 1, 3),
            precedence_arcs=[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        assert solve_opp(tight, options=SEARCH_ONLY).is_unsat


class TestBruteForceEquivalence:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        boxes = [tuple(rng.randint(1, 2) for _ in range(3)) for _ in range(n)]
        sizes = tuple(rng.randint(2, 3) for _ in range(3))
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        ]
        inst = make_instance(boxes, sizes, precedence_arcs=arcs)
        got = solve_opp(inst, options=SEARCH_ONLY)
        assert (got.status == "sat") == brute_force_sat(inst)
        if got.is_sat:
            assert got.placement.is_feasible()

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_feasible_by_construction_instances_are_sat(self, seed):
        rng = random.Random(seed)
        inst, witness = random_feasible_instance(rng, (4, 4, 4), 5)
        assert witness.is_feasible()
        r = solve_opp(inst, options=SEARCH_ONLY)
        assert r.is_sat


class TestAblationConfigurations:
    """Every propagation rule can be disabled without changing answers."""

    CONFIGS = [
        PropagationOptions(check_c4=False),
        PropagationOptions(check_c5=False),
        PropagationOptions(check_c2=False),
        PropagationOptions(check_area=False),
        PropagationOptions(implications=False),
        PropagationOptions(symmetry_breaking=False),
        PropagationOptions(
            check_c4=False,
            check_c5=False,
            check_c2=False,
            check_area=False,
            implications=False,
            symmetry_breaking=False,
        ),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: str(vars(c)))
    def test_answers_stable_under_ablation(self, config):
        rng = random.Random(2024)
        for _ in range(12):
            n = rng.randint(2, 4)
            boxes = [tuple(rng.randint(1, 2) for _ in range(3)) for _ in range(n)]
            sizes = tuple(rng.randint(2, 3) for _ in range(3))
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.25
            ]
            inst = make_instance(boxes, sizes, precedence_arcs=arcs)
            reference = solve_opp(inst, options=SEARCH_ONLY)
            ablated = solve_opp(
                inst,
                options=SolverOptions(
                    use_bounds=False, use_heuristics=False, propagation=config
                ),
            )
            assert ablated.status == reference.status

    def test_static_branching_equivalent(self):
        rng = random.Random(99)
        for _ in range(10):
            n = rng.randint(2, 4)
            boxes = [tuple(rng.randint(1, 2) for _ in range(3)) for _ in range(n)]
            inst = make_instance(boxes, (3, 3, 3))
            reference = solve_opp(inst, options=SEARCH_ONLY)
            solver = BranchAndBound(
                inst, branching=BranchingOptions(strategy="static")
            )
            status, placement = solver.solve()
            assert status == reference.status

    def test_invalid_branching_options_rejected(self):
        inst = make_instance([(1, 1, 1)], (2, 2, 2))
        with pytest.raises(ValueError):
            BranchAndBound(inst, branching=BranchingOptions(strategy="bogus"))
        with pytest.raises(ValueError):
            BranchAndBound(
                inst, branching=BranchingOptions(value_order="sideways")
            )


class TestSolverOptionsValidation:
    """Bad budgets are rejected at construction, not deep in a solve."""

    def test_negative_time_limit_rejected(self):
        with pytest.raises(ValueError, match="time_limit"):
            SolverOptions(time_limit=-1.0)

    def test_negative_node_limit_rejected(self):
        with pytest.raises(ValueError, match="node_limit"):
            SolverOptions(node_limit=-5)

    def test_zero_budgets_allowed(self):
        # Zero is a meaningful budget ("give up immediately"), not an error.
        opts = SolverOptions(time_limit=0.0, node_limit=0)
        assert opts.time_limit == 0.0
        assert opts.node_limit == 0
