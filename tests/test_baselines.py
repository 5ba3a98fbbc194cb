"""Tests for the three comparison baselines.

Every baseline must be *exact* — agreeing with the packing-class solver on
small instances (they only differ in speed, which the ablation benches
measure).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    solve_opp_geometric,
    solve_opp_grid,
    solve_opp_leaf_oriented,
)
from repro.core import SolverOptions, make_instance, solve_opp

SEARCH_ONLY = SolverOptions(use_bounds=False, use_heuristics=False)


def random_small_instance(rng):
    n = rng.randint(2, 4)
    boxes = [tuple(rng.randint(1, 2) for _ in range(3)) for _ in range(n)]
    sizes = tuple(rng.randint(2, 3) for _ in range(3))
    arcs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
    ]
    return make_instance(boxes, sizes, precedence_arcs=arcs)


class TestGeometricBaseline:
    def test_simple_sat(self):
        r = solve_opp_geometric(make_instance([(1, 1, 1)] * 2, (2, 1, 1)))
        assert r.status == "sat"
        assert r.placement.is_feasible()

    def test_simple_unsat(self):
        r = solve_opp_geometric(make_instance([(2, 2, 2)] * 2, (2, 2, 2)))
        assert r.status == "unsat"

    def test_respects_precedence(self):
        inst = make_instance(
            [(1, 1, 2)] * 2, (2, 2, 2), precedence_arcs=[(0, 1)]
        )
        assert solve_opp_geometric(inst).status == "unsat"
        looser = make_instance(
            [(1, 1, 2)] * 2, (2, 2, 4), precedence_arcs=[(0, 1)]
        )
        r = solve_opp_geometric(looser)
        assert r.status == "sat"
        assert r.placement.end(0, 2) <= r.placement.start(1, 2)

    def test_node_limit(self):
        inst = make_instance([(1, 1, 1)] * 6, (3, 3, 3))
        r = solve_opp_geometric(inst, node_limit=2)
        assert r.status in ("unknown", "sat")

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_packing_class_solver(self, seed):
        inst = random_small_instance(random.Random(seed))
        reference = solve_opp(inst, options=SEARCH_ONLY)
        got = solve_opp_geometric(inst)
        assert got.status == reference.status


class TestGridBaseline:
    def test_simple_cases(self):
        assert solve_opp_grid(make_instance([(1, 1, 1)] * 2, (2, 1, 1))).status == "sat"
        assert (
            solve_opp_grid(make_instance([(2, 2, 2)] * 2, (2, 2, 2))).status
            == "unsat"
        )

    def test_variable_count_matches_beasley_model(self):
        # One 1x1x1 box in a 3x3x3 container: 27 grid anchors.
        r = solve_opp_grid(make_instance([(1, 1, 1)], (3, 3, 3)))
        assert r.stats.variables == 27

    def test_respects_precedence(self):
        inst = make_instance(
            [(1, 1, 2)] * 2, (1, 1, 4), precedence_arcs=[(1, 0)]
        )
        r = solve_opp_grid(inst)
        assert r.status == "sat"
        assert r.placement.end(1, 2) <= r.placement.start(0, 2)

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_packing_class_solver(self, seed):
        inst = random_small_instance(random.Random(seed))
        reference = solve_opp(inst, options=SEARCH_ONLY)
        got = solve_opp_grid(inst)
        assert got.status == reference.status


class TestLeafOrientedBaseline:
    def test_still_exact_on_de_fragment(self):
        # A precedence-heavy fragment: correctness must not depend on the
        # in-tree implication engine.
        inst = make_instance(
            [(2, 2, 2), (2, 2, 2), (2, 1, 1), (1, 2, 1)],
            (3, 3, 6),
            precedence_arcs=[(0, 1), (1, 2), (0, 3)],
        )
        reference = solve_opp(inst, options=SEARCH_ONLY)
        got = solve_opp_leaf_oriented(inst, SEARCH_ONLY)
        assert got.status == reference.status

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_packing_class_solver(self, seed):
        inst = random_small_instance(random.Random(seed))
        reference = solve_opp(inst, options=SEARCH_ONLY)
        got = solve_opp_leaf_oriented(inst, SEARCH_ONLY)
        assert got.status == reference.status
