"""Tests for the rotation extension (exact and heuristic)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Box, SolverOptions, make_instance, solve_opp
from repro.core.rotation import (
    apply_rotations,
    is_rotatable,
    rotated_box,
    rotation_aware_heuristic,
    solve_opp_with_rotation,
)

SEARCH_ONLY = SolverOptions(use_bounds=False, use_heuristics=False)


class TestRotatedBox:
    def test_swaps_spatial_extents_only(self):
        b = Box((2, 5, 7), name="m")
        r = rotated_box(b)
        assert r.widths == (5, 2, 7)
        assert r.name == "m"

    def test_rotatable_predicate(self):
        assert is_rotatable(Box((2, 3, 1)))
        assert not is_rotatable(Box((3, 3, 9)))

    def test_apply_rotations(self):
        inst = make_instance([(1, 2, 3), (4, 4, 4)], (9, 9, 9))
        out = apply_rotations(inst, [True, False])
        assert out.boxes[0].widths == (2, 1, 3)
        assert out.boxes[1].widths == (4, 4, 4)
        with pytest.raises(ValueError):
            apply_rotations(inst, [True])


class TestExactRotation:
    def test_rotation_unlocks_feasibility(self):
        # A 1x3 bar in a 3x1 slot: infeasible as-is, feasible rotated.
        inst = make_instance([(1, 3, 1)], (3, 1, 1))
        assert solve_opp(inst).status == "unsat"
        r = solve_opp_with_rotation(inst)
        assert r.status == "sat"
        assert r.rotated == [True]
        assert r.placement.is_feasible()

    def test_two_bars_cross_arrangement(self):
        # Two 1x2 bars in a 2x2x1 sheet: as-is both vertical (fits), so no
        # rotation needed; rotating both also fits.  Either way: SAT.
        inst = make_instance([(1, 2, 1), (1, 2, 1)], (2, 2, 1))
        r = solve_opp_with_rotation(inst)
        assert r.status == "sat"

    def test_unsat_even_with_rotation(self):
        inst = make_instance([(2, 3, 1)], (2, 2, 1))
        r = solve_opp_with_rotation(inst)
        assert r.status == "unsat"
        assert r.assignments_tried == 2

    def test_square_boxes_single_assignment(self):
        inst = make_instance([(2, 2, 1)], (2, 2, 1))
        r = solve_opp_with_rotation(inst)
        assert r.status == "sat"
        assert r.assignments_tried == 1

    def test_assignment_limit(self):
        inst = make_instance([(1, 2, 1)] * 20, (40, 40, 1))
        with pytest.raises(ValueError):
            solve_opp_with_rotation(inst, max_assignments=8)

    def test_respects_precedence(self):
        inst = make_instance(
            [(1, 2, 1), (2, 1, 1)], (2, 1, 2), precedence_arcs=[(0, 1)]
        )
        # Box 0 must rotate to fit the 2x1 footprint; box 1 fits as-is.
        r = solve_opp_with_rotation(inst)
        assert r.status == "sat"
        assert r.placement.start(1, 2) >= r.placement.end(0, 2)

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=25, deadline=None)
    def test_never_worse_than_fixed_orientation(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 3)
        boxes = [
            (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2))
            for _ in range(n)
        ]
        inst = make_instance(boxes, (3, 3, 3))
        fixed = solve_opp(inst, options=SEARCH_ONLY)
        free = solve_opp_with_rotation(inst, options=SEARCH_ONLY)
        if fixed.status == "sat":
            assert free.status == "sat"
        if free.placement is not None:
            assert free.placement.is_feasible()


class TestRotationHeuristic:
    def test_simple_rotation_placement(self):
        inst = make_instance([(1, 3, 1)], (3, 1, 1))
        out = rotation_aware_heuristic(inst)
        assert out is not None
        placement, rotated = out
        assert rotated == [True]
        assert placement.is_feasible()

    def test_returns_none_when_impossible(self):
        inst = make_instance([(2, 3, 1)], (2, 2, 1))
        assert rotation_aware_heuristic(inst) is None

    def test_respects_precedence(self):
        inst = make_instance(
            [(2, 1, 1), (2, 1, 1)], (2, 1, 4), precedence_arcs=[(0, 1)]
        )
        out = rotation_aware_heuristic(inst)
        assert out is not None
        placement, _ = out
        assert placement.end(0, 2) <= placement.start(1, 2)

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=30, deadline=None)
    def test_results_always_feasible(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        boxes = [
            (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2))
            for _ in range(n)
        ]
        inst = make_instance(boxes, (4, 4, 4))
        out = rotation_aware_heuristic(inst)
        if out is not None:
            placement, rotated = out
            assert placement.is_feasible()
            assert len(rotated) == n
