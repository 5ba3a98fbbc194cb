"""Tests for free-aspect area minimization (extension of the paper's BMP)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Box, minimize_area, minimize_base
from repro.graphs import DiGraph


def boxes_of(widths):
    return [Box(w, name=f"b{i}") for i, w in enumerate(widths)]


class TestMinimizeArea:
    def test_two_squares_concurrent(self):
        r = minimize_area(boxes_of([(2, 2, 1), (2, 2, 1)]), time_bound=1)
        assert r.status == "optimal"
        assert r.area == 8
        assert sorted((r.width, r.height)) == [2, 4]
        assert r.placement is not None and r.placement.is_feasible()

    def test_single_box_exact_fit(self):
        r = minimize_area(boxes_of([(3, 5, 2)]), time_bound=2)
        assert (r.status, r.area) == ("optimal", 15)
        assert (r.width, r.height) == (3, 5)

    def test_sequential_reuse(self):
        # Deadline allows serialization: a single 2x2 slot suffices.
        r = minimize_area(boxes_of([(2, 2, 1)] * 3), time_bound=3)
        assert (r.status, r.area) == ("optimal", 4)

    def test_empty(self):
        r = minimize_area([], time_bound=1)
        assert (r.status, r.width, r.height) == ("optimal", 0, 0)

    def test_infeasible_deadline(self):
        r = minimize_area(boxes_of([(1, 1, 5)]), time_bound=4)
        assert r.status == "infeasible"

    def test_infeasible_precedence(self):
        dag = DiGraph(2, [(0, 1)])
        r = minimize_area(boxes_of([(1, 1, 2)] * 2, ), dag, time_bound=3)
        assert r.status == "infeasible"

    def test_never_worse_than_square_bmp(self):
        boxes = boxes_of([(2, 2, 1), (1, 3, 1), (3, 1, 2)])
        square = minimize_base(boxes, time_bound=2)
        free = minimize_area(boxes, time_bound=2)
        assert square.status == free.status == "optimal"
        assert free.area <= square.optimum * square.optimum

    def test_height_doubling_does_not_skip_past_the_incumbent(self):
        # After 3x6 is found, width 4 probes height 3 (unsat); doubling
        # to 6 would exceed area 18, yet 4x4 = 16 fits.
        boxes = boxes_of([(3, 3, 1), (2, 1, 2), (1, 3, 2)])
        r = minimize_area(boxes, time_bound=2)
        assert (r.status, r.area, r.width, r.height) == ("optimal", 16, 4, 4)
        assert r.placement.is_feasible()

    def test_de_benchmark_free_aspect_beats_square(self):
        """Beyond the paper: at the 6-cycle deadline a 16x48 chip (768
        cells) suffices, 25% smaller than the square optimum 32x32."""
        from repro.instances.de import de_task_graph

        graph = de_task_graph()
        r = minimize_area(graph.boxes(), graph.dependency_dag(), time_bound=6)
        assert r.status == "optimal"
        assert r.area == 768
        assert sorted((r.width, r.height)) == [16, 48]

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=20, deadline=None)
    def test_area_at_most_square_squared(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        boxes = boxes_of(
            [
                (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2))
                for _ in range(n)
            ]
        )
        deadline = rng.randint(2, 4)
        square = minimize_base(boxes, time_bound=deadline)
        free = minimize_area(boxes, time_bound=deadline)
        assert square.status == free.status
        if free.status == "optimal":
            assert free.area <= square.optimum**2
            assert free.placement.is_feasible()
