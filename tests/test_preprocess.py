"""Tests for GCD axis normalization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SolverOptions, make_instance, solve_opp
from repro.core.preprocess import (
    AxisScaling,
    axis_gcd,
    denormalize_placement,
    normalize_instance,
    solve_opp_normalized,
)


class TestAxisGcd:
    def test_common_divisor(self):
        inst = make_instance([(16, 4, 2), (8, 6, 4)], (32, 32, 8))
        assert axis_gcd(inst, 0) == 8
        assert axis_gcd(inst, 1) == 2
        assert axis_gcd(inst, 2) == 2

    def test_empty_instance(self):
        inst = make_instance([], (4, 4, 4))
        assert axis_gcd(inst, 0) == 1


class TestNormalize:
    def test_trivial_when_coprime(self):
        inst = make_instance([(2, 3, 1), (3, 2, 2)], (4, 4, 4))
        scaled, scaling = normalize_instance(inst)
        assert scaling.is_trivial
        assert scaled is inst

    def test_oversized_gcd_returns_original(self):
        # All boxes are 4 wide but the container is only 3 wide: infeasible,
        # and normalization must not mask that.
        inst = make_instance([(4, 2, 1), (4, 1, 1)], (3, 3, 3))
        scaled, scaling = normalize_instance(inst)
        assert scaling.is_trivial
        assert solve_opp(scaled).status == "unsat"

    def test_scaling_divides_widths_and_container(self):
        inst = make_instance([(16, 16, 2), (16, 1, 1)], (32, 17, 6))
        scaled, scaling = normalize_instance(inst)
        assert scaling.factors == (16, 1, 1)
        assert scaled.boxes[0].widths == (1, 16, 2)
        assert scaled.container.sizes == (2, 17, 6)

    def test_container_floor_drops_unusable_cells(self):
        # 17 cells with 16-wide boxes: only one 16-slot exists.
        inst = make_instance([(16, 1, 1), (16, 1, 1)], (17, 2, 2))
        scaled, scaling = normalize_instance(inst)
        assert scaled.container.sizes[0] == 1
        # Both fit the original (stacked in y); equivalence must hold.
        assert solve_opp(scaled).status == solve_opp(inst).status == "sat"

    def test_precedence_preserved(self):
        inst = make_instance(
            [(4, 4, 2)] * 2, (8, 8, 4), precedence_arcs=[(0, 1)]
        )
        scaled, _ = normalize_instance(inst)
        assert scaled.precedence is not None
        assert sorted(scaled.precedence.arcs()) == [(0, 1)]

    def test_denormalize_round_trip(self):
        inst = make_instance([(4, 2, 2), (4, 2, 2)], (8, 4, 4))
        scaled, scaling = normalize_instance(inst)
        result = solve_opp(scaled)
        assert result.status == "sat"
        back = denormalize_placement(result.placement, inst, scaling)
        assert back.is_feasible()


class TestSolveNormalized:
    def test_de_benchmark_equivalence(self):
        from repro.instances.de import de_task_graph
        from repro.fpga import square_chip

        graph = de_task_graph()
        inst = graph.to_instance(square_chip(32), 6)
        result = solve_opp_normalized(inst)
        assert result.status == "sat"
        assert result.placement.is_feasible()
        assert result.placement.instance is inst

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_solve(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        scale = rng.choice([1, 2, 4])
        boxes = [
            tuple(rng.randint(1, 2) * scale for _ in range(3))
            for _ in range(n)
        ]
        sizes = tuple(rng.randint(2, 3) * scale for _ in range(3))
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        ]
        inst = make_instance(boxes, sizes, precedence_arcs=arcs)
        direct = solve_opp(
            inst, options=SolverOptions(use_bounds=False, use_heuristics=False)
        )
        viapre = solve_opp_normalized(
            inst, options=SolverOptions(use_bounds=False, use_heuristics=False)
        )
        assert direct.status == viapre.status

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=25, deadline=None)
    def test_container_floor_is_equivalence_not_relaxation(self, seed):
        """The subtle case: container extent not a multiple of the gcd."""
        rng = random.Random(seed)
        n = rng.randint(2, 3)
        boxes = [
            (2 * rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2))
            for _ in range(n)
        ]
        sizes = (2 * rng.randint(1, 3) + 1, 3, 3)  # odd x extent, even widths
        inst = make_instance(boxes, sizes)
        direct = solve_opp(
            inst, options=SolverOptions(use_bounds=False, use_heuristics=False)
        )
        viapre = solve_opp_normalized(
            inst, options=SolverOptions(use_bounds=False, use_heuristics=False)
        )
        assert direct.status == viapre.status
