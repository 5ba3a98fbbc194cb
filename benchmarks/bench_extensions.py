"""Benchmarks for the extensions beyond the paper (DESIGN.md's extension
table): free-aspect area minimization, rotation, GCD normalization, and
annealing.  Each asserts its headline result while measuring it.
"""

import pytest

from repro.core import (
    SolverOptions,
    make_instance,
    minimize_area,
    solve_opp,
    solve_opp_normalized,
    solve_opp_with_rotation,
)
from repro.baselines import solve_opp_grid
from repro.core.preprocess import normalize_instance
from repro.heuristics.annealing import AnnealingOptions, annealed_makespan
from repro.instances.dsp import fir_filter_task_graph


def test_minimize_area_de_t6(benchmark, de_graph):
    """DE at the 6-cycle deadline: the best rectangle is 25% smaller than
    the best square (16x48 = 768 cells vs 32x32 = 1024)."""
    boxes = de_graph.boxes()
    dag = de_graph.dependency_dag()

    def run():
        return minimize_area(boxes, dag, time_bound=6)

    result = benchmark(run)
    assert result.status == "optimal"
    assert result.area == 768


def test_minimize_area_fir8(benchmark):
    graph = fir_filter_task_graph(8)
    boxes = graph.boxes()
    dag = graph.dependency_dag()
    cp = graph.critical_path_length()

    def run():
        return minimize_area(boxes, dag, time_bound=cp)

    result = benchmark(run)
    assert result.status == "optimal"
    assert result.area == 2048  # 16 x 128 beats the 48 x 48 square


def test_rotation_exact_small(benchmark):
    inst = make_instance(
        [(4, 4, 2), (1, 6, 1), (1, 6, 1)],
        (6, 4, 4),
        precedence_arcs=[(0, 1), (0, 2)],
    )

    def run():
        return solve_opp_with_rotation(inst)

    result = benchmark(run)
    assert result.status == "sat"
    assert sum(result.rotated) == 2  # both bus macros turn


def test_gcd_normalization_shrinks_grid_model(de_graph):
    """Normalization cuts the grid baseline's variable count 16-fold on
    the DE x-axis (all modules are 16 cells wide)."""
    from repro.fpga import square_chip

    inst = de_graph.to_instance(square_chip(32), 14)
    scaled, scaling = normalize_instance(inst)
    assert scaling.factors[0] == 16
    raw = solve_opp_grid(inst, node_limit=1)
    small = solve_opp_grid(scaled, node_limit=1)
    assert small.stats.variables * 8 < raw.stats.variables


def test_gcd_normalized_solve(benchmark, de_graph):
    from repro.fpga import square_chip

    inst = de_graph.to_instance(square_chip(32), 6)

    def run():
        return solve_opp_normalized(inst)

    result = benchmark(run)
    assert result.status == "sat"
    assert result.placement.is_feasible()


def test_annealed_makespan_quality(benchmark):
    graph = fir_filter_task_graph(8)
    from repro.fpga import square_chip

    inst = graph.to_instance(square_chip(32), 1)

    def run():
        return annealed_makespan(inst, AnnealingOptions(iterations=150, seed=1))

    bound = benchmark(run)
    assert bound is not None
    # The exact optimum on 32x32 is >= ceil(8 muls / 4 slots) * 2 + adds.
    assert bound >= 5


def test_annealing_stage_in_solver(benchmark):
    inst = make_instance(
        [(2, 2, 2), (2, 1, 1), (1, 2, 1), (2, 2, 1)], (3, 3, 4)
    )
    options = SolverOptions(use_annealing=True)

    def run():
        return solve_opp(inst, options=options)

    result = benchmark(run)
    assert result.status == "sat"
