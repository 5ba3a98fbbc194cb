"""Ablation A1 — packing classes vs. the approaches the paper rejects.

The paper cites two alternatives and dismisses both:

* grid 0/1 position models ("requiring x·y·t 0-1 variables … hopeless" for
  a 3-D problem on realistic cell grids) — `solve_opp_grid`;
* "a purely geometric enumeration scheme … immensely time-consuming" —
  `solve_opp_geometric` (normal-pattern complete enumeration).

All three solvers are exact; we measure them on feasible-by-construction
random instances (guillotine cuts of the container, so the answer is SAT
and known).  Expected shape: packing classes ≤ geometric ≪ grid, with the
gap exploding as instances grow — on the real DE benchmark with its 16×16
cell modules the baselines do not finish in minutes (see
EXPERIMENTS.md), which is exactly the paper's point.
"""

import random

import pytest

from repro.baselines import solve_opp_geometric, solve_opp_grid
from repro.core import SolverOptions, solve_opp
from repro.instances.random_instances import random_feasible_instance

SEARCH_ONLY = SolverOptions(use_bounds=False, use_heuristics=False)

CASES = {
    "small_6boxes": (11, (5, 5, 5), 6),
    "medium_7boxes": (23, (6, 6, 6), 7),
    "large_8boxes": (5, (6, 6, 6), 8),
}


@pytest.fixture(scope="module")
def case_instances():
    out = {}
    for name, (seed, container, boxes) in CASES.items():
        inst, _ = random_feasible_instance(
            random.Random(seed), container, boxes, 0.4
        )
        out[name] = inst
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_packing_class_solver(benchmark, case_instances, name):
    inst = case_instances[name]
    result = benchmark(lambda: solve_opp(inst, options=SEARCH_ONLY))
    assert result.status == "sat"
    benchmark.extra_info["nodes"] = result.stats.nodes


@pytest.mark.parametrize("name", sorted(CASES))
def test_geometric_enumeration_baseline(benchmark, case_instances, name):
    inst = case_instances[name]
    result = benchmark(lambda: solve_opp_geometric(inst))
    assert result.status == "sat"
    benchmark.extra_info["nodes"] = result.stats.nodes


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_model_baseline(benchmark, case_instances, name):
    inst = case_instances[name]
    result = benchmark(lambda: solve_opp_grid(inst))
    assert result.status == "sat"
    benchmark.extra_info["nodes"] = result.stats.nodes
    benchmark.extra_info["grid_variables"] = result.stats.variables


def test_baselines_time_out_on_real_de_instance(de_graph):
    """The paper's qualitative claim, measured: on the actual DE benchmark
    (16x16 chip, deadline 14) the packing-class solver finishes in well
    under a second while both baselines exhaust a 5-second budget."""
    from repro.fpga import square_chip

    inst = de_graph.to_instance(square_chip(16), 14)
    ours = solve_opp(inst, options=SEARCH_ONLY)
    assert ours.status == "sat"
    geometric = solve_opp_geometric(inst, time_limit=5.0)
    grid = solve_opp_grid(inst, time_limit=5.0)
    assert geometric.status == "unknown"
    assert grid.status == "unknown"
