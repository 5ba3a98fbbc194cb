"""Ablation A2 — the value of in-tree implication propagation (Section 4).

The paper argues (Section 4.2) that testing orientation feasibility only at
the leaves — the Korte–Möhring-as-black-box alternative — "cannot be
expected to be reasonably efficient", because obstructions fixed high in
the tree are rediscovered at every leaf below.  Section 4.3's D1/D2
propagation is the remedy.

Measured shape on the scaled DE benchmark (search stage only):

    instance       with D1/D2          leaf-only
    mini-DE t=14   ~14 nodes, <0.1 s   ~273 nodes, ~0.2 s
    mini-DE t=13   ~61 nodes, <0.1 s   >40 000 nodes, budget exhausted
    mini-DE t=6    ~291 nodes, <0.2 s  >25 000 nodes, budget exhausted

Both configurations are exact; only the tree size differs — by orders of
magnitude, exactly the paper's qualitative claim.
"""

import pytest

from repro.baselines import solve_opp_leaf_oriented
from repro.core import SolverOptions, solve_opp
from repro.fpga import ModuleType, TaskGraph, square_chip
from repro.instances.de import DE_DEPENDENCIES, DE_OPERATIONS

SEARCH_ONLY = SolverOptions(use_bounds=False, use_heuristics=False)


def mini_de_graph(scale=4):
    """The DE graph with modules scaled down 4x (stresses the tree search
    at small absolute runtimes)."""
    mul = ModuleType("MUL", scale, scale, 2)
    alu = ModuleType("ALU", scale, 1, 1)
    graph = TaskGraph("mini-de")
    for name, module in DE_OPERATIONS:
        graph.add_task(name, mul if module == "MUL" else alu)
    for producer, consumer in DE_DEPENDENCIES:
        graph.add_dependency(producer, consumer)
    return graph


@pytest.fixture(scope="module")
def instances():
    mini = mini_de_graph()
    return {
        "mini_de_t14": mini.to_instance(square_chip(4), 14),
        "mini_de_t13": mini.to_instance(square_chip(5), 13),
        "mini_de_t6": mini.to_instance(square_chip(8), 6),
    }


@pytest.mark.parametrize("name", ["mini_de_t14", "mini_de_t13", "mini_de_t6"])
def test_with_implication_engine(benchmark, instances, name):
    inst = instances[name]

    def run():
        return solve_opp(inst, options=SEARCH_ONLY)

    result = benchmark(run)
    assert result.status == "sat"
    benchmark.extra_info["nodes"] = result.stats.nodes


def test_leaf_only_orientation_easy_case(benchmark, instances):
    """The one instance where the rejected alternative still terminates
    quickly enough to benchmark."""
    inst = instances["mini_de_t14"]

    def run():
        return solve_opp_leaf_oriented(inst, SEARCH_ONLY)

    result = benchmark(run)
    assert result.status == "sat"
    benchmark.extra_info["nodes"] = result.stats.nodes


@pytest.mark.parametrize("name", ["mini_de_t13", "mini_de_t6"])
def test_leaf_only_orientation_exhausts_budget(instances, name):
    """On the tighter design points the leaf-only variant blows past a
    5-second budget that the full engine beats by ~50x."""
    inst = instances[name]
    with_engine = solve_opp(inst, options=SEARCH_ONLY)
    assert with_engine.status == "sat"
    assert with_engine.stats.elapsed < 2.5
    budgeted = SolverOptions(
        use_bounds=False, use_heuristics=False, time_limit=5
    )
    leaf_only = solve_opp_leaf_oriented(inst, budgeted)
    assert leaf_only.status == "unknown"
    assert leaf_only.stats.nodes > 20 * with_engine.stats.nodes


def test_tree_size_comparison(instances):
    """The headline number: in-tree D1/D2 shrinks the tree."""
    inst = instances["mini_de_t14"]
    with_engine = solve_opp(inst, options=SEARCH_ONLY)
    leaf_only = solve_opp_leaf_oriented(inst, SEARCH_ONLY)
    assert with_engine.status == leaf_only.status == "sat"
    assert with_engine.stats.nodes < leaf_only.stats.nodes
