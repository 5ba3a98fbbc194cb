"""Ablation A4 — the individual propagation filters.

Each pruning rule of the packing-class search can be switched off without
changing any answer (exact leaf verification backs them all); these benches
measure what each rule is worth in tree size on the paper's benchmark.

Measured shape (DE, 16×16 chip, deadline 14, search stage only):

    configuration   nodes
    all rules       ~14
    without C4      ~20
    without C5      ~14      (the C5 obstruction rarely binds here)
    without area    ~14      (binds on denser instances, see below)
    without C2      >15 000  (the infeasible-stable-set check carries
                              the chain reasoning; Section 3.3's point)

and for the Helly cross-section rule, an overfull fixed schedule
(FeasA&FixedS) that it refutes at the root versus ~2 300 nodes without it.
"""

import pytest

from repro.core import PropagationOptions, SolverOptions, solve_opp
from repro.core.fixed_schedule import feasible_placement_fixed_schedule
from repro.fpga import square_chip

CONFIGS = {
    "all_rules": PropagationOptions(),
    "no_c4": PropagationOptions(check_c4=False),
    "no_c5": PropagationOptions(check_c5=False),
    "no_area": PropagationOptions(check_area=False),
    "no_c2": PropagationOptions(check_c2=False),
}


@pytest.fixture(scope="module")
def de_t14(de_graph):
    return de_graph.to_instance(square_chip(16), 14)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_de_t14_under_filter_ablation(benchmark, de_t14, name):
    options = SolverOptions(
        use_bounds=False,
        use_heuristics=False,
        propagation=CONFIGS[name],
        time_limit=60,
    )

    def run():
        return solve_opp(de_t14, options=options)

    result = benchmark(run)
    assert result.status == "sat"
    benchmark.extra_info["nodes"] = result.stats.nodes


def test_c2_carries_the_chain_reasoning(de_t14):
    """Disabling the infeasible-stable-set check blows the tree up by three
    orders of magnitude on the paper's easiest table row."""
    full = solve_opp(
        de_t14, options=SolverOptions(use_bounds=False, use_heuristics=False)
    )
    stripped = solve_opp(
        de_t14,
        options=SolverOptions(
            use_bounds=False,
            use_heuristics=False,
            propagation=PropagationOptions(check_c2=False),
            time_limit=90,
        ),
    )
    assert full.status == stripped.status == "sat"
    assert stripped.stats.nodes > 100 * full.stats.nodes


OVERFULL_STARTS = {
    "v1": 0, "v2": 0, "v6": 0, "v8": 0,   # four MULs fill the 32x32 chip
    "v3": 2, "v7": 2, "v4": 4, "v5": 5,
    "v9": 2,
    "v10": 0, "v11": 1,                   # ... and an ALU is due at cycle 0
}


@pytest.mark.parametrize("area_rule", [True, False], ids=["area_on", "area_off"])
def test_helly_rule_on_overfull_schedule(benchmark, de_graph, area_rule):
    starts = [OVERFULL_STARTS[t.name] for t in de_graph.tasks]
    options = SolverOptions(
        propagation=PropagationOptions(check_area=area_rule),
        node_limit=200_000,
    )

    def run():
        return feasible_placement_fixed_schedule(
            de_graph.boxes(),
            starts,
            (32, 32),
            precedence=de_graph.dependency_dag(),
            options=options,
        )

    result = benchmark(run)
    assert result.status == "unsat"
    benchmark.extra_info["nodes"] = result.stats.nodes


def test_helly_rule_refutes_at_root(de_graph):
    starts = [OVERFULL_STARTS[t.name] for t in de_graph.tasks]
    with_rule = feasible_placement_fixed_schedule(
        de_graph.boxes(), starts, (32, 32),
        precedence=de_graph.dependency_dag(),
        options=SolverOptions(),
    )
    without = feasible_placement_fixed_schedule(
        de_graph.boxes(), starts, (32, 32),
        precedence=de_graph.dependency_dag(),
        options=SolverOptions(
            propagation=PropagationOptions(check_area=False)
        ),
    )
    assert with_rule.status == without.status == "unsat"
    assert with_rule.stats.nodes == 0
    assert without.stats.nodes > 100
