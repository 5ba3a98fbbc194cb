"""The ablation and extension claims of EXPERIMENTS.md, as checks.

Each test pins the *shape* of one claim — who exhausts a budget, which
tree is larger, which rule refutes at the root — never a timing.  The
numbers behind them are in EXPERIMENTS.md (A1-A4 and the extensions).
Cases that spend their whole budget on purpose are marked ``slow``.
"""

import pytest

from repro.baselines import (
    solve_opp_geometric,
    solve_opp_grid,
    solve_opp_leaf_oriented,
)
from repro.core import (
    PropagationOptions,
    SolverOptions,
    make_instance,
    minimize_area,
    minimize_base,
    solve_opp,
    solve_opp_with_rotation,
)
from repro.core.fixed_schedule import feasible_placement_fixed_schedule
from repro.core.preprocess import normalize_instance
from repro.fpga import ModuleType, TaskGraph, square_chip
from repro.instances.de import DE_DEPENDENCIES, DE_OPERATIONS, de_task_graph
from repro.instances.dsp import fir_filter_task_graph

SEARCH_ONLY = SolverOptions(use_bounds=False, use_heuristics=False)


def mini_de_graph():
    """The DE graph with its modules scaled down 4x, so the tree search
    is stressed at small absolute runtimes."""
    mul = ModuleType("MUL", 4, 4, 2)
    alu = ModuleType("ALU", 4, 1, 1)
    graph = TaskGraph("mini-de")
    for name, module in DE_OPERATIONS:
        graph.add_task(name, mul if module == "MUL" else alu)
    for producer, consumer in DE_DEPENDENCIES:
        graph.add_dependency(producer, consumer)
    return graph


class TestA1Baselines:
    @pytest.mark.slow
    def test_baselines_exhaust_their_budget_on_de(self):
        """On the real DE benchmark (16x16 chip, deadline 14) the
        packing-class search decides at once; the geometric enumeration
        and the grid 0/1 model both exhaust a 5-second budget."""
        inst = de_task_graph().to_instance(square_chip(16), 14)
        assert solve_opp(inst, options=SEARCH_ONLY).status == "sat"
        assert solve_opp_geometric(inst, time_limit=5.0).status == "unknown"
        assert solve_opp_grid(inst, time_limit=5.0).status == "unknown"


class TestA2Implications:
    def test_leaf_only_tree_is_larger(self):
        inst = mini_de_graph().to_instance(square_chip(4), 14)
        with_engine = solve_opp(inst, options=SEARCH_ONLY)
        leaf_only = solve_opp_leaf_oriented(inst, SEARCH_ONLY)
        assert with_engine.status == leaf_only.status == "sat"
        assert with_engine.stats.nodes < leaf_only.stats.nodes

    @pytest.mark.slow
    @pytest.mark.parametrize("side,time_bound", [(5, 13), (8, 6)])
    def test_leaf_only_exhausts_its_budget(self, side, time_bound):
        """On the tighter design points the in-tree D1/D2 engine decides
        quickly; leaf-only orientation checks spend a 5-second budget and
        a tree more than 20x larger without deciding."""
        inst = mini_de_graph().to_instance(square_chip(side), time_bound)
        with_engine = solve_opp(inst, options=SEARCH_ONLY)
        assert with_engine.status == "sat"
        leaf_only = solve_opp_leaf_oriented(
            inst,
            SolverOptions(use_bounds=False, use_heuristics=False, time_limit=5),
        )
        assert leaf_only.status == "unknown"
        assert leaf_only.stats.nodes > 20 * with_engine.stats.nodes


class TestA3Stages:
    def test_bounds_off_still_decides_table1_hardest_row(self):
        """With bounds off the h_t = 6 sweep still reaches the optimum
        without search: the heuristic settles the SAT probes and the UNSAT
        probes are refuted at the search root."""
        graph = de_task_graph()
        result = minimize_base(
            graph.boxes(),
            graph.dependency_dag(),
            time_bound=6,
            options=SolverOptions(use_bounds=False, time_limit=10),
        )
        assert (result.status, result.optimum) == ("optimal", 32)
        assert all(probe.nodes == 0 for probe in result.probes)
        assert {probe.stage for probe in result.probes} == {
            "heuristic", "search"
        }


class TestA4Propagation:
    @pytest.mark.slow
    def test_c2_carries_the_chain_reasoning(self):
        """Without the infeasible-stable-set check (C2) the tree on DE
        16x16, deadline 14, grows more than 100-fold."""
        inst = de_task_graph().to_instance(square_chip(16), 14)
        full = solve_opp(inst, options=SEARCH_ONLY)
        stripped = solve_opp(
            inst,
            options=SolverOptions(
                use_bounds=False,
                use_heuristics=False,
                propagation=PropagationOptions(check_c2=False),
                time_limit=90,
            ),
        )
        assert full.status == stripped.status == "sat"
        assert stripped.stats.nodes > 100 * full.stats.nodes

    def test_helly_rule_refutes_overfull_schedule_at_root(self):
        """Four MULs fill the 32x32 chip at cycle 0 while an ALU is due
        then too: the Helly cross-section rule refutes this fixed schedule
        at the root; without it the search needs over 100 nodes."""
        graph = de_task_graph()
        overfull = {
            "v1": 0, "v2": 0, "v6": 0, "v8": 0,
            "v3": 2, "v7": 2, "v4": 4, "v5": 5, "v9": 2,
            "v10": 0, "v11": 1,
        }
        starts = [overfull[task.name] for task in graph.tasks]

        def solve(propagation):
            return feasible_placement_fixed_schedule(
                graph.boxes(),
                starts,
                (32, 32),
                precedence=graph.dependency_dag(),
                options=SolverOptions(propagation=propagation),
            )

        with_rule = solve(PropagationOptions())
        without = solve(PropagationOptions(check_area=False))
        assert with_rule.status == without.status == "unsat"
        assert with_rule.stats.nodes == 0
        assert without.stats.nodes > 100


class TestExtensions:
    def test_fir8_free_aspect_area(self):
        """At its critical path the 8-tap FIR fits a 16x128 rectangle
        (2048 cells), which beats the 48x48 square."""
        graph = fir_filter_task_graph(8)
        result = minimize_area(
            graph.boxes(),
            graph.dependency_dag(),
            time_bound=graph.critical_path_length(),
        )
        assert (result.status, result.area) == ("optimal", 2048)

    def test_bus_macros_rotate(self):
        inst = make_instance(
            [(4, 4, 2), (1, 6, 1), (1, 6, 1)],
            (6, 4, 4),
            precedence_arcs=[(0, 1), (0, 2)],
        )
        result = solve_opp_with_rotation(inst)
        assert result.status == "sat"
        assert sum(result.rotated) == 2

    def test_gcd_normalization_shrinks_grid_model(self):
        """Every DE module is 16 cells wide, so normalization divides the
        x-axis by 16 and the grid baseline's variable count more than
        8-fold."""
        inst = de_task_graph().to_instance(square_chip(32), 14)
        scaled, scaling = normalize_instance(inst)
        assert scaling.factors[0] == 16
        raw = solve_opp_grid(inst, node_limit=1)
        small = solve_opp_grid(scaled, node_limit=1)
        assert small.stats.variables * 8 < raw.stats.variables
