"""Property-based checks of solver invariants over random populations.

These are the semantic contracts differential testing relies on:

* the bounds stage is *sound* — an UNSAT verdict from bounds alone must be
  confirmed by the full search with bounds disabled;
* every SAT witness is geometrically valid and respects the precedence
  order on the time axis;
* a fixed seed and configuration make the whole pipeline deterministic;
* every exit path — including time/node-limit bailouts — finalizes
  :class:`SearchStats` (the elapsed clock is never left at zero and the
  limit reason is surfaced).
"""

import random
from dataclasses import replace

from repro.core.boxes import Box, Container, PackingInstance
from repro.core.opp import SolverOptions, solve_opp
from repro.graphs.digraph import DiGraph
from repro.instances import (
    differential_instances,
    random_feasible_instance,
    random_mixed_instance,
)

SEED = 4242


def test_bounds_unsat_implies_search_unsat():
    """Soundness of stage 1: whenever bounds alone prove UNSAT, the full
    search (bounds disabled) must reach the same verdict."""
    rng = random.Random(SEED)
    confirmed = 0
    for _ in range(300):
        instance = random_mixed_instance(rng, max_container=4, max_boxes=5)
        with_bounds = solve_opp(instance)
        if with_bounds.status == "unsat" and with_bounds.stage == "bounds":
            no_bounds = solve_opp(
                instance,
                options=SolverOptions(use_bounds=False, node_limit=500_000),
            )
            assert no_bounds.status == "unsat", (
                f"bounds claimed unsat, search found {no_bounds.status} on "
                f"{instance.container.sizes} / {[b.widths for b in instance.boxes]}"
            )
            confirmed += 1
    assert confirmed >= 10, "population never exercised the bounds stage"


def test_sat_witness_is_valid_and_respects_precedence():
    rng = random.Random(SEED + 1)
    checked = 0
    for _ in range(120):
        instance, _ = random_feasible_instance(
            rng, container=(4, 4, 5), num_boxes=5, precedence_density=0.4
        )
        result = solve_opp(instance)
        assert result.status == "sat"
        placement = result.placement
        assert not placement.violations()
        axis = instance.time_axis
        for u, v in instance.precedence.arcs():
            assert placement.end(u, axis) <= placement.start(v, axis), (
                f"precedence arc {u}->{v} violated: "
                f"end={placement.end(u, axis)} start={placement.start(v, axis)}"
            )
            checked += 1
    assert checked >= 50, "population never exercised precedence arcs"


def test_fixed_seed_is_deterministic():
    """Same seed, same options → byte-identical verdicts and witnesses."""

    def run():
        outcomes = []
        for instance in differential_instances(SEED + 2, 40):
            result = solve_opp(
                instance, options=SolverOptions(node_limit=200_000)
            )
            outcomes.append(
                (
                    result.status,
                    result.stage,
                    result.stats.nodes,
                    None
                    if result.placement is None
                    else tuple(result.placement.positions),
                )
            )
        return outcomes

    assert run() == run()


def test_annealing_seed_is_deterministic():
    rng = random.Random(SEED + 3)
    instance, _ = random_feasible_instance(rng, container=(5, 5, 5), num_boxes=6)
    options = SolverOptions(use_annealing=True, annealing_seed=7)
    first = solve_opp(instance, options=options)
    second = solve_opp(instance, options=options)
    assert first.status == second.status == "sat"
    assert first.placement.positions == second.placement.positions


def _hard_instance():
    """Dense enough that the search cannot finish within one node."""
    boxes = [Box((2, 2, 2), name=f"h{i}") for i in range(9)]
    return PackingInstance(boxes, Container((5, 5, 6)), DiGraph(9))


def test_node_limit_exit_finalizes_stats():
    result = solve_opp(
        _hard_instance(),
        options=SolverOptions(
            use_bounds=False, use_heuristics=False, node_limit=50
        ),
    )
    assert result.status == "unknown"
    assert result.limit == "node limit"
    assert result.stats.elapsed > 0.0
    assert result.stats.nodes >= 50


def test_time_limit_exit_finalizes_stats():
    result = solve_opp(
        _hard_instance(),
        options=SolverOptions(
            use_bounds=False, use_heuristics=False, time_limit=0.0
        ),
    )
    assert result.status == "unknown"
    assert result.limit == "time limit"
    assert result.stats.elapsed > 0.0


def test_conclusive_results_have_no_limit_and_an_elapsed_clock():
    rng = random.Random(SEED + 4)
    for _ in range(30):
        instance = random_mixed_instance(rng, max_container=4, max_boxes=4)
        result = solve_opp(instance)
        assert result.status in ("sat", "unsat")
        assert result.limit is None
        assert result.stats.elapsed > 0.0, (
            f"stage {result.stage!r} left stats.elapsed at zero"
        )


def test_stats_elapsed_set_on_every_stage():
    """Each of the three pipeline stages stamps the clock — including the
    pre-search stages that used to return unfinalized stats."""
    rng = random.Random(SEED + 5)
    stages = set()
    for _ in range(200):
        instance = random_mixed_instance(rng, max_container=4, max_boxes=5)
        result = solve_opp(instance)
        stages.add(result.stage)
        assert result.stats.elapsed > 0.0, f"stage {result.stage!r}"
    assert "bounds" in stages
    assert {"heuristic", "search"} & stages


def test_cancellation_reports_reason():
    result = solve_opp(
        _hard_instance(),
        options=SolverOptions(use_bounds=False, use_heuristics=False),
        should_stop=lambda: True,
    )
    assert result.status == "unknown"
    assert result.limit == "cancelled"
    assert result.stats.elapsed >= 0.0


def test_options_do_not_change_verdicts():
    """Ablation configurations may change cost, never answers."""
    rng = random.Random(SEED + 6)
    variants = [
        SolverOptions(),
        SolverOptions(use_heuristics=False),
        SolverOptions(use_bounds=False),
        replace(SolverOptions(), use_annealing=True, annealing_seed=3),
    ]
    for _ in range(40):
        instance = random_mixed_instance(rng, max_container=4, max_boxes=4)
        verdicts = {solve_opp(instance, options=v).status for v in variants}
        assert len(verdicts) == 1, f"options changed the verdict: {verdicts}"
