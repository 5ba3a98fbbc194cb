"""Tests for the simulated-annealing placement heuristic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_instance, minimize_makespan
from repro.heuristics.annealing import (
    AnnealingOptions,
    annealed_makespan,
    annealed_placement,
)
from repro.instances.random_instances import random_feasible_instance


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealingOptions(iterations=0)
        with pytest.raises(ValueError):
            AnnealingOptions(cooling=1.0)


class TestAnnealedPlacement:
    def test_easy_instance(self):
        inst = make_instance([(1, 1, 1)] * 4, (2, 2, 1))
        placement = annealed_placement(inst)
        assert placement is not None
        assert placement.is_feasible()
        assert placement.instance is inst

    def test_respects_precedence(self):
        inst = make_instance(
            [(2, 2, 1)] * 3, (2, 2, 3), precedence_arcs=[(0, 1), (1, 2)]
        )
        placement = annealed_placement(inst)
        assert placement is not None
        assert placement.end(0, 2) <= placement.start(1, 2)

    def test_none_when_infeasible(self):
        inst = make_instance([(2, 2, 2)] * 2, (2, 2, 3))
        assert annealed_placement(inst) is None

    def test_deterministic_given_seed(self):
        inst = make_instance(
            [(2, 1, 1), (1, 2, 1), (2, 2, 1), (1, 1, 2)], (3, 3, 3)
        )
        a = annealed_placement(inst, AnnealingOptions(seed=5))
        b = annealed_placement(inst, AnnealingOptions(seed=5))
        assert (a is None) == (b is None)
        if a is not None:
            assert a.positions == b.positions

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=25, deadline=None)
    def test_results_always_feasible(self, seed):
        rng = random.Random(seed)
        inst, _ = random_feasible_instance(rng, (4, 4, 4), 5)
        placement = annealed_placement(inst, AnnealingOptions(iterations=80))
        if placement is not None:
            assert placement.is_feasible()


class TestAnnealedMakespan:
    def test_valid_upper_bound(self):
        inst = make_instance(
            [(2, 2, 2), (2, 1, 1), (1, 2, 2)], (2, 2, 1),
            precedence_arcs=[(0, 1)],
        )
        bound = annealed_makespan(inst)
        exact = minimize_makespan(
            list(inst.boxes), inst.precedence, chip=(2, 2)
        )
        assert bound is not None
        assert exact.status == "optimal"
        assert bound >= exact.optimum

    def test_matches_optimum_on_simple_case(self):
        inst = make_instance([(1, 1, 2)] * 4, (2, 2, 1))
        assert annealed_makespan(inst) == 2

    def test_annealing_can_beat_greedy_order(self):
        """On a deliberately greedy-hostile instance the annealer's best
        decoded makespan is at least as good as the default order's."""
        from repro.heuristics import heuristic_makespan

        inst = make_instance(
            [(3, 1, 2), (1, 3, 2), (3, 3, 1), (2, 2, 2), (1, 1, 3)],
            (4, 4, 1),
        )
        greedy = heuristic_makespan(inst)
        annealed = annealed_makespan(inst, AnnealingOptions(iterations=400, seed=3))
        assert annealed is not None and greedy is not None
        assert annealed <= greedy
