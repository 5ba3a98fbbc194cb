"""Tests for the occupancy grid and the greedy placement heuristics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Container, make_instance
from repro.heuristics import (
    OccupancyGrid,
    bottom_left_placement,
    candidate_coordinates,
    find_first_fit,
    heuristic_makespan,
    heuristic_placement,
    list_schedule_placement,
)
from repro.core.boxes import Box
from repro.instances.random_instances import random_feasible_instance


class TestOccupancyGrid:
    def test_place_and_query(self):
        grid = OccupancyGrid(Container((3, 3, 3)))
        assert grid.fits((0, 0, 0), (2, 2, 2))
        grid.place((0, 0, 0), (2, 2, 2))
        assert not grid.fits((1, 1, 1), (1, 1, 1))
        assert grid.fits((2, 0, 0), (1, 1, 1))

    def test_out_of_bounds(self):
        grid = OccupancyGrid(Container((3, 3, 3)))
        assert not grid.fits((2, 0, 0), (2, 1, 1))
        assert not grid.fits((-1, 0, 0), (1, 1, 1))

    def test_remove(self):
        grid = OccupancyGrid(Container((2, 2, 2)))
        grid.place((0, 0, 0), (2, 2, 2))
        grid.remove((0, 0, 0), (2, 2, 2))
        assert grid.fits((0, 0, 0), (1, 1, 1))

    def test_double_place_raises(self):
        grid = OccupancyGrid(Container((2, 2, 2)))
        grid.place((0, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError):
            grid.place((0, 0, 0), (1, 1, 1))

    def test_partial_overlap_raises_and_changes_nothing(self):
        grid = OccupancyGrid(Container((4, 3, 2)))
        grid.place((3, 2, 1), (1, 1, 1))  # the far corner cell
        before = bytes(grid.cells)
        with pytest.raises(ValueError):
            grid.place((2, 1, 0), (2, 2, 2))
        assert bytes(grid.cells) == before

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_far_walls(self, axis):
        sizes = (4, 3, 5)
        grid = OccupancyGrid(Container(sizes))
        widths = [1, 1, 1]
        widths[axis] = 2
        flush = [0, 0, 0]
        flush[axis] = sizes[axis] - 2
        past = list(flush)
        past[axis] += 1
        assert not grid.fits(tuple(past), widths)
        with pytest.raises(ValueError):
            grid.place(tuple(past), widths)
        grid.place(tuple(flush), widths)
        assert not grid.fits(tuple(flush), widths)
        # Exactly the region's cells are occupied, nothing wraps around.
        assert sum(grid.cells) == 2
        for offset in range(sizes[axis]):
            cell = [0, 0, 0]
            cell[axis] = offset
            inside = offset >= sizes[axis] - 2
            assert grid.fits(tuple(cell), (1, 1, 1)) is not inside
        grid.remove(tuple(flush), widths)
        assert not any(grid.cells)
        assert grid.fits((0, 0, 0), sizes)


class TestCandidates:
    def test_origin_always_candidate(self):
        assert candidate_coordinates([], 3) == [[0], [0], [0]]

    def test_ends_of_placed_boxes(self):
        cands = candidate_coordinates([((0, 0, 0), (2, 3, 4))], 3)
        assert cands == [[0, 2], [0, 3], [0, 4]]

    def test_first_fit_avoids_occupied(self):
        grid = OccupancyGrid(Container((4, 1, 1)))
        grid.place((0, 0, 0), (2, 1, 1))
        spot = find_first_fit(
            grid, Box((2, 1, 1)), candidate_coordinates([((0, 0, 0), (2, 1, 1))], 3)
        )
        assert spot == (2, 0, 0)

    def test_minimum_respected(self):
        grid = OccupancyGrid(Container((2, 2, 5)))
        spot = find_first_fit(
            grid,
            Box((1, 1, 1)),
            candidate_coordinates([], 3),
            minimum=[0, 0, 3],
        )
        assert spot is not None and spot[2] >= 3


class TestListSchedulePlacement:
    def test_respects_precedence(self):
        inst = make_instance(
            [(2, 2, 2)] * 3, (2, 2, 6), precedence_arcs=[(0, 1), (1, 2)]
        )
        placement = list_schedule_placement(inst)
        assert placement is not None
        assert placement.is_feasible()
        assert placement.start(1, 2) >= placement.end(0, 2)

    def test_fails_gracefully_when_too_tight(self):
        inst = make_instance(
            [(2, 2, 2)] * 3, (2, 2, 5), precedence_arcs=[(0, 1), (1, 2)]
        )
        assert list_schedule_placement(inst) is None

    def test_packs_in_parallel_when_possible(self):
        inst = make_instance([(1, 1, 2)] * 4, (2, 2, 2))
        placement = list_schedule_placement(inst)
        assert placement is not None
        assert placement.makespan() == 2


class TestBottomLeft:
    def test_all_rules_feasible_or_none(self):
        inst = make_instance([(2, 1, 1), (1, 2, 1), (1, 1, 2)], (2, 2, 3))
        for rule in ("volume", "base_area", "duration", "input"):
            placement = bottom_left_placement(inst, rule)
            assert placement is None or placement.is_feasible()

    def test_unknown_rule_rejected(self):
        inst = make_instance([(1, 1, 1)], (2, 2, 2))
        with pytest.raises(ValueError):
            bottom_left_placement(inst, "magic")


class TestHeuristicPlacement:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=50, deadline=None)
    def test_results_always_feasible(self, seed):
        rng = random.Random(seed)
        inst, _ = random_feasible_instance(rng, (4, 4, 4), 5)
        placement = heuristic_placement(inst)
        if placement is not None:
            assert placement.is_feasible()

    def test_finds_easy_packing(self):
        inst = make_instance([(1, 1, 1)] * 8, (2, 2, 2))
        assert heuristic_placement(inst) is not None


class TestHeuristicMakespan:
    def test_upper_bound_is_achievable(self):
        inst = make_instance(
            [(2, 2, 2)] * 3, (2, 2, 1), precedence_arcs=[(0, 1)]
        )
        bound = heuristic_makespan(inst)
        assert bound is not None
        assert bound >= 6  # footprint forces full serialization

    def test_parallel_boxes_short_makespan(self):
        inst = make_instance([(1, 1, 3)] * 4, (2, 2, 1))
        assert heuristic_makespan(inst) == 3

    def test_bound_valid_against_exact(self):
        from repro.core import minimize_makespan

        inst = make_instance(
            [(2, 1, 2), (1, 2, 1), (2, 2, 1)], (2, 2, 1),
            precedence_arcs=[(0, 2)],
        )
        heuristic = heuristic_makespan(inst)
        exact = minimize_makespan(
            list(inst.boxes), inst.precedence, chip=(2, 2)
        )
        assert exact.status == "optimal"
        assert heuristic >= exact.optimum


class TestPrecedenceScheduleRunsOnce:
    """With precedence every sort rule delegates to the same list schedule,
    so the heuristics run it once instead of once per rule."""

    @staticmethod
    def _count_schedules(monkeypatch):
        from repro.heuristics import greedy

        calls = []
        real = greedy.list_schedule_placement

        def counting(instance, order=None):
            calls.append(order)
            return real(instance, order)

        monkeypatch.setattr(greedy, "list_schedule_placement", counting)
        return calls

    @staticmethod
    def _positions(placement):
        return None if placement is None else placement.positions

    def test_failing_schedule_runs_once(self, monkeypatch):
        inst = make_instance(
            [(2, 2, 2)] * 3, (2, 2, 5), precedence_arcs=[(0, 1), (1, 2)]
        )
        per_rule = [
            bottom_left_placement(inst, rule)
            for rule in ("volume", "base_area", "duration", "input")
        ]
        calls = self._count_schedules(monkeypatch)
        assert heuristic_placement(inst) is None
        assert calls == [None]
        assert per_rule == [None] * 4

    def test_succeeding_schedule_matches_every_rule(self, monkeypatch):
        inst = make_instance(
            [(2, 1, 2), (1, 2, 1), (2, 2, 1), (1, 1, 3)], (2, 2, 6),
            precedence_arcs=[(0, 2), (1, 3)],
        )
        per_rule = [
            self._positions(bottom_left_placement(inst, rule))
            for rule in ("volume", "base_area", "duration", "input")
        ]
        calls = self._count_schedules(monkeypatch)
        placement = heuristic_placement(inst)
        assert calls == [None]
        assert per_rule[0] is not None
        assert per_rule == [placement.positions] * 4

    @pytest.mark.parametrize("seed", range(6))
    def test_makespan_schedules_once(self, monkeypatch, seed):
        from repro.core.boxes import Container, PackingInstance

        inst, _ = random_feasible_instance(
            random.Random(seed), (4, 4, 4), 6, precedence_density=0.5
        )
        assert inst.has_precedence()
        sizes = list(inst.container.sizes)
        sizes[inst.time_axis] = sum(b.widths[inst.time_axis] for b in inst.boxes)
        relaxed = PackingInstance(
            list(inst.boxes), Container(tuple(sizes)), inst.precedence
        )
        spans = [
            bottom_left_placement(relaxed, rule).makespan()
            for rule in ("volume", "base_area", "duration", "input")
        ]
        calls = self._count_schedules(monkeypatch)
        assert heuristic_makespan(inst) == min(spans)
        assert calls == [None]

    def test_precedence_free_tries_every_rule(self, monkeypatch):
        inst = make_instance([(2, 2, 1)] * 5, (2, 2, 4))
        calls = self._count_schedules(monkeypatch)
        heuristic_makespan(inst)
        assert len(calls) == 4 and None not in calls
