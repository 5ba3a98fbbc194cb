"""Tests for the FixedS problems (schedule given, 2-D spatial search)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Box,
    Placement,
    ScheduleError,
    feasible_placement_fixed_schedule,
    minimize_base_fixed_schedule,
    validate_schedule,
)
from repro.graphs import DiGraph


def boxes_of(widths):
    return [Box(w, name=f"b{i}") for i, w in enumerate(widths)]


class TestValidateSchedule:
    def test_wrong_length(self):
        with pytest.raises(ScheduleError):
            validate_schedule(boxes_of([(1, 1, 1)]), [0, 0], None)

    def test_negative_start(self):
        with pytest.raises(ScheduleError):
            validate_schedule(boxes_of([(1, 1, 1)]), [-1], None)

    def test_beyond_bound(self):
        with pytest.raises(ScheduleError):
            validate_schedule(boxes_of([(1, 1, 3)]), [2], None, time_bound=4)

    def test_precedence_violation(self):
        dag = DiGraph(2, [(0, 1)])
        with pytest.raises(ScheduleError):
            validate_schedule(boxes_of([(1, 1, 2)] * 2), [0, 1], dag)

    def test_valid_schedule_passes(self):
        dag = DiGraph(2, [(0, 1)])
        validate_schedule(boxes_of([(1, 1, 2)] * 2), [0, 2], dag, time_bound=4)


class TestFeasibility:
    def test_concurrent_boxes_that_fit(self):
        r = feasible_placement_fixed_schedule(
            boxes_of([(2, 2, 2), (2, 2, 2)]), [0, 0], (4, 2)
        )
        assert r.status == "sat"
        assert r.placement.is_feasible()
        # Exact start times preserved.
        assert [p[2] for p in r.placement.positions] == [0, 0]

    def test_concurrent_boxes_that_do_not_fit(self):
        r = feasible_placement_fixed_schedule(
            boxes_of([(2, 2, 2), (2, 2, 2)]), [0, 0], (3, 2)
        )
        assert r.status == "unsat"

    def test_staggered_boxes_fit_small_chip(self):
        r = feasible_placement_fixed_schedule(
            boxes_of([(2, 2, 2), (2, 2, 2)]), [0, 2], (2, 2)
        )
        assert r.status == "sat"

    def test_partial_time_overlap_matters(self):
        # Overlapping halfway: still must be spatially disjoint.
        r = feasible_placement_fixed_schedule(
            boxes_of([(2, 2, 2), (2, 2, 2)]), [0, 1], (2, 2)
        )
        assert r.status == "unsat"

    def test_broken_precedence_rejected(self):
        dag = DiGraph(2, [(0, 1)])
        with pytest.raises(ScheduleError):
            feasible_placement_fixed_schedule(
                boxes_of([(1, 1, 2)] * 2), [0, 1], (2, 2), precedence=dag
            )

    def test_exact_start_times_in_result(self):
        starts = [0, 1, 3]
        r = feasible_placement_fixed_schedule(
            boxes_of([(1, 1, 1), (1, 1, 2), (1, 1, 1)]), starts, (1, 1)
        )
        assert r.status == "sat"
        assert [p[2] for p in r.placement.positions] == starts


class TestMinimizeBaseFixedSchedule:
    def test_all_concurrent(self):
        # Four unit-footprint concurrent boxes: 2x2 chip.
        r = minimize_base_fixed_schedule(
            boxes_of([(1, 1, 1)] * 4), [0, 0, 0, 0]
        )
        assert (r.status, r.optimum) == ("optimal", 2)

    def test_all_sequential(self):
        r = minimize_base_fixed_schedule(
            boxes_of([(2, 2, 1)] * 3), [0, 1, 2]
        )
        assert (r.status, r.optimum) == ("optimal", 2)

    def test_empty(self):
        r = minimize_base_fixed_schedule([], [])
        assert r.optimum == 0

    def test_result_schedule_feasible(self):
        r = minimize_base_fixed_schedule(
            boxes_of([(2, 1, 2), (1, 2, 2), (1, 1, 2)]), [0, 0, 0]
        )
        assert r.placement is not None and r.placement.is_feasible()


def brute_force_fixed(boxes, starts, chip):
    """Enumerate spatial anchors with the times pinned."""
    ranges = []
    for b in boxes:
        xs = range(chip[0] - b.widths[0] + 1)
        ys = range(chip[1] - b.widths[1] + 1)
        ranges.append([(x, y) for x in xs for y in ys])
    duration = [b.widths[2] for b in boxes]
    n = len(boxes)
    for combo in itertools.product(*ranges):
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                t_overlap = max(starts[i], starts[j]) < min(
                    starts[i] + duration[i], starts[j] + duration[j]
                )
                x_overlap = max(combo[i][0], combo[j][0]) < min(
                    combo[i][0] + boxes[i].widths[0],
                    combo[j][0] + boxes[j].widths[0],
                )
                y_overlap = max(combo[i][1], combo[j][1]) < min(
                    combo[i][1] + boxes[i].widths[1],
                    combo[j][1] + boxes[j].widths[1],
                )
                if t_overlap and x_overlap and y_overlap:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


class TestBruteForceEquivalence:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        boxes = boxes_of(
            [
                (rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2))
                for _ in range(n)
            ]
        )
        starts = [rng.randint(0, 2) for _ in range(n)]
        chip = (rng.randint(2, 3), rng.randint(2, 3))
        got = feasible_placement_fixed_schedule(boxes, starts, chip)
        expected = brute_force_fixed(boxes, starts, chip)
        assert (got.status == "sat") == expected
