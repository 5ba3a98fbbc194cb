"""The packing core is dimension-generic; exercise d = 2 and d = 4.

The paper's method is stated for arbitrary d ("a d-tuple of graphs"); the
FPGA application uses d = 3.  These tests run the identical solver on
two-dimensional instances (classic rectangle packing; also the FixedS
reduction target) and four-dimensional ones (e.g. chip x time x a discrete
resource layer).
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Placement, SolverOptions, make_instance, solve_opp

SEARCH_ONLY = SolverOptions(use_bounds=False, use_heuristics=False)


def brute_force_sat(instance):
    ranges = []
    for b in instance.boxes:
        ranges.append(
            list(
                itertools.product(
                    *[
                        range(instance.container.sizes[a] - b.widths[a] + 1)
                        for a in range(instance.dimensions)
                    ]
                )
            )
        )
    for combo in itertools.product(*ranges):
        if Placement(instance, list(combo)).is_feasible():
            return True
    return False


class TestTwoDimensional:
    def test_perfect_square_tiling(self):
        inst = make_instance([(2, 2)] * 4, (4, 4))
        r = solve_opp(inst, options=SEARCH_ONLY)
        assert r.is_sat
        assert r.placement.is_feasible()

    def test_classic_unsat_rectangle(self):
        # Three 3x2 rectangles cannot tile a 5x4 area minus nothing: 18 <=
        # 20 by area, but geometry forbids it on a 5x4 sheet? Actually they
        # fit (two horizontal + one vertical).  Use a genuinely infeasible
        # case: three 3x2 in 4x4 (area 18 > 16).
        inst = make_instance([(3, 2)] * 3, (4, 4))
        assert solve_opp(inst, options=SEARCH_ONLY).is_unsat

    def test_geometry_beats_area(self):
        # Two 3x3 squares in 5x6: area 18 <= 30 but no placement exists
        # (3+3 > 5 horizontally, 3+3 == 6 vertically works!).  So SAT.
        inst = make_instance([(3, 3)] * 2, (5, 6))
        assert solve_opp(inst, options=SEARCH_ONLY).is_sat
        # ... and 5x5 really is infeasible.
        tight = make_instance([(3, 3)] * 2, (5, 5))
        assert solve_opp(tight, options=SEARCH_ONLY).is_unsat

    def test_2d_precedence_on_second_axis(self):
        # With d=2 the "time" axis is axis 1 by default (-1).
        inst = make_instance(
            [(2, 2), (2, 2)], (2, 4), precedence_arcs=[(0, 1)]
        )
        r = solve_opp(inst, options=SEARCH_ONLY)
        assert r.is_sat
        assert r.placement.end(0, 1) <= r.placement.start(1, 1)

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_2d(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        boxes = [
            (rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)
        ]
        sizes = (rng.randint(2, 3), rng.randint(2, 4))
        inst = make_instance(boxes, sizes)
        got = solve_opp(inst, options=SEARCH_ONLY)
        assert (got.status == "sat") == brute_force_sat(inst)


class TestFourDimensional:
    def test_hypercube_tiling(self):
        # Heuristics enabled: stage 2 settles highly symmetric SAT cases.
        inst = make_instance([(1, 1, 1, 1)] * 16, (2, 2, 2, 2))
        r = solve_opp(inst)
        assert r.is_sat
        assert r.placement.is_feasible()

    def test_small_tiling_by_search(self):
        inst = make_instance([(2, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)], (2, 2, 1, 1))
        r = solve_opp(inst, options=SEARCH_ONLY)
        assert r.is_sat
        assert r.placement.is_feasible()

    def test_volume_unsat(self):
        inst = make_instance([(2, 2, 2, 2)] * 2, (2, 2, 2, 3))
        assert solve_opp(inst, options=SEARCH_ONLY).is_unsat

    def test_4d_with_precedence(self):
        inst = make_instance(
            [(1, 1, 1, 2), (1, 1, 1, 2)], (1, 1, 1, 4),
            precedence_arcs=[(0, 1)],
        )
        r = solve_opp(inst, options=SEARCH_ONLY)
        assert r.is_sat
        assert r.placement.end(0, 3) <= r.placement.start(1, 3)

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_4d(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 3)
        boxes = [
            tuple(rng.randint(1, 2) for _ in range(4)) for _ in range(n)
        ]
        sizes = tuple(rng.randint(2, 3) for _ in range(4))
        inst = make_instance(boxes, sizes)
        got = solve_opp(inst, options=SEARCH_ONLY)
        assert (got.status == "sat") == brute_force_sat(inst)
