"""Unit tests for the lower-bound machinery and dual feasible functions."""

import ast
import itertools
import random
from fractions import Fraction

import pytest

from repro.core import bounds, make_instance
from repro.core.boxes import Box, Container, PackingInstance
from repro.core.bounds import (
    conflict_schedule_bound,
    critical_path_bound,
    dff_volume_bound,
    makespan_lower_bound,
    mandatory_overlap_bound,
    oversized_box_bound,
    prove_infeasible,
    spatial_conflict_bound,
    volume_bound,
)
from repro.core.dff import (
    default_family,
    identity,
    is_dual_feasible_on_samples,
    make_f0,
    make_u_k,
)
from repro.graphs.digraph import DiGraph


class TestDFFs:
    def test_identity(self):
        assert identity(Fraction(1, 3)) == Fraction(1, 3)

    def test_u_k_breakpoints(self):
        u2 = make_u_k(2)
        # x(k+1) integral: keep x.
        assert u2(Fraction(1, 3)) == Fraction(1, 3)
        assert u2(Fraction(2, 3)) == Fraction(2, 3)
        # Otherwise floor(3x)/2.
        assert u2(Fraction(1, 2)) == Fraction(1, 2)  # floor(1.5)/2 = 1/2
        assert u2(Fraction(2, 5)) == Fraction(1, 2)  # floor(1.2)/2
        assert u2(Fraction(1, 4)) == Fraction(0)     # floor(0.75)/2

    def test_u_1_halves(self):
        u1 = make_u_k(1)
        assert u1(Fraction(1, 2)) == Fraction(1, 2)
        assert u1(Fraction(3, 5)) == Fraction(1)   # floor(1.2)/1
        assert u1(Fraction(2, 5)) == Fraction(0)

    def test_u_k_rejects_bad_k(self):
        with pytest.raises(ValueError):
            make_u_k(0)

    def test_f0_threshold(self):
        f = make_f0(Fraction(1, 4))
        assert f(Fraction(9, 10)) == 1
        assert f(Fraction(1, 10)) == 0
        assert f(Fraction(1, 2)) == Fraction(1, 2)

    def test_f0_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            make_f0(Fraction(3, 4))
        with pytest.raises(ValueError):
            make_f0(Fraction(0))

    def test_all_default_family_members_are_dual_feasible(self):
        widths = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)]
        for f in default_family(widths):
            assert is_dual_feasible_on_samples(f, denominator=12), f.__name__

    def test_sampling_rejects_non_dff(self):
        def cheat(x):
            return min(Fraction(1), x * 2)

        assert not is_dual_feasible_on_samples(cheat, denominator=8)


def _check_table(widths, size):
    """Every row entry of ``_dff_table`` over its denominator is the image
    of the matching ``default_family`` member, and the names agree."""
    thresholds, rows, den = bounds._dff_table(widths, size)
    family = default_family([Fraction(w, size) for w in widths])
    assert len(rows) == len(family)
    for index, (member, row) in enumerate(zip(family, rows)):
        assert bounds._member_name(index, thresholds, size) == member.__name__
        assert [Fraction(y, den) for y in row] == [
            member(Fraction(w, size)) for w in widths
        ], (size, member.__name__)
    return len(thresholds)


class TestClosedFormDFFTable:
    """``bounds._dff_table`` evaluates ``default_family`` in closed form on
    integers; ``core/dff.py`` is the reference it is held to."""

    def test_every_width_of_every_size_up_to_64(self):
        for size in range(1, 65):
            ascending = list(range(1, size + 1))
            assert _check_table(ascending, size) == size // 2
            # Descending order composes the three largest thresholds.
            _check_table(ascending[::-1], size)

    def test_repeated_and_shuffled_thresholds(self):
        rng = random.Random(5)
        for size in (9, 12, 30, 64):
            widths = [rng.randint(1, size) for _ in range(3 * size)]
            assert len({w for w in widths if 2 * w <= size}) > 3
            _check_table(widths, size)

    def test_widths_beyond_the_container(self):
        # Reached when the oversized-box bound is disabled.
        for size in range(1, 17):
            _check_table([1, size, size + 1, 2 * size + 1, 3 * size], size)


class TestSimpleBounds:
    def test_oversized_box(self):
        inst = make_instance([(5, 1, 1)], (4, 4, 4))
        assert oversized_box_bound(inst) is not None
        assert volume_bound(inst) is None

    def test_volume(self):
        inst = make_instance([(2, 2, 2)] * 9, (4, 4, 4))
        assert volume_bound(inst) is not None

    def test_volume_exact_fit_passes(self):
        inst = make_instance([(2, 2, 2)] * 8, (4, 4, 4))
        assert volume_bound(inst) is None

    def test_critical_path(self):
        inst = make_instance(
            [(1, 1, 2)] * 3, (4, 4, 5), precedence_arcs=[(0, 1), (1, 2)]
        )
        assert critical_path_bound(inst) is not None
        ok = make_instance(
            [(1, 1, 2)] * 3, (4, 4, 6), precedence_arcs=[(0, 1), (1, 2)]
        )
        assert critical_path_bound(ok) is None

    def test_no_precedence_no_critical_path(self):
        inst = make_instance([(1, 1, 9)], (4, 4, 4))
        assert critical_path_bound(inst) is None


class TestSpatialConflictBound:
    def test_exclusive_boxes_must_serialize(self):
        # Two full-chip boxes of duration 2 in a 3-cycle window.
        inst = make_instance([(4, 4, 2)] * 2, (4, 4, 3))
        assert spatial_conflict_bound(inst) is not None

    def test_fit_side_by_side_no_bound(self):
        inst = make_instance([(2, 4, 2)] * 2, (4, 4, 3))
        assert spatial_conflict_bound(inst) is None


class TestConflictScheduleBound:
    def test_head_tail_strengthening(self):
        # Two exclusive 2-cycle boxes, each with a small 1-cycle successor
        # that is NOT spatially exclusive: the plain clique bound sees only
        # 2 + 2 = 4 <= 4, but the tail strengthening yields 0 + 4 + 1 = 5.
        inst = make_instance(
            [(4, 4, 2), (4, 4, 2), (1, 1, 1), (1, 1, 1)],
            (5, 5, 4),
            precedence_arcs=[(0, 2), (1, 3)],
        )
        assert spatial_conflict_bound(inst) is None
        assert conflict_schedule_bound(inst) is not None

    def test_de_t12_on_17_proved(self):
        """The key UNSAT instance behind Figure 7: latency 12 on 17x17."""
        from repro.instances.de import de_task_graph

        graph = de_task_graph()
        from repro.fpga import square_chip

        inst = graph.to_instance(square_chip(17), 12)
        assert conflict_schedule_bound(inst) is not None

    def test_de_t13_on_17_not_proved(self):
        from repro.instances.de import de_task_graph
        from repro.fpga import square_chip

        graph = de_task_graph()
        inst = graph.to_instance(square_chip(17), 13)
        assert prove_infeasible(inst) is None  # it is in fact SAT


class TestDFFVolumeBound:
    def test_six_multipliers_cannot_run_concurrently_on_47(self):
        # DE without precedence at T=2: all six 16x16x2 MULs concurrent;
        # u^(2) rounds 16/47 up to 1/2 per axis -> 6 * 1/4 * 1 > 1.
        inst = make_instance([(16, 16, 2)] * 6, (47, 47, 2))
        assert dff_volume_bound(inst) is not None

    def test_48_fits_and_passes(self):
        inst = make_instance([(16, 16, 2)] * 6, (48, 48, 2))
        assert dff_volume_bound(inst) is None


class TestMakespanLowerBound:
    def test_includes_critical_path(self):
        inst = make_instance(
            [(1, 1, 3)] * 2, (4, 4, 10), precedence_arcs=[(0, 1)]
        )
        assert makespan_lower_bound(inst) >= 6

    def test_includes_volume(self):
        inst = make_instance([(4, 4, 2)] * 3, (4, 4, 100))
        assert makespan_lower_bound(inst) >= 6

    def test_includes_conflict_clique(self):
        inst = make_instance([(3, 3, 2)] * 3, (4, 4, 100))
        # Pairwise exclusive on a 4x4 chip: serial, 6 cycles.
        assert makespan_lower_bound(inst) >= 6


class TestProveInfeasible:
    def test_returns_none_on_feasible(self):
        inst = make_instance([(1, 1, 1)] * 2, (2, 2, 2))
        assert prove_infeasible(inst) is None

    def test_returns_first_certificate(self):
        inst = make_instance([(5, 1, 1)], (4, 4, 4))
        assert "exceeds the container" in prove_infeasible(inst)


# -- integer DFF kernel vs. the Fraction loops it replaced -------------------


def _reference_combinations(counts):
    """The combination order of :func:`dff_volume_bound` over axes with
    ``counts[axis]`` members: every axis pair, then every single axis."""
    d = len(counts)
    combos = []
    for axes in itertools.combinations(range(d), 2):
        for fa in range(counts[axes[0]]):
            for fb in range(counts[axes[1]]):
                combo = [0] * d
                combo[axes[0]] = fa
                combo[axes[1]] = fb
                combos.append(tuple(combo))
    for axis in range(d):
        for fa in range(counts[axis]):
            combo = [0] * d
            combo[axis] = fa
            combos.append(tuple(combo))
    return combos


def _reference_dff_volume_bound(instance, max_combinations=2000):
    """The original ``Fraction`` evaluation of :func:`dff_volume_bound`."""
    d = instance.dimensions
    normalized = [
        [
            Fraction(box.widths[axis], instance.container.sizes[axis])
            for box in instance.boxes
        ]
        for axis in range(d)
    ]
    families = [default_family(normalized[axis]) for axis in range(d)]
    combos = _reference_combinations([len(family) for family in families])
    seen = set()
    for combo in combos[:max_combinations]:
        if combo in seen:
            continue
        seen.add(combo)
        total = Fraction(0)
        for b in range(instance.n):
            term = Fraction(1)
            for axis in range(d):
                term *= families[axis][combo[axis]](normalized[axis][b])
            total += term
        if total > 1:
            names = [families[axis][combo[axis]].__name__ for axis in range(d)]
            return (
                f"DFF volume bound exceeded: combination {names} gives "
                f"transformed volume {total} > 1"
            )
    return None


def _reference_spatial_dff_overflow(instance, live, spatial_axes):
    """The original ``Fraction`` evaluation of ``_spatial_dff_overflow``."""
    normalized = {
        axis: [
            Fraction(instance.boxes[v].widths[axis], instance.container.sizes[axis])
            for v in live
        ]
        for axis in spatial_axes
    }
    families = {axis: default_family(normalized[axis]) for axis in spatial_axes}
    ax0, ax1 = spatial_axes[0], spatial_axes[-1]
    for f in families[ax0]:
        for g in families[ax1]:
            total = Fraction(0)
            for i in range(len(live)):
                total += f(normalized[ax0][i]) * g(normalized[ax1][i])
            if total > 1:
                return (
                    f"2-D DFF bound ({f.__name__}, {g.__name__}) gives "
                    f"transformed area {total} > 1"
                )
    return None


def _random_instances(seed, d, count):
    """Seeded instances with time axis last and a precedence DAG whose
    critical path leaves at most two cycles of slack, so that tasks are
    forced to overlap.  Spatial widths lean on just over half the chip,
    where the staircase DFFs round up."""
    rng = random.Random(seed)
    for _ in range(count):
        sizes = [rng.randint(4, 16) for _ in range(d - 1)]
        n = rng.randint(3, 10)
        widths = [
            [rng.choice((rng.randint(1, s), s // 2 + 1)) for s in sizes]
            + [rng.randint(1, 4)]
            for _ in range(n)
        ]
        dag = DiGraph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.3
            ],
        )
        path = int(dag.critical_path_length([w[-1] for w in widths]))
        container = Container(sizes + [path + rng.randint(0, 2)])
        yield PackingInstance([Box(w) for w in widths], container, dag, d - 1)


class TestIntegerDFFKernel:
    """The integer-table DFF bounds return byte-identical certificates (or
    ``None``) to the ``Fraction`` loops they replaced."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dff_volume_bound_matches_fraction_loops(self, d):
        proved = 0
        for instance in _random_instances(100 + d, d, 25):
            expected = _reference_dff_volume_bound(instance)
            assert dff_volume_bound(instance) == expected
            proved += expected is not None
        assert 0 < proved < 25

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_mandatory_overlap_bound_matches_fraction_loops(
        self, d, monkeypatch
    ):
        instances = list(_random_instances(200 + d, d, 60))
        actual = [mandatory_overlap_bound(inst) for inst in instances]
        spatial_proofs = []
        reference = bounds._spatial_dff_overflow

        def counting_reference(instance, live, spatial_axes):
            certificate = _reference_spatial_dff_overflow(
                instance, live, spatial_axes
            )
            assert reference(instance, live, spatial_axes) == certificate
            spatial_proofs.append(certificate is not None)
            return certificate

        monkeypatch.setattr(bounds, "_spatial_dff_overflow", counting_reference)
        expected = [mandatory_overlap_bound(inst) for inst in instances]
        assert actual == expected
        assert spatial_proofs and not all(spatial_proofs)
        # With one spatial axis the footprint check subsumes the DFF
        # argument (g <= 1, so sum f(x) g(x) <= sum f(x) <= 1).
        assert any(spatial_proofs) or d == 2

    @pytest.mark.parametrize(
        "widths, container",
        [
            # Axis 0 sits at half the chip, where all eight members have
            # the identity's row: the (0, 1) and (0, 2) blocks before the
            # refuting (1, 2) pair are duplicates.
            ([(6, 7, 7)] * 3, (12, 12, 12)),
            # Members with the row of an earlier member precede the
            # refuting f0 and u_k∘f0 members on their axes.
            (
                [(1, 7, 10), (1, 1, 2), (2, 14, 16), (1, 13, 17), (4, 10, 5)],
                (4, 15, 20),
            ),
            ([(6, 11, 10), (7, 11, 13), (9, 7, 7)], (15, 15, 16)),
        ],
    )
    def test_duplicate_rows_before_the_refuting_combination(
        self, widths, container
    ):
        instance = make_instance(widths, container)
        expected = _reference_dff_volume_bound(instance)
        assert expected is not None
        assert dff_volume_bound(instance) == expected
        names = ast.literal_eval(
            expected.split("combination ")[1].split(" gives")[0]
        )
        tables = [
            bounds._dff_table(instance.widths_along(axis), size)
            for axis, size in enumerate(container)
        ]
        combos = _reference_combinations([len(rows) for _, rows, _ in tables])
        refuting = combos.index(tuple(
            [
                bounds._member_name(f, thresholds, size)
                for f in range(len(rows))
            ].index(name)
            for (thresholds, rows, _), size, name in zip(tables, container, names)
        ))
        before = set(combos[:refuting])
        row_tuples = {
            tuple(tuple(rows[f]) for (_, rows, _), f in zip(tables, combo))
            for combo in before
        }
        assert len(row_tuples) < len(before)

    def test_cap_counts_combinations_not_distinct_rows(self):
        # Axis 1 sits at half the chip, so all its 8 members share the
        # identity's row, and the (0, 1) block repeats each axis-0 member
        # eight times.  Its 8 * 251 = 2008 positions fill the cap with 251
        # distinct row tuples; the refuting (identity, identity, u_1) lies
        # at position 2009.  A cap on distinct tuples would reach it.
        widths = [(512, 1, 513)] * 3 + [(e, 1, 1) for e in range(1, 241)]
        instance = make_instance(widths, (512, 2, 1024))
        assert dff_volume_bound(instance) is None
        assert dff_volume_bound(instance, max_combinations=2010) == (
            "DFF volume bound exceeded: combination ['identity', "
            "'identity', 'u_1'] gives transformed volume 3/2 > 1"
        )
        assert dff_volume_bound(instance, max_combinations=2009) is None

    @pytest.mark.parametrize("cap", [100, 168, 169, 170, 10**6])
    def test_small_cap_counts_combinations_like_the_reference(self, cap):
        # The same shape with 21 members on axis 0: the (0, 1) block holds
        # positions 0..167 and the refuting combination is position 169.
        widths = [(64, 1, 513)] * 3 + [(e, 1, 1) for e in range(1, 11)]
        instance = make_instance(widths, (64, 2, 1024))
        expected = _reference_dff_volume_bound(instance, max_combinations=cap)
        assert (expected is None) == (cap <= 169)
        assert dff_volume_bound(instance, max_combinations=cap) == expected

    def test_spatial_overflow_with_duplicate_rows_on_both_axes(self):
        instance = make_instance(
            [(3, 3, 1), (3, 3, 1), (3, 3, 1), (4, 4, 1), (3, 3, 1), (1, 2, 1)],
            (8, 8, 3),
        )
        for axis in (0, 1):
            _, rows, _ = bounds._dff_table(instance.widths_along(axis), 8)
            assert len(bounds._distinct_rows(rows)) < len(rows)
        for live in ([0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4], [0, 3, 4], [5, 3, 0, 1, 2]):
            expected = _reference_spatial_dff_overflow(instance, live, [0, 1])
            assert bounds._spatial_dff_overflow(instance, live, [0, 1]) == (
                expected
            )
        assert bounds._spatial_dff_overflow(
            instance, [0, 1, 2, 3, 4], [0, 1]
        ) == "2-D DFF bound (u_2, u_2) gives transformed area 5/4 > 1"

    def test_combination_cap_truncates_identically(self):
        # Three boxes over half the chip on axes 1 and 2 are only refuted
        # by u_1 on both of those axes.  Thirty fillers with distinct
        # widths <= 1/2 on axes 0 and 2 give those axes 43 family members
        # each, so the (0, 1) and (0, 2) pairs fill the first 2000
        # combinations and the refuting (1, 2) pair lies beyond the cap.
        widths = [(32, 33, 33)] * 3 + [(i, 1, 31 - i) for i in range(1, 31)]
        instance = make_instance(widths, (64, 64, 64))
        assert dff_volume_bound(instance) is None
        assert _reference_dff_volume_bound(instance) is None
        assert dff_volume_bound(instance, max_combinations=10**6) == (
            "DFF volume bound exceeded: combination ['identity', 'u_1', "
            "'u_1'] gives transformed volume 3/2 > 1"
        )
