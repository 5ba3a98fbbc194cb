"""Mutation-style soundness tests for the stage-1 bounds and the
propagation rules.

Two complementary claims are exercised:

1. **Each pruning device can fire** — for every stage-1 bound there is a
   crafted witness instance that the bound alone proves infeasible (all
   other bounds disabled), and for every in-search propagation rule
   (C2 / C4 / C5 / cross-section area) there is a model-level assignment
   sequence that conflicts exactly when the rule is armed.

2. **No pruning device is load-bearing for correctness** — disabling any
   single bound or propagation rule never changes an answer, it only
   makes the solver work harder.  Bounds and rules may *prove*
   infeasibility early; they must never *invent* it.
"""

import random

import pytest

from repro.core import SolverOptions, solve_opp
from repro.core.bounds import BOUND_NAMES, prove_infeasible, prove_infeasible_named
from repro.core.boxes import make_instance
from repro.core.edgestate import (
    COMPARABILITY,
    COMPONENT,
    Conflict,
    PropagationOptions,
)
from repro.core.kernels import available, make_model
from repro.instances.random_instances import random_instance

#: Every registered kernel plus the ``vector`` alias, which must fire and
#: stay silent exactly like the kernel it names.
KERNELS = available() + ("vector",)


def _all_except(name):
    return tuple(b for b in BOUND_NAMES if b != name)


# One witness instance per bound: infeasible, and provably so by that
# bound *alone* (asserted below with every other bound disabled).
BOUND_WITNESSES = {
    # A single box wider than the container on an axis.
    "oversized_box_bound": lambda: make_instance([(5, 1, 1)], (4, 4, 4)),
    # Two full-container boxes: volume 54 > 27.
    "volume_bound": lambda: make_instance([(3, 3, 3)] * 2, (3, 3, 3)),
    # A 2-chain of duration-3 tasks against a time bound of 5.
    "critical_path_bound": lambda: make_instance(
        [(1, 1, 3)] * 2, (4, 4, 5), precedence_arcs=[(0, 1)]
    ),
    # Two 3x3-footprint boxes on a 4x4 chip: spatially exclusive, so their
    # durations (3+3) must run sequentially, exceeding the time bound 5.
    "spatial_conflict_bound": lambda: make_instance(
        [(3, 3, 3)] * 2, (4, 4, 5)
    ),
    # A predecessor pushes two spatially exclusive tasks to head 2; the
    # head/tail energetic bound then needs 2 + (2+2) = 6 > 5 even though
    # the bare conflict clique (weight 4) fits.
    "conflict_schedule_bound": lambda: make_instance(
        [(1, 1, 2), (3, 3, 2), (3, 3, 2)], (4, 4, 5),
        precedence_arcs=[(0, 1), (0, 2)],
    ),
    # Tight time windows force both 3x3 tasks to be live at instant 1
    # with footprint 18 > chip capacity 16.
    "mandatory_overlap_bound": lambda: make_instance(
        [(1, 1, 1), (3, 3, 2), (3, 3, 2)], (4, 4, 3),
        precedence_arcs=[(0, 1)],
    ),
    # Five 3x3x1 slabs on a 4x4x4 container: raw volume fits (45 < 64)
    # but the transformed volume under the width-threshold DFF is 5/4.
    "dff_volume_bound": lambda: make_instance([(3, 3, 1)] * 5, (4, 4, 4)),
}


class TestEachBoundFires:
    """Claim 1 for the stage-1 bounds."""

    @pytest.mark.parametrize("name", BOUND_NAMES)
    def test_witness_is_proved_by_the_bound_alone(self, name):
        inst = BOUND_WITNESSES[name]()
        got = prove_infeasible_named(inst, disabled=_all_except(name))
        assert got is not None, f"{name} failed to prove its witness"
        assert got[0] == name
        assert got[1]  # a non-empty human-readable certificate

    @pytest.mark.parametrize("name", BOUND_NAMES)
    def test_witness_is_silent_without_its_bound_or_proved_by_another(self, name):
        # Sanity on the witness design: with the target bound disabled the
        # remaining bounds either stay silent (the interesting case) or a
        # strictly different bound proves it — never a misattribution.
        inst = BOUND_WITNESSES[name]()
        got = prove_infeasible_named(inst, disabled=(name,))
        if got is not None:
            assert got[0] != name

    @pytest.mark.parametrize("name", BOUND_NAMES)
    def test_search_confirms_the_witness_without_any_bounds(self, name):
        # The bounds only *accelerate* the UNSAT proof: the raw search
        # (all bounds disabled) must reach the same verdict.
        inst = BOUND_WITNESSES[name]()
        result = solve_opp(
            inst,
            options=SolverOptions(
                disabled_bounds=BOUND_NAMES, node_limit=50000
            ),
        )
        assert result.status == "unsat", (name, result.status, result.stats.limit)


class TestDisablingNeverFlips:
    """Claim 2: ablation never changes an answer."""

    @staticmethod
    def _pool(seed, count):
        rng = random.Random(seed)
        return [
            random_instance(
                rng, container=(4, 4, 4), num_boxes=5, max_width=3,
                precedence_density=0.3,
            )
            for _ in range(count)
        ]

    @pytest.mark.parametrize("name", BOUND_NAMES)
    def test_single_disabled_bound_keeps_statuses(self, name):
        for inst in self._pool(600, 12):
            baseline = solve_opp(
                inst, options=SolverOptions(node_limit=20000)
            )
            ablated = solve_opp(
                inst,
                options=SolverOptions(
                    disabled_bounds=(name,), node_limit=20000
                ),
            )
            assert baseline.status == ablated.status, (name, inst.boxes)

    @pytest.mark.parametrize(
        "flag", ["check_c4", "check_c2", "check_c5", "check_area", "implications"]
    )
    def test_single_disabled_rule_keeps_statuses(self, flag):
        propagation = PropagationOptions(**{flag: False})
        for inst in self._pool(601, 12):
            baseline = solve_opp(
                inst, options=SolverOptions(node_limit=20000)
            )
            ablated = solve_opp(
                inst,
                options=SolverOptions(
                    propagation=propagation, node_limit=20000
                ),
            )
            assert baseline.status == ablated.status, (flag, inst.boxes)

    def test_all_bounds_disabled_keeps_statuses(self):
        for inst in self._pool(602, 10):
            baseline = solve_opp(
                inst, options=SolverOptions(node_limit=20000)
            )
            ablated = solve_opp(
                inst,
                options=SolverOptions(
                    disabled_bounds=BOUND_NAMES, node_limit=20000
                ),
            )
            assert baseline.status == ablated.status

    def test_unknown_bound_name_is_rejected(self):
        with pytest.raises(ValueError):
            SolverOptions(disabled_bounds=("no_such_bound",))

    def test_prove_infeasible_honors_disabled(self):
        inst = BOUND_WITNESSES["volume_bound"]()
        assert prove_infeasible(inst) is not None
        assert prove_infeasible(inst, disabled=BOUND_NAMES) is None


# ---------------------------------------------------------------------------
# Model-level witnesses for the in-search propagation rules.  Each case is
# an assignment sequence that conflicts when exactly one rule is armed and
# completes cleanly when all four are disarmed — under BOTH kernels.
# ---------------------------------------------------------------------------

_RULES_OFF = dict(
    check_c2=False, check_c4=False, check_c5=False, check_area=False
)

_C5_CYCLE = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
_C5_DIAGONALS = [(0, 2), (1, 3), (2, 4), (0, 3), (1, 4)]

RULE_WITNESSES = {
    # Three width-2 boxes pairwise comparable on a width-4 axis: the
    # comparability clique needs 6 > 4 units.
    "check_c2": (
        [(2, 1, 1)] * 3,
        (4, 4, 4),
        [
            (0, 0, 1, COMPARABILITY),
            (0, 0, 2, COMPARABILITY),
            (0, 1, 2, COMPARABILITY),
        ],
    ),
    # Four component cycle edges, then comparability diagonals: an
    # induced C4 in a would-be interval graph (chordality violation).
    "check_c4": (
        [(1, 1, 1)] * 4,
        (9, 9, 9),
        [
            (0, 0, 1, COMPONENT),
            (0, 1, 2, COMPONENT),
            (0, 2, 3, COMPONENT),
            (0, 0, 3, COMPONENT),
            (0, 0, 2, COMPARABILITY),
            (0, 1, 3, COMPARABILITY),
        ],
    ),
    # A pure 5-cycle in the comparability graph: C5 admits no transitive
    # orientation.
    "check_c5": (
        [(1, 1, 1)] * 5,
        (9, 9, 9),
        [(0, u, v, COMPONENT) for u, v in _C5_DIAGONALS]
        + [(0, u, v, COMPARABILITY) for u, v in _C5_CYCLE],
    ),
    # Four 6x2 boxes all pairwise time-overlapping on a 6x6 chip: by the
    # Helly property they share an instant, with total cross-section
    # 48 > 36.  (6+2 <= 6+6 on one spatial axis, so seeding does not
    # pre-separate them.)
    "check_area": (
        [(6, 2, 2)] * 4,
        (6, 6, 9),
        [(2, u, v, COMPONENT) for u in range(4) for v in range(u + 1, 4)],
    ),
}


def _drive(boxes, container, assigns, options, kernel):
    inst = make_instance(boxes, container)
    model = make_model(inst, options, kernel=kernel)
    model.seed()
    for axis, u, v, value in assigns:
        model.assign_state(axis, u, v, value)


class TestRuleWitnesses:
    """Claim 1 for the propagation rules, under every kernel."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("flag", sorted(RULE_WITNESSES))
    def test_armed_rule_conflicts(self, flag, kernel):
        boxes, container, assigns = RULE_WITNESSES[flag]
        options = PropagationOptions(**{**_RULES_OFF, flag: True})
        with pytest.raises(Conflict):
            _drive(boxes, container, assigns, options, kernel)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("flag", sorted(RULE_WITNESSES))
    def test_disarmed_rules_accept(self, flag, kernel):
        boxes, container, assigns = RULE_WITNESSES[flag]
        options = PropagationOptions(**_RULES_OFF)
        _drive(boxes, container, assigns, options, kernel)  # must not raise

    @pytest.mark.parametrize("flag", sorted(RULE_WITNESSES))
    def test_witness_instances_are_actually_sat(self, flag):
        # The witnesses above conflict because of the *assignments*, not
        # the instances: each instance on its own is satisfiable, so a
        # rule firing on it at the root would be a soundness bug.
        boxes, container, _assigns = RULE_WITNESSES[flag]
        inst = make_instance(boxes, container)
        result = solve_opp(inst, options=SolverOptions(node_limit=50000))
        assert result.status == "sat"
