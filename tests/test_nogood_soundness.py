"""Soundness of the conflict-learning layer, proven independently.

A learned nogood claims "this set of edge decisions admits no feasible
completion."  The learner *verifies* that claim by replay before storing it,
but these tests do not trust the learner: every nogood recorded during a
learned search is replayed here into a **fresh reference-kernel model** —
no search state, no store, no shared code path beyond the propagation
engine itself — and propagation must refute it.  The second half certifies
that learned SAT answers carry placements the standalone checker
(:mod:`repro.certify`, geometry only) re-validates verbatim.

Mechanism-level tests pin the store (dedup, bounded eviction, byte-identical
serialization), the Luby schedule, and the option validation.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certify import certify_payload
from repro.core import LearningOptions, SolverOptions, solve_opp
from repro.core.edgestate import COMPARABILITY, COMPONENT, Conflict
from repro.core.kernels import make_model
from repro.core.nogoods import (
    ConflictAnalyzer,
    NogoodStore,
    luby,
    opposite_state,
)
from repro.core.search import BranchAndBound
from repro.instances.random_instances import random_instance

SEARCH_ONLY = dict(use_bounds=False, use_heuristics=False, use_annealing=False)


def _instance(seed):
    rng = random.Random(seed)
    return random_instance(
        rng, container=(4, 4, 5), num_boxes=6, max_width=3,
        precedence_density=0.3,
    )


def _refutes_on_reference(instance, propagation, literals):
    """The independent check: fresh reference kernel, no search state."""
    model = make_model(instance, propagation, "reference")
    try:
        model.seed()
        for axis, u, v, value in literals:
            model.assign_state(axis, u, v, value)
    except Conflict:
        return True
    return False


class TestNogoodRefutability:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_every_recorded_nogood_is_independently_refutable(self, seed):
        instance = _instance(seed)
        solver = BranchAndBound(
            instance,
            node_limit=4000,
            learning=LearningOptions(enabled=True),
        )
        solver.solve()
        for nogood in solver._store.nogoods:
            assert _refutes_on_reference(
                instance, solver.model.options, nogood.literals
            ), f"nogood {nogood.literals} not refuted by the reference kernel"

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_nogoods_survive_restarts_refutable(self, seed):
        # Tiny restart budgets force several rounds; clauses learned in any
        # round must still be independently refutable at the end.
        instance = _instance(seed)
        solver = BranchAndBound(
            instance,
            node_limit=4000,
            learning=LearningOptions(
                enabled=True, restart_base=2, max_restarts=4
            ),
        )
        solver.solve()
        for nogood in solver._store.nogoods:
            assert _refutes_on_reference(
                instance, solver.model.options, nogood.literals
            )

    def test_minimized_cores_are_irreducible(self):
        # On a deterministic searchy instance, dropping any literal from a
        # learned nogood must lose the refutation (the greedy minimizer
        # returns an irreducible core whenever its budget was not cut short,
        # which a 6-box instance never approaches).
        instance = _instance(8)
        solver = BranchAndBound(
            instance, node_limit=4000, learning=LearningOptions(enabled=True)
        )
        solver.solve()
        checked = 0
        for nogood in solver._store.nogoods:
            if len(nogood.literals) < 2:
                continue
            for i in range(len(nogood.literals)):
                weaker = nogood.literals[:i] + nogood.literals[i + 1:]
                assert not _refutes_on_reference(
                    instance, solver.model.options, weaker
                ), f"{nogood.literals} is not minimal: {weaker} still refutes"
            checked += 1
        assert checked > 0, "instance produced no multi-literal nogoods"


class TestLearnedAnswersCertify:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_sat_placements_pass_the_standalone_checker(self, seed):
        instance = _instance(seed)
        result = solve_opp(
            instance,
            options=SolverOptions(
                learning=LearningOptions(enabled=True), **SEARCH_ONLY
            ),
        )
        assert result.status in ("sat", "unsat")
        if result.status == "sat":
            verdict = certify_payload(result.certificate_payload(instance))
            assert verdict.verdict == "certified"

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_learning_never_changes_the_answer(self, seed):
        instance = _instance(seed)
        base = solve_opp(instance, options=SolverOptions(**SEARCH_ONLY))
        learned = solve_opp(
            instance,
            options=SolverOptions(
                learning=LearningOptions(enabled=True), **SEARCH_ONLY
            ),
        )
        assert learned.status == base.status


class TestAnalyzer:
    def test_refutes_matches_reference_replay(self):
        instance = _instance(77)
        analyzer = ConflictAnalyzer(
            instance, None, "bitmask", [], [], budget=100, max_literals=8
        )
        # An obviously refutable prefix: both boxes forced to overlap on
        # every axis simultaneously cannot survive propagation on a
        # container they jointly exceed somewhere; find one by probing.
        solver = BranchAndBound(
            instance, node_limit=4000, learning=LearningOptions(enabled=True)
        )
        solver.solve()
        for nogood in solver._store.nogoods:
            assert analyzer.refutes(nogood.literals)

    def test_budget_exhaustion_stops_learning(self):
        instance = _instance(77)
        solver = BranchAndBound(
            instance,
            node_limit=4000,
            learning=LearningOptions(enabled=True, analysis_budget=0),
        )
        solver.solve()
        assert len(solver._store) == 0
        assert solver.stats.nogoods_learned == 0


class TestStoreMechanics:
    def test_duplicate_literal_sets_are_rejected(self):
        store = NogoodStore(limit=4)
        lits = ((0, 0, 1, COMPONENT), (1, 0, 1, COMPARABILITY))
        added, evicted = store.add(lits)
        assert added and not evicted
        added, evicted = store.add(tuple(reversed(lits)))
        assert not added
        assert len(store) == 1

    def test_bounded_store_evicts_lowest_activity(self):
        store = NogoodStore(limit=2)
        store.add(((0, 0, 1, COMPONENT),))
        store.add(((0, 0, 2, COMPONENT),))
        store.bump(store.nogoods[1])  # protect the second clause
        added, evicted = store.add(((0, 1, 2, COMPONENT),))
        assert added and evicted == 1
        surviving = {ng.literals for ng in store.nogoods}
        assert ((0, 0, 2, COMPONENT),) in surviving
        assert ((0, 0, 1, COMPONENT),) not in surviving

    def test_serialization_round_trips_byte_identically(self):
        store = NogoodStore(limit=8, activity_decay=0.9)
        store.add(((0, 0, 1, COMPONENT), (2, 1, 3, COMPARABILITY)))
        store.add(((1, 0, 2, COMPARABILITY),))
        store.bump(store.nogoods[0])
        payload = store.to_dict()
        clone = NogoodStore.from_dict(payload, limit=8, activity_decay=0.9)
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            clone.to_dict(), sort_keys=True
        )

    def test_activity_rescale_keeps_ordering(self):
        store = NogoodStore(limit=4, activity_decay=0.5)
        store.add(((0, 0, 1, COMPONENT),))
        store.add(((0, 0, 2, COMPONENT),))
        for _ in range(400):  # drives the increment past the rescale bound
            store.bump(store.nogoods[1])
        assert store.nogoods[1].activity > store.nogoods[0].activity
        assert store._inc < 1e100


class TestSchedulesAndOptions:
    def test_luby_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_luby_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            luby(0)

    def test_opposite_state(self):
        assert opposite_state(COMPONENT) == COMPARABILITY
        assert opposite_state(COMPARABILITY) == COMPONENT

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(store_limit=0),
            dict(max_literals=0),
            dict(analysis_budget=-1),
            dict(restart_base=0),
            dict(max_restarts=-1),
            dict(activity_decay=0.0),
            dict(activity_decay=1.5),
        ],
    )
    def test_option_validation(self, kwargs):
        with pytest.raises(ValueError):
            LearningOptions(**kwargs)

    def test_solver_options_accepts_bool_shorthand(self):
        options = SolverOptions(learning=True)
        assert isinstance(options.learning, LearningOptions)
        assert options.learning.enabled
