"""Stage 2b: the second stage-2 attempt inside a long search.

A ``solve_opp`` search still undecided at ``RESCUE_NODES`` nodes runs
``RESCUE_ORDERS`` seeded list-schedule orders, then annealing, once.  These
tests pin what that may and may not change: the searches it settles
report their stage at exactly ``RESCUE_NODES`` nodes with a certifiable
witness; every other search walks the tree it walked before; and the
rescue stays inside the search's clocks.

The instances are the perfbench ``search_pool`` instances in generator
order (``random_feasible_instance`` on 6x6x6, 12 boxes, density 0.3,
seed 2001); see ``tests/test_pool_trees.py`` for all 24.
"""

import random
import time

import pytest

import repro.core.opp as opp
import repro.heuristics.annealing as annealing
import repro.heuristics.greedy as greedy
from repro.certify import certify_payload
from repro.core.deadline import Deadline
from repro.core.opp import SolverOptions, solve_opp
from repro.core.search import RESCUE_NODES, BranchAndBound
from repro.instances.random_instances import random_feasible_instance

#: Pool index -> the stage that settles it at RESCUE_NODES.
RESCUED = {0: "annealing", 9: "heuristic", 11: "annealing", 17: "heuristic"}
#: A budget exit the rescue cannot settle.
UNRESCUED = 1
CAP = SolverOptions(node_limit=20000)


@pytest.fixture(scope="module")
def pool():
    rng = random.Random(2001)
    return [
        random_feasible_instance(rng, (6, 6, 6), 12, 0.3)[0] for _ in range(18)
    ]


@pytest.fixture
def rescue_calls(monkeypatch):
    """Records every stage-2b call (the rescue still runs)."""
    calls = []
    real = opp._stage_2b

    def recording(instance, stop):
        calls.append(instance)
        return real(instance, stop)

    monkeypatch.setattr(opp, "_stage_2b", recording)
    return calls


def _slow_decodes(monkeypatch, seconds):
    """Every list-schedule decode sleeps ``seconds`` and misses; returns
    the monotonic start time of each decode."""
    starts = []

    def slow(instance, order=None):
        starts.append(time.monotonic())
        time.sleep(seconds)
        return None

    monkeypatch.setattr(greedy, "list_schedule_placement", slow)
    monkeypatch.setattr(annealing, "list_schedule_placement", slow)
    return starts


@pytest.mark.parametrize("index", sorted(RESCUED))
def test_rescued_instance_reports_its_stage(pool, index):
    instance = pool[index]
    result = solve_opp(instance, options=CAP)
    assert result.status == "sat"
    assert result.stage == RESCUED[index]
    assert result.stats.nodes == RESCUE_NODES
    assert result.limit is None
    assert result.checkpoint is None
    assert result.placement.is_feasible()
    verdict = certify_payload(result.certificate_payload(instance))
    assert verdict.verdict == "certified"


@pytest.mark.parametrize("index", sorted(RESCUED))
def test_rescue_is_deterministic(pool, index):
    first = solve_opp(pool[index], options=CAP)
    second = solve_opp(pool[index], options=CAP)
    assert first.stage == second.stage
    assert first.placement.positions == second.placement.positions


def test_node_limit_below_the_trigger_never_fires(pool, rescue_calls):
    result = solve_opp(
        pool[0], options=SolverOptions(node_limit=RESCUE_NODES - 1)
    )
    assert result.status == "unknown"
    assert result.limit == "node limit"
    assert rescue_calls == []


def test_search_only_never_fires(pool, rescue_calls):
    result = solve_opp(
        pool[0],
        options=SolverOptions(node_limit=20000, use_heuristics=False),
    )
    assert (result.status, result.stage, result.stats.nodes) == (
        "sat", "search", 5137,
    )
    assert rescue_calls == []


def test_resumed_search_never_fires(pool, rescue_calls):
    first = solve_opp(pool[0], options=SolverOptions(node_limit=100))
    assert first.status == "unknown" and first.checkpoint is not None
    assert rescue_calls == []
    resumed = solve_opp(pool[0], options=CAP, resume_from=first.checkpoint)
    assert resumed.status == "sat"
    assert resumed.stage == "search"
    assert resumed.stats.nodes > RESCUE_NODES
    assert rescue_calls == []


def test_direct_search_never_fires(pool):
    solver = BranchAndBound(pool[0], node_limit=20000)
    assert solver.solve()[0] == "sat"
    assert solver.stats.nodes == 5137


def test_unrescued_instance_keeps_its_tree(pool, rescue_calls):
    result = solve_opp(pool[UNRESCUED], options=CAP)
    assert (result.status, result.stage, result.limit) == (
        "unknown", "search", "node limit",
    )
    assert (result.stats.nodes, result.stats.leaves) == (20001, 0)
    assert len(rescue_calls) == 1


def test_time_limit_holds_during_the_rescue(pool, monkeypatch):
    # Decodes of 0.1 s make the 16 orders alone outlast the 1 s limit, so
    # the limit falls inside the rescue (the search reaches the trigger in
    # well under a second).
    decode, limit = 0.1, 1.0
    starts = _slow_decodes(monkeypatch, decode)
    options = SolverOptions(node_limit=20000, time_limit=limit)
    result = solve_opp(pool[UNRESCUED], options=options)
    end = time.monotonic()
    assert (result.status, result.limit) == ("unknown", "time limit")
    # The search stopped at the trigger node, right after the rescue.
    assert result.stats.nodes == RESCUE_NODES
    assert 1 < len(starts) < 1 + opp.RESCUE_ORDERS
    # The search's clock starts after stage 2's decode (starts[0]); past
    # its limit, at most the decode already running may finish (a second
    # one would add another 0.1 s).
    assert end <= starts[0] + decode + limit + decode + 0.05


def test_deadline_holds_during_the_rescue(pool, monkeypatch):
    decode = 0.1
    starts = _slow_decodes(monkeypatch, decode)
    deadline = Deadline.after(1.2, margin=0)
    options = SolverOptions(node_limit=20000, deadline=deadline)
    result = solve_opp(pool[UNRESCUED], options=options)
    end = time.monotonic()
    assert (result.status, result.limit) == ("unknown", "deadline")
    assert result.stats.nodes == RESCUE_NODES
    assert starts[-1] <= deadline.expires_at
    assert end <= deadline.expires_at + decode + 0.05


def test_should_stop_cancels_during_the_rescue(pool, monkeypatch):
    decodes = []
    real = greedy.list_schedule_placement

    def counting(instance, order=None):
        decodes.append(order)
        return real(instance, order)

    monkeypatch.setattr(greedy, "list_schedule_placement", counting)
    # Stage 2's own list schedule is decode 1; the rescue's second order
    # (decode 3) is the last one before the stop request is seen.
    result = solve_opp(
        pool[UNRESCUED], options=CAP, should_stop=lambda: len(decodes) >= 3
    )
    assert (result.status, result.limit) == ("unknown", "cancelled")
    assert result.stats.nodes == RESCUE_NODES
    assert len(decodes) == 3
