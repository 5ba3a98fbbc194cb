"""Golden digest of the stage-2 heuristic answers.

Over the three corpora of :mod:`tests.test_bounds_digest` (one paper
pass's 119 probes, the 24 ``search_pool`` instances, 300
``differential_instances(7)``), every instance contributes to an md5:

* the positions :func:`heuristic_placement` returns, or ``None``;
* the makespan :func:`heuristic_makespan` returns, or ``None``;
* ``solve_opp``'s status, deciding stage, node count and witness
  positions under a 3,000-node cap (the heuristic settles most SAT probes,
  and its answer decides where the search starts when it does not).

A speed-up of the heuristics must give every probe the same placement; a
deliberate change to any of them updates the digest here and says why.
"""

import hashlib

import pytest

from repro.core.opp import SolverOptions, solve_opp
from repro.heuristics import heuristic_makespan, heuristic_placement
from tests.test_bounds_digest import _differential, _paper_probes, _search_pool


def _positions(placement):
    return None if placement is None else [tuple(p) for p in placement.positions]


def _digest(instances):
    md5 = hashlib.md5()
    options = SolverOptions(node_limit=3000)
    for instance in instances:
        opp = solve_opp(instance, options=options)
        answer = (
            _positions(heuristic_placement(instance)),
            heuristic_makespan(instance),
            (opp.status, opp.stage, opp.stats.nodes, _positions(opp.placement)),
        )
        md5.update(repr(answer).encode() + b"\n")
    return md5.hexdigest()


@pytest.mark.parametrize(
    "corpus, size, digest",
    [
        (_paper_probes, 119, "082a4ed08f13657e1dd6d9edc2718f34"),
        (_search_pool, 24, "108c6e523c849996abb95467d4a193d7"),
        (_differential, 300, "d91e82c22d90f5acc065ce4681b4e87e"),
    ],
    ids=["paper_probes", "search_pool", "differential"],
)
def test_heuristic_answers_are_pinned(corpus, size, digest):
    instances = corpus()
    assert len(instances) == size
    assert _digest(instances) == digest
