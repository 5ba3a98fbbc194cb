"""Locks the search trees of the perfbench ``search_pool`` instances.

The kernel differential cannot see a branching bug: every kernel shares
``BranchAndBound``'s picker, so a picker that chose differently would
change both trees alike.  The golden locks in ``test_paper_results`` pin
only small trees.  This file pins, for each of the 24 pool instances
(``random_feasible_instance`` on 6x6x6, 12 boxes, precedence density 0.3,
generator seed 2001), the ``(status, stage, stats.nodes, stats.leaves)``
of the default pipeline at the pool's 20,000-node cap, and the same tuple
under the static branching strategy at a 2,000-node cap.  A change that
keeps these tuples keeps the trees the benchmark measures.
"""

import random

import pytest

from repro.core import SolverOptions, solve_opp
from repro.core.search import BranchingOptions
from repro.instances.random_instances import random_feasible_instance

H, S, U = "heuristic", "search", "unknown"

GUIDED = [
    ("sat", S, 5137, 130),
    (U, S, 20001, 0),
    ("sat", H, 0, 0),
    ("sat", H, 0, 0),
    ("sat", H, 0, 0),
    ("sat", H, 0, 0),
    ("sat", S, 73, 1),
    ("sat", S, 818, 1),
    ("sat", S, 1168, 1),
    ("sat", S, 4919, 1),
    ("sat", S, 193, 2),
    (U, S, 20001, 0),
    ("sat", H, 0, 0),
    ("sat", S, 157, 1),
    ("sat", H, 0, 0),
    ("sat", H, 0, 0),
    ("sat", S, 615, 1),
    (U, S, 20001, 20),
    ("sat", H, 0, 0),
    ("sat", H, 0, 0),
    ("sat", S, 70, 1),
    ("sat", H, 0, 0),
    ("sat", H, 0, 0),
    ("sat", H, 0, 0),
]

STATIC = [
    (U, S, 2001, 0),
    (U, S, 2001, 0),
    ("sat", H, 0, 0),
    ("sat", H, 0, 0),
    ("sat", H, 0, 0),
    ("sat", H, 0, 0),
    ("sat", S, 84, 1),
    ("sat", S, 831, 1),
    (U, S, 2001, 0),
    (U, S, 2001, 0),
    (U, S, 2001, 0),
    (U, S, 2001, 0),
    ("sat", H, 0, 0),
    ("sat", S, 1155, 1),
    ("sat", H, 0, 0),
    ("sat", H, 0, 0),
    (U, S, 2001, 0),
    ("sat", S, 1602, 1),
    ("sat", H, 0, 0),
    ("sat", H, 0, 0),
    (U, S, 2001, 0),
    ("sat", H, 0, 0),
    ("sat", H, 0, 0),
    ("sat", H, 0, 0),
]


@pytest.fixture(scope="module")
def pool():
    rng = random.Random(2001)
    return [
        random_feasible_instance(rng, (6, 6, 6), 12, 0.3)[0] for _ in range(24)
    ]


def _shape(instance, options):
    result = solve_opp(instance, options=options)
    return (
        result.status, result.stage, result.stats.nodes, result.stats.leaves
    )


def test_guided_pool_trees(pool):
    options = SolverOptions(node_limit=20000)
    assert [_shape(inst, options) for inst in pool] == GUIDED


def test_static_pool_trees(pool):
    options = SolverOptions(
        node_limit=2000, branching=BranchingOptions(strategy="static")
    )
    assert [_shape(inst, options) for inst in pool] == STATIC
