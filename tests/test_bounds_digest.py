"""Golden digest of the stage-1 bound answers.

Every :func:`prove_infeasible_named` result (the bound's name and its
certificate text) and every :func:`makespan_lower_bound` over three fixed
corpora is hashed with md5:

* the 119 probes one pass of the paper's questions asks (Table 1 BMP at
  h_t in {6, 12, 13, 14}, Table 2 SPP on 64x64, both Figure 7 fronts),
  pinned here as containers so that a change to the sweeps does not move
  the corpus;
* the 24 feasible 6x6x6 guillotine instances of the ``search_pool``
  benchmark workload (generator seed 2001, in generation order);
* 300 ``differential_instances(7)``.

A rewrite of a bound must keep every verdict and every certificate byte;
a deliberate change to either updates the digest here and says why.
"""

import hashlib
import random

import pytest

from repro.core.bounds import makespan_lower_bound, prove_infeasible_named
from repro.fpga.chip import square_chip
from repro.instances.de import de_task_graph
from repro.instances.random_instances import (
    differential_instances,
    random_feasible_instance,
)
from repro.instances.video_codec import codec_task_graph

#: (chip side, time bound) of every probe of one paper pass, in the order
#: asked, grouped by task graph.
DE_PROBES = [
    (16, 14), (16, 17), (23, 6), (46, 6), (35, 6), (29, 6), (32, 6), (31, 6),
    (22, 7), (32, 7), (27, 7), (30, 7), (31, 7), (20, 8), (32, 8), (26, 8),
    (29, 8), (31, 8), (19, 9), (32, 9), (26, 9), (29, 9), (31, 9), (18, 10),
    (32, 10), (25, 10), (29, 10), (31, 10), (17, 11), (32, 11), (25, 11),
    (29, 11), (31, 11), (17, 12), (32, 12), (25, 12), (29, 12), (31, 12),
    (16, 13), (32, 13), (24, 13), (20, 13), (18, 13), (17, 13), (16, 14),
    (16, 13), (32, 13), (24, 13), (20, 13), (18, 13), (17, 13), (23, 6),
    (46, 6), (35, 6), (29, 6), (32, 6), (31, 6), (17, 12), (34, 12), (26, 12),
    (30, 12), (32, 12), (31, 12),
]
DE_FREE_PROBES = [
    (16, 17), (40, 2), (80, 2), (60, 2), (50, 2), (45, 2), (48, 2), (47, 2),
    (33, 3), (48, 3), (41, 3), (45, 3), (47, 3), (29, 4), (48, 4), (39, 4),
    (34, 4), (32, 4), (31, 4), (26, 5), (32, 5), (29, 5), (31, 5), (23, 6),
    (32, 6), (28, 6), (30, 6), (31, 6), (22, 7), (32, 7), (27, 7), (30, 7),
    (31, 7), (20, 8), (32, 8), (26, 8), (29, 8), (31, 8), (19, 9), (32, 9),
    (26, 9), (29, 9), (31, 9), (18, 10), (32, 10), (25, 10), (29, 10),
    (31, 10), (17, 11), (32, 11), (25, 11), (29, 11), (31, 11), (17, 12),
    (16, 13),
]
CODEC_PROBES = [(64, 59)]


def _paper_probes():
    de = de_task_graph()
    corpus = [(de, DE_PROBES), (de.without_dependencies(), DE_FREE_PROBES),
              (codec_task_graph(), CODEC_PROBES)]
    return [
        graph.to_instance(square_chip(side), time_bound)
        for graph, probes in corpus
        for side, time_bound in probes
    ]


def _search_pool():
    rng = random.Random(2001)
    return [random_feasible_instance(rng, (6, 6, 6), 12, 0.3)[0] for _ in range(24)]


def _differential():
    return list(differential_instances(7, 300))


def _digest(instances):
    md5 = hashlib.md5()
    for instance in instances:
        answer = (prove_infeasible_named(instance), makespan_lower_bound(instance))
        md5.update(repr(answer).encode() + b"\n")
    return md5.hexdigest()


@pytest.mark.parametrize(
    "corpus, size, digest",
    [
        (_paper_probes, 119, "49500909429e5fe9f0ab62700fbd32eb"),
        (_search_pool, 24, "862c27163f74d39e5b3fc88b51a21239"),
        (_differential, 300, "7cde583970dfcecf57688d24339f1dcb"),
    ],
    ids=["paper_probes", "search_pool", "differential"],
)
def test_bound_answers_are_pinned(corpus, size, digest):
    instances = corpus()
    assert len(instances) == size
    assert _digest(instances) == digest
