"""Tests of the benchmark itself: deterministic inputs, isomorphic repeats,
and that smoke-sized runs print every metric and reach every layer.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
from repro.heuristics.greedy import heuristic_placement  # noqa: E402
from repro.io.serialize import instance_to_dict  # noqa: E402
from repro.parallel.cache import cache_key  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _wire(instances):
    return [json.dumps(instance_to_dict(i), sort_keys=True) for i in instances]


def test_generators_are_deterministic_for_a_seed():
    assert [q.name for q in workloads.paper_questions(3)] == [
        q.name for q in workloads.paper_questions(3)
    ]
    assert _wire(workloads.search_pool(3)) == _wire(workloads.search_pool(3))
    first, second = workloads.ServiceStream(3), workloads.ServiceStream(3)
    assert _wire(first.get(i) for i in range(60)) == _wire(
        second.get(i) for i in range(60)
    )
    assert first.origin == second.origin
    # Another seed gives another stream; the pinned pool only reorders.
    assert _wire(workloads.ServiceStream(4).get(i) for i in range(60)) != _wire(
        first.instances
    )
    assert sorted(_wire(workloads.search_pool(4))) == sorted(
        _wire(workloads.search_pool(3))
    )


def test_relabeling_preserves_the_canonical_cache_key():
    rng = random.Random(7)
    stream = workloads.ServiceStream(5)
    repeats = 0
    for index in range(80):
        instance = stream.get(index)
        origin = stream.origin[index]
        assert cache_key(instance) == cache_key(stream.get(origin))
        assert cache_key(workloads.relabel(instance, rng)) == cache_key(instance)
        repeats += origin != index
    assert 20 <= repeats <= 70


@pytest.fixture
def small(monkeypatch):
    """Smoke-sized workloads: one quick paper question, one pool instance
    that needs the search, a short request stream, one set-up probe."""
    questions = workloads.paper_questions
    pool = workloads.search_pool
    monkeypatch.setattr(
        workloads, "paper_questions",
        lambda seed: [q for q in questions(seed) if q.name == "table1_bmp_t14"],
    )
    monkeypatch.setattr(
        workloads, "search_pool",
        lambda seed: [i for i in pool(seed) if heuristic_placement(i) is None][:1],
    )
    monkeypatch.setattr(workloads.InProcess, "min_samples", lambda self: 1)
    monkeypatch.setattr(workloads.Service, "min_samples", lambda self: 20)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _run(capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "1", "--seconds", "0.2",
         "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    report = json.loads(lines[-1])
    assert code == 0 and report["correct"] and report["failed"] == 0
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    return lines, report["metrics"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(small, capsys, workload):
    spec = _spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, metrics = _run(capsys, workload, trace)
        expected = {m["name"]: m["unit"] for m in spec[key]}
        assert {name: m["unit"] for name, m in metrics.items()} == expected
        for name in expected:
            assert any(line.startswith(f"{name} ") for line in lines)


def test_traced_run_reaches_every_layer(small, capsys):
    seen = {}
    for workload in workloads.WORKLOADS:
        _, metrics = _run(capsys, workload, 1)
        for name, metric in metrics.items():
            seen[name] = max(seen.get(name, 0), metric["value"])
    for count in (
        "bounds.calls", "sweep.probes", "heuristics.calls", "search.calls",
        "leaf.checks", "cache.canon_calls", "journal.appends",
        "service.solves", "client.attempts",
    ):
        assert seen[count] >= 1, count
    for seconds in (
        "codec.decode_s", "codec.encode_s", "admission.queue_wait_ms_p50",
        "trace.overhead_ratio",
    ):
        assert seen[seconds] > 0, seconds
