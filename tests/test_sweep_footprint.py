"""What a sweep result keeps alive.

Each public sweep (BMP, free-aspect area, SPP, Pareto) copies the caller's
box list once, and every probe instance and retained witness of that call
shares the copy.  A benchmark that keeps every result it gets (as the
``paper_sweeps`` workload does) grows by what one cycle of the paper's
seven questions retains; that figure is pinned here with ``tracemalloc``.
"""

import gc
import sys
import tracemalloc

import pytest

import repro
from repro.core.bmp import minimize_area, minimize_base
from repro.core.pareto import pareto_front
from repro.core.spp import minimize_makespan
from repro.instances.de import de_task_graph
from repro.instances.video_codec import codec_task_graph

#: Retained by one cycle of the seven questions, in KB (46.6 when every
#: probe copied the box list; 43.8 measured on CPython 3.11).
CYCLE_KB = 45.0


def _questions():
    de, codec = de_task_graph(), codec_task_graph()
    questions = [(de, "bmp", {"time_bound": t}) for t in (6, 12, 13, 14)]
    questions.append((codec, "spp", {"chip": (64, 64)}))
    questions.append((de, "pareto", {}))
    questions.append((de, "pareto", {"with_dependencies": False}))
    return questions


def _cycle(questions):
    return [repro.solve(graph, problem, **kw) for graph, problem, kw in questions]


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 11),
    reason="the figure is a CPython 3.11 object-layout measurement",
)
def test_one_paper_cycle_retains_at_most_45_kb():
    questions = _questions()
    kept = [_cycle(questions)]  # lazily built module state comes first
    tracemalloc.start()
    try:
        retained = []
        for _ in range(3):
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            kept.append(_cycle(questions))
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
    assert min(retained) / 1024 <= CYCLE_KB, [r / 1024 for r in retained]


def _witness_box_lists(results):
    return {id(r.placement.instance.boxes) for r in results if r.placement}


def test_a_fronts_witnesses_share_one_box_list():
    boxes, precedence = de_task_graph().packing_view()
    front = pareto_front(boxes, precedence)
    assert len(front.results) > 2
    shared = _witness_box_lists(front.results)
    assert len(shared) == 1
    assert shared != {id(boxes)}


@pytest.mark.parametrize("problem", ["bmp", "area", "spp"])
def test_a_sweep_copies_the_callers_list_once(problem, monkeypatch):
    from repro.core import bmp

    boxes, precedence = de_task_graph().packing_view()
    probed = []
    real = bmp._ProbeRunner.probe

    def recording(runner, instance, value, result):
        probed.append(instance.boxes)
        return real(runner, instance, value, result)

    monkeypatch.setattr(bmp._ProbeRunner, "probe", recording)
    if problem == "bmp":
        result = minimize_base(boxes, precedence, time_bound=13)
    elif problem == "area":
        result = minimize_area(boxes, precedence, time_bound=13)
    else:
        result = minimize_makespan(boxes, precedence, chip=(16, 16))
    assert result.status == "optimal"
    assert len(probed) > 1
    assert all(b is probed[0] for b in probed)
    assert result.placement.instance.boxes is probed[0]
    assert probed[0] is not boxes and probed[0] == boxes
