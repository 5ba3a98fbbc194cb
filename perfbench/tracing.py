"""The benchmark's tracing: spans recorded by wrapping the public functions
of each layer from outside the program.

:func:`install` replaces the layer entry points with wrappers that record a
span (id, parent, name, layer, start, end, request id, attributes) into a
:class:`Tracer`'s in-memory list; the returned callable restores every
original.  The program's modules bind several of these names at import, so
each is patched where it is *called* (``repro.core.opp.prove_infeasible_named``
rather than ``repro.core.bounds.prove_infeasible_named``), and the elements of
``repro.core.bounds.ALL_BOUNDS`` are replaced in place so that
``BOUND_NAMES`` and ``disabled_bounds`` still match them.

:func:`layer_metrics` turns the spans into the per-layer metrics.  A span's
self time is its duration minus the durations of its direct children (spans
nest per thread, so children never overlap).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The operation (or service request) the current code runs on behalf of.
REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)

# Span tuple layout.
SID, PARENT, NAME, LAYER, START, END, REQUEST, ATTRS = range(8)

#: Layers whose self time counts towards the per-operation coverage.
COVERED_LAYERS = (
    "bounds", "sweep", "heuristics", "search", "leaf", "cache", "codec",
    "journal", "service",
)


class Tracer:
    """An in-memory span list plus the per-job admission timestamps."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: tenant -> request id of that closed-loop client's current call.
        self.current_by_tenant: Dict[str, Any] = {}
        #: job id -> (submitted-at, running-at) perf_counter timestamps.
        self.job_times: Dict[str, List[Optional[float]]] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        layer: str,
        fn: Callable,
        attrs: Optional[Callable[[tuple, dict, Any], Optional[dict]]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``attrs(args, kwargs, result)`` may
        return a dict of counts stored with the span."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs is not None else None
                spans.append(
                    (sid, parent, name, layer, start, end, REQUEST_ID.get(), extra)
                )

        return traced

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span[SID], "parent": span[PARENT],
                            "name": span[NAME], "layer": span[LAYER],
                            "start": span[START], "end": span[END],
                            "request": span[REQUEST], "attrs": span[ATTRS],
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------


def _found(_args: tuple, _kwargs: dict, result: Any) -> dict:
    return {"hit": result is not None}


def _search_attrs(args: tuple, _kwargs: dict, _result: Any) -> dict:
    stats = args[0].stats
    return {"nodes": stats.nodes, "budget_exit": stats.limit == "node limit"}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that undoes it."""
    import repro.core.bmp as bmp
    import repro.core.bounds as bounds
    import repro.core.opp as opp
    import repro.core.search as search
    import repro.heuristics.greedy as greedy
    import repro.parallel.cache as cache
    import repro.service.app as app
    import repro.service.jobs as jobs
    import repro.service.protocol as protocol
    from repro.client import ReproClient

    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, name: str, layer: str, attrs=None) -> None:
        original = vars(owner)[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, layer, original, attrs))

    patch(opp, "prove_infeasible_named", "prove_infeasible_named", "bounds", _found)
    originals = list(bounds.ALL_BOUNDS)
    for index, bound in enumerate(originals):
        bounds.ALL_BOUNDS[index] = tracer.wrap(f"bound.{bound.__name__}", "bounds", bound)
    patch(bmp._ProbeRunner, "probe", "probe", "sweep")
    patch(greedy, "heuristic_placement", "heuristic_placement", "heuristics", _found)
    patch(search.BranchAndBound, "solve", "BranchAndBound.solve", "search", _search_attrs)
    patch(search.BranchAndBound, "_verify_leaf", "verify_leaf", "leaf", _found)
    patch(search, "is_chordal_masks", "is_chordal_masks", "leaf")
    patch(search, "extract_placement_masks", "extract_placement_masks", "leaf")
    patch(cache.ResultCache, "key", "ResultCache.key", "cache")
    patch(cache.ResultCache, "get", "ResultCache.get", "cache", _found)
    patch(cache.ResultCache, "put", "ResultCache.put", "cache")
    patch(cache, "_canonical_order", "canonical_order", "cache")
    patch(app, "solve_response", "solve_response", "codec")
    patch(app, "dumps_canonical", "dumps_canonical", "codec")
    patch(app, "solve_opp", "service.solve_opp", "service")
    patch(ReproClient, "solve", "ReproClient.solve", "client")

    # Decoding a request also names the request: later spans of the same
    # task (event loop) or executor thread inherit the id of the client
    # call that sent it, so one request's spans share an identifier.
    from_dict = protocol.SolveRequest.__dict__["from_dict"]
    decode = from_dict.__func__

    def decode_and_name(cls: Any, data: Any) -> Any:
        request = decode(cls, data)
        REQUEST_ID.set(tracer.current_by_tenant.get(request.tenant))
        return request

    undo.append((protocol.SolveRequest, "from_dict", from_dict))
    protocol.SolveRequest.from_dict = classmethod(
        tracer.wrap("SolveRequest.from_dict", "codec", decode_and_name)
    )

    # Journal writes, plus submit -> running timestamps for queue wait.
    store = jobs.JobStore
    submit = tracer.wrap("JobStore.submit", "journal", store.submit)
    mark_running = tracer.wrap("JobStore.mark_running", "journal", store.mark_running)

    def traced_submit(self: Any, *args: Any, **kwargs: Any) -> Any:
        job = submit(self, *args, **kwargs)
        tracer.job_times[job.job_id] = [time.perf_counter(), None]
        return job

    def traced_mark_running(self: Any, job: Any) -> None:
        times = tracer.job_times.get(job.job_id)
        if times is not None:
            times[1] = time.perf_counter()
        mark_running(self, job)

    for attr, replacement in (
        ("submit", traced_submit),
        ("mark_running", traced_mark_running),
    ):
        undo.append((store, attr, store.__dict__[attr]))
        setattr(store, attr, replacement)
    patch(store, "finish", "JobStore.finish", "journal")

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        bounds.ALL_BOUNDS[:] = originals

    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

BOUND_METRICS = (
    "oversized_box_bound", "volume_bound", "critical_path_bound",
    "spatial_conflict_bound", "conflict_schedule_bound",
    "mandatory_overlap_bound", "dff_volume_bound",
)

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER_UNITS = {
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "bounds.prune_ratio": "ratio",
    **{f"bounds.{bound}_s": "s" for bound in BOUND_METRICS},
    "sweep.probes": "count",
    "sweep.probes_per_question": "count",
    "heuristics.calls": "count",
    "heuristics.self_s": "s",
    "heuristics.sat_ratio": "ratio",
    "search.calls": "count",
    "search.self_s": "s",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.budget_exits": "count",
    "leaf.checks": "count",
    "leaf.self_s": "s",
    "leaf.accept_ratio": "ratio",
    "cache.canon_calls": "count",
    "cache.canon_s": "s",
    "cache.hit_ratio": "ratio",
    "codec.decode_s": "s",
    "codec.encode_s": "s",
    "journal.appends": "count",
    "journal.self_s": "s",
    "admission.queue_wait_ms_p50": "ms",
    "admission.queue_wait_ms_tail": "ms",
    "service.solves": "count",
    "service.hit_latency_p50_ms": "ms",
    "service.miss_latency_p50_ms": "ms",
    "client.attempts": "count",
    "client.retries": "count",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: Tracer, percentile: Callable[[List[float], str], float]
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.  ``percentile(values,
    which)`` gives ``which`` in ``("p50", "tail")`` of a sample."""
    spans = tracer.spans
    children: Dict[int, float] = {}
    for span in spans:
        if span[PARENT]:
            children[span[PARENT]] = (
                children.get(span[PARENT], 0.0) + span[END] - span[START]
            )
    self_by_layer: Dict[str, float] = {}
    self_by_name: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    found: Dict[str, int] = {}
    nodes = budget_exits = 0
    op_wall = 0.0
    for span in spans:
        duration = span[END] - span[START]
        own = duration - children.get(span[SID], 0.0)
        name = span[NAME]
        self_by_layer[span[LAYER]] = self_by_layer.get(span[LAYER], 0.0) + own
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        attrs = span[ATTRS]
        if attrs:
            if attrs.get("hit"):
                found[name] = found.get(name, 0) + 1
            nodes += attrs.get("nodes", 0)
            budget_exits += bool(attrs.get("budget_exit"))
        if span[LAYER] == "op":
            op_wall += duration

    def count(name: str) -> int:
        return calls.get(name, 0)

    def share(name: str) -> float:
        return _ratio(found.get(name, 0), count(name))

    search_self = self_by_layer.get("search", 0.0)
    waits = [
        (running - submitted) * 1000.0
        for submitted, running in tracer.job_times.values()
        if running is not None
    ]
    covered = sum(self_by_layer.get(layer, 0.0) for layer in COVERED_LAYERS)
    metrics = {
        "bounds.calls": count("prove_infeasible_named"),
        "bounds.self_s": self_by_layer.get("bounds", 0.0),
        "bounds.prune_ratio": share("prove_infeasible_named"),
    }
    for bound in BOUND_METRICS:
        metrics[f"bounds.{bound}_s"] = self_by_name.get(f"bound.{bound}", 0.0)
    operations = count("op")
    metrics.update({
        "sweep.probes": count("probe"),
        "sweep.probes_per_question": _ratio(count("probe"), operations),
        "heuristics.calls": count("heuristic_placement"),
        "heuristics.self_s": self_by_layer.get("heuristics", 0.0),
        "heuristics.sat_ratio": share("heuristic_placement"),
        "search.calls": count("BranchAndBound.solve"),
        "search.self_s": search_self,
        "search.nodes": nodes,
        "search.nodes_per_s": _ratio(nodes, search_self),
        "search.budget_exits": budget_exits,
        "leaf.checks": count("verify_leaf"),
        "leaf.self_s": self_by_layer.get("leaf", 0.0),
        "leaf.accept_ratio": share("verify_leaf"),
        "cache.canon_calls": count("canonical_order"),
        "cache.canon_s": self_by_name.get("canonical_order", 0.0),
        "cache.hit_ratio": share("ResultCache.get"),
        "codec.decode_s": self_by_name.get("SolveRequest.from_dict", 0.0),
        "codec.encode_s": self_by_name.get("solve_response", 0.0)
        + self_by_name.get("dumps_canonical", 0.0),
        "journal.appends": count("JobStore.submit")
        + count("JobStore.mark_running") + count("JobStore.finish"),
        "journal.self_s": self_by_layer.get("journal", 0.0),
        "admission.queue_wait_ms_p50": percentile(waits, "p50") if waits else 0.0,
        "admission.queue_wait_ms_tail": percentile(waits, "tail") if waits else 0.0,
        "service.solves": count("service.solve_opp"),
        "trace.coverage_ratio": _ratio(covered, op_wall),
    })
    return metrics
