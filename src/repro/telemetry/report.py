"""Human summaries of a recorded :class:`~repro.telemetry.Telemetry`.

:func:`summarize` reduces the trace + metrics to a plain dict (stable keys,
suitable for asserting in tests or shipping to a dashboard); :func:`render`
formats that dict as the text block the CLI prints under ``--metrics``.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from typing import Any, Dict


def summarize(telemetry: Any) -> Dict[str, Any]:
    snapshot = telemetry.metrics.snapshot()
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})

    nodes = counters.get("search.nodes", 0)
    search = histograms.get("search.seconds", {})
    search_seconds = search.get("sum", 0.0) or 0.0
    cache_hits = counters.get("cache.hits", 0)
    cache_misses = counters.get("cache.misses", 0)
    cache_total = cache_hits + cache_misses
    probe = histograms.get("probe.seconds", {})

    span_names = _TallyCounter(s["name"] for s in telemetry.tracer.export())
    degraded = {
        name[len("service.degraded_total."):]: value
        for name, value in counters.items()
        if name.startswith("service.degraded_total.") and value
    }
    deadline_stages = {}
    for stage in ("admission", "start", "finish"):
        hist = histograms.get(f"deadline.remaining_ms.{stage}")
        if hist and hist.get("count"):
            deadline_stages[stage] = {
                "count": hist["count"],
                "mean_ms": (hist.get("sum", 0.0) or 0.0) / hist["count"],
                "min_ms": hist.get("min") or 0.0,
            }
    faults = {
        name[len("fault."):]: value
        for name, value in counters.items()
        if name.startswith("fault.") and value
    }
    prunes = {
        name[len("prune."):]: value
        for name, value in counters.items()
        if name.startswith("prune.") and value
    }

    return {
        "nodes": nodes,
        "conflicts": counters.get("search.conflicts", 0),
        "leaves": counters.get("search.leaves", 0),
        "search_seconds": search_seconds,
        "search_slices": search.get("count", 0),
        "nodes_per_sec": nodes / search_seconds if search_seconds > 0 else 0.0,
        "prunes": prunes,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "cache_hit_rate": cache_hits / cache_total if cache_total else 0.0,
        "cache_quarantined": counters.get("cache.quarantined", 0),
        "probe_count": probe.get("count", 0),
        "probe_seconds_total": probe.get("sum", 0.0) or 0.0,
        "probe_seconds_mean": (
            (probe.get("sum", 0.0) or 0.0) / probe["count"]
            if probe.get("count")
            else 0.0
        ),
        "probe_seconds_max": probe.get("max") or 0.0,
        "resume_slices": counters.get("probe.resume_slices", 0),
        "checkpoint_resumes": counters.get("checkpoint.resumes", 0),
        "pool_rebuilds": counters.get("portfolio.pool_rebuilds", 0),
        "entrant_retries": counters.get("portfolio.retries", 0),
        "entrants": counters.get("portfolio.entrants", 0),
        "faults": faults,
        "batch_instances": counters.get("batch.instances", 0),
        "batch_outcomes": {
            kind: counters.get(f"batch.{kind.replace('-', '_')}", 0)
            for kind in (
                "done", "failed", "timed-out", "memory-limited", "quarantined",
            )
            if counters.get(f"batch.{kind.replace('-', '_')}", 0)
        },
        "batch_replayed": counters.get("batch.replayed", 0),
        "batch_checkpoints": counters.get("batch.checkpoints", 0),
        "batch_incidents": counters.get("batch.incidents", 0),
        "distributed_tasks": counters.get("distributed.tasks", 0),
        "distributed_completed": counters.get("distributed.completed", 0),
        "distributed_cancelled": counters.get("distributed.cancelled", 0),
        "distributed_abandoned": counters.get("distributed.abandoned", 0),
        "distributed_leases": counters.get("distributed.leases", 0),
        "distributed_reissues": counters.get("distributed.reissues", 0),
        "distributed_stale_claims": counters.get(
            "distributed.stale_claims", 0
        ),
        "distributed_refuted_claims": counters.get(
            "distributed.refuted_claims", 0
        ),
        "distributed_wasted_nodes": counters.get(
            "distributed.wasted_nodes", 0
        ),
        "distributed_respawns": counters.get(
            "distributed.workers_respawned", 0
        ),
        "deadline_stages": deadline_stages,
        "degraded": degraded,
        "deadline_rejections": counters.get(
            "service.rejected_deadline", 0
        ),
        "breaker_transitions": counters.get(
            "client.breaker_transitions_total", 0
        ),
        "spans": dict(span_names),
    }


def render(telemetry: Any) -> str:
    """The ``--metrics`` text block."""
    s = summarize(telemetry)
    lines = [
        "telemetry summary",
        "-----------------",
        f"nodes expanded:     {s['nodes']}"
        + (
            f"  ({s['nodes_per_sec']:.0f} nodes/sec over "
            f"{s['search_seconds']:.3f}s of search)"
            if s["search_seconds"] > 0
            else ""
        ),
        f"search slices:      {s['search_slices']}"
        f"  (conflicts: {s['conflicts']}, leaves: {s['leaves']})",
        f"probes:             {s['probe_count']}"
        f"  (wall: total {s['probe_seconds_total']:.3f}s, "
        f"mean {s['probe_seconds_mean']:.3f}s, max {s['probe_seconds_max']:.3f}s)",
        f"cache:              {s['cache_hits']} hits / "
        f"{s['cache_misses']} misses"
        f"  (hit rate {s['cache_hit_rate']:.1%}"
        + (
            f", quarantined {s['cache_quarantined']}"
            if s["cache_quarantined"]
            else ""
        )
        + ")",
    ]
    if s["prunes"]:
        reasons = ", ".join(f"{k}: {v}" for k, v in sorted(s["prunes"].items()))
        lines.append(f"prunes by bound:    {reasons}")
    if s["entrants"]:
        lines.append(
            f"portfolio:          {s['entrants']} entrant runs"
            f"  (pool rebuilds: {s['pool_rebuilds']}, "
            f"retries: {s['entrant_retries']})"
        )
    if s["resume_slices"] or s["checkpoint_resumes"]:
        lines.append(
            f"checkpoint resumes: {s['checkpoint_resumes']}"
            f"  (budget resume slices: {s['resume_slices']})"
        )
    if s["faults"]:
        kinds = ", ".join(f"{k}: {v}" for k, v in sorted(s["faults"].items()))
        lines.append(f"faults survived:    {kinds}")
    if s["batch_instances"]:
        outcomes = ", ".join(
            f"{k}: {v}" for k, v in sorted(s["batch_outcomes"].items())
        )
        lines.append(
            f"batch:              {s['batch_instances']} instances"
            f"  ({outcomes or 'no terminal outcomes'}"
            + (f", replayed: {s['batch_replayed']}" if s["batch_replayed"] else "")
            + (
                f", checkpoints: {s['batch_checkpoints']}"
                if s["batch_checkpoints"]
                else ""
            )
            + (
                f", incidents: {s['batch_incidents']}"
                if s["batch_incidents"]
                else ""
            )
            + ")"
        )
    if s["distributed_tasks"]:
        lines.append(
            f"distributed:        {s['distributed_tasks']} subtrees"
            f"  (completed: {s['distributed_completed']}, "
            f"cancelled: {s['distributed_cancelled']}, "
            f"abandoned: {s['distributed_abandoned']}, "
            f"leases: {s['distributed_leases']}, "
            f"reissues: {s['distributed_reissues']}, "
            f"stale claims: {s['distributed_stale_claims']}, "
            f"refuted: {s['distributed_refuted_claims']}"
            + (
                f", wasted nodes: {s['distributed_wasted_nodes']}"
                if s["distributed_wasted_nodes"]
                else ""
            )
            + (
                f", respawns: {s['distributed_respawns']}"
                if s["distributed_respawns"]
                else ""
            )
            + ")"
        )
    if s["deadline_stages"]:
        stages = ", ".join(
            f"{stage}: {info['count']}x mean {info['mean_ms']:.0f}ms "
            f"min {info['min_ms']:.0f}ms"
            for stage, info in s["deadline_stages"].items()
        )
        lines.append(f"deadline budget:    {stages}")
    if s["degraded"]:
        reasons = ", ".join(
            f"{k}: {v}" for k, v in sorted(s["degraded"].items())
        )
        lines.append(f"degraded answers:   {reasons}")
    if s["breaker_transitions"]:
        lines.append(
            f"circuit breaker:    {s['breaker_transitions']} transitions"
        )
    return "\n".join(lines)
