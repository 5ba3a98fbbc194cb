"""JSON serialization of instances, task graphs, placements and schedules.

Plain-dict encodings, so results can be archived, diffed, and reloaded for
regression comparisons without pickling solver internals.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from ..core.boxes import Box, Container, PackingInstance, Placement
from ..fpga.chip import Chip
from ..fpga.dataflow import TaskGraph
from ..fpga.module_library import ModuleType
from ..fpga.schedule import ReconfigurationSchedule, ScheduledTask
from ..graphs.digraph import DiGraph


def instance_to_dict(instance: PackingInstance) -> Dict[str, Any]:
    return {
        "boxes": [
            {"widths": list(b.widths), "name": b.name} for b in instance.boxes
        ],
        "container": list(instance.container.sizes),
        "precedence": sorted(instance.precedence.arcs())
        if instance.precedence is not None
        else None,
        "time_axis": instance.time_axis,
    }


def instance_from_dict(data: Dict[str, Any]) -> PackingInstance:
    boxes = [Box(tuple(b["widths"]), name=b.get("name", "")) for b in data["boxes"]]
    container = Container(tuple(data["container"]))
    precedence = None
    if data.get("precedence") is not None:
        precedence = DiGraph(len(boxes), [tuple(a) for a in data["precedence"]])
    return PackingInstance(boxes, container, precedence, data.get("time_axis", -1))


def placement_to_dict(placement: Placement) -> Dict[str, Any]:
    return {
        "instance": instance_to_dict(placement.instance),
        "positions": [list(p) for p in placement.positions],
    }


def placement_from_dict(data: Dict[str, Any]) -> Placement:
    instance = instance_from_dict(data["instance"])
    return Placement(instance, [tuple(p) for p in data["positions"]])


def task_graph_to_dict(graph: TaskGraph) -> Dict[str, Any]:
    return {
        "name": graph.name,
        "tasks": [
            {
                "name": t.name,
                "module": {
                    "name": t.module.name,
                    "width": t.module.width,
                    "height": t.module.height,
                    "duration": t.module.duration,
                    "reconfig_time": t.module.reconfig_time,
                },
            }
            for t in graph.tasks
        ],
        "dependencies": graph.arc_names(),
    }


def task_graph_from_dict(data: Dict[str, Any]) -> TaskGraph:
    graph = TaskGraph(name=data.get("name", ""))
    for t in data["tasks"]:
        m = t["module"]
        module = ModuleType(
            name=m["name"],
            width=m["width"],
            height=m["height"],
            duration=m["duration"],
            reconfig_time=m.get("reconfig_time", 0),
        )
        graph.add_task(t["name"], module)
    for producer, consumer in data["dependencies"]:
        graph.add_dependency(producer, consumer)
    return graph


def schedule_to_dict(schedule: ReconfigurationSchedule) -> Dict[str, Any]:
    return {
        "graph": task_graph_to_dict(schedule.graph),
        "chip": {
            "width": schedule.chip.width,
            "height": schedule.chip.height,
            "name": schedule.chip.name,
        },
        "entries": [
            {"task": e.task.name, "x": e.x, "y": e.y, "start": e.start}
            for e in schedule.entries
        ],
    }


def schedule_from_dict(data: Dict[str, Any]) -> ReconfigurationSchedule:
    graph = task_graph_from_dict(data["graph"])
    chip = Chip(
        data["chip"]["width"], data["chip"]["height"], data["chip"].get("name", "")
    )
    entries = [
        ScheduledTask(
            task=graph.task(e["task"]), x=e["x"], y=e["y"], start=e["start"]
        )
        for e in data["entries"]
    ]
    return ReconfigurationSchedule(graph, chip, entries)


def opp_result_to_dict(result: "OPPResult") -> Dict[str, Any]:
    """Plain-dict encoding of a full :class:`~repro.core.opp.OPPResult`.

    Every runtime field survives: ``faults`` (the fault-tolerance log),
    ``checkpoint`` (the resumable search prefix), and ``trace`` (a live
    :class:`~repro.telemetry.Telemetry` is flattened to its primitives-only
    export payload; an already-exported payload dict passes through
    unchanged).  The encoding is stable under
    ``opp_result_to_dict(opp_result_from_dict(d)) == d``.
    """
    from dataclasses import asdict

    trace = result.trace
    if trace is not None and hasattr(trace, "export_payload"):
        trace = trace.export_payload()
    return {
        "status": result.status,
        "stage": result.stage,
        "certificate": result.certificate,
        "placement": (
            placement_to_dict(result.placement)
            if result.placement is not None
            else None
        ),
        "stats": asdict(result.stats),
        "faults": [f.to_dict() for f in result.faults],
        "checkpoint": (
            result.checkpoint.to_dict()
            if result.checkpoint is not None
            else None
        ),
        "trace": trace,
    }


def opp_result_from_dict(data: Dict[str, Any]) -> "OPPResult":
    """Rebuild an :class:`~repro.core.opp.OPPResult` from its encoding.

    ``trace`` stays the exported primitives payload (spans + metrics
    snapshot) rather than a live telemetry object — that is all a reloaded
    result can faithfully carry, and it re-encodes byte-identically.
    """
    from ..core.opp import OPPResult
    from ..core.search import FaultRecord, SearchCheckpoint, SearchStats

    return OPPResult(
        status=data["status"],
        placement=(
            placement_from_dict(data["placement"])
            if data.get("placement") is not None
            else None
        ),
        certificate=data.get("certificate"),
        stats=SearchStats.from_dict(data.get("stats", {})),
        stage=data.get("stage", "search"),
        faults=[FaultRecord.from_dict(f) for f in data.get("faults", [])],
        checkpoint=(
            SearchCheckpoint.from_dict(data["checkpoint"])
            if data.get("checkpoint") is not None
            else None
        ),
        trace=data.get("trace"),
    )


def dumps(obj: Dict[str, Any], indent: Optional[int] = 2) -> str:
    return json.dumps(obj, indent=indent, sort_keys=True)


def loads(text: str) -> Dict[str, Any]:
    return json.loads(text)
