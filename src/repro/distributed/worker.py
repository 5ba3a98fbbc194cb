"""Worker side of the distributed tree search.

A worker claims one subtree at a time and answers with a **claim** — a
primitives-only dict that crosses the process boundary and is never
trusted as-is:

* a SAT claim carries the witness ``positions``; the coordinator re-checks
  them through the standalone arithmetic checker (:mod:`repro.certify`)
  before accepting;
* an UNSAT claim carries an **attestation** — the subtree digest, search
  fingerprint, kernel, and the node/leaf/conflict counts — which the
  coordinator validates structurally (and can spot-recheck on the
  reference kernel) before accepting;
* an ``unknown`` claim reports cooperative cancellation or a survived
  fault; it never settles a subtree.

While searching, the worker heartbeats through the result queue on the
solver's 64-node cancellation cadence; a worker that stops heartbeating —
killed, stalled, or partitioned away — simply loses its lease, and
whatever claim it eventually produces is rejected as stale.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.boxes import PackingInstance
from ..core.search import BranchAndBound, CheckpointMismatch, InjectedFault
from ..io.serialize import instance_from_dict
from ..parallel.faults import DistributedFaultPlan, KILL_EXIT_CODE
from .subtree import prefix_digest

#: Message tags a worker puts on the result queue.
MSG_STARTED = "started"
MSG_HEARTBEAT = "heartbeat"
MSG_CLAIM = "claim"
MSG_ERROR = "error"

#: Assignment tags on the task queue.
MSG_TASK = "task"
MSG_STOP = "stop"

#: The horizon value meaning "no SAT found yet; nothing is cancelled".
HORIZON_NONE = 2 ** 62
#: The horizon value cancelling every task (shutdown broadcast).
HORIZON_ALL = -1


def solve_subtree(
    instance: PackingInstance,
    prefix: List[Tuple[int, int, int, int]],
    options: Any,
    *,
    should_stop: Optional[Callable[[], bool]] = None,
    fault_plan: Optional[Any] = None,
    telemetry: Optional[Any] = None,
) -> Dict[str, Any]:
    """Search one subtree and return its claim payload.

    ``options`` is a :class:`repro.core.opp.SolverOptions`; stage 1/2
    (bounds, heuristics) do not apply below a decision prefix, so the
    search stage runs directly.
    """
    solver = BranchAndBound(
        instance,
        propagation=options.propagation,
        branching=options.branching,
        node_limit=options.node_limit,
        time_limit=options.time_limit,
        should_stop=should_stop,
        fault_plan=fault_plan,
        telemetry=telemetry,
        kernel=options.kernel,
        subtree=prefix,
    )
    status, placement = solver.solve()
    return {
        "status": status,
        "limit": solver.stats.limit,
        "stats": asdict(solver.stats),
        "positions": (
            [list(p) for p in placement.positions]
            if placement is not None
            else None
        ),
        "boxes": instance.n,
        "dimensions": instance.dimensions,
        "attestation": {
            "digest": prefix_digest(prefix, solver._fingerprint),
            "fingerprint": solver._fingerprint,
            "kernel": options.kernel,
            "nodes": solver.stats.nodes,
            "leaves": solver.stats.leaves,
            "conflicts": solver.stats.conflicts,
        },
    }


def _worker_main(
    worker_id: str,
    instance_payload: Dict[str, Any],
    options: Any,
    task_queue: Any,
    result_queue: Any,
    horizon: Any,
    heartbeat_interval: float,
    chaos_payload: Optional[Dict[str, Any]],
) -> None:
    """Process-worker loop: claim, search, heartbeat, answer, repeat.

    Runs until a :data:`MSG_STOP` sentinel arrives.  All failure handling
    is deliberately minimal — an unexpected exception is reported and the
    loop continues; an injected kill takes the whole process down exactly
    like a real SIGKILL would, and the coordinator's lease machinery is
    what recovers the subtree.
    """
    instance = instance_from_dict(instance_payload)
    chaos = (
        DistributedFaultPlan.from_dict(chaos_payload)
        if chaos_payload
        else None
    )
    while True:
        message = task_queue.get()
        if message[0] == MSG_STOP:
            return
        _, task_id, prefix_raw, order_index, epoch = message
        prefix = [tuple(d) for d in prefix_raw]
        result_queue.put((MSG_STARTED, worker_id, task_id, epoch))
        drop_heartbeats = chaos is not None and chaos.fires(
            "drop_heartbeats_at_task", order_index, epoch
        )
        fault_plan = options.fault_plan
        if chaos is not None:
            injected = chaos.search_plan(order_index, epoch)
            if injected is not None:
                fault_plan = injected
        last_beat = [time.monotonic()]

        def should_stop() -> bool:
            now = time.monotonic()
            if (
                not drop_heartbeats
                and now - last_beat[0] >= heartbeat_interval
            ):
                result_queue.put(
                    (MSG_HEARTBEAT, worker_id, task_id, epoch)
                )
                last_beat[0] = now
            cut = horizon.value
            return cut != HORIZON_NONE and order_index > cut

        try:
            claim = solve_subtree(
                instance,
                prefix,
                options,
                should_stop=should_stop,
                fault_plan=fault_plan,
            )
        except CheckpointMismatch as exc:
            result_queue.put(
                (MSG_ERROR, worker_id, task_id, epoch, str(exc))
            )
            continue
        except InjectedFault:
            # An escalating injected fault stands in for an unforeseen
            # bug: report and keep serving (the coordinator reissues).
            result_queue.put(
                (MSG_ERROR, worker_id, task_id, epoch, "escalated fault")
            )
            continue
        if chaos is not None:
            claim = chaos.corrupt_claim(claim, order_index, epoch)
        result_queue.put((MSG_CLAIM, worker_id, task_id, epoch, claim))


__all__ = [
    "HORIZON_ALL",
    "HORIZON_NONE",
    "KILL_EXIT_CODE",
    "MSG_CLAIM",
    "MSG_ERROR",
    "MSG_HEARTBEAT",
    "MSG_STARTED",
    "MSG_STOP",
    "MSG_TASK",
    "solve_subtree",
]
