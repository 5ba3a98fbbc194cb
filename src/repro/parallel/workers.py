"""Worker plumbing for the portfolio solver.

The process backend ships whole ``PackingInstance`` / ``SolverOptions``
objects to the workers (both are plain dataclasses and pickle cleanly) but
returns only primitives — status, anchor positions, stats fields — so the
parent rebuilds the :class:`Placement` against *its own* instance object and
re-validates it, trusting nothing that crossed the process boundary.

Cancellation is cooperative and generation-based: the pool is created with a
shared integer (``multiprocessing.Value``), every task carries the
generation it was submitted under, and workers poll the shared value inside
the branch-and-bound (see ``BranchAndBound.should_stop``).  Bumping the
generation cancels every outstanding task at once, which lets one pool be
reused across many solves (BMP/SPP sweeps) without dragging stale losers
along.

Fault plans (:mod:`repro.parallel.faults`) are resolved here, per entrant:
a plan targeting one configuration is replaced by the inert plan everywhere
else, and the environment hook is consulted exactly once per task.
"""

from __future__ import annotations

import time
from dataclasses import asdict, replace
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.boxes import PackingInstance, Placement
from ..core.opp import OPPResult, SolverOptions, solve_opp
from ..core.search import SearchCheckpoint, SearchStats
from ..telemetry import Telemetry
from .faults import resolve_plan

# Set by the pool initializer in each worker process; the parent's thread and
# serial backends never touch it (they pass should_stop closures directly).
_GENERATION = None


def _init_worker(generation: Any) -> None:
    global _GENERATION
    _GENERATION = generation


def encode_result(
    config_name: str,
    result: OPPResult,
    telemetry: Optional[Telemetry] = None,
    started: Optional[float] = None,
    ended: Optional[float] = None,
) -> Dict[str, Any]:
    checkpoint = None
    if result.checkpoint is not None:
        result.checkpoint.entrant = config_name
        checkpoint = result.checkpoint.to_dict()
    encoded = {
        "config": config_name,
        "status": result.status,
        "certificate": result.certificate,
        "stage": result.stage,
        "positions": (
            [list(p) for p in result.placement.positions]
            if result.placement is not None
            else None
        ),
        "stats": asdict(result.stats),
        "faults": [f.to_dict() for f in result.faults],
        "checkpoint": checkpoint,
    }
    if telemetry is not None and telemetry.enabled:
        # Primitives only, like everything else crossing the process
        # boundary: the parent re-parents the spans under its own trace.
        encoded["telemetry"] = telemetry.export_payload()
        encoded["started"] = started
        encoded["ended"] = ended
    return encoded


def decode_result(
    instance: PackingInstance, data: Dict[str, Any]
) -> Tuple[str, OPPResult]:
    """Rebuild an :class:`OPPResult` against the parent's instance.

    SAT witnesses are re-validated geometrically; an invalid one is a solver
    or transport bug and raises rather than being silently accepted.
    """
    from ..core.search import FaultRecord

    placement = None
    if data["positions"] is not None:
        placement = Placement(
            instance, [tuple(p) for p in data["positions"]]
        )
        if not placement.is_feasible():
            raise AssertionError(
                f"portfolio worker {data['config']!r} returned an infeasible "
                f"placement: {placement.violations()[:3]}"
            )
    checkpoint = None
    if data.get("checkpoint") is not None:
        checkpoint = SearchCheckpoint.from_dict(data["checkpoint"])
    result = OPPResult(
        status=data["status"],
        placement=placement,
        certificate=data["certificate"],
        stats=SearchStats.from_dict(data["stats"]),
        stage=data["stage"],
        faults=[FaultRecord.from_dict(f) for f in data.get("faults", [])],
        checkpoint=checkpoint,
    )
    return data["config"], result


def _entrant_options(name: str, options: SolverOptions) -> SolverOptions:
    """Pin the resolved fault plan so the solver core skips the env hook."""
    return replace(options, fault_plan=resolve_plan(options.fault_plan, name))


def run_portfolio_task(
    payload: Tuple[
        int,
        str,
        PackingInstance,
        SolverOptions,
        Optional[Dict[str, Any]],
        bool,
    ],
) -> Dict[str, Any]:
    """Process-pool entry point: solve one configuration, cooperatively
    cancelling when the shared generation moves past ours."""
    generation, name, instance, options, resume, want_telemetry = payload
    shared = _GENERATION
    should_stop: Optional[Callable[[], bool]] = None
    if shared is not None:
        should_stop = lambda: shared.value != generation  # noqa: E731
    resume_from = (
        SearchCheckpoint.from_dict(resume) if resume is not None else None
    )
    telemetry = Telemetry() if want_telemetry else None
    started = time.time()
    result = solve_opp(
        instance,
        options=_entrant_options(name, options),
        should_stop=should_stop,
        resume_from=resume_from,
        telemetry=telemetry,
    )
    return encode_result(name, result, telemetry, started, time.time())


def run_config_inline(
    name: str,
    instance: PackingInstance,
    options: SolverOptions,
    should_stop: Optional[Callable[[], bool]] = None,
    resume: Optional[Dict[str, Any]] = None,
    want_telemetry: bool = False,
) -> Dict[str, Any]:
    """Thread/serial backends: same encoded contract, no process hop.

    Telemetry still goes through the primitives payload rather than a shared
    recorder: entrants run concurrently in threads and the recorders are not
    synchronized, so each entrant gets its own and the parent merges.
    """
    resume_from = (
        SearchCheckpoint.from_dict(resume) if resume is not None else None
    )
    telemetry = Telemetry() if want_telemetry else None
    started = time.time()
    result = solve_opp(
        instance,
        options=_entrant_options(name, options),
        should_stop=should_stop,
        resume_from=resume_from,
        telemetry=telemetry,
    )
    return encode_result(name, result, telemetry, started, time.time())
