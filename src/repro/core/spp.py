"""Strip Packing Problem (SPP) — the paper's *MinT&FindS*.

Find the smallest execution time (makespan) for the task set on a chip of
fixed size ``h_x × h_y``.  Feasibility is monotone in the time bound, so a
binary search over OPP decisions between the lower bound (critical path,
conflict cliques, volume) and a heuristic upper bound solves it exactly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..graphs.digraph import DiGraph
from ..heuristics.greedy import heuristic_makespan
from .bmp import (
    DEGRADED,
    INFEASIBLE,
    OPTIMAL,
    UNKNOWN,
    OppSolver,
    OptimizationResult,
    _mark_degraded,
    _ProbeRunner,
    probe_instance,
)
from .boxes import Box
from .bounds import makespan_lower_bound
from .deadline import Deadline
from .opp import OPPResult, SolverOptions


def minimize_makespan(
    boxes: List[Box],
    precedence: Optional[DiGraph] = None,
    *,
    chip: Tuple[int, int] = (1, 1),
    options: Optional[SolverOptions] = None,
    cache: Optional[object] = None,
    opp_solver: Optional[OppSolver] = None,
    deadline: Optional[Deadline] = None,
    telemetry: Optional[object] = None,
) -> OptimizationResult:
    """Solve MinT&FindS: minimal schedule length on a fixed chip.
    Everything past ``precedence`` is keyword-only.

    ``cache`` (a :class:`repro.parallel.cache.ResultCache`) memoizes the OPP
    probes of the binary search across calls.

    ``deadline`` (a shared :class:`repro.core.deadline.Deadline`) caps the
    total wall clock of all probes; interrupted probes resume from their
    checkpoints (see :class:`repro.core.bmp._ProbeRunner`).  Tripping it
    with a SAT incumbent in hand yields a ``"degraded"`` result, otherwise
    ``"unknown"`` with honest brackets.  ``telemetry`` records the sweep
    under a ``solve`` span (one ``probe`` child per OPP decision)."""
    runner = _ProbeRunner(
        options=options, cache=cache, opp_solver=opp_solver,
        deadline=deadline, telemetry=telemetry,
    )
    telemetry = runner.telemetry
    with telemetry.span(
        "solve", problem="spp", boxes=len(boxes), chip=list(chip)
    ) as span:
        result = _minimize_makespan(list(boxes), precedence, chip, runner)
        span.set(
            status=result.status,
            optimum=result.optimum,
            probes=len(result.probes),
        )
    if telemetry.enabled:
        result.trace = telemetry
    return result


def _minimize_makespan(
    boxes: List[Box],
    precedence: Optional[DiGraph],
    chip: Tuple[int, int],
    runner: _ProbeRunner,
) -> OptimizationResult:
    if not boxes:
        return OptimizationResult(status=OPTIMAL, optimum=0)
    result = OptimizationResult(status=UNKNOWN)

    # Boxes must fit the chip footprint at all.
    for b in boxes:
        if b.widths[0] > chip[0] or b.widths[1] > chip[1]:
            result.status = INFEASIBLE
            return result

    horizon = sum(b.widths[-1] for b in boxes)
    reference = probe_instance(
        boxes, precedence, chip[0], chip[1], max(1, horizon)
    )
    low = max(1, makespan_lower_bound(reference))
    upper = heuristic_makespan(reference)
    if upper is None:
        # The heuristics cannot fail when every box fits the footprint and
        # the horizon is sequential, but stay defensive.
        upper = horizon
    if low > upper:
        low = min(low, upper)

    def probe(bound: int) -> OPPResult:
        instance = probe_instance(boxes, precedence, chip[0], chip[1], bound)
        return runner.probe(instance, bound, result)

    lo, hi = low, upper
    best_placement = None
    while lo < hi:
        mid = (lo + hi) // 2
        opp = probe(mid)
        if opp.status == "sat":
            hi, best_placement = mid, opp.placement
        elif opp.status == "unsat":
            lo = mid + 1
        else:
            result.lower, result.upper = lo, hi
            if (
                _mark_degraded(result, runner, gap=hi - lo)
                and best_placement is not None
            ):
                # Anytime answer: ``best_placement`` certifies makespan
                # ``hi``; the optimum lies in [lower, upper].
                result.status = DEGRADED
                result.placement = best_placement
            return result
    if best_placement is None:
        # The optimum equals the heuristic upper bound (or low == upper from
        # the start); confirm with one final probe to obtain a placement.
        opp = probe(hi)
        if opp.status != "sat":
            # Bound/heuristic disagreement can only come from a solver limit.
            result.lower, result.upper = hi, None
            _mark_degraded(result, runner)
            return result
        best_placement = opp.placement
    result.status = OPTIMAL
    result.optimum = hi
    result.lower = result.upper = hi
    result.placement = best_placement
    return result
