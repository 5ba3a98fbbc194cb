"""Base Minimization Problem (BMP) — the paper's *MinA&FindS*.

Find the smallest square chip ``h_x = h_y = s`` on which the task set can be
completed within a fixed time bound ``h_t`` (together with a feasible
schedule).  Since feasibility is monotone in the chip size, a binary search
over OPP decisions solves the problem exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from ..graphs.digraph import DiGraph
from ..telemetry import coerce as _coerce_telemetry
from .boxes import Box, Container, PackingInstance, Placement
from .deadline import DEADLINE_LIMIT, Deadline
from .opp import OPPResult, SolverOptions, solve_opp
from .search import FaultRecord

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"
#: Anytime answer: a certified incumbent plus the best proven bound,
#: returned because the request's end-to-end deadline neared.
DEGRADED = "degraded"

# An OPP engine the optimization drivers can be pointed at instead of the
# sequential ``solve_opp`` — e.g. ``lambda inst, **kw: portfolio.solve(inst,
# **kw).to_opp_result()`` races a solver portfolio per probe.  The contract
# is ``opp_solver(instance, *, deadline=None, resume_from=None)``, matching
# :meth:`repro.parallel.portfolio.PortfolioSolver.solve`.
OppSolver = Callable[..., OPPResult]


class _ProbeRunner:
    """OPP probing shared by the BMP/SPP/Pareto sweep drivers.

    With no ``deadline`` this is a thin dispatcher to ``opp_solver`` /
    :func:`solve_opp`.  With a :class:`repro.core.deadline.Deadline` (the
    request's one run-level clock, shared across *all* probes of a sweep):

    * every probe runs against the deadline (threaded into
      ``options.deadline``, or handed to ``opp_solver``);
    * a probe that comes back ``unknown`` with a checkpoint — a per-decision
      ``time_limit`` or ``node_limit`` stopped it before the deadline did —
      is *resumed* from that checkpoint rather than restarted, until it
      concludes, the deadline trips, or it stops making progress (identical
      checkpoint twice);
    * once the deadline trips, probes return ``unknown`` immediately with
      ``stats.limit == "deadline"`` and :attr:`deadline_hit` is set, which
      the drivers turn into a ``"degraded"`` result carrying the certified
      incumbent.

    ``resume_slices`` counts continuation slices across the sweep (the
    node-accounting tests assert resumption actually happened).
    """

    def __init__(
        self,
        options: Optional[SolverOptions] = None,
        cache: Optional[object] = None,
        opp_solver: Optional[OppSolver] = None,
        deadline: Optional[Deadline] = None,
        telemetry: Optional[object] = None,
    ) -> None:
        self.options = options
        self.cache = cache
        self.opp_solver = opp_solver
        self.deadline = deadline
        #: True once the deadline is what stopped probing — the drivers'
        #: degradation trigger.
        self.deadline_hit = False
        self.telemetry = _coerce_telemetry(telemetry)
        self.resume_slices = 0
        # Which propagation engine the probes run on: a delegated solver
        # (portfolio) owns its own per-entrant options, so the label says
        # so instead of guessing.
        self.kernel = (
            "delegated"
            if opp_solver is not None
            else (options or SolverOptions()).kernel
        )

    def _expired(self) -> bool:
        return self.deadline is not None and self.deadline.solver_budget() <= 0

    def _solve_once(
        self, instance: PackingInstance, resume_from: Optional[object]
    ) -> OPPResult:
        if self.opp_solver is not None:
            return self.opp_solver(
                instance, deadline=self.deadline, resume_from=resume_from
            )
        options = self.options or SolverOptions()
        if self.deadline is not None and options.deadline is None:
            # Thread the shared deadline down to the node polls so the
            # search itself reports "deadline" when it is what stopped it.
            options = replace(options, deadline=self.deadline)
        return solve_opp(
            instance,
            options=options,
            cache=self.cache,
            resume_from=resume_from,
            telemetry=self.telemetry if self.telemetry.enabled else None,
        )

    def solve(self, instance: PackingInstance) -> OPPResult:
        if self._expired():
            self.deadline_hit = True
            exhausted = OPPResult(status="unknown", stage="budget")
            exhausted.stats.limit = DEADLINE_LIMIT
            return exhausted
        resume_from = None
        previous_decisions: Optional[Tuple] = None
        carried_stats = None
        while True:
            opp = self._solve_once(instance, resume_from)
            if opp.stats.limit == DEADLINE_LIMIT:
                self.deadline_hit = True
            if carried_stats is not None:
                # Fold every counter of the earlier slices in — a resumed
                # slice continues the same logical search, so conflicts,
                # leaves and propagation counters accumulate exactly like
                # nodes do (historically only nodes carried, and the rest
                # silently reset on every resume).
                opp.stats.carry(carried_stats)
            if carried_stats is not None and opp.checkpoint is not None:
                # Keep the ``checkpoint.nodes == stats.nodes`` invariant of
                # single-slice results across carried slices, so the node
                # counters never drift apart on a resumed-then-interrupted
                # probe (the node-accounting tests reconcile all three:
                # SearchStats, the checkpoint, and the telemetry counter).
                opp.checkpoint.nodes = opp.stats.nodes
            if self.deadline is None or opp.status in ("sat", "unsat"):
                return opp
            checkpoint = opp.checkpoint
            if checkpoint is None:
                return opp  # unknown for a non-resumable reason
            if self._expired():
                self.deadline_hit = True
                return opp
            decisions = tuple(checkpoint.decisions)
            if decisions == previous_decisions:
                return opp  # stuck: same frontier twice, stop spinning
            previous_decisions = decisions
            resume_from = checkpoint
            carried_stats = opp.stats
            self.resume_slices += 1

    def probe(self, instance: PackingInstance, value: int, result) -> OPPResult:
        """Run one budgeted OPP probe for a sweep driver.

        This is the *single* probe path shared by BMP, free-aspect area
        minimization, SPP, and the Pareto sweep: it wraps the solve in a
        ``probe`` span, records the ``probe.seconds`` / ``probe.count`` /
        ``probe.resume_slices`` metrics, appends the :class:`Probe` record to
        ``result.probes``, and folds survived faults into ``result.faults``.
        """
        telemetry = self.telemetry
        before = self.resume_slices
        with telemetry.span(
            "probe",
            value=value,
            container=list(instance.container.sizes),
            kernel=self.kernel,
        ) as span:
            start = time.monotonic()
            opp = self.solve(instance)
            seconds = time.monotonic() - start
            span.set(status=opp.status, stage=opp.stage, nodes=opp.stats.nodes)
        if telemetry.enabled:
            telemetry.counter("probe.count").add()
            telemetry.histogram("probe.seconds").observe(seconds)
            slices = self.resume_slices - before
            if slices:
                telemetry.counter("probe.resume_slices").add(slices)
        result.probes.append(
            Probe(
                value=value,
                status=opp.status,
                seconds=seconds,
                stage=opp.stage,
                nodes=opp.stats.nodes,
            )
        )
        if opp.faults:
            result.faults.extend(opp.faults)
        return opp


@dataclass
class Probe:
    """One OPP decision made during an optimization run."""

    __slots__ = ("value", "status", "seconds", "stage", "nodes")

    value: int
    status: str
    seconds: float
    stage: str
    nodes: int


def _mark_degraded(result, runner: _ProbeRunner, gap: Optional[int] = None) -> bool:
    """Attach the explicit degradation marker when the *deadline* (not a
    per-decision cap) is what stopped probing.  Returns True exactly when
    the marker was attached, so the caller can also upgrade ``status`` to
    ``"degraded"`` if it holds a certified incumbent."""
    if not runner.deadline_hit:
        return False
    result.degraded = {"reason": DEADLINE_LIMIT, "gap": gap}
    return True


@dataclass(slots=True)
class OptimizationResult:
    """Outcome of a BMP/SPP run.

    ``status`` is ``"optimal"`` (with ``optimum`` and a validated
    ``placement``), ``"infeasible"`` (no value can ever work),
    ``"unknown"`` (some probe hit a solver limit; ``lower`` / ``upper``
    bracket the optimum as far as it is known), or ``"degraded"`` — the
    anytime outcome: the request's end-to-end deadline neared, so the
    sweep returns its certified incumbent (``placement`` feasible at
    ``upper``) plus the best proven ``lower`` bound, with ``degraded``
    carrying the explicit ``{"reason", "gap"}`` marker.

    ``value`` / ``stats`` / ``faults`` / ``trace`` implement the common
    result protocol shared by every solver entry point (see
    :mod:`repro.api`).
    """

    status: str
    optimum: Optional[int] = None
    placement: Optional[Placement] = None
    lower: Optional[int] = None
    upper: Optional[int] = None
    probes: List[Probe] = field(default_factory=list)
    faults: List[FaultRecord] = field(default_factory=list)
    degraded: Optional[dict] = None
    trace: Optional[object] = None

    @property
    def total_seconds(self) -> float:
        return sum(p.seconds for p in self.probes)

    @property
    def value(self) -> Optional[int]:
        """The objective value (the optimum), or ``None`` when unknown."""
        return self.optimum

    @property
    def stats(self) -> dict:
        """Aggregate probe statistics (common result protocol)."""
        return {
            "probes": len(self.probes),
            "nodes": sum(p.nodes for p in self.probes),
            "elapsed": self.total_seconds,
        }


def probe_instance(
    boxes: List[Box],
    precedence: Optional[DiGraph],
    width: int,
    height: int,
    time_bound: int,
) -> PackingInstance:
    """The single construction point for sweep probe instances.

    BMP squares (``width == height``), free-aspect rectangles, and the SPP
    makespan probes all build their containers here, so caching keys and
    telemetry instrument one canonical path instead of per-driver copies.

    ``boxes`` is shared, not copied: each public sweep copies the caller's
    list once, and every probe and witness of that sweep holds the copy.
    """
    return PackingInstance(
        boxes, Container((width, height, time_bound)), precedence
    )


def base_lower_bound(boxes: List[Box], time_bound: int) -> int:
    """A valid lower bound on the square chip side for the given deadline:
    the largest spatial width of any box, and the volume argument
    ``s^2 · h_t ≥ Σ volumes``."""
    widest = max((max(b.widths[0], b.widths[1]) for b in boxes), default=1)
    total = sum(b.volume for b in boxes)
    by_volume = math.isqrt(max(0, (total + time_bound - 1) // time_bound))
    while by_volume * by_volume * time_bound < total:
        by_volume += 1
    return max(1, widest, by_volume)


def minimize_area(
    boxes: List[Box],
    precedence: Optional[DiGraph] = None,
    *,
    time_bound: int = 1,
    options: Optional[SolverOptions] = None,
    cache: Optional[object] = None,
    opp_solver: Optional[OppSolver] = None,
    deadline: Optional[Deadline] = None,
    telemetry: Optional[object] = None,
) -> "AreaResult":
    """Free-aspect chip minimization: the rectangle ``w × h`` of smallest
    *area* (ties broken toward square) accommodating the tasks within the
    deadline.  Everything past ``precedence`` is keyword-only.

    The paper's BMP fixes ``h_x = h_y``; this generalization sweeps the
    width over its feasible range and binary-searches the minimal height
    for each width (feasibility is monotone in the height for fixed width),
    pruning widths whose best conceivable area cannot beat the incumbent.

    ``deadline`` (a shared :class:`repro.core.deadline.Deadline`) caps
    probing at the request's end-to-end budget; tripping it yields a
    ``"degraded"`` result carrying the certified incumbent instead of
    ``"unknown"``.
    ``telemetry`` records the sweep under a ``solve`` span (one ``probe``
    child per OPP decision).
    """
    runner = _ProbeRunner(
        options=options, cache=cache, opp_solver=opp_solver,
        deadline=deadline, telemetry=telemetry,
    )
    telemetry = runner.telemetry
    with telemetry.span(
        "solve", problem="area", boxes=len(boxes), time_bound=time_bound
    ) as span:
        result = _minimize_area(list(boxes), precedence, time_bound, runner)
        span.set(
            status=result.status, area=result.area, probes=len(result.probes)
        )
    if telemetry.enabled:
        result.trace = telemetry
    return result


def _minimize_area(
    boxes: List[Box],
    precedence: Optional[DiGraph],
    time_bound: int,
    runner: _ProbeRunner,
) -> "AreaResult":
    result = AreaResult(status=UNKNOWN)
    if not boxes:
        result.status = OPTIMAL
        result.width = result.height = 0
        return result
    if any(b.widths[-1] > time_bound for b in boxes):
        result.status = INFEASIBLE
        return result
    if precedence is not None:
        durations = [float(b.widths[-1]) for b in boxes]
        if precedence.critical_path_length(durations) > time_bound:
            result.status = INFEASIBLE
            return result

    min_width = max(b.widths[0] for b in boxes)
    min_height = max(b.widths[1] for b in boxes)
    max_width = sum(b.widths[0] for b in boxes)
    total = sum(b.volume for b in boxes)
    area_floor = -(-total // time_bound)  # ceil(volume / deadline)

    def probe(width: int, height: int) -> OPPResult:
        instance = probe_instance(boxes, precedence, width, height, time_bound)
        return runner.probe(instance, width * height, result)

    best: Optional[Tuple[int, int, int, Placement]] = None  # (area, w, h, pl)
    inconclusive = False
    for width in range(min_width, max_width + 1):
        if best is not None and width * min_height >= best[0]:
            break  # every taller chip at this or larger width loses
        lowest_height = max(min_height, -(-area_floor // width))
        if best is not None and width * lowest_height >= best[0]:
            continue
        lo, hi = lowest_height, None
        # Find a feasible height by doubling, up to the tallest chip that
        # still beats the incumbent (a step past it must not skip that range).
        h = max(lowest_height, min_height)
        cap = sum(b.widths[1] for b in boxes)
        if best is not None:
            cap = min(cap, (best[0] - 1) // width)
        while h <= cap:
            opp = probe(width, h)
            if opp.status == "sat":
                hi = h
                break
            if opp.status == "unknown":
                inconclusive = True
                break
            lo = h + 1
            h = min(max(h + 1, h * 2), cap) if h < cap else cap + 1
        if hi is None:
            continue
        sat_placement = opp.placement
        while lo < hi:
            mid = (lo + hi) // 2
            opp = probe(width, mid)
            if opp.status == "sat":
                hi, sat_placement = mid, opp.placement
            elif opp.status == "unsat":
                lo = mid + 1
            else:
                inconclusive = True
                break
        area = width * hi
        if best is None or area < best[0] or (
            area == best[0] and abs(width - hi) < abs(best[1] - best[2])
        ):
            best = (area, width, hi, sat_placement)
    if best is None:
        result.status = UNKNOWN if inconclusive else INFEASIBLE
        if inconclusive:
            _mark_degraded(result, runner)
        return result
    result.status = OPTIMAL if not inconclusive else UNKNOWN
    result.area, result.width, result.height = best[0], best[1], best[2]
    result.placement = best[3]
    if inconclusive:
        lower_area = max(area_floor, min_width * min_height)
        if _mark_degraded(result, runner, gap=max(0, best[0] - lower_area)):
            result.status = DEGRADED
    return result


@dataclass
class AreaResult:
    """Outcome of free-aspect area minimization.

    ``value`` / ``stats`` / ``faults`` / ``trace`` implement the common
    result protocol shared by every solver entry point (see
    :mod:`repro.api`).
    """

    status: str
    area: Optional[int] = None
    width: Optional[int] = None
    height: Optional[int] = None
    placement: Optional[Placement] = None
    probes: List[Probe] = field(default_factory=list)
    faults: List[FaultRecord] = field(default_factory=list)
    degraded: Optional[dict] = None
    trace: Optional[object] = None

    @property
    def total_seconds(self) -> float:
        return sum(p.seconds for p in self.probes)

    @property
    def value(self) -> Optional[int]:
        """The objective value (the minimal area), or ``None`` when unknown."""
        return self.area

    @property
    def stats(self) -> dict:
        """Aggregate probe statistics (common result protocol)."""
        return {
            "probes": len(self.probes),
            "nodes": sum(p.nodes for p in self.probes),
            "elapsed": self.total_seconds,
        }


def minimize_base(
    boxes: List[Box],
    precedence: Optional[DiGraph] = None,
    *,
    time_bound: int = 1,
    options: Optional[SolverOptions] = None,
    max_side: Optional[int] = None,
    cache: Optional[object] = None,
    opp_solver: Optional[OppSolver] = None,
    deadline: Optional[Deadline] = None,
    telemetry: Optional[object] = None,
) -> OptimizationResult:
    """Solve MinA&FindS: the minimal square chip for deadline ``time_bound``.
    Everything past ``precedence`` is keyword-only.

    ``max_side`` caps the search (default: enough to place all boxes side by
    side, which is always sufficient when the deadline admits any schedule).
    ``cache`` (a :class:`repro.parallel.cache.ResultCache`) memoizes the OPP
    probes; repeated sweeps over overlapping chip ranges hit instead of
    re-solving.

    ``deadline`` (a shared :class:`repro.core.deadline.Deadline`) caps the
    total wall clock of all probes; interrupted probes resume from their
    checkpoints (see :class:`_ProbeRunner`).  Tripping it with a SAT
    incumbent in hand yields a ``"degraded"`` result; without one the
    result is ``"unknown"`` with honest ``lower``/``upper`` brackets and
    the ``degraded`` marker.
    ``telemetry`` records the sweep under a ``solve`` span (one ``probe``
    child per OPP decision).
    """
    runner = _ProbeRunner(
        options=options, cache=cache, opp_solver=opp_solver,
        deadline=deadline, telemetry=telemetry,
    )
    return _traced_minimize_base(
        list(boxes), precedence, time_bound, max_side, runner
    )


def _traced_minimize_base(
    boxes: List[Box],
    precedence: Optional[DiGraph],
    time_bound: int,
    max_side: Optional[int],
    runner: _ProbeRunner,
) -> OptimizationResult:
    """One BMP sweep under its ``solve`` span, on a box list the caller owns
    (the Pareto front runs every latency step on its one copy)."""
    telemetry = runner.telemetry
    with telemetry.span(
        "solve", problem="bmp", boxes=len(boxes), time_bound=time_bound
    ) as span:
        result = _minimize_base(boxes, precedence, time_bound, max_side, runner)
        span.set(
            status=result.status,
            optimum=result.optimum,
            probes=len(result.probes),
        )
    if telemetry.enabled:
        result.trace = telemetry
    return result


def _minimize_base(
    boxes: List[Box],
    precedence: Optional[DiGraph],
    time_bound: int,
    max_side: Optional[int],
    runner: _ProbeRunner,
) -> OptimizationResult:
    if not boxes:
        return OptimizationResult(status=OPTIMAL, optimum=0, placement=None)
    result = OptimizationResult(status=UNKNOWN)

    # Quick infeasibility independent of chip size: the critical path.
    if precedence is not None:
        durations = [float(b.widths[-1]) for b in boxes]
        if precedence.critical_path_length(durations) > time_bound:
            result.status = INFEASIBLE
            return result
    if any(b.widths[-1] > time_bound for b in boxes):
        result.status = INFEASIBLE
        return result

    low = base_lower_bound(boxes, time_bound)
    if max_side is None:
        max_side = max(low, sum(max(b.widths[0], b.widths[1]) for b in boxes))

    def probe(side: int) -> OPPResult:
        instance = probe_instance(boxes, precedence, side, side, time_bound)
        return runner.probe(instance, side, result)

    # Find a feasible upper bound by doubling from the lower bound.
    upper: Optional[int] = None
    upper_placement: Optional[Placement] = None
    last_unsat = low - 1
    side = low
    while side <= max_side:
        opp = probe(side)
        if opp.status == "sat":
            upper, upper_placement = side, opp.placement
            break
        if opp.status == "unknown":
            result.lower = last_unsat + 1
            _mark_degraded(result, runner)  # no incumbent yet: status stays
            return result
        last_unsat = side
        side = max(side + 1, min(side * 2, max_side)) if side < max_side else max_side + 1
    if upper is None:
        result.status = INFEASIBLE
        result.lower = max_side + 1
        return result

    # Binary search in (last_unsat, upper].
    lo, hi = last_unsat + 1, upper
    while lo < hi:
        mid = (lo + hi) // 2
        opp = probe(mid)
        if opp.status == "sat":
            hi, upper_placement = mid, opp.placement
        elif opp.status == "unsat":
            lo = mid + 1
        else:
            result.lower, result.upper = lo, hi
            if (
                _mark_degraded(result, runner, gap=hi - lo)
                and upper_placement is not None
            ):
                # Anytime answer: the incumbent at ``upper`` is a fully
                # certified placement; the optimum lies in [lower, upper].
                result.status = DEGRADED
                result.placement = upper_placement
            return result
    result.status = OPTIMAL
    result.optimum = hi
    result.lower = result.upper = hi
    result.placement = upper_placement
    return result
