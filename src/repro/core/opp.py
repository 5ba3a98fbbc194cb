"""The Orthogonal Packing Problem (OPP) with precedence constraints.

This is the decision problem at the heart of the paper: *can a given set of
three-dimensional boxes (tasks) be packed into a given container (chip ×
time), respecting the precedence constraints?*  The solver runs the paper's
three-stage framework:

1. **bounds** — fast infeasibility proofs (:mod:`repro.core.bounds`);
2. **heuristics** — fast feasibility proofs (:mod:`repro.heuristics`);
3. **branch-and-bound over packing classes** (:mod:`repro.core.search`).

Every SAT answer carries a concrete placement validated by geometry alone;
UNSAT answers carry the proving bound's certificate or come from the
exhaustive search.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..telemetry import coerce as _coerce_telemetry
from .kernels import resolve as resolve_kernel
from .boxes import PackingInstance, Placement
from .bounds import BOUND_NAMES, prove_infeasible_named
from .deadline import DEADLINE_LIMIT, Deadline
from .edgestate import PropagationOptions
from .nogoods import LearningOptions
from .search import (
    BranchAndBound,
    BranchingOptions,
    FaultRecord,
    InjectedFault,
    SearchCheckpoint,
    SearchStats,
)

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


@dataclass
class SolverOptions:
    """Configuration of the three solver stages (all ablation-friendly).

    ``fault_plan`` is a :class:`repro.parallel.faults.FaultPlan` whose seeded
    injection points fire during the solve (chaos testing only); when it is
    ``None`` the ``REPRO_FAULT_PLAN`` environment variable is consulted.

    ``kernel`` selects the propagation engine for the search stage:
    ``"bitmask"`` (default, word-parallel bitsets) or ``"reference"`` (the
    object-per-edge oracle), or any other registered kernel.  The retired
    name ``"vector"`` is an alias of ``"bitmask"``; names are stored
    resolved.  Both kernels explore the identical tree and return
    identical answers; see :mod:`repro.core.bitmask`.

    ``disabled_bounds`` names stage-1 bounds to skip (by function name, see
    :data:`repro.core.bounds.BOUND_NAMES`) — an ablation knob; disabling
    bounds never changes answers, only how early infeasibility is proven.

    ``learning`` (a :class:`repro.core.nogoods.LearningOptions`) configures
    the conflict-learning layer of the search stage: nogood recording with
    activity-based eviction, Luby restarts, conflict-guided branching.
    Disabled by default, which keeps the explored tree node-for-node
    identical to the reference oracle; enabling it never changes answers,
    only the tree that proves them.
    """

    use_bounds: bool = True
    use_heuristics: bool = True
    use_annealing: bool = False
    annealing_seed: int = 0
    propagation: PropagationOptions = field(default_factory=PropagationOptions)
    branching: BranchingOptions = field(default_factory=BranchingOptions)
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None
    deadline: Optional[Deadline] = None
    fault_plan: Optional[object] = None
    kernel: str = "bitmask"
    disabled_bounds: tuple = ()
    learning: LearningOptions = field(default_factory=LearningOptions)

    def __post_init__(self) -> None:
        if self.time_limit is not None and self.time_limit < 0:
            raise ValueError(
                f"time_limit must be non-negative, got {self.time_limit}"
            )
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError(
                f"node_limit must be non-negative, got {self.node_limit}"
            )
        self.kernel = resolve_kernel(self.kernel)
        self.disabled_bounds = tuple(self.disabled_bounds)
        unknown = [n for n in self.disabled_bounds if n not in BOUND_NAMES]
        if unknown:
            raise ValueError(
                f"unknown bound name(s) {unknown}; expected from {BOUND_NAMES}"
            )
        if isinstance(self.learning, bool):
            # Convenience: SolverOptions(learning=True) means defaults-on.
            self.learning = LearningOptions(enabled=self.learning)


@dataclass
class OPPResult:
    """Outcome of one OPP decision.

    ``faults`` lists every fault the runtime survived while answering
    (injected failures, crashed or stalled portfolio entrants, backend
    degradations); a conclusive verdict with a non-empty ``faults`` list is
    still exact.  ``checkpoint`` carries the resumable search prefix when
    the verdict is ``"unknown"`` because a budget ran out — pass it back via
    ``solve_opp(..., resume_from=checkpoint)`` to continue instead of
    restarting.
    """

    status: str
    placement: Optional[Placement] = None
    certificate: Optional[str] = None
    stats: SearchStats = field(default_factory=SearchStats)
    stage: str = "search"
    faults: List[FaultRecord] = field(default_factory=list)
    checkpoint: Optional[SearchCheckpoint] = None
    trace: Optional[object] = None

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT

    @property
    def value(self) -> None:
        """The OPP is a pure decision problem: no objective value (part of
        the common result protocol — see :mod:`repro.api`)."""
        return None

    @property
    def limit(self) -> Optional[str]:
        """Why the solver gave up (``"node limit"``, ``"time limit"``,
        ``"cancelled"``), or ``None`` when the answer is conclusive."""
        return self.stats.limit

    def certificate_payload(self, instance: PackingInstance) -> dict:
        """A self-contained plain-dict certificate of this verdict.

        The payload restates the *instance* (box widths, container sizes,
        time axis, transitively closed precedence arcs) and, for SAT
        verdicts, the witness ``positions`` — everything an independent
        checker (:mod:`repro.certify`) needs to re-derive disjointness,
        container bounds, and precedence feasibility, or to re-run the
        decision on the reference kernel, without touching any solver data
        structure.  Plain lists and ints only, so the payload survives JSON
        round trips byte-identically.
        """
        closure = instance.closed_precedence()
        payload = {
            "boxes": [list(b.widths) for b in instance.boxes],
            "container": list(instance.container.sizes),
            "time_axis": instance.time_axis % instance.dimensions,
            "precedence": (
                sorted([u, v] for u, v in closure.arcs())
                if closure is not None
                else []
            ),
            "status": self.status,
            "positions": (
                [list(p) for p in self.placement.positions]
                if self.placement is not None
                else None
            ),
        }
        return payload


def _active_fault_plan(options: SolverOptions) -> Optional[object]:
    """The fault plan to run under: the explicit one, else the env hook.

    An explicit plan is used as given (the portfolio resolves targeting
    before shipping options to workers); the ``REPRO_FAULT_PLAN`` variable
    only applies to unnamed (sequential) solves when it carries no target.
    """
    plan = options.fault_plan
    if plan is None and os.environ.get("REPRO_FAULT_PLAN"):
        from ..parallel.faults import resolve_env_plan

        plan = resolve_env_plan(entrant=None)
    if plan is not None and not plan.is_active():
        return None
    return plan


def solve_opp(
    instance: PackingInstance,
    *,
    options: Optional[SolverOptions] = None,
    cache: Optional[object] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    resume_from: Optional[SearchCheckpoint] = None,
    telemetry: Optional[object] = None,
) -> OPPResult:
    """Decide feasibility of a packing instance (the OPP / FeasAT&FindS).

    Everything but the instance is keyword-only.  Returns an
    :class:`OPPResult` whose ``status`` is ``"sat"`` (with a
    geometry-validated placement), ``"unsat"`` (with a certificate when a
    bound proved it), or ``"unknown"`` (node/time limit hit, or cancelled
    through ``should_stop``).  Every path stamps ``stats.elapsed``; limit
    exits additionally record the reason in ``stats.limit``.

    ``cache`` is any object with the :class:`repro.parallel.cache.ResultCache`
    interface (``get(instance)`` / ``put(instance, result)``): conclusive
    verdicts are reused across calls, keyed by the *canonical* instance form,
    so the monotone container sweeps of BMP/SPP and repeated queries hit
    instead of re-solving.

    ``resume_from`` continues an interrupted branch-and-bound from its
    checkpoint (the bounds/heuristic stages already ran before the original
    interruption and are skipped).

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`, or ``True`` for a
    fresh one) records a ``search`` span per call — one *search slice*, since
    checkpoint-resumed continuations show up as further slices — plus stage
    spans, sampled node events, and the cache/prune counters.
    """
    options = options or SolverOptions()
    telemetry = _coerce_telemetry(telemetry)
    start = time.monotonic()

    def finish(result: OPPResult) -> OPPResult:
        # Total decision time across all stages (the search stage alone
        # already stamped its own share; the total is what callers bill).
        result.stats.elapsed = time.monotonic() - start
        if cache is not None and result.status in (SAT, UNSAT):
            cache.put(instance, result)
        if telemetry.enabled:
            result.trace = telemetry
        return result

    if cache is not None:
        hit = cache.get(instance)
        if hit is not None:
            hit.stats.elapsed = time.monotonic() - start
            if telemetry.enabled:
                telemetry.counter("cache.hits").add()
                telemetry.event("cache.hit", status=hit.status)
                hit.trace = telemetry
            return hit
        if telemetry.enabled:
            telemetry.counter("cache.misses").add()

    if should_stop is not None and should_stop():
        result = OPPResult(status=UNKNOWN, stage="cancelled")
        result.stats.limit = "cancelled"
        result.stats.elapsed = time.monotonic() - start
        return result

    if options.deadline is not None and options.deadline.solver_budget() <= 0:
        # The request's end-to-end deadline leaves no compute budget: give
        # the caller the explicit "deadline" reason so it can degrade
        # rather than retry with a bigger per-solve cap.
        result = OPPResult(status=UNKNOWN, stage=DEADLINE_LIMIT)
        result.stats.limit = DEADLINE_LIMIT
        result.stats.elapsed = time.monotonic() - start
        if telemetry.enabled:
            result.trace = telemetry
        return result

    if options.use_bounds and resume_from is None:
        named = prove_infeasible_named(
            instance, disabled=options.disabled_bounds
        )
        if named is not None:
            bound_name, certificate = named
            if telemetry.enabled:
                telemetry.counter(f"prune.{bound_name}").add()
                telemetry.event("prune", bound=bound_name)
            return finish(
                OPPResult(status=UNSAT, certificate=certificate, stage="bounds")
            )

    if options.use_heuristics and resume_from is None:
        from ..heuristics.greedy import heuristic_placement

        placement = heuristic_placement(instance)
        if placement is not None:
            return finish(
                OPPResult(status=SAT, placement=placement, stage="heuristic")
            )

    if options.use_annealing and resume_from is None:
        from ..heuristics.annealing import AnnealingOptions, annealed_placement

        placement = annealed_placement(
            instance, AnnealingOptions(seed=options.annealing_seed)
        )
        if placement is not None:
            return finish(
                OPPResult(status=SAT, placement=placement, stage="annealing")
            )

    with telemetry.span(
        "search", resumed=resume_from is not None, kernel=options.kernel
    ) as span:
        solver = BranchAndBound(
            instance,
            propagation=options.propagation,
            branching=options.branching,
            node_limit=options.node_limit,
            time_limit=options.time_limit,
            deadline=options.deadline,
            should_stop=should_stop,
            resume_from=resume_from,
            fault_plan=_active_fault_plan(options),
            telemetry=telemetry if telemetry.enabled else None,
            kernel=options.kernel,
            learning=options.learning,
        )
        status, placement = solver.solve()
        span.set(
            status=status,
            nodes=solver.stats.nodes,
            limit=solver.stats.limit,
        )
    return finish(
        OPPResult(
            status=status,
            placement=placement,
            stats=solver.stats,
            faults=solver.faults,
            checkpoint=solver.checkpoint,
        )
    )
