"""The unified public entry point: :func:`repro.solve`.

One keyword-only facade dispatches to every problem of the paper::

    import repro

    result = repro.solve(instance, problem="opp")                 # FeasAT&FindS
    result = repro.solve(graph, problem="bmp", time_bound=14)     # MinA&FindS
    result = repro.solve(graph, problem="spp", chip=(16, 16))     # MinT&FindS
    result = repro.solve(graph, problem="area", time_bound=14)
    result = repro.solve(graph, problem="pareto")                 # Figure 7
    result = repro.solve(graph, problem="fixed_feasible",
                         starts=[0, 2], chip=(8, 8))              # FeasA&FixedS
    result = repro.solve(graph, problem="fixed_area", starts=[0, 2])
                                                                  # MinA&FixedS

Every returned object follows the **common result protocol**:

``.status``
    ``"sat"`` / ``"unsat"`` / ``"optimal"`` / ``"infeasible"`` /
    ``"unknown"``.
``.value``
    The objective value — ``None`` for pure decision problems, the optimum
    for BMP/SPP, the minimal area for the free-aspect sweep, the
    (latency, side) pairs for the Pareto front.
``.stats``
    Solver statistics (a :class:`~repro.core.search.SearchStats` for single
    decisions, an aggregate dict for sweeps).
``.faults``
    Every survivable failure the runtime absorbed while answering.
``.trace``
    The :class:`~repro.telemetry.Telemetry` that recorded the solve, or
    ``None`` when telemetry was off.

The ``instance`` argument is polymorphic: a
:class:`~repro.core.boxes.PackingInstance`, a
:class:`~repro.fpga.dataflow.TaskGraph`, a ``(boxes, precedence)`` pair, or
a plain list of :class:`~repro.core.boxes.Box`.  ``workers > 1`` races a
:class:`~repro.parallel.portfolio.PortfolioSolver` per OPP decision instead
of the sequential solver.

The same facade is reachable over HTTP: :mod:`repro.service` wraps it in
an async multi-tenant daemon (``repro-fpga serve``) whose ``/v1/solve``
answers are byte-identical to calling :func:`repro.solve` directly.
"""

from __future__ import annotations

from dataclasses import replace as _replace
from typing import Any, Optional, Tuple

from .core.bmp import minimize_area, minimize_base
from .core.boxes import Box, Container, PackingInstance
from .core.deadline import Deadline
from .core.fixed_schedule import (
    feasible_placement_fixed_schedule,
    minimize_base_fixed_schedule,
)
from .core.opp import SolverOptions, solve_opp
from .core.pareto import pareto_front
from .core.spp import minimize_makespan
from .telemetry import coerce as _coerce_telemetry

PROBLEMS = (
    "opp",
    "bmp",
    "spp",
    "area",
    "pareto",
    "fixed_feasible",
    "fixed_area",
)

# Paper names and informal synonyms, normalized to the canonical key.
_ALIASES = {
    "opp": "opp",
    "feasat": "opp",
    "feasibility": "opp",
    "bmp": "bmp",
    "mina": "bmp",
    "base": "bmp",
    "spp": "spp",
    "mint": "spp",
    "makespan": "spp",
    "area": "area",
    "pareto": "pareto",
    "tradeoffs": "pareto",
    "fixed_feasible": "fixed_feasible",
    "feasa": "fixed_feasible",
    "fixed_area": "fixed_area",
}


def _canonical_problem(problem: str) -> str:
    key = _ALIASES.get(str(problem).lower().replace("&", "_").replace("-", "_"))
    if key is None:
        raise ValueError(
            f"unknown problem {problem!r}; expected one of {', '.join(PROBLEMS)}"
        )
    return key


def _is_task_graph(instance: Any) -> bool:
    return callable(getattr(instance, "packing_view", None))


def _as_boxes_precedence(instance: Any) -> Tuple[list, Optional[Any]]:
    """Normalize any accepted instance form to ``(boxes, precedence)``."""
    if isinstance(instance, PackingInstance):
        return list(instance.boxes), instance.precedence
    if _is_task_graph(instance):
        return instance.packing_view()
    if isinstance(instance, tuple) and len(instance) == 2:
        boxes, precedence = instance
        return list(boxes), precedence
    if isinstance(instance, (list,)):
        return list(instance), None
    raise TypeError(
        "instance must be a PackingInstance, a TaskGraph, a (boxes, "
        f"precedence) pair, or a list of boxes, got {type(instance).__name__}"
    )


def _as_chip_pair(chip: Any) -> Tuple[int, int]:
    if chip is None:
        raise ValueError("this problem needs a chip=(width, height)")
    if hasattr(chip, "width") and hasattr(chip, "height"):
        return int(chip.width), int(chip.height)
    width, height = chip
    return int(width), int(height)


def _as_packing_instance(
    instance: Any, chip: Any, time_bound: Optional[int]
) -> PackingInstance:
    if isinstance(instance, PackingInstance):
        return instance
    boxes, precedence = _as_boxes_precedence(instance)
    if time_bound is None:
        raise ValueError(
            "solving the OPP from boxes or a task graph needs chip=... and "
            "time_bound=... to define the container"
        )
    width, height = _as_chip_pair(chip)
    return PackingInstance(
        boxes, Container((width, height, int(time_bound))), precedence
    )


def _portfolio_opp_solver(solver: Any, time_limit: Optional[float]):
    """Adapt a :class:`PortfolioSolver` to the ``opp_solver`` contract of the
    sweep drivers: ``opp_solver(instance, *, deadline=None,
    resume_from=None)``; ``time_limit`` is the per-decision cap."""

    def opp_solver(instance, *, deadline=None, resume_from=None):
        return solver.solve(
            instance,
            time_limit=time_limit,
            deadline=deadline,
            resume_from=resume_from,
        ).to_opp_result()

    return opp_solver


def solve(
    instance: Any,
    problem: str = "opp",
    *,
    time_bound: Optional[int] = None,
    chip: Any = None,
    starts: Optional[list] = None,
    max_time: Optional[int] = None,
    max_side: Optional[int] = None,
    with_dependencies: bool = True,
    options: Optional[SolverOptions] = None,
    kernel: Optional[str] = None,
    learning: Optional[Any] = None,
    workers: Optional[int] = None,
    backend: str = "auto",
    cache: Optional[Any] = None,
    deadline: Optional[Deadline] = None,
    telemetry: Optional[Any] = None,
):
    """Solve one of the paper's problems; see the module docstring.

    Everything except ``instance`` and ``problem`` is keyword-only.
    Problem-specific keywords: ``time_bound`` (bmp/area, and opp from a
    graph), ``chip`` (spp/fixed_feasible, and opp from a graph), ``starts``
    (the FixedS problems), ``max_time`` / ``with_dependencies`` (pareto),
    ``max_side`` (bmp).  Cross-cutting keywords: ``options``, ``workers`` /
    ``backend`` (portfolio racing per OPP decision when ``workers > 1``),
    ``cache``, ``deadline`` (a :class:`~repro.core.deadline.Deadline`: the
    run's one wall clock — a sweep it stops returns its certified incumbent
    as ``"degraded"``), ``telemetry`` (a
    :class:`~repro.telemetry.Telemetry` or ``True``).  The per-decision cap
    is ``options.time_limit``.

    ``kernel`` names the propagation engine every OPP decision runs on —
    any name from :func:`repro.core.available_kernels` (``"bitmask"``,
    ``"reference"``, plus third-party registrations) or the alias
    ``"vector"`` (runs ``"bitmask"``); ``learning`` switches conflict learning
    (``True``/``False`` or a :class:`~repro.core.nogoods.LearningOptions`).
    Both are shorthand that overrides the corresponding field of
    ``options`` — with ``workers > 1`` the override applies to every
    portfolio entrant.
    """
    key = _canonical_problem(problem)
    overrides = {}
    if kernel is not None:
        overrides["kernel"] = kernel
    if learning is not None:
        overrides["learning"] = learning
    if overrides:
        # dataclasses.replace re-runs __post_init__, so bad kernel names
        # raise UnknownKernelError here, before any solving starts.
        options = _replace(options or SolverOptions(), **overrides)
    telemetry = _coerce_telemetry(telemetry)
    if cache is not None and hasattr(cache, "instrument"):
        cache.instrument(telemetry)

    portfolio = None
    # The portfolio runs its own entrant options; the per-decision cap of
    # ``options`` still bounds every race.
    portfolio_limit = options.time_limit if options is not None else None
    if workers is not None and workers > 1:
        from .parallel.portfolio import (
            PortfolioConfig,
            PortfolioSolver,
            default_portfolio,
        )

        configs = None
        if overrides:
            configs = [
                PortfolioConfig(c.name, _replace(c.options, **overrides))
                for c in default_portfolio()
            ]
        portfolio = PortfolioSolver(
            configs=configs,
            workers=workers,
            cache=cache,
            backend=backend,
            telemetry=telemetry,
        )
    try:
        if key == "opp":
            packing = _as_packing_instance(instance, chip, time_bound)
            with telemetry.span("solve", problem="opp") as span:
                if portfolio is not None:
                    result = portfolio.solve(
                        packing,
                        time_limit=portfolio_limit,
                        deadline=deadline,
                    )
                else:
                    opts = options or SolverOptions()
                    if deadline is not None:
                        opts = _replace(opts, deadline=deadline)
                    result = solve_opp(
                        packing,
                        options=opts,
                        cache=cache,
                        telemetry=telemetry if telemetry.enabled else None,
                    )
                span.set(status=result.status)
            if telemetry.enabled:
                result.trace = telemetry
            return result

        opp_solver = (
            _portfolio_opp_solver(portfolio, portfolio_limit)
            if portfolio is not None
            else None
        )
        # With a portfolio in play the cache lives inside it (one lookup per
        # probe); handing it to the driver too would double-count lookups.
        driver_cache = None if portfolio is not None else cache
        boxes, precedence = _as_boxes_precedence(instance)

        if key == "bmp":
            return minimize_base(
                boxes,
                precedence,
                time_bound=1 if time_bound is None else time_bound,
                options=options,
                max_side=max_side,
                cache=driver_cache,
                opp_solver=opp_solver,
                deadline=deadline,
                telemetry=telemetry if telemetry.enabled else None,
            )
        if key == "area":
            return minimize_area(
                boxes,
                precedence,
                time_bound=1 if time_bound is None else time_bound,
                options=options,
                cache=driver_cache,
                opp_solver=opp_solver,
                deadline=deadline,
                telemetry=telemetry if telemetry.enabled else None,
            )
        if key == "spp":
            return minimize_makespan(
                boxes,
                precedence,
                chip=_as_chip_pair(chip),
                options=options,
                cache=driver_cache,
                opp_solver=opp_solver,
                deadline=deadline,
                telemetry=telemetry if telemetry.enabled else None,
            )
        if key == "pareto":
            return pareto_front(
                boxes,
                precedence if with_dependencies else None,
                max_time=max_time,
                options=options,
                cache=driver_cache,
                opp_solver=opp_solver,
                deadline=deadline,
                telemetry=telemetry if telemetry.enabled else None,
            )

        if starts is None:
            raise ValueError(
                f"problem {key!r} needs starts=[...] (the fixed schedule)"
            )
        if key == "fixed_feasible":
            with telemetry.span("solve", problem="fixed_feasible") as span:
                result = feasible_placement_fixed_schedule(
                    boxes,
                    list(starts),
                    _as_chip_pair(chip),
                    precedence=precedence,
                    options=options,
                    telemetry=telemetry if telemetry.enabled else None,
                )
                span.set(status=result.status)
            if telemetry.enabled:
                result.trace = telemetry
            return result
        return minimize_base_fixed_schedule(
            boxes,
            list(starts),
            precedence=precedence,
            options=options,
            telemetry=telemetry if telemetry.enabled else None,
        )
    finally:
        if portfolio is not None:
            portfolio.close()


def __getattr__(name: str) -> Any:
    # The batch runtime's facade rides along here: ``run_batch`` drives many
    # instances through the same solvers under crash-safe journaling, and
    # its per-instance results follow the common result protocol above (each
    # ``done`` journal record carries the status, witness, and certification
    # verdict).  See :mod:`repro.runtime`.  Imported on first use: the
    # runtime loads ``multiprocessing``, which a plain solve never needs.
    if name == "run_batch":
        from .runtime import run_batch

        return run_batch
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["PROBLEMS", "run_batch", "solve"]
