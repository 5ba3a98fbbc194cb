"""repro — Optimal FPGA module placement with temporal precedence constraints.

A from-scratch reproduction of Fekete, Köhler & Teich (DATE 2001): exact
placement of hardware modules in space and time on partially reconfigurable
FPGAs, modeled as 3-D orthogonal packing and solved via *packing classes* —
a graph-theoretic characterization of feasible packings — extended with the
paper's implication machinery for temporal precedence constraints.

Quickstart — the unified facade covers every problem of the paper::

    import repro
    from repro.fpga import TaskGraph, ModuleType

    mul = ModuleType("MUL", width=16, height=16, duration=2)
    alu = ModuleType("ALU", width=16, height=1, duration=1)
    g = TaskGraph("demo")
    a = g.add_task("a", mul)
    b = g.add_task("b", alu)
    g.add_dependency(a, b)

    result = repro.solve(g, problem="bmp", time_bound=3)
    print(result.status, result.value)

All entry points share a common result protocol (``.status``, ``.value``,
``.stats``, ``.faults``, ``.trace``) and keyword-only configuration; see
:mod:`repro.api`.  Observability — span traces, metrics, human reports —
lives in :mod:`repro.telemetry` and is threaded through everything via the
``telemetry=`` keyword (or ``--trace`` / ``--metrics`` on the CLI).

Main modules:

* :mod:`repro.api` — the :func:`solve` facade and the result protocol;
* :mod:`repro.fpga` — domain API (task graphs, chips, `place`,
  `minimize_chip`, `minimize_latency`, `explore_tradeoffs`);
* :mod:`repro.core` — the packing engine (OPP/BMP/SPP/FixedS solvers,
  packing classes, bounds);
* :mod:`repro.parallel` — the racing portfolio, result cache, fault plans;
* :mod:`repro.runtime` — crash-safe batch solving (durable journal,
  per-instance watchdogs, kill-anywhere resume);
* :mod:`repro.distributed` — fault-tolerant distributed tree search
  (leased subtree queue, crash recovery, certified deterministic merge);
* :mod:`repro.service` — the async multi-tenant solver daemon
  (``repro-fpga serve``: HTTP+JSON API, admission control, tenant
  budgets, cross-tenant memoization, kill-anywhere resume);
* :mod:`repro.certify` — independent certification of solver results;
* :mod:`repro.telemetry` — tracing and metrics;
* :mod:`repro.instances` — the paper's DE and video-codec benchmarks;
* :mod:`repro.baselines` — the comparison approaches the paper rejects.
"""

__version__ = "1.2.0"

from importlib import import_module

from . import (
    baselines,
    certify,
    core,
    fpga,
    graphs,
    heuristics,
    instances,
    io,
    telemetry,
)
from .api import PROBLEMS, solve
from .certify import certify_batch_dir, certify_payload
from .core.deadline import Deadline
from .core.opp import OPPResult, SolverOptions
from .io.backoff import BackoffPolicy
from .telemetry import Telemetry

#: Names served by a module imported on first access.  The portfolio, the
#: batch and distributed runtimes, the client and the service daemon pull
#: in process pools, networking and the event loop (``multiprocessing``,
#: ``http.client``, ``asyncio``, ``ssl``: ~8 MB resident), which
#: ``import repro`` and ``repro.solve`` never need.
_LAZY = {
    "client": ".client",
    "distributed": ".distributed",
    "parallel": ".parallel",
    "runtime": ".runtime",
    "service": ".service",
    "ReproClient": ".client",
    "CircuitBreaker": ".client",
    "DeadlineExceeded": ".client",
    "ResultCache": ".parallel.cache",
    "PortfolioSolver": ".parallel.portfolio",
    "BatchRunner": ".runtime",
    "run_batch": ".runtime",
    "DistributedOptions": ".distributed",
    "DistributedResult": ".distributed",
    "solve_distributed": ".distributed",
    "resume_distributed": ".distributed",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(_LAZY[name], __name__)
    value = module if module.__name__ == f"{__name__}.{name}" else getattr(module, name)
    globals()[name] = value
    return value


__all__ = [
    # the facade
    "solve",
    "PROBLEMS",
    # the knobs a typical caller touches
    "SolverOptions",
    "OPPResult",
    "ResultCache",
    "PortfolioSolver",
    "Telemetry",
    # deadlines + the resilient service client
    "Deadline",
    "BackoffPolicy",
    "ReproClient",
    "CircuitBreaker",
    "DeadlineExceeded",
    # the batch runtime + certification layer
    "BatchRunner",
    "run_batch",
    "certify_batch_dir",
    "certify_payload",
    # the distributed runtime
    "DistributedOptions",
    "DistributedResult",
    "solve_distributed",
    "resume_distributed",
    # submodules
    "api",
    "baselines",
    "certify",
    "client",
    "core",
    "distributed",
    "fpga",
    "graphs",
    "heuristics",
    "instances",
    "io",
    "parallel",
    "runtime",
    "service",
    "telemetry",
    "__version__",
]
