"""A racing portfolio of OPP solver configurations.

Fekete/Köhler/Teich report (and our ablation benches confirm) that the
branching rule dominates runtime variance across instances: a configuration
that cracks one instance in milliseconds can be orders of magnitude slower
on the next.  The classic cure is a *portfolio*: run diverse configurations
on the same instance concurrently, return the first conclusive answer, and
cancel the losers.  Every configuration is exact, so the first ``sat`` /
``unsat`` is final — racing changes latency, never answers.

Three backends share one code path:

* ``process`` — ``concurrent.futures.ProcessPoolExecutor``, true
  parallelism; cooperative generation-based cancellation lets one pool be
  reused across the many OPP probes of a BMP/SPP sweep;
* ``thread``  — GIL-bound but dependency-free; used as the automatic
  fallback where process pools are unavailable (sandboxes);
* ``serial``  — configurations tried in order, first conclusive wins; the
  zero-overhead choice for tiny instances and deterministic tests.

``SearchStats`` from *all* workers are merged into the result for
observability (total nodes, conflicts, propagations across the race).

The runtime is fault-tolerant: a worker process dying mid-solve (OOM,
signal, forbidden fork) breaks the whole ``ProcessPoolExecutor``, so the
solver rebuilds the pool and re-races the lost entrants under a bounded
retry/backoff policy (:class:`RetryPolicy`); when pools keep failing the
backend degrades ``process`` → ``thread`` → ``serial``.  An entrant that
raises is recorded and excluded (a deterministic bug would raise again); an
entrant that stalls past the drain grace after a winner is abandoned.
Every such event lands in ``PortfolioResult.faults`` — a race never turns a
survivable failure into a crash or a silently wrong answer.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.boxes import PackingInstance, Placement
from ..core.deadline import DEADLINE_LIMIT, Deadline
from ..core.opp import SAT, UNKNOWN, UNSAT, OPPResult, SolverOptions
from ..io.backoff import BackoffPolicy
from ..core.search import (
    BranchingOptions,
    FaultRecord,
    SearchCheckpoint,
    SearchStats,
)
from ..telemetry import coerce as _coerce_telemetry
from .cache import ResultCache
from .workers import (
    _init_worker,
    decode_result,
    run_config_inline,
    run_portfolio_task,
)


@dataclass
class PortfolioConfig:
    """One named entrant of the race."""

    name: str
    options: SolverOptions


def default_portfolio() -> List[PortfolioConfig]:
    """Diverse exact configurations (branching rules, value orders, stage
    mixes).  The first entry is the sequential default, so
    a one-worker portfolio degenerates to ``solve_opp``."""
    return [
        PortfolioConfig("guided", SolverOptions()),
        PortfolioConfig(
            "guided-component-first",
            SolverOptions(
                branching=BranchingOptions(value_order="component_first")
            ),
        ),
        PortfolioConfig(
            "static",
            SolverOptions(branching=BranchingOptions(strategy="static")),
        ),
        PortfolioConfig(
            "guided-heavy-time",
            SolverOptions(
                use_heuristics=False,
                branching=BranchingOptions(time_axis_boost=8.0),
            ),
        ),
        PortfolioConfig(
            "static-flat",
            SolverOptions(
                branching=BranchingOptions(
                    strategy="static",
                    value_order="component_first",
                    time_axis_boost=1.0,
                )
            ),
        ),
    ]


@dataclass
class RetryPolicy:
    """Bounds on the crash-recovery machinery.

    ``entrant_retries`` caps how often one lost entrant is re-raced after a
    pool breakage; ``pool_rebuilds`` caps process-pool reconstructions per
    solve before the backend degrades to threads; ``backoff`` spaces the
    rebuilds (jittered sleeps, see :class:`repro.io.backoff.BackoffPolicy`).
    ``drain_grace`` is how long, after a winner is declared (or past the
    solve's time limit), the runtime waits for cancelled losers before
    abandoning them as stalled.
    """

    entrant_retries: int = 2
    pool_rebuilds: int = 3
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    drain_grace: float = 5.0

    def __post_init__(self) -> None:
        if self.entrant_retries < 0 or self.pool_rebuilds < 0:
            raise ValueError("retry counts must be non-negative")
        if self.drain_grace < 0:
            raise ValueError("grace period must be non-negative")


@dataclass
class PortfolioResult:
    """Outcome of one portfolio race (an :class:`OPPResult` superset).

    ``value`` / ``trace`` complete the common result protocol shared by
    every solver entry point (see :mod:`repro.api`).
    """

    status: str
    placement: Optional[Placement] = None
    certificate: Optional[str] = None
    stage: str = "search"
    winner: Optional[str] = None
    backend: str = "serial"
    elapsed: float = 0.0
    cache_hit: bool = False
    stats: SearchStats = field(default_factory=SearchStats)
    per_config: Dict[str, SearchStats] = field(default_factory=dict)
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
        """The race decides feasibility: no objective value (common result
        protocol)."""
        return None

    def to_opp_result(self) -> OPPResult:
        return OPPResult(
            status=self.status,
            placement=self.placement,
            certificate=self.certificate,
            stats=self.stats,
            stage=self.stage,
            faults=list(self.faults),
            checkpoint=self.checkpoint,
        )


class _Generation:
    """Thread/serial stand-in for the shared ``multiprocessing.Value``."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


@dataclass
class _Harvest:
    """Classified outcome of waiting on one round of entrant futures."""

    outcomes: List[Dict[str, Any]] = field(default_factory=list)
    lost: List[str] = field(default_factory=list)  # died with the pool
    failed: List[Tuple[str, str]] = field(default_factory=list)  # raised
    stalled: List[str] = field(default_factory=list)
    broken: bool = False


class PortfolioSolver:
    """A reusable racing solver (pool + cache live across many solves).

    Use as a context manager, or call :meth:`close` when done::

        with PortfolioSolver(workers=4, cache=ResultCache()) as solver:
            result = solver.solve(instance)
    """

    def __init__(
        self,
        configs: Optional[List[PortfolioConfig]] = None,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        backend: str = "auto",
        retry: Optional[RetryPolicy] = None,
        telemetry: Optional[object] = None,
    ) -> None:
        self.telemetry = _coerce_telemetry(telemetry)
        self.configs = list(configs) if configs else default_portfolio()
        if not self.configs:
            raise ValueError("portfolio needs at least one configuration")
        cpus = os.cpu_count() or 1
        self.workers = max(1, workers if workers is not None else min(len(self.configs), cpus))
        if backend not in ("auto", "process", "thread", "serial"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "auto":
            backend = "process" if self.workers > 1 else "serial"
        self.backend = backend
        self.cache = cache
        self.retry = retry or RetryPolicy()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation: Any = None

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "PortfolioSolver":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._bump_generation()
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _bump_generation(self) -> None:
        if self._generation is not None:
            with self._generation.get_lock():
                self._generation.value += 1

    def _ensure_pool(self) -> bool:
        """Create the process pool lazily; report (not decide) failure."""
        if self._pool is not None:
            return True
        try:
            import multiprocessing as mp

            ctx = mp.get_context()
            self._generation = ctx.Value("L", 0)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(self._generation,),
            )
            return True
        except (OSError, ImportError, PermissionError, ValueError, RuntimeError):
            self._pool = None
            self._generation = None
            return False

    # -- solving -----------------------------------------------------------

    def solve(
        self,
        instance: PackingInstance,
        *,
        time_limit: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        resume_from: Optional[SearchCheckpoint] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> PortfolioResult:
        """Race the portfolio on one instance; first conclusive answer wins.
        Everything past the instance is keyword-only.

        ``time_limit`` (seconds) bounds every entrant that has no tighter
        limit of its own; when all entrants come back inconclusive the
        result is ``"unknown"``.  ``deadline`` (a shared
        :class:`repro.core.deadline.Deadline`) clips every entrant to the
        request's remaining end-to-end budget; an exhausted deadline
        returns immediately with ``stats.limit == "deadline"``.
        ``resume_from`` hands an interrupted entrant its checkpoint so it
        continues instead of restarting.

        ``should_stop`` is a cooperative external cancellation hook (batch
        watchdogs, SIGINT): polled between entrants on the serial backend,
        folded into every entrant's stop check on the thread backend, and
        polled by the harvest loop on the process backend (the trip bumps
        the shared generation so workers unwind).  A tripped race returns
        ``"unknown"`` with ``stats.limit == "cancelled"``.
        """
        telemetry = self.telemetry
        start = time.monotonic()

        def finish(result: PortfolioResult) -> PortfolioResult:
            if telemetry.enabled:
                for fault in result.faults:
                    telemetry.counter(f"fault.{fault.kind}").add()
                    if fault.kind == "pool_broken":
                        telemetry.counter("portfolio.pool_rebuilds").add()
                result.trace = telemetry
            return result

        if self.cache is not None:
            hit = self.cache.get(instance)
            if hit is not None:
                if telemetry.enabled:
                    telemetry.counter("cache.hits").add()
                    telemetry.event("cache.hit", status=hit.status)
                return finish(
                    PortfolioResult(
                        status=hit.status,
                        placement=hit.placement,
                        certificate=hit.certificate,
                        stage="cache",
                        winner="cache",
                        backend=self.backend,
                        elapsed=time.monotonic() - start,
                        cache_hit=True,
                        stats=hit.stats,
                    )
                )
            if telemetry.enabled:
                telemetry.counter("cache.misses").add()

        if should_stop is not None and should_stop():
            result = PortfolioResult(status=UNKNOWN, backend=self.backend)
            result.stats.limit = "cancelled"
            result.elapsed = time.monotonic() - start
            return finish(result)

        if deadline is not None:
            # One shared remaining-time source: the race (all entrants and
            # any rebuild/degrade detours) fits in the solver budget.
            if deadline.solver_budget() <= 0:
                result = PortfolioResult(status=UNKNOWN, backend=self.backend)
                result.stats.limit = DEADLINE_LIMIT
                result.elapsed = time.monotonic() - start
                return finish(result)
            time_limit = deadline.clip(time_limit)

        configs = self.configs
        if time_limit is not None:
            configs = [
                PortfolioConfig(
                    c.name,
                    replace(
                        c.options,
                        time_limit=(
                            time_limit
                            if c.options.time_limit is None
                            else min(time_limit, c.options.time_limit)
                        ),
                    ),
                )
                for c in configs
            ]

        faults: List[FaultRecord] = []
        if self.backend == "process":
            raw, remaining = self._race_process(
                instance, configs, faults, resume_from, time_limit, should_stop
            )
            if remaining and not (should_stop is not None and should_stop()):
                self.backend = "thread"
                faults.append(
                    FaultRecord(
                        kind="backend_degraded",
                        detail="process->thread: worker pool unusable",
                    )
                )
                raw += self._race_threads(
                    instance, remaining, faults, resume_from, time_limit,
                    should_stop,
                )
        elif self.backend == "thread":
            raw = self._race_threads(
                instance, configs, faults, resume_from, time_limit, should_stop
            )
        else:
            raw = self._race_serial(
                instance, configs, faults, resume_from, should_stop
            )

        result = self._combine(instance, raw, faults)
        result.backend = self.backend
        result.elapsed = time.monotonic() - start
        if (
            result.status == UNKNOWN
            and result.stats.limit is None
            and should_stop is not None
            and should_stop()
        ):
            result.stats.limit = "cancelled"
        if (
            result.status == UNKNOWN
            and deadline is not None
            and deadline.solver_budget() <= 0
        ):
            # The end-to-end deadline — not a per-entrant cap — is what
            # stopped the race; report it so callers degrade, not retry.
            result.stats.limit = DEADLINE_LIMIT
        if self.cache is not None and result.status in (SAT, UNSAT):
            self.cache.put(instance, result.to_opp_result())
        return finish(result)

    # -- merging -----------------------------------------------------------

    def _combine(
        self,
        instance: PackingInstance,
        raw: List[Dict[str, Any]],
        faults: List[FaultRecord],
    ) -> PortfolioResult:
        """Merge worker outcomes: first conclusive wins, stats accumulate."""
        result = PortfolioResult(status=UNKNOWN, faults=list(faults))
        for data in raw:
            try:
                name, opp = decode_result(instance, data)
            except (AssertionError, KeyError, TypeError, ValueError) as exc:
                result.faults.append(
                    FaultRecord(
                        kind="entrant_error",
                        detail=f"undecodable worker result: {exc}",
                        entrant=str(data.get("config", "?")),
                    )
                )
                continue
            if self.telemetry.enabled:
                self.telemetry.counter("portfolio.entrants").add()
                if data.get("telemetry") is not None:
                    self.telemetry.merge_entrant(
                        name,
                        data["telemetry"],
                        data.get("started"),
                        data.get("ended"),
                        status=opp.status,
                        stage=opp.stage,
                    )
            result.per_config[name] = opp.stats
            result.stats.merge(opp.stats)
            result.faults.extend(opp.faults)
            if result.checkpoint is None and opp.checkpoint is not None:
                result.checkpoint = opp.checkpoint
            if result.winner is None and opp.status in (SAT, UNSAT):
                result.status = opp.status
                result.placement = opp.placement
                result.certificate = opp.certificate
                result.stage = opp.stage
                result.winner = name
                result.stats.limit = None
        result.stats.faults += len(faults)
        if result.winner is None:
            if raw:
                # All inconclusive: surface the first entrant's limit reason.
                result.stats.limit = raw[0]["stats"].get("limit")
            if result.stats.limit is None and result.faults:
                result.stats.limit = f"fault:{result.faults[0].kind}"
        return result

    # -- backends ----------------------------------------------------------

    @staticmethod
    def _resume_payload(
        name: str, resume_from: Optional[SearchCheckpoint]
    ) -> Optional[Dict[str, Any]]:
        if resume_from is None:
            return None
        if resume_from.entrant is not None and resume_from.entrant != name:
            return None
        return resume_from.to_dict()

    def _race_serial(
        self,
        instance: PackingInstance,
        configs: List[PortfolioConfig],
        faults: List[FaultRecord],
        resume_from: Optional[SearchCheckpoint] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> List[Dict[str, Any]]:
        outcomes: List[Dict[str, Any]] = []
        for config in configs:
            if should_stop is not None and should_stop():
                break
            try:
                data = run_config_inline(
                    config.name,
                    instance,
                    config.options,
                    should_stop,
                    self._resume_payload(config.name, resume_from),
                    self.telemetry.enabled,
                )
            except Exception as exc:  # contained *and* recorded, never silent
                faults.append(
                    FaultRecord(
                        kind="entrant_error",
                        detail=f"{type(exc).__name__}: {exc}",
                        entrant=config.name,
                    )
                )
                continue
            outcomes.append(data)
            if data["status"] in (SAT, UNSAT):
                break
        return outcomes

    def _race_threads(
        self,
        instance: PackingInstance,
        configs: List[PortfolioConfig],
        faults: List[FaultRecord],
        resume_from: Optional[SearchCheckpoint] = None,
        time_limit: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> List[Dict[str, Any]]:
        from concurrent.futures import ThreadPoolExecutor

        generation = _Generation()
        submitted_at = generation.value

        def entrant_stop() -> bool:
            if generation.value != submitted_at:
                return True
            return should_stop is not None and should_stop()

        try:
            pool = ThreadPoolExecutor(max_workers=self.workers)
        except (OSError, RuntimeError) as exc:
            self.backend = "serial"
            faults.append(
                FaultRecord(
                    kind="backend_degraded",
                    detail=f"thread->serial: {type(exc).__name__}: {exc}",
                )
            )
            return self._race_serial(
                instance, configs, faults, resume_from, should_stop
            )
        try:
            futures = [
                (
                    c.name,
                    pool.submit(
                        run_config_inline,
                        c.name,
                        instance,
                        c.options,
                        entrant_stop,
                        self._resume_payload(c.name, resume_from),
                        self.telemetry.enabled,
                    ),
                )
                for c in configs
            ]
            harvest = self._harvest(
                futures,
                lambda: setattr(generation, "value", submitted_at + 1),
                time_limit,
                should_stop,
            )
        finally:
            # wait=False: a stalled entrant must not block the answer; its
            # thread ends on its own once the stall passes.
            pool.shutdown(wait=False)
        self._record_entrant_faults(harvest, faults)
        return harvest.outcomes

    def _race_process(
        self,
        instance: PackingInstance,
        configs: List[PortfolioConfig],
        faults: List[FaultRecord],
        resume_from: Optional[SearchCheckpoint] = None,
        time_limit: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Tuple[List[Dict[str, Any]], List[PortfolioConfig]]:
        """Race on the process pool, surviving worker crashes.

        Returns ``(outcomes, remaining)``; ``remaining`` is non-empty only
        when the pool is beyond saving (creation failed or the rebuild
        budget ran out) and names the entrants the caller should re-race on
        a degraded backend.
        """
        completed: Dict[str, Dict[str, Any]] = {}
        attempts = {c.name: 0 for c in configs}
        todo = list(configs)
        spill: List[PortfolioConfig] = []  # re-raced on a degraded backend
        rebuilds = 0
        while todo:
            if not self._ensure_pool():
                faults.append(
                    FaultRecord(
                        kind="pool_unavailable",
                        detail="process pool could not be created",
                        attempt=rebuilds,
                    )
                )
                return list(completed.values()), todo + spill
            generation = self._generation.value
            try:
                futures = [
                    (
                        c.name,
                        self._pool.submit(
                            run_portfolio_task,
                            (
                                generation,
                                c.name,
                                instance,
                                c.options,
                                self._resume_payload(c.name, resume_from),
                                self.telemetry.enabled,
                            ),
                        ),
                    )
                    for c in todo
                ]
            except (BrokenExecutor, RuntimeError, OSError) as exc:
                rebuilds += 1
                faults.append(
                    FaultRecord(
                        kind="pool_broken",
                        detail=f"submit failed: {type(exc).__name__}: {exc}",
                        attempt=rebuilds,
                    )
                )
                self.close()
                if rebuilds > self.retry.pool_rebuilds:
                    return list(completed.values()), todo + spill
                # Jittered: concurrent solves whose pools broke together
                # must not stampede the OS process table back in lockstep.
                self.retry.backoff.sleep(rebuilds)
                continue

            harvest = self._harvest(
                futures, self._bump_generation, time_limit, should_stop
            )
            if should_stop is not None and should_stop():
                # External cancellation (watchdog trip, shutdown): surface
                # whatever finished; nothing left to retry or degrade to.
                for data in harvest.outcomes:
                    completed[data["config"]] = data
                self._record_entrant_faults(harvest, faults)
                return list(completed.values()), []
            for data in harvest.outcomes:
                completed[data["config"]] = data
            self._record_entrant_faults(harvest, faults)
            conclusive = any(
                d["status"] in (SAT, UNSAT) for d in completed.values()
            )
            if not harvest.broken or conclusive:
                # Entrants spilled earlier are moot once someone concluded.
                return list(completed.values()), [] if conclusive else spill

            # The pool died under us: rebuild it and re-race the entrants it
            # took down, each under a bounded retry budget.
            rebuilds += 1
            faults.append(
                FaultRecord(
                    kind="pool_broken",
                    detail="worker process died mid-race; rebuilding pool",
                    attempt=rebuilds,
                )
            )
            self.close()
            settled = set(completed)
            settled.update(name for name, _ in harvest.failed)
            settled.update(harvest.stalled)
            next_todo: List[PortfolioConfig] = []
            for config in todo:
                if config.name in settled:
                    continue
                attempts[config.name] += 1
                if self.telemetry.enabled:
                    self.telemetry.counter("portfolio.retries").add()
                if attempts[config.name] > self.retry.entrant_retries:
                    # Out of process retries: this entrant (or a sibling
                    # poisoning its pool) keeps crashing; re-race it on a
                    # degraded backend where a crash cannot take the pool
                    # — and the other entrants — down with it.
                    faults.append(
                        FaultRecord(
                            kind="entrant_abandoned",
                            detail="process retry budget exhausted; "
                            "re-racing on a degraded backend",
                            entrant=config.name,
                            attempt=attempts[config.name],
                        )
                    )
                    spill.append(config)
                    continue
                next_todo.append(config)
            todo = next_todo
            if todo:
                if rebuilds > self.retry.pool_rebuilds:
                    return list(completed.values()), todo + spill
                self.retry.backoff.sleep(rebuilds)
        return list(completed.values()), spill

    def _record_entrant_faults(
        self, harvest: _Harvest, faults: List[FaultRecord]
    ) -> None:
        for name, detail in harvest.failed:
            faults.append(
                FaultRecord(kind="entrant_error", detail=detail, entrant=name)
            )
        for name in harvest.stalled:
            faults.append(
                FaultRecord(
                    kind="entrant_stalled",
                    detail=f"no result within {self.retry.drain_grace}s grace",
                    entrant=name,
                )
            )

    def _harvest(
        self,
        futures: List[Tuple[str, Any]],
        cancel: Any,
        time_limit: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> _Harvest:
        """Wait for the first conclusive future, cancel the rest, and drain
        them (cancellation is cooperative, so the drain is normally quick)
        to merge their partial stats.  Entrants that raise are recorded as
        failed; a broken pool marks the un-harvested rest as lost (they are
        retried); entrants still running past the drain grace — after a
        winner, or past the solve's own time limit — are abandoned as
        stalled rather than allowed to block the answer.

        ``should_stop`` (external cancellation) is polled while waiting;
        its trip cancels the race exactly like a winner would — pending
        futures are cancelled, the shared generation is bumped so workers
        unwind cooperatively, and the drain grace starts ticking."""
        harvest = _Harvest()
        pending: Dict[Any, str] = {future: name for name, future in futures}
        deadline: Optional[float] = None
        if time_limit is not None:
            deadline = time.monotonic() + time_limit + self.retry.drain_grace
        cancelled = False
        while pending:
            timeout = None
            if deadline is not None:
                timeout = max(0.0, deadline - time.monotonic())
            if should_stop is not None and not cancelled:
                # Bounded waits so the external stop hook stays responsive.
                timeout = 0.05 if timeout is None else min(timeout, 0.05)
            done, _ = wait(
                set(pending), timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                if (
                    should_stop is not None
                    and not cancelled
                    and should_stop()
                ):
                    cancelled = True
                    for future in pending:
                        future.cancel()
                    cancel()
                    grace = time.monotonic() + self.retry.drain_grace
                    deadline = (
                        grace if deadline is None else min(deadline, grace)
                    )
                    continue
                if deadline is None or time.monotonic() < deadline:
                    continue  # bounded poll tick, not the real deadline
                for future, name in pending.items():
                    future.cancel()
                    harvest.stalled.append(name)
                break
            for future in done:
                name = pending.pop(future)
                if future.cancelled():
                    if not cancelled:
                        harvest.lost.append(name)
                    continue
                exc = future.exception()
                if exc is None:
                    harvest.outcomes.append(future.result())
                elif isinstance(exc, BrokenExecutor):
                    harvest.broken = True
                    harvest.lost.append(name)
                else:
                    harvest.failed.append(
                        (name, f"{type(exc).__name__}: {exc}")
                    )
            if harvest.broken:
                # Every sibling future shares the dead pool; stop waiting.
                for future, name in pending.items():
                    future.cancel()
                    harvest.lost.append(name)
                break
            if not cancelled and any(
                o["status"] in (SAT, UNSAT) for o in harvest.outcomes
            ):
                cancelled = True
                for future in pending:
                    future.cancel()
                cancel()
                grace = time.monotonic() + self.retry.drain_grace
                deadline = grace if deadline is None else min(deadline, grace)
        return harvest

