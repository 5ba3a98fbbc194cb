"""The three benchmark workloads: their inputs, how one operation runs, and
how its answer is checked.

Every input is made from the ``--seed`` argument; the program only ever
sees the generated instances.

* ``paper_sweeps`` — the paper's questions through :func:`repro.solve`
  (Table 1 BMP, Table 2 SPP, Figure 7 Pareto fronts); the seed permutes
  their order.
* ``search_pool`` — feasible-by-construction guillotine instances through
  :func:`repro.core.opp.solve_opp` under the service's brownout node cap.
  The pool is drawn from a pinned generator seed so that its cost does not
  swing with ``--seed``, which permutes its order.
* ``service_mixed`` — a seeded stream of mixed instances, about half of
  them isomorphic relabelings of earlier ones, posted by closed-loop
  :class:`repro.client.ReproClient` callers to an in-process daemon.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

WORKLOADS = ("paper_sweeps", "search_pool", "service_mixed")

#: search_pool: the pool and the node budget (the service's brownout cap).
POOL_SEED = 2001
POOL_SIZE = 24
POOL_CONTAINER = (6, 6, 6)
POOL_BOXES = 12
POOL_DENSITY = 0.3
NODE_LIMIT = 20_000

#: service_mixed: closed-loop callers, instance scale, share of repeats.
CLIENTS = 2
STREAM_MAX_CONTAINER = 6
STREAM_MAX_BOXES = 8
REPEAT_SHARE = 0.6

#: Figure 7's dashed curve (no precedence), the repo's exact ground truth.
FIGURE_7_WITHOUT_PRECEDENCE = [(2, 48), (4, 32), (12, 17), (13, 16)]


@dataclass
class Outcome:
    """One operation as the caller saw it."""

    index: int
    seconds: float
    result: Any = None
    error: Optional[str] = None
    cache_hit: Optional[bool] = None


@dataclass
class Pass:
    """One measured run over a workload's operations."""

    outcomes: List[Outcome]
    wall: float
    client_metrics: Dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Question:
    name: str
    problem: str
    graph: Any
    keywords: Dict[str, Any]
    expected: Any


def paper_questions(seed: int) -> List[Question]:
    """Table 1 BMP at h_t in {6, 12, 13, 14}, Table 2 SPP on 64x64, and
    both Figure 7 fronts, in an order permuted by ``seed``."""
    from repro.instances.de import (
        FIGURE_7_WITH_PRECEDENCE, TABLE_1, de_task_graph,
    )
    from repro.instances.video_codec import TABLE_2, codec_task_graph

    de = de_task_graph()
    codec = codec_task_graph()
    # h_t = 12 is the last deadline on Figure 7's 32-wide step.
    sides = {6: TABLE_1[6][0], 12: 32, 13: TABLE_1[13][0], 14: TABLE_1[14][0]}
    questions = [
        Question(f"table1_bmp_t{t}", "bmp", de, {"time_bound": t}, side)
        for t, side in sides.items()
    ]
    questions.append(
        Question("table2_spp_64", "spp", codec, {"chip": (64, 64)},
                 TABLE_2["latency"])
    )
    questions.append(
        Question("fig7_pareto_precedence", "pareto", de, {},
                 FIGURE_7_WITH_PRECEDENCE)
    )
    questions.append(
        Question("fig7_pareto_free", "pareto", de,
                 {"with_dependencies": False}, FIGURE_7_WITHOUT_PRECEDENCE)
    )
    random.Random(seed).shuffle(questions)
    return questions


def search_pool(seed: int) -> list:
    """The pinned pool of feasible-by-construction instances, permuted by
    ``seed``."""
    from repro.instances.random_instances import random_feasible_instance

    rng = random.Random(POOL_SEED)
    pool = [
        random_feasible_instance(rng, POOL_CONTAINER, POOL_BOXES, POOL_DENSITY)[0]
        for _ in range(POOL_SIZE)
    ]
    random.Random(seed).shuffle(pool)
    return pool


def relabel(instance: Any, rng: random.Random) -> Any:
    """An isomorphic copy: boxes permuted and renamed, arcs remapped."""
    from repro.core.boxes import Box, PackingInstance
    from repro.graphs.digraph import DiGraph

    n = instance.n
    order = list(range(n))
    rng.shuffle(order)  # new position k holds old box order[k]
    position = {old: new for new, old in enumerate(order)}
    boxes = [
        Box(instance.boxes[old].widths, name=f"m{new}")
        for new, old in enumerate(order)
    ]
    precedence = None
    if instance.precedence is not None:
        precedence = DiGraph(
            n, [(position[u], position[v]) for u, v in instance.precedence.arcs()]
        )
    return PackingInstance(boxes, instance.container, precedence, instance.time_axis)


class ServiceStream:
    """The seeded request stream, extended on demand.

    ``origin[i]`` is the index of the fresh request that request ``i``
    relabels (``i`` itself for a fresh one).
    """

    def __init__(self, seed: int) -> None:
        from repro.instances.random_instances import differential_instances

        self._rng = random.Random(seed)
        self._fresh = differential_instances(
            self._rng.randrange(2**32), 10**9,
            max_container=STREAM_MAX_CONTAINER, max_boxes=STREAM_MAX_BOXES,
        )
        self.instances: List[Any] = []
        self.origin: List[int] = []
        self._originals: List[int] = []
        self._lock = threading.Lock()

    def get(self, index: int) -> Any:
        with self._lock:
            while len(self.instances) <= index:
                i = len(self.instances)
                if self._originals and self._rng.random() < REPEAT_SHARE:
                    source = self._rng.choice(self._originals)
                    self.instances.append(relabel(self.instances[source], self._rng))
                    self.origin.append(source)
                else:
                    self.instances.append(next(self._fresh))
                    self.origin.append(i)
                    self._originals.append(i)
            return self.instances[index]


# ---------------------------------------------------------------------------
# Answer checks (outside the timed region)
# ---------------------------------------------------------------------------


def certify_witness(placement: Any) -> bool:
    """Independently re-check a SAT witness with :mod:`repro.certify`."""
    from repro.certify import certify_payload
    from repro.core.opp import OPPResult

    payload = OPPResult(status="sat", placement=placement).certificate_payload(
        placement.instance
    )
    return certify_payload(payload).certified


def _sweep_placements(result: Any) -> list:
    results = getattr(result, "results", None)
    if results is None:
        return [result.placement]
    return [r.placement for r in results if r.placement is not None]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class InProcess:
    """A workload whose operations call the library on this thread."""

    in_process = True

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.items: List[Any] = []
        #: The tail percentile reported.  On paper_sweeps, p80 falls inside
        #: the latency cluster of one question (each is 1/7 of the samples)
        #: rather than on the edge between two.
        self.tail = 80 if name == "paper_sweeps" else 75

    def setup(self) -> None:
        if self.name == "paper_sweeps":
            self.items = paper_questions(self.seed)
        else:
            self.items = search_pool(self.seed)

    def min_samples(self) -> int:
        return max(len(self.items), int(round(10 / (1 - self.tail / 100))))

    def call(self, item: Any) -> Any:
        if self.name == "paper_sweeps":
            import repro

            return repro.solve(item.graph, item.problem, **item.keywords)
        from repro.core.opp import SolverOptions, solve_opp

        return solve_opp(item, options=SolverOptions(node_limit=NODE_LIMIT))

    def run(
        self,
        seconds: float,
        count: Optional[int] = None,
        wrap: Optional[Callable[[Callable], Callable]] = None,
        tracer: Any = None,
        min_samples: Optional[int] = None,
    ) -> Pass:
        """Run whole cycles over the items until ``seconds`` (and
        ``min_samples``, by default what the tail percentile needs) are
        reached; start a cycle only when the previous one would still fit.
        ``count`` replays exactly that many operations instead."""
        from tracing import REQUEST_ID

        if min_samples is None:
            min_samples = self.min_samples()
        call = wrap(self.call) if wrap is not None else self.call
        outcomes: List[Outcome] = []
        size = len(self.items)
        start = cycle_start = time.perf_counter()
        index = 0
        while True:
            if count is not None:
                if index >= count:
                    break
            elif index and index % size == 0:
                now = time.perf_counter()
                last_cycle, cycle_start = now - cycle_start, now
                if index >= min_samples and now - start + last_cycle > seconds:
                    break
            REQUEST_ID.set(f"op-{index}")
            began = time.perf_counter()
            try:
                outcome = Outcome(index, 0.0, result=call(self.items[index % size]))
            except Exception as exc:  # noqa: BLE001 — counted as a failure
                outcome = Outcome(index, 0.0, error=f"{type(exc).__name__}: {exc}")
            outcome.seconds = time.perf_counter() - began
            outcomes.append(outcome)
            index += 1
        return Pass(outcomes, time.perf_counter() - start)

    def judge(self, outcome: Outcome) -> Dict[str, Any]:
        """Whether the verdict is conclusive, a fingerprint that repeats
        exactly between runs, and any problems with the answer."""
        item = self.items[outcome.index % len(self.items)]
        if outcome.error is not None:
            return {"decided": False, "fingerprint": None,
                    "problems": [outcome.error]}
        result = outcome.result
        problems = []
        if self.name == "paper_sweeps":
            decided = result.status == "optimal"
            if not decided or result.value != item.expected:
                problems.append(
                    f"{item.name}: {result.status} {result.value!r}, "
                    f"expected {item.expected!r}"
                )
            steps = getattr(result, "results", [result])
            fingerprint = (
                result.status, repr(result.value),
                tuple((p.value, p.status, p.stage, p.nodes)
                      for step in steps for p in step.probes),
            )
            placements = _sweep_placements(result)
        else:
            decided = result.status in ("sat", "unsat")
            if result.status == "unsat":
                problems.append("feasible-by-construction instance answered unsat")
            elif result.status == "unknown" and result.stats.limit != "node limit":
                problems.append(f"unknown for {result.stats.limit!r}")
            fingerprint = (result.status, result.stage, result.stats.nodes)
            placements = [result.placement] if result.status == "sat" else []
        for placement in placements:
            if placement is None or not certify_witness(placement):
                problems.append(f"op {outcome.index}: witness not certified")
        return {"decided": decided, "fingerprint": fingerprint,
                "problems": problems}

    def check_pass(self, run: Pass) -> List[str]:
        return []

    def close(self) -> None:
        pass


class Daemon:
    """One in-process :class:`repro.service.SolverService` with default
    settings (fsync on) on its own event-loop thread."""

    def __init__(self, state_dir: str) -> None:
        from repro.service import ServiceConfig

        self.config = ServiceConfig(state_dir=state_dir, port=0)
        self.service: Any = None
        self.loop: Any = None
        self._error: Optional[BaseException] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — re-raised in start()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        from repro.service import SolverService

        self.loop = asyncio.get_running_loop()
        self.service = SolverService(self.config)
        await self.service.start()
        self._ready.set()
        await self.service.serve_forever()

    def start(self) -> int:
        """Boot the daemon and wait for ``/v1/health``; returns the port."""
        from repro.client import ReproClient

        self._thread.start()
        if not self._ready.wait(timeout=60) or self._error is not None:
            raise RuntimeError(f"service did not start: {self._error!r}")
        ReproClient(port=self.service.port).health()
        return self.service.port

    def stop(self) -> None:
        if self.loop is not None and self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.service.request_stop)
        self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise RuntimeError("service did not stop")


class Service:
    """``service_mixed``: closed-loop clients against an in-process daemon."""

    in_process = False

    def __init__(self, name: str, seed: int, scratch: str) -> None:
        self.name = name
        self.seed = seed
        self.scratch = scratch
        self.stream = ServiceStream(seed)
        self.tail = 99
        self.daemon: Optional[Daemon] = None
        self._representatives: Dict[int, str] = {}

    def setup(self) -> None:
        self.daemon = Daemon(tempfile.mkdtemp(prefix="state-", dir=self.scratch))
        self.port = self.daemon.start()

    def restart(self) -> None:
        """A fresh daemon with an empty memo and journal."""
        self.close()
        self.setup()

    def min_samples(self) -> int:
        return int(round(10 / (1 - self.tail / 100)))

    def run(
        self,
        seconds: float,
        count: Optional[int] = None,
        wrap: Optional[Callable[[Callable], Callable]] = None,
        tracer: Any = None,
        min_samples: Optional[int] = None,
    ) -> Pass:
        """:data:`CLIENTS` threads take the next request of the stream,
        post it, and wait for the reply, until ``seconds`` (and
        ``min_samples``, by default what the tail percentile needs) are
        reached — or exactly ``count`` requests."""
        from repro.client import ReproClient
        from tracing import REQUEST_ID

        if min_samples is None:
            min_samples = self.min_samples()
        lock = threading.Lock()
        taken = [0]
        outcomes: List[Outcome] = []
        clients = [ReproClient(port=self.port) for _ in range(CLIENTS)]
        start = time.perf_counter()

        def loop(k: int) -> None:
            client = clients[k]
            tenant = f"client-{k}"
            post = wrap(client.solve) if wrap is not None else client.solve
            while True:
                with lock:
                    index = taken[0]
                    if count is not None:
                        if index >= count:
                            return
                    elif (
                        time.perf_counter() - start >= seconds
                        and index >= min_samples
                    ):
                        return
                    taken[0] += 1
                instance = self.stream.get(index)
                request = f"req-{index}"
                REQUEST_ID.set(request)
                if tracer is not None:
                    tracer.current_by_tenant[tenant] = request
                began = time.perf_counter()
                try:
                    body = post(instance, tenant=tenant)
                    outcome = Outcome(index, 0.0, result=body)
                    outcome.cache_hit = bool(
                        (body.get("response") or {}).get("cache_hit")
                    )
                except Exception as exc:  # noqa: BLE001 — counted as a failure
                    outcome = Outcome(
                        index, 0.0, error=f"{type(exc).__name__}: {exc}"
                    )
                outcome.seconds = time.perf_counter() - began
                outcomes.append(outcome)

        threads = [
            threading.Thread(target=loop, args=(k,)) for k in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        outcomes.sort(key=lambda o: o.index)
        metrics: Dict[str, int] = {}
        for client in clients:
            for key, value in client.metrics.snapshot().items():
                metrics[key] = metrics.get(key, 0) + value
        return Pass(outcomes, wall, metrics)

    def judge(self, outcome: Outcome) -> Dict[str, Any]:
        if outcome.error is not None:
            return {"decided": False, "fingerprint": None,
                    "problems": [outcome.error]}
        body = outcome.result
        response = body.get("response") or {}
        answer = response.get("answer") or {}
        status = answer.get("status")
        problems = []
        if body.get("state") != "done":
            problems.append(f"req {outcome.index}: job {body.get('state')}")
        if status == "sat":
            from repro.core.boxes import Placement

            instance = self.stream.get(outcome.index)
            positions = [tuple(p) for p in answer.get("positions") or []]
            if len(positions) != instance.n or not certify_witness(
                Placement(instance, positions)
            ):
                problems.append(f"req {outcome.index}: witness not certified")
        return {"decided": status in ("sat", "unsat"), "fingerprint": status,
                "problems": problems}

    def check_pass(self, run: Pass) -> List[str]:
        """Every repeat's status equals its original's, and both equal a
        direct :func:`solve_opp` of the original (the one representative
        solved per repeated canonical form)."""
        from repro.core.opp import solve_opp

        statuses: Dict[int, Any] = {}
        for outcome in run.outcomes:
            if outcome.error is None:
                answer = (outcome.result.get("response") or {}).get("answer") or {}
                statuses[outcome.index] = answer.get("status")
        problems = []
        for index, status in sorted(statuses.items()):
            origin = self.stream.origin[index]
            if origin == index:
                continue  # originals are checked through their repeats
            if origin not in self._representatives:
                self._representatives[origin] = solve_opp(
                    self.stream.get(origin)
                ).status
            expected = self._representatives[origin]
            if status != expected or statuses.get(origin, status) != status:
                problems.append(
                    f"req {index}: {status}, original req {origin}: "
                    f"{statuses.get(origin)}, direct solve: {expected}"
                )
        return problems

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            shutil.rmtree(self.daemon.config.state_dir, ignore_errors=True)
            self.daemon = None


def make(name: str, seed: int, scratch: str) -> Any:
    """The workload called ``name`` (one of :data:`WORKLOADS`)."""
    if name == "service_mixed":
        return Service(name, seed, scratch)
    return InProcess(name, seed)
