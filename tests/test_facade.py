"""The unified entry point: ``repro.solve`` round-trips for every problem of
the paper, the common result protocol, the keyword-only signatures, the
run-level ``deadline``, and the public-API snapshot pinning
``repro.__all__``.
"""

import os
import subprocess
import sys
import time
import warnings

import pytest

import repro
from repro.core import Box, Container, PackingInstance, SolverOptions
from repro.core.bmp import minimize_base
from repro.core.deadline import Deadline
from repro.core.opp import solve_opp
from repro.core.pareto import pareto_front
from repro.core.spp import minimize_makespan
from repro.graphs import DiGraph


def boxes_of(widths):
    return [Box(w, name=f"b{i}") for i, w in enumerate(widths)]


def two_squares():
    """Two 2x2 modules of duration 1, the second depending on the first."""
    return boxes_of([(2, 2, 1), (2, 2, 1)]), DiGraph(2, [(0, 1)])


#: Eight boxes in a 4x5x6 container: satisfiable, but only after a few
#: hundred search nodes.
SEARCH_WIDTHS = [
    (4, 3, 4), (1, 1, 4), (4, 2, 1), (2, 2, 1),
    (3, 2, 2), (2, 1, 2), (2, 1, 4), (1, 4, 2),
]

PROTOCOL_ATTRS = ("status", "value", "stats", "faults", "trace")


def assert_protocol(result):
    for attr in PROTOCOL_ATTRS:
        assert hasattr(result, attr), f"result lacks .{attr}"
    assert isinstance(result.status, str)
    assert isinstance(result.faults, list)


class TestFacadeRoundTrips:
    """All six problems of the paper through one entry point."""

    def test_opp_feasat_finds(self):
        boxes, dag = two_squares()
        instance = PackingInstance(boxes, Container((2, 2, 2)), dag)
        result = repro.solve(instance, problem="opp")
        assert result.status == "sat"
        assert result.value is None
        assert_protocol(result)

    def test_opp_from_boxes_needs_container(self):
        boxes, dag = two_squares()
        result = repro.solve((boxes, dag), problem="opp", chip=(2, 2), time_bound=2)
        assert result.status == "sat"

    def test_bmp_mina_finds(self):
        boxes, dag = two_squares()
        result = repro.solve((boxes, dag), problem="bmp", time_bound=2)
        assert (result.status, result.value) == ("optimal", 2)
        assert result.stats["probes"] > 0
        assert_protocol(result)
        direct = minimize_base(boxes, dag, time_bound=2)
        assert direct.optimum == result.value

    def test_spp_mint_finds(self):
        boxes, dag = two_squares()
        result = repro.solve((boxes, dag), problem="spp", chip=(2, 2))
        assert (result.status, result.value) == ("optimal", 2)
        assert_protocol(result)
        direct = minimize_makespan(boxes, dag, chip=(2, 2))
        assert direct.optimum == result.value

    def test_area_free_aspect(self):
        boxes, dag = two_squares()
        result = repro.solve((boxes, dag), problem="area", time_bound=2)
        assert (result.status, result.value) == ("optimal", 4)
        assert_protocol(result)

    def test_pareto_front(self):
        boxes, dag = two_squares()
        result = repro.solve((boxes, dag), problem="pareto")
        assert result.status == "optimal"
        # Precedence forces the modules to run one after the other, so
        # latency 1 is infeasible and the whole front is the 2x2 chip.
        assert result.value == [(2, 2)]
        assert_protocol(result)
        # Dropping the dependencies exposes the (latency 1, side 4) corner.
        free = repro.solve((boxes, None), problem="pareto")
        assert (1, 4) in free.value and (2, 2) in free.value

    def test_fixed_feasible_feasa_fixeds(self):
        boxes, dag = two_squares()
        result = repro.solve(
            (boxes, dag), problem="fixed_feasible", starts=[0, 1], chip=(2, 2)
        )
        assert result.status == "sat"
        assert_protocol(result)

    def test_fixed_area_mina_fixeds(self):
        boxes, dag = two_squares()
        result = repro.solve((boxes, dag), problem="fixed_area", starts=[0, 1])
        assert (result.status, result.value) == ("optimal", 2)
        assert_protocol(result)

    def test_task_graph_instance(self):
        from repro.fpga import ModuleType, TaskGraph

        mul = ModuleType("MUL", width=2, height=2, duration=1)
        graph = TaskGraph("demo")
        a = graph.add_task("a", mul)
        b = graph.add_task("b", mul)
        graph.add_dependency(a, b)
        result = repro.solve(graph, problem="bmp", time_bound=2)
        assert (result.status, result.value) == ("optimal", 2)

    def test_bare_box_list(self):
        result = repro.solve(
            boxes_of([(1, 1, 1)]), problem="bmp", time_bound=1
        )
        assert (result.status, result.value) == ("optimal", 1)

    def test_portfolio_workers(self):
        boxes, dag = two_squares()
        instance = PackingInstance(boxes, Container((2, 2, 2)), dag)
        result = repro.solve(
            instance, problem="opp", workers=2, backend="thread"
        )
        assert result.status == "sat"
        assert_protocol(result)

    def test_telemetry_true_attaches_trace(self):
        boxes, dag = two_squares()
        result = repro.solve(
            (boxes, dag), problem="bmp", time_bound=2, telemetry=True
        )
        assert result.trace is not None
        assert result.trace.enabled
        assert "probe" in {s.name for s in result.trace.tracer.spans}


class TestProblemNames:
    def test_paper_aliases(self):
        boxes, dag = two_squares()
        for alias, expected in [
            ("FeasAT", "sat"),
            ("MinA", "optimal"),
            ("base", "optimal"),
            ("makespan", "optimal"),
            ("tradeoffs", "optimal"),
        ]:
            kwargs = {}
            if expected == "sat":
                instance = PackingInstance(boxes, Container((2, 2, 2)), dag)
            else:
                instance = (boxes, dag)
                if alias in ("MinA", "base"):
                    kwargs["time_bound"] = 2
                if alias == "makespan":
                    kwargs["chip"] = (2, 2)
            result = repro.solve(instance, problem=alias, **kwargs)
            assert result.status == expected, alias

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="unknown problem"):
            repro.solve(boxes_of([(1, 1, 1)]), problem="tsp")

    def test_bad_instance_rejected(self):
        with pytest.raises(TypeError, match="instance must be"):
            repro.solve(42, problem="bmp", time_bound=1)

    def test_spp_without_chip_rejected(self):
        with pytest.raises(ValueError, match="chip"):
            repro.solve(boxes_of([(1, 1, 1)]), problem="spp")

    def test_fixed_without_starts_rejected(self):
        with pytest.raises(ValueError, match="starts"):
            repro.solve(boxes_of([(1, 1, 1)]), problem="fixed_area")


class TestDeprecationShims:
    """The positional forms are gone: keyword calls stay silent, surplus
    positionals are a plain ``TypeError``."""

    def test_keyword_calls_do_not_warn(self):
        boxes, dag = two_squares()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            minimize_base(boxes, dag, time_bound=2)

    def test_too_many_positionals_is_a_type_error(self):
        instance = PackingInstance(boxes_of([(1, 1, 1)]), Container((1, 1, 1)))
        with pytest.raises(TypeError, match="positional"):
            solve_opp(instance, None, None, None, None, None, None)


@pytest.fixture
def tripping_deadline(monkeypatch):
    """A factory of deadlines that expire as the sweep's ``after``-th
    probe starts (one live deadline at a time)."""
    import repro.core.bmp as bmp_mod

    original = bmp_mod._ProbeRunner._solve_once
    state = {}

    def make(after):
        state.update(now=time.monotonic(), probes=0, after=after)
        return Deadline.after(10.0, margin=0.0, clock=lambda: state["now"])

    def tripping(self, instance, resume_from):
        state["probes"] += 1
        if state["probes"] == state["after"]:
            state["now"] += 100.0  # the deadline expires mid-sweep
        return original(self, instance, resume_from)

    monkeypatch.setattr(bmp_mod._ProbeRunner, "_solve_once", tripping)
    return make


class TestFacadeDeadline:
    """``repro.solve(deadline=...)`` degrades exactly like the driver it
    calls when the deadline trips mid-sweep."""

    def test_bmp_degrades_like_minimize_base(self, tripping_deadline):
        boxes = boxes_of([(3, 3, 1)] * 5)
        direct = minimize_base(
            boxes, time_bound=1, deadline=tripping_deadline(3)
        )
        facade = repro.solve(
            boxes, problem="bmp", time_bound=1, deadline=tripping_deadline(3)
        )
        assert direct.status == facade.status == "degraded"
        assert (facade.lower, facade.upper) == (direct.lower, direct.upper)
        assert facade.degraded == direct.degraded
        assert facade.placement.positions == direct.placement.positions

    def test_pareto_degrades_like_pareto_front(self, tripping_deadline):
        boxes = boxes_of([(3, 3, 1)] * 5)
        direct = pareto_front(boxes, deadline=tripping_deadline(4))
        facade = repro.solve(
            boxes, problem="pareto", deadline=tripping_deadline(4)
        )
        assert direct.status == facade.status == "degraded"
        assert facade.as_pairs() == direct.as_pairs()
        assert [r.status for r in facade.results] == [
            r.status for r in direct.results
        ]


class TestKernelFacade:
    """The ``kernel=`` shorthand on ``repro.solve``."""

    def test_every_registered_kernel_solves_every_problem(self):
        from repro.core import available_kernels

        boxes, dag = two_squares()
        instance = PackingInstance(boxes, Container((2, 2, 2)), dag)
        for kernel in available_kernels():
            assert repro.solve(instance, kernel=kernel).status == "sat"
            assert repro.solve(
                (boxes, dag), problem="bmp", time_bound=2, kernel=kernel
            ).value == 2
            assert repro.solve(
                (boxes, dag), problem="spp", chip=(2, 2), kernel=kernel
            ).value == 2
            assert repro.solve(
                (boxes, dag), problem="area", time_bound=2, kernel=kernel
            ).value == 4
            assert repro.solve(
                (boxes, dag), problem="pareto", kernel=kernel
            ).value == [(2, 2)]
            assert repro.solve(
                (boxes, dag), problem="fixed_feasible", starts=[0, 1],
                chip=(2, 2), kernel=kernel,
            ).status == "sat"
            assert repro.solve(
                (boxes, dag), problem="fixed_area", starts=[0, 1],
                kernel=kernel,
            ).value == 2

    def test_vector_alias_runs_bitmask(self):
        instance = PackingInstance(boxes_of(SEARCH_WIDTHS), Container((4, 5, 6)))
        options = SolverOptions(use_bounds=False, use_heuristics=False)
        runs = {
            kernel: repro.solve(instance, options=options, kernel=kernel)
            for kernel in ("bitmask", "vector")
        }
        assert runs["vector"].status == runs["bitmask"].status == "sat"
        assert runs["vector"].stats.nodes == runs["bitmask"].stats.nodes > 0

    def test_kernel_kwarg_overrides_options(self):
        boxes, dag = two_squares()
        instance = PackingInstance(boxes, Container((2, 2, 2)), dag)
        options = SolverOptions(kernel="bitmask")
        result = repro.solve(
            instance, options=options, kernel="reference", telemetry=True
        )
        assert result.status == "sat"
        # The original options object is untouched (replace, not mutate).
        assert options.kernel == "bitmask"

    def test_unknown_kernel_rejected_before_solving(self):
        from repro.core import UnknownKernelError

        with pytest.raises(UnknownKernelError, match="expected one of"):
            repro.solve(boxes_of([(1, 1, 1)]), problem="bmp",
                        time_bound=1, kernel="warp")

    def test_kernel_override_reaches_portfolio_entrants(self):
        boxes, dag = two_squares()
        instance = PackingInstance(boxes, Container((2, 2, 2)), dag)
        result = repro.solve(
            instance, workers=2, backend="thread", kernel="reference"
        )
        assert result.status == "sat"


class TestPublicApiSnapshot:
    def test_all_snapshot(self):
        assert repro.__all__ == [
            "solve",
            "PROBLEMS",
            "SolverOptions",
            "OPPResult",
            "ResultCache",
            "PortfolioSolver",
            "Telemetry",
            "Deadline",
            "BackoffPolicy",
            "ReproClient",
            "CircuitBreaker",
            "DeadlineExceeded",
            "BatchRunner",
            "run_batch",
            "certify_batch_dir",
            "certify_payload",
            "DistributedOptions",
            "DistributedResult",
            "solve_distributed",
            "resume_distributed",
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

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_problems_snapshot(self):
        assert repro.PROBLEMS == (
            "opp",
            "bmp",
            "spp",
            "area",
            "pareto",
            "fixed_feasible",
            "fixed_area",
        )

    def test_solve_signature_snapshot(self):
        import inspect

        params = inspect.signature(repro.solve).parameters
        assert list(params) == [
            "instance",
            "problem",
            "time_bound",
            "chip",
            "starts",
            "max_time",
            "max_side",
            "with_dependencies",
            "options",
            "kernel",
            "workers",
            "backend",
            "cache",
            "deadline",
            "telemetry",
        ]
        # Everything past ``problem`` is keyword-only.
        for name, param in params.items():
            if name in ("instance", "problem"):
                continue
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, name

    def test_core_kernel_surface_snapshot(self):
        from repro.core import kernels

        assert kernels.__all__ == [
            "EngineProtocol",
            "KernelFactory",
            "UnknownKernelError",
            "available",
            "available_kernels",
            "get",
            "get_kernel",
            "make_model",
            "register",
            "register_kernel",
            "resolve",
        ]
        for name in kernels.__all__:
            assert hasattr(kernels, name), name

    def test_parallel_all_snapshot(self):
        from repro import parallel

        assert parallel.__all__ == [
            "CacheStats",
            "ResultCache",
            "cache_key",
            "canonical_form",
            "NO_FAULTS",
            "FaultPlan",
            "corrupt_cache_entry",
            "plan_from_env",
            "resolve_plan",
            "PortfolioConfig",
            "PortfolioResult",
            "PortfolioSolver",
            "RetryPolicy",
            "default_portfolio",
        ]
        for name in parallel.__all__:
            assert hasattr(parallel, name), name

    def test_fpga_wrapper_keywords_snapshot(self):
        import inspect

        from repro import fpga

        def keywords(function):
            return [
                name
                for name, param in inspect.signature(function).parameters.items()
                if param.kind is inspect.Parameter.KEYWORD_ONLY
            ]

        sweep = ["options", "cache", "deadline", "telemetry"]
        assert {
            name: keywords(getattr(fpga, name))
            for name in (
                "place",
                "minimize_chip",
                "minimize_latency",
                "place_fixed_schedule",
                "minimize_chip_fixed_schedule",
                "explore_tradeoffs",
            )
        } == {
            "place": ["options", "cache", "telemetry"],
            "minimize_chip": sweep,
            "minimize_latency": sweep,
            "place_fixed_schedule": ["options", "telemetry"],
            "minimize_chip_fixed_schedule": ["options", "telemetry"],
            "explore_tradeoffs": ["with_dependencies", "max_time", *sweep],
        }


class TestNoThirdPartyRuntimeDependency:
    def test_import_and_solve_never_load_numpy(self):
        """``import repro`` plus one facade solve (bounds, heuristic grid,
        search kernel) must run on the standard library alone."""
        script = (
            "import sys\n"
            "import repro\n"
            "from repro.core import make_instance\n"
            "inst = make_instance([(2, 2, 2), (2, 2, 2)], (4, 4, 4),\n"
            "                     precedence_arcs=[(0, 1)])\n"
            "assert repro.solve(inst).status == 'sat'\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
