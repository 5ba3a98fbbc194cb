"""Command-line interface: ``python -m repro`` or the ``repro-fpga`` script.

Subcommands regenerate the paper's experiments and solve user instances:

* ``report`` — the paper's evaluation (Table 1, Figure 7, Table 2) plus the
  free-aspect extension, in one record;
* ``solve``  — decide a JSON packing instance (see ``repro.io.serialize``);
* ``demo``   — a small end-to-end placement with ASCII output;
* ``bmp``    — minimal square chip for a task-graph JSON + deadline;
* ``spp``    — minimal latency for a task-graph JSON + chip;
* ``area``   — minimal free-aspect chip for a task-graph JSON + deadline;
* ``pareto`` — Pareto front for a task-graph JSON;
* ``svg``    — render a Gantt chart / floorplans for a design point;
* ``batch``  — crash-safe batch solving over a manifest (``--resume``
  continues an interrupted batch from its journal; see docs/robustness.md);
* ``dsolve`` — distributed decision of one instance over leased subtrees;
* ``serve``  — the solver-as-a-service daemon (see docs/service.md);
* ``certify`` — independently re-audit a batch directory's results.

``solve``, ``bmp``, ``spp``, ``area``, ``pareto`` and ``svg`` answer
through :func:`repro.solve` with one shared set of flags, and keep only
their own printing; ``report`` and ``demo`` ask their fixed questions
through it too.

Task-graph JSON files follow :func:`repro.io.serialize.task_graph_to_dict`;
the built-in benchmarks are available as ``@de``, ``@codec``, ``@fir<N>``
and ``@fft<N>`` (e.g. ``repro-fpga bmp @de --time 14``).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import List, Optional

from .api import solve
from .core.deadline import DEADLINE_LIMIT, Deadline
from .core.kernels import (
    UnknownKernelError,
    available as available_kernels,
    resolve as resolve_kernel,
)
from .core.opp import SolverOptions
from .fpga import Chip, ReconfigurationSchedule, square_chip
from .instances.de import TABLE_1, de_task_graph
from .instances.video_codec import TABLE_2, codec_task_graph
from .io.report import format_table, pareto_report, table1_report
from .io.serialize import instance_from_dict, loads, task_graph_from_dict
from .telemetry import Telemetry

# Exit codes: conclusive answers are distinguishable by code alone, so
# scripts can branch on feasibility without parsing stdout.  ``unknown``
# (budget exhausted) is distinct from ``unsat``/``infeasible`` — the two
# previously shared an exit code, which made retry logic impossible.
# Usage/input errors (malformed or missing JSON, unknown builtin graph)
# exit with their own code and a one-line stderr message, so batch drivers
# can tell "your input is bad" (4, do not retry) from "the solver gave up"
# (3, retry with a bigger budget) and from internal errors (1, report).
# A graceful shutdown (SIGINT/SIGTERM) exits 5 after cancelling entrants
# and flushing the journal and telemetry: "interrupted, resumable" is
# distinct from every answer and every error.  A ``--deadline`` that
# expired mid-solve exits 6: the printed answer is real (a certified
# incumbent and/or proven bounds) but explicitly degraded — "take what
# you got" (6) is different from "nothing was proven" (3).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSAT = 2
EXIT_UNKNOWN = 3
EXIT_INPUT = 4
EXIT_INTERRUPTED = 5
EXIT_DEADLINE = 6


class _InputError(Exception):
    """A problem with the user's input (file, JSON shape, graph spec)."""


_STATUS_EXIT_CODES = {
    "sat": EXIT_OK,
    "optimal": EXIT_OK,
    "unsat": EXIT_UNSAT,
    "infeasible": EXIT_UNSAT,
    "unknown": EXIT_UNKNOWN,
    "degraded": EXIT_DEADLINE,
}


def exit_code_for_status(status: str) -> int:
    """Map a solver/optimizer status to the CLI exit code."""
    return _STATUS_EXIT_CODES.get(status, EXIT_ERROR)


def _deadline(args: argparse.Namespace) -> Optional[Deadline]:
    """The invocation's end-to-end :class:`Deadline` (``--deadline SEC``),
    born here — every layer underneath shares this one object."""
    if args.deadline is None:
        return None
    with _bad_option():
        return Deadline.after(args.deadline)


def _deadline_degraded(result: object) -> bool:
    """Did the end-to-end deadline degrade this answer?"""
    if getattr(result, "status", None) == "degraded":
        return True
    marker = getattr(result, "degraded", None)
    if isinstance(marker, dict) and marker.get("reason") == DEADLINE_LIMIT:
        return True
    stats = getattr(result, "stats", None)
    return getattr(stats, "limit", None) == DEADLINE_LIMIT


def _finish(result: object) -> int:
    """Exit code for a result, with the one-line degradation note on
    stderr when ``--deadline`` cut the run short."""
    if _deadline_degraded(result):
        print(
            "note: --deadline expired; reporting the best certified "
            "answer and bounds proven so far (exit 6)",
            file=sys.stderr,
        )
        return EXIT_DEADLINE
    return exit_code_for_status(getattr(result, "status", "error"))


@contextmanager
def _bad_option():
    """Turn a bad option value into an input error (exit 4).  Wraps only
    the building of options: a ``ValueError`` from inside a solve is a bug
    and must stay one (exit 1)."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise _InputError(str(exc)) from exc


def _make_cache(args: argparse.Namespace):
    """A disk-backed verdict cache when ``--cache DIR`` was given."""
    if args.cache is None:
        return None
    from .parallel import ResultCache

    with _bad_option():
        cache = ResultCache(disk_path=args.cache)
    return cache.instrument(args.telemetry)


def _chip(args: argparse.Namespace) -> Chip:
    """``--width`` x ``--height`` (square when the height is omitted)."""
    with _bad_option():
        return Chip(args.width, args.height or args.width)


def _solve(args: argparse.Namespace, instance, problem: str, **keywords):
    """Answer one question of a solver command through :func:`repro.solve`:
    the shared flags become its keywords, and ``keywords`` carries the
    problem's own (``time_bound``, ``chip``, …)."""
    with _bad_option():
        options = SolverOptions(time_limit=args.time_limit)
    return solve(
        instance,
        problem,
        options=options,
        kernel=args.kernel,
        learning=args.learning,
        workers=args.workers,
        cache=_make_cache(args),
        deadline=_deadline(args),
        telemetry=args.telemetry,
        **keywords,
    )


def _load_input(path: str, parse, what: str):
    """Read + parse a user-supplied JSON file, folding every way it can be
    bad — missing file, unreadable bytes, invalid JSON, wrong shape — into
    one :class:`_InputError` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _InputError(f"cannot read {what} {path!r}: {exc}") from exc
    try:
        return parse(loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        raise _InputError(f"malformed {what} {path!r}: {exc}") from exc


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_input(args.instance, instance_from_dict, "instance file")
    result = _solve(args, instance, "opp")
    if args.workers and args.workers > 1:
        print(
            f"status: {result.status} (stage: {result.stage}, "
            f"winner: {result.winner}, backend: {result.backend}, "
            f"nodes: {result.stats.nodes}, {result.elapsed:.3f}s)"
        )
    else:
        print(f"status: {result.status} (stage: {result.stage})")
    if result.certificate:
        print(f"certificate: {result.certificate}")
    for fault in result.faults:
        who = f" [{fault.entrant}]" if fault.entrant else ""
        print(f"fault: {fault.kind}{who}: {fault.detail}")
    if result.status == "unknown" and result.stats.limit:
        print(f"reason: {result.stats.limit}")
    if result.placement is not None:
        for i, pos in enumerate(result.placement.positions):
            print(f"  {instance.boxes[i]}: anchor {pos}")
    return _finish(result)


def _cmd_dsolve(args: argparse.Namespace) -> int:
    """Distributed decision of one instance (see :mod:`repro.distributed`).

    The tree is split into leased subtrees solved by worker processes;
    claims pass a certification gate and merge deterministically.  A run
    with ``--out`` journals every lease transition and can come back from
    a coordinator kill via ``--resume``.
    """
    from .distributed import (
        DistributedOptions,
        DistributedSolver,
        solve_distributed,
    )

    deadline = _deadline(args)
    if args.resume:
        if args.out is None:
            raise _InputError("--resume needs --out DIR (the run directory)")
        with _bad_option():
            options = DistributedOptions(
                workers=args.workers,
                backend=args.backend,
                lease_duration=args.lease_duration,
                heartbeat_interval=args.heartbeat_interval,
                reissue_budget=args.reissue_budget,
                deterministic=args.deterministic,
                deadline=deadline,
            )
        try:
            result = DistributedSolver.resume(
                args.out, options, telemetry=args.telemetry
            )
        except (ValueError, OSError) as exc:
            raise _InputError(f"cannot resume {args.out!r}: {exc}") from exc
    else:
        if args.instance is None:
            raise _InputError("an instance file is required (or --resume)")
        instance = _load_input(
            args.instance, instance_from_dict, "instance file"
        )
        with _bad_option():
            options = DistributedOptions(
                workers=args.workers,
                backend=args.backend,
                target_tasks=args.target_tasks,
                lease_duration=args.lease_duration,
                heartbeat_interval=args.heartbeat_interval,
                reissue_budget=args.reissue_budget,
                deterministic=args.deterministic,
                recheck_unsat=args.recheck_unsat,
                run_dir=args.out,
                solver=SolverOptions(
                    time_limit=args.time_limit,
                    kernel=args.kernel,
                    learning=args.learning,
                ),
                share_nogoods=args.learning,
                deadline=deadline,
            )
        result = solve_distributed(
            instance, options, telemetry=args.telemetry
        )
    print(
        f"status: {result.status} (stage: {result.stage}, "
        f"tasks: {result.tasks}, completed: {result.completed}, "
        f"cancelled: {result.cancelled}, abandoned: {result.abandoned})"
    )
    print(
        f"leases: {result.leases}, reissues: {result.reissues}, "
        f"stale claims: {result.stale_claims}, "
        f"refuted claims: {result.refuted_claims}, "
        f"wasted nodes: {result.wasted_nodes}"
    )
    if result.canonical:
        print("merge: canonical (deterministic prefix-ordered fold)")
    for fault in result.faults:
        who = f" [{fault.entrant}]" if fault.entrant else ""
        print(f"fault: {fault.kind}{who}: {fault.detail}")
    if result.status == "unknown" and result.stats.limit:
        print(f"reason: {result.stats.limit}")
    if result.placement is not None:
        for i, pos in enumerate(result.placement.positions):
            print(f"  box {i}: anchor {pos}")
    return _finish(result)


def _cmd_report(args: argparse.Namespace) -> int:
    """Run the complete reproduction and print one consolidated record."""
    telemetry = args.telemetry
    de = de_task_graph()
    print("=" * 72)
    print("Reproduction report — Fekete/Köhler/Teich, DATE 2001")
    print("=" * 72)
    print()
    print("Table 1 — DE benchmark, minimal square chip per deadline (MinA&FindS)")
    results = [
        (time_bound, solve(de, "bmp", time_bound=time_bound, telemetry=telemetry))
        for time_bound in sorted(TABLE_1)
    ]
    print(table1_report(results, TABLE_1))
    print()
    print("Figure 7 — DE benchmark, area/latency trade-off")
    with_prec = solve(de, "pareto", telemetry=telemetry)
    print(pareto_report(with_prec, "with precedence constraints, solid"))
    print()
    without_prec = solve(
        de, "pareto", with_dependencies=False, telemetry=telemetry
    )
    print(pareto_report(without_prec, "without precedence constraints, dashed"))
    print()
    codec = codec_task_graph()
    latency = solve(codec, "spp", chip=(64, 64), telemetry=telemetry)
    smaller = solve(
        codec,
        "opp",
        chip=(63, 63),
        time_bound=TABLE_2["latency"] * 4,
        telemetry=telemetry,
    )
    print("Table 2 — video codec (H.261), minimal latency on the smallest chip")
    print(
        format_table(
            ["chip", "h_t (ours)", "CPU (ours)", "h_t (paper)", "CPU (paper)"],
            [
                [
                    "64x64",
                    latency.optimum,
                    f"{latency.total_seconds:.3f}s",
                    TABLE_2["latency"],
                    f"{TABLE_2['paper_cpu_seconds']}s",
                ]
            ],
        )
    )
    print(f"chips below 64x64: {smaller.status} ({smaller.certificate})")
    print()
    print("Extensions (beyond the paper)")
    print("-" * 29)
    area = solve(de, "area", time_bound=6, telemetry=telemetry)
    print(
        f"free-aspect DE chip at h_t=6: {area.width}x{area.height} "
        f"({area.area} cells vs 1024 for the square optimum; "
        f"{area.total_seconds:.2f}s)"
    )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    graph = de_task_graph()
    chip = square_chip(32)
    result = solve(graph, "opp", chip=chip, time_bound=6, telemetry=args.telemetry)
    if result.status != "sat" or result.placement is None:
        print("demo placement unexpectedly failed", file=sys.stderr)
        return 1
    schedule = ReconfigurationSchedule.from_placement(graph, chip, result.placement)
    print(schedule)
    print()
    print(schedule.table())
    print()
    print(schedule.gantt())
    print()
    print(schedule.floorplan(0, max_cells=32))
    return 0


def _load_graph(spec: str):
    """Load a task graph from a JSON file or a ``@name`` builtin."""
    if spec.startswith("@"):
        name = spec[1:]
        if name == "de":
            return de_task_graph()
        if name == "codec":
            return codec_task_graph()
        try:
            if name.startswith("fir"):
                from .instances.dsp import fir_filter_task_graph

                return fir_filter_task_graph(int(name[3:]))
            if name.startswith("fft"):
                from .instances.dsp import fft_task_graph

                return fft_task_graph(int(name[3:]))
        except ValueError as exc:
            raise _InputError(f"bad builtin graph size {spec!r}: {exc}") from exc
        raise _InputError(
            f"unknown builtin graph {spec!r} "
            "(available: @de, @codec, @fir<N>, @fft<N>)"
        )
    return _load_input(spec, task_graph_from_dict, "task-graph file")


def _cmd_bmp(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    result = _solve(args, graph, "bmp", time_bound=args.time)
    print(f"{graph}: deadline {args.time}")
    if result.status != "optimal":
        print(f"status: {result.status}")
        if result.status == "degraded" and result.placement is not None:
            print(
                f"incumbent chip: {result.upper}x{result.upper}"
                f" (proven bounds [{result.lower}, {result.upper}])"
            )
        return _finish(result)
    print(f"minimal square chip: {result.optimum}x{result.optimum}")
    if args.show_schedule and result.placement is not None:
        schedule = ReconfigurationSchedule.from_placement(
            graph, square_chip(result.optimum), result.placement
        )
        print(schedule.table())
    return EXIT_OK


def _cmd_spp(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    chip = _chip(args)
    result = _solve(args, graph, "spp", chip=chip)
    print(f"{graph}: chip {chip}")
    if result.status != "optimal":
        print(f"status: {result.status}")
        if result.status == "degraded":
            print(
                f"incumbent latency: {result.upper} cycles "
                f"(proven bounds [{result.lower}, {result.upper}])"
            )
        return _finish(result)
    print(f"minimal latency: {result.optimum} cycles")
    if args.show_schedule and result.placement is not None:
        schedule = ReconfigurationSchedule.from_placement(
            graph, chip, result.placement
        )
        print(schedule.gantt())
    return EXIT_OK


def _cmd_area(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    result = _solve(args, graph, "area", time_bound=args.time)
    print(f"{graph}: deadline {args.time}")
    if result.status != "optimal":
        print(f"status: {result.status}")
        if result.status == "degraded" and result.width is not None:
            print(
                f"incumbent chip: {result.width}x{result.height} "
                f"({result.area} cells, not proven minimal)"
            )
        return _finish(result)
    print(
        f"minimal chip: {result.width}x{result.height} "
        f"({result.area} cells)"
    )
    return EXIT_OK


def _cmd_pareto(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    front = _solve(
        args,
        graph,
        "pareto",
        with_dependencies=not args.ignore_dependencies,
    )
    print(pareto_report(front, str(graph)))
    if front.status == "degraded":
        print(
            "note: --deadline expired mid-sweep; the front above is an "
            "exact prefix, not the complete curve (exit 6)",
            file=sys.stderr,
        )
        return EXIT_DEADLINE
    return EXIT_OK


def _cmd_svg(args: argparse.Namespace) -> int:
    from .io.svg import schedule_floorplan_svg, schedule_gantt_svg

    graph = _load_graph(args.graph)
    chip = _chip(args)
    result = _solve(args, graph, "opp", chip=chip, time_bound=args.time)
    if result.status != "sat" or result.placement is None:
        print(f"status: {result.status} ({result.certificate})")
        return _finish(result)
    schedule = ReconfigurationSchedule.from_placement(
        graph, chip, result.placement
    )
    gantt_path = f"{args.output}_gantt.svg"
    floorplan_path = f"{args.output}_floorplan.svg"
    with open(gantt_path, "w", encoding="utf-8") as handle:
        handle.write(schedule_gantt_svg(schedule))
    with open(floorplan_path, "w", encoding="utf-8") as handle:
        handle.write(schedule_floorplan_svg(schedule))
    print(f"wrote {gantt_path} and {floorplan_path}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Crash-safe batch solving (see :mod:`repro.runtime`).

    SIGINT/SIGTERM are handled cooperatively for the duration: the first
    signal cancels in-flight entrants, flushes the journal (checkpointing
    the interrupted solve) and telemetry, and exits
    :data:`EXIT_INTERRUPTED`; ``--resume`` later continues the batch.
    """
    import signal
    import threading

    from .runtime import BatchRunner, ManifestError, load_manifest

    if args.resume and args.manifest is not None:
        raise _InputError("--resume continues the journal; drop the manifest")
    if not args.resume and args.manifest is None:
        raise _InputError("a manifest is required (or pass --resume)")

    stop = threading.Event()

    def _graceful(signum, frame):  # noqa: ARG001 (signal handler shape)
        stop.set()

    deadline = _deadline(args)
    with _bad_option():
        runner = BatchRunner(
            args.out,
            options=SolverOptions(
                kernel=args.kernel, learning=args.learning, deadline=deadline
            ),
            workers=args.workers,
            cache=_make_cache(args),
            time_limit=args.instance_time_limit,
            memory_limit_mb=args.memory_limit_mb,
            checkpoint_interval=args.checkpoint_interval,
            certify=not args.no_certify,
            recheck_nodes=args.recheck_nodes,
            telemetry=args.telemetry,
            stop_event=stop,
        )
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _graceful)
        except (ValueError, OSError):  # non-main thread / exotic platform
            pass
    try:
        if args.resume:
            try:
                result = runner.resume()
            except (ValueError, OSError) as exc:
                raise _InputError(f"cannot resume {args.out!r}: {exc}") from exc
        else:
            try:
                entries = load_manifest(args.manifest)
            except ManifestError as exc:
                raise _InputError(str(exc)) from exc
            try:
                result = runner.run(entries)
            except ValueError as exc:
                raise _InputError(str(exc)) from exc
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    for outcome in sorted(result.outcomes.values(), key=lambda o: o.instance_id):
        line = f"{outcome.instance_id}: {outcome.kind}"
        if outcome.kind == "done":
            line += f" ({outcome.status}"
            if outcome.certification is not None:
                line += f", certification: {outcome.certification['verdict']}"
            line += ")"
        elif outcome.detail:
            line += f" ({outcome.detail})"
        if outcome.replayed:
            line += " [journal]"
        print(line)
    print(
        f"batch: {result.count('done')} done, "
        f"{result.count('failed')} failed, "
        f"{result.count('timed-out')} timed out, "
        f"{result.count('memory-limited')} memory-limited, "
        f"{result.count('quarantined')} quarantined"
        + (" — INTERRUPTED (resume with --resume)" if result.interrupted else "")
    )
    if result.interrupted:
        return EXIT_INTERRUPTED
    if result.count("quarantined") or result.count("failed"):
        return EXIT_ERROR
    if deadline is not None and deadline.expired():
        print(
            "note: --deadline expired; instances reached before it are "
            "exact, later ones degraded to unknown (exit 6)",
            file=sys.stderr,
        )
        return EXIT_DEADLINE
    if result.count("timed-out") or result.count("memory-limited"):
        return EXIT_UNKNOWN
    return EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    """Independently re-audit a batch directory (see :mod:`repro.certify`)."""
    from .certify import certify_batch_dir
    from .io.journal import JOURNAL_NAME

    if not os.path.exists(os.path.join(args.batch_dir, JOURNAL_NAME)):
        raise _InputError(
            f"{args.batch_dir!r} holds no {JOURNAL_NAME} (not a batch dir?)"
        )
    audit = certify_batch_dir(
        args.batch_dir,
        recheck=not args.no_recheck,
        recheck_nodes=args.budget_nodes,
        recheck_time_limit=args.time_limit,
    )
    for instance_id in sorted(audit.verdicts):
        verdict = audit.verdicts[instance_id]
        line = f"{instance_id}: {verdict.verdict} ({verdict.method})"
        if verdict.reason:
            line += f" — {verdict.reason}"
        print(line)
        for violation in verdict.violations:
            print(f"  violation: {violation}")
    for instance_id in sorted(audit.skipped):
        print(f"{instance_id}: skipped (no certificate in journal)")
    print(
        f"certified {len(audit.certified)}, refuted {len(audit.refuted)}, "
        f"inconclusive {len(audit.inconclusive)}, skipped {len(audit.skipped)}"
    )
    return EXIT_ERROR if audit.refuted else EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the solver-as-a-service daemon (see :mod:`repro.service`).

    SIGINT/SIGTERM shut the daemon down gracefully: in-flight jobs are
    journaled as interrupted and ``--resume`` later re-runs them; exits
    :data:`EXIT_OK` when every accepted job reached a terminal state,
    :data:`EXIT_INTERRUPTED` otherwise.
    """
    from .service import ServiceConfig, run_service

    with _bad_option():
        if args.cache is not None:
            os.makedirs(args.cache, exist_ok=True)
        config = ServiceConfig(
            state_dir=args.dir,
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_capacity=args.queue_capacity,
            concurrency=args.max_concurrency,
            tenant_seconds=args.tenant_seconds,
            tenant_nodes=args.tenant_nodes,
            cache_dir=args.cache,
            time_limit=args.time_limit,
            checkpoint_interval=args.checkpoint_interval,
            fsync=args.fsync,
            resume=args.resume,
        )
    try:
        return run_service(config)
    except ValueError as exc:
        # e.g. a state dir whose journal already holds jobs without --resume
        raise _InputError(str(exc)) from exc


def _kernel_arg(name: str) -> str:
    """``--kernel`` values: a registered kernel name or alias, resolved."""
    try:
        return resolve_kernel(name)
    except UnknownKernelError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    kernel_names = "{" + ",".join(available_kernels()) + "}"
    parser = argparse.ArgumentParser(
        prog="repro-fpga",
        description=(
            "Optimal FPGA module placement with temporal precedence "
            "constraints (Fekete-Koehler-Teich, DATE 2001)"
        ),
    )
    # Observability flags shared by EVERY subcommand: --trace writes the
    # whole invocation's span tree as JSON-Lines, --metrics prints a human
    # summary (nodes, prunes, cache hit rate, probe timings) at the end.
    observe = argparse.ArgumentParser(add_help=False)
    observe.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSON-Lines span trace of this invocation to PATH",
    )
    observe.add_argument(
        "--metrics", action="store_true",
        help="print a telemetry summary (nodes, prunes, cache, probes) "
        "after the command finishes",
    )

    # Search flags, shared by every command that runs the search.
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument(
        "--kernel", type=_kernel_arg, metavar=kernel_names,
        default="bitmask",
        help="search kernel from the registry (default: bitmask; see "
        "docs/performance.md)",
    )
    search.add_argument(
        "--learning", action=argparse.BooleanOptionalAction, default=False,
        help="conflict learning in the search: nogood recording, Luby "
        "restarts, conflict-guided branching (see docs/performance.md)",
    )
    # Flags of the commands that answer through repro.solve.
    facade = argparse.ArgumentParser(add_help=False)
    facade.add_argument(
        "--time-limit", type=float, default=None, metavar="SEC",
        help="per-decision cap: seconds each OPP decision may search "
        "before it answers unknown (exit 3)",
    )
    facade.add_argument(
        "--deadline", type=float, default=None, metavar="SEC",
        help="wall-clock deadline for the whole invocation, across all "
        "probes of a sweep; when it expires the answer degrades to the "
        "certified incumbent plus proven bounds (exit 6)",
    )
    facade.add_argument(
        "--workers", type=int, default=None,
        help="race a portfolio of solver configurations on N workers "
        "for every OPP decision",
    )
    facade.add_argument(
        "--cache", default=None, metavar="DIR",
        help="directory for the on-disk verdict cache (created if "
        "missing); repeated runs reuse conclusive verdicts",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    solve_cmd = sub.add_parser(
        "solve", help="decide a JSON packing instance",
        parents=[observe, search, facade],
    )
    solve_cmd.add_argument("instance", help="path to a JSON instance file")
    sub.add_parser(
        "demo", help="small end-to-end placement demo", parents=[observe]
    )
    sub.add_parser(
        "report",
        help="reproduce the paper's Table 1, Figure 7 and Table 2 in one record",
        parents=[observe],
    )

    def graph_command(name: str, help_text: str):
        cmd = sub.add_parser(
            name, help=help_text, parents=[observe, search, facade]
        )
        cmd.add_argument(
            "graph", help="task-graph JSON path or a builtin (@de, @codec, @fir8, @fft8)"
        )
        return cmd

    bmp = graph_command("bmp", "minimal square chip for a deadline (MinA&FindS)")
    bmp.add_argument("--time", type=int, required=True, help="latency bound h_t")
    bmp.add_argument("--show-schedule", action="store_true")

    spp = graph_command("spp", "minimal latency on a chip (MinT&FindS)")
    spp.add_argument("--width", type=int, required=True, help="chip width")
    spp.add_argument("--height", type=int, default=None, help="chip height (default: square)")
    spp.add_argument("--show-schedule", action="store_true")

    area = graph_command("area", "minimal free-aspect chip for a deadline")
    area.add_argument("--time", type=int, required=True, help="latency bound h_t")

    pareto = graph_command("pareto", "chip-size/latency Pareto front")
    pareto.add_argument(
        "--ignore-dependencies", action="store_true",
        help="drop the precedence constraints (Fig. 7's dashed curve)",
    )

    svg = graph_command("svg", "render SVG Gantt chart + floorplans")
    svg.add_argument("--width", type=int, required=True)
    svg.add_argument("--height", type=int, default=None)
    svg.add_argument("--time", type=int, required=True)
    svg.add_argument("--output", default="schedule", help="output file prefix")

    batch = sub.add_parser(
        "batch",
        help="crash-safe batch solving with a durable journal "
        "(docs/robustness.md)",
        parents=[observe, search],
    )
    batch.add_argument(
        "manifest", nargs="?", default=None,
        help="instance manifest: a JSON list, a JSONL stream, or a "
        "directory of instance files (omit with --resume)",
    )
    batch.add_argument(
        "--out", required=True, metavar="DIR",
        help="batch directory (journal.jsonl, incidents.jsonl)",
    )
    batch.add_argument(
        "--resume", action="store_true",
        help="continue the interrupted batch recorded in --out (skips "
        "completed instances, resumes in-flight ones from checkpoints)",
    )
    batch.add_argument(
        "--time-limit", dest="instance_time_limit", type=float, default=None,
        metavar="SEC", help="per-instance wall-clock watchdog",
    )
    batch.add_argument(
        "--deadline", type=float, default=None, metavar="SEC",
        help="end-to-end deadline for the whole batch; instances reached "
        "after it expires degrade to unknown (exit 6)",
    )
    batch.add_argument(
        "--memory-limit-mb", type=float, default=None, metavar="MB",
        help="per-instance process-RSS watchdog",
    )
    batch.add_argument(
        "--checkpoint-interval", type=float, default=5.0, metavar="SEC",
        help="solve in slices of this length, journaling a resumable "
        "checkpoint between slices (default: 5s)",
    )
    batch.add_argument(
        "--workers", type=int, default=None,
        help="race the solver portfolio on N workers per instance",
    )
    batch.add_argument(
        "--no-certify", action="store_true",
        help="skip inline certification of results (certify later with "
        "the certify subcommand)",
    )
    batch.add_argument(
        "--recheck-nodes", type=int, default=200_000, metavar="N",
        help="node budget for reference-kernel rechecks of UNSAT claims",
    )
    batch.add_argument(
        "--cache", default=None, metavar="DIR",
        help="directory for the on-disk verdict cache (created if missing)",
    )

    dsolve = sub.add_parser(
        "dsolve",
        help="distributed decision of one instance: leased subtrees, "
        "certified claims, deterministic merge (docs/robustness.md)",
        parents=[observe, search],
    )
    dsolve.add_argument(
        "instance", nargs="?", default=None,
        help="path to a JSON instance file (omit with --resume)",
    )
    dsolve.add_argument(
        "--workers", type=int, default=2,
        help="worker processes sharing the search tree (default: 2)",
    )
    dsolve.add_argument(
        "--backend", choices=("process", "inline"), default="process",
        help="'process' runs real workers; 'inline' simulates the full "
        "protocol in one process (deterministic tests, debugging)",
    )
    dsolve.add_argument(
        "--out", default=None, metavar="DIR",
        help="run directory for the durable queue journal "
        "(queue.jsonl, incidents.jsonl); required for --resume",
    )
    dsolve.add_argument(
        "--resume", action="store_true",
        help="continue a crashed run from the journal in --out (orphaned "
        "leases are fenced; nothing is lost or double-counted)",
    )
    dsolve.add_argument(
        "--target-tasks", type=int, default=32, metavar="N",
        help="subtrees the splitter aims for (a split-topology parameter: "
        "keep it fixed to keep merged stats worker-count-independent)",
    )
    dsolve.add_argument(
        "--lease-duration", type=float, default=5.0, metavar="SEC",
        help="heartbeat deadline before a subtree lease is reissued",
    )
    dsolve.add_argument(
        "--heartbeat-interval", type=float, default=0.5, metavar="SEC",
        help="worker heartbeat cadence (must be below the lease duration)",
    )
    dsolve.add_argument(
        "--reissue-budget", type=int, default=3, metavar="N",
        help="reissues per subtree before it is abandoned (explicit "
        "unknown instead of an infinite retry loop)",
    )
    dsolve.add_argument(
        "--deterministic", action=argparse.BooleanOptionalAction,
        default=True,
        help="wait for every subtree ordered before the first SAT so the "
        "answer and merged stats are reproducible (default on)",
    )
    dsolve.add_argument(
        "--recheck-unsat", action="store_true",
        help="re-search UNSAT subtree claims on the reference kernel "
        "before accepting them",
    )
    dsolve.add_argument(
        "--deadline", type=float, default=None, metavar="SEC",
        help="end-to-end deadline: clips lease durations and abandons "
        "remaining subtrees when it expires (exit 6, reason 'deadline')",
    )
    dsolve.add_argument(
        "--time-limit", type=float, default=None,
        help="per-subtree seconds before a worker gives up",
    )

    serve = sub.add_parser(
        "serve",
        help="run the async multi-tenant solver service daemon "
        "(docs/service.md)",
        parents=[observe],
    )
    serve.add_argument(
        "--dir", required=True, metavar="DIR",
        help="service state directory (service.jsonl journal, per-job "
        "batch directories); pass the same DIR with --resume after a "
        "crash to replay finished jobs and re-run in-flight ones",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: loopback only)",
    )
    serve.add_argument(
        "--port", type=int, default=8765,
        help="TCP port; 0 asks the OS for a free one (printed on stdout)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="continue from DIR's journal: terminal jobs re-report their "
        "recorded responses verbatim, interrupted jobs run again",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="solver threads executing admitted jobs (default: 2)",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=64, metavar="N",
        help="admitted-but-unfinished jobs allowed before new submissions "
        "get 429 queue-full (default: 64)",
    )
    serve.add_argument(
        "--max-concurrency", type=int, default=None, metavar="N",
        help="jobs solving at once (default: --workers)",
    )
    serve.add_argument(
        "--tenant-seconds", type=float, default=None, metavar="SEC",
        help="per-tenant wall-clock budget; exhausted tenants get 429 "
        "budget-exhausted (default: unlimited)",
    )
    serve.add_argument(
        "--tenant-nodes", type=int, default=None, metavar="N",
        help="per-tenant search-node budget (default: unlimited)",
    )
    serve.add_argument(
        "--cache", default=None, metavar="DIR",
        help="directory for the shared on-disk verdict cache (isomorphic "
        "instances across tenants cost one solve)",
    )
    serve.add_argument(
        "--time-limit", type=float, default=None, metavar="SEC",
        help="server-side cap on any request's per-solve time limit",
    )
    serve.add_argument(
        "--checkpoint-interval", type=float, default=1.0, metavar="SEC",
        help="batch jobs checkpoint at this cadence (default: 1s)",
    )
    serve.add_argument(
        "--fsync", action=argparse.BooleanOptionalAction, default=True,
        help="fsync the service journal on every record (default on; "
        "--no-fsync trades durability for test speed)",
    )

    certify = sub.add_parser(
        "certify",
        help="independently re-audit a batch directory's results",
        parents=[observe],
    )
    certify.add_argument("batch_dir", help="a directory written by batch")
    certify.add_argument(
        "--budget-nodes", type=int, default=200_000, metavar="N",
        help="node budget for reference-kernel rechecks of UNSAT claims",
    )
    certify.add_argument(
        "--time-limit", type=float, default=None, metavar="SEC",
        help="wall-clock cap per UNSAT recheck",
    )
    certify.add_argument(
        "--no-recheck", action="store_true",
        help="only run the standalone placement checker; report UNSAT "
        "claims as inconclusive instead of rechecking them",
    )
    return parser


def _install_sigterm_as_interrupt() -> Optional[object]:
    """Make SIGTERM interrupt non-batch commands like Ctrl-C does, so every
    subcommand flushes telemetry and exits :data:`EXIT_INTERRUPTED` instead
    of dying mid-write.  (The batch command replaces this with its own
    cooperative handler for the duration of the run.)  Returns the previous
    handler, or ``None`` when handlers cannot be installed here."""
    import signal

    def _interrupt(signum, frame):  # noqa: ARG001 (signal handler shape)
        raise KeyboardInterrupt

    try:
        return signal.signal(signal.SIGTERM, _interrupt)
    except (ValueError, OSError):  # non-main thread / exotic platform
        return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # One Telemetry instance spans the whole invocation (all probes of a
    # sweep, all portfolio entrants); handlers read it via args.telemetry.
    args.telemetry = (
        Telemetry()
        if (getattr(args, "trace", None) or getattr(args, "metrics", False))
        else None
    )
    handlers = {
        "solve": _cmd_solve,
        "demo": _cmd_demo,
        "report": _cmd_report,
        "bmp": _cmd_bmp,
        "spp": _cmd_spp,
        "area": _cmd_area,
        "pareto": _cmd_pareto,
        "svg": _cmd_svg,
        "batch": _cmd_batch,
        "dsolve": _cmd_dsolve,
        "certify": _cmd_certify,
        "serve": _cmd_serve,
    }
    _install_sigterm_as_interrupt()
    try:
        code = handlers[args.command](args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    except KeyboardInterrupt:
        # Graceful shutdown: fall through so the journal-backed state the
        # handler already flushed is joined by the telemetry below.
        print("interrupted", file=sys.stderr)
        code = EXIT_INTERRUPTED
    telemetry = args.telemetry
    if telemetry is not None:
        # Emit telemetry even when the command failed — a trace of the run
        # that hit the limit is exactly what you want to look at.
        if args.trace:
            try:
                telemetry.write_trace(args.trace)
            except OSError as exc:
                print(
                    f"error: cannot write trace {args.trace!r}: {exc}",
                    file=sys.stderr,
                )
                if code == EXIT_OK:
                    code = EXIT_INPUT
        if args.metrics:
            print()
            print(telemetry.report())
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
