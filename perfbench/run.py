"""End-to-end and per-layer benchmark of the default solver pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload paper_sweeps --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload service_mixed --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it untraced for half the time, then replays
the same operations with every layer wrapped in spans and prints the
per-layer metrics.  Every answer is checked outside the timed region; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is 1 when any
answer was wrong.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters started per run to measure ``setup_s``.
SETUP_PROBES = 5

#: The 1-box instance every set-up solves once, so that lazy set-up (kernel
#: registry probes, first-call imports) is not billed to the first operation.
WARMUP_WIDTHS = ((1, 1, 1),)


def _require_source() -> None:
    """Import the program from this checkout's ``src`` or not at all."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: List[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: int, wanted: float) -> float:
    """``wanted`` if at least ten samples lie beyond it, else the highest
    whole percentile that has ten beyond it (the median at worst)."""
    if samples * (1 - wanted / 100.0) >= 10:
        return wanted
    return max(50.0, math.floor(100.0 * (1 - 10.0 / samples)))


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def warm_up(workload: Any) -> None:
    from repro.core.boxes import make_instance

    instance = make_instance(WARMUP_WIDTHS, (1, 1, 1))
    if workload.in_process:
        from repro.core.opp import solve_opp

        solve_opp(instance)
    else:
        from repro.client import ReproClient

        ReproClient(port=workload.port).solve(instance, tenant="warm-up")


def probe_setup(args: argparse.Namespace, scratch: str) -> int:
    """Child side of ``setup_s``: set the workload up, say so, tear down."""
    import workloads

    workload = workloads.make(args.workload, args.seed, scratch)
    try:
        workload.setup()
        warm_up(workload)
        print("ready", flush=True)
    finally:
        workload.close()
    return 0


def measure_setup(args: argparse.Namespace) -> List[float]:
    """Seconds from spawning a fresh interpreter to its first operation
    being ready, :data:`SETUP_PROBES` times."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--probe-setup",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        began = time.perf_counter()
        child = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        try:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - began)
            child.stdout.read()
            code = child.wait(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return samples


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def judge_pass(workload: Any, run: Any) -> List[Dict[str, Any]]:
    return [workload.judge(outcome) for outcome in run.outcomes]


def count_failures(workload: Any, run: Any, verdicts: List[dict]) -> tuple:
    """Every problem found, and the number of failed operations."""
    problems = [p for verdict in verdicts for p in verdict["problems"]]
    failed_ops = sum(1 for verdict in verdicts if verdict["problems"])
    extra = workload.check_pass(run)
    return problems + extra, failed_ops + len(extra)


def end_to_end(args: argparse.Namespace, workload: Any) -> Dict[str, Any]:
    setup_samples = measure_setup(args)
    workload.setup()
    warm_up(workload)
    run = workload.run(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts = judge_pass(workload, run)
    problems, failed = count_failures(workload, run, verdicts)

    latencies = [o.seconds * 1000.0 for o in run.outcomes]
    tail = tail_percentile(len(latencies), workload.tail)
    decided = sum(1 for v in verdicts if v["decided"])
    attempted = len(run.outcomes)
    hits = [o.seconds * 1000.0 for o in run.outcomes if o.cache_hit]
    misses = [o.seconds * 1000.0 for o in run.outcomes if o.cache_hit is False]
    notes = [
        f"operations {attempted} in {run.wall:.3f} s",
        f"latency_tail_ms is p{tail:g} of {attempted} samples",
        f"setup_s samples {', '.join(f'{s:.4f}' for s in setup_samples)}",
        f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted})",
    ]
    if hits or misses:
        notes.append(
            f"memo hits {len(hits)} (p50 {statistics.median(hits) if hits else 0:.3f} ms),"
            f" misses {len(misses)} (p50 {statistics.median(misses) if misses else 0:.3f} ms)"
        )
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "throughput_ops_s": (attempted / run.wall, "1/s"),
        "latency_p50_ms": (percentile(latencies, 50), "ms"),
        "latency_tail_ms": (percentile(latencies, tail), "ms"),
        "decided_ratio": (decided / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "notes": notes}


def per_layer(args: argparse.Namespace, workload: Any) -> Dict[str, Any]:
    import tracing

    workload.setup()
    warm_up(workload)
    plain = workload.run(args.seconds / 2.0, min_samples=1)
    if not workload.in_process:
        workload.restart()  # the traced replay starts from an empty memo
        warm_up(workload)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        traced = workload.run(
            0, count=len(plain.outcomes),
            wrap=lambda fn: tracer.wrap("op", "op", fn), tracer=tracer,
        )
    finally:
        restore()
    if args.spans:
        tracer.write(args.spans)

    plain_verdicts = judge_pass(workload, plain)
    traced_verdicts = judge_pass(workload, traced)
    problems, failed = count_failures(workload, plain, plain_verdicts)
    traced_problems, traced_failed = count_failures(workload, traced, traced_verdicts)
    problems += traced_problems
    failed += traced_failed
    for before, after, outcome in zip(plain_verdicts, traced_verdicts, traced.outcomes):
        if before["fingerprint"] != after["fingerprint"]:
            problems.append(
                f"op {outcome.index}: traced run differs "
                f"({before['fingerprint']!r} vs {after['fingerprint']!r})"
            )
            failed += 1

    def layer_percentile(values: List[float], which: str) -> float:
        p = 50 if which == "p50" else tail_percentile(len(values), workload.tail)
        return percentile(values, p)

    values = tracing.layer_metrics(tracer, layer_percentile)
    values["client.attempts"] = traced.client_metrics.get("requests", 0)
    values["client.retries"] = traced.client_metrics.get("retries", 0)
    values["trace.overhead_ratio"] = traced.wall / plain.wall
    hits = [o.seconds * 1000.0 for o in plain.outcomes if o.cache_hit]
    misses = [o.seconds * 1000.0 for o in plain.outcomes if o.cache_hit is False]
    values["service.hit_latency_p50_ms"] = statistics.median(hits) if hits else 0.0
    values["service.miss_latency_p50_ms"] = statistics.median(misses) if misses else 0.0

    metrics = {
        name: (values[name], unit) for name, unit in tracing.PER_LAYER_UNITS.items()
    }
    attempted = len(plain.outcomes) + len(traced.outcomes)
    notes = [
        f"operations {len(plain.outcomes)} untraced in {plain.wall:.3f} s, "
        f"replayed traced in {traced.wall:.3f} s",
        f"spans {len(tracer.spans)}",
    ]
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "notes": notes}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans", help="with --trace 1, write the spans to this JSON-lines file"
    )
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_source()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        if args.probe_setup:
            return probe_setup(args, scratch)
        workload = workloads.make(args.workload, args.seed, scratch)
        try:
            report = (per_layer if args.trace else end_to_end)(args, workload)
        finally:
            workload.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it
    for note in report["notes"]:
        print(f"# {note}")
    for problem in report["problems"][:20]:
        print(f"# WRONG: {problem}")
    for name, (value, unit) in report["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    correct = report["failed"] == 0 and not report["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
