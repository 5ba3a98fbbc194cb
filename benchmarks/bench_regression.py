"""Kernel benchmark with a regression gate: all registered kernels.

Runs the paper's instances (Table 1 / Table 2) and a pool of forced-search
random instances under every registered search kernel (``bitmask``,
``reference``), then **fails** (exit 1) if any of the following regress:

* a status or optimum differs between any kernel and the reference
  (semantic regression);
* a node count differs between any kernel and the reference (every
  engine must reproduce the reference search tree exactly);
* the geometric-mean speedup of the bitmask kernel over the reference
  kernel drops below ``--min-speedup`` (performance regression).  The
  2.5x bar is the product of the two bars this gate used to hold when
  the byte-LUT / degree-partition / pre-masked algorithms lived in a
  separate kernel (2.0x bitsets over the oracle, 1.25x on top of that),
  so it still fails if those algorithms are lost.

The measured record is written as JSON (default ``BENCH_PR8.json``): one
entry per instance with per-kernel wall time, node count, and nodes/sec,
plus the aggregate geometric mean.  The committed copy at the repo root
is the performance baseline; re-run this script after touching a kernel
or the propagation rules and commit the refreshed numbers together with
the change.

Usage::

    python benchmarks/bench_regression.py                  # full suite
    python benchmarks/bench_regression.py --smoke          # CI-sized
    python benchmarks/bench_regression.py --output out.json --min-speedup 2

Throughput cases run in search-only mode (bounds and heuristics disabled)
because under the default pipeline the paper's instances are settled by
stages 1–2 with *zero* search nodes — good for users, useless for
measuring the kernel.  The optimum-agreement cases run the full default
pipeline so the public answers stay pinned too.
"""

import argparse
import json
import math
import random
import sys
import time

from repro.core import SolverOptions, available_kernels, solve_opp
from repro.fpga import minimize_chip, square_chip
from repro.instances import codec_task_graph, de_task_graph
from repro.instances.de import TABLE_1
from repro.instances.random_instances import random_instance

SEARCH_ONLY = dict(use_bounds=False, use_heuristics=False)


def _time_solve(instance, options, repeats):
    """Best-of-``repeats`` wall time (the usual benchmarking guard against
    scheduler noise); the result of the last run is returned for checks."""
    best = math.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = solve_opp(instance, options=options)
        best = min(best, time.perf_counter() - start)
    return result, best


def _throughput_case(name, instance, repeats, node_limit=None):
    """Solve one instance under every kernel; return the record + errors."""
    record = {"name": name, "kernels": {}}
    errors = []
    for kernel in available_kernels():
        options = SolverOptions(
            kernel=kernel, node_limit=node_limit, **SEARCH_ONLY
        )
        result, seconds = _time_solve(instance, options, repeats)
        nodes = result.stats.nodes
        record["kernels"][kernel] = {
            "status": result.status,
            "nodes": nodes,
            "seconds": round(seconds, 6),
            "nodes_per_sec": round(nodes / seconds) if seconds > 0 else None,
        }
    slow = record["kernels"]["reference"]
    for kernel, fast in record["kernels"].items():
        if fast["status"] != slow["status"]:
            errors.append(
                f"{name}: status mismatch {kernel}={fast['status']} "
                f"reference={slow['status']}"
            )
        if fast["nodes"] != slow["nodes"]:
            errors.append(
                f"{name}: node-count mismatch {kernel}={fast['nodes']} "
                f"reference={slow['nodes']}"
            )
    fast = record["kernels"]["bitmask"]
    if fast["nodes"] > 0 and fast["seconds"] > 0 and slow["seconds"] > 0:
        record["speedup"] = round(slow["seconds"] / fast["seconds"], 3)
    return record, errors


def _optimum_case(name, graph, time_bound, expected):
    """Full-pipeline BMP sweep under both kernels; optima must match the
    paper AND each other."""
    record = {"name": name, "expected_optimum": expected, "kernels": {}}
    errors = []
    for kernel in available_kernels():
        start = time.perf_counter()
        outcome = minimize_chip(
            graph, time_bound, options=SolverOptions(kernel=kernel)
        )
        seconds = time.perf_counter() - start
        record["kernels"][kernel] = {
            "status": outcome.status,
            "optimum": outcome.optimum,
            "seconds": round(seconds, 6),
        }
        if outcome.status != "optimal" or outcome.optimum != expected:
            errors.append(
                f"{name} [{kernel}]: expected optimal {expected}, got "
                f"{outcome.status} {outcome.optimum}"
            )
    return record, errors


def _random_pool(count):
    """Deterministic forced-search instances with non-trivial trees."""
    rng = random.Random(42)
    pool = []
    while len(pool) < count:
        inst = random_instance(
            rng, container=(5, 5, 5), num_boxes=7, max_width=4,
            precedence_density=0.3,
        )
        probe = solve_opp(
            inst, options=SolverOptions(node_limit=3000, **SEARCH_ONLY)
        )
        if probe.stats.nodes >= 20:
            pool.append(inst)
    return pool


def run(smoke=False, min_speedup=2.5, output="BENCH_PR8.json"):
    repeats = 1 if smoke else 3
    records = []
    errors = []

    # -- Warmup: one throwaway solve per kernel so the first timed case
    # measures steady-state throughput, not one-time setup (imports,
    # byte-LUT construction, bytecode warming).
    de = de_task_graph()
    warm = de.to_instance(square_chip(17), 13)
    for kernel in available_kernels():
        solve_opp(
            warm,
            options=SolverOptions(kernel=kernel, node_limit=50, **SEARCH_ONLY),
        )

    # -- Table 1: DE benchmark throughput (search-only decisive probes) ----
    # (18, 12) is not a Table 1 row but sits one step inside the
    # infeasible frontier: a decisive UNSAT with a ~400-node refutation
    # tree, i.e. exactly the search the sweeps spend their time in.
    for side, time_bound in ((17, 13), (16, 14), (18, 12), (32, 6)):
        inst = de.to_instance(square_chip(side), time_bound)
        record, errs = _throughput_case(
            f"table1/de_{side}x{side}_t{time_bound}", inst, repeats
        )
        records.append(record)
        errors.extend(errs)

    # -- Table 2: codec throughput (node-capped: the full search-only tree
    # is astronomically larger than the capped prefix, which is all a
    # throughput comparison needs — both kernels walk the identical
    # 2000-node prefix) ----------------------------------------------------
    codec = codec_task_graph()
    for time_bound, cap in ((59, 2000), (60, 2000), (61, None)):
        # t59/t60 sit below the search-only feasibility frontier (capped
        # prefixes of astronomically large trees); t61 is the decisive SAT
        # one step above it (~200 nodes).  Together they sample the paper's
        # codec workload on both sides of the frontier.
        inst = codec.to_instance(square_chip(64), time_bound)
        suffix = f"_cap{cap}" if cap else ""
        record, errs = _throughput_case(
            f"table2/codec_64x64_t{time_bound}{suffix}", inst, repeats,
            node_limit=cap,
        )
        records.append(record)
        errors.extend(errs)

    # -- Portfolio: forced-search random instances -------------------------
    for i, inst in enumerate(_random_pool(2 if smoke else 6)):
        record, errs = _throughput_case(
            f"portfolio/random_{i}", inst, repeats
        )
        records.append(record)
        errors.extend(errs)

    # -- Optimum agreement under the full default pipeline ------------------
    for time_bound in (6, 13, 14):
        record, errs = _optimum_case(
            f"table1/bmp_optimum_t{time_bound}", de, time_bound,
            TABLE_1[time_bound][0],
        )
        records.append(record)
        errors.extend(errs)

    speedups = [r["speedup"] for r in records if r.get("speedup")]
    geomean = None
    if speedups:
        geomean = round(
            math.exp(sum(math.log(v) for v in speedups) / len(speedups)), 3
        )
    if geomean is not None and geomean < min_speedup:
        errors.append(
            f"geometric-mean speedup {geomean} below the {min_speedup}x gate"
        )

    payload = {
        "benchmark": "kernel registry differential + throughput (PR8)",
        "mode": "smoke" if smoke else "full",
        "kernels": list(available_kernels()),
        "min_speedup_gate": min_speedup,
        "geomean_speedup": geomean,
        "cases": records,
        "regressions": errors,
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    for record in records:
        speed = record.get("speedup")
        line = f"  {record['name']:<38}"
        if speed:
            line += f" speedup {speed:>7.2f}x"
        else:
            line += " (agreement only)"
        print(line)
    print(f"geometric-mean speedup: {geomean}x  (gate: >= {min_speedup}x)")
    print(f"wrote {output}")
    if errors:
        print("REGRESSIONS:", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    print(
        "gate passed: optima identical, trees identical, speedup above bar"
    )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: fewer instances, single timing repetition",
    )
    parser.add_argument(
        "--output", default="BENCH_PR8.json", help="JSON output path"
    )
    parser.add_argument(
        "--min-speedup", type=float, default=2.5,
        help="fail if the geometric-mean nodes/sec speedup drops below this",
    )
    args = parser.parse_args(argv)
    return run(
        smoke=args.smoke,
        min_speedup=args.min_speedup,
        output=args.output,
    )


if __name__ == "__main__":
    sys.exit(main())
