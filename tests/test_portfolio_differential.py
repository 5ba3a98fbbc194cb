"""Randomized differential testing of the portfolio solver.

Three independently-implemented solvers answer the same decision problem:

* the portfolio (racing several branch-and-bound configurations),
* the sequential packing-class solver (:func:`solve_opp`),
* the geometric position-enumeration baseline (:func:`solve_opp_geometric`).

On every seeded random instance all three verdicts must agree, and every
SAT witness must re-validate geometrically (no overlap, in bounds,
precedence respected).  A disagreement pinpoints a soundness bug in one of
them; the seed and index in the failure message reproduce it exactly.
"""

import pytest

from repro.baselines.geometric_bb import solve_opp_geometric
from repro.core.opp import SolverOptions, solve_opp
from repro.instances import differential_instances
from repro.parallel import PortfolioSolver, ResultCache

SEED = 20010313  # DATE 2001 conference date
COUNT = 220

NODE_LIMIT = 200_000
BASELINE_NODE_LIMIT = 500_000


def _check_witness(instance, placement, source):
    assert placement is not None, f"{source}: SAT without witness"
    violations = placement.violations()
    assert not violations, f"{source}: invalid witness: {violations}"


def _agree(index, instance, verdicts):
    statuses = {status for _, status in verdicts}
    assert len(statuses) == 1, (
        f"verdict disagreement on instance {SEED}/{index}: {verdicts} "
        f"(container={instance.container.sizes}, boxes="
        f"{[b.widths for b in instance.boxes]})"
    )


@pytest.fixture(scope="module")
def sweep():
    """Solve the whole population once; individual tests assert on slices."""
    solver = PortfolioSolver(backend="serial")
    records = []
    for index, instance in enumerate(differential_instances(SEED, COUNT)):
        portfolio = solver.solve(instance)
        sequential = solve_opp(
            instance, options=SolverOptions(node_limit=NODE_LIMIT)
        )
        baseline = solve_opp_geometric(instance, node_limit=BASELINE_NODE_LIMIT)
        records.append((index, instance, portfolio, sequential, baseline))
    solver.close()
    return records


def test_three_way_verdict_agreement(sweep):
    assert len(sweep) >= 200
    for index, instance, portfolio, sequential, baseline in sweep:
        _agree(
            index,
            instance,
            [
                ("portfolio", portfolio.status),
                ("sequential", sequential.status),
                ("geometric", baseline.status),
            ],
        )


def test_population_is_mixed(sweep):
    """The generator must exercise both verdicts and both precedence modes —
    otherwise agreement is vacuous."""
    statuses = [r[3].status for r in sweep]
    assert statuses.count("sat") >= 30
    assert statuses.count("unsat") >= 30
    assert statuses.count("unknown") == 0, "population should be decidable"
    with_arcs = sum(
        1
        for _, inst, *_ in sweep
        if inst.precedence is not None and any(True for _ in inst.precedence.arcs())
    )
    assert 30 <= with_arcs <= len(sweep) - 30


def test_sat_witnesses_validate_geometrically(sweep):
    for index, instance, portfolio, sequential, baseline in sweep:
        if portfolio.is_sat:
            _check_witness(instance, portfolio.placement, f"portfolio[{index}]")
        if sequential.status == "sat":
            _check_witness(instance, sequential.placement, f"sequential[{index}]")
        if baseline.status == "sat":
            _check_witness(instance, baseline.placement, f"geometric[{index}]")


def test_unsat_has_no_witness(sweep):
    for index, _, portfolio, sequential, _ in sweep:
        if portfolio.is_unsat:
            assert portfolio.placement is None
        if sequential.status == "unsat":
            assert sequential.placement is None


def test_process_backend_agrees_with_serial():
    """A smaller sweep through real worker processes: racing must change
    latency only, never the answer."""
    with PortfolioSolver(workers=2, backend="process") as solver:
        for index, instance in enumerate(differential_instances(SEED + 1, 12)):
            parallel = solver.solve(instance)
            sequential = solve_opp(
                instance, options=SolverOptions(node_limit=NODE_LIMIT)
            )
            assert parallel.status == sequential.status, (
                f"instance {SEED + 1}/{index}: "
                f"{parallel.backend}={parallel.status} "
                f"sequential={sequential.status}"
            )
            if parallel.is_sat:
                _check_witness(instance, parallel.placement, f"process[{index}]")


def test_thread_backend_agrees_with_serial():
    with PortfolioSolver(workers=2, backend="thread") as solver:
        for index, instance in enumerate(differential_instances(SEED + 2, 12)):
            parallel = solver.solve(instance)
            sequential = solve_opp(
                instance, options=SolverOptions(node_limit=NODE_LIMIT)
            )
            assert parallel.status == sequential.status, f"instance {SEED + 2}/{index}"
            if parallel.is_sat:
                _check_witness(instance, parallel.placement, f"thread[{index}]")


def test_cached_portfolio_agrees_and_caches(sweep):
    """Re-solving the population through a cache must not change a single
    verdict, and cached SAT witnesses must stay geometrically valid."""
    cache = ResultCache(capacity=1024)
    with PortfolioSolver(backend="serial", cache=cache) as solver:
        for index, instance, _, sequential, _ in sweep[:60]:
            first = solver.solve(instance)
            again = solver.solve(instance)
            assert first.status == sequential.status, f"instance {SEED}/{index}"
            assert again.status == first.status
            if again.is_sat:
                _check_witness(instance, again.placement, f"cached[{index}]")
    assert cache.stats.hits >= 1


def test_stats_merge_across_entrants():
    """The merged stats must account for every entrant that ran."""
    instance = next(differential_instances(SEED + 3, 1))
    with PortfolioSolver(backend="serial") as solver:
        result = solver.solve(instance)
    assert result.per_config, "no entrant recorded"
    assert result.stats.nodes == sum(
        s.nodes for s in result.per_config.values()
    )
    assert result.elapsed > 0.0


@pytest.mark.slow
def test_extended_differential_sweep():
    """A second, larger population under a different seed (CI's long job)."""
    solver = PortfolioSolver(backend="serial")
    for index, instance in enumerate(differential_instances(SEED + 17, 400)):
        portfolio = solver.solve(instance)
        sequential = solve_opp(
            instance, options=SolverOptions(node_limit=NODE_LIMIT)
        )
        baseline = solve_opp_geometric(instance, node_limit=BASELINE_NODE_LIMIT)
        _agree(
            index,
            instance,
            [
                ("portfolio", portfolio.status),
                ("sequential", sequential.status),
                ("geometric", baseline.status),
            ],
        )
        if portfolio.is_sat:
            _check_witness(instance, portfolio.placement, f"portfolio[{index}]")
    solver.close()
