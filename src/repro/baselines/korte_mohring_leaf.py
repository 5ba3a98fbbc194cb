"""Baseline: orientation feasibility tested only at the leaves.

Section 4.2 of the paper discusses adding the Korte–Möhring linear-time
constrained-orientation algorithm "as a black box to test the leaves of our
search tree", and argues the result "cannot be expected to be reasonably
efficient": an obstruction fixed high in the tree is rediscovered at every
leaf below it.  The paper's remedy is the in-tree D1/D2 implication
propagation (Section 4.3).

This module implements the rejected alternative for measurement (ablation
A2): the packing-class search runs with the implication engine *disabled*
(precedence pairs are still fixed as time-comparability edges — they are
hard state constraints), and the transitive-orientation-extension test is
performed only at complete leaves.  The result is exact; only the tree size
differs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..core.boxes import PackingInstance
from ..core.opp import OPPResult, SolverOptions, solve_opp


def solve_opp_leaf_oriented(
    instance: PackingInstance, options: Optional[SolverOptions] = None
) -> OPPResult:
    """Solve the OPP with orientation reasoning deferred to the leaves."""
    options = options or SolverOptions()
    propagation = replace(options.propagation, implications=False)
    leaf_options = SolverOptions(
        use_bounds=options.use_bounds,
        use_heuristics=options.use_heuristics,
        propagation=propagation,
        branching=options.branching,
        node_limit=options.node_limit,
        time_limit=options.time_limit,
    )
    return solve_opp(instance, options=leaf_options)
