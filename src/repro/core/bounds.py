"""Fast infeasibility proofs — stage 1 of the paper's framework.

"Try to disprove the existence of a packing by fast and good classes of
lower bounds on the necessary size."  Every function here either *proves*
the instance infeasible (returning a human-readable certificate string) or
returns ``None`` (no conclusion); the branch-and-bound only starts when all
bounds are silent.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

from ..graphs.cliques import max_weight_clique
from ..graphs.graph import Graph
from .boxes import PackingInstance
from .dff import DFF, default_family


def oversized_box_bound(instance: PackingInstance) -> Optional[str]:
    """A single box exceeding the container on some axis."""
    for i, box in enumerate(instance.boxes):
        for axis in range(instance.dimensions):
            if box.widths[axis] > instance.container.sizes[axis]:
                return (
                    f"box {i} ({box}) exceeds the container on axis {axis} "
                    f"({box.widths[axis]} > {instance.container.sizes[axis]})"
                )
    return None


def volume_bound(instance: PackingInstance) -> Optional[str]:
    """Total box volume must not exceed the container volume."""
    total = instance.total_volume()
    if total > instance.container.volume:
        return (
            f"total box volume {total} exceeds container volume "
            f"{instance.container.volume}"
        )
    return None


def dff_volume_bound(
    instance: PackingInstance, max_combinations: int = 2000
) -> Optional[str]:
    """Fekete–Schepers transformed-volume bounds.

    Applies per-axis dual feasible functions to the normalized widths; any
    combination whose transformed volume exceeds 1 disproves the packing.
    To keep the root-node cost bounded, at most ``max_combinations``
    combinations are evaluated (nontrivial DFFs on at most two axes at a
    time, which is where the power of the family lives).
    """
    d = instance.dimensions
    tables = [
        _dff_table(instance.widths_along(axis), instance.container.sizes[axis])
        for axis in range(d)
    ]
    families = [family for family, _, _ in tables]
    identity_index = 0

    combos = []
    for axes in itertools.combinations(range(d), 2):
        for fa in range(len(families[axes[0]])):
            for fb in range(len(families[axes[1]])):
                combo = [identity_index] * d
                combo[axes[0]] = fa
                combo[axes[1]] = fb
                combos.append(tuple(combo))
    for axis in range(d):
        for fa in range(len(families[axis])):
            combo = [identity_index] * d
            combo[axis] = fa
            combos.append(tuple(combo))
    one = math.prod(den for _, _, den in tables)
    seen = set()
    for combo in combos[:max_combinations]:
        if combo in seen:
            continue
        seen.add(combo)
        products = tables[0][1][combo[0]]
        for axis in range(1, d):
            products = map(mul, products, tables[axis][1][combo[axis]])
        scaled = sum(products)
        if scaled > one:
            names = [families[axis][combo[axis]].__name__ for axis in range(d)]
            return (
                f"DFF volume bound exceeded: combination {names} gives "
                f"transformed volume {Fraction(scaled, one)} > 1"
            )
    return None


def _dff_table(
    widths: Sequence[int], size: int
) -> Tuple[List[DFF], List[List[int]], int]:
    """One axis of a DFF bound in exact integers.

    Returns the DFF family of the normalized widths ``x_b = widths[b] /
    size``, one row of scaled images per member, and their common
    denominator ``den``: ``rows[f][b] / den == family[f](x_b)``.  Each
    member is applied once per distinct width, and a combination's
    transformed volume becomes an integer sum of products over the rows,
    compared against the product of the axes' denominators.
    """
    values = [Fraction(w, size) for w in widths]
    family = default_family(values)
    distinct = set(values)
    images = [{x: f(x) for x in distinct} for f in family]
    den = math.lcm(*(y.denominator for image in images for y in image.values()))
    rows = []
    for image in images:
        scaled = {x: y.numerator * den // y.denominator for x, y in image.items()}
        rows.append([scaled[x] for x in values])
    return family, rows, den


def critical_path_bound(instance: PackingInstance) -> Optional[str]:
    """With precedence constraints, the heaviest dependency chain must fit
    within the container's time extent."""
    if instance.precedence is None:
        return None
    durations = instance.widths_along(instance.time_axis)
    length = instance.precedence.critical_path_length(
        [float(w) for w in durations]
    )
    limit = instance.container.sizes[instance.time_axis]
    if length > limit:
        return (
            f"critical path of the precedence DAG needs {length} time units "
            f"> container time {limit}"
        )
    return None


def spatial_conflict_bound(instance: PackingInstance) -> Optional[str]:
    """Boxes that are pairwise spatially exclusive must run sequentially.

    Two boxes that cannot coexist on the chip at any moment (their widths
    exceed the container extent on *every* spatial axis when placed side by
    side) must be disjoint in time.  The heaviest duration-weighted clique
    of this conflict graph is a lower bound on the makespan.
    """
    time_axis = instance.time_axis
    spatial_axes = [a for a in range(instance.dimensions) if a != time_axis]
    if not spatial_axes:
        return None
    durations = instance.widths_along(time_axis)
    weight, clique = max_weight_clique(
        _spatial_conflict_graph(instance), durations
    )
    limit = instance.container.sizes[time_axis]
    if weight > limit:
        return (
            f"spatially exclusive boxes {clique} need {weight} sequential "
            f"time units > container time {limit}"
        )
    return None


def _heads_and_tails(instance: PackingInstance) -> Tuple[List[int], List[int]]:
    """Earliest-start (head) and minimum-follow-up (tail) times per box.

    ``head[v]`` is the duration of the heaviest strict-predecessor chain of
    ``v``; ``tail[v]`` the same for strict successors.  Without precedence
    constraints both are all zeros.
    """
    n = instance.n
    if instance.precedence is None:
        return [0] * n, [0] * n
    durations = [float(w) for w in instance.widths_along(instance.time_axis)]
    finish = instance.precedence.longest_path_lengths(durations)
    heads = [int(finish[v] - durations[v]) for v in range(n)]
    reversed_dag = instance.precedence.copy()
    reversed_dag.succ, reversed_dag.pred = reversed_dag.pred, reversed_dag.succ
    back_finish = reversed_dag.longest_path_lengths(durations)
    tails = [int(back_finish[v] - durations[v]) for v in range(n)]
    return heads, tails


def _spatial_conflict_graph(instance: PackingInstance) -> Graph:
    """Edges between boxes that cannot coexist on the chip at any moment."""
    time_axis = instance.time_axis
    spatial_axes = [a for a in range(instance.dimensions) if a != time_axis]
    g = Graph(instance.n)
    for u in range(instance.n):
        for v in range(u + 1, instance.n):
            if spatial_axes and all(
                instance.boxes[u].widths[a] + instance.boxes[v].widths[a]
                > instance.container.sizes[a]
                for a in spatial_axes
            ):
                g.add_edge(u, v)
    return g


def conflict_schedule_bound(instance: PackingInstance) -> Optional[str]:
    """Energetic head/tail bound over spatially exclusive cliques.

    A clique of the spatial conflict graph must execute sequentially, so for
    any head threshold ``h`` and tail threshold ``q`` the boxes of the
    clique with ``head ≥ h`` and ``tail ≥ q`` force a makespan of at least
    ``h + Σ durations + q`` (nothing in the clique can start before ``h``
    and the last one still drags its successors behind it).  This is the
    single-machine head/tail bound from scheduling theory applied to every
    conflict clique; it is what proves, e.g., that the DE benchmark cannot
    reach latency 12 on a 17×17 chip.
    """
    time_axis = instance.time_axis
    limit = instance.container.sizes[time_axis]
    heads, tails = _heads_and_tails(instance)
    conflict = _spatial_conflict_graph(instance)
    if conflict.edge_count() == 0:
        return None
    durations = instance.widths_along(time_axis)
    for h in sorted(set(heads)):
        for q in sorted(set(tails)):
            members = [
                v for v in range(instance.n) if heads[v] >= h and tails[v] >= q
            ]
            if len(members) < 2:
                continue
            sub, mapping = conflict.induced_subgraph(members)
            weight, clique = max_weight_clique(
                sub, [durations[mapping[i]] for i in range(sub.n)]
            )
            if h + weight + q > limit:
                original = sorted(mapping[i] for i in clique)
                return (
                    f"conflict-clique schedule bound: boxes {original} are "
                    f"pairwise spatially exclusive, need head {h} + "
                    f"durations {weight} + tail {q} = {h + weight + q} "
                    f"> container time {limit}"
                )
    return None


def mandatory_overlap_bound(instance: PackingInstance) -> Optional[str]:
    """Time-window energetic bound.

    With precedence constraints, task ``v`` can start no earlier than its
    head and finish no later than ``T − tail``; if the latest start
    ``lst_v = T − tail_v − dur_v`` precedes the earliest finish
    ``eft_v = head_v + dur_v``, the task *necessarily executes* throughout
    ``[lst_v, eft_v)``.  All tasks necessarily live at a common instant
    must fit the chip simultaneously — checked with the spatial area and a
    2-D dual-feasible-function volume argument.  This is what proves, e.g.,
    that an 8-tap FIR filter at its critical path needs all eight
    multipliers concurrently on the chip.
    """
    if instance.precedence is None:
        return None
    time_axis = instance.time_axis
    spatial_axes = [a for a in range(instance.dimensions) if a != time_axis]
    if not spatial_axes:
        return None
    limit = instance.container.sizes[time_axis]
    heads, tails = _heads_and_tails(instance)
    durations = instance.widths_along(time_axis)
    mandatory = []  # (from_instant, to_instant, box)
    for v in range(instance.n):
        lst = limit - tails[v] - durations[v]
        eft = heads[v] + durations[v]
        if lst < heads[v]:
            return (
                f"box {v} has no feasible start: earliest {heads[v]}, "
                f"latest {lst} (window too tight)"
            )
        if lst < eft:
            mandatory.append((lst, eft, v))
    if len(mandatory) < 2:
        return None
    capacity = 1
    for a in spatial_axes:
        capacity *= instance.container.sizes[a]
    for t, _, _ in mandatory:
        live = [v for lst, eft, v in mandatory if lst <= t < eft]
        if len(live) < 2:
            continue
        footprint = sum(
            _cross_section(instance, v, time_axis) for v in live
        )
        if footprint > capacity:
            return (
                f"tasks {live} necessarily run at instant {t} with total "
                f"footprint {footprint} > chip capacity {capacity}"
            )
        certificate = _spatial_dff_overflow(instance, live, spatial_axes)
        if certificate is not None:
            return (
                f"tasks {live} necessarily run at instant {t}: {certificate}"
            )
    return None


def _cross_section(instance: PackingInstance, v: int, time_axis: int) -> int:
    out = 1
    for a in range(instance.dimensions):
        if a != time_axis:
            out *= instance.boxes[v].widths[a]
    return out


def _spatial_dff_overflow(
    instance: PackingInstance, live: List[int], spatial_axes: List[int]
) -> Optional[str]:
    """2-D DFF volume argument over a set of simultaneously live boxes."""
    ax0, ax1 = spatial_axes[0], spatial_axes[-1]
    tables = {
        axis: _dff_table(
            [instance.boxes[v].widths[axis] for v in live],
            instance.container.sizes[axis],
        )
        for axis in (ax0, ax1)
    }
    family0, rows0, den0 = tables[ax0]
    family1, rows1, den1 = tables[ax1]
    one = den0 * den1
    for f, row_f in zip(family0, rows0):
        for g, row_g in zip(family1, rows1):
            scaled = sum(map(mul, row_f, row_g))
            if scaled > one:
                return (
                    f"2-D DFF bound ({f.__name__}, {g.__name__}) gives "
                    f"transformed area {Fraction(scaled, one)} > 1"
                )
    return None


ALL_BOUNDS = [
    oversized_box_bound,
    volume_bound,
    critical_path_bound,
    spatial_conflict_bound,
    conflict_schedule_bound,
    mandatory_overlap_bound,
    dff_volume_bound,
]

#: Stable names of the stage-1 bounds, in evaluation order — the valid
#: entries for ``SolverOptions.disabled_bounds`` and the ``disabled=``
#: parameter below.
BOUND_NAMES = tuple(bound.__name__ for bound in ALL_BOUNDS)


def prove_infeasible(
    instance: PackingInstance, disabled: tuple = ()
) -> Optional[str]:
    """Run all bounds; return the first infeasibility certificate, if any."""
    named = prove_infeasible_named(instance, disabled=disabled)
    return named[1] if named is not None else None


def prove_infeasible_named(
    instance: PackingInstance,
    disabled: tuple = (),
) -> Optional[tuple]:
    """Like :func:`prove_infeasible`, but returns ``(bound_name,
    certificate)`` so callers (telemetry) can attribute the prune to the
    bound that proved it.  ``disabled`` names bounds to skip (ablation /
    mutation testing); since bounds only ever *prove* infeasibility,
    skipping one can delay an UNSAT proof but never change an answer."""
    for bound in ALL_BOUNDS:
        if bound.__name__ in disabled:
            continue
        certificate = bound(instance)
        if certificate is not None:
            return bound.__name__, certificate
    return None


def makespan_lower_bound(instance: PackingInstance) -> int:
    """A valid lower bound on the achievable makespan for this instance's
    boxes on this container's *spatial* footprint (ignores the container's
    own time size).  Used to initialize SPP searches."""
    time_axis = instance.time_axis
    spatial_axes = [a for a in range(instance.dimensions) if a != time_axis]
    bounds: List[int] = [max((b.widths[time_axis] for b in instance.boxes), default=0)]
    # Volume over the chip footprint.
    footprint = 1
    for a in spatial_axes:
        footprint *= instance.container.sizes[a]
    if footprint > 0:
        total = instance.total_volume()
        bounds.append(-(-total // footprint))  # ceil division
    # Critical path.
    if instance.precedence is not None:
        durations = [float(w) for w in instance.widths_along(time_axis)]
        bounds.append(int(instance.precedence.critical_path_length(durations)))
    # Sequential cliques.  Without spatial axes the conflict graph is empty;
    # the volume term above then already equals the all-pairs clique.
    weight, _ = max_weight_clique(
        _spatial_conflict_graph(instance), instance.widths_along(time_axis)
    )
    bounds.append(int(weight))
    return max(bounds)
