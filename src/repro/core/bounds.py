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
from collections import Counter
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

from ..graphs.cliques import max_weight_clique
from ..graphs.graph import Graph
from .boxes import PackingInstance


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
    A combination puts nontrivial members on at most two axes (which is
    where the power of the family lives) and the identity elsewhere: every
    axis pair in order, then every single axis.  To keep the root-node cost
    bounded, only the first ``max_combinations`` positions of that order
    are evaluated, counting every combination.  Members with equal rows
    give combinations with equal sums, so each distinct tuple of rows is
    summed once, at its first position; the certificate names the first
    refuting combination all the same.
    """
    d = instance.dimensions
    sizes = instance.container.sizes
    weights = Counter(box.widths for box in instance.boxes)
    vectors = list(weights)
    tables = [
        _dff_table([v[axis] for v in vectors], sizes[axis]) for axis in range(d)
    ]
    distinct = [_distinct_rows(rows) for _, rows, _ in tables]
    one = math.prod(den for _, _, den in tables)
    seen = set()
    start = 0  # position of the block's first combination
    for axes in [*itertools.combinations(range(d), 2), *((a,) for a in range(d))]:
        if start >= max_combinations:
            break
        a, b = axes[0], axes[-1]  # b == a on a single axis
        pair = a != b
        stride = len(tables[b][1]) if pair else 1
        # Boxes with equal widths weigh in once, times their count; the
        # axes outside the block contribute their identity rows.
        base = list(weights.values())
        for axis in range(d):
            if axis not in axes:
                base = list(map(mul, base, tables[axis][1][0]))
        for fa in distinct[a]:
            if start + fa * stride >= max_combinations:
                break
            row = list(map(mul, base, tables[a][1][fa]))
            for fb in distinct[b] if pair else (0,):
                if start + fa * stride + fb >= max_combinations:
                    break
                if fa == 0 or fb == 0:
                    # Only a combination with an identity row recurs in
                    # a later block.
                    combo = _combination(d, a, fa, b, fb)
                    if combo in seen:
                        continue
                    seen.add(combo)
                scaled = sum(map(mul, row, tables[b][1][fb])) if pair else sum(row)
                if scaled > one:
                    combo = _combination(d, a, fa, b, fb)
                    names = [
                        _member_name(combo[axis], tables[axis][0], sizes[axis])
                        for axis in range(d)
                    ]
                    return (
                        f"DFF volume bound exceeded: combination {names} gives "
                        f"transformed volume {Fraction(scaled, one)} > 1"
                    )
        start += len(tables[a][1]) * stride
    return None


def _combination(d: int, a: int, fa: int, b: int, fb: int) -> Tuple[int, ...]:
    """Member ``fa`` on axis ``a``, ``fb`` on axis ``b`` and the identity
    elsewhere (``fa`` wins when ``a == b``)."""
    combo = [0] * d
    combo[b] = fb
    combo[a] = fa
    return tuple(combo)


def _dff_table(
    widths: Sequence[int], size: int
) -> Tuple[List[int], List[List[int]], int]:
    """One axis of a DFF bound in exact integers.

    The members of :func:`repro.core.dff.default_family` on the normalized
    widths ``x_b = widths[b] / size``, in the family's order, as closed
    forms over the common denominator ``den = 12·size``:

    * identity: ``12·w``;
    * ``u_k``, k = 1..4: ``12·w`` if ``size`` divides ``w·(k+1)``, else
      ``⌊w·(k+1)/size⌋ · den/k``;
    * ``f0_e`` for each distinct width ``e`` with ``0 < 2e ≤ size``, in
      first-appearance order: ``den`` if ``w > size − e``, ``0`` if
      ``w < e``, else ``12·w``;
    * ``u_1∘f0_e`` and ``u_2∘f0_e`` for the first three thresholds: the
      staircase applied to the ``f0_e`` image.

    Returns the thresholds ``e`` (which name the members, see
    :func:`_member_name`), one row per member with ``rows[f][b] / den``
    the image of ``x_b``, and ``den``.
    """
    den = 12 * size
    distinct = list(dict.fromkeys(widths))
    thresholds = [e for e in distinct if 0 < 2 * e <= size]
    identity = {w: 12 * w for w in distinct}
    cuts = [
        {w: den if w > size - e else 0 if w < e else y for w, y in identity.items()}
        for e in thresholds
    ]
    images = [identity]
    images += [_staircase(identity, k, den) for k in range(1, 5)]
    images += cuts
    images += [_staircase(cut, k, den) for cut in cuts[:3] for k in (1, 2)]
    return thresholds, [[image[w] for w in widths] for image in images], den


def _staircase(image: dict, k: int, den: int) -> dict:
    """``u_k`` on images ``y / den``: ``y`` if ``y·(k+1)/den`` is
    integral, else ``⌊y·(k+1)/den⌋ · den/k``."""
    step = den // k
    return {
        w: y if y * (k + 1) % den == 0 else y * (k + 1) // den * step
        for w, y in image.items()
    }


def _member_name(index: int, thresholds: List[int], size: int) -> str:
    """The name of member ``index`` of an axis's :func:`_dff_table`, as
    :func:`repro.core.dff.default_family` names it."""
    if index == 0:
        return "identity"
    if index <= 4:
        return f"u_{index}"
    index -= 5
    if index < len(thresholds):
        return f"f0_{Fraction(thresholds[index], size)}"
    index -= len(thresholds)
    return f"u_{1 + index % 2}∘f0_{Fraction(thresholds[index // 2], size)}"


def _distinct_rows(rows: List[List[int]]) -> List[int]:
    """The members whose row differs from every earlier member's row."""
    first: dict = {}
    for f, row in enumerate(rows):
        first.setdefault(tuple(row), f)
    return list(first.values())


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
    """2-D DFF volume argument over a set of simultaneously live boxes.

    Every pair of members is a candidate; as in :func:`dff_volume_bound`,
    only the first member of each distinct row is tried on either axis.
    """
    ax0, ax1 = spatial_axes[0], spatial_axes[-1]
    sizes = instance.container.sizes
    weights = Counter(
        (instance.boxes[v].widths[ax0], instance.boxes[v].widths[ax1])
        for v in live
    )
    thresholds0, rows0, den0 = _dff_table([w for w, _ in weights], sizes[ax0])
    thresholds1, rows1, den1 = _dff_table([w for _, w in weights], sizes[ax1])
    one = den0 * den1
    distinct1 = _distinct_rows(rows1)
    for f in _distinct_rows(rows0):
        row = list(map(mul, weights.values(), rows0[f]))
        for g in distinct1:
            scaled = sum(map(mul, row, rows1[g]))
            if scaled > one:
                return (
                    f"2-D DFF bound ({_member_name(f, thresholds0, sizes[ax0])}, "
                    f"{_member_name(g, thresholds1, sizes[ax1])}) gives "
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
