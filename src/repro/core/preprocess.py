"""Instance preprocessing: axis normalization by common divisors.

When every width on an axis shares a divisor ``g`` (e.g. the DE benchmark's
x-axis, where both module types are 16 cells wide), every packing can be
normalized so that all anchors on that axis are multiples of ``g`` (normal
patterns are subset sums of widths).  The axis can then be divided by ``g``
and the container extent replaced by ``⌊size / g⌋`` — an equivalence, not a
relaxation.  Grid-based baselines and the occupancy-grid heuristics speed
up dramatically; the packing-class search is magnitude-oblivious but its
bounds get cheaper too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .boxes import Box, Container, PackingInstance, Placement


@dataclass(frozen=True)
class AxisScaling:
    """Per-axis divisors applied during normalization."""

    factors: Tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return all(f == 1 for f in self.factors)


def axis_gcd(instance: PackingInstance, axis: int) -> int:
    """The greatest common divisor of all box widths on one axis (1 for an
    empty instance)."""
    g = 0
    for box in instance.boxes:
        g = math.gcd(g, box.widths[axis])
    return g or 1


def normalize_instance(
    instance: PackingInstance,
) -> Tuple[PackingInstance, AxisScaling]:
    """Divide every axis by its width-gcd; container extents are floored.

    Feasibility is preserved in both directions: scaled-up placements of
    the normalized instance are placements of the original, and any
    original placement can be pushed onto the ``g``-grid (normal-pattern
    argument) and then scaled down.
    """
    factors = tuple(
        axis_gcd(instance, axis) for axis in range(instance.dimensions)
    )
    if all(f == 1 for f in factors):
        return instance, AxisScaling(factors)
    boxes = [
        Box(
            tuple(w // factors[a] for a, w in enumerate(b.widths)),
            name=b.name,
        )
        for b in instance.boxes
    ]
    sizes = tuple(
        s // factors[a] for a, s in enumerate(instance.container.sizes)
    )
    if any(s <= 0 for s in sizes):
        # The gcd exceeds the container extent on some axis, i.e. every box
        # is wider than the container there: the original instance is
        # trivially infeasible.  Return it unscaled so the oversized-box
        # bound reports that faithfully.
        return instance, AxisScaling(tuple(1 for _ in factors))
    scaled = PackingInstance(
        boxes, Container(sizes), instance.precedence, instance.time_axis
    )
    return scaled, AxisScaling(factors)


def denormalize_placement(
    placement: Placement, original: PackingInstance, scaling: AxisScaling
) -> Placement:
    """Map a placement of the normalized instance back to the original."""
    positions = [
        tuple(p[a] * scaling.factors[a] for a in range(original.dimensions))
        for p in placement.positions
    ]
    return Placement(original, positions)


def solve_opp_normalized(instance: PackingInstance, *, options=None, telemetry=None):
    """Convenience wrapper: normalize, solve, denormalize.

    ``options`` is keyword-only.  Returns the
    same :class:`repro.core.opp.OPPResult` type; the placement (if any)
    refers to the *original* instance.
    """
    from .opp import OPPResult, solve_opp

    scaled, scaling = normalize_instance(instance)
    result = solve_opp(scaled, options=options, telemetry=telemetry)
    if result.placement is not None:
        placement = denormalize_placement(result.placement, instance, scaling)
        if not placement.is_feasible():
            raise AssertionError("denormalized placement became infeasible")
        return OPPResult(
            status=result.status,
            placement=placement,
            certificate=result.certificate,
            stats=result.stats,
            stage=result.stage,
        )
    return result
