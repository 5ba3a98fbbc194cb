"""Simulated annealing over placement orders — a stronger stage-2 heuristic.

The greedy list heuristics decode a fixed priority order; annealing searches
the space of (precedence-consistent) orders, decoding each candidate with
the same bottom-left placer and annealing on the resulting makespan.
Useful when the greedy rules' orders are unlucky: a better order often
turns a would-be tree search into an instant SAT.  ``solve_opp`` runs it as
the last step of stage 2b, inside a search that has passed 2,048 nodes
(see :mod:`repro.core.opp`).

Deterministic given the seed; the clock enters only through an optional
``should_stop`` predicate, which can end the search early but never changes
what it visits before then.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..core.boxes import Container, PackingInstance, Placement
from .greedy import _priority_order, list_schedule_placement


@dataclass
class AnnealingOptions:
    iterations: int = 300
    initial_temperature: float = 2.0
    cooling: float = 0.98
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not 0 < self.cooling < 1:
            raise ValueError("cooling must be in (0, 1)")


def _relaxed(instance: PackingInstance) -> PackingInstance:
    """The instance with a sequential-sum time horizon (decoding always
    succeeds, makespan becomes the objective)."""
    time_axis = instance.time_axis
    horizon = max(1, sum(b.widths[time_axis] for b in instance.boxes))
    sizes = list(instance.container.sizes)
    sizes[time_axis] = horizon
    return PackingInstance(
        list(instance.boxes),
        Container(tuple(sizes)),
        instance.precedence,
        instance.time_axis,
    )


def _precedence_consistent_swap(
    order: List[int], i: int, precedence
) -> Optional[List[int]]:
    """Swap positions i and i+1 if no dependency forbids it.

    A direct arc is the only one that can: in a precedence-consistent
    order, a path u -> w -> v puts w between u and v."""
    u, v = order[i], order[i + 1]
    if precedence is not None and v in precedence.succ[u]:
        return None
    swapped = list(order)
    swapped[i], swapped[i + 1] = v, u
    return swapped


def annealed_placement(
    instance: PackingInstance,
    options: Optional[AnnealingOptions] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Optional[Placement]:
    """Search placement orders by simulated annealing; return a feasible
    placement of the *original* instance or ``None``.

    Accepts as soon as a decoded placement fits the instance's own time
    bound (it is then feasible verbatim).  ``should_stop`` is polled before
    every decode; a ``True`` return gives up with ``None``.
    """
    options = options or AnnealingOptions()
    rng = random.Random(options.seed)
    relaxed = _relaxed(instance)
    precedence = instance.precedence
    time_limit = instance.container.sizes[instance.time_axis]

    def decode(order: List[int]) -> Tuple[Optional[Placement], float]:
        placement = list_schedule_placement(relaxed, order)
        if placement is None:
            return None, math.inf
        return placement, float(placement.makespan())

    if should_stop is not None and should_stop():
        return None
    current = _priority_order(instance)
    current_placement, current_cost = decode(current)
    best_placement, best_cost = current_placement, current_cost
    temperature = options.initial_temperature

    for _ in range(options.iterations):
        if best_placement is not None and best_cost <= time_limit:
            break
        if len(current) < 2:
            break
        if should_stop is not None and should_stop():
            return None
        i = rng.randrange(len(current) - 1)
        candidate = _precedence_consistent_swap(current, i, precedence)
        if candidate is None:
            continue
        placement, cost = decode(candidate)
        if cost <= current_cost or (
            temperature > 1e-9
            and rng.random() < math.exp((current_cost - cost) / temperature)
        ):
            current, current_cost = candidate, cost
            if cost < best_cost:
                best_placement, best_cost = placement, cost
        temperature *= options.cooling

    if best_placement is None or best_cost > time_limit:
        return None
    # Re-anchor onto the original instance (same positions, tighter box).
    final = Placement(instance, list(best_placement.positions))
    return final if final.is_feasible() else None


def annealed_makespan(
    instance: PackingInstance, options: Optional[AnnealingOptions] = None
) -> Optional[int]:
    """The best makespan the annealer can realize on this chip footprint
    (a valid SPP upper bound), or ``None`` if no order decodes."""
    options = options or AnnealingOptions()
    rng = random.Random(options.seed)
    relaxed = _relaxed(instance)
    precedence = instance.precedence

    def decode(order: List[int]) -> float:
        placement = list_schedule_placement(relaxed, order)
        return float(placement.makespan()) if placement is not None else math.inf

    current = _priority_order(instance)
    current_cost = decode(current)
    best_cost = current_cost
    temperature = options.initial_temperature
    for _ in range(options.iterations):
        if len(current) < 2:
            break
        i = rng.randrange(len(current) - 1)
        candidate = _precedence_consistent_swap(current, i, precedence)
        if candidate is None:
            continue
        cost = decode(candidate)
        if cost <= current_cost or (
            temperature > 1e-9
            and rng.random() < math.exp((current_cost - cost) / temperature)
        ):
            current, current_cost = candidate, cost
            best_cost = min(best_cost, cost)
        temperature *= options.cooling
    return None if math.isinf(best_cost) else int(best_cost)
