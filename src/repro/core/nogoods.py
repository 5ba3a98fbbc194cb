"""Conflict learning for the packing-class search: nogoods and restarts.

Kernel v3 of the search core.  The branch-and-bound of
:mod:`repro.core.search` spends most of its time re-refuting structurally
identical subtrees: the same handful of edge decisions keeps recreating the
same infeasible partial packing class in sibling branches, and propagation
has to rediscover the refutation every time.  Fekete–Köhler–Teich's
order-constraint view makes these refutations expressible as small
forbidden *decision prefixes* — exactly the shape a CDCL-style nogood can
capture.

A **nogood** here is a set of edge-decision literals ``(axis, u, v, state)``
such that asserting all of them into a fresh model (after root seeding and
any pre-assignments) drives propagation — the D1/D2 implications and the
C2–C5 packing-class filters — into a :class:`~repro.core.edgestate.Conflict`.
Because propagation is sound, *every* completion of a nogood is infeasible,
so the search may prune any node whose partial assignment contains one, and
may force the complementary state whenever all literals but one hold (edge
states are binary once decided: not COMPONENT means COMPARABILITY and vice
versa).

**Extraction** is the replay analog of 1-UIP over the rule trail: when a
decision is refuted, the failing decision prefix is minimized by greedy
deletion — each decision is dropped in turn and the remainder replayed into
a fresh kernel; decisions whose removal keeps the conflict are discarded
permanently.  The surviving core is irreducible (dropping any literal loses
the refutation) and *verified* refutable by construction, which is what the
soundness suite (``tests/test_nogood_soundness.py``) re-checks independently
against the reference kernel.  Replays are metered by a per-search analysis
budget so learning can never dominate the solve it is meant to accelerate.

The bounded :class:`NogoodStore` evicts by activity (bumped on every prune
or forcing, decayed VSIDS-style) and serializes byte-identically through
``to_dict``/``from_dict`` so interrupted searches carry their learned
clauses across a :class:`~repro.core.search.SearchCheckpoint` kill/resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .boxes import PackingInstance
from .kernels import make_model
from .edgestate import (
    COMPARABILITY,
    COMPONENT,
    Conflict,
    PropagationOptions,
)

#: One edge-decision literal: the pair ``{u, v}`` fixed to ``state`` on ``axis``.
Literal = Tuple[int, int, int, int]


def opposite_state(value: int) -> int:
    """The complementary edge state (decided pairs are binary)."""
    return COMPARABILITY if value == COMPONENT else COMPONENT


@dataclass
class LearningOptions:
    """Configuration of the conflict-learning layer (``SolverOptions.learning``).

    With ``enabled=False`` (the default) the search is bit-for-bit the
    unlearned engine: node-for-node identical to the reference oracle, as
    the differential suite enforces.  With ``enabled=True``:

    * refuted decisions are analyzed (replay minimization, metered by
      ``analysis_budget`` replays per search) and stored as nogoods of at
      most ``max_literals`` literals in a store of at most ``store_limit``
      entries (activity-based eviction);
    * ``restarts`` switches Luby-scheduled restarts on: round ``i`` aborts
      after ``luby(i) * restart_base`` conflicts, and after ``max_restarts``
      rounds the final round runs to completion, which keeps the engine
      complete;
    * ``guided_branching`` redirects the variable heuristic toward the
      (pair, axis) decisions that participate in conflicts (decayed
      activity scores); before the first conflict the base heuristic is
      used unchanged.

    Learning never changes answers — nogoods are implied by propagation,
    restarts replay a sound store, and the final round is exhaustive — it
    only changes which tree proves them.
    """

    enabled: bool = False
    store_limit: int = 128
    max_literals: int = 8
    analysis_budget: int = 1500
    restarts: bool = True
    restart_base: int = 96
    max_restarts: int = 8
    activity_decay: float = 0.95
    guided_branching: bool = True

    def __post_init__(self) -> None:
        if self.store_limit < 1:
            raise ValueError(
                f"store_limit must be positive, got {self.store_limit}"
            )
        if self.max_literals < 1:
            raise ValueError(
                f"max_literals must be positive, got {self.max_literals}"
            )
        if self.analysis_budget < 0:
            raise ValueError(
                f"analysis_budget must be non-negative, got {self.analysis_budget}"
            )
        if self.restart_base < 1:
            raise ValueError(
                f"restart_base must be positive, got {self.restart_base}"
            )
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be non-negative, got {self.max_restarts}"
            )
        if not (0.0 < self.activity_decay <= 1.0):
            raise ValueError(
                f"activity_decay must be in (0, 1], got {self.activity_decay}"
            )


def luby(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence
    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ..."""
    if i < 1:
        raise ValueError(f"luby is defined for i >= 1, got {i}")
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


@dataclass
class Nogood:
    """One learned forbidden prefix (immutable literal set + bookkeeping)."""

    literals: Tuple[Literal, ...]
    activity: float = 0.0
    hits: int = 0

    def packed_masks(self, pair_bit) -> Optional[Tuple[int, int]]:
        """The literal set as ``(component_bits, comparability_bits)``.

        ``pair_bit`` is a kernel's ``[axis][u][v] -> bit`` table (see
        ``BitmaskEdgeStateModel.pair_tables``).  Computed once per nogood —
        the literal set is immutable — and cached on the instance; the
        cache is per-search because stores are.  Returns ``None`` for the
        degenerate case of contradictory literals on one pair, which the
        scalar matcher can never match or unit-force either.
        """
        try:
            return self._packed
        except AttributeError:
            pass
        comp_mask = 0
        cmpb_mask = 0
        for axis, u, v, value in self.literals:
            bit = pair_bit[axis][u][v]
            if value == COMPONENT:
                comp_mask |= bit
            else:
                cmpb_mask |= bit
        packed: Optional[Tuple[int, int]] = (comp_mask, cmpb_mask)
        if comp_mask & cmpb_mask:
            packed = None
        self._packed = packed
        return packed

    def to_dict(self) -> Dict[str, Any]:
        return {
            "literals": [list(lit) for lit in self.literals],
            "activity": self.activity,
            "hits": self.hits,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Nogood":
        return cls(
            literals=tuple(tuple(lit) for lit in data["literals"]),
            activity=data.get("activity", 0.0),
            hits=data.get("hits", 0),
        )


class NogoodStore:
    """A bounded, activity-managed collection of learned nogoods.

    Insertion order is preserved (it is the eviction tie-break and what
    makes serialization byte-identical across a round trip).  The store
    itself carries no run statistics — the search accounts for learning,
    pruning, and eviction on :class:`~repro.core.search.SearchStats`, so
    checkpoint-resumed slices never double-count.
    """

    def __init__(
        self, limit: int = 128, activity_decay: float = 0.95
    ) -> None:
        if limit < 1:
            raise ValueError(f"store limit must be positive, got {limit}")
        self.limit = limit
        self.activity_decay = activity_decay
        self.nogoods: List[Nogood] = []
        self._keys = set()
        self._inc = 1.0

    def __len__(self) -> int:
        return len(self.nogoods)

    def add(self, literals: Sequence[Literal]) -> Tuple[bool, int]:
        """Insert a nogood; returns ``(added, evicted_count)``.

        Duplicates (same literal set) are rejected; a full store evicts its
        lowest-activity entry (oldest wins ties) to make room.
        """
        key = frozenset(literals)
        if key in self._keys:
            return False, 0
        evicted = 0
        while len(self.nogoods) >= self.limit:
            victim_index = min(
                range(len(self.nogoods)),
                key=lambda i: self.nogoods[i].activity,
            )
            victim = self.nogoods.pop(victim_index)
            self._keys.discard(frozenset(victim.literals))
            evicted += 1
        self.nogoods.append(
            Nogood(literals=tuple(sorted(literals)), activity=self._inc)
        )
        self._keys.add(key)
        return True, evicted

    def bump(self, nogood: Nogood) -> None:
        """Reward a nogood that pruned or forced; decay everything else
        lazily by growing the increment (VSIDS-style)."""
        nogood.activity += self._inc
        nogood.hits += 1
        self._inc /= self.activity_decay
        if self._inc > 1e100:  # rescale before floats saturate
            for ng in self.nogoods:
                ng.activity *= 1e-100
            self._inc *= 1e-100

    def to_dict(self) -> Dict[str, Any]:
        return {
            "nogoods": [ng.to_dict() for ng in self.nogoods],
            "activity_inc": self._inc,
        }

    @classmethod
    def from_dict(
        cls,
        data: Dict[str, Any],
        limit: int = 128,
        activity_decay: float = 0.95,
    ) -> "NogoodStore":
        store = cls(limit=limit, activity_decay=activity_decay)
        for payload in data.get("nogoods", []):
            ng = Nogood.from_dict(payload)
            store.nogoods.append(ng)
            store._keys.add(frozenset(ng.literals))
        store._inc = data.get("activity_inc", 1.0)
        return store


@dataclass
class AnalysisOutcome:
    """What one conflict analysis produced (for accounting)."""

    literals: Optional[Tuple[Literal, ...]] = None
    replays: int = 0


class ConflictAnalyzer:
    """Replay-based extraction of minimal refutable decision prefixes.

    Each query rebuilds a fresh kernel (same instance, propagation options,
    and pre-assignments as the search), asserts a candidate literal set, and
    observes whether propagation refutes it.  Greedy deletion then shrinks a
    refuted prefix to an irreducible core.  The ``budget`` caps total
    replays per search; an exhausted analyzer silently stops learning (the
    store keeps filtering with what it has).
    """

    def __init__(
        self,
        instance: PackingInstance,
        propagation: Optional[PropagationOptions],
        kernel: str,
        pre_states: Sequence[Literal],
        pre_arcs: Sequence[Tuple[int, int, int]],
        budget: int,
        max_literals: int,
    ) -> None:
        self.instance = instance
        self.propagation = propagation
        self.kernel = kernel
        self.pre_states = list(pre_states)
        self.pre_arcs = list(pre_arcs)
        self.budget = budget
        self.max_literals = max_literals
        self.replays = 0

    def refutes(self, literals: Sequence[Literal]) -> bool:
        """True iff seeding + pre-assignments + ``literals`` conflict.

        This is the exact check the soundness suite replays independently:
        a stored nogood must refute on a fresh kernel with no search state.
        """
        self.replays += 1
        model = make_model(self.instance, self.propagation, self.kernel)
        try:
            model.seed()
            for axis, u, v, value in self.pre_states:
                model.assign_state(axis, u, v, value, propagate=False)
            for axis, a, b in self.pre_arcs:
                model.assign_arc(axis, a, b, propagate=False)
            if self.pre_states or self.pre_arcs:
                model.propagate()
            for axis, u, v, value in literals:
                model.assign_state(axis, u, v, value)
        except Conflict:
            return True
        return False

    def analyze(self, decisions: Sequence[Literal]) -> AnalysisOutcome:
        """Minimize a refuted decision prefix to an irreducible nogood.

        Returns an outcome whose ``literals`` is ``None`` when the prefix is
        not self-contained (the conflict depended on store forcings rather
        than propagation alone — learning it would be unsound), when the
        minimized core is still longer than ``max_literals``, or when the
        replay budget ran out mid-way with nothing verified.
        """
        before = self.replays
        if self.budget - self.replays <= 0:
            return AnalysisOutcome()
        # The prefix must refute on its own before any deletion is trusted:
        # during search, store forcings participate in conflicts, and those
        # are not reproduced by a plain replay.
        if not self.refutes(decisions):
            return AnalysisOutcome(replays=self.replays - before)
        core = list(decisions)
        # Drop oldest-first: early decisions are the least likely to matter
        # for a conflict detected deep in the tree.
        i = 0
        while i < len(core) and len(core) > 1:
            if self.budget - self.replays <= 0:
                break  # partially minimized cores are still valid nogoods
            trial = core[:i] + core[i + 1:]
            if self.refutes(trial):
                core = trial
            else:
                i += 1
        replays = self.replays - before
        if len(core) > self.max_literals:
            return AnalysisOutcome(replays=replays)
        return AnalysisOutcome(literals=tuple(sorted(core)), replays=replays)
