"""Bitmask search kernel: the reference propagation engine, word-parallel.

:class:`BitmaskEdgeStateModel` re-implements the hot path of
:class:`~repro.core.edgestate.EdgeStateModel` on packed integer bitsets.
For every axis and every box ``v`` it maintains

* ``_comp[axis][v]`` — neighbors of ``v`` in the component graph ``G_i``,
* ``_cmpb[axis][v]`` — neighbors in the comparability graph ``Ḡ_i``,
* ``_undec[axis][v]`` — pairs still undecided,
* ``_succ[axis][v]`` / ``_pred[axis][v]`` — oriented comparability arcs
  (seeded from the transitive closure of the precedence DAG, so the
  closure masks are available to every implication for free),

each as one Python integer with bit ``u`` meaning "pair ``{u, v}``".  The
paper's propagation rules then become mask algebra:

* **D1 / D2 implications** — e.g. after a new component edge ``{u, v}``
  the pivots of a path implication are exactly
  ``_cmpb[u] & _cmpb[v]``, and the subset that is already oriented toward
  the pair is ``(pivots & (_pred[u] | _pred[v]))`` — one AND/OR replaces a
  Python loop over all boxes.  Every target mask is pre-masked with the
  arcs already oriented the forced way: forcing such an arc is a complete
  no-op (no counter, trail or queue entry), so dropping it up front
  changes nothing but the number of Python calls.
* **C4 chordality filter** — the candidate ``x`` / ``y`` roles of each
  forbidden 4-cycle pattern are mask intersections of component /
  comparability / undecided neighborhoods; conflicts and one-edge-short
  forcings fall out of non-empty intersections.
* **C5 odd-cycle obstruction by degree partition** — candidate vertices
  must be decided against both endpoints (one AND).  In a completed
  obstruction every vertex has comparability degree exactly 2, which pins
  each remaining cycle vertex to one of the masks ``cmpb[u]``-only,
  ``cmpb[v]``-only, both or neither; detection is a two-level loop over
  those (usually tiny) masks instead of an enumeration of all decided
  triples.
* **C2 / Helly area rules (incremental bounds)** — per-vertex neighbor
  weight sums (comparability-neighbor widths for the strip rule,
  component-neighbor cross-sections for the volume rule) are maintained
  *by delta* on every assignment and rollback.  A clique through a new
  edge can never outweigh ``w_u + w_v + min(S_u − w_v, S_v − w_u)``, so
  most checks are answered by two additions instead of a clique search;
  the exact bitset clique search runs only when the cheap bound cannot
  exclude an overflow, and sums candidate weights one *byte* at a time
  through per-axis 256-entry lookup tables.

The kernel is *semantically identical* to the reference: the rule set is
monotone, every rule instance is re-examined whenever one of its premises
is newly derived, and contradictory derivations raise
:class:`~repro.core.edgestate.Conflict` under either engine.  Both engines
therefore compute the same propagation fixpoint and fail the same
assignments, which makes the search trees — and the explored node counts —
exactly equal.  The differential suite (``tests/test_kernel_differential``)
asserts this on hundreds of seeded instances; the reference kernel stays
around as the testing oracle (``kernel="reference"``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..graphs.graph import Graph
from .boxes import PackingInstance
from .edgestate import (
    COMPARABILITY,
    COMPONENT,
    UNDECIDED,
    Conflict,
    EdgeStateModel,
    PropagationOptions,
    STATE_NAMES,
)

try:  # Python >= 3.10
    _popcount = int.bit_count  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - exercised on 3.9 CI only
    def _popcount(x: int) -> int:
        return bin(x).count("1")


def _weight_luts(weights: List[int]) -> List[List[int]]:
    """Per-byte weight tables: ``lut[j][b]`` sums the byte-``j`` bits of ``b``.

    Built by doubling: adding bit ``k`` appends a shifted copy of the
    table, so entry ``b`` holds the weights of exactly the bits of ``b``.
    """
    luts = []
    for j in range(0, len(weights), 8):
        table = [0]
        for w in weights[j : j + 8]:
            table += [x + w for x in table]
        luts.append(table)
    return luts


class BitmaskEdgeStateModel(EdgeStateModel):
    """Drop-in :class:`EdgeStateModel` with bitset-accelerated propagation.

    The nested ``state`` / ``orient`` arrays of the reference are kept in
    sync (two list stores per assignment) so the branching heuristics of
    :mod:`repro.core.search` read the exact same structures under either
    kernel; everything *inside* propagation runs on the masks.
    """

    kernel_name = "bitmask"

    def __init__(
        self,
        instance: PackingInstance,
        options: Optional[PropagationOptions] = None,
    ) -> None:
        super().__init__(instance, options)
        n, d = self.n, self.d
        self._full = (1 << n) - 1
        self._comp = [[0] * n for _ in range(d)]
        self._cmpb = [[0] * n for _ in range(d)]
        self._undec = [
            [self._full & ~(1 << v) for v in range(n)] for _ in range(d)
        ]
        self._succ = [[0] * n for _ in range(d)]
        self._pred = [[0] * n for _ in range(d)]
        # Incrementally maintained neighbor weight sums (see module doc).
        self._ksum = [[0] * n for _ in range(d)]
        self._csum = [[0] * n for _ in range(d)]
        # Byte LUTs are built per axis on the first exact clique search —
        # small solves that never leave the slack fast-path skip the cost.
        self._wlut: List[Optional[List[List[int]]]] = [None] * d
        self._clut: List[Optional[List[List[int]]]] = [None] * d

    # -- trail ---------------------------------------------------------------

    def rollback(self, mark: int) -> None:
        while len(self.trail) > mark:
            kind, axis, u, v = self.trail.pop()
            bu, bv = 1 << u, 1 << v
            if kind == "s":
                if self.state[axis][u][v] == COMPONENT:
                    self._comp[axis][u] &= ~bv
                    self._comp[axis][v] &= ~bu
                    cw = self.cross_weights[axis]
                    self._csum[axis][u] -= cw[v]
                    self._csum[axis][v] -= cw[u]
                else:
                    self._cmpb[axis][u] &= ~bv
                    self._cmpb[axis][v] &= ~bu
                    w = self.widths[axis]
                    self._ksum[axis][u] -= w[v]
                    self._ksum[axis][v] -= w[u]
                self._undec[axis][u] |= bv
                self._undec[axis][v] |= bu
                self.state[axis][u][v] = UNDECIDED
                self.state[axis][v][u] = UNDECIDED
            else:
                self.orient[axis][u][v] = 0
                self.orient[axis][v][u] = 0
                self._succ[axis][u] &= ~bv
                self._pred[axis][v] &= ~bu
        self.queue.clear()

    # -- primitive assignments -----------------------------------------------

    def _set_state(self, axis: int, u: int, v: int, value: int) -> None:
        cur = self.state[axis][u][v]
        if cur == value:
            return
        if cur != UNDECIDED:
            self.stats.conflicts += 1
            raise Conflict(
                f"pair ({u},{v}) axis {axis}: already {STATE_NAMES[cur]}, "
                f"cannot become {STATE_NAMES[value]}"
            )
        self.state[axis][u][v] = value
        self.state[axis][v][u] = value
        bu, bv = 1 << u, 1 << v
        self._undec[axis][u] &= ~bv
        self._undec[axis][v] &= ~bu
        if value == COMPONENT:
            self._comp[axis][u] |= bv
            self._comp[axis][v] |= bu
            cw = self.cross_weights[axis]
            self._csum[axis][u] += cw[v]
            self._csum[axis][v] += cw[u]
        else:
            self._cmpb[axis][u] |= bv
            self._cmpb[axis][v] |= bu
            w = self.widths[axis]
            self._ksum[axis][u] += w[v]
            self._ksum[axis][v] += w[u]
        self.trail.append(("s", axis, u, v))
        self.stats.state_assignments += 1
        self.queue.append(("state", axis, u, v))

    def _set_arc(self, axis: int, a: int, b: int) -> None:
        st = self.state[axis][a][b]
        if st == COMPONENT:
            self.stats.conflicts += 1
            raise Conflict(
                f"transitivity conflict: arc {a}->{b} forced on a component "
                f"edge (axis {axis})"
            )
        if st == UNDECIDED:
            self._set_state(axis, a, b, COMPARABILITY)
        ba, bb = 1 << a, 1 << b
        if self._succ[axis][a] & bb:
            return
        if self._pred[axis][a] & bb:
            self.stats.conflicts += 1
            raise Conflict(
                f"path conflict: edge ({a},{b}) axis {axis} forced both ways"
            )
        self.orient[axis][a][b] = 1
        self.orient[axis][b][a] = -1
        self._succ[axis][a] |= bb
        self._pred[axis][b] |= ba
        self.trail.append(("o", axis, a, b))
        self.stats.arc_assignments += 1
        self.queue.append(("arc", axis, a, b))

    # -- propagation handlers --------------------------------------------------

    def _after_component(self, axis: int, u: int, v: int) -> None:
        self._check_c3(u, v)
        if self.options.check_area:
            self._check_area(axis, u, v)
        if self.options.check_c4:
            self._c4_after_component(axis, u, v)
        if self.options.check_c5:
            self._check_c5_patterns(axis, u, v)
        if self.options.implications:
            cmpb = self._cmpb[axis]
            pivots = cmpb[u] & cmpb[v]
            if pivots:
                pred, succ = self._pred[axis], self._succ[axis]
                fwd = pivots & (pred[u] | pred[v])
                # Pivots already oriented toward both endpoints would make
                # both force calls no-ops; mask them out up front.
                m = fwd & ~(pred[u] & pred[v])
                while m:
                    bit = m & -m
                    a = bit.bit_length() - 1
                    m ^= bit
                    self._force_arc(axis, a, u)
                    self._force_arc(axis, a, v)
                m = pivots & (succ[u] | succ[v]) & ~fwd
                m &= ~(succ[u] & succ[v])
                while m:
                    bit = m & -m
                    a = bit.bit_length() - 1
                    m ^= bit
                    self._force_arc(axis, u, a)
                    self._force_arc(axis, v, a)

    def _after_comparability(self, axis: int, u: int, v: int) -> None:
        if self.options.check_c2:
            self._check_c2(axis, u, v)
        if self.options.check_c4:
            self._c4_after_comparability(axis, u, v)
        if self.options.check_c5:
            self._check_c5_patterns(axis, u, v)
        if (
            axis == self.time_axis
            and self.options.symmetry_breaking
            and (min(u, v), max(u, v)) in self.symmetric_pairs
        ):
            a, b = self.symmetric_pairs[(min(u, v), max(u, v))]
            self._force_arc(axis, a, b)
        if self.options.implications:
            comp, cmpb = self._comp[axis], self._cmpb[axis]
            pred, succ = self._pred[axis], self._succ[axis]
            m = cmpb[u] & comp[v]
            if m & succ[u]:
                self._force_arc(axis, u, v)
            if m & pred[u]:
                self._force_arc(axis, v, u)
            m = cmpb[v] & comp[u]
            if m & succ[v]:
                self._force_arc(axis, v, u)
            if m & pred[v]:
                self._force_arc(axis, u, v)

    def _after_arc(self, axis: int, a: int, b: int) -> None:
        if not self.options.implications:
            return
        comp, cmpb = self._comp[axis], self._cmpb[axis]
        succ_a = self._succ[axis][a]
        pred_b = self._pred[axis][b]
        # D1 with pivot a / pivot b, then D2 through predecessors of a and
        # successors of b, minus members whose forced arc is already
        # oriented the forced way (complete no-ops: no counter, no trail,
        # no queue).  Overlap between the sets costs nothing for the same
        # reason.
        targets = (
            (cmpb[a] & comp[b] & ~succ_a, True),   # a -> c
            (cmpb[b] & comp[a] & ~pred_b, False),  # c -> b
            (self._pred[axis][a] & ~pred_b, False),  # c -> a -> b
            (self._succ[axis][b] & ~succ_a, True),   # a -> b -> c
        )
        for mask, from_a in targets:
            m = mask
            while m:
                bit = m & -m
                c = bit.bit_length() - 1
                m ^= bit
                if from_a:
                    self._force_arc(axis, a, c)
                else:
                    self._force_arc(axis, c, b)

    # -- C2 / area rules with incremental bounds -------------------------------

    def _check_c2(self, axis: int, u: int, v: int) -> None:
        self.stats.c2_clique_checks += 1
        weights = self.widths[axis]
        cap = self.sizes[axis]
        base = weights[u] + weights[v]
        slack_u = self._ksum[axis][u] - weights[v]
        slack_v = self._ksum[axis][v] - weights[u]
        if base + (slack_u if slack_u < slack_v else slack_v) <= cap:
            return
        cmpb = self._cmpb[axis]
        lut = self._wlut[axis]
        if lut is None:
            lut = self._wlut[axis] = _weight_luts(weights)
        if self._clique_exceeds(
            cmpb, weights, lut, cmpb[u] & cmpb[v], cap - base
        ):
            self.stats.conflicts += 1
            raise Conflict(
                f"C2 violated on axis {axis}: comparability clique through "
                f"({u},{v}) exceeds width {cap}"
            )

    def _check_area(self, axis: int, u: int, v: int) -> None:
        weights = self.cross_weights[axis]
        cap = self.cross_capacity[axis]
        base = weights[u] + weights[v]
        slack_u = self._csum[axis][u] - weights[v]
        slack_v = self._csum[axis][v] - weights[u]
        if base + (slack_u if slack_u < slack_v else slack_v) <= cap:
            return
        comp = self._comp[axis]
        lut = self._clut[axis]
        if lut is None:
            lut = self._clut[axis] = _weight_luts(weights)
        if self._clique_exceeds(
            comp, weights, lut, comp[u] & comp[v], cap - base
        ):
            self.stats.conflicts += 1
            raise Conflict(
                f"cross-section overflow on axis {axis}: component clique "
                f"through ({u},{v}) exceeds capacity {cap}"
            )

    @staticmethod
    def _clique_exceeds(
        adj: List[int],
        weights: List[int],
        lut: List[List[int]],
        candidates: int,
        budget: int,
    ) -> bool:
        """True iff some clique inside ``candidates`` outweighs ``budget``.

        Members must be pairwise adjacent under ``adj`` (the candidate set
        is already restricted to a common neighborhood by the caller).
        Early exit on the first witness; the remaining-weight bound, summed
        a byte at a time through ``lut``, prunes subtrees that cannot
        reach the budget.
        """
        if budget < 0:
            return True

        def rec(cand: int, acc: int) -> bool:
            if acc > budget:
                return True
            rest = 0
            m = cand
            j = 0
            while m:
                byte = m & 255
                if byte:
                    rest += lut[j][byte]
                m >>= 8
                j += 1
            if acc + rest <= budget:
                return False
            m = cand
            while m:
                bit = m & -m
                w = bit.bit_length() - 1
                m ^= bit
                cand ^= bit
                if rec(cand & adj[w], acc + weights[w]):
                    return True
            return False

        return rec(candidates, 0)

    # -- C4 chordality filter ---------------------------------------------------

    def _check_c4_patterns(self, axis: int, u: int, v: int) -> None:
        # Kept for API parity with the reference; dispatch on the pair's
        # freshly assigned state (the other patterns are inert for it).
        if self.state[axis][u][v] == COMPARABILITY:
            self._c4_after_comparability(axis, u, v)
        else:
            self._c4_after_component(axis, u, v)

    def _c4_after_comparability(self, axis: int, u: int, v: int) -> None:
        """Pattern A: {u, v} is a diagonal; cycle u-x-v-y of component edges
        with the second diagonal {x, y} comparability."""
        comp, cmpb = self._comp[axis], self._cmpb[axis]
        undec, state = self._undec[axis], self.state[axis]
        full = comp[u] & comp[v]
        semi = (comp[u] & undec[v]) | (undec[u] & comp[v])
        m = full
        while m:
            bit = m & -m
            x = bit.bit_length() - 1
            m ^= bit
            if cmpb[x] & full:
                self.stats.conflicts += 1
                raise Conflict(
                    f"induced C4 of component edges on axis {axis}"
                )
            # Second diagonal undecided: force it to break the pattern.
            rest = undec[x] & full & ~((bit << 1) - 1)
            while rest:
                b2 = rest & -rest
                y = b2.bit_length() - 1
                rest ^= b2
                self._force_state(axis, x, y, COMPONENT)
            # One cycle edge short: force it comparability.
            cand = cmpb[x] & semi
            while cand:
                b2 = cand & -cand
                y = b2.bit_length() - 1
                cand ^= b2
                if state[u][y] == UNDECIDED:
                    self._force_state(axis, u, y, COMPARABILITY)
                elif state[v][y] == UNDECIDED:
                    self._force_state(axis, v, y, COMPARABILITY)

    def _c4_after_component(self, axis: int, u: int, v: int) -> None:
        """Patterns B/C: {u, v} is a cycle edge.  Ordered roles: x carries
        cycle edge {v, x} and diagonal {u, x}; y carries cycle edge {y, u}
        and diagonal {v, y}; {x, y} is the remaining cycle edge."""
        comp, cmpb = self._comp[axis], self._cmpb[axis]
        undec = self._undec[axis]
        x_full = comp[v] & cmpb[u]
        y_full = comp[u] & cmpb[v]
        y_miss_cycle = undec[u] & cmpb[v]
        y_miss_diag = comp[u] & undec[v]
        m = x_full
        while m:
            bit = m & -m
            x = bit.bit_length() - 1
            m ^= bit
            comp_x = comp[x]
            if comp_x & y_full:
                self.stats.conflicts += 1
                raise Conflict(
                    f"induced C4 of component edges on axis {axis}"
                )
            rest = undec[x] & y_full
            while rest:
                b2 = rest & -rest
                y = b2.bit_length() - 1
                rest ^= b2
                self._force_state(axis, x, y, COMPARABILITY)
            rest = comp_x & y_miss_cycle
            while rest:
                b2 = rest & -rest
                y = b2.bit_length() - 1
                rest ^= b2
                self._force_state(axis, u, y, COMPARABILITY)
            rest = comp_x & y_miss_diag
            while rest:
                b2 = rest & -rest
                y = b2.bit_length() - 1
                rest ^= b2
                self._force_state(axis, v, y, COMPONENT)
        m = undec[v] & cmpb[u]  # cycle edge {v, x} missing
        while m:
            bit = m & -m
            x = bit.bit_length() - 1
            m ^= bit
            if comp[x] & y_full:
                self._force_state(axis, v, x, COMPARABILITY)
        m = comp[v] & undec[u]  # diagonal {u, x} missing
        while m:
            bit = m & -m
            x = bit.bit_length() - 1
            m ^= bit
            if comp[x] & y_full:
                self._force_state(axis, u, x, COMPONENT)

    # -- C5 odd-cycle obstruction ------------------------------------------------

    def _check_c5_patterns(self, axis: int, u: int, v: int) -> None:
        """Detect a completed 5-vertex obstruction through the pair.

        Rather than enumerating all decided triples of the shared
        neighborhood and testing five degree conditions per triple, the
        degree conditions are baked into the candidate *sets*: in a
        witness group every vertex has comparability degree exactly 2,
        which pins where the remaining three vertices must sit relative
        to ``cmpb[u]`` / ``cmpb[v]``.  With ``{u, v}`` a comparability
        edge the cycle is ``u-b-m-c-v-u`` (``b`` adjacent to ``u`` only,
        ``c`` to ``v`` only, ``m`` to neither); with ``{u, v}`` a
        component edge it is ``u-a-v-b-c-u`` (``a`` adjacent to both,
        ``b`` to ``v`` only, ``c`` to ``u`` only).  Either case is a
        two-level loop over far smaller masks than the triple
        enumeration, and a witness exists in one formulation iff it
        exists in the other, so the conflicts match the reference.
        """
        comp, cmpb = self._comp[axis], self._cmpb[axis]
        shared = (comp[u] | cmpb[u]) & (comp[v] | cmpb[v])
        if _popcount(shared) < 3:
            return
        cu, cv = cmpb[u], cmpb[v]
        if cu & (1 << v):
            only_u = shared & cu & ~cv
            only_v = shared & cv & ~cu
            if not (only_u and only_v):
                return
            neither = shared & ~cu & ~cv
            if not neither:
                return
            m = only_u
            while m:
                bb = m & -m
                b = bb.bit_length() - 1
                m ^= bb
                mids = neither & cmpb[b]
                if not mids:
                    continue
                comp_b = comp[b]
                while mids:
                    bm = mids & -mids
                    mid = bm.bit_length() - 1
                    mids ^= bm
                    cc = only_v & cmpb[mid] & comp_b
                    if cc:
                        c = (cc & -cc).bit_length() - 1
                        self.stats.conflicts += 1
                        raise Conflict(
                            f"odd-cycle obstruction (C5) on axis {axis}: "
                            f"{sorted((u, v, b, mid, c))}"
                        )
        else:
            both = shared & cu & cv
            if not both:
                return
            only_u = shared & cu & ~cv
            only_v = shared & cv & ~cu
            if not (only_u and only_v):
                return
            m = both
            while m:
                ba = m & -m
                a = ba.bit_length() - 1
                m ^= ba
                comp_a = comp[a]
                bs = only_v & comp_a
                cs = only_u & comp_a
                if not (bs and cs):
                    continue
                while bs:
                    bb = bs & -bs
                    b = bb.bit_length() - 1
                    bs ^= bb
                    cc = cs & cmpb[b]
                    if cc:
                        c = (cc & -cc).bit_length() - 1
                        self.stats.conflicts += 1
                        raise Conflict(
                            f"odd-cycle obstruction (C5) on axis {axis}: "
                            f"{sorted((u, v, a, b, c))}"
                        )

    # -- views --------------------------------------------------------------------

    def component_graph(self, axis: int) -> Graph:
        return self._graph_from_masks(self._comp[axis])

    def comparability_graph(self, axis: int) -> Graph:
        return self._graph_from_masks(self._cmpb[axis])

    def component_masks(self, axis: int) -> List[int]:
        """Component adjacency as per-vertex bitmasks — a live, read-only
        view (do not mutate).  Lets the leaf verifier skip Graph objects."""
        return self._comp[axis]

    def comparability_masks(self, axis: int) -> List[int]:
        """Comparability adjacency as per-vertex bitmasks (read-only)."""
        return self._cmpb[axis]

    def _graph_from_masks(self, masks: List[int]) -> Graph:
        g = Graph(self.n)
        adj = g.adj
        for u in range(self.n):
            m = masks[u]
            members = adj[u]
            while m:
                bit = m & -m
                members.add(bit.bit_length() - 1)
                m ^= bit
        return g

    def oriented_arcs(self, axis: int) -> List[Tuple[int, int]]:
        out = []
        succ = self._succ[axis]
        for a in range(self.n):
            m = succ[a]
            while m:
                bit = m & -m
                out.append((a, bit.bit_length() - 1))
                m ^= bit
        return out
