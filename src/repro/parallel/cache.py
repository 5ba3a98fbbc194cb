"""Canonical instance forms and a verdict cache for OPP decisions.

The optimization drivers (BMP/SPP/Pareto sweeps) re-solve the *same* OPP
decision many times: the Pareto sweep probes the chip side that the floor
computation already settled, ``python -m repro report`` runs Table 1 and
Figure 7 over the same (side, deadline) grid, and request-serving workloads
repeat queries verbatim.  A verdict (``sat``/``unsat``) is a property of the
instance alone — every solver configuration is exact — so conclusive answers
can be memoized safely.

Keys are computed on a **canonical form** of the instance, so a cache hit
does not require byte-identical input:

* box *names* are ignored (relabeling modules does not change the packing);
* box *order* is normalized by a canonical labeling (sorting by widths,
  refined against the precedence structure with an
  individualization-refinement step for symmetric ties);
* the precedence DAG is replaced by its transitive closure (a reduced and a
  closed DAG constrain the packing identically) and relabeled accordingly;
* the time axis index is normalized modulo the dimension count.

SAT entries store the witness placement in canonical label space; a hit maps
it back through the query's own labeling and re-validates it geometrically
before returning, so a corrupted store can never produce a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.boxes import PackingInstance, Placement
from ..core.opp import SAT, UNSAT, OPPResult

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Canonical labeling
# ---------------------------------------------------------------------------


def _refine(
    colors: List[int], succ: List[List[int]], pred: List[List[int]]
) -> List[int]:
    """Iterated partition refinement (1-dimensional Weisfeiler-Leman).

    A vertex's new color combines its old color with the multisets of its
    predecessor and successor colors; colors are re-numbered by sorted
    signature, which preserves the old color order (so boxes stay sorted by
    widths) and is independent of the input labeling.
    """
    n = len(colors)
    while True:
        signatures = [
            (
                colors[v],
                tuple(sorted(colors[w] for w in succ[v])),
                tuple(sorted(colors[w] for w in pred[v])),
            )
            for v in range(n)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(signatures)))}
        refined = [ranking[s] for s in signatures]
        if refined == colors:
            return colors
        colors = refined


def _canonical_order(instance: PackingInstance) -> List[int]:
    """A canonical permutation of the box indices: position ``i`` of the
    canonical form holds original box ``order[i]``.

    Boxes are sorted by widths; ties are broken by the precedence structure
    (transitive closure) via refinement, and remaining symmetric ties that
    touch precedence arcs are resolved by individualization-refinement,
    keeping the lexicographically smallest arc encoding.  The result is
    invariant under permuting boxes and renaming them.
    """
    n = instance.n
    if n == 0:
        return []
    widths = [b.widths for b in instance.boxes]
    closure = instance.closed_precedence()
    if closure is None or closure.arc_count() == 0:
        return sorted(range(n), key=lambda v: widths[v])

    succ = [sorted(closure.succ[v]) for v in range(n)]
    pred = [sorted(closure.pred[v]) for v in range(n)]
    touched = [bool(succ[v]) or bool(pred[v]) for v in range(n)]
    width_rank = {w: i for i, w in enumerate(sorted(set(widths)))}
    initial = [width_rank[widths[v]] for v in range(n)]

    best: Optional[Tuple[Tuple[Tuple[int, int], ...], List[int]]] = None

    def order_from_colors(colors: List[int]) -> List[int]:
        # Within a color class the vertices are indistinguishable to the
        # encoding (identical widths, and — when the class was not worth
        # individualizing — no incident arcs), so input order is fine.
        return sorted(range(n), key=lambda v: (colors[v], v))

    def encode(order: List[int]) -> Tuple[Tuple[int, int], ...]:
        position = {v: i for i, v in enumerate(order)}
        return tuple(
            sorted((position[u], position[v]) for u in range(n) for v in succ[u])
        )

    def search(colors: List[int]) -> None:
        nonlocal best
        colors = _refine(colors, succ, pred)
        classes: Dict[int, List[int]] = {}
        for v in range(n):
            classes.setdefault(colors[v], []).append(v)
        target: Optional[List[int]] = None
        for color in sorted(classes):
            members = classes[color]
            if len(members) <= 1 or not any(touched[v] for v in members):
                continue
            # Twins — identical widths and identical closure neighborhoods —
            # are interchangeable in the sorted arc encoding, so they need no
            # individualization (this keeps k parallel identical tasks from
            # costing k! branches).
            first = members[0]
            if all(
                closure.succ[v] == closure.succ[first]
                and closure.pred[v] == closure.pred[first]
                for v in members[1:]
            ):
                continue
            target = members
            break
        if target is None:
            order = order_from_colors(colors)
            candidate = (encode(order), order)
            if best is None or candidate[0] < best[0]:
                best = candidate
            return
        fresh = max(colors) + 1
        for v in target:
            search([fresh if u == v else c for u, c in enumerate(colors)])

    search(initial)
    assert best is not None
    return best[1]


def canonical_form(
    instance: PackingInstance, order: Optional[List[int]] = None
) -> Dict[str, Any]:
    """The canonical plain-dict encoding of an instance (see module doc)."""
    if order is None:
        order = _canonical_order(instance)
    position = {v: i for i, v in enumerate(order)}
    closure = instance.closed_precedence()
    arcs: List[List[int]] = []
    if closure is not None:
        arcs = sorted([position[u], position[v]] for u, v in closure.arcs())
    return {
        "container": list(instance.container.sizes),
        "time_axis": instance.time_axis % instance.dimensions,
        "boxes": [list(instance.boxes[v].widths) for v in order],
        "precedence": arcs,
    }


def _key_of_form(form: Dict[str, Any]) -> str:
    encoded = json.dumps(form, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def cache_key(instance: PackingInstance) -> str:
    """A collision-resistant hex key for the canonical form."""
    return _key_of_form(canonical_form(instance))


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    quarantined: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """In-memory LRU of conclusive OPP verdicts, optionally disk-backed.

    ``disk_path`` names a directory holding one JSON file per canonical key,
    written atomically, so a cache outlives the process and can be shared
    between runs.  Invalidation is by deleting the directory (entries never
    go stale on their own: verdicts are exact instance properties).

    Disk entries carry a SHA-256 checksum over their canonical payload
    encoding.  An entry that fails verification — wrong checksum, truncated
    or unparseable JSON, or a pre-checksum legacy format — is *quarantined*:
    moved aside into ``<disk_path>/quarantine/`` for post-mortem, counted in
    ``stats.quarantined``, logged, and treated as a miss so the verdict is
    recomputed.  Corruption therefore costs one re-solve, never a wrong or
    crashing answer.

    The quarantine directory itself is bounded: it keeps at most
    ``quarantine_capacity`` files, evicting the oldest (by modification
    time) beyond the cap, so sustained corruption — a failing disk, a
    repeatedly-poisoned shared cache — cannot grow it without limit.

    The cache is **thread-safe**: lookups, stores, and the LRU bookkeeping
    run under one reentrant lock, so a single instance can serve as the
    service daemon's shared cross-request (and cross-tenant) memo with
    solves executing on a thread pool.  Canonicalization — the expensive
    part of a key — happens outside the lock.
    """

    def __init__(
        self,
        capacity: int = 4096,
        disk_path: Optional[str] = None,
        quarantine_capacity: int = 256,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        if quarantine_capacity < 1:
            raise ValueError("quarantine capacity must be positive")
        self.capacity = capacity
        self.quarantine_capacity = quarantine_capacity
        self.disk_path = disk_path
        self.stats = CacheStats()
        self._telemetry: Optional[Any] = None
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.RLock()
        if disk_path is not None:
            os.makedirs(disk_path, exist_ok=True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def instrument(self, telemetry: Any) -> "ResultCache":
        """Mirror this cache's lifecycle counters (stores, evictions,
        quarantines) into a :class:`repro.telemetry.Telemetry` registry.

        Hit/miss counts are deliberately *not* mirrored here: the lookup
        sites (``solve_opp``, the portfolio) count them against their own
        telemetry, and counting in both places would double-book.
        """
        self._telemetry = telemetry if telemetry and telemetry.enabled else None
        return self

    def _count(self, metric: str) -> None:
        if self._telemetry is not None:
            self._telemetry.counter(metric).add()

    # -- lookup ------------------------------------------------------------

    def key(self, instance: PackingInstance) -> str:
        """The canonical cache key of an instance — identical for any two
        isomorphism-equivalent instances.  Exposed so callers (the service's
        single-flight dedup) can coordinate on canonical identity without
        touching cache internals."""
        return self._key_for_order(instance, _canonical_order(instance))

    def get(self, instance: PackingInstance) -> Optional[OPPResult]:
        order = _canonical_order(instance)
        key = self._key_for_order(instance, order)
        with self._lock:
            entry = self._load(key)
            if entry is None:
                self.stats.misses += 1
                return None
            result = self._decode(instance, order, entry)
            if result is None:
                # A mapped-back witness that fails validation means the store
                # is corrupt (or the canonical form logic regressed); drop the
                # entry rather than serve it.
                self._drop(key)
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return result

    def put(self, instance: PackingInstance, result: OPPResult) -> None:
        if result.status not in (SAT, UNSAT):
            return  # inconclusive outcomes depend on budgets; never cache
        if result.status == SAT and result.placement is None:
            return
        order = _canonical_order(instance)
        key = self._key_for_order(instance, order)
        entry: Dict[str, Any] = {
            "status": result.status,
            "certificate": result.certificate,
            "positions": None,
        }
        if result.status == SAT:
            entry["positions"] = [
                list(result.placement.positions[v]) for v in order
            ]
        with self._lock:
            self._store(key, entry)
            self.stats.stores += 1
        self._count("cache.stores")

    # -- internals ---------------------------------------------------------

    def _key_for_order(
        self, instance: PackingInstance, order: List[int]
    ) -> str:
        return _key_of_form(canonical_form(instance, order))

    def _decode(
        self, instance: PackingInstance, order: List[int], entry: Dict[str, Any]
    ) -> Optional[OPPResult]:
        if entry["status"] == UNSAT:
            return OPPResult(
                status=UNSAT, certificate=entry.get("certificate"), stage="cache"
            )
        canonical_positions = entry.get("positions")
        if canonical_positions is None or len(canonical_positions) != instance.n:
            return None
        positions: List[Tuple[int, ...]] = [()] * instance.n
        for i, pos in enumerate(canonical_positions):
            positions[order[i]] = tuple(pos)
        placement = Placement(instance, positions)
        if not placement.is_feasible():
            return None
        return OPPResult(status=SAT, placement=placement, stage="cache")

    def _load(self, key: str) -> Optional[Dict[str, Any]]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        if self.disk_path is None:
            return None
        path = os.path.join(self.disk_path, f"{key}.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError:
            return None
        except ValueError:
            self._quarantine(path, "unparseable JSON")
            return None
        entry = self._verified_payload(raw)
        if entry is None:
            self._quarantine(path, "checksum mismatch or unknown format")
            return None
        self._remember(key, entry)
        return entry

    @staticmethod
    def _payload_checksum(payload: Dict[str, Any]) -> str:
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    @classmethod
    def _verified_payload(cls, raw: Any) -> Optional[Dict[str, Any]]:
        """The entry payload iff ``raw`` is a well-formed v2 envelope whose
        checksum matches; anything else (including legacy unchecksummed
        entries) is indistinguishable from corruption and rejected."""
        if not isinstance(raw, dict) or raw.get("v") != 2:
            return None
        payload = raw.get("payload")
        if not isinstance(payload, dict):
            return None
        if raw.get("sha256") != cls._payload_checksum(payload):
            return None
        return payload

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a bad entry aside (never serve it, never silently lose the
        evidence) and count it; deletion is the fallback when the move
        itself fails."""
        dest_dir = os.path.join(self.disk_path, "quarantine")
        dest = os.path.join(dest_dir, os.path.basename(path))
        try:
            os.makedirs(dest_dir, exist_ok=True)
            os.replace(path, dest)
            self._trim_quarantine(dest_dir)
            _log.warning(
                "quarantined corrupt cache entry %s (%s) -> %s",
                path, reason, dest,
            )
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
            _log.warning(
                "dropped corrupt cache entry %s (%s); quarantine move failed",
                path, reason,
            )
        self.stats.quarantined += 1
        self._count("cache.quarantined")

    def _trim_quarantine(self, dest_dir: str) -> None:
        """LRU-evict quarantined files beyond ``quarantine_capacity`` (the
        oldest post-mortem evidence goes first)."""
        try:
            names = os.listdir(dest_dir)
        except OSError:
            return
        excess = len(names) - self.quarantine_capacity
        if excess <= 0:
            return
        aged = []
        for name in names:
            full = os.path.join(dest_dir, name)
            try:
                aged.append((os.path.getmtime(full), full))
            except OSError:
                continue
        aged.sort()
        for _, full in aged[:excess]:
            try:
                os.unlink(full)
            except OSError:
                continue
            self.stats.evictions += 1
            self._count("cache.quarantine_evictions")

    def _store(self, key: str, entry: Dict[str, Any]) -> None:
        self._remember(key, entry)
        if self.disk_path is None:
            return
        envelope = {
            "v": 2,
            "sha256": self._payload_checksum(entry),
            "payload": entry,
        }
        path = os.path.join(self.disk_path, f"{key}.json")
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, path)
        except OSError:
            # A read-only or full disk degrades to memory-only caching.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _remember(self, key: str, entry: Dict[str, Any]) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._count("cache.evictions")

    def _drop(self, key: str) -> None:
        self._entries.pop(key, None)
        if self.disk_path is not None:
            try:
                os.unlink(os.path.join(self.disk_path, f"{key}.json"))
            except OSError:
                pass
