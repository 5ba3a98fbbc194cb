"""Portable subtree descriptors for the distributed tree search.

A subtree of one branch-and-bound tree is described by its decision prefix
(:class:`repro.core.search.SplitTask`): because the branching and value
heuristics are deterministic functions of the model state, the prefix alone
reproduces the subtree on any host running the same configuration.  This
module wraps the core splitter's output with what the work queue needs —
stable task ids, the serial DFS order, and a content digest that ties each
descriptor to its search fingerprint so worker attestations can be checked
against the task they claim to have solved.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.boxes import PackingInstance
from ..core.search import BranchAndBound, SplitResult


def prefix_digest(
    prefix: List[Tuple[int, int, int, int]], fingerprint: str
) -> str:
    """Content address of a subtree: its prefix under its search identity.

    Workers echo this digest in their UNSAT attestations; a claim whose
    digest does not match the task it answers is refuted before its verdict
    is even looked at.
    """
    payload = {
        "fingerprint": fingerprint,
        "prefix": [list(d) for d in prefix],
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass
class SubtreeTask:
    """One unit of distributable work: a subtree plus its queue identity.

    ``order_index`` is the task's position in serial DFS order (0-based);
    the deterministic merge folds accepted claims in exactly this order,
    and the SAT horizon broadcast is expressed in it.
    """

    task_id: str
    prefix: List[Tuple[int, int, int, int]] = field(default_factory=list)
    order_key: Tuple[int, ...] = ()
    order_index: int = 0
    digest: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "task_id": self.task_id,
            "prefix": [list(d) for d in self.prefix],
            "order_key": list(self.order_key),
            "order_index": self.order_index,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SubtreeTask":
        return cls(
            task_id=data["task_id"],
            prefix=[tuple(d) for d in data.get("prefix", [])],
            order_key=tuple(data.get("order_key", [])),
            order_index=data.get("order_index", 0),
            digest=data.get("digest", ""),
        )


def split_instance(
    instance: PackingInstance,
    *,
    target: int,
    propagation: Optional[Any] = None,
    branching: Optional[Any] = None,
    kernel: str = "bitmask",
) -> Tuple[SplitResult, List[SubtreeTask]]:
    """Split an instance's search tree into ``>= target`` subtree tasks.

    Runs the core frontier splitter and wraps its frontier in queue-ready
    :class:`SubtreeTask` descriptors, ordered by serial DFS position.
    """
    solver = BranchAndBound(
        instance,
        propagation=propagation,
        branching=branching,
        kernel=kernel,
    )
    result = solver.split(target)
    tasks = [
        SubtreeTask(
            task_id=f"t{index:04d}",
            prefix=[tuple(d) for d in task.prefix],
            order_key=tuple(task.order_key),
            order_index=index,
            digest=prefix_digest(task.prefix, result.fingerprint),
        )
        for index, task in enumerate(result.tasks)
    ]
    return result, tasks
