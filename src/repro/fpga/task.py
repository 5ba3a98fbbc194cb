"""Tasks: instantiations of hardware modules.

A task is one node of the problem graph — an operation that must run on a
module of a given type.  Tasks of the same module type share their shape
but are distinct boxes in the packing (the paper's DE benchmark has six
separate multiplications, each a 16×16×2 box).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.boxes import Box
from .module_library import ModuleType


@dataclass(frozen=True)
class Task:
    """One operation bound to a module type."""

    name: str
    module: ModuleType
    #: The task's space-time box, built once: tasks and module types are
    #: immutable, so every packing instance of the graph shares it.
    _box: Box = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tasks need a non-empty name")
        object.__setattr__(self, "_box", self.module.box(instance_name=self.name))

    @property
    def width(self) -> int:
        return self.module.width

    @property
    def height(self) -> int:
        return self.module.height

    @property
    def duration(self) -> int:
        return self.module.total_time

    def box(self) -> Box:
        return self._box

    def __str__(self) -> str:
        return f"{self.name}:{self.module.name}"
