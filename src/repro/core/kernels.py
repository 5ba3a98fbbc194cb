"""First-class kernel registry: every propagation engine is a named peer.

The search used to hardcode a ``KERNELS`` tuple; this module replaces it
with a registry so built-in engines (``bitmask``, ``reference``) and
third-party engines resolve through one surface:

* :func:`register` — add a kernel under a name (import-time call).
* :func:`resolve` — map a name (or a retired alias such as ``vector``)
  to the registered name; unknown names raise
  :class:`UnknownKernelError`, which auto-lists the registered names.
  Every site that validates a kernel name calls it.
* :func:`get` — resolve a name to its factory.
* :func:`available` — the registered names, in registration order.
* :func:`make_model` — instantiate a kernel for one instance (the seam
  used by :class:`~repro.core.search.BranchAndBound`).

The engine protocol
-------------------

A kernel factory takes ``(instance, options)`` — a
:class:`~repro.core.boxes.PackingInstance` and a
:class:`~repro.core.edgestate.PropagationOptions` (or ``None``) — and
returns an engine implementing :class:`EngineProtocol`: the mutable
search state the branch-and-bound drives.  The required surface is the
abstract methods of the ABC below plus four documented attributes:

``kernel_name``
    The registry name the engine answers to (``str``).
``state`` / ``orient``
    Nested ``[axis][u][v]`` arrays of edge states and arc orientations
    — the branching heuristics read these directly.
``stats``
    A :class:`~repro.core.edgestate.PropagationStats`.
``options``
    The :class:`~repro.core.edgestate.PropagationOptions` in force.

Engines must be *node-for-node identical* to the reference kernel:
same propagation fixpoints, same conflicts, same counter increments —
the differential suite (``tests/test_kernel_differential.py``) holds
every registered built-in to that bar, and checkpoints move freely
between kernels because of it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .boxes import PackingInstance
from .edgestate import EdgeStateModel, PropagationOptions

__all__ = [
    "EngineProtocol",
    "KernelFactory",
    "UnknownKernelError",
    "available",
    "available_kernels",
    "get",
    "get_kernel",
    "make_model",
    "register",
    "register_kernel",
    "resolve",
]

#: ``(instance, options) -> engine`` — the contract a registered kernel
#: factory fulfils.
KernelFactory = Callable[
    [PackingInstance, Optional[PropagationOptions]], "EngineProtocol"
]


class UnknownKernelError(ValueError):
    """A kernel name that is neither registered nor an alias."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown kernel {name!r}; expected one of {available()}"
        )
        self.kernel = name


_registry: Dict[str, KernelFactory] = {}

#: Retired kernel names and the registered kernel each now runs on, so
#: journals, wire requests and scripts that name them keep working.
#: ``vector`` was a separate engine until its algorithms were folded into
#: ``bitmask``.
_ALIASES = {"vector": "bitmask"}


def register(
    name: str, factory: KernelFactory, *, replace: bool = False
) -> None:
    """Register ``factory`` under ``name``.

    Re-registering an existing name raises unless ``replace=True``.
    """
    if not replace and name in _registry:
        raise ValueError(f"kernel {name!r} is already registered")
    _registry[name] = factory


def available() -> Tuple[str, ...]:
    """Registered kernel names, in registration order (aliases excluded)."""
    return tuple(_registry)


def resolve(name: str) -> str:
    """The registered kernel name ``name`` stands for.

    Registered names map to themselves and aliases to their target.
    Raises :class:`UnknownKernelError` (a :class:`ValueError`) for
    anything else, listing the names that would work.
    """
    if name in _registry:
        return name
    target = _ALIASES.get(name)
    if target is None or target not in _registry:
        raise UnknownKernelError(name)
    return target


def get(name: str) -> KernelFactory:
    """Resolve a kernel name (or alias) to its factory."""
    return _registry[resolve(name)]


def make_model(
    instance: PackingInstance,
    options: Optional[PropagationOptions] = None,
    kernel: str = "bitmask",
) -> "EngineProtocol":
    """Instantiate the requested search kernel for one instance."""
    return get(kernel)(instance, options)


class EngineProtocol(ABC):
    """The surface a propagation engine exposes to the search.

    The reference implementation is
    :class:`~repro.core.edgestate.EdgeStateModel` (registered as a
    virtual subclass); ``bitmask`` is a drop-in peer.
    See the module docstring for the documented attributes
    (``kernel_name``, ``state``, ``orient``, ``stats``, ``options``).
    """

    @abstractmethod
    def seed(self) -> None:
        """Initial propagation; raises ``Conflict`` on root infeasibility."""

    @abstractmethod
    def mark(self) -> int:
        """Snapshot the trail position for a later :meth:`rollback`."""

    @abstractmethod
    def rollback(self, mark: int) -> None:
        """Undo every assignment past ``mark`` (chronological backtrack)."""

    @abstractmethod
    def assign_state(
        self, axis: int, u: int, v: int, value: int, propagate: bool = True
    ) -> None:
        """Fix a pair's edge state and (optionally) propagate."""

    @abstractmethod
    def assign_arc(
        self, axis: int, a: int, b: int, propagate: bool = True
    ) -> None:
        """Fix orientation ``a -> b`` (implies COMPARABILITY)."""

    @abstractmethod
    def propagate(self) -> None:
        """Drain the propagation queue; raises ``Conflict`` on failure."""

    @abstractmethod
    def component_graph(self, axis: int):
        """The graph of fixed COMPONENT edges on one axis."""

    @abstractmethod
    def comparability_graph(self, axis: int):
        """The graph of fixed COMPARABILITY edges on one axis."""

    @abstractmethod
    def oriented_arcs(self, axis: int) -> List[Tuple[int, int]]:
        """All fixed arc orientations on one axis."""

    @abstractmethod
    def undecided(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over undecided ``(axis, u, v)`` triples."""

    @abstractmethod
    def is_complete(self) -> bool:
        """True iff every pair is decided on every axis."""


EngineProtocol.register(EdgeStateModel)


# -- built-in kernels ---------------------------------------------------------

def _reference_factory(
    instance: PackingInstance, options: Optional[PropagationOptions] = None
) -> EdgeStateModel:
    return EdgeStateModel(instance, options)


def _bitmask_factory(
    instance: PackingInstance, options: Optional[PropagationOptions] = None
) -> EdgeStateModel:
    from .bitmask import BitmaskEdgeStateModel

    return BitmaskEdgeStateModel(instance, options)


# Registration order is presentation order: production default first,
# then the oracle.
register("bitmask", _bitmask_factory)
register("reference", _reference_factory)

# Aliases for flat-namespace re-export (``from repro.core import ...``).
available_kernels = available
get_kernel = get
register_kernel = register
