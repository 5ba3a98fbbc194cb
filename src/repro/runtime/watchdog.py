"""Per-instance watchdogs: wall-clock and memory limits for batch solves.

The solver's cooperative cancellation (``should_stop``, polled every 64
search nodes) is the enforcement mechanism; the watchdog is the policy.  A
:class:`Watchdog` is armed per instance and folded into the solve's
``should_stop``: the first limit it observes *trips* it permanently, the
solve unwinds with status ``"unknown"``, and the batch runtime converts the
trip reason into the instance's terminal state (``timed-out`` /
``memory-limited``) plus an incident record — while every other instance of
the batch proceeds normally.

Memory is observed as the process RSS via ``/proc/self/statm`` (falling
back to ``resource.getrusage`` high-water where /proc is unavailable, and
to "unenforced" where neither exists — the trip reason then says so).  The
probe is throttled to one read per poll interval, so the 64-node poll
cadence stays cheap.  The interval defaults to :data:`PROBE_INTERVAL`
(0.05 s — a /proc read every 50 ms is invisible next to search work) and
is configurable per watchdog (``Watchdog(..., poll_interval=...)``): a fast
allocation spike can blow through a memory limit and get the process
OOM-killed between two 50 ms probes, and a tightened interval is the knob
that catches it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..core.deadline import Deadline

#: Default seconds between memory probes (wall-clock checks are not
#: throttled); override per watchdog with ``poll_interval=``.
PROBE_INTERVAL = 0.05

TIME_TRIPPED = "wall-clock limit exceeded"
MEMORY_TRIPPED = "memory limit exceeded"
DEADLINE_TRIPPED = "end-to-end deadline exhausted"


_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def current_rss_bytes() -> Optional[int]:
    """Resident set size of this process, or ``None`` when unobservable."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(rss_kb) * 1024
    except (ImportError, ValueError, OSError):
        return None


@dataclass
class WatchdogLimits:
    """Per-instance resource budget (``None`` = unlimited)."""

    time_limit: Optional[float] = None
    memory_limit_mb: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError(
                f"time_limit must be positive, got {self.time_limit}"
            )
        if self.memory_limit_mb is not None and self.memory_limit_mb <= 0:
            raise ValueError(
                f"memory_limit_mb must be positive, got {self.memory_limit_mb}"
            )

    @property
    def unlimited(self) -> bool:
        return self.time_limit is None and self.memory_limit_mb is None


class Watchdog:
    """One instance's armed limits; sticky once tripped.

    ``clock`` and ``memory_probe`` are injectable for deterministic tests.
    ``tripped`` holds ``"timed-out"`` / ``"memory-limited"`` (the journal's
    terminal kinds) once a limit fires; ``detail`` the human reason.

    ``poll_interval`` is the memory-probe throttle in seconds (default
    :data:`PROBE_INTERVAL`).  Tighten it for workloads whose allocation
    spikes outrun the 50 ms default.
    """

    def __init__(
        self,
        limits: WatchdogLimits,
        clock: Callable[[], float] = time.monotonic,
        memory_probe: Callable[[], Optional[int]] = current_rss_bytes,
        poll_interval: float = PROBE_INTERVAL,
        deadline: Optional[Deadline] = None,
    ) -> None:
        if poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be positive, got {poll_interval}"
            )
        self.limits = limits
        #: A shared :class:`repro.core.deadline.Deadline`: the watchdog
        #: folds the request's end-to-end budget into the same sticky trip
        #: mechanism as its per-instance limits (terminal kind
        #: ``"deadline"``), so one ``should_stop`` hook enforces both.
        self.deadline = deadline
        self._clock = clock
        self._memory_probe = memory_probe
        self.poll_interval = poll_interval
        self.started = clock()
        self.tripped: Optional[str] = None
        self.detail: str = ""
        self._next_probe = self.started

    def remaining(self) -> Optional[float]:
        """Seconds left on the tightest wall-clock budget: the per-instance
        time limit, the end-to-end deadline's solver budget, or the minimum
        of both (``None`` = unlimited)."""
        left: Optional[float] = None
        if self.limits.time_limit is not None:
            left = max(
                0.0,
                self.limits.time_limit - (self._clock() - self.started),
            )
        if self.deadline is not None:
            budget = self.deadline.solver_budget()
            left = budget if left is None else min(left, budget)
        return left

    def check(self) -> Optional[str]:
        """Evaluate the limits; returns (and latches) the terminal kind."""
        if self.tripped is not None:
            return self.tripped
        now = self._clock()
        if self.deadline is not None and self.deadline.solver_budget() <= 0:
            self.tripped = "deadline"
            self.detail = (
                f"{DEADLINE_TRIPPED}: "
                f"{self.deadline.remaining() * 1000:.0f} ms remaining "
                f"< {self.deadline.margin * 1000:.0f} ms margin"
            )
            return self.tripped
        if (
            self.limits.time_limit is not None
            and now - self.started > self.limits.time_limit
        ):
            self.tripped = "timed-out"
            self.detail = (
                f"{TIME_TRIPPED}: {now - self.started:.3f}s > "
                f"{self.limits.time_limit}s"
            )
            return self.tripped
        if self.limits.memory_limit_mb is not None and now >= self._next_probe:
            self._next_probe = now + self.poll_interval
            rss = self._memory_probe()
            if rss is not None and rss > self.limits.memory_limit_mb * 1024 * 1024:
                self.tripped = "memory-limited"
                self.detail = (
                    f"{MEMORY_TRIPPED}: rss {rss / (1024 * 1024):.1f} MiB > "
                    f"{self.limits.memory_limit_mb} MiB"
                )
                return self.tripped
        return None

    def should_stop(self) -> bool:
        """The cooperative-cancellation hook handed to the solver."""
        return self.check() is not None
