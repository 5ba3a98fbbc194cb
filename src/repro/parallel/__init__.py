"""Parallel solving: a racing solver portfolio and a canonical verdict cache.

* :mod:`repro.parallel.portfolio` — race diverse exact solver
  configurations on one instance across processes/threads, first conclusive
  answer wins, losers are cancelled cooperatively, stats merge; worker
  crashes are survived by rebuilding the pool under a bounded
  :class:`RetryPolicy`, degrading ``process`` → ``thread`` → ``serial``
  when pools keep failing;
* :mod:`repro.parallel.cache` — memoize conclusive OPP verdicts under a
  canonical instance form (box order, module names, and DAG presentation
  are normalized away), with an in-memory LRU and an optional checksummed
  on-disk JSON store that quarantines corrupt entries;
* :mod:`repro.parallel.faults` — deterministic, seeded fault injection
  (worker kills, propagation raises, stalls, cache corruption) driving the
  chaos test suite.
"""

from .cache import CacheStats, ResultCache, cache_key, canonical_form
from .faults import (
    NO_FAULTS,
    FaultPlan,
    corrupt_cache_entry,
    plan_from_env,
    resolve_plan,
)
from .portfolio import (
    PortfolioConfig,
    PortfolioResult,
    PortfolioSolver,
    RetryPolicy,
    default_portfolio,
)

__all__ = [
    "CacheStats",
    "ResultCache",
    "cache_key",
    "canonical_form",
    "NO_FAULTS",
    "FaultPlan",
    "corrupt_cache_entry",
    "plan_from_env",
    "resolve_plan",
    "PortfolioConfig",
    "PortfolioResult",
    "PortfolioSolver",
    "RetryPolicy",
    "default_portfolio",
]
