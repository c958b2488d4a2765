"""The serving layer: cache keys, caches, executors, batching.

Six pieces (see DESIGN.md, "The service layer" and "Executors,
persistence, planning"):

* :mod:`repro.service.keys` — canonical cache keys for (model, labeling,
  pattern-union) session solves: one digest string per solve, built on
  the ``freeze()`` hooks of the model and pattern classes and stored
  unchanged by every tier;
* :mod:`repro.service.cache` — :class:`SolverCache`, the one cache class:
  an LRU-with-flights front (:class:`~repro.service.cache.LRUStore`) over
  an ordered list of lower tiers, holding ``(probability, solver)`` pairs
  with hit/miss/eviction statistics and single-flight; the plan executor
  is the only code that solves through one (the ``cache=`` parameter of
  :func:`repro.api.answer`);
* :mod:`repro.service.persist` — the SQLite disk tier
  (:class:`PersistentCache`, ``[lru, disk]``), making warm state survive
  restarts;
* :mod:`repro.service.shard` — the sharded *shared* tier
  (:class:`ShardGroup` embedded, or :class:`ShardClient` attached to a
  :class:`ShardCacheServer`): warm state partitioned over canonical keys
  and served to a fleet of workers, with fleet-wide single-flight so N
  cold workers solve a hot key once;
* :mod:`repro.service.executors` — pluggable ``serial`` / ``thread`` /
  ``process`` execution backends over a plan's live solve nodes; only the
  process backend freezes them into picklable ``SolveTask`` descriptors;
* :mod:`repro.service.service` — :class:`PreferenceService`, the unified
  API (``answer`` / ``answer_many``) bound to one shared cache, which
  groups sessions across whole batches of requests and runs the distinct
  solves on the configured backend.

The solve cost model these batches are scheduled by lives with the
planner, in :mod:`repro.plan.cost`.

``PreferenceService`` is re-exported lazily: it imports the query API,
whose plan executor imports this package's cache at load time, so an
eager import of :mod:`repro.service.service` here would close an import
cycle.
"""

from repro.service.cache import CacheStats, SolverCache
from repro.service.executors import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    SolveTask,
    TaskOutcome,
    ThreadBackend,
    resolve_backend,
    run_solve_task,
    task_model_form,
)
from repro.service.keys import session_cache_key
from repro.service.persist import PersistentCache
from repro.service.shard import (
    ShardCacheServer,
    ShardClient,
    ShardGroup,
    shard_of,
)

__all__ = [
    "BACKENDS",
    "CacheStats",
    "ExecutionBackend",
    "PersistentCache",
    "ProcessBackend",
    "SerialBackend",
    "ShardCacheServer",
    "ShardClient",
    "ShardGroup",
    "SolveTask",
    "SolverCache",
    "TaskOutcome",
    "ThreadBackend",
    "shard_of",
    "resolve_backend",
    "run_solve_task",
    "task_model_form",
    "session_cache_key",
    "PreferenceService",
]


def __getattr__(name: str):
    if name == "PreferenceService":
        from repro.service.service import PreferenceService

        return PreferenceService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
