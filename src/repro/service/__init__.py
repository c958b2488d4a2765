"""The serving layer: cache keys, caches, executors, batching.

Five pieces (see DESIGN.md, "The service layer" and "Executors,
persistence, planning"):

* :mod:`repro.service.keys` — canonical cache keys for (model, labeling,
  pattern-union) solve requests, built on the ``freeze()`` hooks of the
  model and pattern classes;
* :mod:`repro.service.cache` — a thread-safe LRU :class:`SolverCache` with
  hit/miss/eviction statistics, consumed by the solver dispatch and the
  plan executor (the ``cache=`` parameter of :func:`repro.api.answer`);
* :mod:`repro.service.persist` — the SQLite tier beneath the LRU
  (:class:`PersistentSolverCache`), making warm state survive restarts;
* :mod:`repro.service.shard` — the sharded *shared* tier
  (:class:`ShardedSolverCache`, :class:`ShardCacheServer`): warm state
  partitioned over canonical keys and served to a fleet of workers, with
  fleet-wide single-flight so N cold workers solve a hot key once;
* :mod:`repro.service.executors` — pluggable ``serial`` / ``thread`` /
  ``process`` execution backends over picklable ``SolveTask`` descriptors
  built from the canonical ``freeze()`` forms;
* :mod:`repro.service.service` — :class:`PreferenceService`, the unified
  API (``answer`` / ``answer_many``) bound to one shared cache, which
  groups sessions across whole batches of requests and runs the distinct
  solves on the configured backend.

The solve cost model these batches are scheduled by lives with the
planner, in :mod:`repro.plan.cost`.

``PreferenceService`` is re-exported lazily: the solver dispatch imports
:mod:`repro.service.keys` at load time, and an eager import of
:mod:`repro.service.service` here would close an import cycle back into
the solvers.
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
from repro.service.keys import freeze_model, session_cache_key, solve_cache_key
from repro.service.persist import PersistentCache, PersistentSolverCache
from repro.service.shard import (
    ShardCacheServer,
    ShardClient,
    ShardGroup,
    ShardedSolverCache,
    shard_of,
)

__all__ = [
    "BACKENDS",
    "CacheStats",
    "ExecutionBackend",
    "PersistentCache",
    "PersistentSolverCache",
    "ProcessBackend",
    "SerialBackend",
    "ShardCacheServer",
    "ShardClient",
    "ShardGroup",
    "ShardedSolverCache",
    "SolveTask",
    "SolverCache",
    "TaskOutcome",
    "ThreadBackend",
    "shard_of",
    "freeze_model",
    "resolve_backend",
    "run_solve_task",
    "task_model_form",
    "session_cache_key",
    "solve_cache_key",
    "PreferenceService",
]


def __getattr__(name: str):
    if name == "PreferenceService":
        from repro.service.service import PreferenceService

        return PreferenceService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
