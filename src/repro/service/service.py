"""The batch serving layer: cross-query cached evaluation of preference queries.

:class:`PreferenceService` is the process-level entry point for repeated
query traffic (the ROADMAP's north star).  It owns one
:class:`~repro.service.cache.SolverCache` shared by every query it serves,
and generalizes the paper's within-query identical-request grouping
(Section 6.4) along two axes:

* **across queries** — session solves are keyed canonically
  (:mod:`repro.service.keys`), so a (model, labeling, union) triple solved
  for one query is reused by every later query, in the same batch or not;
* **across a batch** — :meth:`PreferenceService.answer_many` plans a
  whole batch as one query-plan DAG (:mod:`repro.plan`), lets the
  optimizer's common-solve elimination merge identical solves batch-wide,
  executes the surviving frontier on a configurable backend, and only then
  assembles per-request answers with cache/timing metadata;
* **across query kinds** — batches may mix the unified API's request
  kinds (:mod:`repro.api.requests`: Probability, Count, TopK, attribute
  Aggregate, as typed objects or prefixed text), and the elimination pass
  merges solves across kinds too — a Count and a Probability of the same
  query cost one solve.

:meth:`PreferenceService.answer` and :meth:`PreferenceService.answer_many`
are :func:`repro.api.answer` and :func:`repro.api.answer_many` bound to the
service's cache, method, backend, and solver options; they return the same
:class:`~repro.api.answer.Answer` / :class:`~repro.api.answer.BatchAnswer`
envelopes.

Distinct solves are an explicit, schedulable plan rather than an accident
of per-query iteration: the optimizer annotates every solve with the cost
model's DP state-count estimate (:mod:`repro.plan.cost`) and orders
the frontier largest-first, and a pluggable execution backend
(:mod:`repro.service.executors`) runs it — ``serial``, ``thread``, or
``process``, the last shipping picklable ``SolveTask`` descriptors to a
``ProcessPoolExecutor`` so the pure-Python exact DP solvers actually scale
across cores.  With ``cache_db=`` the
in-memory cache gains a SQLite tier (:mod:`repro.service.persist`), so warm
state survives restarts.  Sampling-method requests run through the batched
kernels of :mod:`repro.kernels` (DESIGN.md Section 7) by default.  See
DESIGN.md, "The service layer" and "Executors, persistence, planning".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.api.answer import Answer, BatchAnswer
from repro.api.evaluate import answer as api_answer
from repro.api.evaluate import answer_many as api_answer_many
from repro.api.requests import QueryRequest, as_request
from repro.db.database import PPDatabase
from repro.query.ast import ConjunctiveQuery
from repro.service.cache import SolverCache
from repro.service.executors import ExecutionBackend
from repro.service.persist import PersistentSolverCache
from repro.service.shard import ShardedSolverCache


class PreferenceService:
    """A cache-backed serving layer for repeated preference-query traffic.

    Parameters
    ----------
    cache_capacity:
        LRU capacity of the shared solver cache (ignored when an explicit
        ``cache`` is given).
    method:
        Default solver method for :meth:`answer` / :meth:`answer_many`.
    max_workers:
        Default worker-pool size for :meth:`answer_many`; ``None`` picks
        ``min(8, cpu_count)``, ``1`` forces serial execution.
    backend:
        Default execution backend for the distinct solves of a batch:
        ``"serial"``, ``"thread"`` (default), ``"process"``, or an
        :class:`~repro.service.executors.ExecutionBackend` instance.  The
        process backend is the one that scales the CPU-bound exact DP
        solves across cores.
    cache_db:
        Path of a SQLite file adding a persistent tier beneath the
        in-memory cache (:class:`~repro.service.persist
        .PersistentSolverCache`): solves are written through and survive
        process restarts.  Mutually exclusive with an explicit ``cache``.
        With ``cache_shards`` it becomes the *stem* of the per-shard
        write-back files instead.
    cache_shards:
        Shard the warm tier: the cache becomes a
        :class:`~repro.service.shard.ShardedSolverCache` with this many
        shards beneath the process-local LRU, partitioned over the
        canonical keys, with fleet-wide single-flight.  Combine with
        ``cache_db`` for per-shard SQLite write-back files.
    shard_address:
        ``host:port`` of a running
        :class:`~repro.service.shard.ShardCacheServer`: this service
        becomes one worker of a fleet sharing that warm tier.  The server
        owns the shard topology and persistence, so this is mutually
        exclusive with ``cache_db`` and ``cache_shards``.
    solver_options:
        Default options forwarded to every solve (e.g. ``time_budget=60``).

    Examples
    --------
    >>> from repro.db.examples import polling_example
    >>> service = PreferenceService(cache_capacity=128)
    >>> db = polling_example()
    >>> batch = service.answer_many(
    ...     ["P('Ann', '5/5'; 'Trump'; 'Clinton')"] * 2, db
    ... )
    >>> batch.n_distinct_solves  # the repeat is served by grouping
    1
    >>> 0.0 < batch.values[0] < 1.0
    True
    """

    def __init__(
        self,
        cache_capacity: int = 4096,
        method: str = "auto",
        max_workers: int | None = None,
        cache: SolverCache | None = None,
        backend: "str | ExecutionBackend" = "thread",
        cache_db: "str | None" = None,
        cache_shards: "int | None" = None,
        shard_address: "str | None" = None,
        **solver_options,
    ):
        sharded = cache_shards is not None or shard_address is not None
        if cache is not None and (cache_db is not None or sharded):
            raise ValueError(
                "pass either an explicit cache or cache tier knobs "
                "(cache_db/cache_shards/shard_address), not both"
            )
        if shard_address is not None and (
            cache_db is not None or cache_shards is not None
        ):
            raise ValueError(
                "an attached shard server owns topology and persistence; "
                "shard_address excludes cache_db/cache_shards"
            )
        if cache is not None:
            self.cache = cache
        elif shard_address is not None:
            self.cache = ShardedSolverCache(
                cache_capacity, address=shard_address
            )
        elif cache_shards is not None:
            self.cache = ShardedSolverCache(
                cache_capacity, n_shards=cache_shards, cache_db=cache_db
            )
        elif cache_db is not None:
            self.cache = PersistentSolverCache(cache_capacity, cache_db)
        else:
            self.cache = SolverCache(cache_capacity)
        self.method = method
        self.max_workers = max_workers
        self.backend = backend
        self.solver_options = solver_options

    def stats(self) -> dict[str, float]:
        """Current cache counters (hits, misses, evictions, hit_rate, ...).

        With a persistent tier (``cache_db=``) the disk counters
        (``disk_hits``, ``disk_misses``, ``disk_size``) are merged in.
        """
        stats = self.cache.stats().as_dict()
        tier_stats = getattr(self.cache, "tier_stats", None)
        if tier_stats is not None:
            stats.update(tier_stats())
        return stats

    def tier_depth(self) -> dict:
        """Structured per-tier depth beneath the LRU (``{}`` when untiered).

        ``{"disk": {...}}`` for a persistent cache; the per-shard payload
        (``n_shards`` / ``shards`` / ``totals``) for a sharded one.  The
        server's ``/stats`` endpoint nests this beside the flat counters.
        """
        tier_depth = getattr(self.cache, "tier_depth", None)
        return tier_depth() if tier_depth is not None else {}

    # ------------------------------------------------------------------
    # Single-request path
    # ------------------------------------------------------------------

    def answer(
        self,
        request,
        db: PPDatabase,
        method: str | None = None,
        rng: np.random.Generator | None = None,
        **overrides,
    ) -> Answer:
        """One typed request of any kind through the shared cache.

        Accepts a :class:`~repro.api.requests.QueryRequest`, a plain
        query, or request text in the extended grammar (``COUNT ...``,
        ``TOPK k ...``, ``AGG stat(R.col) ...``).
        """
        options = {**self.solver_options, **overrides}
        return api_answer(
            request,
            db,
            method=method or self.method,
            rng=rng,
            cache=self.cache,
            **options,
        )

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------

    def answer_many(
        self,
        requests: Sequence["QueryRequest | ConjunctiveQuery | str"],
        db: PPDatabase,
        method: str | None = None,
        max_workers: int | None = None,
        backend: "str | ExecutionBackend | None" = None,
        rng: np.random.Generator | None = None,
        session_limit: int | None = None,
        **overrides,
    ) -> BatchAnswer:
        """A mixed-kind batch through the shared cache and backend.

        Any mix of Probability / Count / TopK / Aggregate requests (objects,
        plain queries, or prefixed text) planned as one DAG, with
        common-solve elimination across sessions, queries, and kinds, and
        the distinct solves on the configured backend.  Sampling methods
        (``mis_amp_*``, ``rejection``) are rng-driven and non-cacheable, so
        they run sequentially per request (a parallelism request is then
        warned about, not silently ignored).  Returns a
        :class:`~repro.api.answer.BatchAnswer`.
        """
        options = {**self.solver_options, **overrides}
        batch = api_answer_many(
            [as_request(request) for request in requests],
            db,
            method=method or self.method,
            rng=rng,
            cache=self.cache,
            # Explicit and configured backends stay distinct so the
            # ignored-parallelism warning can tell them apart.
            backend=backend,
            default_backend=self.backend,
            max_workers=(
                max_workers if max_workers is not None else self.max_workers
            ),
            session_limit=session_limit,
            **options,
        )
        # Merge the persistent-tier counters the way stats() does.
        batch.cache_stats = self.stats()
        return batch

