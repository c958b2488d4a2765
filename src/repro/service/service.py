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
(:mod:`repro.service.executors`) runs it — ``serial`` (the default),
``thread``, or ``process``, the last shipping picklable ``SolveTask``
descriptors to a ``ProcessPoolExecutor`` so the pure-Python exact DP
solvers actually scale across cores.  With ``cache_db=`` the cache's tier list gains the SQLite
disk tier (:mod:`repro.service.persist`), so warm state survives restarts.
Sampling-method requests run through the batched kernels of
:mod:`repro.kernels` (DESIGN.md Section 7) by default, and their solves
are cached like exact ones, under keys that include the caller's seed.

The service also keeps its optimized plans (``plans``, an
:class:`~repro.service.cache.LRUStore` of :data:`PLAN_MEMO_CAPACITY`
plans), keyed by the batch's requests, the method, the options,
``session_limit``, the seed, the database object and its generation: a
repeated request skips plan build and optimize and goes straight to its
cache lookups and terminals.  See DESIGN.md, "The service layer" and
"Executors, persistence, planning".
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.api.answer import Answer, BatchAnswer
from repro.api.evaluate import _answer, _answer_many, _optimized_plan
from repro.api.requests import QueryRequest, as_request
from repro.db.database import PPDatabase
from repro.plan.methods import check_option_names
from repro.plan.nodes import QueryPlan
from repro.query.ast import ConjunctiveQuery
from repro.service.cache import LRUStore, SolverCache, Tier
from repro.service.executors import ExecutionBackend
from repro.service.persist import PersistentCache
from repro.service.shard import ShardClient, ShardGroup

#: Optimized plans a service keeps: the serve corpus, the largest
#: repeated working set measured, has 32 distinct requests.
PLAN_MEMO_CAPACITY = 64


class PreferenceService:
    """A cache-backed serving layer for repeated preference-query traffic.

    Parameters
    ----------
    cache_capacity:
        LRU capacity of the shared solver cache's front (ignored when an
        explicit ``cache`` is given).
    method:
        Default solver method for :meth:`answer` / :meth:`answer_many`.
    max_workers:
        Default worker-pool size of a ``thread`` or ``process`` backend
        in :meth:`answer_many`; ``None`` picks ``min(8, cpu_count)``,
        ``1`` solves in-process.  The serial default ignores it.
    backend:
        Default execution backend for the distinct solves of a batch:
        ``"serial"``, ``"thread"``, ``"process"``, an
        :class:`~repro.service.executors.ExecutionBackend` instance, or
        ``None`` (default) for
        :func:`~repro.service.executors.resolve_backend`'s default,
        serial.  The exact DP solvers hold the GIL, so a thread pool
        only passes it around; the process backend is the one that
        scales them across cores.
    cache_db:
        Path of a SQLite file: the cache becomes ``[lru, disk]`` with a
        :class:`~repro.service.persist.PersistentCache` beneath the front,
        so solves are written through and survive process restarts.
        Mutually exclusive with an explicit ``cache``.  With
        ``cache_shards`` it becomes the *stem* of the per-shard write-back
        files instead.
    cache_shards:
        Shard the warm tier: the cache becomes ``[lru, shard-group]``
        with a :class:`~repro.service.shard.ShardGroup` of this many
        shards beneath the front, partitioned over the canonical keys,
        with single-flight on the shards.  Combine with ``cache_db`` for
        per-shard SQLite write-back files.
    shard_address:
        ``host:port`` of a running
        :class:`~repro.service.shard.ShardCacheServer`: the cache becomes
        ``[lru, shard-client]`` and this service one worker of a fleet
        sharing that warm tier.  The server owns the shard topology and
        persistence, so this is mutually exclusive with ``cache_db`` and
        ``cache_shards``.
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
        backend: "str | ExecutionBackend | None" = None,
        cache_db: "str | None" = None,
        cache_shards: "int | None" = None,
        shard_address: "str | None" = None,
        **solver_options: Any,
    ) -> None:
        check_option_names(solver_options)
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
        if cache is None:
            tiers: list[Tier] = []
            if shard_address is not None:
                tiers.append(ShardClient(shard_address))
            elif cache_shards is not None:
                tiers.append(
                    ShardGroup(cache_shards, cache_capacity, cache_db)
                )
            elif cache_db is not None:
                tiers.append(PersistentCache(cache_db))
            cache = SolverCache(cache_capacity, tiers)
        self.cache = cache
        #: The optimized plans of this service's requests (module
        #: docstring); ``/stats`` reports its counters under ``plans``.
        self.plans = LRUStore(PLAN_MEMO_CAPACITY)
        self.method = method
        self.max_workers = max_workers
        self.backend = backend
        self.solver_options = solver_options

    def stats(self) -> dict[str, float]:
        """Current cache counters (hits, misses, evictions, hit_rate, ...).

        The front's counters, plus the flat ``disk_*`` / ``shard_*``
        counters of the lower tiers (:func:`_flat_tier_stats`).
        """
        stats = self.cache.stats().as_dict()
        stats.update(_flat_tier_stats(self.cache.tier_depth()))
        return stats

    def tier_depth(self) -> dict[str, Any]:
        """Structured per-tier depth beneath the front (``{}`` when untiered).

        ``{"disk": {...}}`` for a disk tier; the per-shard payload
        (``n_shards`` / ``shards`` / ``totals``) for a shard tier.  The
        server's ``/stats`` endpoint nests this beside the flat counters.
        """
        return self.cache.tier_depth()

    # ------------------------------------------------------------------
    # Single-request path
    # ------------------------------------------------------------------

    def answer(
        self,
        request: "QueryRequest | ConjunctiveQuery | str",
        db: PPDatabase,
        method: str | None = None,
        seed: int = 0,
        **overrides: Any,
    ) -> Answer:
        """One typed request of any kind through the shared cache.

        Accepts a :class:`~repro.api.requests.QueryRequest`, a plain
        query, or request text in the extended grammar (``COUNT ...``,
        ``TOPK k ...``, ``AGG stat(R.col) ...``).  ``seed`` is
        :func:`repro.api.answer`'s.
        """
        options = {**self.solver_options, **overrides}
        return _answer(
            request,
            db,
            method=method or self.method,
            seed=seed,
            cache=self.cache,
            plans=self.plans,
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
        seed: int = 0,
        session_limit: int | None = None,
        **overrides: Any,
    ) -> BatchAnswer:
        """A mixed-kind batch through the shared cache and backend.

        Any mix of Probability / Count / TopK / Aggregate requests (objects,
        plain queries, or prefixed text) planned as one DAG, with
        common-solve elimination across sessions, queries, and kinds, and
        the distinct solves on the configured backend; sampled solves too
        (``seed`` is :func:`repro.api.answer_many`'s).  Returns a
        :class:`~repro.api.answer.BatchAnswer`.
        """
        options = {**self.solver_options, **overrides}
        batch = _answer_many(
            [as_request(request) for request in requests],
            db,
            method=method or self.method,
            seed=seed,
            cache=self.cache,
            # A per-call backend overrides the configured one.
            backend=backend if backend is not None else self.backend,
            max_workers=(
                max_workers if max_workers is not None else self.max_workers
            ),
            session_limit=session_limit,
            plans=self.plans,
            **options,
        )
        # Merge the persistent-tier counters the way stats() does.
        batch.cache_stats = self.stats()
        return batch

    def plan(
        self,
        requests: Sequence["QueryRequest | ConjunctiveQuery | str"],
        db: PPDatabase,
        method: str | None = None,
        session_limit: int | None = None,
        **overrides: Any,
    ) -> QueryPlan:
        """The optimized plan :meth:`answer_many` runs for this batch,
        from (and into) the plan memo, not executed: what ``/explain``
        renders."""
        return _optimized_plan(
            [as_request(request) for request in requests],
            db,
            method or self.method,
            {**self.solver_options, **overrides},
            True,
            session_limit,
            canonical=True,
            plans=self.plans,
        )


def _flat_tier_stats(depth: dict[str, Any]) -> dict[str, float]:
    """The flat ``disk_*`` / ``shard_*`` counters of a :meth:`tier_depth`:
    a shard tier's totals become ``shard_*`` (its files' stay ``disk_*``)."""
    flat: dict[str, float] = dict(depth.get("disk", {}))
    if "totals" in depth:
        totals = depth["totals"]
        flat["n_shards"] = depth["n_shards"]
        for name in ("hits", "misses", "evictions", "invalidations", "size"):
            flat[f"shard_{name}"] = totals.get(name, 0.0)
        flat.update(
            (name, count) for name, count in totals.items()
            if name.startswith("disk_")
        )
    return flat
