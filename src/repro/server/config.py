"""Configuration of the serving front-end.

One :class:`ServerConfig` describes everything the server needs: the
dataset it answers over, the :class:`~repro.service.service
.PreferenceService` it evaluates through (method, backend, workers, cache
tiers), the coalescer's batch cap, and the admission limits.  The CLI
(:mod:`repro.server.cli`) builds one from flags; tests build them
directly over tiny datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ServerConfig:
    """Everything ``python -m repro serve`` (and the tests) configure.

    ``max_batch`` caps how many queued requests of one key go out as one
    batch when the worker frees (see DESIGN.md Section 11 for the batch
    semantics).  ``max_pending_per_client`` / ``max_pending_total`` bound
    the admission queues; overflow is answered with 429 + Retry-After
    rather than queued without bound.
    """

    host: str = "127.0.0.1"
    port: int = 8642
    # --- dataset -------------------------------------------------------
    dataset: str = "crowdrank"
    sessions: int = 50
    movies: int = 8
    seed: int = 7
    # --- evaluation ----------------------------------------------------
    method: str = "auto"
    backend: str = "thread"
    max_workers: "int | None" = None
    cache_capacity: int = 4096
    cache_db: "str | None" = None
    #: Shard the warm cache tier (repro.service.shard) this many ways;
    #: with cache_db the shards get per-shard write-back files.
    cache_shards: "int | None" = None
    #: host:port of a running ShardCacheServer this server joins as one
    #: worker of a fleet (excludes cache_db/cache_shards — the shard
    #: server owns topology and persistence).
    shard_address: "str | None" = None
    solver_options: dict = field(default_factory=dict)
    # --- coalescing ----------------------------------------------------
    max_batch: int = 64
    # --- admission -----------------------------------------------------
    max_pending_per_client: int = 32
    max_pending_total: int = 256
    # --- metrics -------------------------------------------------------
    latency_sample_size: int = 4096

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_pending_per_client < 1 or self.max_pending_total < 1:
            raise ValueError("admission limits must be >= 1")
        if self.cache_shards is not None and self.cache_shards < 1:
            raise ValueError("cache_shards must be >= 1")
        if self.shard_address is not None and (
            self.cache_db is not None or self.cache_shards is not None
        ):
            raise ValueError(
                "shard_address excludes cache_db/cache_shards; the shard "
                "server owns topology and persistence"
            )
        if self.dataset not in ("crowdrank", "polls"):
            raise ValueError(
                f"unknown dataset {self.dataset!r}; "
                "expected 'crowdrank' or 'polls'"
            )

    def build_database(self):
        """The database every request of this server answers over."""
        if self.dataset == "polls":
            from repro.db.examples import polling_example

            return polling_example()
        from repro.datasets.crowdrank import crowdrank_database

        return crowdrank_database(
            n_workers=self.sessions, n_movies=self.movies, seed=self.seed
        )

    def build_service(self):
        """The PreferenceService the coalesced batches evaluate through.

        The server's configured backend/max_workers become the service
        defaults, so the approximate-route parallelism warning of
        :func:`repro.api.evaluate.answer_many` fires for
        server-configured parallelism exactly as it does for directly
        constructed services.
        """
        from repro.service.service import PreferenceService

        return PreferenceService(
            cache_capacity=self.cache_capacity,
            method=self.method,
            max_workers=self.max_workers,
            backend=self.backend,
            cache_db=self.cache_db,
            cache_shards=self.cache_shards,
            shard_address=self.shard_address,
            **self.solver_options,
        )
