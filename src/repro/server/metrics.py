"""Latency and coalescing metrics of the serving front-end.

The registry keeps two kinds of state:

* **latency reservoir** — the most recent ``sample_size`` request
  latencies (seconds, measured admission-to-response on the event loop);
  percentiles (p50/p95/p99) are computed nearest-rank over the sample on
  demand, so ``/stats`` is cheap and the memory bound is fixed;
* **counters** — requests by kind and outcome (answered / rejected /
  failed), coalesced batches with their planned/eliminated solve counts,
  and per-batch coalescing effect;
* **gauges** — registered providers evaluated at snapshot time, used by
  the app to surface state owned elsewhere (the service's cache-tier
  depth: disk hits/misses, per-shard hit/occupancy counters) without the
  registry holding a reference cycle or a stale copy.

The headline derived number is the **coalesce ratio**: coalesced requests
per planned batch.  Ratio 1.0 means every request was planned alone
(each found the worker idle, or ``max_batch=1``); anything above 1.0 is
traffic that queued behind a running batch and was merged, and
``n_solves_eliminated`` counts the solves the planner's common-solve
elimination then removed from live traffic.  See DESIGN.md
Section 11 for the metric definitions.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable


def percentile(sample: "list[float]", fraction: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0.0 when empty)."""
    if not sample:
        return 0.0
    ordered = sorted(sample)
    rank = max(0, min(len(ordered) - 1, round(fraction * len(ordered)) - 1))
    return ordered[rank]


class MetricsRegistry:
    """Thread-safe counters + latency reservoir behind ``/stats``."""

    def __init__(self, sample_size: int = 4096):
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=sample_size)
        self._n_requests = 0
        self._n_answered = 0
        self._n_rejected = 0
        self._n_failed = 0
        self._by_kind: dict[str, int] = {}
        self._n_batches = 0
        self._n_coalesced_requests = 0
        self._largest_batch = 0
        self._n_distinct_solves = 0
        self._n_solves_planned = 0
        self._n_solves_eliminated = 0
        self._batch_seconds = 0.0
        self._gauges: dict[str, Callable[[], object]] = {}

    def register_gauge(
        self, name: str, provider: "Callable[[], object]"
    ) -> None:
        """Attach a named provider evaluated on every :meth:`snapshot`.

        The provider returns any JSON-safe value (scalars or nested
        dicts); it is called *outside* the registry lock, so it may take
        its own locks (the cache tiers do).  A provider that raises is
        reported as ``{"error": ...}`` instead of breaking ``/stats``.
        """
        with self._lock:
            self._gauges[name] = provider

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------

    def observe_request(self, kind: str) -> None:
        """A request was admitted (before its outcome is known)."""
        with self._lock:
            self._n_requests += 1
            self._by_kind[kind] = self._by_kind.get(kind, 0) + 1

    def observe_answer(self, seconds: float) -> None:
        """A request was answered after ``seconds`` on the server."""
        with self._lock:
            self._n_answered += 1
            self._latencies.append(seconds)

    def observe_rejection(self) -> None:
        """A request was turned away by admission control (429)."""
        with self._lock:
            self._n_rejected += 1

    def observe_failure(self) -> None:
        """A request failed with an evaluation or protocol error."""
        with self._lock:
            self._n_failed += 1

    def observe_batch(
        self,
        n_requests: int,
        n_distinct_solves: int,
        n_solves_planned: int,
        n_solves_eliminated: int,
        seconds: float,
    ) -> None:
        """One coalesced batch was planned and executed."""
        with self._lock:
            self._n_batches += 1
            self._n_coalesced_requests += n_requests
            self._largest_batch = max(self._largest_batch, n_requests)
            self._n_distinct_solves += n_distinct_solves
            self._n_solves_planned += n_solves_planned
            self._n_solves_eliminated += n_solves_eliminated
            self._batch_seconds += seconds

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def coalesce_ratio(self) -> float:
        """Coalesced requests per batch (1.0 = request-at-a-time)."""
        with self._lock:
            if not self._n_batches:
                return 0.0
            return self._n_coalesced_requests / self._n_batches

    def snapshot(self) -> dict:
        """The JSON-safe ``/stats`` payload of this registry."""
        with self._lock:
            gauges = dict(self._gauges)
            sample = list(self._latencies)
            ratio = (
                self._n_coalesced_requests / self._n_batches
                if self._n_batches
                else 0.0
            )
            payload = {
                "requests": {
                    "total": self._n_requests,
                    "answered": self._n_answered,
                    "rejected": self._n_rejected,
                    "failed": self._n_failed,
                    "by_kind": dict(self._by_kind),
                },
                "latency_seconds": {
                    "count": len(sample),
                    "p50": percentile(sample, 0.50),
                    "p95": percentile(sample, 0.95),
                    "p99": percentile(sample, 0.99),
                    "mean": sum(sample) / len(sample) if sample else 0.0,
                    "max": max(sample) if sample else 0.0,
                },
                "coalescing": {
                    "n_batches": self._n_batches,
                    "n_coalesced_requests": self._n_coalesced_requests,
                    "coalesce_ratio": ratio,
                    "largest_batch": self._largest_batch,
                    "n_distinct_solves": self._n_distinct_solves,
                    "n_solves_planned": self._n_solves_planned,
                    "n_solves_eliminated": self._n_solves_eliminated,
                    "batch_seconds": self._batch_seconds,
                },
            }
        # Providers run outside the lock: they may take their own (cache
        # tier) locks, and a slow one must not block the counters.
        for name, provider in gauges.items():
            try:
                payload[name] = provider()
            except Exception as error:
                payload[name] = {"error": f"{type(error).__name__}: {error}"}
        return payload
