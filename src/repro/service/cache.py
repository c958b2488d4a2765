"""The solver cache: one LRU-with-flights store in front of a list of tiers.

The cache is deliberately dumb: a bounded, thread-safe mapping from
canonical key strings (:mod:`repro.service.keys`) to one value type, the
``(probability, solver_name)`` pair of a session solve (or of a top-k
upper bound, whose solver is ``"upper_bound"``).  All the
intelligence lives in the keys — semantically identical requests collide
there, so one :class:`SolverCache` shared across queries turns the
paper's within-query identical-request grouping (Section 6.4) into
cross-query reuse.  The plan executor (:mod:`repro.plan.execute`) is the
only code that solves through a cache: it looks each cold node up once,
claims it, and publishes what it solved in one ``put_many``.

:class:`LRUStore` is the one store: a bounded LRU with per-key *flights*
(the first to miss a key claims it, later ones wait for its value).  Every
cache configuration is a :class:`SolverCache` — an ``LRUStore`` front over
an ordered list of lower tiers: ``[lru]``, ``[lru, disk]``
(:mod:`repro.service.persist`), ``[lru, shard-group]`` or ``[lru,
shard-client]`` (:mod:`repro.service.shard`).  Every tier stores the
same key string, passed through unchanged; every configuration accepts
the same values.  See DESIGN.md, "The service layer".
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Hashable,
    Iterable,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.service.persist import Value, is_bound, persistable

#: Seconds a waiter blocks on another solver's in-flight key before it
#: solves locally: a hung flight costs a duplicate solve, never a wedge.
FLIGHT_TIMEOUT = 60.0

_MISSING: Any = object()


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of cache counters.

    The plan-level counters (``n_solves_planned``, ``n_solves_eliminated``,
    ``n_passes_applied``) accumulate what the query planner
    (:mod:`repro.plan`) reported through :meth:`SolverCache.record_plan`:
    how many per-session solves the plans built against this cache
    contained, how many the optimizer's common-solve elimination merged
    away before any solver ran, and how many optimizer passes were applied
    in total.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    n_solves_planned: int = 0
    n_solves_eliminated: int = 0
    n_passes_applied: int = 0
    #: Entries dropped by targeted :meth:`SolverCache.invalidate` calls
    #: (the streaming layer retiring solves of expired/updated sessions) —
    #: distinct from capacity ``evictions`` and whole-store ``clear``.
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)``; 0.0 before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
            "n_solves_planned": self.n_solves_planned,
            "n_solves_eliminated": self.n_solves_eliminated,
            "n_passes_applied": self.n_passes_applied,
            "invalidations": self.invalidations,
        }


class LRUStore:
    """A bounded, thread-safe LRU map with per-key single-flight.

    ``get`` updates recency and the hit/miss counters; ``claim`` /
    ``wait`` / ``release`` are flight operations and count nothing (a
    claim follows a ``get`` miss that was already counted).  A flight
    resolves when its key is stored (``put_many``), released, or the
    store is cleared; each wakes the flight's waiters.

    A value the ``cold`` predicate accepts enters at the cold end, not
    the recent one.  The solver cache's stores pass :func:`~repro.service
    .persist.is_bound`: a top-k upper bound costs a fraction of a solve,
    so it never pushes a solve out.  It stays while the store has room,
    and a lookup that reads it makes it recent like any entry.  Keys are
    the digest strings of :mod:`repro.service.keys` in every cache tier;
    a :class:`~repro.service.service.PreferenceService`'s plan memo keys
    by any hashable value.
    """

    def __init__(
        self, capacity: int, cold: Callable[[Any], bool] | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._cold = cold
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._flights: dict[Hashable, threading.Event] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The stored value (marking it most recently used), or ``default``."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def peek(self, key: Hashable) -> Any:
        """The stored value (marking it most recently used) or ``None``,
        counting neither a hit nor a miss."""
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put_many(self, items: Iterable[tuple[Hashable, Any]]) -> None:
        """Store a batch and resolve its keys' flights under ONE lock
        acquisition, evicting the least recently used beyond capacity."""
        items = list(items)
        flights: list[threading.Event] = []
        cold = self._cold
        with self._lock:
            for key, value in items:
                self._data[key] = value
                self._data.move_to_end(
                    key, last=cold is None or not cold(value)
                )
                flight = self._flights.pop(key, None)
                if flight is not None:
                    flights.append(flight)
            overflow = len(self._data) - self._capacity
            for _ in range(overflow):
                self._data.popitem(last=False)
            if overflow > 0:
                self._evictions += overflow
        for flight in flights:
            flight.set()

    def claim(self, key: Hashable) -> tuple[str, Any]:
        """Atomically: ``("value", v)``, or ``("claimed", None)`` — the
        caller owns the flight and must ``put_many`` or ``release`` it — or
        ``("wait", None)`` when another caller owns it."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING:
                self._data.move_to_end(key)
                return ("value", value)
            if key in self._flights:
                return ("wait", None)
            self._flights[key] = threading.Event()
            return ("claimed", None)

    def wait(self, key: Hashable, timeout: float) -> Any:
        """Block until the key's flight resolves (or ``timeout`` passes);
        the stored value, or ``None`` when none arrived."""
        with self._lock:
            flight = self._flights.get(key)
        if flight is not None and not flight.wait(timeout):
            return None
        return self.peek(key)

    def release(self, key: Hashable) -> None:
        """Resolve the key's flight without a value, waking its waiters."""
        with self._lock:
            flight = self._flights.pop(key, None)
        if flight is not None:
            flight.set()

    def invalidate(self, keys: Iterable[Hashable]) -> int:
        """Drop exactly ``keys``; returns how many were present.  Flights
        are left alone: content-addressed keys cannot go stale."""
        with self._lock:
            dropped = 0
            for key in keys:
                if self._data.pop(key, _MISSING) is not _MISSING:
                    dropped += 1
            self._invalidations += dropped
            return dropped

    def clear(self) -> None:
        """Drop every entry and flight, waking all waiters (counters kept)."""
        with self._lock:
            self._data.clear()
            flights = list(self._flights.values())
            self._flights.clear()
        for flight in flights:
            flight.set()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "size": len(self._data),
                "capacity": self._capacity,
                "in_flight": len(self._flights),
            }


@runtime_checkable
class Tier(Protocol):
    """A lower tier beneath the front, keyed by the front's own key
    strings; ``stats()`` is its entry in :meth:`SolverCache.tier_depth`."""

    def get(self, key: str) -> Value | None:
        ...
    def put_many(self, pairs: Iterable[tuple[str, Value]]) -> None:
        ...
    def invalidate(self, keys: Iterable[str]) -> int:
        ...
    def clear(self) -> None:
        ...
    def stats(self) -> dict[str, Any]:
        ...
    def close(self) -> None:
        ...


@runtime_checkable
class SharedTier(Tier, Protocol):
    """A lower tier that also carries flights: single-flight across every
    cache attached to it (the shard tier)."""

    def claim(self, key: str) -> tuple[str, Value | None]:
        ...
    def wait(self, key: str, timeout: float) -> Value | None:
        ...
    def release(self, key: str) -> None:
        ...


class SolverCache:
    """A thread-safe LRU front over an ordered list of lower ``tiers``.

    Every tier holds one value type: the ``(probability, solver_name)``
    pair of a session solve, stored by the plan executor under
    :func:`~repro.service.keys.session_cache_key` keys, or of a top-k
    upper bound, under :func:`~repro.service.keys.bound_cache_key` keys;
    every tier stores the same key string.  :meth:`stats` counts the
    front (a tier-served ``get`` is a front miss), :meth:`tier_depth` the
    tiers; ``__contains__`` and ``__len__`` are side-effect-free front
    peeks.

    ``tiers`` holds at most one private tier (a disk file) and one
    :class:`SharedTier`, in lookup order — e.g. ``[disk, shard-client]``
    for a fleet worker that keeps its own warm file.
    """

    def __init__(
        self, capacity: int = 4096, tiers: Sequence[Tier] = ()
    ) -> None:
        self._front = LRUStore(capacity, cold=is_bound)
        self._tiers = tuple(tiers)
        shared = [tier for tier in self._tiers if isinstance(tier, SharedTier)]
        if len(shared) > 1 or len(self._tiers) - len(shared) > 1:
            raise ValueError(
                "a cache stacks at most one private and one shared tier, "
                f"got {self._tiers!r}"
            )
        #: The tier that carries flights, when there is one; otherwise
        #: flights live on the front.
        self._shared = shared[0] if shared else None
        self._lock = threading.Lock()
        self._n_solves_planned = 0
        self._n_solves_eliminated = 0
        self._n_passes_applied = 0

    @property
    def capacity(self) -> int:
        return self._front.capacity

    def __len__(self) -> int:
        return len(self._front)

    def __contains__(self, key: str) -> bool:
        return key in self._front

    def __repr__(self) -> str:
        tiers = ", ".join(type(tier).__name__ for tier in self._tiers)
        return (
            f"SolverCache(size={len(self)}, capacity={self.capacity}, "
            f"tiers=[{tiers}])"
        )

    # -- lookups and writes ---------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """The value from the nearest tier holding ``key``, or ``default``;
        a lower-tier hit is promoted into the front and every tier above
        the one that held it."""
        value = self._front.get(key, _MISSING)
        if value is not _MISSING:
            return value
        for index, tier in enumerate(self._tiers):
            found = tier.get(key)
            if found is not None:
                self._front.put_many([(key, found)])
                for upper in self._tiers[:index]:
                    upper.put_many([(key, found)])
                return found
        return default

    def put(self, key: str, value: Value) -> None:
        """Insert/refresh one entry in every tier (see :meth:`put_many`)."""
        self._write([(key, value)])

    def put_many(self, items: Iterable[tuple[str, Value]]) -> None:
        """Write a batch through every tier: one front lock acquisition,
        one flush per lower tier (one transaction per file).  Every value
        is checked first: one that is not a ``(probability, solver)``
        pair raises ``TypeError`` and nothing is stored."""
        self._write(list(items))

    def _write(self, items: list[tuple[str, Value]]) -> None:
        for _, value in items:
            if not persistable(value):
                raise TypeError(
                    "a SolverCache stores (probability, solver) pairs, "
                    f"got {value!r}"
                )
        self._front.put_many(items)
        if self._tiers:
            pairs = [
                (key, (float(value[0]), value[1])) for key, value in items
            ]
            for tier in self._tiers:
                tier.put_many(pairs)

    def invalidate(self, keys: Iterable[str]) -> int:
        """Drop exactly ``keys`` from every tier; returns the front's count.

        The streaming layer retires entries of updated or expired
        sessions this way (DESIGN.md Section 15): reclamation, never
        correctness, since a changed session freezes to a *new* key.
        Dropped entries count as ``invalidations``, not evictions.
        """
        keys = list(keys)
        dropped = self._front.invalidate(keys)
        for tier in self._tiers:
            tier.invalidate(keys)
        return dropped

    def clear(self) -> None:
        """Drop every tier's entries (counters are kept)."""
        self._front.clear()
        for tier in self._tiers:
            tier.clear()

    # -- single-flight ---------------------------------------------------

    def claim(self, key: str) -> tuple[str, Any]:
        """After a :meth:`get` miss: ``("value", v)`` published meanwhile,
        ``("claimed", None)`` — the caller must publish (``put`` /
        ``put_many``) or :meth:`release_flight` — or ``("wait", None)``:
        :meth:`wait_flight`.  The flight lives on the shared tier when
        there is one, so it spans every cache attached to that tier.
        """
        if self._shared is None:
            return self._front.claim(key)
        status, value = self._shared.claim(key)
        if value is not None:
            self._front.put_many([(key, value)])
        return (status, value)

    def wait_flight(
        self, key: str, timeout: float = FLIGHT_TIMEOUT
    ) -> Any:
        """Block on another solver's in-flight ``key``; ``None`` (timeout,
        or an abandoned flight) means the caller should solve itself."""
        if self._shared is None:
            return self._front.wait(key, timeout)
        value = self._shared.wait(key, timeout)
        if value is not None:
            self._front.put_many([(key, value)])
        return value

    def release_flight(self, key: str) -> None:
        """Abandon a claimed flight without publishing; waiters wake and
        solve themselves."""
        if self._shared is None:
            self._front.release(key)
        else:
            self._shared.release(key)

    # -- stats / lifecycle -----------------------------------------------

    def record_plan(
        self, n_planned: int, n_eliminated: int, n_passes: int
    ) -> None:
        """Accumulate one executed plan's counters (see :class:`CacheStats`)."""
        with self._lock:
            self._n_solves_planned += n_planned
            self._n_solves_eliminated += n_eliminated
            self._n_passes_applied += n_passes

    def stats(self) -> CacheStats:
        front = self._front.stats()
        del front["in_flight"]
        with self._lock:
            return CacheStats(
                **front,
                n_solves_planned=self._n_solves_planned,
                n_solves_eliminated=self._n_solves_eliminated,
                n_passes_applied=self._n_passes_applied,
            )

    def tier_depth(self) -> dict[str, Any]:
        """Each lower tier's nested counters, merged (``{}`` when untiered):
        a disk tier's ``{"disk": {...}}`` and a shard tier's ``n_shards``
        / ``version`` / ``shards`` / ``totals`` (one tier of each kind, so
        their keys never collide)."""
        depth: dict[str, Any] = {}
        for tier in self._tiers:
            depth.update(tier.stats())
        return depth

    def close(self) -> None:
        for tier in self._tiers:
            tier.close()
