"""The SQLite disk tier: warm solve state that survives restarts.

A :class:`PersistentCache` is one entry in a
:class:`~repro.service.cache.SolverCache`'s list of lower tiers
(``[lru, disk]``, built by ``PreferenceService(cache_db=...)``), so a
restarted service over the same file serves a previously-seen batch with
zero solves.  The file maps :func:`encode_key` TEXT keys — the key
currency of every lower tier — to ``(probability, solver_name)`` session
outcomes, the one value type every tier holds.  Entries are *versioned*: a file stamped by another
freeze()/solver generation is cleared on open, so stale keys cost a
rebuild, never a wrong answer.  See DESIGN.md, "Executors, persistence,
planning".
"""

from __future__ import annotations

import os
import sqlite3
import threading
from typing import Any, Hashable, Iterable

import repro

#: Bump when the canonical key or value format changes incompatibly;
#: combined with ``repro.__version__`` into the stored version stamp.
KEY_SCHEMA_VERSION = 1

#: The ``(probability, solver)`` pair every lower tier stores — the same
#: value form :attr:`repro.service.executors.TaskOutcome.value` ships.
Value = tuple[float, str]

#: The solver name of a top-k upper bound's pair, ``(bound, BOUND_SOLVER)``
#: (:class:`~repro.plan.nodes.BoundNode`): a value a memory tier keeps only
#: while it has room (:class:`~repro.service.cache.LRUStore`).
BOUND_SOLVER = "upper_bound"


def default_version() -> str:
    """The version stamp new cache files record (and old ones must match)."""
    return f"{repro.__version__}/k{KEY_SCHEMA_VERSION}"


def _typed(value: Any) -> Any:
    """Recursively tag non-builtin leaves with their type.

    ``repr`` alone can collide across types (``np.int64(1)`` reprs as
    ``1`` on older NumPy), and the in-memory cache would keep such keys
    apart while a bare-repr TEXT key would merge them — a wrong answer,
    not a miss.  Builtin scalars have injective reprs within and across
    their types; everything else is wrapped in its module-qualified type
    name, matching the identity convention of
    :func:`repro.patterns.pattern.canonical_sort_key`.
    """
    if isinstance(value, tuple):
        return tuple(_typed(element) for element in value)
    if isinstance(value, frozenset):
        return (
            "frozenset{",
            tuple(sorted((_typed(element) for element in value), key=repr)),
            "}",
        )
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    return (
        "typed<", type(value).__module__, type(value).__qualname__,
        repr(value), ">",
    )


def encode_key(key: Hashable) -> str:
    """Canonical request key -> stable TEXT key.

    The canonical keys are nested tuples of strings, numbers, bytes, and
    label objects; leaves are type-tagged (:func:`_typed`) before taking
    ``repr``, so the encoding is deterministic across processes and runs
    and two keys only merge when they share both structure and per-leaf
    type.  Residual assumption (shared with the canonicalization layer):
    distinct *same-type* values must not share a ``repr``.
    """
    return repr(_typed(key))


def persistable(value: Any) -> bool:
    """True for a ``(probability, solver_name)`` pair: the one value
    type every cache tier stores."""
    return (
        isinstance(value, tuple)
        and len(value) == 2
        and isinstance(value[0], (int, float))
        and isinstance(value[1], str)
    )


class PersistentCache:
    """A write-through ``encoded key -> (probability, solver)`` SQLite file.

    Thread-safe (one connection guarded by a lock; SQLite REAL columns are
    IEEE doubles, so probabilities round-trip exactly).  Keys are
    :func:`encode_key` TEXT forms; the surface is the lower-tier one of
    :class:`repro.service.cache.Tier`.
    """

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        version: str | None = None,
    ) -> None:
        version = version if version is not None else default_version()
        self._lock = threading.RLock()
        # A generous busy timeout: multiple serving backends may share one
        # cache file (--cache-db), so a writer must wait out a concurrent
        # transaction instead of failing with "database is locked".
        self._conn = sqlite3.connect(
            os.fspath(path), check_same_thread=False, timeout=30.0
        )
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        with self._lock:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(name TEXT PRIMARY KEY, value TEXT)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                "key TEXT PRIMARY KEY, probability REAL, solver TEXT)"
            )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE name = 'version'"
            ).fetchone()
            if row is None or row[0] != version:
                # A different freeze()/solver generation wrote this file:
                # its keys may no longer mean what they say. Start over.
                self._conn.execute("DELETE FROM entries")
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta (name, value) "
                    "VALUES ('version', ?)",
                    (version,),
                )
            self._conn.commit()

    def __len__(self) -> int:
        with self._lock:
            return int(
                self._conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
            )

    def get(self, encoded_key: str) -> Value | None:
        """The stored pair of one encoded key, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT probability, solver FROM entries WHERE key = ?",
                (encoded_key,),
            ).fetchone()
            if row is None:
                self._misses += 1
                return None
            self._hits += 1
            return (float(row[0]), str(row[1]))

    def put_many(self, pairs: Iterable[tuple[str, Any]]) -> None:
        """Store many outcomes in ONE transaction.

        A cold batch writes every fresh solve through; committing per entry
        would pay one fsync each, so the serving layer flushes a batch's
        outcomes together.  Every value is checked before any row is
        staged: a non-pair raises ``TypeError`` and nothing lands.
        """
        rows = []
        for encoded_key, value in pairs:
            if not persistable(value):
                raise TypeError(
                    "persistent cache stores (probability, solver) pairs, "
                    f"got {value!r}"
                )
            rows.append((encoded_key, float(value[0]), value[1]))
        if not rows:
            return
        with self._lock:
            self._conn.executemany(
                "INSERT OR REPLACE INTO entries (key, probability, solver) "
                "VALUES (?, ?, ?)",
                rows,
            )
            self._conn.commit()

    def invalidate(self, encoded_keys: Iterable[str]) -> int:
        """Drop exactly ``encoded_keys`` in one transaction; returns how
        many existed."""
        encoded_keys = list(encoded_keys)
        if not encoded_keys:
            return 0
        with self._lock:
            dropped = 0
            for encoded_key in encoded_keys:
                cursor = self._conn.execute(
                    "DELETE FROM entries WHERE key = ?", (encoded_key,)
                )
                dropped += cursor.rowcount
            self._conn.commit()
            self._invalidations += dropped
            return dropped

    def clear(self) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM entries")
            self._conn.commit()

    def stats(self) -> dict[str, Any]:
        """This tier's entry in :meth:`SolverCache.tier_depth`."""
        with self._lock:
            return {
                "disk": {
                    "disk_hits": self._hits,
                    "disk_misses": self._misses,
                    "disk_size": len(self),
                    "disk_invalidations": self._invalidations,
                }
            }

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "PersistentCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
