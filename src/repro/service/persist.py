"""The SQLite disk tier: warm solve state that survives restarts.

A :class:`PersistentCache` is one entry in a
:class:`~repro.service.cache.SolverCache`'s list of lower tiers
(``[lru, disk]``, built by ``PreferenceService(cache_db=...)``), so a
restarted service over the same file serves a previously-seen batch with
zero solves.  The file maps the digest string keys of
:mod:`repro.service.keys` — the key every tier stores — to
``(probability, solver_name)`` session outcomes, the one value type every
tier holds.  Entries are *versioned*: a file stamped by another
freeze()/key/solver generation is cleared on open, so stale keys cost a
rebuild, never a wrong answer.  See DESIGN.md, "Executors, persistence,
planning".
"""

from __future__ import annotations

import os
import sqlite3
import threading
from typing import Any, Iterable

import repro

#: Bump when the canonical key or value format changes incompatibly;
#: combined with ``repro.__version__`` into the stored version stamp.
KEY_SCHEMA_VERSION = 2

#: The ``(probability, solver)`` pair every lower tier stores — the same
#: value form :attr:`repro.service.executors.TaskOutcome.value` ships.
Value = tuple[float, str]

#: The solver name of a top-k upper bound's pair, ``(bound, BOUND_SOLVER)``
#: (:class:`~repro.plan.nodes.BoundNode`): a value a memory tier keeps only
#: while it has room (:class:`~repro.service.cache.LRUStore`).
BOUND_SOLVER = "upper_bound"


def is_bound(value: Value) -> bool:
    """True for a top-k upper bound's pair, which a memory tier stores at
    its cold end."""
    return value[1] == BOUND_SOLVER


def default_version() -> str:
    """The version stamp new cache files record (and old ones must match)."""
    return f"{repro.__version__}/k{KEY_SCHEMA_VERSION}"


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
    """A write-through ``key -> (probability, solver)`` SQLite file.

    Thread-safe (one connection guarded by a lock; SQLite REAL columns are
    IEEE doubles, so probabilities round-trip exactly).  Keys are the
    digest strings of :mod:`repro.service.keys`, stored as TEXT; the
    surface is the lower-tier one of :class:`repro.service.cache.Tier`.
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

    def get(self, key: str) -> Value | None:
        """The stored pair of one key, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT probability, solver FROM entries WHERE key = ?",
                (key,),
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
        for key, value in pairs:
            if not persistable(value):
                raise TypeError(
                    "persistent cache stores (probability, solver) pairs, "
                    f"got {value!r}"
                )
            rows.append((key, float(value[0]), value[1]))
        if not rows:
            return
        with self._lock:
            self._conn.executemany(
                "INSERT OR REPLACE INTO entries (key, probability, solver) "
                "VALUES (?, ?, ?)",
                rows,
            )
            self._conn.commit()

    def invalidate(self, keys: Iterable[str]) -> int:
        """Drop exactly ``keys`` in one transaction; returns how many
        existed."""
        keys = list(keys)
        if not keys:
            return 0
        with self._lock:
            dropped = 0
            for key in keys:
                cursor = self._conn.execute(
                    "DELETE FROM entries WHERE key = ?", (key,)
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
