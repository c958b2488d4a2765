"""The persistent cache tier under concurrent writers.

Two serving backends may share one ``--cache-db`` file (the server CLI
wires it straight through), so the SQLite tier must stay uncorrupted
under interleaved writers on separate connections, the version-mismatch
clear must work, and ``put_many`` must stay a single transaction.
"""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.db.examples import polling_example
from repro.service.cache import SolverCache
from repro.service.persist import PersistentCache
from repro.service.service import PreferenceService

pytestmark = pytest.mark.timeout(120)

QUERIES = [
    "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)",
    "COUNT P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)",
]


class TestConcurrentWriters:
    def test_interleaved_writers_do_not_corrupt_the_file(self, tmp_path):
        path = tmp_path / "shared.sqlite"
        n_writers, n_rounds, chunk = 4, 25, 8
        errors = []
        barrier = threading.Barrier(n_writers)

        def writer(worker: int):
            try:
                cache = PersistentCache(path)
                barrier.wait()
                for round_no in range(n_rounds):
                    # Overlapping keys (shared across workers) exercise
                    # INSERT OR REPLACE races; distinct keys grow the file.
                    items = [
                        (f"shared/{round_no}/{j}", (j / 7.0, f"w{worker}"))
                        for j in range(chunk)
                    ] + [
                        (f"own/{worker}/{round_no}", (float(round_no), "lp"))
                    ]
                    cache.put_many(items)
                    got = cache.get(f"shared/{round_no}/0")
                    assert got is not None and got[0] == 0.0
                cache.close()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(n_writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []

        # The file is intact and holds exactly the expected key space.
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
        conn.close()
        survivor = PersistentCache(path)
        assert len(survivor) == n_rounds * chunk + n_writers * n_rounds
        for round_no in range(n_rounds):
            for j in range(chunk):
                value = survivor.get(f"shared/{round_no}/{j}")
                assert value[0] == j / 7.0
                assert value[1] in {f"w{w}" for w in range(n_writers)}
        survivor.close()

    def test_two_services_share_one_cache_db(self, tmp_path):
        path = str(tmp_path / "served.sqlite")
        db = polling_example()

        first = PreferenceService(backend="serial", cache_db=path)
        cold = first.answer_many(QUERIES, db)
        assert cold.n_distinct_solves > 0
        first.cache.close()

        # A second backend over the same file starts warm: every session
        # outcome comes off disk, so the batch performs zero solves.
        second = PreferenceService(backend="serial", cache_db=path)
        warm = second.answer_many(QUERIES, db)
        assert warm.n_distinct_solves == 0
        assert second.stats()["disk_hits"] > 0
        for a, b in zip(cold.answers, warm.answers):
            assert a.value == b.value
        second.cache.close()


class TestVersioning:
    def test_version_mismatch_clears_the_store(self, tmp_path):
        path = tmp_path / "versioned.sqlite"
        key = "k"
        old = PersistentCache(path, version="gen-1")
        old.put_many([(key, (0.5, "lp"))])
        old.close()

        reopened = PersistentCache(path, version="gen-1")
        assert reopened.get(key) == (0.5, "lp")
        reopened.close()

        # A different generation must not trust gen-1 keys.
        migrated = PersistentCache(path, version="gen-2")
        assert migrated.get(key) is None
        assert len(migrated) == 0
        migrated.put_many([(key, (0.75, "dp"))])
        migrated.close()

        kept = PersistentCache(path, version="gen-2")
        assert kept.get(key) == (0.75, "dp")
        kept.close()

    def test_solver_cache_version_clear_via_tier(self, tmp_path):
        path = str(tmp_path / "tiered.sqlite")
        tiered = SolverCache(8, [PersistentCache(path, version="gen-1")])
        tiered.put("k", (0.25, "lp"))
        tiered.close()
        fresh = SolverCache(8, [PersistentCache(path, version="gen-2")])
        assert fresh.get("k") is None
        fresh.close()


class TestTransactions:
    def test_put_many_is_one_transaction(self, tmp_path):
        cache = PersistentCache(tmp_path / "txn.sqlite")
        statements = []
        cache._conn.set_trace_callback(statements.append)
        cache.put_many(
            [(f"k{i}", (i / 3.0, "lp")) for i in range(50)]
        )
        cache._conn.set_trace_callback(None)
        commits = [s for s in statements if s.strip().upper() == "COMMIT"]
        begins = [
            s for s in statements if s.strip().upper().startswith("BEGIN")
        ]
        assert len(commits) == 1
        assert len(begins) <= 1  # one implicit BEGIN for the whole batch
        assert len(cache) == 50
        cache.close()

    def test_put_many_rejects_unpersistable_values_atomically(self, tmp_path):
        cache = PersistentCache(tmp_path / "atomic.sqlite")
        with pytest.raises(TypeError):
            cache.put_many([("good", (0.5, "lp")), ("bad", object())])
        # Validation happens before any row is staged: nothing landed.
        assert len(cache) == 0
        cache.close()
