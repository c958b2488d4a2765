"""Tests for the shard tier (:mod:`repro.service.shard`).

Covers stable key partitioning, per-shard write-back, the cache-server
protocol (typed JSON frames, the hello-first rule and version handshake,
argument checking, the frame-size limit, release-on-disconnect, and
fleet-wide single-flight), warm-fleet restarts performing zero solves,
and bit-identity of sharded vs. unsharded answers on a seeded mixed-kind
corpus.  The cache behaviour shared with every other tier configuration
is the conformance suite of ``tests/test_service_cache.py``.
"""

import json
import os
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import answer
from repro.datasets.crowdrank import crowdrank_database
from repro.query import engine
from repro.service import shard
from repro.service.cache import SolverCache
from repro.service.persist import default_version
from repro.service.service import PreferenceService
from repro.service.shard import (
    MAX_FRAME_BYTES,
    ShardCacheServer,
    ShardClient,
    ShardGroup,
    ShardProtocolError,
    shard_db_path,
    shard_of,
)


@pytest.fixture
def db():
    return crowdrank_database(n_workers=30, n_movies=6, seed=11)


#: A seeded mixed-kind corpus over the CrowdRank schema.
MIXED_REQUESTS = (
    "P(v; m1; m2), M(m1, 'Comedy', _, _, _)",
    "COUNT P(v; m1; m2), M(m1, _, 'F', _, _), M(m2, _, 'M', _, _)",
    "TOPK 3 P(v; m1; m2), M(m1, 'Thriller', _, _, _)",
    "AGG mean(V.age) P(v; m1; m2), M(m1, 'Drama', _, _, _)",
    "P(v; m1; m2), M(m1, 'Comedy', _, _, _)",  # repeat: must dedup
)


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------


class TestShardOf:
    def test_stable_and_in_range(self):
        keys = [f"session/k/{i}" for i in range(200)]
        for n_shards in (1, 2, 7):
            first = [shard_of(key, n_shards) for key in keys]
            second = [shard_of(key, n_shards) for key in keys]
            assert first == second
            assert all(0 <= index < n_shards for index in first)

    def test_spreads_across_shards(self):
        keys = [f"session/k/{i}" for i in range(400)]
        counts = [0] * 4
        for key in keys:
            counts[shard_of(key, 4)] += 1
        # blake2b over distinct keys: no shard may be empty or hog >60%.
        assert min(counts) > 0
        assert max(counts) < 0.6 * len(keys)

    def test_rejects_empty_partition(self):
        with pytest.raises(ValueError):
            shard_of("k", 0)

    def test_shard_db_path(self):
        assert (
            shard_db_path(os.path.join("x", "cache.sqlite"), 3)
            == os.path.join("x", "cache-shard3.sqlite")
        )
        assert shard_db_path("warm", 0) == "warm-shard0"


# ----------------------------------------------------------------------
# The embedded group
# ----------------------------------------------------------------------


class TestShardGroup:
    def test_interleaved_writers_across_shards(self, tmp_path):
        # Concurrent batch writers hitting all shards at once: every
        # write lands, in memory and in the per-shard files.
        stem = tmp_path / "interleaved.sqlite"
        group = ShardGroup(n_shards=3, capacity=4096, cache_db=stem)
        keys = [f"session/w/{i}" for i in range(120)]

        def write(offset):
            group.put_many(
                (key, (index / 1000.0 + offset, f"writer{offset}"))
                for index, key in enumerate(keys[offset::6])
            )

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(write, range(6)))
        assert len(group) == len(keys)
        for offset in range(6):
            for index, key in enumerate(keys[offset::6]):
                assert group.get(key) == (
                    index / 1000.0 + offset,
                    f"writer{offset}",
                )
        group.close()
        # Together the per-shard files hold every key, each a piece.
        fresh = ShardGroup(n_shards=3, capacity=4096, cache_db=stem)
        sizes = [shard["disk_size"] for shard in fresh.stats()["shards"]]
        fresh.close()
        assert sum(sizes) == len(keys)
        assert all(size > 0 for size in sizes)

    def test_version_mismatch_clears_shards(self, tmp_path):
        stem = tmp_path / "versioned.sqlite"
        group = ShardGroup(n_shards=2, capacity=64, cache_db=stem)
        group.put_many([(f"session/{i}", (0.5, "s")) for i in range(10)])
        group.close()
        same = ShardGroup(n_shards=2, capacity=64, cache_db=stem)
        assert same.get("session/3") == (0.5, "s")
        same.close()
        bumped = ShardGroup(
            n_shards=2, capacity=64, cache_db=stem, version="next-format/k2"
        )
        assert bumped.get("session/3") is None
        assert bumped.stats()["totals"]["disk_size"] == 0
        bumped.close()


# ----------------------------------------------------------------------
# The cache-server protocol
# ----------------------------------------------------------------------


def _connect(server):
    host, _, port = server.address.rpartition(":")
    return socket.create_connection((host, int(port)), timeout=5.0)


def _read(sock, n_bytes):
    """Exactly ``n_bytes``, or ``None`` once the peer hangs up."""
    data = b""
    while len(data) < n_bytes:
        chunk = sock.recv(n_bytes - len(data))
        if not chunk:
            return None
        data += chunk
    return data


def _send(sock, body):
    if not isinstance(body, bytes):
        body = json.dumps(body).encode()
    sock.sendall(struct.pack(">I", len(body)) + body)


def _reply(sock):
    """The decoded reply frame, or ``None`` once the server hangs up."""
    header = _read(sock, 4)
    if header is None:
        return None
    return json.loads(_read(sock, struct.unpack(">I", header)[0]))


def _exchange(sock, body):
    _send(sock, body)
    return _reply(sock)


class _Exploit:
    """Unpickling this creates ``path`` — a stand-in for running code."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


#: The claimant child: hold a claim mid-solve until killed.
CLAIMANT = """
import sys, time
from repro.service.shard import ShardClient
client = ShardClient(sys.argv[1])
print(client.claim(sys.argv[2])[0], flush=True)
time.sleep(120)  # solving...
"""


class TestShardServer:
    def test_round_trip_and_stats(self):
        with ShardCacheServer(ShardGroup(n_shards=2, capacity=64)) as server:
            client = ShardClient(server.address)
            assert client.get("k") is None
            client.put_many([("k", (0.25, "lifted"))])
            assert client.get("k") == (0.25, "lifted")
            stats = client.stats()
            assert stats["n_shards"] == 2
            assert stats["totals"]["size"] == 1
            assert stats["version"] == default_version()
            client.clear()
            assert client.get("k") is None
            client.close()

    def test_probabilities_round_trip_exactly(self):
        values = [0.1 + 0.2, 5e-324, 1 - 2**-53]
        with ShardCacheServer(ShardGroup(n_shards=2, capacity=64)) as server:
            client = ShardClient(server.address)
            client.put_many(
                [(f"k{index}", (value, "s")) for index, value in enumerate(values)]
            )
            for index, value in enumerate(values):
                found = client.get(f"k{index}")
                assert found == (value, "s")
                assert found[0].hex() == value.hex()
            client.close()

    def test_version_handshake_rejects_stale_clients(self):
        group = ShardGroup(n_shards=1, capacity=8, version="old-format/k0")
        with ShardCacheServer(group) as server:
            client = ShardClient(server.address)
            with pytest.raises(ShardProtocolError, match="version mismatch"):
                client.get("k")
            client.close()

    def test_single_flight_across_clients(self):
        # Two fleet members race one key: exactly one claims, the other
        # waits and reads the published value.
        with ShardCacheServer(ShardGroup(n_shards=2, capacity=64)) as server:
            owner = ShardClient(server.address)
            peer = ShardClient(server.address)
            assert owner.claim("hot") == ("claimed", None)
            assert peer.claim("hot") == ("wait", None)
            waited = []
            thread = threading.Thread(
                target=lambda: waited.append(peer.wait("hot", 10.0))
            )
            thread.start()
            owner.put_many([("hot", (0.75, "two_label"))])
            thread.join(10.0)
            assert waited == [(0.75, "two_label")]
            owner.close()
            peer.close()

    @pytest.mark.timeout(60)
    def test_fleet_single_flight_one_solve(self, db, monkeypatch):
        # N workers (each with its OWN SolverCache over one server) answer
        # one cold request at once: the tier admits one solve fleet-wide.
        n_workers = 6
        query = "P('worker000000'; m1; m2), M(m1, 'Comedy', _, _, _)"
        solve_session = engine.solve_session
        calls = []

        def slow_solve(*args, **kwargs):
            calls.append(threading.get_ident())
            time.sleep(0.05)  # long enough for every worker to wait
            return solve_session(*args, **kwargs)

        with ShardCacheServer(ShardGroup(n_shards=2, capacity=64)) as server:
            reference = answer(query, db)
            monkeypatch.setattr(engine, "solve_session", slow_solve)
            barrier = threading.Barrier(n_workers)

            def work(_):
                cache = SolverCache(8, [ShardClient(server.address)])
                barrier.wait()
                try:
                    return answer(query, db, cache=cache)
                finally:
                    cache.close()

            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                results = list(pool.map(work, range(n_workers)))
        assert [result.value for result in results] == (
            [reference.value] * n_workers
        )
        assert len(calls) == 1
        assert sum(r.stats["n_solver_calls"] for r in results) == 1

    @pytest.mark.timeout(60)
    def test_killed_claimant_releases_its_claims(self):
        # A worker holding a claim is SIGKILLed mid-solve: the server
        # releases the claim when the connection drops, so a waiting peer
        # gets None (and solves itself) at once, not after its timeout.
        key = "session/hot"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1])]
            + [path for path in [env.get("PYTHONPATH")] if path]
        )
        group = ShardGroup(n_shards=2, capacity=64)
        with ShardCacheServer(group=group) as server:
            child = subprocess.Popen(
                [sys.executable, "-c", CLAIMANT, server.address, key],
                stdout=subprocess.PIPE, text=True, env=env,
            )
            try:
                assert child.stdout.readline().strip() == "claimed"
                peer = ShardClient(server.address)
                assert peer.claim(key) == ("wait", None)
                killer = threading.Timer(0.5, child.kill)
                killer.start()
                started = time.monotonic()
                assert peer.wait(key, 30.0) is None
                assert time.monotonic() - started < 5.0
                assert group.stats()["totals"]["in_flight"] == 0
                assert peer.claim(key) == ("claimed", None)
                peer.close()
            finally:
                child.kill()
                child.wait()
                child.stdout.close()

    def test_pickle_frames_cannot_run_code(self, tmp_path):
        marker = tmp_path / "unpickled"
        hostile = pickle.dumps(("get", _Exploit(str(marker))))
        group = ShardGroup(n_shards=1, capacity=8)
        with ShardCacheServer(group=group) as server:
            for greet in (False, True):
                with _connect(server) as sock:
                    if greet:
                        hello = ["hello", default_version()]
                        assert _exchange(sock, hello)[0] == "ok"
                    _send(sock, hostile)
                    header = _read(sock, 4)  # the server has handled it
                    assert not marker.exists()
                    if header is not None:
                        body = _read(sock, struct.unpack(">I", header)[0])
                        assert json.loads(body)[0] == "err"

    def test_ops_are_refused_until_hello(self):
        with ShardCacheServer(ShardGroup(n_shards=1, capacity=8)) as server:
            with _connect(server) as sock:
                refused = _exchange(sock, ["put_many", [["k", [0.5, "s"]]]])
                assert refused[0] == "err" and "hello" in refused[1]
                assert _exchange(sock, ["hello", default_version()])[0] == "ok"
                assert _exchange(sock, ["get", "k"]) == ["ok", None]

    def test_oversized_frame_is_refused_unread(self):
        with ShardCacheServer(ShardGroup(n_shards=1, capacity=8)) as server:
            with _connect(server) as sock:
                # Only the length prefix: a server reading the body would
                # block, and this exchange would time out.
                sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
                header = _read(sock, 4)
                if header is not None:
                    body = _read(sock, struct.unpack(">I", header)[0])
                    assert json.loads(body)[0] == "err"
                assert _read(sock, 1) is None  # and the peer is dropped

    def test_client_splits_a_batch_beyond_the_frame_limit(self, monkeypatch):
        # A flush of many fresh sessions can outgrow one frame: the client
        # spreads put_many and invalidate over as many frames as needed.
        monkeypatch.setattr(shard, "MAX_FRAME_BYTES", 4096)
        pairs = [
            (f"session/{'x' * 40}/{index}", (index / 300, "lifted"))
            for index in range(300)
        ]
        assert len(json.dumps(["put_many", pairs])) > 4 * 4096
        with ShardCacheServer(ShardGroup(n_shards=2, capacity=512)) as server:
            client = ShardClient(server.address)
            client.put_many(pairs)
            assert [client.get(key) for key, _ in pairs] == [
                value for _, value in pairs
            ]
            assert client.invalidate([key for key, _ in pairs]) == len(pairs)
            assert client.stats()["totals"]["size"] == 0
            # A single pair no frame can hold is refused before sending,
            # and the connection lives on.
            with pytest.raises(ShardProtocolError, match="exceeds"):
                client.put_many([("k" * 5000, (0.5, "s"))])
            client.put_many([("k", (0.5, "s"))])
            assert client.get("k") == (0.5, "s")
            client.close()

    def test_every_op_checks_its_arguments(self):
        malformed = [
            {"op": "get"}, "get", [], [1], ["nope"], ["get"], ["get", 1],
            ["get", "k", "extra"], ["claim", ["k"]], ["release", None],
            ["wait", "k", "soon"], ["wait", "k", True], ["invalidate", "k"],
            ["put_many", [["k", [0.5]]]], ["put_many", [["k", ["p", "s"]]]],
            ["hello", 1], ["stats", 1], ["clear", 1],
        ]
        with ShardCacheServer(ShardGroup(n_shards=1, capacity=8)) as server:
            with _connect(server) as sock:
                assert _exchange(sock, ["hello", default_version()])[0] == "ok"
                for request in malformed:
                    reply = _exchange(sock, request)
                    assert reply[0] == "err", request
                # The connection survives every protocol error.
                assert _exchange(sock, ["get", "k"]) == ["ok", None]

    def test_malformed_put_many_is_rejected(self):
        with ShardCacheServer(ShardGroup(n_shards=1, capacity=8)) as server:
            client = ShardClient(server.address)
            with pytest.raises(ShardProtocolError, match="pairs"):
                client.put_many([("k", "not-a-pair")])
            # The connection survives the protocol error.
            client.put_many([("k", (0.5, "s"))])
            assert client.get("k") == (0.5, "s")
            client.close()

    def test_client_is_picklable(self):
        with ShardCacheServer(ShardGroup(n_shards=1, capacity=8)) as server:
            client = ShardClient(server.address)
            client.put_many([("k", (0.5, "s"))])
            clone = pickle.loads(pickle.dumps(client))
            assert clone.get("k") == (0.5, "s")
            client.close()
            clone.close()

    def test_bad_address_rejected(self):
        with pytest.raises(ValueError, match="host:port"):
            ShardClient("nonsense")


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------


class TestShardedService:
    def test_knob_validation(self):
        with pytest.raises(ValueError, match="shard_address excludes"):
            PreferenceService(shard_address="127.0.0.1:1", cache_shards=2)
        with pytest.raises(ValueError, match="shard_address excludes"):
            PreferenceService(shard_address="127.0.0.1:1", cache_db="x.db")
        with pytest.raises(ValueError, match="not both"):
            PreferenceService(cache=SolverCache(4), cache_shards=2)

    def test_sharded_bit_identical_to_unsharded_mixed_kinds(self, db):
        # The seeded mixed-kind corpus: Probability, Count, TopK, and
        # Aggregate requests must produce bit-identical answers whether
        # the cache tier is sharded or not (aggregates draw from a seeded
        # rng, so both runs get an identically seeded generator).
        plain = PreferenceService(backend="serial")
        sharded = PreferenceService(backend="serial", cache_shards=3)
        reference = plain.answer_many(
            MIXED_REQUESTS, db, rng=np.random.default_rng(7)
        )
        answered = sharded.answer_many(
            MIXED_REQUESTS, db, rng=np.random.default_rng(7)
        )
        for theirs, ours in zip(reference, answered):
            assert ours.kind == theirs.kind
            assert ours.value == theirs.value

    def test_warm_fleet_restart_zero_solves(self, db, tmp_path):
        stem = tmp_path / "fleet.sqlite"
        queries = [MIXED_REQUESTS[0], MIXED_REQUESTS[1]]
        with ShardCacheServer(ShardGroup(2, cache_db=stem)) as server:
            cold = PreferenceService(
                shard_address=server.address, backend="serial"
            )
            first = cold.answer_many(queries, db)
            assert first.n_distinct_solves > 0
            cold.cache.close()
        # The fleet restarts: a NEW server over the same shard files and
        # entirely new workers; nothing may be solved again.
        with ShardCacheServer(ShardGroup(2, cache_db=stem)) as server:
            warm = PreferenceService(
                shard_address=server.address, backend="serial"
            )
            second = warm.answer_many(queries, db)
            warm.cache.close()
            assert second.n_distinct_solves == 0
            for theirs, ours in zip(first, second):
                assert ours.value == theirs.value

    def test_tier_depth_surfaces_per_shard_counters(self, db):
        service = PreferenceService(backend="serial", cache_shards=2)
        service.answer_many([MIXED_REQUESTS[0]], db)
        depth = service.tier_depth()
        assert depth["n_shards"] == 2
        assert len(depth["shards"]) == 2
        assert depth["totals"]["size"] > 0
        flat = service.stats()
        assert flat["n_shards"] == 2
        assert flat["shard_size"] == depth["totals"]["size"]

    def test_version_bump_refuses_stale_fleet(self, tmp_path):
        group = ShardGroup(
            n_shards=1, capacity=8, version="other-generation/k9"
        )
        with ShardCacheServer(group) as server:
            service = PreferenceService(
                shard_address=server.address, backend="serial"
            )
            with pytest.raises(ShardProtocolError, match="version mismatch"):
                service.cache.get(("session", "k"))
