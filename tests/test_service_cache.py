"""Tests for the serving layer: canonical keys, the LRU cache, wiring.

Covers the acceptance bar of the cache subsystem: relabeled-but-identical
models/patterns collide on their canonical keys, cache-on and cache-off
evaluation agree across every exact solver path, every tier configuration
(``[lru]``, ``[lru, disk]``, ``[lru, shard-group]``, ``[lru,
shard-client]``) behaves the same (one conformance suite), and
``PreferenceService.answer_many`` matches sequential ``answer`` output.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import answer
from repro.db.database import PPDatabase
from repro.db.examples import polling_example
from repro.db.schema import ORelation, PRelation
from repro.patterns.labels import Labeling
from repro.patterns.pattern import LabelPattern, node
from repro.patterns.union import PatternUnion
from repro.query import engine
from repro.query.parser import parse_query
from repro.rim.mallows import Mallows
from repro.rim.mixture import MallowsMixture
from repro.rim.model import RIM
from repro.service import (
    PersistentCache,
    ShardCacheServer,
    ShardClient,
    ShardGroup,
    SolverCache,
    session_cache_key,
)
from repro.service.cache import FLIGHT_TIMEOUT
from repro.service.persist import BOUND_SOLVER
from repro.service.service import PreferenceService

EXACT_METHODS = ("auto", "two_label", "bipartite", "general", "lifted", "brute")


@pytest.fixture
def db():
    return polling_example()


# ----------------------------------------------------------------------
# Canonical forms (freeze hooks)
# ----------------------------------------------------------------------


class TestModelFreeze:
    def test_equal_mallows_instances_collide(self):
        a = Mallows(["x", "y", "z"], 0.4)
        b = Mallows(["x", "y", "z"], 0.4)
        assert a is not b
        assert a.freeze() == b.freeze()

    def test_mallows_parameters_distinguish(self):
        base = Mallows(["x", "y", "z"], 0.4)
        assert base.freeze() != Mallows(["x", "y", "z"], 0.5).freeze()
        assert base.freeze() != Mallows(["x", "z", "y"], 0.4).freeze()

    def test_rim_freeze_tracks_pi(self):
        a = RIM.uniform(["x", "y", "z"])
        b = RIM.uniform(["x", "y", "z"])
        assert a.freeze() == b.freeze()
        assert a.freeze() != Mallows(["x", "y", "z"], 0.3).freeze()

    def test_mixture_component_order_is_normalized(self):
        a = Mallows(["x", "y", "z"], 0.3)
        b = Mallows(["z", "y", "x"], 0.5)
        forward = MallowsMixture([a, b], [0.3, 0.7])
        backward = MallowsMixture([b, a], [0.7, 0.3])
        split = MallowsMixture([a, a, b], [0.15, 0.15, 0.7])
        assert forward.freeze() == backward.freeze() == split.freeze()
        reweighted = MallowsMixture([a, b], [0.4, 0.6])
        assert forward.freeze() != reweighted.freeze()

    def test_singleton_mixture_collides_with_plain_mallows(self):
        a = Mallows(["x", "y", "z"], 0.3)
        assert MallowsMixture([a], [1.0]).freeze() == a.freeze()


class TestPatternCanonicalForm:
    def test_renamed_nodes_collide(self):
        original = LabelPattern([(node("c1", "F"), node("c2", "M"))])
        renamed = LabelPattern([(node("left", "F"), node("right", "M"))])
        assert original.canonical_form() == renamed.canonical_form()

    def test_edge_direction_distinguishes(self):
        forward = LabelPattern([(node("a", "F"), node("b", "M"))])
        backward = LabelPattern([(node("a", "M"), node("b", "F"))])
        assert forward.canonical_form() != backward.canonical_form()

    def test_same_label_multiset_different_shape(self):
        chain = LabelPattern(
            [(node("a", "X"), node("b", "X")), (node("b", "X"), node("c", "X"))]
        )
        fork = LabelPattern(
            [(node("a", "X"), node("b", "X")), (node("a", "X"), node("c", "X"))]
        )
        assert chain.canonical_form() != fork.canonical_form()

    def test_identical_label_nodes_renamed(self):
        one = LabelPattern([(node("a", "F"), node("b", "F"))])
        other = LabelPattern([(node("u", "F"), node("v", "F"))])
        assert one.canonical_form() == other.canonical_form()

    def test_relabeled_helper_collides(self):
        pattern = LabelPattern(
            [(node("a", "F"), node("b", "M")), (node("a", "F"), node("c", "D"))]
        )
        assert pattern.canonical_form() == pattern.relabeled("&0").canonical_form()

    def test_union_is_order_and_name_invariant(self):
        fm = LabelPattern([(node("c1", "F"), node("c2", "M"))])
        dd = LabelPattern([(node("c3", "D"), node("c4", "D"))])
        fm_renamed = LabelPattern([(node("x", "F"), node("y", "M"))])
        assert (
            PatternUnion([fm, dd]).freeze()
            == PatternUnion([dd, fm_renamed]).freeze()
        )
        assert PatternUnion([fm]).freeze() != PatternUnion([fm, dd]).freeze()


class TestLabelingFreeze:
    def test_item_order_is_normalized(self):
        a = Labeling({"t": {"M"}, "c": {"F"}})
        b = Labeling({"c": {"F"}, "t": {"M"}})
        assert a.freeze() == b.freeze()

    def test_projection_ignores_irrelevant_labels(self):
        a = Labeling({"t": {"M", "R"}, "c": {"F", "D"}})
        b = Labeling({"t": {"M", "other"}, "c": {"F"}})
        assert a.freeze({"M", "F"}) == b.freeze({"M", "F"})
        assert a.freeze() != b.freeze()

    def test_item_universe_matters(self):
        # An extra (even unlabeled) item changes what wildcard nodes match.
        small = Labeling({"t": {"M"}, "c": {"F"}})
        large = Labeling({"t": {"M"}, "c": {"F"}, "x": set()})
        assert small.freeze({"M", "F"}) != large.freeze({"M", "F"})


class TestRequestKeys:
    def test_equivalent_requests_collide(self):
        labeling = Labeling({"t": {"M"}, "c": {"F"}, "s": {"M"}})
        union = PatternUnion([LabelPattern([(node("a", "F"), node("b", "M"))])])
        renamed = PatternUnion([LabelPattern([(node("p", "F"), node("q", "M"))])])
        key1 = session_cache_key(
            Mallows(["c", "s", "t"], 0.3), labeling, union, "auto"
        )
        key2 = session_cache_key(
            Mallows(["c", "s", "t"], 0.3), labeling, renamed, "two_label"
        )
        assert key1 == key2  # auto resolves to two_label for this union

    def test_options_distinguish(self):
        labeling = Labeling({"t": {"M"}, "c": {"F"}})
        union = PatternUnion([LabelPattern([(node("a", "F"), node("b", "M"))])])
        model = Mallows(["c", "t"], 0.3)
        plain = session_cache_key(model, labeling, union, "lifted")
        tuned = session_cache_key(
            model, labeling, union, "lifted", {"merge_gaps": False}
        )
        assert plain != tuned


# ----------------------------------------------------------------------
# The cache: one conformance suite over every tier configuration
# ----------------------------------------------------------------------

#: Every cache configuration: the front alone, or over one lower tier.
CONFIGS = ("lru", "lru+disk", "lru+shard-group", "lru+shard-client")


def pair(probability):
    return (probability, "two_label")


class TierStack:
    """One cache configuration: fronts over shared, reopenable lower state.

    :meth:`cache` opens another front over the same lower state (a peer
    worker); :meth:`reopen` closes a cache and opens a fresh one over
    what persisted (a restart).  Both shard configurations write back to
    per-shard files, so every lower tier survives a restart.
    """

    def __init__(self, kind, tmp_path):
        self.kind = kind
        self.path = tmp_path / "tier.sqlite"
        self.server = self._serve() if kind == "lru+shard-client" else None
        self.opened = []

    def _serve(self):
        return ShardCacheServer(ShardGroup(2, 64, self.path))

    def cache(self, capacity=4):
        if self.kind == "lru":
            tiers = []
        elif self.kind == "lru+disk":
            tiers = [PersistentCache(self.path)]
        elif self.kind == "lru+shard-group":
            tiers = [ShardGroup(2, 64, self.path)]
        else:
            tiers = [ShardClient(self.server.address)]
        cache = SolverCache(capacity, tiers)
        self.opened.append(cache)
        return cache

    def reopen(self, cache):
        cache.close()
        if self.server is not None:
            self.server.close()
            self.server = self._serve()
        return self.cache(cache.capacity)

    def close(self):
        for cache in self.opened:
            cache.close()
        if self.server is not None:
            self.server.close()


@pytest.fixture
def tiers(request, tmp_path):
    stack = TierStack(request.param, tmp_path)
    yield stack
    stack.close()


def tier_invalidations(cache):
    """The lower tier's own invalidation counters, from ``tier_depth``:
    ``{}`` untiered, else the disk file's and/or the shards' counts."""
    depth = cache.tier_depth()
    if "disk" in depth:
        return {"disk": depth["disk"]["disk_invalidations"]}
    if "totals" in depth:
        totals = depth["totals"]
        return {
            "shards": totals["invalidations"],
            "disk": totals["disk_invalidations"],  # the write-back files
        }
    return {}


class CountingLock:
    """Counts acquisitions made while the lock was not yet held."""

    def __init__(self):
        self._inner = threading.RLock()
        self._depth = 0
        self.outer_acquisitions = 0

    def __enter__(self):
        entered = self._inner.__enter__()
        if self._depth == 0:
            self.outer_acquisitions += 1
        self._depth += 1
        return entered

    def __exit__(self, *exc_info):
        self._depth -= 1
        return self._inner.__exit__(*exc_info)


class TestSolverCache:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SolverCache(capacity=0)

    def test_flights_live_on_the_shared_tier(self, tmp_path):
        plain = SolverCache(4, [PersistentCache(tmp_path / "c.sqlite")])
        assert plain.claim("k") == ("claimed", None)
        assert plain.stats() == SolverCache(4).stats()  # claims count nothing
        group = ShardGroup(2, 8)
        shared = SolverCache(4, [group])
        assert shared.claim("k") == ("claimed", None)
        assert group.stats()["totals"]["in_flight"] == 1
        plain.close()

    def test_a_private_and_a_shared_tier_stack(self, tmp_path):
        # [lru, disk, shard-group]: a hit in the lowest tier is promoted
        # into the front AND the disk tier above it; writes and
        # invalidations reach both; flights live on the shared tier.
        disk = PersistentCache(tmp_path / "private.sqlite")
        group = ShardGroup(2, 8)
        cache = SolverCache(4, [disk, group])
        key = "a"
        group.put_many([(key, pair(0.5))])
        assert cache.get(key) == pair(0.5)
        assert key in cache
        assert disk.get(key) == pair(0.5)
        cache.put("b", pair(0.25))
        assert disk.get("b") == group.get("b")
        assert cache.invalidate([key, "b"]) == 2
        for tier in (disk, group):
            assert tier.get(key) is None
            assert tier.get("b") is None
        depth = cache.tier_depth()
        assert set(depth) == {"disk", "n_shards", "version", "shards", "totals"}
        assert depth["disk"]["disk_invalidations"] == 2
        assert depth["totals"]["invalidations"] == 2
        assert cache.claim("c") == ("claimed", None)
        assert group.stats()["totals"]["in_flight"] == 1
        cache.release_flight("c")
        cache.close()

    def test_one_tier_of_each_kind(self, tmp_path):
        disks = [PersistentCache(tmp_path / f"{i}.sqlite") for i in range(2)]
        with pytest.raises(ValueError, match="at most one"):
            SolverCache(4, disks)
        with pytest.raises(ValueError, match="at most one"):
            SolverCache(4, [ShardGroup(1, 8), ShardGroup(1, 8)])
        for disk in disks:
            disk.close()


@pytest.mark.parametrize("tiers", CONFIGS, indirect=True)
class TestTierConformance:
    def test_hit_miss_counting(self, tiers):
        cache = tiers.cache()
        assert cache.get("a") is None
        cache.put("a", pair(0.5))
        assert cache.get("a") == pair(0.5)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_eviction_at_capacity(self, tiers):
        cache = tiers.cache(capacity=2)
        cache.put("a", pair(0.1))
        cache.put("b", pair(0.2))
        cache.put("c", pair(0.3))
        assert cache.stats().evictions == 1
        assert "a" not in cache
        assert "b" in cache and "c" in cache

    def test_get_refreshes_recency(self, tiers):
        cache = tiers.cache(capacity=2)
        cache.put("a", pair(0.1))
        cache.put("b", pair(0.2))
        cache.get("a")  # "a" becomes most recent; "b" is now the LRU entry
        cache.put("c", pair(0.3))
        assert "a" in cache
        assert "b" not in cache

    def test_bound_enters_at_the_cold_end(self, tiers):
        # A top-k bound never pushes a solve out of the front: it stays
        # while there is room, and a read makes it recent like any entry.
        cache = tiers.cache(capacity=2)
        bound = (0.9, BOUND_SOLVER)
        cache.put("a", pair(0.1))
        cache.put("u", bound)
        assert "a" in cache and "u" in cache
        cache.put("b", pair(0.2))
        assert "u" not in cache
        assert "a" in cache and "b" in cache
        cache.put("v", bound)
        assert "v" not in cache and len(cache) == 2
        assert cache.stats().evictions == 2

        cache = tiers.cache(capacity=2)
        cache.put("u", bound)
        cache.put("a", pair(0.1))
        assert cache.get("u") == bound
        cache.put("b", pair(0.2))
        assert "u" in cache and "a" not in cache

    def test_cold_solve_looks_up_once(self, tiers):
        # The executor looks an eager node up once; the miss goes on to
        # claim and solve without a second lookup.
        cache = tiers.cache(capacity=64)
        query = "P('Ann', '5/5'; 'Trump'; 'Clinton')"
        cold = answer(query, polling_example(), cache=cache)
        assert (cache.stats().hits, cache.stats().misses) == (0, 1)
        warm = answer(query, polling_example(), cache=cache)
        assert (cache.stats().hits, cache.stats().misses) == (1, 1)
        assert warm.value == cold.value

    def test_invalidate_drops_exactly_the_keys(self, tiers):
        # "a" and "c" land on different shards of a two-shard group.
        cache = tiers.cache(capacity=8)
        cache.put_many([("a", pair(0.1)), ("b", pair(0.2)), ("c", pair(0.3))])
        assert cache.invalidate(["a", "c", "ghost"]) == 2
        assert cache.get("a") is None and cache.get("b") == pair(0.2)
        assert cache.get("c") is None
        stats = cache.stats()
        assert stats.invalidations == 2 and stats.size == 1
        expected = {"lru": {}, "lru+disk": {"disk": 2}}.get(
            tiers.kind, {"shards": 2, "disk": 2}
        )
        assert tier_invalidations(cache) == expected

    def test_clear_drops_every_tier(self, tiers):
        cache = tiers.cache(capacity=16)
        cache.put_many([(f"session/{i}", pair(i / 9)) for i in range(9)])
        cache.clear()
        assert len(cache) == 0
        assert all(cache.get(f"session/{i}") is None for i in range(9))
        assert tiers.cache().get("session/0") is None

    def test_claim_wait_release_cycle(self, tiers):
        cache = tiers.cache()
        assert cache.claim("k") == ("claimed", None)
        assert cache.claim("k") == ("wait", None)
        cache.put("k", pair(0.5))
        assert cache.wait_flight("k", 1.0) == pair(0.5)
        assert cache.claim("k") == ("value", pair(0.5))

    def test_abandoned_claim_unblocks_waiters(self, tiers):
        cache = tiers.cache()
        assert cache.claim("k") == ("claimed", None)
        waited = []
        thread = threading.Thread(
            target=lambda: waited.append(cache.wait_flight("k", 5.0))
        )
        thread.start()
        cache.release_flight("k")  # owner gives up without publishing
        thread.join(5.0)
        assert waited == [None]

    @pytest.mark.timeout(60)
    def test_concurrent_cold_answers_solve_once(self, tiers, monkeypatch):
        # A barrier-synchronized pool of threads (more than cores,
        # switching often) answers one cold request through one shared
        # cache: the executor's claims admit exactly one solve; the rest
        # wait for its value.
        n_threads = 8
        cache = tiers.cache(capacity=64)
        db = polling_example()
        query = "P('Ann', '5/5'; 'Trump'; 'Clinton')"
        reference = answer(query, db)
        solve_session = engine.solve_session
        calls = []

        def slow_solve(*args, **kwargs):
            calls.append(threading.get_ident())
            time.sleep(0.05)  # long enough for every thread to wait
            return solve_session(*args, **kwargs)

        monkeypatch.setattr(engine, "solve_session", slow_solve)
        barrier = threading.Barrier(n_threads)

        def contend(_):
            barrier.wait()  # all threads miss at the same instant
            return answer(query, db, cache=cache)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                results = list(pool.map(contend, range(n_threads)))
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 1
        assert [result.value for result in results] == (
            [reference.value] * n_threads
        )
        assert sum(r.stats["n_solver_calls"] for r in results) == 1

    @pytest.mark.timeout(60)
    def test_failed_owner_releases_its_claim(self, tiers, monkeypatch):
        # The owner's solve raises: its claim is released, so a waiter
        # solves for itself at once instead of waiting out FLIGHT_TIMEOUT,
        # and the owner sees the error.
        cache = tiers.cache(capacity=64)
        db = polling_example()
        query = "P('Ann', '5/5'; 'Trump'; 'Clinton')"
        reference = answer(query, db)
        solve_session = engine.solve_session
        entered = threading.Event()
        release = threading.Event()
        outcome = {}

        def flaky_solve(*args, **kwargs):
            if threading.current_thread().name == "owner":
                entered.set()
                release.wait(5.0)
                raise RuntimeError("solver blew up")
            return solve_session(*args, **kwargs)

        monkeypatch.setattr(engine, "solve_session", flaky_solve)

        def owner():
            try:
                answer(query, db, cache=cache)
            except RuntimeError as error:
                outcome["owner"] = error

        def waiter():
            started = time.monotonic()
            outcome["waiter"] = answer(query, db, cache=cache)
            outcome["waited"] = time.monotonic() - started

        threads = [
            threading.Thread(target=owner, name="owner"),
            threading.Thread(target=waiter, name="waiter"),
        ]
        threads[0].start()
        assert entered.wait(5.0)
        threads[1].start()
        time.sleep(0.2)  # let the waiter reach the owner's flight
        release.set()
        for thread in threads:
            thread.join(30.0)
        assert isinstance(outcome["owner"], RuntimeError)
        assert outcome["waiter"].value == reference.value
        assert outcome["waiter"].stats["n_solver_calls"] == 1
        assert outcome["waited"] < FLIGHT_TIMEOUT / 6

    def test_non_pair_values_are_rejected(self, tiers):
        # One value type on every configuration: a value that is not a
        # (probability, solver) pair raises before anything is stored.
        cache = tiers.cache(capacity=8)
        for bad in (object(), {"rich": "object"}, (0.5,), ("0.5", "x")):
            with pytest.raises(TypeError, match="pairs"):
                cache.put("one", bad)
        with pytest.raises(TypeError, match="pairs"):
            cache.put_many([("pair", pair(0.25)), ("rich", object())])
        assert len(cache) == 0
        assert cache.get("pair") is None and cache.get("one") is None
        peer = tiers.cache(capacity=8)
        assert peer.get("pair") is None  # no lower tier got the batch

    def test_put_many_takes_the_front_lock_once(self, tiers):
        # The batch flush contract: ONE front lock acquisition for the
        # whole batch, not one per entry — so a flush never interleaves
        # with readers.
        cache = tiers.cache(capacity=64)
        lock = CountingLock()
        cache._front._lock = lock
        cache.put_many([(f"k{i}", pair(i / 50)) for i in range(50)])
        assert len(cache) == 50
        assert lock.outer_acquisitions == 1


@pytest.mark.parametrize("tiers", CONFIGS[1:], indirect=True)
class TestLowerTierConformance:
    def test_get_promotes_a_lower_tier_hit(self, tiers):
        tiers.cache().put("session/a", pair(0.5))
        peer = tiers.cache()
        assert "session/a" not in peer
        assert peer.get("session/a") == pair(0.5)
        assert "session/a" in peer  # promoted into the front
        depth = peer.tier_depth()
        assert peer.get("session/a") == pair(0.5)
        assert peer.tier_depth() == depth  # a front hit reads no tier
        assert (peer.stats().hits, peer.stats().misses) == (1, 1)

    def test_invalidate_reaches_every_tier_and_survives_reopen(self, tiers):
        cache = tiers.cache(capacity=8)
        cache.put_many([("a", pair(0.25)), ("b", pair(0.5))])
        assert cache.invalidate(["a"]) == 1
        expected = {"disk": 1}
        if tiers.kind != "lru+disk":
            expected["shards"] = 1
        assert tier_invalidations(cache) == expected
        assert tiers.cache().get("a") is None  # gone from the lower tier
        # A restart over the same lower state must not resurrect the key.
        reopened = tiers.reopen(cache)
        assert reopened.get("a") is None
        assert reopened.get("b") == pair(0.5)


# ----------------------------------------------------------------------
# Service stats surface
# ----------------------------------------------------------------------

FRONT_KEYS = {
    "capacity", "evictions", "hit_rate", "hits", "invalidations", "misses",
    "n_passes_applied", "n_solves_eliminated", "n_solves_planned", "size",
}
DISK_KEYS = {"disk_hits", "disk_invalidations", "disk_misses", "disk_size"}
SHARD_KEYS = {
    "n_shards", "shard_evictions", "shard_hits", "shard_invalidations",
    "shard_misses", "shard_size",
}
STORE_KEYS = {
    "capacity", "evictions", "hits", "in_flight", "invalidations", "misses",
    "size",
}


def test_service_stats_keys_per_configuration(db, tmp_path):
    """``stats()`` and ``tier_depth()`` keep their key sets per config
    (``/stats`` -> ``cache`` and ``cache_tiers`` on the wire)."""
    server = ShardCacheServer(ShardGroup(2, 64, tmp_path / "served.sqlite"))
    configurations = [
        ({}, FRONT_KEYS, None),
        ({"cache_db": str(tmp_path / "c.sqlite")}, FRONT_KEYS | DISK_KEYS,
         {"disk"}),
        ({"cache_shards": 2}, FRONT_KEYS | SHARD_KEYS, STORE_KEYS),
        ({"shard_address": server.address},
         FRONT_KEYS | SHARD_KEYS | DISK_KEYS, STORE_KEYS | DISK_KEYS),
    ]
    for options, flat_keys, depth_keys in configurations:
        service = PreferenceService(backend="serial", **options)
        service.answer_many(["P('Ann', '5/5'; 'Trump'; 'Clinton')"], db)
        service.cache.put("probe", (0.5, "lifted"))
        service.cache.invalidate(["probe"])
        flat = service.stats()
        assert set(flat) == flat_keys
        depth = service.tier_depth()
        if depth_keys is None:
            assert depth == {}
        elif depth_keys == {"disk"}:
            assert set(depth) == {"disk"}
            assert set(depth["disk"]) == DISK_KEYS
            assert {key: flat[key] for key in DISK_KEYS} == depth["disk"]
            assert flat["disk_invalidations"] == 1
        else:
            assert set(depth) == {"n_shards", "version", "shards", "totals"}
            assert depth["n_shards"] == 2
            assert [set(shard) for shard in depth["shards"]] == [depth_keys] * 2
            totals = depth["totals"]
            assert set(totals) == depth_keys
            # The flat shard_* counters are the nested totals, renamed;
            # the write-back files' disk_* totals keep their names.
            assert flat["n_shards"] == 2
            for name in ("hits", "misses", "evictions", "invalidations", "size"):
                assert flat[f"shard_{name}"] == totals[name]
            for name in DISK_KEYS & depth_keys:
                assert flat[name] == totals[name]
            assert flat["shard_invalidations"] == 1
        service.cache.close()
    server.close()


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------


class TestEngineCache:
    QUERY = "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)"

    @pytest.mark.parametrize("method", EXACT_METHODS)
    def test_cache_on_equals_cache_off(self, db, method):
        query = parse_query(self.QUERY)
        reference = answer(query, db, method=method)
        cache = SolverCache(64)
        cold = answer(query, db, method=method, cache=cache)
        warm = answer(query, db, method=method, cache=cache)
        assert abs(cold.probability - reference.probability) <= 1e-12
        assert abs(warm.probability - reference.probability) <= 1e-12
        assert warm.stats["n_solver_calls"] == 0
        assert warm.stats["cache_hits"] == warm.stats["n_groups"]

    def test_cache_hits_across_different_query_texts(self, db):
        # Different syntax, same compiled (model, union) request.
        cache = SolverCache(64)
        direct = answer(
            parse_query("P('Ann', '5/5'; 'Trump'; 'Clinton')"), db, cache=cache
        )
        via_comparison = answer(
            parse_query("P(v, '5/5'; 'Trump'; 'Clinton'), v = 'Ann'"),
            db,
            cache=cache,
        )
        assert direct.stats["n_solver_calls"] == 1
        assert via_comparison.stats["n_solver_calls"] == 0
        assert via_comparison.probability == direct.probability

    def test_mixture_sessions_are_cached(self):
        components = [
            Mallows(["a", "b", "c"], 0.3),
            Mallows(["c", "b", "a"], 0.6),
        ]
        mixture = MallowsMixture(components, [0.4, 0.6])
        db = PPDatabase(
            orelations=[
                ORelation("C", ["item", "kind"], [("a", "X"), ("b", "Y"), ("c", "Y")])
            ],
            prelations=[
                PRelation(
                    "P",
                    ["user"],
                    # Distinct but identically-parameterized mixture objects:
                    # id()-based grouping cannot merge them, the cache can.
                    {
                        ("u1",): mixture,
                        ("u2",): MallowsMixture(components, [0.4, 0.6]),
                    },
                )
            ],
        )
        query = parse_query("P(_; i; j), C(i, 'X'), C(j, 'Y')")
        cache = SolverCache(64)
        reference = answer(query, db)
        cold = answer(query, db, cache=cache)
        warm = answer(query, db, cache=cache)
        assert abs(cold.probability - reference.probability) <= 1e-12
        assert cold.stats["n_solver_calls"] == 1  # the two mixtures share one key
        assert warm.stats["n_solver_calls"] == 0

    def test_approximate_methods_bypass_cache(self, db):
        cache = SolverCache(64)
        rng = np.random.default_rng(3)
        first = answer(
            parse_query(self.QUERY), db, method="mis_amp_adaptive", rng=rng,
            cache=cache, n_per_proposal=50,
        )
        assert first.stats["n_solver_calls"] > 0
        assert len(cache) == 0

    def test_grouping_disabled_bypasses_cache(self, db):
        # group_sessions=False is the naive ablation baseline (Fig. 15);
        # a cache must not silently reintroduce session dedup there.
        cache = SolverCache(64)
        query = parse_query(self.QUERY)
        cold = answer(query, db, cache=cache, group_sessions=False)
        warm = answer(query, db, cache=cache, group_sessions=False)
        assert cold.stats["n_solver_calls"] == cold.n_sessions
        assert warm.stats["n_solver_calls"] == warm.n_sessions
        assert len(cache) == 0
        assert abs(warm.probability - cold.probability) <= 1e-12


# ----------------------------------------------------------------------
# The batch service
# ----------------------------------------------------------------------


class TestPreferenceService:
    QUERIES = (
        "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)",
        "P('Ann', '5/5'; 'Trump'; 'Clinton')",
        "P(_, _; c1; c2), C(c1, _, 'F', _, _, _), C(c2, _, 'M', _, _, _)",
        "P(_, _; c1; c2), C(c1, 'Green', _, _, _, _)",  # unsatisfiable
    )

    @pytest.mark.parametrize("method", ("auto", "lifted"))
    def test_answer_many_matches_sequential_answer(self, db, method):
        service = PreferenceService(method=method)
        batch = service.answer_many(self.QUERIES, db)
        for text, result in zip(self.QUERIES, batch):
            sequential = answer(parse_query(text), db, method=method)
            assert abs(result.probability - sequential.probability) <= 1e-12
            assert result.n_sessions == sequential.n_sessions
            for ours, theirs in zip(result.per_session, sequential.per_session):
                assert ours.key == theirs.key
                assert abs(ours.probability - theirs.probability) <= 1e-12

    def test_second_batch_is_all_cache_hits(self, db):
        service = PreferenceService()
        cold = service.answer_many(self.QUERIES, db)
        warm = service.answer_many(self.QUERIES, db)
        assert cold.n_cache_hits == 0
        assert warm.n_distinct_solves == 0
        assert warm.n_cache_hits == cold.n_distinct_solves
        assert warm.values == cold.values

    def test_worker_pool_matches_serial(self, db):
        serial = PreferenceService(max_workers=1).answer_many(self.QUERIES, db)
        threaded = PreferenceService(max_workers=4).answer_many(
            self.QUERIES, db
        )
        assert threaded.values == pytest.approx(
            serial.values, abs=1e-12
        )

    def test_single_request_answer_uses_shared_cache(self, db):
        service = PreferenceService()
        first = service.answer(self.QUERIES[0], db)
        second = service.answer(self.QUERIES[0], db)
        assert first.stats["n_solver_calls"] > 0
        assert second.stats["n_solver_calls"] == 0
        assert second.probability == first.probability

    def test_unsatisfiable_query_probability_zero(self, db):
        batch = PreferenceService().answer_many([self.QUERIES[3]], db)
        # Matches the engine: numerically zero (inclusion-exclusion noise).
        assert batch.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_approximate_method_falls_back_to_sequential(self, db):
        service = PreferenceService(method="mis_amp_adaptive")
        rng = np.random.default_rng(5)
        batch = service.answer_many(
            self.QUERIES[:2], db, rng=rng, n_per_proposal=50
        )
        assert batch.n_cache_hits == 0
        assert all(0.0 <= p <= 1.0 for p in batch.values)

    def test_accepts_parsed_queries(self, db):
        query = parse_query(self.QUERIES[1])
        batch = PreferenceService().answer_many([query], db)
        reference = answer(query, db)
        assert abs(batch.values[0] - reference.probability) <= 1e-12
