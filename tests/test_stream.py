"""Streaming sessions: delta semantics, targeted invalidation, standing
queries (DESIGN.md Section 15).

The load-bearing contract is bit-identity: after any seeded sequence of
adds/updates/expirations, every materialized standing answer must equal
a from-scratch ``answer()`` on the mutated database exactly — same kind,
same principal value, same per-session probabilities — for all four
request kinds, with and without a sharded cache tier beneath the engine.
A refresh that raises must leave its whole batch at its last good answer,
flagged stale and counted, and never raise into the writer.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import answer, answer_many, evaluate
from repro.db.database import PPDatabase
from repro.db.examples import polling_example
from repro.db.mutable import MutablePPDatabase, SessionDelta
from repro.db.schema import ORelation, PRelation
from repro.plan.execute import session_upper_bound
from repro.rankings.permutation import Ranking
from repro.rim.mallows import Mallows
from repro.server.app import ServerApp
from repro.server.config import ServerConfig
from repro.service.cache import SolverCache
from repro.service.shard import (
    ShardCacheServer,
    ShardClient,
    ShardGroup,
    ShardProtocolError,
)
from repro.stream import (
    StandingQueryEngine,
    TrafficReplayer,
    answers_equal,
)

pytestmark = pytest.mark.timeout(120)

ITEMS = [1, 2, 3, 4]


def model(phi: float, center: "list[int] | None" = None) -> Mallows:
    return Mallows(Ranking(center if center is not None else ITEMS), phi)


def make_db(n_sessions: int = 3) -> MutablePPDatabase:
    movies = ORelation(
        "M",
        ["id", "genre", "duration"],
        [
            (1, "Thriller", "long"),
            (2, "Drama", "short"),
            (3, "Drama", "long"),
            (4, "Comedy", "short"),
        ],
    )
    sessions = {
        (f"w{index}",): model(0.3 + 0.1 * index)
        for index in range(n_sessions)
    }
    return MutablePPDatabase(
        orelations=[movies],
        prelations=[PRelation("P", ["worker"], sessions)],
    )


QUERY = "P(w; m1; m2), M(m1, 'Thriller', _), M(m2, _, 'short')"


# ----------------------------------------------------------------------
# The mutable database
# ----------------------------------------------------------------------


class TestMutableDatabase:
    def test_generation_counts_mutations(self):
        db = make_db()
        assert db.generation == 0
        first = db.add_session("P", ("w9",), model(0.5))
        assert (first.generation, first.kind) == (1, "add")
        second = db.update_session("P", "w9", model(0.6))
        assert (second.generation, second.kind) == (2, "update")
        third = db.expire_session("P", ("w9",))
        assert (third.generation, third.kind, third.model) == (
            3, "expire", None,
        )
        assert db.generation == 3
        assert all(
            delta.relation == "P" and delta.key == ("w9",)
            for delta in (first, second, third)
        )

    def test_subscribers_see_deltas_in_order(self):
        db = make_db()
        seen: list[SessionDelta] = []
        unsubscribe = db.subscribe(seen.append)
        db.add_session("P", ("w9",), model(0.5))
        db.expire_session("P", ("w9",))
        assert [delta.generation for delta in seen] == [1, 2]
        unsubscribe()
        db.add_session("P", ("w9",), model(0.5))
        assert len(seen) == 2

    def test_a_raising_subscriber_fails_only_itself(self, caplog):
        db = make_db()
        seen: list[SessionDelta] = []

        def crash(delta: SessionDelta) -> None:
            raise RuntimeError("subscriber crashed")

        db.subscribe(crash)
        db.subscribe(seen.append)
        delta = db.add_session("P", ("w9",), model(0.5))
        assert db.generation == 1 and seen == [delta]
        assert "subscriber crashed" in caplog.text
        assert repr(delta) in caplog.text

    def test_from_database_wraps_static_instance(self):
        static = make_db(2).snapshot()
        assert isinstance(static, PPDatabase)
        db = MutablePPDatabase.from_database(static)
        assert db.generation == 0
        db.update_session("P", ("w0",), model(0.9))
        # The wrapped source is untouched.
        assert static.prelation("P").model_of(("w0",)).phi != 0.9

    def test_snapshot_is_frozen(self):
        db = make_db(2)
        frozen = db.snapshot()
        db.add_session("P", ("w9",), model(0.5))
        db.update_session("P", ("w0",), model(0.9))
        assert ("w9",) not in list(frozen.prelation("P").session_keys())
        assert frozen.prelation("P").model_of(("w0",)).phi != 0.9

    def test_add_existing_rejected(self):
        db = make_db()
        with pytest.raises(ValueError, match="use update_session"):
            db.add_session("P", ("w0",), model(0.5))

    def test_update_missing_rejected(self):
        db = make_db()
        with pytest.raises(KeyError, match="no session"):
            db.update_session("P", ("nobody",), model(0.5))

    def test_expire_missing_and_last_rejected(self):
        db = make_db(1)
        with pytest.raises(KeyError, match="no session"):
            db.expire_session("P", ("nobody",))
        with pytest.raises(ValueError, match="at least one session"):
            db.expire_session("P", ("w0",))

    def test_universe_mismatch_rejected(self):
        db = make_db()
        with pytest.raises(ValueError, match="different item universe"):
            db.add_session("P", ("w9",), model(0.5, center=[1, 2, 3]))

    def test_bad_key_arity_rejected(self):
        db = make_db()
        with pytest.raises(ValueError, match="does not match columns"):
            db.add_session("P", ("a", "b"), model(0.5))

    def test_failed_mutation_emits_nothing(self):
        db = make_db()
        seen: list[SessionDelta] = []
        db.subscribe(seen.append)
        with pytest.raises(ValueError):
            db.add_session("P", ("w0",), model(0.5))
        assert seen == [] and db.generation == 0


# ----------------------------------------------------------------------
# Targeted invalidation over the wire (every tier configuration is
# covered by the conformance suite in tests/test_service_cache.py)
# ----------------------------------------------------------------------


class TestInvalidate:
    def test_shard_protocol_invalidate(self):
        with ShardCacheServer(ShardGroup(n_shards=2, capacity=8)) as server:
            client = ShardClient(server.address)
            keys = [f"k{index}" for index in range(3)]
            client.put_many([(key, (0.5, "s")) for key in keys])
            assert client.invalidate(keys[:2]) == 2
            assert client.get(keys[0]) is None
            assert client.get(keys[2]) == (0.5, "s")
            assert client.stats()["totals"]["invalidations"] == 2
            client.close()

    def test_shard_protocol_rejects_malformed_invalidate(self):
        with ShardCacheServer(ShardGroup(n_shards=1, capacity=8)) as server:
            client = ShardClient(server.address)
            with pytest.raises(ShardProtocolError, match="encoded TEXT"):
                client.invalidate([("not", "text")])  # type: ignore[list-item]
            # The connection survives the protocol error.
            client.put_many([("k", (0.5, "s"))])
            assert client.get("k") == (0.5, "s")
            client.close()


# ----------------------------------------------------------------------
# Generation stamps on answers
# ----------------------------------------------------------------------


class TestGenerationStamp:
    def test_static_database_has_no_generation(self):
        static = make_db().snapshot()
        assert answer(QUERY, static).generation is None

    def test_answers_carry_the_generation(self):
        db = make_db()
        assert answer(QUERY, db).generation == 0
        db.update_session("P", ("w0",), model(0.9))
        assert answer(QUERY, db).generation == 1

    def test_batch_answers_carry_the_generation(self):
        db = make_db()
        db.add_session("P", ("w9",), model(0.5))
        batch = answer_many([QUERY, f"COUNT {QUERY}"], db)
        assert batch.generation == 1
        assert [a.generation for a in batch.answers] == [1, 1]


# ----------------------------------------------------------------------
# The standing-query engine
# ----------------------------------------------------------------------


class TestStandingEngine:
    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_bit_identical_across_seeded_traffic(self, n_shards):
        """All four request kinds stay bit-identical to a from-scratch
        evaluation through a seeded add/update/expire sequence."""
        replayer = TrafficReplayer(
            n_active=8, n_pool=3, n_movies=6, seed=11
        )
        cache = SolverCache(
            512, [ShardGroup(n_shards, 512)] if n_shards is not None else []
        )
        engine = StandingQueryEngine(
            replayer.db, cache=cache, auto_refresh=False
        )
        registered = [
            engine.register(text)
            for text in replayer.standing_requests(4)
        ]
        kinds = {standing.answer.kind for standing in registered}
        assert len(kinds) == 4  # probability, count, top-k, aggregate
        for _ in range(3):
            replayer.step()
            engine.refresh()
            frozen = replayer.db.snapshot()
            for standing in registered:
                reference = answer(
                    standing.request, frozen, method=standing.method
                )
                assert answers_equal(standing.answer, reference), (
                    f"standing query {standing.query_id} diverged at "
                    f"generation {replayer.db.generation}"
                )
                assert standing.answer.generation == replayer.db.generation
        engine.close()
        cache.close()

    def test_auto_refresh_tracks_mutations(self):
        db = make_db()
        engine = StandingQueryEngine(db)
        standing = engine.register(QUERY)
        before = standing.value
        db.update_session("P", ("w0",), model(0.95))
        # No explicit refresh: the subscription re-materialized it.
        assert standing.generation == 1
        assert not standing.stale
        assert answers_equal(standing.answer, answer(QUERY, db))
        assert standing.value != before
        engine.close()

    def test_untouched_queries_skip_recomputation(self):
        db = make_db()
        engine = StandingQueryEngine(db, auto_refresh=False)
        standing = engine.register(QUERY)
        cold = standing.n_refreshes
        db.update_session("P", ("w1",), model(0.95))
        assert standing.stale
        assert engine.stats()["max_staleness"] == 1
        refreshed = engine.refresh()
        assert refreshed == [standing]
        assert standing.n_refreshes == cold + 1
        # A second refresh with no new deltas recomputes nothing.
        assert engine.refresh() == []
        assert engine.stats()["max_staleness"] == 0
        engine.close()

    def test_update_retires_the_previous_key(self):
        db = make_db()
        cache = SolverCache()
        engine = StandingQueryEngine(db, cache=cache, auto_refresh=False)
        standing = engine.register(QUERY)
        db.update_session("P", ("w0",), model(0.95))
        engine.refresh()
        assert cache.stats().invalidations >= 1
        assert engine.stats()["invalidations_applied"] >= 1
        engine.close()

    def test_refresh_bounds_only_the_delta_sessions(self, monkeypatch):
        """A TOPK refresh computes the bounds of added or updated sessions
        only, and retires the bound keys no session references anymore."""
        replayer = TrafficReplayer(n_active=8, n_pool=3, n_movies=6, seed=11)
        cache = SolverCache()
        engine = StandingQueryEngine(
            replayer.db, cache=cache, auto_refresh=False
        )
        standing = engine.register(replayer.standing_requests(3)[2])
        assert standing.answer.kind == "top_k"
        before = dict(standing.cache_keys)
        bounded = []

        def counting(model, *args):
            bounded.append(model.freeze())
            return session_upper_bound(model, *args)

        monkeypatch.setattr(
            "repro.plan.execute.session_upper_bound", counting
        )
        deltas = replayer.step()
        engine.refresh()
        changed = [delta for delta in deltas if delta.kind != "expire"]
        assert changed and len(bounded) <= len(changed)
        assert set(bounded) <= {delta.model.freeze() for delta in changed}
        referenced = {
            key for keys in standing.cache_keys.values() for key in keys
        }
        retired = [
            key
            for delta in deltas
            if delta.kind != "add"
            for key in before[delta.key][1:]  # the bound keys
        ]
        assert retired
        for key in retired:
            assert (key in cache) == (key in referenced)
        engine.close()

    def test_deregister_drops_only_exclusive_keys(self):
        db = make_db()
        cache = SolverCache()
        engine = StandingQueryEngine(db, cache=cache, auto_refresh=False)
        first = engine.register(QUERY)
        second = engine.register(f"COUNT {QUERY}")
        # Both kinds share the same canonical solves: nothing to drop.
        assert engine.deregister(first.query_id) == 0
        assert engine.deregister(second.query_id) > 0
        assert engine.stats()["count"] == 0
        with pytest.raises(KeyError):
            engine.deregister(first.query_id)
        engine.close()

    def test_rejects_approximate_methods(self):
        db = make_db()
        with pytest.raises(ValueError, match="cacheable"):
            StandingQueryEngine(db, method="rejection")

    def test_closed_engine_ignores_deltas(self):
        db = make_db()
        engine = StandingQueryEngine(db)
        standing = engine.register(QUERY)
        engine.close()
        db.update_session("P", ("w0",), model(0.95))
        assert standing.generation == 0 and not standing.stale


# ----------------------------------------------------------------------
# A refresh that raises: stale but flagged, never a silent wrong answer
# ----------------------------------------------------------------------

POLLS = [
    "P(v, _; l; r), C(l, p, 'M', _, _, _), C(r, p, 'F', _, _, _)",
    "TOPK 2 P(v, _; l; r), C(l, 'D', _, _, _, _), C(r, 'R', _, _, _, _)",
]
AGG_POLLS = "AGG mean(V.age) " + POLLS[0]


def polls_db() -> MutablePPDatabase:
    return MutablePPDatabase.from_database(polling_example())


def poll(phi: float) -> Mallows:
    return Mallows(["Trump", "Rubio", "Sanders", "Clinton"], phi)


def crash_next_execution(monkeypatch, before_raise=None) -> None:
    """Make the next plan execution raise once (after ``before_raise``)."""
    original = evaluate.execute_plan
    crashed: list[bool] = []

    def crashing(*args, **kwargs):
        if not crashed:
            crashed.append(True)
            if before_raise is not None:
                before_raise()
            raise RuntimeError("solver crashed")
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluate, "execute_plan", crashing)


class TestRefreshFailure:
    def test_failed_refresh_keeps_the_batch_stale(self, monkeypatch):
        """The failed batch keeps its answers and generations, stays
        flagged stale, and the next refresh catches up bit-identically."""
        db = polls_db()
        engine = StandingQueryEngine(db, auto_refresh=False)
        standing = [engine.register(text) for text in POLLS]
        before = [(one.answer, one.generation) for one in standing]
        db.add_session("P", ("Ann", "6/5"), poll(0.2))
        crash_next_execution(monkeypatch)
        with pytest.raises(RuntimeError, match="solver crashed"):
            engine.refresh()
        assert [(one.answer, one.generation) for one in standing] == before
        assert all(one.stale for one in standing)
        stats = engine.stats()
        assert stats["refresh_failures"] == 1
        assert stats["max_staleness"] == 1
        assert engine.refresh() == standing
        for one in standing:
            assert not one.stale and one.generation == 1
            assert answers_equal(one.answer, answer(one.request, db))
        assert engine.stats()["max_staleness"] == 0
        engine.close()

    def test_deltas_during_a_failed_refresh_win(self, monkeypatch):
        db = polls_db()
        engine = StandingQueryEngine(db, auto_refresh=False)
        standing = engine.register(POLLS[1])
        db.add_session("P", ("Ann", "6/5"), poll(0.2))
        db.expire_session("P", ("Dave", "6/5"))
        crash_next_execution(
            monkeypatch,
            lambda: db.update_session("P", ("Ann", "6/5"), poll(0.7)),
        )
        with pytest.raises(RuntimeError, match="solver crashed"):
            engine.refresh()
        assert standing.pending == {
            ("Ann", "6/5"): "update", ("Dave", "6/5"): "expire",
        }
        engine.refresh()
        assert standing.generation == 3
        assert answers_equal(standing.answer, answer(POLLS[1], db))
        engine.close()

    def test_auto_refresh_failure_stays_out_of_the_writer(
        self, monkeypatch, caplog
    ):
        db = polls_db()
        engine = StandingQueryEngine(db)
        standing = engine.register(POLLS[0])
        seen: list[SessionDelta] = []
        db.subscribe(seen.append)
        crash_next_execution(monkeypatch)
        delta = db.add_session("P", ("Ann", "6/5"), poll(0.2))
        assert db.generation == 1 and seen == [delta]
        assert standing.stale and standing.generation == 0
        assert engine.stats()["refresh_failures"] == 1
        assert "solver crashed" in caplog.text
        db.update_session("P", ("Bob", "5/5"), poll(0.9))
        assert not standing.stale and standing.generation == 2
        assert answers_equal(standing.answer, answer(POLLS[0], db))
        engine.close()

    def test_failing_registration_holds_back_its_batch(self):
        """A registration that cannot be answered (an AGG over a session
        with no attribute row) holds back every query of its batch until
        it is deregistered."""
        db = polls_db()
        engine = StandingQueryEngine(db, auto_refresh=False)
        first = engine.register(POLLS[0])
        aggregate = engine.register(AGG_POLLS)
        db.add_session("P", ("Eve", "5/5"), poll(0.2))
        with pytest.raises(KeyError, match="no row in V"):
            engine.refresh()
        assert first.stale and aggregate.stale and first.generation == 0
        engine.deregister(aggregate.query_id)
        assert engine.refresh() == [first]
        assert answers_equal(first.answer, answer(POLLS[0], db))
        assert engine.stats()["refresh_failures"] == 1
        engine.close()

    def test_failed_registration_is_dropped(self, monkeypatch):
        engine = StandingQueryEngine(polls_db(), auto_refresh=False)
        crash_next_execution(monkeypatch)
        with pytest.raises(RuntimeError, match="solver crashed"):
            engine.register(POLLS[0])
        assert engine.standing_queries() == []
        assert engine.register(POLLS[0]).query_id == 1
        engine.close()


# ----------------------------------------------------------------------
# The replayer
# ----------------------------------------------------------------------


class TestTrafficReplayer:
    def test_same_seed_same_traffic(self):
        schedules = []
        for _ in range(2):
            replayer = TrafficReplayer(
                n_active=6, n_pool=3, n_movies=5, seed=42
            )
            deltas = [d for step in replayer.run(4) for d in step]
            schedules.append(
                [(d.generation, d.kind, d.key) for d in deltas]
            )
        assert schedules[0] == schedules[1]

    def test_step_respects_schedule_counts(self):
        replayer = TrafficReplayer(
            n_active=6, n_pool=2, n_movies=5,
            arrivals=1, updates=2, expirations=1, seed=5,
        )
        kinds = [d.kind for d in replayer.step()]
        assert kinds.count("add") == 1
        assert kinds.count("update") == 2
        assert kinds.count("expire") == 1

    def test_relation_never_drains(self):
        replayer = TrafficReplayer(
            n_active=2, n_pool=0, n_movies=4,
            arrivals=0, updates=0, expirations=5, seed=1,
        )
        replayer.run(6)
        assert len(list(replayer.db.prelation("P").session_keys())) >= 2

    def test_standing_requests_cycle_all_kinds(self):
        replayer = TrafficReplayer(n_active=2, n_movies=4, seed=0)
        requests = replayer.standing_requests(4)
        assert len(requests) == 4
        assert requests[1].startswith("COUNT ")
        assert requests[2].startswith("TOPK 3 ")
        assert requests[3].startswith("AGG mean(V.age) ")


# ----------------------------------------------------------------------
# The server gauge and the CLI
# ----------------------------------------------------------------------


class TestObservability:
    def test_server_stats_gains_standing_queries_gauge(self):
        db = make_db()
        engine = StandingQueryEngine(db, auto_refresh=False)
        engine.register(QUERY)
        app = ServerApp(
            ServerConfig(dataset="polls", backend="serial", port=0),
            stream=engine,
        )
        try:
            db.update_session("P", ("w0",), model(0.9))
            stats = app.handle_stats()
            gauge = stats["standing_queries"]
            assert gauge["count"] == 1
            assert gauge["generation"] == 1
            assert gauge["max_staleness"] == 1
            assert gauge["refreshes"] == 1
            assert gauge["refresh_failures"] == 0
            assert "invalidations_applied" in gauge
        finally:
            asyncio.run(app.shutdown())
            engine.close()

    def test_server_without_stream_has_no_gauge(self):
        app = ServerApp(
            ServerConfig(dataset="polls", backend="serial", port=0)
        )
        try:
            assert "standing_queries" not in app.handle_stats()
        finally:
            asyncio.run(app.shutdown())


class TestReplayCLI:
    def test_replay_verifies_bit_identity(self, capsys):
        from repro.__main__ import main

        assert main([
            "replay", "--steps", "2", "--sessions", "8", "--pool", "3",
            "--movies", "5", "--queries", "4", "--verify", "--seed", "3",
        ]) == 0
        output = capsys.readouterr().out
        assert "fresh_solves" in output
        assert "bit-identical" in output

    def test_replay_with_shards(self, capsys):
        from repro.__main__ import main

        assert main([
            "replay", "--steps", "1", "--sessions", "6", "--pool", "2",
            "--movies", "5", "--queries", "2", "--shards", "2",
            "--seed", "3",
        ]) == 0
        assert "steady state" in capsys.readouterr().out

    def test_replay_rejects_bad_arguments(self, capsys):
        from repro.__main__ import main

        assert main(["replay", "--steps", "0"]) == 2
        assert main([
            "replay", "--steps", "1", "--method", "rejection",
        ]) == 2
        assert "cacheable" in capsys.readouterr().err
