"""The standing engine's grounding: a refresh re-grounds only arrivals.

A :class:`~repro.stream.standing.StandingQueryEngine` keeps one
:class:`~repro.plan.grounding.Grounding` across refreshes: per registered
query, each session's compiled union, and per union what a plan derives
from it alone.  A refresh still builds and optimizes a new plan through
it.  These tests pin that the plan equals a from-scratch build on a
snapshot of the same generation, terminal by terminal (a plan patched
from the last one would keep stale elimination representatives and their
bound keys), that its answers equal a fresh ``answer()``, that only
arriving sessions are grounded, and that the grounding holds only the
live sessions of the registered queries and resets when the relations
it was filled from are replaced.  CI runs the seeded replay long
(``--hypothesis-profile=long``).
"""

from __future__ import annotations

import sys
import threading
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import TopK, answer, evaluate
from repro.db.mutable import MutablePPDatabase
from repro.db.schema import ORelation
from repro.plan import build_plan, optimize_plan
from repro.query import engine as query_engine
from repro.rankings.permutation import Ranking
from repro.rim.mallows import Mallows
from repro.service.keys import named_union_fingerprint
from repro.stream import StandingQueryEngine, TrafficReplayer, answers_equal
from tests.test_dp_kernels import PROPERTY_SETTINGS
from tests.test_topk_bound_keys import (
    QUERY as TIE_QUERY,
    RENAMED,
    TIE_ROWS,
    TIE_SESSIONS,
    database,
    instances,
)

pytestmark = pytest.mark.timeout(300)

_LONG_PROFILE = settings.get_profile("long")

#: Seeded replays: a few in tier-1, more in CI's long run (each one
#: replays 40 generations).
REPLAY_SETTINGS = settings(
    max_examples=25 if settings.default is _LONG_PROFILE else 3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

GENERATIONS = 40


def plan_signature(plan) -> tuple:
    """What two builds of one generation must agree on, node ids included:
    per terminal its items with each solve's key and named union, and
    its bound keys; the frontier's keys, methods, sessions and costs in
    LPT order; the planned and eliminated counts."""
    def solve(solve_id):
        node = plan.nodes[solve_id]
        return (
            node.cache_key, named_union_fingerprint(node.union),
            node.method, tuple(node.sessions),
        )

    terminals = [
        (
            terminal.kind,
            [
                (key, solve_id, None if solve_id is None else solve(solve_id))
                for key, solve_id in terminal.items
            ],
            dict(getattr(terminal, "bound_keys", {})),
        )
        for terminal in plan.aggregate_nodes()
    ]
    frontier = [
        (solve_id, solve(solve_id), plan.nodes[solve_id].cost)
        for solve_id in plan.solve_order
    ]
    return (
        terminals, frontier, plan.n_solves_planned, plan.n_solves_eliminated,
    )


def from_scratch(engine, requests, db):
    plan = build_plan(requests, db, method=engine.method)
    return optimize_plan(plan, canonical=True)


class CapturedPlans:
    """Records every plan the engine executes."""

    def __init__(self):
        self.plans = []
        self._execute = evaluate.execute_plan

    def __call__(self, plan, *args, **kwargs):
        self.plans.append(plan)
        return self._execute(plan, *args, **kwargs)


# ----------------------------------------------------------------------
# A refresh's plan is a from-scratch plan
# ----------------------------------------------------------------------


@REPLAY_SETTINGS
@given(
    seed=st.integers(0, 2**16),
    n_active=st.integers(4, 10),
    n_pool=st.integers(1, 3),
    updates=st.integers(0, 3),
    n_requests=st.integers(4, 8),
)
def test_refresh_plans_equal_from_scratch_plans(
    seed, n_active, n_pool, updates, n_requests
):
    replayer = TrafficReplayer(
        n_active=n_active, n_pool=n_pool, n_movies=5, updates=updates,
        seed=seed,
    )
    engine = StandingQueryEngine(replayer.db, auto_refresh=False)
    registered = [
        engine.register(text)
        for text in replayer.standing_requests(n_requests)
    ]
    requests = [standing.request for standing in registered]
    captured = CapturedPlans()
    expired: set = set()
    rearrived = 0
    with mock.patch.object(evaluate, "execute_plan", captured):
        for generation in range(1, GENERATIONS + 1):
            for delta in replayer.step():
                if delta.kind == "expire":
                    expired.add(delta.key)
                elif delta.kind == "add" and delta.key in expired:
                    rearrived += 1
            captured.plans.clear()
            engine.refresh()
            assert len(captured.plans) == 1
            snapshot = replayer.db.snapshot()
            reference = from_scratch(engine, requests, snapshot)
            assert plan_signature(captured.plans[0]) == plan_signature(
                reference
            ), f"generation {generation}"
            if generation % 10 == 0:
                for standing in registered:
                    assert answers_equal(
                        standing.answer,
                        answer(standing.request, snapshot),
                    ), f"query {standing.query_id}, generation {generation}"
    assert rearrived
    engine.close()


def test_a_refresh_grounds_only_arriving_sessions(monkeypatch):
    """Selection and compilation run for arrivals only: an update reads
    the new model through the existing grounding, and an expiry drops
    an entry."""
    replayer = TrafficReplayer(n_active=10, n_pool=3, n_movies=6, seed=5)
    engine = StandingQueryEngine(replayer.db, auto_refresh=False)
    registered = [
        engine.register(text) for text in replayer.standing_requests(6)
    ]
    bound: list = []
    compiled: list = []
    bind, compile_union = (
        query_engine._bind_session_terms, query_engine._compile_union,
    )

    def counting_bind(analysis, key):
        bound.append(key)
        return bind(analysis, key)

    def counting_compile(*args):
        compiled.append(args)
        return compile_union(*args)

    monkeypatch.setattr(query_engine, "_bind_session_terms", counting_bind)
    monkeypatch.setattr(query_engine, "_compile_union", counting_compile)
    n_queries = len({standing.request.query for standing in registered})
    for _ in range(12):
        bound.clear()
        compiled.clear()
        deltas = replayer.step()
        engine.refresh()
        arrived = [delta.key for delta in deltas if delta.kind == "add"]
        assert sorted(bound) == sorted(arrived * n_queries)
        assert len(compiled) <= len(bound)
    # An update alone grounds nothing.
    bound.clear()
    key = replayer.db.prelation("P").session_keys()[0]
    replayer.db.update_session("P", key, Mallows(Ranking([5, 4, 3, 2, 1, 6]), 0.4))
    engine.refresh()
    assert bound == [] and compiled == []
    snapshot = replayer.db.snapshot()
    for standing in registered:
        assert answers_equal(standing.answer, answer(standing.request, snapshot))
    engine.close()


# ----------------------------------------------------------------------
# Renamed unions: each query keeps its own union's bound keys
# ----------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(instances(), st.booleans())
@example((TIE_ROWS, TIE_SESSIONS, 1), True)
@example((TIE_ROWS, TIE_SESSIONS, 2), False)
def test_renamed_topk_refresh_after_deregistration(instance, drop_first):
    """``TIE_QUERY`` and ``RENAMED`` share every solve key but not their
    bound keys: elimination points both at one representative.  After one
    is deregistered and a session updated, the other's refresh must
    equal a fresh ``answer()`` exactly."""
    rows, sessions, k = instance
    db = MutablePPDatabase.from_database(database(rows, sessions))
    engine = StandingQueryEngine(db, auto_refresh=False)
    first = engine.register(TopK(TIE_QUERY, k=k))
    second = engine.register(TopK(RENAMED, k=k))
    for standing in (first, second):
        assert answers_equal(standing.answer, answer(standing.request, db))
    dropped, kept = (first, second) if drop_first else (second, first)
    engine.deregister(dropped.query_id)
    assert set(engine.grounding.sessions()) == {kept.request.query}
    items = sorted(db.prelation("P").items)
    db.update_session("P", ("w0",), Mallows(Ranking(items[::-1]), 0.5))
    assert engine.refresh() == [kept]
    assert answers_equal(kept.answer, answer(kept.request, db))
    engine.close()


# ----------------------------------------------------------------------
# What the grounding holds
# ----------------------------------------------------------------------


QUERY = "P(v; m1; m2), M(m1, 'Drama', _, _, _), M(m2, _, _, _, 'short')"


def live_keys(db) -> frozenset:
    return frozenset(db.prelation("P").session_keys())


def test_grounding_holds_live_sessions_of_registered_queries():
    replayer = TrafficReplayer(n_active=6, n_pool=3, n_movies=5, seed=2)
    engine = StandingQueryEngine(replayer.db, auto_refresh=False)
    registered = [
        engine.register(text) for text in replayer.standing_requests(5)
    ]
    for _ in range(8):
        deltas = replayer.step()
        # An expiry leaves the grounding before any refresh.
        for delta in deltas:
            if delta.kind == "expire":
                for keys in engine.grounding.sessions().values():
                    assert delta.key not in keys
        engine.refresh()
        grounded = engine.grounding.sessions()
        assert set(grounded) == {
            standing.request.query for standing in registered
        }
        assert all(keys == live_keys(replayer.db) for keys in grounded.values())
    engine.close()


def test_deregister_keeps_a_query_another_registration_asks():
    replayer = TrafficReplayer(n_active=6, n_pool=2, n_movies=5, seed=3)
    engine = StandingQueryEngine(replayer.db, auto_refresh=False)
    first = engine.register(QUERY)
    twin = engine.register(QUERY)
    count = engine.register(f"COUNT {QUERY}")
    other = engine.register(f"TOPK 2 {QUERY.replace('Drama', 'Comedy')}")
    query = first.request.query
    engine.deregister(first.query_id)
    engine.deregister(count.query_id)
    assert query in engine.grounding.sessions()
    engine.deregister(twin.query_id)
    assert set(engine.grounding.sessions()) == {other.request.query}
    engine.deregister(other.query_id)
    assert engine.grounding.sessions() == {}
    engine.close()


def test_a_failed_registration_leaves_no_grounding():
    replayer = TrafficReplayer(n_active=6, n_pool=2, n_movies=5, seed=3)
    engine = StandingQueryEngine(replayer.db, auto_refresh=False)
    with pytest.raises(KeyError):
        # No session has a row in M, so the attribute join fails after
        # the sessions were grounded.
        engine.register(f"AGG mean(M.lead_age) {QUERY}")
    assert engine.grounding.sessions() == {}
    engine.close()


def test_replaced_orelations_start_an_empty_grounding():
    """``db.orelations`` is a plain dict: a build that finds another
    object there than the grounding was filled from grounds again."""
    replayer = TrafficReplayer(n_active=8, n_pool=2, n_movies=5, seed=4)
    db = replayer.db
    engine = StandingQueryEngine(db, auto_refresh=False)
    registered = [engine.register(text) for text in replayer.standing_requests(4)]
    movies = db.orelation("M")
    flipped = ORelation(
        "M",
        list(movies.columns),
        [
            (row[0], "Drama" if row[1] != "Drama" else "Comedy", *row[2:])
            for row in movies.rows
        ],
    )
    db.orelations["M"] = flipped
    replayer.step()
    engine.refresh()
    snapshot = db.snapshot()
    changed = 0
    for standing in registered:
        fresh = answer(standing.request, snapshot)
        assert answers_equal(standing.answer, fresh)
        snapshot.orelations["M"] = movies
        changed += not answers_equal(fresh, answer(standing.request, snapshot))
        snapshot.orelations["M"] = flipped
    assert changed  # the replaced relation matters to these queries
    engine.close()


def test_concurrent_builds_through_one_grounding():
    """Two refreshes and two registrations at once, on four threads, all
    build through the engine's grounding; every answer still equals a
    fresh one, and deregistering the extra requests leaves the grounding
    to the rest."""
    replayer = TrafficReplayer(n_active=8, n_pool=3, n_movies=5, seed=6)
    engine = StandingQueryEngine(replayer.db, auto_refresh=False)
    registered = [
        engine.register(text) for text in replayer.standing_requests(4)
    ]
    extras = replayer.standing_requests(12)[4:]
    errors: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_index in range(4):
            replayer.step()
            start = threading.Barrier(4)
            added: list = []

            def run(action):
                try:
                    start.wait(timeout=60)
                    action()
                except Exception as error:  # reported by the assert below
                    errors.append(error)

            texts = extras[2 * round_index:2 * round_index + 2]
            actions = [engine.refresh, engine.refresh] + [
                lambda text=text: added.append(engine.register(text))
                for text in texts
            ]
            threads = [
                threading.Thread(target=run, args=(action,))
                for action in actions
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert errors == []
            engine.refresh()
            snapshot = replayer.db.snapshot()
            for standing in registered + added:
                assert answers_equal(
                    standing.answer, answer(standing.request, snapshot)
                ), (round_index, standing.query_id)
            for standing in added:
                engine.deregister(standing.query_id)
            assert set(engine.grounding.sessions()) == {
                standing.request.query for standing in registered
            }
    finally:
        sys.setswitchinterval(interval)
    engine.close()
