"""Streaming sessions: standing queries with incremental maintenance.

The online scenario of ROADMAP open item 4 — live traffic over live
data.  Sessions arrive, update, and expire through a
:class:`~repro.db.mutable.MutablePPDatabase` (typed
:class:`~repro.db.mutable.SessionDelta` events, monotonic generation
counter); a :class:`~repro.stream.standing.StandingQueryEngine` keeps
one materialized :class:`~repro.api.answer.Answer` per registered
request fresh by running its stale registrations as one batch plan
through the normal build -> optimize -> execute pipeline and the shared
warm cache, so only the affected solves execute, building each plan
through one :class:`~repro.plan.grounding.Grounding` that grounds only
arriving sessions, and retiring obsolete entries with the targeted
``invalidate(keys)``; a
:class:`~repro.stream.replay.TrafficReplayer` generates seeded synthetic
arrival/update/expiry schedules for the ``python -m repro replay`` CLI
and ``benchmarks/bench_streaming.py``.

See DESIGN.md Section 15.
"""

from repro.db.mutable import MutablePPDatabase, MutablePRelation, SessionDelta
from repro.stream.replay import TrafficReplayer
from repro.stream.standing import (
    StandingQuery,
    StandingQueryEngine,
    answers_equal,
    terminal_cache_keys,
)

__all__ = [
    "MutablePPDatabase",
    "MutablePRelation",
    "SessionDelta",
    "StandingQuery",
    "StandingQueryEngine",
    "TrafficReplayer",
    "answers_equal",
    "terminal_cache_keys",
]
