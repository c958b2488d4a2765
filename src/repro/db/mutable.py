"""Streaming mutations over a RIM-PPD: typed session deltas.

The static :class:`~repro.db.database.PPDatabase` answers queries over a
frozen snapshot.  The streaming scenario (ROADMAP open item 4) needs the
same instance to *evolve*: sessions arrive, update their model, and
expire while standing queries stay registered against the database.

:class:`MutablePPDatabase` is that evolving instance.  It is a plain
``PPDatabase`` to every consumer — the query compiler, the plan builder,
and the executor read it exactly like a snapshot — plus three mutators
(:meth:`~MutablePPDatabase.add_session`,
:meth:`~MutablePPDatabase.update_session`,
:meth:`~MutablePPDatabase.expire_session`).  Every mutation:

* bumps a **monotonic generation counter** — the version stamp answers
  carry so stale reads are detectable
  (:attr:`repro.api.answer.Answer.generation`);
* emits one typed :class:`SessionDelta` to every subscriber — the feed
  the standing-query engine (:mod:`repro.stream.standing`) maps onto
  canonical solve identities; one that raises is logged, not re-raised.

O-relations stay immutable: the streaming axis of this scenario is the
*session* population (who is ranking right now), not the item catalog.
Consequently a mutation can never change a compiled pattern labeling,
only which sessions carry which model — exactly the per-session
factorization the paper's Section 6.4 grouping (and the plan IR's
common-solve elimination) exploits.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Literal, cast

from repro.db.database import PPDatabase
from repro.db.schema import ORelation, PRelation, SessionKey

_log = logging.getLogger(__name__)

DeltaKind = Literal["add", "update", "expire"]

#: A subscriber receives each delta exactly once, in generation order.
DeltaCallback = Callable[["SessionDelta"], None]


@dataclass(frozen=True)
class SessionDelta:
    """One session mutation, as observed by standing-query subscribers.

    ``generation`` is the database generation *after* the mutation — the
    first delta of a fresh database carries generation 1.  ``model`` is
    the session's new model for ``add``/``update`` and ``None`` for
    ``expire``.
    """

    generation: int
    relation: str
    key: SessionKey
    kind: DeltaKind
    model: Any = None


class MutablePRelation(PRelation):
    """A :class:`PRelation` whose owning database may mutate its sessions.

    The mutators are private on purpose: all mutation flows through
    :class:`MutablePPDatabase`, which owns the generation counter and the
    subscriber feed.  The p-relation's item universe is frozen at
    construction — arriving sessions must rank the same items, like every
    session of a static instance.
    """

    @classmethod
    def from_relation(cls, relation: PRelation) -> "MutablePRelation":
        return cls(
            relation.name,
            relation.session_columns,
            {key: relation.model_of(key) for key in relation.session_keys()},
        )

    def _normalize_key(self, key: Any) -> SessionKey:
        normalized = (
            tuple(key) if isinstance(key, (tuple, list)) else (key,)
        )
        if len(normalized) != len(self.session_columns):
            raise ValueError(
                f"session key {normalized!r} does not match columns "
                f"{self.session_columns}"
            )
        return cast(SessionKey, normalized)

    def _set_session(self, key: SessionKey, model: Any) -> None:
        items = frozenset(model.items)
        if items != self._items:
            raise ValueError(
                f"session {key!r} ranks a different item universe"
            )
        self._sessions[key] = model

    def _pop_session(self, key: SessionKey) -> Any:
        if key not in self._sessions:
            raise KeyError(f"{self.name} has no session {key!r}")
        if len(self._sessions) == 1:
            raise ValueError(
                f"p-relation {self.name} needs at least one session; "
                f"cannot expire the last one ({key!r})"
            )
        return self._sessions.pop(key)


class MutablePPDatabase(PPDatabase):
    """A :class:`PPDatabase` whose sessions arrive, update, and expire.

    Mutations are serialized under one lock, bump the monotonic
    :attr:`generation`, and notify subscribers (outside the lock, in
    generation order).  Reads are the inherited snapshot reads — a
    caller interleaving queries with mutations sees each query evaluated
    against some single generation as long as it serializes its own
    mutation/evaluation interleaving, which is the standing-query
    engine's job.
    """

    def __init__(
        self,
        orelations: Iterable[ORelation] = (),
        prelations: Iterable[PRelation] = (),
    ):
        super().__init__(orelations, prelations)
        wrapped: dict[str, PRelation] = {
            name: (
                relation
                if isinstance(relation, MutablePRelation)
                else MutablePRelation.from_relation(relation)
            )
            for name, relation in self.prelations.items()
        }
        self.prelations = wrapped
        self._generation = 0
        self._subscribers: dict[int, DeltaCallback] = {}
        self._next_token = 0
        self._lock = threading.RLock()

    @classmethod
    def from_database(cls, db: PPDatabase) -> "MutablePPDatabase":
        """Wrap a static instance (o-relations shared, sessions copied)."""
        return cls(db.orelations.values(), db.prelations.values())

    @property
    def generation(self) -> int:
        """Monotonic mutation counter; 0 for a freshly built database."""
        return self._generation

    def __repr__(self) -> str:
        return (
            f"MutablePPDatabase(o={sorted(self.orelations)}, "
            f"p={sorted(self.prelations)}, generation={self._generation})"
        )

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------

    def subscribe(self, callback: DeltaCallback) -> Callable[[], None]:
        """Register a delta subscriber; returns its unsubscribe callable."""
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._subscribers[token] = callback

        def unsubscribe() -> None:
            with self._lock:
                self._subscribers.pop(token, None)

        return unsubscribe

    # ------------------------------------------------------------------
    # Mutators
    # ------------------------------------------------------------------

    def _mutable(self, relation: str) -> MutablePRelation:
        target = self.prelation(relation)
        return cast(MutablePRelation, target)

    def _stamp(
        self,
        relation: str,
        key: SessionKey,
        kind: DeltaKind,
        model: Any,
    ) -> tuple[SessionDelta, list[DeltaCallback]]:
        """Bump the generation for an applied mutation.

        Called with the mutator's lock already held (reentrant), so the
        generation bump is atomic with the mutation it stamps.
        """
        with self._lock:
            self._generation += 1
            delta = SessionDelta(
                generation=self._generation,
                relation=relation,
                key=key,
                kind=kind,
                model=model,
            )
            return delta, list(self._subscribers.values())

    def _notify(
        self, delta: SessionDelta, subscribers: list[DeltaCallback]
    ) -> SessionDelta:
        """Deliver a stamped delta outside the lock, in generation order.

        Notification happens after the lock is released so a subscriber
        may re-enter the database (e.g. to refresh a standing query
        against the new generation).  The mutation is applied by then, so
        a subscriber that raises is logged with the delta, not re-raised.
        """
        for callback in subscribers:
            try:
                callback(delta)
            except Exception:
                _log.exception("delta subscriber %r failed on %r", callback, delta)
        return delta

    def add_session(
        self, relation: str, key: Any, model: Any
    ) -> SessionDelta:
        """A new session arrives; its key must not be present yet."""
        with self._lock:
            target = self._mutable(relation)
            session_key = target._normalize_key(key)
            if session_key in target:
                raise ValueError(
                    f"{relation} already has session {session_key!r}; "
                    "use update_session"
                )
            target._set_session(session_key, model)
            delta, subscribers = self._stamp(
                relation, session_key, "add", model
            )
        return self._notify(delta, subscribers)

    def update_session(
        self, relation: str, key: Any, model: Any
    ) -> SessionDelta:
        """An existing session replaces its preference model."""
        with self._lock:
            target = self._mutable(relation)
            session_key = target._normalize_key(key)
            if session_key not in target:
                raise KeyError(
                    f"{relation} has no session {session_key!r} to update"
                )
            target._set_session(session_key, model)
            delta, subscribers = self._stamp(
                relation, session_key, "update", model
            )
        return self._notify(delta, subscribers)

    def expire_session(self, relation: str, key: Any) -> SessionDelta:
        """An existing session leaves (a p-relation keeps >= 1 session)."""
        with self._lock:
            target = self._mutable(relation)
            session_key = target._normalize_key(key)
            target._pop_session(session_key)
            delta, subscribers = self._stamp(
                relation, session_key, "expire", None
            )
        return self._notify(delta, subscribers)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> PPDatabase:
        """A frozen copy at the current generation.

        The from-scratch reference the streaming tests evaluate against:
        later mutations of this database never reach the snapshot.
        O-relations are shared (immutable); session maps are copied.
        """
        with self._lock:
            return PPDatabase(
                orelations=list(self.orelations.values()),
                prelations=[
                    PRelation(
                        relation.name,
                        relation.session_columns,
                        {
                            key: relation.model_of(key)
                            for key in relation.session_keys()
                        },
                    )
                    for relation in self.prelations.values()
                ],
            )
