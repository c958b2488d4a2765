"""Standing queries: materialized answers kept fresh by session deltas.

A :class:`StandingQuery` is a registered request whose :class:`~repro.api
.answer.Answer` is materialized and maintained as the underlying
:class:`~repro.db.mutable.MutablePPDatabase` evolves.  The maintenance
strategy exploits the architecture the earlier PRs built, instead of a
parallel incremental engine:

* **Content-addressed solve identities.**  Every per-session solve is
  named by its canonical ``session_cache_key`` — a function of the
  session's *model* (``freeze()``), labeling, and union, never of the
  session's identity.  A mutated session therefore freezes to a *new*
  key; cached entries can never go stale.  Incremental maintenance is
  simply: re-run the normal build -> optimize -> execute pipeline against
  the **shared warm cache** — unchanged sessions hit the cache, only the
  delta's solves run fresh, and the lazy top-k frontier re-ranks with
  cached bounds and confirmations (a delta's sessions are bounded fresh
  and re-enter the frontier in bound order).
* **Delta -> solve-identity mapping.**  Each refresh records the plan's
  ``session -> cache keys`` map from its terminals: the session's solve
  key and the keys of its top-k upper bounds.  When a delta updates or
  expires a session, the session's *previous* keys are retired from the
  cache via the targeted :meth:`~repro.service.cache.SolverCache
  .invalidate` — exactly those entries, counted, and only once no other
  registered standing query still references the key.  This keeps the
  warm tier's occupancy proportional to the live session population
  (invalidation is reclamation + bookkeeping; correctness never depends
  on it, which is what makes the scheme race-free).
* **Generations.**  Answers carry the database generation they were
  computed against (:attr:`~repro.api.answer.Answer.generation`);
  :meth:`StandingQueryEngine.stats` exports count / max staleness /
  invalidations for the server's ``/stats`` gauge.

See DESIGN.md Section 15.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable

from repro.api.answer import Answer
from repro.api.evaluate import answer_with_plan
from repro.api.requests import QueryRequest, as_request
from repro.db.mutable import MutablePPDatabase, SessionDelta
from repro.db.schema import SessionKey
from repro.plan.methods import APPROXIMATE_METHODS
from repro.plan.nodes import QueryPlan
from repro.query.classify import analyze
from repro.service.cache import SolverCache


@dataclass
class StandingQuery:
    """One registered request with its materialized answer.

    ``generation`` is the database generation the materialized answer is
    *valid as of* — it advances without recomputation when deltas touch
    only sessions outside this query's p-relation.  ``cache_keys`` is the
    last refresh's ``session -> cache keys`` map (its solve key, then its
    bound keys), the index a delta-targeted invalidation consults;
    ``referenced`` holds the same keys as one set, hashed once per refresh,
    so another registration's retirement checks its few candidates against
    it without rehashing every key.
    """

    query_id: int
    request: QueryRequest
    method: str
    options: dict[str, Any]
    p_relation: str
    answer: "Answer | None" = None
    generation: int = 0
    cache_keys: dict[SessionKey, tuple[Hashable, ...]] = field(
        default_factory=dict
    )
    referenced: frozenset[Hashable] = frozenset()
    #: Sessions touched since the last refresh (key -> last delta kind).
    pending: dict[SessionKey, str] = field(default_factory=dict)
    n_refreshes: int = 0
    n_fresh_solves: int = 0
    n_invalidations: int = 0

    @property
    def stale(self) -> bool:
        """True when a delta touched this query since its last refresh."""
        return bool(self.pending)

    @property
    def value(self) -> Any:
        """The materialized answer's principal value."""
        if self.answer is None:
            raise ValueError(
                f"standing query {self.query_id} is not materialized yet"
            )
        return self.answer.value


def answers_equal(left: "Answer | None", right: "Answer | None") -> bool:
    """Bit-identical comparison of two answers' observable results.

    The streaming acceptance bar: a materialized answer must equal a
    from-scratch evaluation on the mutated database *exactly* — same
    kind, same principal value (float equality, not tolerance), and the
    same per-session probability breakdown.  Timing, cache statistics,
    and generation stamps are execution artifacts and excluded.
    """
    if left is None or right is None:
        return left is right
    if left.kind != right.kind or left.value != right.value:
        return False
    left_sessions = [
        (evaluation.key, evaluation.probability)
        for evaluation in left.per_session
    ]
    right_sessions = [
        (evaluation.key, evaluation.probability)
        for evaluation in right.per_session
    ]
    return left_sessions == right_sessions


def terminal_cache_keys(
    plan: QueryPlan,
) -> dict[SessionKey, tuple[Hashable, ...]]:
    """The executed plan's ``session -> cache keys`` map: the session's
    solve key, then the keys of the bound nodes over that solve.

    Read off the terminals' item lists and ``plan.bounds``: unsatisfiable
    sessions (no solve node) and non-canonical plans (no cache keys)
    contribute nothing.
    """
    node_ids: dict[int, list[int]] = {}
    for (solve_id, _), bound_id in plan.bounds.items():
        node_ids.setdefault(solve_id, [solve_id]).append(bound_id)
    keys: dict[SessionKey, tuple[Hashable, ...]] = {}
    for terminal in plan.aggregate_nodes():
        for session_key, solve_id in terminal.items:
            if solve_id is None:
                continue
            node_keys = (
                getattr(plan.nodes[node_id], "cache_key", None)
                for node_id in node_ids.get(solve_id, [solve_id])
            )
            found = tuple(key for key in node_keys if key is not None)
            if found:
                keys[session_key] = found
    return keys


def _flatten(groups: Iterable[tuple[Hashable, ...]]) -> frozenset[Hashable]:
    return frozenset(key for group in groups for key in group)


class StandingQueryEngine:
    """Registrations + the delta feed -> fresh materialized answers.

    The engine subscribes to the database's delta feed.  Each delta marks
    the standing queries over its p-relation stale; with ``auto_refresh``
    (the serving default) they are re-materialized immediately, otherwise
    :meth:`refresh` batches the recomputation — the replay benchmark
    applies a whole arrival/update/expiry step, then refreshes once.

    All registered queries share one :class:`SolverCache` (any tier —
    plain, persistent, or sharded), which is the entire incremental
    machinery: a refresh's unchanged sessions are cache hits, and
    overlapping standing queries share each other's warm solves exactly
    like a batch shares them at plan time.
    """

    def __init__(
        self,
        db: MutablePPDatabase,
        cache: "SolverCache | None" = None,
        method: str = "auto",
        auto_refresh: bool = True,
        session_limit: "int | None" = None,
        **solver_options: Any,
    ) -> None:
        if method in APPROXIMATE_METHODS:
            raise ValueError(
                f"standing queries need a cacheable method, not the "
                f"rng-driven {method!r} — incremental maintenance is "
                "cache reuse"
            )
        self.db = db
        self.cache = cache if cache is not None else SolverCache()
        self.method = method
        self.auto_refresh = auto_refresh
        self._session_limit = session_limit
        self._options = dict(solver_options)
        self._queries: dict[int, StandingQuery] = {}
        self._next_id = 0
        self._lock = threading.RLock()
        self._n_refreshes = 0
        self._n_fresh_solves = 0
        self._n_invalidations = 0
        self._unsubscribe = db.subscribe(self._on_delta)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        request: "QueryRequest | Any",
        method: "str | None" = None,
        **options: Any,
    ) -> StandingQuery:
        """Register a request (typed or text) and materialize its answer."""
        parsed = as_request(request)
        resolved_method = method if method is not None else self.method
        if resolved_method in APPROXIMATE_METHODS:
            raise ValueError(
                f"standing queries need a cacheable method, not the "
                f"rng-driven {resolved_method!r}"
            )
        analysis = analyze(parsed.query, self.db)
        with self._lock:
            query_id = self._next_id
            self._next_id += 1
            standing = StandingQuery(
                query_id=query_id,
                request=parsed,
                method=resolved_method,
                options={**self._options, **options},
                p_relation=analysis.p_relation,
            )
            self._queries[query_id] = standing
        self._refresh_one(standing)
        return standing

    def deregister(self, query_id: int) -> int:
        """Drop a registration, retiring its now-exclusive cache entries.

        Returns how many entries the targeted invalidation dropped (keys
        another standing query still references are kept warm).
        """
        with self._lock:
            standing = self._queries.pop(query_id, None)
            if standing is None:
                raise KeyError(f"no standing query {query_id}")
            mine = set(standing.referenced)
            for other in self._queries.values():
                mine -= other.referenced
        dropped = (
            self.cache.invalidate(sorted(mine, key=repr)) if mine else 0
        )
        with self._lock:
            self._n_invalidations += dropped
        return dropped

    def standing_queries(self) -> list[StandingQuery]:
        """Current registrations, in registration order."""
        with self._lock:
            return [
                self._queries[query_id] for query_id in sorted(self._queries)
            ]

    def close(self) -> None:
        """Detach from the delta feed (registrations stay readable)."""
        self._unsubscribe()

    def __enter__(self) -> "StandingQueryEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def _on_delta(self, delta: SessionDelta) -> None:
        with self._lock:
            for standing in self._queries.values():
                if standing.p_relation == delta.relation:
                    standing.pending[delta.key] = delta.kind
        if self.auto_refresh:
            self.refresh()

    def refresh(self) -> list[StandingQuery]:
        """Bring every standing query up to the current generation.

        Stale queries (touched by a delta since their last refresh) are
        re-materialized through the shared cache; untouched queries just
        advance their valid-as-of generation.  Returns the queries that
        were re-materialized.
        """
        with self._lock:
            generation = self.db.generation
            stale = [
                self._queries[query_id]
                for query_id in sorted(self._queries)
                if self._queries[query_id].pending
            ]
            for standing in self._queries.values():
                if not standing.pending:
                    standing.generation = max(
                        standing.generation, generation
                    )
        for standing in stale:
            self._refresh_one(standing)
        return stale

    def _refresh_one(self, standing: StandingQuery) -> Answer:
        """Re-materialize one answer through the normal plan pipeline.

        The shared warm cache makes this incremental: only solves whose
        canonical key is new (the delta's sessions) run fresh, including
        the exclusive solves the lazy top-k frontier demands in bound
        order.  Afterwards, retire the previous keys of updated/expired
        sessions that no registration references anymore.
        """
        with self._lock:
            pending = dict(standing.pending)
            standing.pending.clear()
            previous_keys = dict(standing.cache_keys)
        generation = self.db.generation
        result, plan, execution = answer_with_plan(
            standing.request,
            self.db,
            method=standing.method,
            session_limit=self._session_limit,
            cache=self.cache,
            **standing.options,
        )
        cache_keys = terminal_cache_keys(plan)
        referenced = _flatten(cache_keys.values())
        retired = self._retire(standing, pending, previous_keys, referenced)
        with self._lock:
            standing.answer = result
            standing.generation = generation
            standing.cache_keys = cache_keys
            standing.referenced = referenced
            standing.n_refreshes += 1
            standing.n_fresh_solves += execution.n_executed
            standing.n_invalidations += retired
            self._n_refreshes += 1
            self._n_fresh_solves += execution.n_executed
            self._n_invalidations += retired
        return result

    def _retire(
        self,
        standing: StandingQuery,
        pending: dict[SessionKey, str],
        previous_keys: dict[SessionKey, tuple[Hashable, ...]],
        referenced: frozenset[Hashable],
    ) -> int:
        """Invalidate exactly the delta's now-unreferenced cache entries.

        Candidates are the previous keys — solve and bound — of the
        refreshed query's updated or expired sessions (an ``add`` has no
        previous key).  A candidate survives if any registration — this
        one's new keys (``referenced``), or any other standing query — still
        maps some session to it (shared component models make that common).
        """
        candidates = set(
            _flatten(
                previous_keys[key]
                for key, kind in pending.items()
                if kind != "add" and key in previous_keys
            )
        )
        if not candidates:
            return 0
        with self._lock:
            candidates -= referenced
            for other in self._queries.values():
                if other.query_id != standing.query_id:
                    candidates -= other.referenced
        if not candidates:
            return 0
        return self.cache.invalidate(sorted(candidates, key=repr))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """The ``standing_queries`` gauge for the server's ``/stats``."""
        with self._lock:
            generation = self.db.generation
            staleness = [
                generation - standing.generation
                for standing in self._queries.values()
            ]
            return {
                "count": len(self._queries),
                "generation": generation,
                "max_staleness": max(staleness, default=0),
                "refreshes": self._n_refreshes,
                "fresh_solves": self._n_fresh_solves,
                "invalidations_applied": self._n_invalidations,
            }
