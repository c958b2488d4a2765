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
  key; cached entries can never go stale.  So a refresh executes a fresh
  plan against the **shared warm cache**: unchanged sessions hit the
  cache, only the delta's solves run fresh, and the lazy top-k frontier
  re-ranks with cached bounds and confirmations (a delta's sessions are
  bounded fresh and re-enter the frontier in bound order).
* **One grounding across refreshes.**  What a plan derives without
  reading a model — each session's compiled union per registered query,
  and per union its labeling, fingerprints, cost estimates and named
  digest — lives in the engine's :class:`~repro.plan.grounding
  .Grounding`.  A refresh builds and optimizes a new plan through it, so
  it grounds only the sessions it has not seen and reads every model
  from the p-relation: an updated session gets its new key through its
  model's memoized digest.  The plan equals a from-scratch build, down to
  its elimination representatives and LPT order.  It is not the last
  plan patched: elimination points merged sessions at one
  representative, whose union names the top-k bound keys, and after an
  expiry a fresh build may pick another representative.  An expiry
  drops the session from the grounding, a deregistration drops the
  query unless another registration asks it, and a build that finds
  other relation objects than the grounding was filled from starts
  from an empty one.
* **One plan per refresh.**  A refresh plans every stale registration as
  one request list — the step behind :func:`~repro.api.evaluate
  .answer_many` — so the batch is built and optimized
  once, with common-solve elimination across the queries, and each
  answer takes the batch envelope.  A registration is materialized as a
  batch of one.
* **Delta -> solve-identity mapping.**  Each refresh splits the plan's
  ``session -> cache keys`` map by terminal: the session's solve key and
  the keys of the top-k upper bounds its terminal reads.  When a delta
  updates or expires a session, the session's *previous* keys are
  retired from the cache via the targeted :meth:`~repro.service.cache
  .SolverCache.invalidate` — exactly those entries, counted, and only
  once no registered standing query still references the key.  This
  keeps the warm tier's occupancy proportional to the live session
  population (invalidation is reclamation + bookkeeping; correctness
  never depends on it, which is what makes the scheme race-free).
* **Failures stay stale.**  A refresh that raises leaves every query of
  its batch flagged stale (a plan that raised leaves its last good
  answer and generation in place), counts the failure and re-raises; a
  refresh triggered by the delta feed raises into the database's
  notification loop, which logs it and keeps it from the writer.
* **Generations.**  Answers carry the database generation they were
  computed against (:attr:`~repro.api.answer.Answer.generation`);
  :meth:`StandingQueryEngine.stats` exports count / max staleness /
  invalidations / refresh failures for the server's ``/stats`` gauge.

See DESIGN.md Section 15.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, cast

from repro.api.answer import Answer
from repro.api.evaluate import _run_plan, assemble_answers, db_generation
from repro.api.requests import QueryRequest, as_request
from repro.db.mutable import MutablePPDatabase, SessionDelta
from repro.db.schema import SessionKey
from repro.plan.execute import PlanExecution
from repro.plan.grounding import Grounding
from repro.plan.nodes import QueryPlan, SolveNode, TopKSessionsNode
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
    so a retirement checks its few candidates against it without
    rehashing every key.
    """

    query_id: int
    request: QueryRequest
    method: str
    p_relation: str
    answer: "Answer | None" = None
    generation: int = 0
    cache_keys: dict[SessionKey, tuple[str, ...]] = field(
        default_factory=dict
    )
    referenced: frozenset[str] = frozenset()
    #: Sessions touched since the last refresh (key -> last delta kind).
    pending: dict[SessionKey, str] = field(default_factory=dict)
    n_refreshes: int = 0

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
    plan: QueryPlan, execution: PlanExecution
) -> list[dict[SessionKey, tuple[str, ...]]]:
    """The executed plan's ``session -> cache keys`` map per terminal, in
    request order: the session's solve key, then the key of the bound
    node over that solve if the terminal is an upper-bound top-k.

    Read off the terminals' item lists and the execution's bound nodes:
    unsatisfiable sessions (no solve node) and non-canonical plans (no
    cache keys) contribute nothing.
    """
    per_terminal: list[dict[SessionKey, tuple[str, ...]]] = []
    for terminal in plan.aggregate_nodes():
        n_edges = (
            terminal.n_edges
            if isinstance(terminal, TopKSessionsNode) and terminal.lazy
            else None
        )
        keys: dict[SessionKey, tuple[str, ...]] = {}
        for session_key, solve_id in terminal.items:
            if solve_id is None:
                continue
            bound = (
                execution.bounds.get((solve_id, n_edges))
                if n_edges is not None
                else None
            )
            node_keys = (
                cast(SolveNode, plan.nodes[solve_id]).cache_key,
                bound.cache_key if bound is not None else None,
            )
            found = tuple(key for key in node_keys if key is not None)
            if found:
                keys[session_key] = found
        per_terminal.append(keys)
    return per_terminal


class StandingQueryEngine:
    """Registrations + the delta feed -> fresh materialized answers.

    The engine subscribes to the database's delta feed.  Each delta marks
    the standing queries over its p-relation stale; with ``auto_refresh``
    (the serving default) they are re-materialized immediately, otherwise
    :meth:`refresh` batches the recomputation — the replay benchmark
    applies a whole arrival/update/expiry step, then refreshes once.

    All registered queries share one :class:`SolverCache` (any tier —
    plain, persistent, or sharded) and one ``method``, and a refresh runs
    them as one plan: its unchanged sessions are cache hits, and
    overlapping standing queries share each other's solves exactly like a
    batch shares them at plan time.  A sampled method is maintained the
    same way: a sampled solve is cached under its key at the library's
    default seed, so a refresh re-draws only the sessions its delta
    touched.  Every refresh plans through one :attr:`grounding`, which
    holds only the live sessions of the registered queries.
    """

    def __init__(
        self,
        db: MutablePPDatabase,
        cache: "SolverCache | None" = None,
        method: str = "auto",
        auto_refresh: bool = True,
    ) -> None:
        self.db = db
        self.cache = cache if cache is not None else SolverCache()
        self.method = method
        self.auto_refresh = auto_refresh
        self._queries: dict[int, StandingQuery] = {}
        self._next_id = 0
        self._lock = threading.RLock()
        self._n_refreshes = 0
        self._n_refresh_failures = 0
        self._n_fresh_solves = 0
        self._n_invalidations = 0
        #: What every refresh's plan derives without reading a model.
        self.grounding = Grounding()
        self._unsubscribe = db.subscribe(self._on_delta)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, request: "QueryRequest | Any") -> StandingQuery:
        """Register a request (typed or text) and materialize its answer
        as a batch of one; if that raises, the registration is dropped."""
        parsed = as_request(request)
        analysis = analyze(parsed.query, self.db)
        with self._lock:
            query_id = self._next_id
            self._next_id += 1
            standing = StandingQuery(
                query_id=query_id,
                request=parsed,
                method=self.method,
                p_relation=analysis.p_relation,
            )
            self._queries[query_id] = standing
            generation = self.db.generation
        try:
            self._materialize([standing], [{}], generation)
        except BaseException:
            with self._lock:
                self._queries.pop(query_id, None)
            self._forget_unless_registered(parsed)
            raise
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
        self._forget_unless_registered(standing.request)
        return self._retire(set(standing.referenced))

    def _forget_unless_registered(self, request: QueryRequest) -> None:
        """Drop the request's query from the grounding unless a
        registration still asks it (a COUNT and a TOPK of one query share
        its grounding)."""
        with self._lock:
            if any(
                other.request.query == request.query
                for other in self._queries.values()
            ):
                return
        self.grounding.forget_query(request.query)

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
        if delta.kind == "expire":
            self.grounding.forget_session(delta.relation, delta.key)
        if self.auto_refresh:
            # A failure stays stale and counted (refresh); the database's
            # _notify logs it and delivers on to later subscribers.
            self.refresh()

    def refresh(self) -> list[StandingQuery]:
        """Bring every standing query up to the current generation.

        Stale queries (touched by a delta since their last refresh) are
        re-materialized as one plan through the shared cache; untouched
        queries just advance their valid-as-of generation.  Returns the
        queries that were re-materialized.  If the refresh raises, every
        stale query stays stale (its touched sessions merge back, newer
        deltas winning; a plan that raised leaves its last answer and
        generation in place), the failure is counted in :meth:`stats`,
        and the error propagates.
        """
        with self._lock:
            generation = self.db.generation
            stale = [
                self._queries[query_id]
                for query_id in sorted(self._queries)
                if self._queries[query_id].pending
            ]
            touched = [standing.pending for standing in stale]
            for standing in self._queries.values():
                if standing.pending:
                    standing.pending = {}
                else:
                    standing.generation = max(
                        standing.generation, generation
                    )
        if not stale:
            return stale
        try:
            self._materialize(stale, touched, generation)
        except BaseException:
            with self._lock:
                self._n_refresh_failures += 1
                for standing, sessions in zip(stale, touched):
                    standing.pending = {**sessions, **standing.pending}
            raise
        return stale

    def _materialize(
        self,
        batch: list[StandingQuery],
        touched: list[dict[SessionKey, str]],
        generation: int,
    ) -> None:
        """Answer ``batch`` as one plan, then retire the previous keys of
        its updated or expired (``touched``) sessions that no registration
        references any more."""
        plan, execution = _run_plan(
            [standing.request for standing in batch], self.db, self.method,
            {}, True, None, optimize=True, canonical=True, seed=0,
            cache=self.cache, backend=None, grounding=self.grounding,
        )
        answers = assemble_answers(plan, execution, batched=True)
        stamp = db_generation(self.db)
        keys = terminal_cache_keys(plan, execution)
        candidates: set[str] = set()
        with self._lock:
            for standing, result, session_keys, sessions in zip(
                batch, answers, keys, touched
            ):
                candidates.update(
                    key
                    for session, kind in sessions.items()
                    if kind != "add"
                    for key in standing.cache_keys.get(session, ())
                )
                result.generation = stamp
                standing.answer = result
                standing.generation = generation
                standing.cache_keys = session_keys
                standing.referenced = frozenset(
                    key for group in session_keys.values() for key in group
                )
                standing.n_refreshes += 1
            self._n_refreshes += len(batch)
            self._n_fresh_solves += execution.n_executed
        self._retire(candidates)

    def _retire(self, candidates: set[str]) -> int:
        """Invalidate the candidates no registration references, checking
        every registration once; returns how many entries were dropped."""
        with self._lock:
            for standing in self._queries.values():
                candidates -= standing.referenced
        if not candidates:
            return 0
        dropped = self.cache.invalidate(sorted(candidates))
        with self._lock:
            self._n_invalidations += dropped
        return dropped

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
                "refresh_failures": self._n_refresh_failures,
                "fresh_solves": self._n_fresh_solves,
                "invalidations_applied": self._n_invalidations,
            }
