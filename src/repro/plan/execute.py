"""The plan executor: run a (optimized) :class:`QueryPlan` to results.

Execution is deliberately thin — all the intelligence is in the plan.  The
executor walks the surviving solve frontier in plan order, consults the
shared :class:`~repro.service.cache.SolverCache` for cacheable nodes, and
runs what remains; :func:`repro.api.evaluate.assemble_answers` then folds
the resolved probabilities into one answer per request.

Two modes:

* **in-process** (``backend=None``) — each solve runs through
  :func:`repro.query.engine.solve_session` on the live model/labeling/union
  objects, with the caller's rng; this is the engine's single-query path;
* **backend** (``backend=`` an :class:`~repro.service.executors
  .ExecutionBackend`) — exact solves are frozen into picklable
  :class:`~repro.service.executors.SolveTask` descriptors (reusing the
  memoized canonical fingerprints) and shipped to the ``serial`` /
  ``thread`` / ``process`` pool in the plan's LPT order; rng-driven solves
  (the ``auto-approx`` fallback) stay in-process, in plan order, so their
  draws are deterministic given the rng.  This is the serving layer's
  batch path.

Aggregate-aware terminals (the unified query API, :mod:`repro.api`) add a
third phase after the eager frontier: :class:`~repro.plan.nodes
.TopKSessionsNode` terminals with the upper-bound strategy own *lazy*
solves — excluded from the eager frontier, demanded in descending
upper-bound order, and skipped entirely once the k-th best confirmed
probability dominates every remaining bound (the paper's top-k pruning) —
and :class:`~repro.plan.nodes.AttributeAggregateNode` terminals draw their
Bernoulli possible-world sample.  Terminals run in request order, so rng
consumption is deterministic.  A lazy solve shared with any eager terminal
(a Count and a TopK of the same query in one batch) stays eager and the
top-k loop reads its probability for free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro.plan.methods import (
    APPROXIMATE_METHODS,
    AUTO_METHODS,
    resolve_solve_method,
)
from repro.plan.nodes import (
    AttributeAggregateNode,
    QueryPlan,
    SolveNode,
    TopKSessionsNode,
)
from repro.query.engine import solve_session
from repro.rim.mixture import MallowsMixture
from repro.service.cache import SolverCache
from repro.service.executors import ExecutionBackend, make_solve_task
from repro.solvers.upper_bound import upper_bound_probability


@dataclass
class TopKOutcome:
    """What a top-k terminal's adaptive frontier actually did."""

    #: (session_key, probability), sorted best-first (full confirmed set).
    confirmed: list[tuple] = field(default_factory=list)
    #: (session_key, solve node id | None) in exact-evaluation order.
    evaluated: list[tuple] = field(default_factory=list)
    n_exact: int = 0
    n_upper_bound: int = 0
    upper_bound_seconds: float = 0.0
    exact_seconds: float = 0.0


@dataclass
class AttributeOutcome:
    """The possible-world estimates of one attribute-aggregate terminal."""

    expectation: float = 0.0
    probability_any: float = 0.0
    weighted_average: float = 0.0


@dataclass
class PlanExecution:
    """The raw outcome of executing a plan's solve frontier."""

    #: solve node id -> (probability, solver name)
    resolved: dict[int, tuple[float, str]] = field(default_factory=dict)
    #: measured wall seconds per freshly executed solve node
    seconds_by_solve: dict[int, float] = field(default_factory=dict)
    #: node ids actually solved in this run (not served by the cache)
    fresh: set[int] = field(default_factory=set)
    #: node ids served by the shared SolverCache
    cache_served: set[int] = field(default_factory=set)
    #: solve node ids excluded from the eager frontier (top-k demand pool)
    lazy: set[int] = field(default_factory=set)
    #: top-k terminal node id -> its adaptive-frontier outcome
    topk: dict[int, TopKOutcome] = field(default_factory=dict)
    #: attribute-aggregate terminal node id -> its estimates
    attribute: dict[int, AttributeOutcome] = field(default_factory=dict)
    #: name of the execution backend ("" for the in-process mode)
    backend: str = ""
    seconds: float = 0.0

    @property
    def n_executed(self) -> int:
        return len(self.fresh)

    @property
    def n_cache_hits(self) -> int:
        return len(self.cache_served)


def _node_method(plan: QueryPlan, node: SolveNode) -> str:
    """The node's concrete method, resolving lazily on unoptimized plans.

    Lazy resolution must see the plan-level ``approx_budget`` (the builder
    pops it out of the solver options), or an unoptimized ``auto-approx``
    plan would silently budget against the default instead of the caller's
    value and diverge from its optimized twin.
    """
    if node.method is not None:
        return node.method
    if node.requested_method in AUTO_METHODS:
        return resolve_solve_method(
            node.union,
            node.requested_method,
            node.labeling,
            node.model,
            node.options,
            approx_budget=plan.approx_budget,
        )
    return node.requested_method


def _lazy_solve_ids(plan: QueryPlan) -> set[int]:
    """Solve ids demanded only by lazy (upper-bound top-k) terminals."""
    lazy: set[int] = set()
    eager: set[int] = set()
    for terminal in plan.aggregate_nodes():
        target = lazy if terminal.lazy else eager
        target.update(terminal.solve_ids())
    return lazy - eager


def execute_plan(
    plan: QueryPlan,
    cache: SolverCache | None = None,
    rng: "np.random.Generator | None" = None,
    backend: "ExecutionBackend | None" = None,
) -> PlanExecution:
    """Run the plan's solve frontier; see the module docstring for modes."""
    started = time.perf_counter()
    execution = PlanExecution(backend=backend.name if backend else "")
    execution.lazy = _lazy_solve_ids(plan)
    pending: list[SolveNode] = []
    for node in plan.solves():
        if node.node_id in execution.lazy:
            continue
        if cache is not None and node.cacheable:
            cached = cache.get(node.cache_key)
            if cached is not None:
                execution.resolved[node.node_id] = cached
                execution.cache_served.add(node.node_id)
                continue
        pending.append(node)

    if backend is None:
        _run_in_process(plan, pending, execution, cache, rng)
    else:
        _run_on_backend(plan, pending, execution, backend, cache, rng)

    _run_terminals(plan, execution, cache, rng)

    execution.seconds = time.perf_counter() - started
    return execution


def _run_in_process(
    plan: QueryPlan,
    pending: list[SolveNode],
    execution: PlanExecution,
    cache: SolverCache | None,
    rng,
) -> None:
    for node in pending:
        _demand_solve(plan, node, execution, cache, rng)


def _serve_from_tier(
    node: SolveNode, execution: PlanExecution, value
) -> float:
    """Record a shared-tier answer as a cache-served node."""
    pair = (float(value[0]), value[1])
    execution.resolved[node.node_id] = pair
    execution.cache_served.add(node.node_id)
    return pair[0]


def _demand_solve(
    plan: QueryPlan,
    node: SolveNode,
    execution: PlanExecution,
    cache: SolverCache | None,
    rng,
) -> float:
    """The node's probability — already-resolved, cache-served, or fresh."""
    resolved = execution.resolved.get(node.node_id)
    if resolved is not None:
        return resolved[0]
    owns_flight = False
    if cache is not None and node.cacheable:
        cached = cache.get(node.cache_key)
        if cached is not None:
            execution.resolved[node.node_id] = cached
            execution.cache_served.add(node.node_id)
            return cached[0]
        # A shared-tier cache (repro.service.shard) supports fleet-wide
        # single-flight: claim the key, or wait out another worker's
        # in-flight solve instead of duplicating it.  Plain caches don't
        # have the surface and solve immediately, as before.
        claim = getattr(cache, "claim", None)
        if claim is not None:
            status, value = claim(node.cache_key)
            if status == "value":
                return _serve_from_tier(node, execution, value)
            if status == "wait":
                waited = cache.wait_flight(node.cache_key)
                if waited is not None:
                    return _serve_from_tier(node, execution, waited)
                # The owner abandoned the flight; fall through and solve
                # locally (no claim held — the publish below still lands).
            owns_flight = status == "claimed"
    solve_started = time.perf_counter()
    try:
        probability, solver_name = solve_session(
            node.model,
            node.labeling,
            node.union,
            method=_node_method(plan, node),
            rng=rng,
            **node.options,
        )
    except BaseException:
        if owns_flight:
            cache.release_flight(node.cache_key)
        raise
    execution.seconds_by_solve[node.node_id] = (
        time.perf_counter() - solve_started
    )
    execution.resolved[node.node_id] = (probability, solver_name)
    execution.fresh.add(node.node_id)
    if cache is not None and node.cacheable:
        cache.put(node.cache_key, (probability, solver_name))
    return probability


def _run_on_backend(
    plan: QueryPlan,
    pending: list[SolveNode],
    execution: PlanExecution,
    backend: ExecutionBackend,
    cache: SolverCache | None,
    rng,
) -> None:
    exact = [
        n for n in pending if _node_method(plan, n) not in APPROXIMATE_METHODS
    ]
    sampled = [
        n for n in pending if _node_method(plan, n) in APPROXIMATE_METHODS
    ]

    # Fleet-wide single-flight (shared-tier caches only): claim every
    # cacheable exact node up front.  Keys another fleet member is already
    # solving drop out of this worker's task list; after our own tasks
    # land we collect their published answers instead of recomputing.
    claim = getattr(cache, "claim", None) if cache is not None else None
    waiting: list[SolveNode] = []
    if claim is not None:
        owned: list[SolveNode] = []
        for node in exact:
            if not node.cacheable:
                owned.append(node)
                continue
            status, value = claim(node.cache_key)
            if status == "value":
                _serve_from_tier(node, execution, value)
            elif status == "wait":
                waiting.append(node)
            else:
                owned.append(node)
        exact = owned

    tasks = [
        make_solve_task(
            node.model,
            node.labeling,
            node.union,
            _node_method(plan, node),
            node.options,
            cost=node.cost or 0.0,
            # The memoized fingerprint already holds the canonical labeling
            # and union forms; don't re-freeze the expensive half.
            labeling_form=node.fingerprint[0] if node.fingerprint else None,
            union_form=node.fingerprint[1] if node.fingerprint else None,
        )
        for node in exact
    ]
    try:
        outcomes = backend.run(tasks)
    except BaseException:
        if claim is not None:
            # Don't strand fleet waiters on claims we will never publish.
            for node in exact:
                if node.cacheable:
                    cache.release_flight(node.cache_key)
        raise
    fresh_pairs: list[tuple[Hashable, tuple[float, str]]] = []
    for node, outcome in zip(exact, outcomes):
        execution.resolved[node.node_id] = outcome.value
        execution.seconds_by_solve[node.node_id] = outcome.seconds
        execution.fresh.add(node.node_id)
        if cache is not None and node.cacheable:
            fresh_pairs.append((node.cache_key, outcome.value))
    if cache is not None and fresh_pairs:
        # One call so a persistent tier can flush the batch in a single
        # transaction instead of one commit per solve (and a shared tier
        # publishes the claimed flights, waking fleet waiters).
        cache.put_many(fresh_pairs)

    # Collect answers another fleet member was solving when we claimed.
    # An abandoned flight (its owner died) degrades to a local solve.
    for node in waiting:
        waited = cache.wait_flight(node.cache_key)
        if waited is not None:
            _serve_from_tier(node, execution, waited)
        else:
            _demand_solve(plan, node, execution, cache, rng)

    # rng-driven fallbacks (auto-approx) run in-process, in plan order.
    _run_in_process(plan, sampled, execution, cache=None, rng=rng)


# ----------------------------------------------------------------------
# Aggregate-aware terminals
# ----------------------------------------------------------------------


def session_upper_bound(model, labeling, union, n_edges: int) -> float:
    """Upper bound of ``Pr(Q | s)``; mixtures marginalize per component."""
    if isinstance(model, MallowsMixture):
        bounds = [
            upper_bound_probability(
                component, labeling, union, n_edges=n_edges
            ).probability
            for component in model.components
        ]
        return model.marginalize(bounds)
    return upper_bound_probability(
        model, labeling, union, n_edges=n_edges
    ).probability


def _run_terminals(
    plan: QueryPlan,
    execution: PlanExecution,
    cache: SolverCache | None,
    rng,
) -> None:
    """Run the adaptive/rng-consuming terminals, in request order."""
    for terminal in plan.aggregate_nodes():
        if isinstance(terminal, TopKSessionsNode):
            execution.topk[terminal.node_id] = _run_topk(
                plan, terminal, execution, cache, rng
            )
        elif isinstance(terminal, AttributeAggregateNode):
            execution.attribute[terminal.node_id] = _run_attribute(
                terminal, execution, rng
            )


def _run_topk(
    plan: QueryPlan,
    terminal: TopKSessionsNode,
    execution: PlanExecution,
    cache: SolverCache | None,
    rng,
) -> TopKOutcome:
    outcome = TopKOutcome()

    def probability_of(solve_id: "int | None") -> float:
        if solve_id is None:
            return 0.0
        return _demand_solve(
            plan, plan.nodes[solve_id], execution, cache, rng
        )

    if terminal.strategy == "naive":
        # Every solve is eager in this strategy; score all sessions.
        exact_started = time.perf_counter()
        for key, solve_id in terminal.items:
            outcome.confirmed.append((key, probability_of(solve_id)))
            outcome.evaluated.append((key, solve_id))
        outcome.exact_seconds = time.perf_counter() - exact_started
        outcome.n_exact = len(terminal.items)
        outcome.confirmed.sort(key=lambda pair: (-pair[1], repr(pair[0])))
        return outcome

    # --- upper-bound strategy: the paper's top-k pruning ---------------
    ub_started = time.perf_counter()
    bound_memo: dict[int, float] = {}
    bounded: list[tuple[float, tuple, "int | None"]] = []
    for key, solve_id in terminal.items:
        if solve_id is None:
            bounded.append((0.0, key, None))
            continue
        bound = bound_memo.get(solve_id)
        if bound is None:
            node = plan.nodes[solve_id]
            bound = session_upper_bound(
                node.model, node.labeling, node.union, terminal.n_edges
            )
            bound_memo[solve_id] = bound
        bounded.append((bound, key, solve_id))
    outcome.upper_bound_seconds = time.perf_counter() - ub_started
    outcome.n_upper_bound = len(bounded)
    bounded.sort(key=lambda triple: (-triple[0], repr(triple[1])))

    exact_started = time.perf_counter()
    confirmed = outcome.confirmed
    k = terminal.k
    for bound, key, solve_id in bounded:
        if len(confirmed) >= k:
            kth_best = sorted((p for _, p in confirmed), reverse=True)[k - 1]
            if kth_best >= bound:
                break  # no remaining session can beat the current top-k
        confirmed.append((key, probability_of(solve_id)))
        outcome.evaluated.append((key, solve_id))
        outcome.n_exact += 1
    outcome.exact_seconds = time.perf_counter() - exact_started
    confirmed.sort(key=lambda pair: (-pair[1], repr(pair[0])))
    return outcome


def _run_attribute(
    terminal: AttributeAggregateNode,
    execution: PlanExecution,
    rng,
) -> AttributeOutcome:
    """The Section-7 possible-world estimate over resolved probabilities.

    The per-session probabilities ``Pr(Q | s_i)`` fully determine the
    joint distribution of the satisfying set (sessions are independent),
    so the expectation of the statistic over worlds with at least one
    satisfying session is estimated from ``n_worlds`` Bernoulli draws; no
    further ranking inference is needed.  The closed-form ratio estimate
    ``sum p_i v_i / sum p_i`` is reported alongside as ``weighted_average``.
    Without a caller rng the draws come from a fresh ``default_rng(0)`` per
    terminal, so repeated answers agree.
    """
    probabilities = np.array(
        [
            execution.resolved[solve_id][0] if solve_id is not None else 0.0
            for _, solve_id in terminal.items
        ]
    )
    values = np.array([terminal.values[key] for key, _ in terminal.items])
    weighted_total = float(probabilities @ values)
    probability_mass = float(probabilities.sum())
    weighted_average = (
        weighted_total / probability_mass if probability_mass > 0 else 0.0
    )

    local_rng = rng if rng is not None else np.random.default_rng(0)
    draws = (
        local_rng.random((terminal.n_worlds, len(terminal.items)))
        < probabilities
    )
    any_satisfied = draws.any(axis=1)
    if terminal.statistic == "mean":
        counts = draws.sum(axis=1)
        sums = draws @ values
        with np.errstate(invalid="ignore"):
            world_values = np.where(
                counts > 0, sums / np.maximum(counts, 1), 0.0
            )
        satisfied_values = world_values[any_satisfied]
    else:
        satisfied_values = (draws @ values)[any_satisfied]
    expectation = (
        float(satisfied_values.mean()) if len(satisfied_values) else 0.0
    )
    return AttributeOutcome(
        expectation=expectation,
        probability_any=float(any_satisfied.mean()),
        weighted_average=weighted_average,
    )

