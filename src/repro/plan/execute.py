"""The plan executor: run a (optimized) :class:`QueryPlan` to results.

Execution is deliberately thin — all the intelligence is in the plan.  One
runner resolves a list of solve nodes, and every solve of every plan goes
through it:

1. nodes already resolved are skipped;
2. each cacheable node is looked up once in the shared
   :class:`~repro.service.cache.SolverCache` and claimed on a miss, so a
   key another solver is computing is waited out instead of duplicated
   (the cache decides where flights live);
3. every node this run owns is solved in ONE ``backend.run`` — the
   ``serial`` backend by default, or the caller's ``thread`` / ``process``
   backend (:mod:`repro.service.executors`) — on the plan's live,
   method-resolved nodes, in the plan's LPT order;
4. the fresh outcomes are published in ONE ``put_many``; if the run
   raises, the claims are released instead, so no waiter is stranded;
5. other owners' flights are waited out one node at a time; an abandoned
   flight is claimed once more and solved here;
6. rng-driven solves (the ``auto-approx`` fallback) run in-process, in
   plan order, so their draws are deterministic given the rng.

The eager frontier (every solve not owned by a lazy terminal) calls the
runner once; :func:`repro.api.evaluate.assemble_answers` then folds the
resolved probabilities into one answer per request.

Aggregate-aware terminals (the unified query API, :mod:`repro.api`) run
after the eager frontier: :class:`~repro.plan.nodes.TopKSessionsNode`
terminals with the upper-bound strategy own *lazy* solves — excluded from
the eager frontier, demanded one node at a time through the same runner in
descending upper-bound order, and skipped entirely once the k-th best
confirmed probability dominates every remaining bound (the paper's top-k
pruning) — and :class:`~repro.plan.nodes.AttributeAggregateNode` terminals
draw their Bernoulli possible-world sample.  Terminals run in request
order, so rng consumption is deterministic.  A lazy solve shared with any
eager terminal (a Count and a TopK of the same query in one batch) stays
eager and the top-k loop reads its probability for free.

The bounds are nodes too, but of the execution, not the plan.  Before the
terminals run, the executor makes one :class:`~repro.plan.nodes.BoundNode`
per (solve node, ``n_edges``) an upper-bound terminal reads, shared by
every terminal that reads it, numbered past the plan's last id and kept in
:attr:`PlanExecution.bounds`, and the runner resolves them all in one
call: each cacheable bound is looked up and claimed under the key the
optimizer stored on its terminal
(:attr:`~repro.plan.nodes.TopKSessionsNode.bound_keys`), the misses are
computed in one run of a :class:`~repro.service.executors.SerialBackend`
through :func:`session_upper_bound` (a bound is a small DP: a worker pool
would cost more than it saves), and published in one ``put_many`` of
``(bound, "upper_bound")`` pairs.  So a warm top-k answer computes no
bound, and a standing query's refresh bounds only the sessions its delta
added or updated.  Bounds are not solves: the solve counters
(``n_executed``, ``n_cache_hits``) leave them out.

Execution never writes to the plan (an unoptimized plan's lazy method
resolution aside): every outcome lands in the :class:`PlanExecution`, so
one optimized plan can run any number of times, concurrently too.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import cast

import numpy as np

from repro.plan.methods import APPROXIMATE_METHODS, resolve_solve_method
from repro.plan.nodes import (
    AttributeAggregateNode,
    BoundNode,
    QueryPlan,
    SolveNode,
    TopKSessionsNode,
)
from repro.query.engine import solve_session
from repro.rim.mixture import MallowsMixture
from repro.service.cache import SolverCache
from repro.service.executors import ExecutionBackend, SerialBackend
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

    #: solve or bound node id -> (probability or bound, solver name)
    resolved: dict[int, tuple[float, str]] = field(default_factory=dict)
    #: measured wall seconds per freshly executed solve or bound node
    seconds_by_solve: dict[int, float] = field(default_factory=dict)
    #: node ids actually solved in this run (not served by the cache)
    fresh: set[int] = field(default_factory=set)
    #: node ids served by the shared SolverCache
    cache_served: set[int] = field(default_factory=set)
    #: (solve node id, n_edges) -> the bound node this execution made for
    #: the upper-bound top-k terminals (pairs with one cache key share a
    #: node); upper bounds, which are not solves
    bounds: dict[tuple[int, int], BoundNode] = field(default_factory=dict)
    #: solve node ids excluded from the eager frontier (top-k demand pool)
    lazy: set[int] = field(default_factory=set)
    #: top-k terminal node id -> its adaptive-frontier outcome
    topk: dict[int, TopKOutcome] = field(default_factory=dict)
    #: attribute-aggregate terminal node id -> its estimates
    attribute: dict[int, AttributeOutcome] = field(default_factory=dict)
    #: name of the execution backend the solves ran on
    backend: str = ""
    seconds: float = 0.0

    def bound_ids(self) -> set[int]:
        return {node.node_id for node in self.bounds.values()}

    @property
    def n_executed(self) -> int:
        return len(self.fresh - self.bound_ids())

    @property
    def n_cache_hits(self) -> int:
        return len(self.cache_served - self.bound_ids())


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
    """Run the plan's solve frontier on ``backend`` (serial by default),
    then its terminals; see the module docstring."""
    started = time.perf_counter()
    backend = backend if backend is not None else SerialBackend()
    execution = PlanExecution(backend=backend.name)
    execution.lazy = _lazy_solve_ids(plan)
    frontier = [
        node for node in plan.solves() if node.node_id not in execution.lazy
    ]
    _run_frontier(plan, frontier, execution, backend, cache, rng)
    _run_terminals(plan, execution, backend, cache, rng)
    execution.seconds = time.perf_counter() - started
    return execution


def _resolve_method(plan: QueryPlan, node: SolveNode) -> str:
    """The node's concrete method, resolved now on an unoptimized plan.

    Resolution must see the plan-level ``approx_budget`` (the builder pops
    it out of the solver options), or an unoptimized ``auto-approx`` plan
    would silently budget against the default instead of the caller's
    value and diverge from its optimized twin.
    """
    if node.method is None:
        node.method = resolve_solve_method(
            node.union,
            node.requested_method,
            node.labeling,
            node.model,
            node.options,
            approx_budget=plan.approx_budget,
        )
    return node.method


def _run_frontier(
    plan: QueryPlan,
    nodes: "list[SolveNode] | list[BoundNode]",
    execution: PlanExecution,
    backend: ExecutionBackend,
    cache: SolverCache | None,
    rng,
) -> None:
    """Resolve ``nodes`` in the six steps of the module docstring.

    The cacheable nodes of one call must have distinct keys: a second
    claim of a key this call already holds would wait on itself.
    """
    owned: list = []
    waiting: list = []
    sampled: list[SolveNode] = []
    for node in nodes:
        if node.node_id in execution.resolved:
            continue
        if (
            isinstance(node, SolveNode)
            and _resolve_method(plan, node) in APPROXIMATE_METHODS
        ):
            sampled.append(node)
        elif cache is None or not node.cacheable:
            owned.append(node)
        else:
            value = cache.get(node.cache_key)
            if value is None:
                status, value = cache.claim(node.cache_key)
                if status != "value":
                    (owned if status == "claimed" else waiting).append(node)
                    continue
            _serve_cached(node, execution, value)
    _solve_and_publish(owned, execution, backend, cache, claimed=True)

    # Another owner's flight: wait it out, never while holding a claim of
    # our own; an abandoned one is claimed once more and solved here (or
    # solved unclaimed, when yet another solver claimed it first).
    for node in waiting:
        status, value = cache.claim(node.cache_key)
        if status == "wait":
            value = cache.wait_flight(node.cache_key)
        if value is not None:
            _serve_cached(node, execution, value)
        else:
            _solve_and_publish(
                [node], execution, backend, cache,
                claimed=status == "claimed",
            )

    for node in sampled:
        started = time.perf_counter()
        execution.resolved[node.node_id] = solve_session(
            node.model, node.labeling, node.union, method=node.method,
            rng=rng, **node.options,
        )
        execution.seconds_by_solve[node.node_id] = time.perf_counter() - started
        execution.fresh.add(node.node_id)


def _serve_cached(
    node: "SolveNode | BoundNode",
    execution: PlanExecution,
    value: tuple[float, str],
) -> None:
    """Record a cached answer as a cache-served node."""
    execution.resolved[node.node_id] = value
    execution.cache_served.add(node.node_id)


def _solve_and_publish(
    nodes: "list[SolveNode] | list[BoundNode]",
    execution: PlanExecution,
    backend: ExecutionBackend,
    cache: SolverCache | None,
    claimed: bool,
) -> None:
    """Solve ``nodes`` in one backend run and publish them in one
    ``put_many``; a failed run releases the flights ``claimed`` says we
    hold, so their waiters solve for themselves."""
    if not nodes:
        return
    try:
        outcomes = backend.run(nodes)
    except BaseException:
        if claimed and cache is not None:
            for node in nodes:
                if node.cacheable:
                    cache.release_flight(node.cache_key)
        raise
    fresh: list[tuple[str, tuple[float, str]]] = []
    for node, outcome in zip(nodes, outcomes):
        execution.resolved[node.node_id] = outcome.value
        execution.seconds_by_solve[node.node_id] = outcome.seconds
        execution.fresh.add(node.node_id)
        if node.cacheable:
            fresh.append((node.cache_key, outcome.value))
    if cache is not None and fresh:
        # One call, so each lower tier flushes the batch in one
        # transaction and the claimed flights publish together.
        cache.put_many(fresh)


# ----------------------------------------------------------------------
# Aggregate-aware terminals
# ----------------------------------------------------------------------


def session_upper_bound(model, labeling, union, n_edges: int) -> float:
    """Upper bound of ``Pr(Q | s)``; mixtures marginalize per component.

    :func:`repro.service.executors.solve_node` computes every uncached
    :class:`~repro.plan.nodes.BoundNode` through this module's attribute,
    looked up at call time.
    """
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
    backend: ExecutionBackend,
    cache: SolverCache | None,
    rng,
) -> None:
    """Resolve the execution's bound nodes, then run the adaptive and
    rng-consuming terminals in request order."""
    bounds = _bound_nodes(plan, execution)
    _run_frontier(plan, bounds, execution, SerialBackend(), cache, rng)
    for terminal in plan.aggregate_nodes():
        if isinstance(terminal, TopKSessionsNode):
            execution.topk[terminal.node_id] = _run_topk(
                plan, terminal, execution, backend, cache, rng
            )
        elif isinstance(terminal, AttributeAggregateNode):
            execution.attribute[terminal.node_id] = _run_attribute(
                terminal, execution, rng
            )


def _bound_nodes(plan: QueryPlan, execution: PlanExecution) -> list[BoundNode]:
    """The bound nodes the plan's upper-bound top-k terminals read, in
    first-use order, made now and recorded in ``execution.bounds``: one
    node per key the optimizer stored, so the runner never claims a key
    twice in one call."""
    ids = itertools.count(plan.n_ids)
    by_key: dict[str, BoundNode] = {}
    wanted: dict[int, BoundNode] = {}
    for terminal in plan.aggregate_nodes():
        if not (isinstance(terminal, TopKSessionsNode) and terminal.lazy):
            continue
        for solve_id in terminal.solve_ids():
            pair = (solve_id, terminal.n_edges)
            node = execution.bounds.get(pair)
            if node is None:
                key = terminal.bound_keys.get(solve_id)
                node = by_key.get(key) if key is not None else None
                if node is None:
                    solve = cast(SolveNode, plan.nodes[solve_id])
                    node = BoundNode(
                        node_id=next(ids),
                        inputs=(solve_id,),
                        model=solve.model,
                        labeling=solve.labeling,
                        union=solve.union,
                        n_edges=terminal.n_edges,
                        cache_key=key,
                    )
                    if key is not None:
                        by_key[key] = node
                execution.bounds[pair] = node
            wanted[node.node_id] = node
    return list(wanted.values())


def _run_topk(
    plan: QueryPlan,
    terminal: TopKSessionsNode,
    execution: PlanExecution,
    backend: ExecutionBackend,
    cache: SolverCache | None,
    rng,
) -> TopKOutcome:
    outcome = TopKOutcome()

    def probability_of(solve_id: "int | None") -> float:
        if solve_id is None:
            return 0.0
        _run_frontier(
            plan, [plan.nodes[solve_id]], execution, backend, cache, rng
        )
        return execution.resolved[solve_id][0]

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
    # _run_terminals resolved the bounds; only those computed now cost time.
    bound_ids = {
        solve_id: execution.bounds[(solve_id, terminal.n_edges)].node_id
        for solve_id in terminal.solve_ids()
    }
    bounded: list[tuple[float, tuple, "int | None"]] = [
        (
            0.0 if solve_id is None
            else execution.resolved[bound_ids[solve_id]][0],
            key,
            solve_id,
        )
        for key, solve_id in terminal.items
    ]
    outcome.upper_bound_seconds = sum(
        execution.seconds_by_solve.get(bound_id, 0.0)
        for bound_id in set(bound_ids.values())
    )
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
    # One n_worlds x n_sessions matrix: the uniforms, overwritten in place
    # by the 0/1 draws, serve any, count, and the matmul (the float values
    # a bool matrix would be cast to anyway), so the cost does not depend
    # on how many large temporaries the allocator happens to recycle.
    draws = local_rng.random((terminal.n_worlds, len(terminal.items)))
    np.less(draws, probabilities, out=draws, casting="unsafe")
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

