"""The plan builder: (requests, db) -> a logical :class:`QueryPlan` DAG.

The builder performs the *logical* phases of evaluation — session
selection, session-atom grounding, pattern-union compilation — through the
engine's existing primitives (:func:`repro.query.engine
.compile_session_work`), records what happened in provenance nodes, and
emits one :class:`~repro.plan.nodes.SolveNode` per satisfiable session:
the *planned* solves.  No probability is computed here; the optimizer
(:mod:`repro.plan.passes`) rewrites the solve frontier and the executor
(:mod:`repro.plan.execute`) runs it.

Inputs may be plain Boolean CQs (or query text), or any typed request of
the unified API (:mod:`repro.api.requests`): every request kind shares the
same logical pipeline and solve frontier and differs only in its terminal
node — :class:`~repro.plan.nodes.AggregateSessionsNode` for a Boolean
probability, :class:`~repro.plan.nodes.CountSessionsNode` for
``count(Q)``, :class:`~repro.plan.nodes.TopKSessionsNode` for
``top(Q, k)``, :class:`~repro.plan.nodes.AttributeAggregateNode` for the
Section-7 attribute aggregates (whose attribute values are joined here, at
build time, so a missing row fails before any solve runs).

Labelings are computed once per distinct union object and shared by every
session (and every solve node) that references the union, exactly as the
pre-plan engine memoized them.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.patterns.labels import Labeling
from repro.patterns.union import PatternUnion
from repro.plan.nodes import (
    AggregateSessionsNode,
    AttributeAggregateNode,
    CombineQueriesNode,
    CompileUnionNode,
    CountSessionsNode,
    GroundSessionsNode,
    QueryPlan,
    SelectSessionsNode,
    SolveNode,
    TerminalNode,
    TopKSessionsNode,
)
from repro.query.ast import ConjunctiveQuery
from repro.query.classify import analyze
from repro.query.compile import labeling_for_patterns
from repro.query.engine import compile_session_work


def _normalize_requests(queries) -> list:
    """Any accepted input shape -> a list of typed requests."""
    # Deferred: repro.api builds on this package.
    from repro.api.requests import QueryRequest, as_request

    if isinstance(queries, (ConjunctiveQuery, str, QueryRequest)):
        queries = [queries]
    return [as_request(item) for item in queries]


def build_plan(
    queries: "ConjunctiveQuery | str | Any | Sequence",
    db,
    method: str = "auto",
    options: "dict[str, Any] | None" = None,
    group_sessions: bool = True,
    session_limit: int | None = None,
) -> QueryPlan:
    """Build the logical plan of one request or a batch.

    ``queries`` accepts a single item or a sequence of items, each a
    :class:`~repro.query.ast.ConjunctiveQuery`, request text (plain or
    prefixed — ``COUNT`` / ``TOPK k`` / ``AGG stat(R.col)``), or a typed
    request object.  The other parameters mirror
    :func:`repro.api.answer`; ``group_sessions=False`` marks the
    plan as non-groupable (the optimizer then skips common-solve
    elimination, reproducing the naive baseline).
    """
    plan = QueryPlan(
        db,
        _normalize_requests(queries),
        method=method,
        options=options,
        group_sessions=group_sessions,
        session_limit=session_limit,
    )
    for query_index, request in enumerate(plan.requests):
        _build_request(plan, query_index, request)
    if plan.n_queries > 1:
        combine = CombineQueriesNode(
            node_id=plan.new_id(),
            inputs=tuple(plan.aggregates),
            n_queries=plan.n_queries,
        )
        plan.add(combine)
        plan.combine = combine.node_id
    return plan


def _terminal_for(plan: QueryPlan, request, query_index: int) -> TerminalNode:
    """An (unregistered) terminal node of the request's kind."""
    common = dict(
        node_id=plan.new_id(),
        query_index=query_index,
        query=request.query,
    )
    if request.kind == "probability":
        return AggregateSessionsNode(**common)
    if request.kind == "count":
        return CountSessionsNode(**common)
    if request.kind == "top_k":
        return TopKSessionsNode(
            k=request.k,
            strategy=request.strategy,
            n_edges=request.n_edges,
            **common,
        )
    if request.kind == "aggregate":
        return AttributeAggregateNode(
            relation=request.relation,
            column=request.column,
            statistic=request.statistic,
            n_worlds=request.n_worlds,
            **common,
        )
    raise ValueError(f"unknown request kind {request.kind!r}")


def _build_request(plan: QueryPlan, query_index: int, request) -> None:
    query = request.query
    analysis = analyze(query, plan.db)
    prelation = plan.db.prelation(analysis.p_relation)
    works = compile_session_work(
        query, plan.db, analysis=analysis, session_limit=plan.session_limit
    )

    select = plan.add(
        SelectSessionsNode(
            node_id=plan.new_id(),
            query_index=query_index,
            p_relation=analysis.p_relation,
            n_candidates=len(list(prelation.session_keys())),
            n_selected=len(works),
        )
    )
    ground = plan.add(
        GroundSessionsNode(
            node_id=plan.new_id(),
            inputs=(select.node_id,),
            query_index=query_index,
            n_satisfiable=sum(1 for work in works if work.union is not None),
            n_unsatisfiable=sum(1 for work in works if work.union is None),
        )
    )

    # One CompileUnion node per distinct union object (compile_session_work
    # already shares union objects across sessions with equal bindings) and
    # one labeling per union, shared by all of its solve nodes.
    union_nodes: dict[int, CompileUnionNode] = {}
    labelings: dict[int, Labeling] = {}
    items = prelation.items

    def union_node_of(union: PatternUnion) -> CompileUnionNode:
        found = union_nodes.get(id(union))
        if found is None:
            found = plan.add(
                CompileUnionNode(
                    node_id=plan.new_id(),
                    inputs=(ground.node_id,),
                    query_index=query_index,
                    union=union,
                )
            )
            union_nodes[id(union)] = found
            labelings[id(union)] = labeling_for_patterns(
                union.patterns, items, plan.db
            )
        return found

    terminal_items: list[tuple] = []
    for work in works:
        if work.union is None:
            terminal_items.append((work.key, None))
            continue
        compile_node = union_node_of(work.union)
        compile_node.n_sessions += 1
        solve = plan.add(
            SolveNode(
                node_id=plan.new_id(),
                inputs=(compile_node.node_id,),
                model=work.model,
                labeling=labelings[id(work.union)],
                union=work.union,
                requested_method=plan.method,
                options=plan.options,
                sessions=[(query_index, work.key)],
            )
        )
        plan.solve_order.append(solve.node_id)
        plan.n_solves_planned += 1
        terminal_items.append((work.key, solve.node_id))

    terminal = _terminal_for(plan, request, query_index)
    terminal.inputs = tuple(
        solve_id for _, solve_id in terminal_items if solve_id is not None
    )
    terminal.items = terminal_items
    if isinstance(terminal, AttributeAggregateNode):
        _join_attribute_values(plan, terminal)
    plan.add(terminal)
    plan.aggregates.append(terminal.node_id)


def _join_attribute_values(
    plan: QueryPlan, terminal: AttributeAggregateNode
) -> None:
    """Join ``relation.column`` for every selected session, at build time.

    The session's first key component is matched against the relation's
    first column; a session with no attribute row raises ``KeyError``.
    The join runs before any solve, so a malformed aggregate request fails
    fast.
    """
    attribute_relation = plan.db.orelation(terminal.relation)
    column_index = attribute_relation.column_index(terminal.column)
    for key, _ in terminal.items:
        row = attribute_relation.first_row_where({0: key[0]})
        if row is None:
            raise KeyError(
                f"session {key!r} has no row in {terminal.relation}"
            )
        terminal.values[key] = float(row[column_index])
