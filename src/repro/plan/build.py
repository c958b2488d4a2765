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

Everything the builder derives without reading a model comes from a
:class:`~repro.plan.grounding.Grounding`: per query, each session's
compiled union; per union, its labeling, shared by every solve node over
it.  A caller may pass one that outlives the build (a standing-query
engine does); by default each build gets a fresh one.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.plan.grounding import Grounding
from repro.plan.methods import MODEL_AGNOSTIC_METHODS
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
from repro.query.engine import compile_session_work
from repro.rim.mixture import MallowsMixture
from repro.rim.model import RIM


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
    grounding: Grounding | None = None,
) -> QueryPlan:
    """Build the logical plan of one request or a batch.

    ``queries`` accepts a single item or a sequence of items, each a
    :class:`~repro.query.ast.ConjunctiveQuery`, request text (plain or
    prefixed — ``COUNT`` / ``TOPK k`` / ``AGG stat(R.col)``), or a typed
    request object.  The other parameters mirror
    :func:`repro.api.answer`; ``group_sessions=False`` marks the
    plan as non-groupable (the optimizer then skips common-solve
    elimination, reproducing the naive baseline).  ``grounding`` supplies
    and keeps what the build derives without reading a model (a fresh
    one by default); pass the same one to
    :func:`~repro.plan.passes.optimize_plan`.
    """
    grounding = grounding if grounding is not None else Grounding()
    plan = QueryPlan(
        db,
        _normalize_requests(queries),
        method=method,
        options=options,
        group_sessions=group_sessions,
        session_limit=session_limit,
    )
    with grounding.lock:
        grounding.check(db)
        for query_index, request in enumerate(plan.requests):
            _build_request(plan, query_index, request, grounding)
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


def _build_request(
    plan: QueryPlan, query_index: int, request, grounding: Grounding
) -> None:
    grounded = grounding.query(request.query, plan.db)
    prelation = plan.db.prelation(grounded.analysis.p_relation)
    works = compile_session_work(
        request.query, plan.db, session_limit=plan.session_limit,
        grounded=grounded,
    )

    select = plan.add(
        SelectSessionsNode(
            node_id=plan.new_id(),
            query_index=query_index,
            p_relation=grounded.analysis.p_relation,
            n_candidates=len(prelation),
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

    # One CompileUnion node per distinct union object (the grounding
    # shares union objects across sessions with equal bindings), each
    # union labeled once by the grounding.
    union_nodes: dict[int, CompileUnionNode] = {}
    items = prelation.items

    terminal_items: list[tuple] = []
    for work in works:
        if work.union is None:
            terminal_items.append((work.key, None))
            continue
        _check_model(plan, request, work.key, work.model)
        compile_node = union_nodes.get(id(work.union))
        if compile_node is None:
            compile_node = union_nodes[id(work.union)] = plan.add(
                CompileUnionNode(
                    node_id=plan.new_id(),
                    inputs=(ground.node_id,),
                    query_index=query_index,
                    union=work.union,
                )
            )
        compile_node.n_sessions += 1
        solve = plan.add(
            SolveNode(
                node_id=plan.new_id(),
                inputs=(compile_node.node_id,),
                model=work.model,
                labeling=grounding.compiled(
                    work.union, items, plan.db
                ).labeling,
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


def _check_model(plan: QueryPlan, request, key, model) -> None:
    """Raise ``ValueError`` for a session model the request cannot solve:
    every method but :data:`MODEL_AGNOSTIC_METHODS`, and the upper-bound
    top-k strategy, need a RIM (or a mixture of Mallows)."""
    if plan.method not in MODEL_AGNOSTIC_METHODS:
        needs, fix = f"method {plan.method!r}", "method 'rejection' or 'brute'"
    elif getattr(request, "strategy", None) == "upper_bound":
        needs, fix = "upper-bound top-k", "strategy 'naive'"
    else:
        return
    if not isinstance(model, (RIM, MallowsMixture)):
        raise ValueError(
            f"{needs} needs RIM sessions, but session {key!r} has a "
            f"{type(model).__name__} model; use {fix}"
        )


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
