"""``plan.explain()``: render the optimized DAG with per-node costs.

The renderer is deliberately plain text (stable across runs for the golden
test): one section per query showing the logical pipeline top-down, the
surviving solve frontier with resolved methods, state-count estimates and
session fan-in, and a footer with the applied passes and the planned /
eliminated / frontier counters.  Costs print in engineering notation
(``~1.2e+03``) so the output is deterministic across platforms.  With an
execution, each solve line shows its outcome (a pruned top-k solve with
the bound that pruned it) and each top-k line how many of its bounds the
cache served.  An executed top-k solve whose bound is its exact
probability (:attr:`~repro.plan.nodes.TopKSessionsNode.exact_bounds`)
shows ``bound=exact``: it has no bound node and ran with the eager
frontier.
"""

from __future__ import annotations

from repro.plan.cost import estimate_solve_states
from repro.plan.nodes import (
    AttributeAggregateNode,
    CompileUnionNode,
    CountSessionsNode,
    GroundSessionsNode,
    QueryPlan,
    SelectSessionsNode,
    SolveNode,
    TerminalNode,
    TopKSessionsNode,
)


def _cost(value: "float | None") -> str:
    if value is None:
        return "?"
    return f"~{value:.1e}"


def _query_text(plan: QueryPlan, query_index: int) -> str:
    request = plan.requests[query_index]
    # Prefixed request kinds render their grammar form (COUNT ..., TOPK k
    # ..., AGG stat(R.col) ...); a plain probability stays the bare query.
    return request.describe()


def explain_plan(plan: QueryPlan, execution=None) -> str:
    """Render ``plan`` (optionally with execution outcomes) as text."""
    lines: list[str] = []
    n = plan.n_queries
    lines.append(
        f"== query plan: {n} quer{'y' if n == 1 else 'ies'}, "
        f"method={plan.method}, "
        f"group_sessions={'on' if plan.group_sessions else 'off'} =="
    )

    selects = {
        node.query_index: node
        for node in plan.nodes.values()
        if isinstance(node, SelectSessionsNode)
    }
    grounds = {
        node.query_index: node
        for node in plan.nodes.values()
        if isinstance(node, GroundSessionsNode)
    }
    compiles: dict[int, list[CompileUnionNode]] = {}
    for node in plan.nodes.values():
        if isinstance(node, CompileUnionNode):
            compiles.setdefault(node.query_index, []).append(node)

    described: set[int] = set()
    for aggregate in plan.aggregate_nodes():
        query_index = aggregate.query_index
        lines.append(f"q{query_index}: {_query_text(plan, query_index)}")
        select = selects.get(query_index)
        if select is not None:
            lines.append(
                f"  SelectSessions[{select.p_relation}]"
                f"  sessions {select.n_candidates} -> {select.n_selected}"
            )
        ground = grounds.get(query_index)
        if ground is not None:
            lines.append(
                f"  GroundSessions  satisfiable={ground.n_satisfiable}"
                f" unsatisfiable={ground.n_unsatisfiable}"
            )
        for compile_node in sorted(
            compiles.get(query_index, ()), key=lambda c: c.node_id
        ):
            dropped = compile_node.annotations.get("n_disjuncts_dropped")
            extra = f" ({dropped} duplicate disjuncts dropped)" if dropped else ""
            lines.append(
                f"  CompileUnion #{compile_node.node_id}"
                f"  z={compile_node.z} sessions={compile_node.n_sessions}{extra}"
            )
        lines.extend(_solve_lines(plan, aggregate, described, execution))
        lines.append(_terminal_line(plan, aggregate, execution))
    if plan.combine is not None:
        lines.append(f"CombineQueries  {plan.n_queries} queries")

    lines.append(
        "passes: "
        + (", ".join(plan.passes_applied) if plan.passes_applied else "(none)")
    )
    lines.append(
        f"solves: planned={plan.n_solves_planned}"
        f" eliminated={plan.n_solves_eliminated}"
        f" frontier={len(plan.solve_order)}"
    )
    if execution is not None:
        lines.append(
            f"executed: {execution.n_executed} fresh,"
            f" {execution.n_cache_hits} cache-served"
            + f", backend={execution.backend}"
        )
    return "\n".join(lines)


def _bound_ids(execution, terminal: TerminalNode) -> dict[int, int]:
    """Solve id -> bound node id, for the bounds ``terminal`` read in
    ``execution``: only an upper-bound top-k terminal reads any, and only
    an execution holds bound nodes."""
    if execution is None:
        return {}
    n_edges = getattr(terminal, "n_edges", None)
    return {
        solve_id: execution.bounds[(solve_id, n_edges)].node_id
        for solve_id in terminal.bounded_ids()
        if (solve_id, n_edges) in execution.bounds
    }


def _terminal_line(plan: QueryPlan, terminal: TerminalNode, execution) -> str:
    """Render the per-request terminal node, by kind."""
    n_sessions = len(terminal.items)
    if isinstance(terminal, CountSessionsNode):
        return (
            "  CountSessions  E[count(Q)] = sum(p_s)"
            f" over {n_sessions} sessions"
        )
    if isinstance(terminal, TopKSessionsNode):
        line = (
            f"  TopKSessions  k={terminal.k} strategy={terminal.strategy}"
            f" n_edges={terminal.n_edges} over {n_sessions} sessions"
        )
        outcome = (
            execution.topk.get(terminal.node_id)
            if execution is not None
            else None
        )
        if outcome is not None:
            line += (
                f"  [exact={outcome.n_exact}"
                f" pruned={n_sessions - outcome.n_exact}]"
            )
        if outcome is not None and terminal.lazy:
            bound_ids = set(_bound_ids(execution, terminal).values())
            line += (
                f"  bounds: {len(bound_ids & execution.cache_served)} cached,"
                f" {len(bound_ids & execution.fresh)} computed,"
                f" {len(terminal.exact_bounds)} exact"
            )
        return line
    if isinstance(terminal, AttributeAggregateNode):
        return (
            f"  AttributeAggregate  E[{terminal.statistic}"
            f"({terminal.relation}.{terminal.column}) | count(Q) > 0]"
            f" n_worlds={terminal.n_worlds} over {n_sessions} sessions"
        )
    return (
        "  AggregateSessions  Pr(Q|D) = 1 - prod(1 - p_s)"
        f" over {n_sessions} sessions"
    )


def _solve_lines(
    plan: QueryPlan,
    aggregate: AggregateSessionsNode,
    described: set[int],
    execution,
) -> list[str]:
    lines: list[str] = []
    bound_ids = _bound_ids(execution, aggregate)
    exact_bounds = (
        getattr(aggregate, "exact_bounds", set())
        if execution is not None
        else set()
    )
    for solve_id in aggregate.solve_ids():
        node = plan.nodes[solve_id]
        assert isinstance(node, SolveNode)
        exact = " bound=exact" if solve_id in exact_bounds else ""
        if solve_id in described:
            lines.append(f"  Solve #{solve_id}  (shared; see above){exact}")
            continue
        described.add(solve_id)
        method = node.method or node.requested_method
        query_indices = sorted({index for index, _ in node.sessions})
        shared = (
            "  shared_by=" + ",".join(f"q{index}" for index in query_indices)
            if len(query_indices) > 1
            else ""
        )
        outcome = ""
        if execution is not None:
            if solve_id in execution.cache_served:
                outcome = "  [cache]"
            elif solve_id in execution.fresh:
                _, solver_name = execution.resolved[solve_id]
                outcome = f"  [solved: {solver_name}]"
            elif solve_id not in execution.resolved:
                # A lazy top-k solve the bound pruning never demanded.
                outcome = "  [pruned]"
                if solve_id in bound_ids:
                    bound, _ = execution.resolved[bound_ids[solve_id]]
                    outcome += f" bound={bound:.1e}"
        hint = "  (lifted estimated cheaper)" if _lifted_cheaper(node) else ""
        lines.append(
            f"  Solve #{solve_id}  method={method}"
            f" cost{_cost(node.cost)} sessions={len(node.sessions)}"
            f"{shared}{outcome}{exact}{hint}"
        )
    return lines


def _lifted_cheaper(node: SolveNode) -> bool:
    """True for an auto-resolved general solve whose lifted estimate is
    smaller; ``auto`` never picks the lifted solver, so this is a hint."""
    if node.requested_method != "auto" or node.method != "general":
        return False
    lifted, general = (
        estimate_solve_states(
            node.model, node.labeling, node.union, name, node.options
        ).states
        for name in ("lifted", "general")
    )
    return lifted < general
