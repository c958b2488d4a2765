"""The query planner: an explicit plan IR with cost-based optimization.

Every request kind is evaluated through an explicit plan
(:func:`repro.api.answer` and :func:`repro.api.answer_many` build, optimize,
and execute one).  The plan is the seam classic probabilistic-database
engines optimize through — Dalvi & Suciu's safe plans, Li & Deshpande's
consensus answers both rewrite plans, not evaluators:

* :mod:`repro.plan.nodes` — the typed DAG
  (``SelectSessions -> GroundSessions -> CompileUnion -> Solve ->
  AggregateSessions``, plus ``CombineQueries`` for batches);
* :mod:`repro.plan.build` — the logical builder, (queries, db) -> plan;
* :mod:`repro.plan.methods` — the single method-resolution path (cost-based
  ``"auto"``, budgeted ``"auto-approx"``) and the method-name constants;
* :mod:`repro.plan.cost` — the DP state-count cost model and the
  largest-first (LPT) schedule;
* :mod:`repro.plan.passes` — the optimizer pipeline (union simplification,
  method resolution, cost annotation, common-solve elimination, LPT
  ordering);
* :mod:`repro.plan.execute` — the executor running the frontier through
  the solver/cache stack, plus the adaptive top-k and attribute terminals;
* :mod:`repro.plan.explain` — the ``explain()`` renderer behind
  ``python -m repro explain``.

Typical use::

    from repro.plan import build_plan, optimize_plan, execute_plan

    plan = build_plan(queries, db).optimize(canonical=True)
    print(plan.explain())
    execution = plan.execute(cache=cache, backend=backend)

See DESIGN.md, "The query planner".
"""

from repro.plan.build import build_plan
from repro.plan.execute import (
    AttributeOutcome,
    PlanExecution,
    TopKOutcome,
    execute_plan,
    session_upper_bound,
)
from repro.plan.explain import explain_plan
from repro.plan.methods import (
    APPROX_BUDGET_OPTION,
    AUTO_APPROX_FALLBACK,
    DEFAULT_APPROX_BUDGET,
    classic_choice,
    cost_based_choice,
    resolve_solve_method,
)
from repro.plan.nodes import (
    AggregateSessionsNode,
    AttributeAggregateNode,
    CombineQueriesNode,
    CompileUnionNode,
    CountSessionsNode,
    GroundSessionsNode,
    PlanNode,
    QueryPlan,
    SelectSessionsNode,
    SolveNode,
    TerminalNode,
    TopKSessionsNode,
)
from repro.plan.passes import (
    annotate_costs,
    default_passes,
    eliminate_common_solves,
    optimize_plan,
    order_solves,
    resolve_methods,
    simplify_union,
    simplify_unions,
)

__all__ = [
    "APPROX_BUDGET_OPTION",
    "AUTO_APPROX_FALLBACK",
    "DEFAULT_APPROX_BUDGET",
    "AggregateSessionsNode",
    "AttributeAggregateNode",
    "AttributeOutcome",
    "CombineQueriesNode",
    "CompileUnionNode",
    "CountSessionsNode",
    "GroundSessionsNode",
    "PlanExecution",
    "PlanNode",
    "QueryPlan",
    "SelectSessionsNode",
    "SolveNode",
    "TerminalNode",
    "TopKOutcome",
    "TopKSessionsNode",
    "annotate_costs",
    "build_plan",
    "session_upper_bound",
    "classic_choice",
    "cost_based_choice",
    "default_passes",
    "eliminate_common_solves",
    "execute_plan",
    "explain_plan",
    "optimize_plan",
    "order_solves",
    "resolve_methods",
    "resolve_solve_method",
    "simplify_union",
    "simplify_unions",
]
