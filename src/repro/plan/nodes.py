"""The plan IR: a typed DAG of logical/physical query-plan nodes.

Evaluating a Boolean CQ over a RIM-PPD decomposes into a fixed logical
shape (Section 3.1 of the paper):

    SelectSessions -> GroundSessions -> CompileUnion -> Solve -> AggregateSessions

with a ``CombineQueries`` root when a batch of queries is planned together.
Classic probabilistic-database engines (Dalvi & Suciu's safe plans, Li &
Deshpande's consensus answers) get their leverage from making that shape an
explicit, rewritable object; this module is that object for this engine.

The nodes split into two layers:

* **provenance nodes** (``SelectSessionsNode``, ``GroundSessionsNode``,
  ``CompileUnionNode``) record what the builder did — how many sessions a
  query selected, how the session-atom joins grounded, which pattern unions
  compilation produced — so ``explain()`` can show the whole pipeline;
* **physical nodes** (``SolveNode``, ``BoundNode``, the
  :class:`TerminalNode` family, ``CombineQueriesNode``) are what the
  optimizer rewrites and the executor runs.  A ``SolveNode`` starts as one
  *planned* solve per satisfiable session; the optimizer passes
  (:mod:`repro.plan.passes`) resolve its method, annotate its cost, and
  merge identical nodes, so the executor (:mod:`repro.plan.execute`) only
  ever runs the surviving frontier.  Each execution makes its own
  ``BoundNode`` per surviving solve an upper-bound top-k terminal reads,
  under the key the optimizer stored on the terminal, and keeps it in its
  :class:`~repro.plan.execute.PlanExecution`: nothing writes to a plan
  after the optimizer, so one plan can run any number of times.

Since the unified query API (:mod:`repro.api`), every request kind ends in
its own *terminal* node over the shared solve frontier:
``AggregateSessionsNode`` (Boolean probability, Section 3.1),
``CountSessionsNode`` (``E[count(Q)]``, Section 3.2),
``TopKSessionsNode`` (``top(Q, k)`` with the upper-bound pruning of
Section 4.3.2 — its exclusive solves are *lazy*: demanded in bound order
and skipped entirely once the k-th best confirmed probability dominates
the remaining bounds), and ``AttributeAggregateNode`` (the Section 7
attribute aggregates).  Terminals of different kinds over the same query
consume the *same* solve nodes, which is what makes mixed-kind batches
share solver work.

The IR deliberately reuses the engine's value types (models, labelings,
:class:`~repro.patterns.union.PatternUnion`) rather than re-encoding them:
a plan is a *schedule over existing work units*, executed through the
solver/cache stack.  See DESIGN.md, "The query planner".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Hashable, Sequence, TYPE_CHECKING, cast

from repro.patterns.labels import Labeling
from repro.patterns.union import PatternUnion
from repro.plan.methods import (
    APPROXIMATE_METHODS,
    APPROX_BUDGET_OPTION,
    DEFAULT_APPROX_BUDGET,
)
from repro.query.ast import ConjunctiveQuery
from repro.query.engine import SessionKey

if TYPE_CHECKING:
    from repro.api.requests import QueryRequest


@dataclass
class PlanNode:
    """Base of every plan node: an id, input edges, and free annotations."""

    node_id: int
    inputs: tuple[int, ...] = ()
    #: Free-form annotations written by optimizer passes (costs, hints,
    #: eliminated counts); rendered verbatim by ``explain()``.
    annotations: dict[str, Any] = field(default_factory=dict)

    kind: ClassVar[str] = "node"


@dataclass
class SelectSessionsNode(PlanNode):
    """Session selection of one query against its p-relation."""

    query_index: int = 0
    p_relation: str = ""
    n_candidates: int = 0
    n_selected: int = 0

    kind: ClassVar[str] = "select_sessions"


@dataclass
class GroundSessionsNode(PlanNode):
    """Per-session binding + V+(Q) grounding (Algorithm 2) of one query."""

    query_index: int = 0
    n_satisfiable: int = 0
    n_unsatisfiable: int = 0

    kind: ClassVar[str] = "ground_sessions"


@dataclass
class CompileUnionNode(PlanNode):
    """One distinct compiled pattern union of a query (shared by sessions)."""

    query_index: int = 0
    union: PatternUnion | None = None
    n_sessions: int = 0

    kind: ClassVar[str] = "compile_union"

    @property
    def z(self) -> int:
        return self.union.z if self.union is not None else 0


@dataclass
class SolveNode(PlanNode):
    """One session solve: the unit the optimizer rewrites and merges.

    Built as one node per satisfiable session; after common-solve
    elimination a node may carry many ``sessions`` (the consumers that will
    read its probability).  ``method`` starts as the *requested* method and
    is rewritten to a concrete solver name by the method-resolution pass;
    ``cost`` is the planner's DP state-count estimate; ``cache_key`` is the
    canonical key string (:func:`repro.service.keys.session_cache_key`)
    used both for elimination and for the shared
    :class:`~repro.service.cache.SolverCache` (None when the plan groups by
    object identity, matching the engine's cacheless behavior, or when the
    model has no ``freeze()`` hook).
    """

    model: Any = None
    labeling: Labeling | None = None
    union: PatternUnion | None = None
    requested_method: str = "auto"
    method: str | None = None
    options: dict[str, Any] = field(default_factory=dict)
    #: (query_index, session_key) pairs consuming this solve, in plan order.
    sessions: list[tuple[int, SessionKey]] = field(default_factory=list)
    cost: float | None = None
    cache_key: str | None = None

    kind: ClassVar[str] = "solve"

    @property
    def identity_key(self) -> Hashable:
        """The engine's cacheless grouping key: same objects, same solve."""
        return (id(self.model), self.union)

    @property
    def group_key(self) -> Hashable:
        """The key elimination and result counters group this node by."""
        return self.cache_key if self.cache_key is not None else self.identity_key

    @property
    def cacheable(self) -> bool:
        """True when the resolved solve may consult/populate a SolverCache."""
        return (
            self.cache_key is not None
            and (self.method or self.requested_method) not in APPROXIMATE_METHODS
        )


@dataclass
class BoundNode(PlanNode):
    """One session's top-k upper bound (Section 4.3.2), ``Pr(G') >= Pr(G)``.

    Each execution makes one per (surviving solve node, ``n_edges``) that
    an upper-bound :class:`TopKSessionsNode` reads, shared by every
    terminal that reads it, numbered past the plan's own ids and kept in
    the execution, not the plan; it resolves them on the one frontier
    runner like solves: cache lookup, claim, one serial backend run, one
    publish of ``(bound, "upper_bound")`` pairs.  A bound is not a solve,
    so the solve counters never count it.  ``cache_key`` is the key the
    optimizer stored in the terminal's ``bound_keys``; it keeps the union's
    node names (:func:`repro.service.keys.bound_cache_key`), since the edge
    selection breaks ease ties by name.
    """

    model: Any = None
    labeling: Labeling | None = None
    union: PatternUnion | None = None
    n_edges: int = 1
    cache_key: str | None = None

    kind: ClassVar[str] = "upper_bound"

    @property
    def cacheable(self) -> bool:
        """True when the bound may consult/populate a SolverCache."""
        return self.cache_key is not None


@dataclass
class TerminalNode(PlanNode):
    """Base of the per-request terminal nodes.

    ``items`` lists the request's sessions in selection order, each
    pointing at the :class:`SolveNode` that produces its probability — or
    ``None`` for sessions where the query is unsatisfiable (probability 0).
    The optimizer's elimination pass repoints ``items`` when solve nodes
    merge, uniformly for every terminal kind.
    """

    query_index: int = 0
    query: ConjunctiveQuery | None = None
    #: (session_key, solve node id | None), in session-selection order.
    items: list[tuple[SessionKey, int | None]] = field(default_factory=list)

    kind: ClassVar[str] = "terminal"

    def solve_ids(self) -> list[int]:
        """Distinct solve-node ids this request consumes, first-use order."""
        seen: list[int] = []
        for _, solve_id in self.items:
            if solve_id is not None and solve_id not in seen:
                seen.append(solve_id)
        return seen

    @property
    def lazy(self) -> bool:
        """True when this terminal demand-solves instead of running eagerly."""
        return False


@dataclass
class AggregateSessionsNode(TerminalNode):
    """Independent-session aggregation of one Boolean query:
    ``Pr(Q | D) = 1 - prod_i (1 - Pr(Q | s_i))``."""

    kind: ClassVar[str] = "aggregate_sessions"


@dataclass
class CountSessionsNode(TerminalNode):
    """Count-Session terminal: ``E[count(Q)] = sum_i Pr(Q | s_i)``."""

    kind: ClassVar[str] = "count_sessions"


@dataclass
class TopKSessionsNode(TerminalNode):
    """Most-Probable-Session terminal: the ``k`` best-supported sessions.

    With ``strategy="upper_bound"`` the terminal owns an *adaptive*
    frontier: its exclusive solve nodes are lazy (excluded from the eager
    frontier) and demanded in descending upper-bound order until the k-th
    best confirmed probability dominates every remaining bound — solves
    past that point never run.  The bounds are :class:`BoundNode` values
    of the execution (``PlanExecution.bounds``), cached under the keys the
    optimizer put in ``bound_keys``.  A solve shared with any non-lazy
    terminal (e.g. a Count of the same query in the batch) stays eager,
    and the top-k loop consumes its already-resolved probability for
    free.
    """

    k: int = 1
    strategy: str = "upper_bound"
    n_edges: int = 1
    #: solve node id -> the cache key of its bound
    #: (:func:`repro.service.keys.bound_cache_key`); filled by canonical
    #: elimination, empty when the plan has no cache keys
    bound_keys: dict[int, str] = field(default_factory=dict)

    kind: ClassVar[str] = "top_k_sessions"

    @property
    def lazy(self) -> bool:
        return self.strategy == "upper_bound"


@dataclass
class AttributeAggregateNode(TerminalNode):
    """Attribute-aggregate terminal (Section 7): a statistic of a session
    attribute over the satisfying sessions, estimated from ``n_worlds``
    Bernoulli possible-world draws over the per-session probabilities.

    ``values`` holds the attribute value of every selected session, joined
    from ``relation.column`` at build time (so a missing attribute row
    fails at plan construction, before any solve runs).
    """

    relation: str = ""
    column: str = ""
    statistic: str = "mean"
    n_worlds: int = 10_000
    #: session key -> attribute value, for every key in ``items``.
    values: dict[SessionKey, float] = field(default_factory=dict)

    kind: ClassVar[str] = "attribute_aggregate"


@dataclass
class CombineQueriesNode(PlanNode):
    """The batch root: per-request terminals combined into one batch."""

    n_queries: int = 0

    kind: ClassVar[str] = "combine_queries"


class QueryPlan:
    """A buildable, rewritable, executable plan for one request or a batch.

    The plan owns its nodes (``nodes[node_id]``), an explicit execution
    order over the surviving solve frontier (``solve_order``), one
    :class:`TerminalNode` per request (``terminals`` — an
    :class:`AggregateSessionsNode` for Boolean queries, the aggregate-aware
    kinds for the rest), and the counters the optimizer passes maintain
    (``n_solves_planned``, ``n_solves_eliminated``, ``passes_applied``).
    ``optimize`` / ``execute`` / ``explain`` live in their own modules
    (:mod:`repro.plan.passes`, :mod:`repro.plan.execute`,
    :mod:`repro.plan.explain`); the convenience methods here delegate.

    ``requests`` holds the typed request objects the plan was built from
    (:mod:`repro.api.requests`); ``queries`` their underlying Boolean CQs,
    in request order.

    The builder and the optimizer passes write a plan; nothing does after
    :func:`~repro.plan.passes.optimize_plan` returns.  Execution keeps its
    state (resolved values, bound nodes, terminal outcomes) in its own
    :class:`~repro.plan.execute.PlanExecution`, so an optimized plan can
    run twice, or on two threads at once.
    """

    def __init__(
        self,
        db: Any,
        requests: list[QueryRequest],
        method: str = "auto",
        options: dict[str, Any] | None = None,
        group_sessions: bool = True,
        session_limit: int | None = None,
    ) -> None:
        self.db = db
        self.requests = requests
        self.queries: list[ConjunctiveQuery] = [
            request.query for request in requests
        ]
        self.method = method
        self.options = dict(options or {})
        self.group_sessions = group_sessions
        self.session_limit = session_limit
        #: The auto-approx state-count budget is plan-level configuration,
        #: not a solver option: it is popped *unconditionally* so it never
        #: reaches a solver signature or perturbs a cache key, whatever
        #: method the plan was built with (it only takes effect under
        #: ``"auto-approx"``).
        budget = self.options.pop(APPROX_BUDGET_OPTION, DEFAULT_APPROX_BUDGET)
        self.approx_budget: float | None = (
            float(budget) if method == "auto-approx" else None
        )

        self.nodes: dict[int, PlanNode] = {}
        #: Solve-node ids in execution order (rewritten by the passes).
        self.solve_order: list[int] = []
        #: Per-request terminal node ids, in request order.  (Named for the
        #: historical Boolean-only shape, where every terminal was an
        #: AggregateSessionsNode; kept as the stable attribute name.)
        self.aggregates: list[int] = []
        self.combine: int | None = None

        self.passes_applied: list[str] = []
        self.n_solves_planned = 0
        self.n_solves_eliminated = 0
        self._next_id = 0

    # ------------------------------------------------------------------
    # Construction helpers (used by the builder and the passes)
    # ------------------------------------------------------------------

    def add(self, node: PlanNode) -> PlanNode:
        """Register a node built with a fresh id from :meth:`new_id`."""
        self.nodes[node.node_id] = node
        return node

    def new_id(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    @property
    def n_ids(self) -> int:
        """How many node ids the plan has handed out: an execution numbers
        its own bound nodes from here, so they never collide with a plan
        node."""
        return self._next_id

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    def solves(self) -> list[SolveNode]:
        """The surviving solve frontier, in execution order."""
        return [cast(SolveNode, self.nodes[node_id]) for node_id in self.solve_order]

    def aggregate_nodes(self) -> list[TerminalNode]:
        """The per-request terminal nodes, in request order."""
        return [cast(TerminalNode, self.nodes[node_id]) for node_id in self.aggregates]

    #: Alias reflecting the unified-API vocabulary.
    terminal_nodes = aggregate_nodes

    def stats(self) -> dict[str, int]:
        """The plan-level counters the serving layer reports."""
        return {
            "n_solves_planned": self.n_solves_planned,
            "n_solves_eliminated": self.n_solves_eliminated,
            "n_passes_applied": len(self.passes_applied),
        }

    # ------------------------------------------------------------------
    # Delegating conveniences
    # ------------------------------------------------------------------

    def optimize(
        self, passes: Sequence[Any] | None = None, canonical: bool | None = None
    ) -> "QueryPlan":
        """Apply the default (or given) pass pipeline in place."""
        from repro.plan.passes import optimize_plan

        optimized: QueryPlan = optimize_plan(self, passes=passes, canonical=canonical)
        return optimized

    def execute(self, **kwargs: Any) -> Any:
        """Run the plan; see :func:`repro.plan.execute.execute_plan`."""
        from repro.plan.execute import execute_plan

        return execute_plan(self, **kwargs)

    def explain(self, execution: Any = None) -> str:
        """Render the plan DAG with per-node cost annotations."""
        from repro.plan.explain import explain_plan

        rendered: str = explain_plan(self, execution=execution)
        return rendered

    def __repr__(self) -> str:
        return (
            f"QueryPlan(queries={self.n_queries}, solves={len(self.solve_order)}, "
            f"planned={self.n_solves_planned}, "
            f"eliminated={self.n_solves_eliminated}, "
            f"passes={self.passes_applied})"
        )
