"""The optimizer: a pass pipeline rewriting a :class:`QueryPlan` in place.

Five passes, applied in order by :func:`optimize_plan`:

1. :func:`simplify_unions` — flatten each solve's pattern union and drop
   canonically duplicate disjuncts (idempotent under union; duplicates
   inflate ``z`` and, for the general solver, double the
   inclusion–exclusion subsets).  :class:`~repro.patterns.union
   .PatternUnion` already dedups at construction, so this pass is the
   plan-level invariant check; it rewrites and annotates if anything
   slipped through (e.g. unions assembled by external code).
2. :func:`resolve_methods` — resolve every solve's method through the one
   shared path (:mod:`repro.plan.methods`): the paper's structural
   dichotomy for ``"auto"``, budgeted MIS-AMP fallback for
   ``"auto-approx"``; give every sampled solve its stream
   (:func:`repro.service.keys.solve_stream`); then check the solver
   options against each resolved method
   (:func:`repro.plan.methods.check_solve_options`).
3. :func:`eliminate_common_solves` — merge solve nodes that are the same
   request: by canonical cache key (``canonical=True``, subsuming the
   engine's Section 6.4 grouping *and* the service's batch-wide dedup
   dicts, across queries) or by object identity (``canonical=False``,
   the engine's cacheless behavior).  Merged nodes disappear from the
   frontier; their sessions repoint to the surviving representative.
   The repoint sweep is terminal-kind agnostic: a Count and a Probability
   (or TopK, or attribute Aggregate) of the same query share one merged
   solve, which is what makes mixed-kind batches of the unified API
   (:mod:`repro.api`) no more expensive than their hardest member.  With
   canonical keys the pass also keys every bound an upper-bound top-k
   terminal will read (:attr:`~repro.plan.nodes.TopKSessionsNode
   .bound_keys`), so no execution recomputes one.
4. :func:`annotate_costs` — annotate every surviving solve node with the
   planner's DP state-count estimate (:func:`repro.plan.cost
   .estimate_solve_states`); consumed by the ordering pass, ``explain()``,
   and the LPT schedule of the execution backends.  It runs after
   elimination so that merged-away nodes are never estimated: a survivor
   is the representative node it was before the merge, so its estimate
   is the same either way.
5. :func:`order_solves` — reorder the surviving frontier largest-first
   (LPT): big solves start immediately on a worker pool instead of
   straggling.  A sampled solve draws from its own stream, so the order
   changes no value.

Every pass records itself in ``plan.passes_applied``; the elimination pass
also maintains ``plan.n_solves_eliminated``.  What the passes derive from
a union alone (its simplification, resolved method, fingerprints, cost
estimates and named digest) they read through a
:class:`~repro.plan.grounding.Grounding`: the caller's, or a fresh one per
:func:`optimize_plan` call.  Optimized and unoptimized plans produce
bit-identical probabilities — the per-pass equivalence tests pin exactly
that.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

from repro.patterns.union import PatternUnion
from repro.plan.cost import largest_first_order
from repro.plan.grounding import Grounding
from repro.plan.methods import (
    APPROXIMATE_METHODS,
    check_solve_options,
    resolve_solve_method,
)
from repro.plan.nodes import CompileUnionNode, QueryPlan, TopKSessionsNode
from repro.service.keys import (
    bound_cache_key,
    session_cache_key,
    solve_stream,
)

PlanPass = Callable[[QueryPlan], QueryPlan]


def simplify_union(union: PatternUnion) -> PatternUnion:
    """``union`` with canonically duplicate disjuncts dropped.

    Returns the same object when nothing changes, so the grounding's
    facts of the union stay valid.
    """
    if union.z < 2:
        return union  # a single disjunct cannot hide a duplicate
    seen: set[tuple] = set()
    kept = []
    for pattern in union.patterns:
        form = pattern.canonical_form()
        if form in seen:
            continue
        seen.add(form)
        kept.append(pattern)
    if len(kept) == len(union.patterns):
        return union
    return PatternUnion(kept)


def simplify_unions(
    plan: QueryPlan, grounding: Grounding | None = None
) -> QueryPlan:
    """Pass 1: flatten + dedup identical disjuncts of every solve's union."""
    grounding = grounding if grounding is not None else Grounding()
    simplified: dict[int, PatternUnion] = {}
    n_dropped = 0
    for node in plan.solves():
        result = grounding.facts(node).simplified()
        simplified[id(node.union)] = result
        if result is not node.union:
            dropped = node.union.z - result.z
            node.annotations["n_disjuncts_dropped"] = dropped
            n_dropped += dropped
            node.union = result
    if n_dropped:
        for compile_node in plan.nodes.values():
            if isinstance(compile_node, CompileUnionNode):
                result = simplified.get(id(compile_node.union))
                if result is not None and result is not compile_node.union:
                    compile_node.annotations["n_disjuncts_dropped"] = (
                        compile_node.union.z - result.z
                    )
                    compile_node.union = result
    plan.passes_applied.append("simplify_unions")
    return plan


def resolve_methods(
    plan: QueryPlan, grounding: Grounding | None = None
) -> QueryPlan:
    """Pass 2: :func:`resolve_solves`."""
    resolve_solves(plan, grounding)
    plan.passes_applied.append("resolve_methods")
    return plan


def resolve_solves(plan: QueryPlan, grounding: Grounding | None = None) -> None:
    """Resolve each solve's method through the single resolution path and
    give each sampled one its stream; an option a resolved method does
    not take raises ``ValueError``.

    The ``resolve_methods`` pass runs it on an optimized plan, and the
    executor on an unoptimized one before its first solve.  A stream is
    a function of the plan's seed and the solve's content (its key), so
    a sampled value does not depend on how the plan groups sessions.
    """
    grounding = grounding if grounding is not None else Grounding()
    for node in plan.solves():
        requested = node.requested_method
        facts = grounding.facts(node)
        if requested == "auto-approx":
            node.method = resolve_solve_method(
                node.union,
                "auto-approx",
                node.labeling,
                node.model,
                node.options,
                approx_budget=plan.approx_budget,
            )
            node.annotations["approx_budget"] = plan.approx_budget
        else:
            node.method = facts.method(requested)
        if node.method in APPROXIMATE_METHODS:
            node.stream = solve_stream(
                plan.seed,
                node.model,
                facts.fingerprint(node.method, node.options, plan.seed),
                node.sessions[0][1],
            )
    check_solve_options(plan)


def annotate_costs(
    plan: QueryPlan, grounding: Grounding | None = None
) -> QueryPlan:
    """Pass 4: annotate every solve node with its DP state-count estimate."""
    grounding = grounding if grounding is not None else Grounding()
    for node in plan.solves():
        node.cost = node.annotations["cost"] = grounding.facts(node).cost(
            node.model, node.method or node.requested_method, node.options
        )
    plan.passes_applied.append("annotate_costs")
    return plan


def eliminate_common_solves(
    plan: QueryPlan,
    canonical: bool = True,
    grounding: Grounding | None = None,
) -> QueryPlan:
    """Pass 3: merge solve nodes that are the same request.

    ``canonical=True`` groups by the canonical session cache key — the key
    the shared :class:`~repro.service.cache.SolverCache` uses, so
    equal-content requests merge across sessions *and* across queries of a
    batch; ``canonical=False`` groups by object identity, matching the
    engine's cacheless grouping exactly (solver attributions included:
    identity grouping never conflates a plain model with its canonically
    equal single-component mixture).
    """
    grounding = grounding if grounding is not None else Grounding()
    if canonical:
        # The model-independent fingerprint is the expensive half of the
        # key; the grounding keeps it per union.
        for node in plan.solves():
            method = node.method or node.requested_method
            node.cache_key = session_cache_key(
                node.model,
                node.labeling,
                node.union,
                method,
                node.options,
                fingerprint=grounding.facts(node).fingerprint(
                    method, node.options, plan.seed
                ),
            )

    representatives: dict = {}
    remap: dict[int, int] = {}
    surviving: list[int] = []
    for node in plan.solves():
        key = node.group_key
        keeper = representatives.get(key)
        if keeper is None:
            representatives[key] = node
            surviving.append(node.node_id)
            continue
        keeper.sessions.extend(node.sessions)
        keeper.annotations["n_merged"] = keeper.annotations.get("n_merged", 0) + 1
        remap[node.node_id] = keeper.node_id
        del plan.nodes[node.node_id]
    if remap:
        # One repoint sweep for all merges (per-merge sweeps are quadratic
        # in the session count of a large batch).
        for aggregate in plan.aggregate_nodes():
            aggregate.items = [
                (key, remap.get(solve_id, solve_id))
                for key, solve_id in aggregate.items
            ]
            if isinstance(aggregate, TopKSessionsNode):
                aggregate.exact_bounds = {
                    remap.get(solve_id, solve_id)
                    for solve_id in aggregate.exact_bounds
                }
            aggregate.inputs = tuple(
                dict.fromkeys(
                    remap.get(node_id, node_id) for node_id in aggregate.inputs
                )
            )
    plan.solve_order = surviving
    plan.n_solves_eliminated += len(remap)
    if canonical:
        _key_bounds(plan, grounding)
    plan.passes_applied.append("eliminate_common_solves")
    return plan


def _key_bounds(plan: QueryPlan, grounding: Grounding) -> None:
    """Fill each upper-bound top-k terminal's ``bound_keys`` from the
    keys and named unions of the surviving solves it bounds."""
    keys: dict[tuple[int, int], str] = {}
    for terminal in plan.aggregate_nodes():
        if not isinstance(terminal, TopKSessionsNode):
            continue
        for solve_id in terminal.bounded_ids():
            pair = (solve_id, terminal.n_edges)
            key = keys.get(pair)
            if key is None:
                solve = plan.nodes[solve_id]
                if solve.cache_key is None:
                    continue
                key = keys[pair] = bound_cache_key(
                    solve.cache_key,
                    grounding.facts(solve).named,
                    terminal.n_edges,
                )
            terminal.bound_keys[solve_id] = key


def order_solves(plan: QueryPlan) -> QueryPlan:
    """Pass 5: LPT-order the frontier by annotated cost."""
    solves = plan.solves()
    costs = [node.cost if node.cost is not None else 0.0 for node in solves]
    plan.solve_order = [
        plan.solve_order[index] for index in largest_first_order(costs)
    ]
    plan.passes_applied.append("order_solves")
    return plan


def default_passes(
    plan: QueryPlan,
    canonical: bool = False,
    grounding: Grounding | None = None,
) -> list[PlanPass]:
    """The default pipeline for this plan's configuration, reading through
    ``grounding`` (one fresh one for the whole pipeline by default)."""
    grounding = grounding if grounding is not None else Grounding()
    passes: list[PlanPass] = [
        partial(simplify_unions, grounding=grounding),
        partial(resolve_methods, grounding=grounding),
    ]
    if plan.group_sessions:
        passes.append(
            partial(
                eliminate_common_solves, canonical=canonical,
                grounding=grounding,
            )
        )
    passes += [partial(annotate_costs, grounding=grounding), order_solves]
    return passes


def optimize_plan(
    plan: QueryPlan,
    passes: "Iterable[PlanPass] | None" = None,
    canonical: bool | None = None,
    grounding: Grounding | None = None,
) -> QueryPlan:
    """Apply the default (or an explicit) pass pipeline to ``plan``.

    ``canonical`` selects the grouping mode of common-solve elimination
    (see :func:`eliminate_common_solves`); it defaults to ``False``, the
    engine's cacheless behavior — the serving layer passes ``True``.
    ``grounding`` is the one the plan was built through, if the caller
    kept it; the default pipeline reads through it.
    """
    grounding = grounding if grounding is not None else Grounding()
    with grounding.lock:
        if passes is None:
            passes = default_passes(
                plan, canonical=bool(canonical), grounding=grounding
            )
        for plan_pass in passes:
            plan = plan_pass(plan)
    return plan
