"""The single method-resolution path shared by every layer.

Before the planner existed, ``"auto"`` was resolved in three places — the
solver dispatch, the query engine, and the cache-key module — which meant a
bug in any one of them could make an auto request and its explicit twin
disagree on cache keys or solver attribution.  This module is now the one
resolution point: the plan's method-resolution pass calls
:func:`resolve_solve_method` per solve node, and the solver dispatch and
the cache keys (:mod:`repro.service.keys`) call :func:`classic_choice`.

Resolution is *cost-based*: for ``"auto"`` the applicable exact solvers are
ranked by the planner's DP state-count estimate
(:func:`repro.plan.cost.estimate_solve_states`), ties broken by the
paper's specialization order (two-label < bipartite < general).  For the
solver classes' cost formulas this selection provably coincides with the
paper's structural dichotomy — the two-label and bipartite estimates share
one formula, and the general estimate dominates both (``prod(1+c_g) - 1 >=
sum(c_g)``) — so resolved methods, solver attributions, and cache keys are
bit-identical to the pre-planner behavior.  The lifted solver is annotated
(``lifted_hint``) when its estimate undercuts the general solver's, but is
never auto-picked: it remains an explicit request, keeping attributions
stable.

``"auto-approx"`` is the opt-in escape hatch for solves whose estimated
state count exceeds a budget (the ``approx_budget`` solver option,
default :data:`DEFAULT_APPROX_BUDGET`): such solves fall back to the
MIS-AMP adaptive estimator instead of grinding through an exact DP.  The
fallback is rng-driven, so auto-approx requires an ``rng`` whenever it
actually triggers, and fallen-back solves bypass the solver cache.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.patterns.union import PatternUnion
from repro.plan.cost import estimate_solve_states

#: Methods whose solves draw from an rng.
APPROXIMATE_METHODS = ("mis_amp_lite", "mis_amp_adaptive", "rejection")

#: Method names the planner resolves itself (everything else is explicit).
AUTO_METHODS = ("auto", "auto-approx")

#: Exact solver names, in the paper's specialization (= efficiency) order.
EXACT_METHODS = ("two_label", "bipartite", "general", "lifted", "brute")

#: State-count budget above which ``"auto-approx"`` falls back to MIS-AMP.
#: Calibrated against the array-compiled DP engines (kernels/dp.py, see
#: BENCH_dp.json): at 10-24x the scalar throughput, exact DPs stay cheaper
#: than a converged MIS-AMP run up to an order of magnitude more states
#: than the original 5e6 setting.
DEFAULT_APPROX_BUDGET = 50_000_000.0

#: The approximate method ``"auto-approx"`` falls back to.
AUTO_APPROX_FALLBACK = "mis_amp_adaptive"

#: Solver-option key carrying a per-request auto-approx budget.  Consumed
#: by the planner (popped before options reach a solver).
APPROX_BUDGET_OPTION = "approx_budget"


def classic_choice(union: PatternUnion) -> str:
    """The paper's structural dichotomy: the most specialized applicable solver."""
    if union.is_two_label():
        return "two_label"
    if union.is_bipartite():
        return "bipartite"
    return "general"


def _candidate_costs(
    union: PatternUnion,
    labeling,
    model,
    options: Mapping[str, Any] | None,
) -> dict[str, float]:
    """State-count estimates of the applicable exact auto candidates."""
    candidates = []
    if union.is_two_label():
        candidates.append("two_label")
    if union.is_bipartite():
        candidates.append("bipartite")
    candidates.extend(["general", "lifted"])
    return {
        name: estimate_solve_states(
            model, labeling, union, name, dict(options or {})
        ).states
        for name in candidates
    }


def cost_based_choice(
    union: PatternUnion,
    labeling,
    model,
    options: Mapping[str, Any] | None = None,
) -> tuple[str, dict[str, float]]:
    """``"auto"`` resolved by comparing candidate cost estimates.

    Returns the chosen method plus the per-candidate estimates (attached to
    the solve node's annotations for ``explain``).  The lifted solver is
    costed but excluded from selection — see the module docstring.
    """
    costs = _candidate_costs(union, labeling, model, options)
    selectable = [name for name in costs if name != "lifted"]
    rank = {name: index for index, name in enumerate(EXACT_METHODS)}
    chosen = min(selectable, key=lambda name: (costs[name], rank[name]))
    return chosen, costs


def resolve_solve_method(
    union: PatternUnion,
    method: str = "auto",
    labeling=None,
    model=None,
    options: Mapping[str, Any] | None = None,
    approx_budget: float | None = None,
) -> str:
    """``method`` with the auto modes resolved to a concrete solver name.

    Explicit methods (exact or approximate) pass through unchanged.  With
    ``labeling`` and ``model`` available (the plan pass always provides
    them) ``"auto"`` resolves cost-based; without them it falls back to the
    structural dichotomy — the two agree by construction, so the cheap path
    is safe for callers that only hold a union.
    """
    if method == "auto":
        if labeling is None or model is None:
            return classic_choice(union)
        chosen, _ = cost_based_choice(union, labeling, model, options)
        return chosen
    if method == "auto-approx":
        exact = resolve_solve_method(union, "auto", labeling, model, options)
        if labeling is None or model is None:
            # Without a cost there is nothing to budget against; the plan
            # pass is the caller that decides the fallback.
            return exact
        if approx_budget is None:
            approx_budget = float(
                (options or {}).get(APPROX_BUDGET_OPTION, DEFAULT_APPROX_BUDGET)
            )
        clean = {
            k: v for k, v in dict(options or {}).items()
            if k != APPROX_BUDGET_OPTION
        }
        states = estimate_solve_states(model, labeling, union, exact, clean).states
        return AUTO_APPROX_FALLBACK if states > approx_budget else exact
    return method
