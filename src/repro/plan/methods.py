"""The single method-resolution path shared by every layer.

Before the planner existed, ``"auto"`` was resolved in three places — the
solver dispatch, the query engine, and the cache-key module — which meant a
bug in any one of them could make an auto request and its explicit twin
disagree on cache keys or solver attribution.  This module is now the one
resolution point: the plan's method-resolution pass calls
:func:`resolve_solve_method` per solve node, and the solver dispatch and
the cache keys (:mod:`repro.service.keys`) call :func:`classic_choice`.

``"auto"`` is :func:`classic_choice` everywhere: the paper's structural
dichotomy, the most specialized applicable solver (two-label < bipartite <
general), decided from the union's shape alone, so resolved methods,
solver attributions, and cache keys agree across layers by construction.
The lifted solver is never auto-picked — it remains an explicit request,
keeping attributions stable; ``explain`` notes when its estimate
undercuts an auto-resolved general solve.  The cost model
(:mod:`repro.plan.cost`) only ranks solves and budgets ``auto-approx``.

``"auto-approx"`` is the opt-in escape hatch for solves whose estimated
state count exceeds a budget (the ``approx_budget`` solver option,
default :data:`DEFAULT_APPROX_BUDGET`): such solves fall back to the
MIS-AMP adaptive estimator instead of grinding through an exact DP.  A
fallen-back solve is a sampled solve like any other: it draws from its
own stream, derived from the caller's ``seed`` and its key
(:func:`repro.service.keys.solve_stream`), and is cached under that key.
"""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING, Any, Mapping

from repro.patterns.union import PatternUnion
from repro.plan.cost import estimate_solve_states

if TYPE_CHECKING:
    from repro.plan.nodes import QueryPlan

#: Methods whose solves sample: each draws from a stream of its own.
APPROXIMATE_METHODS = ("mis_amp_lite", "mis_amp_adaptive", "rejection")

#: Methods that only sample or enumerate the session model, so they also
#: answer sessions whose model is not a RIM (e.g. Plackett-Luce).
MODEL_AGNOSTIC_METHODS = ("rejection", "brute")

#: Method names the planner resolves itself (everything else is explicit).
AUTO_METHODS = ("auto", "auto-approx")

#: Solver options a method cannot run without.  MIS-AMP-lite's proposal
#: count has no default: it trades accuracy for time, so the caller picks.
REQUIRED_OPTIONS: dict[str, tuple[str, ...]] = {"mis_amp_lite": ("n_proposals",)}

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


def check_option_names(options: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` naming each option no method accepts.

    The accepted names are the plan-level ``approx_budget`` and every
    keyword of a solver or estimator
    (:func:`repro.query.engine.solver_option_names`), so a misspelt
    keyword fails when it is passed, not as a ``TypeError`` at the first
    solve.
    """
    if not options:
        return  # the common case, checked on every request
    # Deferred: the query engine imports this module at call time.
    from repro.query.engine import solver_option_names

    accepted = solver_option_names() | {APPROX_BUDGET_OPTION}
    unknown = sorted(set(options) - accepted)
    if unknown:
        raise ValueError(
            "unknown solver option "
            + ", ".join(repr(name) for name in unknown)
            + f"; accepted: {', '.join(sorted(accepted))}"
        )


def check_solve_options(plan: "QueryPlan") -> None:
    """Raise ``ValueError`` naming an option a solve's resolved method
    does not take.

    :func:`check_option_names` admits an option that *some* method
    takes; this check runs once methods are resolved (the optimizer's
    ``resolve_methods`` pass, so once per optimized plan), so
    ``pruned=False`` on a two-label union fails here, not as a
    ``TypeError`` at the first solve.
    """
    if not plan.options:
        return  # the common case, checked on every optimized plan
    # Deferred: the query engine imports this module at call time.
    from repro.query.engine import solver_option_names

    for method in dict.fromkeys(node.method for node in plan.solves()):
        accepted = solver_option_names(method)
        rejected = sorted(set(plan.options) - accepted)
        if rejected:
            raise ValueError(
                "solver option "
                + ", ".join(repr(name) for name in rejected)
                + f" is not accepted by the resolved method {method!r}; "
                f"it accepts: {', '.join(sorted(accepted))}"
            )


def check_required_options(method: str, options: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` naming each option ``method`` needs but lacks.

    Called when a request is validated, before any plan is built, so a
    missing option never surfaces as a ``TypeError`` from a solver.
    """
    missing = [
        name for name in REQUIRED_OPTIONS.get(method, ()) if name not in options
    ]
    if missing:
        raise ValueError(
            f"method {method!r} requires the solver option "
            + ", ".join(repr(name) for name in missing)
        )


def check_seed(seed: Any) -> int:
    """``seed`` as an ``int``; ``ValueError`` unless it is a non-negative
    integer (checked when a request is validated, before planning)."""
    if (
        isinstance(seed, bool)
        or not isinstance(seed, numbers.Integral)
        or seed < 0
    ):
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    return int(seed)


def classic_choice(union: PatternUnion) -> str:
    """The paper's structural dichotomy: the most specialized applicable solver."""
    if union.is_two_label():
        return "two_label"
    if union.is_bipartite():
        return "bipartite"
    return "general"


def resolve_solve_method(
    union: PatternUnion,
    method: str = "auto",
    labeling=None,
    model=None,
    options: Mapping[str, Any] | None = None,
    approx_budget: float | None = None,
) -> str:
    """``method`` with the auto modes resolved to a concrete solver name.

    Explicit methods (exact or approximate) pass through unchanged and
    ``"auto"`` is :func:`classic_choice`.  ``"auto-approx"`` budgets the
    auto choice's estimated state count, which needs ``labeling`` and
    ``model`` (the plan pass always provides them).
    """
    if method == "auto":
        return classic_choice(union)
    if method == "auto-approx":
        exact = classic_choice(union)
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
