"""Upper bounds on pattern-union probabilities (Sections 3.2 and 4.3.2).

Every edge ``(u, v)`` of the transitive closure ``tc(g)`` induces the
relaxed Min/Max constraint ``alpha(u) < beta(v)``; a ranking satisfying
``g`` satisfies every such constraint, so any subset of the constraints
upper-bounds ``Pr(g)``.  Fewer constraints are (exponentially) cheaper to
evaluate, so the Most-Probable-Session optimization picks, per pattern, the
``n_edges`` constraints that are *hardest* to satisfy under the reference
ranking, as estimated by the ease heuristic

    ease(u, v | sigma) = beta(v | sigma) - alpha(u | sigma)

and evaluates the relaxed union with the two-label solver (one edge per
pattern) or the bipartite solver (several).
"""

from __future__ import annotations

import math

from repro.patterns.labels import Labeling
from repro.patterns.pattern import LabelPattern, PatternNode
from repro.patterns.union import PatternUnion
from repro.solvers.base import SolverResult, as_union
from repro.solvers.bipartite import bipartite_probability
from repro.solvers.two_label import two_label_probability


def ease(
    source: PatternNode, target: PatternNode, sigma, labeling: Labeling
) -> float:
    """The paper's ease estimate of constraint ``alpha(u) < beta(v)``.

    Computed on the *reference* ranking: the larger the gap between the
    highest-ranked server of ``u`` and the lowest-ranked server of ``v``,
    the easier the constraint.  Constraints with an unserved endpoint can
    never be satisfied and get ``-inf`` (hardest).
    """
    source_items = labeling.items_matching(source.labels)
    target_items = labeling.items_matching(target.labels)
    if not source_items or not target_items:
        return -math.inf
    alpha = min(sigma.rank_of(item) for item in source_items)
    beta = max(sigma.rank_of(item) for item in target_items)
    return float(beta - alpha)


def upper_bound_union(
    union_or_pattern, sigma, labeling: Labeling, n_edges: int = 1
) -> PatternUnion:
    """The relaxed union ``G'`` with ``n_edges`` hardest constraints per pattern.

    Each selected closure edge ``(u, v)`` becomes a bipartite edge between a
    fresh L-copy of ``u`` and a fresh R-copy of ``v``, so the result is a
    union of bipartite patterns (two-label patterns when ``n_edges == 1``)
    whose probability dominates the original's.
    """
    if n_edges < 1:
        raise ValueError("n_edges must be at least 1")
    union = as_union(union_or_pattern)
    relaxed: list[LabelPattern] = []
    for pattern in union:
        closure = pattern.transitive_closure()
        if not closure.edges:
            # An edgeless pattern only asserts node existence; keep it as-is
            # (the relaxation machinery has nothing to select).
            relaxed.append(pattern)
            continue
        ranked = sorted(
            closure.edges,
            key=lambda edge: (
                ease(edge[0], edge[1], sigma, labeling),
                edge[0].name,
                edge[1].name,
            ),
        )
        relaxed.append(_relaxed(ranked[: min(n_edges, len(ranked))]))
    return PatternUnion(relaxed)


def _relaxed(edges) -> LabelPattern:
    """The bipartite pattern of the closure ``edges``: one edge from a
    fresh L-copy of each source to a fresh R-copy of its target."""
    return LabelPattern(
        (
            PatternNode(f"{u.name}^L", u.labels),
            PatternNode(f"{v.name}^R", v.labels),
        )
        for u, v in edges
    )


def relaxation_is_exact(union_or_pattern, n_edges: int) -> bool:
    """Is :func:`upper_bound_union` the union itself, whatever the model?

    True when every pattern's transitive closure has at most ``n_edges``
    edges, so the relaxation keeps them all, and the pattern of fresh
    L/R copies is canonically equal to the union (as for every two-label
    union).  The bound is then the exact probability, at the cost of an
    exact solve.
    """
    union = as_union(union_or_pattern)
    relaxed: list[LabelPattern] = []
    for pattern in union:
        closure = pattern.transitive_closure()
        if len(closure.edges) > n_edges:
            return False
        relaxed.append(_relaxed(closure.edges) if closure.edges else pattern)
    return PatternUnion(relaxed).freeze() == union.freeze()


def upper_bound_probability(
    model,
    labeling: Labeling,
    union_or_pattern,
    n_edges: int = 1,
    *,
    time_budget: float | None = None,
) -> SolverResult:
    """``Pr(G') >= Pr(G)`` via the appropriate specialized solver."""
    relaxed = upper_bound_union(
        union_or_pattern, model.sigma, labeling, n_edges=n_edges
    )
    if relaxed.is_two_label():
        result = two_label_probability(
            model, labeling, relaxed, time_budget=time_budget
        )
    else:
        result = bipartite_probability(
            model, labeling, relaxed, time_budget=time_budget
        )
    stats = dict(result.stats)
    stats["n_edges"] = n_edges
    stats["relaxed_union_size"] = relaxed.z
    return SolverResult(
        probability=result.probability,
        solver=f"upper_bound[{result.solver}]",
        exact=False,  # an upper bound, not the exact marginal
        stats=stats,
    )
