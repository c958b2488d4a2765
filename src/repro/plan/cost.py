"""A lightweight cost model and scheduler for pending session solves.

A batch's deduplicated work list mixes solves of wildly different sizes:
a two-label solve over a handful of labeled items is microseconds, a
general-solver inclusion–exclusion over a three-pattern union can be
seconds.  Executing them in compilation order leaves the pool idle behind
one late long solve; classic LPT (longest processing time first) scheduling
cuts that makespan to within 4/3 of optimal for any worker count.

The cost model estimates the *DP state count* a solve will visit, from the
union statistics the exact solvers' complexity bounds are stated in
(Section 4 of the paper): the number of items ``m``, the per-node matching
item counts under the labeling, the union size ``z``, and the pattern class
(two-label / bipartite / general) ``"auto"`` resolves to.  The estimates
are heuristic — they rank solves, they do not predict wall time — and only
their *relative order* is consumed (:func:`largest_first_order`).

See DESIGN.md, "Executors, persistence, planning".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.patterns.labels import Labeling
from repro.patterns.pattern import LabelPattern
from repro.patterns.union import PatternUnion
from repro.rim.mixture import MallowsMixture

#: Estimates are capped so degenerate inputs (a brute solve over 20 items)
#: cannot overflow or distort comparisons; ordering only needs "huge".
_STATES_CAP = 1e30


@dataclass(frozen=True)
class SolveCostEstimate:
    """Estimated size of one session solve.

    ``states`` is the scheduling weight: the estimated number of DP states
    (samples, for the sampling methods) the solve visits, summed over
    mixture components.
    """

    states: float
    method: str
    m: int
    z: int
    n_components: int = 1

    def __post_init__(self):
        object.__setattr__(self, "states", min(float(self.states), _STATES_CAP))


def node_match_counts(
    pattern: LabelPattern, labeling: Labeling
) -> list[int]:
    """Per-node counts of items embeddable at each node of ``pattern``."""
    return [
        len(labeling.items_matching(node.labels)) for node in pattern.nodes
    ]


def _pattern_states(pattern: LabelPattern, labeling: Labeling) -> float:
    """DP states of one pattern's solve: ``prod`` over nodes of (count + 1).

    Every exact DP tracks, per insertion step, how many items of each
    node's candidate set are already placed (plus "none"), so the state
    space is the product of the per-node counts — the shape of the paper's
    two-label and bipartite bounds.
    """
    states = 1.0
    for count in node_match_counts(pattern, labeling):
        states *= count + 1
        if states >= _STATES_CAP:
            return _STATES_CAP
    return states


def estimate_solve_states(
    model,
    labeling: Labeling,
    union: PatternUnion,
    method: str = "auto",
    options: "dict | None" = None,
) -> SolveCostEstimate:
    """Estimate the DP state count of one session solve.

    * two-label / bipartite: ``m * sum_g prod_nodes (count + 1)`` — one DP
      per pattern over the ``m`` insertion steps;
    * general: ``m * (prod_g (1 + c_g) - 1)`` where ``c_g`` is pattern
      ``g``'s state product — the inclusion–exclusion runs one DP per
      nonempty pattern subset, whose conjunction multiplies the per-pattern
      states;
    * lifted: the general estimate with ``m`` replaced by the relevant-item
      count (the lifted solver skips never-matching items);
    * brute: ``m!``;
    * sampling methods: the sample budget from ``options``.

    Mixtures multiply by the component count (one solve per component).
    """
    # Deferred: repro.plan.methods imports this module for its cost-based
    # resolution.
    from repro.plan.methods import APPROXIMATE_METHODS, classic_choice

    options = options or {}
    n_components = (
        len(model.components) if isinstance(model, MallowsMixture) else 1
    )
    m = model.m
    z = union.z
    resolved = classic_choice(union) if method == "auto" else method

    if resolved in APPROXIMATE_METHODS:
        states = float(
            options.get("n_samples")
            or options.get("n_per_proposal", 1000) * options.get("n_proposals", 10)
        )
    elif resolved == "brute":
        states = float(math.factorial(min(m, 25)))
    elif resolved in ("two_label", "bipartite"):
        states = m * sum(_pattern_states(g, labeling) for g in union.patterns)
    else:  # general / lifted: inclusion-exclusion over pattern subsets
        subsets = 1.0
        for pattern in union.patterns:
            subsets *= 1.0 + _pattern_states(pattern, labeling)
            if subsets >= _STATES_CAP:
                break
        effective_m = (
            len(union.relevant_items(labeling)) if resolved == "lifted" else m
        )
        states = max(effective_m, 1) * max(subsets - 1.0, 1.0)

    return SolveCostEstimate(
        states=states * n_components,
        method=resolved,
        m=m,
        z=z,
        n_components=n_components,
    )


def largest_first_order(costs: Sequence[float]) -> list[int]:
    """Indices of ``costs`` sorted descending (stable): LPT order.

    Feeding tasks to a pool in this order (chunk size 1) approximates
    longest-processing-time-first scheduling: big solves start immediately
    and the small ones pack into the remaining capacity, instead of a big
    solve arriving last and stretching the batch single-handedly.
    """
    return sorted(range(len(costs)), key=lambda index: (-costs[index], index))
