"""The two-label solver — Algorithm 3 of the paper.

Handles unions of *two-label patterns*: ``G = U_{i=1..z} { l_i > r_i }``.
Instead of the satisfaction probability, the solver computes the probability
of the complementary event — that a random ranking violates *every* pattern
— by a dynamic program over RIM insertions whose states track the minimum
position ``alpha(l)`` of each L-type label and the maximum position
``beta(r)`` of each R-type label.  A ranking violates ``{l > r}`` exactly
when ``alpha(l) >= beta(r)`` (or one side has no items), so states that
satisfy some pattern (``alpha(l_i) < beta(r_i)``) are pruned the moment they
arise: satisfaction is permanent under further insertions.

The state space has size O(m^{2z}), giving the paper's O(m^{2z+1}) time.
Here a "label" is a pattern node's label *conjunction*; an item serves it
when it carries all of its labels.
"""

from __future__ import annotations

import time

from repro.kernels.dp import (
    alpha_beta_table,
    handoff_due,
    scalar_gap_segments,
    two_label_engine,
)
from repro.kernels.precompute import model_tables
from repro.patterns.labels import Labeling
from repro.solvers.base import (
    SolverResult,
    SolverTimeout,
    UnsupportedPatternError,
    as_union,
)

#: alpha/beta are position tuples aligned to the interned labelset lists;
#: ``None`` means no serving item has been inserted yet.
_Positions = tuple[int | None, ...]


def two_label_probability(
    model,
    labeling: Labeling,
    union_or_pattern,
    *,
    merge_gaps: bool = True,
    vectorized: bool = True,
    time_budget: float | None = None,
) -> SolverResult:
    """Exact ``Pr(G)`` for a union of two-label patterns (Algorithm 3).

    ``vectorized=True`` (the default) runs the dict-of-tuples DP while
    generations are small and hands the first large one to the
    array-compiled state-table engine of :mod:`repro.kernels.dp`, which
    runs the remaining steps; ``vectorized=False`` never hands over and
    is the scalar reference semantics (DESIGN.md Sections 7.3 and 12).
    Both produce bit-identical probabilities and identical state stats.
    """
    union = as_union(union_or_pattern)
    if not union.is_two_label():
        raise UnsupportedPatternError(
            "two-label solver requires every pattern to be a single edge"
        )
    started = time.perf_counter()

    # ------------------------------------------------------------------
    # Intern the L-side and R-side labelsets; patterns become index pairs.
    # ------------------------------------------------------------------
    left_sets: list[frozenset] = []
    right_sets: list[frozenset] = []
    left_ids: dict[frozenset, int] = {}
    right_ids: dict[frozenset, int] = {}
    pattern_pairs: list[tuple[int, int]] = []
    for pattern in union:
        (u, v) = next(iter(pattern.edges))
        if u.labels not in left_ids:
            left_ids[u.labels] = len(left_sets)
            left_sets.append(u.labels)
        if v.labels not in right_ids:
            right_ids[v.labels] = len(right_sets)
            right_sets.append(v.labels)
        pattern_pairs.append((left_ids[u.labels], right_ids[v.labels]))

    def serves(item_labels: frozenset, labelset: frozenset) -> bool:
        return labelset <= item_labels

    # Per sigma step: which L / R labelset indices the item serves.
    serves_left: list[tuple[int, ...]] = []
    serves_right: list[tuple[int, ...]] = []
    for item in model.sigma:
        item_labels = labeling.labels_of(item)
        serves_left.append(
            tuple(
                k for k, ls in enumerate(left_sets) if serves(item_labels, ls)
            )
        )
        serves_right.append(
            tuple(
                k for k, ls in enumerate(right_sets) if serves(item_labels, ls)
            )
        )

    def satisfied(alpha: _Positions, beta: _Positions) -> bool:
        for li, ri in pattern_pairs:
            a, b = alpha[li], beta[ri]
            if a is not None and b is not None and a < b:
                return True
        return False

    # ------------------------------------------------------------------
    # DP over insertions
    # ------------------------------------------------------------------
    tables = model_tables(model)
    pi = tables.pi
    initial = (
        tuple([None] * len(left_sets)),
        tuple([None] * len(right_sets)),
    )
    states: dict[tuple[_Positions, _Positions], float] = {initial: 1.0}
    peak_states = 1
    handed_over = None

    for i in range(1, model.m + 1):
        if time_budget is not None and time.perf_counter() - started > time_budget:
            raise SolverTimeout("two_label", time_budget)
        if vectorized and handoff_due(len(states), i):
            handed_over = two_label_engine(
                tables,
                model.m,
                serves_left,
                serves_right,
                len(left_sets),
                len(right_sets),
                pattern_pairs,
                *alpha_beta_table(states, len(left_sets) + len(right_sets)),
                first_step=i,
                peak=peak_states,
                merge_gaps=merge_gaps,
                time_budget=time_budget,
                started=started,
            )
            break
        row = pi[i - 1]
        sl = serves_left[i - 1]
        sr = serves_right[i - 1]
        new_states: dict[tuple[_Positions, _Positions], float] = {}

        if not sl and not sr and merge_gaps:
            # Non-serving item: alpha/beta only shift, and a violating state
            # cannot become satisfying (shifts preserve alpha >= beta), so
            # whole gaps between tracked positions collapse to one branch.
            prefix = tables.cumulative[i - 1]
            for (alpha, beta), prob in states.items():
                tracked = sorted(
                    {p for p in alpha if p is not None}
                    | {p for p in beta if p is not None}
                )
                for high, weight in scalar_gap_segments(
                    [0] + tracked + [i], prefix
                ):
                    new_alpha = tuple(
                        p + 1 if p is not None and p >= high else p
                        for p in alpha
                    )
                    new_beta = tuple(
                        p + 1 if p is not None and p >= high else p
                        for p in beta
                    )
                    key = (new_alpha, new_beta)
                    new_states[key] = new_states.get(key, 0.0) + prob * weight
        else:
            sl_set = set(sl)
            sr_set = set(sr)
            for (alpha, beta), prob in states.items():
                for j in range(1, i + 1):
                    weight = float(row[j - 1])
                    if weight <= 0.0:
                        continue
                    new_alpha = tuple(
                        min(p, j) if k in sl_set and p is not None
                        else j if k in sl_set
                        else p + 1 if p is not None and p >= j
                        else p
                        for k, p in enumerate(alpha)
                    )
                    # Note: for a served R-label with beta >= j the previous
                    # maximum-position server is itself shifted down by the
                    # insertion, so the new maximum is beta + 1 (the paper's
                    # shorthand max(beta, j) elides the shift).
                    new_beta = tuple(
                        (p + 1 if p >= j else j) if k in sr_set and p is not None
                        else j if k in sr_set
                        else p + 1 if p is not None and p >= j
                        else p
                        for k, p in enumerate(beta)
                    )
                    if satisfied(new_alpha, new_beta):
                        continue  # pruned: the state satisfies G forever
                    key = (new_alpha, new_beta)
                    new_states[key] = new_states.get(key, 0.0) + prob * weight

        states = new_states
        if len(states) > peak_states:
            peak_states = len(states)

    if handed_over is None:
        violation_mass, final_states = sum(states.values()), len(states)
    else:
        violation_mass, peak_states, final_states = handed_over
    return SolverResult(
        probability=min(1.0, max(0.0, 1.0 - violation_mass)),
        solver="two_label",
        stats={
            "peak_states": peak_states,
            "final_states": final_states,
            "seconds": time.perf_counter() - started,
        },
    )
