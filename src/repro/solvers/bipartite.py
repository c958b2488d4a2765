"""The bipartite solver — Algorithm 4 of the paper.

Handles unions of *bipartite patterns*: patterns whose nodes split into an
L side (outgoing edges only) and an R side (incoming only).  For such
patterns an embedding exists iff every edge ``(l, r)`` satisfies
``alpha(l) < beta(r)``, where ``alpha(l)`` is the minimum position of items
serving ``l`` and ``beta(r)`` the maximum position of items serving ``r``:
each L node can always be embedded at its minimum-position server and each
R node at its maximum-position one.

The solver is a dynamic program over RIM insertions tracking ``alpha`` and
``beta`` per label.  The *pruned* variant (the paper's Algorithm 4) keeps,
per state, the set of still-**uncertain** edges of still-uncertain patterns:

* an edge with ``alpha(l) < beta(r)`` is **satisfied** forever — drop it;
* an edge whose two labels have no remaining serving items and is not
  satisfied is **violated** forever — its pattern is violated, drop the
  pattern;
* a pattern with all edges satisfied makes the state **satisfying**: its
  probability joins the result and the state is dropped;
* a state whose patterns are all violated is dropped;
* only labels appearing in some uncertain edge remain tracked.

The *basic* variant (``pruned=False``) tracks every label to the end and
sums the satisfying states — the ablation baseline of DESIGN.md.
"""

from __future__ import annotations

import time

import numpy as np

from repro.kernels.dp import (
    alpha_beta_table,
    bipartite_basic_engine,
    bipartite_pruned_engine,
    handoff_due,
    scalar_gap_segments,
)
from repro.kernels.precompute import model_tables
from repro.patterns.labels import Labeling
from repro.solvers.base import (
    SolverResult,
    SolverTimeout,
    UnsupportedPatternError,
    as_union,
)

#: Marker for a violated pattern in the per-state status vector.
_VIOLATED = None


def bipartite_probability(
    model,
    labeling: Labeling,
    union_or_pattern,
    *,
    pruned: bool = True,
    merge_gaps: bool = True,
    vectorized: bool = True,
    time_budget: float | None = None,
) -> SolverResult:
    """Exact ``Pr(G)`` for a union of bipartite patterns (Algorithm 4).

    ``vectorized=True`` (the default) runs the dict-of-tuples DPs while
    generations are small and hands the first large one to the
    array-compiled state-table engines of :mod:`repro.kernels.dp`, which
    run the remaining steps; ``vectorized=False`` never hands over and is
    the scalar reference semantics (DESIGN.md Sections 7.3 and 12).  Both
    produce bit-identical probabilities and identical state stats.
    """
    union = as_union(union_or_pattern)
    if not union.is_bipartite():
        raise UnsupportedPatternError(
            "bipartite solver requires every pattern to be bipartite"
        )
    started = time.perf_counter()

    # ------------------------------------------------------------------
    # Intern labelsets by role; compile patterns to edge index lists.
    # ------------------------------------------------------------------
    left_sets: list[frozenset] = []
    right_sets: list[frozenset] = []
    left_ids: dict[frozenset, int] = {}
    right_ids: dict[frozenset, int] = {}

    def left_id(labels: frozenset) -> int:
        if labels not in left_ids:
            left_ids[labels] = len(left_sets)
            left_sets.append(labels)
        return left_ids[labels]

    def right_id(labels: frozenset) -> int:
        if labels not in right_ids:
            right_ids[labels] = len(right_sets)
            right_sets.append(labels)
        return right_ids[labels]

    pattern_edges: list[list[tuple[int, int]]] = []
    for pattern in union:
        edges = sorted(
            ((left_id(u.labels), right_id(v.labels)) for u, v in pattern.edges)
        )
        pattern_edges.append(edges)

    # Per sigma step: served L/R labelset ids; per labelset: last serving step.
    serves_left: list[tuple[int, ...]] = []
    serves_right: list[tuple[int, ...]] = []
    last_left = [0] * len(left_sets)
    last_right = [0] * len(right_sets)
    for step, item in enumerate(model.sigma, start=1):
        item_labels = labeling.labels_of(item)
        sl = tuple(
            k for k, ls in enumerate(left_sets) if ls <= item_labels
        )
        sr = tuple(
            k for k, ls in enumerate(right_sets) if ls <= item_labels
        )
        serves_left.append(sl)
        serves_right.append(sr)
        for k in sl:
            last_left[k] = step
        for k in sr:
            last_right[k] = step

    if pruned:
        return _pruned_dp(
            model, union, pattern_edges, serves_left, serves_right,
            last_left, last_right, len(left_sets), len(right_sets),
            merge_gaps, vectorized, time_budget, started,
        )
    return _basic_dp(
        model, union, pattern_edges, serves_left, serves_right,
        len(left_sets), len(right_sets), merge_gaps, vectorized,
        time_budget, started,
    )


# ----------------------------------------------------------------------
# Basic variant: full tracking, evaluation at the end.
# ----------------------------------------------------------------------


def _basic_dp(
    model, union, pattern_edges, serves_left, serves_right,
    n_left, n_right, merge_gaps, vectorized, time_budget, started,
) -> SolverResult:
    tables = model_tables(model)
    pi = tables.pi
    initial = (tuple([None] * n_left), tuple([None] * n_right))
    states: dict[tuple, float] = {initial: 1.0}
    peak_states = 1
    handed_over = None

    for i in range(1, model.m + 1):
        if time_budget is not None and time.perf_counter() - started > time_budget:
            raise SolverTimeout("bipartite[basic]", time_budget)
        if vectorized and handoff_due(len(states), i):
            handed_over = bipartite_basic_engine(
                tables,
                model.m,
                serves_left,
                serves_right,
                n_left,
                n_right,
                pattern_edges,
                *alpha_beta_table(states, n_left + n_right),
                first_step=i,
                peak=peak_states,
                merge_gaps=merge_gaps,
                time_budget=time_budget,
                started=started,
            )
            break
        row = pi[i - 1]
        sl = set(serves_left[i - 1])
        sr = set(serves_right[i - 1])
        new_states: dict[tuple, float] = {}

        if not sl and not sr and merge_gaps:
            prefix = tables.cumulative[i - 1]
            for (alpha, beta), prob in states.items():
                tracked = sorted(
                    {p for p in alpha if p is not None}
                    | {p for p in beta if p is not None}
                )
                for high, weight in scalar_gap_segments(
                    [0] + tracked + [i], prefix
                ):
                    key = (
                        tuple(
                            p + 1 if p is not None and p >= high else p
                            for p in alpha
                        ),
                        tuple(
                            p + 1 if p is not None and p >= high else p
                            for p in beta
                        ),
                    )
                    new_states[key] = new_states.get(key, 0.0) + prob * weight
        else:
            for (alpha, beta), prob in states.items():
                for j in range(1, i + 1):
                    weight = float(row[j - 1])
                    if weight <= 0.0:
                        continue
                    key = (
                        _update(alpha, sl, j, minimum=True),
                        _update(beta, sr, j, minimum=False),
                    )
                    new_states[key] = new_states.get(key, 0.0) + prob * weight

        states = new_states
        peak_states = max(peak_states, len(states))

    if handed_over is None:
        total = 0.0
        for (alpha, beta), prob in states.items():
            for edges in pattern_edges:
                if all(
                    alpha[l] is not None
                    and beta[r] is not None
                    and alpha[l] < beta[r]
                    for l, r in edges
                ):
                    total += prob
                    break
        final_states = len(states)
    else:
        total, peak_states, final_states = handed_over
    return SolverResult(
        probability=min(1.0, max(0.0, total)),
        solver="bipartite[basic]",
        stats={
            "peak_states": peak_states,
            "final_states": final_states,
            "seconds": time.perf_counter() - started,
        },
    )


def _update(values: tuple, serving: set, j: int, *, minimum: bool) -> tuple:
    """Apply the Min/Max position update rules of Algorithms 3-4.

    For a served R-label whose current maximum position is at or below the
    insertion point, the previous maximum-position server is shifted down by
    the insertion, so the new maximum is ``beta + 1`` (not ``max(beta, j)``).
    The Min side needs no such care: ``min(alpha + 1, j) == j == min(alpha, j)``
    whenever ``alpha >= j``.
    """
    updated = []
    for k, p in enumerate(values):
        if k in serving:
            if p is None:
                updated.append(j)
            elif minimum:
                updated.append(min(p, j))
            else:
                updated.append(p + 1 if p >= j else j)
        elif p is not None and p >= j:
            updated.append(p + 1)
        else:
            updated.append(p)
    return tuple(updated)


# ----------------------------------------------------------------------
# Pruned variant: Algorithm 4 proper.
# ----------------------------------------------------------------------


def _pruned_dp(
    model, union, pattern_edges, serves_left, serves_right,
    last_left, last_right, n_left, n_right,
    merge_gaps, vectorized, time_budget, started,
) -> SolverResult:
    tables = model_tables(model)
    pi = tables.pi
    m = model.m

    # Pre-resolve edges that can never be satisfied: an endpoint with no
    # serving items keeps alpha/beta undefined forever.
    initial_status: list = []
    for edges in pattern_edges:
        if any(last_left[l] == 0 or last_right[r] == 0 for l, r in edges):
            initial_status.append(_VIOLATED)
        else:
            initial_status.append(frozenset(range(len(edges))))
    if all(status is _VIOLATED for status in initial_status):
        return SolverResult(
            0.0, solver="bipartite", stats={"unsatisfiable": True}
        )

    def tracked_labels(status: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
        ls: set[int] = set()
        rs: set[int] = set()
        for p_index, unc in enumerate(status):
            if unc is _VIOLATED:
                continue
            for e in unc:
                left, r = pattern_edges[p_index][e]
                ls.add(left)
                rs.add(r)
        return tuple(sorted(ls)), tuple(sorted(rs))

    init_status = tuple(initial_status)
    init_l, init_r = tracked_labels(init_status)
    initial_key = (
        init_status,
        tuple([None] * len(init_l)),
        tuple([None] * len(init_r)),
    )
    # Per-state tracked-label id lists are implied by the status; cache them.
    tracked_cache: dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]] = {
        init_status: (init_l, init_r)
    }

    states: dict[tuple, float] = {initial_key: 1.0}
    absorbed = 0.0
    peak_states = 1
    handed_over = None

    for i in range(1, m + 1):
        if not states:
            break
        if time_budget is not None and time.perf_counter() - started > time_budget:
            raise SolverTimeout("bipartite", time_budget)
        if vectorized and handoff_due(len(states), i):
            handed_over = bipartite_pruned_engine(
                tables,
                m,
                serves_left,
                serves_right,
                n_left,
                n_right,
                pattern_edges,
                last_left,
                last_right,
                *_status_table(states, tracked_cache, n_left, n_right),
                first_step=i,
                peak=peak_states,
                absorbed=absorbed,
                merge_gaps=merge_gaps,
                time_budget=time_budget,
                started=started,
            )
            break
        row = pi[i - 1]
        sl_all = set(serves_left[i - 1])
        sr_all = set(serves_right[i - 1])
        new_states: dict[tuple, float] = {}

        if not sl_all and not sr_all and merge_gaps:
            # Non-serving step: positions shift; edge statuses cannot change
            # (shifts preserve both satisfaction and violation, and closures
            # only happen on serving steps).
            prefix = tables.cumulative[i - 1]
            for (status, alpha, beta), prob in states.items():
                tracked = sorted(
                    {p for p in alpha if p is not None}
                    | {p for p in beta if p is not None}
                )
                for high, weight in scalar_gap_segments(
                    [0] + tracked + [i], prefix
                ):
                    key = (
                        status,
                        tuple(
                            p + 1 if p is not None and p >= high else p
                            for p in alpha
                        ),
                        tuple(
                            p + 1 if p is not None and p >= high else p
                            for p in beta
                        ),
                    )
                    new_states[key] = new_states.get(key, 0.0) + prob * weight
        else:
            for (status, alpha, beta), prob in states.items():
                l_ids, r_ids = tracked_cache[status]
                l_pos = dict(zip(l_ids, alpha))
                r_pos = dict(zip(r_ids, beta))
                for j in range(1, i + 1):
                    weight = float(row[j - 1])
                    if weight <= 0.0:
                        continue
                    mass = prob * weight
                    new_l = {
                        l: _update_one(p, l in sl_all, j, minimum=True)
                        for l, p in l_pos.items()
                    }
                    new_r = {
                        r: _update_one(p, r in sr_all, j, minimum=False)
                        for r, p in r_pos.items()
                    }
                    outcome = _advance_status(
                        status, pattern_edges, new_l, new_r,
                        last_left, last_right, i,
                    )
                    if outcome == "satisfied":
                        absorbed += mass
                        continue
                    if outcome == "dead":
                        continue
                    new_status = outcome
                    if new_status not in tracked_cache:
                        tracked_cache[new_status] = tracked_labels(new_status)
                    keep_l, keep_r = tracked_cache[new_status]
                    key = (
                        new_status,
                        tuple(new_l[l] for l in keep_l),
                        tuple(new_r[r] for r in keep_r),
                    )
                    new_states[key] = new_states.get(key, 0.0) + mass

        states = new_states
        peak_states = max(peak_states, len(states))

    # Any surviving state has every pattern violated or unresolvable; it
    # contributes nothing.  (With complete closure bookkeeping none survive.)
    if handed_over is None:
        leftover = len(states)
    else:
        absorbed, peak_states, leftover = handed_over
    return SolverResult(
        probability=min(1.0, max(0.0, absorbed)),
        solver="bipartite",
        stats={
            "peak_states": peak_states,
            "leftover_states": leftover,
            "seconds": time.perf_counter() - started,
        },
    )


def _status_table(states: dict, tracked_cache: dict, n_left: int, n_right: int):
    """The pruned engine's generation of a scalar ``{(status, alpha, beta): prob}``.

    Each distinct status is numbered by first occurrence; a row holds the
    status's tracked positions in their label columns (``None`` as
    ``-1``) and ``-2`` in every column the status does not track.  Rows
    keep dict insertion order.  Returns ``(rows, sids, statuses, probs)``.
    """
    status_ids: dict[tuple, int] = {}
    sids = []
    rows = []
    for status, alpha, beta in states:
        sids.append(status_ids.setdefault(status, len(status_ids)))
        row = [-2] * (n_left + n_right)
        keep_l, keep_r = tracked_cache[status]
        for l, p in zip(keep_l, alpha):
            row[l] = -1 if p is None else p
        for r, p in zip(keep_r, beta):
            row[n_left + r] = -1 if p is None else p
        rows.append(row)
    return (
        np.array(rows, np.int64).reshape(len(states), n_left + n_right),
        np.array(sids, np.int64),
        list(status_ids),
        np.fromiter(states.values(), np.float64, len(states)),
    )


def _update_one(p: int | None, served: bool, j: int, *, minimum: bool):
    """Single-label Min/Max update; see :func:`_update` for the R-side shift."""
    if served:
        if p is None:
            return j
        if minimum:
            return min(p, j)
        return p + 1 if p >= j else j
    if p is not None and p >= j:
        return p + 1
    return p


def _advance_status(
    status: tuple,
    pattern_edges: list[list[tuple[int, int]]],
    new_l: dict[int, int | None],
    new_r: dict[int, int | None],
    last_left: list[int],
    last_right: list[int],
    step: int,
):
    """Re-evaluate uncertain edges after an insertion.

    Returns ``"satisfied"`` when some pattern has all edges satisfied,
    ``"dead"`` when every pattern is violated, and otherwise the new status
    tuple (per pattern: ``_VIOLATED`` or the frozenset of uncertain edges).
    """
    new_status: list = []
    any_live = False
    for p_index, unc in enumerate(status):
        if unc is _VIOLATED:
            new_status.append(_VIOLATED)
            continue
        edges = pattern_edges[p_index]
        still_uncertain: list[int] = []
        violated = False
        for e in unc:
            left, r = edges[e]
            a = new_l[left]
            b = new_r[r]
            if a is not None and b is not None and a < b:
                continue  # edge satisfied forever
            if last_left[left] <= step and last_right[r] <= step:
                violated = True  # both labels closed, never satisfied
                break
            still_uncertain.append(e)
        if violated:
            new_status.append(_VIOLATED)
            continue
        if not still_uncertain:
            return "satisfied"
        any_live = True
        new_status.append(frozenset(still_uncertain))
    if not any_live:
        return "dead"
    return tuple(new_status)
