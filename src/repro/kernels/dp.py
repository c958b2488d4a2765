"""Array-compiled DP solver cores (DESIGN.md Section 12).

Every exact solve bottoms out in one of three insertion DPs — the
two-label solver (Algorithm 3), the bipartite solver (Algorithm 4), and
the lifted relevant-item DP — whose scalar implementations expand states
one dict entry and one tuple rebuild at a time.  This module runs the
same DPs as whole-generation array passes:

* a **generation** of states is a ``(n_states, n_tracked)`` int64
  position table (sentinel ``-1`` for "no serving item inserted yet",
  ``-2`` for "label no longer tracked by this state's status") plus a
  float64 probability vector aligned row-for-row;
* one **insertion step** broadcasts the insertion-point axis ``j = 1..i``
  against the generation, applies the min/max/shift update rules as
  masked arithmetic, evaluates the satisfaction / violation predicates
  vectorized, and **deduplicates** the merged candidates with a stable
  sort plus one ``np.bincount`` fold over the equal-key groups;
* a **gap-merge step** (non-serving item) derives each state's boundary
  segments from a row-wise sort of its tracked positions and gathers the
  per-segment insertion mass from the memoized prefix-sum tables
  (:func:`repro.kernels.precompute.model_tables`) — a prefix-sum gather
  instead of a per-state Python loop.

Dedup runs on **packed keys** whenever the state fits: each row is
Horner-encoded into one int64 (per-column bases, sentinel shifted by
+2), *before* the validity mask is applied — a one-column boolean gather
moves an order of magnitude less data than gathering full candidate
rows, and a stable integer argsort (radix) then groups equal states in
one pass.  Wide states (packed span over 2^62) fall back to row keys
with a stable ``lexsort`` (:func:`merge_states`).

Bit-identity contract: the engines reproduce the scalar reference paths
(``vectorized=False`` on the solvers) **bitwise**, not just to a
tolerance.  Floating-point addition is not associative, so this requires
replicating the scalar accumulation order exactly:

* candidates are enumerated state-major with ascending insertion point
  (resp. ascending gap boundary) — the scalar loop order;
* dedup keeps merged states in **first-occurrence order** (the scalar
  dict's insertion order) and folds each merged state's masses left to
  right in candidate order (the scalar ``d[k] = d.get(k, 0.0) + mass``
  order) with ``np.bincount``, which adds its weights one at a time in
  index order — NumPy's pairwise ``sum``/``reduceat`` round differently
  and are never used on probability masses;
* absorbed mass and final totals fold sequentially in state order
  (:func:`sequential_sum`).

Time budgets are honored *inside* a generation: candidate construction
is chunked (``_chunk_rows``) and the budget is checked between chunks,
so one huge generation cannot overshoot ``time_budget`` by more than
roughly one chunk plus one merge (the scalar paths only check once per
outer insertion step).

Size-adaptive handoff: on a generation of a few dozen states, one array
pass costs more in per-call NumPy overhead than the scalar dict loop
spends on the whole step.  So every exact DP starts on its scalar loop
and, at the top of each step, asks :func:`handoff_due` whether that
step's candidate count (states x insertion points) has passed
``_HANDOFF_CANDIDATES``.  Once it has, the solver converts its current
generation, in dict order, into the engine's state table and the engine
runs the remaining steps.  Every engine therefore starts from a handed-
over generation (rows, probabilities, first step, peak so far, and any
carried absorbed mass or expansion count); the step-1 start is just the
initial generation handed over at once.  Because the bit-identity
contract holds at *every* generation — the engine's first-occurrence
order is the dict's insertion order — a handoff at any step is exact.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "scalar_gap_segments",
    "sequential_sum",
    "merge_states",
    "handoff_due",
    "alpha_beta_table",
    "two_label_engine",
    "bipartite_basic_engine",
    "bipartite_pruned_engine",
    "lifted_engine",
]

#: Candidate cells (state-rows x insertion-points x tracked-columns) per
#: chunk: bounds peak memory (~8 MB per int64 temporary) and the
#: between-budget-checks work unit to a few milliseconds.
_CHUNK_TARGET = 1 << 20

#: Largest packed-key span that still fits an int64 with headroom.
_PACK_LIMIT = 1 << 62

#: Max total bits for a lifted signature-sequence gcode; beyond this the
#: engine falls back to per-slot id columns (tests pin it to 0 to cover
#: the fallback on small instances).
_GCODE_LIMIT = 62

#: Candidate count (states x insertion points) of a step above which an
#: exact DP hands its generation from the scalar loop to the array engine
#: (DESIGN.md Section 12).  Set from the constant sweep of
#: ``benchmarks/bench_dp_kernels.py`` (``BENCH_dp.json``); tests pin it
#: to 0 to run the engine from step 1.
_HANDOFF_CANDIDATES = 64


# ----------------------------------------------------------------------
# Shared scalar helper (the one implementation of gap-boundary semantics)
# ----------------------------------------------------------------------


def scalar_gap_segments(
    boundaries: Sequence[int], prefix
) -> Iterator[tuple[int, float]]:
    """Yield ``(high, weight)`` per gap segment of a non-serving step.

    ``boundaries`` is ``[0] + tracked_positions + [i]`` with the tracked
    positions sorted ascending (duplicates allowed — they produce empty
    segments and are skipped); ``prefix`` is the step's insertion-row
    prefix sums (``tables.cumulative[i - 1]``).  Segment ``(low, high]``
    carries weight ``prefix[high] - prefix[low - 1]``; zero-weight
    segments are skipped, matching the scalar DP loops.  Inserting the
    non-serving item anywhere in a segment shifts exactly the tracked
    positions ``>= high``, so the caller applies ``p + 1 if p >= high``
    per yielded boundary.

    This is the single scalar implementation of the boundary semantics,
    shared by the reference paths of all three solvers and mirrored by
    the vectorized gap kernel (:func:`_gap_candidates`).
    """
    for k in range(len(boundaries) - 1):
        low, high = boundaries[k] + 1, boundaries[k + 1]
        if low > high:
            continue
        weight = float(prefix[high] - prefix[low - 1])
        if weight <= 0.0:
            continue
        yield high, weight


# ----------------------------------------------------------------------
# Scalar-to-engine handoff
# ----------------------------------------------------------------------


def handoff_due(n_states: int, step: int) -> bool:
    """Should the generation entering ``step`` move to the array engine?

    Only the ``vectorized=True`` paths ask; the scalar reference never
    hands over.
    """
    return n_states * step > _HANDOFF_CANDIDATES


def alpha_beta_table(states: dict, width: int):
    """The engine generation of a scalar ``{(alpha, beta): prob}`` dict.

    The two-label and basic bipartite layout: each row is ``alpha`` then
    ``beta`` with ``None`` as ``-1``.  Rows keep dict insertion order,
    which is the engines' first-occurrence order, so the handoff is exact.
    Returns ``(rows, probs)``.
    """
    rows = np.array(
        [[-1 if p is None else p for p in alpha + beta] for alpha, beta in states],
        np.int64,
    ).reshape(len(states), width)
    return rows, np.fromiter(states.values(), np.float64, len(states))


# ----------------------------------------------------------------------
# Order-preserving reductions
# ----------------------------------------------------------------------


def sequential_sum(values, start: float = 0.0) -> float:
    """Left-to-right fold of ``values`` starting from ``start``.

    CPython's ``sum`` folds sequentially (with a C fast path for
    floats), reproducing the scalar reference's accumulation order;
    NumPy's pairwise summation would round differently.
    """
    return float(sum(values, start))


def _group_and_fold(order, keys_sorted_equal, masses):
    """Shared tail of dedup: group equal sorted keys, fold, reorder.

    ``order`` is a stable sort permutation of the candidates;
    ``keys_sorted_equal`` is a boolean array over positions ``1..n-1``
    that is True where the sorted key differs from its predecessor.
    Returns ``(starts, probs_in_first_occurrence_order, emit)`` where
    ``order[starts][emit]`` enumerates each group's first occurrence in
    original candidate (dict-insertion) order.

    The fold is one ``np.bincount`` over each candidate's group number:
    it adds the weights to their bins one at a time in index order, that
    is, left to right in candidate order from 0.0 — exactly the scalar
    ``d[k] = d.get(k, 0.0) + mass`` chain.
    """
    n = order.size
    is_start = np.empty(n, bool)
    is_start[0] = True
    is_start[1:] = keys_sorted_equal
    starts = np.flatnonzero(is_start)
    group = np.empty(n, np.int64)
    group[order] = np.cumsum(is_start) - 1
    sums = np.bincount(group, weights=masses)
    # order is ascending within each group, so order[starts] is each
    # group's first occurrence; emit groups in that order.
    emit = np.argsort(order[starts], kind="stable")
    return starts, sums[emit], emit


def merge_states(keys: np.ndarray, masses: np.ndarray):
    """Deduplicate candidate rows, summing masses per unique row.

    ``keys`` is ``(n_candidates, width)`` int64 in scalar scan order;
    ``masses`` the aligned probability masses.  Returns
    ``(unique_keys, probs)`` with the unique rows in **first-occurrence
    order** and each row's masses folded left to right in candidate
    order — exactly the scalar ``dict`` insertion and accumulation
    order, so downstream sums are bit-identical to the reference.  This
    is the row-mode dedup used when states are too wide to pack; the
    engines prefer the packed path of :class:`_Merger`.
    """
    n_candidates, width = keys.shape
    if n_candidates == 0:
        return keys, masses
    if width == 0:
        # All candidates share the single empty key.
        return keys[:1], np.array([sequential_sum(masses.tolist())])
    # Stable lexsort groups equal rows while keeping each group's
    # candidates in ascending original order (last key is primary).
    order = np.lexsort(tuple(keys[:, c] for c in range(width - 1, -1, -1)))
    sorted_keys = keys[order]
    changed = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    starts, probs, emit = _group_and_fold(order, changed, masses)
    return sorted_keys[starts][emit], probs


class _Merger:
    """Accumulates one generation's filtered candidates, then dedups.

    ``col_bounds`` gives, per key column, an exclusive upper bound on
    ``value + 2`` (the sentinel shift).  Columns are greedily grouped
    into **words** — contiguous runs whose bounds' product fits an
    int64 — and each candidate row is Horner-packed into its words
    *before* the validity mask is applied: masking then moves one or
    two packed columns instead of ``width``, and dedup is one stable
    integer argsort (single word) or a short stable ``lexsort`` (one
    key per word).  An optional side-channel id column (the bipartite
    pruned status id, whose bound is not known up front) is carried
    separately and folded into the leading word at merge time when it
    fits.
    """

    def __init__(self, col_bounds: Sequence[int], with_sid: bool = False):
        self.bounds = [int(b) for b in col_bounds]
        self.width = len(self.bounds)
        # Bounds round up to powers of two: packing is shift-or and
        # unpacking shift-mask, both far cheaper than integer divmod.
        self.shifts = [(b - 1).bit_length() for b in self.bounds]
        self.masks = [(1 << s) - 1 for s in self.shifts]
        self.words: list[list[int]] = []  # column indices per word
        self.spans: list[int] = []  # 1 << total bits per word
        bits = 0
        for c, s in enumerate(self.shifts):
            if self.words and (1 << (bits + s)) <= _PACK_LIMIT:
                self.words[-1].append(c)
                bits += s
            else:
                self.words.append([c])
                bits = s
                self.spans.append(0)  # patched below
            self.spans[-1] = 1 << bits
        self.with_sid = with_sid
        self.key_parts: list[list[np.ndarray]] = []
        self.sid_parts: list[np.ndarray] = []
        self.mass_parts: list[np.ndarray] = []

    def add(self, cand, mask, masses, sids=None) -> None:
        """Append the ``mask``-selected candidates of one chunk.

        ``cand`` has shape ``(..., width)``; ``mask`` and ``masses``
        (and ``sids``, when the merger carries status ids) match its
        leading dimensions.  Candidate order — row-major over the
        leading dimensions — is the scalar scan order and is preserved.
        """
        packed_words = []
        for cols in self.words:
            packed = (cand[..., cols[0]] + 2).astype(np.int64, copy=False)
            for c in cols[1:]:
                packed <<= self.shifts[c]
                packed |= cand[..., c] + 2
            packed_words.append(packed[mask])
        self.key_parts.append(packed_words)
        if self.with_sid:
            self.sid_parts.append(sids[mask])
        self.mass_parts.append(masses[mask])

    def _unpack(self, packed_words: list[np.ndarray], n: int) -> np.ndarray:
        # Consumes (shifts in place) the freshly-gathered word arrays.
        rows = np.empty((n, self.width), np.int64)
        for cols, rem in zip(self.words, packed_words):
            for c in reversed(cols[1:]):
                rows[:, c] = (rem & self.masks[c]) - 2
                rem >>= self.shifts[c]
            rows[:, cols[0]] = rem - 2
        return rows

    def merge(self):
        """Dedup everything added so far: ``(sids, rows, probs)``.

        ``sids`` is None unless the merger carries status ids.  Rows
        come back in first-occurrence (scalar dict-insertion) order with
        probabilities folded in candidate order — see
        :func:`merge_states` for the bit-identity rationale.
        """
        if not self.mass_parts:
            masses = np.zeros(0)
        else:
            masses = np.concatenate(self.mass_parts)
        empty_sid = np.zeros(0, np.int64) if self.with_sid else None
        if masses.size == 0:
            return empty_sid, np.zeros((0, self.width), np.int64), masses
        if self.width == 0 and not self.with_sid:
            # All candidates share the single empty key.
            probs = np.array([sequential_sum(masses.tolist())])
            return empty_sid, np.zeros((1, 0), np.int64), probs

        words = [
            np.concatenate([chunk[w] for chunk in self.key_parts])
            for w in range(len(self.words))
        ]
        sids = np.concatenate(self.sid_parts) if self.with_sid else None
        sort_keys = list(words)
        if sids is not None:
            max_sid = int(sids.max())
            if words and (max_sid + 1) * self.spans[0] <= _PACK_LIMIT:
                sort_keys[0] = sids * self.spans[0] + words[0]
            else:
                sort_keys.append(sids)  # extra grouping key
        if len(sort_keys) == 1:
            order = np.argsort(sort_keys[0], kind="stable")
        else:
            # Stable; any consistent total order groups equal states.
            order = np.lexsort(tuple(sort_keys))
        n = masses.size
        changed = np.zeros(n - 1, bool)
        for key in sort_keys:
            k_sorted = key[order]
            changed |= k_sorted[1:] != k_sorted[:-1]
        starts, probs, emit = _group_and_fold(order, changed, masses)
        # First occurrence of each group, emitted in dict-insertion
        # order; gather the original packed words (and sids) there.
        sel = order[starts][emit]
        rows = self._unpack([w[sel] for w in words], sel.size)
        out_sids = sids[sel] if sids is not None else None
        return out_sids, rows, probs


# ----------------------------------------------------------------------
# Step kernels
# ----------------------------------------------------------------------


def _check_budget(solver: str, time_budget, started: float) -> None:
    if time_budget is not None and time.perf_counter() - started > time_budget:
        from repro.solvers.base import SolverTimeout

        raise SolverTimeout(solver, time_budget)


def _chunk_rows(n_slots: int, width: int) -> int:
    """State rows per chunk so one chunk stays ~``_CHUNK_TARGET`` cells."""
    cells = max(1, n_slots * max(1, width))
    return max(1, _CHUNK_TARGET // cells)


def _gap_candidates(X: np.ndarray, i: int, prefix):
    """All gap-merge candidates of a non-serving step, vectorized.

    ``X`` is a ``(S, T)`` position table (sentinels ``< 1`` are not
    boundaries).  Slot ``u < T`` is the segment whose upper boundary is
    the ``u``-th smallest tracked position; slot ``T`` is the final
    segment up to ``i``.  Returns ``(new_X, weight, valid)`` with shapes
    ``(S, T + 1, T)``, ``(S, T + 1)``, ``(S, T + 1)``: duplicate-position
    and zero-weight slots are invalid, matching
    :func:`scalar_gap_segments`; ascending slot order is ascending
    boundary order — the scalar scan order.
    """
    n_states, width = X.shape
    tracked = np.where(X > 0, X, 0)
    sorted_pos = np.sort(tracked, axis=1)  # zeros (sentinels) sort first
    zero_col = np.zeros((n_states, 1), np.int64)
    final_col = np.full((n_states, 1), i, np.int64)
    prev = np.concatenate([zero_col, sorted_pos], axis=1)
    highs = np.concatenate([sorted_pos, final_col], axis=1)
    valid = highs > prev  # strictly-increasing boundaries = real segments
    weight = prefix[highs] - prefix[prev]
    valid &= weight > 0.0
    new_X = X[:, None, :] + (X[:, None, :] >= highs[:, :, None])
    return new_X, weight, valid


def _insertion_updates(X, js, min_cols, max_cols):
    """Apply the Min/Max/shift update rules over the insertion-point axis.

    ``X`` is ``(S, T)``; ``js`` the 1-based insertion points ``1..i``.
    ``min_cols`` / ``max_cols`` index the columns served by the inserted
    item on the Min (alpha) / Max (beta) side.  Untracked columns
    (``-2``) never change; unset columns (``-1``) become ``j`` when
    served; a served Max column at position ``>= j`` becomes ``p + 1``
    (the previous maximum-position server is itself shifted down by the
    insertion).  Returns the ``(S, len(js), T)`` candidate table.
    """
    Xb = X[:, None, :]
    J = js[None, :, None]
    # Generic shift: tracked positions at or past the insertion point
    # move down by one; sentinels (< 1 <= j) are unchanged.
    cand = Xb + (Xb >= J)
    if min_cols.size:
        P = X[:, None, min_cols]
        served = np.where(P == -1, J, np.minimum(P, J))
        cand[:, :, min_cols] = np.where(P == -2, P, served)
    if max_cols.size:
        P = X[:, None, max_cols]
        served = np.where(P == -1, J, np.where(P >= J, P + 1, J))
        cand[:, :, max_cols] = np.where(P == -2, P, served)
    return cand


# ----------------------------------------------------------------------
# Alpha/beta engines: two-label (Algorithm 3) and basic bipartite
# ----------------------------------------------------------------------


def _alpha_beta_generations(
    solver: str,
    tables,
    m: int,
    serves_left: Sequence[tuple[int, ...]],
    serves_right: Sequence[tuple[int, ...]],
    n_left: int,
    n_right: int,
    X: np.ndarray,
    probs: np.ndarray,
    drop_pairs: "Sequence[tuple[int, int]] | None",
    *,
    first_step: int,
    peak: int,
    merge_gaps: bool,
    time_budget,
    started: float,
):
    """Steps ``first_step..m`` of the alpha/beta DP from the generation
    ``(X, probs)`` (:func:`alpha_beta_table`): ``(X, probs, peak)``.

    With ``drop_pairs`` an inserted candidate satisfying any
    ``(left, right)`` pair is dropped, as Algorithm 3 drops the states
    that satisfy the union; without, every state is tracked to the end.
    """
    width = n_left + n_right
    if drop_pairs is not None:
        left_cols = np.array([li for li, _ in drop_pairs], np.int64)
        right_cols = np.array([n_left + ri for _, ri in drop_pairs], np.int64)
    col_bounds = [m + 3] * width

    for i in range(first_step, m + 1):
        _check_budget(solver, time_budget, started)
        n_states = X.shape[0]
        sl = serves_left[i - 1]
        sr = serves_right[i - 1]
        merger = _Merger(col_bounds)

        if not sl and not sr and merge_gaps:
            prefix = tables.cumulative[i - 1]
            step = _chunk_rows(width + 1, width)
            for lo in range(0, n_states, step):
                _check_budget(solver, time_budget, started)
                new_X, weight, valid = _gap_candidates(X[lo : lo + step], i, prefix)
                mass = probs[lo : lo + step, None] * weight
                merger.add(new_X, valid, mass)
        else:
            js = np.arange(1, i + 1, dtype=np.int64)
            row = tables.pi[i - 1][:i]
            weight_mask = row > 0.0
            min_cols = np.asarray(sl, np.int64)
            max_cols = np.array([n_left + k for k in sr], np.int64)
            step = _chunk_rows(i, width)
            for lo in range(0, n_states, step):
                _check_budget(solver, time_budget, started)
                cand = _insertion_updates(X[lo : lo + step], js, min_cols, max_cols)
                if drop_pairs is None:
                    keep = np.broadcast_to(weight_mask[None, :], cand.shape[:2])
                else:
                    a = cand[:, :, left_cols]
                    b = cand[:, :, right_cols]
                    satisfied = ((a != -1) & (b != -1) & (a < b)).any(axis=2)
                    keep = weight_mask[None, :] & ~satisfied
                mass = probs[lo : lo + step, None] * row[None, :]
                merger.add(cand, keep, mass)

        _, X, probs = merger.merge()
        peak = max(peak, X.shape[0])
    return X, probs, peak


def two_label_engine(
    tables,
    m: int,
    serves_left: Sequence[tuple[int, ...]],
    serves_right: Sequence[tuple[int, ...]],
    n_left: int,
    n_right: int,
    pattern_pairs: Sequence[tuple[int, int]],
    X: np.ndarray,
    probs: np.ndarray,
    **steps,
):
    """Vectorized Algorithm 3: returns ``(violation_mass, peak, final)``.

    Runs steps ``first_step..m`` (``steps``: the keywords of
    :func:`_alpha_beta_generations`) with ``peak`` states seen so far.
    """
    X, probs, peak = _alpha_beta_generations(
        "two_label", tables, m, serves_left, serves_right, n_left, n_right,
        X, probs, pattern_pairs, **steps,
    )
    return sequential_sum(probs.tolist()), peak, X.shape[0]


def bipartite_basic_engine(
    tables,
    m: int,
    serves_left,
    serves_right,
    n_left: int,
    n_right: int,
    pattern_edges: Sequence[Sequence[tuple[int, int]]],
    X: np.ndarray,
    probs: np.ndarray,
    **steps,
):
    """Vectorized basic Algorithm 4: returns ``(total, peak, final)``.

    Tracks every label to step ``m`` (``steps``: the keywords of
    :func:`_alpha_beta_generations`), then sums the states that satisfy
    every edge of some pattern.
    """
    X, probs, peak = _alpha_beta_generations(
        "bipartite[basic]", tables, m, serves_left, serves_right, n_left,
        n_right, X, probs, None, **steps,
    )
    satisfying = np.zeros(X.shape[0], bool)
    for edges in pattern_edges:
        l_cols = np.array([l for l, _ in edges], np.int64)
        r_cols = np.array([n_left + r for _, r in edges], np.int64)
        a = X[:, l_cols]
        b = X[:, r_cols]
        satisfying |= ((a != -1) & (b != -1) & (a < b)).all(axis=1)
    total = sequential_sum(probs[satisfying].tolist())
    return total, peak, X.shape[0]


# ----------------------------------------------------------------------
# Bipartite pruned engine (Algorithm 4 proper)
# ----------------------------------------------------------------------


def bipartite_pruned_engine(
    tables,
    m: int,
    serves_left,
    serves_right,
    n_left: int,
    n_right: int,
    pattern_edges: Sequence[Sequence[tuple[int, int]]],
    last_left: Sequence[int],
    last_right: Sequence[int],
    X: np.ndarray,
    sids: np.ndarray,
    start_statuses: Sequence[tuple],
    probs: np.ndarray,
    *,
    first_step: int,
    peak: int,
    absorbed: float,
    merge_gaps: bool,
    time_budget,
    started: float,
):
    """Vectorized pruned Algorithm 4: returns ``(absorbed, peak, leftover)``.

    States carry an interned *status* id (per pattern: ``None`` =
    violated, else the frozenset of still-uncertain edges) alongside the
    position table; columns whose label is untracked by the status hold
    the ``-2`` sentinel, so ``(status_id, row)`` is bijective with the
    scalar ``(status, tracked_alpha, tracked_beta)`` key.

    Runs steps ``first_step..m`` from the generation ``(X, sids,
    probs)``, where ``sids`` index the distinct ``start_statuses``, with
    ``peak`` states seen and ``absorbed`` mass carried so far.
    """
    width = n_left + n_right
    # Every distinct (left, right) column pair a pattern edge compares.
    pair_ids: dict[tuple[int, int], int] = {}
    for edges in pattern_edges:
        for left, r in edges:
            pair_ids.setdefault((left, n_left + r), len(pair_ids))
    pair_left = np.array([left for left, _ in pair_ids], np.int64)
    pair_right = np.array([right for _, right in pair_ids], np.int64)
    statuses: list[tuple] = []
    status_ids: dict[tuple, int] = {}
    edge_lists: list[list[tuple[int, int, int, int]]] = []
    # Row ``sid`` (capacity doubles as statuses are interned): the bit
    # each pair's satisfaction sets in the status's satisfaction code
    # (bit k: its k-th uncertain edge), and the columns it leaves
    # untracked (canonically -2).
    code_weights = np.zeros((8, len(pair_ids)), np.int64)
    untracked = np.ones((8, width), bool)

    def intern_status(status: tuple) -> int:
        nonlocal code_weights, untracked
        sid = status_ids.get(status)
        if sid is not None:
            return sid
        sid = len(statuses)
        status_ids[status] = sid
        statuses.append(status)
        if sid == code_weights.shape[0]:
            code_weights = np.concatenate(
                [code_weights, np.zeros_like(code_weights)]
            )
            untracked = np.concatenate([untracked, np.ones_like(untracked)])
        edge_list: list[tuple[int, int, int, int]] = []
        for p_index, uncertain in enumerate(status):
            if uncertain is None:
                continue
            for e in sorted(uncertain):
                left, r = pattern_edges[p_index][e]
                code_weights[sid, pair_ids[left, n_left + r]] |= (
                    1 << len(edge_list)
                )
                untracked[sid, [left, n_left + r]] = False
                edge_list.append((p_index, e, left, r))
        edge_lists.append(edge_list)
        return sid

    def advance_status(sid: int, sat_row: tuple, step: int):
        """Scalar ``_advance_status`` on one unique satisfaction vector."""
        status = statuses[sid]
        edge_list = edge_lists[sid]
        sat = dict(zip([(p, e) for p, e, _, _ in edge_list], sat_row))
        new_status: list = []
        any_live = False
        for p_index, uncertain in enumerate(status):
            if uncertain is None:
                new_status.append(None)
                continue
            still_uncertain: list[int] = []
            violated = False
            for e in sorted(uncertain):
                left, r = pattern_edges[p_index][e]
                if sat[(p_index, e)]:
                    continue  # edge satisfied forever
                if last_left[left] <= step and last_right[r] <= step:
                    violated = True  # both labels closed, never satisfied
                    break
                still_uncertain.append(e)
            if violated:
                new_status.append(None)
                continue
            if not still_uncertain:
                return "satisfied"
            any_live = True
            new_status.append(frozenset(still_uncertain))
        if not any_live:
            return "dead"
        return tuple(new_status)

    _SATISFIED, _DEAD = -1, -2

    def resolve_code(sid: int, step: int, code: int) -> int:
        sat_row = tuple(
            bool((code >> e) & 1) for e in range(len(edge_lists[sid]))
        )
        result = advance_status(sid, sat_row, step)
        if result == "satisfied":
            return _SATISFIED
        if result == "dead":
            return _DEAD
        return intern_status(result)

    for status in start_statuses:  # interned in order: ids = indices
        intern_status(status)
    peak_states = peak
    col_bounds = [m + 3] * width

    for i in range(first_step, m + 1):
        if X.shape[0] == 0:
            break
        _check_budget("bipartite", time_budget, started)
        n_states = X.shape[0]
        sl = set(serves_left[i - 1])
        sr = set(serves_right[i - 1])
        merger = _Merger(col_bounds, with_sid=True)

        if not sl and not sr and merge_gaps:
            # Non-serving step: positions shift; statuses cannot change.
            prefix = tables.cumulative[i - 1]
            step = _chunk_rows(width + 2, width)
            for lo in range(0, n_states, step):
                _check_budget("bipartite", time_budget, started)
                new_X, weight, valid = _gap_candidates(X[lo : lo + step], i, prefix)
                mass = probs[lo : lo + step, None] * weight
                # A filled copy: np.broadcast_to costs more than the
                # copy on generations of tens of states.
                sid_slots = np.empty(valid.shape, np.int64)
                sid_slots[:] = sids[lo : lo + step, None]
                merger.add(new_X, valid, mass, sids=sid_slots)
        else:
            js = np.arange(1, i + 1, dtype=np.int64)
            row = tables.pi[i - 1][:i]
            live_cols = np.flatnonzero(row > 0.0)
            min_cols = np.array(sorted(sl), np.int64)
            max_cols = np.array([n_left + k for k in sorted(sr)], np.int64)
            step = _chunk_rows(i, width + 1)
            for lo in range(0, n_states, step):
                _check_budget("bipartite", time_budget, started)
                chunk_sids = sids[lo : lo + step]
                cand = _insertion_updates(X[lo : lo + step], js, min_cols, max_cols)
                n_chunk = cand.shape[0]
                flat = cand.reshape(n_chunk * i, width)
                mass_flat = (
                    probs[lo : lo + step, None] * row[None, :]
                ).reshape(-1)
                # -3 = dropped (zero weight).
                outcome = np.full(flat.shape[0], -3, np.int64)
                if live_cols.size:
                    # The positive-weight candidates in flat order (states,
                    # then insertion points) and the status each came from.
                    live = (
                        slice(None) if live_cols.size == i
                        else (
                            np.arange(0, n_chunk * i, i)[:, None] + live_cols
                        ).reshape(-1)
                    )
                    old = np.repeat(chunk_sids, live_cols.size)
                    group = flat[live]
                    a = group[:, pair_left]
                    b = group[:, pair_right]
                    sat = (a != -1) & (b != -1) & (a < b)
                    # Bit-pack each candidate's satisfaction of its old
                    # status's uncertain edges into one int code: the
                    # transition depends only on (old status, i, code).
                    code = (sat * code_weights[old]).sum(axis=1)
                    # Resolve each distinct (old status, code) once, in
                    # ascending order, so statuses intern in that order.
                    order = np.lexsort((code, old))
                    old_sorted = old[order]
                    code_sorted = code[order]
                    first = np.empty(order.size, bool)
                    first[0] = True
                    first[1:] = (old_sorted[1:] != old_sorted[:-1]) | (
                        code_sorted[1:] != code_sorted[:-1]
                    )
                    starts = np.flatnonzero(first)
                    resolved = np.array(
                        [
                            resolve_code(sid, i, c)
                            for sid, c in zip(
                                old_sorted[starts].tolist(),
                                code_sorted[starts].tolist(),
                            )
                        ],
                        np.int64,
                    )
                    transition = np.empty(order.size, np.int64)
                    transition[order] = np.cumsum(first) - 1
                    outcome[live] = resolved[transition]
                # Absorb satisfied candidates in flat scan order.
                absorbed = sequential_sum(
                    mass_flat[outcome == _SATISFIED].tolist(), absorbed
                )
                keep = outcome >= 0
                # Canonicalize columns untracked by each new status to -2
                # before packing, so (sid, row) stays bijective with the
                # scalar key (dropped rows get status 0's mask, unread).
                flat[untracked[np.maximum(outcome, 0)]] = -2
                merger.add(flat, keep, mass_flat, sids=outcome)

        sids, X, probs = merger.merge()
        peak_states = max(peak_states, X.shape[0])

    return absorbed, peak_states, X.shape[0]


# ----------------------------------------------------------------------
# Lifted engine (relevant-item DP)
# ----------------------------------------------------------------------


def lifted_engine(
    tables,
    last_relevant: int,
    step_signature: Sequence[int | None],
    n_signatures: int,
    batch_matches: Callable[[np.ndarray], np.ndarray],
    batch_dead: Callable[[np.ndarray, int], np.ndarray],
    P: np.ndarray,
    G: np.ndarray,
    probs: np.ndarray,
    *,
    first_step: int,
    peak: int,
    absorbed: float,
    expansions: int,
    prune_dead: bool,
    merge_gaps: bool,
    time_budget,
    started: float,
):
    """Vectorized relevant-item DP: returns ``(absorbed, peak, expansions)``.

    A generation is a pair of aligned ``(S, L)`` tables — strictly
    increasing positions and the matching signature ids — where ``L`` is
    the number of relevant items inserted so far (every surviving state
    has the same length).  When the whole signature sequence fits one
    int64 (``sig_bits * n_relevant <= 62``) it is carried as a single
    packed *gcode* per state — slot 0 in the high bits — so the serving
    insertion is pure shift arithmetic and the id columns are never
    materialized; otherwise the sequence is kept as id columns.  Match /
    dead predicates are the caller's *batch* evaluators: each takes an
    ``(n, L)`` signature-id matrix and returns an ``(n,)`` bool vector,
    evaluated once per unique sequence in one array pass (the solver
    vectorizes the greedy embedding matcher over the batch axis, so no
    per-sequence Python loop is needed).

    Runs steps ``first_step..last_relevant`` from the generation ``(P, G,
    probs)`` — positions and signature-id columns, packed here into the
    gcode when the engine packs — with ``peak`` states seen and
    ``absorbed`` mass and ``expansions`` carried so far.
    """
    m = last_relevant
    sig_bits = max(1, (n_signatures - 1).bit_length())
    n_relevant = sum(
        1 for s in step_signature[1 : last_relevant + 1] if s is not None
    )
    use_gcode = sig_bits * max(n_relevant, 1) <= _GCODE_LIMIT
    gcode = np.zeros(P.shape[0], np.int64)
    if use_gcode:
        for c in range(G.shape[1]):
            gcode = (gcode << sig_bits) | G[:, c]
    peak_states = peak

    def unpack_codes(codes: np.ndarray, length: int) -> np.ndarray:
        rows = np.empty((codes.size, length), np.int64)
        rem = codes.copy()
        for c in range(length - 1, 0, -1):
            rows[:, c] = rem & ((1 << sig_bits) - 1)
            rem >>= sig_bits
        rows[:, 0] = rem
        return rows

    for i in range(first_step, last_relevant + 1):
        _check_budget("lifted", time_budget, started)
        sid = step_signature[i]
        n_states, L = P.shape
        new_L = L if sid is None else L + 1
        if use_gcode:
            merger = _Merger([m + 3] * new_L, with_sid=True)
        else:
            merger = _Merger(
                [m + 3] * new_L + [n_signatures + 2] * new_L
            )

        if sid is None and merge_gaps:
            prefix = tables.cumulative[i - 1]
            step = _chunk_rows(L + 1, 2 * L)
            for lo in range(0, n_states, step):
                _check_budget("lifted", time_budget, started)
                new_P, weight, valid = _gap_candidates(P[lo : lo + step], i, prefix)
                mass = probs[lo : lo + step, None] * weight
                expansions += int(np.count_nonzero(valid))
                if use_gcode:
                    merger.add(
                        new_P,
                        valid,
                        mass,
                        sids=np.broadcast_to(
                            gcode[lo : lo + step, None], valid.shape
                        ),
                    )
                else:
                    sig_slots = np.broadcast_to(
                        G[lo : lo + step, None, :], new_P.shape
                    )
                    merger.add(
                        np.concatenate([new_P, sig_slots], axis=2),
                        valid,
                        mass,
                    )
        elif sid is None:
            js = np.arange(1, i + 1, dtype=np.int64)
            row = tables.pi[i - 1][:i]
            weight_mask = row > 0.0
            step = _chunk_rows(i, 2 * L)
            for lo in range(0, n_states, step):
                _check_budget("lifted", time_budget, started)
                Pb = P[lo : lo + step][:, None, :]
                shifted = Pb + (Pb >= js[None, :, None])
                n_chunk = shifted.shape[0]
                keep = np.broadcast_to(weight_mask[None, :], (n_chunk, i))
                mass = probs[lo : lo + step, None] * row[None, :]
                expansions += int(np.count_nonzero(keep))
                if use_gcode:
                    merger.add(
                        shifted,
                        keep,
                        mass,
                        sids=np.broadcast_to(
                            gcode[lo : lo + step, None], keep.shape
                        ),
                    )
                else:
                    sig_slots = np.broadcast_to(
                        G[lo : lo + step, None, :], shifted.shape
                    )
                    merger.add(
                        np.concatenate([shifted, sig_slots], axis=2),
                        keep,
                        mass,
                    )
        else:
            js = np.arange(1, i + 1, dtype=np.int64)
            row = tables.pi[i - 1][:i]
            weight_mask = row > 0.0
            n_weighted = int(np.count_nonzero(weight_mask))
            step = _chunk_rows(i, 2 * (L + 1))
            for lo in range(0, n_states, step):
                _check_budget("lifted", time_budget, started)
                Pb = P[lo : lo + step][:, None, :]
                n_chunk = Pb.shape[0]
                shifted = Pb + (Pb >= js[None, :, None])
                insert_at = (Pb < js[None, :, None]).sum(axis=2)
                cols = np.arange(L)[None, None, :]
                targets = cols + (cols >= insert_at[:, :, None])
                new_P = np.empty((n_chunk, i, L + 1), np.int64)
                np.put_along_axis(new_P, targets, shifted, axis=2)
                np.put_along_axis(
                    new_P,
                    insert_at[:, :, None],
                    np.broadcast_to(js[None, :, None], (n_chunk, i, 1)),
                    axis=2,
                )
                expansions += n_chunk * n_weighted
                flat_sel = np.broadcast_to(
                    weight_mask[None, :], (n_chunk, i)
                ).reshape(-1)
                P_flat = new_P.reshape(-1, L + 1)[flat_sel]
                mass_flat = (
                    probs[lo : lo + step, None] * row[None, :]
                ).reshape(-1)[flat_sel]
                # The predicates depend only on the signature sequence,
                # and candidates repeat sequences heavily (positions
                # multiply states, signatures don't): dedup first and
                # dead-check only the sequences not already absorbed.
                if use_gcode:
                    # Insert sid's bits at slot ``insert_at``: the slots
                    # after it form the low ``tail_bits`` of the code.
                    tail_bits = (L - insert_at) * sig_bits
                    gb = gcode[lo : lo + step, None]
                    low = gb & ((np.int64(1) << tail_bits) - 1)
                    high = gb >> tail_bits
                    new_code = (
                        ((high << sig_bits) | sid) << tail_bits
                    ) | low
                    code_flat = new_code.reshape(-1)[flat_sel]
                    codes_u, inverse = np.unique(
                        code_flat, return_inverse=True
                    )
                    rows_u = unpack_codes(codes_u, L + 1)
                else:
                    Gb = G[lo : lo + step][:, None, :]
                    new_G = np.empty((n_chunk, i, L + 1), np.int64)
                    np.put_along_axis(
                        new_G,
                        targets,
                        np.broadcast_to(Gb, shifted.shape),
                        axis=2,
                    )
                    np.put_along_axis(
                        new_G,
                        insert_at[:, :, None],
                        np.full((1, 1, 1), sid, np.int64),
                        axis=2,
                    )
                    G_flat = new_G.reshape(-1, L + 1)[flat_sel]
                    rows_u, inverse = np.unique(
                        G_flat, axis=0, return_inverse=True
                    )
                    inverse = inverse.reshape(-1)
                matched_u = batch_matches(rows_u)
                matched = matched_u[inverse]
                absorbed = sequential_sum(
                    mass_flat[matched].tolist(), absorbed
                )
                keep = ~matched
                if prune_dead:
                    alive = ~matched_u
                    dead_u = np.zeros(matched_u.size, bool)
                    dead_u[alive] = batch_dead(rows_u[alive], i)
                    keep &= ~dead_u[inverse]
                if use_gcode:
                    merger.add(P_flat, keep, mass_flat, sids=code_flat)
                else:
                    merger.add(
                        np.concatenate([P_flat, G_flat], axis=1),
                        keep,
                        mass_flat,
                    )

        _check_budget("lifted", time_budget, started)
        if use_gcode:
            gcode, P, probs = merger.merge()
        else:
            _, merged, probs = merger.merge()
            P = merged[:, :new_L]
            G = merged[:, new_L:]
        if P.shape[0] > peak_states:
            peak_states = P.shape[0]

    return absorbed, peak_states, expansions
