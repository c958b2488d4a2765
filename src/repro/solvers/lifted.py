"""Lifted solver: exact pattern-union inference via a relevant-item DP.

This is the library's exact subroutine for *arbitrary* patterns and unions —
the role the LTM solver of Cohen et al. plays in the paper (see DESIGN.md,
Substitution 1).  It runs the RIM insertion process as a dynamic program
whose state is the ordered sequence of positions of the *relevant* items
inserted so far, where an item is relevant when it can be embedded at some
node of the union.  Whether a ranking satisfies the union depends only on
the relative order (and node-serving capabilities) of relevant items, so the
state is a sufficient statistic; absolute positions are kept because the
insertion probabilities ``Pi(i, j)`` depend on them.

Three optimizations keep the state space small (each can be disabled for the
ablation benchmarks):

* **absorption** — a state whose relevant-item sequence already matches a
  pattern will match forever (matching is monotone under insertion), so its
  probability is added to the result and the state is dropped;
* **dead-state pruning** — a state is dropped when, for every pattern, some
  node has no server among the present *and* remaining relevant items;
* **gap merging** — inserting an irrelevant item at any position within the
  same gap between tracked positions yields the same state, so the whole
  gap's insertion mass is applied at once.

The DP also stops after the last relevant item of ``sigma`` has been
inserted: later insertions cannot change the match status of any surviving
(unmatched) state.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Hashable

import numpy as np

from repro.kernels.dp import handoff_due, lifted_engine, scalar_gap_segments
from repro.kernels.precompute import model_tables
from repro.patterns.labels import Labeling
from repro.patterns.matching import match_served_sequence
from repro.solvers.base import SolverResult, SolverTimeout, as_union

Item = Hashable

#: States are tuples of (position, signature_id) pairs ordered by position.
_State = tuple[tuple[int, int], ...]


def lifted_probability(
    model,
    labeling: Labeling,
    union_or_pattern,
    *,
    merge_gaps: bool = True,
    prune_dead: bool = True,
    vectorized: bool = True,
    time_budget: float | None = None,
) -> SolverResult:
    """Exact ``Pr(G | sigma, Pi, lambda)`` for any pattern union.

    ``vectorized=True`` (the default) runs the dict-of-tuples DP while
    generations are small and hands the first large one to the
    array-compiled state-table engine of :mod:`repro.kernels.dp`, which
    runs the remaining steps; ``vectorized=False`` never hands over and
    is the scalar reference semantics (DESIGN.md Sections 7.3 and 12).
    Both produce bit-identical probabilities and identical state stats.

    Raises :class:`SolverTimeout` if ``time_budget`` (seconds) is exceeded.
    """
    union = as_union(union_or_pattern)
    started = time.perf_counter()

    # A pattern with no nodes is matched by every ranking (empty embedding).
    if any(len(p.nodes) == 0 for p in union):
        return SolverResult(1.0, solver="lifted", stats={"trivial": True})

    # --- Precomputation -------------------------------------------------
    all_nodes = union.all_nodes
    signature_ids: dict[frozenset, int] = {}
    signatures: list[frozenset] = []

    def intern(signature: frozenset) -> int:
        sid = signature_ids.get(signature)
        if sid is None:
            sid = len(signatures)
            signature_ids[signature] = sid
            signatures.append(signature)
        return sid

    # signature per sigma step (1-based index -> sid or None if irrelevant)
    step_signature: list[int | None] = [None] * (model.m + 1)
    relevant_steps: list[int] = []
    for i, item in enumerate(model.sigma, start=1):
        item_labels = labeling.labels_of(item)
        served = frozenset(
            n for n in all_nodes if n.labels <= item_labels
        )
        if served:
            step_signature[i] = intern(served)
            relevant_steps.append(i)

    if not relevant_steps:
        return SolverResult(0.0, solver="lifted", stats={"no_relevant_items": True})
    last_relevant = relevant_steps[-1]

    # Nodes still servable by items not yet inserted, per step: after step i
    # the available future nodes are the union of signatures of relevant
    # steps > i.
    future_nodes: list[frozenset] = [frozenset()] * (model.m + 2)
    running: frozenset = frozenset()
    for i in range(model.m, 0, -1):
        future_nodes[i] = running
        sid = step_signature[i]
        if sid is not None:
            running = running | signatures[sid]
    future_nodes[0] = running

    # --- Match / dead checks (memoized on the signature-id sequence) ----
    match_cache: dict[tuple[int, ...], bool] = {}

    def sequence_matches(sig_sequence: tuple[int, ...]) -> bool:
        cached = match_cache.get(sig_sequence)
        if cached is not None:
            return cached
        served = [signatures[sid] for sid in sig_sequence]
        result = any(
            match_served_sequence(served, pattern) is not None
            for pattern in union
        )
        match_cache[sig_sequence] = result
        return result

    def sequence_dead(sig_sequence: tuple[int, ...], step: int) -> bool:
        """True when no completion of the prefix can satisfy any pattern.

        A conservative (necessary-condition) test: every pattern must have
        a server for each node among present plus future relevant items.
        """
        present: set = set()
        for sid in sig_sequence:
            present |= signatures[sid]
        available = present | future_nodes[step]
        for pattern in union:
            if all(n in available for n in pattern.nodes):
                return False
        return True

    # --- The DP ----------------------------------------------------------
    tables = model_tables(model)
    if vectorized:
        # serve_matrix[k, s]: does signature s serve node number k?  The
        # batch evaluators below replicate the scalar predicates above,
        # vectorized over an (n, L) matrix of signature-id rows.
        node_list = list(all_nodes)
        node_index = {node: k for k, node in enumerate(node_list)}
        serve_matrix = np.zeros((len(node_list), len(signatures)), bool)
        for s, signature in enumerate(signatures):
            for node in signature:
                serve_matrix[node_index[node], s] = True

        def batch_matches(sig_rows: np.ndarray) -> np.ndarray:
            """Greedy canonical matcher over the whole batch at once.

            Same induction as ``match_served_sequence``: nodes in
            topological order, each mapped to the smallest slot strictly
            after all parents whose signature serves it — but the slot
            search is an ``argmax`` over the batch axis.
            """
            n, length = sig_rows.shape
            result = np.zeros(n, bool)
            if n == 0 or length == 0:
                return result
            slots = np.arange(1, length + 1, dtype=np.int64)[None, :]
            rows = np.arange(n)
            for pattern in union:
                ok = np.ones(n, bool)
                delta: dict = {}
                for node in pattern.topological_order:
                    bound = np.zeros(n, np.int64)
                    for parent in pattern.parents(node):
                        np.maximum(bound, delta[parent], out=bound)
                    feasible = serve_matrix[node_index[node]][sig_rows]
                    feasible &= slots > bound[:, None]
                    first = feasible.argmax(axis=1)
                    ok &= feasible[rows, first]
                    # Garbage where infeasible — those rows are already
                    # marked failed, so child bounds don't matter.
                    delta[node] = first + 1
                result |= ok
            return result

        def batch_dead(sig_rows: np.ndarray, step: int) -> np.ndarray:
            """Vectorized ``sequence_dead``: no pattern fully servable."""
            n = sig_rows.shape[0]
            available: dict = {}

            def node_available(node) -> np.ndarray:
                got = available.get(node)
                if got is None:
                    if node in future_nodes[step]:
                        got = np.ones(n, bool)
                    else:
                        got = serve_matrix[node_index[node]][sig_rows].any(
                            axis=1
                        )
                    available[node] = got
                return got

            dead = np.ones(n, bool)
            for pattern in union:
                covered = np.ones(n, bool)
                for node in pattern.nodes:
                    covered &= node_available(node)
                dead &= ~covered
            return dead

    pi = tables.pi
    states: dict[_State, float] = {(): 1.0}
    absorbed = 0.0
    peak_states = 1
    expansions = 0

    for i in range(1, last_relevant + 1):
        if time_budget is not None and time.perf_counter() - started > time_budget:
            raise SolverTimeout("lifted", time_budget)
        if vectorized and handoff_due(len(states), i):
            absorbed, peak_states, expansions = lifted_engine(
                tables,
                last_relevant,
                step_signature,
                len(signatures),
                batch_matches,
                batch_dead,
                *_sequence_table(states, bisect_left(relevant_steps, i)),
                first_step=i,
                peak=peak_states,
                absorbed=absorbed,
                expansions=expansions,
                prune_dead=prune_dead,
                merge_gaps=merge_gaps,
                time_budget=time_budget,
                started=started,
            )
            break
        sid = step_signature[i]
        row = pi[i - 1]
        new_states: dict[_State, float] = {}

        if sid is None:
            # Irrelevant item: positions shift, match status cannot change.
            if merge_gaps:
                prefix = tables.cumulative[i - 1]
                for state, prob in states.items():
                    positions = [p for p, _ in state]
                    for high, weight in scalar_gap_segments(
                        [0] + positions + [i], prefix
                    ):
                        shifted = tuple(
                            (p + 1, s) if p >= high else (p, s)
                            for p, s in state
                        )
                        new_states[shifted] = (
                            new_states.get(shifted, 0.0) + prob * weight
                        )
                        expansions += 1
            else:
                for state, prob in states.items():
                    for j in range(1, i + 1):
                        weight = float(row[j - 1])
                        if weight <= 0.0:
                            continue
                        shifted = tuple(
                            (p + 1, s) if p >= j else (p, s) for p, s in state
                        )
                        new_states[shifted] = (
                            new_states.get(shifted, 0.0) + prob * weight
                        )
                        expansions += 1
        else:
            for state, prob in states.items():
                for j in range(1, i + 1):
                    weight = float(row[j - 1])
                    if weight <= 0.0:
                        continue
                    mass = prob * weight
                    inserted = []
                    placed = False
                    for p, s in state:
                        if p >= j:
                            if not placed:
                                inserted.append((j, sid))
                                placed = True
                            inserted.append((p + 1, s))
                        else:
                            inserted.append((p, s))
                    if not placed:
                        inserted.append((j, sid))
                    new_state = tuple(inserted)
                    expansions += 1
                    sig_sequence = tuple(s for _, s in new_state)
                    if sequence_matches(sig_sequence):
                        absorbed += mass
                        continue
                    if prune_dead and sequence_dead(sig_sequence, i):
                        continue
                    new_states[new_state] = (
                        new_states.get(new_state, 0.0) + mass
                    )

        states = new_states
        if len(states) > peak_states:
            peak_states = len(states)

    return SolverResult(
        probability=min(1.0, max(0.0, absorbed)),
        solver="lifted",
        stats={
            "peak_states": peak_states,
            "expansions": expansions,
            "n_relevant_items": len(relevant_steps),
            "last_relevant_step": last_relevant,
            "seconds": time.perf_counter() - started,
        },
    )


def _sequence_table(states: dict, length: int):
    """The lifted engine's generation of a scalar ``{state: prob}`` dict.

    Every state holds ``length`` ``(position, signature_id)`` pairs; they
    split into a position table and a signature-id table, rows in dict
    insertion order.  Returns ``(positions, signature_ids, probs)``.
    """
    pairs = np.array(
        [pair for state in states for pair in state], np.int64
    ).reshape(len(states), length, 2)
    return (
        pairs[:, :, 0],
        pairs[:, :, 1],
        np.fromiter(states.values(), np.float64, len(states)),
    )
