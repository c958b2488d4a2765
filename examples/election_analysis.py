"""Election polling analysis over the synthetic Polls database.

Reproduces the analyst workflow of the paper's Section 6.2 at laptop scale:

1. build a Polls RIM-PPD (candidates with demographics, voters in
   demographic groups, one Mallows model per voter);
2. evaluate the Figure 4 query — "does some session prefer a male candidate
   to a female candidate of the same party?" — with every exact solver and
   with MIS-AMP-adaptive, comparing runtimes and answers;
3. count the expected number of supporting sessions;
4. find the most supportive sessions with the top-k upper-bound
   optimization and show how many exact evaluations it saves.

Run:  python examples/election_analysis.py
"""

import time

from repro.api import Count, TopK, answer
from repro.datasets.polls import polls_database
from repro.query import parse_query

QUERY = "P(_, _; l; r), C(l, p, 'M', _, _, _), C(r, p, 'F', _, _, _)"


def main() -> None:
    db = polls_database(n_candidates=10, n_voters=40, seed=2016)
    print(
        f"Polls database: {len(db.orelation('C'))} candidates, "
        f"{db.prelation('P').n_sessions} poll sessions"
    )
    query = parse_query(QUERY)
    print(f"Query: {query}")
    print()

    # ------------------------------------------------------------------
    # Exact solvers, specialized to general, plus the adaptive sampler.
    # ------------------------------------------------------------------
    print("Per-method evaluation (whole database):")
    for method in ("two_label", "bipartite", "general", "mis_amp_adaptive"):
        kwargs = {"seed": 7, "n_per_proposal": 150} if method.startswith("mis") else {}
        started = time.perf_counter()
        result = answer(query, db, method=method, **kwargs)
        seconds = time.perf_counter() - started
        print(
            f"  {method:18s} P = {result.probability:.6f}  "
            f"({seconds:6.2f}s, {result.stats['n_solver_calls']} solver calls, "
            f"{result.stats['n_groups']} groups)"
        )
    print()

    # ------------------------------------------------------------------
    # Count-Session: the expected number of supporting sessions.
    # ------------------------------------------------------------------
    count = answer(Count(query), db)
    print(
        f"count(Q) = {count.expectation:.2f} of "
        f"{len(count.per_session)} sessions expected to satisfy Q"
    )
    weakest = sorted(count.per_session, key=lambda one: one.probability)[:3]
    print(
        "least supportive sessions:",
        [(one.key[0], round(one.probability, 3)) for one in weakest],
    )
    print()

    # ------------------------------------------------------------------
    # Most-Probable-Session with and without the upper-bound optimization.
    # ------------------------------------------------------------------
    for strategy, n_edges in (("naive", 1), ("upper_bound", 1), ("upper_bound", 2)):
        started = time.perf_counter()
        top = answer(
            TopK(query, k=3, strategy=strategy, n_edges=n_edges), db
        )
        seconds = time.perf_counter() - started
        label = strategy if strategy == "naive" else f"{strategy}[{n_edges}-edge]"
        print(
            f"top(Q, 3) via {label:22s}: {seconds:6.2f}s, "
            f"{top.stats['n_exact_evaluations']} exact evaluations"
        )
        for key, probability in top.ranking:
            print(f"     {key}: {probability:.5f}")


if __name__ == "__main__":
    main()
