"""Movie-preference analytics over the simulated MovieLens / CrowdRank data.

Demonstrates the paper's Section 6.3-6.4 workloads:

1. the Figure 14 query over a MovieLens-style catalog — a non-itemwise CQ
   whose grounding produces one pattern per genre, evaluated with
   MIS-AMP-adaptive (exact solvers are hopeless here: every movie carries a
   year label, so the patterns touch the whole catalog);
2. the Section 6.4 demographic query over a CrowdRank-style database —
   the session join binds each worker's sex and age into the pattern, and
   grouping identical (model, pattern) requests slashes the solver calls.

Run:  python examples/movie_preferences.py
"""

import time

from repro.api import answer
from repro.datasets.crowdrank import crowdrank_database
from repro.datasets.movielens import movielens_database
from repro.query import analyze, parse_query

MOVIELENS_QUERY = (
    "P(_; 2; 1), P(_; x; 1), P(_; x; y), "
    "M(x, _, year1, genre), year1 >= 1990, "
    "M(y, _, year2, genre), year2 < 1990"
)

CROWDRANK_QUERY = (
    "P(v; m1; m2), P(v; m2; m3), V(v, sex, age), "
    "M(m1, _, sex, _, 'short'), M(m2, _, _, age, 'short'), "
    "M(m3, 'Thriller', _, _, _)"
)


def movielens_demo() -> None:
    db = movielens_database(n_movies=24, n_users=30, n_components=4, seed=1)
    query = parse_query(MOVIELENS_QUERY)
    analysis = analyze(query, db)
    print("MovieLens-style query (Figure 14 of the paper):")
    print(f"  {query}")
    print(
        f"  non-itemwise: V+ = {sorted(v.name for v in analysis.groundable)} "
        "(grounded over the genres present in the catalog)"
    )
    started = time.perf_counter()
    result = answer(
        query, db, method="mis_amp_adaptive", seed=14,
        n_per_proposal=60, max_proposals=7,
    )
    seconds = time.perf_counter() - started
    print(
        f"  Pr(Q) = {result.probability:.4f} over {result.n_sessions} users "
        f"({seconds:.1f}s, {result.stats['n_solver_calls']} solver calls after grouping)"
    )
    print()


def crowdrank_demo() -> None:
    db = crowdrank_database(n_workers=2000, n_movies=12, seed=2)
    query = parse_query(CROWDRANK_QUERY)
    analysis = analyze(query, db)
    print("CrowdRank-style demographic query (Section 6.4 of the paper):")
    print(f"  {query}")
    print(
        "  session-bound variables:",
        sorted(v.name for v in analysis.session_bound),
    )
    for grouped in (True, False):
        started = time.perf_counter()
        result = answer(
            query, db, method="lifted", group_sessions=grouped,
            session_limit=2000,
        )
        seconds = time.perf_counter() - started
        label = "grouped" if grouped else "naive  "
        print(
            f"  {label}: Pr(Q) = {result.probability:.6f}  "
            f"({seconds:6.2f}s, {result.stats['n_solver_calls']} solver calls "
            f"for {result.n_sessions} sessions)"
        )
    print()


def main() -> None:
    movielens_demo()
    crowdrank_demo()


if __name__ == "__main__":
    main()
