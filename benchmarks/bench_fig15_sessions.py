"""Figure 15: scalability over sessions on (simulated) CrowdRank.

Paper result: with 200 000 sessions, naive per-session evaluation is linear
in the session count, while grouping identical (model, pattern) requests
converges quickly (~118 s): the number of distinct groups is bounded by
the 7 mixture components times the demographic pattern variants.

Scaled reproduction: up to 10 000 sessions, naive runs capped at 1 000; the
grouped solver-call count must stay bounded while the naive count grows
linearly.
"""

from repro.api import answer
from repro.datasets.crowdrank import crowdrank_database
from repro.evaluation.experiments import FIG15_QUERY, figure_15
from repro.query.parser import parse_query


def test_figure_15_sessions(record_result, benchmark):
    result = figure_15(
        session_counts=(10, 100, 1000, 10_000),
        naive_limit=1000,
        n_movies=10,
    )
    record_result(result)

    calls = {(row[0], row[1]): row[3] for row in result.rows}
    # Naive calls grow linearly with sessions.
    assert calls[(1000, "naive")] == 1000
    # Grouped calls are bounded by the number of distinct (model, pattern)
    # pairs and stop growing.
    assert calls[(10_000, "grouped")] <= calls[(1000, "grouped")] * 2
    assert calls[(10_000, "grouped")] < 500

    db = crowdrank_database(n_workers=1000, n_movies=10, seed=15)
    query = parse_query(FIG15_QUERY)
    benchmark.pedantic(
        lambda: answer(
            query, db, method="lifted", group_sessions=True,
            session_limit=1000,
        ),
        rounds=3,
        iterations=1,
    )
