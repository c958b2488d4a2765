"""Figure 8: the Most-Probable-Session top-k optimization on Polls.

Paper result: on Polls with 16 candidates and the self-join star query,
pre-filtering sessions with 1-edge (2-edge) upper bounds speeds up k = 1
evaluation by 5.2x (8.2x), and still 1.6x (2.1x) at k = 100.

Scaled reproduction: 16 candidates, 120 voters, k in {1, 10, 25}.  The
optimized strategies must return the same top-k sets as the full strategy
and evaluate no more sessions exactly.
"""

from repro.api import TopK, answer
from repro.datasets.polls import polls_database
from repro.evaluation.experiments import FIG8_QUERY, figure_8
from repro.query.parser import parse_query


def test_figure_8_topk(record_result, benchmark):
    result = figure_8(k_values=(1, 10, 25), n_candidates=16, n_voters=120)
    record_result(result)

    rows = {(row[0], row[1]): row for row in result.rows}
    for k in (1, 10, 25):
        # Optimized strategies agree with the naive top-k (up to ties,
        # which figure_8 already accounts for by comparing probabilities).
        assert rows[(k, "1-edge")][6] is True
        assert rows[(k, "2-edge")][6] is True
        # And never evaluate more sessions exactly.
        assert rows[(k, "1-edge")][5] <= rows[(k, "full")][5]
        assert rows[(k, "2-edge")][5] <= rows[(k, "full")][5]
    # The paper's headline: at k = 1 the upper bounds prune aggressively.
    assert rows[(1, "1-edge")][5] < rows[(1, "full")][5]

    db = polls_database(n_candidates=16, n_voters=40, seed=8)
    query = parse_query(FIG8_QUERY)
    benchmark.pedantic(
        lambda: answer(
            TopK(query, k=1, strategy="upper_bound", n_edges=1), db
        ),
        rounds=3,
        iterations=1,
    )
