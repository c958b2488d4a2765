"""Cold vs warm serving throughput with the cross-query solver cache.

Not a paper figure: this benchmark covers the serving layer built on top of
the reproduction (DESIGN.md, "The service layer"; EXPERIMENTS.md lists it
below the figure record).  A fixed family of CrowdRank-style queries — the
near-identical repeated traffic realistic preference workloads produce — is
evaluated twice through one ``PreferenceService``:

* the cold pass populates the cache (zero hits, one solve per distinct
  canonical (model, labeling, union) request);
* the warm pass re-compiles the queries but serves every session group
  from the cache (zero solves).

Acceptance bar: warm throughput >= 5x cold (locally typically 15-30x), and
cached probabilities identical (within 1e-12) to a cache-disabled engine
run on the same workload.
"""

from repro.__main__ import batch_queries
from repro.api import answer
from repro.datasets.crowdrank import crowdrank_database
from repro.evaluation.experiments import ExperimentResult
from repro.query.parser import parse_query
from repro.service import PreferenceService

N_QUERIES = 8
N_SESSIONS = 100
N_MOVIES = 12
SEED = 7


def test_service_cache_cold_vs_warm(record_result):
    db = crowdrank_database(n_workers=N_SESSIONS, n_movies=N_MOVIES, seed=SEED)
    queries = batch_queries(N_QUERIES)
    service = PreferenceService(method="lifted", max_workers=1)

    cold = service.answer_many(queries, db)
    warm = service.answer_many(queries, db)

    cold_throughput = len(queries) / cold.seconds
    warm_throughput = len(queries) / warm.seconds
    speedup = warm_throughput / cold_throughput
    result = ExperimentResult(
        experiment="service_cache",
        headers=["pass", "queries", "distinct_solves", "cache_hits",
                 "seconds", "queries_per_s"],
        rows=[
            ["cold", len(queries), cold.n_distinct_solves, cold.n_cache_hits,
             cold.seconds, cold_throughput],
            ["warm", len(queries), warm.n_distinct_solves, warm.n_cache_hits,
             warm.seconds, warm_throughput],
        ],
        notes={"warm_vs_cold_speedup": round(speedup, 1)},
    )
    record_result(result)

    # The warm pass is pure cache traffic...
    assert cold.n_cache_hits == 0
    assert warm.n_distinct_solves == 0
    assert warm.n_cache_hits == cold.n_distinct_solves
    # ...and at least 5x the cold throughput (the acceptance bar).
    assert speedup >= 5.0

    # Cache-served probabilities are identical (within 1e-12) to a
    # cache-disabled engine run of the same workload.
    for query, cold_result, warm_result in zip(queries, cold, warm):
        reference = answer(parse_query(query), db, method="lifted")
        assert abs(cold_result.probability - reference.probability) <= 1e-12
        assert abs(warm_result.probability - reference.probability) <= 1e-12
