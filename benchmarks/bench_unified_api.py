"""The unified query API on a mixed-kind repeated-template workload.

Not a paper figure: this benchmark covers the unified request/answer
surface of DESIGN.md Section 10.  The CrowdRank batch templates are served
as a *mixed-kind* workload — each base query asked both as a Boolean
``Probability`` and as a ``COUNT`` — and compared against answering the
same requests kind by kind on fresh services.

Acceptance bar:

* **mixed-kind dedup** — the mixed batch executes **>= 2x fewer** distinct
  solves than the kind-by-kind evaluation (a Count and a Probability of
  the same query share every solve, so the mixed batch costs the same as
  either kind alone), and its answers equal the kind-by-kind answers.

The exact-equality oracles for each request kind (count, top-k, attribute
aggregate) live in ``tests/test_api.py``.

``BENCH_API_QUICK=1`` shrinks the workload for CI smoke runs.  Full runs
write ``benchmarks/BENCH_api.json`` (committed); every run writes
``benchmarks/results/`` like every other benchmark.
"""

import json
import os
import time
from pathlib import Path

from repro.__main__ import batch_queries
from repro.datasets.crowdrank import crowdrank_database
from repro.evaluation.experiments import ExperimentResult
from repro.service import PreferenceService

QUICK = os.environ.get("BENCH_API_QUICK") == "1"
N_BASE_QUERIES = 8 if QUICK else 24
N_SESSIONS = 30 if QUICK else 80
N_MOVIES = 6 if QUICK else 8
MIN_DEDUP_RATIO = 2.0
DB_SEED = 7

JSON_PATH = Path(__file__).parent / "BENCH_api.json"


def test_unified_api(record_result):
    db = crowdrank_database(
        n_workers=N_SESSIONS, n_movies=N_MOVIES, seed=DB_SEED
    )
    texts = batch_queries(N_BASE_QUERIES)

    # --- kind-by-kind: each kind on its own fresh service --------------
    kind_started = time.perf_counter()
    prob_batch = PreferenceService().answer_many(texts, db)
    count_batch = PreferenceService().answer_many(
        [f"COUNT {text}" for text in texts], db
    )
    kind_seconds = time.perf_counter() - kind_started
    kind_by_kind_solves = (
        prob_batch.n_distinct_solves + count_batch.n_distinct_solves
    )

    # --- mixed-kind: one batch, one plan, cross-kind elimination -------
    mixed_requests = [
        request
        for text in texts
        for request in (text, f"COUNT {text}")
    ]
    mixed_started = time.perf_counter()
    mixed = PreferenceService().answer_many(mixed_requests, db)
    mixed_seconds = time.perf_counter() - mixed_started

    dedup_ratio = kind_by_kind_solves / max(mixed.n_distinct_solves, 1)
    assert dedup_ratio >= MIN_DEDUP_RATIO, (
        f"mixed-kind batch executed {mixed.n_distinct_solves} distinct "
        f"solves vs {kind_by_kind_solves} kind-by-kind; ratio "
        f"{dedup_ratio:.2f}x < {MIN_DEDUP_RATIO}x"
    )
    # The mixed batch costs no more than either kind alone.
    assert mixed.n_distinct_solves == prob_batch.n_distinct_solves

    # Mixed answers agree with the kind-by-kind batches, pairwise.
    for index in range(len(texts)):
        assert mixed[2 * index].value == prob_batch[index].probability
        assert mixed[2 * index + 1].value == count_batch[index].value

    report = {
        "config": {
            "n_base_queries": N_BASE_QUERIES,
            "n_sessions": N_SESSIONS,
            "n_movies": N_MOVIES,
            "quick": QUICK,
            "seed": DB_SEED,
        },
        "mixed_kind_dedup": {
            "kind_by_kind_solves": kind_by_kind_solves,
            "mixed_solves": mixed.n_distinct_solves,
            "required_ratio": MIN_DEDUP_RATIO,
            "measured_ratio": dedup_ratio,
            "enforced": True,
        },
        "timings": {
            "kind_by_kind_seconds": kind_seconds,
            "mixed_seconds": mixed_seconds,
        },
    }
    if not QUICK:
        JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    record_result(
        ExperimentResult(
            experiment="unified_api",
            headers=["workload", "requests", "distinct_solves", "seconds"],
            rows=[
                [
                    "kind-by-kind (2 services)",
                    2 * N_BASE_QUERIES,
                    kind_by_kind_solves,
                    kind_seconds,
                ],
                [
                    "mixed-kind batch",
                    2 * N_BASE_QUERIES,
                    mixed.n_distinct_solves,
                    mixed_seconds,
                ],
            ],
            notes={
                "dedup_ratio": round(dedup_ratio, 2),
                "quick": QUICK,
            },
        )
    )
