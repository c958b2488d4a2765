"""The query planner on an overlapping repeated-template workload.

Not a paper figure: this benchmark covers PR 4, the plan IR + optimizer of
DESIGN.md Section 9.  A 50-query CrowdRank-style workload (the batch
templates cycled over overlapping genre/sex/duration parameters, so many
queries compile to shared (model, union) solves) is served three ways:

* **naive** — per-query ``answer(..., group_sessions=False)``: one solve
  per satisfiable session, the pre-Section-6.4 baseline;
* **unoptimized plan** — per-query ``answer(..., optimize=False)``: the
  plan executor without any optimizer pass, the equivalence reference;
* **planned batch** — ``PreferenceService.answer_many`` over the whole
  workload: one plan, canonical common-solve elimination across sessions
  and queries, LPT-ordered frontier.

Acceptance bars:

* optimized evaluation is **bit-identical** to the unoptimized plan —
  probabilities and per-session solver attributions — for every query;
* the planner executes **>= 2x fewer** distinct solves than the naive
  baseline over the workload;
* building + optimizing + rendering ``explain()`` for the whole workload
  costs **< 5%** of the naive workload's solve time (enforced in full
  mode; recorded in quick mode, where the denominator is too small to be
  stable).

``BENCH_PLANNER_QUICK=1`` shrinks the workload for CI smoke runs.
Full runs write ``benchmarks/BENCH_planner.json`` (committed); every run
writes ``benchmarks/results/`` like every other benchmark.
"""

import json
import os
import time
from pathlib import Path

from repro.__main__ import batch_queries
from repro.api import answer
from repro.datasets.crowdrank import crowdrank_database
from repro.evaluation.experiments import ExperimentResult
from repro.plan import build_plan, optimize_plan
from repro.query.parser import parse_query
from repro.service import PreferenceService

QUICK = os.environ.get("BENCH_PLANNER_QUICK") == "1"
N_QUERIES = 12 if QUICK else 50
N_SESSIONS = 30 if QUICK else 80
N_MOVIES = 6 if QUICK else 8
MIN_ELIMINATION_RATIO = 2.0
MAX_EXPLAIN_OVERHEAD = 0.05
DB_SEED = 7

JSON_PATH = Path(__file__).parent / "BENCH_planner.json"


def _signature(result):
    return [
        (evaluation.key, evaluation.probability, evaluation.solver)
        for evaluation in result.per_session
    ]


def test_query_planner(record_result):
    db = crowdrank_database(
        n_workers=N_SESSIONS, n_movies=N_MOVIES, seed=DB_SEED
    )
    texts = batch_queries(N_QUERIES)
    queries = [parse_query(text) for text in texts]

    # --- naive baseline: one solve per satisfiable session ------------
    naive_started = time.perf_counter()
    naive_results = [
        answer(query, db, group_sessions=False) for query in queries
    ]
    naive_seconds = time.perf_counter() - naive_started
    naive_solves = sum(
        result.stats["n_solver_calls"] for result in naive_results
    )

    # --- unoptimized plan: the bit-identity reference ------------------
    unoptimized = [answer(query, db, optimize=False) for query in queries]

    # --- optimized per-query evaluation (optimizer on by default) ------
    optimized = [answer(query, db) for query in queries]
    for raw, planned in zip(unoptimized, optimized):
        assert planned.probability == raw.probability
        assert _signature(planned) == _signature(raw)
    # The naive baseline agrees too (same solves, independent grouping).
    for raw, planned in zip(naive_results, optimized):
        assert planned.probability == raw.probability

    # --- planned batch: elimination across sessions AND queries --------
    service = PreferenceService()
    batch_started = time.perf_counter()
    batch = service.answer_many(texts, db)
    batch_seconds = time.perf_counter() - batch_started
    for sequential, result in zip(optimized, batch):
        assert result.probability == sequential.probability
        assert _signature(result) == _signature(sequential)

    elimination_ratio = naive_solves / max(batch.n_distinct_solves, 1)
    assert elimination_ratio >= MIN_ELIMINATION_RATIO, (
        f"planner executed {batch.n_distinct_solves} distinct solves vs "
        f"{naive_solves} naive; ratio {elimination_ratio:.2f}x < "
        f"{MIN_ELIMINATION_RATIO}x"
    )

    # --- explain overhead: plan + optimize + render, no execution ------
    explain_started = time.perf_counter()
    plan = build_plan(queries, db)
    optimize_plan(plan, canonical=True)
    explain_text = plan.explain()
    explain_seconds = time.perf_counter() - explain_started
    assert "Solve #" in explain_text
    overhead = explain_seconds / max(naive_seconds, 1e-12)
    if not QUICK:
        assert overhead < MAX_EXPLAIN_OVERHEAD, (
            f"explain took {explain_seconds:.3f}s vs {naive_seconds:.3f}s "
            f"of naive solve time ({overhead:.1%} >= "
            f"{MAX_EXPLAIN_OVERHEAD:.0%})"
        )

    stats = service.stats()
    report = {
        "config": {
            "n_queries": N_QUERIES,
            "n_sessions": N_SESSIONS,
            "n_movies": N_MOVIES,
            "quick": QUICK,
            "seed": DB_SEED,
        },
        "solves": {
            "naive": naive_solves,
            "planned": plan.n_solves_planned,
            "eliminated": plan.n_solves_eliminated,
            "frontier": len(plan.solve_order),
            "executed_distinct": batch.n_distinct_solves,
        },
        "elimination_ratio": {
            "required": MIN_ELIMINATION_RATIO,
            "measured": elimination_ratio,
            "enforced": True,
        },
        "explain_overhead": {
            "required": MAX_EXPLAIN_OVERHEAD,
            "measured": overhead,
            "explain_seconds": explain_seconds,
            "naive_seconds": naive_seconds,
            "enforced": not QUICK,
            "reason": None if not QUICK else "quick mode: denominator too small",
        },
        "equivalence": {
            "bit_identical_to_unoptimized": True,
            "bit_identical_batch_vs_sequential": True,
        },
        "timings": {
            "naive_seconds": naive_seconds,
            "batch_seconds": batch_seconds,
        },
        "cache_stats": {
            name: stats[name]
            for name in (
                "n_solves_planned",
                "n_solves_eliminated",
                "n_passes_applied",
            )
        },
    }
    if not QUICK:
        JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    record_result(
        ExperimentResult(
            experiment="query_planner",
            headers=["strategy", "distinct_solves", "seconds"],
            rows=[
                ["naive(group_sessions=False)", naive_solves, naive_seconds],
                ["planned batch", batch.n_distinct_solves, batch_seconds],
                ["explain(no execution)", 0, explain_seconds],
            ],
            notes={
                "elimination_ratio": round(elimination_ratio, 2),
                "explain_overhead": round(overhead, 4),
                "quick": QUICK,
            },
        )
    )
