"""Standing queries under streaming session traffic (DESIGN.md S.15).

Not a paper figure: this benchmark covers the streaming subsystem
(``repro.stream``).  A seeded :class:`~repro.stream.replay
.TrafficReplayer` drives arrivals, model updates, and expirations
through a :class:`~repro.db.mutable.MutablePPDatabase`; an overlapping
workload of standing queries (all four request kinds over the same
p-relation) is maintained two ways:

* **incremental** — one :class:`~repro.stream.standing
  .StandingQueryEngine` over a shared warm cache: each generation
  re-executes only the solves whose canonical identity the deltas
  changed, and the targeted ``invalidate`` retires the replaced keys;
* **full re-evaluation** — the snapshot baseline: every generation
  re-answers the whole workload against a *fresh* cache (requests still
  share solves within the generation, so the baseline is the honest
  batch cost, not a per-request strawman).

Acceptance bars:

* at every generation, every materialized answer is **bit-identical**
  to the from-scratch evaluation on the mutated database — always
  enforced (kind, principal value, and per-session probabilities, via
  :func:`~repro.stream.standing.answers_equal`);
* in steady state (after cold registration) incremental maintenance
  performs at least **5x fewer** distinct solves than full
  re-evaluation — enforced in full mode (quick mode shrinks the
  session population the bar's denominator scales with).

``BENCH_STREAM_QUICK=1`` shrinks the workload for CI smoke runs.
Full runs write ``benchmarks/BENCH_stream.json`` (committed); every run
writes ``benchmarks/results/`` like every other benchmark.
"""

import json
import os
import time
from pathlib import Path

from repro.api.evaluate import answer_with_plan
from repro.evaluation.experiments import ExperimentResult
from repro.service.cache import SolverCache
from repro.stream.replay import TrafficReplayer
from repro.stream.standing import StandingQueryEngine, answers_equal

QUICK = os.environ.get("BENCH_STREAM_QUICK") == "1"
N_ACTIVE = 12 if QUICK else 40
N_POOL = 4 if QUICK else 12
N_MOVIES = 6 if QUICK else 8
N_STEPS = 3 if QUICK else 10
N_QUERIES = 4 if QUICK else 8
N_UPDATES = 2
MIN_SOLVE_RATIO = 5.0
SEED = 20260807

JSON_PATH = Path(__file__).parent / "BENCH_stream.json"


def test_streaming(record_result):
    replayer = TrafficReplayer(
        n_active=N_ACTIVE,
        n_pool=N_POOL,
        n_movies=N_MOVIES,
        updates=N_UPDATES,
        seed=SEED,
    )
    requests = replayer.standing_requests(N_QUERIES)
    engine = StandingQueryEngine(replayer.db, auto_refresh=False)
    registered = [engine.register(text) for text in requests]
    cold_solves = int(engine.stats()["fresh_solves"])

    incremental_solves = 0
    full_solves = 0
    mismatches = 0
    incremental_seconds = 0.0
    full_seconds = 0.0
    rows = []
    for _ in range(N_STEPS):
        deltas = replayer.step()

        before = int(engine.stats()["fresh_solves"])
        started = time.perf_counter()
        engine.refresh()
        incremental_seconds += time.perf_counter() - started
        step_incremental = int(engine.stats()["fresh_solves"]) - before

        # Full re-evaluation: the whole workload from scratch, sharing
        # solves within the generation but never across generations.
        scratch = SolverCache()
        step_full = 0
        started = time.perf_counter()
        references = []
        for standing in registered:
            reference, _, execution = answer_with_plan(
                standing.request,
                replayer.db,
                method=standing.method,
                cache=scratch,
            )
            references.append(reference)
            step_full += execution.n_executed
        full_seconds += time.perf_counter() - started

        for standing, reference in zip(registered, references):
            if not answers_equal(standing.answer, reference):
                mismatches += 1

        incremental_solves += step_incremental
        full_solves += step_full
        rows.append(
            [
                replayer.db.generation,
                len(deltas),
                step_incremental,
                step_full,
            ]
        )

    engine.close()
    stats = engine.stats()
    ratio = full_solves / max(incremental_solves, 1)
    enforce_ratio = not QUICK
    report = {
        "config": {
            "n_active": N_ACTIVE,
            "n_pool": N_POOL,
            "n_movies": N_MOVIES,
            "n_steps": N_STEPS,
            "n_queries": N_QUERIES,
            "quick": QUICK,
            "seed": SEED,
        },
        "steady_state": {
            "registration_cold_solves": cold_solves,
            "incremental_solves": incremental_solves,
            "full_reevaluation_solves": full_solves,
            "solve_ratio": ratio,
            "incremental_seconds": incremental_seconds,
            "full_seconds": full_seconds,
            "invalidations_applied": int(stats["invalidations_applied"]),
            "final_generation": int(stats["generation"]),
        },
        "per_step": [
            {
                "generation": generation,
                "deltas": n_deltas,
                "incremental_solves": inc,
                "full_solves": full,
            }
            for generation, n_deltas, inc, full in rows
        ],
        "identity_bar": {
            "required": 0,
            "measured": mismatches,
            "enforced": True,
            "reason": None,
        },
        "solve_ratio_bar": {
            "required": MIN_SOLVE_RATIO,
            "measured": ratio,
            "enforced": enforce_ratio,
            "reason": None if enforce_ratio else "quick mode",
        },
    }
    if not QUICK:
        JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    record_result(
        ExperimentResult(
            experiment="streaming",
            headers=[
                "generation", "deltas", "incremental_solves", "full_solves",
            ],
            rows=rows,
            notes={
                "solve_ratio": round(ratio, 2),
                "cold_solves": cold_solves,
                "mismatches": mismatches,
                "ratio_bar_enforced": enforce_ratio,
            },
        )
    )

    assert mismatches == 0, (
        f"{mismatches} materialized answers diverged from the "
        "from-scratch evaluation"
    )
    if enforce_ratio:
        assert ratio >= MIN_SOLVE_RATIO, (
            f"incremental maintenance did {incremental_solves} solves vs "
            f"{full_solves} for full re-evaluation ({ratio:.2f}x, "
            f"required {MIN_SOLVE_RATIO:.1f}x)"
        )
