"""Execution backends and the persistent cache tier under an exact batch.

Not a paper figure: this benchmark covers PR 3 of the serving layer
(DESIGN.md, "Executors, persistence, planning").  A batch of general-class
exact solves over sessions with *distinct* Mallows models — so neither the
within-batch grouping nor the cache can collapse the work — is served cold
through each execution backend:

* ``serial`` — the baseline loop;
* ``thread`` — a thread pool (roughly serial for the GIL-bound DP solvers);
* ``process`` — a process pool shipping canonical ``SolveTask``
  descriptors, the backend that actually scales the solves across cores.

A second scenario measures the persistent tier: a service with a SQLite
``cache_db`` serves the batch cold, is discarded, and a brand-new service
over the same file serves the same batch again — the restart must perform
**zero** solves (``n_distinct_solves == 0``), entirely from disk.

Acceptance bars:

* every backend and the persistent warm restart return probabilities
  bit-identical to sequential ``repro.api.answer``;
* the warm restart performs zero solves;
* on a multi-core host (>= 2 usable CPUs, full mode) the process backend
  is >= 2x faster than serial.  The bar is *physically unmeasurable* on a
  single-core host, so it is enforced exactly when the host can express
  it; the committed ``BENCH_backends.json`` records the core count and
  whether the bar was enforced.

``BENCH_BACKENDS_QUICK=1`` shrinks the workload for CI smoke runs.
Full runs write ``benchmarks/BENCH_backends.json`` (committed); every run
writes ``benchmarks/results/`` like every other benchmark.
"""

import json
import os
import time
from pathlib import Path

from repro.api import answer
from repro.db.database import PPDatabase
from repro.db.schema import ORelation, PRelation
from repro.evaluation.experiments import ExperimentResult
from repro.query.parser import parse_query
from repro.rankings.permutation import Ranking
from repro.rim.mallows import Mallows
from repro.service import PreferenceService

QUICK = os.environ.get("BENCH_BACKENDS_QUICK") == "1"
# 16 movies keeps the cold batch at a few seconds of real DP work now
# that the array-compiled solver cores landed — enough for the process
# bar to measure scaling rather than process-pool startup.
N_MOVIES = 9 if QUICK else 16
N_SESSIONS = 4 if QUICK else 8
MIN_PROCESS_SPEEDUP = 2.0
SEED = 20260730

JSON_PATH = Path(__file__).parent / "BENCH_backends.json"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _database() -> PPDatabase:
    """Distinct-phi Mallows sessions over a small labeled catalog.

    Each session's model differs (phi = 0.30, 0.35, ...), so the batch's
    general-class query compiles into one distinct exact solve per session
    — the worst case for grouping and the honest case for comparing
    execution backends.
    """
    movie_ids = list(range(1, N_MOVIES + 1))
    movie_rows = [
        (
            movie_id,
            "Thriller" if movie_id % 3 == 0 else "Drama",
            "short" if movie_id % 2 == 0 else "long",
        )
        for movie_id in movie_ids
    ]
    movies = ORelation("M", ["id", "genre", "duration"], movie_rows)
    sessions = {
        (f"w{index}",): Mallows(Ranking(movie_ids), 0.30 + 0.05 * index)
        for index in range(N_SESSIONS)
    }
    return PPDatabase(
        orelations=[movies],
        prelations=[PRelation("P", ["worker"], sessions)],
    )


#: A two-hop (three-node chain) query: general solver class.
QUERY = (
    "P(w; m1; m2), P(w; m2; m3), M(m1, 'Thriller', _), "
    "M(m2, _, 'short'), M(m3, 'Drama', _)"
)


def _serve(db, backend: str, workers: int, cache_db=None):
    service = PreferenceService(
        backend=backend, max_workers=workers, cache_db=cache_db
    )
    started = time.perf_counter()
    batch = service.answer_many([QUERY], db)
    return batch, time.perf_counter() - started


def test_service_backends(record_result, tmp_path):
    db = _database()
    n_cpus = _usable_cpus()
    workers = max(2, min(4, n_cpus))
    reference = answer(parse_query(QUERY), db)

    timings = {}
    for backend in ("serial", "thread", "process"):
        batch, seconds = _serve(db, backend, workers)
        timings[backend] = seconds
        assert batch.n_distinct_solves == N_SESSIONS
        # Bit-identical to the sequential engine, whichever backend ran.
        assert batch[0].probability == reference.probability

    # Persistent tier: cold pass writes through, then a *new* service over
    # the same file restarts warm.
    cache_db = tmp_path / "backends.sqlite"
    cold_batch, cold_seconds = _serve(db, "serial", workers, cache_db=cache_db)
    warm_batch, warm_seconds = _serve(db, "serial", workers, cache_db=cache_db)
    assert cold_batch.n_distinct_solves == N_SESSIONS
    assert warm_batch.n_distinct_solves == 0
    assert warm_batch.n_cache_hits == N_SESSIONS
    assert warm_batch[0].probability == reference.probability

    process_speedup = timings["serial"] / max(timings["process"], 1e-12)
    restart_speedup = cold_seconds / max(warm_seconds, 1e-12)
    enforce_bar = n_cpus >= 2 and not QUICK
    report = {
        "config": {
            "n_movies": N_MOVIES,
            "n_sessions": N_SESSIONS,
            "quick": QUICK,
            "n_cpus": n_cpus,
            "workers": workers,
            "seed": SEED,
        },
        "backends": {
            name: {"seconds": seconds, "speedup_vs_serial": timings["serial"] / max(seconds, 1e-12)}
            for name, seconds in timings.items()
        },
        "persistent_restart": {
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "cold_distinct_solves": cold_batch.n_distinct_solves,
            "warm_distinct_solves": warm_batch.n_distinct_solves,
            "restart_speedup": restart_speedup,
        },
        "process_speedup_bar": {
            "required": MIN_PROCESS_SPEEDUP,
            "measured": process_speedup,
            "enforced": enforce_bar,
            "reason": None if enforce_bar else (
                "quick mode" if QUICK else "single-core host cannot express the bar"
            ),
        },
        "equivalence": {"max_divergence_vs_engine": 0.0},
    }
    if not QUICK:
        JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    rows = [
        [name, N_SESSIONS, timings[name], timings["serial"] / max(timings[name], 1e-12)]
        for name in ("serial", "thread", "process")
    ]
    rows.append(["persistent(warm)", 0, warm_seconds, restart_speedup])
    record_result(
        ExperimentResult(
            experiment="service_backends",
            headers=["backend", "distinct_solves", "seconds", "speedup_vs_serial"],
            rows=rows,
            notes={
                "n_cpus": n_cpus,
                "process_speedup": round(process_speedup, 2),
                "bar_enforced": enforce_bar,
            },
        )
    )

    if enforce_bar:
        assert process_speedup >= MIN_PROCESS_SPEEDUP, (
            f"process backend {process_speedup:.2f}x vs serial, "
            f"required {MIN_PROCESS_SPEEDUP}x on {n_cpus} CPUs"
        )
