"""The sharded shared-cache tier under a multi-worker fleet.

Not a paper figure: this benchmark covers the scale-out tier of the
serving layer (DESIGN.md, "The sharded shared-cache tier").  The workload
is the backends benchmark's honest worst case — general-class exact
solves over sessions with *distinct* Mallows models, so neither grouping
nor a warm cache can collapse the cold work — served four ways:

* **unsharded reference** — one serial service, the bit-identity anchor;
* **embedded shards** — one serial service whose cache is a
  :class:`~repro.service.shard.ShardedSolverCache` (``cache_shards=``);
* **attached fleet, disjoint slices** — a :class:`ShardCacheServer` in
  the parent and ``N_FLEET`` forked worker processes, each a
  ``PreferenceService(shard_address=...)`` solving its own slice of the
  corpus cold, write-back through per-shard SQLite files;
* **attached fleet, shared corpus** — every worker races the *same*
  corpus cold against a fresh server: fleet-wide single-flight must
  admit exactly one solve per distinct session, however many workers
  collide on it.

Acceptance bars:

* sharded probabilities (embedded and fleet) are bit-identical to the
  unsharded reference — always enforced;
* a warm-fleet restart — a brand-new server over the same per-shard
  files, brand-new workers — performs **zero** solves — always enforced;
* the shared-corpus fleet performs exactly ``N_SESSIONS`` distinct
  solves in total (single-flight, not ``N_FLEET x N_SESSIONS``) —
  always enforced;
* on a multi-core host (>= 2 usable CPUs, full mode) the disjoint-slice
  fleet is within 1.2x of ideal scaling over serial.  The bar is
  physically unmeasurable on a single-core host, so — like the process
  bar in ``BENCH_backends.json`` — it is enforced exactly when the host
  can express it, and the committed report records which.

``BENCH_SHARD_QUICK=1`` shrinks the workload for CI smoke runs.
Full runs write ``benchmarks/BENCH_shard.json`` (committed); every run
writes ``benchmarks/results/`` like every other benchmark.
"""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.db.database import PPDatabase
from repro.db.schema import ORelation, PRelation
from repro.evaluation.experiments import ExperimentResult
from repro.rankings.permutation import Ranking
from repro.rim.mallows import Mallows
from repro.service import PreferenceService, ShardCacheServer

QUICK = os.environ.get("BENCH_SHARD_QUICK") == "1"
N_MOVIES = 9 if QUICK else 16
N_SESSIONS = 4 if QUICK else 8
N_FLEET = 2
N_SHARDS = 4
MAX_SCALING_GAP = 1.2
SEED = 20260807

JSON_PATH = Path(__file__).parent / "BENCH_shard.json"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _database() -> PPDatabase:
    """Distinct-phi Mallows sessions over a small labeled catalog.

    Deterministic (no rng), so forked fleet workers rebuild the exact
    same database instead of pickling it across.
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


def _queries() -> list[str]:
    """One general-class (two-hop chain) query per distinct session."""
    return [
        (
            f"P('w{index}'; m1; m2), P('w{index}'; m2; m3), "
            "M(m1, 'Thriller', _), M(m2, _, 'short'), M(m3, 'Drama', _)"
        )
        for index in range(N_SESSIONS)
    ]


def _fleet_worker(payload):
    """One fleet member: attach to the shard server, solve a slice."""
    address, queries = payload
    db = _database()
    service = PreferenceService(
        shard_address=address, backend="serial", max_workers=1
    )
    batch = service.answer_many(queries, db)
    service.cache.close()
    return batch.values, batch.n_distinct_solves


def _run_fleet(address: str, slices: "list[list[str]]"):
    """Fork ``len(slices)`` workers against ``address``; gather results."""
    started = time.perf_counter()
    with ProcessPoolExecutor(max_workers=len(slices)) as pool:
        outcomes = list(
            pool.map(_fleet_worker, [(address, chunk) for chunk in slices])
        )
    seconds = time.perf_counter() - started
    probabilities = [p for chunk, _ in outcomes for p in chunk]
    n_solves = sum(count for _, count in outcomes)
    return probabilities, n_solves, seconds


def test_cache_shard(record_result, tmp_path):
    db = _database()
    queries = _queries()
    n_cpus = _usable_cpus()

    # Unsharded reference: the bit-identity anchor.
    plain = PreferenceService(backend="serial")
    started = time.perf_counter()
    reference = plain.answer_many(queries, db)
    serial_seconds = time.perf_counter() - started
    assert reference.n_distinct_solves == N_SESSIONS

    # Embedded shards: same process, sharded warm tier.
    embedded = PreferenceService(backend="serial", cache_shards=N_SHARDS)
    embedded_batch = embedded.answer_many(queries, db)
    assert embedded_batch.values == reference.values
    embedded.cache.close()

    # Attached fleet, disjoint slices, cold, with per-shard write-back.
    stem = tmp_path / "shard-fleet.sqlite"
    slices = [queries[index::N_FLEET] for index in range(N_FLEET)]
    expected = [
        p for chunk in slices for p in
        (reference.values[queries.index(q)] for q in chunk)
    ]
    with ShardCacheServer(n_shards=N_SHARDS, cache_db=stem) as server:
        fleet_probs, fleet_solves, fleet_seconds = _run_fleet(
            server.address, slices
        )
    assert fleet_probs == expected
    assert fleet_solves == N_SESSIONS

    # Warm-fleet restart: a NEW server over the same shard files, NEW
    # workers — nothing may be solved again.
    with ShardCacheServer(n_shards=N_SHARDS, cache_db=stem) as server:
        warm_probs, warm_solves, warm_seconds = _run_fleet(
            server.address, slices
        )
    assert warm_probs == expected
    assert warm_solves == 0

    # Shared corpus: every worker races the FULL set against a fresh
    # server; fleet-wide single-flight admits one solve per session.
    with ShardCacheServer(n_shards=N_SHARDS) as server:
        shared_probs, shared_solves, shared_seconds = _run_fleet(
            server.address, [list(queries)] * N_FLEET
        )
    assert shared_probs == reference.values * N_FLEET
    assert shared_solves == N_SESSIONS

    scaling = serial_seconds / max(fleet_seconds, 1e-12)
    required_scaling = N_FLEET / MAX_SCALING_GAP
    enforce_scaling = n_cpus >= 2 and not QUICK
    report = {
        "config": {
            "n_movies": N_MOVIES,
            "n_sessions": N_SESSIONS,
            "n_fleet": N_FLEET,
            "n_shards": N_SHARDS,
            "quick": QUICK,
            "n_cpus": n_cpus,
            "seed": SEED,
        },
        "scenarios": {
            "serial_unsharded": {"seconds": serial_seconds},
            "fleet_cold_disjoint": {
                "seconds": fleet_seconds,
                "distinct_solves": fleet_solves,
                "speedup_vs_serial": scaling,
            },
            "fleet_warm_restart": {
                "seconds": warm_seconds,
                "distinct_solves": warm_solves,
            },
            "fleet_shared_corpus": {
                "seconds": shared_seconds,
                "distinct_solves": shared_solves,
            },
        },
        "identity_bar": {
            "required": 0.0,
            "measured": 0.0,
            "enforced": True,
            "reason": None,
        },
        "warm_restart_bar": {
            "required": 0,
            "measured": warm_solves,
            "enforced": True,
            "reason": None,
        },
        "single_flight_bar": {
            "required": N_SESSIONS,
            "measured": shared_solves,
            "enforced": True,
            "reason": None,
        },
        "scaling_bar": {
            "required": required_scaling,
            "measured": scaling,
            "enforced": enforce_scaling,
            "reason": None if enforce_scaling else (
                "quick mode" if QUICK
                else "single-core host cannot express the bar"
            ),
        },
    }
    if not QUICK:
        JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    record_result(
        ExperimentResult(
            experiment="cache_shard",
            headers=["scenario", "distinct_solves", "seconds"],
            rows=[
                ["serial_unsharded", N_SESSIONS, serial_seconds],
                ["fleet_cold_disjoint", fleet_solves, fleet_seconds],
                ["fleet_warm_restart", warm_solves, warm_seconds],
                ["fleet_shared_corpus", shared_solves, shared_seconds],
            ],
            notes={
                "n_cpus": n_cpus,
                "fleet_speedup": round(scaling, 2),
                "scaling_bar_enforced": enforce_scaling,
            },
        )
    )

    if enforce_scaling:
        assert scaling >= required_scaling, (
            f"fleet of {N_FLEET} scaled {scaling:.2f}x over serial, "
            f"required {required_scaling:.2f}x on {n_cpus} CPUs"
        )
