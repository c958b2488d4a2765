"""The serving front-end's request coalescer on live concurrent traffic.

Not a paper figure: this benchmark covers the server PR (DESIGN.md
Section 11).  A 50-request overlapping mixed-kind workload (the
``batch_queries`` templates cycled through plain/COUNT/TOPK/AGG forms)
is served two ways through the full :class:`ServerApp` route — protocol
decode, admission, coalescer, metrics:

* **per-request baseline** — ``window_seconds=0`` and a capacity-1
  cache: request-at-a-time serving without the shared cache tier, the
  pre-coalescer cost of the workload (a warm shared cache is also
  measured and recorded, unenforced, for context);
* **coalesced** — concurrent clients land in one coalescing window and
  are planned as one batch, so the planner's mixed-kind dedup and
  cross-query common-solve elimination run on live traffic.

Acceptance bars:

* the coalesced serving executes **>= 2x fewer** distinct solves than
  the per-request baseline over the same 50 requests;
* coalesced answers are **bit-identical** to sequential
  ``answer()`` calls for every request;
* ``/stats`` reports p50/p95/p99 latency and a coalesce ratio **> 1**.

``BENCH_SERVER_QUICK=1`` shrinks the workload for CI smoke runs.
Full runs write ``benchmarks/BENCH_server.json`` (committed); every run
writes ``benchmarks/results/`` like every other benchmark.
"""

import asyncio
import json
import os
import time
from pathlib import Path

from repro.__main__ import batch_queries
from repro.api.evaluate import answer
from repro.evaluation.experiments import ExperimentResult
from repro.server.app import ServerApp
from repro.server.config import ServerConfig
from repro.server.protocol import jsonable

QUICK = os.environ.get("BENCH_SERVER_QUICK") == "1"
N_REQUESTS = 12 if QUICK else 50
N_SESSIONS = 20 if QUICK else 50
N_MOVIES = 6 if QUICK else 8
MIN_SOLVE_RATIO = 2.0
DB_SEED = 7

JSON_PATH = Path(__file__).parent / "BENCH_server.json"

_KIND_WRAPPERS = (
    lambda text: text,
    lambda text: f"COUNT {text}",
    lambda text: f"TOPK 3 {text}",
    lambda text: f"AGG mean(V.age) {text}",
)


def mixed_corpus(n_requests: int) -> list[str]:
    """Overlapping mixed-kind traffic: all four kinds over hot queries.

    Live traffic repeats: a small family of hot queries is asked over and
    over, under different kinds (the dashboard wants the COUNT, the
    ranking page the TOPK, of the same filter).  Each pass over the
    distinct queries switches the kind, so every query recurs under
    several kinds across the corpus — exactly what mixed-kind dedup and
    cross-query elimination collapse when the window merges them.
    """
    distinct = batch_queries(max(4, n_requests // 4))
    return [
        _KIND_WRAPPERS[(index // len(distinct)) % len(_KIND_WRAPPERS)](
            distinct[index % len(distinct)]
        )
        for index in range(n_requests)
    ]


def make_app(**overrides) -> ServerApp:
    overrides.setdefault("sessions", N_SESSIONS)
    overrides.setdefault("movies", N_MOVIES)
    overrides.setdefault("seed", DB_SEED)
    overrides.setdefault("backend", "serial")
    overrides.setdefault("port", 0)
    overrides.setdefault("max_pending_total", 4 * N_REQUESTS)
    overrides.setdefault("max_pending_per_client", 4 * N_REQUESTS)
    return ServerApp(ServerConfig(**overrides))


async def serve_corpus(app: ServerApp, corpus, concurrent: bool):
    """Answer the corpus through the full route; return encoded payloads."""
    try:
        if concurrent:
            responses = await asyncio.gather(
                *(
                    app.handle("POST", "/answer", text, f"client-{i}")
                    for i, text in enumerate(corpus)
                )
            )
        else:
            responses = [
                await app.handle("POST", "/answer", text, f"client-{i}")
                for i, text in enumerate(corpus)
            ]
    finally:
        await app.shutdown()
    for status, payload, _ in responses:
        assert status == 200, payload
    return [payload for _, payload, _ in responses]


def distinct_solves(app: ServerApp) -> int:
    return app.metrics.snapshot()["coalescing"]["n_distinct_solves"]


def test_server_coalescing(record_result):
    corpus = mixed_corpus(N_REQUESTS)

    # --- per-request baseline: window 0, no shared cache tier ----------
    baseline_app = make_app(window_seconds=0, cache_capacity=1)
    baseline_started = time.perf_counter()
    asyncio.run(serve_corpus(baseline_app, corpus, concurrent=False))
    baseline_seconds = time.perf_counter() - baseline_started
    baseline_solves = distinct_solves(baseline_app)

    # --- context: request-at-a-time with the default shared cache ------
    cached_app = make_app(window_seconds=0)
    asyncio.run(serve_corpus(cached_app, corpus, concurrent=False))
    cached_baseline_solves = distinct_solves(cached_app)

    # --- coalesced: concurrent clients merged into planned batches -----
    coalesced_app = make_app(window_seconds=0.25, max_batch=2 * N_REQUESTS)
    coalesced_started = time.perf_counter()
    payloads = asyncio.run(
        serve_corpus(coalesced_app, corpus, concurrent=True)
    )
    coalesced_seconds = time.perf_counter() - coalesced_started
    coalesced_solves = distinct_solves(coalesced_app)
    stats = coalesced_app.handle_stats()

    # --- bit-identity vs sequential answer() ---------------------------
    db = coalesced_app.db
    for text, payload in zip(corpus, payloads):
        want = answer(text, db)
        assert payload["value"] == jsonable(want.value), text
        assert payload["kind"] == want.kind

    # --- the bars -------------------------------------------------------
    solve_ratio = baseline_solves / max(coalesced_solves, 1)
    assert solve_ratio >= MIN_SOLVE_RATIO, (
        f"coalesced serving executed {coalesced_solves} distinct solves vs "
        f"{baseline_solves} per-request; ratio {solve_ratio:.2f}x < "
        f"{MIN_SOLVE_RATIO}x"
    )
    coalescing = stats["coalescing"]
    assert coalescing["coalesce_ratio"] > 1.0
    assert coalescing["n_solves_eliminated"] > 0
    latency = stats["latency_seconds"]
    for percentile in ("p50", "p95", "p99"):
        assert latency[percentile] > 0
    assert latency["p50"] <= latency["p95"] <= latency["p99"]

    report = {
        "config": {
            "n_requests": N_REQUESTS,
            "n_sessions": N_SESSIONS,
            "n_movies": N_MOVIES,
            "quick": QUICK,
            "seed": DB_SEED,
            "kinds": ["probability", "count", "top_k", "aggregate"],
        },
        "solves": {
            "per_request_baseline": baseline_solves,
            "per_request_with_shared_cache": cached_baseline_solves,
            "coalesced": coalesced_solves,
            "planned": coalescing["n_solves_planned"],
            "eliminated": coalescing["n_solves_eliminated"],
        },
        "solve_ratio": {
            "required": MIN_SOLVE_RATIO,
            "measured": solve_ratio,
            "enforced": True,
        },
        "coalescing": {
            "n_batches": coalescing["n_batches"],
            "coalesce_ratio": coalescing["coalesce_ratio"],
            "largest_batch": coalescing["largest_batch"],
        },
        "latency_seconds": {
            "p50": latency["p50"],
            "p95": latency["p95"],
            "p99": latency["p99"],
        },
        "equivalence": {"bit_identical_to_sequential_answer": True},
        "timings": {
            "per_request_seconds": baseline_seconds,
            "coalesced_seconds": coalesced_seconds,
        },
    }
    if not QUICK:
        JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    record_result(
        ExperimentResult(
            experiment="server_coalescing",
            headers=["serving", "distinct_solves", "seconds"],
            rows=[
                ["per-request (window=0)", baseline_solves, baseline_seconds],
                [
                    "per-request + shared cache",
                    cached_baseline_solves,
                    float("nan"),
                ],
                ["coalesced window", coalesced_solves, coalesced_seconds],
            ],
            notes={
                "solve_ratio": round(solve_ratio, 2),
                "coalesce_ratio": round(coalescing["coalesce_ratio"], 2),
                "p95_ms": round(latency["p95"] * 1000, 2),
                "quick": QUICK,
            },
        )
    )
