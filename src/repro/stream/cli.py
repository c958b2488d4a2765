"""``python -m repro replay`` — stream synthetic traffic through
standing queries.

Example::

    python -m repro replay --steps 8 --sessions 24 --queries 6
    python -m repro replay --steps 5 --shards 4 --verify

Each step applies one seeded arrival/update/expiry batch from the
:class:`~repro.stream.replay.TrafficReplayer`, refreshes the stale
standing queries through the shared warm cache, and prints what the
incremental maintenance actually did: how many registrations went stale,
how many solves ran fresh (vs. the full re-evaluation a snapshot system
would pay), and how many retired cache entries the targeted invalidation
reclaimed.  ``--verify`` re-answers every registration from scratch
after every step and asserts bit-identical materialized answers.
"""

from __future__ import annotations

import sys
import time


def add_replay_parser(subparsers) -> None:
    """Register the ``replay`` subcommand on the ``python -m repro`` parser."""
    parser = subparsers.add_parser(
        "replay",
        help="stream synthetic session traffic through standing queries",
    )
    parser.add_argument(
        "--steps", type=int, default=8,
        help="generation steps to replay (each: arrivals+updates+expiries)",
    )
    parser.add_argument(
        "--sessions", type=int, default=24,
        help="sessions live at generation 0",
    )
    parser.add_argument(
        "--pool", type=int, default=8,
        help="registered workers waiting to arrive",
    )
    parser.add_argument(
        "--movies", type=int, default=8, help="catalog size"
    )
    parser.add_argument(
        "--queries", type=int, default=6,
        help="standing queries to register (cycles all four kinds)",
    )
    parser.add_argument(
        "--arrivals", type=int, default=1, help="session arrivals per step"
    )
    parser.add_argument(
        "--updates", type=int, default=2, help="model updates per step"
    )
    parser.add_argument(
        "--expirations", type=int, default=1,
        help="session expirations per step",
    )
    parser.add_argument(
        "--method", default="auto",
        help="solver method (default: auto; sampled methods draw at the "
        "library's default seed)",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="back the engine with a sharded cache tier "
        "(repro.service.shard) instead of the plain LRU",
    )
    parser.add_argument(
        "--capacity", type=int, default=4096, help="solver-cache capacity"
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="after every step, re-answer each registration from scratch "
        "and assert bit-identical materialized answers",
    )
    parser.add_argument("--seed", type=int, default=7)


def run_replay(args) -> int:
    """Drive a replay session and print the per-step maintenance table."""
    from repro.api import answer
    from repro.evaluation.harness import format_table
    from repro.service.cache import SolverCache
    from repro.service.shard import ShardGroup
    from repro.stream.replay import TrafficReplayer
    from repro.stream.standing import StandingQueryEngine, answers_equal

    if args.steps < 1 or args.queries < 1:
        print("--steps and --queries must be >= 1", file=sys.stderr)
        return 2
    try:
        replayer = TrafficReplayer(
            n_active=args.sessions,
            n_pool=args.pool,
            n_movies=args.movies,
            arrivals=args.arrivals,
            updates=args.updates,
            expirations=args.expirations,
            seed=args.seed,
        )
        cache = SolverCache(
            args.capacity,
            [ShardGroup(args.shards, args.capacity)]
            if args.shards is not None
            else [],
        )
        engine = StandingQueryEngine(
            replayer.db, cache=cache, method=args.method, auto_refresh=False
        )
    except ValueError as error:
        print(f"cannot build replay session: {error}", file=sys.stderr)
        return 2

    requests = replayer.standing_requests(args.queries)
    registered = [engine.register(text) for text in requests]
    cold = engine.stats()
    print(
        f"== replay: {args.queries} standing queries, "
        f"{args.sessions}+{args.pool} sessions, {args.steps} steps "
        f"(seed={args.seed}"
        + (f", shards={args.shards}" if args.shards is not None else "")
        + ") =="
    )
    print(
        f"registered: {int(cold['count'])} queries, "
        f"{int(cold['fresh_solves'])} cold solves"
    )

    rows = []
    verified = 0
    for step_index in range(1, args.steps + 1):
        deltas = replayer.step()
        before = engine.stats()
        started = time.perf_counter()
        refreshed = engine.refresh()
        seconds = time.perf_counter() - started
        after = engine.stats()
        kinds = [delta.kind for delta in deltas]
        rows.append(
            [
                step_index,
                replayer.db.generation,
                kinds.count("add"),
                kinds.count("update"),
                kinds.count("expire"),
                len(refreshed),
                int(after["fresh_solves"] - before["fresh_solves"]),
                int(
                    after["invalidations_applied"]
                    - before["invalidations_applied"]
                ),
                seconds,
            ]
        )
        if args.verify:
            for standing in registered:
                reference = answer(
                    standing.request, replayer.db, method=standing.method
                )
                if not answers_equal(standing.answer, reference):
                    print(
                        f"VERIFY FAILED at generation "
                        f"{replayer.db.generation}: standing query "
                        f"{standing.query_id} "
                        f"({standing.request.describe()}) diverged from "
                        "the from-scratch answer",
                        file=sys.stderr,
                    )
                    return 1
                verified += 1
    print(
        format_table(
            ["step", "generation", "adds", "updates", "expires",
             "refreshed", "fresh_solves", "invalidated", "seconds"],
            rows,
        )
    )
    final = engine.stats()
    cache_stats = cache.stats()
    print(
        f"steady state: {int(final['fresh_solves'] - cold['fresh_solves'])} "
        f"fresh solves over {args.steps} steps, "
        f"{int(final['invalidations_applied'])} cache entries retired, "
        f"max staleness {int(final['max_staleness'])}"
    )
    print(
        f"cache: hits={cache_stats.hits}, misses={cache_stats.misses}, "
        f"size={cache_stats.size}, invalidations={cache_stats.invalidations}"
    )
    if args.verify:
        print(
            f"verified: {verified} materialized answers bit-identical to "
            "from-scratch evaluation"
        )
    engine.close()
    cache.close()
    return 0
