"""``python -m repro serve`` — run the coalescing HTTP front-end.

Example::

    python -m repro serve --port 8642 --sessions 100
    curl -s -X POST http://127.0.0.1:8642/answer \\
        -d '{"request": "COUNT P(v; m1; m2), M(m1, 'Comedy', _, _, _)"}'
    curl -s http://127.0.0.1:8642/stats
    curl -s -X POST http://127.0.0.1:8642/shutdown

``--port 0`` binds an ephemeral port; the bound address is printed (and
flushed) as the first output line, so scripted callers — the CI smoke,
the benchmark — can parse it.  A request is dispatched as soon as the
batch worker is idle; requests that arrive while a batch runs go out
together as the next batch (up to ``--max-batch``).  SIGINT/SIGTERM
trigger the same graceful drain as ``POST /shutdown``.
"""

from __future__ import annotations

import asyncio
import signal
import sys


def add_serve_parser(subparsers) -> None:
    """Register the ``serve`` subcommand on the ``python -m repro`` parser."""
    parser = subparsers.add_parser(
        "serve",
        help="run the asyncio HTTP front-end with request coalescing",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8642,
        help="listening port (0 = ephemeral; the bound address is printed)",
    )
    parser.add_argument(
        "--dataset", choices=("crowdrank", "polls"), default="crowdrank",
        help="database to serve (default: a seeded CrowdRank)",
    )
    parser.add_argument(
        "--sessions", type=int, default=50, help="CrowdRank sessions"
    )
    parser.add_argument(
        "--movies", type=int, default=8, help="CrowdRank catalog size"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--method", default="auto",
        help="default solver method (requests may override per call)",
    )
    parser.add_argument(
        "--backend", choices=("serial", "thread", "process"),
        default="thread",
        help="execution backend for each batch's distinct solves",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker-pool size for distinct solves "
        "(default: min(8, cpu_count); 1 = serial)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=64,
        help="most queued requests of one key sent out as one batch",
    )
    parser.add_argument(
        "--max-pending-per-client", type=int, default=32,
        help="admission bound per client (429 + Retry-After on overflow)",
    )
    parser.add_argument(
        "--max-pending-total", type=int, default=256,
        help="server-wide admission bound",
    )
    parser.add_argument(
        "--capacity", type=int, default=4096, help="solver-cache capacity"
    )
    parser.add_argument(
        "--cache-db", default=None, metavar="PATH",
        help="SQLite file for the persistent cache tier (with "
        "--cache-shards: the stem of the per-shard files)",
    )
    parser.add_argument(
        "--cache-shards", type=int, default=None, metavar="N",
        help="shard the warm cache tier N ways (repro.service.shard)",
    )
    parser.add_argument(
        "--shard-address", default=None, metavar="HOST:PORT",
        help="join a running ShardCacheServer as one worker of a fleet "
        "(excludes --cache-db/--cache-shards)",
    )
    parser.add_argument(
        "--approx-budget", type=float, default=None, metavar="STATES",
        help="state-count budget, required when --method auto-approx",
    )


def config_from_args(args):
    """Build the :class:`~repro.server.config.ServerConfig` of the flags."""
    from repro.server.config import ServerConfig

    solver_options = {}
    if args.approx_budget is not None:
        solver_options["approx_budget"] = args.approx_budget
    return ServerConfig(
        host=args.host,
        port=args.port,
        dataset=args.dataset,
        sessions=args.sessions,
        movies=args.movies,
        seed=args.seed,
        method=args.method,
        backend=args.backend,
        max_workers=args.workers,
        cache_capacity=args.capacity,
        cache_db=args.cache_db,
        cache_shards=args.cache_shards,
        shard_address=args.shard_address,
        solver_options=solver_options,
        max_batch=args.max_batch,
        max_pending_per_client=args.max_pending_per_client,
        max_pending_total=args.max_pending_total,
    )


def run_serve(args) -> int:
    """Entry point of the ``serve`` subcommand."""
    from repro.server.app import ServerApp
    from repro.server.http import run_server

    try:
        config = config_from_args(args)
        app = ServerApp(config)
    except ValueError as error:
        print(f"cannot start server: {error}", file=sys.stderr)
        return 2

    def ready(server):
        print(f"serving on {server.address}", flush=True)
        print(
            f"dataset={config.dataset} sessions={config.sessions} "
            f"method={config.method} backend={config.backend} "
            f"max_batch={config.max_batch}",
            flush=True,
        )

    async def main():
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, app.shutdown_requested.set
                )
            except NotImplementedError:  # platforms without signal support
                pass
        await run_server(config, ready=ready, app=app)

    asyncio.run(main())
    print("server drained and stopped", flush=True)
    return 0
