"""Command-line entry point: reproduce a paper figure or run the demo.

Usage::

    python -m repro list                 # available experiments
    python -m repro figure 5             # run Figure 5 at default scale
    python -m repro figure 10a --fast    # quick, smaller parameters
    python -m repro demo                 # the quickstart walkthrough
    python -m repro batch                # batch serving + solver cache demo
    python -m repro explain "<query>"    # cost-annotated query plan
    python -m repro query "<request>"    # one-shot evaluation of any kind
    python -m repro serve                # coalescing HTTP/JSON front-end
    python -m repro replay               # standing queries over live traffic
    python -m repro lint [paths]         # project-invariant static analysis

The ``query`` and ``explain`` commands accept the unified request grammar
(:mod:`repro.api.requests`): plain CQ text evaluates the Boolean
probability, and the ``COUNT ...``, ``TOPK k ...``, and
``AGG stat(Relation.column) ...`` prefixes select the aggregate kinds —
e.g. ``python -m repro query "TOPK 3 P(v; m1; m2), M(m1, 'Comedy', _, _,
_)"``.

Each figure command prints the same rows/series the paper's figure reports
(see EXPERIMENTS.md for the paper-vs-measured record).  The ``batch``
command runs a repeated CrowdRank-style workload through the
:class:`~repro.service.service.PreferenceService`, showing the cross-query
solver cache warming up pass over pass.
"""

from __future__ import annotations

import argparse
import sqlite3
import sys

from repro.evaluation import experiments
from repro.evaluation.harness import format_table

#: Experiment name -> (runner, fast-scale keyword arguments).
EXPERIMENTS = {
    "4": (experiments.figure_4, {"m_values": (6, 8), "sessions_per_m": 2}),
    "5": (experiments.figure_5, {"n_unions": 2, "m": 7}),
    "6": (
        experiments.figure_6,
        {"m_values": (10, 14), "patterns_per_union": (2, 3), "time_budget": 2.0},
    ),
    "7a": (
        experiments.figure_7a,
        {"m_values": (6, 8), "labels_per_pattern": (2, 3), "instances_per_cell": 1},
    ),
    "7b": (
        experiments.figure_7b,
        {"m_values": (6, 8), "patterns_per_union": (1, 2), "instances_per_cell": 1},
    ),
    "8": (experiments.figure_8, {"k_values": (1, 5), "n_voters": 40}),
    "9": (
        experiments.figure_9,
        {"m_values": (4, 5), "repeats": 1, "rs_max_samples": 100_000},
    ),
    "10a": (
        experiments.figure_10,
        {"benchmark": "a", "d_values": (1, 5), "n_instances": 3, "m": 8},
    ),
    "10b": (
        experiments.figure_10,
        {"benchmark": "c", "d_values": (1, 5), "n_instances": 3, "m": 7},
    ),
    "11": (experiments.figure_11, {"d_values": (1, 5), "n_instances": 3, "m": 8}),
    "12": (experiments.figure_12, {"n_instances": 4, "m": 7}),
    "13a": (
        experiments.figure_13a,
        {"labels_per_pattern": (3, 4), "items_per_label": (3,), "m": 15},
    ),
    "13b": (
        experiments.figure_13b,
        {"m_values": (20, 50), "labels_per_pattern": (3,)},
    ),
    "14": (
        experiments.figure_14,
        {"m_values": (15, 30), "n_users": 2, "n_components": 2,
         "n_per_proposal": 40, "max_proposals": 5},
    ),
    "15": (
        experiments.figure_15,
        {"session_counts": (10, 100), "naive_limit": 100, "n_movies": 6},
    ),
    "accuracy": (
        experiments.accuracy_table,
        {"m": 8, "n_sessions": 5, "n_voters": 15},
    ),
}


#: Query templates over the CrowdRank schema M(id, genre, lead_sex,
#: lead_age, duration), V(voter, sex, age), P(voter); ``{genre}`` /
#: ``{sex}`` / ``{duration}`` are filled by :func:`batch_queries`.
_BATCH_TEMPLATES = (
    "P(v; m1; m2), M(m1, '{genre}', _, _, _), M(m2, _, _, _, '{duration}')",
    "P(v; m1; m2), M(m1, _, '{sex}', _, _), M(m2, 'Thriller', _, _, _)",
    "P(v; m1; m2), V(v, sex, _), M(m1, _, sex, _, _), "
    "M(m2, _, _, _, '{duration}')",
    "P(v; m1; m2), P(v; m2; m3), M(m1, '{genre}', _, _, _), "
    "M(m2, _, '{sex}', _, _), M(m3, _, _, _, '{duration}')",
)


def batch_queries(n_queries: int) -> list[str]:
    """A deterministic family of CrowdRank-style queries for batch demos.

    Cycles the templates through genre/sex/duration parameters, mimicking a
    session of near-identical repeated traffic — the workload shape the
    cross-query solver cache exploits (consensus-answer workloads of
    Li & Deshpande 2008 hammer the same sessions with such families).
    """
    from repro.datasets.crowdrank import DURATIONS, GENRES, SEXES

    queries = []
    for index in range(n_queries):
        template = _BATCH_TEMPLATES[index % len(_BATCH_TEMPLATES)]
        queries.append(
            template.format(
                genre=GENRES[index % len(GENRES)],
                sex=SEXES[index % len(SEXES)],
                duration=DURATIONS[index % len(DURATIONS)],
            )
        )
    return queries


def _check_method(method: str) -> bool:
    """Validate a --method value, printing the available names on failure."""
    from repro.plan.methods import APPROXIMATE_METHODS, AUTO_METHODS
    from repro.solvers.dispatch import available_methods

    known_methods = AUTO_METHODS + available_methods() + APPROXIMATE_METHODS
    if method in known_methods:
        return True
    print(
        f"unknown method {method!r}; available: {', '.join(known_methods)}",
        file=sys.stderr,
    )
    return False


def run_batch(args) -> int:
    """Serve a repeated query batch through a PreferenceService."""
    from repro.datasets.crowdrank import crowdrank_database
    from repro.service.executors import resolve_backend
    from repro.service.service import PreferenceService

    if not _check_method(args.method):
        return 2
    if args.capacity < 1:
        print(f"--capacity must be >= 1, got {args.capacity}", file=sys.stderr)
        return 2

    db = crowdrank_database(
        n_workers=args.sessions, n_movies=args.movies, seed=args.seed
    )
    queries = batch_queries(args.queries)
    options = (
        {"approx_budget": args.approx_budget}
        if args.approx_budget is not None
        else {}
    )
    try:
        service = PreferenceService(
            cache_capacity=args.capacity,
            method=args.method,
            max_workers=args.workers,
            backend=args.backend,
            cache_db=args.cache_db,
            cache_shards=args.cache_shards,
            shard_address=args.shard_address,
            **options,
        )
    except ValueError as error:
        print(f"cannot build service: {error}", file=sys.stderr)
        return 2
    except sqlite3.DatabaseError as error:
        print(f"cannot open --cache-db {args.cache_db}: {error}", file=sys.stderr)
        return 2
    rows = []
    for pass_index in range(1, args.repeat + 1):
        batch = service.answer_many(queries, db, seed=args.seed)
        rows.append(
            [
                pass_index,
                batch.n_requests,
                batch.n_sessions,
                batch.n_distinct_solves,
                batch.n_cache_hits,
                batch.seconds,
                batch.n_requests / batch.seconds if batch.seconds else 0.0,
            ]
        )
    tier = f", cache_db={args.cache_db}" if args.cache_db else ""
    if args.cache_shards is not None:
        tier += f", cache_shards={args.cache_shards}"
    if args.shard_address is not None:
        tier += f", shard_address={args.shard_address}"
    print(
        f"== batch serving: {args.queries} queries x {args.repeat} passes "
        f"(backend={resolve_backend(args.backend).name}{tier}) =="
    )
    print(
        format_table(
            ["pass", "queries", "sessions", "distinct_solves", "cache_hits",
             "seconds", "queries_per_s"],
            rows,
        )
    )
    stats = service.stats()
    print(
        "cache: "
        + ", ".join(f"{name}={stats[name]}" for name in
                    ("hits", "misses", "evictions", "size", "capacity"))
        + f", hit_rate={stats['hit_rate']:.3f}"
    )
    print(
        "planner: "
        + ", ".join(f"{name}={stats[name]}" for name in
                    ("n_solves_planned", "n_solves_eliminated",
                     "n_passes_applied"))
    )
    if "disk_size" in stats:
        print(
            "disk tier: "
            + ", ".join(f"{name}={stats[name]}" for name in
                        ("disk_hits", "disk_misses", "disk_size"))
        )
    if "n_shards" in stats:
        print(
            "shard tier: "
            + ", ".join(f"{name}={stats[name]}" for name in
                        ("n_shards", "shard_hits", "shard_misses",
                         "shard_size"))
        )
    return 0


def _load_dataset(args):
    """The database an ad-hoc CLI request runs against."""
    if args.dataset == "polls":
        from repro.db.examples import polling_example

        return polling_example()
    from repro.datasets.crowdrank import crowdrank_database

    return crowdrank_database(
        n_workers=args.sessions, n_movies=args.movies, seed=args.seed
    )


def run_explain(args) -> int:
    """Render the cost-annotated, optimized plan of one request (or several).

    The plan is built and optimized but *not* executed — ``explain`` is the
    cheap pre-flight view of what evaluation would do: the sessions each
    request selects, the compiled pattern unions, the surviving solve
    frontier with resolved solvers and DP state-count estimates, the
    per-kind terminal (probability / count / top-k / attribute aggregate),
    and how many solves the optimizer eliminated.
    """
    from repro.api.requests import parse_request
    from repro.plan import build_plan, optimize_plan
    from repro.query.classify import UnsupportedQueryError

    if not _check_method(args.method):
        return 2
    db = _load_dataset(args)
    try:
        requests = [parse_request(text) for text in args.query]
        plan = build_plan(requests, db, method=args.method)
        if not args.no_optimize:
            optimize_plan(plan, canonical=True)
        print(plan.explain())
    except (UnsupportedQueryError, ValueError, KeyError) as error:
        # KeyError: an AGG request whose relation/column/session row is
        # missing fails at plan-build time (the attribute join).
        print(f"cannot plan query: {error}", file=sys.stderr)
        return 2
    return 0


def run_query(args) -> int:
    """One-shot evaluation of any request kind through the unified API."""
    from repro.api import answer, parse_request
    from repro.query.classify import UnsupportedQueryError

    if not _check_method(args.method):
        return 2
    db = _load_dataset(args)
    try:
        request = parse_request(args.query)
        result = answer(request, db, method=args.method, seed=args.seed)
    except (UnsupportedQueryError, ValueError, KeyError) as error:
        print(f"cannot evaluate query: {error}", file=sys.stderr)
        return 2
    print(f"request: {request.describe()}")
    print(f"kind: {result.kind}")
    if result.kind == "probability":
        print(f"Pr(Q | D) = {result.value:.6f}")
    elif result.kind == "count":
        print(f"E[count(Q)] = {result.value:.6f}")
    elif result.kind == "aggregate":
        print(
            f"E[{request.statistic}({request.relation}.{request.column})"
            f" | count(Q) > 0] = {result.value:.6f}"
        )
        print(
            f"probability_any = {result.stats['probability_any']:.6f}, "
            f"weighted_average = {result.stats['weighted_average']:.6f} "
            f"(n_worlds = {result.stats['n_worlds']})"
        )
    else:  # top_k
        print(
            f"top-{request.k} sessions "
            f"(strategy={request.strategy}, "
            f"exact={result.stats['n_exact_evaluations']}, "
            f"pruned={result.stats['n_pruned']}):"
        )
        print(
            format_table(
                ["rank", "session", "probability"],
                [
                    [rank + 1, repr(key), probability]
                    for rank, (key, probability) in enumerate(result.value)
                ],
            )
        )
    methods = ", ".join(result.methods) if result.methods else "(none)"
    print(
        f"sessions={result.n_sessions}, resolved_methods=[{methods}], "
        f"seconds={result.seconds:.3f}"
    )
    return 0


def run_figure(name: str, fast: bool) -> int:
    try:
        runner, fast_kwargs = EXPERIMENTS[name]
    except KeyError:
        print(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    result = runner(**fast_kwargs) if fast else runner()
    print(f"== {result.experiment} ==")
    print(format_table(result.headers, result.rows))
    if result.notes:
        print(f"notes: {result.notes}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    figure_parser = subparsers.add_parser(
        "figure", help="reproduce one figure of the paper"
    )
    figure_parser.add_argument("name", help="figure id, e.g. 5, 10a, accuracy")
    figure_parser.add_argument(
        "--fast", action="store_true",
        help="smaller parameters (seconds instead of minutes)",
    )
    subparsers.add_parser("demo", help="run the quickstart walkthrough")
    batch_parser = subparsers.add_parser(
        "batch",
        help="serve a repeated query batch through the solver cache",
    )
    batch_parser.add_argument(
        "--queries", type=int, default=12, help="queries per pass"
    )
    batch_parser.add_argument(
        "--sessions", type=int, default=200, help="CrowdRank sessions"
    )
    batch_parser.add_argument(
        "--movies", type=int, default=8, help="CrowdRank catalog size"
    )
    batch_parser.add_argument(
        "--repeat", type=int, default=2,
        help="number of passes over the same batch (pass 2+ is cache-warm)",
    )
    batch_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker-pool size of a thread or process backend "
        "(default: min(8, cpu_count); 1 solves in-process)",
    )
    batch_parser.add_argument(
        "--backend", choices=("serial", "thread", "process"), default=None,
        help="execution backend for distinct solves (default: serial; "
        "process scales the exact DP solvers across cores)",
    )
    batch_parser.add_argument(
        "--cache-db", default=None, metavar="PATH",
        help="SQLite file for the persistent cache tier (warm state "
        "survives restarts; with --cache-shards: the stem of the "
        "per-shard files)",
    )
    batch_parser.add_argument(
        "--cache-shards", type=int, default=None, metavar="N",
        help="shard the warm cache tier N ways (repro.service.shard)",
    )
    batch_parser.add_argument(
        "--shard-address", default=None, metavar="HOST:PORT",
        help="join a running ShardCacheServer as one worker of a fleet "
        "(excludes --cache-db/--cache-shards)",
    )
    batch_parser.add_argument(
        "--capacity", type=int, default=4096, help="solver-cache capacity"
    )
    batch_parser.add_argument(
        "--method", default="auto",
        help="solver method (default: auto dispatch; 'auto-approx' falls "
        "back to MIS-AMP above the state-count budget)",
    )
    batch_parser.add_argument(
        "--approx-budget", type=float, default=None, metavar="STATES",
        help="auto-approx state-count budget (default: the planner's 5e7)",
    )
    batch_parser.add_argument("--seed", type=int, default=7)

    explain_parser = subparsers.add_parser(
        "explain",
        help="render the cost-annotated query plan without executing it",
    )
    explain_parser.add_argument(
        "query", nargs="+",
        help="query text(s); several queries plan as one batch",
    )
    explain_parser.add_argument(
        "--dataset", choices=("crowdrank", "polls"), default="crowdrank",
        help="database to plan against (default: a seeded CrowdRank)",
    )
    explain_parser.add_argument(
        "--method", default="auto",
        help="solver method (default: auto; 'auto-approx' shows the "
        "budgeted MIS-AMP fallback)",
    )
    explain_parser.add_argument(
        "--no-optimize", action="store_true",
        help="show the unoptimized logical plan (one solve per session)",
    )
    explain_parser.add_argument(
        "--sessions", type=int, default=50, help="CrowdRank sessions"
    )
    explain_parser.add_argument(
        "--movies", type=int, default=8, help="CrowdRank catalog size"
    )
    explain_parser.add_argument("--seed", type=int, default=7)

    query_parser = subparsers.add_parser(
        "query",
        help="evaluate one request of any kind (unified request grammar)",
    )
    query_parser.add_argument(
        "query",
        help="request text: a CQ, or COUNT / TOPK k / AGG stat(R.col) "
        "prefixed forms",
    )
    query_parser.add_argument(
        "--dataset", choices=("crowdrank", "polls"), default="crowdrank",
        help="database to evaluate against (default: a seeded CrowdRank)",
    )
    query_parser.add_argument(
        "--method", default="auto",
        help="solver method (default: auto dispatch; sampled solves and "
        "aggregates draw from --seed)",
    )
    query_parser.add_argument(
        "--sessions", type=int, default=50, help="CrowdRank sessions"
    )
    query_parser.add_argument(
        "--movies", type=int, default=8, help="CrowdRank catalog size"
    )
    query_parser.add_argument("--seed", type=int, default=7)

    from repro.server.cli import add_serve_parser

    add_serve_parser(subparsers)

    from repro.stream.cli import add_replay_parser

    add_replay_parser(subparsers)

    from repro.analysis.cli import add_lint_parser

    add_lint_parser(subparsers)

    args = parser.parse_args(argv)
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            runner, _ = EXPERIMENTS[name]
            summary = (runner.__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {summary}")
        return 0
    if args.command == "figure":
        return run_figure(args.name, args.fast)
    if args.command == "batch":
        return run_batch(args)
    if args.command == "explain":
        return run_explain(args)
    if args.command == "query":
        return run_query(args)
    if args.command == "serve":
        from repro.server.cli import run_serve

        return run_serve(args)
    if args.command == "replay":
        from repro.stream.cli import run_replay

        return run_replay(args)
    if args.command == "lint":
        from repro.analysis.cli import run_lint

        return run_lint(args)
    if args.command == "demo":
        # The examples directory is not an installed package; run the
        # quickstart by path so `python -m repro demo` works from a clone.
        import runpy
        from pathlib import Path

        script = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
        runpy.run_path(str(script), run_name="__main__")
        return 0
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
