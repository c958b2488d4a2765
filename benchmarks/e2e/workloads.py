"""One workload of the end-to-end benchmark, in a fresh process.

``run.py`` starts this script once per workload, so caches, memo tables
and peak RSS never leak from one workload into the next::

    python benchmarks/e2e/workloads.py --workload NAME --seed N --seconds S
        --spawned T [--trace PATH]  time one workload; last stdout line is JSON
    python benchmarks/e2e/workloads.py --probe NAME --seed N --spawned T
        set the workload up until it is warm, print {"setup_s": ...}, exit
    python benchmarks/e2e/workloads.py --reference NAME --seed N
        print the reference answers the golden file holds

``--spawned`` is the ``time.time()`` at which the parent spawned this
process: set-up is timed from it, or for serve-* from the server's spawn.
A timed run reports its own set-up time, the same set-up a probe times.

The inputs are defined here, so that a change to the library cannot
change what the benchmark asks; the library only sees generated inputs.
Each workload runs against one fixed instance -- the served CrowdRank
catalog, the Polls population and its polls, the replayed catalog --
and ``--seed`` drives what streams through it: the request order and
arrival times, the order the polls are answered in, and which stretch of
session traffic is replayed.  Solve costs depend strongly on an instance's labels (across
database seeds 1-10 on a 2-CPU host, the IQR of polls-batch latency was
43% of its median), so a seed that redrew the instances would swamp any
bound.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import loadgen
import numpy as np
import tracing
from common import (
    DEFAULT_SEED,
    EXPECTED,
    HERE,
    ROOT,
    child_env,
    stop_process,
    usable_cpus,
    wait_for_line,
)

# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

#: CrowdRank query families over M(id, genre, lead_sex, lead_age,
#: duration), V(voter, sex, age), P(voter).  The fourth chains three item
#: variables through two P atoms: the hard side of the dichotomy.
CROWDRANK_TEMPLATES = (
    "P(v; m1; m2), M(m1, '{genre}', _, _, _), M(m2, _, _, _, '{duration}')",
    "P(v; m1; m2), M(m1, _, '{sex}', _, _), M(m2, 'Thriller', _, _, _)",
    "P(v; m1; m2), V(v, sex, _), M(m1, _, sex, _, _), "
    "M(m2, _, _, _, '{duration}')",
    "P(v; m1; m2), P(v; m2; m3), M(m1, '{genre}', _, _, _), "
    "M(m2, _, '{sex}', _, _), M(m3, _, _, _, '{duration}')",
)
GENRES = ("Thriller", "Drama", "Comedy", "Action", "Romance")
SEXES = ("F", "M")
DURATIONS = ("short", "long")
KIND_PREFIXES = ("", "COUNT ", "TOPK 3 ", "AGG mean(V.age) ")


def _crowdrank_query(index: int, n_templates: int) -> str:
    return CROWDRANK_TEMPLATES[index % n_templates].format(
        genre=GENRES[index % len(GENRES)],
        sex=SEXES[index % len(SEXES)],
        duration=DURATIONS[index % len(DURATIONS)],
    )


def serve_corpus() -> list[str]:
    """50 overlapping requests: 12 queries cycled through the four kinds.

    Repeated parameters make 8 of the 12 queries distinct, so the corpus
    holds 32 distinct requests that plan to 51 distinct solves.
    """
    queries = [_crowdrank_query(index, 4) for index in range(12)]
    return [
        KIND_PREFIXES[(index // 12) % 4] + queries[index % 12]
        for index in range(50)
    ]


def standing_requests() -> list[str]:
    """The 8 standing requests of stream-refresh, all four kinds."""
    return [
        KIND_PREFIXES[index % 4] + _crowdrank_query(index, 3)
        for index in range(8)
    ]


FIG4_QUERY = "P(_, _; l; r), C(l, p, 'M', _, _, _), C(r, p, 'F', _, _, _)"
FIG8_QUERY = (
    "P(_, date; c1; c2), P(_, date; c1; c3), P(_, date; c1; c4), "
    "C(c1, p, _, _, _, _), C(c2, p, 'F', _, _, _), date = '5/5', "
    "C(c3, _, _, age, _, _), age = 50, C(c4, _, 'M', _, 'BA', _)"
)
#: The paper's hard Polls queries under all four kinds.
POLLS_BATCH = (
    FIG4_QUERY,
    f"COUNT {FIG4_QUERY}",
    f"TOPK 5 {FIG8_QUERY}",
    f"COUNT {FIG8_QUERY}",
    "AGG mean(V.age) P(v, _; l; r), C(l, p, 'M', _, _, _), "
    "C(r, p, 'F', _, _, _)",
    "P(v, '5/5'; l; r), V(v, 'F', _, _), C(l, 'D', _, _, _, _), "
    "C(r, 'R', _, _, _, _)",
)

#: serve-*: share of --seconds in the closed loop; the rest is open loop.
CLOSED_SHARE = 0.75
#: serve-*: open-loop arrival rate, requests per second.
OPEN_RATE = 20.0
#: polls-batch: the fixed polls a run answers, and voters in each poll.
N_POLLS = 8
POLL_SIZE = 200
#: stream-refresh: generations fast-forwarded per unit of seed (mod 40).
SEED_OFFSET = 25
#: stream-refresh: check the standing answers every this many generations.
CHECK_EVERY = 25
#: stream-refresh: generations the golden file holds answers for.
REFERENCE_GENERATIONS = 200

#: The served CrowdRank database (the ``serve`` defaults), pinned so the
#: answer checks can rebuild it.
SERVE_SESSIONS = 50
SERVE_MOVIES = 8
SERVE_DB_SEED = 7
#: serve-miss cache capacity: below the corpus's 51 distinct solves.
MISS_CAPACITY = 16


def serve_command(workload: str, trace_path: "Path | None" = None) -> list[str]:
    """The ``python -m repro serve`` command line of a serve-* workload."""
    flags = [
        "--port", "0", "--dataset", "crowdrank", "--seed", str(SERVE_DB_SEED),
        "--sessions", str(SERVE_SESSIONS), "--movies", str(SERVE_MOVIES),
    ]
    if workload == "serve-miss":
        flags += ["--capacity", str(MISS_CAPACITY)]
    if trace_path is not None:
        return [
            sys.executable, str(HERE / "serve_traced.py"),
            "--trace-out", str(trace_path), "--", *flags,
        ]
    return [sys.executable, "-m", "repro", "serve", *flags]


def crowdrank():
    """The database ``serve_command`` makes the server build."""
    from repro.datasets.crowdrank import crowdrank_database

    return crowdrank_database(
        n_workers=SERVE_SESSIONS, n_movies=SERVE_MOVIES, seed=SERVE_DB_SEED
    )


def polls_population():
    """The Polls instance of the paper's size: 1000 voters, 14 candidates."""
    from repro.datasets.polls import polls_database

    return polls_database(n_candidates=14, n_voters=1000)


def polls(population) -> list:
    """The fixed polls; poll *i* surveys ``POLL_SIZE`` sessions drawn with
    ``default_rng(i)``."""
    return [poll(population, index) for index in range(N_POLLS)]


def poll(population, index: int):
    from repro.db.database import PPDatabase
    from repro.db.schema import PRelation

    sessions = population.prelations["P"]
    keys = list(sessions.session_keys())
    chosen = np.random.default_rng(index).choice(
        len(keys), POLL_SIZE, replace=False
    )
    return PPDatabase(
        orelations=list(population.orelations.values()),
        prelations=[
            PRelation(
                sessions.name,
                sessions.session_columns,
                {keys[i]: sessions.model_of(keys[i]) for i in sorted(chosen)},
            )
        ],
    )


def traffic(seed: int):
    """The replayed session traffic, fast-forwarded to the seed's stretch."""
    from repro.stream.replay import TrafficReplayer

    replayer = TrafficReplayer(n_active=40, n_pool=12, n_movies=8, updates=2)
    for _ in range(SEED_OFFSET * (seed % 40)):
        replayer.step()
    return replayer


def stream_setup(seed: int):
    """The replayer, its engine and the registered standing queries, and
    the seconds the fast-forward took: it positions the input stream and
    is not part of the program's set-up."""
    from repro.stream.standing import StandingQueryEngine

    started = time.perf_counter()
    replayer = traffic(seed)
    positioning = time.perf_counter() - started
    engine = StandingQueryEngine(replayer.db, auto_refresh=False)
    standing = [engine.register(text) for text in standing_requests()]
    return replayer, engine, standing, positioning


def polls_setup() -> list:
    """The fixed polls, after one unmeasured warm-up batch on poll 0."""
    from repro.service.service import PreferenceService

    databases = polls(polls_population())
    PreferenceService().answer_many(POLLS_BATCH, databases[0])
    return databases


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------


def plain(value):
    """An answer value as JSON data (lists and Python numbers)."""
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if hasattr(value, "item"):
        return value.item()
    return value


def close(left, right) -> bool:
    """Equal answers: top-k keys in order, numbers to 1e-9 relative."""
    if isinstance(left, list) and isinstance(right, list):
        return len(left) == len(right) and all(
            close(a, b) for a, b in zip(left, right)
        )
    numbers = (int, float)
    if isinstance(left, numbers) and isinstance(right, numbers):
        return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-12)
    return left == right


def poll_references(databases: dict) -> dict:
    """Each poll's answers, request by request.

    One cache serves all of them: its keys are the canonical content of
    a solve, so polls that share sessions share solves, and the checks
    cost a fraction of the timed batches.
    """
    from repro.api import answer
    from repro.service.cache import SolverCache

    cache = SolverCache(capacity=1 << 20)
    return {
        str(index): [
            plain(answer(text, db, cache=cache).value) for text in POLLS_BATCH
        ]
        for index, db in sorted(databases.items())
    }


def reference_answers(workload: str, seed: int) -> dict:
    """The answers a correct program gives, computed one request at a time."""
    from repro.api import answer

    if workload.startswith("serve"):
        db = crowdrank()
        return {
            text: plain(answer(text, db).value)
            for text in dict.fromkeys(serve_corpus())
        }
    if workload == "polls-batch":
        return poll_references(dict(enumerate(polls(polls_population()))))
    replayer = traffic(seed)
    answers = {}
    for generation in range(1, REFERENCE_GENERATIONS + 1):
        replayer.step()
        if generation % CHECK_EVERY == 0:
            answers[str(generation)] = [
                plain(answer(text, replayer.db).value)
                for text in standing_requests()
            ]
    return answers


def golden_mismatches(workload: str, seed: int, references: dict):
    """Reference answers that differ from the golden file; None if absent.

    Only the replayed stream depends on the seed; the other workloads
    check against the default seed's file whatever their seed.
    """
    if workload != "stream-refresh":
        seed = DEFAULT_SEED
    if workload.startswith("serve"):
        workload = "serve"
    path = EXPECTED / f"seed-{seed}.json"
    if not path.exists():
        return None
    want = json.loads(path.read_text())[workload]
    return sum(
        1 for key, value in references.items()
        if key in want and not close(value, want[key])
    )


# ----------------------------------------------------------------------
# serve-hot / serve-miss
# ----------------------------------------------------------------------


def _visits(rng, count: int):
    """Indices ``0..count-1`` forever, each pass in a fresh seeded order."""
    while True:
        yield from (int(index) for index in rng.permutation(count))


def _shuffled_passes(corpus: list[str], rng):
    """The corpus forever, each pass in a fresh seeded order."""
    for index in _visits(rng, len(corpus)):
        yield corpus[index]


def _arrivals(rng, rate: float, duration: float) -> list[float]:
    """Seeded Poisson arrival offsets in ``[0, duration)``; at least one."""
    offsets = [0.0]
    while True:
        moment = offsets[-1] + rng.exponential(1.0 / rate)
        if moment >= duration:
            return offsets
        offsets.append(moment)


async def _warm_up(connections) -> list:
    """One pass over the corpus, unmeasured: it fills the solver cache."""
    return await loadgen.closed_loop(connections, iter(serve_corpus()), 0, "warm")


async def _drive(
    host: str, port: int, seed: int, seconds: float, spawned: float
) -> dict:
    """Warm-up, closed loop and open loop; ``spawned`` is the server's
    spawn (``perf_counter``), which set-up is timed from."""
    corpus = serve_corpus()
    rng = np.random.default_rng(seed)
    connections = await loadgen.connect(host, port, min(2, usable_cpus()))
    try:
        warm = await _warm_up(connections)
        setup = time.perf_counter() - spawned
        _, before = await connections[0].call("GET", "/stats")
        requests = _shuffled_passes(corpus, rng)
        started = time.perf_counter()
        closed = await loadgen.closed_loop(
            connections, requests, CLOSED_SHARE * seconds, "A"
        )
        closed_wall = time.perf_counter() - started
        _, after = await connections[0].call("GET", "/stats")
        opened = await loadgen.open_loop(
            connections, requests,
            _arrivals(rng, OPEN_RATE, (1 - CLOSED_SHARE) * seconds), "B",
        )
    finally:
        for connection in connections:
            await connection.close()
    return {
        "setup": setup, "warm": warm, "closed": closed,
        "closed_wall": closed_wall, "open": opened, "stats": (before, after),
    }


async def _shutdown(host: str, port: int) -> None:
    [connection] = await loadgen.connect(host, port, 1)
    try:
        await connection.call("POST", "/shutdown")
    finally:
        await connection.close()


def _start_server(workload: str, trace_path=None):
    """A running ``serve`` process and its ``(host, port)``."""
    process = subprocess.Popen(
        serve_command(workload, trace_path),
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
    )
    try:
        address = wait_for_line(process, "serving on", timeout=120)
    except BaseException:
        stop_process(process)
        raise
    host, port = address.rsplit("/", 1)[-1].split(":")
    return process, (host, int(port))


def serve_setup_seconds(workload: str) -> float:
    """Seconds from spawning the server until its warm-up pass is answered."""

    async def warm(host: str, port: int) -> None:
        connections = await loadgen.connect(host, port, min(2, usable_cpus()))
        try:
            await _warm_up(connections)
        finally:
            for connection in connections:
                await connection.close()

    started = time.perf_counter()
    process, address = _start_server(workload)
    try:
        asyncio.run(warm(*address))
        seconds = time.perf_counter() - started
        asyncio.run(_shutdown(*address))
        process.wait(timeout=60)
    finally:
        stop_process(process)
    return seconds


def run_serve(workload: str, seed: int, seconds: float, trace_path) -> dict:
    spawned = time.perf_counter()
    process, address = _start_server(workload, trace_path)
    try:
        phases = asyncio.run(_drive(*address, seed, seconds, spawned))
        rss = peak_rss_mb(process.pid)
        asyncio.run(_shutdown(*address))
        process.wait(timeout=60)
    finally:
        stop_process(process)

    closed, opened = phases["closed"], phases["open"]
    latencies = [record.latency for record in closed]
    open_latencies = [record.latency for record in opened.records]
    before, after = (stats["cache"] for stats in phases["stats"])
    records = phases["warm"] + closed + opened.records
    references = reference_answers(workload, seed)
    failed = sum(
        1 for record in records
        if record.status != 200
        or not close(record.value, references.get(record.text))
    )
    lookups = (after["hits"] + after["misses"]) - (
        before["hits"] + before["misses"]
    )
    result = {
        "setup_s": phases["setup"],
        "attempted": len(records),
        "failed": failed,
        "golden_mismatches": golden_mismatches(workload, seed, references),
        "metrics": {
            "throughput_ops": (len(closed) / phases["closed_wall"], "1/s"),
            "latency_p50_ms": (1000 * percentile(latencies, 50), "ms"),
            "peak_rss_mb": (rss, "MB"),
        },
        "diagnostics": {
            "latency_samples": (len(latencies), "count"),
            "latency_p90_ms": (1000 * percentile(latencies, 90), "ms"),
            "latency_p99_ms": (1000 * percentile(latencies, 99), "ms"),
            "open_latency_p50_ms": (1000 * percentile(open_latencies, 50), "ms"),
            "open_latency_p90_ms": (1000 * percentile(open_latencies, 90), "ms"),
            "open_samples": (len(open_latencies), "count"),
            "loadgen.late_ms_p99": (
                1000 * percentile(opened.lateness, 99), "ms",
            ),
            "stats.cache_hit_rate": (
                (after["hits"] - before["hits"]) / lookups if lookups else 0.0,
                "ratio",
            ),
            "stats.cache_evictions": (
                after["evictions"] - before["evictions"], "count",
            ),
        },
    }
    if trace_path is not None:
        spans = tracing.load(trace_path)
        ids = {record.request_id for record in closed}
        handled = [
            span for span in spans
            if span[1] == "server.handle" and span[6] in ids
        ]
        window = tracing.in_window(
            spans,
            min(span[2] for span in handled),
            max(span[3] for span in handled),
        )
        layers, layer_diagnostics = tracing.layer_metrics(
            window, len(closed), sum(latencies), records=closed
        )
        layers["cache.evictions_per_op"] = (
            (after["evictions"] - before["evictions"]) / len(closed),
            "count/op",
        )
        result["layers"] = layers
        result["diagnostics"].update(layer_diagnostics)
        result["fired"] = sorted({span[1] for span in spans})
    return result


# ----------------------------------------------------------------------
# polls-batch
# ----------------------------------------------------------------------


def run_polls(seed: int, seconds: float, spawned: float, tracer) -> dict:
    from repro.service.service import PreferenceService

    databases = polls_setup()
    setup = time.time() - spawned
    order = _visits(np.random.default_rng(seed), N_POLLS)
    times, answered = [], []
    evictions = 0
    started = time.perf_counter()
    while True:
        index = next(order)
        service = PreferenceService()
        begin = time.perf_counter()
        batch = service.answer_many(POLLS_BATCH, databases[index])
        end = time.perf_counter()
        times.append(end - begin)
        answered.append((index, [plain(one.value) for one in batch]))
        evictions += service.stats()["evictions"]
        if end - started >= seconds:
            break
    wall = end - started
    rss = peak_rss_mb()

    references = poll_references(
        {index: databases[index] for index, _ in answered}
    )
    result = {
        "setup_s": setup,
        "attempted": len(answered),
        "failed": sum(
            1 for index, values in answered
            if not close(values, references[str(index)])
        ),
        "golden_mismatches": golden_mismatches("polls-batch", seed, references),
        "metrics": _library_metrics(times, wall, rss),
        "diagnostics": _latency_tail(times),
    }
    if tracer is not None:
        _trace_layers(result, tracer, started, end, times)
        result["layers"]["cache.evictions_per_op"] = (
            evictions / len(times), "count/op",
        )
    return result


# ----------------------------------------------------------------------
# stream-refresh
# ----------------------------------------------------------------------


def run_stream(seed: int, seconds: float, spawned: float, tracer) -> dict:
    from repro.api import answer
    from repro.stream.standing import answers_equal

    replayer, engine, standing, positioning = stream_setup(seed)
    setup = time.time() - spawned - positioning
    times: list[float] = []
    checkpoints = []
    paused = 0.0
    stats_before = engine.cache.stats()
    started = time.perf_counter()
    while True:
        begin = time.perf_counter()
        replayer.step()
        engine.refresh()
        end = time.perf_counter()
        times.append(end - begin)
        last = end - started - paused >= seconds
        if len(times) % CHECK_EVERY == 0 or last:
            # Keep the generation and its materialized answers; they are
            # checked after the timed loop against a from-scratch
            # evaluation without the warm cache.
            checkpoints.append((
                len(times), replayer.db.snapshot(),
                [one.answer for one in standing],
            ))
            paused += time.perf_counter() - end
        if last:
            break
    wall = time.perf_counter() - started - paused
    stats_after = engine.cache.stats()
    rss = peak_rss_mb()
    engine.close()

    failed = 0
    checked: dict[str, list] = {}
    for generation, snapshot, materialized in checkpoints:
        fresh = [
            answer(one.request, snapshot, method=one.method)
            for one in standing
        ]
        failed += any(
            not answers_equal(mine, reference)
            for mine, reference in zip(materialized, fresh)
        )
        checked[str(generation)] = [plain(one.value) for one in fresh]

    result = {
        "setup_s": setup,
        "attempted": len(times),
        "failed": failed,
        "golden_mismatches": golden_mismatches(
            "stream-refresh", seed, checked
        ),
        "metrics": _library_metrics(times, wall, rss),
        "diagnostics": {
            **_latency_tail(times),
            "checked_generations": (len(checked), "count"),
        },
    }
    if tracer is not None:
        _trace_layers(result, tracer, started, end, times)
        result["layers"]["cache.evictions_per_op"] = (
            (stats_after.evictions - stats_before.evictions) / len(times),
            "count/op",
        )
    return result


# ----------------------------------------------------------------------
# Shared
# ----------------------------------------------------------------------


def peak_rss_mb(pid: "int | None" = None) -> float:
    """Peak resident set size (``VmHWM``) of ``pid``, or of this process."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    try:
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is not None:
        raise RuntimeError(f"cannot read the peak RSS of process {pid}")
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _library_metrics(times: list[float], wall: float, rss: float) -> dict:
    return {
        "throughput_ops": (len(times) / wall, "1/s"),
        "latency_p50_ms": (1000 * percentile(times, 50), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def _latency_tail(times: list[float]) -> dict:
    """The sample count and p90: unbounded, a burst of host noise moves
    the tail of a short run much more than its median."""
    return {
        "latency_samples": (len(times), "count"),
        "latency_p90_ms": (1000 * percentile(times, 90), "ms"),
    }


def _trace_layers(result, tracer, start, end, times) -> None:
    layers, diagnostics = tracing.layer_metrics(
        tracing.in_window(tracer.spans, start, end), len(times), sum(times)
    )
    result["layers"] = layers
    result["diagnostics"].update(diagnostics)
    result["fired"] = sorted({span[1] for span in tracer.spans})


def versions() -> dict:
    import numpy

    try:
        import numba
    except ImportError:
        numba = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": getattr(numba, "__version__", None),
        "REPRO_JIT": os.environ.get("REPRO_JIT"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--probe")
    mode.add_argument("--reference")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=Path, default=None, metavar="PATH")
    parser.add_argument("--spawned", type=float, default=None)
    args = parser.parse_args(argv)
    spawned = time.time() if args.spawned is None else args.spawned

    if args.probe is not None:
        if args.probe.startswith("serve"):
            # The program is the server this process starts: time it here.
            setup = serve_setup_seconds(args.probe)
        elif args.probe == "polls-batch":
            polls_setup()
            setup = time.time() - spawned
        else:
            positioning = stream_setup(args.seed)[3]
            setup = time.time() - spawned - positioning
        print(json.dumps({"setup_s": setup}))
        return 0
    if args.reference is not None:
        print(json.dumps(reference_answers(args.reference, args.seed)))
        return 0

    tracer = None
    if args.trace is not None and not args.workload.startswith("serve"):
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if args.workload.startswith("serve"):
        result = run_serve(args.workload, args.seed, args.seconds, args.trace)
    elif args.workload == "polls-batch":
        result = run_polls(args.seed, args.seconds, spawned, tracer)
    else:
        result = run_stream(args.seed, args.seconds, spawned, tracer)
    if tracer is not None:
        tracer.dump(args.trace)
    result["versions"] = versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
