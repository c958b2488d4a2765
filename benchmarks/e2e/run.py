"""The end-to-end benchmark: four workloads through the real entry points.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                 [--trace [0|1]] [--quick] [--label NAME]
    python benchmarks/e2e/run.py --write-expected [--seed N]
    python benchmarks/e2e/run.py --compare PARENT CHANGE

Each workload runs in a fresh child process (``workloads.py``); its
set-up time is measured on separate fresh processes.  Every metric is
printed as ``<workload> <metric> <value> <unit>``, every answer is
checked, and the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json``, or with ``--trace`` its per-layer metrics.
The exit code is 0 only when every answer was right.  Each run is also
written, with its provenance, under ``benchmarks/e2e/results/``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from common import (
    DEFAULT_SEED,
    EXPECTED,
    HERE,
    RESULTS,
    ROOT,
    SRC,
    WORKLOADS,
    child_env,
    usable_cpus,
)

BENCHMARK = ROOT / "BENCHMARK.json"
#: The processes of one workload (timed, traced and set-up probes) must
#: end within this many seconds.
WORKLOAD_TIMEOUT = 170.0
#: Set-ups per workload, the timed run's own included; setup_s is their
#: median.
SETUP_REPEATS = 5


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run: no result is printed."""


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


# ----------------------------------------------------------------------
# Running workloads
# ----------------------------------------------------------------------


def run_child(workload: str, arguments: list[str], deadline: float) -> dict:
    """``workloads.py`` with ``arguments`` in a fresh process; its JSON result.

    The child is told when it was spawned, so that it can time its own
    set-up from there.
    """
    command = [
        sys.executable, str(HERE / "workloads.py"), *arguments,
        "--spawned", repr(time.time()),
    ]
    # A session of its own, so a timeout also stops the server it started.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchmarkError(
            f"{workload} did not finish within {WORKLOAD_TIMEOUT:g} s"
        ) from None
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload} exited with code {process.returncode}"
        )
    return json.loads(lines[-1])


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, repeats: int
) -> dict:
    """A workload's metrics, per-layer metrics (traced) and checks."""
    print(f"running {workload} (seed {seed}, {seconds:g} s)", file=sys.stderr)
    deadline = time.monotonic() + WORKLOAD_TIMEOUT
    timed = [
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
    ]
    result = run_child(workload, timed, deadline)
    if traced:
        # End-to-end numbers always come from the untraced run; the
        # traced rerun gives the layers, and the difference between the
        # two is the tracing overhead.
        trace_path = RESULTS / f"trace-{workload}.json"
        traced_result = run_child(
            workload, timed + ["--trace", str(trace_path)], deadline
        )
        layers = traced_result["layers"]
        untraced = result["metrics"]["latency_p50_ms"][0]
        layers["trace.overhead_pct"] = (
            100.0 * (traced_result["metrics"]["latency_p50_ms"][0] / untraced - 1),
            "%",
        )
        result["layers"] = layers
        result["fired"] = traced_result["fired"]
        result["trace_file"] = str(trace_path.relative_to(ROOT))
        for key in ("attempted", "failed"):
            result[key] += traced_result[key]
        if traced_result["golden_mismatches"] is not None:
            result["golden_mismatches"] = max(
                result["golden_mismatches"], traced_result["golden_mismatches"]
            )
        result["diagnostics"].update(traced_result["diagnostics"])
    else:
        # The timed run's own set-up is one sample; fresh probes, which
        # set up the same way and exit, give the others.
        probe = ["--probe", workload, "--seed", str(seed)]
        samples = [result["setup_s"]] + [
            run_child(workload, probe, deadline)["setup_s"]
            for _ in range(repeats - 1)
        ]
        result["metrics"]["setup_s"] = (statistics.median(samples), "s")
        result["diagnostics"]["setup_samples"] = (len(samples), "count")
    return result


# ----------------------------------------------------------------------
# Provenance and reporting
# ----------------------------------------------------------------------


def git_state() -> "dict | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"commit": commit, "dirty": bool(dirty)}


def provenance(args, started: datetime, versions: dict) -> dict:
    affinity = (
        sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None
    )
    return {
        "started": started.isoformat(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "affinity": affinity,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git": git_state(),
        **versions,
    }


def write_results(args, started: datetime, results: dict) -> Path:
    """This run's record under results/; never touches tracked files."""
    versions = next(iter(results.values()))["versions"]
    record = {
        "provenance": provenance(args, started, versions),
        "workloads": results,
    }
    folder = RESULTS / args.label if args.label else RESULTS
    folder.mkdir(parents=True, exist_ok=True)
    name = "-".join(
        [started.strftime("%Y%m%dT%H%M%S%f"), args.workload or "all",
         f"seed{args.seed}"]
        + (["trace"] if args.trace else [])
        + (["quick"] if args.quick else [])
    )
    path = folder / f"{name}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def report(args, results: dict, benchmark: dict) -> int:
    """Print every metric, then the JSON result line; the exit code."""
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    attempted = failed = 0
    metrics = {}
    for workload, result in results.items():
        attempted += result["attempted"]
        failed += result["failed"] + (result["golden_mismatches"] or 0)
        measured = result["layers" if args.trace else "metrics"]
        for metric in wanted:
            name = metric["name"]
            if name not in measured or measured[name][1] != metric["unit"]:
                raise BenchmarkError(
                    f"{workload} did not measure {name} in {metric['unit']}"
                )
            key = name if len(results) == 1 else f"{workload}/{name}"
            metrics[key] = {"value": measured[name][0], "unit": metric["unit"]}
        for name, (value, unit) in {
            **result["metrics"], **result.get("layers", {}),
            **result["diagnostics"],
        }.items():
            print(f"{workload} {name} {value!r} {unit}")
        print(
            f"{workload} failed {result['failed']} of {result['attempted']}; "
            f"golden {result['golden_mismatches']}",
            file=sys.stderr,
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# Golden answers
# ----------------------------------------------------------------------


def write_expected(seed: int) -> Path:
    expected = {"seed": seed}
    for key, workload in (
        ("serve", "serve-hot"), ("polls-batch", "polls-batch"),
        ("stream-refresh", "stream-refresh"),
    ):
        print(f"reference answers for {workload}", file=sys.stderr)
        completed = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--reference",
             workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, check=True,
            timeout=600,
        )
        expected[key] = json.loads(completed.stdout.decode().splitlines()[-1])
    EXPECTED.mkdir(exist_ok=True)
    path = EXPECTED / f"seed-{seed}.json"
    path.write_text(json.dumps(expected, indent=1) + "\n")
    return path


# ----------------------------------------------------------------------
# Comparing two sets of runs
# ----------------------------------------------------------------------


def load_runs(path: Path) -> list[dict]:
    """Run records from a results file or a folder of them, oldest first."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(file.read_text()) for file in files]
    return sorted(runs, key=lambda run: run["provenance"]["started"])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pairs_won(parent, change, better: str) -> int:
    """Pairs (in run order) where the change read better; ties count for neither."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def verdict(parent, change, better: str, bound: float) -> str:
    """improved / no worse / regressed / unresolved, by the README's rule."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm) / abs(pm)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    every_better = (
        min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    )
    n_pairs = min(len(parent), len(change))
    if (
        pairs_won(parent, change, better) >= 0.9 * n_pairs
        and gain > 0 and abs(cm - pm) > p3 - p1
    ):
        return "improved"
    if spread > bound and not every_better:
        return "unresolved"
    if gain < -bound:
        return "regressed"
    return "no worse"


def compare(parent_path: Path, change_path: Path, benchmark: dict) -> int:
    parent_runs, change_runs = load_runs(parent_path), load_runs(change_path)
    declared = {
        metric["name"]: metric
        for metric in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    print(f"parent: {len(parent_runs)} runs   change: {len(change_runs)} runs")
    print(
        f"{'workload':15} {'metric':30} {'parent median [q1, q3]':30} "
        f"{'change median [q1, q3]':30} {'pairs won':>9}  verdict"
    )
    regressed = False
    for workload in WORKLOADS:
        sides = [
            [run["workloads"][workload] for run in runs
             if workload in run["workloads"]]
            for runs in (parent_runs, change_runs)
        ]
        if not all(sides):
            continue
        failures = [sum(one["failed"] for one in side) for side in sides]
        if failures[1] > failures[0]:
            print(f"{workload}: more failed operations in the change "
                  f"({failures[1]} against {failures[0]}); no gain counts")
        measured = [
            [{**one["metrics"], **one.get("layers", {})} for one in side]
            for side in sides
        ]
        for name in measured[0][0]:
            parent, change = (
                [metrics[name][0] for metrics in side if name in metrics]
                for side in measured
            )
            metric = declared.get(name)
            if not change or metric is None:
                continue
            won = f"{pairs_won(parent, change, metric['better'])}/" \
                f"{min(len(parent), len(change))}"
            result = "-"
            if "bound" in metric:
                result = verdict(
                    parent, change, metric["better"], metric["bound"]
                )
                if failures[1] > failures[0] and result == "improved":
                    result = "no gain (more failures)"
                regressed |= result == "regressed"
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            print(
                f"{workload:15} {name:30} "
                f"{f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':30} "
                f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':30} {won:>9}  {result}"
            )
    return 1 if regressed else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted only with the value of run_seconds "
                        "in BENCHMARK.json, the one run length")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run traced and report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="1-second smoke run whose set-up time is the "
                        "run's own, with no probe")
    parser.add_argument("--label", default=None,
                        help="write the run record under results/LABEL/")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected/seed-N.json")
    parser.add_argument("--compare", nargs=2, type=Path, default=None,
                        metavar=("PARENT", "CHANGE"),
                        help="compare two result files or folders of them")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    benchmark = load_benchmark()
    # Runs of different lengths do not compare, so the length is fixed.
    if args.seconds is not None and args.seconds != benchmark["run_seconds"]:
        parser.error(
            f"--seconds must be {benchmark['run_seconds']}, the run_seconds "
            "of BENCHMARK.json"
        )

    if args.compare is not None:
        return compare(*args.compare, benchmark)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no source tree at {SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    if args.write_expected:
        print(write_expected(args.seed))
        return 0

    args.seconds = 1.0 if args.quick else float(benchmark["run_seconds"])
    repeats = 1 if args.quick else SETUP_REPEATS
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    started = datetime.now(timezone.utc)
    try:
        results = {
            workload: run_workload(
                workload, args.seed, args.seconds, bool(args.trace), repeats
            )
            for workload in workloads
        }
        path = write_results(args, started, results)
        print(f"results written to {path.relative_to(ROOT)}", file=sys.stderr)
        return report(args, results, benchmark)
    except (BenchmarkError, OSError, RuntimeError, ValueError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
