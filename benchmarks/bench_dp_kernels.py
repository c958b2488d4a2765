"""Scalar vs array-compiled DP solver cores (DESIGN.md Section 12).

Not a paper figure: this benchmark records the performance trajectory of
the ``repro.kernels.dp`` state-table engines that power the three exact
insertion DPs, and the size sweep that sets the scalar-to-engine handoff
constant (``repro.kernels.dp._HANDOFF_CANDIDATES``).  Three modes run
every solve:

* **scalar** — ``vectorized=False``, the dict-of-tuples reference;
* **engine** — the array engine from step 1 (the constant pinned to 0);
* **adaptive** — the default: the scalar loop until a step's candidate
  count passes the constant, then the engine from that generation on.

Sections:

* **fig-scale** — one fig 5-7-scale workload per solver (two_label,
  bipartite pruned, lifted): scalar once, engine and adaptive best of 3;
* **size sweep** — per solver, m = 4..40 on the ``repro.datasets.
  benchmarks`` generators: the three modes' seconds (best of 3) and peak
  states, with every run capped by ``time_budget`` and a capped run
  recorded as capped (larger m of that mode are then skipped).  The
  crossover is the first m at which the engine beats the scalar loop;
* **constant sweep** — the sweep instances whose engine solve is small
  re-timed in adaptive mode under each candidate constant; per solver,
  each instance's time over its best, averaged.  The best constant per
  solver is the crossover the handoff constant is set from;
* **equivalence corpus** — small seeded instances under every solver
  option (``merge_gaps``, pruned/basic, ``prune_dead``), each solved in
  all three modes: probabilities and state stats must be **bit-identical**
  to the scalar reference — the engines replicate the scalar candidate
  order, dedup order, and left-to-right accumulation exactly, so equality
  is exact, not approximate.

Acceptance bars (full mode): the adaptive default >= 10x over the scalar
reference on every fig-scale workload and at most 10% slower than the
engine from step 1; zero divergence on the corpus and on the fig-scale
results.  ``BENCH_DP_QUICK=1`` shrinks the workloads and the sweeps for
CI smoke runs (the bit-identity assertions still hold; the speedup bar
relaxes to 2x and the overhead bar is not enforced, to stay robust on
noisy shared runners).

Full runs write ``benchmarks/BENCH_dp.json`` (committed, so the perf
trajectory is recorded, with the commit, Python, NumPy and CPU count
that produced it); every run writes ``benchmarks/results/`` like every
other benchmark.
"""

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from unittest.mock import patch

import numpy as np

from repro.datasets.benchmarks import benchmark_a, benchmark_c, benchmark_d
from repro.evaluation.experiments import ExperimentResult
from repro.kernels import dp
from repro.solvers.base import SolverTimeout
from repro.solvers.bipartite import bipartite_probability
from repro.solvers.lifted import lifted_probability
from repro.solvers.two_label import two_label_probability

QUICK = os.environ.get("BENCH_DP_QUICK") == "1"
#: Acceptance bar: >= 10x in full mode; relaxed in CI quick mode where the
#: workloads are too small to amortize per-call overhead reliably.
MIN_SPEEDUP = 2.0 if QUICK else 10.0
#: Full mode: a fig-scale adaptive solve may take at most this multiple of
#: the engine-from-step-1 time (best of 3 each).
MAX_ADAPTIVE_OVERHEAD = 1.10
REPEATS = 3

#: Size sweep: m per solver, and the per-run ``time_budget`` cap (s).
SWEEP_M = (4, 6, 8) if QUICK else (
    4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 20, 24, 28, 32, 36, 40
)
SWEEP_CAP = 0.5 if QUICK else 2.0
#: Constant sweep: candidate handoff constants, and the largest engine
#: time (s) of a sweep instance it re-times.
SWEEP_CONSTANTS = (32, 128) if QUICK else (16, 32, 64, 128, 256, 512)
CONSTANT_SWEEP_MAX_ENGINE_S = 0.05

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = Path(__file__).parent / "BENCH_dp.json"


def _provenance() -> dict:
    """The commit, dirty flag and versions the e2e run records carry."""
    git = None
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
        git = {"commit": commit, "dirty": bool(dirty)}
    except (OSError, subprocess.CalledProcessError):
        pass
    return {
        "git": git,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _run(solve, mode: str, time_budget=None):
    """One solve in ``mode``: scalar, engine (from step 1) or adaptive."""
    if mode == "scalar":
        return solve(False, time_budget)
    if mode == "engine":
        with patch.object(dp, "_HANDOFF_CANDIDATES", 0):
            return solve(True, time_budget)
    return solve(True, time_budget)


def _best_of(solve, mode: str, repeats: int = REPEATS, time_budget=None):
    """``(best seconds, result)``; ``(None, None)`` once a run is capped.

    A run is capped when it times out or, since the scalar loop checks
    its budget only between steps, when it finishes past the budget.
    """
    best, result = None, None
    for _ in range(repeats):
        started = time.perf_counter()
        try:
            result = _run(solve, mode, time_budget)
        except SolverTimeout:
            return None, None
        elapsed = time.perf_counter() - started
        if time_budget is not None and elapsed > time_budget:
            return None, None
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _bits(result):
    """The bit-identity surface: the probability and every stat but time."""
    stats = {k: v for k, v in result.stats.items() if k != "seconds"}
    return result.probability, stats


def _two_label_instance(m: int, index: int = 0):
    return list(
        benchmark_d(
            m_values=(m,),
            patterns_per_union=(2,),
            items_per_label=(3,),
            instances_per_combo=index + 1,
            seed=1,
        )
    )[index]


def _bipartite_instance(m: int, index: int = 0):
    return list(
        benchmark_c(
            m_values=(m,),
            patterns_per_union=(2,),
            labels_per_pattern=(3,),
            items_per_label=(3,),
            instances_per_combo=index + 1,
            seed=2,
        )
    )[index]


def _lifted_instance(m: int, index: int = 0):
    return benchmark_a(
        n_unions=index + 1, m=m, items_per_label=2, seed=20200316
    )[index]


#: Per solver: its workload generator and the solve ``(vectorized,
#: time_budget) -> SolverResult`` of one instance.
SOLVERS = {
    "two_label": (
        _two_label_instance,
        lambda i: lambda vec, budget: two_label_probability(
            i.model, i.labeling, i.union, vectorized=vec, time_budget=budget
        ),
    ),
    "bipartite[pruned]": (
        _bipartite_instance,
        lambda i: lambda vec, budget: bipartite_probability(
            i.model, i.labeling, i.union, pruned=True, vectorized=vec,
            time_budget=budget,
        ),
    ),
    "lifted": (
        _lifted_instance,
        lambda i: lambda vec, budget: lifted_probability(
            i.model, i.labeling, i.union, vectorized=vec, time_budget=budget
        ),
    ),
}

#: Fig 5-7-scale workloads: ``(m, instance index)`` per solver.
FIG_SCALE = {
    "two_label": (20, 0) if QUICK else (40, 0),
    "bipartite[pruned]": (16, 0) if QUICK else (20, 0),
    "lifted": (9, 1) if QUICK else (11, 0),
}


def _equivalence_corpus():
    """Small seeded instances exercising every solver and option combo.

    Each case is ``(name, solve)`` with ``solve(vectorized, time_budget)``.
    """
    cases = []
    for instance in benchmark_d(
        m_values=(8, 10),
        patterns_per_union=(2,),
        items_per_label=(3,),
        instances_per_combo=2,
        seed=11,
    ):
        for merge_gaps in (True, False):
            cases.append(
                (
                    f"two_label[{instance.name}] merge_gaps={merge_gaps}",
                    lambda vec, budget, i=instance, g=merge_gaps: (
                        two_label_probability(
                            i.model, i.labeling, i.union,
                            merge_gaps=g, vectorized=vec,
                        )
                    ),
                )
            )
    for index, instance in enumerate(
        benchmark_c(
            m_values=(8,),
            patterns_per_union=(2,),
            labels_per_pattern=(2,),
            items_per_label=(2,),
            instances_per_combo=2,
        )
    ):
        if index >= 2:
            break
        for merge_gaps in (True, False):
            for pruned in (True, False):
                cases.append(
                    (
                        f"bipartite[{instance.name}] "
                        f"merge_gaps={merge_gaps} pruned={pruned}",
                        lambda vec, budget, i=instance, g=merge_gaps, p=pruned: (
                            bipartite_probability(
                                i.model, i.labeling, i.union,
                                merge_gaps=g, pruned=p, vectorized=vec,
                            )
                        ),
                    )
                )
    for instance in benchmark_a(
        n_unions=2, m=8, items_per_label=2, seed=20200316
    ):
        for merge_gaps in (True, False):
            for prune_dead in (True, False):
                cases.append(
                    (
                        f"lifted[{instance.name}] "
                        f"merge_gaps={merge_gaps} prune_dead={prune_dead}",
                        lambda vec, budget, i=instance, g=merge_gaps, p=prune_dead: (
                            lifted_probability(
                                i.model, i.labeling, i.union,
                                merge_gaps=g, prune_dead=p, vectorized=vec,
                            )
                        ),
                    )
                )
    return cases


def _fig_scale(solver: str) -> dict:
    """Scalar once, engine and adaptive best of 3, on one big workload."""
    generator, make_solve = SOLVERS[solver]
    m, index = FIG_SCALE[solver]
    solve = make_solve(generator(m, index))
    scalar_seconds, scalar = _best_of(solve, "scalar", repeats=1)
    engine_seconds, engine = _best_of(solve, "engine")
    adaptive_seconds, adaptive = _best_of(solve, "adaptive")
    return {
        "workload": f"{generator.__name__.strip('_')} m={m} index={index}",
        "scalar_seconds": scalar_seconds,
        "engine_seconds": engine_seconds,
        "adaptive_seconds": adaptive_seconds,
        "speedup": scalar_seconds / adaptive_seconds,
        "engine_speedup": scalar_seconds / engine_seconds,
        "adaptive_over_engine": adaptive_seconds / engine_seconds,
        "probability": adaptive.probability,
        "bit_identical": _bits(engine) == _bits(scalar) == _bits(adaptive),
        "peak_states": adaptive.stats.get("peak_states"),
    }


def _size_sweep(solver: str) -> list[dict]:
    """The three modes' best-of-3 seconds and peak states per m.

    Every run is capped at ``SWEEP_CAP`` seconds; a capped mode is
    recorded as ``"capped"`` and not run again at larger m.
    """
    generator, make_solve = SOLVERS[solver]
    capped: set[str] = set()
    rows = []
    for m in SWEEP_M:
        solve = make_solve(generator(m))
        row: dict = {"m": m}
        peak = None
        for mode in ("scalar", "engine", "adaptive"):
            seconds = None
            if mode not in capped:
                seconds, result = _best_of(solve, mode, time_budget=SWEEP_CAP)
                if result is not None:
                    peak = result.stats.get("peak_states")
            if seconds is None:
                capped.add(mode)
            row[f"{mode}_seconds"] = "capped" if seconds is None else seconds
        row["peak_states"] = peak
        rows.append(row)
    return rows


def _engine_crossover(rows: list[dict]) -> dict:
    """Both sides of the first m at which the engine beats the scalar loop."""
    for before, row in zip([None] + rows, rows):
        scalar, engine = row["scalar_seconds"], row["engine_seconds"]
        if scalar == "capped" or (engine != "capped" and engine < scalar):
            return {"scalar_wins_up_to": before, "engine_wins_from": row}
    return {"scalar_wins_up_to": rows[-1], "engine_wins_from": None}


def _constant_sweep(solver: str, rows: list[dict]) -> dict[int, list[float]]:
    """Per handoff constant, each instance's adaptive time over its best.

    Re-times the sweep instances whose engine solve took at most
    ``CONSTANT_SWEEP_MAX_ENGINE_S``: there the constant decides a
    measurable share of the time.
    """
    generator, make_solve = SOLVERS[solver]
    ms = [
        row["m"] for row in rows
        if row["engine_seconds"] != "capped"
        and row["engine_seconds"] <= CONSTANT_SWEEP_MAX_ENGINE_S
    ]
    ratios: dict[int, list[float]] = {c: [] for c in SWEEP_CONSTANTS}
    for m in ms:
        solve = make_solve(generator(m))
        seconds = {}
        for constant in SWEEP_CONSTANTS:
            with patch.object(dp, "_HANDOFF_CANDIDATES", constant):
                seconds[constant], _ = _best_of(solve, "adaptive")
        fastest = min(seconds.values())
        for constant, value in seconds.items():
            ratios[constant].append(value / fastest)
    return ratios


def _best_constant(ratios: dict[int, list[float]]) -> dict:
    """The constant with the smallest mean time over best (the crossover)."""
    mean = {c: sum(r) / len(r) for c, r in ratios.items() if r}
    return {
        "instances": len(next(iter(ratios.values()))),
        "mean_over_best": mean,
        "best_constant": min(mean, key=mean.get) if mean else None,
    }


def test_dp_engine_speedups_and_bit_identity(record_result):
    report: dict = {
        "config": {
            "quick": QUICK,
            "min_speedup": MIN_SPEEDUP,
            "max_adaptive_overhead": MAX_ADAPTIVE_OVERHEAD,
            "repeats": REPEATS,
            "handoff_candidates": dp._HANDOFF_CANDIDATES,
            "sweep_cap_seconds": SWEEP_CAP,
        },
        "provenance": _provenance(),
    }
    rows = []
    for solver in SOLVERS:
        fig = report[solver] = _fig_scale(solver)
        rows.append([solver, fig["workload"], round(fig["scalar_seconds"], 3),
                     round(fig["engine_seconds"], 3),
                     round(fig["adaptive_seconds"], 3),
                     round(fig["speedup"], 1)])

    # --- size sweep and the handoff constant ---------------------------
    sweep: dict = {}
    pooled: dict[int, list[float]] = {c: [] for c in SWEEP_CONSTANTS}
    for solver in SOLVERS:
        sweep_rows = _size_sweep(solver)
        ratios = _constant_sweep(solver, sweep_rows)
        for constant, values in ratios.items():
            pooled[constant] += values
        sweep[solver] = {
            "rows": sweep_rows,
            "crossover": _engine_crossover(sweep_rows),
            "constants": _best_constant(ratios),
        }
    report["size_sweep"] = sweep
    # The pooled best is the one constant for every engine.  Per solver,
    # record how far apart the crossovers are and what sharing costs:
    # the solver's mean at the pooled constant over its mean at its own.
    shared = report["pooled_constants"] = _best_constant(pooled)
    best = [one["constants"]["best_constant"] for one in sweep.values()]
    if None not in best:
        report["best_constant_spread"] = max(best) / min(best)
        report["shared_constant_cost"] = {
            solver: one["constants"]["mean_over_best"][shared["best_constant"]]
            / one["constants"]["mean_over_best"][one["constants"]["best_constant"]]
            for solver, one in sweep.items()
        }

    # --- bit-identity over the seeded corpus ---------------------------
    divergent = []
    corpus = _equivalence_corpus()
    for name, solve in corpus:
        reference = _bits(_run(solve, "scalar"))
        for mode in ("engine", "adaptive"):
            if _bits(_run(solve, mode)) != reference:
                divergent.append(f"{name} [{mode}]")
    report["equivalence_corpus"] = {
        "cases": len(corpus),
        "modes": ["engine", "adaptive"],
        "divergent": divergent,
    }

    # --- record ---------------------------------------------------------
    if not QUICK:
        JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    record_result(
        ExperimentResult(
            experiment="dp_kernels",
            headers=["solver", "workload", "scalar_s", "engine_s",
                     "adaptive_s", "speedup"],
            rows=rows,
            notes={
                "quick": QUICK,
                "min_speedup": MIN_SPEEDUP,
                "equivalence_cases": len(corpus),
                "handoff_candidates": dp._HANDOFF_CANDIDATES,
                "best_constants": {
                    solver: one["constants"]["best_constant"]
                    for solver, one in sweep.items()
                },
            },
        )
    )

    # Probabilities and state stats are bit-identical on every corpus
    # case and on the fig-scale workloads themselves...
    assert not divergent
    for solver in SOLVERS:
        assert report[solver]["bit_identical"], solver
    # ...the adaptive default clears the speedup bar...
    for solver in SOLVERS:
        assert report[solver]["speedup"] >= MIN_SPEEDUP, (
            solver,
            report[solver]["speedup"],
        )
    # ...and, on the big workloads, costs no more than the engine alone.
    if not QUICK:
        for solver in SOLVERS:
            assert (
                report[solver]["adaptive_over_engine"] <= MAX_ADAPTIVE_OVERHEAD
            ), (solver, report[solver]["adaptive_over_engine"])
