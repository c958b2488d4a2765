"""Scalar vs array-compiled DP solver cores (DESIGN.md Section 12).

Not a paper figure: this benchmark records the performance trajectory of
the ``repro.kernels.dp`` state-table engines that power the three exact
insertion DPs.  For each solver — two_label (Algorithm 3), bipartite
pruned (Algorithm 4), and the lifted relevant-item DP — one fig 5-7-scale
workload is solved by the scalar dict-of-tuples reference and by the
vectorized engine, and the wall times are compared.  A seeded corpus of
small instances is then solved by both paths under every solver option
(``merge_gaps``, pruned/basic, ``prune_dead``) and the probabilities must
be **bit-identical** — the engines replicate the scalar candidate order,
dedup order, and left-to-right accumulation exactly, so equality is exact,
not approximate.

Acceptance bar (full mode): >= 10x per solver on the scaled fig 5-7
workloads, zero probability divergence on the corpus.
``BENCH_DP_QUICK=1`` shrinks the workloads for CI smoke runs (the
bit-identity assertions still hold; the speedup bar relaxes to 2x to stay
robust on noisy shared runners).

Full runs write ``benchmarks/BENCH_dp.json`` (committed, so the perf
trajectory is recorded); every run writes ``benchmarks/results/`` like
every other benchmark.
"""

import json
import os
import time
from pathlib import Path

from repro.datasets.benchmarks import benchmark_a, benchmark_c, benchmark_d
from repro.evaluation.experiments import ExperimentResult
from repro.solvers.bipartite import bipartite_probability
from repro.solvers.lifted import lifted_probability
from repro.solvers.two_label import two_label_probability

QUICK = os.environ.get("BENCH_DP_QUICK") == "1"
#: Acceptance bar: >= 10x in full mode; relaxed in CI quick mode where the
#: workloads are too small to amortize per-call overhead reliably.
MIN_SPEEDUP = 2.0 if QUICK else 10.0

JSON_PATH = Path(__file__).parent / "BENCH_dp.json"


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def _two_label_workload():
    m, z = (20, 2) if QUICK else (40, 2)
    instance = next(
        iter(
            benchmark_d(
                m_values=(m,),
                patterns_per_union=(z,),
                items_per_label=(3,),
                instances_per_combo=1,
                seed=1,
            )
        )
    )
    return f"benchmark_d m={m} z={z}", instance, lambda vec: (
        two_label_probability(
            instance.model, instance.labeling, instance.union, vectorized=vec
        )
    )


def _bipartite_workload():
    m = 16 if QUICK else 20
    instance = next(
        iter(
            benchmark_c(
                m_values=(m,),
                patterns_per_union=(2,),
                labels_per_pattern=(3,),
                items_per_label=(3,),
                instances_per_combo=1,
                seed=2,
            )
        )
    )
    return f"benchmark_c m={m} z=2 q=3", instance, lambda vec: (
        bipartite_probability(
            instance.model,
            instance.labeling,
            instance.union,
            pruned=True,
            vectorized=vec,
        )
    )


def _lifted_workload():
    m, index = (9, 1) if QUICK else (11, 0)
    instance = benchmark_a(
        n_unions=4, m=m, items_per_label=2, seed=20200316
    )[index]
    return f"benchmark_a m={m}", instance, lambda vec: (
        lifted_probability(
            instance.model, instance.labeling, instance.union, vectorized=vec
        )
    )


def _equivalence_corpus():
    """Small seeded instances exercising every solver and option combo."""
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
                    lambda i=instance, g=merge_gaps, v=True: (
                        two_label_probability(
                            i.model, i.labeling, i.union,
                            merge_gaps=g, vectorized=v,
                        )
                    ),
                    lambda i=instance, g=merge_gaps: two_label_probability(
                        i.model, i.labeling, i.union,
                        merge_gaps=g, vectorized=False,
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
                        lambda i=instance, g=merge_gaps, p=pruned: (
                            bipartite_probability(
                                i.model, i.labeling, i.union,
                                merge_gaps=g, pruned=p, vectorized=True,
                            )
                        ),
                        lambda i=instance, g=merge_gaps, p=pruned: (
                            bipartite_probability(
                                i.model, i.labeling, i.union,
                                merge_gaps=g, pruned=p, vectorized=False,
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
                        lambda i=instance, g=merge_gaps, p=prune_dead: (
                            lifted_probability(
                                i.model, i.labeling, i.union,
                                merge_gaps=g, prune_dead=p, vectorized=True,
                            )
                        ),
                        lambda i=instance, g=merge_gaps, p=prune_dead: (
                            lifted_probability(
                                i.model, i.labeling, i.union,
                                merge_gaps=g, prune_dead=p, vectorized=False,
                            )
                        ),
                    )
                )
    return cases


def test_dp_engine_speedups_and_bit_identity(record_result):
    report = {"config": {"quick": QUICK, "min_speedup": MIN_SPEEDUP}}
    rows = []

    for solver, make in (
        ("two_label", _two_label_workload),
        ("bipartite[pruned]", _bipartite_workload),
        ("lifted", _lifted_workload),
    ):
        workload, _instance, solve = make()
        scalar_seconds, scalar = _timed(lambda: solve(False))
        vector_seconds, vector = _timed(lambda: solve(True))
        speedup = scalar_seconds / max(vector_seconds, 1e-12)
        report[solver] = {
            "workload": workload,
            "scalar_seconds": scalar_seconds,
            "vectorized_seconds": vector_seconds,
            "speedup": speedup,
            "probability": vector.probability,
            "bit_identical": vector.probability == scalar.probability,
            "peak_states": vector.stats.get("peak_states"),
        }
        rows.append([solver, workload, round(scalar_seconds, 3),
                     round(vector_seconds, 3), round(speedup, 1)])

    # --- bit-identity over the seeded corpus ---------------------------
    divergent = []
    corpus = _equivalence_corpus()
    for name, run_vectorized, run_scalar in corpus:
        vector = run_vectorized()
        scalar = run_scalar()
        if vector.probability != scalar.probability:
            divergent.append(name)
    report["equivalence_corpus"] = {
        "cases": len(corpus),
        "divergent": divergent,
    }

    # --- record ---------------------------------------------------------
    if not QUICK:
        JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    record_result(
        ExperimentResult(
            experiment="dp_kernels",
            headers=["solver", "workload", "scalar_s", "vectorized_s",
                     "speedup"],
            rows=rows,
            notes={
                "quick": QUICK,
                "min_speedup": MIN_SPEEDUP,
                "equivalence_cases": len(corpus),
            },
        )
    )

    # Probabilities are bit-identical on every corpus case and on the
    # fig-scale workloads themselves...
    assert not divergent
    for solver in ("two_label", "bipartite[pruned]", "lifted"):
        assert report[solver]["bit_identical"], solver
    # ...and every engine clears the speedup bar.
    for solver in ("two_label", "bipartite[pruned]", "lifted"):
        assert report[solver]["speedup"] >= MIN_SPEEDUP, (
            solver,
            report[solver]["speedup"],
        )
