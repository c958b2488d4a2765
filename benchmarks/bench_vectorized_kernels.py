"""Scalar vs vectorized kernel throughput (DESIGN.md Section 7).

Not a paper figure: this benchmark records the performance trajectory of
the ``repro.kernels`` layer.  For each hot path — batched Mallows (RIM)
sampling, constrained AMP sampling, and full rejection-sampling estimation
(sampling + vectorized predicate evaluation) — the scalar reference loop
and the batched kernel draw the same number of samples and their
throughputs (samples/second) are compared.  A cold/warm pair measures the
per-model memoized precompute: the first kernel call on a fresh model pays
the table construction, later calls reuse it.

Acceptance bar (full mode, n >= 2000 samples, m >= 20): the batched
kernels sustain at least 10x scalar throughput on AMP and rejection
sampling, and the seeded estimates of the two paths diverge by at most
1e-12.  ``BENCH_KERNELS_QUICK=1`` shrinks the workload for CI smoke runs
(the equivalence assertions still hold; the throughput bar relaxes to 3x
to stay robust on noisy shared runners).

Full runs write ``benchmarks/BENCH_kernels.json`` (committed, so the
perf trajectory is recorded); every run writes ``benchmarks/results/``
like every other benchmark.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.evaluation.experiments import ExperimentResult
from repro.kernels import memoization_disabled, model_tables
from repro.kernels.predicates import subranking_predicate
from repro.patterns.labels import Labeling
from repro.patterns.matching import union_predicate
from repro.patterns.pattern import LabelPattern, PatternNode
from repro.patterns.union import PatternUnion
from repro.rankings.subranking import SubRanking
from repro.rim.amp import AMPSampler
from repro.rim.mallows import Mallows
from repro.rim.sampling import empirical_probability

QUICK = os.environ.get("BENCH_KERNELS_QUICK") == "1"
#: Acceptance bar: >= 10x in full mode; relaxed in CI quick mode where the
#: workload is too small to amortize per-call overhead reliably.
MIN_SPEEDUP = 3.0 if QUICK else 10.0
N_SAMPLES = 400 if QUICK else 2000
M = 20
PHI = 0.5
SEED = 20260730

JSON_PATH = Path(__file__).parent / "BENCH_kernels.json"


def _throughput(n_samples: int, seconds: float) -> float:
    return n_samples / max(seconds, 1e-12)


def _time(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _workload():
    items = list(range(M))
    model = Mallows(items, PHI)
    psi = SubRanking([M - 1, M // 2, 0])
    labeling = Labeling(
        {item: {"hi"} if item < M // 2 else {"lo"} for item in items}
    )
    union = PatternUnion(
        [
            LabelPattern(
                [
                    (
                        PatternNode("l", frozenset({"lo"})),
                        PatternNode("h", frozenset({"hi"})),
                    )
                ]
            )
        ]
    )
    return model, psi, labeling, union


def test_vectorized_kernel_throughput(record_result):
    model, psi, labeling, union = _workload()
    sampler = AMPSampler(model, psi)
    report = {
        "config": {
            "n_samples": N_SAMPLES,
            "m": M,
            "phi": PHI,
            "seed": SEED,
            "quick": QUICK,
            "min_speedup": MIN_SPEEDUP,
        }
    }

    # --- cold vs warm precompute -------------------------------------
    with memoization_disabled():
        cold_model = Mallows(list(range(M)), PHI)
        cold_seconds = _time(lambda: model_tables(cold_model))
    model_tables(model)  # prime the instance cache
    warm_seconds = _time(lambda: model_tables(model))
    report["precompute"] = {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
    }

    # --- batched RIM (Mallows) sampling -------------------------------
    scalar_seconds = _time(
        lambda: model.sample_many(
            N_SAMPLES, np.random.default_rng(SEED), vectorized=False
        )
    )
    vector_seconds = _time(
        lambda: model.sample_positions(N_SAMPLES, np.random.default_rng(SEED))
    )
    report["rim_sampling"] = {
        "scalar_samples_per_s": _throughput(N_SAMPLES, scalar_seconds),
        "vectorized_samples_per_s": _throughput(N_SAMPLES, vector_seconds),
        "speedup": scalar_seconds / max(vector_seconds, 1e-12),
    }

    # --- batched AMP sampling -----------------------------------------
    scalar_seconds = _time(
        lambda: sampler.sample_many(
            N_SAMPLES, np.random.default_rng(SEED), vectorized=False
        )
    )
    vector_seconds = _time(
        lambda: sampler.sample_positions(
            N_SAMPLES, np.random.default_rng(SEED)
        )
    )
    report["amp_sampling"] = {
        "scalar_samples_per_s": _throughput(N_SAMPLES, scalar_seconds),
        "vectorized_samples_per_s": _throughput(N_SAMPLES, vector_seconds),
        "speedup": scalar_seconds / max(vector_seconds, 1e-12),
    }

    # --- rejection estimation (sampling + predicate) ------------------
    predicate = union_predicate(union, labeling)
    scalar_estimate = None
    vector_estimate = None

    def run_scalar():
        nonlocal scalar_estimate
        scalar_estimate = empirical_probability(
            model,
            predicate,
            N_SAMPLES,
            np.random.default_rng(SEED),
            vectorized=False,
        )

    def run_vectorized():
        nonlocal vector_estimate
        vector_estimate = empirical_probability(
            model, predicate, N_SAMPLES, np.random.default_rng(SEED)
        )

    scalar_seconds = _time(run_scalar)
    vector_seconds = _time(run_vectorized)
    report["rejection"] = {
        "scalar_samples_per_s": _throughput(N_SAMPLES, scalar_seconds),
        "vectorized_samples_per_s": _throughput(N_SAMPLES, vector_seconds),
        "speedup": scalar_seconds / max(vector_seconds, 1e-12),
        "scalar_estimate": scalar_estimate.estimate,
        "vectorized_estimate": vector_estimate.estimate,
    }

    # --- seeded scalar/vectorized estimate equivalence ----------------
    estimate_divergence = abs(
        scalar_estimate.estimate - vector_estimate.estimate
    )
    subranking = subranking_predicate(psi)
    scalar_sub = empirical_probability(
        model,
        subranking,
        N_SAMPLES,
        np.random.default_rng(SEED),
        vectorized=False,
    )
    vector_sub = empirical_probability(
        model, subranking, N_SAMPLES, np.random.default_rng(SEED)
    )
    sub_divergence = abs(scalar_sub.estimate - vector_sub.estimate)
    report["equivalence"] = {
        "rejection_estimate_divergence": estimate_divergence,
        "subranking_estimate_divergence": sub_divergence,
    }

    # --- record --------------------------------------------------------
    if not QUICK:
        JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    result = ExperimentResult(
        experiment="vectorized_kernels",
        headers=["path", "scalar_samples_per_s", "vectorized_samples_per_s",
                 "speedup"],
        rows=[
            [name,
             round(report[name]["scalar_samples_per_s"]),
             round(report[name]["vectorized_samples_per_s"]),
             round(report[name]["speedup"], 1)]
            for name in ("rim_sampling", "amp_sampling", "rejection")
        ],
        notes={
            "n_samples": N_SAMPLES,
            "m": M,
            "quick": QUICK,
            "precompute_cold_s": round(cold_seconds, 6),
            "precompute_warm_s": round(warm_seconds, 6),
        },
    )
    record_result(result)

    # Estimates are identical under the shared seed...
    assert estimate_divergence <= 1e-12
    assert sub_divergence <= 1e-12
    # ...and the batched kernels clear the throughput bar on the paths
    # the acceptance criteria name (AMP and rejection sampling).
    assert report["amp_sampling"]["speedup"] >= MIN_SPEEDUP
    assert report["rejection"]["speedup"] >= MIN_SPEEDUP
    assert report["rim_sampling"]["speedup"] >= MIN_SPEEDUP
    # The warm precompute path must not regress below the cold one.
    assert warm_seconds <= cold_seconds * 2 + 1e-3
