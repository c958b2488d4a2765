"""Pluggable execution backends for the serving layer's distinct solves.

:meth:`PreferenceService.answer_many` reduces a batch of requests to a
deduplicated work list of session solves.  This module is where that list
actually runs.  Three backends share one contract:

* ``serial`` — an in-process loop; the baseline every equivalence test
  compares against;
* ``thread`` — a ``ThreadPoolExecutor``; useful when solver options make
  solves release the GIL (or the caller overlaps batches), otherwise
  roughly serial for the pure-Python DP solvers;
* ``process`` — a ``ProcessPoolExecutor``; the exact DP solvers are
  CPU-bound Python loops, so this is the backend that actually scales
  solves across cores.

The process backend cannot ship live model/labeling/union objects cheaply
or safely, so every backend executes :class:`SolveTask` descriptors — small
picklable records built from the *same* canonical ``freeze()`` forms the
cache keys are made of (:mod:`repro.service.keys`).  ``thaw_model`` /
``thaw_labeling`` / ``thaw_union`` reconstruct semantically identical
objects on the other side; the test suite pins that a thawed solve is
bit-identical to solving the original objects, which is what lets the three
backends (and the cache) interchange freely.

Every executed task reports a :class:`TaskOutcome` carrying the measured
solve wall time, which the service attributes back to the queries that
consumed the solve.  See DESIGN.md, "Executors, persistence, planning".
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.patterns.labels import Labeling
from repro.patterns.pattern import LabelPattern, PatternNode
from repro.patterns.union import PatternUnion
from repro.rankings.permutation import Ranking
from repro.rim.mallows import Mallows
from repro.rim.mixture import MallowsMixture
from repro.rim.model import RIM

#: Names accepted by :func:`resolve_backend` (and the ``--backend`` flag).
BACKENDS = ("serial", "thread", "process")


# ----------------------------------------------------------------------
# Thawing: canonical freeze() forms back to live objects
# ----------------------------------------------------------------------


def thaw_model(form: tuple):
    """Reconstruct a model from its ``freeze()`` form.

    Inverts :meth:`RIM.freeze`, :meth:`Mallows.freeze`, and
    :meth:`MallowsMixture.freeze` (including the single-full-weight-
    component collapse, which freezes as the component itself).  The thawed
    model is the same distribution: Mallows rebuilds from ``(sigma, phi)``
    against the shared memoized insertion matrix, RIM round-trips its
    matrix exactly through ``tobytes``.
    """
    tag = form[0]
    if tag == "rim":
        _, items, pi_bytes = form
        m = len(items)
        pi = np.frombuffer(pi_bytes, dtype=float).reshape(m, m)
        return RIM(Ranking(items), pi)
    if tag == "mallows":
        _, items, phi = form
        return Mallows(Ranking(items), phi)
    if tag == "mixture":
        _, entries = form
        return MallowsMixture(
            [thaw_model(component_form) for component_form, _ in entries],
            [weight for _, weight in entries],
        )
    raise ValueError(f"unknown frozen model form with tag {tag!r}")


def thaw_labeling(form: tuple) -> Labeling:
    """Reconstruct a labeling from :meth:`Labeling.freeze` output.

    The service freezes labelings *projected* onto the union's labels; the
    thawed labeling therefore carries exactly the labels the solve can
    observe, which is sufficient (and what the cache key asserts).
    """
    tag, entries = form
    if tag != "labeling":
        raise ValueError(f"unknown frozen labeling form with tag {tag!r}")
    return Labeling({item: labels for item, labels in entries})


def thaw_pattern(form: tuple) -> LabelPattern:
    """Reconstruct a pattern from :meth:`LabelPattern.canonical_form` output.

    Node names carry no semantics, so the ``"canonical"`` (name-free) form
    synthesizes positional names; the ``"named"`` fallback form keeps the
    original ones.  Either way the thawed pattern matches exactly the same
    rankings as the pattern that was frozen.
    """
    tag, nodes_part, edges = form
    if tag == "named":
        nodes = [
            PatternNode(name, frozenset(labels)) for name, labels in nodes_part
        ]
    elif tag == "canonical":
        nodes = [
            PatternNode(f"n{index}", frozenset(labels))
            for index, labels in enumerate(nodes_part)
        ]
    else:
        raise ValueError(f"unknown frozen pattern form with tag {tag!r}")
    return LabelPattern(
        [(nodes[u], nodes[v]) for u, v in edges], nodes=nodes
    )


def thaw_union(form: tuple) -> PatternUnion:
    """Reconstruct a pattern union from :meth:`PatternUnion.freeze` output."""
    tag, pattern_forms = form
    if tag != "pattern_union":
        raise ValueError(f"unknown frozen union form with tag {tag!r}")
    return PatternUnion([thaw_pattern(f) for f in pattern_forms])


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------


def task_model_form(model) -> tuple:
    """A structure-preserving freeze for task transport (NOT for keys).

    Cache keys canonicalize mixtures (:meth:`MallowsMixture.freeze` sorts
    components, merges duplicates, collapses a single full-weight
    component) — sound for deduplication, but a work descriptor must
    reproduce the *original* solve exactly: marginalization sums in
    component order, and a collapsed mixture would thaw as a plain model
    and mis-report its solver (``two_label`` instead of
    ``mixture[two_label]``).  Tasks therefore ship mixtures with their
    component order, duplicates, and weights verbatim; plain models use
    their canonical ``freeze()`` unchanged.
    """
    if isinstance(model, MallowsMixture):
        return (
            "mixture",
            tuple(
                (task_model_form(component), weight)
                for component, weight in zip(model.components, model.weights)
            ),
        )
    return model.freeze()


@dataclass(frozen=True)
class SolveTask:
    """A picklable, self-contained descriptor of one session solve.

    Built from the canonical ``freeze()`` forms (the same ones the cache
    keys use) — except the model, which uses the structure-preserving
    :func:`task_model_form` — so the descriptor is small, process-portable,
    and reproduces the original solve bit-for-bit.  ``options`` must hold
    picklable values (the solver options already have to be ``repr``-stable
    for the cache key, which in practice means plain scalars).  ``cost`` is
    the planner's state-count estimate (:mod:`repro.plan.cost`),
    carried along so schedulers need not re-derive it.
    """

    model_form: tuple
    labeling_form: tuple
    union_form: tuple
    method: str
    options: dict[str, Any] = field(default_factory=dict)
    cost: float = 0.0


def make_solve_task(
    model,
    labeling: Labeling,
    union: PatternUnion,
    method: str,
    options: dict[str, Any] | None = None,
    cost: float = 0.0,
    labeling_form: tuple | None = None,
    union_form: tuple | None = None,
) -> SolveTask:
    """Freeze a live (model, labeling, union) solve request into a task.

    Canonicalizing the union/labeling is the expensive half; callers that
    already computed those forms for the cache key (the service's request
    fingerprints) pass them in via ``labeling_form``/``union_form`` instead
    of re-freezing.
    """
    return SolveTask(
        model_form=task_model_form(model),
        labeling_form=(
            labeling_form if labeling_form is not None
            else labeling.freeze(union.all_labels)
        ),
        union_form=union_form if union_form is not None else union.freeze(),
        method=method,
        options=dict(options or {}),
        cost=cost,
    )


@dataclass(frozen=True)
class TaskOutcome:
    """The result of executing one :class:`SolveTask`.

    ``seconds`` is the wall time measured around the solve (thaw included:
    it is part of the work the task costs wherever it runs), used by the
    service for per-query time attribution.
    """

    probability: float
    solver: str
    seconds: float

    @property
    def value(self) -> tuple[float, str]:
        """The ``(probability, solver)`` pair the solver caches store."""
        return (self.probability, self.solver)


def run_solve_task(task: SolveTask) -> TaskOutcome:
    """Thaw and solve one task; the worker function of every backend.

    Module-level (and argument-picklable) so ``ProcessPoolExecutor`` can
    ship it; the in-process backends call it directly, keeping all three
    backends on one code path — the equivalence tests then reduce to
    "thawed solve == original solve", which is pinned separately.
    """
    # Deferred: the engine imports repro.service at load time.
    from repro.query.engine import solve_session

    started = time.perf_counter()
    probability, solver_name = solve_session(
        thaw_model(task.model_form),
        thaw_labeling(task.labeling_form),
        thaw_union(task.union_form),
        method=task.method,
        **task.options,
    )
    return TaskOutcome(
        probability=probability,
        solver=solver_name,
        seconds=time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


def default_worker_count() -> int:
    """Worker-pool default: ``min(8, usable cpus)``.

    The usable count honors the process's CPU affinity mask where the
    platform exposes one (containers and ``taskset`` routinely pin a
    fleet's workers to disjoint cores, and ``os.cpu_count()`` would
    oversubscribe them), falling back to the raw core count elsewhere.
    """
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0)) or 1
    else:
        usable = os.cpu_count() or 1
    return min(8, usable)


class ExecutionBackend:
    """Base class: execute tasks, preserving input order of the outcomes."""

    name = "base"

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers

    def workers(self) -> int:
        count = (
            self.max_workers
            if self.max_workers is not None
            else default_worker_count()
        )
        return max(1, count)

    def run(self, tasks: Sequence[SolveTask]) -> list[TaskOutcome]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class SerialBackend(ExecutionBackend):
    """An in-process loop — the reference the others must match exactly."""

    name = "serial"

    def run(self, tasks: Sequence[SolveTask]) -> list[TaskOutcome]:
        return [run_solve_task(task) for task in tasks]


class ThreadBackend(ExecutionBackend):
    """A ``ThreadPoolExecutor`` over :func:`run_solve_task`."""

    name = "thread"

    def run(self, tasks: Sequence[SolveTask]) -> list[TaskOutcome]:
        if self.workers() <= 1 or len(tasks) <= 1:
            return [run_solve_task(task) for task in tasks]
        with ThreadPoolExecutor(max_workers=self.workers()) as pool:
            return list(pool.map(run_solve_task, tasks))


class ProcessBackend(ExecutionBackend):
    """A ``ProcessPoolExecutor`` shipping pickled :class:`SolveTask`s.

    The only backend where the pure-Python DP solves truly run in parallel.
    Worker processes rebuild models from the canonical forms; the memoized
    kernel tables (:mod:`repro.kernels.precompute`) warm up per worker and
    amortize across the tasks each worker executes.  ``chunksize`` is kept
    at 1 so the planner's largest-first order translates into LPT
    scheduling across workers.
    """

    name = "process"

    def run(self, tasks: Sequence[SolveTask]) -> list[TaskOutcome]:
        # One worker or one task cannot parallelize: skip the pool startup
        # and pickling (outcomes are bit-identical either way).
        if self.workers() <= 1 or len(tasks) <= 1:
            return [run_solve_task(task) for task in tasks]
        workers = min(self.workers(), len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_solve_task, tasks, chunksize=1))


def resolve_backend(
    backend: "str | ExecutionBackend | None",
    max_workers: int | None = None,
) -> ExecutionBackend:
    """Turn a backend spec (name, instance, or None) into a backend.

    ``None`` defaults to ``thread`` (the :class:`~repro.service.service
    .PreferenceService` default); an instance passes through untouched, ignoring
    ``max_workers`` (the instance already owns its pool size).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    name = backend if backend is not None else "thread"
    if name == "serial":
        return SerialBackend(max_workers)
    if name == "thread":
        return ThreadBackend(max_workers)
    if name == "process":
        return ProcessBackend(max_workers)
    raise ValueError(
        f"unknown backend {name!r}; expected one of {BACKENDS} "
        "or an ExecutionBackend instance"
    )
