"""Pluggable execution backends for a plan's solve frontier.

The plan executor (:mod:`repro.plan.execute`) hands a backend the live,
method-resolved :class:`~repro.plan.nodes.SolveNode` objects whose solves
it owns and gets one :class:`TaskOutcome` per node back, in order.  Three
backends share that contract:

* ``serial`` — an in-process loop; the default of
  :func:`~repro.plan.execute.execute_plan` and the reference every
  equivalence test compares against;
* ``thread`` — a ``ThreadPoolExecutor`` over the same live objects; the
  exact DP solvers release the GIL only inside NumPy calls, so it helps a
  few large solves and is slower than ``serial`` on many small ones
  (DESIGN.md Section 8.1 has the measurements);
* ``process`` — a ``ProcessPoolExecutor``; the backend that scales the
  exact DP solves across cores.

The process backend cannot ship live model/labeling/union objects, so it
alone freezes each node into a :class:`SolveTask`, a small picklable
record built from the *same* canonical ``freeze()`` forms the cache keys
digest (:mod:`repro.service.keys`), freezing each (labeling, union)
pair once per run.  ``thaw_model`` /
``thaw_labeling`` / ``thaw_union`` reconstruct semantically identical
objects in the worker; the test suite pins that a thawed solve is
bit-identical to solving the original objects, which is what lets the
three backends (and the cache) interchange freely.

Every backend calls :func:`repro.query.engine.solve_session` through the
engine module at call time, and each outcome carries the measured solve
wall time, which the executor attributes back to the requests that
consumed the solve.  :func:`solve_node` also computes a top-k
:class:`~repro.plan.nodes.BoundNode`'s upper bound, through
:func:`repro.plan.execute.session_upper_bound` looked up at call time; the
executor runs bound nodes on a :class:`SerialBackend` only, since a bound
is a small DP that a pool would cost more than it saves.  See DESIGN.md,
"Executors, persistence, planning".
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Sequence, TYPE_CHECKING

import numpy as np

from repro.patterns.labels import Labeling
from repro.patterns.pattern import LabelPattern, PatternNode
from repro.patterns.union import PatternUnion
from repro.query import engine
from repro.rankings.permutation import Ranking
from repro.rim.mallows import Mallows
from repro.rim.mixture import MallowsMixture
from repro.rim.model import RIM
from repro.service.persist import BOUND_SOLVER

if TYPE_CHECKING:
    from repro.plan.nodes import BoundNode, SolveNode

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
    """A picklable, self-contained descriptor of one session solve: the
    process backend's transport.

    Built from the canonical ``freeze()`` forms (the same ones the cache
    keys use) — except the model, which uses the structure-preserving
    :func:`task_model_form` — so the descriptor is small, process-portable,
    and reproduces the original solve bit-for-bit.  ``options`` must hold
    picklable values (the solver options already have to be ``repr``-stable
    for the cache key, which in practice means plain scalars).
    """

    model_form: tuple
    labeling_form: tuple
    union_form: tuple
    method: str
    options: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class TaskOutcome:
    """The result of one solve on a backend.

    ``seconds`` is the wall time measured around the solve (a process
    task's thaw included: it is part of the work the task costs wherever
    it runs), used for per-request time attribution.
    """

    probability: float
    solver: str
    seconds: float

    @property
    def value(self) -> tuple[float, str]:
        """The ``(probability, solver)`` pair the solver caches store."""
        return (self.probability, self.solver)


def _timed_solve(
    started: float, model, labeling, union, method: str, options: dict
) -> TaskOutcome:
    probability, solver_name = engine.solve_session(
        model, labeling, union, method=method, **options
    )
    return TaskOutcome(
        probability=probability,
        solver=solver_name,
        seconds=time.perf_counter() - started,
    )


def solve_node(node: "SolveNode | BoundNode") -> TaskOutcome:
    """Solve one live, method-resolved solve node in this process, or
    compute one bound node's upper bound."""
    if node.kind == "upper_bound":
        # Deferred (the executor imports this module) and looked up at
        # call time, so a patched session_upper_bound sees every bound.
        from repro.plan import execute

        started = time.perf_counter()
        bound = execute.session_upper_bound(
            node.model, node.labeling, node.union, node.n_edges
        )
        return TaskOutcome(
            bound, BOUND_SOLVER, time.perf_counter() - started
        )
    return _timed_solve(
        time.perf_counter(),
        node.model, node.labeling, node.union, node.method, node.options,
    )


def run_solve_task(task: SolveTask) -> TaskOutcome:
    """Thaw and solve one task: the process backend's worker function
    (module-level, so ``ProcessPoolExecutor`` can ship it).  The clock
    starts before the thaw, which is part of the task's cost."""
    return _timed_solve(
        time.perf_counter(),
        thaw_model(task.model_form),
        thaw_labeling(task.labeling_form),
        thaw_union(task.union_form),
        task.method,
        task.options,
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
    """Base class: solve live nodes, preserving their order in the outcomes."""

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

    def run(self, nodes: "Sequence[SolveNode]") -> list[TaskOutcome]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class SerialBackend(ExecutionBackend):
    """An in-process loop — the reference the others must match exactly."""

    name = "serial"

    def run(
        self, nodes: "Sequence[SolveNode | BoundNode]"
    ) -> list[TaskOutcome]:
        return [solve_node(node) for node in nodes]


class ThreadBackend(ExecutionBackend):
    """A ``ThreadPoolExecutor`` over :func:`solve_node`."""

    name = "thread"

    def run(self, nodes: "Sequence[SolveNode]") -> list[TaskOutcome]:
        if self.workers() <= 1 or len(nodes) <= 1:
            return [solve_node(node) for node in nodes]
        with ThreadPoolExecutor(max_workers=self.workers()) as pool:
            return list(pool.map(solve_node, nodes))


class ProcessBackend(ExecutionBackend):
    """A ``ProcessPoolExecutor`` shipping pickled :class:`SolveTask`s.

    The only backend where the DP solves truly run in parallel, and the
    only one that freezes nodes.  Worker processes rebuild models from the
    canonical forms; the memoized kernel tables
    (:mod:`repro.kernels.precompute`) warm up per worker and amortize
    across the tasks each worker executes.  ``chunksize`` is kept at 1 so
    the planner's largest-first order translates into LPT scheduling
    across workers.
    """

    name = "process"

    def run(self, nodes: "Sequence[SolveNode]") -> list[TaskOutcome]:
        # A model with no freeze() form (a non-RIM session, which only
        # rejection and brute take) cannot travel: it solves here.
        stays = [not hasattr(node.model, "freeze") for node in nodes]
        # One worker or one shippable node cannot parallelize: solve the
        # live objects here, with no pool startup or pickling (outcomes
        # are bit-identical either way).
        if self.workers() <= 1 or len(nodes) - sum(stays) <= 1:
            return [solve_node(node) for node in nodes]
        # The sessions of one union share its labeling and union objects:
        # canonicalizing them is the expensive half, so do it once a pair.
        forms: dict[tuple[int, int], tuple[tuple, tuple]] = {}
        tasks = []
        for node, stay in zip(nodes, stays):
            if stay:
                continue
            pair = (id(node.labeling), id(node.union))
            if pair not in forms:
                forms[pair] = (
                    node.labeling.freeze(node.union.all_labels),
                    node.union.freeze(),
                )
            tasks.append(
                SolveTask(
                    task_model_form(node.model), *forms[pair],
                    node.method, dict(node.options),
                )
            )
        workers = min(self.workers(), len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shipped = pool.map(run_solve_task, tasks, chunksize=1)
            # The pool has every task by now: solve the rest meanwhile.
            here = iter([
                solve_node(node) for node, stay in zip(nodes, stays) if stay
            ])
            return [next(here if stay else shipped) for stay in stays]


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
