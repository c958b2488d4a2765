"""The unified evaluation path: typed requests -> :class:`Answer`.

Every query kind flows through the same build -> optimize -> execute
pipeline (:mod:`repro.plan`): the request's Boolean CQ compiles into the
shared solve frontier, the optimizer passes resolve methods, annotate
costs, and merge identical solves — *across request kinds*, so a Count and
a Probability of the same query share every solve — and the executor runs
the surviving frontier through the unchanged solver/cache stack, with the
kind-specific terminal (count/expectation aggregation, upper-bound-pruned
top-k, possible-world attribute draws) on top.

:func:`answer` is the single-request entry point; :func:`answer_many` is
the batch entry point (behind
:meth:`repro.service.service.PreferenceService.answer_many`) for
mixed-kind request lists.  Both run one build -> optimize -> execute step
(:func:`_run_plan`), which a standing-query refresh
(:mod:`repro.stream.standing`) also runs over its stale registrations;
:func:`assemble_answers` turns an executed plan's terminals into
:class:`Answer` envelopes.

Every optimized plan comes from one function, :func:`_optimized_plan`.
Given a store (only a :class:`~repro.service.service.PreferenceService`
passes its own), it memoizes the plan under the requests by value, the
method, the solver options, ``session_limit``, the database object and
its generation, so a repeated request skips build and optimize.  That is
sound because an optimized plan is never written again: each execution
keeps its own state (:class:`~repro.plan.execute.PlanExecution`).
"""

from __future__ import annotations

import time
import warnings
from typing import Any, Hashable, Sequence

import numpy as np

from repro.api.answer import Answer, BatchAnswer
from repro.api.requests import QueryRequest, as_request
from repro.plan.build import build_plan
from repro.plan.execute import PlanExecution, execute_plan
from repro.plan.grounding import Grounding
from repro.plan.methods import APPROXIMATE_METHODS, check_required_options
from repro.plan.nodes import QueryPlan, TerminalNode
from repro.plan.passes import optimize_plan
from repro.query.engine import SessionEvaluation, aggregate_sessions
from repro.service.cache import LRUStore, SolverCache
from repro.service.executors import (
    ExecutionBackend,
    ProcessBackend,
    resolve_backend,
)


def db_generation(db) -> "int | None":
    """The database's monotonic mutation counter, if it has one.

    Static snapshots have no ``generation`` attribute and stamp ``None``;
    a :class:`~repro.db.mutable.MutablePPDatabase` stamps the counter the
    answer was computed against, making stale reads detectable.
    """
    generation = getattr(db, "generation", None)
    return generation if isinstance(generation, int) else None


def answer(
    request: "QueryRequest | Any",
    db,
    method: str = "auto",
    rng: "np.random.Generator | None" = None,
    group_sessions: bool = True,
    session_limit: int | None = None,
    cache: SolverCache | None = None,
    optimize: bool = True,
    **solver_options,
) -> Answer:
    """Evaluate one typed request (or query/text) through the plan pipeline.

    The request kind decides the terminal node and the envelope.

    Parameters
    ----------
    method:
        An exact solver name (``"auto"``, ``"two_label"``, ``"bipartite"``,
        ``"general"``, ``"lifted"``, ``"brute"``), an approximate one
        (``"mis_amp_lite"``, ``"mis_amp_adaptive"``, ``"rejection"``), or
        ``"auto-approx"`` — auto resolution with an opt-in MIS-AMP fallback
        for solves whose estimated DP state count exceeds the
        ``approx_budget`` solver option (requires ``rng`` when it
        triggers); see :mod:`repro.plan.methods`.
    group_sessions:
        Solve each distinct (model, union) pair once (Section 6.4) — the
        plan's common-solve elimination pass.
    session_limit:
        Evaluate only the first N selected sessions (for scalability
        sweeps).
    cache:
        An optional :class:`~repro.service.cache.SolverCache` shared across
        calls.  Session solves are then grouped by *canonical* key and
        consulted/stored in the cache before dispatching.  Ignored for the
        sampling methods (their results are rng-dependent) and when
        ``group_sessions=False`` or ``optimize=False`` (the naive and
        unoptimized baselines must re-solve every session).  Cross-query
        hits are reported in ``stats["cache_hits"]``.
    optimize:
        Apply the optimizer pass pipeline (default).  ``False`` executes
        the unoptimized plan — one solve per session, no reordering, and
        no cache use — the reference the per-pass equivalence tests
        compare against.
    solver_options:
        Forwarded to the chosen solver (e.g. ``n_proposals=10`` for
        MIS-AMP-lite, ``time_budget=60`` for exact solvers).
    """
    return _answer(
        request, db, method, rng, group_sessions, session_limit, cache,
        optimize, **solver_options,
    )


def _answer(
    request: "QueryRequest | Any",
    db,
    method: str = "auto",
    rng: "np.random.Generator | None" = None,
    group_sessions: bool = True,
    session_limit: int | None = None,
    cache: SolverCache | None = None,
    optimize: bool = True,
    *,
    plans: LRUStore | None = None,
    **solver_options,
) -> Answer:
    """:func:`answer`, reading and filling the plan memo ``plans`` (a
    :class:`~repro.service.service.PreferenceService`'s) when the plan
    is canonical."""
    started = time.perf_counter()
    check_required_options(method, solver_options)
    request = as_request(request)
    if request.kind == "top_k" and method in APPROXIMATE_METHODS:
        # Top-k scores every session independently, so rng-driven
        # solves keep one draw stream per session —
        # grouping would merge identical sessions and shift the stream.
        group_sessions = False
    # Canonical cache keys are computed by the optimizer's elimination
    # pass, so the unoptimized reference plan is also cacheless — it is
    # the naive baseline, not a differently-keyed cache client.
    use_cache = (
        cache is not None
        and method not in APPROXIMATE_METHODS
        and group_sessions
        and optimize
    )
    plan, execution = _run_plan(
        [request], db, method, solver_options, group_sessions,
        session_limit, optimize=optimize, canonical=use_cache, rng=rng,
        cache=cache if use_cache else None, backend=None,
        plans=plans if use_cache else None,
    )
    result = assemble_answers(
        plan, execution, batched=False, with_cache=use_cache
    )[0]
    # A memoized plan holds the equal request of the call that built it.
    result.request = request
    result.seconds = time.perf_counter() - started
    result.generation = db_generation(db)
    return result


def answer_many(
    requests: Sequence["QueryRequest | Any"],
    db,
    method: str = "auto",
    rng: "np.random.Generator | None" = None,
    cache: SolverCache | None = None,
    backend: "str | ExecutionBackend | None" = None,
    max_workers: int | None = None,
    session_limit: int | None = None,
    **solver_options,
) -> BatchAnswer:
    """Evaluate a mixed-kind batch with batch-wide solve deduplication.

    The whole batch is planned as one DAG: the optimizer's canonical
    common-solve elimination merges identical solves across sessions,
    queries, *and kinds* (a ``Count`` and a ``Probability`` of the same
    query cost one solve, not two), the surviving frontier runs on the
    configured backend, and each request's terminal assembles its own
    answer.  Sampling methods are rng-driven and non-cacheable, so they
    fall back to sequential per-request evaluation (a parallelism request
    is then warned about, not silently ignored).
    """
    return _answer_many(
        requests, db, method, rng, cache, backend, max_workers,
        session_limit, **solver_options,
    )


def _answer_many(
    requests: Sequence["QueryRequest | Any"],
    db,
    method: str = "auto",
    rng: "np.random.Generator | None" = None,
    cache: SolverCache | None = None,
    backend: "str | ExecutionBackend | None" = None,
    max_workers: int | None = None,
    session_limit: int | None = None,
    *,
    plans: LRUStore | None = None,
    **solver_options,
) -> BatchAnswer:
    """:func:`answer_many`, reading and filling the plan memo ``plans`` (a
    :class:`~repro.service.service.PreferenceService`'s) in the exact
    branch; the rng-driven branch never reaches it."""
    started = time.perf_counter()
    check_required_options(method, solver_options)
    parsed = [as_request(item) for item in requests]
    backend = backend if backend is not None else "serial"

    if method in APPROXIMATE_METHODS:
        if _parallelism_requested(backend, max_workers):
            warnings.warn(
                f"approximate method {method!r} is rng-driven and runs "
                "sequentially; the requested parallelism "
                "(max_workers/backend) is ignored",
                UserWarning,
                stacklevel=3,  # past answer_many or the service method
            )
        answers = [
            answer(
                request,
                db,
                method=method,
                rng=rng,
                session_limit=session_limit,
                **solver_options,
            )
            for request in parsed
        ]
        return BatchAnswer(
            answers=answers,
            n_requests=len(answers),
            n_sessions=sum(one.n_sessions for one in answers),
            n_distinct_solves=sum(
                one.stats["n_solver_calls"] for one in answers
            ),
            n_cache_hits=0,
            seconds=time.perf_counter() - started,
            cache_stats=cache.stats().as_dict() if cache is not None else {},
            backend="serial",
            generation=db_generation(db),
        )

    execution_backend = resolve_backend(backend, max_workers)
    plan, execution = _run_plan(
        parsed, db, method, solver_options, True, session_limit,
        optimize=True, canonical=True, rng=rng, cache=cache,
        backend=execution_backend, plans=plans,
    )
    answers = assemble_answers(plan, execution, batched=True)
    generation = db_generation(db)
    for one, request in zip(answers, parsed):
        one.request = request  # the caller's, not the memoized plan's
        one.generation = generation
    return BatchAnswer(
        answers=answers,
        n_requests=len(answers),
        n_sessions=sum(one.n_sessions for one in answers),
        n_distinct_solves=execution.n_executed,
        n_cache_hits=execution.n_cache_hits,
        seconds=time.perf_counter() - started,
        cache_stats=cache.stats().as_dict() if cache is not None else {},
        backend=execution_backend.name,
        n_solves_planned=plan.n_solves_planned,
        n_solves_eliminated=plan.n_solves_eliminated,
        generation=generation,
    )


def _run_plan(
    requests: list[QueryRequest],
    db: Any,
    method: str,
    solver_options: dict[str, Any],
    group_sessions: bool,
    session_limit: int | None,
    *,
    optimize: bool,
    canonical: bool,
    rng: "np.random.Generator | None",
    cache: SolverCache | None,
    backend: "ExecutionBackend | None",
    plans: LRUStore | None = None,
    grounding: Grounding | None = None,
) -> "tuple[QueryPlan, PlanExecution]":
    """(Memoized) build -> optimize, then execute, recording the plan on
    ``cache``.

    The one step behind :func:`answer`, the exact branch of
    :func:`answer_many` and a standing-query refresh
    (:mod:`repro.stream.standing`); they differ only in backend, grouping
    mode (``canonical``), plan memo, grounding (only a refresh keeps one)
    and how they wrap the answers.  An unoptimized plan
    (``optimize=False``) is built fresh every time.
    """
    if optimize:
        plan = _optimized_plan(
            requests, db, method, solver_options, group_sessions,
            session_limit, canonical=canonical, plans=plans,
            grounding=grounding,
        )
    else:
        plan = build_plan(
            requests, db, method=method, options=solver_options,
            group_sessions=group_sessions, session_limit=session_limit,
        )
    execution = execute_plan(plan, cache=cache, rng=rng, backend=backend)
    if cache is not None:
        cache.record_plan(
            plan.n_solves_planned,
            plan.n_solves_eliminated,
            len(plan.passes_applied),
        )
    return plan, execution


def _optimized_plan(
    requests: list[QueryRequest],
    db: Any,
    method: str,
    solver_options: dict[str, Any],
    group_sessions: bool,
    session_limit: int | None,
    *,
    canonical: bool,
    plans: LRUStore | None,
    grounding: Grounding | None = None,
) -> QueryPlan:
    """Every optimized plan: build -> optimize, or the memo's plan.

    With a ``plans`` store the plan is memoized under the requests by
    value, the method, the solver options, ``session_limit``, the
    database object and its generation, read before building, so a plan
    is never served for another database state than the one it was built
    from (a plan built while a writer moved the generation on is filed
    under the older one, which no later lookup asks for).  Callers pass a
    store only for canonical, grouped plans, the ones a service runs.

    Build and optimize read through one grounding
    (:class:`~repro.plan.grounding.Grounding`), the caller's or a fresh
    one, and hold its lock between them.
    """
    if plans is not None:
        key = (
            tuple(requests), method, tuple(sorted(solver_options.items())),
            session_limit, db, db_generation(db),
        )
        memoized: "QueryPlan | None" = plans.get(key)
        if memoized is not None:
            return memoized
    grounding = grounding if grounding is not None else Grounding()
    with grounding.lock:
        plan = build_plan(
            requests, db, method=method, options=solver_options,
            group_sessions=group_sessions, session_limit=session_limit,
            grounding=grounding,
        )
        optimize_plan(plan, canonical=canonical, grounding=grounding)
    if plans is not None:
        plans.put_many([(key, plan)])
    return plan


def _parallelism_requested(
    backend: "str | ExecutionBackend", max_workers: int | None
) -> bool:
    """Did the caller ask for parallelism an rng-driven batch must ignore?

    A process backend or a >1 worker pool counts; a thread backend alone
    does not (thread parallelism over sequential solves is a performance
    no-op).
    """
    return (
        backend == "process"
        or isinstance(backend, ProcessBackend)
        or (max_workers is not None and max_workers > 1)
    )


# ----------------------------------------------------------------------
# Assembly: terminals -> answers
# ----------------------------------------------------------------------


def assemble_answers(
    plan: QueryPlan,
    execution: PlanExecution,
    batched: bool = False,
    with_cache: bool = False,
) -> list[Answer]:
    """One :class:`Answer` per terminal, in request order."""
    return [
        _assemble(plan, execution, terminal, batched, with_cache)
        for terminal in plan.aggregate_nodes()
    ]


def _assemble(
    plan: QueryPlan,
    execution: PlanExecution,
    terminal: TerminalNode,
    batched: bool,
    with_cache: bool,
) -> Answer:
    """Fold a terminal's ``(session, solve_id)`` items once, then by kind.

    Per request, ``n_solver_calls`` counts the solves executed fresh for
    it, ``n_groups`` the distinct solve groups it references, and
    ``cache_hits`` the groups served by the shared cache (plus
    batch-shared solves in the batch path); in the batch path ``seconds``
    is the measured wall time of the fresh solves the request consumed.
    A top-k terminal folds only the sessions its adaptive frontier
    evaluated: pruned solves never resolved.
    """
    request = plan.requests[terminal.query_index]
    topk = execution.topk.get(terminal.node_id)
    items = terminal.items if topk is None else topk.evaluated
    per_session: list[SessionEvaluation] = []
    groups: set[Hashable] = set()
    fresh: set[int] = set()
    served: set[int] = set()
    for session_key, solve_id in items:
        if solve_id is None:
            per_session.append(
                SessionEvaluation(session_key, 0.0, "unsatisfiable")
            )
            continue
        probability, solver_name = execution.resolved[solve_id]
        groups.add(plan.nodes[solve_id].group_key)
        if solve_id in execution.fresh:
            fresh.add(solve_id)
        elif solve_id in execution.cache_served:
            served.add(solve_id)
        per_session.append(
            SessionEvaluation(session_key, probability, solver_name)
        )

    if batched:
        seconds = sum(
            execution.seconds_by_solve.get(node_id, 0.0) for node_id in fresh
        )
    else:
        seconds = execution.seconds

    stats: dict[str, Any]
    if topk is not None:
        stats = {
            "n_solver_calls": len(fresh),
            "cache_hits": len(served),
            "n_exact_evaluations": topk.n_exact,
            "n_upper_bound_evaluations": topk.n_upper_bound,
            "n_pruned": len(terminal.items) - topk.n_exact,
            "upper_bound_seconds": topk.upper_bound_seconds,
            "exact_seconds": topk.exact_seconds,
        }
        value: Any = topk.confirmed[: request.k]
    else:
        if batched:
            stats = {"batched": True, "cache_hits": len(groups) - len(fresh)}
        else:
            stats = {"cache_hits": len(served)} if with_cache else {}
        stats.update(n_solver_calls=len(fresh), n_groups=len(groups))
        if request.kind == "count":
            value = float(sum(one.probability for one in per_session))
        elif request.kind == "aggregate":
            outcome = execution.attribute[terminal.node_id]
            value = outcome.expectation
            stats.update(
                probability_any=outcome.probability_any,
                weighted_average=outcome.weighted_average,
                n_worlds=request.n_worlds,
                statistic=request.statistic,
            )
        else:
            value = aggregate_sessions(per_session)

    return Answer(
        request=request,
        kind=request.kind,
        value=value,
        per_session=per_session,
        methods=tuple(
            sorted(
                {
                    one.solver
                    for one in per_session
                    if one.solver and one.solver != "unsatisfiable"
                }
            )
        ),
        requested_method=plan.method,
        n_sessions=len(terminal.items),
        seconds=seconds,
        stats=stats,
    )
