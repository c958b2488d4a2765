"""Outside-in layer spans: wrappers around the public functions of each layer.

The benchmark times layers without editing ``src/``: :func:`install`
replaces each traced function with a wrapper that records a span, both
in the module that defines it and at every ``from ... import`` site in
the loaded ``repro`` modules (``repro.plan.execute.solve_session`` as
well as ``repro.query.engine.solve_session``), and each traced method on
its class.  A span is ``(id, name, start, end, thread, parent, request,
info)``: ``perf_counter`` bounds, the thread it ran on, the enclosing
span of the same thread, the ``X-Client-Id`` of the HTTP request being
served (when there is one), and a small per-layer record such as the
solver that ran or whether a cache lookup hit.

Spans stay in memory; :meth:`Tracer.dump` writes them out once the
traced process is done.  A span's self time is its duration minus the
time its children on the same thread cover.  :func:`layer_metrics`
turns the spans of a measured phase into the benchmark's per-layer
metrics.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

FIELDS = ("id", "name", "start", "end", "thread", "parent", "request", "info")

#: The ``X-Client-Id`` of the request the current task serves.
REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_request_id", default=None
)

#: Solver classes reported one by one; any other solver name is "other".
SOLVER_CLASSES = ("two_label", "bipartite", "general")

_FAILED = object()


def _hit(args, kwargs, result):
    default = args[2] if len(args) > 2 else kwargs.get("default")
    return result is not default


def _n_items(args, kwargs, result):
    items = args[1] if len(args) > 1 else None
    return len(items) if hasattr(items, "__len__") else None


def _backend_info(args, kwargs, result):
    return [len(result), args[0].workers()]


def _solver(args, kwargs, result):
    return result[1]


def _execution(args, kwargs, result):
    plan, execution = args[0], result
    outcomes = execution.topk.values()
    return [
        plan.n_solves_planned,
        execution.n_executed,
        sum(outcome.n_upper_bound for outcome in outcomes),
        sum(outcome.n_exact for outcome in outcomes if outcome.n_upper_bound),
    ]


def _dropped(args, kwargs, result):
    return result


#: Traced functions: (module, attribute, span name, info).
FUNCTIONS = (
    ("repro.api.requests", "parse_request", "api.parse", None),
    ("repro.api.requests", "as_request", "api.parse", None),
    ("repro.api.evaluate", "assemble_answers", "api.assemble", None),
    ("repro.plan.build", "build_plan", "plan.build", None),
    ("repro.plan.passes", "optimize_plan", "plan.optimize", None),
    ("repro.plan.execute", "execute_plan", "plan.execute", _execution),
    ("repro.plan.execute", "session_upper_bound", "solve.upper_bound", None),
    ("repro.query.engine", "solve_session", "solve.session", _solver),
)

#: Traced methods: (module, class, method, span name, info).
METHODS = (
    ("repro.service.service", "PreferenceService", "answer_many",
     "service.answer_many", _n_items),
    ("repro.service.executors", "ThreadBackend", "run", "service.backend",
     _backend_info),
    ("repro.service.cache", "SolverCache", "get", "cache.get", _hit),
    ("repro.service.cache", "SolverCache", "put", "cache.put", None),
    ("repro.service.cache", "SolverCache", "put_many", "cache.put", _n_items),
    ("repro.service.cache", "SolverCache", "invalidate", "cache.invalidate",
     _dropped),
    ("repro.db.mutable", "MutablePPDatabase", "add_session", "db.mutation",
     None),
    ("repro.db.mutable", "MutablePPDatabase", "update_session", "db.mutation",
     None),
    ("repro.db.mutable", "MutablePPDatabase", "expire_session", "db.mutation",
     None),
    ("repro.stream.standing", "StandingQueryEngine", "refresh",
     "stream.refresh", None),
)

#: Coroutine methods, traced without a parent (interleaved on the loop):
#: (module, class, method, span name, position of the client id).
ASYNC_METHODS = (
    ("repro.server.app", "ServerApp", "handle", "server.handle", 4),
    ("repro.server.coalescer", "RequestCoalescer", "submit", "server.submit",
     None),
)

#: Every span name a run of all four workloads must record.
SPAN_NAMES = frozenset(
    [name for _, _, name, _ in FUNCTIONS]
    + [name for _, _, _, name, _ in METHODS]
    + [name for _, _, _, name, _ in ASYNC_METHODS]
)


class Tracer:
    """Records spans in memory, one thread-local stack of open spans each."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, function, info=None):
        """``function`` recording one span per call."""
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = _FAILED
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((
                    span_id, name, start, end, threading.get_ident(), parent,
                    REQUEST_ID.get(),
                    None if info is None or result is _FAILED
                    else info(args, kwargs, result),
                ))

        return traced

    def wrap_async(self, name: str, function, request_arg: "int | None"):
        """A coroutine method recording one span per call.

        ``request_arg`` is the position of the client id among the
        arguments (``self`` included); when given, the call's context
        carries it, so every span the request causes on the event loop
        is tagged with it.
        """
        spans, ids = self.spans, self._ids

        @functools.wraps(function)
        async def traced(*args, **kwargs):
            token = None
            if request_arg is not None and len(args) > request_arg:
                token = REQUEST_ID.set(args[request_arg])
            span_id = next(ids)
            start = time.perf_counter()
            try:
                return await function(*args, **kwargs)
            finally:
                spans.append((
                    span_id, name, start, time.perf_counter(),
                    threading.get_ident(), None, REQUEST_ID.get(), None,
                ))
                if token is not None:
                    REQUEST_ID.reset(token)

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"fields": FIELDS, "spans": list(self.spans)})
        )


def load(path: Path) -> list[tuple]:
    return [tuple(span) for span in json.loads(path.read_text())["spans"]]


def _replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` in every loaded ``repro`` module that holds it."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method of the ``repro`` layers.

    The modules that import traced functions by name are loaded first,
    so :func:`_replace_everywhere` finds every import site.
    """
    for module in (
        "repro.api", "repro.plan", "repro.server.app", "repro.server.cli",
        "repro.service.service", "repro.stream.standing", "repro.stream.replay",
    ):
        importlib.import_module(module)
    for module_name, attribute, name, info in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attribute)
        _replace_everywhere(original, tracer.wrap(name, original, info))
    for module_name, class_name, method, name, info in METHODS:
        owner = getattr(importlib.import_module(module_name), class_name)
        setattr(owner, method, tracer.wrap(name, owner.__dict__[method], info))
    for module_name, class_name, method, name, request_arg in ASYNC_METHODS:
        owner = getattr(importlib.import_module(module_name), class_name)
        setattr(
            owner, method,
            tracer.wrap_async(name, owner.__dict__[method], request_arg),
        )


# ----------------------------------------------------------------------
# Spans -> per-layer metrics
# ----------------------------------------------------------------------


def in_window(spans, start: float, end: float) -> list[tuple]:
    return [span for span in spans if span[2] >= start and span[3] <= end]


def solver_class(name: str) -> str:
    if name.startswith("mixture[") and name.endswith("]"):
        name = name[len("mixture["):-1]
    return name if name in SOLVER_CLASSES else "other"


def _p50_ms(values) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def _server_metrics(by_name, records, op_seconds):
    """Wire time and window wait of the requests in ``records``."""
    handled = {span[6]: span[3] - span[2] for span in by_name["server.handle"]}
    submitted = {span[6]: span for span in by_name["server.submit"]}
    batches = sorted(by_name["service.answer_many"], key=lambda span: span[3])
    batch_ends = [span[3] for span in batches]
    wire, wait = [], []
    for record in records:
        handle = handled.get(record.request_id)
        if handle is not None:
            wire.append(record.ended - record.started - handle)
        submit = submitted.get(record.request_id)
        if submit is None:
            continue
        index = bisect.bisect_right(batch_ends, submit[3]) - 1
        if index >= 0 and batches[index][2] >= submit[2]:
            batch = batches[index]
            wait.append((submit[3] - submit[2]) - (batch[3] - batch[2]))
    return {
        "server.wire_pct": (100.0 * sum(wire) / op_seconds, "%"),
        "server.window_wait_pct": (100.0 * sum(wait) / op_seconds, "%"),
    }, {
        "server.wire_ms_p50": (_p50_ms(wire), "ms"),
        "server.window_wait_ms_p50": (_p50_ms(wait), "ms"),
        "server.batch_ms_p50": (
            _p50_ms([s[3] - s[2] for s in batches]), "ms",
        ),
    }


def layer_metrics(spans, n_ops: int, op_seconds: float, records=()):
    """Per-layer metrics of one measured phase, and diagnostics.

    ``spans`` are the phase's spans, ``n_ops`` its operations (requests,
    batches or generations) and ``op_seconds`` the sum of their
    latencies.  Times of layers every workload runs are reported per
    operation; layers only some workloads run report their share of
    ``op_seconds`` in %, and counts per operation.  ``records`` are the
    client records of an HTTP phase, joined to server spans by id.
    Returns ``(metrics, diagnostics)``, each ``{name: (value, unit)}``.
    """
    by_name: dict[str, list[tuple]] = defaultdict(list)
    child_seconds: dict[int, float] = defaultdict(float)
    for span in spans:
        by_name[span[1]].append(span)
        if span[5] is not None:
            child_seconds[span[5]] += span[3] - span[2]

    def total(name: str, self_time: bool = False) -> float:
        return sum(
            span[3] - span[2] - (child_seconds[span[0]] if self_time else 0.0)
            for span in by_name[name]
        )

    def per_op_ms(name: str) -> tuple[float, str]:
        return (1000.0 * total(name, self_time=True) / n_ops, "ms")

    def share(seconds: float) -> tuple[float, str]:
        return (100.0 * seconds / op_seconds, "%")

    solves = by_name["solve.session"]
    by_class: dict[str, list[float]] = defaultdict(list)
    for span in solves:
        by_class[solver_class(span[7])].append(span[3] - span[2])
    gets = by_name["cache.get"]
    executions = [span[7] for span in by_name["plan.execute"]]
    planned = sum(info[0] for info in executions)
    executed = sum(info[1] for info in executions)
    bounded = sum(info[2] for info in executions)
    pruned = bounded - sum(info[3] for info in executions)
    batches = by_name["service.answer_many"]
    backends = by_name["service.backend"]

    # Solver time spent inside backend runs, against the runs' capacity.
    solve_starts = sorted((span[2], span[3] - span[2]) for span in solves)
    starts = [start for start, _ in solve_starts]
    busy = capacity = 0.0
    for span in backends:
        low = bisect.bisect_left(starts, span[2])
        high = bisect.bisect_right(starts, span[3])
        busy += sum(seconds for _, seconds in solve_starts[low:high])
        capacity += (span[3] - span[2]) * span[7][1]

    metrics = {
        "api.parse_ms_per_op": per_op_ms("api.parse"),
        "api.assemble_ms_per_op": per_op_ms("api.assemble"),
        "plan.build_ms_per_op": per_op_ms("plan.build"),
        "plan.optimize_ms_per_op": per_op_ms("plan.optimize"),
        "plan.execute_self_ms_per_op": per_op_ms("plan.execute"),
        "solve.upper_bound_ms_per_op": per_op_ms("solve.upper_bound"),
        "cache.get_us_mean": (
            1e6 * total("cache.get") / len(gets) if gets else 0.0, "us",
        ),
        "server.wire_pct": (0.0, "%"),
        "server.window_wait_pct": (0.0, "%"),
        "service.backend_pct": share(total("service.backend")),
        "solve.two_label_pct": share(sum(by_class["two_label"])),
        "solve.bipartite_pct": share(sum(by_class["bipartite"])),
        "solve.general_pct": share(sum(by_class["general"])),
        "solve.other_pct": share(sum(by_class["other"])),
        "cache.invalidate_pct": share(total("cache.invalidate")),
        "db.mutation_pct": share(total("db.mutation")),
        "stream.refresh_self_pct": share(total("stream.refresh", True)),
        "service.requests_per_batch": (
            statistics.mean(span[7] for span in batches) if batches else 0.0,
            "count",
        ),
        "plan.solves_planned_per_op": (planned / n_ops, "count/op"),
        "plan.solves_executed_per_op": (executed / n_ops, "count/op"),
        "plan.executed_ratio": (executed / planned if planned else 0.0, "ratio"),
        "cache.gets_per_op": (len(gets) / n_ops, "count/op"),
        "cache.hit_rate": (
            sum(1 for span in gets if span[7]) / len(gets) if gets else 0.0,
            "ratio",
        ),
        "cache.puts_per_op": (
            sum(1 if span[7] is None else span[7]
                for span in by_name["cache.put"]) / n_ops,
            "count/op",
        ),
        "cache.invalidations_per_op": (
            sum(span[7] for span in by_name["cache.invalidate"]) / n_ops,
            "count/op",
        ),
        "solve.two_label_calls_per_op": (
            len(by_class["two_label"]) / n_ops, "count/op",
        ),
        "solve.bipartite_calls_per_op": (
            len(by_class["bipartite"]) / n_ops, "count/op",
        ),
        "solve.general_calls_per_op": (
            len(by_class["general"]) / n_ops, "count/op",
        ),
        "service.parallel_efficiency": (
            busy / capacity if capacity else 0.0, "ratio",
        ),
        "topk.pruned_ratio": (pruned / bounded if bounded else 0.0, "ratio"),
    }
    diagnostics = {
        f"solve.{name}.ms_p50": (_p50_ms(seconds), "ms")
        for name, seconds in sorted(by_class.items())
    }
    diagnostics.update({
        "service.backend_ms_per_op": (
            1000.0 * total("service.backend") / n_ops, "ms",
        ),
        "db.mutation_us_mean": (
            1e6 * total("db.mutation") / len(by_name["db.mutation"])
            if by_name["db.mutation"] else 0.0,
            "us",
        ),
        "stream.refresh_ms_p50": (
            _p50_ms([s[3] - s[2] for s in by_name["stream.refresh"]]), "ms",
        ),
    })
    if records:
        server, server_diagnostics = _server_metrics(
            by_name, records, op_seconds
        )
        metrics.update(server)
        diagnostics.update(server_diagnostics)
    return metrics, diagnostics
