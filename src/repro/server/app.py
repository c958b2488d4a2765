"""The serving application: routes -> coalescer/service, errors -> status.

:class:`ServerApp` is the transport-independent core of the front-end: it
owns the database, the :class:`~repro.service.service.PreferenceService`,
the :class:`~repro.server.coalescer.RequestCoalescer`, admission control,
and metrics, and maps each route to them.  The HTTP layer
(:mod:`repro.server.http`) only parses/serializes; tests can drive the
app directly with plain dicts.

Routes:

* ``POST /answer`` — one request (string or typed form); dispatched at
  once when the batch worker is idle, else coalesced with the requests
  queued behind the running batch into one planned batch;
* ``POST /answer_many`` — a pre-assembled batch; planned as-is, off the
  event loop, taking its turn on the same worker and cache as coalesced
  traffic;
* ``POST /explain`` — the cost-annotated optimized plan ``/answer`` would
  run, from the service's plan memo, not executed;
* ``GET /stats`` — latency percentiles, coalescing effect, admission,
  cache and plan-memo counters;
* ``GET /healthz`` — liveness;
* ``POST /shutdown`` — begin graceful shutdown (drain, then exit).

Error contract: protocol and evaluation errors are 400 with the parser's
caret excerpt where applicable; admission overflow is 429 with
``Retry-After``; submissions during drain are 503; anything unexpected is
a 500 that never leaks a stack trace over the wire.
"""

from __future__ import annotations

import asyncio
import time

from repro.server.admission import AdmissionController, AdmissionRejected
from repro.server.coalescer import (
    REQUEST_ERRORS,
    CoalescerClosed,
    RequestCoalescer,
)
from repro.server.config import ServerConfig
from repro.server.metrics import MetricsRegistry
from repro.server.protocol import (
    ProtocolError,
    decode_batch,
    decode_request,
    encode_answer,
    encode_batch,
    error_body,
)

#: (status, payload, extra headers) — what every handler returns.
Response = tuple[int, dict, dict]


class ServerApp:
    """The transport-independent serving front-end."""

    def __init__(
        self, config: ServerConfig, db=None, service=None, stream=None
    ):
        if (
            config.method == "auto-approx"
            and config.solver_options.get("approx_budget") is None
        ):
            raise ValueError(
                "a server with method 'auto-approx' needs an explicit "
                "approx_budget in its solver options"
            )
        self.config = config
        self.db = db if db is not None else config.build_database()
        self.service = (
            service if service is not None else config.build_service()
        )
        self.metrics = MetricsRegistry(config.latency_sample_size)
        self.admission = AdmissionController(
            max_pending_per_client=config.max_pending_per_client,
            max_pending_total=config.max_pending_total,
        )
        self.coalescer = RequestCoalescer(
            self.service,
            self.db,
            max_batch=config.max_batch,
            metrics=self.metrics,
            seed=config.seed,
        )
        # Cache-tier depth (disk hits/misses, per-shard hit/occupancy)
        # reaches /stats as a registered gauge: the service owns the
        # tiers, the registry evaluates them at snapshot time.  Guarded
        # so injected stand-in services without the surface still serve.
        tier_depth = getattr(self.service, "tier_depth", None)
        if tier_depth is not None:
            self.metrics.register_gauge("cache_tiers", tier_depth)
        # A deployment maintaining standing queries over a mutable
        # database (repro.stream) surfaces the same way: count, max
        # staleness in generations, and invalidations applied.
        self.stream = stream
        if stream is not None:
            self.metrics.register_gauge("standing_queries", stream.stats)
        self.shutdown_requested = asyncio.Event()
        self._started_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def handle(
        self, method: str, path: str, body, client_id: str
    ) -> Response:
        """Dispatch one parsed request; never raises."""
        try:
            if method == "POST" and path == "/answer":
                return await self.handle_answer(body, client_id)
            if method == "POST" and path == "/answer_many":
                return await self.handle_answer_many(body, client_id)
            if method == "POST" and path == "/explain":
                return await self.handle_explain(body)
            if method == "GET" and path == "/stats":
                return 200, self.handle_stats(), {}
            if method == "GET" and path == "/healthz":
                return 200, {"status": "ok"}, {}
            if method == "POST" and path == "/shutdown":
                self.shutdown_requested.set()
                return 200, {"draining": True}, {}
            return 404, error_body(f"no route {method} {path}", 404), {}
        except AdmissionRejected as error:
            self.metrics.observe_rejection()
            retry_after = str(int(error.retry_after))
            return (
                429,
                error_body(str(error), 429, retry_after=error.retry_after),
                {"Retry-After": retry_after},
            )
        except ProtocolError as error:
            self.metrics.observe_failure()
            return error.status, error_body(str(error), error.status), {}
        except CoalescerClosed as error:
            return 503, error_body(str(error), 503), {}
        except REQUEST_ERRORS as error:
            # KeyError: e.g. an AGG request over a missing relation/column
            # fails at plan-build time (the attribute join).
            self.metrics.observe_failure()
            return (
                400,
                error_body(f"cannot evaluate request: {error}", 400),
                {},
            )
        except Exception as error:  # the wire never sees a stack trace
            self.metrics.observe_failure()
            return (
                500,
                error_body(
                    f"internal error: {type(error).__name__}: {error}", 500
                ),
                {},
            )

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    async def handle_answer(self, body, client_id: str) -> Response:
        """One request through admission, the coalescer, and out."""
        request, options = decode_request(body)
        self.admission.acquire(client_id)
        started = time.monotonic()
        try:
            self.metrics.observe_request(request.kind)
            answer = await self.coalescer.submit(
                request, method=options.pop("method", None), **options
            )
            self.metrics.observe_answer(time.monotonic() - started)
            return 200, encode_answer(answer), {}
        finally:
            self.admission.release(client_id)

    async def handle_answer_many(self, body, client_id: str) -> Response:
        """A pre-assembled batch, planned as one DAG off the event loop."""
        requests, options = decode_batch(body)
        self.admission.acquire(client_id)
        started = time.monotonic()
        try:
            for request in requests:
                self.metrics.observe_request(request.kind)
            batch = await self.coalescer.execute_many(
                requests, method=options.pop("method", None), **options
            )
            self.metrics.observe_answer(time.monotonic() - started)
            return 200, encode_batch(batch), {}
        finally:
            self.admission.release(client_id)

    async def handle_explain(self, body) -> Response:
        """The cost-annotated optimized plan ``/answer`` would run for the
        body, rendered but not executed.  The options split as a coalesced
        batch splits them, and the plan comes through the service's plan
        memo, so it is the very plan a matching ``/answer`` runs."""
        if isinstance(body, dict) and isinstance(body.get("requests"), list):
            requests, options = decode_batch(body)
        else:
            request, options = decode_request(body)
            requests = [request]
        method = options.pop("method", None)
        session_limit = options.pop("session_limit", None)

        def build():
            return self.service.plan(
                requests, self.db, method=method,
                session_limit=session_limit, **options,
            ).explain()

        loop = asyncio.get_running_loop()
        text = await loop.run_in_executor(None, build)
        return (
            200,
            {
                "explain": text,
                "requests": [request.describe() for request in requests],
            },
            {},
        )

    def handle_stats(self) -> dict:
        """The ``/stats`` payload: metrics + admission + coalescer + cache."""
        payload = self.metrics.snapshot()
        payload["admission"] = self.admission.snapshot()
        payload["coalescer"] = self.coalescer.snapshot()
        payload["cache"] = {
            name: float(value)
            for name, value in self.service.stats().items()
        }
        plans = self.service.plans.stats()
        payload["plans"] = {
            name: plans[name]
            for name in ("hits", "misses", "evictions", "size", "capacity")
        }
        payload["server"] = {
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "dataset": self.config.dataset,
            "method": self.config.method,
            "backend": self.config.backend,
            "max_batch": self.config.max_batch,
        }
        return payload

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def shutdown(self) -> None:
        """Drain queued and in-flight batches, then release the worker."""
        await self.coalescer.drain()
        self.coalescer.close()
