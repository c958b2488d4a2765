"""The request coalescer: live traffic -> planned batches, by natural batching.

The planner's common-solve elimination (DESIGN.md Section 9; 51.9x fewer
distinct solves on an overlapping 50-query workload per
``BENCH_planner.json``) only pays off when queries are planned *together*.
Offline, ``answer_many`` batches arrive pre-assembled; online, requests
arrive one at a time.  The coalescer closes that gap without holding any
request back: a request that finds the worker idle is dispatched at once,
and requests that arrive while a batch runs queue up and go out together
as the next :meth:`~repro.service.service.PreferenceService.answer_many`
batch — so mixed-kind dedup and cross-query elimination run on exactly
the traffic that would otherwise have waited anyway.

Semantics (the contract DESIGN.md Section 11 documents):

* requests queue by ``(method, options)`` key — they only coalesce when
  they can share one plan — and two keys never share a batch;
* at most one batch runs, on a dedicated single worker thread **off the
  event loop** (the service's own backend parallelizes the solves
  *inside* a batch), so the loop keeps accepting and queueing while a
  batch runs; pre-assembled :meth:`execute_many` batches take their turn
  in the same queue;
* a coalesced batch that raises a :data:`REQUEST_ERRORS` error is
  answered again one request at a time, on the same worker, so a request
  error fails only its request; any other error fails the whole batch;
* when a batch ends, answered or raised, the oldest queued key goes out,
  up to ``max_batch`` requests; the rest of that key moves to the back of
  the order, so one hot key cannot starve another;
* a waiter cancelled while queued is dropped before planning; cancelled
  after dispatch, its slot still computes but the response is discarded —
  either way every live waiter gets exactly one answer and no answer is
  delivered twice;
* :meth:`drain` (graceful shutdown) refuses new submissions, dispatches
  everything queued, and waits for the running batch to finish, so
  accepted requests are answered even while the listener is already
  closed.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.api.answer import Answer
from repro.plan.methods import APPROXIMATE_METHODS

#: The errors a request makes itself, answered 400 over HTTP: a bad query
#: (:class:`~repro.query.classify.UnsupportedQueryError` is a
#: ``ValueError``) or a missing relation, column or attribute row.
REQUEST_ERRORS = (ValueError, KeyError)


class CoalescerClosed(RuntimeError):
    """Raised by :meth:`RequestCoalescer.submit` after shutdown began."""


class RequestCoalescer:
    """Merge concurrent requests into planned ``answer_many`` batches.

    All bookkeeping runs on the event loop (no locks); only the planned
    batch itself runs on the worker thread.  ``seed`` seeds a fresh rng
    per batch for rng-driven methods (approximate and budgeted
    auto-approx), which are legal but never bit-reproducible across
    different coalescing outcomes — exact methods are.
    """

    def __init__(
        self,
        service,
        db,
        max_batch: int = 64,
        metrics=None,
        seed: int = 0,
    ):
        self._service = service
        self._db = db
        self.max_batch = max_batch
        self._metrics = metrics
        self._seed = seed
        #: Waiters per dispatch key; the dict's order is the keys' age.
        self._queued: "dict[tuple, list[tuple[Any, asyncio.Future]]]" = {}
        #: The batch on the worker thread; None while the worker is idle.
        self._running: "asyncio.Task | None" = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-coalescer"
        )
        self._closing = False
        self.n_submitted = 0
        self.n_batches = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    async def submit(
        self, request, method: "str | None" = None, **options
    ) -> Answer:
        """Queue one request under its key; await its answer."""
        future = self._enqueue(
            (method, tuple(sorted(options.items())), None), request
        )
        self.n_submitted += 1
        return await future

    async def execute_many(
        self, requests, method: "str | None" = None, **options
    ):
        """Run a pre-assembled batch on the worker thread, off the loop.

        The ``answer_many`` endpoint's path: the batch is already grouped,
        so it is planned as-is under a key of its own (the trailing
        token), never merged with another — but it waits its turn for the
        one worker like any coalesced batch, shares their cache, and
        :meth:`drain` waits for it.  Not counted in the coalescing
        metrics: those measure what the coalescer merged.
        """
        return await self._enqueue(
            (method, tuple(sorted(options.items())), object()), list(requests)
        )

    def _enqueue(self, key, item) -> asyncio.Future:
        """Queue ``item`` under ``key``; the future its batch resolves."""
        if self._closing:
            raise CoalescerClosed("the coalescer is draining; no new requests")
        future = asyncio.get_running_loop().create_future()
        self._queued.setdefault(key, []).append((item, future))
        self._dispatch()
        return future

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        """Start the oldest queued key's batch unless one is running."""
        while self._running is None and self._queued:
            key = next(iter(self._queued))
            # Waiters cancelled while queued leave before planning; their
            # slots cost nothing.
            live = [
                (item, fut) for item, fut in self._queued.pop(key)
                if not fut.done()
            ]
            if len(live) > self.max_batch:
                self._queued[key] = live[self.max_batch:]  # back of the order
                live = live[:self.max_batch]
            if live:
                self._running = asyncio.get_running_loop().create_task(
                    self._run_batch(key, live)
                )
                self._running.add_done_callback(self._batch_done)

    def _batch_done(self, task: asyncio.Task) -> None:
        self._running = None
        # A batch cancelled by the loop's teardown starts no successor.
        if not task.cancelled():
            self._dispatch()

    def _batch_rng(self, method: "str | None", options: dict):
        """A fresh per-batch rng for the rng-driven methods, else None."""
        effective = method if method is not None else self._service.method
        if effective in APPROXIMATE_METHODS or effective == "auto-approx":
            import numpy as np

            return np.random.default_rng(self._seed)
        return None

    async def _run_batch(self, key, live) -> None:
        # ``whole`` is execute_many's token: one waiter, whose item is the
        # whole request list and whose result is the whole BatchAnswer.
        method, options, whole = key
        options = dict(options)
        session_limit = options.pop("session_limit", None)
        requests = live[0][0] if whole else [request for request, _ in live]

        def call(batch_requests):
            return self._service.answer_many(
                batch_requests, self._db, method=method,
                rng=self._batch_rng(method, options),
                session_limit=session_limit, **options,
            )

        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            batch = await loop.run_in_executor(self._executor, call, requests)
        except Exception as error:  # delivered per-waiter, not raised here
            outcomes = [error] * len(live)
            retry = not whole and len(live) > 1
            if retry and isinstance(error, REQUEST_ERRORS):
                # A request error fails only its request: the worker
                # answers each request of the batch alone, in turn.  Any
                # other fault (a lost shard, a broken pool) is the
                # service's, and every waiter gets it at once.
                singles = await asyncio.gather(
                    *(loop.run_in_executor(self._executor, call, [request])
                      for request in requests),
                    return_exceptions=True,
                )
                outcomes = [
                    one if isinstance(one, BaseException) else one.answers[0]
                    for one in singles
                ]
        else:
            outcomes = [batch]
            if not whole:
                outcomes = batch.answers
                self.n_batches += 1
                if self._metrics is not None:
                    self._metrics.observe_batch(
                        n_requests=len(live),
                        n_distinct_solves=batch.n_distinct_solves,
                        n_solves_planned=batch.n_solves_planned,
                        n_solves_eliminated=batch.n_solves_eliminated,
                        seconds=loop.time() - started,
                    )
        for (_, future), outcome in zip(live, outcomes):
            if future.done():
                continue
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    async def drain(self) -> None:
        """Refuse new submissions; dispatch what queued and wait it out."""
        self._closing = True
        while self._running is not None:
            await asyncio.wait([self._running])

    def close(self) -> None:
        """Release the worker thread (call after :meth:`drain`)."""
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "n_submitted": self.n_submitted,
            "n_batches": self.n_batches,
            "queued_requests": sum(map(len, self._queued.values())),
            "in_flight_batches": int(self._running is not None),
            "max_batch": self.max_batch,
            "draining": self._closing,
        }
