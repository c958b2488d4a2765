"""Concurrency soak and batching contract of the request coalescer.

The serving contract under test: N async clients firing overlapping
mixed-kind requests through :class:`RequestCoalescer` get answers
bit-identical to sequential :func:`repro.api.evaluate.answer` calls, the
coalesce ratio exceeds 1 (requests queued behind a running batch were
merged), and cancellation neither loses nor duplicates responses.  The
batching tests hold the single worker busy with :class:`GatedService`,
so which requests share a batch is deterministic and no test sleeps.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api.evaluate import answer
from repro.db.examples import polling_example
from repro.server.coalescer import CoalescerClosed, RequestCoalescer
from repro.server.metrics import MetricsRegistry
from repro.service.service import PreferenceService
from tests.conftest import GatedService

pytestmark = pytest.mark.timeout(120)

BASE = "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)"
# Same atoms, different order: canonicalization dedups it against BASE.
REORDERED = "P(_, _; c1; c2), C(c2, 'R', _, _, e, _), C(c1, 'D', _, _, e, _)"

#: Overlapping mixed-kind traffic: all four kinds over shared queries.
CORPUS = [
    BASE,
    f"COUNT {BASE}",
    f"TOPK 2 {BASE}",
    f"AGG mean(V.age) {BASE}",
    f"COUNT {REORDERED}",
    f"AGG sum(V.age) {BASE}",
]


@pytest.fixture(scope="module")
def db():
    return polling_example()


@pytest.fixture(scope="module")
def expected(db):
    """Sequential request-at-a-time ground truth for the corpus."""
    return {text: answer(text, db) for text in CORPUS}


def make_coalescer(db, service=None, **kwargs):
    if service is None:
        service = PreferenceService(backend="serial")
    metrics = MetricsRegistry()
    kwargs.setdefault("metrics", metrics)
    return RequestCoalescer(service, db, **kwargs), metrics


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=90))


class TestSoak:
    def test_concurrent_clients_match_sequential_answers(self, db, expected):
        n_clients = 48

        async def soak():
            coalescer, metrics = make_coalescer(db, max_batch=64)
            try:
                results = await asyncio.gather(
                    *(
                        coalescer.submit(CORPUS[i % len(CORPUS)])
                        for i in range(n_clients)
                    )
                )
            finally:
                await coalescer.drain()
                coalescer.close()
            return results, metrics, coalescer

        results, metrics, coalescer = run(soak())

        # Zero lost responses: every client got exactly one answer back.
        assert len(results) == n_clients
        for i, got in enumerate(results):
            want = expected[CORPUS[i % len(CORPUS)]]
            assert got.kind == want.kind
            # Bit-identical to the sequential path: exact methods are
            # deterministic and aggregate terminals draw from a fresh
            # default_rng(0) in both paths when no rng is passed.
            assert got.value == want.value
        # The requests queued behind the first batch were merged.
        assert metrics.coalesce_ratio > 1.0
        assert coalescer.n_batches < n_clients
        snapshot = metrics.snapshot()
        assert snapshot["coalescing"]["n_coalesced_requests"] == n_clients
        # Cross-request elimination fired on the live batches.
        assert snapshot["coalescing"]["n_solves_eliminated"] > 0

    def test_interleaved_option_keys_do_not_mix_batches(self, db):
        async def soak():
            coalescer, metrics = make_coalescer(db)
            try:
                plain, limited = await asyncio.gather(
                    coalescer.submit(f"COUNT {BASE}"),
                    coalescer.submit(f"COUNT {BASE}", session_limit=2),
                )
            finally:
                await coalescer.drain()
                coalescer.close()
            return plain, limited, coalescer

        plain, limited, coalescer = run(soak())
        # Different options => different keys => separate batches.
        assert coalescer.n_batches == 2
        assert limited.n_sessions == 2
        assert plain.n_sessions > limited.n_sessions
        assert plain.value != limited.value


class TestCancellation:
    def test_cancel_while_queued_drops_waiter_only(self, db, expected):
        async def scenario():
            coalescer, metrics = make_coalescer(db)
            tasks = [
                asyncio.ensure_future(coalescer.submit(text))
                for text in CORPUS[:5]
            ]
            # The first goes out at once; the rest queue behind it.
            await asyncio.sleep(0)
            tasks[1].cancel()
            tasks[3].cancel()
            survivors = await asyncio.gather(
                tasks[0], tasks[2], tasks[4]
            )
            for cancelled in (tasks[1], tasks[3]):
                with pytest.raises(asyncio.CancelledError):
                    await cancelled
            await coalescer.drain()
            coalescer.close()
            return survivors, metrics

        survivors, metrics = run(scenario())
        for got, text in zip(survivors, (CORPUS[0], CORPUS[2], CORPUS[4])):
            assert got.value == expected[text].value
        # Cancelled waiters left before planning: the batches only carried
        # the three live requests, and nobody was answered twice.
        assert metrics.snapshot()["coalescing"]["n_coalesced_requests"] == 3

    def test_cancel_after_dispatch_discards_response_cleanly(
        self, db, expected
    ):
        async def scenario():
            coalescer, _ = make_coalescer(db)
            doomed = asyncio.ensure_future(coalescer.submit(CORPUS[0]))
            safe = asyncio.ensure_future(coalescer.submit(CORPUS[1]))
            await asyncio.sleep(0)
            doomed.cancel()  # its batch may already be running
            got = await safe
            with pytest.raises(asyncio.CancelledError):
                await doomed
            await coalescer.drain()
            coalescer.close()
            return got

        got = run(scenario())
        assert got.value == expected[CORPUS[1]].value


class TestBatching:
    """Natural batching: dispatch when idle, merge what queued behind."""

    @staticmethod
    def scenario(db, body, service=None, **kwargs):
        """Run ``body(coalescer, service)`` against a gated worker."""
        service = service or GatedService()

        async def wrapped():
            coalescer, metrics = make_coalescer(db, service, **kwargs)
            try:
                result = await body(coalescer, service)
            finally:
                service.gate.set()
                await coalescer.drain()
                coalescer.close()
            return result, service, coalescer, metrics

        return run(wrapped())

    def test_idle_coalescer_dispatches_a_lone_request(self, db, expected):
        async def body(coalescer, service):
            task = asyncio.ensure_future(coalescer.submit(CORPUS[0]))
            await asyncio.sleep(0)
            # Out at once: nothing waits for companions.
            snapshot = coalescer.snapshot()
            service.gate.set()
            return snapshot, await task

        (snapshot, got), service, _, metrics = self.scenario(db, body)
        assert snapshot["in_flight_batches"] == 1
        assert snapshot["queued_requests"] == 0
        assert service.batches == [([CORPUS[0]], None)]
        assert got.value == expected[CORPUS[0]].value
        assert metrics.snapshot()["coalescing"]["largest_batch"] == 1

    def test_requests_queued_while_busy_go_out_as_one_batch(
        self, db, expected
    ):
        async def body(coalescer, service):
            first = asyncio.ensure_future(coalescer.submit(CORPUS[0]))
            await asyncio.sleep(0)
            rest = [
                asyncio.ensure_future(coalescer.submit(text))
                for text in CORPUS[1:4]
            ]
            await asyncio.sleep(0)
            service.gate.set()
            return await asyncio.gather(first, *rest)

        results, service, coalescer, metrics = self.scenario(db, body)
        assert service.batches == [([CORPUS[0]], None), (CORPUS[1:4], None)]
        assert coalescer.n_batches == 2
        assert metrics.coalesce_ratio == 2.0
        for got, text in zip(results, CORPUS[:4]):
            assert got.value == expected[text].value

    def test_a_failing_request_fails_only_itself(self, db, expected):
        # C has no row per voter: the AGG raises at plan build, and only
        # its own waiter may see that.
        failing = f"AGG mean(C.age) {BASE}"

        async def body(coalescer, service):
            first = asyncio.ensure_future(coalescer.submit(CORPUS[0]))
            await asyncio.sleep(0)
            rest = [
                asyncio.ensure_future(coalescer.submit(text))
                for text in (CORPUS[1], failing)
            ]
            await asyncio.sleep(0)
            service.gate.set()
            return await asyncio.gather(first, *rest, return_exceptions=True)

        results, service, _, _ = self.scenario(db, body)
        assert results[0].value == expected[CORPUS[0]].value
        assert results[1].value == expected[CORPUS[1]].value
        assert isinstance(results[2], KeyError)
        # The coalesced batch raised, so each of its requests ran alone.
        assert [requests for requests, _ in service.batches] == [
            [CORPUS[0]], [CORPUS[1], failing], [CORPUS[1]], [failing],
        ]

    def test_a_service_fault_fails_the_batch_once(self, db):
        # A fault that is no request's own (a lost shard server) fails
        # every waiter of the batch from its one call, with no rerun.
        class BrokenService(GatedService):
            def answer_many(self, requests, db, session_limit=None, **kwargs):
                self.batches.append((list(requests), session_limit))
                self.gate.wait(timeout=60)
                raise RuntimeError("shard server lost")

        async def body(coalescer, service):
            first = asyncio.ensure_future(coalescer.submit(CORPUS[0]))
            await asyncio.sleep(0)
            rest = [
                asyncio.ensure_future(coalescer.submit(text))
                for text in CORPUS[1:3]
            ]
            await asyncio.sleep(0)
            service.gate.set()
            return await asyncio.gather(first, *rest, return_exceptions=True)

        results, service, _, _ = self.scenario(db, body, BrokenService())
        assert all(isinstance(result, RuntimeError) for result in results)
        assert [requests for requests, _ in service.batches] == [
            [CORPUS[0]], CORPUS[1:3],
        ]

    def test_max_batch_splits_and_keys_take_turns(self, db):
        async def body(coalescer, service):
            tasks = [asyncio.ensure_future(coalescer.submit(CORPUS[0]))]
            await asyncio.sleep(0)
            tasks += [
                asyncio.ensure_future(coalescer.submit(CORPUS[i]))
                for i in range(1, 6)
            ]
            tasks += [
                asyncio.ensure_future(
                    coalescer.submit(CORPUS[i], session_limit=2)
                )
                for i in range(2)
            ]
            await asyncio.sleep(0)
            service.gate.set()
            return await asyncio.gather(*tasks)

        results, service, _, _ = self.scenario(db, body, max_batch=2)
        # The default key's five queued requests go out two at a time,
        # and the rest of the key moves behind the session_limit key.
        assert service.batches == [
            ([CORPUS[0]], None),
            (CORPUS[1:3], None),
            (CORPUS[0:2], 2),
            (CORPUS[3:5], None),
            (CORPUS[5:6], None),
        ]
        assert len(results) == 8

    def test_two_keys_never_share_a_batch(self, db):
        async def body(coalescer, service):
            first = asyncio.ensure_future(coalescer.submit(CORPUS[0]))
            await asyncio.sleep(0)
            interleaved = [
                asyncio.ensure_future(
                    coalescer.submit(CORPUS[i], session_limit=2 - i % 2)
                )
                for i in range(1, 5)
            ]
            await asyncio.sleep(0)
            service.gate.set()
            return await asyncio.gather(first, *interleaved)

        _, service, _, _ = self.scenario(db, body)
        assert service.batches == [
            ([CORPUS[0]], None),
            ([CORPUS[1], CORPUS[3]], 1),
            ([CORPUS[2], CORPUS[4]], 2),
        ]

    def test_waiter_cancelled_while_queued_is_dropped(self, db):
        async def body(coalescer, service):
            first = asyncio.ensure_future(coalescer.submit(CORPUS[0]))
            await asyncio.sleep(0)
            queued = [
                asyncio.ensure_future(coalescer.submit(text))
                for text in CORPUS[1:4]
            ]
            await asyncio.sleep(0)
            queued[1].cancel()
            await asyncio.sleep(0)
            service.gate.set()
            answered = await asyncio.gather(first, queued[0], queued[2])
            with pytest.raises(asyncio.CancelledError):
                await queued[1]
            return answered

        answered, service, _, metrics = self.scenario(db, body)
        assert service.batches == [
            ([CORPUS[0]], None),
            ([CORPUS[1], CORPUS[3]], None),
        ]
        assert len(answered) == 3
        snapshot = metrics.snapshot()["coalescing"]
        assert snapshot["n_coalesced_requests"] == 3

    def test_drain_dispatches_queued_requests(self, db, expected):
        async def body(coalescer, service):
            first = asyncio.ensure_future(coalescer.submit(CORPUS[0]))
            await asyncio.sleep(0)
            queued = [
                asyncio.ensure_future(coalescer.submit(text))
                for text in CORPUS[1:3]
            ]
            await asyncio.sleep(0)
            drained = asyncio.ensure_future(coalescer.drain())
            await asyncio.sleep(0)
            with pytest.raises(CoalescerClosed):
                await coalescer.submit(CORPUS[3])
            assert not drained.done()
            service.gate.set()
            await drained
            return await asyncio.gather(first, *queued)

        results, service, _, _ = self.scenario(db, body)
        assert service.batches == [([CORPUS[0]], None), (CORPUS[1:3], None)]
        for got, text in zip(results, CORPUS[:3]):
            assert got.value == expected[text].value

    def test_request_behind_execute_many_goes_out_next(self, db, expected):
        async def body(coalescer, service):
            many = asyncio.ensure_future(
                coalescer.execute_many(CORPUS[:2])
            )
            await asyncio.sleep(0)
            single = asyncio.ensure_future(coalescer.submit(CORPUS[2]))
            await asyncio.sleep(0)
            # The pre-assembled batch holds the one worker: the request
            # queues behind it instead of running beside it.
            snapshot = coalescer.snapshot()
            service.gate.set()
            return snapshot, await many, await single

        (snapshot, many, single), service, coalescer, metrics = (
            self.scenario(db, body)
        )
        assert snapshot["in_flight_batches"] == 1
        assert snapshot["queued_requests"] == 1
        assert service.batches == [(CORPUS[:2], None), ([CORPUS[2]], None)]
        assert [a.value for a in many.answers] == [
            expected[text].value for text in CORPUS[:2]
        ]
        assert single.value == expected[CORPUS[2]].value
        # Only the coalesced request counts in the coalescing metrics.
        assert coalescer.n_batches == 1
        assert metrics.snapshot()["coalescing"]["n_coalesced_requests"] == 1


class TestFailureAndShutdown:
    def test_evaluation_error_is_delivered_to_the_waiter(self, db):
        async def scenario():
            coalescer, _ = make_coalescer(db)
            try:
                with pytest.raises(KeyError):
                    await coalescer.submit(f"AGG mean(C.age) {BASE}")
            finally:
                await coalescer.drain()
                coalescer.close()

        run(scenario())

    def test_submit_after_drain_is_refused(self, db):
        async def scenario():
            coalescer, _ = make_coalescer(db)
            first = asyncio.ensure_future(coalescer.submit(CORPUS[0]))
            await asyncio.sleep(0)
            drained = asyncio.ensure_future(coalescer.drain())
            await asyncio.sleep(0)
            with pytest.raises(CoalescerClosed):
                await coalescer.submit(CORPUS[1])
            # The request accepted before the drain still gets answered.
            got = await first
            await drained
            coalescer.close()
            return got

        got = run(scenario())
        assert got.kind == "probability"

    def test_execute_many_matches_direct_answer_many(self, db):
        service = PreferenceService(backend="serial")
        direct = service.answer_many(list(CORPUS), db)

        async def scenario():
            coalescer = RequestCoalescer(service, db)
            try:
                return await coalescer.execute_many(list(CORPUS))
            finally:
                await coalescer.drain()
                coalescer.close()

        batch = run(scenario())
        assert batch.n_requests == direct.n_requests
        assert batch.n_solves_planned == direct.n_solves_planned
        assert batch.n_solves_eliminated == direct.n_solves_eliminated
        for got, want in zip(batch.answers, direct.answers):
            assert got.value == want.value
