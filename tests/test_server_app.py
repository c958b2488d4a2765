"""The serving application: routes, error contract, backpressure, drain.

Drives :class:`ServerApp.handle` in-process with plain dicts (the HTTP
layer only parses bytes), plus one end-to-end pass over real sockets via
:func:`run_server` — raw HTTP/1.1 in, JSON out, graceful shutdown.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.api.evaluate import answer
from repro.server.app import ServerApp
from repro.server.config import ServerConfig
from repro.server.http import MAX_BODY_BYTES, run_server
from repro.service.service import PLAN_MEMO_CAPACITY
from tests.conftest import GatedService

pytestmark = pytest.mark.timeout(120)

BASE = "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)"
CROWDRANK = {"dataset": "crowdrank", "seed": 7, "sessions": 20, "movies": 6}
CROWDRANK_QUERY = (
    "P(v; m1; m2), M(m1, 'Drama', _, _, _), M(m2, _, _, _, 'long')"
)


def make_app(service=None, **overrides) -> ServerApp:
    overrides.setdefault("dataset", "polls")
    overrides.setdefault("backend", "serial")
    overrides.setdefault("port", 0)
    return ServerApp(ServerConfig(**overrides), service=service)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=90))


async def closing(app, coro):
    try:
        return await coro
    finally:
        await app.shutdown()


class TestRoutes:
    def test_answer_matches_direct_evaluation(self):
        app = make_app()
        want = answer(BASE, app.db)

        status, payload, _ = run(
            closing(app, app.handle("POST", "/answer", BASE, "c1"))
        )
        assert status == 200
        assert payload["kind"] == "probability"
        assert payload["value"] == want.value
        assert payload["n_sessions"] == want.n_sessions

    def test_typed_body_and_options(self):
        app = make_app()
        body = {"request": f"COUNT {BASE}", "session_limit": 2}
        status, payload, _ = run(
            closing(app, app.handle("POST", "/answer", body, "c1"))
        )
        assert status == 200
        assert payload["kind"] == "count"
        assert payload["n_sessions"] == 2

    def test_answer_many_reports_plan_counters(self):
        app = make_app()
        body = {"requests": [BASE, f"COUNT {BASE}", f"TOPK 2 {BASE}"]}
        status, payload, _ = run(
            closing(app, app.handle("POST", "/answer_many", body, "c1"))
        )
        assert status == 200
        assert len(payload["answers"]) == 3
        assert payload["n_solves_planned"] > payload["n_distinct_solves"]
        assert payload["n_solves_eliminated"] > 0

    def test_explain_renders_the_optimized_plan(self):
        app = make_app()
        status, payload, _ = run(
            closing(
                app,
                app.handle(
                    "POST", "/explain",
                    {"requests": [BASE, f"COUNT {BASE}"]}, "c1",
                ),
            )
        )
        assert status == 200
        assert "solve" in payload["explain"]
        assert len(payload["requests"]) == 2

    def test_explain_keeps_the_approx_budget(self):
        app = make_app(**CROWDRANK)
        body = {"request": CROWDRANK_QUERY, "method": "auto-approx",
                "approx_budget": 1e6}

        async def scenario():
            return (
                await app.handle("POST", "/answer", body, "c1"),
                await app.handle("POST", "/explain", body, "c1"),
            )

        answered, explained = run(closing(app, scenario()))
        assert answered[0] == 200
        assert explained[0] == 200
        assert "method=auto-approx" in explained[1]["explain"]

    def test_explain_honors_the_session_limit(self):
        app = make_app(**CROWDRANK)
        body = {"request": CROWDRANK_QUERY, "session_limit": 3}

        async def scenario():
            return (
                await app.handle("POST", "/answer", body, "c1"),
                await app.handle("POST", "/explain", body, "c1"),
            )

        answered, explained = run(closing(app, scenario()))
        assert answered[1]["n_sessions"] == 3
        assert "sessions 20 -> 3" in explained[1]["explain"]
        # /explain read the plan the /answer left in the memo.
        assert app.handle_stats()["plans"]["hits"] == 1

    def test_stats_report_the_plan_memo(self):
        app = make_app()

        async def scenario():
            for _ in range(2):
                await app.handle("POST", "/answer", BASE, "c1")
            return app.handle_stats()

        plans = run(closing(app, scenario()))["plans"]
        assert (plans["misses"], plans["hits"], plans["size"]) == (1, 1, 1)
        assert plans["capacity"] == PLAN_MEMO_CAPACITY

    def test_stats_after_traffic(self):
        app = make_app()

        async def scenario():
            await asyncio.gather(
                *(app.handle("POST", "/answer", BASE, f"c{i}")
                  for i in range(3))
            )
            return app.handle_stats()

        stats = run(closing(app, scenario()))
        assert stats["requests"]["answered"] == 3
        assert stats["latency_seconds"]["p50"] > 0
        assert stats["latency_seconds"]["p99"] >= stats["latency_seconds"]["p50"]
        assert stats["coalescing"]["coalesce_ratio"] >= 1.0
        assert stats["cache"]["size"] >= 0
        assert stats["server"]["dataset"] == "polls"
        json.dumps(stats)  # the payload is wire-ready

    def test_healthz_and_unknown_route(self):
        app = make_app()

        async def scenario():
            ok = await app.handle("GET", "/healthz", None, "c1")
            missing = await app.handle("GET", "/nope", None, "c1")
            wrong_verb = await app.handle("GET", "/answer", None, "c1")
            return ok, missing, wrong_verb

        ok, missing, wrong_verb = run(closing(app, scenario()))
        assert ok[0] == 200 and ok[1] == {"status": "ok"}
        assert missing[0] == 404
        assert wrong_verb[0] == 404


class TestErrorContract:
    def test_syntax_error_is_400_with_caret(self):
        app = make_app()
        status, payload, _ = run(
            closing(app, app.handle("POST", "/answer", "P(v; 'a' 'b')", "c"))
        )
        assert status == 400
        assert "^" in payload["error"]

    def test_auto_approx_without_budget_is_400(self):
        app = make_app()
        body = {"request": BASE, "method": "auto-approx"}
        status, payload, _ = run(
            closing(app, app.handle("POST", "/answer", body, "c"))
        )
        assert status == 400
        assert "approx_budget" in payload["error"]

    def test_auto_approx_with_budget_answers(self):
        app = make_app()
        body = {"request": BASE, "method": "auto-approx",
                "approx_budget": 1e6}
        status, payload, _ = run(
            closing(app, app.handle("POST", "/answer", body, "c"))
        )
        assert status == 200
        assert 0.0 <= payload["value"] <= 1.0

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/answer", {"request": BASE, "method": "mis_amp_lite"}),
            ("/answer_many", {"requests": [BASE], "method": "mis_amp_lite"}),
        ],
    )
    def test_missing_required_solver_option_is_400(self, path, body):
        app = make_app()
        status, payload, _ = run(
            closing(app, app.handle("POST", path, body, "c"))
        )
        assert status == 400
        assert "n_proposals" in payload["error"]

    def test_server_config_rejects_auto_approx_without_budget(self):
        with pytest.raises(ValueError, match="approx_budget"):
            make_app(method="auto-approx")
        # With a budget the same configuration is legal.
        app = make_app(method="auto-approx",
                       solver_options={"approx_budget": 1e6})
        run(closing(app, app.handle("GET", "/healthz", None, "c")))

    def test_evaluation_error_is_400_not_a_stack_trace(self):
        app = make_app()
        status, payload, _ = run(
            closing(
                app,
                app.handle("POST", "/answer", f"AGG mean(C.age) {BASE}", "c"),
            )
        )
        assert status == 400
        assert payload["error"].startswith("cannot evaluate request")
        assert "Traceback" not in payload["error"]

    def test_approximate_parallelism_warning_fires_through_config(self):
        # Satellite fix: the server's configured backend/max_workers feed
        # the service defaults, so the rng-driven route's parallelism
        # warning fires for server configs exactly as for direct services.
        app = make_app(backend="thread", max_workers=4)
        body = {"request": BASE, "method": "rejection"}
        with pytest.warns(UserWarning, match="parallelism"):
            status, payload, _ = run(
                closing(app, app.handle("POST", "/answer", body, "c"))
            )
        assert status == 200
        assert 0.0 <= payload["value"] <= 1.0


class TestBackpressure:
    """Slots are held by a batch the gated worker keeps running."""

    def test_overflow_is_429_with_retry_after(self):
        service = GatedService()
        app = make_app(service, max_pending_per_client=1)

        async def scenario():
            first = asyncio.ensure_future(
                app.handle("POST", "/answer", BASE, "alice")
            )
            await asyncio.sleep(0)  # alice's slot is held by the gated batch
            rejected = await app.handle("POST", "/answer", BASE, "alice")
            other = asyncio.ensure_future(
                app.handle("POST", "/answer", BASE, "bob")
            )
            await asyncio.sleep(0)  # bob is admitted beside alice
            service.gate.set()
            return await first, rejected, await other

        first, rejected, other = run(closing(app, scenario()))
        assert first[0] == 200
        status, payload, headers = rejected
        assert status == 429
        assert headers["Retry-After"] == "1"
        assert payload["status"] == 429
        assert other[0] == 200  # the per-client bound is per client
        assert app.metrics.snapshot()["requests"]["rejected"] == 1

    def test_total_bound_rejects_across_clients(self):
        service = GatedService()
        app = make_app(service, max_pending_total=2)

        async def scenario():
            held = [
                asyncio.ensure_future(
                    app.handle("POST", "/answer", BASE, f"c{i}")
                )
                for i in range(2)
            ]
            await asyncio.sleep(0)
            rejected = await app.handle("POST", "/answer", BASE, "c9")
            service.gate.set()
            return await asyncio.gather(*held), rejected

        held, rejected = run(closing(app, scenario()))
        assert all(status == 200 for status, _, _ in held)
        assert rejected[0] == 429


class TestShutdown:
    def test_drain_answers_accepted_requests_then_refuses(self):
        service = GatedService()
        app = make_app(service)

        async def scenario():
            accepted = [
                asyncio.ensure_future(
                    app.handle("POST", "/answer", BASE, f"c{i}")
                )
                for i in range(2)
            ]
            await asyncio.sleep(0)  # one in the gated batch, one queued
            shutdown = asyncio.ensure_future(app.shutdown())
            await asyncio.sleep(0)
            refused = await app.handle("POST", "/answer", BASE, "c9")
            service.gate.set()
            await shutdown
            return await asyncio.gather(*accepted), refused

        answered, refused = run(scenario())
        assert [status for status, _, _ in answered] == [200, 200]
        assert refused[0] == 503
        assert len(service.batches) == 2

    def test_shutdown_route_sets_the_event(self):
        app = make_app()

        async def scenario():
            status, payload, _ = await app.handle(
                "POST", "/shutdown", None, "c"
            )
            return status, payload, app.shutdown_requested.is_set()

        status, payload, flagged = run(closing(app, scenario()))
        assert status == 200 and payload == {"draining": True}
        assert flagged


# ----------------------------------------------------------------------
# End to end over real sockets
# ----------------------------------------------------------------------


async def http_call(port, method, path, body=None, headers=()):
    """One raw HTTP/1.1 exchange against 127.0.0.1:port."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = b"" if body is None else json.dumps(body).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n"
        )
        for name, value in headers:
            head += f"{name}: {value}\r\n"
        writer.write(head.encode() + b"\r\n" + payload)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        response_headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            response_headers[name.strip().lower()] = value.strip()
        raw = await reader.readexactly(
            int(response_headers["content-length"])
        )
        return status, json.loads(raw), response_headers
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class TestHTTPEndToEnd:
    def test_serve_query_stats_shutdown(self):
        config = ServerConfig(dataset="polls", backend="serial", port=0)
        app = ServerApp(config)
        db = app.db

        async def scenario():
            bound = asyncio.get_running_loop().create_future()
            server_task = asyncio.ensure_future(
                run_server(config, ready=lambda s: bound.set_result(s.port),
                           app=app)
            )
            port = await bound
            health = await http_call(port, "GET", "/healthz")
            answered = await asyncio.gather(
                http_call(port, "POST", "/answer", {"request": BASE}),
                http_call(port, "POST", "/answer",
                          {"request": f"COUNT {BASE}"}),
            )
            bad = await http_call(port, "POST", "/answer",
                                  {"request": "P(v; 'a' 'b'"})
            missing = await http_call(port, "GET", "/nowhere")
            stats = await http_call(port, "GET", "/stats")
            down = await http_call(port, "POST", "/shutdown")
            await asyncio.wait_for(server_task, timeout=30)
            return health, answered, bad, missing, stats, down

        health, answered, bad, missing, stats, down = run(scenario())
        assert health[0] == 200
        want = answer(BASE, db)
        assert answered[0][0] == 200
        assert answered[0][1]["value"] == want.value
        assert answered[1][1]["kind"] == "count"
        assert bad[0] == 400 and "^" in bad[1]["error"]
        assert missing[0] == 404
        assert stats[0] == 200
        assert stats[1]["requests"]["answered"] == 2
        assert down == (200, {"draining": True},
                        down[2])  # body + headers intact

    @pytest.mark.parametrize(
        "framing",
        [
            b"Content-Length: 8\r\n\r\nnot json",
            b"Content-Length: -5\r\n\r\n",
            b"Content-Length: abc\r\n\r\n",
            b"X-Long: " + b"a" * 70_000 + b"\r\n\r\n",
        ],
        ids=[
            "body-not-json", "negative-length", "non-numeric-length",
            "header-over-64KiB",
        ],
    )
    def test_malformed_json_body_is_400(self, framing):
        assert raw_post_status(framing) == 400

    def test_body_over_the_limit_is_413(self):
        # Refused from the header alone: the body is never sent.
        framing = f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
        assert raw_post_status(framing) == 413

    def test_truncated_body_closes_only_its_connection(self):
        """A client that sends 10 of its 40 declared body bytes and then
        half-closes gets its connection closed with no response; nothing
        counts as a failed request, and the next connection is answered."""

        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                b"POST /answer HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 40\r\n\r\n" + b'{"request"'
            )
            writer.write_eof()
            unanswered = await asyncio.wait_for(reader.read(), timeout=30)
            writer.close()
            answered = await http_call(port, "POST", "/answer", BASE)
            stats = await http_call(port, "GET", "/stats")
            return unanswered, answered, stats

        unanswered, answered, stats = run(serving(scenario))
        assert unanswered == b""
        assert answered[0] == 200
        assert stats[1]["requests"]["failed"] == 0
        assert stats[1]["requests"]["answered"] == 1

    def test_partial_body_delays_shutdown_by_at_most_the_drain(self):
        """A client holding a partial body open is cut off by the 1 s
        drain of ``HTTPServer.stop``, unanswered."""
        finished: dict = {}

        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                b"POST /answer HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 40\r\n\r\n" + b'{"request"'
            )
            await writer.drain()
            await http_call(port, "GET", "/healthz")  # the body is pending
            finished["asked"] = time.monotonic()
            down = await http_call(port, "POST", "/shutdown")
            unanswered = await asyncio.wait_for(reader.read(), timeout=30)
            writer.close()
            return down, unanswered

        down, unanswered = run(serving(scenario))
        elapsed = time.monotonic() - finished["asked"]
        assert down[1] == {"draining": True}
        assert unanswered == b""
        assert elapsed < 3.0, elapsed  # about 1.0 s: the drain, then stop


async def serving(scenario):
    """Run ``scenario(port)`` against a fresh polls server, then shut the
    server down (if the scenario did not) and wait for it to stop."""
    config = ServerConfig(dataset="polls", backend="serial", port=0)
    app = ServerApp(config)
    bound = asyncio.get_running_loop().create_future()
    server_task = asyncio.ensure_future(
        run_server(config, ready=lambda s: bound.set_result(s.port), app=app)
    )
    port = await bound
    try:
        return await scenario(port)
    finally:
        app.shutdown_requested.set()
        await asyncio.wait_for(server_task, timeout=30)


def raw_post_status(framing: bytes) -> int:
    """The status a fresh server answers to a POST with raw ``framing``
    (headers after the request line, then any body)."""
    config = ServerConfig(dataset="polls", backend="serial", port=0)
    app = ServerApp(config)

    async def scenario():
        bound = asyncio.get_running_loop().create_future()
        server_task = asyncio.ensure_future(
            run_server(config, ready=lambda s: bound.set_result(s.port),
                       app=app)
        )
        port = await bound
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"POST /answer HTTP/1.1\r\nHost: t\r\n" + framing)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        writer.close()
        await http_call(port, "POST", "/shutdown")
        await asyncio.wait_for(server_task, timeout=30)
        return status

    return run(scenario())
