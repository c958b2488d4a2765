"""A small asyncio HTTP/1.1 layer over :class:`~repro.server.app.ServerApp`.

Deliberately minimal and dependency-free (the toolchain bakes in no HTTP
framework): request line + headers + ``Content-Length`` body, JSON in and
out, keep-alive honored.  Everything interesting — coalescing, admission,
metrics, the error contract — lives in the app; this module only parses
bytes and writes them back.

Graceful shutdown (:meth:`HTTPServer.stop`) follows the drain contract of
DESIGN.md Section 11: stop accepting connections, dispatch and finish
every queued and in-flight batch (accepted requests still get their
answers), then close lingering idle connections.
"""

from __future__ import annotations

import asyncio
import json

from repro.server.app import ServerApp
from repro.server.config import ServerConfig

#: Reason phrases for the statuses the app emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Refuse request bodies beyond this size (a batch of ~10k requests).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: The longest request or header line: asyncio's default stream limit.
MAX_LINE_BYTES = 64 * 1024

_LINE_TOO_LONG = {
    "error": f"request line or header over {MAX_LINE_BYTES // 1024} KiB",
    "status": 400,
}


class HTTPServer:
    """One listening socket serving a :class:`ServerApp`."""

    def __init__(self, app: ServerApp, host: str, port: int):
        self.app = app
        self.host = host
        self.port = port
        self._server: "asyncio.Server | None" = None
        self._connections: "set[asyncio.Task]" = set()

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` becomes the bound port."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def stop(self) -> None:
        """Stop accepting, drain in-flight work, close idle connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Finish every accepted request: queued requests are dispatched,
        # batches run to completion, waiters get their responses written.
        await self.app.shutdown()
        if self._connections:
            # What remains is idle keep-alive readers; give completed
            # handlers a beat to flush their responses, then close.
            done, pending = await asyncio.wait(self._connections, timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _on_connection(self, reader, writer) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        peer_id = peer[0] if peer else "unknown"
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, parse_error, body = request
                client_id = headers.get("x-client-id", peer_id)
                if parse_error is not None:
                    status, payload, extra = parse_error["status"], parse_error, {}
                else:
                    status, payload, extra = await self.app.handle(
                        method, path, body, client_id
                    )
                keep_alive = (
                    parse_error is None
                    and headers.get("connection", "").lower() != "close"
                )
                await self._write_response(
                    writer, status, payload, extra, keep_alive
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # the client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader):
        """Parse one request; None on EOF, an error body on bad syntax.

        A request or header line over ``MAX_LINE_BYTES`` is a 400 too; the
        stream position is lost with it, and an error body always closes
        the connection.
        """
        try:
            request_line = await reader.readline()
        except ValueError:
            return "GET", "/", {}, _LINE_TOO_LONG, None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return "GET", "/", {}, {"error": "malformed request line",
                                    "status": 400}, None
        method, target, _version = parts
        path = target.split("?", 1)[0]
        headers: dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                return method, path, headers, _LINE_TOO_LONG, None
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
            if length < 0:
                raise ValueError(length)
        except ValueError:
            return method, path, headers, {
                "error": "invalid Content-Length", "status": 400}, None
        if length > MAX_BODY_BYTES:
            return method, path, headers, {
                "error": f"request body over {MAX_BODY_BYTES} bytes",
                "status": 413}, None
        raw = await reader.readexactly(length) if length else b""
        if not raw:
            return method, path, headers, None, None
        try:
            return method, path, headers, None, json.loads(raw)
        except json.JSONDecodeError as error:
            return method, path, headers, {
                "error": f"invalid JSON body: {error}", "status": 400}, None

    async def _write_response(
        self, writer, status: int, payload: dict, extra: dict,
        keep_alive: bool,
    ) -> None:
        # Payloads are protocol-encoded (jsonable/encode_*) before here.
        # repro: allow[wire-purity] single transport serialization point
        body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "OK")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
        )
        for name, value in extra.items():
            head += f"{name}: {value}\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()


async def run_server(
    config: ServerConfig, ready=None, app: "ServerApp | None" = None
) -> None:
    """Start a server, run until shutdown is requested, drain, exit.

    ``ready`` (if given) is called with the started :class:`HTTPServer`
    once the socket is bound — the CLI prints the address there, tests
    grab the ephemeral port.  Shutdown comes from ``POST /shutdown`` or a
    signal handler setting ``app.shutdown_requested``.
    """
    if app is None:
        app = ServerApp(config)
    server = HTTPServer(app, config.host, config.port)
    await server.start()
    if ready is not None:
        ready(server)
    try:
        await app.shutdown_requested.wait()
    finally:
        await server.stop()
