"""A single-threaded asyncio load generator for ``python -m repro serve``.

One process, a few keep-alive HTTP/1.1 connections, JSON bodies.  Each
request carries a unique ``X-Client-Id``, which the server's
``ServerApp.handle`` receives, so a traced server's spans can be joined
to the client-side round trip of the same request.

Two loops:

* :func:`closed_loop` — every connection sends its next request as soon
  as the previous answer arrives, so a slower server receives less load;
* :func:`open_loop` — requests are due on a fixed schedule whatever the
  server does; each is timed from when it was due, so a stall also
  charges the requests queued behind it, and the generator's own
  lateness is recorded.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass, field


class HTTPError(RuntimeError):
    """The server closed the connection or sent something unparsable."""


@dataclass
class Record:
    """One request as the client saw it."""

    request_id: str
    text: str
    started: float
    ended: float
    status: int
    value: object = None
    #: When the request was due (open loop); ``started`` otherwise.
    due: float = 0.0

    @property
    def latency(self) -> float:
        return self.ended - (self.due or self.started)


class Connection:
    """One keep-alive connection; requests on it are strictly sequential."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: "asyncio.StreamReader | None" = None
        self._writer: "asyncio.StreamWriter | None" = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None

    async def call(
        self, method: str, path: str, body=None, client_id: str = "e2e"
    ) -> tuple[int, object]:
        """Send one request and read its response: ``(status, json)``."""
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"X-Client-Id: {client_id}\r\n"
            "Connection: keep-alive\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + payload)
        await self._writer.drain()
        status_line = await self._reader.readline()
        parts = status_line.split()
        if len(parts) < 2:
            raise HTTPError(f"bad status line {status_line!r}")
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await self._reader.readexactly(length) if length else b""
        return int(parts[1]), json.loads(raw) if raw else None


async def connect(host: str, port: int, count: int) -> list[Connection]:
    connections = [Connection(host, port) for _ in range(count)]
    for connection in connections:
        await connection.open()
    return connections


async def _answer(
    connection: Connection, request_id: str, text: str, due: float = 0.0
) -> Record:
    started = time.perf_counter()
    status, payload = await connection.call(
        "POST", "/answer", {"request": text}, request_id
    )
    value = payload.get("value") if isinstance(payload, dict) else None
    return Record(
        request_id, text, started, time.perf_counter(), status, value, due
    )


async def closed_loop(
    connections: list[Connection], requests, duration: float, prefix: str
) -> list[Record]:
    """Send ``requests`` (an iterator of texts) until ``duration`` passes.

    ``duration=0`` sends exactly one pass: every connection stops when
    the iterator is exhausted.
    """
    records: list[Record] = []
    deadline = time.perf_counter() + duration
    counter = itertools.count()

    async def worker(connection: Connection) -> None:
        while duration <= 0 or time.perf_counter() < deadline:
            text = next(requests, None)
            if text is None:
                return
            records.append(
                await _answer(connection, f"{prefix}-{next(counter)}", text)
            )

    await asyncio.gather(*(worker(c) for c in connections))
    return records


@dataclass
class OpenLoopResult:
    records: list[Record] = field(default_factory=list)
    #: Seconds each dispatch woke after its due time (generator lateness).
    lateness: list[float] = field(default_factory=list)


async def open_loop(
    connections: list[Connection], requests, offsets: list[float], prefix: str
) -> OpenLoopResult:
    """Send one request per offset (seconds from now), due on schedule.

    A due request waits for an idle connection; that wait is part of its
    latency, as it would be for a user whose request queued.
    """
    result = OpenLoopResult()
    idle: asyncio.Queue = asyncio.Queue()
    for connection in connections:
        idle.put_nowait(connection)

    async def send(request_id: str, text: str, due: float) -> None:
        connection = await idle.get()
        try:
            result.records.append(
                await _answer(connection, request_id, text, due)
            )
        finally:
            idle.put_nowait(connection)

    start = time.perf_counter()
    tasks = []
    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.lateness.append(max(0.0, time.perf_counter() - due))
        tasks.append(
            asyncio.ensure_future(
                send(f"{prefix}-{index}", next(requests), due)
            )
        )
    await asyncio.gather(*tasks)
    return result
