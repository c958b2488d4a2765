"""The shard tier: warm solve state shared by a fleet of workers.

A :class:`~repro.service.cache.SolverCache` front is per-process, so a
fleet of workers would start cold N times and duplicate hot solves N
times.  The shard tier is the lower tier that fixes both, with
fleet-wide single-flight:

* :class:`ShardGroup` — the embedded tier (``[lru, shard-group]``): N
  :class:`~repro.service.cache.LRUStore` shards routed by
  :func:`shard_of`, each with an optional per-shard
  :class:`~repro.service.persist.PersistentCache` write-back file;
* :class:`ShardCacheServer` / :class:`ShardClient` — the attached tier
  (``[lru, shard-client]``): one group served over a localhost socket.
  Frames are a 4-byte big-endian length and a JSON body — requests
  ``[op, ...args]``, replies ``["ok" | "err", payload]`` — so a peer can
  send only data, never code.  The server refuses every op until a
  ``hello`` with the client's version stamp succeeds, checks every op's
  argument shapes, refuses frames over :data:`MAX_FRAME_BYTES` unread
  (the client splits a batch across frames to stay within it), and
  releases the claims of a connection that ends without publishing them.

See DESIGN.md Section 14.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import struct
import threading
from typing import Any, Callable, Iterable, Union

from repro.service.cache import LRUStore
from repro.service.persist import (
    PersistentCache,
    Value,
    default_version,
    is_bound,
    persistable,
)

#: Default shard count of an embedded tier (a few shards decorrelate lock
#: and transaction contention without fragmenting the LRU budget).
DEFAULT_SHARDS = 4

#: Upper bound a server puts on one blocking ``wait`` call, so abandoned
#: flights cannot pin handler threads forever.
MAX_WAIT_SECONDS = 300.0

#: Largest frame body either side accepts, in bytes; a longer length
#: prefix is refused before its body is read.
MAX_FRAME_BYTES = 1 << 26


def shard_of(key: str, n_shards: int) -> int:
    """The shard index of a cache key string (:mod:`repro.service.keys`).

    Stable across processes, runs, and hosts (``blake2b``, not the
    per-process salted ``hash``), so every member of a fleet — and every
    restart — routes a key to the same shard.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


def shard_db_path(path: Union[str, "os.PathLike[str]"], index: int) -> str:
    """The per-shard SQLite file derived from a ``cache_db`` stem.

    ``cache.sqlite`` -> ``cache-shard0.sqlite``, ``cache-shard1.sqlite``,
    ... — per-shard files keep each flush a single small transaction and
    let shards clear independently on a version bump.
    """
    root, extension = os.path.splitext(os.fspath(path))
    return f"{root}-shard{index}{extension}"


class ShardGroup:
    """N :class:`~repro.service.cache.LRUStore` shards routed by
    :func:`shard_of`, each optionally written back to its own file.

    The embedded form of the shared tier: a ``SolverCache`` built with
    ``cache_shards=`` holds one, and a :class:`ShardCacheServer` serves
    one to a fleet.  ``capacity`` is the total entry budget, split evenly
    across shards; ``cache_db`` is the write-back stem — each shard gets
    its own SQLite file (:func:`shard_db_path`) whose version stamp
    clears it on a format bump, exactly like the unsharded disk tier.
    """

    def __init__(
        self,
        n_shards: int = DEFAULT_SHARDS,
        capacity: int = 4096,
        cache_db: Union[str, "os.PathLike[str]", None] = None,
        version: str | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self._version = version if version is not None else default_version()
        per_shard = max(1, -(-capacity // n_shards))  # ceil division
        self._stores = [
            LRUStore(per_shard, cold=is_bound) for _ in range(n_shards)
        ]
        self._disks = (
            [
                PersistentCache(shard_db_path(cache_db, index), self._version)
                for index in range(n_shards)
            ]
            if cache_db is not None
            else []
        )

    @property
    def n_shards(self) -> int:
        return len(self._stores)

    @property
    def version(self) -> str:
        return self._version

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores)

    def _shard(self, key: str) -> int:
        return shard_of(key, len(self._stores))

    def _by_shard(self, keys: Iterable[str]) -> dict[int, list[str]]:
        grouped: dict[int, list[str]] = {}
        for key in keys:
            grouped.setdefault(self._shard(key), []).append(key)
        return grouped

    def get(self, key: str) -> Value | None:
        """Memory first, then the shard's file (promoting a disk hit)."""
        index = self._shard(key)
        value: Value | None = self._stores[index].get(key)
        if value is None and self._disks:
            value = self._disks[index].get(key)
            if value is not None:
                self._stores[index].put_many([(key, value)])
        return value

    def put_many(self, pairs: Iterable[tuple[str, Value]]) -> None:
        """Publish a batch, shard by shard: memory (resolving the keys'
        flights), then ONE write-back transaction per shard."""
        values = dict(pairs)
        for index, keys in self._by_shard(values).items():
            batch = [(key, values[key]) for key in keys]
            self._stores[index].put_many(batch)
            if self._disks:
                self._disks[index].put_many(batch)

    def claim(self, key: str) -> tuple[str, Value | None]:
        return self._stores[self._shard(key)].claim(key)

    def wait(self, key: str, timeout: float) -> Value | None:
        value: Value | None = self._stores[self._shard(key)].wait(key, timeout)
        return value

    def release(self, key: str) -> None:
        self._stores[self._shard(key)].release(key)

    def invalidate(self, keys: Iterable[str]) -> int:
        """Drop exactly ``keys`` from memory and the write-back files;
        returns the in-memory drop count."""
        dropped = 0
        for index, shard_keys in self._by_shard(keys).items():
            dropped += self._stores[index].invalidate(shard_keys)
            if self._disks:
                self._disks[index].invalidate(shard_keys)
        return dropped

    def clear(self) -> None:
        for store in self._stores:
            store.clear()
        for disk in self._disks:
            disk.clear()

    def stats(self) -> dict[str, Any]:
        """Per-shard counters plus their totals (the ``/stats`` payload)."""
        shards: list[dict[str, Any]] = [
            dict(store.stats()) for store in self._stores
        ]
        for counters, disk in zip(shards, self._disks):
            counters.update(disk.stats()["disk"])
        totals: dict[str, float] = {}
        for counters in shards:
            for name, count in counters.items():
                totals[name] = totals.get(name, 0.0) + count
        return {
            "n_shards": len(self._stores),
            "version": self._version,
            "shards": shards,
            "totals": totals,
        }

    def close(self) -> None:
        for disk in self._disks:
            disk.close()


# ----------------------------------------------------------------------
# The cache-server protocol
# ----------------------------------------------------------------------


class ShardProtocolError(RuntimeError):
    """A shard request failed at the transport or protocol layer."""


def _encode(message: object) -> bytes:
    """A frame body.  ``json`` writes floats with ``repr``, so
    probabilities round-trip bit for bit."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8")


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ShardProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )


def _send_body(sock: socket.socket, body: bytes) -> None:
    """One frame: a 4-byte big-endian length, then the JSON body."""
    sock.sendall(struct.pack(">I", len(body)) + body)


def _recv_exact(sock: socket.socket, n_bytes: int) -> bytes:
    chunks = []
    remaining = n_bytes
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ShardProtocolError("shard connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_body(sock: socket.socket) -> bytes:
    """One frame's body; an oversized length is refused unread."""
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    _check_length(length)
    return _recv_exact(sock, length)


def _decode(body: bytes) -> Any:
    try:
        return json.loads(body)
    except ValueError as error:
        raise ShardProtocolError(f"frame is not JSON: {error}") from None


def _is_text(value: object) -> bool:
    return isinstance(value, str)


def _is_texts(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_seconds(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_pairs(value: object) -> bool:
    return isinstance(value, list) and all(
        isinstance(pair, list)
        and len(pair) == 2
        and isinstance(pair[0], str)
        and isinstance(pair[1], list)
        and persistable(tuple(pair[1]))
        for pair in value
    )


_KEY = (_is_text, "an encoded TEXT key")

#: Every op's arguments: one (check, description) per position.
_SIGNATURES: dict[str, tuple[tuple[Callable[[object], bool], str], ...]] = {
    "hello": ((_is_text, "a version stamp"),),
    "get": (_KEY,),
    "put_many": (
        (_is_pairs, "a list of [key, [probability, solver]] pairs"),
    ),
    "claim": (_KEY,),
    "wait": (_KEY, (_is_seconds, "a timeout in seconds")),
    "release": (_KEY,),
    "invalidate": ((_is_texts, "a list of encoded TEXT keys"),),
    "stats": (),
    "clear": (),
}


def _parse_request(frame: object) -> tuple[str, list[Any]]:
    """``(op, args)`` of a decoded request, its shape checked."""
    if not (isinstance(frame, list) and frame and isinstance(frame[0], str)):
        raise ShardProtocolError(f"malformed request {frame!r:.200}")
    op, arguments = frame[0], frame[1:]
    signature = _SIGNATURES.get(op)
    if signature is None:
        raise ShardProtocolError(f"unknown shard op {op!r:.200}")
    if len(arguments) != len(signature):
        raise ShardProtocolError(
            f"{op} takes {len(signature)} argument(s), got {len(arguments)}"
        )
    for (check, expected), argument in zip(signature, arguments):
        if not check(argument):
            raise ShardProtocolError(
                f"{op} expects {expected}, got {argument!r:.200}"
            )
    return op, arguments


def _as_value(found: Any) -> Value | None:
    return None if found is None else (float(found[0]), str(found[1]))


class ShardCacheServer:
    """Serve one :class:`ShardGroup` to a fleet over a localhost socket.

    Thread-per-connection (fleet sizes are worker counts, not crowds); a
    connection's blocking ``wait`` therefore never stalls other workers.
    ``port=0`` binds an ephemeral port; :attr:`address` is the
    ``host:port`` string clients attach to.  The ``hello`` handshake
    carries the cache-format version stamp, and a client from a different
    freeze()/solver generation is refused — the same never-serve-stale
    contract the SQLite tier enforces by clearing.  The server owns the
    group and closes it on :meth:`close`.
    """

    def __init__(
        self, group: ShardGroup, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.group = group
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self._listener = socket.create_server((host, port))
        bound_host, bound_port = self._listener.getsockname()[:2]
        self._address = f"{bound_host}:{bound_port}"
        #: Live connections and the threads serving them.
        self._handlers: dict[socket.socket, threading.Thread] = {}
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="shard-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> str:
        """``host:port`` of the listening socket (pass to clients)."""
        return self._address

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            handler = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="shard-conn",
                daemon=True,
            )
            with self._lock:
                self._handlers[connection] = handler
            handler.start()

    def _serve_connection(self, connection: socket.socket) -> None:
        """Answer one peer's frames until it leaves, then release every
        flight it claimed and never published or released."""
        claims: set[str] = set()
        greeted = False
        try:
            with connection:
                while not self._closed.is_set():
                    try:
                        body = _recv_body(connection)
                    except (OSError, ShardProtocolError) as error:
                        # Gone, or an oversized frame the stream cannot
                        # skip: say why (if anyone listens) and drop it.
                        _try_send(connection, ["err", str(error)])
                        return
                    try:
                        op, arguments = _parse_request(_decode(body))
                        if not greeted and op != "hello":
                            raise ShardProtocolError(
                                f"{op} refused: send hello first"
                            )
                        payload = self._handle(op, arguments, claims)
                        greeted = True
                        response = ["ok", payload]
                    except ShardProtocolError as error:
                        response = ["err", str(error)]
                    except Exception as error:  # never kill the handler
                        response = ["err", f"{type(error).__name__}: {error}"]
                    if not _try_send(connection, response):
                        return
        finally:
            for key in claims:
                self.group.release(key)
            with self._lock:
                self._handlers.pop(connection, None)

    def _handle(
        self, op: str, arguments: list[Any], claims: set[str]
    ) -> Any:
        group = self.group
        if op == "hello":
            if arguments[0] != group.version:
                raise ShardProtocolError(
                    f"cache-format version mismatch: client "
                    f"{arguments[0]!r}, server {group.version!r} — "
                    "a stale client must not read these shards"
                )
            return {"n_shards": group.n_shards, "version": group.version}
        if op == "put_many":
            pairs = [
                (key, (float(value[0]), value[1]))
                for key, value in arguments[0]
            ]
            group.put_many(pairs)
            claims.difference_update(key for key, _ in pairs)
            return len(pairs)
        if op == "claim":
            status, value = group.claim(arguments[0])
            if status == "claimed":
                claims.add(arguments[0])
            return [status, value]
        if op == "wait":
            timeout = min(max(float(arguments[1]), 0.0), MAX_WAIT_SECONDS)
            return group.wait(arguments[0], timeout)
        if op == "release":
            claims.discard(arguments[0])
        # The rest map one-to-one onto the group: get, release,
        # invalidate, stats, clear (``_parse_request`` admitted no other).
        return getattr(group, op)(*arguments)

    def close(self) -> None:
        """Stop accepting, drop connections, close the write-back files.

        Shutting the sockets down wakes the threads blocked in
        ``accept`` / ``recv``, so each handler releases its claims.
        """
        self._closed.set()
        with self._lock:
            handlers = dict(self._handlers)
        for sock in [self._listener, *handlers]:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already gone
        self._listener.close()
        self._accept_thread.join(timeout=5.0)
        for thread in handlers.values():
            thread.join(timeout=1.0)
        self.group.close()

    def __enter__(self) -> "ShardCacheServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _try_send(sock: socket.socket, message: object) -> bool:
    """Send one frame; ``False`` when the peer is gone."""
    try:
        _send_body(sock, _encode(message))
    except OSError:
        return False
    return True


class ShardClient:
    """A picklable handle on a running :class:`ShardCacheServer`.

    Mirrors the :class:`ShardGroup` surface over the socket protocol.
    Each thread gets its own connection, opened lazily and re-opened
    after a ``fork`` (the owning pid is tracked), so one thread blocked
    in ``wait`` never stalls another's publish, and a claim is published
    on the connection that made it.  The client rides into worker
    processes like a :class:`~repro.service.executors.SolveTask` does.
    """

    def __init__(self, address: str, timeout: float = 30.0) -> None:
        host, _, port_text = address.rpartition(":")
        if not host or not port_text.isdigit():
            raise ValueError(
                f"shard address must look like 'host:port', got {address!r}"
            )
        self._address = address
        self._endpoint = (host, int(port_text))
        self._timeout = timeout
        self._lock = threading.Lock()
        #: This thread's connection and the pid that opened it.
        self._local = threading.local()
        #: Every open connection, so :meth:`close` reaches all threads',
        #: and the pid that opened them.
        self._sockets: set[socket.socket] = set()
        self._pid = os.getpid()

    def __reduce__(self) -> tuple[Any, tuple[str, float]]:
        return (type(self), (self._address, self._timeout))

    def _connection(self) -> socket.socket:
        """This thread's live socket, (re)connecting + handshaking as
        needed; sockets inherited across ``fork`` are closed, never shared."""
        local = self._local
        pid = os.getpid()
        if getattr(local, "pid", None) == pid:
            sock: socket.socket = local.sock
            return sock
        with self._lock:
            inherited = list(self._sockets) if self._pid != pid else []
            self._sockets.difference_update(inherited)
            self._pid = pid
        for stale in inherited:
            stale.close()
        sock = socket.create_connection(self._endpoint, self._timeout)
        try:
            _send_body(sock, _encode(["hello", default_version()]))
            _reply_payload(_decode(_recv_body(sock)))
        except BaseException:
            sock.close()
            raise
        local.sock, local.pid = sock, pid
        with self._lock:
            self._sockets.add(sock)
        return sock

    def _call(self, *message: Any, read_timeout: float | None = None) -> Any:
        return self._exchange(_encode(list(message)), read_timeout)

    def _call_split(self, op: str, items: list[Any]) -> list[Any]:
        """``op`` over ``items`` in frames within :data:`MAX_FRAME_BYTES`,
        halving the batch until each fits; one reply payload per frame."""
        body = _encode([op, items])
        if len(body) <= MAX_FRAME_BYTES or len(items) < 2:
            return [self._exchange(body)]
        middle = len(items) // 2
        return self._call_split(op, items[:middle]) + self._call_split(
            op, items[middle:]
        )

    def _exchange(self, body: bytes, read_timeout: float | None = None) -> Any:
        """Send one request body on this thread's connection; the reply's
        payload.  An oversized body is refused before anything is sent."""
        _check_length(len(body))
        sock = self._connection()
        try:
            if read_timeout is not None:
                sock.settimeout(read_timeout)
            _send_body(sock, body)
            reply = _decode(_recv_body(sock))
            if read_timeout is not None:
                sock.settimeout(self._timeout)
        except (OSError, ShardProtocolError) as error:
            self._local.pid = None  # reconnect on this thread's next call
            with self._lock:
                self._sockets.discard(sock)
            sock.close()
            raise ShardProtocolError(
                f"shard server {self._address} failed: {error}"
            ) from error
        return _reply_payload(reply)

    def get(self, key: str) -> Value | None:
        return _as_value(self._call("get", key))

    def put_many(self, pairs: Iterable[tuple[str, Value]]) -> None:
        self._call_split("put_many", list(pairs))

    def claim(self, key: str) -> tuple[str, Value | None]:
        status, value = self._call("claim", key)
        return (str(status), _as_value(value))

    def wait(self, key: str, timeout: float) -> Value | None:
        # The server blocks up to `timeout`; give the socket read slack
        # beyond it so a slow publish is not misread as a dead server.
        return _as_value(
            self._call("wait", key, timeout, read_timeout=timeout + 10.0)
        )

    def release(self, key: str) -> None:
        self._call("release", key)

    def invalidate(self, keys: Iterable[str]) -> int:
        return sum(
            int(dropped)
            for dropped in self._call_split("invalidate", list(keys))
        )

    def stats(self) -> dict[str, Any]:
        return dict(self._call("stats"))

    def clear(self) -> None:
        self._call("clear")

    def close(self) -> None:
        """Close every thread's connection; later calls reconnect."""
        with self._lock:
            sockets = list(self._sockets)
            self._sockets.clear()
            self._local = threading.local()
        for sock in sockets:
            sock.close()


def _reply_payload(reply: Any) -> Any:
    """The payload of an ``["ok", payload]`` reply; raises on ``"err"``."""
    if not (isinstance(reply, list) and len(reply) == 2):
        raise ShardProtocolError(f"malformed reply {reply!r:.200}")
    status, payload = reply
    if status != "ok":
        raise ShardProtocolError(str(payload))
    return payload
