"""Per-client admission control: bounded queues, explicit backpressure.

Every request holds one admission slot from arrival to response.  Slots
are bounded twice — per client and server-wide — and overflow is answered
immediately with :class:`AdmissionRejected` (the HTTP layer renders it as
429 with a constant 1 s ``Retry-After`` hint) instead of queueing without
bound: under a traffic spike the server keeps answering what it admitted
at its normal latency and sheds the rest, rather than growing an
invisible queue whose every entry times out.

Clients are identified by the ``X-Client-Id`` header when present, else
by peer address (:func:`repro.server.http` passes it down).  The
controller is synchronous and lock-guarded — admission decisions happen
on the event loop and must never block.
"""

from __future__ import annotations

import threading

#: The backoff hint of every rejection, in whole seconds (HTTP
#: ``Retry-After`` is integral): a batch drains well within it.
RETRY_AFTER_SECONDS = 1


class AdmissionRejected(Exception):
    """The request was shed; ``retry_after`` is the client's backoff hint."""

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


class AdmissionController:
    """Bounded per-client and total in-flight request slots."""

    def __init__(
        self,
        max_pending_per_client: int = 32,
        max_pending_total: int = 256,
    ):
        self.max_pending_per_client = max_pending_per_client
        self.max_pending_total = max_pending_total
        self._lock = threading.Lock()
        self._pending: dict[str, int] = {}
        self._total = 0

    def acquire(self, client_id: str) -> None:
        """Take one slot for ``client_id`` or raise :class:`AdmissionRejected`."""
        with self._lock:
            if self._total >= self.max_pending_total:
                raise AdmissionRejected(
                    f"server at capacity ({self._total} requests in flight); "
                    f"retry after {RETRY_AFTER_SECONDS}s",
                    retry_after=RETRY_AFTER_SECONDS,
                )
            pending = self._pending.get(client_id, 0)
            if pending >= self.max_pending_per_client:
                raise AdmissionRejected(
                    f"client {client_id!r} at capacity ({pending} requests "
                    f"in flight); retry after {RETRY_AFTER_SECONDS}s",
                    retry_after=RETRY_AFTER_SECONDS,
                )
            self._pending[client_id] = pending + 1
            self._total += 1

    def release(self, client_id: str) -> None:
        """Return the slot taken by :meth:`acquire` (response sent)."""
        with self._lock:
            pending = self._pending.get(client_id, 0)
            if pending <= 1:
                self._pending.pop(client_id, None)
            else:
                self._pending[client_id] = pending - 1
            self._total = max(0, self._total - 1)

    def pending(self, client_id: "str | None" = None) -> int:
        """In-flight count for one client (or server-wide with ``None``)."""
        with self._lock:
            if client_id is None:
                return self._total
            return self._pending.get(client_id, 0)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "in_flight": self._total,
                "clients": len(self._pending),
                "max_pending_per_client": self.max_pending_per_client,
                "max_pending_total": self.max_pending_total,
            }
