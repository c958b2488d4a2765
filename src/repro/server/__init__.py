"""The asyncio serving front-end: live traffic over the plan pipeline.

This package is ROADMAP item 1's traffic surface — the gateway between
network clients and the offline stack (planner, unified API, backends,
cache tiers).  Its core is the **request coalescer**
(:mod:`repro.server.coalescer`): a request finding the batch worker
idle runs at once, and the requests that queue while a batch runs are
planned and executed together as the next
:meth:`~repro.service.service.PreferenceService.answer_many` batch, so
the planner's mixed-kind dedup and cross-query common-solve elimination
(51.9x on overlapping workloads, ``BENCH_planner.json``) pay off on live
traffic, not just offline batches.  Around it: the JSON wire protocol
(:mod:`repro.server.protocol`), per-client admission control with
explicit backpressure (:mod:`repro.server.admission`), a latency/
coalescing metrics registry (:mod:`repro.server.metrics`), the
transport-independent application (:mod:`repro.server.app`), the asyncio
HTTP layer (:mod:`repro.server.http`), and the ``python -m repro serve``
CLI (:mod:`repro.server.cli`).  See DESIGN.md Section 11 for the batch
semantics, the backpressure contract, and the metric definitions.
"""

from repro.server.admission import AdmissionController, AdmissionRejected
from repro.server.app import ServerApp
from repro.server.coalescer import CoalescerClosed, RequestCoalescer
from repro.server.config import ServerConfig
from repro.server.http import HTTPServer, run_server
from repro.server.metrics import MetricsRegistry
from repro.server.protocol import (
    ProtocolError,
    decode_batch,
    decode_request,
    encode_answer,
    encode_batch,
)

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "CoalescerClosed",
    "HTTPServer",
    "MetricsRegistry",
    "ProtocolError",
    "RequestCoalescer",
    "ServerApp",
    "ServerConfig",
    "decode_batch",
    "decode_request",
    "encode_answer",
    "encode_batch",
    "run_server",
]
