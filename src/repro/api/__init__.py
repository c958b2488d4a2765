"""The unified query API: one typed request/answer surface for every kind.

The paper's query family — Boolean CQ probability (Section 3.1),
``count(Q)`` and ``top(Q, k)`` (Section 3.2), and the Section-7 attribute
aggregates — served through one declarative surface:

* :mod:`repro.api.requests` — the typed requests (:class:`Probability`,
  :class:`Count`, :class:`TopK`, :class:`Aggregate`), constructible
  programmatically or from the extended string grammar
  (``COUNT ...``, ``TOPK 3 ...``, ``AGG mean(V.age) ...`` prefixes on the
  CQ syntax) via :func:`parse_request`;
* :mod:`repro.api.answer` — the :class:`Answer` envelope (value,
  per-session breakdown, resolved methods, cache/plan stats) and the
  :class:`BatchAnswer` batch metadata;
* :mod:`repro.api.evaluate` — :func:`answer` / :func:`answer_many`, the
  evaluation entry points routing every kind through the plan pipeline
  (:mod:`repro.plan`) so mixed-kind workloads share solves, caching,
  backends, and ``explain``.

Typical use::

    from repro.api import answer, parse_request

    result = answer("COUNT P(v; m1; m2), M(m1, 'Comedy', _, _, _)", db)
    result.expectation            # E[count(Q)]
    result.methods                # the solvers that actually ran

These are the only query entry points; :class:`~repro.service.service
.PreferenceService` wraps the same two with a shared cache and backend.
See DESIGN.md, "The unified query API".
"""

from repro.api.answer import Answer, BatchAnswer
from repro.api.evaluate import answer, answer_many, assemble_answers
from repro.api.requests import (
    AGGREGATE_STATISTICS,
    Aggregate,
    Count,
    Probability,
    QueryRequest,
    TOPK_STRATEGIES,
    TopK,
    as_request,
    parse_request,
)

__all__ = [
    "AGGREGATE_STATISTICS",
    "Aggregate",
    "Answer",
    "BatchAnswer",
    "Count",
    "Probability",
    "QueryRequest",
    "TOPK_STRATEGIES",
    "TopK",
    "answer",
    "answer_many",
    "as_request",
    "assemble_answers",
    "parse_request",
]
