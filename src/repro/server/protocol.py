"""The JSON wire protocol of the serving front-end.

Requests arrive as JSON bodies in either of two shapes:

* **string form** — ``{"request": "COUNT P(v; m1; m2), ..."}``: the
  extended request grammar of :mod:`repro.api.requests`, exactly what the
  ``python -m repro query`` CLI accepts;
* **typed form** — ``{"kind": "top_k", "query": "P(v; m1; m2)", "k": 3}``:
  one field per request-dataclass attribute (``k``/``strategy``/
  ``n_edges`` for top-k, ``relation``/``column``/``statistic``/
  ``n_worlds`` for aggregates).

Either shape may carry evaluation options (``method``, ``approx_budget``,
``session_limit``).  Malformed bodies raise :class:`ProtocolError`, which
the HTTP layer renders as a 400 with the parser's caret excerpt intact —
a syntax error over the wire looks exactly like one at the CLI.

Answers are encoded losslessly but JSON-safely: tuples (session keys,
rankings) become lists, NumPy scalars become Python numbers.  Values
round-trip through ``json.dumps`` without a custom encoder.
"""

from __future__ import annotations

from typing import Any

from repro.api.requests import (
    Aggregate,
    Count,
    Probability,
    QueryRequest,
    TopK,
    parse_request,
)
from repro.query.parser import QuerySyntaxError, parse_query

#: Evaluation options a request body may carry next to the request itself.
OPTION_FIELDS = ("method", "approx_budget", "session_limit")

#: Typed-form fields, per kind, beyond the common ``query``.
KIND_FIELDS: dict[str, tuple[str, ...]] = {
    "probability": (),
    "count": (),
    "top_k": ("k", "strategy", "n_edges"),
    "aggregate": ("relation", "column", "statistic", "n_worlds"),
}

_KIND_CLASSES: dict[str, type[QueryRequest]] = {
    "probability": Probability,
    "count": Count,
    "top_k": TopK,
    "aggregate": Aggregate,
}


class ProtocolError(ValueError):
    """A malformed or rejected request body, rendered as an HTTP 4xx."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def known_methods() -> tuple[str, ...]:
    """Every method name a request may ask for."""
    from repro.plan.methods import APPROXIMATE_METHODS, AUTO_METHODS
    from repro.solvers.dispatch import available_methods

    return tuple(AUTO_METHODS) + tuple(available_methods()) + tuple(
        APPROXIMATE_METHODS
    )


def validate_options(options: dict[str, Any]) -> dict[str, Any]:
    """Check the evaluation options of a body; returns them normalized.

    A method whose required solver options
    (:data:`repro.plan.methods.REQUIRED_OPTIONS`) are absent is a 400.
    ``method="auto-approx"`` without an ``approx_budget`` budgets against
    the library's default, as :func:`repro.api.answer` does.
    """
    from repro.plan.methods import check_required_options

    method = options.get("method")
    if method is not None:
        if not isinstance(method, str) or method not in known_methods():
            raise ProtocolError(
                f"unknown method {method!r}; "
                f"available: {', '.join(known_methods())}"
            )
        try:
            check_required_options(method, options)
        except ValueError as error:
            raise ProtocolError(str(error)) from None
    budget = options.get("approx_budget")
    if budget is not None:
        if not isinstance(budget, (int, float)) or budget <= 0:
            raise ProtocolError(
                f"approx_budget must be a positive number, got {budget!r}"
            )
    limit = options.get("session_limit")
    if limit is not None:
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ProtocolError(
                f"session_limit must be a positive integer, got {limit!r}"
            )
    return options


def _extract_options(body: dict[str, Any]) -> dict[str, Any]:
    return validate_options(
        {
            name: body[name]
            for name in OPTION_FIELDS
            if body.get(name) is not None
        }
    )


def decode_request(body: Any) -> tuple[QueryRequest, dict[str, Any]]:
    """A JSON body -> (typed request, evaluation options).

    Accepts the string form (``{"request": ...}``), the typed form
    (``{"kind": ..., "query": ...}``), or a bare string.  Raises
    :class:`ProtocolError` on anything else; query syntax errors keep
    their caret excerpt.
    """
    if isinstance(body, str):
        body = {"request": body}
    if not isinstance(body, dict):
        raise ProtocolError(
            "expected a JSON object request body, got "
            f"{type(body).__name__}"
        )
    options = _extract_options(body)

    if "request" in body:
        text = body["request"]
        if not isinstance(text, str):
            raise ProtocolError(
                "'request' must be request text, got "
                f"{type(text).__name__}"
            )
        try:
            return parse_request(text), options
        except QuerySyntaxError as error:
            raise ProtocolError(f"invalid request text: {error}") from error

    if "kind" in body:
        kind = body["kind"]
        if kind not in _KIND_CLASSES:
            raise ProtocolError(
                f"unknown request kind {kind!r}; "
                f"expected one of {', '.join(sorted(_KIND_CLASSES))}"
            )
        query = body.get("query")
        if not isinstance(query, str):
            raise ProtocolError(
                f"a typed {kind!r} request needs query text in 'query'"
            )
        fields = {
            name: body[name]
            for name in KIND_FIELDS[kind]
            if body.get(name) is not None
        }
        try:
            parsed = parse_query(query)
        except QuerySyntaxError as error:
            raise ProtocolError(f"invalid query text: {error}") from error
        try:
            return _KIND_CLASSES[kind](parsed, **fields), options
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"invalid {kind!r} request: {error}") from error

    raise ProtocolError(
        "a request body needs either 'request' (request text) or "
        "'kind' + 'query' (typed form)"
    )


def decode_batch(body: Any) -> tuple[list[QueryRequest], dict[str, Any]]:
    """An ``answer_many`` body -> (requests, batch-level options)."""
    if not isinstance(body, dict) or not isinstance(
        body.get("requests"), list
    ):
        raise ProtocolError(
            "an answer_many body needs a 'requests' list "
            "(request texts or typed objects)"
        )
    if not body["requests"]:
        raise ProtocolError("'requests' must not be empty")
    options = _extract_options(body)
    requests: list[QueryRequest] = []
    for index, item in enumerate(body["requests"]):
        try:
            request, item_options = decode_request(item)
        except ProtocolError as error:
            raise ProtocolError(f"requests[{index}]: {error}") from error
        if item_options:
            raise ProtocolError(
                f"requests[{index}]: per-item options are not supported in "
                "a batch; pass method/approx_budget/session_limit at the "
                "batch level"
            )
        requests.append(request)
    return requests, options


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def jsonable(value: Any) -> Any:
    """Recursively convert a result value into JSON-encodable primitives."""
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (frozenset, set)):
        return sorted((jsonable(item) for item in value), key=repr)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if hasattr(value, "item"):  # NumPy scalars
        return value.item()
    return repr(value)


def encode_answer(answer: Any) -> dict[str, Any]:
    """One :class:`~repro.api.answer.Answer` -> a JSON-safe dict."""
    return {
        "kind": answer.kind,
        "request": answer.request.describe(),
        "value": jsonable(answer.value),
        "n_sessions": answer.n_sessions,
        "methods": list(answer.methods),
        "requested_method": answer.requested_method,
        "seconds": answer.seconds,
        "stats": jsonable(answer.stats),
    }


def encode_batch(batch: Any) -> dict[str, Any]:
    """A :class:`~repro.api.answer.BatchAnswer` -> a JSON-safe dict."""
    return {
        "answers": [encode_answer(answer) for answer in batch.answers],
        "n_requests": batch.n_requests,
        "n_sessions": batch.n_sessions,
        "n_distinct_solves": batch.n_distinct_solves,
        "n_cache_hits": batch.n_cache_hits,
        "n_solves_planned": batch.n_solves_planned,
        "n_solves_eliminated": batch.n_solves_eliminated,
        "backend": batch.backend,
        "seconds": batch.seconds,
    }


def error_body(message: str, status: int, **extra: Any) -> dict[str, Any]:
    """The uniform error envelope every non-2xx response carries."""
    return {"error": message, "status": status, **extra}
