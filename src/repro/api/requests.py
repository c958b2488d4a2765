"""Typed query requests: the one declarative surface over every query kind.

The paper defines a family of hard queries over a RIM-PPD — the Boolean CQ
probability (Section 3.1), ``count(Q)`` and ``top(Q, k)`` (Section 3.2),
and the attribute aggregates it sketches as future work (Section 7).  This
module gives each kind a typed request object:

* :class:`Probability` — ``Pr(Q | D)``;
* :class:`Count` — ``E[count(Q)]``, the expected number of satisfying
  sessions;
* :class:`TopK` — the ``k`` sessions most likely to satisfy ``Q`` (with
  the paper's upper-bound pruning strategy);
* :class:`Aggregate` — a statistic of a session attribute over the
  satisfying sessions (e.g. the mean age of voters preferring R to D).

Requests are constructible programmatically (the ``query`` argument
accepts a :class:`~repro.query.ast.ConjunctiveQuery` or query text) or
from the extended string grammar::

    request  :=  [prefix] query
    prefix   :=  "COUNT"
              |  "TOPK" INTEGER
              |  "AGG" NAME "(" NAME "." NAME ")"      e.g. AGG mean(V.age)

``parse_request`` recognizes the prefix keywords case-insensitively; a
relation that happens to be named ``COUNT``/``TOPK``/``AGG`` is still
parseable because a prefix keyword must be followed by whitespace, never
directly by ``(``.  Every request evaluates through the same plan pipeline
(build -> optimize -> execute; see :mod:`repro.api.evaluate`), so mixed
kinds share solver work and caching.

Requests are frozen values: two parses of the same text compare and hash
equal, and no field can be assigned after construction, so a
:class:`~repro.service.service.PreferenceService` can key its memo of
optimized plans by the requests themselves.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass
from typing import ClassVar

from repro.query.ast import ConjunctiveQuery
from repro.query.parser import QuerySyntaxError, parse_query

#: Strategies accepted by :class:`TopK`.
TOPK_STRATEGIES = ("naive", "upper_bound")

#: Statistics accepted by :class:`Aggregate`.
AGGREGATE_STATISTICS = ("mean", "sum")


def _check_positive_integer(name: str, value: object) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (not a bool) of
    at least 1: a malformed request fails when it is constructed, before it
    can share a batch with other requests or reach a cache key."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or int(value) < 1
    ):
        raise ValueError(
            f"{name} must be an integer of at least 1, got {value!r}"
        )


def _as_query(query: "ConjunctiveQuery | str") -> ConjunctiveQuery:
    if isinstance(query, str):
        return parse_query(query)
    if isinstance(query, ConjunctiveQuery):
        return query
    raise TypeError(
        f"expected ConjunctiveQuery or query text, got {type(query).__name__}"
    )


@dataclass(frozen=True)
class QueryRequest:
    """Base of every typed request: the Boolean CQ all kinds build on."""

    query: ConjunctiveQuery

    kind: ClassVar[str] = "?"

    def __post_init__(self) -> None:
        # Frozen: query text is parsed once, here, and never reassigned.
        object.__setattr__(self, "query", _as_query(self.query))

    def describe(self) -> str:
        """The request in the extended string grammar (modulo ``Q() <-``)."""
        return str(self.query)


@dataclass(frozen=True)
class Probability(QueryRequest):
    """``Pr(Q | D)``: the Boolean CQ probability of Section 3.1."""

    kind: ClassVar[str] = "probability"


@dataclass(frozen=True)
class Count(QueryRequest):
    """``E[count(Q)]``: the expected number of satisfying sessions."""

    kind: ClassVar[str] = "count"

    def describe(self) -> str:
        return f"COUNT {self.query}"


@dataclass(frozen=True)
class TopK(QueryRequest):
    """``top(Q, k)``: the k sessions most likely to satisfy ``Q``.

    ``strategy="upper_bound"`` (default) applies the paper's top-k pruning:
    cheap per-session upper bounds order the candidates and exact solves
    stop as soon as the k-th best confirmed probability dominates every
    remaining bound.  ``n_edges`` selects how many constraint edges the
    bound keeps per pattern (1 -> two-label bounds, 2+ -> bipartite).
    """

    k: int = 1
    strategy: str = "upper_bound"
    n_edges: int = 1

    kind: ClassVar[str] = "top_k"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_positive_integer("k", self.k)
        _check_positive_integer("n_edges", self.n_edges)
        if self.strategy not in TOPK_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")

    def describe(self) -> str:
        return f"TOPK {self.k} {self.query}"


@dataclass(frozen=True)
class Aggregate(QueryRequest):
    """A statistic of a session attribute over the satisfying sessions.

    ``relation``/``column`` name the o-relation and column holding the
    attribute (the session's first key component is matched against the
    relation's first column); ``statistic`` is ``"mean"`` or ``"sum"``;
    ``n_worlds`` sizes the Bernoulli possible-world sample the conditional
    expectation is estimated from (Section 7 of the paper).
    """

    relation: str = ""
    column: str = ""
    statistic: str = "mean"
    n_worlds: int = 10_000

    kind: ClassVar[str] = "aggregate"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.relation or not self.column:
            raise ValueError("Aggregate requires a relation and a column")
        if self.statistic not in AGGREGATE_STATISTICS:
            raise ValueError(f"unsupported statistic {self.statistic!r}")
        _check_positive_integer("n_worlds", self.n_worlds)

    def describe(self) -> str:
        return f"AGG {self.statistic}({self.relation}.{self.column}) {self.query}"


# ----------------------------------------------------------------------
# The extended string grammar
# ----------------------------------------------------------------------

# A prefix keyword must be followed by whitespace (never '('), so relations
# named COUNT/TOPK/AGG keep parsing as plain atoms.
_COUNT_RE = re.compile(r"(?i:COUNT)(?=\s)\s+")
_TOPK_RE = re.compile(r"(?i:TOPK)(?=\s)\s+")
_TOPK_K_RE = re.compile(r"(\d+)\s+")
_AGG_RE = re.compile(r"(?i:AGG)(?=\s)\s+")
_AGG_SPEC_RE = re.compile(
    r"(?P<statistic>[A-Za-z][A-Za-z0-9_]*)\s*\(\s*"
    r"(?P<relation>[A-Za-z][A-Za-z0-9_]*)\s*\.\s*"
    r"(?P<column>[A-Za-z][A-Za-z0-9_]*)\s*\)\s*"
)


def parse_request(text: str) -> QueryRequest:
    """Parse request text — prefixed or plain — into a typed request.

    The prefixed and plain interpretations are mutually exclusive (a valid
    plain query starting with a keyword continues with ``(`` or a
    comparison operator, neither of which a prefixed request tail can
    start with), so when a prefix interpretation fails to parse, the text
    is retried as a plain query — ``count > 3, P(v, count; a; b)`` keeps
    meaning what it always did.  The prefix error is re-raised when
    neither reading works, being the more informative one.

    Examples
    --------
    >>> parse_request("COUNT P(_, _; 'Trump'; 'Clinton')").kind
    'count'
    >>> request = parse_request("TOPK 3 P(_, _; 'Trump'; 'Clinton')")
    >>> request.k
    3
    >>> parse_request("AGG mean(V.age) P(_, _; 'Trump'; 'Clinton')").column
    'age'
    >>> parse_request("P(_, _; 'Trump'; 'Clinton')").kind
    'probability'
    """
    stripped = text.lstrip()
    base = len(text) - len(stripped)

    match = _COUNT_RE.match(stripped)
    if match is not None:
        try:
            return Count(_parse_tail(text, base + match.end()))
        except QuerySyntaxError as error:
            return _fall_back_to_plain(text, base, error)

    match = _TOPK_RE.match(stripped)
    if match is not None:
        try:
            k_match = _TOPK_K_RE.match(stripped, match.end())
            if k_match is None:
                raise QuerySyntaxError(
                    "TOPK requires an integer k before the query",
                    source=text,
                    offset=base + match.end(),
                )
            return TopK(
                _parse_tail(text, base + k_match.end()),
                k=int(k_match.group(1)),
            )
        except QuerySyntaxError as error:
            return _fall_back_to_plain(text, base, error)

    match = _AGG_RE.match(stripped)
    if match is not None:
        try:
            spec = _AGG_SPEC_RE.match(stripped, match.end())
            if spec is None:
                raise QuerySyntaxError(
                    "AGG requires a statistic(Relation.column) specification",
                    source=text,
                    offset=base + match.end(),
                )
            statistic = spec.group("statistic")
            if statistic not in AGGREGATE_STATISTICS:
                raise QuerySyntaxError(
                    f"unsupported statistic {statistic!r}; "
                    f"expected one of {', '.join(AGGREGATE_STATISTICS)}",
                    source=text,
                    offset=base + match.end(),
                )
            return Aggregate(
                _parse_tail(text, base + spec.end()),
                relation=spec.group("relation"),
                column=spec.group("column"),
                statistic=statistic,
            )
        except QuerySyntaxError as error:
            return _fall_back_to_plain(text, base, error)

    return Probability(_parse_tail(text, base))


def _fall_back_to_plain(
    text: str, base: int, prefix_error: QuerySyntaxError
) -> "Probability":
    """Retry a failed prefix interpretation as a plain query.

    A keyword-named variable in a leading comparison (``count > 3, ...``)
    looks like a prefix but is a valid plain query; when the plain reading
    fails too, the prefix error is the one worth showing.
    """
    try:
        return Probability(_parse_tail(text, base))
    except QuerySyntaxError:
        raise prefix_error from None


def _parse_tail(text: str, offset: int) -> ConjunctiveQuery:
    """Parse the CQ tail of ``text``; errors stay anchored to the full text."""
    return parse_query(text[offset:], source=text, base_offset=offset)


def as_request(item: "QueryRequest | ConjunctiveQuery | str") -> QueryRequest:
    """Normalize any accepted input form into a typed request.

    Strings go through :func:`parse_request` (so prefixed text works
    anywhere a query was accepted before); plain queries become
    :class:`Probability` requests; requests pass through unchanged.
    """
    if isinstance(item, QueryRequest):
        return item
    if isinstance(item, ConjunctiveQuery):
        return Probability(item)
    if isinstance(item, str):
        return parse_request(item)
    raise TypeError(
        f"expected a request, query, or query text, got {type(item).__name__}"
    )
