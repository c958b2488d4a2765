"""The unified answer envelope shared by every query kind.

One :class:`Answer` per request, whatever the kind: the scalar (or
ranking) ``value``, the per-session breakdown, the *resolved* solver
methods that actually ran (never the requested string — see
``requested_method`` for that), wall time, and cache/plan statistics.
:class:`BatchAnswer` adds the batch-level counters of
:func:`repro.api.evaluate.answer_many`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.query.engine import SessionEvaluation, SessionKey


@dataclass
class Answer:
    """The result of one typed request, any kind.

    ``value`` is the kind's principal result: the probability
    (``probability``), the expected count (``count``), the conditional
    expectation of the attribute statistic (``aggregate``), or the ranked
    ``[(session_key, probability), ...]`` list (``top_k``).  ``methods``
    names the distinct solvers that actually ran (resolved, e.g.
    ``("two_label",)`` — never ``"auto"``); ``stats`` carries kind-specific
    extras (cache hits, top-k pruning effort, aggregate side estimates).
    """

    request: Any
    kind: str
    value: Any
    per_session: list[SessionEvaluation] = field(default_factory=list)
    methods: tuple[str, ...] = ()
    requested_method: str = "auto"
    n_sessions: int = 0
    seconds: float = 0.0
    stats: dict[str, Any] = field(default_factory=dict)
    #: The database generation this answer was computed against (the
    #: monotonic counter of :class:`~repro.db.mutable.MutablePPDatabase`),
    #: or ``None`` for a static snapshot.  A reader holding a database at
    #: generation ``g`` can detect a stale answer by ``answer.generation
    #: != g`` — the staleness gauge the standing-query engine exports.
    generation: "int | None" = None

    # ------------------------------------------------------------------
    # Kind-checked conveniences
    # ------------------------------------------------------------------

    def _expect_kind(self, *kinds: str) -> None:
        if self.kind not in kinds:
            raise ValueError(
                f"a {self.kind!r} answer has no "
                f"{' / '.join(kinds)} accessor"
            )

    @property
    def probability(self) -> float:
        """The Boolean query probability (``probability`` answers only)."""
        self._expect_kind("probability")
        return float(self.value)

    @property
    def expectation(self) -> float:
        """The expected value (``count`` / ``aggregate`` answers only)."""
        self._expect_kind("count", "aggregate")
        return float(self.value)

    @property
    def ranking(self) -> list[tuple[SessionKey, float]]:
        """The ranked ``(session_key, probability)`` list (``top_k``)."""
        self._expect_kind("top_k")
        ranking: list[tuple[SessionKey, float]] = self.value
        return ranking

    def session_probability(self, key: SessionKey) -> float:
        for evaluation in self.per_session:
            if evaluation.key == key:
                return evaluation.probability
        raise KeyError(f"no session {key!r} in the answer")


@dataclass
class BatchAnswer:
    """Per-request answers plus batch-level cache and timing metadata.

    ``answers`` holds one :class:`Answer` per request, in request order;
    the batch counters report how much work mixed-kind common-solve
    elimination and the shared cache saved.
    """

    answers: list[Answer]
    n_requests: int
    n_sessions: int
    #: Distinct solves actually executed for this batch (after batch-wide
    #: mixed-kind dedup, cache lookups, and top-k pruning).
    n_distinct_solves: int
    #: Session groups served from the cross-query cache without solving.
    n_cache_hits: int
    seconds: float
    cache_stats: dict[str, Any] = field(default_factory=dict)
    backend: str = ""
    #: Per-session solves the plan contained before optimization, and how
    #: many of them the optimizer's common-solve elimination merged away —
    #: the live-traffic payoff the serving layer's coalescer reports per
    #: batch (``/stats``).  Zero on the sequential approximate route.
    n_solves_planned: int = 0
    n_solves_eliminated: int = 0
    #: The database generation the batch was computed against (``None``
    #: for a static snapshot); see :attr:`Answer.generation`.
    generation: "int | None" = None

    @property
    def values(self) -> list[Any]:
        return [answer.value for answer in self.answers]

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self) -> Iterator[Answer]:
        return iter(self.answers)

    def __getitem__(self, index: int) -> Answer:
        return self.answers[index]
