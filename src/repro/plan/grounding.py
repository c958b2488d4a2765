"""The grounding: what a plan derives from its queries and O-relations alone.

Building a plan grounds every (query, session) pair (Section 3.1): it
selects the session, joins the session atoms against the O-relations and
compiles the pattern union, then labels the union's items.  Optimizing
it fingerprints, costs and names each union.  None of that reads a
session's model, so a :class:`Grounding` keeps it:

* per query, its analysis and, per session key, the session's compiled
  union, or that the query is false there or does not select it
  (:class:`~repro.query.engine.QueryGrounding`);
* per distinct union, a :class:`UnionFacts`: its labeling, its
  simplification, its resolved method per requested one, its request
  fingerprint per (method, options), its cost estimate per (method,
  options, model item count, mixture size) and its named-union digest.

:func:`~repro.plan.build.build_plan` and
:func:`~repro.plan.passes.optimize_plan` read through one on every build.
An ``answer`` or ``answer_many`` call passes a fresh one, which serves as
that build's memo.  A :class:`~repro.stream.standing.StandingQueryEngine`
keeps one across refreshes, so a refresh grounds only the sessions it has
not seen, and reads every model from the p-relation.  The refresh's plan
is still built from scratch out of these facts.  It is not the last plan
patched: elimination merges equal solves into one representative, whose
union names its bound keys, and after an expiry a fresh build may pick
another representative.

A grounding answers only for the relations it was filled from.  Each
build checks that the database's O- and p-relations are the same objects,
and starts from an empty grounding if they are not.  Its owner drops what
leaves: an expired session (:meth:`Grounding.forget_session`) and a
query no longer asked (:meth:`Grounding.forget_query`).  Every union
stays reachable from a query, so the facts are bounded by the queries'
binding signatures.

:attr:`Grounding.lock` is held for a whole build and optimize and by the
``forget`` methods, so two threads may build through one grounding.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.patterns.labels import Labeling
from repro.patterns.union import PatternUnion
from repro.plan.cost import estimate_solve_states
from repro.plan.methods import resolve_solve_method
from repro.query.ast import ConjunctiveQuery
from repro.query.classify import analyze
from repro.query.compile import labeling_for_patterns
from repro.query.engine import QueryGrounding, SessionKey
from repro.rim.mixture import MallowsMixture
from repro.service.keys import named_union_fingerprint, request_fingerprint


def _options_key(options: dict[str, Any]) -> tuple:
    """A hashable form of solver options, as a request fingerprint reads
    them."""
    if not options:
        return ()
    return tuple(sorted((name, repr(value)) for name, value in options.items()))


class UnionFacts:
    """One union and what a plan derives from it alone, each computed on
    first use."""

    __slots__ = (
        "union", "labeling", "_simplified", "_methods", "_fingerprints",
        "_costs", "_named",
    )

    def __init__(self, union: PatternUnion, labeling: Labeling) -> None:
        self.union = union
        self.labeling = labeling
        self._simplified: PatternUnion | None = None
        self._methods: dict[str, str] = {}
        self._fingerprints: dict[tuple, str] = {}
        self._costs: dict[tuple, float] = {}
        self._named: str | None = None

    def simplified(self) -> PatternUnion:
        """:func:`repro.plan.passes.simplify_union` of the union: the same
        object on every call."""
        if self._simplified is None:
            # Deferred: repro.plan.passes imports this module.
            from repro.plan.passes import simplify_union

            self._simplified = simplify_union(self.union)
        return self._simplified

    def method(self, requested: str) -> str:
        """:func:`~repro.plan.methods.resolve_solve_method` of the union
        for any requested method but ``"auto-approx"``, which also reads
        the model."""
        found = self._methods.get(requested)
        if found is None:
            found = self._methods[requested] = resolve_solve_method(
                self.union, requested
            )
        return found

    def fingerprint(self, method: str, options: dict[str, Any]) -> str:
        """:func:`~repro.service.keys.request_fingerprint` of the union."""
        memo_key = (method, _options_key(options))
        found = self._fingerprints.get(memo_key)
        if found is None:
            found = self._fingerprints[memo_key] = request_fingerprint(
                self.labeling, self.union, method, options
            )
        return found

    def cost(self, model: Any, method: str, options: dict[str, Any]) -> float:
        """The DP state estimate of solving the union on ``model``, which
        reads only the model's item count and mixture size."""
        n_components = (
            len(model.components) if isinstance(model, MallowsMixture) else 1
        )
        memo_key = (method, _options_key(options), model.m, n_components)
        found = self._costs.get(memo_key)
        if found is None:
            found = self._costs[memo_key] = estimate_solve_states(
                model, self.labeling, self.union, method, options
            ).states
        return found

    @property
    def named(self) -> str:
        """:func:`~repro.service.keys.named_union_fingerprint` of the
        union."""
        if self._named is None:
            self._named = named_union_fingerprint(self.union)
        return self._named


class Grounding:
    """Per query, every grounded session; per union, its facts."""

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self._relations: list[tuple[str, Any]] = []
        self._queries: dict[ConjunctiveQuery, QueryGrounding] = {}
        self._facts: dict[int, UnionFacts] = {}

    def check(self, db: Any) -> None:
        """Start empty unless ``db``'s relations are the objects this
        grounding was filled from."""
        relations = [*db.orelations.items(), *db.prelations.items()]
        with self.lock:
            if len(relations) != len(self._relations) or any(
                name != known_name or relation is not known
                for (name, relation), (known_name, known) in zip(
                    relations, self._relations
                )
            ):
                self._queries.clear()
                self._facts.clear()
                self._relations = relations

    def query(self, query: ConjunctiveQuery, db: Any) -> QueryGrounding:
        """The query's grounding, analyzed on first use."""
        found = self._queries.get(query)
        if found is None:
            found = self._queries[query] = QueryGrounding(analyze(query, db))
        return found

    def compiled(
        self, union: PatternUnion, items: Any, db: Any
    ) -> UnionFacts:
        """The facts of a union compiled against ``db``'s items."""
        found = self._facts.get(id(union))
        if found is None:
            found = self._remember(
                UnionFacts(
                    union, labeling_for_patterns(union.patterns, items, db)
                )
            )
        return found

    def facts(self, node: Any) -> UnionFacts:
        """The facts of a solve node's union; a union no build of this
        grounding compiled (a hand-built node) is labeled by the node."""
        found = self._facts.get(id(node.union))
        if found is None:
            found = self._remember(UnionFacts(node.union, node.labeling))
        return found

    def _remember(self, facts: UnionFacts) -> UnionFacts:
        # The facts hold their union, so its id is not reused while the
        # entry lives.
        self._facts[id(facts.union)] = facts
        return facts

    def forget_session(self, relation: str, key: SessionKey) -> None:
        """Drop an expired session from every query over ``relation``."""
        with self.lock:
            for grounded in self._queries.values():
                if grounded.analysis.p_relation == relation:
                    grounded.sessions.pop(key, None)

    def forget_query(self, query: ConjunctiveQuery) -> None:
        """Drop a query's sessions and the facts of its unions."""
        with self.lock:
            grounded = self._queries.pop(query, None)
            if grounded is None:
                return
            for union in grounded.unions.values():
                facts = self._facts.pop(id(union), None)
                if facts is not None and facts._simplified is not None:
                    self._facts.pop(id(facts._simplified), None)

    def sessions(self) -> dict[ConjunctiveQuery, frozenset[SessionKey]]:
        """Per grounded query, the session keys it holds an entry for."""
        with self.lock:
            return {
                query: frozenset(grounded.sessions)
                for query, grounded in self._queries.items()
            }
