"""Conjunctive queries over RIM-PPDs (Sections 1 and 3 of the paper).

The pipeline:

1. :mod:`repro.query.ast` / :mod:`repro.query.parser` — query representation
   and a small Datalog-like text syntax;
2. :mod:`repro.query.classify` — sessionwise / itemwise / non-itemwise
   classification and the grounding set ``V+(Q)``;
3. :mod:`repro.query.ground` — Algorithm 2: rewrite a non-itemwise CQ as a
   union of itemwise CQs by instantiating ``V+(Q)`` over active domains;
4. :mod:`repro.query.compile` — itemwise CQ → label pattern + labeling;
5. :mod:`repro.query.engine` — the per-session primitives: session
   compilation, per-session inference, independent-session aggregation.

Evaluation is not here: every query kind (probability, ``count(Q)``,
``top(Q, k)``, attribute aggregates) is a typed request answered by
:func:`repro.api.answer` / :func:`repro.api.answer_many` through the plan
pipeline (:mod:`repro.plan`), which is built from these pieces.
"""

from repro.query.ast import (
    Comparison,
    ConjunctiveQuery,
    Constant,
    OAtom,
    PAtom,
    Variable,
    WILDCARD,
)
from repro.query.classify import QueryAnalysis, UnsupportedQueryError, analyze
from repro.query.engine import SessionEvaluation
from repro.query.ground import decompose_query
from repro.query.parser import QuerySyntaxError, parse_query

__all__ = [
    "QuerySyntaxError",
    "Variable",
    "Constant",
    "WILDCARD",
    "PAtom",
    "OAtom",
    "Comparison",
    "ConjunctiveQuery",
    "parse_query",
    "analyze",
    "QueryAnalysis",
    "UnsupportedQueryError",
    "decompose_query",
    "SessionEvaluation",
]
