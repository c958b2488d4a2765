"""The query engine: per-session inference and aggregation.

Evaluation of a Boolean CQ ``Q`` over a RIM-PPD ``D`` (Section 3.1):

1. analyze and validate the query (sessionwise check);
2. select the sessions matching the session terms / comparisons;
3. per session: substitute session-bound attribute variables (from o-atoms
   joined on the session, e.g. voter demographics), ground ``V+(Q)``
   (Algorithm 2), and compile the resulting union of itemwise CQs into a
   union of label patterns;
4. compute ``Pr(Q | s)`` per session — exactly (dispatching to the
   two-label / bipartite / general solver) or approximately (MIS-AMP
   solvers); mixtures of Mallows marginalize over components;
5. aggregate across independent sessions:
   ``Pr(Q | D) = 1 - prod_i (1 - Pr(Q | s_i))``.

Identical-request grouping (Section 6.4): many sessions share the same
(model, pattern-union) pair, and each distinct pair is solved once.

Evaluation itself runs as an explicit query plan (:mod:`repro.plan`, driven
by :func:`repro.api.answer`): build the plan DAG, run the optimizer passes
(which perform the grouping above and its cross-query generalization over
canonical cache keys), execute the surviving solve frontier.  This module
holds the per-session primitives that plan is made of —
:func:`compile_session_work` (whose :class:`QueryGrounding` a plan's
:class:`~repro.plan.grounding.Grounding` keeps across builds),
:func:`solve_session`, and :func:`aggregate_sessions`.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Any, Hashable

import numpy as np

from repro.approx.adaptive import mis_amp_adaptive
from repro.approx.lite import mis_amp_lite
from repro.db.database import PPDatabase, _compare
from repro.patterns.labels import Labeling
from repro.patterns.matching import union_predicate
from repro.patterns.union import PatternUnion
from repro.query.ast import ConjunctiveQuery, is_constant, is_variable
from repro.query.classify import QueryAnalysis, analyze
from repro.query.compile import compile_itemwise
from repro.query.ground import decompose_query
from repro.rim.mixture import MallowsMixture
from repro.rim.sampling import empirical_probability
from repro.solvers.dispatch import _SOLVERS
from repro.solvers.dispatch import solve as exact_solve

SessionKey = tuple[Hashable, ...]


@dataclass
class SessionWork:
    """Everything needed to evaluate one session: model + compiled union."""

    key: SessionKey
    model: Any
    union: PatternUnion | None  # None: the query is false on this session
    labels: frozenset = frozenset()


@dataclass
class SessionEvaluation:
    """Per-session outcome."""

    key: SessionKey
    probability: float
    solver: str = ""


# ----------------------------------------------------------------------
# Compilation of per-session work
# ----------------------------------------------------------------------


#: Grounding markers: a session the query does not select (its key fails
#: the session terms), and one not grounded yet.
_NOT_SELECTED = object()
_UNSEEN = object()


@dataclass
class QueryGrounding:
    """What grounding one query found, kept for as long as its owner keeps
    it (one :func:`compile_session_work` call, or a
    :class:`~repro.plan.grounding.Grounding` across plan builds).

    None of it reads a session's model: selection reads the session key,
    and the union reads the O-relations through the session atoms.
    """

    analysis: QueryAnalysis
    #: session key -> its compiled union, None where the query is false
    #: on the session, or a marker where the query does not select it
    sessions: dict[SessionKey, Any] = field(default_factory=dict)
    #: binding signature -> its compiled union (None: the query is false)
    unions: dict[frozenset, PatternUnion | None] = field(default_factory=dict)


def compile_session_work(
    query: ConjunctiveQuery,
    db: PPDatabase,
    analysis: QueryAnalysis | None = None,
    session_limit: int | None = None,
    grounded: QueryGrounding | None = None,
) -> list[SessionWork]:
    """Select sessions and compile the pattern union of each.

    Each session is grounded once per ``grounded`` (a fresh one by
    default), and sessions with equal bindings share one union object;
    the models are read from the p-relation on every call.
    """
    if grounded is None:
        grounded = QueryGrounding(
            analysis if analysis is not None else analyze(query, db)
        )
    analysis = grounded.analysis
    prelation = db.prelation(analysis.p_relation)
    works: list[SessionWork] = []
    for key in prelation.session_keys():
        if session_limit is not None and len(works) >= session_limit:
            break
        union = grounded.sessions.get(key, _UNSEEN)
        if union is _UNSEEN:
            union = grounded.sessions[key] = _ground_session(
                analysis, db, key, grounded.unions
            )
        if union is _NOT_SELECTED:
            continue
        works.append(
            SessionWork(key=key, model=prelation.model_of(key), union=union)
        )
    return works


def _ground_session(
    analysis: QueryAnalysis,
    db: PPDatabase,
    key: SessionKey,
    unions: dict[frozenset, PatternUnion | None],
) -> Any:
    """One session's compiled union (None: the query is false on it), or
    ``_NOT_SELECTED``; ``unions`` shares a union by binding signature."""
    binding = _bind_session_terms(analysis, key)
    if binding is None:
        return _NOT_SELECTED
    bindings = _session_atom_bindings(analysis, db, binding)
    # One signature per assignment: a failed join ([], the query is false
    # here) must not collide with a successful binding-free join ([{}]),
    # and the disjunct structure matters ([{x:1}, {y:2}] is a different
    # query than [{x:1, y:2}]).
    signature = frozenset(
        tuple(
            sorted((variable.name, value) for variable, value in assignment.items())
        )
        for assignment in bindings
    )
    if signature not in unions:
        unions[signature] = _compile_union(analysis, db, bindings)
    return unions[signature]


def _bind_session_terms(
    analysis: QueryAnalysis, key: SessionKey
) -> dict | None:
    """Match a session key against the session terms; None on mismatch."""
    binding: dict = {}
    for term, value in zip(analysis.session_terms, key):
        if is_constant(term):
            if term.value != value:
                return None
        elif is_variable(term):
            if term in binding and binding[term] != value:
                return None
            binding[term] = value
    for variable, value in binding.items():
        for comparison in analysis.comparisons.get(variable, []):
            if not _compare(value, comparison.op, comparison.value):
                return None
    return binding


def _session_atom_bindings(
    analysis: QueryAnalysis, db: PPDatabase, session_binding: dict
) -> list[dict]:
    """Join the session atoms: assignments of session-bound variables.

    Multiple matching rows produce multiple assignments (each a disjunct of
    the per-session query); no matching rows produce the empty list — the
    query is false on this session.
    """
    bindings: list[dict] = [{}]
    for atom in analysis.session_atoms:
        session_variable = atom.terms[0]
        value = session_binding.get(session_variable)
        if value is None:
            return []  # session variable not bound by the key: cannot join
        relation = db.orelation(atom.relation)
        row_assignments: list[dict] = []
        for row in relation.rows_where({0: value}):
            assignment: dict = {}
            consistent = True
            for position, term in enumerate(atom.terms):
                if position == 0:
                    continue
                if is_variable(term) and term == session_variable:
                    # A session variable recurring at a later column still
                    # constrains the row: V(v, _, v) only joins rows whose
                    # third column repeats the session value.
                    if row[position] != value:
                        consistent = False
                        break
                    continue
                if is_constant(term):
                    if row[position] != term.value:
                        consistent = False
                        break
                elif is_variable(term):
                    if term in assignment and assignment[term] != row[position]:
                        consistent = False
                        break
                    assignment[term] = row[position]
            if not consistent:
                continue
            if not _assignment_passes_comparisons(analysis, assignment):
                continue
            row_assignments.append(assignment)
        merged: list[dict] = []
        for base in bindings:
            for extra in row_assignments:
                if all(base.get(k, v) == v for k, v in extra.items()):
                    merged.append({**base, **extra})
        bindings = merged
        if not bindings:
            return []
    # Deduplicate assignments (different rows may bind identical values).
    unique: list[dict] = []
    seen: set[tuple] = set()
    for assignment in bindings:
        signature = tuple(sorted((v.name, val) for v, val in assignment.items()))
        if signature not in seen:
            seen.add(signature)
            unique.append(assignment)
    return unique


def _assignment_passes_comparisons(
    analysis: QueryAnalysis, assignment: dict
) -> bool:
    for variable, value in assignment.items():
        for comparison in analysis.comparisons.get(variable, []):
            if not _compare(value, comparison.op, comparison.value):
                return False
    return True


def _compile_union(
    analysis: QueryAnalysis, db: PPDatabase, bindings: list[dict]
) -> PatternUnion | None:
    """Union of patterns across session-atom bindings and V+ groundings."""
    patterns = []
    for assignment in bindings:
        bound_query = analysis.query.substitute(
            {variable: value for variable, value in assignment.items()}
        )
        bound_analysis = analyze(bound_query, db)
        for _, grounded in decompose_query(bound_query, db, bound_analysis):
            pattern = compile_itemwise(grounded, db)
            if pattern is not None:
                patterns.append(pattern)
    if not patterns:
        return None
    return PatternUnion(patterns)


# ----------------------------------------------------------------------
# Solving
# ----------------------------------------------------------------------


@functools.cache
def solver_option_names(method: str | None = None) -> frozenset[str]:
    """The keywords a solver option may name for ``method``: the
    parameters of its exact solver or of the estimator
    :func:`_solve_single_model` forwards options to, less the inputs a
    solve itself supplies.  ``None`` (or a name no solver has) takes the
    union over every method."""
    functions = {
        **_SOLVERS,
        "mis_amp_lite": mis_amp_lite,
        "mis_amp_adaptive": mis_amp_adaptive,
        "rejection": empirical_probability,
    }
    chosen = (
        (functions[method],) if method in functions else functions.values()
    )
    names = {
        name
        for function in chosen
        for name in inspect.signature(function).parameters
    }
    inputs = {"model", "labeling", "union_or_pattern", "predicate", "rng"}
    return frozenset(names - inputs)


def _solve_single_model(
    model,
    labeling: Labeling,
    union: PatternUnion,
    method: str,
    rng: np.random.Generator | None,
    options: dict,
) -> tuple[float, str]:
    # Deferred: the plan package imports this module at load time.
    from repro.plan.methods import APPROXIMATE_METHODS

    if method in APPROXIMATE_METHODS and rng is None:
        raise ValueError(f"method {method!r} requires an rng")
    if method == "mis_amp_lite":
        result = mis_amp_lite(model, labeling, union, rng=rng, **options)
        return result.probability, result.solver
    if method == "mis_amp_adaptive":
        result = mis_amp_adaptive(model, labeling, union, rng=rng, **options)
        return result.probability, result.solver
    if method == "rejection":
        n_samples = options.get("n_samples", 2000)
        # union_predicate carries a batched `.many` path, so the estimate
        # runs through the vectorized kernels unless explicitly disabled
        # via the `vectorized=False` solver option.
        estimate = empirical_probability(
            model,
            union_predicate(union, labeling),
            n_samples,
            rng,
            vectorized=options.get("vectorized"),
        )
        return estimate.estimate, "rejection"
    result = exact_solve(model, labeling, union, method=method, **options)
    return result.probability, result.solver


def solve_session(
    model,
    labeling: Labeling,
    union: PatternUnion,
    method: str = "auto",
    rng: np.random.Generator | None = None,
    **options,
) -> tuple[float, str]:
    """``Pr(G)`` for one session model (marginalizing Mallows mixtures).

    The reported solver name is the one that actually ran: ``"auto"`` is
    resolved through the dispatch, and a mixture reports the per-component
    solver (``mixture[two_label]``, never ``mixture[auto]``).
    """
    if isinstance(model, MallowsMixture):
        probabilities = []
        component_solvers = []
        for component in model.components:
            probability, solver_name = _solve_single_model(
                component, labeling, union, method, rng, options
            )
            probabilities.append(probability)
            component_solvers.append(solver_name)
        names = sorted(set(component_solvers))
        return (
            model.marginalize(probabilities),
            f"mixture[{'+'.join(names)}]",
        )
    return _solve_single_model(model, labeling, union, method, rng, options)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def aggregate_sessions(per_session: list[SessionEvaluation]) -> float:
    """``Pr(Q | D) = 1 - prod_i (1 - Pr(Q | s_i))`` with per-session clamping.

    The value of every ``probability`` answer (:func:`repro.api.answer`),
    single-request and batched alike.
    """
    complement = 1.0
    for evaluation in per_session:
        complement *= 1.0 - min(1.0, max(0.0, evaluation.probability))
    return 1.0 - complement

