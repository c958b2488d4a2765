"""Canonical cache keys for solver requests.

A solve is determined by the triple ``(model, labeling, pattern union)``
(plus the solver method and its options), but many syntactically different
triples are semantically the same request:

* the same Mallows parameters wrapped in distinct objects (every query
  evaluation re-reads the model from the p-relation);
* pattern unions whose node names differ because they came from different
  query variables, or whose patterns are listed in a different order;
* labelings that agree on the union's labels but differ on labels no
  pattern mentions;
* mixtures whose components are permuted or split.

Each class therefore exposes a ``freeze()`` hook producing a hashable
canonical form — :meth:`~repro.rim.model.RIM.freeze`,
:meth:`~repro.rim.mallows.Mallows.freeze`,
:meth:`~repro.rim.mixture.MallowsMixture.freeze`,
:meth:`~repro.patterns.labels.Labeling.freeze` (with label projection), and
:meth:`~repro.patterns.union.PatternUnion.freeze` (built on
:meth:`~repro.patterns.pattern.LabelPattern.canonical_form`).  This module
composes them into full request keys.  Keys are *sound*: equal keys imply
equal solve results.  They are best-effort *complete*: some semantically
identical requests may still produce different keys (e.g. pathological
``repr`` collisions or very symmetric patterns), which costs a cache miss,
never a wrong answer.  See DESIGN.md, "The service layer".
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.patterns.labels import Labeling
from repro.patterns.pattern import LabelPattern
from repro.patterns.union import PatternUnion


def freeze_model(model) -> tuple:
    """The model's canonical form via its ``freeze()`` hook."""
    freeze = getattr(model, "freeze", None)
    if freeze is None:
        raise TypeError(
            f"{type(model).__name__} has no freeze() hook; models must be "
            "cacheable (RIM, Mallows, MallowsMixture) to use the solver cache"
        )
    return freeze()


def _as_union(union_or_pattern) -> PatternUnion:
    # Mirrors repro.solvers.base.as_union without importing repro.solvers
    # (the solver dispatch imports this module at load time).
    if isinstance(union_or_pattern, PatternUnion):
        return union_or_pattern
    if isinstance(union_or_pattern, LabelPattern):
        return PatternUnion([union_or_pattern])
    raise TypeError(
        f"expected LabelPattern or PatternUnion, got {type(union_or_pattern).__name__}"
    )


def _freeze_options(solver_options: Mapping[str, Any] | None) -> tuple:
    """Options as a sorted, hashable tuple (``repr`` handles unhashable values)."""
    if not solver_options:
        return ()
    return tuple(sorted((name, repr(value)) for name, value in solver_options.items()))


def request_fingerprint(
    labeling: Labeling,
    union_or_pattern,
    method: str = "auto",
    solver_options: Mapping[str, Any] | None = None,
) -> tuple:
    """The model-independent part of a request key.

    Canonicalizing the union and the projected labeling is the expensive
    half of key construction, and every session of a query shares the same
    union/labeling objects — callers memoize this fingerprint per union and
    pass it back via the ``fingerprint`` parameter of the key functions.
    """
    union = _as_union(union_or_pattern)
    if method == "auto":
        # Resolved so an auto request collides with its explicit twin.
        # Deferred: the plan package imports this module at load time.
        from repro.plan.methods import classic_choice

        method = classic_choice(union)
    return (
        labeling.freeze(union.all_labels),
        union.freeze(),
        method,
        _freeze_options(solver_options),
    )


def solve_cache_key(
    model,
    labeling: Labeling,
    union_or_pattern,
    method: str = "auto",
    solver_options: Mapping[str, Any] | None = None,
    fingerprint: tuple | None = None,
) -> tuple:
    """The key of one dispatch-level exact solve (a plain RIM/Mallows model).

    Used by :func:`repro.solvers.dispatch.solve` when handed a cache; the
    cached value is the :class:`~repro.solvers.base.SolverResult`.
    """
    if fingerprint is None:
        fingerprint = request_fingerprint(
            labeling, union_or_pattern, method, solver_options
        )
    return ("solve", freeze_model(model)) + fingerprint


def session_cache_key(
    model,
    labeling: Labeling,
    union_or_pattern,
    method: str = "auto",
    solver_options: Mapping[str, Any] | None = None,
    fingerprint: tuple | None = None,
) -> tuple:
    """The key of one engine-level session solve (the model may be a mixture).

    Used by the plan optimizer's common-solve elimination
    (:mod:`repro.plan.passes`) for every cached answer; the cached value is a
    ``(probability, solver_name)`` pair.  The tag keeps these entries
    disjoint from dispatch-level entries, whose values have a different
    type.

    Canonically equal requests share one entry *including its solver
    name*: a plain Mallows and a single-full-weight-component mixture of
    it collide (by design — they are the same distribution), so a
    cache-served evaluation reports the solver of whichever request
    actually solved first (``two_label`` vs ``mixture[two_label]``).  The
    probability is identical either way; the name describes the solve
    that really ran.
    """
    if fingerprint is None:
        fingerprint = request_fingerprint(
            labeling, union_or_pattern, method, solver_options
        )
    return ("session", freeze_model(model)) + fingerprint
