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
composes them into full request keys: a session solve's
(:func:`session_cache_key`) and a top-k upper bound's
(:func:`bound_cache_key`), which keeps the union's node names.  Keys are
*sound*: equal keys imply equal solve results.  They are best-effort
*complete*: some semantically identical requests may still produce
different keys (e.g. pathological ``repr`` collisions or very symmetric
patterns), which costs a cache miss, never a wrong answer.  See
DESIGN.md, "The service layer".
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.patterns.labels import Labeling
from repro.patterns.union import PatternUnion
from repro.solvers.base import as_union


def freeze_model(model) -> tuple:
    """The model's canonical form via its ``freeze()`` hook."""
    freeze = getattr(model, "freeze", None)
    if freeze is None:
        raise TypeError(
            f"{type(model).__name__} has no freeze() hook; models must be "
            "cacheable (RIM, Mallows, MallowsMixture) to use the solver cache"
        )
    return freeze()


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
    union = as_union(union_or_pattern)
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


def session_cache_key(
    model,
    labeling: Labeling,
    union_or_pattern,
    method: str = "auto",
    solver_options: Mapping[str, Any] | None = None,
    fingerprint: tuple | None = None,
) -> tuple:
    """The key of one session solve (the model may be a mixture).

    Used by the plan optimizer's common-solve elimination
    (:mod:`repro.plan.passes`) for every cached answer; the cached value is a
    ``(probability, solver_name)`` pair.  The leading ``"session"`` tag is
    part of the stored format: the disk and shard files written under it
    stay readable.

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


def named_union_form(union: PatternUnion) -> tuple:
    """The union's patterns with their node names, in union order.

    :meth:`PatternUnion.freeze` forgets names and order, which is sound
    for a solve but not for an upper bound: its edge selection breaks ease
    ties by node name (:func:`repro.solvers.upper_bound.upper_bound_union`),
    so a renamed copy of a union can keep another edge and give another
    bound.
    """
    return (
        "named_union",
        tuple(pattern.named_form() for pattern in union.patterns),
    )


def bound_cache_key(
    solve_key: tuple, named_union: tuple, n_edges: int
) -> tuple:
    """The key of one session's top-k upper bound.

    Four parts: the model's ``freeze()`` and the labeling projected onto
    the union's labels, both taken from the session's ``solve_key``
    (:func:`session_cache_key`); the union with its node names
    (:func:`named_union_form`); and ``n_edges``.  The cached value is a
    ``(bound, "upper_bound")`` pair.  The solve key plus
    ``n_edges`` would not be sound: it cannot tell renamed unions apart.
    """
    _, model_form, labeling_form = solve_key[:3]
    return ("upper_bound", model_form, labeling_form, named_union, n_edges)
