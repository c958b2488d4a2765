"""Canonical cache keys for solver requests: one digest string per solve.

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

Each class therefore exposes a ``freeze()`` hook producing a canonical
form — :meth:`~repro.rim.model.RIM.freeze`,
:meth:`~repro.rim.mallows.Mallows.freeze`,
:meth:`~repro.rim.mixture.MallowsMixture.freeze`,
:meth:`~repro.patterns.labels.Labeling.freeze` (with label projection), and
:meth:`~repro.patterns.union.PatternUnion.freeze` (built on
:meth:`~repro.patterns.pattern.LabelPattern.canonical_form`).  This module
is the only code that turns forms into keys: a key is one ``str``, a
one-letter tag and BLAKE2b-128 digests of the forms (:func:`freeze_digest`),
and every cache tier stores that same string.  A session solve's key
(:func:`session_cache_key`) carries the model's digest and the request
fingerprint's; a top-k upper bound's (:func:`bound_cache_key`) digests the
solve key, the union's node names and ``n_edges``.

Keys are *sound*: equal keys imply equal solve results, except with
probability about 2^-128 per pair of distinct forms (a digest collision).
They are best-effort *complete*: some semantically identical requests may
still produce different keys (e.g. very symmetric patterns), which costs a
cache miss, never a wrong answer.  See DESIGN.md, "The service layer".
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping

from repro.patterns.labels import Labeling
from repro.patterns.union import PatternUnion

#: Instance attribute memoizing :func:`model_fingerprint`, as
#: :func:`repro.kernels.precompute.model_tables` caches its tables.
_DIGEST_ATTR = "_freeze_digest"


def _typed(value: Any) -> Any:
    """Recursively tag non-builtin leaves with their type.

    ``repr`` alone can collide across types (``np.int64(1)`` reprs as
    ``1`` on older NumPy), which would merge the keys of different
    requests — a wrong answer, not a miss.  Builtin scalars have injective
    reprs within and across their types; everything else is wrapped in its
    module-qualified type name (as :func:`repro.patterns.pattern
    .canonical_sort_key` does).  Distinct *same-type* values must not share
    a ``repr``.
    """
    if isinstance(value, tuple):
        return tuple(_typed(element) for element in value)
    if isinstance(value, frozenset):
        return (
            "frozenset{",
            tuple(sorted((_typed(element) for element in value), key=repr)),
            "}",
        )
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    return (
        "typed<", type(value).__module__, type(value).__qualname__,
        repr(value), ">",
    )


def freeze_digest(form: Any) -> str:
    """The hex BLAKE2b-128 digest of a form's type-tagged ``repr``: the
    same in every process, run and host (no salted ``hash()``)."""
    return hashlib.blake2b(
        repr(_typed(form)).encode(), digest_size=16
    ).hexdigest()


def model_fingerprint(model: Any) -> str | None:
    """The digest of ``model.freeze()``, memoized on the model object;
    ``None`` for a model with no ``freeze()`` hook, which gets no key.

    Models are immutable after construction (a RIM's insertion matrix is
    read-only) and a delta swaps the session's object.
    """
    digest: str | None = getattr(model, _DIGEST_ATTR, None)
    if digest is None and hasattr(model, "freeze"):
        digest = freeze_digest(model.freeze())
        setattr(model, _DIGEST_ATTR, digest)
    return digest


def request_fingerprint(
    labeling: Labeling,
    union: PatternUnion,
    method: str = "auto",
    solver_options: Mapping[str, Any] | None = None,
) -> str:
    """The digest of the model-independent part of a request key: the
    labeling projected onto the union's labels, the union's canonical
    form, the resolved method and the options.  It is the expensive half
    of a key, and the sessions of a query share their union and labeling,
    so callers memoize it per union and pass it to
    :func:`session_cache_key`."""
    if method == "auto":
        # Resolved so an auto request collides with its explicit twin.
        # Deferred: the plan package imports this module at load time.
        from repro.plan.methods import classic_choice

        method = classic_choice(union)
    options = sorted(
        (name, repr(value)) for name, value in (solver_options or {}).items()
    )
    return freeze_digest((
        labeling.freeze(union.all_labels), union.freeze(), method,
        tuple(options),
    ))


def session_cache_key(
    model: Any,
    labeling: Labeling,
    union: PatternUnion,
    method: str = "auto",
    solver_options: Mapping[str, Any] | None = None,
    fingerprint: str | None = None,
) -> str | None:
    """The key of one session solve (the model may be a mixture), or
    ``None`` when the model has no ``freeze()`` hook; the cached value is
    a ``(probability, solver_name)`` pair.

    Canonically equal requests share one entry *including its solver
    name*: a plain Mallows and a single-full-weight-component mixture of
    it collide (they are the same distribution), so a cache-served
    evaluation reports the solver of whichever request solved first
    (``two_label`` vs ``mixture[two_label]``).
    """
    model_digest = model_fingerprint(model)
    if model_digest is None:
        return None
    if fingerprint is None:
        fingerprint = request_fingerprint(labeling, union, method, solver_options)
    return "s" + model_digest + fingerprint


def named_union_fingerprint(union: PatternUnion) -> str:
    """The digest of the union's patterns with their node names, in
    union order: :meth:`PatternUnion.freeze` forgets both, but an upper
    bound breaks ease ties by node name
    (:func:`repro.solvers.upper_bound.upper_bound_union`), so a renamed
    copy of a union can keep another edge and give another bound."""
    return freeze_digest(tuple(pattern.named_form() for pattern in union.patterns))


def bound_cache_key(solve_key: str, named_union: str, n_edges: int) -> str:
    """The key of one session's top-k upper bound, whose cached value is
    a ``(bound, "upper_bound")`` pair: the digest of its ``solve_key``,
    its union's :func:`named_union_fingerprint` (the solve key alone
    cannot tell renamed unions apart) and ``n_edges``.  Through the solve
    key it carries the method and options too, which costs sharing only
    between requests that differ in method."""
    return "b" + freeze_digest((solve_key, named_union, n_edges))
