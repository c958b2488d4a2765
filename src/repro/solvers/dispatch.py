"""Solver dispatch: route a pattern union to the best applicable solver.

The paper's experiments show a strict efficiency order — two-label solver
< bipartite solver < general solver — with each specialized solver limited
to its pattern class.  ``solve(..., method="auto")`` applies that order.

Passing a :class:`~repro.service.cache.SolverCache` via ``cache=`` reuses
results across calls: requests are keyed canonically
(:func:`repro.service.keys.solve_cache_key`), so semantically identical
(model, labeling, union) triples — however constructed — solve once.
"""

from __future__ import annotations

from typing import Callable

from repro.patterns.labels import Labeling
from repro.service.cache import SolverCache
from repro.service.keys import solve_cache_key
from repro.solvers.base import SolverResult, as_union
from repro.solvers.bipartite import bipartite_probability
from repro.solvers.brute import brute_force_probability
from repro.solvers.general import general_probability
from repro.solvers.lifted import lifted_probability
from repro.solvers.two_label import two_label_probability

_SOLVERS: dict[str, Callable[..., SolverResult]] = {
    "two_label": two_label_probability,
    "bipartite": bipartite_probability,
    "general": general_probability,
    "lifted": lifted_probability,
    "brute": brute_force_probability,
}


def available_methods() -> tuple[str, ...]:
    """Names accepted by :func:`solve` (plus ``"auto"``)."""
    return tuple(_SOLVERS)


def solve(
    model,
    labeling: Labeling,
    union_or_pattern,
    method: str = "auto",
    cache: SolverCache | None = None,
    **solver_options,
) -> SolverResult:
    """Compute ``Pr(G | sigma, Pi, lambda)`` with the chosen exact solver.

    Parameters
    ----------
    method:
        One of ``"auto"``, ``"two_label"``, ``"bipartite"``, ``"general"``,
        ``"lifted"``, ``"brute"``.  ``"auto"`` picks the most specialized
        applicable solver (:func:`repro.plan.methods.classic_choice`).
    cache:
        An optional :class:`~repro.service.cache.SolverCache`; canonically
        identical requests return the cached :class:`SolverResult` without
        solving.
    solver_options:
        Forwarded to the solver (e.g. ``time_budget=...``,
        ``merge_gaps=False``).
    """
    union = as_union(union_or_pattern)
    if method == "auto":
        # Deferred: the plan package imports the solver stack at load time.
        from repro.plan.methods import classic_choice

        method = classic_choice(union)
    try:
        solver = _SOLVERS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; expected one of "
            f"{('auto',) + available_methods()}"
        ) from None
    if cache is None:
        return solver(model, labeling, union, **solver_options)
    key = solve_cache_key(model, labeling, union, method, solver_options)
    return cache.get_or_compute(
        key, lambda: solver(model, labeling, union, **solver_options)
    )


def exact_probability(
    model,
    labeling: Labeling,
    union_or_pattern,
    method: str = "auto",
    cache: SolverCache | None = None,
    **options,
) -> float:
    """Convenience wrapper returning just the probability."""
    return solve(
        model, labeling, union_or_pattern, method, cache=cache, **options
    ).probability
