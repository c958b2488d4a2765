"""Solver dispatch: route a pattern union to the best applicable solver.

The paper's experiments show a strict efficiency order — two-label solver
< bipartite solver < general solver — with each specialized solver limited
to its pattern class.  ``solve(..., method="auto")`` applies that order.

Dispatch solves one request and reuses nothing: reuse across sessions,
queries and batches happens one level up, in the plan executor
(:mod:`repro.plan.execute`).
"""

from __future__ import annotations

from typing import Callable

from repro.patterns.labels import Labeling
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
    **solver_options,
) -> SolverResult:
    """Compute ``Pr(G | sigma, Pi, lambda)`` with the chosen exact solver.

    Parameters
    ----------
    method:
        One of ``"auto"``, ``"two_label"``, ``"bipartite"``, ``"general"``,
        ``"lifted"``, ``"brute"``.  ``"auto"`` picks the most specialized
        applicable solver (:func:`repro.plan.methods.classic_choice`).
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
    return solver(model, labeling, union, **solver_options)


def exact_probability(
    model,
    labeling: Labeling,
    union_or_pattern,
    method: str = "auto",
    **options,
) -> float:
    """Convenience wrapper returning just the probability."""
    return solve(model, labeling, union_or_pattern, method, **options).probability
