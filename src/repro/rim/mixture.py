"""Mixtures of Mallows models.

The MovieLens and CrowdRank experiments of the paper attach *mixtures* of
Mallows models to preference-relation tuples (learned with the tool of
Stoyanovich et al.; here the mixtures are synthesized — see DESIGN.md).
Query evaluation over a mixture marginalizes over components:

    Pr(G | mixture) = sum_c w_c * Pr(G | component_c)

so the solvers only ever see plain RIM/Mallows models; the query engine
(:mod:`repro.query.engine`) performs the weighted combination.
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

import numpy as np

from repro.rankings.permutation import Ranking
from repro.rim.mallows import Mallows

Item = Hashable


class MallowsMixture:
    """A finite mixture of Mallows models over a shared item universe."""

    def __init__(self, components: Sequence[Mallows], weights: Sequence[float]):
        if len(components) != len(weights):
            raise ValueError("one weight per component required")
        if not components:
            raise ValueError("mixture needs at least one component")
        total = float(sum(weights))
        if total <= 0.0 or any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative with positive sum")
        universe = set(components[0].items)
        for component in components[1:]:
            if set(component.items) != universe:
                raise ValueError("all components must share the same item set")
        self._components = tuple(components)
        self._weights = tuple(float(w) / total for w in weights)

    @property
    def components(self) -> tuple[Mallows, ...]:
        return self._components

    @property
    def weights(self) -> tuple[float, ...]:
        """Normalized component weights."""
        return self._weights

    @property
    def items(self) -> tuple[Item, ...]:
        return self._components[0].items

    @property
    def m(self) -> int:
        return self._components[0].m

    def __len__(self) -> int:
        return len(self._components)

    def __repr__(self) -> str:
        return (
            f"MallowsMixture(k={len(self._components)}, m={self.m}, "
            f"weights={[round(w, 4) for w in self._weights]!r})"
        )

    def freeze(self) -> tuple:
        """Canonical cache-key form, invariant to component order.

        Components are frozen individually, duplicates are merged by
        summing their weights, zero-weight components are dropped, and the
        result is sorted — so mixtures that differ only in component
        bookkeeping collide in the cross-query solver cache
        (:mod:`repro.service.keys`, which memoizes its digest on the
        instance).  A mixture that reduces to a single full-weight
        component freezes as that component.
        """
        merged: dict[tuple, float] = {}
        for component, weight in zip(self._components, self._weights):
            if weight == 0.0:
                continue
            key = component.freeze()
            merged[key] = merged.get(key, 0.0) + weight
        entries = sorted(merged.items(), key=lambda kv: repr(kv[0]))
        if len(entries) == 1 and entries[0][1] == 1.0:
            return entries[0][0]
        return ("mixture", tuple(entries))

    # ------------------------------------------------------------------
    # Distribution interface
    # ------------------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> Ranking:
        """Draw a ranking: choose a component by weight, then sample it."""
        index = int(rng.choice(len(self._components), p=self._weights))
        return self._components[index].sample(rng)

    def probability(self, tau: Ranking) -> float:
        """Mixture density of a complete ranking."""
        return sum(
            w * c.probability(tau)
            for w, c in zip(self._weights, self._components)
        )

    def log_probability(self, tau: Ranking) -> float:
        p = self.probability(tau)
        return -math.inf if p == 0.0 else math.log(p)

    def marginalize(self, per_component_probabilities: Sequence[float]) -> float:
        """Combine per-component event probabilities into the mixture marginal.

        Used by the query engine: solvers compute ``Pr(G | component_c)``;
        this returns ``sum_c w_c * p_c``.
        """
        if len(per_component_probabilities) != len(self._components):
            raise ValueError("one probability per component required")
        return float(
            sum(w * p for w, p in zip(self._weights, per_component_probabilities))
        )
