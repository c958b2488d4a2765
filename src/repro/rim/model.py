"""The Repeated Insertion Model RIM(sigma, Pi) — Algorithm 1 of the paper.

RIM is a generative ranking model parameterized by a reference ranking
``sigma = <sigma_1, ..., sigma_m>`` and an insertion-probability function
``Pi`` where ``Pi(i, j)`` is the probability of inserting ``sigma_i`` at
position ``j`` of the partial ranking built from the first ``i - 1`` items.

The class supports sampling (Algorithm 1), the exact probability of any
complete ranking, and exhaustive support enumeration for brute-force
validation.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterator, Sequence

import numpy as np

from repro.kernels.density import rim_log_probability_many
from repro.kernels.precompute import model_tables
from repro.kernels.sampling import (
    categorical_step,
    rankings_from_positions,
    rim_sample_positions,
)
from repro.rankings.permutation import Ranking

Item = Hashable

#: Absolute slack allowed when validating that each Pi row is stochastic.
_ROW_SUM_TOLERANCE = 1e-9


class RIM:
    """A Repeated Insertion Model over ``m`` items.

    Parameters
    ----------
    sigma:
        The reference ranking, as a :class:`Ranking` or any item sequence.
    pi:
        Insertion probabilities.  ``pi[i - 1][j - 1]`` is the paper's
        ``Pi(i, j)`` — the probability of inserting the ``i``-th reference
        item at position ``j in 1..i``.  Row ``i - 1`` must therefore sum to
        one over its first ``i`` entries (entries beyond are ignored and
        should be zero).

    Notes
    -----
    The insertion probabilities are stored as a dense lower-triangular
    ``(m, m)`` float array.  The exact probability of a ranking ``tau``
    factorizes over the insertion trajectory, which is *unique* for a given
    ``tau``: the position of ``sigma_i`` among the first ``i`` reference
    items in ``tau`` is the insertion position ``j`` that produced it.
    """

    def __init__(self, sigma, pi, *, _validate: bool = True):
        self._sigma = sigma if isinstance(sigma, Ranking) else Ranking(sigma)
        m = len(self._sigma)
        pi_array = np.asarray(pi, dtype=float)
        if pi_array.shape != (m, m):
            raise ValueError(
                f"pi must have shape ({m}, {m}), got {pi_array.shape}"
            )
        # A read-only, data-owning input (e.g. the memoized Mallows
        # parameter matrix, shared across same-(m, phi) instances) is
        # aliased, not copied.  A read-only *view* is still copied: its
        # writable base could mutate pi after construction, breaking the
        # frozen-at-construction invariant the precompute caching rests on.
        owns_frozen_data = not pi_array.flags.writeable and pi_array.base is None
        matrix = pi_array if owns_frozen_data else pi_array.copy()
        if _validate:
            self._validate_matrix(matrix, m)
        self._pi = matrix
        if self._pi.flags.writeable:
            self._pi.setflags(write=False)

    @staticmethod
    def _validate_matrix(matrix: np.ndarray, m: int) -> None:
        """Whole-matrix stochasticity checks (no per-row Python loop)."""
        in_row = np.tril(np.ones((m, m), dtype=bool))
        if np.any(matrix[in_row] < -_ROW_SUM_TOLERANCE):
            row = int(np.where((matrix < -_ROW_SUM_TOLERANCE) & in_row)[0][0]) + 1
            raise ValueError(f"negative insertion probability in row {row}")
        row_sums = np.sum(matrix, axis=1, where=in_row)
        bad_sums = np.abs(row_sums - 1.0) > 1e-6
        if np.any(bad_sums):
            row = int(np.argmax(bad_sums)) + 1
            raise ValueError(
                f"row {row} of pi sums to {row_sums[row - 1]:.9f}, expected 1"
            )
        beyond = (np.abs(matrix) > _ROW_SUM_TOLERANCE) & ~in_row
        if np.any(beyond):
            row = int(np.where(beyond)[0][0]) + 1
            raise ValueError(
                f"row {row} of pi has mass beyond position {row}"
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def sigma(self) -> Ranking:
        """The reference ranking."""
        return self._sigma

    @property
    def m(self) -> int:
        """Number of items."""
        return len(self._sigma)

    @property
    def items(self) -> tuple[Item, ...]:
        """The item universe, in reference order."""
        return self._sigma.items

    def insertion_probability(self, i: int, j: int) -> float:
        """The paper's ``Pi(i, j)``; ``i`` and ``j`` are 1-based, ``j <= i``."""
        if not 1 <= j <= i <= self.m:
            raise IndexError(f"require 1 <= j <= i <= m; got i={i}, j={j}")
        return float(self._pi[i - 1, j - 1])

    @property
    def pi(self) -> np.ndarray:
        """The full (read-only) insertion matrix."""
        return self._pi

    def __repr__(self) -> str:
        return f"RIM(m={self.m}, sigma={list(self._sigma.items)!r})"

    def freeze(self) -> tuple:
        """A canonical form of the model for cross-query caching.

        Two RIM instances freeze identically exactly when they share the
        reference ranking and the insertion matrix — i.e. they are the same
        distribution by construction (``sigma`` order is a parameter, not
        an artifact, so it is *not* normalized away).  Its digest is
        memoized on the instance (:mod:`repro.service.keys`), which the
        read-only matrix keeps valid.
        """
        return ("rim", self._sigma.items, self._pi.tobytes())

    # ------------------------------------------------------------------
    # Generative semantics
    # ------------------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> Ranking:
        """Draw one ranking via Algorithm 1 (repeated insertion).

        This is the scalar reference implementation of the batched kernel
        (:func:`repro.kernels.sampling.rim_sample_positions`): each step
        consumes exactly one uniform and maps it through the same
        inverse-CDF arithmetic, so a fixed seed yields identical draws on
        both paths.
        """
        tables = model_tables(self)
        order: list[Item] = []
        for i, item in enumerate(self._sigma, start=1):
            u = np.array([rng.random()])
            j = int(categorical_step(tables.cumulative[i - 1], i, u)[0])
            order.insert(j - 1, item)
        return Ranking(order)

    def sample_many(
        self, n: int, rng: np.random.Generator, *, vectorized: bool = True
    ) -> list[Ranking]:
        """Draw ``n`` independent rankings.

        ``vectorized=True`` (the default) draws the whole batch through the
        kernel layer; ``vectorized=False`` is the scalar reference loop.
        Both produce identical rankings for a fixed seed.
        """
        if not vectorized:
            return [self.sample(rng) for _ in range(n)]
        return rankings_from_positions(self, self.sample_positions(n, rng))

    def sample_positions(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` rankings as an ``(n, m)`` position matrix.

        ``result[s, k]`` is the 1-based rank of ``sigma_{k+1}`` in sample
        ``s`` — the native representation of the batched estimators (see
        :mod:`repro.kernels.sampling`).
        """
        return rim_sample_positions(self, n, rng)

    def insertion_positions(self, tau: Ranking) -> list[int]:
        """Recover the unique insertion trajectory producing ``tau``.

        Returns ``[j_1, ..., j_m]`` where ``j_i`` is the position at which
        ``sigma_i`` was inserted.  ``j_i`` equals the rank of ``sigma_i``
        within ``tau`` restricted to the first ``i`` reference items.
        """
        if set(tau.items) != set(self._sigma.items):
            raise ValueError("ranking is over a different item set")
        positions: list[int] = []
        # tau-ranks of the reference items, in reference order.
        tau_ranks = [tau.rank_of(item) for item in self._sigma]
        for i in range(1, len(tau_ranks) + 1):
            rank_i = tau_ranks[i - 1]
            j = 1 + sum(1 for r in tau_ranks[: i - 1] if r < rank_i)
            positions.append(j)
        return positions

    def log_probability(self, tau: Ranking) -> float:
        """Exact log-probability of ``tau`` under this model."""
        log_p = 0.0
        for i, j in enumerate(self.insertion_positions(tau), start=1):
            p = self._pi[i - 1, j - 1]
            if p <= 0.0:
                return -math.inf
            log_p += math.log(p)
        return log_p

    def probability(self, tau: Ranking) -> float:
        """Exact probability of ``tau`` under this model."""
        prob = 1.0
        for i, j in enumerate(self.insertion_positions(tau), start=1):
            prob *= self._pi[i - 1, j - 1]
            if prob == 0.0:
                return 0.0
        return prob

    def log_probability_many(self, positions: np.ndarray) -> np.ndarray:
        """Batched exact log-probabilities of an ``(n, m)`` position matrix.

        The array analogue of :meth:`log_probability`; see
        :mod:`repro.kernels.density`.
        """
        return rim_log_probability_many(self, positions)

    # ------------------------------------------------------------------
    # Exhaustive enumeration (for validation)
    # ------------------------------------------------------------------

    def enumerate_support(
        self, max_items: int = 9
    ) -> Iterator[tuple[Ranking, float]]:
        """Yield every ranking with its probability.

        Enumerates the insertion tree rather than recomputing trajectories,
        so the total cost is O(m!) products.  Guarded by ``max_items``
        because the support has ``m!`` elements.
        """
        if self.m > max_items:
            raise ValueError(
                f"refusing to enumerate {self.m}! rankings; "
                "raise max_items explicitly if intended"
            )

        def expand(
            prefix: tuple[Item, ...], i: int, prob: float
        ) -> Iterator[tuple[Ranking, float]]:
            if i > self.m:
                yield Ranking(prefix), prob
                return
            item = self._sigma.item_at(i)
            for j in range(1, i + 1):
                p = self._pi[i - 1, j - 1]
                if p == 0.0:
                    continue
                inserted = prefix[: j - 1] + (item,) + prefix[j - 1 :]
                yield from expand(inserted, i + 1, prob * p)

        yield from expand((), 1, 1.0)

    @classmethod
    def uniform(cls, items: Sequence[Item]) -> "RIM":
        """RIM giving the uniform distribution over all rankings of ``items``."""
        m = len(items)
        pi = np.zeros((m, m))
        for i in range(1, m + 1):
            pi[i - 1, :i] = 1.0 / i
        return cls(Ranking(items), pi)
