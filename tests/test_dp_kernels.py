"""The array-compiled DP engines against the scalar reference (DESIGN.md 12).

Three layers of coverage:

* unit tests of the shared kernels — ``scalar_gap_segments``,
  ``sequential_sum``, ``merge_states`` — whose ordering contracts
  (first-occurrence dedup, left-to-right folds) carry the bit-identity
  guarantee;
* a hypothesis property suite generating random small instances (m <= 10,
  mixed serving / non-serving items, a phi grid including the 0 and 1
  edge weights) asserting, for all three solvers under every option
  combination (``merge_gaps``, pruned / basic, ``prune_dead``, the gcode
  fallback), that the scalar reference, the engine from step 1 (handoff
  constant pinned to 0), a scalar-to-engine handoff at each later step,
  and the adaptive default agree bit for bit on the probability and on
  every state-count stat;
* regression tests for the per-chunk time-budget checks (an oversized
  instance must time out within ~2x the budget, not per-generation).
"""

import time
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datasets.benchmarks import benchmark_a, benchmark_c, benchmark_d
from repro.kernels import dp
from repro.kernels.dp import merge_states, scalar_gap_segments, sequential_sum
from repro.patterns.labels import Labeling
from repro.patterns.pattern import LabelPattern, PatternNode
from repro.patterns.union import PatternUnion
from repro.rim.mallows import Mallows
from repro.solvers import bipartite, lifted, two_label
from repro.solvers.base import SolverTimeout
from repro.solvers.bipartite import bipartite_probability
from repro.solvers.lifted import lifted_probability
from repro.solvers.two_label import two_label_probability

LABELS = ("A", "B", "C")

#: Includes the degenerate weights: phi=0 puts all insertion mass on the
#: last slot (exercising the zero-weight skips), phi=1 is uniform.
PHI_GRID = (0.0, 0.1, 0.5, 1.0)


# ---------------------------------------------------------------------------
# Shared scalar kernels
# ---------------------------------------------------------------------------


def test_scalar_gap_segments_matches_prefix_differences():
    prefix = np.array([0.0, 0.1, 0.4, 0.4, 0.8, 1.0])
    # Boundaries 0 < 2 < 5: gaps (0, 2] and (2, 5].
    segments = list(scalar_gap_segments([0, 2, 5], prefix))
    assert segments == [(2, pytest.approx(0.4)), (5, pytest.approx(0.6))]


def test_scalar_gap_segments_skips_empty_and_zero_weight_gaps():
    prefix = np.array([0.0, 0.5, 0.5, 1.0])
    # Duplicate boundary (empty gap) and a zero-mass gap (2, 2] are skipped.
    segments = list(scalar_gap_segments([0, 1, 1, 2, 3], prefix))
    assert [high for high, _ in segments] == [1, 3]


def test_sequential_sum_folds_left_to_right():
    values = [1e16, 1.0, -1e16, 1.0]
    assert sequential_sum(values) == (((1e16 + 1.0) - 1e16) + 1.0)
    assert sequential_sum([], 0.25) == 0.25


def test_merge_states_first_occurrence_order_and_fold():
    keys = np.array([[3, 1], [0, 2], [3, 1], [0, 2], [5, 5]])
    masses = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    unique, probs = merge_states(keys, masses)
    assert unique.tolist() == [[3, 1], [0, 2], [5, 5]]
    assert probs.tolist() == [0.1 + 0.3, 0.2 + 0.4, 0.5]
    # A group whose left-to-right fold differs from a pairwise sum: the
    # fold reads 1.0, a pairwise (or reordered) sum reads 0.0.
    cancelling = [1e16, 1.0, -1e16, 1.0]
    keys = np.array([[7, 7], [3, 1], [7, 7], [7, 7], [3, 1], [7, 7]])
    masses = np.array([cancelling[0], 0.1, *cancelling[1:3], 0.3, cancelling[3]])
    unique, probs = merge_states(keys, masses)
    assert unique.tolist() == [[7, 7], [3, 1]]
    assert probs.tolist() == [sequential_sum(cancelling), 0.1 + 0.3]
    assert sequential_sum(cancelling) == 1.0


def test_merge_states_zero_width_collapses_to_one_state():
    unique, probs = merge_states(np.zeros((4, 0), np.int64), np.ones(4) / 4)
    assert unique.shape == (1, 0)
    assert probs.tolist() == [1.0]


# ---------------------------------------------------------------------------
# Property suite: vectorized == scalar
# ---------------------------------------------------------------------------


@st.composite
def two_label_instances(draw, max_m: int = 10):
    """Random two-label-union instance with serving and non-serving items."""
    m = draw(st.integers(4, max_m))
    phi = draw(st.sampled_from(PHI_GRID))
    model = Mallows(list(range(m)), phi)
    # Empty label sets make items non-serving (gap-merge path).
    labeling = Labeling(
        {
            item: draw(st.sets(st.sampled_from(LABELS), max_size=2))
            for item in range(m)
        }
    )
    patterns = []
    for p in range(draw(st.integers(1, 3))):
        left = PatternNode(
            f"l{p}",
            frozenset(
                draw(st.sets(st.sampled_from(LABELS), min_size=1, max_size=2))
            ),
        )
        right = PatternNode(
            f"r{p}",
            frozenset(
                draw(st.sets(st.sampled_from(LABELS), min_size=1, max_size=2))
            ),
        )
        patterns.append(LabelPattern([(left, right)], nodes=[left, right]))
    return model, labeling, PatternUnion(patterns)


@st.composite
def bipartite_instances(draw, max_m: int = 10):
    """Random bipartite-union instance (complete L -> R edge sets)."""
    m = draw(st.integers(4, max_m))
    phi = draw(st.sampled_from(PHI_GRID))
    model = Mallows(list(range(m)), phi)
    labeling = Labeling(
        {
            item: draw(st.sets(st.sampled_from(LABELS), max_size=2))
            for item in range(m)
        }
    )
    patterns = []
    for p in range(draw(st.integers(1, 2))):
        lefts = [
            PatternNode(
                f"l{p}_{k}",
                frozenset(
                    draw(
                        st.sets(
                            st.sampled_from(LABELS), min_size=1, max_size=2
                        )
                    )
                ),
            )
            for k in range(draw(st.integers(1, 2)))
        ]
        rights = [
            PatternNode(
                f"r{p}_{k}",
                frozenset(
                    draw(
                        st.sets(
                            st.sampled_from(LABELS), min_size=1, max_size=2
                        )
                    )
                ),
            )
            for k in range(draw(st.integers(1, 2)))
        ]
        edges = [(u, v) for u in lefts for v in rights]
        patterns.append(LabelPattern(edges, nodes=lefts + rights))
    return model, labeling, PatternUnion(patterns)


_LONG_PROFILE = settings.get_profile("long")

#: 30 examples per property in tier-1; the ``long`` profile registered in
#: ``tests/conftest.py`` (CI's ``--hypothesis-profile=long`` step) sets its
#: own count.
PROPERTY_SETTINGS = settings(
    max_examples=(
        _LONG_PROFILE.max_examples if settings.default is _LONG_PROFILE else 30
    ),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _bits(result):
    """The bit-identity surface: the probability and every stat but time."""
    stats = {k: v for k, v in result.stats.items() if k != "seconds"}
    return result.probability, stats


def _assert_every_handoff_exact(solve, module, m):
    """Every way ``solve`` can split between the two cores agrees bit for bit.

    ``solve(vectorized)`` runs one solver of ``module``.  Compared with
    the scalar reference: the engine from step 1 (constant pinned to 0),
    a handoff at each step 2..m, and the adaptive default.  The per-step
    runs force the step through the module's trigger: a constant cannot
    reach a step whose candidate count does not pass an earlier one's,
    such as the steps after an absorption shrinks the generation.
    """
    reference = _bits(solve(False))
    with patch.object(dp, "_HANDOFF_CANDIDATES", 0):
        assert _bits(solve(True)) == reference, "engine from step 1"
    for k in range(2, m + 1):
        with patch.object(module, "handoff_due", lambda _, step: step >= k):
            assert _bits(solve(True)) == reference, f"handoff at step {k}"
    assert _bits(solve(True)) == reference, "adaptive default"


@PROPERTY_SETTINGS
@given(two_label_instances(), st.booleans())
def test_two_label_vectorized_matches_scalar(instance, merge_gaps):
    model, labeling, union = instance
    _assert_every_handoff_exact(
        lambda vectorized: two_label_probability(
            model, labeling, union, merge_gaps=merge_gaps, vectorized=vectorized
        ),
        two_label,
        model.m,
    )


@PROPERTY_SETTINGS
@given(bipartite_instances(), st.booleans(), st.booleans())
def test_bipartite_vectorized_matches_scalar(instance, merge_gaps, pruned):
    model, labeling, union = instance
    _assert_every_handoff_exact(
        lambda vectorized: bipartite_probability(
            model,
            labeling,
            union,
            merge_gaps=merge_gaps,
            pruned=pruned,
            vectorized=vectorized,
        ),
        bipartite,
        model.m,
    )


@PROPERTY_SETTINGS
@given(bipartite_instances(), st.booleans(), st.booleans())
def test_lifted_vectorized_matches_scalar(instance, merge_gaps, prune_dead):
    model, labeling, union = instance
    _assert_every_handoff_exact(
        lambda vectorized: lifted_probability(
            model,
            labeling,
            union,
            merge_gaps=merge_gaps,
            prune_dead=prune_dead,
            vectorized=vectorized,
        ),
        lifted,
        model.m,
    )


@PROPERTY_SETTINGS
@given(bipartite_instances(max_m=8), st.booleans(), st.booleans())
def test_lifted_column_fallback_matches_scalar(instance, merge_gaps, prune_dead):
    """The wide-sequence path (no packed gcode) is equally bit-faithful."""
    model, labeling, union = instance
    # Limit 0 forces the per-slot id-column fallback.
    with patch.object(dp, "_GCODE_LIMIT", 0):
        _assert_every_handoff_exact(
            lambda vectorized: lifted_probability(
                model,
                labeling,
                union,
                merge_gaps=merge_gaps,
                prune_dead=prune_dead,
                vectorized=vectorized,
            ),
            lifted,
            model.m,
        )


# ---------------------------------------------------------------------------
# Per-chunk budget checks
# ---------------------------------------------------------------------------

BUDGET = 0.4


def _oversized_two_label():
    instance = next(
        iter(
            benchmark_d(
                m_values=(44,),
                patterns_per_union=(3,),
                items_per_label=(3,),
                instances_per_combo=1,
                seed=7,
            )
        )
    )
    return lambda: two_label_probability(
        instance.model, instance.labeling, instance.union, time_budget=BUDGET
    )


def _oversized_bipartite():
    instance = next(
        iter(
            benchmark_c(
                m_values=(18,),
                patterns_per_union=(3,),
                labels_per_pattern=(3,),
                items_per_label=(3,),
                instances_per_combo=1,
                seed=7,
            )
        )
    )
    # The basic variant has no absorption/pruning: states explode fast.
    return lambda: bipartite_probability(
        instance.model,
        instance.labeling,
        instance.union,
        pruned=False,
        time_budget=BUDGET,
    )


def _oversized_lifted():
    instance = benchmark_a(
        n_unions=1, m=14, items_per_label=3, seed=20200316
    )[0]
    return lambda: lifted_probability(
        instance.model, instance.labeling, instance.union, time_budget=BUDGET
    )


@pytest.mark.parametrize(
    "make_solve",
    [_oversized_two_label, _oversized_bipartite, _oversized_lifted],
    ids=["two_label", "bipartite_basic", "lifted"],
)
def test_oversized_instance_times_out_within_twice_budget(make_solve):
    """One generation can dwarf the budget; chunk checks must still fire."""
    solve = make_solve()
    started = time.perf_counter()
    with pytest.raises(SolverTimeout):
        solve()
    elapsed = time.perf_counter() - started
    assert elapsed <= 2.0 * BUDGET

