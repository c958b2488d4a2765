"""NumPy-vectorized hot-path kernels (DESIGN.md Section 7).

The kernel layer batches the library's Monte-Carlo hot loops — RIM/AMP
sampling, importance-weight densities, and predicate evaluation — into
whole-batch array passes over ``(n, m)`` position matrices, backed by
per-model memoized precompute tables.  The scalar implementations in
:mod:`repro.rim` and :mod:`repro.patterns` remain the reference
semantics; every kernel reproduces them exactly under a fixed seed.
"""

from repro.kernels.density import (
    amp_log_probability_many,
    kendall_tau_many,
    mallows_log_probability_many,
    rim_log_probability_many,
)
from repro.kernels.dp import (
    bipartite_basic_engine,
    bipartite_pruned_engine,
    lifted_engine,
    merge_states,
    scalar_gap_segments,
    sequential_sum,
    two_label_engine,
)
from repro.kernels.precompute import (
    ModelTables,
    clear_caches,
    mallows_log_z,
    mallows_matrix,
    memoization_disabled,
    memoization_enabled,
    model_tables,
)
from repro.kernels.predicates import (
    CompiledUnionMatcher,
    SubRankingPredicate,
    subranking_predicate,
    subranking_satisfied_many,
    union_satisfied_many,
)
from repro.kernels.sampling import (
    amp_sample_positions,
    positions_from_rankings,
    positions_to_orders,
    positions_to_trajectories,
    rankings_from_positions,
    reindex_positions,
    rim_sample_positions,
    trajectories_to_positions,
)

__all__ = [
    "ModelTables",
    "CompiledUnionMatcher",
    "SubRankingPredicate",
    "subranking_predicate",
    "amp_log_probability_many",
    "amp_sample_positions",
    "bipartite_basic_engine",
    "bipartite_pruned_engine",
    "clear_caches",
    "kendall_tau_many",
    "lifted_engine",
    "merge_states",
    "scalar_gap_segments",
    "sequential_sum",
    "two_label_engine",
    "mallows_log_probability_many",
    "mallows_log_z",
    "mallows_matrix",
    "memoization_disabled",
    "memoization_enabled",
    "model_tables",
    "positions_from_rankings",
    "positions_to_orders",
    "positions_to_trajectories",
    "rankings_from_positions",
    "reindex_positions",
    "rim_log_probability_many",
    "rim_sample_positions",
    "subranking_satisfied_many",
    "trajectories_to_positions",
    "union_satisfied_many",
]
