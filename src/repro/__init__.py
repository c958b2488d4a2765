"""repro — reproduction of "Supporting Hard Queries over Probabilistic Preferences".

A pure-Python implementation of the VLDB 2020 paper by Ping, Stoyanovich and
Kimelfeld: probabilistic preference databases (RIM-PPD), exact and
approximate solvers for pattern-union inference over RIM/Mallows models, and
the Count-Session / Most-Probable-Session query operators.

Quickstart
----------
>>> from repro import Mallows, Labeling, LabelPattern, PatternNode, solve
>>> model = Mallows(["Trump", "Clinton", "Sanders", "Rubio"], phi=0.3)
>>> labeling = Labeling({
...     "Trump": {"M", "R"}, "Clinton": {"F", "D"},
...     "Sanders": {"M", "D"}, "Rubio": {"M", "R"},
... })
>>> female = PatternNode("c1", frozenset({"F"}))
>>> male = PatternNode("c2", frozenset({"M"}))
>>> pattern = LabelPattern([(female, male)])  # F preferred to M
>>> result = solve(model, labeling, pattern)
>>> 0.0 < result.probability < 1.0
True

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
reproduction of every table and figure of the paper's evaluation.
"""

from repro.api import (
    Aggregate,
    Answer,
    BatchAnswer,
    Count,
    Probability,
    TopK,
    answer,
    answer_many,
    parse_request,
)
from repro.kernels import (
    model_tables,
    rankings_from_positions,
    union_satisfied_many,
)
from repro.patterns import (
    LabelPattern,
    Labeling,
    PatternNode,
    PatternUnion,
    matches,
    matches_union,
    pattern_conjunction,
)
from repro.rankings import PartialOrder, Ranking, SubRanking, kendall_tau
from repro.rim import AMPSampler, Mallows, MallowsMixture, RIM
from repro.service import PersistentSolverCache, SolverCache
from repro.service.service import PreferenceService
from repro.solvers import (
    SolverResult,
    bipartite_probability,
    brute_force_probability,
    exact_probability,
    general_probability,
    lifted_probability,
    solve,
    two_label_probability,
    upper_bound_probability,
)

__version__ = "1.0.0"

__all__ = [
    "Aggregate",
    "Answer",
    "BatchAnswer",
    "Count",
    "Probability",
    "TopK",
    "answer",
    "answer_many",
    "parse_request",
    "Ranking",
    "SubRanking",
    "PartialOrder",
    "kendall_tau",
    "RIM",
    "Mallows",
    "MallowsMixture",
    "AMPSampler",
    "Labeling",
    "LabelPattern",
    "PatternNode",
    "PatternUnion",
    "pattern_conjunction",
    "matches",
    "matches_union",
    "model_tables",
    "rankings_from_positions",
    "union_satisfied_many",
    "SolverResult",
    "SolverCache",
    "PersistentSolverCache",
    "PreferenceService",
    "solve",
    "exact_probability",
    "brute_force_probability",
    "lifted_probability",
    "general_probability",
    "two_label_probability",
    "bipartite_probability",
    "upper_bound_probability",
    "__version__",
]
