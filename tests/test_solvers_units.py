"""Targeted unit tests for the individual exact solvers."""

import pytest

from repro.patterns.labels import Labeling
from repro.patterns.pattern import LabelPattern, node
from repro.patterns.union import PatternUnion
from repro.plan.methods import classic_choice
from repro.rim.mallows import Mallows
from repro.solvers.base import SolverResult, SolverTimeout, UnsupportedPatternError
from repro.solvers.bipartite import bipartite_probability
from repro.solvers.brute import brute_force_probability
from repro.solvers.dispatch import exact_probability, solve
from repro.solvers.general import general_probability
from repro.solvers.lifted import lifted_probability
from repro.solvers.two_label import two_label_probability


def simple_instance():
    model = Mallows(list(range(5)), 0.5)
    labeling = Labeling({0: {"A"}, 1: {"B"}, 2: {"A"}, 3: {"C"}, 4: set()})
    g1 = LabelPattern([(node("a", "A"), node("b", "B"))])
    g2 = LabelPattern([(node("c", "C"), node("a2", "A"))])
    return model, labeling, PatternUnion([g1, g2])


class TestSolverResult:
    def test_probability_range_validated(self):
        with pytest.raises(ValueError):
            SolverResult(1.5, solver="x")
        with pytest.raises(ValueError):
            SolverResult(-0.5, solver="x")

    def test_clamped(self):
        result = SolverResult(1.0 + 5e-7, solver="x")
        assert result.clamped == 1.0


class TestKnownValues:
    def test_certain_pattern(self):
        # Label on every item, edge between two always-present labels over
        # uniform ranking: A > B holds unless all A items are below all B.
        model = Mallows(["x", "y"], 1.0)
        labeling = Labeling({"x": {"A"}, "y": {"B"}})
        pattern = LabelPattern([(node("a", "A"), node("b", "B"))])
        # Uniform over 2 rankings; only <x, y> satisfies A > B.
        assert exact_probability(model, labeling, pattern) == pytest.approx(0.5)

    def test_point_mass_model(self):
        model = Mallows(["x", "y", "z"], 0.0)
        labeling = Labeling({"x": {"A"}, "z": {"B"}})
        pattern = LabelPattern([(node("a", "A"), node("b", "B"))])
        assert exact_probability(model, labeling, pattern) == 1.0
        reverse = LabelPattern([(node("b", "B"), node("a", "A"))])
        assert exact_probability(model, labeling, reverse) == 0.0

    def test_unsatisfiable_label(self):
        model = Mallows(["x", "y"], 0.5)
        labeling = Labeling({"x": {"A"}, "y": {"B"}})
        pattern = LabelPattern([(node("a", "A"), node("z", "Z"))])
        for method in ("two_label", "bipartite", "general", "lifted", "brute"):
            assert (
                solve(model, labeling, pattern, method=method).probability
                == pytest.approx(0.0)
            )

    def test_empty_pattern_is_certain(self):
        model = Mallows(["x", "y"], 0.5)
        labeling = Labeling({"x": set(), "y": set()})
        pattern = LabelPattern(nodes=[])
        assert lifted_probability(model, labeling, pattern).probability == 1.0


class TestTwoLabelSolver:
    def test_rejects_non_two_label(self):
        model, labeling, _ = simple_instance()
        chain = LabelPattern(
            [(node("a", "A"), node("b", "B")), (node("b", "B"), node("c", "C"))]
        )
        with pytest.raises(UnsupportedPatternError):
            two_label_probability(model, labeling, chain)

    def test_example_4_2_state_semantics(self):
        # Paper Example 4.2 scenario: items a, c with label l1 and b with r1;
        # the violation probability of {l1 > r1} is the chance all l1 items
        # rank below all r1 items.
        model = Mallows(["a", "b", "c"], 1.0)
        labeling = Labeling({"a": {"l1"}, "b": {"r1"}, "c": {"l1"}})
        pattern = LabelPattern([(node("l", "l1"), node("r", "r1"))])
        # Uniform over 6 rankings; violations: b above both a and c -> 2.
        assert two_label_probability(
            model, labeling, pattern
        ).probability == pytest.approx(4 / 6)

    def test_timeout_raised(self):
        import random

        from tests.conftest import random_two_label_instance

        pyrng = random.Random(0)
        model, labeling, union = random_two_label_instance(
            pyrng, m_choices=(30,), max_patterns=3
        )
        with pytest.raises(SolverTimeout):
            two_label_probability(model, labeling, union, time_budget=1e-4)


class TestBipartiteSolver:
    def test_rejects_non_bipartite(self):
        model, labeling, _ = simple_instance()
        chain = LabelPattern(
            [(node("a", "A"), node("b", "B")), (node("b", "B"), node("c", "C"))]
        )
        with pytest.raises(UnsupportedPatternError):
            bipartite_probability(model, labeling, chain)

    def test_unsatisfiable_short_circuits(self):
        model = Mallows(["x", "y"], 0.5)
        labeling = Labeling({"x": {"A"}, "y": set()})
        pattern = LabelPattern([(node("a", "A"), node("z", "Z"))])
        result = bipartite_probability(model, labeling, pattern)
        assert result.probability == 0.0
        assert result.stats.get("unsatisfiable")

    def test_stats_reported(self):
        model, labeling, _ = simple_instance()
        pattern = LabelPattern([(node("a", "A"), node("b", "B"))])
        result = bipartite_probability(model, labeling, pattern)
        assert result.stats["peak_states"] >= 1
        assert result.solver == "bipartite"


class TestGeneralSolver:
    def test_term_count(self):
        model, labeling, union = simple_instance()
        result = general_probability(model, labeling, union)
        # 2 patterns -> 2^2 - 1 inclusion-exclusion terms.
        assert result.stats["n_terms"] == 3

    def test_inclusion_exclusion_matches_direct_union(self):
        model, labeling, union = simple_instance()
        direct = lifted_probability(model, labeling, union).probability
        via_ie = general_probability(model, labeling, union).probability
        assert via_ie == pytest.approx(direct, abs=1e-9)

    def test_seconds_by_size_recorded(self):
        model, labeling, union = simple_instance()
        result = general_probability(model, labeling, union)
        assert set(result.stats["seconds_by_conjunction_size"]) == {1, 2}


class TestLiftedSolver:
    def test_stops_after_last_relevant_item(self):
        # Relevant items early in sigma: the DP should stop well before m.
        model = Mallows(list(range(10)), 0.5)
        labeling = Labeling({0: {"A"}, 1: {"B"}})
        pattern = LabelPattern([(node("a", "A"), node("b", "B"))])
        result = lifted_probability(model, labeling, pattern)
        assert result.stats["last_relevant_step"] == 2

    def test_no_relevant_items(self):
        model = Mallows(list(range(3)), 0.5)
        labeling = Labeling({0: set(), 1: set(), 2: set()})
        pattern = LabelPattern([(node("a", "A"), node("b", "B"))])
        result = lifted_probability(model, labeling, pattern)
        assert result.probability == 0.0
        assert result.stats["no_relevant_items"]


class TestDispatch:
    def test_auto_resolves_by_classic_choice(self):
        _, _, union = simple_instance()
        assert classic_choice(union) == "two_label"
        chain = LabelPattern(
            [(node("a", "A"), node("b", "B")), (node("b", "B"), node("c", "C"))]
        )
        assert classic_choice(PatternUnion([chain])) == "general"
        v = LabelPattern(
            [(node("a", "A"), node("c", "C")), (node("b", "B"), node("c", "C"))]
        )
        assert classic_choice(PatternUnion([v])) == "bipartite"

    def test_unknown_method_rejected(self):
        model, labeling, union = simple_instance()
        with pytest.raises(ValueError, match="unknown method"):
            solve(model, labeling, union, method="magic")

    def test_auto_agrees_with_brute(self):
        model, labeling, union = simple_instance()
        auto = solve(model, labeling, union).probability
        brute = brute_force_probability(model, labeling, union).probability
        assert auto == pytest.approx(brute, abs=1e-9)
