"""Tests for query-engine options: methods, limits, grouping, errors."""

import pytest

from repro.api import answer
from repro.datasets.crowdrank import crowdrank_database
from repro.db.examples import polling_example
from repro.query.engine import solve_session
from repro.query.parser import parse_query


@pytest.fixture
def db():
    return polling_example()


SIMPLE = "P(_, _; 'Clinton'; 'Trump')"


class TestMethodHandling:
    def test_approximate_requires_rng(self):
        # solve_session, which the figure runners call directly, still
        # needs a generator; every plan derives one per sampled solve.
        from repro.patterns.labels import Labeling
        from repro.patterns.pattern import LabelPattern, node
        from repro.patterns.union import PatternUnion
        from repro.rim.mallows import Mallows

        model = Mallows([1, 2, 3], 0.2)
        labeling = Labeling({1: {"A"}, 3: {"B"}})
        union = PatternUnion(
            [LabelPattern([(node("a", "A"), node("b", "B"))])]
        )
        # Each method gets its required solver options: only the rng lacks.
        for method, options in (
            ("mis_amp_lite", {"n_proposals": 2}),
            ("mis_amp_adaptive", {}),
            ("rejection", {}),
        ):
            with pytest.raises(ValueError, match="requires an rng"):
                solve_session(model, labeling, union, method, **options)

    def test_rejection_method(self, db):
        q = parse_query(SIMPLE)
        exact = answer(q, db).probability
        approx = answer(
            q, db, method="rejection", seed=0, n_samples=4000
        ).probability
        assert approx == pytest.approx(exact, abs=0.05)

    def test_mis_amp_lite_options_forwarded(self, db):
        q = parse_query(SIMPLE)
        result = answer(
            q, db, method="mis_amp_lite", seed=0,
            n_proposals=2, n_per_proposal=100,
        )
        assert 0.0 <= result.probability <= 1.0

    def test_unknown_exact_method(self, db):
        q = parse_query(SIMPLE)
        with pytest.raises(ValueError, match="unknown method"):
            answer(q, db, method="nonsense")


class TestSessionLimit:
    def test_limit_truncates_sessions(self):
        db = crowdrank_database(n_workers=30, n_movies=8, seed=5)
        q = parse_query("P(v; 1; 2), V(v, _, _)")
        full = answer(q, db, method="lifted")
        limited = answer(q, db, method="lifted", session_limit=10)
        assert full.n_sessions == 30
        assert limited.n_sessions == 10

    def test_limit_larger_than_sessions(self, db):
        q = parse_query(SIMPLE)
        result = answer(q, db, session_limit=100)
        assert result.n_sessions == 3


class TestGrouping:
    def test_group_counts_reported(self):
        db = crowdrank_database(n_workers=100, n_movies=8, seed=6)
        q = parse_query("P(v; 1; 2), V(v, _, _)")
        grouped = answer(q, db, method="lifted", group_sessions=True)
        # One pattern for everyone; groups = number of distinct models.
        assert grouped.stats["n_groups"] <= 7
        assert grouped.stats["n_solver_calls"] == grouped.stats["n_groups"]
        naive = answer(q, db, method="lifted", group_sessions=False)
        assert naive.stats["n_solver_calls"] == naive.n_sessions
        assert grouped.probability == pytest.approx(naive.probability)


class TestSolveSessionHelper:
    def test_mixture_dispatch(self, db):
        from repro.patterns.labels import Labeling
        from repro.patterns.pattern import LabelPattern, node
        from repro.patterns.union import PatternUnion
        from repro.rim.mallows import Mallows
        from repro.rim.mixture import MallowsMixture

        mixture = MallowsMixture(
            [Mallows([1, 2, 3], 0.2), Mallows([3, 2, 1], 0.2)],
            weights=[0.5, 0.5],
        )
        labeling = Labeling({1: {"A"}, 3: {"B"}})
        union = PatternUnion(
            [LabelPattern([(node("a", "A"), node("b", "B"))])]
        )
        p, solver_name = solve_session(mixture, labeling, union)
        assert solver_name.startswith("mixture[")
        # By symmetry of the two centers, the marginal is 0.5.
        assert p == pytest.approx(0.5, abs=1e-9)


class TestSessionEvaluationsSurface:
    def test_per_session_lookup(self, db):
        q = parse_query(
            "P(_, _; c1; c2), C(c1, 'D', _, _, _, _), C(c2, 'R', _, _, _, _)"
        )
        result = answer(q, db)
        p = result.session_probability(("Ann", "5/5"))
        assert 0.0 <= p <= 1.0
        with pytest.raises(KeyError):
            result.session_probability(("Nobody", "1/1"))

    def test_unsatisfiable_sessions_marked(self, db):
        q = parse_query("P('Ann', '5/5'; 'Trump'; 'Trump')")
        result = answer(q, db)
        assert result.per_session[0].solver == "unsatisfiable"
