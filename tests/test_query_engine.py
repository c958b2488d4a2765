"""End-to-end tests for query evaluation over the Figure 1 database.

Hand-computed and Monte-Carlo-validated probabilities for the paper's
running examples Q0, Q1, Q2, plus grounding, grouping, count, and top-k.
"""

import numpy as np
import pytest

from repro.api import Count, TopK, answer
from repro.db.examples import polling_example
from repro.query.ast import Variable
from repro.query.classify import analyze
from repro.query.engine import compile_session_work
from repro.query.ground import decompose_query, variable_domain
from repro.query.parser import parse_query


@pytest.fixture
def db():
    return polling_example()


def world_probability(db, predicate, n=30_000, seed=7) -> float:
    """Monte-Carlo estimate of Pr over possible worlds."""
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n):
        if predicate(db.sample_world(rng)):
            hits += 1
    return hits / n


class TestGrounding:
    def test_q2_domain_of_e(self, db):
        q = parse_query(
            "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)"
        )
        analysis = analyze(q, db)
        # edu values in Candidates: BS (Trump, Sanders), JD (Clinton, Rubio).
        assert variable_domain(Variable("e"), analysis, db) == ["BS", "JD"]

    def test_q2_decomposes_into_two_queries(self, db):
        q = parse_query(
            "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)"
        )
        grounded = list(decompose_query(q, db))
        assert len(grounded) == 2
        assignments = [a for a, _ in grounded]
        assert {tuple(a.values()) for a in assignments} == {("BS",), ("JD",)}

    def test_itemwise_passthrough(self, db):
        q = parse_query("P(_, _; 'Trump'; 'Clinton')")
        grounded = list(decompose_query(q, db))
        assert len(grounded) == 1
        assert grounded[0][0] == {}


class TestEvaluation:
    def test_q0_exact(self, db):
        # Pr over MAL(<Clinton, Sanders, Rubio, Trump>, 0.3) that Trump is
        # above Clinton and above Rubio.
        q = parse_query(
            "P('Ann', '5/5'; 'Trump'; 'Clinton'), P('Ann', '5/5'; 'Trump'; 'Rubio')"
        )
        result = answer(q, db)
        model = db.prelation("P").model_of(("Ann", "5/5"))
        expected = sum(
            p
            for tau, p in model.enumerate_support()
            if tau.prefers("Trump", "Clinton") and tau.prefers("Trump", "Rubio")
        )
        assert result.probability == pytest.approx(expected)
        assert result.n_sessions == 1

    def test_q1_against_monte_carlo(self, db):
        q = parse_query(
            "P(_, _; c1; c2), C(c1, _, 'F', _, _, _), C(c2, _, 'M', _, _, _)"
        )
        result = answer(q, db)

        def predicate(world):
            for ranking in world.values():
                for male in ("Trump", "Sanders", "Rubio"):
                    if ranking.prefers("Clinton", male):
                        return True
            return False

        mc = world_probability(db, predicate)
        assert result.probability == pytest.approx(mc, abs=0.01)

    def test_q2_against_monte_carlo(self, db):
        q = parse_query(
            "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)"
        )
        result = answer(q, db)

        def predicate(world):
            for ranking in world.values():
                if ranking.prefers("Sanders", "Trump") or ranking.prefers(
                    "Clinton", "Rubio"
                ):
                    return True
            return False

        mc = world_probability(db, predicate)
        assert result.probability == pytest.approx(mc, abs=0.01)

    def test_session_selection_by_constant(self, db):
        q = parse_query("P('Ann', _; 'Clinton'; 'Trump')")
        result = answer(q, db)
        assert result.n_sessions == 1
        assert result.per_session[0].key == ("Ann", "5/5")

    def test_session_selection_by_comparison(self, db):
        q = parse_query("P(_, d; 'Clinton'; 'Trump'), d = '6/5'")
        result = answer(q, db)
        assert [e.key for e in result.per_session] == [("Dave", "6/5")]

    def test_exact_methods_agree(self, db):
        q = parse_query(
            "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)"
        )
        values = {
            method: answer(q, db, method=method).probability
            for method in ("auto", "two_label", "bipartite", "general", "lifted", "brute")
        }
        reference = values.pop("brute")
        for method, value in values.items():
            assert value == pytest.approx(reference, abs=1e-9), method

    def test_approximate_methods_close(self, db):
        q = parse_query(
            "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)"
        )
        exact = answer(q, db).probability
        approx = answer(
            q, db, method="mis_amp_adaptive", seed=11, n_per_proposal=300
        ).probability
        assert approx == pytest.approx(exact, rel=0.2)

    def test_grouping_equals_naive(self, db):
        q = parse_query(
            "P(_, _; c1; c2), C(c1, 'D', _, _, _, _), C(c2, 'R', _, _, _, _)"
        )
        grouped = answer(q, db, group_sessions=True)
        naive = answer(q, db, group_sessions=False)
        assert grouped.probability == pytest.approx(naive.probability)
        # Ann and Dave share a reference ranking but have different phi, so
        # their models differ; grouping saves nothing here but must agree.
        assert (
            grouped.stats["n_solver_calls"] <= naive.stats["n_solver_calls"]
        )

    def test_unsatisfiable_query(self, db):
        q = parse_query("P(_, _; c1; c2), C(c1, 'Green', _, _, _, _)")
        result = answer(q, db)
        assert result.probability == pytest.approx(0.0, abs=1e-12)

    def test_self_preference_is_false(self, db):
        q = parse_query("P('Ann', '5/5'; 'Trump'; 'Trump')")
        result = answer(q, db)
        assert result.probability == 0.0

    def test_wildcard_item_position(self, db):
        # P(s; _; 'Clinton'): someone is preferred to Clinton, i.e. Clinton
        # is not ranked first.
        q = parse_query("P('Ann', '5/5'; _; 'Clinton')")
        result = answer(q, db)
        model = db.prelation("P").model_of(("Ann", "5/5"))
        expected = sum(
            p
            for tau, p in model.enumerate_support()
            if tau.rank_of("Clinton") > 1
        )
        assert result.probability == pytest.approx(expected)


class TestSessionBoundJoin:
    def test_voter_demographics_join(self, db):
        # Does some voter prefer a candidate of the voter's own sex to one
        # of the opposite sex?  Ann is F: pattern F > M for her session.
        q = parse_query(
            "P(v, _; c1; c2), V(v, sex, _, _), C(c1, _, sex, _, _, _), "
            "C(c2, _, 'M', _, _, _)"
        )
        works = compile_session_work(q, db)
        by_key = {w.key: w for w in works}
        # Bob (M) compiles an M > M pattern; Ann (F) an F > M pattern.
        assert by_key[("Ann", "5/5")].union is not None
        assert by_key[("Bob", "5/5")].union is not None
        assert (
            by_key[("Ann", "5/5")].union != by_key[("Bob", "5/5")].union
        )

        result = answer(q, db)

        def predicate(world):
            sex_of = {"Ann": "F", "Bob": "M", "Dave": "M"}
            males = ("Trump", "Sanders", "Rubio")
            for (_, key), ranking in world.items():
                voter_sex = sex_of[key[0]]
                same = (
                    ("Clinton",) if voter_sex == "F" else males
                )
                for a in same:
                    for b in males:
                        if a != b and ranking.prefers(a, b):
                            return True
            return False

        mc = world_probability(db, predicate)
        assert result.probability == pytest.approx(mc, abs=0.01)


class TestSessionAtomJoinRegressions:
    @pytest.fixture
    def db_with_rep(self, db):
        """Figure 1 plus R(voter, grp, rep): the session value recurs."""
        from repro.db.database import PPDatabase
        from repro.db.schema import ORelation

        rep = ORelation(
            "R",
            ["voter", "grp", "rep"],
            [("Ann", "g1", "Bob"), ("Dave", "g1", "Dave")],
        )
        return PPDatabase(
            orelations=list(db.orelations.values()) + [rep],
            prelations=list(db.prelations.values()),
        )

    def test_recurring_session_variable_constrains_the_row(self, db_with_rep):
        # R(v, _, v) must only join rows whose third column repeats the
        # session value: Ann's row names Bob, so her session is false; only
        # Dave self-matches.  (Regression: the recurring variable at a
        # non-zero position was skipped, joining Ann's row too and
        # inflating Pr(Q | D).)
        q = parse_query("P(v, _; 'Trump'; 'Clinton'), R(v, _, v)")
        works = compile_session_work(q, db_with_rep)
        by_key = {w.key: w.union for w in works}
        assert by_key[("Ann", "5/5")] is None
        assert by_key[("Bob", "5/5")] is None
        assert by_key[("Dave", "6/5")] is not None

        result = answer(q, db_with_rep)
        dave_only = answer(
            parse_query("P('Dave', _; 'Trump'; 'Clinton')"), db_with_rep
        )
        assert result.probability == pytest.approx(dave_only.probability)

    def test_binding_free_join_not_conflated_with_failed_join(self, db):
        # V(v, 'F', _, _) binds no variables, so every session's binding
        # set is either [{}] (a matching row exists) or [] (none does).
        # (Regression: the per-session union cache keyed both as (), so the
        # first-compiled session's union leaked to all the others.)
        q = parse_query("P(v, _; 'Trump'; 'Clinton'), V(v, 'F', _, _)")
        works = compile_session_work(q, db)
        by_key = {w.key: w.union for w in works}
        assert by_key[("Ann", "5/5")] is not None  # Ann is F
        assert by_key[("Bob", "5/5")] is None
        assert by_key[("Dave", "6/5")] is None

        result = answer(q, db)
        ann_only = answer(
            parse_query("P('Ann', _; 'Trump'; 'Clinton')"), db
        )
        assert result.probability == pytest.approx(ann_only.probability)


class TestSolverAttribution:
    def test_auto_reports_the_resolved_solver(self, db):
        q = parse_query("P('Ann', '5/5'; 'Trump'; 'Clinton')")
        result = answer(q, db)
        assert result.requested_method == "auto"  # the request, as asked
        assert result.per_session[0].solver == "two_label"  # the solver run

    def test_mixture_reports_component_solver_not_auto(self):
        from repro.db.database import PPDatabase
        from repro.db.schema import PRelation
        from repro.rim.mallows import Mallows
        from repro.rim.mixture import MallowsMixture

        items = ["a", "b", "c"]
        mixture = MallowsMixture(
            [Mallows(items, 0.3), Mallows(items, 0.6)], [0.5, 0.5]
        )
        db = PPDatabase(
            prelations=[PRelation("P", ["user"], {("u",): mixture})]
        )
        result = answer(parse_query("P('u'; 'a'; 'b')"), db)
        assert result.per_session[0].solver == "mixture[two_label]"

    def test_auto_and_explicit_method_share_one_cache_entry(self, db):
        from repro.service.cache import SolverCache

        cache = SolverCache()
        q = parse_query("P('Ann', '5/5'; 'Trump'; 'Clinton')")
        first = answer(q, db, method="auto", cache=cache)
        assert first.stats["n_solver_calls"] == 1
        # The explicit twin of what auto resolved to: zero fresh solves.
        second = answer(q, db, method="two_label", cache=cache)
        assert second.stats["n_solver_calls"] == 0
        assert second.stats["cache_hits"] == 1
        assert len(cache) == 1
        assert second.probability == first.probability


class TestAggregates:
    def test_count_is_sum_of_session_probabilities(self, db):
        q = parse_query(
            "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)"
        )
        count = answer(Count(q), db)
        result = answer(q, db)
        assert count.expectation == pytest.approx(
            sum(e.probability for e in result.per_session)
        )
        assert len(count.per_session) == 3

    def test_topk_strategies_agree(self, db):
        q = parse_query(
            "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)"
        )
        for k in (1, 2, 3):
            naive = answer(TopK(q, k=k, strategy="naive"), db)
            for n_edges in (1, 2):
                optimized = answer(
                    TopK(q, k=k, strategy="upper_bound", n_edges=n_edges), db
                )
                assert [key for key, _ in optimized.ranking] == [
                    key for key, _ in naive.ranking
                ]
                probs_opt = [p for _, p in optimized.ranking]
                probs_naive = [p for _, p in naive.ranking]
                assert probs_opt == pytest.approx(probs_naive)

    def test_topk_optimization_saves_work(self, db):
        q = parse_query(
            "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)"
        )
        optimized = answer(
            TopK(q, k=1, strategy="upper_bound", n_edges=1), db
        )
        assert optimized.stats["n_exact_evaluations"] <= 3
        assert optimized.stats["n_upper_bound_evaluations"] == 3

    def test_topk_validates_k(self, db):
        q = parse_query("P(_, _; 'Trump'; 'Clinton')")
        with pytest.raises(ValueError):
            answer(TopK(q, k=0), db)
        with pytest.raises(ValueError):
            answer(TopK(q, k=1, strategy="magic"), db)
