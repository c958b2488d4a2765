"""Tests for the unified query API (repro.api): grammar, routing, answers,
exact-equality oracles for every kind, mixed-kind batch dedup, and explain."""

import re
import warnings

import numpy as np
import pytest

from repro.api import (
    Aggregate,
    Answer,
    BatchAnswer,
    Count,
    Probability,
    TopK,
    answer,
    answer_many,
    as_request,
    parse_request,
)
from repro.datasets.crowdrank import crowdrank_database
from repro.db.database import PPDatabase
from repro.db.examples import polling_example
from repro.db.schema import PRelation
from repro.plan import build_plan, optimize_plan
from repro.plan.execute import execute_plan, session_upper_bound
from repro.query.classify import analyze
from repro.query.compile import labeling_for_patterns
from repro.query.engine import compile_session_work, solve_session
from repro.query.parser import QuerySyntaxError, parse_query
from repro.rim.plackett_luce import PlackettLuce
from repro.service.cache import SolverCache
from repro.service.service import PreferenceService

POLLS_Q = "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)"
CROWD_Q = "P(v; m1; m2), M(m1, _, 'F', _, _), M(m2, 'Thriller', _, _, _)"
#: A chain over two P atoms: its closure has three edges, so a top-k's
#: one-edge upper bound is a real relaxation.  CROWD_Q is two-label, so
#: its bound would be its exact probability, and a top-k computes none.
CROWD_CHAIN_Q = (
    "P(v; m1; m2), P(v; m2; m3), M(m1, 'Drama', _, _, _), "
    "M(m2, _, 'F', _, _), M(m3, _, _, _, 'short')"
)


@pytest.fixture
def polls_db():
    return polling_example()


@pytest.fixture(scope="module")
def crowd_db():
    return crowdrank_database(n_workers=20, n_movies=6, seed=7)


# ----------------------------------------------------------------------
# The extended request grammar
# ----------------------------------------------------------------------


class TestParseRequest:
    def test_plain_text_is_probability(self):
        request = parse_request(POLLS_Q)
        assert isinstance(request, Probability)
        assert request.kind == "probability"
        assert len(request.query.p_atoms) == 1

    def test_count_prefix(self):
        request = parse_request(f"COUNT {POLLS_Q}")
        assert isinstance(request, Count)
        assert request.query == parse_query(POLLS_Q)

    def test_topk_prefix(self):
        request = parse_request(f"TOPK 3 {POLLS_Q}")
        assert isinstance(request, TopK)
        assert request.k == 3
        assert request.strategy == "upper_bound"

    def test_agg_prefix(self):
        request = parse_request(f"AGG mean(V.age) {POLLS_Q}")
        assert isinstance(request, Aggregate)
        assert (request.relation, request.column) == ("V", "age")
        assert request.statistic == "mean"

    def test_agg_sum_statistic(self):
        request = parse_request(f"AGG sum(V.age) {POLLS_Q}")
        assert request.statistic == "sum"

    def test_prefixes_are_case_insensitive(self):
        assert parse_request(f"count {POLLS_Q}").kind == "count"
        assert parse_request(f"topk 2 {POLLS_Q}").kind == "top_k"
        assert parse_request(f"agg mean(V.age) {POLLS_Q}").kind == "aggregate"

    def test_relation_named_count_is_not_a_prefix(self):
        # A keyword directly followed by '(' is an atom, not a prefix.
        request = parse_request("P(_, _; a; b), COUNT(a, 'x')")
        assert isinstance(request, Probability)
        assert request.query.o_atoms[0].relation == "COUNT"

    def test_keyword_named_variable_in_leading_comparison(self):
        # A previously valid plain query whose first conjunct compares a
        # variable named like a prefix keyword must keep parsing plain.
        for keyword in ("count", "topk", "agg", "COUNT"):
            text = f"{keyword} > 3, P(v, {keyword}; a; b)"
            assert parse_query(text) is not None  # the old grammar accepts it
            request = parse_request(text)
            assert isinstance(request, Probability)
            assert request.query == parse_query(text)

    def test_prefix_errors_survive_the_plain_fallback(self):
        # When neither the prefix nor the plain reading parses, the prefix
        # error (the informative one) is what surfaces.
        with pytest.raises(QuerySyntaxError, match="integer k"):
            parse_request("TOPK x P(_, _; a; b)")
        with pytest.raises(QuerySyntaxError, match=r"found '\)'"):
            parse_request("COUNT P(_; a; )")

    def test_topk_requires_integer_k(self):
        with pytest.raises(QuerySyntaxError, match="integer k"):
            parse_request(f"TOPK x {POLLS_Q}")

    def test_agg_requires_spec(self):
        with pytest.raises(QuerySyntaxError, match="statistic"):
            parse_request(f"AGG mean(Vage) {POLLS_Q}")

    def test_agg_rejects_unknown_statistic(self):
        with pytest.raises(QuerySyntaxError, match="median"):
            parse_request(f"AGG median(V.age) {POLLS_Q}")

    def test_as_request_normalizes_all_forms(self):
        query = parse_query(POLLS_Q)
        assert isinstance(as_request(query), Probability)
        assert as_request(Count(query)).kind == "count"
        assert as_request(f"COUNT {POLLS_Q}").kind == "count"
        with pytest.raises(TypeError):
            as_request(42)

    def test_requests_accept_query_text(self):
        assert Count(POLLS_Q).query == parse_query(POLLS_Q)
        assert TopK(POLLS_Q, k=2).k == 2

    def test_request_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            TopK(POLLS_Q, k=0)
        with pytest.raises(ValueError, match="strategy"):
            TopK(POLLS_Q, strategy="magic")
        with pytest.raises(ValueError, match="statistic"):
            Aggregate(POLLS_Q, relation="V", column="age", statistic="median")
        with pytest.raises(ValueError, match="relation"):
            Aggregate(POLLS_Q)
        with pytest.raises(ValueError, match="k must be an integer"):
            TopK(POLLS_Q, k=1.5)
        with pytest.raises(ValueError, match="n_edges must be an integer"):
            TopK(POLLS_Q, n_edges=0)
        with pytest.raises(ValueError, match="n_worlds must be an integer"):
            Aggregate(POLLS_Q, relation="V", column="age", n_worlds=True)

    def test_describe_round_trips_the_prefix(self):
        assert parse_request(f"COUNT {POLLS_Q}").describe().startswith("COUNT ")
        assert parse_request(f"TOPK 3 {POLLS_Q}").describe().startswith("TOPK 3 ")
        assert (
            parse_request(f"AGG sum(V.age) {POLLS_Q}")
            .describe()
            .startswith("AGG sum(V.age) ")
        )


class TestParserPositions:
    """The QuerySyntaxError position/caret satellite (old + prefixed)."""

    def test_offset_and_caret_on_plain_grammar(self):
        with pytest.raises(QuerySyntaxError) as info:
            parse_query("P(_; a; )")
        error = info.value
        assert error.offset == 8
        assert "(at offset 8)" in str(error)
        lines = str(error).splitlines()
        assert lines[1].strip() == "P(_; a; )"
        # The caret column matches the offending token's column.
        assert lines[2].index("^") - lines[1].index("P") == 8

    def test_unexpected_character_offset(self):
        with pytest.raises(QuerySyntaxError) as info:
            parse_query("P(_, _; a; b) %")
        assert info.value.offset == 14

    def test_prefixed_offsets_are_relative_to_full_text(self):
        text = "COUNT P(_; a; )"
        with pytest.raises(QuerySyntaxError) as info:
            parse_request(text)
        error = info.value
        assert error.offset == text.index("; )") + 2
        # The excerpt shows the *full* request text, prefix included.
        assert "COUNT P(_; a; )" in str(error)

    def test_long_sources_are_windowed(self):
        text = "P(_, _; " + "a" * 200 + "; b) %"
        with pytest.raises(QuerySyntaxError) as info:
            parse_query(text)
        rendered = str(info.value)
        assert "..." in rendered
        excerpt = rendered.splitlines()[1]
        assert len(excerpt.strip()) < 80
        # The caret still points inside the excerpt.
        assert "^" in rendered.splitlines()[2]

    def test_errors_remain_value_errors(self):
        with pytest.raises(ValueError):
            parse_query("P(")


# ----------------------------------------------------------------------
# Single-request answers
# ----------------------------------------------------------------------


class TestAnswer:
    def test_probability_answer_matches_unoptimized_plan(self, polls_db):
        reference = answer(POLLS_Q, polls_db, optimize=False)
        one = answer(POLLS_Q, polls_db)
        assert isinstance(one, Answer)
        assert one.kind == "probability"
        assert one.probability == reference.probability
        assert one.value == reference.value
        assert [e.probability for e in one.per_session] == [
            e.probability for e in reference.per_session
        ]

    def test_methods_are_resolved_not_requested(self, polls_db):
        one = answer(POLLS_Q, polls_db)
        assert one.requested_method == "auto"
        assert one.methods and "auto" not in one.methods
        naive = answer(POLLS_Q, polls_db, group_sessions=False)
        assert set(one.methods) == {e.solver for e in naive.per_session}

    def test_count_answer(self, polls_db):
        one = answer(f"COUNT {POLLS_Q}", polls_db)
        reference = answer(POLLS_Q, polls_db, optimize=False)
        assert one.kind == "count"
        assert one.expectation == pytest.approx(
            sum(e.probability for e in reference.per_session)
        )
        assert one.requested_method == "auto"

    def test_topk_answer(self, polls_db):
        one = answer(f"TOPK 2 {POLLS_Q}", polls_db)
        assert one.kind == "top_k"
        assert len(one.ranking) == 2
        assert one.request.k == 2
        # The paper's pruning bookkeeping survives in the answer stats.
        assert one.stats["n_upper_bound_evaluations"] == 3
        assert one.stats["upper_bound_seconds"] >= 0.0
        assert one.stats["exact_seconds"] >= 0.0

    def test_aggregate_answer(self, polls_db):
        one = answer(f"AGG mean(V.age) {POLLS_Q}", polls_db, seed=0)
        assert one.kind == "aggregate"
        assert one.expectation == one.value
        assert 0.0 <= one.stats["probability_any"] <= 1.0
        assert 20.0 <= one.value <= 50.0  # ages in the polls example

    def test_kind_checked_accessors(self, polls_db):
        one = answer(f"COUNT {POLLS_Q}", polls_db)
        with pytest.raises(ValueError, match="accessor"):
            one.probability
        with pytest.raises(ValueError, match="accessor"):
            one.ranking
        assert one.expectation == one.value

    def test_programmatic_requests(self, polls_db):
        query = parse_query(POLLS_Q)
        assert answer(Probability(query), polls_db).kind == "probability"
        assert answer(Count(query), polls_db).kind == "count"
        topk = answer(TopK(query, k=1, strategy="naive"), polls_db)
        assert topk.request.strategy == "naive"
        assert topk.stats["n_upper_bound_evaluations"] == 0
        assert topk.stats["n_pruned"] == 0

    def test_stats_keys_per_kind(self, polls_db):
        # The server puts ``stats`` on the wire verbatim: pin its shape.
        batch = answer_many(
            [
                POLLS_Q,
                f"COUNT {POLLS_Q}",
                f"AGG mean(V.age) {POLLS_Q}",
                f"TOPK 2 {POLLS_Q}",
            ],
            polls_db,
        )
        counters = ["batched", "cache_hits", "n_solver_calls", "n_groups"]
        assert list(batch[0].stats) == counters
        assert list(batch[1].stats) == counters
        assert list(batch[2].stats) == counters + [
            "probability_any", "weighted_average", "n_worlds", "statistic",
        ]
        assert list(batch[3].stats) == [
            "n_solver_calls", "cache_hits", "n_exact_evaluations",
            "n_upper_bound_evaluations", "n_pruned", "upper_bound_seconds",
            "exact_seconds",
        ]
        single = answer(POLLS_Q, polls_db)
        assert list(single.stats) == ["n_solver_calls", "n_groups"]

    @pytest.mark.parametrize(
        "entry",
        [answer, lambda request, db, **kw: answer_many([request], db, **kw)],
        ids=["answer", "answer_many"],
    )
    def test_missing_required_solver_option_is_rejected_before_planning(
        self, polls_db, entry, monkeypatch
    ):
        def no_plan(*args, **kwargs):
            raise AssertionError("a request failing validation was planned")

        monkeypatch.setattr("repro.api.evaluate.build_plan", no_plan)
        with pytest.raises(ValueError, match="n_proposals"):
            entry(POLLS_Q, polls_db, method="mis_amp_lite", seed=0)

    @pytest.mark.parametrize(
        "entry",
        [
            answer,
            lambda request, db, **kw: answer_many([request], db, **kw),
            lambda request, db, **kw: PreferenceService().answer(
                request, db, **kw
            ),
            lambda request, db, **kw: PreferenceService().answer_many(
                [request], db, **kw
            ),
        ],
        ids=["answer", "answer_many", "service.answer", "service.answer_many"],
    )
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_a_bad_seed_is_rejected_before_planning(
        self, polls_db, entry, seed, monkeypatch
    ):
        def no_plan(*args, **kwargs):
            raise AssertionError("a request failing validation was planned")

        monkeypatch.setattr("repro.api.evaluate.build_plan", no_plan)
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            entry(POLLS_Q, polls_db, method="rejection", seed=seed)

    def test_a_numpy_integer_seed_is_the_same_seed(self, polls_db):
        plain = answer(POLLS_Q, polls_db, method="rejection", seed=3)
        numpy = answer(POLLS_Q, polls_db, method="rejection", seed=np.int64(3))
        assert numpy.value == plain.value

    @pytest.mark.parametrize(
        "entry",
        [
            answer,
            lambda request, db, **kw: answer_many([request], db, **kw),
            lambda request, db, **kw: PreferenceService().answer(
                request, db, **kw
            ),
            lambda request, db, **kw: PreferenceService().answer_many(
                [request], db, **kw
            ),
        ],
        ids=["answer", "answer_many", "service.answer", "service.answer_many"],
    )
    def test_unknown_solver_option_is_rejected_before_planning(
        self, polls_db, entry, monkeypatch
    ):
        def no_plan(*args, **kwargs):
            raise AssertionError("a request failing validation was planned")

        monkeypatch.setattr("repro.api.evaluate.build_plan", no_plan)
        with pytest.raises(ValueError, match="unknown solver option 'capacity'"):
            entry(POLLS_Q, polls_db, capacity=16)

    @pytest.mark.parametrize(
        "entry",
        [
            answer,
            lambda request, db, **kw: answer_many([request], db, **kw),
            lambda request, db, **kw: PreferenceService(**kw).answer_many(
                [request], db
            ),
            lambda request, db, **kw: answer(
                request, db, optimize=False, **kw
            ),
        ],
        ids=[
            "answer", "answer_many", "service.answer_many",
            "answer(optimize=False)",
        ],
    )
    def test_option_the_resolved_solver_does_not_take_fails_before_solving(
        self, polls_db, entry, monkeypatch
    ):
        # 'pruned' is a bipartite option; POLLS_Q resolves to two_label.
        def no_solve(*args, **kwargs):
            raise AssertionError("a request failing validation was solved")

        monkeypatch.setattr("repro.query.engine.solve_session", no_solve)
        with pytest.raises(
            ValueError,
            match="'pruned' is not accepted by the resolved method 'two_label'",
        ):
            entry(POLLS_Q, polls_db, pruned=False)

    def test_explicit_bipartite_still_accepts_pruned(self, polls_db):
        for pruned, solver in ((True, "bipartite"), (False, "bipartite[basic]")):
            result = answer(POLLS_Q, polls_db, method="bipartite", pruned=pruned)
            assert result.methods == (solver,)
            assert result.value == pytest.approx(answer(POLLS_Q, polls_db).value)

    def test_service_rejects_an_unknown_solver_option(self):
        # meant: cache_capacity
        with pytest.raises(ValueError, match="unknown solver option 'capacity'"):
            PreferenceService(capacity=16)

    def test_solver_options_of_every_method_are_accepted(self):
        """Names come from the solvers' and estimators' signatures, plus
        the plan-level approx_budget."""
        options = dict(
            time_budget=60.0, pruned=True, prune_dead=False, max_items=8,
            n_proposals=5, max_proposals=10, n_samples=100,
            approx_budget=1e6,
        )
        assert PreferenceService(**options).solver_options == options

    def test_aggregate_missing_row_raises_key_error(self, polls_db):
        with pytest.raises(KeyError):
            answer(f"AGG mean(C.age) {POLLS_Q}", polls_db)


def plackett_luce_polls(keep_rim: bool = False) -> PPDatabase:
    """The Figure 1 database with ``P``'s ``('Ann', '5/5')`` session a
    Plackett-Luce model, alone or (``keep_rim``) beside the RIM ones."""
    polls = polling_example()
    p_relation = polls.prelation("P")
    sessions = {
        key: p_relation.model_of(key)
        for key in (p_relation.session_keys() if keep_rim else [])
    }
    skills = {"Trump": 1.0, "Clinton": 2.0, "Sanders": 1.5, "Rubio": 0.5}
    sessions[("Ann", "5/5")] = PlackettLuce(skills)
    return PPDatabase(
        orelations=[polls.orelation("C"), polls.orelation("V")],
        prelations=[PRelation("P", ["voter", "date"], sessions)],
    )


class TestNonRimSessions:
    """A session model that is not a RIM is a request error (a 400 over
    HTTP) for every method that needs one, and answers under the
    model-agnostic methods, cache or not."""

    @pytest.mark.parametrize(
        "method",
        ["auto", "auto-approx", "two_label", "lifted", "mis_amp_lite",
         "mis_amp_adaptive"],
    )
    def test_rim_methods_refuse_at_plan_build(self, method):
        options = {"n_proposals": 5} if method == "mis_amp_lite" else {}
        expected = re.escape(f"method {method!r}") + r".*\('Ann', '5/5'\)"
        with pytest.raises(ValueError, match=expected + ".*PlackettLuce"):
            answer(
                POLLS_Q, plackett_luce_polls(), method=method, seed=0,
                **options,
            )

    def test_the_service_refuses_with_a_value_error(self):
        service = PreferenceService(backend="serial")
        with pytest.raises(ValueError, match="PlackettLuce"):
            service.answer(POLLS_Q, plackett_luce_polls(), method="auto")

    @pytest.mark.parametrize("method", ["rejection", "brute"])
    def test_model_agnostic_methods_answer_through_a_cache(self, method):
        db = plackett_luce_polls()
        plain = answer(POLLS_Q, db, method=method, seed=0)
        cached = answer(
            POLLS_Q, db, method=method, seed=0, cache=SolverCache()
        )
        assert 0.0 < plain.value < 1.0
        assert cached.value == plain.value

    def test_the_process_backend_solves_them_in_process(self):
        # A non-RIM model has no freeze() form to ship to a worker; the
        # RIM sessions beside it still go to the pool.
        db = plackett_luce_polls(keep_rim=True)
        service = PreferenceService(backend="process", max_workers=2)
        batch = service.answer_many([f"COUNT {POLLS_Q}"], db, method="brute")
        want = answer(f"COUNT {POLLS_Q}", db, method="brute")
        assert batch.n_distinct_solves == db.prelation("P").n_sessions > 2
        assert batch.answers[0].value == want.value

    def test_upper_bound_top_k_refuses_and_naive_answers(self):
        db = plackett_luce_polls()
        with pytest.raises(ValueError, match="strategy 'naive'"):
            answer(TopK(POLLS_Q, k=1), db, method="brute")
        naive = answer(TopK(POLLS_Q, k=1, strategy="naive"), db, method="brute")
        assert [key for key, _ in naive.ranking] == [("Ann", "5/5")]


# ----------------------------------------------------------------------
# Exact-equality oracles: each kind against a plan-free reference
# ----------------------------------------------------------------------


def reference_works(query, db):
    """``(work, labeling, Pr(Q | s))`` per selected session, solved alone.

    Built from the engine primitives without a plan: no grouping, no
    cache, no optimizer.  Unsatisfiable sessions carry ``None`` and 0.
    """
    analysis = analyze(query, db)
    items = db.prelation(analysis.p_relation).items
    labelings = {}
    scored = []
    for work in compile_session_work(query, db, analysis=analysis):
        if work.union is None:
            scored.append((work, None, 0.0))
            continue
        if work.union not in labelings:
            labelings[work.union] = labeling_for_patterns(
                work.union.patterns, items, db
            )
        labeling = labelings[work.union]
        probability, _ = solve_session(work.model, labeling, work.union)
        scored.append((work, labeling, probability))
    return scored


def reference_topk(query, db, k, strategy, n_edges):
    """``top(Q, k)`` as a plain loop: (ranking, n_exact, n_upper_bound)."""
    scored = reference_works(query, db)
    if strategy == "naive":
        ranking = [(work.key, p) for work, _, p in scored]
        ranking.sort(key=lambda pair: (-pair[1], repr(pair[0])))
        return ranking[:k], len(scored), 0
    bounded = [
        (
            0.0
            if labeling is None
            else session_upper_bound(work.model, labeling, work.union, n_edges),
            work.key,
            p,
        )
        for work, labeling, p in scored
    ]
    bounded.sort(key=lambda triple: (-triple[0], repr(triple[1])))
    confirmed, n_exact = [], 0
    for bound, key, p in bounded:
        if len(confirmed) >= k:
            kth = sorted((q for _, q in confirmed), reverse=True)[k - 1]
            if kth >= bound:
                break
        confirmed.append((key, p))
        n_exact += 1
    confirmed.sort(key=lambda pair: (-pair[1], repr(pair[0])))
    return confirmed[:k], n_exact, len(scored)


def reference_aggregate(query, db, relation, column, statistic, n_worlds, rng):
    """The Section-7 possible-world estimate as a standalone numpy recipe.

    Returns ``(expectation, probability_any, weighted_average)``.
    """
    attribute_relation = db.orelation(relation)
    column_index = attribute_relation.column_index(column)
    per_session = [
        (
            p,
            float(
                attribute_relation.first_row_where({0: work.key[0]})[
                    column_index
                ]
            ),
        )
        for work, _, p in reference_works(query, db)
    ]
    probabilities = np.array([p for p, _ in per_session])
    values = np.array([v for _, v in per_session])
    weighted_total = float(probabilities @ values)
    probability_mass = float(probabilities.sum())
    weighted_average = (
        weighted_total / probability_mass if probability_mass > 0 else 0.0
    )
    if rng is None:
        rng = np.random.default_rng(0)
    draws = rng.random((n_worlds, len(per_session))) < probabilities
    any_satisfied = draws.any(axis=1)
    if statistic == "mean":
        counts = draws.sum(axis=1)
        sums = draws @ values
        with np.errstate(invalid="ignore"):
            world_values = np.where(
                counts > 0, sums / np.maximum(counts, 1), 0.0
            )
        satisfied_values = world_values[any_satisfied]
    else:
        satisfied_values = (draws @ values)[any_satisfied]
    expectation = (
        float(satisfied_values.mean()) if len(satisfied_values) else 0.0
    )
    return expectation, float(any_satisfied.mean()), weighted_average


class TestOracles:
    """Every kind of ``answer()`` equals its plan-free reference exactly."""

    def test_count_is_probability_per_session_sum(self, crowd_db):
        q = parse_query(CROWD_Q)
        count = answer(Count(q), crowd_db)
        reference = reference_works(q, crowd_db)
        assert count.value == float(sum(p for _, _, p in reference))
        assert [(e.key, e.probability) for e in count.per_session] == [
            (work.key, p) for work, _, p in reference
        ]
        assert count.requested_method == "auto"
        assert count.methods == tuple(
            sorted(
                {
                    e.solver
                    for e in answer(q, crowd_db).per_session
                    if e.solver != "unsatisfiable"
                }
            )
        )

    def test_topk_matches_reference_loop(self, crowd_db):
        """answer(TopK) == the top-k pruning algorithm as a plain loop."""
        q = parse_query(CROWD_Q)
        for k in (1, 3):
            for strategy in ("naive", "upper_bound"):
                ranking, n_exact, n_upper = reference_topk(
                    q, crowd_db, k, strategy, 1
                )
                one = answer(TopK(q, k=k, strategy=strategy), crowd_db)
                assert one.value == ranking
                assert one.stats["n_exact_evaluations"] == n_exact
                assert one.stats["n_upper_bound_evaluations"] == n_upper

    @pytest.mark.parametrize("statistic", ("mean", "sum"))
    def test_aggregate_matches_reference_oracle(self, crowd_db, statistic):
        q = parse_query(CROWD_Q)
        expectation, probability_any, weighted_average = reference_aggregate(
            q, crowd_db, "V", "age", statistic, 10_000, None
        )
        one = answer(
            Aggregate(q, relation="V", column="age", statistic=statistic),
            crowd_db,
        )
        assert one.value == expectation
        assert one.stats["probability_any"] == probability_any
        assert one.stats["weighted_average"] == weighted_average

    def test_warm_topk_computes_no_bound(self, crowd_db, monkeypatch):
        """A repeated TOPK reads every bound from the shared cache."""
        calls = []

        def counting(*args):
            calls.append(args)
            return session_upper_bound(*args)

        monkeypatch.setattr(
            "repro.plan.execute.session_upper_bound", counting
        )
        cache = SolverCache()
        # warm the solves
        answer(f"COUNT {CROWD_CHAIN_Q}", crowd_db, cache=cache)
        first = answer(f"TOPK 2 {CROWD_CHAIN_Q}", crowd_db, cache=cache)
        n_first = len(calls)
        second = answer(f"TOPK 2 {CROWD_CHAIN_Q}", crowd_db, cache=cache)
        assert n_first > 0 and len(calls) == n_first
        assert second.value == first.value
        assert second.per_session == first.per_session
        timings = ("upper_bound_seconds", "exact_seconds")
        assert {
            name: value for name, value in second.stats.items()
            if name not in timings
        } == {
            name: value for name, value in first.stats.items()
            if name not in timings
        }
        assert second.stats["upper_bound_seconds"] == 0.0

    def test_exact_bound_topk_computes_no_bound(self, crowd_db, monkeypatch):
        """A two-label union's bound would be its exact probability: the
        top-k reads the eagerly solved probability instead, and answers
        as the naive strategy does."""
        calls = []

        def counting(*args):
            calls.append(args)
            return session_upper_bound(*args)

        monkeypatch.setattr(
            "repro.plan.execute.session_upper_bound", counting
        )
        bounded = answer(TopK(parse_query(CROWD_Q), k=2), crowd_db)
        assert calls == []
        assert bounded.stats["upper_bound_seconds"] == 0.0
        assert bounded.stats["n_upper_bound_evaluations"] == bounded.n_sessions
        naive = answer(
            TopK(parse_query(CROWD_Q), k=2, strategy="naive"), crowd_db
        )
        assert bounded.value == naive.value

    def test_topk_prunes_lazy_solves(self, crowd_db):
        pruned = answer(
            TopK(parse_query(CROWD_Q), k=1, strategy="upper_bound"), crowd_db
        )
        assert (
            pruned.stats["n_exact_evaluations"]
            < pruned.stats["n_upper_bound_evaluations"]
        )

    def test_rng_topk_stream_is_unchanged(self, crowd_db):
        """Approximate top-k draws one stream per solve, reproducibly."""
        request = TopK(parse_query(CROWD_Q), k=2, strategy="upper_bound")
        first = answer(
            request, crowd_db, method="rejection", seed=5, n_samples=200
        )
        second = answer(
            request, crowd_db, method="rejection", seed=5, n_samples=200
        )
        assert first.value == second.value

    def test_aggregate_default_rng_is_stable(self, crowd_db):
        request = Aggregate(parse_query(CROWD_Q), relation="V", column="age")
        first = answer(request, crowd_db)
        second = answer(request, crowd_db)
        assert first.value == second.value
        assert first.stats["probability_any"] == second.stats["probability_any"]
        assert first.stats["n_worlds"] == 10_000


# ----------------------------------------------------------------------
# Mixed-kind batches
# ----------------------------------------------------------------------


class TestMixedBatches:
    def test_mixed_kinds_share_solves(self, crowd_db):
        """Count + Probability of the same query cost one set of solves."""
        prob_only = PreferenceService().answer_many([CROWD_Q], crowd_db)
        count_only = PreferenceService().answer_many(
            [f"COUNT {CROWD_Q}"], crowd_db
        )
        mixed = PreferenceService().answer_many(
            [CROWD_Q, f"COUNT {CROWD_Q}"], crowd_db
        )
        assert isinstance(prob_only, BatchAnswer)
        assert isinstance(mixed, BatchAnswer)
        assert mixed.n_distinct_solves == prob_only.n_distinct_solves
        assert mixed.n_distinct_solves == count_only.n_distinct_solves

    def test_mixed_batch_values_match_single_requests(self, crowd_db):
        service = PreferenceService()
        mixed = service.answer_many(
            [
                CROWD_Q,
                f"COUNT {CROWD_Q}",
                f"TOPK 2 {CROWD_Q}",
                f"AGG mean(V.age) {CROWD_Q}",
            ],
            crowd_db,
        )
        assert [one.kind for one in mixed] == [
            "probability", "count", "top_k", "aggregate",
        ]
        sequential = answer(CROWD_Q, crowd_db)
        assert mixed[0].value == sequential.probability
        assert mixed[1].value == pytest.approx(
            sum(e.probability for e in sequential.per_session)
        )
        assert mixed[2].value == answer(TopK(CROWD_Q, k=2), crowd_db).value
        solo_aggregate = answer(
            Aggregate(CROWD_Q, relation="V", column="age"), crowd_db
        )
        assert mixed[3].value == solo_aggregate.value

    def test_warm_mixed_batch_is_all_cache_hits(self, crowd_db):
        service = PreferenceService()
        requests = [CROWD_Q, f"COUNT {CROWD_Q}"]
        service.answer_many(requests, crowd_db)
        warm = service.answer_many(requests, crowd_db)
        assert warm.n_distinct_solves == 0
        assert warm.n_cache_hits > 0

    def test_answer_many_without_service(self, polls_db):
        batch = answer_many(
            [POLLS_Q, f"COUNT {POLLS_Q}", f"TOPK 1 {POLLS_Q}"], polls_db
        )
        assert isinstance(batch, BatchAnswer)
        assert batch.n_requests == 3
        assert len(batch.values) == 3
        assert batch.backend == "serial"

    def test_pure_boolean_batch_is_bit_identical(self, crowd_db):
        """A Boolean batch equals sequential single-request answers."""
        service = PreferenceService()
        batch = service.answer_many([CROWD_Q, CROWD_Q], crowd_db)
        sequential = answer(CROWD_Q, crowd_db)
        for result in batch:
            assert result.probability == sequential.probability
            assert [(e.key, e.probability, e.solver) for e in result.per_session] == [
                (e.key, e.probability, e.solver)
                for e in sequential.per_session
            ]

    def test_approximate_mixed_batch_shares_solves(self, polls_db):
        alone = answer_many(
            [POLLS_Q], polls_db, method="rejection", n_samples=200
        )
        batch = answer_many(
            [POLLS_Q, f"COUNT {POLLS_Q}"],
            polls_db,
            method="rejection",
            n_samples=200,
        )
        assert batch.n_distinct_solves == alone.n_distinct_solves
        assert batch[0].value == alone[0].value
        assert batch[1].value == sum(
            one.probability for one in alone[0].per_session
        )

    def test_approximate_batch_runs_on_the_process_backend(self, polls_db):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = answer_many(
                [POLLS_Q],
                polls_db,
                method="rejection",
                backend="process",
                max_workers=2,
                n_samples=100,
            )
        assert batch.backend == "process"
        assert batch[0].value == answer(
            POLLS_Q, polls_db, method="rejection", n_samples=100
        ).value


# ----------------------------------------------------------------------
# Explain over aggregate plans
# ----------------------------------------------------------------------


EXPLAIN_GOLDEN = """\
== query plan: 2 queries, method=auto, group_sessions=on ==
q0: COUNT Q() <- P(_, _; 'Trump'; 'Clinton')
  SelectSessions[P]  sessions 3 -> 3
  GroundSessions  satisfiable=3 unsatisfiable=0
  CompileUnion #2  z=1 sessions=3
  Solve #3  method=two_label cost~1.6e+01 sessions=2  shared_by=q0,q1
  Solve #4  method=two_label cost~1.6e+01 sessions=2  shared_by=q0,q1
  Solve #5  method=two_label cost~1.6e+01 sessions=2  shared_by=q0,q1
  CountSessions  E[count(Q)] = sum(p_s) over 3 sessions
q1: TOPK 2 Q() <- P(_, _; 'Trump'; 'Clinton')
  SelectSessions[P]  sessions 3 -> 3
  GroundSessions  satisfiable=3 unsatisfiable=0
  CompileUnion #9  z=1 sessions=3
  Solve #3  (shared; see above)
  Solve #4  (shared; see above)
  Solve #5  (shared; see above)
  TopKSessions  k=2 strategy=upper_bound n_edges=1 over 3 sessions
CombineQueries  2 queries
passes: simplify_unions, resolve_methods, eliminate_common_solves, annotate_costs, order_solves
solves: planned=6 eliminated=3 frontier=3"""


class TestAggregateExplain:
    def test_mixed_kind_explain_golden(self, polls_db):
        plan = build_plan(
            [
                "COUNT P(_, _; 'Trump'; 'Clinton')",
                "TOPK 2 P(_, _; 'Trump'; 'Clinton')",
            ],
            polls_db,
        )
        optimize_plan(plan, canonical=True)
        assert plan.explain() == EXPLAIN_GOLDEN

    def test_aggregate_terminal_renders(self, polls_db):
        plan = build_plan(
            f"AGG mean(V.age) {POLLS_Q}", polls_db
        )
        optimize_plan(plan, canonical=True)
        text = plan.explain()
        assert "AttributeAggregate  E[mean(V.age) | count(Q) > 0]" in text
        assert "n_worlds=10000" in text

    def test_executed_topk_reports_pruning(self, crowd_db):
        plan = build_plan(f"TOPK 1 {CROWD_CHAIN_Q}", crowd_db)
        optimize_plan(plan, canonical=True)
        execution = execute_plan(plan)
        text = plan.explain(execution)
        assert "[exact=" in text
        assert "[pruned]" in text  # lazy solves the bound pruning skipped
        assert "[pruned] bound=" in text
        assert "bounds: 0 cached," in text
        assert " 0 exact" in text

    def test_executed_topk_reports_exact_bounds(self, crowd_db):
        """Solves whose bound is their exact probability show as exact:
        solved with the eager frontier, never pruned, no bound node."""
        plan = build_plan(f"TOPK 1 {CROWD_Q}", crowd_db)
        optimize_plan(plan, canonical=True)
        text = plan.explain(execute_plan(plan))
        (terminal,) = plan.aggregate_nodes()
        n_solves = len(terminal.solve_ids())
        assert f"0 computed, {n_solves} exact" in text
        assert text.count("bound=exact") == n_solves
        assert "[pruned]" not in text

    def test_executed_naive_topk_reports_no_bounds(self, crowd_db):
        """A naive top-k reads no bounds, even when an upper-bound one in
        the same batch bounds the same solves."""
        plan = build_plan(
            [
                TopK(parse_query(CROWD_Q), k=1, strategy="naive"),
                TopK(parse_query(CROWD_Q), k=1),
            ],
            crowd_db,
        )
        optimize_plan(plan, canonical=True)
        text = plan.explain(execute_plan(plan))
        lines = [line for line in text.splitlines() if "TopKSessions" in line]
        assert len(lines) == 2
        assert "strategy=naive" in lines[0] and "bounds:" not in lines[0]
        assert "strategy=upper_bound" in lines[1] and "bounds:" in lines[1]


# ----------------------------------------------------------------------
# The query CLI
# ----------------------------------------------------------------------


class TestQueryCli:
    def test_query_cli_probability(self, capsys):
        from repro.__main__ import main

        assert main(
            ["query", "P('Ann', '5/5'; 'Trump'; 'Clinton')",
             "--dataset", "polls"]
        ) == 0
        out = capsys.readouterr().out
        assert "kind: probability" in out
        assert "Pr(Q | D)" in out
        assert "resolved_methods=[two_label]" in out

    def test_query_cli_count_topk_agg(self, capsys):
        from repro.__main__ import main

        base = ["--sessions", "12", "--movies", "6"]
        assert main(
            ["query", "COUNT P(v; m1; m2), M(m1, 'Comedy', _, _, _)"] + base
        ) == 0
        assert "E[count(Q)]" in capsys.readouterr().out
        assert main(
            ["query", "TOPK 2 P(v; m1; m2), M(m1, _, 'F', _, _)"] + base
        ) == 0
        out = capsys.readouterr().out
        assert "top-2 sessions" in out and "rank" in out
        assert main(
            ["query", "AGG mean(V.age) P(v; m1; m2), M(m1, 'Comedy', _, _, _)"]
            + base
        ) == 0
        assert "probability_any" in capsys.readouterr().out

    def test_query_cli_rejects_bad_text(self, capsys):
        from repro.__main__ import main

        assert main(["query", "TOPK x P(v; m1; m2)"]) == 2
        assert "cannot evaluate query" in capsys.readouterr().err

    def test_query_cli_rejects_unknown_method(self, capsys):
        from repro.__main__ import main

        assert main(["query", POLLS_Q, "--method", "magic"]) == 2
        assert "unknown method" in capsys.readouterr().err

    def test_explain_cli_accepts_prefixed_requests(self, capsys):
        from repro.__main__ import main

        assert main(
            ["explain", f"COUNT {POLLS_Q}", "--dataset", "polls"]
        ) == 0
        out = capsys.readouterr().out
        assert "CountSessions" in out

    def test_explain_cli_reports_missing_aggregate_relation(self, capsys):
        # The AGG attribute join runs at plan-build time; a bad relation
        # must produce the diagnostic, not a traceback.
        from repro.__main__ import main

        assert main(
            ["explain", f"AGG mean(Nope.age) {POLLS_Q}", "--dataset", "polls"]
        ) == 2
        assert "cannot plan query" in capsys.readouterr().err
