"""The plan memo: a service reuses an optimized plan for a repeated request.

An optimized plan is immutable: execution keeps its bound nodes and its
outcomes in its own :class:`~repro.plan.execute.PlanExecution`, so one
plan may run any number of times, on several threads at once.  A
:class:`~repro.service.service.PreferenceService` keeps its optimized
plans in an :class:`~repro.service.cache.LRUStore` keyed by the batch's
requests by value, the method, the solver options, ``session_limit``, the
database object and its generation (DESIGN.md Section 6.3).  These tests
pin that contract: a memoized plan answers exactly as a fresh one does,
it is never served for another request, database or generation, and
nothing writes to it.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro.api import answer_many
from repro.api.evaluate import assemble_answers
from repro.api.requests import Aggregate, Count, Probability, TopK, parse_request
from repro.datasets.crowdrank import crowdrank_database
from repro.db.mutable import MutablePPDatabase
from repro.plan import build_plan, execute_plan, optimize_plan
from repro.rankings.permutation import Ranking
from repro.rim.mallows import Mallows
from repro.service.cache import SolverCache
from repro.service.keys import named_union_fingerprint
from repro.service.service import PreferenceService
from repro.stream import answers_equal

pytestmark = pytest.mark.timeout(120)

QUERIES = (
    "P(v; m1; m2), M(m1, 'Action', _, _, _), M(m2, _, _, _, 'short')",
    "P(v; m1; m2), V(v, sex, _), M(m1, _, sex, _, _), "
    "M(m2, 'Thriller', _, _, _)",
    "P(v; m1; m2), P(v; m2; m3), M(m1, 'Comedy', _, _, _), "
    "M(m2, _, 'F', _, _), M(m3, _, _, _, 'short')",
)
PREFIXES = ("", "COUNT ", "TOPK 3 ", "AGG mean(V.age) ")
#: Every request kind over every query: a mixed-kind corpus.
CORPUS = [prefix + query for query in QUERIES for prefix in PREFIXES]
#: Stats keys that time a run rather than describe its answer.
TIMINGS = ("upper_bound_seconds", "exact_seconds")


@pytest.fixture(scope="module")
def db():
    return crowdrank_database(n_workers=20, n_movies=6, seed=7)


def observable(one):
    """Everything an answer reports but its timings."""
    return (
        one.kind,
        one.value,
        [(s.key, s.probability, s.solver) for s in one.per_session],
        one.methods,
        one.requested_method,
        one.n_sessions,
        {key: value for key, value in one.stats.items() if key not in TIMINGS},
    )


def fresh_plan(requests, db, method="auto", options=None, session_limit=None):
    plan = build_plan(
        requests, db, method=method, options=options,
        session_limit=session_limit,
    )
    return optimize_plan(plan, canonical=True)


def snapshot(plan):
    """A structural copy of a plan: ids, order, counters and every node's
    fields (object-valued fields by identity, containers by value)."""

    def value(field):
        if isinstance(field, dict):
            return {key: value(item) for key, item in field.items()}
        if isinstance(field, (list, tuple)):
            return type(field)(value(item) for item in field)
        if field is None or isinstance(field, (bool, int, float, str)):
            return field
        return ("object", id(field))

    return (
        plan.n_ids,
        list(plan.solve_order),
        list(plan.aggregates),
        plan.combine,
        list(plan.passes_applied),
        plan.n_solves_planned,
        plan.n_solves_eliminated,
        dict(plan.options),
        {
            node_id: (
                type(node).__name__,
                {
                    field.name: value(getattr(node, field.name))
                    for field in dataclasses.fields(node)
                },
            )
            for node_id, node in plan.nodes.items()
        },
    )


class TestGeneration:
    def test_an_entry_is_never_served_at_the_next_generation(self, db):
        mutable = MutablePPDatabase.from_database(db)
        service = PreferenceService(backend="serial")
        requests = [f"COUNT {QUERIES[0]}", f"TOPK 3 {QUERIES[0]}"]
        first = service.answer_many(requests, mutable)
        service.answer_many(requests, mutable)
        assert service.plans.stats()["hits"] == 1
        misses = service.plans.stats()["misses"]

        prelation = mutable.prelation("P")
        key = next(iter(prelation.session_keys()))
        mutable.update_session(
            "P", key, Mallows(Ranking(list(prelation.items)), 0.05)
        )
        second = service.answer_many(requests, mutable)

        assert service.plans.stats()["misses"] == misses + 1
        scratch = answer_many(requests, mutable)
        for got, want in zip(second.answers, scratch.answers):
            assert answers_equal(got, want)
            assert got.methods == want.methods
        assert second.values[0] != first.values[0]

    def test_an_entry_is_never_served_for_another_database(self, db):
        twin = crowdrank_database(n_workers=20, n_movies=6, seed=7)
        service = PreferenceService(backend="serial")
        one = service.plan([QUERIES[0]], db)
        other = service.plan([QUERIES[0]], twin)
        assert other is not one
        assert service.plans.stats()["misses"] == 2


#: Pairs of (requests, plan options) that differ in one field each.
KEY_PAIRS = {
    "strategy": (
        ([TopK(QUERIES[0], k=3)], {}),
        ([TopK(QUERIES[0], k=3, strategy="naive")], {}),
    ),
    "n_edges": (
        ([TopK(QUERIES[0], k=3)], {}),
        ([TopK(QUERIES[0], k=3, n_edges=2)], {}),
    ),
    "n_worlds": (
        ([Aggregate(QUERIES[0], "V", "age")], {}),
        ([Aggregate(QUERIES[0], "V", "age", n_worlds=500)], {}),
    ),
    "session_limit": (
        ([Probability(QUERIES[0])], {}),
        ([Probability(QUERIES[0])], {"session_limit": 5}),
    ),
    "method": (
        ([Probability(QUERIES[0])], {}),
        ([Probability(QUERIES[0])], {"method": "two_label"}),
    ),
    "approx_budget": (
        ([Probability(QUERIES[0])],
         {"method": "auto-approx", "approx_budget": 1e3}),
        ([Probability(QUERIES[0])],
         {"method": "auto-approx", "approx_budget": 1e9}),
    ),
}


class TestKeys:
    @pytest.mark.parametrize("field", sorted(KEY_PAIRS))
    def test_requests_that_differ_never_share_a_plan(self, db, field):
        service = PreferenceService(backend="serial")
        (left, left_options), (right, right_options) = KEY_PAIRS[field]
        first = service.plan(left, db, **left_options)
        second = service.plan(right, db, **right_options)
        assert second is not first
        assert service.plans.stats()["misses"] == 2
        assert service.plan(left, db, **left_options) is first
        assert service.plan(right, db, **right_options) is second

    def test_two_parses_of_one_text_share_a_plan(self, db):
        service = PreferenceService(backend="serial")
        text = f"TOPK 3 {QUERIES[1]}"
        first = service.plan([parse_request(text)], db)
        second = service.plan([parse_request(text)], db)
        assert second is first
        assert (service.plans.stats()["hits"],
                service.plans.stats()["misses"]) == (1, 1)

    def test_a_batch_keys_by_its_requests_in_order(self, db):
        service = PreferenceService(backend="serial")
        pair = [QUERIES[0], f"COUNT {QUERIES[1]}"]
        forward = service.plan(pair, db)
        backward = service.plan(pair[::-1], db)
        assert backward is not forward
        assert service.plan(pair, db) is forward


class TestAnswers:
    def test_memoized_answers_equal_fresh_ones(self, db):
        memo = PreferenceService(backend="serial")
        reference = PreferenceService(backend="serial")
        for text in CORPUS:
            memo.answer_many([text], db)
            reference.answer_many([text], db)
        assert memo.plans.stats()["misses"] == len(CORPUS)
        for text in CORPUS:
            request = parse_request(text)
            hit = memo.answer_many([request], db).answers[0]
            # The public entry point takes no memo: a fresh plan, on an
            # equally warm cache.
            fresh = answer_many([request], db, cache=reference.cache)
            assert observable(hit) == observable(fresh.answers[0])
            assert hit.request == request
            single = memo.answer(request, db)
            assert single.request is request
        assert memo.plans.stats()["hits"] == 2 * len(CORPUS)

    def test_explain_of_a_memoized_plan_equals_a_fresh_ones(self, db):
        service = PreferenceService(backend="serial")
        for text in CORPUS:
            for _ in range(2):
                service.answer_many([text], db)
            memoized = service.plan([text], db)
            assert service.plans.stats()["misses"] == CORPUS.index(text) + 1
            assert memoized.explain() == fresh_plan([text], db).explain()


class TestImmutability:
    def test_executions_leave_the_plan_as_optimized(self, db):
        service = PreferenceService(backend="serial")
        requests = [
            f"TOPK 3 {QUERIES[0]}", f"AGG mean(V.age) {QUERIES[0]}",
            f"TOPK 2 {QUERIES[2]}", QUERIES[1],
        ]
        plan = service.plan(requests, db)
        before = snapshot(plan)
        first = service.answer_many(requests, db)
        second = service.answer_many(requests, db)
        assert service.plan(requests, db) is plan
        assert snapshot(plan) == before
        assert [one.value for one in first.answers] == [
            one.value for one in second.answers
        ]

    def test_bound_nodes_belong_to_the_execution(self, db):
        plan = fresh_plan([f"TOPK 3 {QUERIES[0]}"], db)
        n_nodes = len(plan.nodes)
        execution = execute_plan(plan, cache=SolverCache())
        assert execution.bounds
        bound_ids = execution.bound_ids()
        assert min(bound_ids) >= plan.n_ids
        assert len(plan.nodes) == n_nodes
        again = execute_plan(plan, cache=SolverCache())
        assert again.bound_ids() == bound_ids

    def test_bound_keys_are_computed_once_per_plan(self, db, monkeypatch):
        """The optimizer keys every bound; an execution of a memoized plan
        names no union again and reads the same keys."""
        service = PreferenceService(backend="serial")
        requests = [f"TOPK 3 {QUERIES[0]}", f"TOPK 2 {QUERIES[2]}"]
        first = service.answer_many(requests, db)
        plan = service.plan(requests, db)
        stored = [dict(terminal.bound_keys) for terminal in plan.aggregate_nodes()]
        assert all(stored)
        named: list = []

        def counting(union):
            named.append(union)
            return named_union_fingerprint(union)

        monkeypatch.setattr(
            "repro.service.keys.named_union_fingerprint", counting
        )
        monkeypatch.setattr(
            "repro.plan.grounding.named_union_fingerprint", counting
        )
        second = service.answer_many(requests, db)
        assert service.plans.stats()["hits"] >= 1
        execution = execute_plan(plan, cache=SolverCache())
        assert named == []
        for terminal, keys in zip(plan.aggregate_nodes(), stored):
            assert {
                solve_id: execution.bounds[(solve_id, terminal.n_edges)]
                .cache_key
                for solve_id in terminal.solve_ids()
            } == keys
        assert [one.value for one in second.answers] == [
            one.value for one in first.answers
        ]

    def test_concurrent_executions_answer_as_a_fresh_plan(self, db):
        requests = [f"TOPK 3 {QUERIES[0]}", f"AGG mean(V.age) {QUERIES[1]}",
                    f"COUNT {QUERIES[2]}", QUERIES[0]]
        fresh = fresh_plan(requests, db)
        want = [
            observable(one)
            for one in assemble_answers(
                fresh, execute_plan(fresh), batched=True
            )
        ]
        plan = PreferenceService(backend="serial").plan(requests, db)
        results: list = [None] * 8
        start = threading.Barrier(len(results))

        def run(index: int) -> None:
            start.wait(timeout=60)
            execution = execute_plan(plan)
            results[index] = [
                observable(one)
                for one in assemble_answers(plan, execution, batched=True)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(index,))
                for index in range(len(results))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [want] * len(results)


class TestRequests:
    @pytest.mark.parametrize(
        "request_, field, value",
        [
            (Probability(QUERIES[0]), "query", None),
            (Count(QUERIES[0]), "query", None),
            (TopK(QUERIES[0], k=3), "k", 4),
            (Aggregate(QUERIES[0], "V", "age"), "n_worlds", 10),
        ],
        ids=["probability", "count", "top_k", "aggregate"],
    )
    def test_assigning_a_field_raises(self, request_, field, value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(request_, field, value)

    @pytest.mark.parametrize("text", CORPUS[:4])
    def test_equal_requests_hash_equal(self, text):
        left, right = parse_request(text), parse_request(text)
        assert left is not right
        assert left == right and hash(left) == hash(right)
