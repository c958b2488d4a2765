"""Tests for the query planner: IR, passes, execution, explain, CLI.

The load-bearing guarantees:

* every optimizer pass (and the full pipeline) leaves probabilities and
  per-session solver attributions bit-identical to the unoptimized plan on
  a seeded query corpus;
* method resolution has exactly one path — the dispatch, the cache keys,
  and the plan pass cannot disagree;
* ``"auto-approx"`` falls back to MIS-AMP only above its state-count
  budget, and is bit-identical to ``"auto"`` below it;
* ``explain()`` output is stable (golden test) and the CLI renders a plan
  for every query class the engine supports.
"""

from __future__ import annotations

import pytest

from repro.api import answer, assemble_answers
from repro.datasets.crowdrank import crowdrank_database
from repro.db.examples import polling_example
from repro.patterns.pattern import LabelPattern, node
from repro.patterns.union import PatternUnion
from repro.plan import (
    annotate_costs,
    build_plan,
    classic_choice,
    eliminate_common_solves,
    execute_plan,
    optimize_plan,
    order_solves,
    resolve_methods,
    resolve_solve_method,
    simplify_union,
    simplify_unions,
)
from repro.query.parser import parse_query
from repro.service.cache import SolverCache
from repro.service.keys import request_fingerprint
from repro.service.service import PreferenceService


@pytest.fixture(scope="module")
def polls_db():
    return polling_example()


@pytest.fixture(scope="module")
def crowd_db():
    return crowdrank_database(n_workers=20, n_movies=6, seed=7)


#: One query per structural class the engine supports, over the polling
#: database: itemwise two-label, constant-vs-variable, chain (general),
#: non-itemwise (groundable coupling variable), session-joined.
POLLS_CORPUS = (
    "P('Ann', '5/5'; 'Trump'; 'Clinton')",
    "P(v, d; x; y), C(x, _, 'F', _, _, _), C(y, _, 'M', _, _, _)",
    "P(v, d; x; y), P(v, d; y; z), C(x, 'D', _, _, _, _)",
    "P(v, d; x; y), C(x, _, _, _, e, _), C(y, _, _, _, e, _)",
    "P(v, d; x; 'Trump'), V(v, s, _, _), C(x, _, s, _, _, _)",
)

#: Overlapping CrowdRank-style workload: shared (model, union) pairs both
#: within and across queries.
CROWD_CORPUS = (
    "P(v; m1; m2), M(m1, 'Comedy', _, _, _), M(m2, _, _, _, 'Long')",
    "P(v; m1; m2), M(m1, _, 'F', _, _), M(m2, 'Thriller', _, _, _)",
    "P(v; m1; m2), M(m1, 'Comedy', _, _, _), M(m2, _, _, _, 'Short')",
    "P(v; m1; m2), P(v; m2; m3), M(m1, 'Comedy', _, _, _), "
    "M(m3, _, _, _, 'Long')",
)


def _signature(result):
    """Everything that must stay bit-identical across plan rewrites."""
    return [
        (evaluation.key, evaluation.probability, evaluation.solver)
        for evaluation in result.per_session
    ]


def _run(db, query, passes=None, cache=None, **kwargs):
    plan = build_plan(parse_query(query), db, **kwargs)
    if passes is not None:
        optimize_plan(plan, passes=passes)
    execution = execute_plan(plan, cache=cache)
    return plan, assemble_answers(
        plan, execution, with_cache=cache is not None
    )[0]


class TestPassEquivalence:
    """Each pass — alone and stacked — is probability/attribution neutral."""

    @pytest.mark.parametrize("query", POLLS_CORPUS + CROWD_CORPUS)
    def test_full_pipeline_matches_unoptimized(self, polls_db, crowd_db, query):
        db = polls_db if query in POLLS_CORPUS else crowd_db
        _, baseline = _run(db, query, passes=())
        optimized = answer(parse_query(query), db)  # optimizer on by default
        assert optimized.probability == baseline.probability
        assert _signature(optimized) == _signature(baseline)

    @pytest.mark.parametrize(
        "passes",
        [
            (simplify_unions,),
            (resolve_methods,),
            (annotate_costs,),
            (resolve_methods, annotate_costs),
            (eliminate_common_solves,),
            (lambda p: eliminate_common_solves(p, canonical=True),),
            (resolve_methods, annotate_costs, order_solves),
            (
                simplify_unions,
                resolve_methods,
                annotate_costs,
                lambda p: eliminate_common_solves(p, canonical=True),
                order_solves,
            ),
            (
                simplify_unions,
                resolve_methods,
                lambda p: eliminate_common_solves(p, canonical=True),
                annotate_costs,
                order_solves,
            ),
        ],
        ids=[
            "simplify",
            "resolve",
            "annotate",
            "resolve+annotate",
            "cse-identity",
            "cse-canonical",
            "lpt",
            "full-canonical",
            "default-order",
        ],
    )
    @pytest.mark.parametrize("query", CROWD_CORPUS)
    def test_each_pass_is_neutral(self, crowd_db, query, passes):
        _, baseline = _run(crowd_db, query, passes=())
        _, rewritten = _run(crowd_db, query, passes=passes)
        assert rewritten.probability == baseline.probability
        assert _signature(rewritten) == _signature(baseline)

    def test_unoptimized_flag_on_answer(self, crowd_db):
        query = parse_query(CROWD_CORPUS[0])
        optimized = answer(query, crowd_db)
        raw = answer(query, crowd_db, optimize=False)
        assert raw.probability == optimized.probability
        assert _signature(raw) == _signature(optimized)
        # Without elimination every satisfiable session solves separately.
        assert raw.stats["n_solver_calls"] >= optimized.stats["n_solver_calls"]

    def test_unoptimized_plan_is_cacheless(self, polls_db):
        # Canonical keys are an optimizer product: the unoptimized
        # reference must neither populate nor consult a supplied cache
        # (and must not pretend it did in its stats).
        query = parse_query("P('Ann', '5/5'; 'Trump'; 'Clinton')")
        cache = SolverCache()
        raw = answer(query, polls_db, cache=cache, optimize=False)
        assert "cache_hits" not in raw.stats
        assert len(cache) == 0
        again = answer(query, polls_db, cache=cache, optimize=False)
        assert again.stats["n_solver_calls"] == raw.stats["n_solver_calls"] > 0

    def test_batch_matches_sequential(self, crowd_db):
        service = PreferenceService()
        batch = service.answer_many(CROWD_CORPUS, crowd_db)
        for text, result in zip(CROWD_CORPUS, batch):
            sequential = answer(parse_query(text), crowd_db)
            assert result.probability == sequential.probability
            assert _signature(result) == _signature(sequential)


class TestPlanStructure:
    def test_elimination_counters(self, crowd_db):
        # The repeated first query makes the cross-query sharing explicit.
        plan = build_plan(
            [parse_query(text) for text in CROWD_CORPUS + (CROWD_CORPUS[0],)],
            crowd_db,
        )
        planned = plan.n_solves_planned
        assert planned == len(plan.solve_order)  # one node per session
        optimize_plan(plan, canonical=True)
        assert plan.n_solves_eliminated > 0
        assert len(plan.solve_order) == planned - plan.n_solves_eliminated
        assert plan.stats()["n_solves_planned"] == planned
        # The canonical grouping merges across queries of the batch, so the
        # frontier undercuts even per-query dedup: some solve nodes carry
        # sessions of several queries.
        assert any(
            len({index for index, _ in node.sessions}) > 1
            for node in plan.solves()
        )

    def test_lpt_orders_frontier_descending(self, crowd_db):
        plan = build_plan(
            [parse_query(text) for text in CROWD_CORPUS], crowd_db
        )
        optimize_plan(plan, canonical=True)
        costs = [node.cost for node in plan.solves()]
        assert costs == sorted(costs, reverse=True)

    def test_group_sessions_false_skips_elimination(self, crowd_db):
        plan = build_plan(
            parse_query(CROWD_CORPUS[0]), crowd_db, group_sessions=False
        )
        optimize_plan(plan)
        assert plan.n_solves_eliminated == 0
        assert "eliminate_common_solves" not in "".join(plan.passes_applied)

    def test_identity_vs_canonical_grouping(self, polls_db):
        # Ann and Dave share the same Mallows reference ranking but are
        # distinct model objects: identity grouping keeps them apart,
        # canonical grouping merges them.
        query = parse_query("P(v, d; 'Clinton'; 'Trump')")
        identity = build_plan(query, polls_db)
        optimize_plan(identity, canonical=False)
        canonical = build_plan(query, polls_db)
        optimize_plan(canonical, canonical=True)
        assert len(canonical.solve_order) <= len(identity.solve_order)


class TestUnifiedMethodResolution:
    def test_single_resolution_path_agrees(self, rng, pyrng):
        from tests.conftest import random_instance

        for _ in range(25):
            _, labeling, union = random_instance(pyrng)
            # The cache key resolves "auto" exactly as the plan pass does.
            assert request_fingerprint(labeling, union) == request_fingerprint(
                labeling, union, classic_choice(union)
            )
            assert (
                resolve_solve_method(union, "auto")
                == classic_choice(union)
            )

    def test_auto_and_explicit_twin_share_cache_entry(self, polls_db):
        cache = SolverCache()
        query = parse_query("P('Ann', '5/5'; 'Trump'; 'Clinton')")
        first = answer(query, polls_db, method="auto", cache=cache)
        second = answer(query, polls_db, method="two_label", cache=cache)
        assert first.stats["n_solver_calls"] == 1
        assert second.stats["n_solver_calls"] == 0
        assert second.stats["cache_hits"] == 1

    def test_explicit_methods_pass_through(self):
        union = PatternUnion(
            [LabelPattern([(node("a", "A"), node("b", "B"))])]
        )
        for name in ("two_label", "lifted", "brute", "mis_amp_lite"):
            assert resolve_solve_method(union, name) == name


class TestAutoApprox:
    def test_below_budget_is_bitwise_auto(self, polls_db):
        query = parse_query("P(v, d; x; y), P(v, d; y; z), C(x, 'D', _, _, _, _)")
        exact = answer(query, polls_db, method="auto")
        budgeted = answer(query, polls_db, method="auto-approx", seed=1)
        assert budgeted.probability == exact.probability
        assert _signature(budgeted) == _signature(exact)

    def test_above_budget_falls_back_to_mis_amp(self, polls_db):
        query = parse_query("P(v, d; x; y), P(v, d; y; z), C(x, 'D', _, _, _, _)")
        result = answer(
            query, polls_db, method="auto-approx", seed=1, approx_budget=1
        )
        exact = answer(query, polls_db, method="auto")
        solvers = {e.solver for e in result.per_session}
        assert any("mis_amp" in name for name in solvers)
        assert result.probability == pytest.approx(exact.probability, abs=0.15)

    def test_fallback_is_the_explicit_estimator_at_the_default_seed(
        self, polls_db
    ):
        query = parse_query("P('Ann', '5/5'; 'Trump'; 'Clinton')")
        fallback = answer(
            query, polls_db, method="auto-approx", approx_budget=1
        )
        explicit = answer(query, polls_db, method="mis_amp_adaptive")
        assert fallback.per_session[0].solver.startswith("mis_amp")
        assert fallback.probability == explicit.probability

    def test_budget_option_never_reaches_solvers(self, polls_db):
        query = parse_query("P('Ann', '5/5'; 'Trump'; 'Clinton')")
        # A generous budget resolves exact; approx_budget must have been
        # popped before the solver signature sees it.
        result = answer(
            query, polls_db, method="auto-approx", approx_budget=1e12
        )
        assert result.per_session[0].solver == "two_label"

    def test_budget_option_harmless_with_other_methods(self, polls_db):
        # The pop is unconditional: a service configured with a budget must
        # keep working when a call overrides the method to plain auto.
        query = parse_query("P('Ann', '5/5'; 'Trump'; 'Clinton')")
        cache = SolverCache()
        budgeted = answer(
            query, polls_db, method="auto", approx_budget=1e6, cache=cache
        )
        plain = answer(query, polls_db, method="auto", cache=cache)
        assert budgeted.probability == plain.probability
        # ...and never perturbs cache keys: the second call is a pure hit.
        assert plain.stats["n_solver_calls"] == 0

    def test_unoptimized_plan_respects_budget(self, polls_db):
        # Lazy resolution on an unoptimized plan must budget against the
        # caller's approx_budget (popped into plan config by the builder),
        # not the default — optimized and unoptimized twins agree on which
        # solves fall back.
        query = parse_query("P('Ann', '5/5'; 'Trump'; 'Clinton')")
        raw = answer(
            query,
            polls_db,
            method="auto-approx",
            seed=2,
            approx_budget=1,
            optimize=False,
        )
        assert all("mis_amp" in e.solver for e in raw.per_session)

    def test_batch_cli_auto_approx_has_rng(self, capsys):
        # With a tiny budget every solve falls back to MIS-AMP, which
        # draws at the CLI's --seed.
        from repro.__main__ import main

        assert (
            main(
                [
                    "batch", "--queries", "2", "--sessions", "10",
                    "--movies", "5", "--repeat", "1",
                    "--method", "auto-approx", "--approx-budget", "1",
                ]
            )
            == 0
        )
        assert "batch serving" in capsys.readouterr().out

    def test_batch_auto_approx_mixes_backends(self, crowd_db):
        service = PreferenceService(method="auto-approx", backend="serial")
        batch = service.answer_many(
            [CROWD_CORPUS[0]], crowd_db, seed=5, approx_budget=1
        )
        solvers = {
            evaluation.solver
            for result in batch
            for evaluation in result.per_session
        }
        assert any("mis_amp" in name for name in solvers)


class TestSimplifyUnions:
    def test_pass_drops_renamed_duplicate_disjuncts(self):
        g1 = LabelPattern([(node("a", "A"), node("b", "B"))])
        g2 = LabelPattern([(node("x", "A"), node("y", "B"))])
        # Bypass the constructor's own dedup to exercise the pass.
        union = PatternUnion([g1])
        forced = PatternUnion.__new__(PatternUnion)
        forced._patterns = (g1, g2)
        assert forced.z == 2
        simplified = simplify_union(forced)
        assert simplified.z == 1
        # Freeze stability: dedup never changes the canonical form.
        assert simplified.freeze() == union.freeze()

    def test_no_op_returns_same_object(self):
        g1 = LabelPattern([(node("a", "A"), node("b", "B"))])
        g2 = LabelPattern([(node("c", "B"), node("d", "C"))])
        union = PatternUnion([g1, g2])
        assert simplify_union(union) is union


class TestPlanCounters:
    def test_cache_accumulates_plan_counters(self, crowd_db):
        service = PreferenceService()
        service.answer_many(CROWD_CORPUS, crowd_db)
        stats = service.stats()
        assert stats["n_solves_planned"] > 0
        assert stats["n_solves_eliminated"] > 0
        assert stats["n_passes_applied"] >= 5
        assert stats["n_solves_planned"] >= stats["n_solves_eliminated"]

    def test_engine_records_when_cached(self, polls_db):
        cache = SolverCache()
        answer(
            parse_query("P('Ann', '5/5'; 'Trump'; 'Clinton')"),
            polls_db,
            cache=cache,
        )
        assert cache.stats().n_solves_planned == 1
        assert cache.stats().as_dict()["n_passes_applied"] >= 5


EXPECTED_EXPLAIN = """\
== query plan: 1 query, method=auto, group_sessions=on ==
q0: Q() <- P(v, d; x; y), C(x, _, 'F', _, _, _), C(y, _, 'M', _, _, _)
  SelectSessions[P]  sessions 3 -> 3
  GroundSessions  satisfiable=3 unsatisfiable=0
  CompileUnion #2  z=1 sessions=3
  Solve #3  method=two_label cost~3.2e+01 sessions=1
  Solve #4  method=two_label cost~3.2e+01 sessions=1
  Solve #5  method=two_label cost~3.2e+01 sessions=1
  AggregateSessions  Pr(Q|D) = 1 - prod(1 - p_s) over 3 sessions
passes: simplify_unions, resolve_methods, eliminate_common_solves, annotate_costs, order_solves
solves: planned=3 eliminated=0 frontier=3"""


class TestExplain:
    def test_golden_output(self, polls_db):
        plan = build_plan(
            parse_query(
                "P(v, d; x; y), C(x, _, 'F', _, _, _), C(y, _, 'M', _, _, _)"
            ),
            polls_db,
        )
        optimize_plan(plan, canonical=True)
        assert plan.explain() == EXPECTED_EXPLAIN

    def test_execution_outcomes_rendered(self, polls_db):
        query = parse_query("P('Ann', '5/5'; 'Trump'; 'Clinton')")
        plan = build_plan(query, polls_db)
        optimize_plan(plan, canonical=True)
        execution = execute_plan(plan)
        text = plan.explain(execution)
        assert "[solved: two_label]" in text
        assert "executed: 1 fresh, 0 cache-served" in text

    @pytest.mark.parametrize("query", POLLS_CORPUS)
    def test_every_query_class_renders(self, polls_db, query):
        plan = build_plan(parse_query(query), polls_db)
        optimize_plan(plan, canonical=True)
        text = plan.explain()
        assert "SelectSessions[P]" in text
        assert "AggregateSessions" in text
        assert "passes:" in text

    def test_batch_plan_renders_combine_node(self, polls_db):
        plan = build_plan(
            [parse_query(POLLS_CORPUS[0]), parse_query(POLLS_CORPUS[1])],
            polls_db,
        )
        optimize_plan(plan, canonical=True)
        text = plan.explain()
        assert "CombineQueries  2 queries" in text


class TestExplainCLI:
    def test_explain_smoke(self, capsys):
        from repro.__main__ import main

        assert (
            main(
                [
                    "explain",
                    "P(v; m1; m2), M(m1, 'Comedy', _, _, _), "
                    "M(m2, _, _, _, 'Long')",
                    "--sessions", "20", "--movies", "6",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Solve #" in out
        assert "eliminated=" in out

    def test_explain_polls_dataset(self, capsys):
        from repro.__main__ import main

        assert (
            main(
                [
                    "explain", "P('Ann', '5/5'; 'Trump'; 'Clinton')",
                    "--dataset", "polls",
                ]
            )
            == 0
        )
        assert "method=two_label" in capsys.readouterr().out

    def test_explain_rejects_bad_query(self, capsys):
        from repro.__main__ import main

        assert (
            main(
                [
                    "explain", "P(v, d; x; y), P(u, d; x; y)",
                    "--dataset", "polls",
                ]
            )
            == 2
        )
        assert "cannot plan query" in capsys.readouterr().err

    def test_batch_prints_planner_counters(self, capsys):
        from repro.__main__ import main

        assert (
            main(
                [
                    "batch", "--queries", "3", "--sessions", "20",
                    "--movies", "6", "--repeat", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "planner: n_solves_planned=" in out
        assert "n_solves_eliminated=" in out
