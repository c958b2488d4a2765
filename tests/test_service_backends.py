"""Tests for the execution backends, the persistent tier, and the planner.

The contract under test: the serial / thread / process backends and the
cold-vs-persistent-cache paths all return *bit-identical* probabilities to
sequential :func:`repro.api.answer`, because the serial and thread
backends solve the plan's live nodes, the process backend ships canonical
``SolveTask`` descriptors, and a thawed solve equals the original solve
exactly.
"""

import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.api import answer
from repro.datasets.crowdrank import crowdrank_database
from repro.db.database import PPDatabase
from repro.db.schema import PRelation
from repro.patterns.labels import Labeling
from repro.patterns.pattern import LabelPattern, PatternNode, chain_pattern
from repro.patterns.union import PatternUnion
from repro.plan.cost import estimate_solve_states, largest_first_order
from repro.plan.nodes import SolveNode
from repro.query.engine import solve_session
from repro.query.parser import parse_query
from repro.rim.mallows import Mallows
from repro.rim.mixture import MallowsMixture
from repro.rim.model import RIM
from repro.service import PreferenceService
from repro.service.cache import SolverCache
from repro.service.executors import (
    ProcessBackend,
    SerialBackend,
    SolveTask,
    ThreadBackend,
    resolve_backend,
    run_solve_task,
    task_model_form,
    thaw_labeling,
    thaw_model,
    thaw_pattern,
    thaw_union,
)
from repro.service.keys import freeze_digest, model_fingerprint
from repro.service.persist import PersistentCache, default_version

QUERIES = [
    "P(v; m1; m2), M(m1, 'Thriller', _, _, _), M(m2, _, _, _, 'short')",
    "P(v; m1; m2), V(v, sex, _), M(m1, _, sex, _, _), M(m2, _, _, _, 'short')",
    "P(v; m1; m2), P(v; m2; m3), M(m1, 'Thriller', _, _, _), "
    "M(m2, _, 'F', _, _), M(m3, _, _, _, 'short')",
]


#: All four request kinds over the Figure 1 database.
POLLS_REQUESTS = [
    f"{kind}P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)"
    for kind in ("", "COUNT ", "TOPK 2 ", "AGG mean(V.age) ")
]

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def db():
    return crowdrank_database(n_workers=25, n_movies=6, seed=11)


@pytest.fixture(scope="module")
def reference(db):
    """Sequential, cache-free engine results: the equivalence baseline."""
    return [answer(parse_query(q), db) for q in QUERIES]


def _solve_request():
    items = list("abcdef")
    model = Mallows(items, 0.4)
    labeling = Labeling(
        {item: {"hi"} if item in "abc" else {"lo"} for item in items}
    )
    union = PatternUnion(
        [
            LabelPattern(
                [(PatternNode("u", frozenset({"hi"})),
                  PatternNode("v", frozenset({"lo"})))]
            )
        ]
    )
    return model, labeling, union


# ----------------------------------------------------------------------
# Thawing: freeze() round-trips
# ----------------------------------------------------------------------


class TestThaw:
    def test_mallows_round_trip(self):
        model = Mallows(list("abcd"), 0.35)
        thawed = thaw_model(model.freeze())
        assert isinstance(thawed, Mallows)
        assert thawed.freeze() == model.freeze()

    def test_rim_round_trip_preserves_matrix_bits(self):
        rng = np.random.default_rng(5)
        m = 4
        pi = np.zeros((m, m))
        for i in range(1, m + 1):
            row = rng.random(i)
            pi[i - 1, :i] = row / row.sum()
        model = RIM(list("wxyz"), pi)
        thawed = thaw_model(model.freeze())
        assert thawed.freeze() == model.freeze()
        np.testing.assert_array_equal(thawed.pi, model.pi)

    def test_mixture_round_trip(self):
        components = [Mallows(list("abc"), 0.2), Mallows(list("abc"), 0.7)]
        mixture = MallowsMixture(components, [0.25, 0.75])
        thawed = thaw_model(mixture.freeze())
        assert isinstance(thawed, MallowsMixture)
        assert thawed.freeze() == mixture.freeze()

    def test_single_component_mixture_thaws_as_component(self):
        # The freeze collapse (one full-weight component freezes as the
        # component) must thaw back to a solvable model.
        mixture = MallowsMixture([Mallows(list("abc"), 0.5)], [1.0])
        thawed = thaw_model(mixture.freeze())
        assert isinstance(thawed, Mallows)
        assert thawed.freeze() == mixture.freeze()

    def test_unknown_model_form_rejected(self):
        with pytest.raises(ValueError, match="unknown frozen model"):
            thaw_model(("plackett_luce", (1, 2)))

    def test_labeling_round_trip(self):
        _, labeling, union = _solve_request()
        form = labeling.freeze(union.all_labels)
        thawed = thaw_labeling(form)
        assert thawed.freeze(union.all_labels) == form

    def test_union_round_trip(self):
        _, _, union = _solve_request()
        assert thaw_union(union.freeze()).freeze() == union.freeze()

    def test_named_fallback_pattern_round_trip(self):
        # Eight isolated same-label nodes exceed the canonicalization cap
        # (8! orderings), producing the name-carrying fallback form.
        nodes = [
            PatternNode(f"x{i}", frozenset({"L"})) for i in range(8)
        ]
        pattern = LabelPattern([], nodes=nodes)
        form = pattern.canonical_form()
        assert form[0] == "named"
        assert thaw_pattern(form).canonical_form() == form

    def test_thawed_solve_is_bit_identical(self):
        model, labeling, union = _solve_request()
        direct = solve_session(model, labeling, union)
        thawed = solve_session(
            thaw_model(model.freeze()),
            thaw_labeling(labeling.freeze(union.all_labels)),
            thaw_union(union.freeze()),
        )
        assert direct[0] == thawed[0]
        assert direct[1] == thawed[1]


# ----------------------------------------------------------------------
# Tasks and backends
# ----------------------------------------------------------------------


class TestSolveTask:
    def test_pickle_round_trip_and_execution(self):
        model, labeling, union = _solve_request()
        task = SolveTask(
            task_model_form(model), labeling.freeze(union.all_labels),
            union.freeze(), "two_label",
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        outcome = run_solve_task(clone)
        probability, solver_name = solve_session(
            model, labeling, union, method="two_label"
        )
        assert outcome.probability == probability
        assert outcome.solver == solver_name
        assert outcome.seconds > 0.0
        assert outcome.value == (probability, solver_name)

    def test_backends_agree_on_live_nodes(self):
        model, labeling, union = _solve_request()
        nodes = [
            SolveNode(
                node_id, model=model, labeling=labeling, union=union,
                method=method,
            )
            for node_id, method in enumerate(("two_label", "general", "lifted"))
        ]
        serial = SerialBackend().run(nodes)
        threaded = ThreadBackend(max_workers=2).run(nodes)
        processed = ProcessBackend(max_workers=2).run(nodes)
        for a, b in zip(serial, threaded):
            assert a.value == b.value
        for a, b in zip(serial, processed):
            assert a.value == b.value

    def test_resolve_backend(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("thread"), ThreadBackend)
        assert isinstance(resolve_backend("process"), ProcessBackend)
        assert isinstance(resolve_backend(None), SerialBackend)
        instance = SerialBackend()
        assert resolve_backend(instance) is instance
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")

    def test_empty_task_list(self):
        assert ProcessBackend(max_workers=2).run([]) == []


def _die_in_worker(task):
    """A process worker function that kills its worker outright."""
    os._exit(3)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched worker function reaches the pool only by fork",
)
@pytest.mark.timeout(120)
def test_a_worker_dying_mid_batch_fails_the_batch_and_frees_its_flights(
    db, reference, monkeypatch
):
    service = PreferenceService(backend="process", max_workers=2)
    monkeypatch.setattr(
        "repro.service.executors.run_solve_task", _die_in_worker
    )
    started = time.monotonic()
    with pytest.raises(BrokenProcessPool):
        service.answer_many(QUERIES, db)
    assert time.monotonic() - started < 30.0
    assert multiprocessing.active_children() == []
    monkeypatch.undo()
    # The failed batch released every flight it claimed: the next batch
    # on the same cache solves them instead of waiting forever.
    batch = service.answer_many(QUERIES, db)
    assert batch.n_distinct_solves > 0
    assert [one.probability for one in batch] == [
        one.probability for one in reference
    ]
    assert multiprocessing.active_children() == []


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_backend_matches_sequential_engine(self, db, reference, backend):
        service = PreferenceService(backend=backend, max_workers=2)
        batch = service.answer_many(QUERIES, db)
        assert batch.backend == backend
        assert batch.n_cache_hits == 0
        for result, expected in zip(batch, reference):
            # Bit-identical, not approximately equal: live and thawed
            # solves agree exactly.
            assert result.probability == expected.probability

    def test_mixture_sessions_round_trip_through_process_tasks(self):
        # Tasks ship mixtures structure-preserved (task_model_form), so the
        # worker-side marginalization order is the original one and results
        # are bit-identical regardless of component order.
        items = list("abcde")
        components = [Mallows(items, 0.6), Mallows(items, 0.3)]
        sessions = {
            ("u1",): MallowsMixture(components, [0.4, 0.6]),
            ("u2",): Mallows(items, 0.5),
        }
        db = PPDatabase(
            orelations=[],
            prelations=[PRelation("P", ["user"], sessions)],
        )
        query = "P(u; 'a'; 'b')"
        expected = answer(parse_query(query), db)
        service = PreferenceService(backend="process", max_workers=2)
        batch = service.answer_many([query], db)
        assert batch[0].probability == expected.probability
        solvers = {e.solver for e in batch[0].per_session}
        assert solvers == {"mixture[two_label]", "two_label"}

    def test_collapsing_mixture_keeps_mixture_attribution(self):
        # Duplicate equal-weight components collapse in the *canonical*
        # freeze (the cache key), but the task transport must not: the
        # batch path has to report the same solver name as the engine.
        items = list("abcd")
        mixture = MallowsMixture(
            [Mallows(items, 0.3), Mallows(items, 0.3)], [0.5, 0.5]
        )
        db = PPDatabase(
            prelations=[PRelation("P", ["user"], {("u",): mixture})]
        )
        query = "P(u; 'a'; 'b')"
        expected = answer(parse_query(query), db)
        assert expected.per_session[0].solver == "mixture[two_label]"
        batch = PreferenceService(backend="serial").answer_many([query], db)
        assert batch[0].per_session[0].solver == "mixture[two_label]"
        assert batch[0].probability == expected.probability


# ----------------------------------------------------------------------
# Persistent tier
# ----------------------------------------------------------------------


class TestPersistentCache:
    def test_put_get_round_trip(self, tmp_path):
        with PersistentCache(tmp_path / "c.sqlite") as cache:
            key = "session/mallows/rest"
            assert cache.get(key) is None
            cache.put_many([(key, (0.123456789012345, "two_label"))])
            assert cache.get(key) == (0.123456789012345, "two_label")
            assert len(cache) == 1

    def test_digest_keys_discriminate_leaf_types(self, tmp_path):
        leaves = [1, np.int64(1), 1.0, "1", b"x", "x"]
        keys = {freeze_digest((leaf,)) for leaf in leaves}
        assert len(keys) == len(leaves)
        # Models over such items get distinct keys in every tier, the
        # front included (equal tuples, 1 == 1.0, once merged there).
        models = [
            Mallows(items, 0.5)
            for items in ([1, 2], [np.int64(1), np.int64(2)], [1.0, 2.0])
        ]
        assert models[0].freeze() == models[2].freeze()
        assert len({model_fingerprint(model) for model in models}) == 3
        # ...and a disk-tiered cache keeps such keys apart end to end.
        disk = PersistentCache(tmp_path / "c.sqlite")
        cache = SolverCache(4, [disk])
        cache.put(freeze_digest((np.int64(1),)), (0.25, "general"))
        assert disk.get(freeze_digest((1,))) is None
        assert disk.get(freeze_digest((np.int64(1),))) == (0.25, "general")
        cache.close()

    def test_rejects_non_outcome_values(self, tmp_path):
        with PersistentCache(tmp_path / "c.sqlite") as cache:
            with pytest.raises(TypeError, match="persistent cache stores"):
                cache.put_many([("k", {"not": "a pair"})])

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "c.sqlite"
        with PersistentCache(path) as cache:
            cache.put_many([("k", (0.5, "general"))])
        with PersistentCache(path) as cache:
            assert cache.get("k") == (0.5, "general")

    def test_version_mismatch_clears(self, tmp_path):
        path = tmp_path / "c.sqlite"
        with PersistentCache(path, version="v1") as cache:
            cache.put_many([("k", (0.5, "general"))])
        with PersistentCache(path, version="v2") as cache:
            assert cache.get("k") is None
            assert len(cache) == 0
        assert default_version()  # the stamp the service tier uses

    def test_put_many_single_transaction_round_trip(self, tmp_path):
        with PersistentCache(tmp_path / "c.sqlite") as cache:
            cache.put_many(
                [("a", (0.1, "two_label")), ("b", (0.2, "general"))]
            )
            assert cache.get("a") == (0.1, "two_label")
            assert cache.get("b") == (0.2, "general")
            assert len(cache) == 2
            cache.put_many([])  # a batch with nothing fresh is a no-op
            with pytest.raises(TypeError, match="persistent cache stores"):
                cache.put_many([("c", "bad")])


class TestPersistentService:
    def test_restart_round_trip_serves_without_solving(self, db, reference, tmp_path):
        path = tmp_path / "service.sqlite"
        cold_service = PreferenceService(backend="serial", cache_db=path)
        cold = cold_service.answer_many(QUERIES, db)
        assert cold.n_distinct_solves > 0
        for result, expected in zip(cold, reference):
            assert result.probability == expected.probability

        # A brand-new service over the same file: the restart scenario.
        warm_service = PreferenceService(backend="serial", cache_db=path)
        warm = warm_service.answer_many(QUERIES, db)
        assert warm.n_distinct_solves == 0
        assert warm.n_cache_hits == cold.n_distinct_solves
        for result, expected in zip(warm, reference):
            assert result.probability == expected.probability
        assert warm_service.stats()["disk_hits"] == cold.n_distinct_solves

    def test_keys_agree_across_interpreters(self, tmp_path):
        # Two interpreters with different string-hash salts share one file:
        # a salted hash() slipping into a key would make the second solve.
        path = tmp_path / "seeded.sqlite"
        script = (
            "import sys\n"
            "from repro.db.examples import polling_example\n"
            "from repro.service import PreferenceService\n"
            "service = PreferenceService(backend='serial', cache_db=sys.argv[1])\n"
            f"batch = service.answer_many({POLLS_REQUESTS!r}, polling_example())\n"
            "print(batch.n_distinct_solves, [answer.value for answer in batch])\n"
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", script, str(path)],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": str(SRC),
                     "PYTHONHASHSEED": seed},
            ).stdout.split(" ", 1)
            for seed in ("1", "2")
        ]
        (cold_solves, cold_values), (warm_solves, warm_values) = runs
        assert int(cold_solves) > 0
        assert int(warm_solves) == 0
        assert warm_values == cold_values

    def test_cache_and_cache_db_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            PreferenceService(
                cache=SolverCache(4), cache_db=tmp_path / "c.sqlite"
            )


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------


class TestPlanner:
    def test_states_grow_with_m(self):
        _, labeling, union = _solve_request()
        small = estimate_solve_states(Mallows(list("abcdef"), 0.5), labeling, union)
        items = [chr(ord("a") + i) for i in range(12)]
        big_labeling = Labeling(
            {item: {"hi"} if i < 6 else {"lo"} for i, item in enumerate(items)}
        )
        big = estimate_solve_states(Mallows(items, 0.5), big_labeling, union)
        assert big.states > small.states
        assert small.method == "two_label"

    def test_general_class_costs_more_than_two_label(self):
        model, labeling, union = _solve_request()
        chain = PatternUnion(
            [
                chain_pattern(
                    [
                        PatternNode("a", frozenset({"hi"})),
                        PatternNode("b", frozenset({"lo"})),
                        PatternNode("c", frozenset({"hi"})),
                    ]
                )
            ]
        )
        two_label = estimate_solve_states(model, labeling, union)
        general = estimate_solve_states(model, labeling, chain)
        assert general.method == "general"
        assert general.states > two_label.states

    def test_mixture_multiplies_by_components(self):
        model, labeling, union = _solve_request()
        mixture = MallowsMixture(
            [Mallows(list("abcdef"), 0.2), Mallows(list("abcdef"), 0.7)],
            [0.5, 0.5],
        )
        single = estimate_solve_states(model, labeling, union)
        double = estimate_solve_states(mixture, labeling, union)
        assert double.n_components == 2
        assert double.states == pytest.approx(2 * single.states)

    def test_brute_and_sampling_estimates(self):
        model, labeling, union = _solve_request()
        brute = estimate_solve_states(model, labeling, union, method="brute")
        assert brute.states == pytest.approx(720)  # 6!
        sampled = estimate_solve_states(
            model, labeling, union, method="rejection",
            options={"n_samples": 5000},
        )
        assert sampled.states == pytest.approx(5000)

    def test_largest_first_order_is_stable_descending(self):
        assert largest_first_order([1.0, 5.0, 3.0, 5.0]) == [1, 3, 2, 0]
        assert largest_first_order([]) == []


# ----------------------------------------------------------------------
# Batch metadata: seconds attribution, sampled solves on every backend
# ----------------------------------------------------------------------


class TestBatchSemantics:
    def test_seconds_attributed_to_consuming_queries(self, db):
        service = PreferenceService(backend="serial")
        duplicated = [QUERIES[0], QUERIES[0], QUERIES[1]]
        batch = service.answer_many(duplicated, db)
        # The duplicate queries consumed the same solves: identical, and
        # positive, attributed wall time.
        assert batch[0].seconds > 0.0
        assert batch[0].seconds == batch[1].seconds
        assert batch[2].seconds > 0.0
        # A cache-warm pass performs no solves, so no time is attributed.
        warm = service.answer_many(duplicated, db)
        assert all(result.seconds == 0.0 for result in warm)

    def test_approximate_path_uses_the_requested_parallelism(
        self, db, recwarn
    ):
        want = PreferenceService().answer_many(
            QUERIES[:1], db, method="rejection", seed=3, n_samples=50
        )
        runs = [
            ("thread", PreferenceService().answer_many(
                QUERIES[:1], db, method="rejection", seed=3,
                backend="thread", max_workers=4, n_samples=50,
            )),
            ("process", PreferenceService().answer_many(
                QUERIES[:1], db, method="rejection", seed=3,
                backend="process", max_workers=2, n_samples=50,
            )),
            # A process-*configured* service (--backend process on the
            # CLI) runs its sampled solves there too.
            ("process", PreferenceService(
                backend="process", max_workers=2
            ).answer_many(
                QUERIES[:1], db, method="rejection", seed=3, n_samples=50
            )),
        ]
        for name, batch in runs:
            assert batch.backend == name
            assert batch.n_distinct_solves == want.n_distinct_solves
            assert batch.values == want.values
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_approximate_path_quiet_when_sequential(self, db, recwarn):
        service = PreferenceService()
        service.answer_many(
            QUERIES[:1], db, method="rejection", seed=3, n_samples=50
        )
        service.answer_many(
            QUERIES[:1], db, method="rejection", seed=3,
            backend="serial", n_samples=50,
        )
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]
