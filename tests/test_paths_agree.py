"""Every solve path returns the same answers.

One seeded corpus — all four request kinds over four query templates, on
the Polls example and on small CrowdRank instances — is answered through
every configuration that reaches the plan executor: ``answer()`` with and
without a cache, ``answer_many`` on each backend, a disk-tiered
``PreferenceService`` cold and after a restart, and a standing-query
registration and refresh.  Each must return the same value and
per-session ``(key, probability)`` breakdown as ``answer()`` without a
cache (:func:`repro.stream.standing.answers_equal`).

A concurrency case runs a frontier whose nodes share model, labeling and
union objects on an 8-thread backend, switching threads as often as the
interpreter allows, and checks every repeat against the serial outcomes.
"""

import sys

import pytest

from repro.api import answer, answer_many
from repro.datasets.crowdrank import crowdrank_database
from repro.db.examples import polling_example
from repro.db.mutable import MutablePPDatabase
from repro.plan import build_plan, optimize_plan
from repro.rim.mallows import Mallows
from repro.service import PreferenceService, SolverCache
from repro.service.executors import SerialBackend, ThreadBackend
from repro.stream.standing import StandingQueryEngine, answers_equal

KINDS = ("", "COUNT ", "TOPK 3 ", "AGG mean(V.age) ")

POLLS_TEMPLATES = (
    "P('Ann', '5/5'; 'Trump'; 'Clinton')",
    "P(v, _; l; r), C(l, p, 'M', _, _, _), C(r, p, 'F', _, _, _)",
    "P(v, '5/5'; l; r), V(v, 'F', _, _), C(l, 'D', _, _, _, _), "
    "C(r, 'R', _, _, _, _)",
)

#: The CrowdRank templates of the end-to-end corpus; the last chains
#: three item variables through two P atoms (the general solver's side).
CROWDRANK_TEMPLATES = (
    "P(v; m1; m2), M(m1, 'Comedy', _, _, _), M(m2, _, _, _, 'short')",
    "P(v; m1; m2), M(m1, _, 'F', _, _), M(m2, 'Thriller', _, _, _)",
    "P(v; m1; m2), V(v, sex, _), M(m1, _, sex, _, _), "
    "M(m2, _, _, _, 'long')",
    "P(v; m1; m2), P(v; m2; m3), M(m1, 'Drama', _, _, _), "
    "M(m2, _, 'M', _, _), M(m3, _, _, _, 'short')",
)


def corpus(templates):
    return [kind + template for template in templates for kind in KINDS]


CASES = {
    "polls": (polling_example, corpus(POLLS_TEMPLATES)),
    **{
        f"crowdrank-seed{seed}": (
            lambda seed=seed: crowdrank_database(
                n_workers=12, n_movies=6, seed=seed
            ),
            corpus(CROWDRANK_TEMPLATES),
        )
        for seed in (1, 2, 3)
    },
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    """``(make_db, requests, reference)``: the reference is ``answer()``
    with no cache, one request at a time."""
    make_db, requests = CASES[request.param]
    db = make_db()
    return make_db, requests, [answer(text, db) for text in requests]


def assert_agree(answers, reference):
    assert len(answers) == len(reference)
    for got, expected in zip(answers, reference):
        assert answers_equal(got, expected), expected.request.describe()


def test_answer_through_a_shared_cache(case):
    make_db, requests, reference = case
    db, cache = make_db(), SolverCache()
    assert_agree([answer(text, db, cache=cache) for text in requests], reference)


@pytest.mark.parametrize(
    "backend, workers", [("serial", None), ("thread", 4), ("process", 2)]
)
def test_answer_many_on_each_backend(case, backend, workers):
    make_db, requests, reference = case
    batch = answer_many(
        requests, make_db(), cache=SolverCache(), backend=backend,
        max_workers=workers,
    )
    assert batch.backend == backend
    assert_agree(batch.answers, reference)


def test_disk_tiered_service_cold_and_restarted(case, tmp_path):
    make_db, requests, reference = case
    path = tmp_path / "cache.sqlite"
    cold_service = PreferenceService(cache_db=path)
    cold = cold_service.answer_many(requests, make_db())
    cold_service.cache.close()
    warm_service = PreferenceService(cache_db=path)
    warm = warm_service.answer_many(requests, make_db())
    warm_service.cache.close()
    assert warm.n_distinct_solves == 0
    assert_agree(cold.answers, reference)
    assert_agree(warm.answers, reference)


def test_standing_query_registration(case):
    """Each registration is a batch of one; after one update, a single
    refresh answers the whole corpus as one batch, so a TOPK shares its
    lazy solves with the eager kinds of its template."""
    make_db, requests, reference = case
    db = MutablePPDatabase.from_database(make_db())
    with StandingQueryEngine(db, auto_refresh=False) as engine:
        standing = [engine.register(text) for text in requests]
        assert_agree([query.answer for query in standing], reference)
        key = next(iter(db.prelation("P").session_keys()))
        model = db.prelation("P").model_of(key)
        db.update_session("P", key, Mallows(model.sigma, model.phi / 2))
        assert engine.refresh() == standing
        assert_agree(
            [query.answer for query in standing],
            [answer(text, db) for text in requests],
        )


def frontier(seed):
    """The optimized solve frontier of a fresh CrowdRank batch: nodes of
    one query share their labeling and union, nodes of one session
    across queries share their model."""
    db = crowdrank_database(n_workers=12, n_movies=6, seed=seed)
    plan = build_plan(corpus(CROWDRANK_TEMPLATES), db)
    optimize_plan(plan, canonical=True)
    return plan.solves()


@pytest.mark.timeout(120)
def test_thread_backend_on_shared_live_objects():
    serial = [outcome.value for outcome in SerialBackend().run(frontier(4))]
    assert len(serial) > 20
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            nodes = frontier(4)
            threaded = ThreadBackend(max_workers=8).run(nodes)
            assert [outcome.value for outcome in threaded] == serial
    finally:
        sys.setswitchinterval(interval)
