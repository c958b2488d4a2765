"""A sampled answer is a function of its request and seed alone.

Every sampled solve (``rejection``, ``mis_amp_lite``, ``mis_amp_adaptive``
and the ``auto-approx`` fallback) draws from a stream derived from the
caller's seed and the solve's key (:func:`repro.service.keys.solve_stream`).
So at a fixed seed an answer's ``value`` and ``per_session`` are identical
whether the request runs alone or beside others, in either order, on any
backend, with a cold or warm cache or a fresh service over the same cache
file, and through :func:`repro.api.answer` or HTTP ``/answer`` beside a
coalesced batch mate.  The estimators allow it: from one generator state
they give bit-identical estimates on a union, on a reordered and renamed
copy of it, and on the union thawed from its canonical forms.
"""

from __future__ import annotations

import asyncio
import random

import numpy as np
import pytest

from repro.api import answer, answer_many
from repro.datasets.crowdrank import crowdrank_database
from repro.patterns.union import PatternUnion
from repro.query.engine import solve_session
from repro.server.app import ServerApp
from repro.server.config import ServerConfig
from repro.server.protocol import jsonable
from repro.service.executors import thaw_labeling, thaw_union
from repro.service.service import PreferenceService
from tests.conftest import random_instance

pytestmark = pytest.mark.timeout(300)

SHAPE = {"sessions": 12, "movies": 6, "seed": 7}
QUERY = "P(v; m1; m2), M(m1, _, 'M', _, _), M(m2, 'Thriller', _, _, _)"
REQUESTS = {
    "probability": QUERY,
    "count": f"COUNT {QUERY}",
    "top_k": f"TOPK 2 {QUERY}",
    "aggregate": f"AGG mean(V.age) {QUERY}",
}
#: Batch mates: another query, and another kind of the same query (which
#: shares every solve with the request).
OTHER = "COUNT P(v; m1; m2), M(m1, _, 'F', _, _), M(m2, 'Thriller', _, _, _)"
#: Each sampled method with small sample counts; the approx_budget of 1
#: forces every auto-approx solve onto its MIS-AMP fallback.
METHODS = {
    "rejection": {"n_samples": 300},
    "mis_amp_lite": {"n_proposals": 2, "n_per_proposal": 60},
    "mis_amp_adaptive": {"n_per_proposal": 60, "max_proposals": 5},
    "auto-approx": {
        "approx_budget": 1, "n_per_proposal": 60, "max_proposals": 5,
    },
}
SEED = 3


@pytest.fixture(scope="module")
def db():
    return crowdrank_database(
        n_workers=SHAPE["sessions"], n_movies=SHAPE["movies"],
        seed=SHAPE["seed"],
    )


def assert_same(got, want) -> None:
    assert got.kind == want.kind
    assert got.value == want.value
    assert got.per_session == want.per_session


def mates(kind: str) -> list[str]:
    other_kind = "count" if kind != "count" else "probability"
    return [OTHER, REQUESTS[other_kind]]


@pytest.mark.parametrize("kind", sorted(REQUESTS))
@pytest.mark.parametrize("method", sorted(METHODS))
class TestOneAnswerPerSeed:
    def test_alone_or_batched_in_either_order(self, db, method, kind):
        options, request = METHODS[method], REQUESTS[kind]
        want = answer(request, db, method=method, seed=SEED, **options)
        if method == "auto-approx":
            assert want.methods == ("mis_amp_adaptive",)
        for batch, index in (
            ([request], 0),
            ([*mates(kind), request], -1),
            ([request, *mates(kind)], 0),
        ):
            got = answer_many(batch, db, method=method, seed=SEED, **options)
            assert_same(got[index], want)
        for unshared in (
            answer(
                request, db, method=method, seed=SEED, optimize=False,
                **options,
            ),
            answer(
                request, db, method=method, seed=SEED,
                group_sessions=False, **options,
            ),
        ):
            assert_same(unshared, want)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_on_every_backend(self, db, method, kind, backend):
        options, request = METHODS[method], REQUESTS[kind]
        want = answer(request, db, method=method, seed=SEED, **options)
        got = answer_many(
            [*mates(kind), request], db, method=method, seed=SEED,
            backend=backend, max_workers=2, **options,
        )
        assert got.backend == backend
        assert_same(got[-1], want)

    def test_cold_warm_and_restarted_cache(self, db, method, kind, tmp_path):
        options, request = METHODS[method], REQUESTS[kind]
        want = answer(request, db, method=method, seed=SEED, **options)
        path = str(tmp_path / "cache.sqlite")
        service = PreferenceService(cache_db=path)
        cold = service.answer(request, db, method=method, seed=SEED, **options)
        warm = service.answer(request, db, method=method, seed=SEED, **options)
        service.cache.close()
        restarted = PreferenceService(cache_db=path)
        fresh = restarted.answer(
            request, db, method=method, seed=SEED, **options
        )
        restarted.cache.close()
        assert cold.stats["n_solver_calls"] > 0
        assert warm.stats["n_solver_calls"] == 0
        assert fresh.stats["n_solver_calls"] == 0
        for got in (cold, warm, fresh):
            assert_same(got, want)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_another_seed_gives_another_answer(db, method):
    options = METHODS[method]
    answers = {
        seed: [
            answer(request, db, method=method, seed=seed, **options).value
            for request in REQUESTS.values()
        ]
        for seed in (0, 1)
    }
    assert answers[0] != answers[1]


@pytest.mark.parametrize(
    "method, wire",
    [("rejection", {}), ("auto-approx", {"approx_budget": 1})],
)
def test_a_coalesced_http_answer_equals_the_library(db, method, wire):
    """Over the wire only ``rejection`` and a forcing ``auto-approx``
    fit (solver options such as ``n_samples`` are not wire fields)."""
    app = ServerApp(
        ServerConfig(
            dataset="crowdrank", backend="serial", port=0, **SHAPE
        )
    )
    options = {"method": method, **wire}

    async def scenario():
        try:
            # The first request finds the worker idle and runs alone; the
            # other two queue behind it and go out as one batch.
            return await asyncio.gather(*(
                app.handle(
                    "POST", "/answer", {"request": text, **options},
                    f"client-{index}",
                )
                for index, text in enumerate(
                    [REQUESTS["count"], OTHER, *REQUESTS.values()]
                )
            ))
        finally:
            await app.shutdown()

    responses = asyncio.run(asyncio.wait_for(scenario(), timeout=240))
    assert app.coalescer.n_batches == 2
    for (status, payload, _), text in zip(
        responses[2:], REQUESTS.values()
    ):
        assert status == 200, payload
        want = answer(text, db, method=method, **wire)
        assert payload["value"] == jsonable(want.value)


@pytest.mark.parametrize(
    "method, options",
    [
        ("rejection", {"n_samples": 400}),
        ("mis_amp_lite", {"n_proposals": 3, "n_per_proposal": 50}),
        ("mis_amp_adaptive", {"n_per_proposal": 50, "max_proposals": 5}),
    ],
)
def test_estimators_read_only_the_canonical_request(method, options):
    """The process backend ships thawed canonical forms, and requests
    that share a key share one value: an estimate must not depend on the
    union's pattern order, its node names, or labels it never reads."""
    pyrng = random.Random(28)
    for _ in range(12):
        model, labeling, union = random_instance(
            pyrng, m_choices=(5, 6, 7), max_patterns=4, max_nodes=4
        )
        renamed = PatternUnion(
            [pattern.relabeled("_x") for pattern in reversed(union.patterns)]
        )
        thawed = (
            thaw_labeling(labeling.freeze(union.all_labels)),
            thaw_union(union.freeze()),
        )
        estimates = [
            solve_session(
                model, one_labeling, one_union, method,
                rng=np.random.default_rng(11), **options,
            )[0]
            for one_labeling, one_union in (
                (labeling, union), (labeling, renamed), thawed,
            )
        ]
        assert estimates[0] == estimates[1] == estimates[2]
