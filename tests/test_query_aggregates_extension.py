"""Tests for the attribute-aggregation extension (the paper's future work)."""

import pytest

from repro.api import Aggregate, answer
from repro.db.examples import polling_example
from repro.query import parse_query


@pytest.fixture
def db():
    return polling_example()


REP_OVER_DEM = (
    "P(_, _; c1; c2), C(c1, 'R', _, _, _, _), C(c2, 'D', _, _, _, _)"
)


def aggregate(query, db, seed=0, **options):
    """``answer(Aggregate(...))`` of a session attribute."""
    return answer(Aggregate(query, **options), db, seed=seed)


class TestAggregateSessionAttribute:
    def test_weighted_average_formula(self, db):
        q = parse_query(REP_OVER_DEM)
        agg = aggregate(
            q, db, relation="V", column="age", seed=0
        )
        result = answer(q, db)
        probabilities = [e.probability for e in result.per_session]
        ages = {"Ann": 20, "Bob": 30, "Dave": 50}
        values = [ages[e.key[0]] for e in result.per_session]
        expected = sum(p * v for p, v in zip(probabilities, values)) / sum(
            probabilities
        )
        assert agg.stats["weighted_average"] == pytest.approx(expected)

    def test_expectation_close_to_analytic(self, db):
        # With independent Bernoulli sessions the conditional expectation of
        # the mean is computable by enumerating the 2^3 satisfying subsets.
        import itertools

        q = parse_query(REP_OVER_DEM)
        agg = aggregate(
            q, db, relation="V", column="age",
            n_worlds=60_000, seed=1,
        )
        result = answer(q, db)
        probabilities = [e.probability for e in result.per_session]
        ages = {"Ann": 20.0, "Bob": 30.0, "Dave": 50.0}
        values = [ages[e.key[0]] for e in result.per_session]
        numerator = 0.0
        mass = 0.0
        for subset in itertools.product([0, 1], repeat=3):
            if not any(subset):
                continue
            weight = 1.0
            for included, p in zip(subset, probabilities):
                weight *= p if included else (1 - p)
            mean = sum(v for v, s in zip(values, subset) if s) / sum(subset)
            numerator += weight * mean
            mass += weight
        analytic = numerator / mass
        assert agg.expectation == pytest.approx(analytic, rel=0.02)
        assert agg.stats["probability_any"] == pytest.approx(mass, abs=0.02)

    def test_sum_statistic(self, db):
        q = parse_query(REP_OVER_DEM)
        agg = aggregate(
            q, db, relation="V", column="age", statistic="sum",
            n_worlds=40_000, seed=2,
        )
        # E[sum over satisfying | any] >= weighted single-session values.
        assert agg.expectation > 30.0

    def test_invalid_statistic(self, db):
        q = parse_query(REP_OVER_DEM)
        with pytest.raises(ValueError, match="statistic"):
            aggregate(
                q, db, relation="V", column="age", statistic="median"
            )

    def test_missing_attribute_row(self, db):
        # Sessions keyed by voters absent from the attribute relation fail
        # loudly instead of silently skewing the aggregate.
        q = parse_query(REP_OVER_DEM)
        with pytest.raises(KeyError):
            aggregate(q, db, relation="C", column="age")
