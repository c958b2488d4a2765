"""Tests for Mallows mixtures and their use in query evaluation."""

import math

import pytest

from repro.api import answer
from repro.db.database import PPDatabase
from repro.db.schema import ORelation, PRelation
from repro.patterns.labels import Labeling
from repro.patterns.pattern import LabelPattern, node
from repro.query import parse_query
from repro.rankings.permutation import Ranking
from repro.rim.mallows import Mallows
from repro.rim.mixture import MallowsMixture
from repro.solvers.brute import brute_force_probability


@pytest.fixture
def mixture():
    items = ["a", "b", "c"]
    return MallowsMixture(
        [Mallows(items, 0.2), Mallows(["c", "b", "a"], 0.4)],
        weights=[0.7, 0.3],
    )


class TestConstruction:
    def test_weights_normalized(self, mixture):
        assert sum(mixture.weights) == pytest.approx(1.0)
        assert mixture.weights[0] == pytest.approx(0.7)

    def test_weight_count_validated(self):
        with pytest.raises(ValueError):
            MallowsMixture([Mallows([1, 2], 0.5)], weights=[0.5, 0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            MallowsMixture([Mallows([1, 2], 0.5)], weights=[-1.0])

    def test_mismatched_universes_rejected(self):
        with pytest.raises(ValueError):
            MallowsMixture(
                [Mallows([1, 2], 0.5), Mallows([1, 3], 0.5)],
                weights=[0.5, 0.5],
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MallowsMixture([], weights=[])


class TestDistribution:
    def test_density_sums_to_one(self, mixture):
        total = sum(
            mixture.probability(tau)
            for tau in Ranking.all_rankings(["a", "b", "c"])
        )
        assert total == pytest.approx(1.0)

    def test_density_is_weighted_sum(self, mixture):
        tau = Ranking(["b", "a", "c"])
        expected = 0.7 * mixture.components[0].probability(tau) + (
            0.3 * mixture.components[1].probability(tau)
        )
        assert mixture.probability(tau) == pytest.approx(expected)

    def test_log_probability(self, mixture):
        tau = Ranking(["a", "b", "c"])
        assert mixture.log_probability(tau) == pytest.approx(
            math.log(mixture.probability(tau))
        )

    def test_sampling_distribution(self, mixture, rng):
        n = 20_000
        counts: dict = {}
        for _ in range(n):
            tau = mixture.sample(rng)
            counts[tau] = counts.get(tau, 0) + 1
        for tau in Ranking.all_rankings(["a", "b", "c"]):
            p = mixture.probability(tau)
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(tau, 0) / n - p) < 4 * sigma + 2e-3

    def test_marginalize(self, mixture):
        assert mixture.marginalize([1.0, 0.0]) == pytest.approx(0.7)
        with pytest.raises(ValueError):
            mixture.marginalize([1.0])


class TestMixtureQueries:
    def test_engine_marginalizes_components(self, mixture):
        movies = ORelation("M", ["id", "genre"], [("a", "X"), ("b", "Y"), ("c", "X")])
        prelation = PRelation("P", ["user"], {("u1",): mixture})
        db = PPDatabase(orelations=[movies], prelations=[prelation])
        q = parse_query("P(_; m1; m2), M(m1, 'X'), M(m2, 'Y')")
        result = answer(q, db)

        labeling = Labeling({"a": {"X"}, "b": {"Y"}, "c": {"X"}})
        pattern = LabelPattern([(node("m1", "X"), node("m2", "Y"))])
        expected = sum(
            w * brute_force_probability(component, labeling, pattern).probability
            for w, component in zip(mixture.weights, mixture.components)
        )
        assert result.probability == pytest.approx(expected, abs=1e-9)
