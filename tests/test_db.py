"""Tests for the RIM-PPD database layer."""

import random

import pytest

from repro.datasets.crowdrank import crowdrank_database
from repro.datasets.polls import polls_database
from repro.db.database import PPDatabase
from repro.db.examples import polling_example
from repro.db.schema import ORelation, PRelation
from repro.rim.mallows import Mallows


class TestORelation:
    def test_arity_validated(self):
        with pytest.raises(ValueError, match="columns"):
            ORelation("R", ["a", "b"], [(1,)])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ORelation("R", ["a", "a"], [])

    def test_active_domain(self):
        relation = ORelation("R", ["x", "y"], [(1, "p"), (2, "p"), (1, "q")])
        assert relation.active_domain(0) == [1, 2]
        assert relation.active_domain(1) == ["p", "q"]

    def test_rows_where(self):
        relation = ORelation("R", ["x", "y"], [(1, "p"), (2, "p"), (1, "q")])
        assert list(relation.rows_where({0: 1})) == [(1, "p"), (1, "q")]
        assert relation.first_row_where({0: 1, 1: "q"}) == (1, "q")
        assert relation.first_row_where({0: 9}) is None

    def test_rows_where_value_unequal_to_itself_matches_nothing(self):
        nan = float("nan")
        relation = ORelation("R", ["x", "y"], [(nan, "p"), (1, "p")])
        assert list(relation.rows_where({0: nan})) == []
        assert list(relation.rows_where({1: "p"})) == list(relation.rows)
        assert list(relation.rows_where({})) == list(relation.rows)

    @pytest.mark.parametrize(
        "build",
        [polls_database, lambda: crowdrank_database(n_workers=2000)],
        ids=["polls", "crowdrank"],
    )
    def test_indexed_lookups_match_linear_scan(self, build):
        pyrng = random.Random(20200316)
        for relation in build().orelations.values():
            for _ in range(200):
                positions = pyrng.sample(
                    range(relation.arity), pyrng.randint(1, relation.arity)
                )
                # Values from one row (a hit) or from the whole column,
                # plus an absent value now and then (a miss).
                row = pyrng.choice(relation.rows)
                conditions = {
                    pos: pyrng.choice(
                        [row[pos], pyrng.choice(relation.rows)[pos], "absent"]
                    )
                    for pos in positions
                }
                scan = [
                    candidate
                    for candidate in relation.rows
                    if all(candidate[pos] == value for pos, value in conditions.items())
                ]
                assert list(relation.rows_where(conditions)) == scan
                assert relation.first_row_where(conditions) == (
                    scan[0] if scan else None
                )

    def test_column_index(self):
        relation = ORelation("R", ["x", "y"], [])
        assert relation.column_index("y") == 1
        with pytest.raises(KeyError):
            relation.column_index("z")


class TestPRelation:
    def test_key_arity_validated(self):
        model = Mallows([1, 2], 0.5)
        with pytest.raises(ValueError, match="does not match"):
            PRelation("P", ["voter", "date"], {("a",): model})

    def test_mixed_universes_rejected(self):
        with pytest.raises(ValueError, match="different item universe"):
            PRelation(
                "P",
                ["s"],
                {("a",): Mallows([1, 2], 0.5), ("b",): Mallows([1, 3], 0.5)},
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one session"):
            PRelation("P", ["s"], {})

    def test_scalar_keys_normalized(self):
        model = Mallows([1, 2], 0.5)
        relation = PRelation("P", ["s"], {"x": model})
        assert ("x",) in relation
        assert relation.model_of(("x",)) is model

    def test_session_lookup(self):
        model = Mallows([1, 2], 0.5)
        relation = PRelation("P", ["s"], {("x",): model})
        with pytest.raises(KeyError):
            relation.model_of(("y",))


class TestPPDatabase:
    def test_duplicate_names_rejected(self):
        r = ORelation("R", ["x"], [])
        with pytest.raises(ValueError, match="duplicate"):
            PPDatabase(orelations=[r, r])

    def test_o_p_name_clash_rejected(self):
        r = ORelation("P", ["x"], [])
        p = PRelation("P", ["s"], {("a",): Mallows([1, 2], 0.5)})
        with pytest.raises(ValueError, match="both"):
            PPDatabase(orelations=[r], prelations=[p])

    def test_lookup_errors(self):
        db = polling_example()
        with pytest.raises(KeyError):
            db.orelation("nope")
        with pytest.raises(KeyError):
            db.prelation("nope")

    def test_sample_world_covers_all_sessions(self, rng):
        db = polling_example()
        world = db.sample_world(rng)
        assert len(world) == 3
        for (_, key), ranking in world.items():
            assert sorted(ranking.items) == sorted(
                db.prelation("P").items
            )

    def test_item_satisfies(self):
        db = polling_example()
        # Clinton: party D, sex F, age 69, edu JD, reg NE.
        assert db.item_satisfies("Clinton", "C", {1: "D", 2: "F"})
        assert not db.item_satisfies("Clinton", "C", {1: "R"})
        assert db.item_satisfies("Clinton", "C", {}, predicates=[(3, ">=", 69)])
        assert not db.item_satisfies("Clinton", "C", {}, predicates=[(3, "<", 69)])
        assert not db.item_satisfies("Nobody", "C", {})


class TestPollingExample:
    def test_figure_1_contents(self):
        db = polling_example()
        candidates = db.orelation("C")
        assert len(candidates) == 4
        trump = candidates.first_row_where({0: "Trump"})
        assert trump == ("Trump", "R", "M", 70, "BS", "NE")
        polls = db.prelation("P")
        assert polls.n_sessions == 3
        ann = polls.model_of(("Ann", "5/5"))
        assert ann.phi == 0.3
        assert ann.sigma.items == ("Clinton", "Sanders", "Rubio", "Trump")
