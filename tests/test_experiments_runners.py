"""Smoke tests for the per-figure experiment runners (tiny parameters).

These guard the benchmark harness itself: every runner must produce rows
with the advertised headers, sane value ranges, and the qualitative
invariants the benchmarks assert at larger scale.
"""

import math

from repro.evaluation.experiments import (
    accuracy_table,
    figure_10,
    figure_12,
    figure_13a,
    figure_14,
    figure_15,
    figure_4,
    figure_5,
    figure_6,
    figure_7a,
    figure_8,
    figure_9,
)


class TestExactRunners:
    def test_figure_4_rows(self):
        result = figure_4(m_values=(6,), sessions_per_m=2, n_voters=10)
        assert len(result.rows) == 4  # one per solver
        solvers = {row[1] for row in result.rows}
        assert solvers == {
            "two_label", "bipartite", "general", "mis_amp_adaptive",
        }
        for row in result.rows:
            assert row[2] >= 0.0

    def test_figure_5_exponential_growth(self):
        # Sub-millisecond solve times are too noisy to order reliably; the
        # solver's DP expansion count is the deterministic work measure.
        result = figure_5(n_unions=1, m=6)
        assert result.headers[-1] == "mean_expansions"
        expansions = {row[0]: row[-1] for row in result.rows}
        assert expansions[1] < expansions[2] < expansions[3]

    def test_figure_6_fraction_range(self):
        result = figure_6(
            m_values=(8,), patterns_per_union=(2,),
            instances_per_cell=2, time_budget=5.0,
        )
        for row in result.rows:
            assert 0.0 <= row[2] <= 1.0

    def test_figure_7a_reports_budget(self):
        result = figure_7a(
            m_values=(6,), labels_per_pattern=(2,),
            instances_per_cell=1, time_budget=5.0,
        )
        assert result.notes["time_budget"] == 5.0
        assert len(result.rows) == 1

    def test_figure_8_agreement_column(self):
        result = figure_8(k_values=(1,), n_candidates=8, n_voters=20)
        for row in result.rows:
            if row[1] != "full":
                assert row[6] is True


class TestApproxRunners:
    def test_figure_9_probability_decay(self):
        result = figure_9(
            m_values=(4, 5), repeats=1, rs_max_samples=50_000,
            lite_samples=200,
        )
        rows = {row[0]: row for row in result.rows}
        assert rows[4][1] > rows[5][1] > 0.0

    def test_figure_10_error_columns_ordered(self):
        result = figure_10(
            benchmark="a", d_values=(1, 4), n_instances=2, m=7,
            n_per_proposal=100,
        )
        for row in result.rows:
            assert row[1] <= row[2] <= row[3] <= row[4]  # p25<=p50<=p75<=max

    def test_figure_12_notes_fraction(self):
        result = figure_12(n_instances=3, m=7, n_per_proposal=100)
        assert 0.0 <= result.notes["improved_fraction"] <= 1.0

    def test_figure_13a_reports_w(self):
        result = figure_13a(
            labels_per_pattern=(3,), items_per_label=(3,), m=12,
        )
        assert all(row[3] >= 1 for row in result.rows)

    def test_figure_14_pattern_growth_column(self):
        result = figure_14(
            m_values=(15,), n_users=2, n_components=2, n_per_proposal=30,
            max_proposals=3,
        )
        assert len(result.rows) == 1
        assert result.rows[0][1] >= 1

    def test_figure_15_grouping_never_more_calls(self):
        result = figure_15(session_counts=(10, 50), naive_limit=50, n_movies=6)
        calls = {(row[0], row[1]): row[3] for row in result.rows}
        for count in (10, 50):
            assert calls[(count, "grouped")] <= calls[(count, "naive")]

    def test_accuracy_table_fractions(self):
        result = accuracy_table(m=6, n_sessions=3, n_voters=8,
                                n_per_proposal=100)
        values = dict(result.rows)
        assert 0.0 <= values["fraction_under_1pct"] <= 1.0
        assert values["fraction_under_1pct"] <= values["fraction_under_10pct"]
        assert not math.isnan(values["max_rel_err"])
