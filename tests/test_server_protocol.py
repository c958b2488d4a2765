"""The wire protocol and the request-grammar round trip.

Satellite coverage for the serving front-end: property-based
(`hypothesis`) round-tripping of every request kind through the string
grammar — ``request.describe()`` must parse back equal — plus anchored
caret excerpts on mutated invalid inputs, and unit coverage of the JSON
protocol layer (typed/string decode, options validation including the
auto-approx 400, JSON-safe encoding).
"""

from __future__ import annotations

import json
import string

import pytest

from repro.api.answer import Answer, BatchAnswer
from repro.api.requests import (
    AGGREGATE_STATISTICS,
    Aggregate,
    Count,
    Probability,
    TopK,
    parse_request,
)
from repro.query.ast import (
    COMPARISON_OPS,
    Comparison,
    ConjunctiveQuery,
    Constant,
    OAtom,
    PAtom,
    Variable,
    WILDCARD,
)
from repro.query.parser import QuerySyntaxError, caret_excerpt
from repro.server.protocol import (
    ProtocolError,
    decode_batch,
    decode_request,
    encode_answer,
    jsonable,
    validate_options,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# ----------------------------------------------------------------------
# Strategies: arbitrary well-formed requests
# ----------------------------------------------------------------------

NAMES = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,7}", fullmatch=True)

# Strings avoid quote characters so their repr stays single-quoted; floats
# are halves, which render and re-parse exactly.
SAFE_TEXT = st.text(
    alphabet=string.ascii_letters + string.digits + " _-", max_size=8
)
CONST_VALUES = st.one_of(
    SAFE_TEXT,
    st.integers(-999, 999),
    st.integers(-40, 40).map(lambda n: n / 2.0),
)

TERMS = st.one_of(
    st.just(WILDCARD),
    NAMES.map(Variable),
    CONST_VALUES.map(Constant),
)

P_ATOMS = st.builds(
    PAtom,
    relation=NAMES,
    session_terms=st.lists(TERMS, min_size=1, max_size=3).map(tuple),
    left=TERMS,
    right=TERMS,
)
O_ATOMS = st.builds(
    OAtom,
    relation=NAMES,
    terms=st.lists(TERMS, min_size=1, max_size=3).map(tuple),
)
COMPARISONS = st.builds(
    Comparison,
    variable=NAMES.map(Variable),
    op=st.sampled_from(COMPARISON_OPS),
    value=CONST_VALUES,
)

QUERIES = st.builds(
    ConjunctiveQuery,
    p_atoms=st.lists(P_ATOMS, min_size=1, max_size=3).map(tuple),
    o_atoms=st.lists(O_ATOMS, min_size=0, max_size=2).map(tuple),
    comparisons=st.lists(COMPARISONS, min_size=0, max_size=2).map(tuple),
)

# The grammar renders only the default top-k strategy/n_edges and the
# default aggregate n_worlds, so the round-trippable space fixes those.
REQUESTS = st.one_of(
    QUERIES.map(Probability),
    QUERIES.map(Count),
    st.builds(TopK, QUERIES, k=st.integers(1, 9)),
    st.builds(
        Aggregate,
        QUERIES,
        relation=NAMES,
        column=NAMES,
        statistic=st.sampled_from(AGGREGATE_STATISTICS),
    ),
)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(REQUESTS)
    def test_describe_parses_back_equal(self, request):
        text = request.describe()
        parsed = parse_request(text)
        assert parsed == request
        assert parsed.kind == request.kind
        # Idempotence: the rendered form is a fixed point of the grammar.
        assert parsed.describe() == text

    @settings(max_examples=100, deadline=None)
    @given(REQUESTS)
    def test_double_round_trip_of_typed_fields(self, request):
        parsed = parse_request(request.describe())
        if isinstance(request, TopK):
            assert parsed.k == request.k
        if isinstance(request, Aggregate):
            assert (parsed.relation, parsed.column, parsed.statistic) == (
                request.relation,
                request.column,
                request.statistic,
            )


# ----------------------------------------------------------------------
# Mutated invalid inputs: the caret lands on the mutation
# ----------------------------------------------------------------------


def _insertion_points(text: str) -> list[int]:
    """Positions where an illegal character must error exactly there.

    Inserting ``§`` mid-token (inside a number or a quoted string) shifts
    or swallows the error, so candidates sit right after a separator, in
    the query tail (``Q() <-`` onward — the COUNT/TOPK/AGG prefix regexes
    anchor their own errors elsewhere), and outside quoted spans.
    """
    head = text.index("Q() <-")
    points, in_quote = [], False
    for index, char in enumerate(text):
        if char == "'":
            in_quote = not in_quote
            continue
        if in_quote:
            continue
        if index + 1 >= head and char in " ,;()":
            points.append(index + 1)
    return points


class TestMutationCarets:
    @settings(max_examples=150, deadline=None)
    @given(REQUESTS, st.data())
    def test_error_offset_and_caret_anchor_the_mutation(self, request, data):
        text = request.describe()
        position = data.draw(st.sampled_from(_insertion_points(text)))
        mutated = text[:position] + "§" + text[position:]
        with pytest.raises(QuerySyntaxError) as caught:
            parse_request(mutated)
        error = caught.value
        assert error.offset == position
        assert error.source == mutated
        # The caret in the rendered excerpt sits under the mutated char.
        line, caret = caret_excerpt(error.source, error.offset).splitlines()
        column = caret.index("^")
        assert line[column] == "§"
        # The full rendered message carries the excerpt.
        assert "^" in str(error)

    def test_known_prefix_error_positions(self):
        with pytest.raises(QuerySyntaxError) as caught:
            parse_request("TOPK x P(_; 'a'; 'b')")
        assert caught.value.offset == len("TOPK ")
        with pytest.raises(QuerySyntaxError) as caught:
            parse_request("AGG median(V.age) P(_; 'a'; 'b')")
        assert "unsupported statistic" in str(caught.value)


# ----------------------------------------------------------------------
# The JSON protocol layer
# ----------------------------------------------------------------------


class TestDecodeRequest:
    def test_string_form(self):
        request, options = decode_request(
            {"request": "COUNT P(_; 'a'; 'b')", "method": "two_label"}
        )
        assert isinstance(request, Count)
        assert options == {"method": "two_label"}

    def test_bare_string(self):
        request, options = decode_request("TOPK 3 P(_; 'a'; 'b')")
        assert isinstance(request, TopK) and request.k == 3
        assert options == {}

    def test_typed_form(self):
        request, _ = decode_request(
            {
                "kind": "aggregate",
                "query": "P(v; 'a'; 'b')",
                "relation": "V",
                "column": "age",
                "statistic": "sum",
                "n_worlds": 500,
            }
        )
        assert isinstance(request, Aggregate)
        assert request.statistic == "sum" and request.n_worlds == 500

    def test_typed_topk_fields(self):
        request, _ = decode_request(
            {"kind": "top_k", "query": "P(_; 'a'; 'b')", "k": 4,
             "strategy": "naive"}
        )
        assert request.k == 4 and request.strategy == "naive"

    @pytest.mark.parametrize(
        "body",
        [
            17,
            ["P(_; 'a'; 'b')"],
            {},
            {"kind": "median", "query": "P(_; 'a'; 'b')"},
            {"kind": "count"},
            {"request": 42},
            {"kind": "top_k", "query": "P(_; 'a'; 'b')", "k": 0},
            {"kind": "top_k", "query": "P(_; 'a'; 'b')", "k": 1.5},
            {"kind": "top_k", "query": "P(_; 'a'; 'b')", "k": True},
            {"kind": "top_k", "query": "P(_; 'a'; 'b')", "n_edges": 0},
            {"kind": "top_k", "query": "P(_; 'a'; 'b')", "n_edges": "2"},
            {"kind": "aggregate", "query": "P(v; 'a'; 'b')",
             "relation": "V", "column": "age", "n_worlds": 0},
            {"kind": "aggregate", "query": "P(v; 'a'; 'b')",
             "relation": "V", "column": "age", "n_worlds": -1},
            {"kind": "aggregate", "query": "P(v; 'a'; 'b')",
             "relation": "V", "column": "age", "n_worlds": 2.5},
        ],
    )
    def test_malformed_bodies(self, body):
        with pytest.raises(ProtocolError):
            decode_request(body)

    def test_syntax_error_keeps_caret(self):
        with pytest.raises(ProtocolError) as caught:
            decode_request({"request": "P(v; 'a' 'b')"})
        assert "^" in str(caught.value)
        assert caught.value.status == 400


class TestValidateOptions:
    def test_auto_approx_without_budget_is_rejected(self):
        with pytest.raises(ProtocolError) as caught:
            validate_options({"method": "auto-approx"})
        assert "approx_budget" in str(caught.value)
        assert caught.value.status == 400

    def test_missing_required_solver_option_is_rejected(self):
        with pytest.raises(ProtocolError) as caught:
            validate_options({"method": "mis_amp_lite"})
        assert "n_proposals" in str(caught.value)
        assert caught.value.status == 400

    def test_auto_approx_with_budget_passes(self):
        options = validate_options(
            {"method": "auto-approx", "approx_budget": 1e6}
        )
        assert options["approx_budget"] == 1e6

    @pytest.mark.parametrize(
        "options",
        [
            {"method": "magic"},
            {"approx_budget": -1},
            {"approx_budget": "many"},
            {"session_limit": 0},
            {"session_limit": 2.5},
            {"session_limit": True},
        ],
    )
    def test_bad_options(self, options):
        with pytest.raises(ProtocolError):
            validate_options(options)


class TestDecodeBatch:
    def test_mixed_forms(self):
        requests, options = decode_batch(
            {
                "requests": [
                    "P(_; 'a'; 'b')",
                    {"request": "COUNT P(_; 'a'; 'b')"},
                    {"kind": "top_k", "query": "P(_; 'a'; 'b')", "k": 2},
                ],
                "method": "auto",
            }
        )
        assert [request.kind for request in requests] == [
            "probability", "count", "top_k",
        ]
        assert options == {"method": "auto"}

    def test_item_errors_are_indexed(self):
        with pytest.raises(ProtocolError) as caught:
            decode_batch({"requests": ["P(_; 'a'; 'b')", "P(v; §"]})
        assert "requests[1]" in str(caught.value)

    def test_per_item_options_rejected(self):
        with pytest.raises(ProtocolError) as caught:
            decode_batch(
                {"requests": [{"request": "P(_; 'a'; 'b')",
                               "method": "two_label"}]}
            )
        assert "batch level" in str(caught.value)

    @pytest.mark.parametrize("body", [None, {}, {"requests": []},
                                      {"requests": "P(_; 'a'; 'b')"}])
    def test_malformed_batches(self, body):
        with pytest.raises(ProtocolError):
            decode_batch(body)


class TestEncoding:
    def test_jsonable_handles_numpy_and_tuples(self):
        np = pytest.importorskip("numpy")
        value = {
            "ranking": [(("Ann", "5/5"), np.float64(0.25))],
            "n": np.int64(3),
            "labels": frozenset({"A", "B"}),
        }
        encoded = jsonable(value)
        assert json.loads(json.dumps(encoded)) == {
            "ranking": [[["Ann", "5/5"], 0.25]],
            "n": 3,
            "labels": ["A", "B"],
        }

    def test_encode_answer_round_trips_through_json(self):
        answer = Answer(
            request=Count("P(_; 'a'; 'b')"),
            kind="count",
            value=1.5,
            methods=("two_label",),
            requested_method="auto",
            n_sessions=3,
            seconds=0.01,
            stats={"n_solver_calls": 2},
        )
        encoded = encode_answer(answer)
        assert json.loads(json.dumps(encoded))["value"] == 1.5
        assert encoded["request"].startswith("COUNT ")
        assert encoded["methods"] == ["two_label"]

    def test_batch_answer_carries_plan_counters(self):
        batch = BatchAnswer(
            answers=[], n_requests=0, n_sessions=0, n_distinct_solves=0,
            n_cache_hits=0, seconds=0.0,
        )
        assert batch.n_solves_planned == 0
        assert batch.n_solves_eliminated == 0
