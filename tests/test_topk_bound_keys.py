"""The cache key of a top-k upper bound keeps the union's node names.

``upper_bound_union`` breaks ease ties by node name, but
``PatternUnion.freeze()`` forgets names.  Two TOPK requests whose unions
are renamed copies of each other share every solve key, yet on a tie they
keep different edges and get different bounds.  If a bound were keyed by
its solve key plus ``n_edges``, the second request through a shared cache
would read the first one's bounds, and its evaluation order could differ
from a from-scratch answer's.  Each request here, answered through one
``SolverCache`` in either order, must equal its cacheless ``answer()``
exactly.  CI runs this file long (``--hypothesis-profile=long``).
"""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.api import TopK, answer
from repro.db.database import PPDatabase
from repro.db.schema import ORelation, PRelation
from repro.plan import build_plan, optimize_plan
from repro.rankings.permutation import Ranking
from repro.rim.mallows import Mallows
from repro.service import SolverCache
from repro.stream.standing import answers_equal
from tests.test_dp_kernels import PROPERTY_SETTINGS

#: ``u`` precedes a ``B`` item and a ``C`` item; name order keeps the
#: edge to the ``B`` node on an ease tie.
QUERY = (
    "P(w; u; v1), P(w; u; v2), "
    "M(u, 'A', _, _), M(v1, _, 'B', _), M(v2, _, _, 'C')"
)
#: The same union renamed: name order now keeps the edge to ``C``.
RENAMED = (
    "P(w; a; z), P(w; a; y), "
    "M(a, 'A', _, _), M(z, _, 'B', _), M(y, _, _, 'C')"
)

#: Item 4 serves both targets and every session ranks it last, so both
#: edges tie; sessions 0 and 1 swap the other B and C servers.
TIE_ROWS = [
    (1, "A", "E", "F"),
    (2, "D", "B", "F"),
    (3, "D", "E", "C"),
    (4, "D", "B", "C"),
]
TIE_SESSIONS = [([1, 2, 3, 4], 0.5), ([1, 3, 2, 4], 0.5)]


def database(rows, sessions) -> PPDatabase:
    return PPDatabase(
        orelations=[ORelation("M", ["id", "genre", "sex", "length"], rows)],
        prelations=[
            PRelation(
                "P",
                ["worker"],
                {
                    (f"w{index}",): Mallows(Ranking(center), phi)
                    for index, (center, phi) in enumerate(sessions)
                },
            )
        ],
    )


@st.composite
def instances(draw):
    """Small Mallows sessions (m <= 6) over a random item labeling."""
    items = list(range(1, draw(st.integers(3, 6)) + 1))
    rows = [
        (
            item,
            draw(st.sampled_from("AD")),
            draw(st.sampled_from("BE")),
            draw(st.sampled_from("CF")),
        )
        for item in items
    ]
    sessions = draw(
        st.lists(
            st.tuples(
                st.permutations(items), st.sampled_from((0.2, 0.5, 0.8))
            ),
            min_size=2,
            max_size=5,
        )
    )
    return rows, sessions, draw(st.integers(1, 2))


def test_the_renamed_unions_share_their_solve_keys():
    """The case the bound key must tell apart: equal solve keys."""
    db = database(TIE_ROWS, TIE_SESSIONS)
    keys = []
    for text in (QUERY, RENAMED):
        plan = build_plan(TopK(text), db)
        optimize_plan(plan, canonical=True)
        keys.append([node.cache_key for node in plan.solves()])
    assert keys[0] == keys[1]


@PROPERTY_SETTINGS
@given(instances())
@example((TIE_ROWS, TIE_SESSIONS, 1))
@example((TIE_ROWS, TIE_SESSIONS, 2))
def test_shared_cache_answers_equal_cacheless_answers(instance):
    rows, sessions, k = instance
    db = database(rows, sessions)
    requests = [TopK(QUERY, k=k), TopK(RENAMED, k=k)]
    references = [answer(request, db) for request in requests]
    for order in ((0, 1), (1, 0)):
        cache = SolverCache()
        for index in order:
            warm = answer(requests[index], db, cache=cache)
            assert answers_equal(warm, references[index]), (order, index)
