"""Relation schemas of a RIM-PPD: o-relations and p-relations.

An *o-relation* (ordinary relation) is a named table of tuples — e.g. the
``Candidates`` and ``Voters`` relations of Figure 1 of the paper.  By
convention, when an o-relation describes the items being ranked, its first
column holds the item identifier.

A *p-relation* (preference relation) conceptually holds tuples
``(s; a; b)`` — "session s prefers item a to item b" — but is represented
compactly: each *session* (identified by the values of the session columns,
e.g. ``(voter, date)``) stores a preference model (RIM, Mallows, or a
Mallows mixture) from which the session's ranking is drawn in every
possible world.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, Sequence

Item = Hashable
Value = Hashable
SessionKey = tuple[Value, ...]


class ORelation:
    """An immutable ordinary relation (named columns, tuple rows)."""

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        rows: Iterable[Sequence[Value]],
    ):
        self.name = name
        self.columns = tuple(columns)
        normalized = []
        for row in rows:
            row = tuple(row)
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row {row!r} has {len(row)} values; "
                    f"{name} has {len(self.columns)} columns"
                )
            normalized.append(row)
        self.rows: tuple[tuple[Value, ...], ...] = tuple(normalized)
        self._column_index = {c: k for k, c in enumerate(self.columns)}
        #: Hash indexes over ``rows``, one per looked-up position set.
        self._indexes: dict[tuple[int, ...], dict[tuple, list[tuple]]] = {}
        if len(self._column_index) != len(self.columns):
            raise ValueError(f"duplicate column names in {name}")

    @property
    def arity(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"ORelation({self.name}, columns={self.columns}, n={len(self.rows)})"

    def column_index(self, column: str) -> int:
        try:
            return self._column_index[column]
        except KeyError:
            raise KeyError(f"{self.name} has no column {column!r}") from None

    def active_domain(self, position: int) -> list[Value]:
        """Distinct values of the column at ``position``, deterministic order."""
        if not 0 <= position < self.arity:
            raise IndexError(
                f"column position {position} out of range for {self.name}"
            )
        seen: dict[Value, None] = {}
        for row in self.rows:
            seen.setdefault(row[position], None)
        return sorted(seen, key=repr)

    def rows_where(self, conditions: Mapping[int, Value]) -> Iterator[tuple]:
        """Rows matching equality conditions ``{position: value}``, in order.

        Answered from a hash index over the condition positions, built on
        first use (``rows`` is immutable).  As with ``==``, a value
        unequal to itself (NaN) matches nothing.
        """
        positions = tuple(sorted(conditions))
        if not positions:
            return iter(self.rows)
        key = tuple(conditions[pos] for pos in positions)
        if any(value != value for value in key):
            return iter(())
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            for row in self.rows:
                row_key = tuple(row[pos] for pos in positions)
                index.setdefault(row_key, []).append(row)
            self._indexes[positions] = index
        return iter(index.get(key, ()))

    def first_row_where(self, conditions: Mapping[int, Value]) -> tuple | None:
        for row in self.rows_where(conditions):
            return row
        return None


class PRelation:
    """A preference relation: sessions with attached ranking models.

    Parameters
    ----------
    name:
        Relation name used in queries (e.g. ``P`` for ``Polls``).
    session_columns:
        Names of the columns identifying a session (e.g. ``("voter", "date")``).
    sessions:
        Mapping from session keys (tuples matching ``session_columns``) to
        preference models.  Every model must rank the same item universe.
    """

    def __init__(
        self,
        name: str,
        session_columns: Sequence[str],
        sessions: Mapping[SessionKey, object],
    ):
        self.name = name
        self.session_columns = tuple(session_columns)
        normalized: dict[SessionKey, object] = {}
        universe: frozenset | None = None
        for key, model in sessions.items():
            key = tuple(key) if isinstance(key, (tuple, list)) else (key,)
            if len(key) != len(self.session_columns):
                raise ValueError(
                    f"session key {key!r} does not match columns "
                    f"{self.session_columns}"
                )
            items = frozenset(model.items)
            if universe is None:
                universe = items
            elif items != universe:
                raise ValueError(
                    f"session {key!r} ranks a different item universe"
                )
            normalized[key] = model
        if universe is None:
            raise ValueError(f"p-relation {name} needs at least one session")
        self._sessions = normalized
        self._items = universe

    @property
    def items(self) -> frozenset[Item]:
        """The item universe ranked by every session."""
        return self._items

    @property
    def n_sessions(self) -> int:
        return len(self._sessions)

    def session_keys(self) -> list[SessionKey]:
        return sorted(self._sessions, key=repr)

    def model_of(self, key: SessionKey) -> object:
        try:
            return self._sessions[key]
        except KeyError:
            raise KeyError(f"{self.name} has no session {key!r}") from None

    def __contains__(self, key: SessionKey) -> bool:
        return key in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    def __repr__(self) -> str:
        return (
            f"PRelation({self.name}, session_columns={self.session_columns}, "
            f"n_sessions={len(self._sessions)}, m={len(self._items)})"
        )
