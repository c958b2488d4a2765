"""Label patterns: DAGs over label-conjunction nodes (Section 2.1).

A label pattern ``g`` is a partial order over nodes, where each node carries
a *conjunction* of labels (e.g. ``{M, JD}``) and each edge ``(u, v)`` states
that the item embedded at ``u`` must be preferred to the item embedded at
``v``.  A ranking ``tau`` satisfies ``g`` (w.r.t. a labeling ``lambda``)
when an embedding of the nodes into positions exists — see
:mod:`repro.patterns.matching`.

Nodes have *names* distinct from their label sets: two different nodes may
carry identical labels (e.g. the pattern "some female candidate is preferred
to another female candidate" needs two nodes labeled F).  The conjunction of
patterns used by the general solver's inclusion–exclusion (Section 4.1)
keeps each conjunct's nodes separate — each pattern retains its own
existential witnesses — which is implemented as a disjoint union of node
sets (:func:`pattern_conjunction`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

Label = Hashable

#: Canonicalizing away node names exhausts the orderings of nodes the
#: Weisfeiler-Lehman refinement cannot distinguish; beyond this many
#: candidate orderings :meth:`LabelPattern.canonical_form` falls back to a
#: name-sensitive form (sound for caching — it only misses collisions).
_CANONICAL_ORDERINGS_CAP = 5040


def canonical_sort_key(value: Hashable) -> tuple[str, str, str]:
    """A process-deterministic total order over arbitrary hashables.

    Labels, items, and pattern nodes are plain hashables with no common
    ordering, so canonical forms sort them by type and ``repr``.  Distinct
    values may share a key (a ``repr`` collision); canonicalization treats
    such ties conservatively — the resulting forms stay *sound* as cache
    keys, they merely stop collapsing the tied values.
    """
    return (type(value).__module__, type(value).__qualname__, repr(value))


def sorted_labels(labels: Iterable[Label]) -> tuple[Label, ...]:
    """Labels as a tuple in :func:`canonical_sort_key` order."""
    return tuple(sorted(labels, key=canonical_sort_key))


def canonical_form_sort_key(form: tuple) -> tuple:
    """A comparable key for ordering canonical forms (see PatternUnion.freeze)."""
    tag, nodes_part, edges = form
    if tag == "named":
        nodes_key = tuple(
            (name, tuple(canonical_sort_key(label) for label in labels))
            for name, labels in nodes_part
        )
    else:
        nodes_key = tuple(
            tuple(canonical_sort_key(label) for label in labels)
            for labels in nodes_part
        )
    return (tag, nodes_key, edges)


@dataclass(frozen=True)
class PatternNode:
    """A pattern node: a named conjunction of labels.

    ``name`` identifies the node within its pattern (it typically echoes the
    query variable the node came from); ``labels`` is the set of labels an
    item must *all* carry to be embeddable at this node.
    """

    name: str
    labels: frozenset[Label]

    def __post_init__(self):
        if not isinstance(self.labels, frozenset):
            object.__setattr__(self, "labels", frozenset(self.labels))

    def rename(self, new_name: str) -> "PatternNode":
        return PatternNode(new_name, self.labels)

    def __repr__(self) -> str:
        labels = "{" + ", ".join(sorted(map(str, self.labels))) + "}"
        return f"{self.name}:{labels}"


def node(name: str, *labels: Label) -> PatternNode:
    """Convenience constructor: ``node("l1", "F")``."""
    return PatternNode(name, frozenset(labels))


class LabelPattern:
    """An immutable DAG of :class:`PatternNode` objects.

    Edges ``(u, v)`` mean "the item at ``u`` is preferred to the item at
    ``v``".  Construction validates acyclicity (a pattern is a partial order
    of labels) and rejects self-loops.  Isolated nodes are allowed: they
    assert the existence of a matching item without ordering it.
    """

    __slots__ = ("_nodes", "_edges", "_out", "_in", "_topo")

    def __init__(
        self,
        edges: Iterable[tuple[PatternNode, PatternNode]] = (),
        nodes: Iterable[PatternNode] = (),
    ):
        edge_set = frozenset((u, v) for u, v in edges)
        node_set = set(nodes)
        out_edges: dict[PatternNode, set[PatternNode]] = {}
        in_edges: dict[PatternNode, set[PatternNode]] = {}
        for u, v in edge_set:
            if u == v:
                raise ValueError(f"self-loop on node {u!r}: patterns are strict orders")
            node_set.add(u)
            node_set.add(v)
            out_edges.setdefault(u, set()).add(v)
            in_edges.setdefault(v, set()).add(u)
        names = [n.name for n in node_set]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in pattern: {sorted(names)}")
        self._nodes = frozenset(node_set)
        self._edges = edge_set
        self._out = {k: frozenset(v) for k, v in out_edges.items()}
        self._in = {k: frozenset(v) for k, v in in_edges.items()}
        self._topo = self._topological_order()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> frozenset[PatternNode]:
        return self._nodes

    @property
    def edges(self) -> frozenset[tuple[PatternNode, PatternNode]]:
        return self._edges

    def children(self, node: PatternNode) -> frozenset[PatternNode]:
        """Nodes directly less preferred than ``node``."""
        return self._out.get(node, frozenset())

    def parents(self, node: PatternNode) -> frozenset[PatternNode]:
        """Nodes directly more preferred than ``node``."""
        return self._in.get(node, frozenset())

    @property
    def size(self) -> int:
        """The paper's ``q``: number of nodes."""
        return len(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelPattern):
            return NotImplemented
        return self._nodes == other._nodes and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._nodes, self._edges))

    def __repr__(self) -> str:
        edges = sorted(f"{u!r} > {v!r}" for u, v in self._edges)
        isolated = sorted(repr(n) for n in self._nodes if n not in self._involved())
        parts = edges + isolated
        return "LabelPattern(" + "; ".join(parts) + ")"

    def _involved(self) -> set[PatternNode]:
        involved: set[PatternNode] = set()
        for u, v in self._edges:
            involved.add(u)
            involved.add(v)
        return involved

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def _topological_order(self) -> tuple[PatternNode, ...]:
        indegree = {n: len(self._in.get(n, ())) for n in self._nodes}
        frontier = sorted(
            (n for n, deg in indegree.items() if deg == 0), key=lambda n: n.name
        )
        order: list[PatternNode] = []
        while frontier:
            current = frontier.pop(0)
            order.append(current)
            released = []
            for child in self._out.get(current, ()):
                indegree[child] -= 1
                if indegree[child] == 0:
                    released.append(child)
            if released:
                frontier = sorted(frontier + released, key=lambda n: n.name)
        if len(order) != len(self._nodes):
            raise ValueError("pattern contains a cycle; patterns must be DAGs")
        return tuple(order)

    @property
    def topological_order(self) -> tuple[PatternNode, ...]:
        """Nodes ordered parents-first (deterministic tie-break by name)."""
        return self._topo

    def transitive_closure(self) -> "LabelPattern":
        """``tc(g)``: all implied node pairs as edges (Section 4.3.2)."""
        descendants: dict[PatternNode, set[PatternNode]] = {}
        for current in reversed(self._topo):
            reach: set[PatternNode] = set()
            for child in self._out.get(current, ()):
                reach.add(child)
                reach |= descendants[child]
            descendants[current] = reach
        closure_edges = [
            (u, v) for u, reach in descendants.items() for v in reach
        ]
        return LabelPattern(closure_edges, nodes=self._nodes)

    def is_two_label(self) -> bool:
        """True iff the pattern is a single edge between two nodes."""
        return len(self._nodes) == 2 and len(self._edges) == 1

    def is_bipartite(self) -> bool:
        """True iff every node is a pure source or a pure sink of edges.

        This is the paper's bipartite-pattern class (Section 4.3): nodes
        split into an L side (outgoing edges only) and an R side (incoming
        only).  Isolated nodes disqualify the pattern because the Min/Max
        position criterion does not express bare existence.
        """
        if not self._edges:
            return False
        for n in self._nodes:
            has_out = bool(self._out.get(n))
            has_in = bool(self._in.get(n))
            if has_out and has_in:
                return False
            if not has_out and not has_in:
                return False
        return True

    def left_nodes(self) -> frozenset[PatternNode]:
        """Source-side nodes of a bipartite pattern."""
        return frozenset(n for n in self._nodes if self._out.get(n))

    def right_nodes(self) -> frozenset[PatternNode]:
        """Sink-side nodes of a bipartite pattern."""
        return frozenset(n for n in self._nodes if self._in.get(n))

    # ------------------------------------------------------------------
    # Canonicalization (cache keys)
    # ------------------------------------------------------------------

    def canonical_form(self) -> tuple:
        """A hashable encoding of the pattern, invariant under node renaming.

        Node names carry no semantics — they echo the query variables the
        nodes came from — so two patterns that differ only in names match
        exactly the same rankings.  The cross-query solver cache
        (:mod:`repro.service.keys`) therefore keys requests by this form:

        * equal forms imply the patterns are isomorphic as label-annotated
          DAGs (the form lists each node's actual label objects in a
          canonical order plus edges as index pairs), so a cache collision
          is always semantically safe;
        * renamed-but-identical patterns produce equal forms: names are
          normalized away by a Weisfeiler-Lehman-style color refinement,
          and remaining ties are resolved by exhausting their orderings and
          keeping the lexicographically smallest edge encoding.

        Patterns whose tie groups would require more than
        ``_CANONICAL_ORDERINGS_CAP`` orderings fall back to a form that
        includes node names — still a sound cache key, it just no longer
        collapses renamings of such (pathologically symmetric) patterns.
        """
        nodes = sorted(self._nodes, key=lambda n: n.name)
        base = {
            n: tuple(canonical_sort_key(label) for label in sorted_labels(n.labels))
            for n in nodes
        }
        color: dict[PatternNode, tuple] = {n: (base[n],) for n in nodes}
        for _ in range(len(nodes)):
            refined = {
                n: (
                    color[n],
                    tuple(sorted(color[p] for p in self._in.get(n, ()))),
                    tuple(sorted(color[c] for c in self._out.get(n, ()))),
                )
                for n in nodes
            }
            ranks = {value: i for i, value in enumerate(sorted(set(refined.values())))}
            new_color = {n: (base[n], ranks[refined[n]]) for n in nodes}
            stable = len(set(new_color.values())) == len(set(color.values()))
            color = new_color
            if stable:
                break

        groups: dict[tuple, list[PatternNode]] = {}
        for n in nodes:
            groups.setdefault(color[n], []).append(n)
        ordered_groups = [groups[c] for c in sorted(groups)]

        n_orderings = 1
        for group in ordered_groups:
            n_orderings *= math.factorial(len(group))
        if n_orderings > _CANONICAL_ORDERINGS_CAP:
            return self._named_form(
                sorted(nodes, key=lambda n: (color[n], n.name))
            )

        best_edges: tuple | None = None
        best_order: list[PatternNode] = []
        for combo in itertools.product(
            *(itertools.permutations(group) for group in ordered_groups)
        ):
            candidate = [n for group in combo for n in group]
            index = {n: i for i, n in enumerate(candidate)}
            edges = tuple(sorted((index[u], index[v]) for u, v in self._edges))
            if best_edges is None or edges < best_edges:
                best_edges = edges
                best_order = candidate
        return (
            "canonical",
            tuple(sorted_labels(n.labels) for n in best_order),
            best_edges if best_edges is not None else (),
        )

    def named_form(self) -> tuple:
        """A hashable encoding of the pattern that keeps its node names.

        Where :meth:`canonical_form` collapses renamed copies, this form
        tells them apart, and
        :func:`repro.service.executors.thaw_pattern` rebuilds exactly this
        pattern from it.  Upper-bound cache keys need it: the bound's edge
        selection breaks ease ties by node name.
        """
        return self._named_form(
            sorted(
                self._nodes,
                key=lambda n: (
                    n.name,
                    tuple(map(canonical_sort_key, sorted_labels(n.labels))),
                ),
            )
        )

    def _named_form(self, ordered: list[PatternNode]) -> tuple:
        """The ``"named"`` form listing the nodes in ``ordered`` order."""
        index = {n: i for i, n in enumerate(ordered)}
        return (
            "named",
            tuple((n.name, sorted_labels(n.labels)) for n in ordered),
            tuple(sorted((index[u], index[v]) for u, v in self._edges)),
        )

    # ------------------------------------------------------------------
    # Derivations
    # ------------------------------------------------------------------

    def with_edges(
        self, edges: Iterable[tuple[PatternNode, PatternNode]]
    ) -> "LabelPattern":
        return LabelPattern(self._edges | set(edges), nodes=self._nodes)

    def relabeled(self, suffix: str) -> "LabelPattern":
        """A copy with every node name suffixed (used for disjoint unions)."""
        renamed = {n: n.rename(f"{n.name}{suffix}") for n in self._nodes}
        return LabelPattern(
            [(renamed[u], renamed[v]) for u, v in self._edges],
            nodes=renamed.values(),
        )


def pattern_conjunction(patterns: Sequence[LabelPattern]) -> LabelPattern:
    """The conjunction ``g_1 /\\ ... /\\ g_k`` as a single pattern.

    A ranking satisfies the conjunction iff it satisfies every conjunct,
    each with its own embedding.  The conjunction is therefore the disjoint
    union of the conjuncts: node names are suffixed with the conjunct index
    so witnesses are never accidentally unified (see the module docstring).
    """
    if not patterns:
        raise ValueError("conjunction of zero patterns is undefined")
    if len(patterns) == 1:
        return patterns[0]
    edges: list[tuple[PatternNode, PatternNode]] = []
    nodes: list[PatternNode] = []
    for index, pattern in enumerate(patterns):
        part = pattern.relabeled(f"&{index}")
        edges.extend(part.edges)
        nodes.extend(part.nodes)
    return LabelPattern(edges, nodes=nodes)


def chain_pattern(nodes: Sequence[PatternNode]) -> LabelPattern:
    """A total order of nodes as a pattern: ``n1 > n2 > ... > nk``."""
    edges = [(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]
    return LabelPattern(edges, nodes=nodes)
