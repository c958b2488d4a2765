"""Shared fixtures and random-instance helpers for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import settings

from repro.patterns.labels import Labeling
from repro.patterns.pattern import LabelPattern, PatternNode
from repro.patterns.union import PatternUnion
from repro.rim.mallows import Mallows

#: CI's longer randomized run of the DP equivalence suite
#: (``--hypothesis-profile=long``); tier-1 runs the default profile.
settings.register_profile("long", max_examples=1000)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy Generator."""
    return np.random.default_rng(20200316)


@pytest.fixture
def pyrng() -> random.Random:
    """A deterministic stdlib Random."""
    return random.Random(20200316)


def random_instance(
    pyrng: random.Random,
    m_choices=(4, 5, 6),
    phi_choices=(0.1, 0.3, 0.7, 1.0),
    max_patterns: int = 3,
    max_nodes: int = 4,
    labels=("A", "B", "C", "D"),
    label_density: float = 0.4,
):
    """A random (model, labeling, union) triple for cross-validation tests."""
    m = pyrng.choice(list(m_choices))
    items = list(range(m))
    model = Mallows(items, pyrng.choice(list(phi_choices)))
    labeling = Labeling(
        {
            item: {label for label in labels if pyrng.random() < label_density}
            for item in items
        }
    )
    patterns = []
    for p in range(pyrng.randint(1, max_patterns)):
        q = pyrng.randint(2, max_nodes)
        nodes = [
            PatternNode(
                f"n{p}_{k}",
                frozenset(pyrng.sample(labels, pyrng.randint(1, 2))),
            )
            for k in range(q)
        ]
        edges = []
        for a in range(q):
            for b in range(a + 1, q):
                if pyrng.random() < 0.5:
                    edges.append((nodes[a], nodes[b]))
        if not edges:
            edges = [(nodes[0], nodes[1])]
        patterns.append(LabelPattern(edges, nodes=nodes))
    return model, labeling, PatternUnion(patterns)


def random_two_label_instance(
    pyrng: random.Random,
    m_choices=(4, 5, 6),
    phi_choices=(0.1, 0.5, 1.0),
    max_patterns: int = 3,
    labels=("A", "B", "C", "D"),
):
    """A random two-label union instance."""
    m = pyrng.choice(list(m_choices))
    items = list(range(m))
    model = Mallows(items, pyrng.choice(list(phi_choices)))
    labeling = Labeling(
        {
            item: {label for label in labels if pyrng.random() < 0.4}
            for item in items
        }
    )
    patterns = []
    for p in range(pyrng.randint(1, max_patterns)):
        left, right = pyrng.sample(labels, 2)
        patterns.append(
            LabelPattern(
                [
                    (
                        PatternNode(f"l{p}", frozenset({left})),
                        PatternNode(f"r{p}", frozenset({right})),
                    )
                ]
            )
        )
    return model, labeling, PatternUnion(patterns)


def random_bipartite_instance(
    pyrng: random.Random,
    m_choices=(4, 5, 6),
    phi_choices=(0.1, 0.5, 1.0),
    max_patterns: int = 2,
    labels=("A", "B", "C", "D"),
):
    """A random bipartite union instance."""
    m = pyrng.choice(list(m_choices))
    items = list(range(m))
    model = Mallows(items, pyrng.choice(list(phi_choices)))
    labeling = Labeling(
        {
            item: {label for label in labels if pyrng.random() < 0.4}
            for item in items
        }
    )
    patterns = []
    for p in range(pyrng.randint(1, max_patterns)):
        n_left = pyrng.randint(1, 2)
        n_right = pyrng.randint(1, 2)
        lefts = [
            PatternNode(f"l{p}_{k}", frozenset({pyrng.choice(labels)}))
            for k in range(n_left)
        ]
        rights = [
            PatternNode(f"r{p}_{k}", frozenset({pyrng.choice(labels)}))
            for k in range(n_right)
        ]
        edges = [
            (u, v)
            for u in lefts
            for v in rights
            if pyrng.random() < 0.7
        ]
        if not edges:
            edges = [(lefts[0], rights[0])]
        patterns.append(LabelPattern(edges))
    return model, labeling, PatternUnion(patterns)
