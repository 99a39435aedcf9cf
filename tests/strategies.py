"""Shared hypothesis strategies, seeded families of graph-shaped test data,
and small test helpers."""

from __future__ import annotations

import itertools
import sys

from hypothesis import strategies as st

from cfcolor.graph import Graph
from cfcolor.generators import (
    random_cluster_modulator_instance,
    random_graph,
    random_threshold_modulator_instance,
)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs)))
    else:
        edges = set()
    return Graph(n, edges)


@st.composite
def colored_graphs(draw, min_n: int = 1, max_n: int = 8):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    colors = draw(
        st.lists(st.integers(0, max(1, g.n)), min_size=g.n, max_size=g.n)
    )
    return g, tuple(colors)


def modulator_pin_graphs():
    """The 120 seeded graphs whose modulators and solve lines are pinned:
    planted cluster modulators (n 8-12, d 1-3), planted threshold
    modulators (n 8-12, d 1-2) and G(n, 0.4) (n 6-10)."""
    for s in range(40):
        yield random_cluster_modulator_instance(8 + s % 5, 1 + s % 3, s)[0]
        yield random_threshold_modulator_instance(8 + s % 5, 1 + s % 2, s)[0]
        yield random_graph(6 + s % 5, 0.4, s)


def labeled_graphs(max_n: int):
    """Every labeled graph on 1..max_n vertices, edge sets in bitmask
    order over the sorted vertex pairs."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def stack_depth() -> int:
    """Frames on the caller's stack, for tests that lower the recursion
    limit to just above it."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth
