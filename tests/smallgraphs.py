"""Test-only graph helpers: exhaustive small-graph enumeration, seeded
random colorings, and the threshold certificate replay.

Exhaustive enumeration works by augmentation: extend every
(n-1)-vertex representative with vertex n-1 attached to each neighbor
subset, then reject isomorphs via an invariant bucket plus pairwise
backtracking isomorphism.  A hereditary prune keeps the split-graph
enumeration feasible one level deeper than the general one.
"""

from __future__ import annotations

import random

from cfcolor.graph import Graph, is_connected
from cfcolor.coloring import Coloring
from cfcolor.graphclasses import is_split


def random_coloring(g: Graph, max_colors: int, seed: int) -> Coloring:
    rng = random.Random(seed)
    return Coloring(g, tuple(rng.randrange(max_colors) for _ in range(g.n)))


def replay_elimination(n: int, order: tuple[tuple[int, str], ...]) -> Graph:
    """Rebuild a graph from an elimination certificate (reverse = construction)."""
    present: list[int] = []
    edges: list[tuple[int, int]] = []
    for v, kind in reversed(order):
        if kind == "universal":
            edges.extend((v, u) for u in present)
        elif kind != "isolated":
            raise ValueError(f"unknown elimination tag {kind!r}")
        present.append(v)
    return Graph(n, edges)


# --- exhaustive enumeration ------------------------------------------------

def _invariant(g: Graph) -> tuple:
    degs = sorted(g.degree(v) for v in range(g.n))
    profile = sorted(
        tuple(sorted(g.degree(u) for u in g.neighbors(v))) for v in range(g.n)
    )
    triangles = (
        sum(
            1
            for u, v in g.edges
            for w in range(g.n)
            if w != u and w != v and g.has_edge(u, w) and g.has_edge(v, w)
        )
        // 3
    )
    return (g.n, g.m, tuple(degs), tuple(profile), triangles)


def _isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.m != g2.m:
        return False
    n = g1.n
    deg1 = [g1.degree(v) for v in range(n)]
    deg2 = [g2.degree(v) for v in range(n)]
    if sorted(deg1) != sorted(deg2):
        return False
    order = sorted(range(n), key=lambda v: -deg1[v])
    perm = [-1] * n
    used = [False] * n

    def rec(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for w in range(n):
            if used[w] or deg2[w] != deg1[v]:
                continue
            ok = True
            for j in range(idx):
                u = order[j]
                if g1.has_edge(v, u) != g2.has_edge(w, perm[u]):
                    ok = False
                    break
            if ok:
                used[w] = True
                perm[v] = w
                if rec(idx + 1):
                    return True
                used[w] = False
                perm[v] = -1
        return False

    return rec(0)


def _augment_levels(max_n: int, prune) -> dict[int, list[Graph]]:
    """Non-isomorphic graphs (connected or not) level by level; `prune`
    rejects graphs outside a hereditary family before deduplication."""
    levels: dict[int, list[Graph]] = {1: [Graph(1, [])]}
    for size in range(2, max_n + 1):
        buckets: dict[tuple, list[Graph]] = {}
        for parent in levels[size - 1]:
            base = list(parent.edges)
            for mask in range(1 << (size - 1)):
                edges = base + [(i, size - 1) for i in range(size - 1) if mask >> i & 1]
                cand = Graph(size, edges)
                if prune is not None and not prune(cand):
                    continue
                bucket = buckets.setdefault(_invariant(cand), [])
                if not any(_isomorphic(cand, seen) for seen in bucket):
                    bucket.append(cand)
        levels[size] = [g for bucket in buckets.values() for g in bucket]
    return levels


_plain_levels: dict[int, list[Graph]] = {}
_split_levels: dict[int, list[Graph]] = {}


def _levels_up_to(max_n: int, prune, cache: dict[int, list[Graph]]) -> None:
    have = max(cache) if cache else 0
    if max_n > have:
        fresh = _augment_levels(max_n, prune)
        cache.update(fresh)


def enumerate_small(n: int, filt=None) -> list[Graph]:
    """All non-isomorphic connected graphs on exactly n vertices (n <= 7)
    passing the optional filter predicate."""
    if not 1 <= n <= 7:
        raise ValueError("enumeration is limited to 1 <= n <= 7")
    _levels_up_to(n, None, _plain_levels)
    out = [g for g in _plain_levels[n] if is_connected(g)]
    if filt is not None:
        out = [g for g in out if filt(g)]
    return out


def connected_split_graphs(max_n: int) -> list[Graph]:
    """All non-isomorphic connected split graphs on 1..max_n vertices
    (max_n <= 8); feasible one level beyond enumerate_small because
    split graphs are hereditary and sparse enough to prune during
    augmentation."""
    if not 1 <= max_n <= 8:
        raise ValueError("split enumeration is limited to max_n <= 8")
    _levels_up_to(max_n, lambda g: is_split(g)[0], _split_levels)
    return [
        g
        for size in range(1, max_n + 1)
        for g in _split_levels[size]
        if is_connected(g)
    ]
