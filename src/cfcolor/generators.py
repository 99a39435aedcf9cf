"""Seeded random instance generators and exhaustive small-graph
enumeration.

Every random generator is a pure function of its seed (one
`random.Random(seed)` stream per call), so identical calls reproduce
identical instances bit-for-bit.  Generators return their defining
certificate alongside the graph: the clique list for cluster graphs,
the creation sequence for threshold graphs, the partition for split
graphs, the interval representation for interval graphs, and the
modulator for modulator-composed instances.

Exhaustive enumeration works by augmentation: extend every
(n-1)-vertex representative with vertex n-1 attached to each neighbor
subset, then reject isomorphs via an invariant bucket plus pairwise
backtracking isomorphism.  A hereditary prune keeps the split-graph
enumeration feasible one level deeper than the general one.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .graph import Graph, connected_components, is_connected
from .coloring import Coloring
from .graphclasses import Modulator, SplitPartition, is_split
from .interval import IntervalRepresentation, graph_from_representation


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_coloring(g: Graph, max_colors: int, seed: int) -> Coloring:
    rng = random.Random(seed)
    return Coloring(g, tuple(rng.randrange(max_colors) for _ in range(g.n)))


def cluster_graph(clique_sizes: tuple[int, ...]) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Disjoint cliques of the given sizes on consecutive vertex blocks."""
    if any(s < 1 for s in clique_sizes):
        raise ValueError("clique sizes must be positive")
    edges = []
    cliques = []
    start = 0
    for s in clique_sizes:
        block = tuple(range(start, start + s))
        cliques.append(block)
        edges.extend((u, v) for u in block for v in block if u < v)
        start += s
    return Graph(start, edges), tuple(cliques)


def _random_composition(total: int, rng: random.Random) -> list[int]:
    sizes = []
    remaining = total
    while remaining:
        s = rng.randint(1, remaining)
        sizes.append(s)
        remaining -= s
    return sizes


def random_cluster(n: int, seed: int) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Cliques of random sizes summing to n; n = 0 gives the empty graph."""
    if n < 0:
        raise ValueError("need n >= 0")
    rng = random.Random(seed)
    return cluster_graph(tuple(_random_composition(n, rng)))


def random_threshold(n: int, seed: int, connected: bool = True) -> tuple[Graph, tuple[tuple[int, str], ...]]:
    """Replay a random creation sequence of isolated/universal
    additions; forcing the last addition universal makes the result
    connected."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    creation: list[tuple[int, str]] = [(0, "isolated")]
    edges = []
    for v in range(1, n):
        if connected and v == n - 1:
            kind = "universal"
        else:
            kind = rng.choice(("isolated", "universal"))
        creation.append((v, kind))
        if kind == "universal":
            edges.extend((u, v) for u in range(v))
    return Graph(n, edges), tuple(creation)


def random_split(n: int, seed: int) -> tuple[Graph, SplitPartition]:
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    a = rng.randint(1, n)
    edges = [(u, v) for u in range(a) for v in range(u + 1, a)]
    for w in range(a, n):
        for u in range(a):
            if rng.random() < 0.5:
                edges.append((u, w))
    return Graph(n, edges), SplitPartition(tuple(range(a)), tuple(range(a, n)))


def random_interval_instance(n: int, seed: int) -> tuple[Graph, IntervalRepresentation]:
    """Connected interval graph with a distinguishing representation.

    Draws 2n distinct integer endpoints and pairs them in one sweep;
    while unopened intervals remain, the sweep never lets the number of
    open intervals drop to zero, so each new interval overlaps an open
    one and the result is connected by construction.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    points = sorted(rng.sample(range(4 * n), 2 * n))
    intervals: list[tuple[Fraction, Fraction] | None] = [None] * n
    starts: dict[int, int] = {}
    open_stack: list[int] = []
    next_vertex = 0
    for pt in points:
        opens_left = n - next_vertex
        if not open_stack or (opens_left > 0 and (len(open_stack) == 1 or rng.random() < 0.5)):
            starts[next_vertex] = pt
            open_stack.append(next_vertex)
            next_vertex += 1
        else:
            v = open_stack.pop(rng.randrange(len(open_stack)))
            intervals[v] = (Fraction(starts[v]), Fraction(pt))
    assert not open_stack and next_vertex == n
    rep = IntervalRepresentation(tuple(intervals))  # type: ignore[arg-type]
    g = graph_from_representation(rep)
    assert is_connected(g)
    return g, rep


def _attach_and_connect(
    n: int, edges: list[tuple[int, int]], x_vertices: range, rng: random.Random, p: float
) -> Graph:
    """Add random modulator-incident edges, then patch connectivity with
    further modulator-incident edges only (the residual is never touched)."""
    for xv in x_vertices:
        for u in range(xv):
            if rng.random() < p:
                edges.append((u, xv))
    g = Graph(n, edges)
    while not is_connected(g):
        comps = connected_components(g)
        xv = x_vertices[0]
        foreign = next(c for c in comps if xv not in c)
        target = rng.choice(sorted(foreign))
        edges.append((min(xv, target), max(xv, target)))
        g = Graph(n, edges)
    return g


def random_cluster_modulator_instance(n: int, d: int, seed: int) -> tuple[Graph, Modulator]:
    """Connected graph whose last d vertices form a cluster modulator."""
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    rng = random.Random(seed)
    n_res = n - d
    if d == 0:
        sizes = [n_res]  # single clique, else the graph cannot be connected
    else:
        sizes = _random_composition(n_res, rng) if n_res else []
    edges = []
    start = 0
    for s in sizes:
        edges.extend((u, v) for u in range(start, start + s) for v in range(u + 1, start + s))
        start += s
    g = _attach_and_connect(n, edges, range(n_res, n), rng, 0.4) if d else Graph(n, edges)
    return g, Modulator(tuple(range(n_res, n)), "cluster")


def random_threshold_modulator_instance(n: int, d: int, seed: int) -> tuple[Graph, Modulator]:
    """Connected graph whose last d vertices form a threshold modulator;
    the residual itself is generated connected."""
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    rng = random.Random(seed)
    n_res = n - d
    if n_res == 0:
        raise ValueError("residual must be nonempty")
    residual, _ = random_threshold(n_res, rng.randrange(2**30), connected=True)
    edges = list(residual.edges)
    g = _attach_and_connect(n, edges, range(n_res, n), rng, 0.4) if d else residual
    return g, Modulator(tuple(range(n_res, n)), "threshold")


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
