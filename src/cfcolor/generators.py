"""Seeded random instance generators.

Every random generator is a pure function of its seed (one
`random.Random(seed)` stream per call), so identical calls reproduce
identical instances bit-for-bit.  Generators return their defining
certificate alongside the graph: the clique list for cluster graphs,
the creation sequence for threshold graphs, the partition for split
graphs, the interval representation for interval graphs, and the
modulator for modulator-composed instances.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .graph import Graph, connected_components, is_connected
from .graphclasses import Modulator, SplitPartition
from .interval import IntervalRepresentation, graph_from_representation


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


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
