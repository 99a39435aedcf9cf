"""Split-graph gadget tying proper k-colorability to conflict-free
open-neighborhood coloring with k+2 distinct colors.

From a source graph G on n vertices, first augment to G' = G plus two
universal vertices x and y.  The gadget H places all of V(G') into one
complete clique side and adds one independent vertex I_uv per edge uv of
G', adjacent to exactly u and v.  H is a split graph on 3n + m + 3
vertices.  Since the open neighborhood of I_uv is precisely {u, v}, a
conflict-free coloring must give u and v different colors, so H forces a
proper coloring of G' on the clique side; the dedicated vertices I_vx,
I_vy, I_xy pin x and y to two colors used nowhere else in V(G'), leaving
at most k of the k+2 colors for V(G).  Conversely a proper k-coloring of
G extends directly: x and y take the two extra colors and every I_uv
takes color k-1, which is never the lone color of an open neighborhood
it sits in.  For k >= 3 the equivalence makes the distinct-color
optimization on split graphs as hard as graph coloring — in contrast to
the closed-neighborhood variant, which on split graphs reduces to a
polynomial 2-versus-3 test.

Layout: source vertices keep their ids 0..n-1, x is n, y is n + 1, and
the G'-edges take the ids from n + 2 up in lexicographic order.  In G' a
source vertex has its own neighbours plus x and y, x has 0..n-1 and y, y
has 0..n.  In H a clique vertex has the other clique vertices and then
its edge vertices in id order, and the edge vertex I_uv has (u, v).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .graph import Graph, SizeGuardError
from .coloring import Coloring, VARIANT_ON, checked, verify
from .oracle import DEFAULT_LIMIT, decide_cf


@dataclass(frozen=True)
class GadgetInstance:
    source: Graph
    k: int
    gprime: Graph  # source plus universal x, y
    graph: Graph  # the split gadget H
    clique: tuple[int, ...]  # V(G') inside H
    independent: tuple[int, ...]
    pair_of: tuple[tuple[int, int], ...]  # edge of G' behind each independent vertex

    @property
    def x(self) -> int:
        return self.source.n

    @property
    def y(self) -> int:
        return self.source.n + 1


def _check_source(g: Graph, k: int) -> None:
    if k < 3:
        raise ValueError("the gadget needs k >= 3")
    if g.n < 1:
        raise ValueError("empty source graph")


def encode(g: Graph, k: int) -> GadgetInstance:
    """Build the gadget for `is G properly k-colorable` (k >= 3).

    Source vertices keep their ids, then come x, y and one slot per
    G'-edge in lexicographic order (`pair_of`, read off the tuples of
    G').  The neighbour tuples of G' and H are written directly, sorted,
    symmetric and loop-free by this layout (see the module docstring),
    so neither graph goes through the validating constructor."""
    _check_source(g, k)
    n = g.n
    x, y = n, n + 1
    below = tuple(range(n))
    gprime = Graph._trusted(
        tuple(g.neighbors(v) + (x, y) for v in below) + (below + (y,), below + (x,)))
    pair_of = gprime.edges
    clique = below + (x, y)
    independent = tuple(range(n + 2, n + 2 + len(pair_of)))
    slots: list[list[int]] = [[] for _ in clique]
    for slot, (u, v) in zip(independent, pair_of):
        slots[u].append(slot)
        slots[v].append(slot)
    adj = tuple(clique[:u] + clique[u + 1:] + tuple(s) for u, s in enumerate(slots))
    return GadgetInstance(g, k, gprime, Graph._trusted(adj + pair_of),
                          clique, independent, pair_of)


def forward_coloring(inst: GadgetInstance, source: Coloring) -> Coloring:
    """Extend a proper k-coloring of the source to the whole gadget."""
    n, k = inst.source.n, inst.k
    if source.graph != inst.source:
        raise ValueError("coloring belongs to a different graph")
    if not all(0 <= c < k for c in source.colors):
        raise ValueError("source colors must lie in 0..k-1")
    for u, v in inst.source.edges:
        if source.colors[u] == source.colors[v]:
            raise ValueError(f"edge {u}-{v} is monochromatic")
    colors = list(source.colors) + [k, k + 1]
    colors += [k - 1] * len(inst.independent)
    return checked(Coloring(inst.graph, tuple(colors)), VARIANT_ON, "the gadget extension's check")


def decode(inst: GadgetInstance, ch: Coloring) -> Coloring:
    """Restrict a conflict-free gadget coloring to the source vertices.

    Accepts only a verified coloring of the gadget with at most k+2
    distinct colors.  The edge vertices force both endpoints of every
    G'-edge apart and pin x and y to colors absent from the source, so
    the restriction is proper and spans at most k values; either failing
    would falsify the reduction and raises."""
    if ch.graph != inst.graph:
        raise ValueError("coloring belongs to a different graph")
    if not verify(ch, VARIANT_ON):
        raise ValueError("not a conflict-free open-neighborhood coloring of the gadget")
    if len(set(ch.colors)) > inst.k + 2:
        raise ValueError(f"more than {inst.k + 2} distinct colors")
    restriction = ch.colors[: inst.source.n]
    for u, v in inst.source.edges:
        if restriction[u] == restriction[v]:
            raise ValueError("restriction is not a proper coloring")
    if len(set(restriction)) > inst.k:
        raise ValueError("restriction uses more than k colors")
    return Coloring(inst.source, restriction)


def properly_colorable(g: Graph, k: int) -> tuple[int, ...] | None:
    """Plain backtracking proper coloring, independent of the main oracle.

    It colors the vertices in id order, each with the least color that
    none of its earlier neighbours has, so the first coloring it finds is
    the lexicographically least proper k-coloring.  The colors of a
    vertex's earlier neighbours are collected once, when the search
    steps forward onto it; backtracking changes none of them.  It runs
    as a loop over the position, so a long path does not hit Python's
    recursion limit."""
    n = g.n
    earlier = [nb[:bisect_left(nb, v)] for v, nb in enumerate(map(g.neighbors, range(n)))]
    colors = [-1] * n
    taken = [()] * n  # taken[v]: the colors of v's earlier neighbours
    v = 0
    while 0 <= v < n:
        c = colors[v] + 1  # the next color to try; only u < v are colored
        banned = taken[v]
        while c < k and c in banned:
            c += 1
        if c < k:
            colors[v] = c
            v += 1
            if v < n:
                taken[v] = [colors[u] for u in earlier[v]]
        else:
            colors[v] = -1
            v -= 1
    return tuple(colors) if v == n else None


@dataclass(frozen=True)
class CrossReport:
    source_yes: bool
    gadget_yes: bool
    decoded: Coloring | None

    @property
    def match(self) -> bool:
        return self.source_yes == self.gadget_yes


def cross_validate(g: Graph, k: int, limit: int | None = DEFAULT_LIMIT) -> CrossReport:
    """Compare proper k-colorability of g against conflict-free
    (k+2)-colorability of its gadget; both sides produce and check
    witnesses when they answer yes.

    The gadget has 3n + m + 3 vertices, so the default 16-vertex
    exhaustive-search guard only admits sources with up to 3 vertices;
    pass limit=None (or a larger limit) to validate bigger sources.  The
    arguments and the guard are checked before the gadget is built or
    the source colored."""
    _check_source(g, k)
    size = 3 * g.n + g.m + 3
    if limit is not None and size > limit:
        raise SizeGuardError(
            f"gadget has {size} vertices, above the exhaustive-search limit {limit}")
    inst = encode(g, k)
    source = properly_colorable(g, k)
    if source is not None:
        forward_coloring(inst, Coloring(g, source))  # checks conflict-freeness
    gadget_yes, witness = decide_cf(inst.graph, VARIANT_ON, k + 2, limit=limit)
    decoded = decode(inst, witness) if gadget_yes else None
    return CrossReport(source is not None, gadget_yes, decoded)
