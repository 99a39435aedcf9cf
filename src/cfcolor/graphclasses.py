"""Graph-class recognizers with certificates, and deletion modulators.

Recognized classes and their certificates:

  bipartite  - a two-sided partition with every edge crossing
  cluster    - the list of disjoint cliques (P3-free)
  split      - a (clique, independent) partition with the clique maximum
  threshold  - an isolated/universal elimination order
  cograph    - a modular decomposition tree without Prime nodes

Split recognition uses the degree-sequence characterization: with
degrees d_1 >= ... >= d_n and m = max{i : d_i >= i-1}, the graph is
split iff sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i, in which case the m
vertices of largest degree (ties broken by smaller id) form a maximum
clique and the rest are independent.  `is_split` is that step and
returns its partition unchecked, as the characterization guarantees it;
the split solver checks any partition it is given, and recomputes the
canonical one through `is_split`.

The modular decomposition is the simplified top-down one: a Parallel
node when the module is disconnected, a Series node when its complement
is, otherwise a Prime node whose children are left as single leaves.
That is exact on cographs (the only consumers) -- a cograph never
reaches the Prime case at any level.  It works on vertex sets of the
input graph and builds no complement or induced subgraph: one
breadth-first search over the module's still-unvisited vertices gives
its components or, with a switch, its co-components, where each look
either reaches a vertex or is paid for by an edge.  Below a parallel
node only the complement can split a module, and below a series node
only the module itself, so each module takes one search.  Before the
search, degrees inside the module are tried: when the vertices of
degree 0 (|M| - 1 for the complement) stand alone and one of the rest
connects the rest, they give the parts in O(|M|) with no search; this
settles every level of a threshold graph.  A series part is trimmed
by removing the vertices outside it from its members' neighbour sets,
so each edge is removed once.  A searched module costs O(size + its
edges), and a work list replaces recursion, because a threshold
graph's cotree is about n/2 levels deep.  A threshold graph thus costs
O(n^2 + m); other deep cotrees, whose levels need the search, up to
O(n (n + m)).

Cluster and threshold graphs are each decided by one check of G minus
a removed vertex set, which returns the certificate or else a forbidden
induced subgraph: a P3 for cluster, a 2K2, P4 or C4 for threshold.  The
recognizers run it with nothing removed.  A check counts each vertex's
neighbours in the removed set from the removed side, one walk over
their adjacency, so the removed set costs its own degrees, not m.

The modulator search (Cai 1996) first packs vertex-disjoint
obstructions greedily, each found by the check with the earlier ones
removed; every modulator hits each of them, so their count is a lower
bound, and packing stops with no answer once the count passes the
budget.  Otherwise it branches on the check's obstruction, 3
or 4 ways, deepening one size at a time from the bound up to the
budget, and stops at the first size with a hitting set, returning the
lexicographically smallest sorted one.  One search runs the check once
per distinct removed set: a memo keyed by the set serves the other
branch orders and the later sizes.

`residual_components` is the one split of G-X, which the lemma1
constructions, the kernel and the threshold approximation take: the
same check, on G-X as a vertex set, after X is checked to lie in
0..n-1.  A cluster residual's cliques are its components.  A threshold
residual's come from the elimination certificate: the vertices stripped
as isolated before the first universal one are singletons, and all
later ones share the first universal vertex's component.  Both take
O(n + m) time, apart from the threshold check's sort by degree, and
build no subgraph.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import compress

from .graph import Graph, components_avoiding, degrees_avoiding


@dataclass(frozen=True)
class SplitPartition:
    clique: tuple[int, ...]
    independent: tuple[int, ...]


@dataclass(frozen=True)
class Modulator:
    vertices: tuple[int, ...]
    residual_class: str  # "cluster" or "threshold"


@dataclass(frozen=True)
class MDNode:
    kind: str  # "leaf" | "series" | "parallel" | "prime"
    vertices: tuple[int, ...]
    children: tuple["MDNode", ...] = ()

    @property
    def vertex(self) -> int:
        assert self.kind == "leaf"
        return self.vertices[0]


def is_bipartite(g: Graph) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """BFS two-coloring; component roots (smallest ids) land on side A."""
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] != -1:
            continue
        side[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if side[u] == -1:
                    side[u] = 1 - side[v]
                    queue.append(u)
                elif side[u] == side[v]:
                    return False, None
    a = tuple(v for v in range(g.n) if side[v] == 0)
    b = tuple(v for v in range(g.n) if side[v] == 1)
    return True, (a, b)


def is_cluster(g: Graph) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Every connected component must be a clique; O(n + m)."""
    cliques, _ = _cluster_check(g, set())
    return cliques is not None, cliques


def neighbours_inside(g: Graph, vertices, inside: set[int]) -> list[int]:
    """For each vertex of `vertices`, how many of its neighbours lie in
    `inside`: O(sum of their degrees), so a clique or independence
    check over a set costs O(n + m) rather than a test per pair."""
    return [len(inside.intersection(g.neighbors(v))) for v in vertices]


def is_split(g: Graph) -> tuple[bool, SplitPartition | None]:
    """The degree characterization's verdict and partition: the m
    vertices of largest degree (ties to the smaller id), a maximum
    clique, against the rest, an independent set.  The characterization
    guarantees both sides, so neither is re-checked here.  It reads
    degrees only, O(n log n)."""
    deg = list(map(g.degree, range(g.n)))
    # a reversed sort is still stable: equal degrees keep increasing ids
    order = sorted(range(g.n), key=deg.__getitem__, reverse=True)
    d = list(map(deg.__getitem__, order))
    # d_i - (i - 1) strictly decreases, so the i with d_i >= i - 1 are a prefix
    m = sum(map(operator.ge, d, range(g.n)))
    if sum(d[:m]) != m * (m - 1) + sum(d[m:]):
        return False, None
    return True, SplitPartition(tuple(sorted(order[:m])), tuple(sorted(order[m:])))


def is_threshold(g: Graph) -> tuple[bool, tuple[tuple[int, str], ...] | None]:
    """Repeatedly strip an isolated vertex, else a universal one, each
    time the one of smallest id; a lone last vertex counts as isolated.
    The order, replayed in reverse, is a construction sequence
    certificate.  One sort by degree, O(n log n + m)."""
    order, _ = _threshold_check(g, set())
    return order is not None, order


def _search(vertices: tuple[int, ...], adj: list[set[int]], co: bool) -> list[tuple[int, ...]]:
    """Components of the module (of its complement with `co`), each
    sorted, ordered by smallest member; adj[v] holds v's neighbours
    inside the module.  A breadth-first search over the unvisited
    vertices: each vertex a pop looks at is either reached (a
    neighbour, a non-neighbour with `co`) or stays unvisited, so one pop
    costs O(1 + its degree)."""
    unvisited = set(vertices)
    comps = []
    for s in vertices:
        if s not in unvisited:
            continue
        unvisited.remove(s)
        comp = [s]
        for v in comp:  # breadth-first: the list grows while it is read
            if not unvisited:
                break
            nb = unvisited.intersection(adj[v])
            if co:
                comp.extend(unvisited - nb)
                unvisited = nb
            else:
                comp.extend(nb)
                unvisited -= nb
        comps.append(tuple(sorted(comp)))
    return comps


def _degree_split(
    vertices: tuple[int, ...], adj: list[set[int]], co: bool
) -> list[tuple[int, ...]] | None:
    """The module's components (co-components with `co`) in the form of
    `_search`, when degrees inside the module settle them, else
    None.  A vertex of degree 0 (|M| - 1 with `co`) stands alone.  The
    rest form one part when one of them is universal in the rest (is
    isolated in it with `co`, so universal in its complement), as that
    vertex connects the rest.  A threshold graph settles every level this
    way, with a few C-level passes over the module's degrees."""
    size = len(vertices)
    degree = list(map(len, map(adj.__getitem__, vertices)))
    alone = size - 1 if co else 0
    loners = degree.count(alone)
    if loners == size:
        return [(v,) for v in vertices]
    # no loner has this degree: a rest vertex always has a rest neighbour
    # (a rest non-neighbour with `co`)
    if (loners if co else size - loners - 1) not in degree:
        return None
    if not loners:
        return [vertices]
    rest = tuple(compress(vertices, map(alone.__ne__, degree)))
    single = list(compress(vertices, map(alone.__eq__, degree)))
    cut = bisect_left(single, rest[0])
    return [(v,) for v in single[:cut]] + [rest] + [(v,) for v in single[cut:]]


def modular_decomposition(g: Graph) -> MDNode:
    if g.n == 0:
        raise ValueError("modular decomposition of the empty graph is undefined")
    # adj[v] holds v's neighbours inside the module being split; the
    # modules waiting to be split are disjoint, so one list serves all,
    # and a series split trims each set once, to v's own co-component
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    modules = [tuple(range(g.n))]  # parents before children
    above: list[str | None] = [None]  # the kind of each module's parent
    kinds: list[str] = []
    kids: list[range] = []
    for i, vertices in enumerate(modules):  # the list grows while it is read
        # a component is connected and a co-component co-connected, so
        # below a parallel node only the complement can split, and below
        # a series node only the module itself
        parts: list[tuple[int, ...]] = []
        if len(vertices) == 1:
            kind = "leaf"
        else:
            kind = "prime"
            if above[i] != "parallel":
                parts = _degree_split(vertices, adj, False) or _search(vertices, adj, False)
                kind = "parallel" if len(parts) > 1 else kind
            if kind == "prime" and above[i] != "series":
                parts = _degree_split(vertices, adj, True) or _search(vertices, adj, True)
                kind = "series" if len(parts) > 1 else kind
            if kind == "prime":
                parts = [(v,) for v in vertices]
            elif kind == "series":  # a co-component keeps its own neighbours
                for part in parts:
                    if len(part) > 1:
                        outside = set(vertices).difference(part)
                        for v in part:
                            adj[v] -= outside  # each edge is removed once
        above.extend([kind] * len(parts))
        kinds.append(kind)
        kids.append(range(len(modules), len(modules) + len(parts)))
        modules.extend(parts)
    nodes: list[MDNode] = [None] * len(modules)  # type: ignore[list-item]
    for i in reversed(range(len(modules))):
        nodes[i] = MDNode(kinds[i], modules[i], tuple(nodes[j] for j in kids[i]))
    return nodes[0]


def has_prime_node(node: MDNode) -> bool:
    stack = [node]
    while stack:
        node = stack.pop()
        if node.kind == "prime":
            return True
        stack.extend(node.children)
    return False


def is_cograph(g: Graph) -> tuple[bool, MDNode | None]:
    if g.n == 0:
        return True, None
    tree = modular_decomposition(g)
    if has_prime_node(tree):
        return False, tree
    return True, tree


def _cluster_check(
    g: Graph, removed: set[int]
) -> tuple[tuple[tuple[int, ...], ...] | None, tuple[int, int, int] | None]:
    """(cliques, None) when G-removed is a cluster graph, each clique
    sorted and ordered by smallest member; else (None, an induced P3).

    A component is a clique iff each member has all the others as
    neighbours.  A member v that does not has a neighbour u with a
    neighbour w outside N[v], so u has the two non-adjacent neighbours
    v and w.  One walk over the components, O(n + m).
    """
    deg = degrees_avoiding(g, removed)
    comps = []
    for comp in components_avoiding(g, removed):
        others = len(comp) - 1
        for v in comp:
            if deg[v] < others:
                for u in g.neighbors(v):
                    if u not in removed:
                        for w in g.neighbors(u):
                            if w != v and w not in removed and not g.has_edge(v, w):
                                return None, (v, u, w)
        comps.append(comp)
    return tuple(tuple(sorted(comp)) for comp in comps), None


def _threshold_check(
    g: Graph, removed: set[int]
) -> tuple[tuple[tuple[int, str], ...] | None, tuple[int, int, int, int] | None]:
    """(elimination order, None) when G-removed is a threshold graph;
    else (None, an induced 2K2, P4 or C4).

    Stripping a universal vertex lowers every remaining degree by one
    and stripping an isolated one lowers none, so one sort by (degree,
    id) serves the whole elimination.  Isolated vertices leave from the
    low end in id order; when there are none, a universal top-degree
    run leaves whole in id order, as its members stay universal and no
    vertex turns isolated until one is left alone.

    Where the elimination gets stuck, the remainder has neither kind,
    and two vertices u, v adjacent in its degree order (deg u >= deg v)
    have non-nested neighbourhoods: if every such pair nested, a
    neighbour of the lowest-degree vertex would be universal.  Then
    some b in N(v) - N[u] and a in N(u) - N[v] exist, and {u, a, v, b}
    induces a 2K2, P4 or C4 by whether uv and ab are edges.
    """
    deg = degrees_avoiding(g, removed)
    order = sorted((v for v in range(g.n) if v not in removed), key=deg.__getitem__)
    certificate: list[tuple[int, str]] = []
    lo, hi, stripped = 0, len(order) - 1, 0  # stripped universal vertices
    while lo <= hi:
        if deg[order[lo]] == stripped:
            certificate.append((order[lo], "isolated"))
            lo += 1
        elif deg[order[hi]] - stripped == hi - lo:
            top = hi
            while top > lo and deg[order[top - 1]] == deg[order[hi]]:
                top -= 1
            certificate.extend((v, "universal") for v in order[top:hi + 1])
            if top == lo:  # the lone last vertex
                certificate[-1] = (order[hi], "isolated")
            stripped += hi + 1 - top
            hi = top - 1
        else:
            break
    if lo > hi:
        return tuple(certificate), None
    rest = set(order[lo:hi + 1])
    for i in range(hi, lo, -1):
        u, v = order[i], order[i - 1]
        b = next((w for w in g.neighbors(v)
                  if w in rest and w != u and not g.has_edge(u, w)), None)
        if b is not None:
            a = next(w for w in g.neighbors(u)
                     if w in rest and w != v and not g.has_edge(v, w))
            return None, (u, a, v, b)
    raise AssertionError("a stuck elimination always leaves a non-nested pair")


# each class's one check: (certificate, None) or (None, obstruction)
_CLASS_CHECKS = {"cluster": _cluster_check, "threshold": _threshold_check}


def _branch_modulator(g: Graph, budget: int, residual_class: str) -> Modulator | None:
    """Bounded branching on forbidden induced subgraphs, deepened one
    size at a time from a packing lower bound.

    The bound comes first: check G-U, add the returned obstruction to
    U, and repeat until the check passes or the count passes the
    budget, so at most budget + 1 checks.  The packed obstructions are
    vertex-disjoint, so every modulator holds a vertex of each, and
    their count is a lower bound; above the budget there is no answer.

    At size s every branch removes one vertex of the obstruction that
    the class's check returns, down to depth s; the first size with a
    leaf is the minimum, and of its leaves the lexicographically
    smallest sorted tuple is returned.  Which obstruction is branched on does
    not matter: from any minimum hitting set H, the branch that picks
    a vertex of H in each obstruction ends at the leaf H, so the leaves
    at the minimum size are exactly the minimum hitting sets.  A set
    met again, in another branch order or at a larger size, reuses its
    check's answer.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    check = _CLASS_CHECKS[residual_class]
    answers: dict[frozenset[int], tuple[int, ...] | None] = {}

    def obstruction(removed: set[int]) -> tuple[int, ...] | None:
        key = frozenset(removed)
        if key not in answers:
            answers[key] = check(g, removed)[1]
        return answers[key]

    # at most budget + 1 packed sets of at most 4 (budget + 1) vertices
    # each enter the memo
    packed: set[int] = set()
    bound = 0
    while (disjoint := obstruction(packed)) is not None:
        bound += 1
        if bound > budget:
            return None
        packed.update(disjoint)

    removed: set[int] = set()
    best: tuple[int, ...] | None = None

    def rec(depth_left: int) -> None:
        nonlocal best
        found = obstruction(removed)
        if found is None:
            cand = tuple(sorted(removed))
            if best is None or cand < best:
                best = cand
            return
        if depth_left == 0:
            return
        for v in found:
            removed.add(v)
            rec(depth_left - 1)
            removed.remove(v)

    for size in range(bound, budget + 1):
        rec(size)
        if best is not None:
            return Modulator(best, residual_class)
    return None


def cluster_modulator(g: Graph, budget: int) -> Modulator | None:
    """Vertex set X, |X| <= budget, with G-X a disjoint union of cliques."""
    return _branch_modulator(g, budget, "cluster")


def threshold_modulator(g: Graph, budget: int) -> Modulator | None:
    """Vertex set X, |X| <= budget, with G-X a threshold graph."""
    return _branch_modulator(g, budget, "threshold")


def residual_components(g: Graph, modulator: Modulator) -> list[tuple[int, ...]] | None:
    """Components of G-X in original ids, each sorted and ordered by
    smallest member, when G-X is of the modulator's residual class;
    None when it is not.  A vertex of X outside 0..n-1 is a ValueError."""
    check = _CLASS_CHECKS.get(modulator.residual_class)
    if check is None:
        raise ValueError(f"unknown residual class {modulator.residual_class!r}")
    for v in modulator.vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"modulator vertex {v} not in graph")
    certificate, _ = check(g, set(modulator.vertices))
    if certificate is None:
        return None
    if modulator.residual_class == "cluster":  # the cliques are the components
        return list(certificate)
    # a vertex stripped as isolated before any universal one is alone in
    # G-X; every later vertex was adjacent to the first universal one
    first = next((i for i, (_, kind) in enumerate(certificate) if kind == "universal"),
                 len(certificate))
    comps = [(v,) for v, _ in certificate[:first]]
    if first < len(certificate):
        comps.append(tuple(sorted(v for v, _ in certificate[first:])))
    comps.sort()
    return comps


def validate_modulator(g: Graph, modulator: Modulator) -> bool:
    return residual_components(g, modulator) is not None
