"""Polynomial-time conflict-free coloring constructions.

Four families:

* bipartite closed-neighborhood coloring by sides (2 colors, exact);
* split-graph closed-neighborhood coloring with a complete 2-vs-3
  decision (exact — see the case analysis in ``solve_split_cfcn``);
* cograph colorings from the modular decomposition tree (at most 3
  colors; not always minimum, so flagged upper-bound-only);
* the modulator constructions for graphs whose residual G-X is a
  cluster graph: d+2 colors for closed neighborhoods, 2d+2 for open
  neighborhoods (with one documented degenerate corner).

Every construction re-verifies its own output before returning, through
``coloring.checked_outcome``: a verifier rejection here is an internal
defect, reported as ``coloring.SelfCheckError`` rather than a silent bad
answer.  The outcome type and its ``EXACT``/``UPPER_BOUND`` flags live in
``coloring`` too.
"""

from __future__ import annotations

from .graph import Graph, induced_subgraph
from .coloring import (EXACT, UPPER_BOUND, VARIANT_CN, VARIANT_ON, Coloring, SolveOutcome,
                       checked_outcome, require_feasible)
from .graphclasses import (
    Modulator,
    MDNode,
    SplitPartition,
    has_prime_node,
    is_bipartite,
    neighbours_inside,
    residual_components,
    split_by_degrees,
)

def _universal_shortcut(g: Graph) -> SolveOutcome | None:
    """The first universal vertex 1 and every other vertex 0, an exact
    closed-neighbourhood coloring of a graph with an edge; None when no
    vertex is universal."""
    u = next((v for v in range(g.n) if g.degree(v) == g.n - 1), None)
    if u is None:
        return None
    return _side_coloring(g, set(range(g.n)) - {u})


def _side_coloring(g: Graph, zero_side, note: str = "") -> SolveOutcome:
    """`zero_side` 0 and every other vertex 1, an exact closed-neighbourhood
    coloring wherever the caller has shown that it verifies."""
    coloring = Coloring(g, tuple(0 if v in zero_side else 1 for v in range(g.n)))
    return checked_outcome(coloring, VARIANT_CN, EXACT, note)


def solve_bipartite_cfcn(g: Graph, bipartition: tuple[tuple[int, ...], tuple[int, ...]]) -> SolveOutcome:
    """Color side A with 0 and side B with 1; exact for any bipartite
    graph with an edge (a 1-coloring dies on any edge's closed
    neighborhood, and in the side coloring each vertex's own color is
    unique within N[v]).  An edgeless graph takes color 0 throughout,
    as in `solve_split_cfcn`: one color, and none on the empty graph."""
    a, b = (frozenset(bipartition[0]), frozenset(bipartition[1]))
    if a & b or (a | b) != frozenset(range(g.n)):
        raise ValueError("bipartition must partition the vertex set")
    for u, v in g.edges:
        if (u in a) == (v in a):
            raise ValueError(f"edge {u}-{v} lies inside one side of the bipartition")
    return _side_coloring(g, a if g.m else range(g.n))


def solve_split_cfcn(g: Graph, p: SplitPartition) -> SolveOutcome:
    """Exact 2-vs-3 decision for split graphs with an edge; an edgeless
    graph takes one color, and the empty graph none.

    A split graph has at most one component with an edge, since two
    would induce 2K2.  An isolated vertex v is served by its own color
    (N[v] = {v}), so beside isolated vertices that component is solved
    alone, and they take color 0: the graph needs what the component
    needs.

    Case analysis behind the exactness claim (connected, no universal
    vertex): with maximum-clique side C of size >= 3, any valid
    2-coloring must color C monochromatically and the independent side
    with the other color, forcing the one-independent-neighbor
    condition — so testing the canonical partition settles it.  If the
    maximum clique has size <= 2 the graph is triangle-free, hence
    bipartite, and the side coloring gives 2.  Otherwise 3 colors are
    always enough: one clique vertex 0, the rest of the clique 1, the
    independent side 2.

    The 2-coloring test reads counts.  A clique-0 / independent-1
    coloring of a partition (C', I') works iff |C'| = 1 or every vertex
    of C' has exactly one neighbour in I'.  With ci[v] the number of
    independent neighbours of v in the canonical (C, I): (C, I) works
    iff |C| = 1 or every ci is 1.  Moving a v with ci[v] = 0 to the
    independent side adds v to every other clique vertex's count, so
    (C - v, I + v) works iff |C| = 2 or every ci is 0; the first such v
    is taken.  No other single-vertex move can win.  A w in I adjacent
    to all of C does not exist, C being maximum.  Swapping v in C with
    a w in I adjacent to all of C - v leaves w with no neighbour on the
    new independent side (it is not adjacent to v, again because C is
    maximum), so that works only when the new clique is {w} alone,
    i.e. |C| = 1, where (C, I) already works.

    The canonical partition comes from the degree sequence alone.  The
    input partition, checked first, shows that g is split, and then the
    degree characterization makes the canonical C a clique, so the rest
    of a clique vertex's neighbours are independent and
    ci[v] = deg(v) - (|C| - 1), with nothing recounted.
    """
    cset, iset = set(p.clique), set(p.independent)
    if cset & iset or (cset | iset) != set(range(g.n)):
        raise ValueError("partition must cover the vertex set exactly once")
    if any(k != len(cset) - 1 for k in neighbours_inside(g, cset, cset)):
        raise ValueError("clique side is not a clique")
    if any(neighbours_inside(g, iset, iset)):
        raise ValueError("independent side is not independent")
    if g.m == 0:  # every closed neighborhood is the vertex itself
        return checked_outcome(Coloring(g, (0,) * g.n), VARIANT_CN, EXACT)
    if g.has_isolated_vertex():
        core = [v for v in range(g.n) if g.degree(v)]
        inner = _split_with_edge(induced_subgraph(g, core)[0])
        colors = [0] * g.n
        for v, c in zip(core, inner.coloring.colors):
            colors[v] = c
        return checked_outcome(Coloring(g, tuple(colors)), VARIANT_CN, EXACT, inner.note)
    return _split_with_edge(g)


def _split_with_edge(g: Graph) -> SolveOutcome:
    """`solve_split_cfcn`'s decision on a split graph with an edge and
    no isolated vertex, hence connected."""
    if (shortcut := _universal_shortcut(g)) is not None:
        return shortcut

    # probe the canonical maximum-clique partition (recomputed, so a
    # non-canonical input partition cannot weaken the decision)
    canonical = split_by_degrees(g)
    assert canonical is not None  # the checked input shows g is split
    c = canonical.clique
    ci = [g.degree(v) - (len(c) - 1) for v in c]
    zeros = ci.count(0)
    zero_side = None  # the clique side of a partition whose 2-coloring works
    if len(c) == 1 or ci.count(1) == len(c):
        zero_side = set(c)
    elif zeros and (len(c) == 2 or zeros == len(c)):
        zero_side = set(c) - {c[ci.index(0)]}
    if zero_side is not None:
        return _side_coloring(g, zero_side)

    bip, sides = is_bipartite(g)
    if bip:
        assert sides is not None
        return _side_coloring(g, set(sides[0]), "triangle-free split graph: side coloring")

    v0 = min(canonical.clique)
    colors = [2] * g.n
    for v in canonical.clique:
        colors[v] = 1
    colors[v0] = 0
    coloring = Coloring(g, tuple(colors))
    return checked_outcome(coloring, VARIANT_CN, EXACT)


def solve_cograph(g: Graph, t: MDNode, variant: str) -> SolveOutcome:
    """Color via the modular decomposition: one vertex of the first
    root module 0, one vertex of the remaining modules 1, everything
    else 2.  The two specially colored vertices carry globally unique
    colors and the series root joins them to every vertex, so both
    variants verify.  Not always minimum, hence upper-bound-only
    (except the universal-vertex shortcut for closed neighborhoods)."""
    if g.n == 0:  # no tree, and nothing to color
        return checked_outcome(Coloring(g, ()), variant, EXACT)
    if has_prime_node(t):
        raise ValueError("decomposition tree has a prime node (not a cograph)")
    if g.n == 1:
        require_feasible(g, variant)
        return checked_outcome(Coloring(g, (0,)), VARIANT_CN, EXACT)
    if t.kind != "series":
        raise ValueError("root is not a series node (graph disconnected?)")

    if variant == VARIANT_CN and (shortcut := _universal_shortcut(g)) is not None:
        return shortcut

    first = t.children[0].vertices
    rest = [v for child in t.children[1:] for v in child.vertices]
    colors = [2] * g.n
    colors[min(first)] = 0
    colors[min(rest)] = 1
    coloring = Coloring(g, tuple(colors))
    return checked_outcome(coloring, variant, UPPER_BOUND)


def _residual(
    g: Graph, m: Modulator, expected: str
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Sorted X and the components of G-X, once G-X is checked to be an
    `expected` graph."""
    comps = residual_components(g, m) if m.residual_class == expected else None
    if comps is None:
        raise ValueError(f"modulator residual is not a {expected} graph")
    return tuple(sorted(m.vertices)), comps


def lemma1_cfcn(g: Graph, m: Modulator) -> SolveOutcome:
    """d+2-color closed-neighborhood construction for a cluster
    modulator X: per residual clique its smallest vertex 0 and the rest
    1, plus one private color from {2..d+1} per modulator vertex."""
    x, cliques = _residual(g, m, "cluster")
    return _lemma1(g, x, cliques, VARIANT_CN)


def lemma1_cfon(g: Graph, m: Modulator) -> SolveOutcome:
    """2d+2-color open-neighborhood construction for a cluster
    modulator X.

    Steps: residual all 0; X gets private colors 1..d; any x whose open
    neighborhood is monochromatic 0 recolors its smallest neighbor with
    a fresh color from {d+1..2d}; any residual clique still entirely 0
    recolors one member with 2d+1 — preferring a member with a modulator
    neighbor, whose presence keeps that member's own neighborhood
    conflict-free.  A clique forming a whole component has no such
    member; if the 2d+1 vertex is then left staring at an all-0
    neighborhood of size >= 2, a second member takes color 1 when d >= 1
    (the first modulator vertex's color, which no vertex of that
    component sees) and 2d+2 = 2 when d = 0.  So at most 2d+2 colors are used, except at
    d = 0, where such a clique takes max(2d+2, 3) = 3 and the outcome is
    flagged.
    """
    x, cliques = _residual(g, m, "cluster")
    require_feasible(g, VARIANT_ON)
    return _lemma1(g, x, cliques, VARIANT_ON)


def _lemma1(
    g: Graph, x: tuple[int, ...], cliques: list[tuple[int, ...]], variant: str
) -> SolveOutcome:
    """The lemma1_cfcn / lemma1_cfon construction from sorted X and the
    cliques of G-X, which the caller has checked."""
    colors = [0] * g.n
    if variant == VARIANT_CN:
        for idx, xv in enumerate(x):
            colors[xv] = 2 + idx
        for clique in cliques:
            for v in clique[1:]:
                colors[v] = 1
        return checked_outcome(Coloring(g, tuple(colors)), VARIANT_CN, UPPER_BOUND)

    d = len(x)
    for idx, xv in enumerate(x):
        colors[xv] = 1 + idx

    next_fresh = d + 1
    for xv in x:
        nb = g.neighbors(xv)
        if nb and all(colors[u] == 0 for u in nb):
            colors[min(nb)] = next_fresh
            next_fresh += 1

    note = ""
    xs = set(x)
    for clique in cliques:
        if any(colors[v] != 0 for v in clique):
            continue
        with_x = [v for v in clique if any(u in xs for u in g.neighbors(v))]
        u = min(with_x) if with_x else min(clique)
        colors[u] = 2 * d + 1
        nb = g.neighbors(u)
        if len(nb) >= 2 and all(colors[w] == 0 for w in nb):
            colors[min(nb)] = 1 if d else 2
            if not d:
                note = "isolated-clique corner: second recolor with color 2d+2"

    coloring = Coloring(g, tuple(colors))
    return checked_outcome(coloring, VARIANT_ON, UPPER_BOUND, note=note)
