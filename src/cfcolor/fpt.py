"""Reductions driven by a small deletion set: an exact kernel for a
cluster modulator and an additive approximation for a threshold modulator.

Kernelization (cluster modulator X, |X| = d).  Vertices of one residual
clique sharing the same modulator adjacency Y are true twins, so at most
cap = k+1 (closed variant) or 2k+1 (open variant) per class matter: any
satisfying assignment can be permuted within the class so that every
color that is the unique color of some neighborhood keeps a
representative among the smallest cap members.  Whole cliques with
identical capped type-count vectors are likewise interchangeable, and
d+1 of each such mega-type suffice because the unique-color providers of
the d modulator vertices touch at most d cliques.  Both deletions are
recorded with enough provenance to lift a kernel coloring back: deleted
cliques copy the coloring of a same-mega-type survivor that provides no
modulator vertex's unique color, and deleted twins take a color already
duplicated (closed) or tripled (open) among their kept siblings, which
by the cap's pigeonhole always exists.  When neither rule deletes a
vertex, the kernel is the graph itself: its witness needs no lift, and
the oracle's check of it is the only one.

Rule 1's outcome is one record per residual clique: its (clique, Y)
classes, built once from X's adjacency masks, as (Y, kept, dropped).
The rest is read off it: a clique's representative is its smallest
member, which Rule 1 keeps, and its mega-type is its kept count per Y.
The search gets the kept classes of two or more, true twins of the
kernel graph, so it tries one order of colors per class (`oracle`'s
lex-leader break) and returns the witness it would without them.

Approximation (threshold modulator X).  Only the modulator's own
neighborhood constraints plus those of singleton residual components are
solved exactly — on the subgraph spanned by X and N(X) with same-class
vertices capped at k+1 — and the smallest feasible color count there is
a lower bound for the whole graph.  A threshold graph has no pair of
disjoint edges, so at most one residual component carries an edge; that
component is itself a connected threshold graph and has an internal
universal vertex, and recoloring it (plus, for open neighborhoods, one
further member) with fresh colors serves every neighborhood constraint
inside the component.  The additive cost is therefore at most one color
for closed neighborhoods and two for open ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, induced_subgraph
from .coloring import (EXACT, UPPER_BOUND, VARIANT_CN, VARIANT_ON, Coloring, SelfCheckError,
                       SolveOutcome, checked, checked_outcome, has_unique_color, neighborhood,
                       require_feasible)
from .oracle import DEFAULT_LIMIT, decide_cf, find_unique_coloring
from .graphclasses import Modulator
from .polysolve import _lemma1, _residual

MegaType = tuple[tuple[int, int], ...]


def rule1_cap(k: int, variant: str) -> int:
    """Kept twins per (clique, modulator-adjacency) class."""
    return k + 1 if variant == VARIANT_CN else 2 * k + 1


def kernel_size_bound(d: int, k: int, variant: str) -> int:
    """Vertices surviving both rules: d modulator vertices plus at most
    d+1 cliques per capped type-count vector, each of at most 2^d
    classes of at most cap vertices."""
    cap = rule1_cap(k, variant)
    return d + (cap + 1) ** (2**d) * (d + 1) * (2**d) * cap


Classes = tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]


@dataclass(frozen=True)
class KernelInstance:
    graph: Graph
    variant: str
    x: tuple[int, ...] = ()  # kernel ids of the modulator vertices
    kept: tuple[int, ...] = ()  # kept[i] = original id of kernel vertex i
    deleted_cliques: tuple[tuple[int, int], ...] = ()  # (clique rep, survivor rep)
    classes: tuple[Classes, ...] = ()  # Rule 1's record: per clique, (Y, kept, dropped) by Y
    twins: tuple[tuple[int, ...], ...] = ()  # kernel ids of the kernel's classes of 2+
    short_circuit: SolveOutcome | None = None


@dataclass(frozen=True)
class KernelDecision:
    yes: bool
    witness: Coloring | None
    kernel: KernelInstance
    note: str


def _rep(cls: Classes) -> int:
    """A clique's smallest member: first of its class, so kept by Rule 1."""
    return min(vs[0] for _, vs, _ in cls)


def _mega_type(cls: Classes) -> MegaType:
    """A clique's kept count per modulator adjacency Y."""
    return tuple((y, len(vs)) for y, vs, _ in cls)


def provenance(inst: KernelInstance) -> list[str]:
    """One `dv <vertex> <clique-rep> <Y-bitmask>` line per twin deletion
    and one `dc <clique-rep> <survivor-rep>` line per clique deletion."""
    lines = [f"dv {v} {_rep(cls)} {y}"
             for cls in inst.classes for y, _, dropped in cls for v in dropped]
    lines += [f"dc {rep} {srep}" for rep, srep in inst.deleted_cliques]
    return lines


def _type_masks(g: Graph, x: tuple[int, ...]) -> list[int]:
    """mask[v] has bit i set iff v is adjacent to x[i]: built from X's
    side, so it costs the degrees of X rather than of the whole graph."""
    mask = [0] * g.n
    for i, xv in enumerate(x):
        bit = 1 << i
        for u in g.neighbors(xv):
            mask[u] |= bit
    return mask


def _types(g: Graph, x: tuple[int, ...], cliques: list[tuple[int, ...]]) -> list[Classes]:
    """Each clique's classes: the classifier behind Rule 1, the lift and
    the search's twin classes."""
    mask = _type_masks(g, x)
    out = []
    for clique in cliques:
        by_type: dict[int, list[int]] = {}
        for v in clique:  # clique is sorted, so classes stay sorted
            by_type.setdefault(mask[v], []).append(v)
        out.append(tuple((y, tuple(vs)) for y, vs in sorted(by_type.items())))
    return out


def kernelize(g: Graph, m: Modulator, k: int, variant: str) -> KernelInstance:
    """The kernel of (g, k) for the cluster modulator m under `variant`,
    or a short-circuit witness when k reaches the lemma1 bound."""
    x, cliques = _residual(g, m, "cluster")
    if k < 1:
        raise ValueError("need k >= 1")
    require_feasible(g, variant)
    d = len(x)

    # above the construction threshold the answer is yes outright
    if k >= (d + 2 if variant == VARIANT_CN else 2 * d + 2):
        sc = _lemma1(g, x, cliques, variant)
        if sc.colors_used <= k:
            return KernelInstance(Graph(0), variant, short_circuit=sc)

    cap = rule1_cap(k, variant)
    trimmed = False  # whether Rule 1 dropped a vertex
    classes: list[Classes] = []
    groups: dict[MegaType, list[int]] = {}  # mega-type -> indices into cliques
    for clique, types in zip(cliques, _types(g, x, cliques)):
        trim = len(clique) > cap and any(len(vs) > cap for _, vs in types)
        cls = tuple((y, vs[:cap], vs[cap:]) if trim else (y, vs, ()) for y, vs in types)
        trimmed |= trim
        groups.setdefault(_mega_type(cls), []).append(len(classes))
        classes.append(cls)

    deleted_cliques: list[tuple[int, int]] = []
    kept_cliques: list[int] = []
    for group in groups.values():  # groups arrive ordered by first clique rep
        kept_cliques.extend(group[: d + 1])
        deleted_cliques.extend((cliques[i][0], cliques[group[0]][0]) for i in group[d + 1 :])

    twins = tuple(vs for i in kept_cliques for _, vs, _ in classes[i] if len(vs) > 1)
    if trimmed or deleted_cliques:
        kept = tuple(sorted(set(x).union(*(vs for i in kept_cliques for _, vs, _ in classes[i]))))
        kernel, relabel = induced_subgraph(g, kept)
        kernel_x = tuple(map(relabel.__getitem__, x))
        twins = tuple(tuple(map(relabel.__getitem__, vs)) for vs in twins)
    else:  # neither rule deleted a vertex: the kernel is g itself, in g's ids
        kept, kernel, kernel_x = tuple(range(g.n)), g, x
    return KernelInstance(kernel, variant, kernel_x, kept, tuple(deleted_cliques),
                          tuple(classes), twins)


def _fill_twins(colors: list[int], kept: Sequence[int], dropped: Sequence[int],
                need: int) -> None:
    """Give every dropped true twin the smallest color that at least
    `need` of its kept twins share; the cap that kept them makes one
    exist by pigeonhole.  That color is already repeated in every
    neighbourhood holding the kept twins, so another copy there changes
    no color's uniqueness.  Rule 1's lift and the approximation's core
    both fill their dropped twins this way."""
    counts = Counter(colors[u] for u in kept)
    dup = min(c for c, cnt in counts.items() if cnt >= need)
    for v in dropped:
        colors[v] = dup


def _lift(g: Graph, inst: KernelInstance, kernel_coloring: Coloring) -> Coloring:
    """Extend a kernel coloring to the full graph, deleted cliques first;
    a kernel that is g itself needs no extension."""
    if inst.graph is g:
        return kernel_coloring
    colors = [0] * g.n
    for orig, c in zip(inst.kept, kernel_coloring.colors):
        colors[orig] = c

    # cliques providing the unique color of some modulator neighborhood
    # must not be copied; at most d are marked, and d+1 survivors of each
    # mega-type were kept
    marked: set[int] = set()
    by_rep = {_rep(cls): cls for cls in inst.classes}
    rep_of_vertex = {v: rep for rep, cls in by_rep.items() for _, vs, _ in cls for v in vs}
    kc = kernel_coloring.colors
    for xk in inst.x:
        nb = neighborhood(inst.graph, xk, inst.variant)
        unique = has_unique_color(kernel_coloring, nb)
        if unique is None:
            raise SelfCheckError("kernel witness leaves a modulator vertex unserved")
        provider = next(u for u in nb if kc[u] == unique)
        orig = inst.kept[provider]
        if orig in rep_of_vertex:
            marked.add(rep_of_vertex[orig])

    deleted_reps = {rep for rep, _ in inst.deleted_cliques}
    survivor: dict[MegaType, Classes] = {}  # the first unmarked kept clique per mega-type
    for rep, cls in by_rep.items():
        if rep not in deleted_reps and rep not in marked:
            survivor.setdefault(_mega_type(cls), cls)
    for rep, _srep in inst.deleted_cliques:
        cls = by_rep[rep]
        for (_, dvs, _), (_, svs, _) in zip(cls, survivor[_mega_type(cls)]):
            for dv, sv in zip(dvs, svs):
                colors[dv] = colors[sv]

    # a twin is in its own N[v] but not in its N(v), so under on a color
    # must be tripled among the kept twins to stay repeated in each of them
    need = 2 if inst.variant == VARIANT_CN else 3
    for cls in inst.classes:
        for _, vs, dropped in cls:
            if dropped:
                _fill_twins(colors, vs, dropped, need)

    return Coloring(g, tuple(colors))


def solve_via_kernel(
    g: Graph,
    m: Modulator,
    k: int,
    variant: str,
    limit: int | None = DEFAULT_LIMIT,
) -> KernelDecision:
    """Decide k-colorability through the kernel and lift any witness.
    The search colors each twin class of the kernel in order, as
    `oracle` describes; that changes no answer and no witness."""
    inst = kernelize(g, m, k, variant)
    if inst.short_circuit is not None:
        return KernelDecision(
            True,
            inst.short_circuit.coloring,
            inst,
            note="threshold on k met; constructive witness",
        )
    yes, kernel_witness = decide_cf(inst.graph, variant, k, limit=limit, twins=inst.twins)
    if not yes:
        return KernelDecision(False, None, inst, note="kernel infeasible")
    lifted = checked(_lift(g, inst, kernel_witness), variant, "the lifted coloring's check")
    if lifted.num_colors > k:
        raise SelfCheckError("lifted coloring exceeds the color budget")
    note = ("kernel is the whole graph; witness not lifted" if inst.graph is g
            else "lifted kernel witness")
    return KernelDecision(True, lifted, inst, note=note)


# --- threshold-modulator approximation -------------------------------------


def _component_universal(g: Graph, comp: tuple[int, ...], mask: list[int]) -> int:
    """Smallest member adjacent to all others; exists in any connected
    threshold graph.  `comp` is a component of G-X and mask[v] holds
    v's neighbours in X (`_type_masks`), so v's neighbours in comp are
    its degree less the bits of its mask."""
    for v in comp:
        if g.degree(v) - mask[v].bit_count() == len(comp) - 1:
            return v
    raise SelfCheckError("residual component has no universal vertex")


def _threshold_base(g: Graph, variant: str) -> SolveOutcome:
    """The modulator-free case: the graph itself is threshold."""
    colors = [0] * g.n
    # edgeless: all 0 is exact under cn (no color at all when n == 0), and
    # under on feasibility leaves only the empty graph
    if g.m == 0:
        return checked_outcome(Coloring(g, tuple(colors)), variant, EXACT)
    u = min(range(g.n), key=lambda v: (-g.degree(v), v))
    colors[u] = 1
    if variant == VARIANT_CN:
        # a lone 1 on a maximum-degree vertex sits in every non-trivial
        # closed neighborhood, and 2 colors are necessary once m >= 1
        return checked_outcome(Coloring(g, tuple(colors)), variant, EXACT)
    colors[min(v for v in range(g.n) if v != u)] = 2
    return checked_outcome(Coloring(g, tuple(colors)), variant, UPPER_BOUND)


def _approx(g: Graph, m: Modulator, variant: str) -> SolveOutcome:
    x, comps = _residual(g, m, "threshold")
    require_feasible(g, variant)
    if not x:
        return _threshold_base(g, variant)
    mask = _type_masks(g, x)

    singles = [c[0] for c in comps if len(c) == 1]
    bigs = [c for c in comps if len(c) >= 2]

    # class key for interchangeable non-modulator vertices of the core:
    # modulator adjacency plus whether the vertex carries its own
    # singleton-component constraint
    single_set = set(singles)
    classes: dict[tuple[int, bool], list[int]] = {}
    for v in sorted({u for xv in x for u in g.neighbors(xv)} - set(x)):
        classes.setdefault((mask[v], v in single_set), []).append(v)

    for kstar in range(1, g.n + 2):
        kept = sorted(
            set(x) | {v for members in classes.values() for v in members[: kstar + 1]}
        )
        kept_set = set(kept)
        relabel = {v: i for i, v in enumerate(kept)}
        # a singleton's neighborhood lies inside X, so all of it is kept
        csets = [
            tuple(relabel[u] for u in neighborhood(g, v, variant) if u in kept_set)
            for v in (*x, *singles)
            if v in kept_set
        ]
        witness = find_unique_coloring(len(kept), csets, kstar)
        if witness is not None:
            break
    else:
        raise SelfCheckError("the core has no coloring, not even an all-distinct one")

    colors = [0] * g.n  # smallest used color fills the unconstrained rest
    for i, v in enumerate(kept):
        colors[v] = witness[i]
    cap = kstar + 1  # the core kept the first cap members of each class
    for members in classes.values():
        if len(members) > cap:
            _fill_twins(colors, members[:cap], members[cap:], 2)

    # two residual components each holding an edge would induce a pair of
    # disjoint edges, impossible in a threshold graph
    if len(bigs) > 1:
        raise SelfCheckError(f"G-X has {len(bigs)} components with an edge, threshold allows one")
    fresh = kstar
    for comp in bigs:
        u = _component_universal(g, comp, mask)
        colors[u] = fresh
        fresh += 1
        if variant == VARIANT_ON:
            w = min(v for v in comp if v != u)
            colors[w] = fresh
            fresh += 1

    return checked_outcome(
        Coloring(g, tuple(colors)), variant, UPPER_BOUND, note=f"core optimum {kstar}"
    )


def approx_cfcn_threshold(g: Graph, m: Modulator) -> SolveOutcome:
    """Closed-neighborhood coloring within one color of the optimum."""
    return _approx(g, m, VARIANT_CN)


def approx_cfon_threshold(g: Graph, m: Modulator) -> SolveOutcome:
    """Open-neighborhood coloring within two colors of the optimum."""
    return _approx(g, m, VARIANT_ON)
