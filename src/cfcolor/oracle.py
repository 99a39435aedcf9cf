"""Exact conflict-free coloring by backtracking.

The search colors the vertices in an order fixed once per instance: a
breadth-first sweep over the constraint hypergraph that starts at the
vertex in the most constraints and, from each vertex it dequeues,
appends the unvisited members of that vertex's constraints, those in
more constraints first.  Each constraint's members thus sit close
together in the order, so most constraints complete early in the search
tree.  The usual symmetry break applies along that order: the i-th
vertex may only use colors 0..min(max_used+1, k-1).

A caller may also pass twin classes: disjoint vertex sets such that
swapping any two members of a class maps the family of constraint sets
onto itself.  Swapping two twins of a graph (equal N[v], or equal N(v))
is an automorphism, so it does so for both neighborhood families.  Along
the order, each class member then starts at the color of the class's
previous member, never below it: the lex-leader condition for those
swaps (Crawford, Ginsberg, Luks & Roy, KR 1996).  The depth-first search
meets colorings in lexicographic order along the search order, so its
first witness is the least valid coloring.  That one introduces its
colors in increasing order, and gives no later twin a smaller color than
an earlier one, because swapping the two would yield a smaller valid
coloring.  Neither break can thus cut it off: the witness, and every
answer, is the one the search without them returns.

The search state is two bitmasks per color, bit i standing for
constraint i: seen[c] holds the constraints that see color c at least
once, twice[c] those that see it at least twice, so seen[c] ^ twice[c]
holds those that see it exactly once.  Coloring a vertex updates the
masks of one color with a few word-parallel operations on the vertex's
constraint mask; backtracking restores the two masks saved at that
depth.  A constraint dies, and the branch with it, when no color is seen
once and either it is complete or all k colors are seen at least twice.
Colors are only added on the path to a full leaf, so neither case can
regain a unique color and the prune is sound.  The search runs as a
loop over an explicit depth counter, so its depth is not bounded by
Python's recursion limit.

`find_unique_coloring` works on an arbitrary family of vertex sets; the
CF-CN / CF-ON entry points search closed / open neighborhoods.  Both
entry points refuse graphs above a size guard (default 16 vertices)
unless the limit is lifted, and re-verify every witness they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_, xor
from typing import Sequence

from .graph import Graph, SizeGuardError
from .coloring import Coloring, checked, feasible, neighborhood

DEFAULT_LIMIT = 16


@dataclass(frozen=True)
class OracleResult:
    chromatic: int | None
    witness: Coloring | None
    infeasible: bool = False


def _search_order(
    n: int, constraints: Sequence[Sequence[int]], twins: Sequence[Sequence[int]] = ()
) -> tuple[tuple[list[int], list[int], list[int]], list[int]]:
    """The order the search colors the vertices in, and per depth of
    that order two constraint masks (bit i stands for constraint i): the
    constraints of the vertex colored there, and those whose last member
    it is; then the floor: the depth of the previous member of the
    vertex's twin class, or n, where the search's colors always read 0.
    Every constraint is scanned once, so this costs O(sum |S|) updates
    of m-bit masks plus sorting the n vertices by membership."""
    member_of: list[list[int]] = [[] for _ in range(n)]
    mask_of = [0] * n
    for ci, s in enumerate(constraints):
        bit = 1 << ci
        for v in s:
            member_of[v].append(ci)
            mask_of[v] |= bit

    more_constraints_first = [-len(m) for m in member_of].__getitem__
    seen = [False] * n
    expanded = [False] * len(constraints)
    order: list[int] = []
    for root in sorted(range(n), key=more_constraints_first):
        if seen[root]:
            continue
        seen[root] = True
        head = len(order)
        order.append(root)
        while head < len(order) < n:  # `order` is the BFS queue, full at n
            batch = []
            for ci in member_of[order[head]]:
                if expanded[ci]:
                    continue
                expanded[ci] = True
                for u in constraints[ci]:
                    if not seen[u]:
                        seen[u] = True
                        batch.append(u)
            batch.sort(key=more_constraints_first)
            order.extend(batch)
            head += 1
    masks = list(map(mask_of.__getitem__, order))
    closes = [0] * n
    later = 0  # the constraints of the vertices deeper than `depth`
    for depth in range(n - 1, -1, -1):
        grown = later | masks[depth]
        closes[depth] = grown ^ later
        later = grown
    floor = [n] * (n + 1)  # one more depth: the one past the last
    if twins:
        depth_of = [0] * n
        for depth, v in enumerate(order):
            depth_of[v] = depth
        for cls in twins:
            depths = sorted(map(depth_of.__getitem__, cls))
            for before, after in zip(depths, depths[1:]):
                floor[after] = before
    return (masks, closes, floor), order


def _search(
    k: int,
    constraints: Sequence[Sequence[int]],
    prepared: tuple[list[int], list[int], list[int]],
    order: list[int],
) -> list[int] | None:
    """A k-coloring (k >= 1) giving every constraint a unique color, or
    None."""
    if not all(constraints):
        return None
    masks, closes, floor = prepared
    seen = [0] * k  # seen[c]: the constraints with color c at least once
    twice = [0] * k  # twice[c]: those with color c at least twice
    n = len(order)
    last = k - 1
    colors = [0] * (n + 1)  # by depth; slot n, never colored, reads 0
    used = [0] * (n + 1)  # used[i]: distinct colors among the first i vertices
    saved = [None] * n  # (seen[c], twice[c]) before coloring depth i with c
    depth = 0
    c = -1  # the color last tried at `depth`
    while depth < n:
        mask = masks[depth]
        u = used[depth]
        top = u if u < k else last  # min(u, k - 1), without a builtin call per node
        c += 1
        while c <= top:
            a, b = seen[c], twice[c]
            hit = mask & a  # only these can lose their last unique color
            seen[c] = a | mask
            if hit:
                twice[c] = b | hit
                # dead if seeing no color once and either complete (its
                # last member is colored here) or seeing all k colors twice
                doomed = hit & closes[depth]
                if u == k or c == last:  # else some color is unused, twice[.] is 0
                    doomed |= reduce(and_, twice, hit)
                if doomed and doomed & reduce(or_, map(xor, seen, twice)) != doomed:
                    seen[c], twice[c] = a, b
                    c += 1
                    continue
            break
        if c <= top:
            colors[depth] = c
            saved[depth] = (a, b)
            depth += 1
            used[depth] = u + 1 if c == u else u  # c <= u, so this is max(u, c + 1)
            c = colors[floor[depth]] - 1  # fresh: start at the previous twin's color
        else:
            if depth == 0:
                return None
            depth -= 1  # back from a dead subtree: take the old color back
            c = colors[depth]
            seen[c], twice[c] = saved[depth]
    witness = [0] * n
    for v, c in zip(order, colors):
        witness[v] = c
    return witness


def _one_color(n: int, constraints: Sequence[Sequence[int]]) -> list[int] | None:
    """The 1-coloring if every constraint set has a unique color under
    it, else None: with one color, a set has a unique color only when it
    has one distinct member."""
    return [0] * n if all(len(set(s)) == 1 for s in constraints) else None


def find_unique_coloring(
    n: int, constraints: Sequence[Sequence[int]], k: int,
    twins: Sequence[Sequence[int]] = (),
) -> list[int] | None:
    """Some k-coloring where every constraint set has a unique color, or
    None when there is none.  Empty constraint sets make the instance
    infeasible; vertices in no set get color 0.  k = 1 is decided
    without a search, by `_one_color`.

    `twins` are disjoint classes of interchangeable vertices: swapping
    any two members of a class must map the family of constraint sets
    onto itself.  The caller guarantees it; the answer is the one the
    search without classes returns."""
    if k <= 0:
        return None if n or constraints else []
    if k == 1:
        return _one_color(n, constraints)
    return _search(k, constraints, *_search_order(n, constraints, twins))


def _neighborhood_constraints(g: Graph, variant: str) -> list[tuple[int, ...]]:
    return [neighborhood(g, v, variant) for v in range(g.n)]


def _check_guard(g: Graph, limit: int | None) -> None:
    if limit is not None and g.n > limit:
        raise SizeGuardError(
            f"graph has {g.n} vertices, above the exhaustive-search limit {limit}"
        )


def exact_cf(g: Graph, variant: str, limit: int | None = DEFAULT_LIMIT) -> OracleResult:
    """Minimum number of distinct colors for the variant, with a witness:
    k = 1 is decided by `_one_color`; when it fails, the search runs
    k = 2, 3, ... over one search order, built only then.

    CF-ON on a graph with an isolated vertex is infeasible at every k.
    Otherwise every neighborhood is nonempty, so k = n (all colors
    distinct) always succeeds and the loop ends by then.
    """
    _check_guard(g, limit)
    if not feasible(g, variant):
        return OracleResult(None, None, infeasible=True)
    if g.n == 0:
        return OracleResult(0, Coloring(g, ()))
    constraints = _neighborhood_constraints(g, variant)
    k = 1
    colors = _one_color(g.n, constraints)
    if colors is None:
        prepared, order = _search_order(g.n, constraints)
        k = 2
        while (colors := _search(k, constraints, prepared, order)) is None:
            k += 1
    witness = checked(Coloring(g, tuple(colors)), variant, "the oracle's witness check")
    return OracleResult(k, witness)


def decide_cf(
    g: Graph, variant: str, k: int, limit: int | None = DEFAULT_LIMIT,
    twins: Sequence[Sequence[int]] = (),
) -> tuple[bool, Coloring | None]:
    """Does a conflict-free coloring with at most k distinct colors exist?
    `twins` are classes of true twins (equal N[v]) or of false twins
    (equal N(v)) of g, as `find_unique_coloring` takes them."""
    _check_guard(g, limit)
    if k < 0:
        raise ValueError("k must be non-negative")
    if not feasible(g, variant):
        return False, None
    if g.n == 0:
        return True, Coloring(g, ())
    colors = find_unique_coloring(g.n, _neighborhood_constraints(g, variant), k, twins)
    if colors is None:
        return False, None
    return True, checked(Coloring(g, tuple(colors)), variant, "the oracle's witness check")
