"""Exact conflict-free coloring by backtracking.

The search colors the vertices in an order fixed once per instance: a
breadth-first sweep over the constraint hypergraph that starts at the
vertex in the most constraints and, from each vertex it dequeues,
appends the unvisited members of that vertex's constraints, those in
more constraints first.  Each constraint's members thus sit close
together in the order, so most constraints complete early in the search
tree.  The usual symmetry break applies along that order: the i-th
vertex may only use colors 0..min(max_used+1, k-1).

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

`find_unique_coloring` / `min_unique_coloring` work on an arbitrary
family of vertex sets; the CF-CN / CF-ON entry points instantiate them
with closed / open neighborhoods.  Both entry points refuse graphs above
a size guard (default 16 vertices) unless the limit is lifted, and
re-verify every witness they return.
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
    n: int, constraints: Sequence[Sequence[int]]
) -> tuple[tuple[list[int], list[int]], list[int]]:
    """The order the search colors the vertices in, and per depth of
    that order two constraint masks (bit i stands for constraint i): the
    constraints of the vertex colored there, and those whose last member
    it is.  Every constraint is scanned once, so this costs O(sum |S|)
    updates of m-bit masks plus sorting the n vertices by membership."""
    member_of: list[list[int]] = [[] for _ in range(n)]
    mask_of = [0] * n
    for ci, s in enumerate(constraints):
        bit = 1 << ci
        for v in s:
            member_of[v].append(ci)
            mask_of[v] |= bit

    def more_constraints_first(v: int) -> int:
        return -len(member_of[v])

    seen = [False] * n
    expanded = [False] * len(constraints)
    order: list[int] = []
    for root in sorted(range(n), key=more_constraints_first):
        if seen[root]:
            continue
        seen[root] = True
        head = len(order)
        order.append(root)
        while head < len(order):  # `order` doubles as the BFS queue
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
    masks = [mask_of[v] for v in order]
    closes = [0] * n
    later = 0  # the constraints of the vertices deeper than `depth`
    for depth in range(n - 1, -1, -1):
        grown = later | masks[depth]
        closes[depth] = grown ^ later
        later = grown
    return (masks, closes), order


def _search(
    k: int,
    constraints: Sequence[Sequence[int]],
    prepared: tuple[list[int], list[int]],
    order: list[int],
) -> list[int] | None:
    """A k-coloring (k >= 1) giving every constraint a unique color, or
    None."""
    if not all(constraints):
        return None
    masks, closes = prepared
    seen = [0] * k  # seen[c]: the constraints with color c at least once
    twice = [0] * k  # twice[c]: those with color c at least twice
    n = len(order)
    colors = [-1] * n  # by depth
    used = [0] * (n + 1)  # used[i]: distinct colors among the first i vertices
    seen_before = [0] * n  # seen[c] and twice[c] before coloring depth i with c
    twice_before = [0] * n
    depth = 0
    while depth < n:
        c = colors[depth]
        if c >= 0:  # back from a dead subtree: take the old color back
            seen[c], twice[c] = seen_before[depth], twice_before[depth]
        mask = masks[depth]
        top = min(used[depth], k - 1)
        c += 1
        while c <= top:
            a, b = seen[c], twice[c]
            hit = mask & a  # only these can lose their last unique color
            seen[c] = a | mask
            if hit:
                twice[c] = b | hit
                # dead if seeing no color once and either complete (its
                # last member is colored here) or seeing all k colors twice
                doomed = hit & closes[depth] | reduce(and_, twice, hit)
                if doomed and doomed & reduce(or_, map(xor, seen, twice)) != doomed:
                    seen[c], twice[c] = a, b
                    c += 1
                    continue
            break
        if c <= top:
            colors[depth] = c
            seen_before[depth], twice_before[depth] = a, b
            used[depth + 1] = max(used[depth], c + 1)
            depth += 1
        else:
            colors[depth] = -1
            if depth == 0:
                return None
            depth -= 1
    witness = [0] * n
    for v, c in zip(order, colors):
        witness[v] = c
    return witness


def find_unique_coloring(
    n: int, constraints: Sequence[Sequence[int]], k: int
) -> list[int] | None:
    """Some k-coloring where every constraint set has a unique color, or
    None when there is none.  Empty constraint sets make the instance
    infeasible; vertices in no set get color 0."""
    if k <= 0:
        return None if n or constraints else []
    return _search(k, constraints, *_search_order(n, constraints))


def min_unique_coloring(
    n: int, constraints: Sequence[Sequence[int]], max_k: int
) -> tuple[int, list[int]] | None:
    """Smallest k <= max_k admitting a unique coloring, with a witness."""
    prepared, order = _search_order(n, constraints)
    for k in range(1, max_k + 1):
        witness = _search(k, constraints, prepared, order)
        if witness is not None:
            return k, witness
    return None


def _neighborhood_constraints(g: Graph, variant: str) -> list[tuple[int, ...]]:
    return [neighborhood(g, v, variant) for v in range(g.n)]


def _check_guard(g: Graph, limit: int | None) -> None:
    if limit is not None and g.n > limit:
        raise SizeGuardError(
            f"graph has {g.n} vertices, above the exhaustive-search limit {limit}"
        )


def exact_cf(
    g: Graph, variant: str, max_k: int | None = None, limit: int | None = DEFAULT_LIMIT
) -> OracleResult:
    """Minimum number of distinct colors for the variant, with a witness.

    CF-ON on a graph with an isolated vertex is infeasible at every k.
    n distinct colors always suffice otherwise, so the search is bounded.
    """
    _check_guard(g, limit)
    if not feasible(g, variant):
        return OracleResult(None, None, infeasible=True)
    if g.n == 0:
        return OracleResult(0, Coloring(g, ()))
    cap = g.n if max_k is None else max_k
    found = min_unique_coloring(g.n, _neighborhood_constraints(g, variant), cap)
    if found is None:
        return OracleResult(None, None)
    k, colors = found
    witness = checked(Coloring(g, tuple(colors)), variant, "the oracle's witness check")
    return OracleResult(k, witness)


def decide_cf(
    g: Graph, variant: str, k: int, limit: int | None = DEFAULT_LIMIT
) -> tuple[bool, Coloring | None]:
    """Does a conflict-free coloring with at most k distinct colors exist?"""
    _check_guard(g, limit)
    if k < 0:
        raise ValueError("k must be non-negative")
    if not feasible(g, variant):
        return False, None
    if g.n == 0:
        return True, Coloring(g, ())
    colors = find_unique_coloring(g.n, _neighborhood_constraints(g, variant), k)
    if colors is None:
        return False, None
    return True, checked(Coloring(g, tuple(colors)), variant, "the oracle's witness check")
