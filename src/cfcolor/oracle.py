"""Exact conflict-free coloring by backtracking.

The search colors the vertices in an order fixed once per instance: a
breadth-first sweep over the constraint hypergraph that starts at the
vertex in the most constraints and, from each vertex it dequeues,
appends the unvisited members of that vertex's constraints, those in
more constraints first.  Each constraint's members thus sit close
together in the order, so most constraints complete early in the search
tree.  The usual symmetry break applies along that order: the i-th
vertex may only use colors 0..min(max_used+1, k-1).

Every constraint keeps its color counts, the number of colors seen once
and the number seen at least twice; assigning and undoing a color
updates them in O(1) per constraint.  A constraint dies, and the branch
with it, when no color is seen once and either it is complete or all k
colors are seen at least twice.  Colors are only added on the path to a
full leaf, so neither case can regain a unique color and the prune is
sound.  The search runs as a loop over an explicit depth counter, so
its depth is not bounded by Python's recursion limit.

`find_unique_coloring` / `min_unique_coloring` work on an arbitrary
family of vertex sets; the CF-CN / CF-ON entry points instantiate them
with closed / open neighborhoods.  Both entry points refuse graphs above
a size guard (default 16 vertices) unless the limit is lifted, and
re-verify every witness they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, SizeGuardError
from .coloring import VARIANT_ON, Coloring, neighborhood, verify
from .polysolve import SelfCheckError

DEFAULT_LIMIT = 16


@dataclass(frozen=True)
class OracleResult:
    chromatic: int | None
    witness: Coloring | None
    infeasible: bool = False


def _search_order(
    n: int, constraints: Sequence[Sequence[int]]
) -> tuple[list[list[int]], list[int]]:
    """The constraints each vertex is in, and the order the search colors
    the vertices in.  Every constraint is scanned once, so this costs
    O(sum |S|) plus sorting the n vertices by membership."""
    member_of: list[list[int]] = [[] for _ in range(n)]
    for ci, s in enumerate(constraints):
        for v in s:
            member_of[v].append(ci)

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
    return member_of, order


def _search(
    k: int,
    constraints: Sequence[Sequence[int]],
    member_of: list[list[int]],
    order: list[int],
) -> list[int] | None:
    """A k-coloring (k >= 1) giving every constraint a unique color, or
    None."""
    left = [len(s) for s in constraints]  # uncolored members
    if 0 in left:
        return None
    m = len(constraints)
    counts = [[0] * k for _ in range(m)]
    ones = [0] * m  # colors seen exactly once
    twos = [0] * m  # colors seen at least twice

    def undo(v: int, c: int, upto: int) -> None:
        for ci in member_of[v][:upto]:
            row = counts[ci]
            x = row[c] - 1
            row[c] = x
            left[ci] += 1
            if x == 0:
                ones[ci] -= 1
            elif x == 1:
                ones[ci] += 1
                twos[ci] -= 1

    def assign(v: int, c: int) -> bool:
        """Count color c for v; on a dead constraint, take it back."""
        mem = member_of[v]
        for j, ci in enumerate(mem):
            row = counts[ci]
            x = row[c]
            row[c] = x + 1
            rest = left[ci] - 1
            left[ci] = rest
            if x == 0:
                ones[ci] += 1
                continue
            if x == 1:
                once = ones[ci] = ones[ci] - 1
                many = twos[ci] = twos[ci] + 1
                dead = once == 0 and (rest == 0 or many == k)
            else:
                dead = rest == 0 and ones[ci] == 0
            if dead:
                undo(v, c, j + 1)
                return False
        return True

    n = len(order)
    colors = [-1] * n
    used = [0] * (n + 1)  # used[i]: distinct colors among the first i vertices
    depth = 0
    while depth < n:
        v = order[depth]
        c = colors[v]
        if c >= 0:  # back from a dead subtree: take the old color back
            undo(v, c, len(member_of[v]))
        top = min(used[depth], k - 1)
        c += 1
        while c <= top and not assign(v, c):
            c += 1
        if c <= top:
            colors[v] = c
            used[depth + 1] = max(used[depth], c + 1)
            depth += 1
        else:
            colors[v] = -1
            if depth == 0:
                return None
            depth -= 1
    return colors


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
    member_of, order = _search_order(n, constraints)
    for k in range(1, max_k + 1):
        witness = _search(k, constraints, member_of, order)
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


def _verified(g: Graph, colors: list[int], variant: str) -> Coloring:
    witness = Coloring(g, tuple(colors))
    if not verify(witness, variant):
        raise SelfCheckError("oracle witness failed verification")
    return witness


def exact_cf(
    g: Graph, variant: str, max_k: int | None = None, limit: int | None = DEFAULT_LIMIT
) -> OracleResult:
    """Minimum number of distinct colors for the variant, with a witness.

    CF-ON on a graph with an isolated vertex is infeasible at every k.
    n distinct colors always suffice otherwise, so the search is bounded.
    """
    _check_guard(g, limit)
    if variant == VARIANT_ON and any(g.degree(v) == 0 for v in range(g.n)):
        return OracleResult(None, None, infeasible=True)
    if g.n == 0:
        return OracleResult(0, Coloring(g, ()))
    cap = g.n if max_k is None else max_k
    found = min_unique_coloring(g.n, _neighborhood_constraints(g, variant), cap)
    if found is None:
        return OracleResult(None, None)
    k, colors = found
    return OracleResult(k, _verified(g, colors, variant))


def decide_cf(
    g: Graph, variant: str, k: int, limit: int | None = DEFAULT_LIMIT
) -> tuple[bool, Coloring | None]:
    """Does a conflict-free coloring with at most k distinct colors exist?"""
    _check_guard(g, limit)
    if k < 0:
        raise ValueError("k must be non-negative")
    if variant == VARIANT_ON and any(g.degree(v) == 0 for v in range(g.n)):
        return False, None
    if g.n == 0:
        return True, Coloring(g, ())
    colors = find_unique_coloring(g.n, _neighborhood_constraints(g, variant), k)
    if colors is None:
        return False, None
    return True, _verified(g, colors, variant)
