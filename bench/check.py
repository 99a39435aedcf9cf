"""Independent checks for the benchmark's outputs.

Nothing here imports cfcolor, so a defect in the library's verifiers or
oracle cannot hide a defect in its solvers.  Graphs are plain adjacency
lists of frozensets on vertices 0..n-1.

`cf_search` is the reference exact solver the pinned answers in
`pool.json` come from.  It differs from the library oracle on purpose:
vertices go in breadth-first order from a highest-degree vertex, so
neighborhoods complete early, and every neighborhood keeps running color
counts, so a neighborhood whose every available color already occurs
twice is pruned before it completes.
"""

from __future__ import annotations

import itertools
from collections import deque


def adjacency(n: int, edges) -> list[frozenset[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return [frozenset(s) for s in adj]


def neighborhoods(adj: list[frozenset[int]], variant: str) -> list[frozenset[int]]:
    if variant == "cn":
        return [nb | {v} for v, nb in enumerate(adj)]
    if variant == "on":
        return list(adj)
    raise ValueError(f"unknown variant {variant!r}")


def cf_violation(adj: list[frozenset[int]], colors, variant: str) -> int | None:
    """First vertex whose neighborhood has no uniquely occurring color,
    or None when the coloring is conflict-free."""
    if len(colors) != len(adj):
        return -1
    for v, nb in enumerate(neighborhoods(adj, variant)):
        seen: dict[int, int] = {}
        for u in nb:
            seen[colors[u]] = seen.get(colors[u], 0) + 1
        if 1 not in seen.values():
            return v
    return None


def _completion_order(adj: list[frozenset[int]]) -> list[int]:
    """Breadth-first from a highest-degree vertex, neighbors by degree."""
    n = len(adj)
    seen = [False] * n
    order: list[int] = []
    for root in sorted(range(n), key=lambda v: (-len(adj[v]), v)):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in sorted(adj[v], key=lambda w: (-len(adj[w]), w)):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return order


def cf_search(adj: list[frozenset[int]], variant: str, k: int) -> list[int] | None:
    """A coloring with at most k distinct colors in which every
    neighborhood has a uniquely occurring color, or None."""
    n = len(adj)
    sets = neighborhoods(adj, variant)
    if any(not s for s in sets):
        return None
    if n == 0:
        return []
    if k <= 0:
        return None
    order = _completion_order(adj)
    member: list[list[int]] = [[] for _ in range(n)]
    for ci, s in enumerate(sets):
        for v in s:
            member[v].append(ci)
    remaining = [len(s) for s in sets]
    counts = [[0] * k for _ in sets]
    ones = [0] * len(sets)  # colors occurring exactly once
    dups = [0] * len(sets)  # colors occurring at least twice
    colors = [-1] * n

    def assign(v: int, c: int, step: int) -> bool:
        alive = True
        for ci in member[v]:
            cnt = counts[ci]
            before = cnt[c]
            cnt[c] = before + step
            after = before + step
            if step > 0:
                if before == 0:
                    ones[ci] += 1
                elif before == 1:
                    ones[ci] -= 1
                    dups[ci] += 1
            else:
                if after == 0:
                    ones[ci] -= 1
                elif after == 1:
                    ones[ci] += 1
                    dups[ci] -= 1
            remaining[ci] -= step
            if ones[ci] == 0 and (remaining[ci] == 0 or dups[ci] == k):
                alive = False
        return alive

    def place(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for c in range(min(used + 1, k)):
            if assign(v, c, 1):
                colors[v] = c
                if place(i + 1, max(used, c + 1)):
                    return True
            assign(v, c, -1)
        colors[v] = -1
        return False

    return list(colors) if place(0, 0) else None


def cf_chromatic(adj: list[frozenset[int]], variant: str) -> int | None:
    """Least number of distinct colors of a conflict-free coloring, or
    None when none exists (an isolated vertex under `on`)."""
    if variant == "on" and any(not nb for nb in adj):
        return None
    for k in range(len(adj) + 1):
        if cf_search(adj, variant, k) is not None:
            return k
    raise AssertionError("all-distinct coloring is always conflict-free")


def proper_colorable(adj: list[frozenset[int]], k: int) -> bool:
    """Brute force over all k^n assignments; for sources of a few vertices."""
    n = len(adj)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return any(
        all(colors[u] != colors[v] for u, v in edges)
        for colors in itertools.product(range(k), repeat=n)
    )


def parse_coloring_file(text: str, n: int) -> list[int]:
    """`v <vertex> <color>` lines, every vertex exactly once."""
    colors = [-1] * n
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] != "v" or len(fields) != 3:
            raise ValueError(f"malformed coloring line {line!r}")
        v, c = int(fields[1]), int(fields[2])
        if not 0 <= v < n or colors[v] != -1 or c < 0:
            raise ValueError(f"bad coloring line {line!r}")
        colors[v] = c
    if -1 in colors:
        raise ValueError("coloring file misses a vertex")
    return colors
