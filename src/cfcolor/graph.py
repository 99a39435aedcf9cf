"""Simple undirected graphs on dense integer vertices, plus text I/O.

Vertices are always 0..n-1.  A Graph is immutable once constructed and
stores adjacency once, as sorted per-vertex neighbor tuples: edge
membership bisects a tuple, and the edge count and edge list are read
off the tuples.

File format (one graph per file):

    c optional comment
    p cf <n> <m>
    e <u> <v>

Edge lines use 0-based endpoints; the canonical writer emits them sorted
lexicographically with u < v.  Duplicate edge lines collapse to one edge;
self-loops are a hard error.

A header may declare at most MAX_VERTICES vertices: a graph holds one
neighbour tuple per declared vertex, so a larger count is a format error
rather than an allocation the text cannot justify.  The constructor,
which the line reader ends in, gives a set only to vertices on some
edge, the bulk reader a list only to ids up to the largest endpoint;
every other vertex shares the empty tuple.

The reader takes canonical text (what `write_graph` emits) in bulk:
one pattern match, one split, one conversion per distinct endpoint
token, and C-level checks of the vertex and edge counts, the id range
and the order (u < v, which rules out self-loops, and each edge after
the one before, which rules out duplicates).  Any other text, or
canonical-looking text that fails a check, goes through the
line-by-line reader, which is the reference and the only source of
format errors.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import repeat
from typing import Iterable, Iterator


# the largest vertex count a `p cf` header may declare
MAX_VERTICES = 1_000_000


class GraphFormatError(ValueError):
    """Malformed graph / coloring / interval text; remembers the line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SizeGuardError(RuntimeError):
    """An exhaustive routine was asked to exceed its vertex-count limit."""


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        # only a vertex on some edge gets a set; every other shares ()
        met: defaultdict[int, set[int]] = defaultdict(set)
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            met[u].add(v)
            met[v].add(u)
        adj: list[tuple[int, ...]] = [()] * n
        for v, nb in met.items():
            adj[v] = tuple(sorted(nb))
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def _trusted(cls, adj: tuple[tuple[int, ...], ...]) -> "Graph":
        """A graph from neighbour tuples that are already sorted,
        symmetric, in range and free of self-loops, checking none of it:
        for callers whose own checks or construction guarantee that."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g._adj = adj
        return g

    @property
    def m(self) -> int:
        return sum(map(len, self._adj)) // 2

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge (u, v) with u < v, in lexicographic order."""
        return tuple((v, u) for v, nb in enumerate(self._adj)
                     for u in nb[bisect_right(nb, v):])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def closed_neighbors(self, v: int) -> tuple[int, ...]:
        # sorted tuple of N[v]; |N[v]| == |N(v)| + 1 always (no self-loops)
        nb = self._adj[v]
        i = bisect_left(nb, v)
        return nb[:i] + (v,) + nb[i:]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_isolated_vertex(self) -> bool:
        """Whether some vertex has no neighbour: one C-level scan."""
        return () in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n):
            return False
        nb = self._adj[u]
        i = bisect_left(nb, v)
        return i < len(nb) and nb[i] == v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# the shape of what `write_graph` emits: ASCII digits, single spaces,
# every line ended by a newline; a digit run is at most 20 long, so
# `int` never meets its limit on digits
_CANONICAL = re.compile(r"p cf ([0-9]{1,20}) ([0-9]{1,20})\n(?:e [0-9]{1,20} [0-9]{1,20}\n)*")


def parse_graph(text: str) -> Graph:
    """Parse the `p cf` text format; raises GraphFormatError with a line number.

    Canonical text is read in bulk when every edge line is in range,
    has u < v and comes strictly after the one before; everything else
    is read line by line, which gives the same graph or the error."""
    match = _CANONICAL.fullmatch(text)
    if match:
        n, m = int(match[1]), int(match[2])
        tokens = text.split()
        # at most n distinct ids: each distinct token is converted once
        ids = {t: int(t) for t in {*tokens[5::3], *tokens[6::3]}}
        us = list(map(ids.__getitem__, tokens[5::3]))
        vs = list(map(ids.__getitem__, tokens[6::3]))
        keys = list(map(operator.add, map(operator.mul, us, repeat(n)), vs))
        top = max(vs, default=-1)  # u < v, so the largest endpoint
        if (n <= MAX_VERTICES and len(us) == m and top < n
                and all(map(operator.lt, us, vs)) and all(map(operator.lt, keys, keys[1:]))):
            # in lexicographic order each vertex meets its smaller
            # neighbours first, each in increasing order, then its
            # larger ones: appending keeps every list sorted; a vertex
            # above the largest endpoint has no edge and shares ()
            adj: list[list[int]] = [[] for _ in range(top + 1)]
            for u, v in zip(us, vs):
                adj[u].append(v)
                adj[v].append(u)
            return Graph._trusted((*map(tuple, adj), *repeat((), n - top - 1)))
    return _parse_lines(text)


def _parse_lines(text: str) -> Graph:
    """The line-by-line reader: any text, and every format error."""
    n = m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("c"):
            continue
        if fields[0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate problem header", lineno)
            if len(fields) != 4 or fields[1] != "cf":
                raise GraphFormatError("malformed header, expected 'p cf <n> <m>'", lineno)
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise GraphFormatError("non-integer counts in header", lineno) from None
            if n < 0 or m < 0:
                raise GraphFormatError("negative counts in header", lineno)
            if n > MAX_VERTICES:
                raise GraphFormatError(
                    f"header declares {n} vertices, more than the limit {MAX_VERTICES}", lineno)
        elif fields[0] == "e":
            if n is None:
                raise GraphFormatError("edge line before header", lineno)
            if len(fields) != 3:
                raise GraphFormatError("malformed edge line, expected 'e <u> <v>'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError("non-integer vertex id", lineno) from None
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            if not (0 <= u < n) or not (0 <= v < n):
                raise GraphFormatError(f"vertex id out of range for n={n}", lineno)
            edges.append((u, v))
        else:
            raise GraphFormatError(f"unknown line type {fields[0]!r}", lineno)
    if n is None:
        raise GraphFormatError("missing 'p cf' header")
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges but found {len(edges)} edge lines")
    return Graph(n, edges)


def write_graph(g: Graph) -> str:
    """Canonical text form: sorted edge lines, write∘parse is a fixpoint."""
    lines = [f"p cf {g.n} {g.m}"]
    for u, v in g.edges:
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def components_avoiding(g: Graph, removed: set[int]) -> Iterator[list[int]]:
    """The components of G-removed, one at a time, each in breadth-first
    order from its smallest member, smallest first; no subgraph is
    built."""
    seen = [False] * g.n
    for v in removed:
        seen[v] = True
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for v in comp:  # breadth-first: the list grows while it is read
            for u in g.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
        yield comp


def degrees_avoiding(g: Graph, removed: set[int]) -> list[int]:
    """Each vertex's number of neighbours outside `removed`, counted from
    the removed side: one walk over their neighbour tuples, so the cost
    is n plus the degrees of `removed`, not of the whole graph."""
    deg = list(map(len, g._adj))
    for x in removed:
        for u in g.neighbors(x):
            deg[u] -= 1
    return deg


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Maximal connected vertex sets, each sorted, ordered by smallest member."""
    return [tuple(sorted(comp)) for comp in components_avoiding(g, set())]


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph plus the old-id -> new-id relabeling (order
    preserving); on every vertex, g itself, as a Graph never changes."""
    vs = sorted(set(vertices))
    for v in vs:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} not in graph")
    relabel = {v: i for i, v in enumerate(vs)}
    if len(vs) == g.n:  # every vertex: the graph itself, relabeled to itself
        return g, relabel
    # the relabeling preserves order, so each neighbour tuple stays sorted
    adj = tuple(tuple(map(relabel.__getitem__, filter(relabel.__contains__, g.neighbors(v))))
                for v in vs)
    return Graph._trusted(adj), relabel


def complement(g: Graph) -> Graph:
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    return Graph(g.n, edges)
