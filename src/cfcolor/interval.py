"""Interval graphs given by an explicit representation: validation plus
one four-color sweep that serves both neighborhood variants.

Endpoints are exact rationals (`fractions.Fraction`); all 2n endpoints
must be pairwise distinct, and a representation with tied endpoints is
rejected rather than perturbed.  Intervals are closed, so u ~ v iff
max(l_u, l_v) <= min(r_u, r_v).  Validation and the sweep compare the
endpoints as integers, computed once per call: the numerators when
every endpoint is an integer, else each endpoint's rank among the
distinct endpoints.  Both keep the order and the ties exactly, and a
rank stays below 2n however large the denominators are.

Validation accepts a representation by counting, with no pair built:
the number of meeting pairs (n choose 2 less the disjoint ones, counted
over the sorted right endpoints) must be m, and no vertex may have a
neighbour that starts after it ends.  Then the meeting pairs are
exactly the edges, in O(n log n + m).  Only a rejected representation
has its intersecting pairs listed, by one sweep over the sorted
endpoints (at each left endpoint, the intervals still open are exactly
the new interval's partners), so that the verdict can name the
lexicographically smallest pair on which they differ from the graph.
`graph_from_representation` builds the graph from the same sweep's
sorted partner lists.

The sweep processes intervals by increasing left endpoint and colors an
as-yet-uncolored interval together with a chain of at most two
right-endpoint-maximal neighbors (colors 1, 2, 3), then zero-fills a
window of their neighbors.  Already-colored vertices are never
overwritten: the explicit assignments only ever target uncolored
vertices, and the zero-fill skips colored ones.  At most four distinct
colors (0..3) are ever used.  The graph need not be connected: an
interval with no neighbor ending after it ends last in its component,
and the closed and open variants differ only in how such an interval is
colored; `cfcn_interval` and `cfon_interval` name the two.  Under the
open variant an isolated vertex is refused as `INFEASIBLE`.

All tie-breaking is by endpoints, never by vertex id, so permuting
vertex ids while keeping intervals fixed permutes the output coloring
identically.

File format: one `i <vertex> <left> <right>` line per vertex with
rational literals such as `7/2`.  Exponents (`1e3`) are refused:
`Fraction` would expand each one to all its digits.  A literal of ASCII
digits with an optional sign is read by `int`, which skips `Fraction`'s
pattern match.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .graph import Graph, GraphFormatError
from .coloring import (UPPER_BOUND, VARIANT_CN, VARIANT_ON, Coloring, SolveOutcome,
                       checked_outcome, require_feasible)


@dataclass(frozen=True)
class IntervalRepresentation:
    intervals: tuple[tuple[Fraction, Fraction], ...]

    @property
    def n(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class RepresentationVerdict:
    ok: bool
    reason: str = ""
    pair: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def parse_intervals(text: str, n: int) -> IntervalRepresentation:
    """Parse `i <vertex> <left> <right>` lines covering 0..n-1 exactly once."""
    seen: dict[int, tuple[Fraction, Fraction]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] != "i" or len(fields) != 4:
            raise GraphFormatError("malformed line, expected 'i <vertex> <left> <right>'", lineno)
        try:
            v = int(fields[1])
            l, r = _endpoint(fields[2]), _endpoint(fields[3])
        except (ValueError, ZeroDivisionError):
            raise GraphFormatError("bad vertex id or rational literal", lineno) from None
        if not (0 <= v < n):
            raise GraphFormatError(f"vertex {v} out of range for n={n}", lineno)
        if v in seen:
            raise GraphFormatError(f"vertex {v} has two intervals", lineno)
        seen[v] = (l, r)
    missing = [v for v in range(n) if v not in seen]
    if missing:
        raise GraphFormatError(f"vertices without an interval: {missing}")
    return IntervalRepresentation(tuple(seen[v] for v in range(n)))


def _endpoint(token: str) -> Fraction:
    """`Fraction(token)`, by way of `int` for ASCII digits with an
    optional sign; exponents are refused."""
    digits = token[1:] if token[0] in "+-" else token
    if digits.isdigit() and digits.isascii():
        return Fraction(int(token))
    if "e" in token.lower():
        raise ValueError("exponent in a rational literal")
    return Fraction(token)


def write_intervals(rep: IntervalRepresentation) -> str:
    lines = [f"i {v} {l} {r}" for v, (l, r) in enumerate(rep.intervals)]
    return "\n".join(lines) + "\n"


def _integer_endpoints(rep: IntervalRepresentation) -> tuple[list[int], list[int]]:
    """The left and the right endpoints as integers in the same order
    and with the same ties: the numerators when every endpoint is an
    integer, else each endpoint's rank among the distinct endpoints
    (below 2n, whatever the denominators)."""
    ends = [x for pair in rep.intervals for x in pair]
    if all(x.denominator == 1 for x in ends):
        ints = [x.numerator for x in ends]
    else:
        rank = {x: i for i, x in enumerate(sorted(set(ends)))}
        ints = list(map(rank.__getitem__, ends))
    return ints[0::2], ints[1::2]


def _partners(left: list[int], right: list[int]) -> list[list[int]]:
    """Each vertex's partners, the vertices whose closed intervals meet
    its own, in increasing order, by one sweep over the sorted
    endpoints.  At a left endpoint the intervals still open are exactly
    the ones that meet the new interval, so the sweep costs O(n log n)
    plus the sorting of the partner lists.  At a tie left endpoints come
    first, so intervals that touch meet; an interval with l > r meets
    nothing."""
    events = sorted((x, side, v) for v, (l, r) in enumerate(zip(left, right)) if l <= r
                    for side, x in ((0, l), (1, r)))
    open_: set[int] = set()
    partners: list[list[int]] = [[] for _ in left]
    for _, side, v in events:
        if side:
            open_.remove(v)
        else:
            for u in open_:
                partners[u].append(v)
            partners[v] += open_
            open_.add(v)
    for nb in partners:
        nb.sort()
    return partners


def _meets_exactly(g: Graph, left: list[int], right: list[int]) -> bool:
    """Whether the intervals that meet are exactly g's edges, for
    intervals with l < r and pairwise distinct endpoints.  Counting over
    the sorted right endpoints gives the number of meeting pairs: n
    choose 2 less the pairs in which one interval ends before the other
    starts.  Each edge's intervals meet when no vertex has a neighbour
    that starts after it ends; then the meeting pairs include the m
    edges, and they are the edges iff there are m of them.
    O(n log n + m), and no pair is built."""
    n = len(left)
    rights = sorted(right)
    if n * (n - 1) // 2 - sum(map(bisect_left, repeat(rights, n), left)) != g.m:
        return False
    return not any(nb and max(map(left.__getitem__, nb)) > r
                   for nb, r in zip(map(g.neighbors, range(n)), right))


def validate_representation(g: Graph, rep: IntervalRepresentation,
                            ends: tuple[list[int], list[int]] | None = None) -> RepresentationVerdict:
    """Endpoints distinct, l < r per interval, and intersections match g;
    a mismatch names the lexicographically smallest mismatched pair.
    `ends` is `_integer_endpoints(rep)`, for a caller that has it."""
    left, right = ends or _integer_endpoints(rep)
    if len(left) != g.n:
        return RepresentationVerdict(False, f"{len(left)} intervals for {g.n} vertices")
    for v, (l, r) in enumerate(zip(left, right)):
        if not l < r:
            return RepresentationVerdict(False, f"interval of vertex {v} has l >= r")
    if len(set(left + right)) != 2 * g.n:
        return RepresentationVerdict(False, "tied endpoints (must be pairwise distinct)")
    if _meets_exactly(g, left, right):
        return RepresentationVerdict(True)
    meets = {(u, v) for u, nb in enumerate(_partners(left, right)) for v in nb if u < v}
    u, v = min(meets.symmetric_difference(g.edges))
    kind = "intersect without an edge" if (u, v) in meets else "share an edge but do not intersect"
    return RepresentationVerdict(False, f"vertices {u},{v} {kind}", (u, v))


def graph_from_representation(rep: IntervalRepresentation) -> Graph:
    """The intersection graph, from the sweep's sorted partner lists,
    which are symmetric and free of self-loops by construction."""
    return Graph._trusted(tuple(map(tuple, _partners(*_integer_endpoints(rep)))))


def _max_right_neighbor(g: Graph, right: list[int], v: int) -> int | None:
    """Neighbor whose right endpoint dominates all of N[v], if one exists."""
    nb = g.neighbors(v)
    if not nb:
        return None
    best = max(nb, key=right.__getitem__)
    return best if right[best] >= right[v] else None


def _sweep(g: Graph, rep: IntervalRepresentation, variant: str) -> SolveOutcome:
    """The left-endpoint sweep shared by both variants; at most 4 colors.

    Each uncolored interval in turn receives color 1 and drags along the
    right-endpoint-maximal neighbor (color 2) and, if that one still has
    a neighbor ending after it, that neighbor too (color 3); the
    zero-fill then blankets the uncolored part of the involved
    neighborhoods inside the stated endpoint window.  An interval with
    no neighbor ending after it ends last in its component, as an
    interval bridging to a later end would meet it; only its coloring
    depends on the variant.
    """
    left, right = _integer_endpoints(rep)
    verdict = validate_representation(g, rep, (left, right))
    if not verdict.ok:
        raise ValueError(f"invalid interval representation: {verdict.reason}")
    require_feasible(g, variant)
    colors: list[int] = [-1] * g.n
    order = sorted(range(g.n), key=left.__getitem__)

    def fill(vertices, lo_left: int, hi_right: int | None) -> None:
        for u in vertices:
            if colors[u] == -1 and left[u] >= lo_left and (
                hi_right is None or right[u] <= hi_right
            ):
                colors[u] = 0

    for vi in order:
        if colors[vi] != -1:
            continue
        vl = _max_right_neighbor(g, right, vi)
        if vl is None:  # vi ends last in its component
            colors[vi] = 1
            if variant == VARIANT_ON:
                # the intervals contained in vi are its neighbors starting later
                inner = [u for u in g.neighbors(vi) if left[u] > left[vi]]
                if not inner:
                    continue
                vi2 = min(inner, key=left.__getitem__)
                if colors[vi2] == -1:
                    colors[vi2] = 2
            fill(g.neighbors(vi), left[vi], None)
            continue
        chain = [vi, vl]
        if (third := _max_right_neighbor(g, right, vl)) is not None:
            chain.append(third)
        for color, u in enumerate(chain, start=1):
            if colors[u] == -1:
                colors[u] = color
        fill(
            {u for v in chain for u in g.neighbors(v)},
            left[vi],
            right[chain[2]] if len(chain) == 3 else None,
        )

    return checked_outcome(Coloring(g, tuple(colors)), variant, UPPER_BOUND)


def cfcn_interval(g: Graph, rep: IntervalRepresentation) -> SolveOutcome:
    """Sweep for closed neighborhoods: an interval that ends last in its
    component takes color 1 and zero-fills its uncolored neighbors."""
    return _sweep(g, rep, VARIANT_CN)


def cfon_interval(g: Graph, rep: IntervalRepresentation) -> SolveOutcome:
    """Sweep for open neighborhoods: when other intervals lie inside an
    interval that ends last in its component, the first of them to start
    is colored 2 and its other uncolored neighbors 0, so that its own
    neighborhood keeps a unique color; with none inside it takes color 1
    alone.  A graph with an isolated vertex is refused."""
    return _sweep(g, rep, VARIANT_ON)
