"""Interval graphs given by an explicit representation: validation plus
one four-color sweep that serves both neighborhood variants.

Endpoints are exact rationals (`fractions.Fraction`); all 2n endpoints
must be pairwise distinct, and a representation with tied endpoints is
rejected rather than perturbed.  Intervals are closed, so u ~ v iff
max(l_u, l_v) <= min(r_u, r_v).  Validation and the sweep compare the
endpoints as integers: each is scaled once by the least common
denominator, which keeps their order and their ties exactly.

Validation finds the intersecting pairs by one sweep over the sorted
endpoints: at each left endpoint, the intervals still open are exactly
the new interval's partners.  That costs O(n log n) plus the number of
pairs, instead of comparing all n^2 pairs.  The representation is valid
iff those pairs are the graph's edges; otherwise the verdict names the
lexicographically smallest pair on which they differ.

The sweep processes intervals by increasing left endpoint and colors an
as-yet-uncolored interval together with a chain of at most two
right-endpoint-maximal neighbors (colors 1, 2, 3), then zero-fills a
window of their neighbors.  Already-colored vertices are never
overwritten: the explicit assignments only ever target uncolored
vertices, and the zero-fill skips colored ones.  At most four distinct
colors (0..3) are ever used.  The closed and open variants differ only
in the connectivity guard and in how the globally rightmost interval is
colored; `cfcn_interval` and `cfon_interval` name the two.

All tie-breaking is by endpoints, never by vertex id, so permuting
vertex ids while keeping intervals fixed permutes the output coloring
identically.

File format: one `i <vertex> <left> <right>` line per vertex with
rational literals such as `7/2`.  Exponents (`1e3`) are refused:
`Fraction` would expand each one to all its digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, GraphFormatError, is_connected
from .coloring import (UPPER_BOUND, VARIANT_CN, VARIANT_ON, Coloring, SolveOutcome,
                       checked_outcome)


@dataclass(frozen=True)
class IntervalRepresentation:
    intervals: tuple[tuple[Fraction, Fraction], ...]

    @property
    def n(self) -> int:
        return len(self.intervals)

    def left(self, v: int) -> Fraction:
        return self.intervals[v][0]

    def right(self, v: int) -> Fraction:
        return self.intervals[v][1]


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
            if "e" in (fields[2] + fields[3]).lower():
                raise ValueError("exponent in a rational literal")
            l, r = Fraction(fields[2]), Fraction(fields[3])
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


def write_intervals(rep: IntervalRepresentation) -> str:
    lines = [f"i {v} {l} {r}" for v, (l, r) in enumerate(rep.intervals)]
    return "\n".join(lines) + "\n"


def _integer_endpoints(rep: IntervalRepresentation) -> tuple[list[int], list[int]]:
    """The left and the right endpoints times the least common
    denominator: integers in the same order as the rationals."""
    scale = math.lcm(*(x.denominator for ends in rep.intervals for x in ends))
    return ([l.numerator * (scale // l.denominator) for l, _ in rep.intervals],
            [r.numerator * (scale // r.denominator) for _, r in rep.intervals])


def _intersecting_pairs(left: list[int], right: list[int]) -> set[tuple[int, int]]:
    """Every (u, v), u < v, whose closed intervals meet, by one sweep
    over the sorted endpoints.  At a left endpoint the intervals still
    open are exactly the ones that meet the new interval, so the sweep
    costs O(n log n) plus the number of pairs.  At a tie left endpoints
    come first, so intervals that touch meet; an interval with l > r
    meets nothing."""
    events = sorted((x, side, v) for v, (l, r) in enumerate(zip(left, right)) if l <= r
                    for side, x in ((0, l), (1, r)))
    open_: set[int] = set()
    pairs: set[tuple[int, int]] = set()
    for _, side, v in events:
        if side:
            open_.remove(v)
        else:
            pairs.update((u, v) if u < v else (v, u) for u in open_)
            open_.add(v)
    return pairs


def validate_representation(g: Graph, rep: IntervalRepresentation) -> RepresentationVerdict:
    """Endpoints distinct, l < r per interval, and intersections match g;
    a mismatch names the lexicographically smallest mismatched pair."""
    if rep.n != g.n:
        return RepresentationVerdict(False, f"{rep.n} intervals for {g.n} vertices")
    left, right = _integer_endpoints(rep)
    for v, (l, r) in enumerate(zip(left, right)):
        if not l < r:
            return RepresentationVerdict(False, f"interval of vertex {v} has l >= r")
    if len(set(left + right)) != 2 * g.n:
        return RepresentationVerdict(False, "tied endpoints (must be pairwise distinct)")
    meets = _intersecting_pairs(left, right)
    mismatched = meets.symmetric_difference(g.edges)
    if not mismatched:
        return RepresentationVerdict(True)
    u, v = min(mismatched)
    kind = "intersect without an edge" if (u, v) in meets else "share an edge but do not intersect"
    return RepresentationVerdict(False, f"vertices {u},{v} {kind}", (u, v))


def graph_from_representation(rep: IntervalRepresentation) -> Graph:
    return Graph(rep.n, _intersecting_pairs(*_integer_endpoints(rep)))


def _require_valid(g: Graph, rep: IntervalRepresentation) -> None:
    verdict = validate_representation(g, rep)
    if not verdict.ok:
        raise ValueError(f"invalid interval representation: {verdict.reason}")


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
    right-endpoint-maximal neighbor (color 2) and, if that is still not
    the globally rightmost interval, its own such neighbor (color 3);
    the zero-fill then blankets the uncolored part of the involved
    neighborhoods inside the stated endpoint window.  Only the guard and
    the globally rightmost interval depend on the variant.
    """
    _require_valid(g, rep)
    if g.n < (1 if variant == VARIANT_CN else 2) or not is_connected(g):
        raise ValueError(
            "sweep requires a connected interval graph" if variant == VARIANT_CN
            else "open-neighborhood sweep requires a connected graph on >= 2 vertices"
        )
    colors: list[int] = [-1] * g.n
    left, right = _integer_endpoints(rep)
    rightmost = max(range(g.n), key=right.__getitem__)
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
        if vi == rightmost:
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
        vl = _max_right_neighbor(g, right, vi)
        assert vl is not None, "connected interval graph must have a dominating neighbor"
        chain = [vi, vl]
        if vl != rightmost:
            chain.append(_max_right_neighbor(g, right, vl))
            assert chain[2] is not None
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
    """Sweep for closed neighborhoods: the globally rightmost interval
    takes color 1 and zero-fills its uncolored neighbors."""
    return _sweep(g, rep, VARIANT_CN)


def cfon_interval(g: Graph, rep: IntervalRepresentation) -> SolveOutcome:
    """Sweep for open neighborhoods: when other intervals lie inside the
    globally rightmost one, the first of them to start is colored 2 and
    its other uncolored neighbors 0, so that the rightmost interval's own
    neighborhood keeps a unique color; with none inside it takes color 1
    alone."""
    return _sweep(g, rep, VARIANT_ON)
