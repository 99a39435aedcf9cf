"""Colorings and the conflict-free verifiers.

A coloring assigns a non-negative integer color to every vertex.  It is
conflict-free on closed neighborhoods (CF-CN) when every N[v] contains
some color exactly once, and on open neighborhoods (CF-ON) when every
N(v) does.  An isolated vertex has empty N(v), so no coloring is ever
CF-ON valid for a graph with isolated vertices.

The verifiers first mark every neighbourhood served by a color used
exactly once in the whole graph: when no other vertex has u's color, it
is unique in N[w] and N(w) for every neighbour w of u, and in N[u].
This costs the degrees of the singleton-colored vertices, and the
positions of the singletons are only looked up when some color is used
exactly once.  The vertices left unmarked are then taken in id order.
Under cn a vertex whose color no neighbour shares is served by its own
color, with no count, as in every proper coloring; only the rest have
their neighbourhood colors counted.  A marked or self-served vertex
never fails, so the verdict, the failing vertex and its reason are
those of counting every vertex.

The "number of colors" of a coloring is the number of distinct values
used, not max+1.

The rules every solver shares live here too: `feasible` (CF-ON needs a
graph without isolated vertices) with its one refusal `INFEASIBLE`;
`checked`, which turns a rejected coloring into a `SelfCheckError`; and
`checked_outcome`, which builds the `SolveOutcome` solvers return.

Coloring file format: one `v <vertex> <color>` line per vertex, every
vertex exactly once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import filterfalse
from typing import Iterable

from .graph import Graph, GraphFormatError

VARIANT_CN = "cn"
VARIANT_ON = "on"
VARIANTS = (VARIANT_CN, VARIANT_ON)

EXACT = "exact"
UPPER_BOUND = "upper-bound-only"

INFEASIBLE = "an isolated vertex leaves an open neighborhood empty"


class SelfCheckError(RuntimeError):
    """A solver or reduction emitted a coloring the verifier rejects: an
    internal defect, reported rather than returned."""


@dataclass(frozen=True)
class Coloring:
    graph: Graph
    colors: tuple[int, ...]
    # variant -> VerifyResult, filled by `verify`: graph and colors never
    # change, so a coloring is checked at most once per variant
    _verdicts: dict[str, VerifyResult] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.colors) != self.graph.n:
            raise ValueError(
                f"coloring has {len(self.colors)} entries for {self.graph.n} vertices"
            )
        if min(self.colors, default=0) < 0:
            v, c = next((v, c) for v, c in enumerate(self.colors) if c < 0)
            raise ValueError(f"negative color {c} at vertex {v}")

    @property
    def num_colors(self) -> int:
        return len(set(self.colors))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    failing_vertex: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def neighborhood(g: Graph, v: int, variant: str) -> tuple[int, ...]:
    """N[v] under the closed variant, N(v) under the open one."""
    if variant == VARIANT_CN:
        return g.closed_neighbors(v)
    if variant == VARIANT_ON:
        return g.neighbors(v)
    raise ValueError(f"unknown variant {variant!r}")


def _unique_colors(
    colors: tuple[int, ...], vertices: Iterable[int], own: int | None = None
) -> list[int]:
    """The colors occurring exactly once among `vertices` plus, when
    given, the vertex `own`: N[v] is counted as N(v) and v itself,
    without building the closed neighborhood."""
    counts: dict[int, int] = {} if own is None else {colors[own]: 1}
    for v in vertices:
        c = colors[v]
        counts[c] = counts.get(c, 0) + 1
    return [c for c, k in counts.items() if k == 1]


def has_unique_color(coloring: Coloring, vertices: Iterable[int]) -> int | None:
    """Smallest color appearing exactly once among `vertices`, else None."""
    unique = _unique_colors(coloring.colors, vertices)
    return min(unique) if unique else None


def _verify(coloring: Coloring, variant: str) -> VerifyResult:
    """The body of both verifiers: the neighbourhoods a singleton color
    class serves first, then, in id order, the own-color rule (cn) and
    a per-vertex count on the rest, so the first failing vertex is the
    smallest one."""
    g, colors = coloring.graph, coloring.colors
    closed = variant == VARIANT_CN
    # a color used once in the whole graph is unique in every
    # neighbourhood its vertex lies in, and u lies in N[w] and N(w)
    # exactly for w in N(u), plus w = u in N[u]
    counts = Counter(colors)
    served: set[int] = set()
    if 1 in counts.values():
        last = dict(zip(colors, range(g.n)))
        singles = [last[c] for c, k in counts.items() if k == 1]
        if closed:
            served.update(singles)
        for u in singles:
            served.update(g.neighbors(u))
        if len(served) == g.n:
            return VerifyResult(True)
    for v in filterfalse(served.__contains__, range(g.n)):
        nb = g.neighbors(v)
        if closed:
            # v's own color is unique in N[v] when no neighbour shares it
            if colors[v] in map(colors.__getitem__, nb) and not _unique_colors(colors, nb, v):
                return VerifyResult(False, v, f"no unique color in N[{v}]")
        elif not nb:
            return VerifyResult(False, v, f"vertex {v} is isolated, N({v}) is empty")
        elif not _unique_colors(colors, nb):
            return VerifyResult(False, v, f"no unique color in N({v})")
    return VerifyResult(True)


def verify_cfcn(coloring: Coloring) -> VerifyResult:
    """Accept iff every closed neighborhood has a uniquely occurring color."""
    return _verify(coloring, VARIANT_CN)


def verify_cfon(coloring: Coloring) -> VerifyResult:
    """Accept iff every open neighborhood has a uniquely occurring color.

    An isolated vertex is rejected outright: its open neighborhood is
    empty and cannot contain a unique color.
    """
    return _verify(coloring, VARIANT_ON)


def verify(coloring: Coloring, variant: str) -> VerifyResult:
    """The verdict of `verify_cfcn` or `verify_cfon`, kept on the
    coloring: a solver's self-check and a caller's re-check of the same
    coloring run the verifier once between them."""
    verdict = coloring._verdicts.get(variant)
    if verdict is None:
        if variant == VARIANT_CN:
            verdict = verify_cfcn(coloring)
        elif variant == VARIANT_ON:
            verdict = verify_cfon(coloring)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        coloring._verdicts[variant] = verdict
    return verdict


def feasible(g: Graph, variant: str) -> bool:
    """Whether some coloring of g is conflict-free under `variant`:
    always under cn, and under on iff no vertex is isolated."""
    return variant != VARIANT_ON or not g.has_isolated_vertex()


def require_feasible(g: Graph, variant: str) -> None:
    """Refuse, with the one `INFEASIBLE` message, a graph no coloring
    can serve."""
    if not feasible(g, variant):
        raise ValueError(INFEASIBLE)


def checked(coloring: Coloring, variant: str, what: str) -> Coloring:
    """The coloring, once `verify` accepts it; otherwise a
    SelfCheckError naming `what` and the failing vertex."""
    verdict = verify(coloring, variant)
    if not verdict:
        raise SelfCheckError(
            f"vertex {verdict.failing_vertex} fails {what} ({verdict.reason})")
    return coloring


@dataclass(frozen=True)
class SolveOutcome:
    coloring: Coloring
    colors_used: int
    optimality: str  # EXACT or UPPER_BOUND
    note: str = ""


def checked_outcome(coloring: Coloring, variant: str, optimality: str, note: str = "") -> SolveOutcome:
    checked(coloring, variant, "its solver's self-check")
    return SolveOutcome(coloring, coloring.num_colors, optimality, note)


def parse_coloring(text: str, g: Graph) -> Coloring:
    """Parse `v <vertex> <color>` lines; every vertex exactly once."""
    assigned: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] != "v" or len(fields) != 3:
            raise GraphFormatError("malformed line, expected 'v <vertex> <color>'", lineno)
        try:
            v, c = int(fields[1]), int(fields[2])
        except ValueError:
            raise GraphFormatError("non-integer field", lineno) from None
        if not (0 <= v < g.n):
            raise GraphFormatError(f"vertex {v} out of range for n={g.n}", lineno)
        if c < 0:
            raise GraphFormatError(f"negative color {c}", lineno)
        if v in assigned:
            raise GraphFormatError(f"vertex {v} colored twice", lineno)
        assigned[v] = c
    missing = [v for v in range(g.n) if v not in assigned]
    if missing:
        raise GraphFormatError(f"vertices without a color: {missing}")
    return Coloring(g, tuple(assigned[v] for v in range(g.n)))


def write_coloring(coloring: Coloring) -> str:
    lines = [f"v {v} {c}" for v, c in enumerate(coloring.colors)]
    return "\n".join(lines) + "\n"
