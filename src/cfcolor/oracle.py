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
constraint i: s<c> holds the constraints that see color c at least once,
t<c> those that see it at least twice, so s<c> ^ t<c> holds those that
see it exactly once.  Coloring a vertex updates the masks of one color
with a few word-parallel operations on the vertex's constraint mask;
backtracking restores the two masks saved at that depth.  A constraint
dies, and the branch with it, when no color is seen once and either it
is complete or all k colors are seen at least twice.  Colors are only
added on the path to a full leaf, so neither case can regain a unique
color and the prune is sound.  The search runs as a loop over an
explicit depth counter, so its depth is not bounded by Python's
recursion limit.

The masks live in local variables, so the loop is generated once per
color budget k from one template (`_loop_source`), on the first search
at that k, and kept for the process.  An if-chain on the color picks
the pair to load, update or restore, and the prune tests one expression
over all k pairs, so the source grows linearly in k.  Chains longer
than 16 branches and prune expressions longer than 64 operands are
split, so the compiler's nesting stays small at any k.  The source is
built from the integer k alone.  Building a loop costs about 0.6 ms at
k = 2, 0.9 ms at k = 5, 2 ms at k = 16 and 7 ms at k = 64 (best of 30
builds, 2 shared cores, Python 3.11.7), once per k and process; nothing
is built at import.  The search never uses more than n colors, so
`find_unique_coloring` first cuts k to n: a huge budget then answers as
k = n does, and builds no larger loop.

`find_unique_coloring` works on an arbitrary family of vertex sets; the
CF-CN / CF-ON entry points search closed / open neighborhoods.  Both
entry points refuse graphs above a size guard (default 16 vertices)
unless the limit is lifted, and re-verify every witness they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Callable, Sequence

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


_FANOUT = 16  # branches per if-chain in a generated loop
_TERMS = 64  # operands per statement in a generated loop's prune test

# The search loop for k colors.  Color c's masks are the locals s<c>
# (constraints that see c) and t<c> (those that see it twice), so a node
# touches no list for them; the fields are filled in by `_loop_source`.
_LOOP_TEMPLATE = """\
def search(masks, closes, floor, n):
    {zeros} = 0
    colors = [0] * (n + 1)  # by depth; slot n, never colored, reads 0
    used = [0] * (n + 1)  # used[i]: distinct colors among the first i vertices
    saved = [None] * n  # (s<c>, t<c>) before coloring depth i with c
    depth = 0
    c = -1  # the color last tried at `depth`
    while depth < n:
        mask = masks[depth]
        u = used[depth]
        top = u if u < {k} else {last}
        c += 1
        while c <= top:
{take}
            if hit:  # only these can lose their last unique color
                # dead if seeing no color once and either complete (its
                # last member is colored here) or seeing all k colors twice
                doomed = hit & closes[depth]
                if u == {k} or c == {last}:  # else some color is unused, its t<.> is 0
{twice}
                    doomed |= twice
                if doomed:
{once}
                    if doomed & once != doomed:
{restore_tried}
                        c += 1
                        continue
            break
        if c <= top:
            colors[depth] = c
            saved[depth] = a, b
            depth += 1
            used[depth] = u + 1 if c == u else u  # c <= u, so this is max(u, c + 1)
            c = colors[floor[depth]] - 1  # fresh: start at the previous twin's color
        else:
            if depth == 0:
                return None
            depth -= 1  # back from a dead subtree: take the old color back
            c = colors[depth]
            a, b = saved[depth]
{restore_backtracked}
    return colors
"""


def _by_color(leaf: Callable[[int], list[str]], lo: int, hi: int, indent: str) -> list[str]:
    """Source lines that run leaf(c)'s lines for the color held in the
    local c, one of lo..hi-1: an if-chain of at most _FANOUT branches,
    each one color or a nested chain over a run of colors, so the
    compiler's nesting grows with log k, not k."""
    if hi - lo == 1:
        return [indent + line for line in leaf(lo)]
    step = -(-(hi - lo) // _FANOUT)
    lines = []
    for start in range(lo, hi, step):
        end = min(start + step, hi)
        if end == hi:
            lines.append(indent + "else:")
        else:
            keyword = "if" if start == lo else "elif"
            test = f"c == {start}" if end == start + 1 else f"c < {end}"
            lines.append(f"{indent}{keyword} {test}:")
        lines += _by_color(leaf, start, end, indent + "    ")
    return lines


def _fold(target: str, op: str, terms: list[str], indent: str) -> list[str]:
    """Source lines that set `target` to the terms joined by `op`, with
    at most _TERMS of them per statement, so no expression nests deeper."""
    chunks = [f" {op} ".join(terms[i:i + _TERMS]) for i in range(0, len(terms), _TERMS)]
    return [f"{indent}{target} = {chunks[0]}"] + [f"{indent}{target} {op}= {x}" for x in chunks[1:]]


def _loop_source(k: int) -> str:
    """The source of the search loop for k colors (k >= 1)."""
    colors = range(k)

    def take(c: int) -> list[str]:
        return [f"a = s{c}", f"b = t{c}", "hit = mask & a", f"s{c} = a | mask",
                "if hit:", f"    t{c} = b | hit"]

    def restore(c: int) -> list[str]:
        return [f"s{c} = a", f"t{c} = b"]

    return _LOOP_TEMPLATE.format(
        k=k,
        last=k - 1,
        zeros=" = ".join(f"s{c} = t{c}" for c in colors),
        take="\n".join(_by_color(take, 0, k, " " * 12)),
        twice="\n".join(_fold("twice", "&", ["hit", *(f"t{c}" for c in colors)], " " * 20)),
        once="\n".join(_fold("once", "|", [f"s{c} ^ t{c}" for c in colors], " " * 20)),
        restore_tried="\n".join(_by_color(restore, 0, k, " " * 24)),
        restore_backtracked="\n".join(_by_color(restore, 0, k, " " * 12)),
    )


# (masks, closes, floor, n) -> the colors by depth, or None
_Loop = Callable[[list[int], list[int], list[int], int], "list[int] | None"]
_LOOPS: dict[int, _Loop] = {}


def _loop(k: int) -> _Loop:
    """The compiled search loop for k colors, built on first use and kept
    for the process.  Its source is made from the integer k alone."""
    k = index(k)
    if k < 1:
        raise ValueError("need k >= 1")
    loop = _LOOPS.get(k)
    if loop is None:
        namespace: dict[str, object] = {}
        exec(compile(_loop_source(k), f"<cfcolor.oracle search loop, k={k}>", "exec"), namespace)
        loop = _LOOPS[k] = namespace["search"]
    return loop


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
    colors = _loop(k)(*prepared, len(order))
    if colors is None:
        return None
    witness = [0] * len(order)
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
    search without classes returns.  The search never uses more than n
    colors, so k is first cut to n (at least 1)."""
    if k <= 0:
        return None if n or constraints else []
    k = min(k, max(n, 1))
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
    colors = find_unique_coloring(g.n, _neighborhood_constraints(g, variant), k, twins)
    if colors is None:
        return False, None
    return True, checked(Coloring(g, tuple(colors)), variant, "the oracle's witness check")
