"""Oracle: frozen sanity values plus agreement with a naive reference.

The reference below enumerates all k^n colorings and filters through the
verifier; it shares nothing with the production search (no pruning, no
symmetry breaking), so agreement is a genuine cross-check.  A second
reference, `counting_search`, is the search with per-constraint color
counts that the bitmask search replaced: the two visit the same tree, so
they must return the same witness, not just agree on feasibility.
"""

import hashlib
import itertools
from typing import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcolor.coloring import Coloring, SelfCheckError, verify
from cfcolor.graph import Graph, SizeGuardError
from cfcolor import oracle
from cfcolor.generators import random_graph
from cfcolor.oracle import decide_cf, exact_cf, find_unique_coloring
from strategies import graphs

K2 = Graph(2, [(0, 1)])
P3 = Graph(3, [(0, 1), (1, 2)])
K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def naive_min_colors(g, variant):
    """Reference optimum: try k = 1..n, enumerate every k^n assignment."""
    for k in range(1, g.n + 1):
        for assignment in itertools.product(range(k), repeat=g.n):
            if verify(Coloring(g, assignment), variant).ok:
                return k
    return None


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


@pytest.mark.parametrize(
    "g,variant,expected",
    [
        (K2, "cn", 2),
        (K2, "on", 1),
        (P3, "cn", 2),
        (P3, "on", 2),
        (K3, "cn", 2),
        (K3, "on", 3),
        (C4, "cn", 2),
        (C4, "on", 2),
    ],
)
def test_frozen_small_values(g, variant, expected):
    res = exact_cf(g, variant)
    assert res.chromatic == expected
    assert res.witness.num_colors == expected
    assert verify(res.witness, variant).ok


def test_decide_examples():
    assert decide_cf(K3, "on", 2) == (False, None)
    ok, witness = decide_cf(C4, "cn", 2)
    assert ok and verify(witness, "cn").ok and witness.num_colors <= 2
    assert decide_cf(K2, "cn", 1) == (False, None)


def test_isolated_vertex_infeasible_for_open():
    g = Graph(3, [(0, 1)])
    res = exact_cf(g, "on")
    assert res.infeasible and res.chromatic is None and res.witness is None
    assert decide_cf(g, "on", 3) == (False, None)
    # closed variant accepts isolated vertices
    assert exact_cf(g, "cn").chromatic == 2


def test_single_vertex():
    g = Graph(1)
    assert exact_cf(g, "cn").chromatic == 1
    assert exact_cf(g, "on").infeasible


def test_size_guard():
    big = Graph(17)
    with pytest.raises(SizeGuardError):
        exact_cf(big, "cn")
    with pytest.raises(SizeGuardError):
        decide_cf(big, "cn", 2)
    assert exact_cf(big, "cn", limit=None).chromatic == 1
    assert exact_cf(big, "cn", limit=20).chromatic == 1


def test_rejected_witness_raises(monkeypatch):
    # an explicit check, so it also holds under `python -O`
    monkeypatch.setattr(oracle, "_search", lambda k, constraints, member_of, order: [0] * len(order))
    with pytest.raises(SelfCheckError):
        exact_cf(K3, "cn")
    with pytest.raises(SelfCheckError):
        decide_cf(K3, "cn", 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matches_naive_reference_exhaustively(n):
    for g in all_labeled_graphs(n):
        for variant in ("cn", "on"):
            expected = naive_min_colors(g, variant)
            res = exact_cf(g, variant)
            if expected is None:
                assert res.infeasible
            else:
                assert res.chromatic == expected
                assert verify(res.witness, variant).ok


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=5))
def test_matches_naive_reference_sampled(g):
    for variant in ("cn", "on"):
        expected = naive_min_colors(g, variant)
        res = exact_cf(g, variant)
        if expected is None:
            assert res.infeasible
        else:
            assert res.chromatic == expected


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=6))
def test_decide_monotone_in_k(g):
    for variant in ("cn", "on"):
        res = exact_cf(g, variant)
        for k in range(1, g.n + 1):
            ok, witness = decide_cf(g, variant, k)
            assert ok == (not res.infeasible and k >= res.chromatic)
            if ok:
                assert witness.num_colors <= k


def has_unique(colors, s):
    return any(sum(colors[u] == colors[v] for u in s) == 1 for v in s)


@st.composite
def constraint_families(draw, max_n=6, max_sets=8, max_k=3):
    """Nonempty sets over a subset of the vertices, so that some vertices
    may lie in no set, as in the kernel cores of `fpt`."""
    n = draw(st.integers(1, max_n))
    covered = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    sets = draw(st.lists(
        st.sets(st.sampled_from(covered), min_size=1).map(sorted), max_size=max_sets
    ))
    return n, sets, draw(st.integers(0, max_k))


@settings(max_examples=300, deadline=None)
@given(constraint_families())
# feasible, but only if undoing a color keeps every count exact: a stale
# "seen twice" tally kills [1, 2, 4] while one member is still uncolored
@example((5, [[0, 3, 4], [0, 1, 2, 4], [3], [0, 2], [0, 1, 3], [1, 2, 4]], 2))
def test_find_unique_coloring_matches_brute_force(family):
    n, sets, k = family
    feasible = any(
        all(has_unique(colors, s) for s in sets)
        for colors in itertools.product(range(k), repeat=n)
    )
    witness = find_unique_coloring(n, sets, k)
    assert (witness is not None) == feasible
    if witness is not None:
        assert len(witness) == n and all(0 <= c < k for c in witness)
        assert all(has_unique(witness, s) for s in sets)


def counting_search(
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


def counting_find_unique_coloring(n, constraints, k):
    """`find_unique_coloring` on `counting_search`, in the same order."""
    if k <= 0:
        return None if n or constraints else []
    member_of = [[] for _ in range(n)]
    for ci, s in enumerate(constraints):
        for v in s:
            member_of[v].append(ci)
    _, order = oracle._search_order(n, constraints)
    return counting_search(k, constraints, member_of, order)


@settings(max_examples=300, deadline=None)
@given(constraint_families(max_n=10, max_sets=12, max_k=4))
@example((5, [[0, 3, 4], [0, 1, 2, 4], [3], [0, 2], [0, 1, 3], [1, 2, 4]], 2))
@example((3, [[0, 1], []], 3))
def test_find_unique_coloring_matches_counting_search(family):
    n, sets, k = family
    assert find_unique_coloring(n, sets, k) == counting_find_unique_coloring(n, sets, k)


@st.composite
def multiset_families(draw, max_n=6, max_sets=6):
    """Sets with repeated members, empty sets and vertices in no set,
    on 0..max_n vertices."""
    n = draw(st.integers(0, max_n))
    members = st.lists(st.integers(0, n - 1), max_size=4) if n else st.just([])
    return n, draw(st.lists(members, max_size=max_sets))


@settings(max_examples=300, deadline=None)
@given(multiset_families())
@example((0, []))
@example((0, [[]]))
@example((3, [[1, 1], [2, 2, 2]]))
@example((3, [[1, 1], [0, 2]]))
def test_one_color_matches_search(family):
    # k = 1 is decided without a search; the search gives the same answer
    n, sets = family
    searched = oracle._search(1, sets, *oracle._search_order(n, sets))
    assert find_unique_coloring(n, sets, 1) == searched


@st.composite
def graphs_with_twins(draw):
    """A graph on 1-6 vertices, then 1-4 planted twins: each new vertex
    copies the neighbours of an existing one and, as a true twin, is
    also joined to it."""
    g = draw(graphs(min_n=1, max_n=6))
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    for _ in range(draw(st.integers(1, 4))):
        v, w = draw(st.integers(0, len(adj) - 1)), len(adj)
        adj.append(set(adj[v]))
        for u in adj[v]:
            adj[u].add(w)
        if draw(st.booleans()):
            adj[v].add(w)
            adj[w].add(v)
    return Graph(len(adj), [(u, w) for w in range(len(adj)) for u in adj[w] if u < w])


def twin_classes(g):
    """The classes of equal N[v] and of equal N(v) with two or more
    members: no vertex has both a true and a false twin, so they are
    disjoint."""
    closed, open_ = {}, {}
    for v in range(g.n):
        closed.setdefault(g.closed_neighbors(v), []).append(v)
        open_.setdefault(g.neighbors(v), []).append(v)
    return [c for c in (*closed.values(), *open_.values()) if len(c) > 1]


@settings(max_examples=200, deadline=None)
@given(graphs_with_twins())
def test_twin_classes_keep_the_plain_search_witness(g):
    # the lex-leader floor prunes only colorings that a twin swap maps to
    # a smaller one, so the search meets the same first witness as the
    # search without classes, and as `counting_search`
    twins = twin_classes(g)
    members = [v for c in twins for v in c]
    assert len(members) == len(set(members)) and twins
    for variant in ("cn", "on"):
        sets = oracle._neighborhood_constraints(g, variant)
        for k in range(2, 6):
            plain = counting_find_unique_coloring(g.n, sets, k)
            assert find_unique_coloring(g.n, sets, k) == plain
            assert find_unique_coloring(g.n, sets, k, twins) == plain
        assert decide_cf(g, variant, 3, limit=None, twins=twins) == decide_cf(g, variant, 3, limit=None)


def test_exact_witnesses_pinned():
    # sha256 over repr((chromatic, witness colors)) of exact_cf on 440
    # seeded G(n, p) graphs, n 6-16, p 0.3 and 0.5, both variants; the
    # search order, value order and symmetry break fix every witness
    h = hashlib.sha256()
    for n in range(6, 17):
        for p in (0.3, 0.5):
            for s in range(20):
                g = random_graph(n, p, s)
                for variant in ("cn", "on"):
                    res = exact_cf(g, variant)
                    h.update(repr((res.chromatic, res.witness.colors if res.witness else None)).encode())
    assert h.hexdigest() == "1bbf73190163ad4cd2f6ec73ed25511f8eb5757cbbf7326e2414804651450d7e"


def test_exact_witnesses_pinned_at_bench_sizes():
    # as above, with limit=None, on 160 seeded G(n, p) graphs, n 17-20,
    # p 0.3 and 0.5, seeds 0-9: the sizes the oracle benchmark runs
    h = hashlib.sha256()
    for n in range(17, 21):
        for p in (0.3, 0.5):
            for s in range(10):
                g = random_graph(n, p, s)
                for variant in ("cn", "on"):
                    res = exact_cf(g, variant, limit=None)
                    h.update(repr((res.chromatic, res.witness.colors if res.witness else None)).encode())
    assert h.hexdigest() == "0520d90442c1afbcd8ad01adbfe0f234ce446355354430244ed8271b391e29c8"


def test_find_unique_coloring_empty_set_is_infeasible():
    assert find_unique_coloring(3, [(0, 1), ()], 3) is None
    assert find_unique_coloring(0, [], 0) == []


@pytest.mark.parametrize("variant", ["cn", "on"])
def test_long_path_without_limit(variant):
    # 1500 levels of search depth, beyond Python's recursion limit
    path = Graph(1500, [(i, i + 1) for i in range(1499)])
    res = exact_cf(path, variant, limit=None)
    assert res.chromatic == 2 and verify(res.witness, variant).ok


@pytest.mark.parametrize("variant", ["cn", "on"])
def test_random_28_vertex_graph(variant):
    # in vertex-id order most constraints here complete late in the search
    res = exact_cf(random_graph(28, 0.3, 7), variant, limit=None)
    assert res.chromatic == 3 and verify(res.witness, variant).ok
