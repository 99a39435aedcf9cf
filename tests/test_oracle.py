"""Oracle: frozen sanity values plus agreement with a naive reference.

The reference below enumerates all k^n colorings and filters through the
verifier; it shares nothing with the production search (no pruning, no
symmetry breaking), so agreement is a genuine cross-check.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcolor.coloring import Coloring, verify
from cfcolor.graph import Graph, SizeGuardError
from cfcolor import oracle
from cfcolor.generators import random_graph
from cfcolor.oracle import decide_cf, exact_cf, find_unique_coloring
from cfcolor.polysolve import SelfCheckError
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


def test_max_k_cutoff():
    assert exact_cf(K3, "on", max_k=2).chromatic is None
    assert exact_cf(K3, "on", max_k=3).chromatic == 3


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
def constraint_families(draw):
    """Nonempty sets over a subset of the vertices, so that some vertices
    may lie in no set, as in the kernel cores of `fpt`."""
    n = draw(st.integers(1, 6))
    covered = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    sets = draw(st.lists(
        st.sets(st.sampled_from(covered), min_size=1).map(sorted), max_size=8
    ))
    return n, sets, draw(st.integers(0, 3))


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
