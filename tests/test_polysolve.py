"""Constructive solvers: bipartite, split 2-vs-3, cograph, modulator bounds."""

import hashlib

import pytest

import cfcolor.polysolve as polysolve_module
from cfcolor.graph import Graph
from cfcolor.coloring import VARIANT_CN, VARIANT_ON, verify_cfcn, verify_cfon
from cfcolor.graphclasses import (
    Modulator,
    SplitPartition,
    is_bipartite,
    is_cograph,
    is_split,
    modular_decomposition,
    neighbours_inside,
)
from cfcolor.oracle import exact_cf
from cfcolor.polysolve import (
    EXACT,
    UPPER_BOUND,
    lemma1_cfcn,
    lemma1_cfon,
    solve_bipartite_cfcn,
    solve_cograph,
    solve_split_cfcn,
)
from cfcolor.generators import (
    random_cluster_modulator_instance,
    random_split,
)

from smallgraphs import connected_split_graphs, enumerate_small
from strategies import labeled_graphs

K2 = Graph(2, [(0, 1)])
P3 = Graph(3, [(0, 1), (1, 2)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
STAR3 = Graph(4, [(0, 1), (0, 2), (0, 3)])


def split_part(g):
    ok, part = is_split(g)
    assert ok
    return part


# --- bipartite -------------------------------------------------------------

@pytest.mark.parametrize(
    "g,expected",
    [
        (K2, (0, 1)),
        (P3, (0, 1, 0)),
        (C4, (0, 1, 0, 1)),
    ],
)
def test_bipartite_frozen(g, expected):
    out = solve_bipartite_cfcn(g, is_bipartite(g)[1])
    assert out.coloring.colors == expected
    assert out.colors_used == 2 and out.optimality == EXACT


def test_bipartite_rejects_bad_partition():
    with pytest.raises(ValueError, match="inside one side"):
        solve_bipartite_cfcn(K2, ((0, 1), ()))
    with pytest.raises(ValueError, match="partition the vertex set"):
        solve_bipartite_cfcn(K2, ((0,), (0, 1)))
    # an edgeless graph is answered, as the split solver answers it
    out = solve_bipartite_cfcn(Graph(2, []), ((0, 1), ()))
    assert out.coloring.colors == (0, 0) and out.colors_used == 1 and out.optimality == EXACT


def test_bipartite_matches_oracle_small():
    for n in range(2, 7):
        for g in enumerate_small(n, lambda h: is_bipartite(h)[0]):
            out = solve_bipartite_cfcn(g, is_bipartite(g)[1])
            assert out.colors_used == 2
            assert exact_cf(g, VARIANT_CN).chromatic == 2


# --- split -----------------------------------------------------------------

def test_split_universal_rule():
    out = solve_split_cfcn(STAR3, split_part(STAR3))
    assert out.coloring.colors == (1, 0, 0, 0)
    assert out.colors_used == 2 and out.optimality == EXACT


def test_split_p4_two_colors():
    out = solve_split_cfcn(P4, split_part(P4))
    assert out.coloring.colors == (1, 0, 0, 1)
    assert out.colors_used == 2


def test_split_double_star_two_colors():
    # clique side {0,1}, three independent leaves; no universal vertex and
    # vertex 0 has two independent neighbors, yet the graph is triangle-free
    # so the bipartition coloring achieves the optimum of 2
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
    out = solve_split_cfcn(g, split_part(g))
    assert out.colors_used == 2
    assert exact_cf(g, VARIANT_CN).chromatic == 2
    assert "triangle-free" in out.note


def test_split_three_color_case():
    # triangle 0-1-2 with pendants 3 on 0 and 4 on 1: no universal vertex,
    # clique vertex 2 has no independent neighbor, not bipartite
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
    out = solve_split_cfcn(g, split_part(g))
    assert out.coloring.colors == (0, 1, 1, 2, 2)
    assert out.colors_used == 3 and out.optimality == EXACT
    assert exact_cf(g, VARIANT_CN).chromatic == 3


def test_split_rejects_bad_input():
    with pytest.raises(ValueError, match="not a clique"):
        solve_split_cfcn(P3, SplitPartition((0, 2), (1,)))
    with pytest.raises(ValueError, match="not independent"):
        solve_split_cfcn(K3, SplitPartition((0,), (1, 2)))
    with pytest.raises(ValueError, match="cover the vertex set"):
        solve_split_cfcn(P3, SplitPartition((1,), (0,)))
    # an edgeless graph is not refused: one color is exact
    out = solve_split_cfcn(Graph(2, []), SplitPartition((0,), (1,)))
    assert out.coloring.colors == (0, 0) and out.optimality == EXACT


def test_split_edgeless_and_empty():
    for n in (1, 3):
        out = solve_split_cfcn(Graph(n), is_split(Graph(n))[1])
        assert out.colors_used == 1 and out.optimality == EXACT
    empty = solve_split_cfcn(Graph(0), SplitPartition((), ()))
    assert empty.coloring.colors == () and empty.colors_used == 0


def test_cograph_empty_graph():
    for variant in (VARIANT_CN, VARIANT_ON):
        out = solve_cograph(Graph(0), is_cograph(Graph(0))[1], variant)
        assert out.coloring.colors == () and out.optimality == EXACT


def test_split_matches_oracle_exhaustive_small():
    for n in range(2, 7):
        for g in enumerate_small(n, lambda h: is_split(h)[0]):
            out = solve_split_cfcn(g, split_part(g))
            assert out.optimality == EXACT
            assert out.colors_used in (2, 3)
            assert out.colors_used == exact_cf(g, VARIANT_CN).chromatic


def test_split_probe_ignores_noncanonical_partition():
    # passing a different (valid) partition must not change the decision
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
    alt = SplitPartition((0,), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        solve_split_cfcn(g, alt)  # (1,4) is an edge inside the claimed independent side
    alt2 = SplitPartition((0, 1), (2, 3, 4))
    assert solve_split_cfcn(g, alt2).colors_used == 2


def _outcome(out):
    return out.coloring.colors, out.colors_used, out.optimality, out.note


def test_split_counts_read_from_degrees(monkeypatch):
    # the two neighbours_inside passes validate the input partition; the
    # canonical partition's counts come from the degrees
    census = connected_split_graphs(7)
    parts = [split_part(g) for g in census]
    want = [_outcome(solve_split_cfcn(g, p)) for g, p in zip(census, parts)]
    calls = []

    def counted(g, vertices, inside):
        calls.append(g)
        return neighbours_inside(g, vertices, inside)

    monkeypatch.setattr(polysolve_module, "neighbours_inside", counted)
    assert [_outcome(solve_split_cfcn(g, p)) for g, p in zip(census, parts)] == want
    assert len(calls) == 2 * len(census)
    assert len(census) > 100


def test_split_noncanonical_partitions_match_canonical():
    # moving a clique vertex with no independent neighbour to the
    # independent side gives another valid partition of the same graph
    checked = 0
    for g in connected_split_graphs(6):
        p = split_part(g)
        want = _outcome(solve_split_cfcn(g, p))
        for v in p.clique:
            if len(p.clique) > 1 and not set(g.neighbors(v)) & set(p.independent):
                alt = SplitPartition(tuple(u for u in p.clique if u != v),
                                     tuple(sorted((*p.independent, v))))
                assert _outcome(solve_split_cfcn(g, alt)) == want, (g, alt)
                checked += 1
    assert checked > 20


def test_split_outcomes_pinned():
    # sha256 over (colors, optimality, note) on every labeled split graph
    # with at most 6 vertices, then on 300 seeded random_split graphs of
    # 1..14 vertices with their generator partitions, as computed by the
    # candidate-partition scan that preceded the counting rule.  Pinned
    # again when graphs with isolated vertices got their edge component
    # solved alone: 3021 of the 10655 outcomes moved, all on such graphs,
    # 1697 of them to fewer colors and none to more
    h = hashlib.sha256()
    count = 0
    for g in labeled_graphs(6):
        ok, part = is_split(g)
        if ok:
            count += 1
            out = solve_split_cfcn(g, part)
            h.update(repr((out.coloring.colors, out.optimality, out.note)).encode())
    assert count == 10355
    for s in range(300):
        g, part = random_split(1 + s % 14, s)
        out = solve_split_cfcn(g, part)
        h.update(repr((out.coloring.colors, out.optimality, out.note)).encode())
    assert h.hexdigest() == "56bc26b8a634ee8f2e4cbd8f78551ca7417082e5e447dce7116cfb404c6a64e9"


# --- cograph ---------------------------------------------------------------

def test_cograph_cn_universal():
    out = solve_cograph(P3, modular_decomposition(P3), VARIANT_CN)
    assert out.coloring.colors == (0, 1, 0)
    assert out.colors_used == 2 and out.optimality == EXACT


def test_cograph_cn_c4():
    out = solve_cograph(C4, modular_decomposition(C4), VARIANT_CN)
    assert out.coloring.colors == (0, 1, 2, 2)
    assert out.colors_used == 3 and out.optimality == UPPER_BOUND
    assert exact_cf(C4, VARIANT_CN).chromatic == 2  # the documented gap


def test_cograph_on_examples():
    out = solve_cograph(P3, modular_decomposition(P3), VARIANT_ON)
    assert out.coloring.colors == (0, 1, 2)
    assert out.optimality == UPPER_BOUND
    out2 = solve_cograph(K2, modular_decomposition(K2), VARIANT_ON)
    assert out2.coloring.colors == (0, 1)


def test_cograph_single_vertex():
    g = Graph(1, [])
    out = solve_cograph(g, modular_decomposition(g), VARIANT_CN)
    assert out.coloring.colors == (0,) and out.optimality == EXACT
    with pytest.raises(ValueError, match="isolated"):
        solve_cograph(g, modular_decomposition(g), VARIANT_ON)


def test_cograph_rejects_prime_and_disconnected():
    with pytest.raises(ValueError, match="prime"):
        solve_cograph(P4, modular_decomposition(P4), VARIANT_CN)
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="series"):
        solve_cograph(g, modular_decomposition(g), VARIANT_CN)


def test_cograph_bounds_exhaustive_small():
    for n in range(2, 7):
        for g in enumerate_small(n, lambda h: is_cograph(h)[0]):
            t = modular_decomposition(g)
            for variant in (VARIANT_CN, VARIANT_ON):
                out = solve_cograph(g, t, variant)
                assert out.colors_used <= 3
                if variant == VARIANT_CN and any(
                    g.degree(v) == g.n - 1 for v in range(g.n)
                ):
                    assert out.colors_used == 2


# --- modulator constructions ----------------------------------------------

def test_lemma1_cfcn_frozen():
    out = lemma1_cfcn(K3, Modulator((), "cluster"))
    assert out.coloring.colors == (0, 1, 1) and out.colors_used == 2
    star = lemma1_cfcn(STAR3, Modulator((0,), "cluster"))
    assert star.coloring.colors == (2, 0, 0, 0) and star.colors_used == 2


def test_lemma1_cfon_frozen():
    k3 = lemma1_cfon(K3, Modulator((), "cluster"))
    assert k3.coloring.colors == (1, 2, 0)
    assert k3.note  # degenerate single-clique repair is flagged
    tri = lemma1_cfon(Graph(3, [(0, 1), (0, 2), (1, 2)]), Modulator((2,), "cluster"))
    assert tri.coloring.colors == (2, 0, 1) and not tri.note
    star = lemma1_cfon(STAR3, Modulator((0,), "cluster"))
    assert star.coloring.colors == (1, 2, 3, 3) and not star.note
    k2 = lemma1_cfon(K2, Modulator((), "cluster"))
    assert k2.coloring.colors == (1, 0) and not k2.note


def test_lemma1_rejects_bad_modulator():
    with pytest.raises(ValueError, match="cluster"):
        lemma1_cfcn(P4, Modulator((), "cluster"))  # P4 minus nothing is not a cluster
    with pytest.raises(ValueError, match="cluster"):
        lemma1_cfcn(K3, Modulator((), "threshold"))
    with pytest.raises(ValueError, match="isolated"):
        lemma1_cfon(Graph(3, [(0, 1)]), Modulator((), "cluster"))


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_lemma1_bounds_random(d):
    for seed in range(25):
        n = 5 + (seed % 6)
        if d > n:
            continue
        g, mod = random_cluster_modulator_instance(n, d, seed)
        cn = lemma1_cfcn(g, mod)
        assert cn.colors_used <= d + 2
        assert verify_cfcn(cn.coloring)
        on = lemma1_cfon(g, mod)
        assert verify_cfon(on.coloring)
        if not on.note:
            assert on.colors_used <= 2 * d + 2
        else:
            assert on.colors_used <= max(2 * d + 2, 3)
