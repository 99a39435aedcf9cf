"""Generators: determinism, certificate validity, exhaustive enumeration."""

import pytest

from cfcolor.graph import Graph, is_connected
from cfcolor.graphclasses import (
    Modulator,
    SplitPartition,
    is_bipartite,
    is_cluster,
    is_cograph,
    is_split,
    is_threshold,
    replay_elimination,
    validate_modulator,
)
from cfcolor.interval import IntervalRepresentation, validate_representation
from cfcolor.generators import (
    cluster_graph,
    connected_split_graphs,
    enumerate_small,
    random_cluster,
    random_cluster_modulator_instance,
    random_coloring,
    random_graph,
    random_interval_instance,
    random_split,
    random_threshold,
    random_threshold_modulator_instance,
    _invariant,
    _isomorphic,
)

SEEDS = range(12)


# --- basic randomized builders --------------------------------------------

def test_random_graph_determinism_and_density_extremes():
    assert random_graph(9, 0.4, 7) == random_graph(9, 0.4, 7)
    assert random_graph(9, 0.4, 7) != random_graph(9, 0.4, 8)
    assert random_graph(6, 0.0, 1).m == 0
    assert random_graph(6, 1.0, 1).m == 15


def test_random_coloring_bounds():
    g = random_graph(7, 0.5, 3)
    c = random_coloring(g, 4, 11)
    assert len(c.colors) == 7
    assert all(0 <= x < 4 for x in c.colors)
    assert c == random_coloring(g, 4, 11)


def test_cluster_graph_shape():
    g, cliques = cluster_graph((3, 1, 2))
    assert cliques == ((0, 1, 2), (3,), (4, 5))
    assert g.m == 4
    assert is_cluster(g)[0]
    with pytest.raises(ValueError, match="positive"):
        cluster_graph((2, 0))
    g, cliques = random_cluster(0, 1)
    assert g.n == 0 and cliques == ()
    with pytest.raises(ValueError, match=r"need n >= 0"):
        random_cluster(-3, 1)


# --- certificates re-validate ---------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_random_cluster_certificate(seed):
    g, cliques = random_cluster(8, seed)
    ok, cert = is_cluster(g)
    assert ok and cert == cliques


@pytest.mark.parametrize("seed", SEEDS)
def test_random_threshold_certificate(seed):
    g, creation = random_threshold(8, seed)
    assert is_threshold(g)[0]
    assert is_connected(g)  # last creation step is forced universal
    assert creation[-1][1] == "universal"
    rebuilt = Graph(8)
    present: list[int] = []
    for v, kind in creation:
        if kind == "universal":
            rebuilt = Graph(8, list(rebuilt.edges) + [(v, u) for u in present])
        present.append(v)
    assert rebuilt == g


def test_random_threshold_disconnected_allowed():
    gs = [random_threshold(6, s, connected=False)[0] for s in range(40)]
    assert any(not is_connected(g) for g in gs)
    assert all(is_threshold(g)[0] for g in gs)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_split_certificate(seed):
    g, part = random_split(8, seed)
    assert is_split(g)[0]
    cs, iset = set(part.clique), set(part.independent)
    assert cs | iset == set(range(8)) and not cs & iset
    assert all(g.has_edge(u, v) for u in cs for v in cs if u < v)
    assert not any(g.has_edge(u, v) for u in iset for v in iset if u < v)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_interval_certificate(seed):
    g, rep = random_interval_instance(10, seed)
    assert validate_representation(g, rep).ok
    assert is_connected(g)


@pytest.mark.parametrize("tag,field", [
    ("cluster", "cliques"),
    ("threshold", "creation"),
    ("split", "partition"),
    ("interval", "representation"),
    ("cluster-modulator", "modulator"),
    ("threshold-modulator", "modulator"),
])
def test_gen_dispatch(tag, field):
    # each generator behind `cfcolor gen --class <tag>`, at n 7, seed 5,
    # d 2, with its certificate of the kind `field` names
    generate = {
        "cluster": lambda: random_cluster(7, 5),
        "threshold": lambda: random_threshold(7, 5),
        "split": lambda: random_split(7, 5),
        "interval": lambda: random_interval_instance(7, 5),
        "cluster-modulator": lambda: random_cluster_modulator_instance(7, 2, 5),
        "threshold-modulator": lambda: random_threshold_modulator_instance(7, 2, 5),
    }[tag]
    kind = {"cliques": tuple, "creation": tuple, "partition": SplitPartition,
            "representation": IntervalRepresentation, "modulator": Modulator}[field]
    g, certificate = generate()
    assert g.n == 7
    assert isinstance(certificate, kind)
    assert generate() == (g, certificate)  # deterministic


def test_gen_modulator_certificates():
    for d in (0, 1, 2):
        for seed in SEEDS:
            g, modulator = random_cluster_modulator_instance(7, d, seed)
            assert modulator.residual_class == "cluster"
            assert validate_modulator(g, modulator)
            assert is_connected(g)
            g, modulator = random_threshold_modulator_instance(7, d, seed)
            assert modulator.residual_class == "threshold"
            assert validate_modulator(g, modulator)


def test_gen_explicit_cliques():
    _, cliques = cluster_graph((4, 2))
    assert cliques == ((0, 1, 2, 3), (4, 5))
    k3k2, _ = cluster_graph((3, 2))
    assert k3k2 == Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert is_cluster(k3k2)[0]


# --- exhaustive enumeration ------------------------------------------------

def test_enumerate_small_connected_census():
    # connected graphs on n vertices: OEIS A001349
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    for n, count in expected.items():
        assert len(enumerate_small(n)) == count


def test_enumeration_total_census():
    # all graphs (including disconnected): OEIS A000088
    from cfcolor.generators import _levels_up_to, _plain_levels

    _levels_up_to(7, None, _plain_levels)
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, count in expected.items():
        assert len(_plain_levels[n]) == count


def test_enumerate_small_no_duplicates():
    graphs = enumerate_small(5)
    for i, g in enumerate(graphs):
        for h in graphs[i + 1:]:
            assert not (_invariant(g) == _invariant(h) and _isomorphic(g, h))


def test_enumerate_small_exactly_n():
    got = enumerate_small(3, lambda g: is_split(g)[0])
    assert len(got) == 2  # P3 and K3
    assert all(g.n == 3 for g in got)


def test_enumerate_small_filter():
    bip = enumerate_small(4, lambda g: is_bipartite(g)[0])
    assert len(bip) == 3  # P4, K13, C4
    cog = enumerate_small(4, lambda g: is_cograph(g)[0])
    assert len(cog) == 5  # every connected 4-vertex graph except P4


def test_connected_split_census():
    graphs = connected_split_graphs(8)
    by_size: dict[int, int] = {}
    for g in graphs:
        assert is_split(g)[0] and is_connected(g)
        by_size[g.n] = by_size.get(g.n, 0) + 1
    assert by_size == {1: 1, 2: 1, 3: 2, 4: 5, 5: 12, 6: 35, 7: 108, 8: 393}
    assert len(graphs) == 557


def test_split_enumeration_routes_agree():
    pruned = [g for g in connected_split_graphs(7) if g.n <= 7]
    plain = [
        g
        for n in range(1, 8)
        for g in enumerate_small(n, lambda h: is_split(h)[0])
    ]
    sizes = lambda gs: sorted((g.n, g.m) for g in gs)
    assert sizes(pruned) == sizes(plain)


def test_enumeration_range_errors():
    with pytest.raises(ValueError):
        enumerate_small(0)
    with pytest.raises(ValueError):
        enumerate_small(8)
    with pytest.raises(ValueError):
        connected_split_graphs(9)
