"""The recognizers, the small-graph enumeration and the split solver's
claims against networkx's graph atlas: all 1253 graphs on at most 7
vertices, each class decided by an independent definition."""

import itertools
from collections import Counter

import pytest

from cfcolor.graph import Graph
from cfcolor.graphclasses import is_bipartite, is_cluster, is_cograph, is_split, is_threshold
from cfcolor.oracle import exact_cf
from cfcolor.polysolve import solve_split_cfcn

from smallgraphs import enumerate_small

nx = pytest.importorskip("networkx")
from networkx.algorithms.threshold import is_threshold_graph  # noqa: E402

ATLAS = nx.graph_atlas_g()


def _chordal(h):
    return h.number_of_nodes() == 0 or nx.is_chordal(h)


def _has_induced_p4(h):
    return any(sub.number_of_edges() == 3 and nx.is_connected(sub)
               and max(d for _, d in sub.degree()) == 2
               for sub in (h.subgraph(quad) for quad in itertools.combinations(h, 4)))


def test_recognizers_match_networkx_on_the_atlas():
    assert len(ATLAS) == 1253
    for h in ATLAS:
        g = Graph(h.number_of_nodes(), h.edges())
        name = h.name
        assert is_bipartite(g)[0] == nx.is_bipartite(h), name
        assert is_threshold(g)[0] == is_threshold_graph(h), name
        assert is_split(g)[0] == (_chordal(h) and _chordal(nx.complement(h))), name
        assert is_cluster(g)[0] == all(
            h.subgraph(c).number_of_edges() == len(c) * (len(c) - 1) // 2
            for c in nx.connected_components(h)), name
        assert is_cograph(g)[0] == (not _has_induced_p4(h)), name


def test_enumeration_matches_the_atlas_census():
    connected = Counter(h.number_of_nodes() for h in ATLAS
                        if h.number_of_nodes() and nx.is_connected(h))
    assert [connected[n] for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
    assert [len(enumerate_small(n)) for n in range(1, 8)] == [connected[n] for n in range(1, 8)]


def test_split_exact_claims_match_the_oracle_on_the_atlas():
    # every split graph of the atlas, disconnected ones included: an
    # `exact` answer must use exactly the oracle's chromatic number
    split = with_isolated = 0
    for h in ATLAS:
        g = Graph(h.number_of_nodes(), h.edges())
        ok, part = is_split(g)
        if not ok:
            continue
        split += 1
        with_isolated += g.m > 0 and not all(map(g.degree, range(g.n)))
        out = solve_split_cfcn(g, part)
        if out.optimality == "exact":
            assert out.colors_used == exact_cf(g, "cn").chromatic, h.name
    assert (split, with_isolated) == (258, 87)
