"""The recognizers, the small-graph enumeration and every strategy's
claims against networkx's graph atlas: all 1253 graphs on at most 7
vertices, each class decided by an independent definition."""

import itertools
from collections import Counter

import pytest

from cfcolor import ladder
from cfcolor.coloring import EXACT, feasible, verify
from cfcolor.generators import cluster_graph, random_cluster
from cfcolor.graph import Graph
from cfcolor.graphclasses import (cluster_modulator, is_bipartite, is_cluster, is_cograph,
                                  is_split, is_threshold)
from cfcolor.ladder import DEFAULT_BUDGET, STRATEGIES, solve
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


def test_every_strategy_against_the_oracle_on_the_atlas():
    # every answer of `solve` on every feasible atlas graph, both
    # variants: it verifies, never goes below chi, claims `exact` only at
    # chi and stays within its rung's bound; a ValueError is a named
    # strategy's own refusal or the cograph rung on a disconnected graph
    recognizers = {"split": is_split, "bipartite": is_bipartite, "cograph": is_cograph}
    table = {}  # (strategy, variant, rung) -> [answers, colors above chi]
    disconnected = Counter()
    for h in ATLAS:
        g = Graph(h.number_of_nodes(), h.edges())
        d = len(cluster_modulator(g, DEFAULT_BUDGET).vertices)
        connected = g.n > 0 and nx.is_connected(h)
        for variant in ("cn", "on"):
            if not feasible(g, variant):
                continue
            chi = exact_cf(g, variant).chromatic
            bounds = {"lemma1": d + 2 if variant == "cn" else max(2 * d + 2, 3),
                      "approx": chi + (1 if variant == "cn" else 2), "cograph": 3}
            for strategy in ("auto", "split", "bipartite", "cograph", "lemma1", "approx"):
                try:
                    rung, out = solve(g, variant, strategy)
                except ValueError as exc:
                    if str(exc).startswith("root is not a series node"):
                        assert not connected, h.name
                        disconnected[strategy, variant] += 1
                        continue
                    on_refusal, _, refusal, _ = STRATEGIES[strategy]
                    if variant == "on" and on_refusal is not None:
                        assert str(exc) == on_refusal, (h.name, strategy)
                    else:
                        assert str(exc) == refusal, (h.name, strategy, variant)
                        assert not recognizers[strategy](g)[0], (h.name, strategy)
                    continue
                where = (h.name, strategy, variant, rung)
                assert verify(out.coloring, variant), where
                assert chi <= out.colors_used <= bounds.get(rung, out.colors_used), where
                assert out.optimality != EXACT or out.colors_used == chi, where
                row = table.setdefault((strategy, variant, rung), [0, 0])
                row[0] += 1
                row[1] += out.colors_used - chi
    for (strategy, variant, rung), (answers, gap) in sorted(table.items()):
        print(f"atlas {strategy} {variant} -> {rung}: {answers} answers, {gap} colors above chi")
    # the disconnected cographs are ROADMAP item 2, still open
    assert disconnected == {("auto", "cn"): 53, ("auto", "on"): 36,
                            ("cograph", "cn"): 143, ("cograph", "on"): 36}


def test_auto_settles_every_cluster_graph_before_a_modulator_search(monkeypatch):
    # a cluster graph is a cograph, so under auto the split, bipartite or
    # cograph rung answers, or the cograph rung raises on a disconnected
    # one (ROADMAP item 2), before the ladder searches a modulator
    def no_search(*args):
        raise AssertionError("modulator search on a cluster graph")

    monkeypatch.setattr(ladder, "find_modulator", no_search)
    graphs = [Graph(h.number_of_nodes(), h.edges()) for h in ATLAS]
    graphs = [g for g in graphs if is_cluster(g)[0]]
    graphs += [random_cluster(n, s)[0] for n in range(13) for s in range(5)]
    graphs += [cluster_graph(sizes)[0] for sizes in ((), (1,), (4,), (3, 1), (2, 2, 2), (5, 1, 1))]
    rungs = Counter()
    for g in graphs:
        for variant in ("cn", "on"):
            if not feasible(g, variant):
                continue
            try:
                rung, _ = solve(g, variant)
            except ValueError as exc:
                assert str(exc).startswith("root is not a series node"), exc
                rung = "disconnected"
            rungs[rung] += 1
    assert set(rungs) == {"split", "bipartite", "cograph", "disconnected"}, rungs
