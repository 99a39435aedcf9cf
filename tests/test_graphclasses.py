"""Recognizers, certificates, modular decomposition, and modulators."""

import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import cfcolor.graphclasses as graphclasses_module
from cfcolor.graph import Graph, components_avoiding, induced_subgraph
from cfcolor.graphclasses import (
    Modulator,
    _cluster_check,
    _threshold_check,
    cluster_modulator,
    has_prime_node,
    is_bipartite,
    is_cluster,
    is_cograph,
    is_split,
    is_threshold,
    modular_decomposition,
    residual_components,
    threshold_modulator,
    validate_modulator,
)
from cfcolor.generators import (
    random_cluster,
    random_cluster_modulator_instance,
    random_graph,
    random_split,
    random_threshold,
    random_threshold_modulator_instance,
)

from smallgraphs import _levels_up_to, _plain_levels, replay_elimination
from strategies import graphs, labeled_graphs, modulator_pin_graphs, stack_depth

P3 = Graph(3, [(0, 1), (1, 2)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
TWO_K2 = Graph(4, [(0, 1), (2, 3)])
STAR3 = Graph(4, [(0, 1), (0, 2), (0, 3)])

# the classes `cfcolor recognize` reports, each with its recognizer
RECOGNIZERS = {"bipartite": is_bipartite, "cluster": is_cluster, "split": is_split,
               "threshold": is_threshold, "cograph": is_cograph}


def all_graphs_up_to(n):
    _levels_up_to(n, None, _plain_levels)
    for size in range(1, n + 1):
        yield from _plain_levels[size]


# --- frozen label sets -----------------------------------------------------

@pytest.mark.parametrize(
    "g,expected",
    [
        (P4, {"bipartite", "split"}),
        (K3, {"cluster", "split", "threshold", "cograph"}),
        (C4, {"bipartite", "cograph"}),
        (P3, {"bipartite", "split", "threshold", "cograph"}),
        (TWO_K2, {"bipartite", "cluster", "cograph"}),
        (C5, set()),
    ],
)
def test_recognize_labels(g, expected):
    assert {name for name, recognizer in RECOGNIZERS.items() if recognizer(g)[0]} == expected


# --- recognizers against brute-force definitions ---------------------------

def _has_induced(g, pattern_test, size):
    for quad in itertools.combinations(range(g.n), size):
        sub, _ = induced_subgraph(g, list(quad))
        if pattern_test(sub):
            return True
    return False


def _is_p3(h):
    return h.m == 2 and sorted(h.degree(v) for v in range(3)) == [1, 1, 2]


def _is_p4(h):
    return h.m == 3 and sorted(h.degree(v) for v in range(4)) == [1, 1, 2, 2]


def _is_c4(h):
    return h.m == 4 and all(h.degree(v) == 2 for v in range(4))


def _is_2k2(h):
    return h.m == 2 and all(h.degree(v) == 1 for v in range(4))


def _is_c5(h):
    return h.m == 5 and all(h.degree(v) == 2 for v in range(5))


def _brute_bipartite(g):
    for mask in range(1 << g.n):
        if all(((mask >> u) & 1) != ((mask >> v) & 1) for u, v in g.edges):
            return True
    return False


def test_recognizers_match_forbidden_subgraph_definitions():
    for g in all_graphs_up_to(6):
        assert is_cluster(g)[0] == (not _has_induced(g, _is_p3, 3))
        assert is_cograph(g)[0] == (not _has_induced(g, _is_p4, 4))
        thr = not (
            _has_induced(g, _is_p4, 4)
            or _has_induced(g, _is_c4, 4)
            or _has_induced(g, _is_2k2, 4)
        )
        assert is_threshold(g)[0] == thr
        spl = not (
            _has_induced(g, _is_2k2, 4)
            or _has_induced(g, _is_c4, 4)
            or _has_induced(g, _is_c5, 5)
        )
        assert is_split(g)[0] == spl
        assert is_bipartite(g)[0] == _brute_bipartite(g)


# --- certificates ----------------------------------------------------------

def test_split_certificate_revalidates():
    for g in all_graphs_up_to(6):
        ok, part = is_split(g)
        if not ok:
            assert part is None
            continue
        c, i = set(part.clique), set(part.independent)
        assert c | i == set(range(g.n)) and not (c & i)
        assert all(g.has_edge(u, v) for u in c for v in c if u < v)
        assert not any(g.has_edge(u, v) for u in i for v in i if u < v)


def test_split_clique_side_is_maximum():
    # the degree-characterization clique has maximum size: no larger clique exists
    for g in all_graphs_up_to(6):
        ok, part = is_split(g)
        if not ok:
            continue
        best = 0
        for r in range(g.n, 0, -1):
            if any(
                all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2))
                for sub in itertools.combinations(range(g.n), r)
            ):
                best = r
                break
        assert len(part.clique) == best


def test_threshold_certificate_replays():
    for g in all_graphs_up_to(6):
        ok, order = is_threshold(g)
        if not ok:
            assert order is None
            continue
        assert sorted(v for v, _ in order) == list(range(g.n))
        assert replay_elimination(g.n, order) == g


def test_threshold_nesting_property():
    for g in all_graphs_up_to(6):
        if not is_threshold(g)[0]:
            continue
        for x in range(g.n):
            for y in range(x + 1, g.n):
                nx, ny = set(g.neighbors(x)), set(g.neighbors(y))
                assert nx <= ny | {y} or ny <= nx | {x}


def test_cluster_certificate():
    for g in all_graphs_up_to(6):
        ok, cliques = is_cluster(g)
        if not ok:
            assert cliques is None
            continue
        seen = [v for c in cliques for v in c]
        assert sorted(seen) == list(range(g.n))
        for c in cliques:
            assert all(g.has_edge(u, v) for u, v in itertools.combinations(c, 2))
        # no edges between cliques
        member = {v: idx for idx, c in enumerate(cliques) for v in c}
        assert all(member[u] == member[v] for u, v in g.edges)


def test_bipartition_certificate():
    for g in all_graphs_up_to(6):
        ok, sides = is_bipartite(g)
        if not ok:
            assert sides is None
            continue
        a, b = map(set, sides)
        assert a | b == set(range(g.n)) and not (a & b)
        assert all((u in a) != (v in a) for u, v in g.edges)


# --- modular decomposition -------------------------------------------------

def test_md_p3_shape():
    t = modular_decomposition(P3)
    assert t.kind == "series"
    assert [(c.kind, c.vertices) for c in t.children] == [
        ("parallel", (0, 2)),
        ("leaf", (1,)),
    ]


def test_md_k3_shape():
    t = modular_decomposition(K3)
    assert t.kind == "series"
    assert all(c.kind == "leaf" for c in t.children)


def test_md_p4_prime_root():
    t = modular_decomposition(P4)
    assert t.kind == "prime"
    assert has_prime_node(t)


def _check_md_node(g, node):
    if node.kind == "leaf":
        assert len(node.vertices) == 1
        return
    covered = [v for c in node.children for v in c.vertices]
    assert sorted(covered) == sorted(node.vertices)
    assert len(node.children) >= 2
    # children ordered by smallest member
    mins = [min(c.vertices) for c in node.children]
    assert mins == sorted(mins)
    for ci, cj in itertools.combinations(node.children, 2):
        pairs = [(u, v) for u in ci.vertices for v in cj.vertices]
        if node.kind == "series":
            assert all(g.has_edge(u, v) for u, v in pairs)
        elif node.kind == "parallel":
            assert not any(g.has_edge(u, v) for u, v in pairs)
    if node.kind == "prime":
        assert all(c.kind == "leaf" for c in node.children)
    else:
        for c in node.children:
            _check_md_node(g, c)


def test_md_structure_and_cograph_equivalence():
    for g in all_graphs_up_to(6):
        t = modular_decomposition(g)
        assert sorted(t.vertices) == list(range(g.n))
        _check_md_node(g, t)
        assert is_cograph(g)[0] == (not has_prime_node(t))


def test_md_trees_pinned():
    # sha256 over repr(tree) on every labeled graph with at most 6
    # vertices and on 10 seeded threshold graphs each of 30, 60 and 100
    # vertices, as computed by the decomposition that built a complement
    # graph and an induced subgraph per level
    h = hashlib.sha256()
    for g in labeled_graphs(6):
        h.update(repr(modular_decomposition(g)).encode())
    assert h.hexdigest() == "6d5e6b4a07fc664fca947e215d18efa7b37a364547a466da43fde02a4049ca4d"
    h = hashlib.sha256()
    for n in (30, 60, 100):
        for s in range(10):
            h.update(repr(modular_decomposition(random_threshold(n, s)[0])).encode())
    assert h.hexdigest() == "b3e0820b465767131ea0bd7de3a948398729408b77d9459d7ae79e962adccbed"


def test_deep_cotree_without_recursion():
    # a random threshold graph's cotree is about n/2 levels deep: 400
    # vertices give a tree far deeper than the 100 frames allowed here
    g = random_threshold(400, 1)[0]
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        ok, tree = is_cograph(g)
        prime = has_prime_node(tree)
    finally:
        sys.setrecursionlimit(old)
    assert ok and not prime
    # walked by hand: MDNode's == and repr recurse
    stack, deepest = [(0, tree)], 0
    while stack:
        depth, node = stack.pop()
        deepest = max(deepest, depth)
        if node.kind == "leaf":
            continue
        assert node.kind in ("series", "parallel")
        assert sorted(v for c in node.children for v in c.vertices) == list(node.vertices)
        firsts = [c.vertices[0] for c in node.children]
        assert firsts == sorted(firsts) and len(firsts) >= 2
        assert all(c.kind != node.kind for c in node.children)
        stack.extend((depth + 1, c) for c in node.children)
    assert deepest > 150


def _modules_to_split():
    """(vertices, in-module neighbour sets) pairs: every labeled graph
    with at most 5 vertices, then random vertex subsets of seeded
    threshold graphs and G(n, p) graphs with at most 12 vertices."""
    for g in labeled_graphs(5):
        yield tuple(range(g.n)), [set(g.neighbors(v)) for v in range(g.n)]
    rng = random.Random(3)
    for s in range(300):
        n = rng.randint(2, 12)
        g = random_threshold(n, s)[0] if s % 2 else random_graph(n, rng.random(), s)
        vertices = tuple(v for v in range(n) if rng.random() < 0.8) or (0,)
        inside = set(vertices)
        yield vertices, [set(g.neighbors(v)) & inside for v in range(n)]


def test_degree_split_matches_the_searches():
    # whenever the degrees settle a module, they give exactly the parts
    # the breadth-first searches give
    settled = 0
    for vertices, adj in _modules_to_split():
        for co in (False, True):
            parts = graphclasses_module._degree_split(vertices, adj, co)
            if parts is not None:
                settled += 1
                assert parts == graphclasses_module._search(vertices, adj, co)
    assert settled > 1000


def test_threshold_cotree_needs_no_search(monkeypatch):
    # every level of a threshold graph's cotree is settled by degrees
    def no_search(vertices, adj, co):
        raise AssertionError("searched a threshold module")

    monkeypatch.setattr(graphclasses_module, "_search", no_search)
    for n in (1, 2, 5, 30, 200):
        for s in range(3):
            ok, tree = is_cograph(random_threshold(n, s, connected=bool(s % 2))[0])
            assert ok and not has_prime_node(tree)


# --- modulators ------------------------------------------------------------

@pytest.mark.parametrize(
    "fn,g,budget,expected",
    [
        (cluster_modulator, P3, 1, (0,)),
        (cluster_modulator, C5, 1, None),
        (cluster_modulator, TWO_K2, 0, ()),
        (cluster_modulator, C4, 2, (0, 1)),
        (threshold_modulator, C4, 1, (0,)),
        (threshold_modulator, TWO_K2, 1, (0,)),
        (threshold_modulator, STAR3, 0, ()),
        (threshold_modulator, C5, 1, None),
        (threshold_modulator, C5, 2, (0, 1)),
    ],
)
def test_modulator_frozen(fn, g, budget, expected):
    got = fn(g, budget)
    if expected is None:
        assert got is None
    else:
        assert got is not None and got.vertices == expected


def test_modulator_negative_budget():
    with pytest.raises(ValueError):
        cluster_modulator(P3, -1)
    with pytest.raises(ValueError):
        threshold_modulator(P3, -1)


def _brute_min_modulator(g, accept):
    for size in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            keep = [v for v in range(g.n) if v not in sub]
            h, _ = induced_subgraph(g, keep)
            if accept(h):
                return sub
    raise AssertionError("deleting everything always works")


def test_modulators_match_brute_force():
    # exhaustive subset search is an independent oracle for both the
    # minimum size and the lexicographic tie-break
    for g in all_graphs_up_to(5):
        want_c = _brute_min_modulator(g, lambda h: is_cluster(h)[0])
        got_c = cluster_modulator(g, g.n)
        assert got_c is not None and got_c.vertices == want_c
        want_t = _brute_min_modulator(g, lambda h: is_threshold(h)[0])
        got_t = threshold_modulator(g, g.n)
        assert got_t is not None and got_t.vertices == want_t
        # under-budget calls must come back empty-handed, not wrong
        if len(want_c) > 0:
            assert cluster_modulator(g, len(want_c) - 1) is None
        if len(want_t) > 0:
            assert threshold_modulator(g, len(want_t) - 1) is None


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=7), st.sampled_from(("cluster", "threshold")), st.integers(0, 7))
def test_modulators_match_brute_force_up_to_7(g, residual_class, budget):
    # the packing bound may only ever end a search that has no answer
    accept = {"cluster": is_cluster, "threshold": is_threshold}[residual_class]
    find = {"cluster": cluster_modulator, "threshold": threshold_modulator}[residual_class]
    want = _brute_min_modulator(g, lambda h: accept(h)[0])
    got = find(g, budget)
    if len(want) > budget:
        assert got is None
    else:
        assert got == Modulator(want, residual_class)


def _counted_checks(monkeypatch):
    """Wrap both class checks; the list collects each removed set checked."""
    checked = []
    for name, check in list(graphclasses_module._CLASS_CHECKS.items()):
        def counted(g, removed, check=check):
            checked.append(frozenset(removed))
            return check(g, removed)
        monkeypatch.setitem(graphclasses_module._CLASS_CHECKS, name, counted)
    return checked


def _disjoint_p3s(j):
    return Graph(3 * j, [e for i in range(j) for e in ((3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2))])


@pytest.mark.parametrize("j", range(1, 6))
def test_packed_p3s_refuse_under_budget_without_branching(monkeypatch, j):
    # j disjoint P3s need j vertices: the j-th packed obstruction puts
    # the bound over the budget j - 1, and the search stops there
    g = _disjoint_p3s(j)
    checked = _counted_checks(monkeypatch)
    assert cluster_modulator(g, j - 1) is None
    assert len(checked) == j
    checked.clear()
    assert cluster_modulator(g, j).vertices == tuple(3 * i for i in range(j))


def test_packing_stops_at_the_budget(monkeypatch):
    # 1000 disjoint P3s: packing them all would take 1000 checks
    g = _disjoint_p3s(1000)
    checked = _counted_checks(monkeypatch)
    for find in (cluster_modulator, threshold_modulator):
        checked.clear()
        assert find(g, 6) is None
        assert len(checked) <= 6 + 2, find.__name__


def test_search_checks_each_removed_set_once(monkeypatch):
    checked = _counted_checks(monkeypatch)
    graphs_ = [*all_graphs_up_to(5), *modulator_pin_graphs(),
               *(random_graph(12, 0.4, s) for s in range(4))]
    for g in graphs_:
        for find in (cluster_modulator, threshold_modulator):
            checked.clear()
            find(g, 6)
            assert len(checked) == len(set(checked)), (g, find.__name__)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7))
def test_modulator_validates(g):
    mod = cluster_modulator(g, 3)
    if mod is not None:
        assert validate_modulator(g, mod)
    tmod = threshold_modulator(g, 3)
    if tmod is not None:
        assert validate_modulator(g, tmod)


def test_validate_modulator_rejects_wrong_class():
    assert not validate_modulator(C4, Modulator((), "cluster"))
    assert not validate_modulator(C4, Modulator((0,), "cluster"))
    assert validate_modulator(C4, Modulator((0, 1), "cluster"))
    with pytest.raises(ValueError):
        validate_modulator(C4, Modulator((), "nonsense"))


def _brute_residual(n, edges, x, residual_class):
    """Components of G-X by union-find, and the class by its forbidden
    induced subgraphs: P3 for cluster; 2K2, P4 and C4 for threshold."""
    rest = [v for v in range(n) if v not in x]
    inside = [e for e in edges if e[0] in rest and e[1] in rest]
    size = 3 if residual_class == "cluster" else 4
    for sub in itertools.combinations(rest, size):
        induced = [e for e in inside if e[0] in sub and e[1] in sub]
        degrees = sorted(sum(v in e for e in induced) for v in sub)
        if size == 3 and len(induced) == 2:
            return None
        if size == 4 and degrees in ([1, 1, 1, 1], [1, 1, 2, 2], [2, 2, 2, 2]):
            return None
    root = {v: v for v in rest}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in inside:
        root[find(u)] = find(v)
    comps = {}
    for v in rest:
        comps.setdefault(find(v), []).append(v)
    return sorted(tuple(c) for c in comps.values())


def test_residual_components_matches_brute_force():
    # every labeled graph on up to 5 vertices, every X, both classes
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            g = Graph(n, edges)
            for size in range(n + 1):
                for x in itertools.combinations(range(n), size):
                    for residual_class in ("cluster", "threshold"):
                        got = residual_components(g, Modulator(x, residual_class))
                        want = _brute_residual(n, edges, x, residual_class)
                        assert got == want, (n, edges, x, residual_class)
    assert residual_components(K3, Modulator((0, 1, 2), "cluster")) == []
    with pytest.raises(ValueError, match="unknown residual class"):
        residual_components(K3, Modulator((), "nonsense"))


def test_residual_components_pinned():
    # sha256 over the split of G-X on planted modulator instances (n
    # 10-80), with the planted X, X minus a vertex and the empty X, in
    # both classes, as computed through the induced subgraph and the
    # recognizers before the split moved onto vertex sets
    h = hashlib.sha256()
    for s in range(100):
        n, d = 10 + s * 7 % 71, 1 + s % 3
        for make in (random_cluster_modulator_instance, random_threshold_modulator_instance):
            g, planted = make(n, d, s)
            for xs in (planted.vertices, planted.vertices[1:], ()):
                for residual_class in ("cluster", "threshold"):
                    h.update(repr(residual_components(g, Modulator(xs, residual_class))).encode())
    assert h.hexdigest() == "20063883280b37e8918d31d0c24da6b62849885c5dd29034656a5e7e9fc1a8c5"


def test_threshold_residual_components_match_search():
    # the components read off the elimination order equal a breadth-first
    # search over G-X: planted threshold modulators up to n = 120 with the
    # planted X, X less one vertex and the empty X, and disconnected
    # threshold graphs less a random set, whose residuals keep singletons
    rng = random.Random(7)
    cases = []
    for s in range(60):
        g, planted = random_threshold_modulator_instance(10 + s * 11 % 111, 1 + s % 3, s)
        cases += [(g, xs) for xs in (planted.vertices, planted.vertices[1:], ())]
        g = random_threshold(1 + s * 2, s, connected=False)[0]
        cases.append((g, tuple(v for v in range(g.n) if rng.random() < 0.3)))
    found = 0
    for g, xs in cases:
        comps = residual_components(g, Modulator(xs, "threshold"))
        if comps is None:
            rest = [v for v in range(g.n) if v not in xs]
            assert not is_threshold(induced_subgraph(g, rest)[0])[0]
            continue
        found += 1
        assert comps == sorted(tuple(sorted(c)) for c in components_avoiding(g, set(xs)))
    assert found >= 120  # every planted X and every disconnected case


@pytest.mark.parametrize("residual_class", ["cluster", "threshold"])
@pytest.mark.parametrize("bad", [-1, 4, 9])
def test_modulator_vertex_out_of_range_refused(residual_class, bad):
    m = Modulator((1, bad), residual_class)
    for call in (residual_components, validate_modulator):
        with pytest.raises(ValueError, match=f"modulator vertex {bad} not in graph"):
            call(P4, m)


def test_obstruction_finders_match_brute_force():
    # every labeled graph on up to 5 vertices and every removed set: a
    # class check returns an obstruction, and then no certificate,
    # exactly when G-removed is not in its class, and the obstruction is
    # an induced P3 (cluster) or 2K2/P4/C4 (threshold) of vertices that
    # are still there
    shapes = {3: ([1, 1, 2],), 4: ([1, 1, 1, 1], [1, 1, 2, 2], [2, 2, 2, 2])}
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            g = Graph(n, edges)
            for size in range(n + 1):
                for x in itertools.combinations(range(n), size):
                    for check, residual_class in ((_cluster_check, "cluster"),
                                                  (_threshold_check, "threshold")):
                        certificate, found = check(g, set(x))
                        assert (certificate is None) == (found is not None)
                        in_class = _brute_residual(n, edges, x, residual_class) is not None
                        assert (found is None) == in_class, (n, edges, x, residual_class)
                        if found is None:
                            continue
                        assert len(found) == (3 if residual_class == "cluster" else 4)
                        assert len(set(found)) == len(found) and not set(found) & set(x)
                        degrees = sorted(sum(g.has_edge(u, v) for v in found if v != u)
                                         for u in found)
                        assert degrees in shapes[len(found)], (n, edges, x, found)


def test_modulators_pinned():
    # sha256 over both modulators at budget 6, as computed by the
    # exhaustive branching that preceded the deepening search
    h = hashlib.sha256()
    for g in modulator_pin_graphs():
        h.update(repr((cluster_modulator(g, 6), threshold_modulator(g, 6))).encode())
    assert h.hexdigest() == "7d503d86a366ce87b25c6201095cf69680346d882b8643a6c63a1af0442cb3a2"


def test_threshold_modulator_at_n40():
    # the exhaustive branching took minutes here; the planted pair is the
    # lexicographically smallest minimum modulator
    g, planted = random_threshold_modulator_instance(40, 2, 1)
    assert planted.vertices == (38, 39)
    assert threshold_modulator(g, 6) == Modulator((38, 39), "threshold")


def _recognize_pin_graphs():
    yield from labeled_graphs(5)
    for n in (10, 40, 120, 300):
        for s in range(4):
            yield random_threshold(n, s)[0]
            yield random_threshold(n, s, connected=False)[0]
            yield random_cluster(n, s)[0]
            yield random_split(n, s)[0]
            yield random_graph(n, 0.3, s)
            yield random_graph(n, 1.5 / n, s)


def test_recognize_pinned():
    # sha256 over the sorted labels and the certificates the recognizers
    # return, on every labeled graph with at most 5 vertices and on
    # seeded threshold, cluster, split and G(n, p) graphs up to 300
    # vertices, as computed when each class had its own recognizer
    # beside the modulator search's obstruction finders
    h = hashlib.sha256()
    for g in _recognize_pin_graphs():
        found = {name: recognizer(g) for name, recognizer in RECOGNIZERS.items()}
        split = found["split"][1]
        h.update(repr((sorted(name for name, (ok, _) in found.items() if ok), found["cluster"][1],
                       split and (split.clique, split.independent),
                       found["bipartite"][1], found["threshold"][1])).encode())
    assert h.hexdigest() == "5276e333b37cd315b764a988ab82e9fa3e717115c9a33b214a9ced31a2335abe"


def test_recognize_report_bundles_certificates():
    found = {name: recognizer(STAR3) for name, recognizer in RECOGNIZERS.items()}
    assert found["threshold"][0] and found["split"][0]
    assert found["split"][1] is not None
    assert found["threshold"][1] is not None
    tree = found["cograph"][1]
    assert tree is not None and not has_prime_node(tree)
    assert found["bipartite"][1] is not None
    assert found["cluster"][1] is None  # a star is not a cluster graph
