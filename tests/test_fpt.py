"""Kernelization for cluster modulators and threshold-modulator approximation."""

import hashlib
import re

import pytest

from cfcolor import graph
from cfcolor.graph import Graph
from cfcolor.coloring import VARIANT_CN, VARIANT_ON, SelfCheckError, verify
from cfcolor.graphclasses import (
    Modulator,
    cluster_modulator,
    residual_components,
    threshold_modulator,
)
from cfcolor.oracle import decide_cf, exact_cf
from cfcolor.fpt import (
    _component_universal,
    _type_masks,
    approx_cfcn_threshold,
    approx_cfon_threshold,
    compute_types,
    kernel_size_bound,
    kernelize,
    provenance,
    rule1_cap,
    solve_via_kernel,
)
from cfcolor.generators import (
    enumerate_small,
    random_cluster_modulator_instance,
    random_threshold_modulator_instance,
)

K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
K11 = Graph(11, [(u, v) for u in range(11) for v in range(u + 1, 11)])
STAR6 = Graph(6, [(0, i) for i in range(1, 6)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])


# --- type partitions -------------------------------------------------------

def test_types_split_by_modulator_adjacency():
    # clique {0,1} with only 0 adjacent to the modulator vertex 2
    g = Graph(3, [(0, 1), (0, 2)])
    (ct,) = compute_types(g, Modulator((2,), "cluster"))
    assert ct.clique == (0, 1)
    assert ct.types == ((0, (1,)), (1, (0,)))
    assert ct.vector() == ((0, 1), (1, 1))


def test_types_with_empty_modulator():
    (ct,) = compute_types(K3, Modulator((), "cluster"))
    assert ct.types == ((0, (0, 1, 2)),)
    assert ct.vector(cap=2) == ((0, 2),)


def test_types_singleton_clique_two_modulator_vertices():
    g = Graph(3, [(0, 1), (0, 2)])
    (ct,) = compute_types(g, Modulator((1, 2), "cluster"))
    assert ct.clique == (0,) and ct.types == ((3, (0,)),)


def test_types_partition_residual_exactly():
    for n in range(1, 7):
        for g in enumerate_small(n):
            m = cluster_modulator(g, 2)
            if m is None:
                continue
            seen = [
                v for ct in compute_types(g, m) for _, vs in ct.types for v in vs
            ]
            assert sorted(seen) == [v for v in range(g.n) if v not in m.vertices]


# --- reduction rules -------------------------------------------------------

def test_rule1_caps():
    assert rule1_cap(2, VARIANT_CN) == 3
    assert rule1_cap(2, VARIANT_ON) == 5


def test_twin_rule_on_complete_graph():
    # one clique, one modulator vertex: all ten residual vertices share a
    # type, so the closed variant keeps k+1 = 3 of them
    inst = kernelize(K11, Modulator((10,), "cluster"), 2, VARIANT_CN)
    assert inst.kept == (0, 1, 2, 10)
    assert inst.graph.n == 4 and inst.graph.m == 6
    assert inst.x == (3,)
    assert inst.deleted_vertices == tuple((v, 0, 1) for v in range(3, 10))
    assert inst.deleted_cliques == ()
    inst_on = kernelize(K11, Modulator((10,), "cluster"), 2, VARIANT_ON)
    assert inst_on.graph.n == 6  # open cap is 2k+1 = 5

def test_clique_rule_on_star():
    # five singleton leaf cliques of identical type: d+1 = 2 survive
    inst = kernelize(STAR6, Modulator((0,), "cluster"), 2, VARIANT_CN)
    assert inst.kept == (0, 1, 2)
    assert inst.deleted_cliques == ((3, 1), (4, 1), (5, 1))
    assert inst.cliques_after_rule1 == ((1,), (2,), (3,), (4,), (5,))
    assert dict(inst.tau)[1] == ((1, 1),)


def test_provenance_lines():
    inst = kernelize(STAR6, Modulator((0,), "cluster"), 2, VARIANT_CN)
    lines = provenance(inst)
    assert lines == ["dc 3 1", "dc 4 1", "dc 5 1"]
    inst2 = kernelize(K11, Modulator((10,), "cluster"), 2, VARIANT_CN)
    assert all(re.fullmatch(r"dv \d+ \d+ \d+", l) for l in provenance(inst2))


def test_reduce_is_deterministic():
    a = kernelize(K11, Modulator((10,), "cluster"), 2, VARIANT_CN)
    b = kernelize(K11, Modulator((10,), "cluster"), 2, VARIANT_CN)
    assert a == b


def test_short_circuit_above_threshold():
    inst = kernelize(K3, Modulator((), "cluster"), 2, VARIANT_CN)  # k >= d+2
    assert inst.short_circuit is not None
    assert inst.graph.n == 0 and provenance(inst) == []
    dec = solve_via_kernel(K3, Modulator((), "cluster"), 2, VARIANT_CN)
    assert dec.yes and dec.witness.colors == (0, 1, 1)


def test_short_circuit_checks_the_modulator_once(monkeypatch):
    # the short circuit builds its coloring from the cliques the modulator
    # check returned, and computes no types it would not read
    import cfcolor.fpt as fpt
    import cfcolor.polysolve as polysolve

    calls = []
    check = polysolve.residual_components
    monkeypatch.setattr(polysolve, "residual_components",
                        lambda g, m: calls.append(m) or check(g, m))
    monkeypatch.setattr(fpt, "_types", None)
    for variant in (VARIANT_CN, VARIANT_ON):
        calls.clear()
        inst = kernelize(STAR6, Modulator((0,), "cluster"), 4, variant)
        assert inst.short_circuit is not None and len(calls) == 1


def test_open_short_circuit_guard():
    # k = 2d+2 = 2 does not cover the lone-clique repair, which needs 3
    assert kernelize(K3, Modulator((), "cluster"), 2, VARIANT_ON).short_circuit is None
    dec = solve_via_kernel(K3, Modulator((), "cluster"), 2, VARIANT_ON)
    assert not dec.yes
    dec3 = solve_via_kernel(K3, Modulator((), "cluster"), 3, VARIANT_ON)
    assert dec3.yes and dec3.witness.colors == (1, 2, 0)
    assert "constructive witness" in dec3.note


def test_reduce_errors():
    with pytest.raises(ValueError, match="k >= 1"):
        kernelize(K3, Modulator((), "cluster"), 0, VARIANT_CN)
    with pytest.raises(ValueError, match="cluster"):
        kernelize(P4, Modulator((), "cluster"), 1, VARIANT_CN)
    with pytest.raises(ValueError, match="isolated"):
        kernelize(Graph(2, []), Modulator((), "cluster"), 1, VARIANT_ON)
    with pytest.raises(ValueError, match="empty graph"):
        kernelize(Graph(0), Modulator((), "cluster"), 1, VARIANT_CN)


# --- kernel decisions ------------------------------------------------------

def test_decision_k11_frozen():
    dec = solve_via_kernel(K11, Modulator((10,), "cluster"), 2, VARIANT_CN)
    assert dec.yes
    assert dec.witness.colors == (0,) * 10 + (1,)
    assert not solve_via_kernel(K11, Modulator((10,), "cluster"), 2, VARIANT_ON).yes


def test_decision_star_frozen():
    dec = solve_via_kernel(STAR6, Modulator((0,), "cluster"), 2, VARIANT_CN)
    assert dec.yes and dec.witness.colors == (0, 1, 1, 1, 1, 1)
    assert verify(dec.witness, VARIANT_CN)


def test_kernel_matches_oracle_exhaustive():
    checked = 0
    for n in range(1, 7):
        for g in enumerate_small(n):
            m = cluster_modulator(g, 3)
            if m is None:
                continue
            d = len(m.vertices)
            iso = any(g.degree(v) == 0 for v in range(g.n))
            for variant, kmax in ((VARIANT_CN, d + 3), (VARIANT_ON, 2 * d + 3)):
                if variant == VARIANT_ON and iso:
                    continue
                for k in range(1, kmax + 1):
                    dec = solve_via_kernel(g, m, k, variant)
                    assert dec.yes == decide_cf(g, variant, k)[0]
                    if dec.yes:
                        assert verify(dec.witness, variant)
                        assert len(set(dec.witness.colors)) <= k
                    assert dec.kernel.graph.n <= kernel_size_bound(d, k, variant)
                    checked += 1
    assert checked > 1000


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_matches_oracle_random(d):
    for seed in range(12):
        n = 8 + seed % 5
        g, m = random_cluster_modulator_instance(n, d, seed)
        for variant, kmax in ((VARIANT_CN, d + 2), (VARIANT_ON, 2 * d + 2)):
            for k in range(1, kmax + 1):
                dec = solve_via_kernel(g, m, k, variant, limit=None)
                assert dec.yes == decide_cf(g, variant, k, limit=None)[0]


# --- threshold-modulator approximation -------------------------------------

def test_approx_frozen_path():
    m = Modulator((1,), "threshold")
    cn = approx_cfcn_threshold(P4, m)
    assert cn.coloring.colors == (0, 1, 2, 0)
    assert cn.note == "core optimum 2"
    on = approx_cfon_threshold(P4, m)
    assert on.coloring.colors == (0, 0, 2, 3)


def test_approx_modulator_free():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    m0 = Modulator((), "threshold")
    cn = approx_cfcn_threshold(star, m0)
    assert cn.coloring.colors == (1, 0, 0, 0) and cn.optimality == "exact"
    on = approx_cfon_threshold(star, m0)
    assert on.coloring.colors == (1, 2, 0, 0)
    assert approx_cfcn_threshold(Graph(3, []), m0).colors_used == 1
    assert approx_cfon_threshold(Graph(2, [(0, 1)]), m0).coloring.colors == (1, 2)


def test_approx_caps_interchangeable_vertices():
    # five leaves share the center's adjacency class; past the cap of
    # k+1 = 3 the rest copy a color that already occurs twice
    m = Modulator((0,), "threshold")
    cn = approx_cfcn_threshold(STAR6, m)
    assert cn.coloring.colors == (0, 1, 1, 1, 1, 1) and cn.note == "core optimum 2"
    on = approx_cfon_threshold(STAR6, m)
    assert on.coloring.colors == (0, 0, 0, 1, 0, 0) and on.note == "core optimum 2"


def test_approx_errors():
    with pytest.raises(ValueError, match="threshold"):
        approx_cfcn_threshold(P4, Modulator((), "threshold"))  # P4 is not threshold
    with pytest.raises(ValueError, match="isolated"):
        approx_cfon_threshold(Graph(3, [(0, 1)]), Modulator((), "threshold"))


def test_approx_core_without_witness_raises(monkeypatch):
    # an explicit check, so it also holds under `python -O`
    import cfcolor.fpt as fpt

    monkeypatch.setattr(fpt, "find_unique_coloring", lambda n, sets, k: None)
    g, m = random_threshold_modulator_instance(12, 1, 3)
    for approx in (approx_cfcn_threshold, approx_cfon_threshold):
        with pytest.raises(SelfCheckError, match="the core has no coloring"):
            approx(g, m)


def test_approx_two_residual_edges_raise(monkeypatch):
    # X = {0} joined to two disjoint edges: G-X is 2K2, not threshold.
    # A modulator check that let it through must not yield a coloring
    import cfcolor.fpt as fpt

    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
    monkeypatch.setattr(fpt, "_check_modulator",
                        lambda g, m, expected: ((0,), [(1, 2), (3, 4)]))
    for approx in (approx_cfcn_threshold, approx_cfon_threshold):
        with pytest.raises(SelfCheckError, match="2 components with an edge"):
            approx(g, Modulator((0,), "threshold"))


def _per_vertex_mask(g, x_index, v):
    # the mask as computed before `_type_masks`, from v's side
    return sum(1 << x_index[u] for u in g.neighbors(v) if u in x_index)


def test_type_masks_match_per_vertex_mask():
    for s in range(40):
        for g, m in (random_cluster_modulator_instance(8 + s % 17, s % 4, s),
                     random_threshold_modulator_instance(10 + s % 30, s % 3, s)):
            x = tuple(sorted(m.vertices))
            x_index = {xv: i for i, xv in enumerate(x)}
            assert _type_masks(g, x) == [_per_vertex_mask(g, x_index, v) for v in range(g.n)]


def test_residual_split_builds_no_graph(monkeypatch):
    # the split of G-X and the search for a component's universal member
    # work on vertex sets of the input graph and build no Graph
    cases = [make(n, d, s)
             for s, (n, d) in enumerate([(12, 1), (20, 2), (30, 3), (60, 2)])
             for make in (random_cluster_modulator_instance,
                          random_threshold_modulator_instance)]

    def refuse(*args, **kwargs):
        raise AssertionError("a Graph was built")

    monkeypatch.setattr(graph, "induced_subgraph", refuse)
    monkeypatch.setattr(Graph, "__init__", refuse)
    for g, m in cases:
        comps = residual_components(g, m)
        assert comps is not None
        mask = _type_masks(g, tuple(sorted(m.vertices)))
        for comp in comps:
            u = _component_universal(g, comp, mask)
            assert all(g.has_edge(u, v) for v in comp if v != u)


def test_approx_bounds_exhaustive():
    for n in range(1, 7):
        for g in enumerate_small(n):
            m = threshold_modulator(g, 2)
            if m is None:
                continue
            iso = any(g.degree(v) == 0 for v in range(g.n))
            for variant, fn, slack in (
                (VARIANT_CN, approx_cfcn_threshold, 1),
                (VARIANT_ON, approx_cfon_threshold, 2),
            ):
                if variant == VARIANT_ON and iso:
                    continue
                out = fn(g, m)  # self-verifies validity
                assert out.colors_used <= exact_cf(g, variant).chromatic + slack


@pytest.mark.parametrize("d", [0, 1, 2])
def test_approx_bounds_random(d):
    for seed in range(20):
        n = 7 + seed % 6
        g, m = random_threshold_modulator_instance(n, d, seed)
        cn = approx_cfcn_threshold(g, m)
        assert cn.colors_used <= exact_cf(g, VARIANT_CN, limit=None).chromatic + 1
        if not any(g.degree(v) == 0 for v in range(g.n)):
            on = approx_cfon_threshold(g, m)
            assert on.colors_used <= exact_cf(g, VARIANT_ON, limit=None).chromatic + 2


# --- pinned outputs --------------------------------------------------------

def test_kernel_and_approx_outputs_pinned():
    # sha256 over repr of every kernel decision (answer, witness, note, the
    # kernel's size, kept/x/deletion records, tau and provenance) or its
    # ValueError message on 60 planted cluster-modulator instances, all k up
    # to the constructive threshold, then of both approximations on 60
    # planted threshold-modulator instances: any change to an output shows
    h = hashlib.sha256()
    for s in range(60):
        g, m = random_cluster_modulator_instance(8 + s % 9, 1 + s % 3, s)
        d = len(m.vertices)
        for variant, top in ((VARIANT_CN, d + 2), (VARIANT_ON, 2 * d + 2)):
            for k in range(1, top + 1):
                try:
                    dec = solve_via_kernel(g, m, k, variant, limit=None)
                except ValueError as exc:
                    h.update(repr(str(exc)).encode())
                    continue
                inst = dec.kernel
                h.update(repr((
                    dec.yes, dec.witness.colors if dec.witness else None, dec.note,
                    inst.graph.n, inst.kept, inst.x, inst.deleted_vertices,
                    inst.deleted_cliques, inst.cliques_after_rule1, inst.tau,
                    provenance(inst),
                )).encode())
    for s in range(60):
        g, m = random_threshold_modulator_instance(10 + s % 30, 1 + s % 2, s)
        for approx in (approx_cfcn_threshold, approx_cfon_threshold):
            try:
                out = approx(g, m)
            except ValueError as exc:
                h.update(repr(str(exc)).encode())
                continue
            h.update(repr((out.coloring.colors, out.optimality, out.note)).encode())
    assert h.hexdigest() == "9b372fe3be6169d91e340ee60d7b993fba394f2a760f67413ddcc5a7ed7d525d"
