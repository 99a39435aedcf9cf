"""Verifier semantics: unique colors, CF-CN / CF-ON verdicts, file I/O.

`counting_verify_cfcn` and `counting_verify_cfon` are the verifiers that
the singleton-first ones replaced: they count the colors around every
vertex in id order.  Both versions must return the same verdict, failing
vertex and reason.
"""

import itertools
import random
from typing import Iterable

import pytest
from hypothesis import given, settings, strategies as st

import cfcolor.coloring as coloring_module
from cfcolor.coloring import (
    Coloring,
    VerifyResult,
    has_unique_color,
    parse_coloring,
    verify,
    verify_cfcn,
    verify_cfon,
    write_coloring,
)
from cfcolor.fpt import _threshold_base
from cfcolor.generators import random_graph, random_split, random_threshold
from cfcolor.graph import Graph, GraphFormatError
from cfcolor.polysolve import solve_split_cfcn
from strategies import colored_graphs, graphs, labeled_graphs, record_texts

P3 = Graph(3, [(0, 1), (1, 2)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K2 = Graph(2, [(0, 1)])


def test_unique_color_smallest():
    c = Coloring(P3, (0, 1, 1))
    assert has_unique_color(c, [0, 1, 2]) == 0
    assert has_unique_color(c, [1, 2]) is None
    assert has_unique_color(c, []) is None
    # two unique colors present: report the smallest
    c2 = Coloring(P3, (2, 1, 1))
    assert has_unique_color(c2, [0, 1]) == 1


def test_cfcn_accepts_p3_010():
    assert verify_cfcn(Coloring(P3, (0, 1, 0))).ok


def test_cfcn_rejects_all_same_on_edge():
    res = verify_cfcn(Coloring(K2, (0, 0)))
    assert not res.ok
    assert res.failing_vertex == 0


def test_cfon_accepts_c4_0011():
    assert verify_cfon(Coloring(C4, (0, 0, 1, 1))).ok


def test_cfon_rejects_isolated_vertex():
    g = Graph(3, [(0, 1)])
    res = verify_cfon(Coloring(g, (0, 1, 2)))
    assert not res.ok
    assert res.failing_vertex == 2
    # CF-CN is fine with the isolated vertex
    assert verify_cfcn(Coloring(g, (0, 1, 0))).ok


def test_cfon_rejects_p3_010():
    # center sees two identical leaf colors
    res = verify_cfon(Coloring(P3, (0, 1, 0)))
    assert not res.ok
    assert res.failing_vertex == 1


def test_first_failing_vertex_is_smallest():
    g = Graph(4, [(0, 1), (2, 3)])
    res = verify_cfcn(Coloring(g, (5, 5, 5, 5)))
    assert res.failing_vertex == 0


def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring(K2, (0,))
    with pytest.raises(ValueError):
        Coloring(K2, (0, -1))


def test_round_trip():
    c = Coloring(P3, (0, 1, 0))
    assert parse_coloring(write_coloring(c), P3) == c


def test_parse_coloring_errors():
    with pytest.raises(GraphFormatError, match="twice"):
        parse_coloring("v 0 1\nv 0 2\nv 1 0\nv 2 0\n", P3)
    with pytest.raises(GraphFormatError, match="without a color"):
        parse_coloring("v 0 1\n", P3)
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_coloring("v 9 1\n", P3)
    with pytest.raises(GraphFormatError, match="malformed"):
        parse_coloring("v 0\n", P3)


@settings(max_examples=300, deadline=None)
@given(graphs(min_n=1, max_n=4), record_texts("v", 1))
def test_parse_coloring_total(g, text):
    # every text yields a coloring or a format error, nothing else
    try:
        c = parse_coloring(text, g)
    except GraphFormatError:
        return
    assert c.graph is g and len(c.colors) == g.n and min(c.colors) >= 0


@given(colored_graphs(max_n=7))
def test_verdict_invariant_under_color_permutation(gc):
    g, colors = gc
    rng = random.Random(7)
    palette = sorted(set(colors))
    image = list(range(len(palette)))
    rng.shuffle(image)
    perm = {c: image[i] for i, c in enumerate(palette)}
    permuted = tuple(perm[c] for c in colors)
    for variant in ("cn", "on"):
        assert verify(Coloring(g, colors), variant).ok == verify(
            Coloring(g, permuted), variant
        ).ok


@given(colored_graphs(max_n=7))
def test_verdict_invariant_under_relabeling(gc):
    g, colors = gc
    rng = random.Random(11)
    sigma = list(range(g.n))
    rng.shuffle(sigma)
    relabeled = Graph(g.n, [(sigma[u], sigma[v]) for u, v in g.edges])
    new_colors = [0] * g.n
    for v in range(g.n):
        new_colors[sigma[v]] = colors[v]
    for variant in ("cn", "on"):
        assert verify(Coloring(g, colors), variant).ok == verify(
            Coloring(relabeled, tuple(new_colors)), variant
        ).ok


# --- the per-vertex counting verifiers, kept as references ------------------


def counting_unique_colors(
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


def counting_verify_cfcn(coloring: Coloring) -> VerifyResult:
    """Accept iff every closed neighborhood has a uniquely occurring color."""
    g, colors = coloring.graph, coloring.colors
    for v in range(g.n):
        if not counting_unique_colors(colors, g.neighbors(v), v):
            return VerifyResult(False, v, f"no unique color in N[{v}]")
    return VerifyResult(True)


def counting_verify_cfon(coloring: Coloring) -> VerifyResult:
    """Accept iff every open neighborhood has a uniquely occurring color.

    An isolated vertex is rejected outright: its open neighborhood is
    empty and cannot contain a unique color.
    """
    g, colors = coloring.graph, coloring.colors
    for v in range(g.n):
        nb = g.neighbors(v)
        if not nb:
            return VerifyResult(False, v, f"vertex {v} is isolated, N({v}) is empty")
        if not counting_unique_colors(colors, nb):
            return VerifyResult(False, v, f"no unique color in N({v})")
    return VerifyResult(True)


def _same_verdicts(g, colors):
    c = Coloring(g, tuple(colors))
    for new, old in ((verify_cfcn, counting_verify_cfcn), (verify_cfon, counting_verify_cfon)):
        a, b = new(c), old(c)
        assert (a.ok, a.failing_vertex, a.reason) == (b.ok, b.failing_vertex, b.reason)


def test_verifiers_match_counting_exhaustive():
    # every labeled graph on at most 4 vertices under every coloring
    # from 0..3: 16 384 colorings on 4 vertices alone
    _same_verdicts(Graph(0), ())
    for g in labeled_graphs(4):
        for colors in itertools.product(range(4), repeat=g.n):
            _same_verdicts(g, colors)


@st.composite
def verifier_inputs(draw):
    """Graphs on up to 14 vertices, some of them cut loose into isolated
    vertices, colored from a palette of random size, with some vertices
    given a color of their own."""
    g = draw(graphs(min_n=1, max_n=14))
    cut = draw(st.sets(st.integers(0, g.n - 1), max_size=3))
    g = Graph(g.n, [e for e in g.edges if not cut.intersection(e)])
    top = draw(st.integers(0, g.n))
    colors = draw(st.lists(st.integers(0, top), min_size=g.n, max_size=g.n))
    for v in draw(st.sets(st.integers(0, g.n - 1))):
        colors[v] = top + 1 + v
    return g, colors


@given(verifier_inputs())
def test_verifiers_match_counting(gc):
    _same_verdicts(*gc)


def test_proper_coloring_skips_count(monkeypatch):
    # under cn a vertex whose color no neighbour shares is served by its
    # own color: a proper coloring is accepted without a count
    def refuse(*args):
        raise AssertionError("a neighbourhood was counted")

    monkeypatch.setattr(coloring_module, "_unique_colors", refuse)
    grid = Graph(12, [(v, v + 1) for v in range(12) if v % 4 != 3]
                 + [(v, v + 4) for v in range(8)])
    assert verify_cfcn(Coloring(grid, tuple((v // 4 + v % 4) % 2 for v in range(12))))
    for s in range(40):
        g = random_graph(3 + s % 12, 0.5, s)
        colors = [0] * g.n
        for v in range(g.n):  # greedy: the smallest color no earlier neighbour has
            taken = {colors[u] for u in g.neighbors(v) if u < v}
            colors[v] = min(set(range(g.n)) - taken)
        assert verify_cfcn(Coloring(g, tuple(colors)))


def test_singleton_served_skips_count(monkeypatch):
    # every vertex lies in N[u] (closed) or N(u) (open) of a vertex u
    # whose color is used once, so no neighbourhood is counted
    def refuse(*args):
        raise AssertionError("a neighbourhood was counted")

    monkeypatch.setattr(coloring_module, "_unique_colors", refuse)
    split = 0
    for s in range(40):
        g, p = random_split(4 + s % 9, s)
        if any(g.degree(v) == g.n - 1 for v in range(g.n)) and g.m:
            assert verify_cfcn(solve_split_cfcn(g, p).coloring)
            split += 1
        g, _ = random_threshold(2 + s % 12, s)  # connected: a universal vertex
        for variant in ("cn", "on"):
            out = _threshold_base(g, variant)
            assert verify(Coloring(g, out.coloring.colors), variant)
    assert split == 18
