"""Graph core: construction, neighborhoods, components, file round-trips."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cfcolor import graph as graph_module
from cfcolor.graph import (
    MAX_VERTICES,
    Graph,
    GraphFormatError,
    complement,
    connected_components,
    induced_subgraph,
    is_connected,
    parse_graph,
    write_graph,
)
from strategies import graph_texts, graphs, labeled_graphs

K2_TEXT = "p cf 2 1\ne 0 1\n"


def test_parse_k2():
    g = parse_graph(K2_TEXT)
    assert g.n == 2 and g.m == 1
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_parse_comments_and_blank_lines():
    g = parse_graph("c a triangle\n\np cf 3 3\ne 0 1\ne 1 2\ne 0 2\n")
    assert g.n == 3 and g.m == 3


def test_duplicate_edge_lines_collapse():
    g = parse_graph("p cf 3 3\ne 0 1\ne 1 0\ne 1 2\n")
    assert g.m == 2
    assert g.edges == ((0, 1), (1, 2))


def test_parse_errors_name_line_numbers():
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph("p cf x 0\n")
    with pytest.raises(GraphFormatError, match="line 2.*self-loop"):
        parse_graph("p cf 2 1\ne 1 1\n")
    with pytest.raises(GraphFormatError, match="line 2.*out of range"):
        parse_graph("p cf 2 1\ne 0 5\n")
    with pytest.raises(GraphFormatError, match="missing"):
        parse_graph("c nothing here\n")
    with pytest.raises(GraphFormatError, match="declares 2 edges"):
        parse_graph("p cf 3 2\ne 0 1\n")


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])


def test_neighborhoods_sorted():
    g = Graph(4, [(2, 0), (3, 0), (0, 1)])
    assert g.neighbors(0) == (1, 2, 3)
    assert g.closed_neighbors(0) == (0, 1, 2, 3)
    assert g.closed_neighbors(2) == (0, 2)
    assert g.degree(0) == 3 and g.degree(1) == 1


def test_components_ordered_by_smallest_member():
    g = Graph(6, [(4, 5), (0, 2)])
    assert connected_components(g) == [(0, 2), (1,), (3,), (4, 5)]
    assert not is_connected(g)
    assert is_connected(Graph(1))


def test_induced_subgraph_relabels_in_order():
    g = Graph(5, [(0, 1), (1, 3), (3, 4), (0, 4)])
    sub, relabel = induced_subgraph(g, [4, 1, 3])
    assert relabel == {1: 0, 3: 1, 4: 2}
    assert sub.n == 3
    assert sub.edges == ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        induced_subgraph(g, [7])


def _same_graph(got, want):
    assert got == want and hash(got) == hash(want)
    assert got.edges == want.edges
    assert all(got.neighbors(v) == want.neighbors(v) for v in range(want.n))


def _public_induced(g, vertices):
    """The induced subgraph built through the checking constructor."""
    relabel = {v: i for i, v in enumerate(sorted(vertices))}
    return Graph(len(relabel), [(relabel[u], relabel[v]) for u, v in g.edges
                                if u in relabel and v in relabel])


def test_induced_subgraph_equals_checked_construction():
    # every labeled graph on up to 5 vertices and every vertex subset,
    # the empty one included
    for g in labeled_graphs(5):
        for size in range(g.n + 1):
            for vs in itertools.combinations(range(g.n), size):
                _same_graph(induced_subgraph(g, vs)[0], _public_induced(g, vs))


@given(graphs(max_n=30), st.data())
def test_induced_subgraph_equals_checked_construction_random(g, data):
    vs = data.draw(st.sets(st.integers(0, g.n - 1)))
    _same_graph(induced_subgraph(g, vs)[0], _public_induced(g, vs))


@given(graphs(max_n=12), st.data())
def test_parse_equals_checked_construction(g, data):
    # edge lines in any order and orientation, some repeated
    lines = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in g.edges]
    lines += data.draw(st.lists(st.sampled_from(lines), max_size=3)) if lines else []
    lines = data.draw(st.permutations(lines))
    text = f"p cf {g.n} {len(lines)}\n" + "".join(f"e {u} {v}\n" for u, v in lines)
    _same_graph(parse_graph(text), g)


@settings(max_examples=400)
@given(graph_texts())
def test_parse_matches_line_reader(text):
    # the bulk reader for canonical text gives the line reader's graph,
    # or defers to it for the error
    try:
        want = graph_module._parse_lines(text)
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError) as got:
            parse_graph(text)
        assert str(got.value) == str(exc) and got.value.line == exc.line
    else:
        _same_graph(parse_graph(text), want)


def test_header_at_vertex_limit_parses_in_bounded_memory(tmp_path):
    # both readers take a header-only file at the limit in a process
    # whose address space is capped at 400 MB
    path = tmp_path / "limit.cf"
    path.write_text(f"p cf {MAX_VERTICES} 0\n")
    script = (
        "import pathlib, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "from cfcolor.graph import _parse_lines, parse_graph\n"
        "text = pathlib.Path(sys.argv[1]).read_text()\n"
        "assert parse_graph(text).n == _parse_lines(text).n == int(sys.argv[2])\n"
    )
    src = Path(graph_module.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script, str(path), str(MAX_VERTICES)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr


def test_line_reader_keeps_large_header_small(tmp_path):
    # a comment routes a header-only file at the limit to the line
    # reader, which must not hold a container per declared vertex.  The
    # peak is the child's VmHWM: on Linux a child's ru_maxrss starts at
    # its parent's high-water mark, which is the test runner's own
    path = tmp_path / "limit.cf"
    path.write_text(f"c x\np cf {MAX_VERTICES} 0\n")
    script = (
        "import pathlib, sys\n"
        "from cfcolor.graph import parse_graph\n"
        "assert parse_graph(pathlib.Path(sys.argv[1]).read_text()).n == int(sys.argv[2])\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')\n"
        "           if line.startswith('VmHWM:')))\n"
    )
    src = Path(graph_module.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script, str(path), str(MAX_VERTICES)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 150 * 1024  # kB


@pytest.mark.parametrize("edges", ["", "e 0 1\n"])
def test_bulk_reader_keeps_large_header_small(tmp_path, edges):
    # canonical text at the limit goes to the bulk reader, which gives a
    # list only to ids up to the largest edge endpoint.  The peak is the
    # child's VmHWM: on Linux a child's ru_maxrss starts at its parent's
    # high-water mark, which is the test runner's own
    path = tmp_path / "limit.cf"
    path.write_text(f"p cf {MAX_VERTICES} {edges.count('e')}\n{edges}")
    script = (
        "import pathlib, sys\n"
        "from cfcolor import graph\n"
        "def refuse(text): raise AssertionError('canonical text reached the line reader')\n"
        "graph._parse_lines = refuse\n"
        "assert graph.parse_graph(pathlib.Path(sys.argv[1]).read_text()).n == int(sys.argv[2])\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')\n"
        "           if line.startswith('VmHWM:')))\n"
    )
    src = Path(graph_module.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script, str(path), str(MAX_VERTICES)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    # a list per declared vertex peaks near 90 MB, a shared () near 30 MB
    assert int(proc.stdout) < 60 * 1024  # kB


def test_canonical_text_skips_line_reader(monkeypatch):
    def refuse(text):
        raise AssertionError("canonical text reached the line reader")

    monkeypatch.setattr(graph_module, "_parse_lines", refuse)
    for g in labeled_graphs(4):
        _same_graph(parse_graph(write_graph(g)), g)
    _same_graph(parse_graph("p cf 0 0\n"), Graph(0))


def test_graph_invariants_match_pair_set():
    # every labeled graph on up to 5 vertices against its brute-force pair set
    for n in range(6):
        all_pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(all_pairs)):
            pairs = [p for i, p in enumerate(all_pairs) if mask >> i & 1]
            g = Graph(n, pairs)
            ids = range(-2, n + 2)
            for u, v in itertools.product(ids, ids):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in pairs)
            assert g.m == len(pairs) and g.edges == tuple(pairs)
            for edges in (g.edges, [(v, u) for u, v in reversed(pairs)]):
                same = Graph(n, edges)
                assert same == g and hash(same) == hash(g)
            assert g != Graph(n + 1, pairs)


def test_complement_of_path():
    g = Graph(3, [(0, 1), (1, 2)])
    assert complement(g).edges == ((0, 2),)


def test_write_is_canonical():
    g = Graph(3, [(1, 2), (0, 1)])
    assert write_graph(g) == "p cf 3 2\ne 0 1\ne 1 2\n"


@given(graphs(max_n=8))
def test_round_trip_fixpoint(g):
    text = write_graph(g)
    assert parse_graph(text) == g
    assert write_graph(parse_graph(text)) == text


@given(graphs(max_n=8))
def test_closed_neighborhood_size(g):
    for v in range(g.n):
        assert len(g.closed_neighbors(v)) == len(g.neighbors(v)) + 1
        assert v in g.closed_neighbors(v)
        assert v not in g.neighbors(v)
        assert g.closed_neighbors(v) == tuple(sorted((*g.neighbors(v), v)))


@given(graphs(max_n=7))
def test_complement_involution(g):
    assert complement(complement(g)) == g
