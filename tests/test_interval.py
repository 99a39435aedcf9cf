"""Interval representations: parsing, validation, and the 4-color sweeps."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfcolor.graph import Graph, GraphFormatError
from cfcolor.coloring import INFEASIBLE, verify_cfcn, verify_cfon
from cfcolor.oracle import exact_cf
from cfcolor.polysolve import UPPER_BOUND
from cfcolor.interval import (
    IntervalRepresentation,
    RepresentationVerdict,
    _integer_endpoints,
    _meets_exactly,
    cfcn_interval,
    cfon_interval,
    graph_from_representation,
    parse_intervals,
    validate_representation,
    write_intervals,
)
from cfcolor.generators import random_interval_instance

from strategies import record_texts


def rep_of(*pairs) -> IntervalRepresentation:
    return IntervalRepresentation(tuple((Fraction(l), Fraction(r)) for l, r in pairs))


P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
P4_REP = rep_of((0, 2), (1, 4), (3, 6), (5, 7))
K2 = Graph(2, [(0, 1)])
K2_REP = rep_of((0, 2), (1, 3))
K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
K3_REP = rep_of((0, 4), (1, 5), (2, 6))


# --- parsing ---------------------------------------------------------------

def test_parse_round_trip():
    text = write_intervals(P4_REP)
    assert parse_intervals(text, 4) == P4_REP


def test_parse_rationals_and_comments():
    rep = parse_intervals("c a comment\n\ni 1 7/2 9/2\ni 0 1 2\n", 2)
    assert rep.intervals[1] == (Fraction(7, 2), Fraction(9, 2))
    assert rep.intervals[0] == (Fraction(1), Fraction(2))


@pytest.mark.parametrize(
    "text,message",
    [
        ("i 0 1\n", "malformed line"),
        ("j 0 1 2\n", "malformed line"),
        ("i 0 one 2\n", "rational literal"),
        ("i 0 1/0 2\n", "rational literal"),
        ("i 0 0 1e999999999\n", "rational literal"),
        ("i 5 1 2\n", "out of range"),
        ("i 0 1 2\ni 0 3 4\n", "two intervals"),
        ("i 0 1 2\n", "without an interval"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(GraphFormatError, match=message):
        parse_intervals(text, 2)


@pytest.mark.parametrize("literal", ["0", "007", "+3", "-0", "-007", "+0", "00", "9" * 40,
                                     "1_0", "7/2", "-7/2", "1.5",
                                     "\uff13", "\u0663", "1e3", "1E3", "1/0"])
def test_parse_endpoint_is_fraction_of_literal(literal):
    # an endpoint is Fraction(literal), a literal Fraction refuses is
    # refused, and exponents are refused always
    text = f"i 0 {literal} {literal}\n"
    try:
        want = None if "e" in literal.lower() else Fraction(literal)
    except (ValueError, ZeroDivisionError):
        want = None
    if want is None:
        with pytest.raises(GraphFormatError, match="rational literal"):
            parse_intervals(text, 1)
    else:
        left, right = parse_intervals(text, 1).intervals[0]
        assert type(left) is Fraction and type(right) is Fraction
        assert left == right == want


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), record_texts("i", 2))
def test_parse_intervals_total(n, text):
    # every text yields a representation or a format error, nothing else
    try:
        rep = parse_intervals(text, n)
    except GraphFormatError:
        return
    assert rep.n == n and all(type(x) is Fraction for pair in rep.intervals for x in pair)


# --- validation ------------------------------------------------------------

def test_validate_accepts_p4():
    verdict = validate_representation(P4, P4_REP)
    assert verdict and verdict.pair is None


def test_validate_missing_intersection():
    verdict = validate_representation(K2, rep_of((0, 1), (2, 3)))
    assert not verdict
    assert verdict.pair == (0, 1)
    assert "do not intersect" in verdict.reason


def test_validate_spurious_intersection():
    verdict = validate_representation(Graph(2, []), K2_REP)
    assert not verdict and verdict.pair == (0, 1)
    assert "without an edge" in verdict.reason


def test_validate_tied_and_degenerate_endpoints():
    assert "tied endpoints" in validate_representation(K2, rep_of((0, 2), (2, 4))).reason
    assert "l >= r" in validate_representation(K2, rep_of((2, 1), (0, 3))).reason
    assert "intervals for" in validate_representation(K2, rep_of((0, 1))).reason


def test_graph_from_representation():
    assert graph_from_representation(P4_REP) == P4
    assert graph_from_representation(K3_REP) == K3


def test_generated_interval_graphs_match_the_validating_constructor():
    # the sweep's partner lists, wrapped unchecked, give the graph that
    # `Graph(n, edges)` builds from the pairwise intersections
    for n in range(1, 61):
        for seed in range(10):
            g, rep = random_interval_instance(n, seed)
            truth = _pairwise_graph(rep)
            assert g == truth, (n, seed)


def _pairwise_verdict(g, rep):
    """Reference: the O(n^2) definition, every pair in lexicographic
    order, first mismatch reported."""
    if rep.n != g.n:
        return RepresentationVerdict(False, f"{rep.n} intervals for {g.n} vertices")
    for v, (l, r) in enumerate(rep.intervals):
        if not l < r:
            return RepresentationVerdict(False, f"interval of vertex {v} has l >= r")
    endpoints = [x for pair in rep.intervals for x in pair]
    if len(set(endpoints)) != len(endpoints):
        return RepresentationVerdict(False, "tied endpoints (must be pairwise distinct)")
    truth = _pairwise_graph(rep)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            meets = truth.has_edge(u, v)
            if meets != g.has_edge(u, v):
                kind = "intersect without an edge" if meets else "share an edge but do not intersect"
                return RepresentationVerdict(False, f"vertices {u},{v} {kind}", (u, v))
    return RepresentationVerdict(True)


def _pairwise_graph(rep):
    n = rep.n
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if max(rep.intervals[u][0], rep.intervals[v][0])
                     <= min(rep.intervals[u][1], rep.intervals[v][1])])


def _perturbed(g, s):
    """g, g with one edge dropped, g with one non-edge added, and g with
    both, the pairs picked by s."""
    edges = list(g.edges)
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    drop = edges[s % len(edges)] if edges else None
    add = [non_edges[s % len(non_edges)]] if non_edges else []
    kept = [e for e in edges if e != drop]
    return g, Graph(g.n, kept), Graph(g.n, edges + add), Graph(g.n, kept + add)


def test_validate_verdicts_pinned():
    # sha256 over (ok, reason, pair) on 300 seeded representations of
    # 2..61 vertices against four graphs each (see _perturbed), as
    # computed by the pairwise check that preceded the sweep
    h = hashlib.sha256()
    for s in range(300):
        g, rep = random_interval_instance(2 + s % 60, s)
        for graph in _perturbed(g, s):
            verdict = validate_representation(graph, rep)
            h.update(repr((verdict.ok, verdict.reason, verdict.pair)).encode())
    assert h.hexdigest() == "4da35555793cc137fba79d1242a44beeff1cb0a3a2af51d446305f339b28c5ee"


def _random_rep(n, rng):
    """n intervals on 2n distinct random rationals, paired at random:
    nested, overlapping and disjoint intervals all occur."""
    points = set()
    while len(points) < 2 * n:
        points.add(Fraction(rng.randint(-50, 50), rng.randint(1, 7)))
    points = list(points)
    rng.shuffle(points)
    return IntervalRepresentation(
        tuple((min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])))


@given(st.integers(1, 30), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_sweep_matches_pairwise_reference(n, seed):
    rng = random.Random(seed)
    rep = _random_rep(n, rng)
    truth = graph_from_representation(rep)
    assert truth == _pairwise_graph(rep)
    # touching, point-like and reversed intervals too
    rough = rep_of(*((rng.randint(0, 9), rng.randint(0, 9)) for _ in range(n)))
    assert graph_from_representation(rough) == _pairwise_graph(rough)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flipped = set(rng.sample(pairs, min(len(pairs), rng.randint(1, 6))))
    noisy = Graph(n, [p for p in pairs if truth.has_edge(*p) != (p in flipped)])
    for graph in (truth, noisy, Graph(n, [p for p in pairs if rng.random() < 0.5])):
        assert validate_representation(graph, rep) == _pairwise_verdict(graph, rep)


@given(st.integers(1, 30), st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_counting_check_matches_pairwise_reference(n, seed):
    # valid representations with integer and with rational endpoints,
    # each with one endpoint moved, against the graph and the graph
    # with one edge removed or added
    rng = random.Random(seed)
    g, rep = random_interval_instance(n, seed)
    scale = Fraction(rng.randint(1, 9), rng.randint(2, 9))
    reps = [rep, IntervalRepresentation(tuple((l * scale, r * scale) for l, r in rep.intervals)),
            _random_rep(n, rng)]
    for valid in reps[:]:
        intervals = [list(pair) for pair in valid.intervals]
        intervals[rng.randrange(n)][rng.randrange(2)] += Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        reps.append(IntervalRepresentation(tuple(map(tuple, intervals))))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for rep in reps:
        truth = _pairwise_graph(rep)
        edges, non_edges = list(truth.edges), [p for p in pairs if not truth.has_edge(*p)]
        graphs = [truth, g]
        if edges:
            drop = rng.choice(edges)
            graphs.append(Graph(n, [e for e in edges if e != drop]))
        if non_edges:
            graphs.append(Graph(n, edges + [rng.choice(non_edges)]))
        for graph in graphs:
            want = _pairwise_verdict(graph, rep)
            assert validate_representation(graph, rep) == want
            if want.ok or want.pair:
                assert _meets_exactly(graph, *_integer_endpoints(rep)) == want.ok


def test_large_denominators_rank_below_2n():
    # distinct 1000-digit denominators: the endpoints' common denominator
    # would have about 200 000 digits, their ranks stay below 2n
    n = 200
    g, whole = random_interval_instance(n, 3)
    rep = IntervalRepresentation(tuple(
        (l, r + Fraction(1, 10**999 + v)) for v, (l, r) in enumerate(whole.intervals)))
    assert validate_representation(g, rep)
    left, right = _integer_endpoints(rep)
    assert all(0 <= x < 2 * n for x in left + right)
    assert cfcn_interval(g, rep).coloring.colors == cfcn_interval(g, whole).coloring.colors


# --- frozen sweep traces ---------------------------------------------------

def test_cfcn_sweep_p4():
    out = cfcn_interval(P4, P4_REP)
    assert out.coloring.colors == (1, 2, 3, 1)
    assert out.colors_used == 3 and out.optimality == UPPER_BOUND


def test_cfon_sweep_p4():
    assert cfon_interval(P4, P4_REP).coloring.colors == (1, 2, 3, 1)


def test_cfcn_sweep_k2_k3():
    assert cfcn_interval(K2, K2_REP).coloring.colors == (1, 2)
    assert cfcn_interval(K3, K3_REP).coloring.colors == (1, 0, 2)


def test_cfon_sweep_rightmost_midpath():
    # the rightmost interval is interior on the path, so the very first
    # sweep step reaches it as the dominating neighbor
    g = Graph(3, [(0, 1), (1, 2)])
    rep = rep_of((0, 2), (1, 6), (3, 5))
    assert cfon_interval(g, rep).coloring.colors == (1, 2, 0)


def test_cfon_sweep_containment():
    # star whose center interval strictly contains both leaves: the
    # containment branch colors the earliest-starting leaf 2
    g = Graph(3, [(0, 1), (0, 2)])
    rep = rep_of((0, 7), (1, 3), (4, 6))
    out = cfon_interval(g, rep)
    assert out.coloring.colors == (1, 2, 0)


def test_sweep_outputs_pinned():
    # sha256 over repr(colors) of the closed, then the open sweep on 400
    # seeded instances of 2..61 vertices: any change to a coloring shows
    h = hashlib.sha256()
    for s in range(400):
        g, rep = random_interval_instance(2 + s % 60, s)
        for sweep in (cfcn_interval, cfon_interval):
            h.update(repr(sweep(g, rep).coloring.colors).encode())
    assert h.hexdigest() == "eb319526f440a701f4030ed5805aca87b80ab661afe587ae3edafef466fe22e6"


# --- guards ----------------------------------------------------------------

def test_sweeps_reject_invalid_representation():
    with pytest.raises(ValueError, match="invalid interval representation"):
        cfcn_interval(K2, rep_of((0, 1), (2, 3)))


def test_sweeps_answer_disconnected():
    # each of two disjoint intervals ends last in its component: color 1
    # serves its closed neighborhood, and its open one is empty
    g = Graph(2, [])
    rep = rep_of((0, 1), (2, 3))
    assert cfcn_interval(g, rep).coloring.colors == (1, 1)
    with pytest.raises(ValueError, match=INFEASIBLE):
        cfon_interval(g, rep)


def test_cfon_rejects_single_vertex():
    with pytest.raises(ValueError, match=INFEASIBLE):
        cfon_interval(Graph(1, []), rep_of((0, 1)))


def test_cfcn_single_vertex():
    out = cfcn_interval(Graph(1, []), rep_of((0, 1)))
    assert out.coloring.colors == (1,) and out.colors_used == 1


def test_sweeps_on_staircase_paths():
    # P_n drawn as overlapping stairs [2i, 2i+3]: consecutive intervals
    # overlap, all endpoints distinct
    for n in range(2, 51):
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        rep = rep_of(*((2 * i, 2 * i + 3) for i in range(n)))
        cn = cfcn_interval(g, rep)
        assert verify_cfcn(cn.coloring) and cn.colors_used <= 4
        on = cfon_interval(g, rep)
        assert verify_cfon(on.coloring) and on.colors_used <= 4


# --- randomized properties -------------------------------------------------

@given(st.integers(2, 24), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_sweeps_valid_and_within_four_colors(n, seed):
    g, rep = random_interval_instance(n, seed)
    for sweep, verifier in ((cfcn_interval, verify_cfcn), (cfon_interval, verify_cfon)):
        out = sweep(g, rep)
        assert verifier(out.coloring)
        assert out.colors_used <= 4
        assert set(out.coloring.colors) <= {0, 1, 2, 3}


def _disjoint_union(seed):
    """2-4 seeded interval instances of 1-12 vertices side by side, each
    shifted past the one before, with the vertex ids shuffled."""
    rng = random.Random(seed)
    intervals, shift = [], 0
    for _ in range(rng.randint(2, 4)):
        _, rep = random_interval_instance(rng.randint(1, 12), rng.randrange(10**6))
        intervals += [(l + shift, r + shift) for l, r in rep.intervals]
        shift = max(r for _, r in intervals) + 1
    rng.shuffle(intervals)
    rep = IntervalRepresentation(tuple(intervals))
    return graph_from_representation(rep), rep


def test_sweeps_answer_disjoint_unions():
    # an interval graph need not be connected: each component's last
    # interval to end is found by its neighbours, not by a global maximum
    infeasible = 0
    for seed in range(150):
        g, rep = _disjoint_union(seed)
        out = cfcn_interval(g, rep)
        assert verify_cfcn(out.coloring) and out.colors_used <= 4
        if g.has_isolated_vertex():
            infeasible += 1
            with pytest.raises(ValueError, match=INFEASIBLE):
                cfon_interval(g, rep)
        else:
            out = cfon_interval(g, rep)
            assert verify_cfon(out.coloring) and out.colors_used <= 4
    assert 0 < infeasible < 150


@given(st.integers(2, 8), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_sweep_never_beats_oracle(n, seed):
    g, rep = random_interval_instance(n, seed)
    opt = exact_cf(g, "cn").chromatic
    assert cfcn_interval(g, rep).colors_used >= opt


@given(st.integers(2, 12), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_sweeps_are_id_equivariant(n, seed):
    g, rep = random_interval_instance(n, seed)
    perm = list(range(n))
    random.Random(seed ^ 0x5EED).shuffle(perm)
    g2 = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
    intervals2 = [None] * n
    for v in range(n):
        intervals2[perm[v]] = rep.intervals[v]
    rep2 = IntervalRepresentation(tuple(intervals2))
    for sweep in (cfcn_interval, cfon_interval):
        base = sweep(g, rep).coloring.colors
        permuted = sweep(g2, rep2).coloring.colors
        assert all(permuted[perm[v]] == base[v] for v in range(n))
