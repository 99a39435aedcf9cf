"""Interval representations: parsing, validation, and the 4-color sweeps."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfcolor.graph import Graph, GraphFormatError
from cfcolor.coloring import verify_cfcn, verify_cfon
from cfcolor.oracle import exact_cf
from cfcolor.polysolve import UPPER_BOUND
from cfcolor.interval import (
    IntervalRepresentation,
    cfcn_interval,
    cfon_interval,
    graph_from_representation,
    parse_intervals,
    validate_representation,
    write_intervals,
)
from cfcolor.generators import random_interval_instance


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
    assert rep.left(1) == Fraction(7, 2) and rep.right(1) == Fraction(9, 2)
    assert rep.intervals[0] == (Fraction(1), Fraction(2))


@pytest.mark.parametrize(
    "text,message",
    [
        ("i 0 1\n", "malformed line"),
        ("j 0 1 2\n", "malformed line"),
        ("i 0 one 2\n", "rational literal"),
        ("i 0 1/0 2\n", "rational literal"),
        ("i 5 1 2\n", "out of range"),
        ("i 0 1 2\ni 0 3 4\n", "two intervals"),
        ("i 0 1 2\n", "without an interval"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(GraphFormatError, match=message):
        parse_intervals(text, 2)


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


def test_sweeps_reject_disconnected():
    g = Graph(2, [])
    rep = rep_of((0, 1), (2, 3))
    with pytest.raises(ValueError, match="connected"):
        cfcn_interval(g, rep)
    with pytest.raises(ValueError, match="connected"):
        cfon_interval(g, rep)


def test_cfon_rejects_single_vertex():
    with pytest.raises(ValueError, match=">= 2"):
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
