"""Split-gadget reduction: proper k-colorability vs CF-ON k+2 colors."""

import pytest

from cfcolor import coloring as coloring_module
from cfcolor import hardness
from cfcolor.graph import Graph, SizeGuardError
from cfcolor.coloring import Coloring, SelfCheckError, VerifyResult, verify_cfon
from cfcolor.graphclasses import is_split
from cfcolor.generators import enumerate_small
from cfcolor.hardness import (
    CrossReport,
    GadgetInstance,
    cross_validate,
    decode,
    encode,
    forward_coloring,
    properly_colorable,
)

K1 = Graph(1, [])
K2 = Graph(2, [(0, 1)])
P3 = Graph(3, [(0, 1), (1, 2)])
K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
K4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def test_encode_sizes():
    # |V(H)| = 3n + m + 3: n source + 2 universal + (m + 2n + 1) edge slots
    for g, nh in ((K1, 6), (K2, 10), (P3, 14), (K3, 15), (C5, 23)):
        inst = encode(g, 3)
        assert inst.graph.n == nh == 3 * g.n + g.m + 3
        assert inst.gprime.n == g.n + 2
        assert inst.gprime.m == g.m + 2 * g.n + 1
        assert len(inst.independent) == inst.gprime.m
    assert encode(K3, 3).graph.m == 30


def test_encode_layout_k3():
    inst = encode(K3, 3)
    assert (inst.x, inst.y) == (3, 4)
    assert inst.clique == (0, 1, 2, 3, 4)
    assert inst.independent == tuple(range(5, 15))
    assert inst.pair_of == (
        (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 2), (1, 3), (1, 4),
        (2, 3), (2, 4), (3, 4),
    )
    for slot, (u, v) in zip(inst.independent, inst.pair_of):
        assert sorted(inst.graph.neighbors(slot)) == [u, v]


@pytest.mark.parametrize("g", [K1, K2, P3, K3, C5])
def test_gadget_is_split_with_clique_gprime(g):
    inst = encode(g, 3)
    ok, part = is_split(inst.graph)
    assert ok
    assert sorted(part.clique) == list(inst.clique)
    assert sorted(part.independent) == list(inst.independent)


def test_encode_errors():
    with pytest.raises(ValueError, match="k >= 3"):
        encode(K3, 2)
    with pytest.raises(ValueError, match="empty source graph"):
        encode(Graph(0, []), 3)


def test_forward_k3_frozen():
    inst = encode(K3, 3)
    ch = forward_coloring(inst, Coloring(K3, (0, 1, 2)))
    assert ch.colors == (0, 1, 2, 3, 4) + (2,) * 10
    assert ch.num_colors == 5
    assert verify_cfon(ch)
    assert decode(inst, ch).colors == (0, 1, 2)


def test_forward_uses_k_plus_2_colors():
    # x, y and the slot color k-1 are new whenever the source coloring
    # spans 0..k-1, so the extension hits exactly k + 2 distinct values
    inst = encode(K3, 3)
    for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        ch = forward_coloring(inst, Coloring(K3, perm))
        assert ch.num_colors == 5
        assert verify_cfon(ch)


def test_forward_errors():
    inst = encode(K3, 3)
    with pytest.raises(ValueError, match="different graph"):
        forward_coloring(inst, Coloring(P3, (0, 1, 2)))
    with pytest.raises(ValueError, match="0..k-1"):
        forward_coloring(inst, Coloring(K3, (0, 1, 3)))
    with pytest.raises(ValueError, match="monochromatic"):
        forward_coloring(inst, Coloring(K3, (0, 1, 1)))


def test_forward_rejected_extension_raises(monkeypatch):
    # an explicit check, so it also holds under `python -O`
    monkeypatch.setattr(coloring_module, "verify_cfon", lambda coloring: VerifyResult(False, 0, "rejected"))
    with pytest.raises(SelfCheckError):
        forward_coloring(encode(K3, 3), Coloring(K3, (0, 1, 2)))


def test_decode_errors():
    inst = encode(K3, 3)
    good = forward_coloring(inst, Coloring(K3, (0, 1, 2)))
    with pytest.raises(ValueError, match="different graph"):
        decode(inst, Coloring(K3, (0, 1, 2)))
    with pytest.raises(ValueError, match="conflict-free"):
        decode(inst, Coloring(inst.graph, (0,) * inst.graph.n))
    # a rainbow is conflict-free on every nonempty neighborhood but
    # blows the distinct-color budget
    with pytest.raises(ValueError, match="more than 5 distinct"):
        decode(inst, Coloring(inst.graph, tuple(range(inst.graph.n))))
    assert decode(inst, good).graph == K3


def test_properly_colorable():
    assert properly_colorable(K3, 2) is None
    assert properly_colorable(K3, 3) == (0, 1, 2)
    assert properly_colorable(K4, 3) is None
    assert properly_colorable(C5, 2) is None
    assert properly_colorable(Graph(4, [(0, 1), (1, 2), (2, 3)]), 2) == (0, 1, 0, 1)


def test_cross_validate_exhaustive_small():
    # every connected source with a gadget inside the default size guard
    checked = 0
    for n in range(1, 4):
        for g in enumerate_small(n):
            rep = cross_validate(g, 3)
            assert rep.match
            assert rep.source_yes  # everything on <= 3 vertices is 3-colorable
            assert rep.decoded is not None
            checked += 1
    assert checked == 4  # K1, K2, P3, K3


def test_cross_validate_no_side_k4():
    rep = cross_validate(K4, 3, limit=None)
    assert not rep.source_yes
    assert not rep.gadget_yes
    assert rep.match
    assert rep.decoded is None


def test_cross_validate_c5():
    rep = cross_validate(C5, 3, limit=None)
    assert rep.source_yes and rep.gadget_yes and rep.match
    assert rep.decoded is not None
    r = rep.decoded.colors
    for u, v in C5.edges:
        assert r[u] != r[v]


def test_cross_validate_respects_size_guard():
    with pytest.raises(SizeGuardError):
        cross_validate(C5, 3)


def test_cross_validate_checks_guard_before_work(monkeypatch):
    # a 1500-vertex path makes a 6002-vertex gadget: refused before the
    # gadget is built or the source colored
    def refuse(*args):
        raise AssertionError("work done before the size guard")

    monkeypatch.setattr(hardness, "encode", refuse)
    monkeypatch.setattr(hardness, "properly_colorable", refuse)
    path = Graph(1500, [(i, i + 1) for i in range(1499)])
    with pytest.raises(SizeGuardError, match="6002 vertices"):
        cross_validate(path, 3)
    with pytest.raises(SizeGuardError, match="23 vertices"):
        cross_validate(C5, 3, limit=22)
    # a bad k is a usage error, whatever the size
    with pytest.raises(ValueError, match="k >= 3"):
        cross_validate(path, 2)


def test_cross_validate_long_path_without_limit():
    # 1100 vertices, beyond Python's default recursion limit of 1000
    path = Graph(1100, [(i, i + 1) for i in range(1099)])
    assert properly_colorable(path, 2) == (0, 1) * 550
    rep = cross_validate(path, 3, limit=None)
    assert rep.source_yes and rep.gadget_yes and rep.match


def test_cross_validate_verifies_each_coloring_once(monkeypatch):
    # a yes instance verifies the forward extension and the oracle's
    # witness once each; decode reuses the oracle's verdict
    calls = []

    def counting(coloring):
        calls.append(coloring)
        return verify_cfon(coloring)

    monkeypatch.setattr(coloring_module, "verify_cfon", counting)
    assert cross_validate(C5, 3, limit=None).decoded is not None
    assert len(calls) == 2 and calls[0] is not calls[1]
    calls.clear()
    assert cross_validate(K4, 3, limit=None).decoded is None
    assert calls == []


def test_oracle_witness_decodes_k2():
    # the K2 gadget needs 4 distinct colors, one under the k+2 budget;
    # the oracle's minimum witness must restrict to a proper pair
    from cfcolor.oracle import exact_cf

    inst = encode(K2, 3)
    result = exact_cf(inst.graph, "on")
    assert result.chromatic == 4
    a, b = decode(inst, result.witness).colors
    assert a != b


def test_cross_validate_all_graphs_up_to_five():
    # beyond the acceptance sweep: disconnected sources included, guard
    # lifted; every gadget decision still mirrors 3-colorability
    from cfcolor.generators import _levels_up_to, _plain_levels

    _levels_up_to(5, None, _plain_levels)
    count = 0
    for n in range(1, 6):
        for g in _plain_levels[n]:
            rep = cross_validate(g, 3, limit=None)
            assert rep.match, (n, g.edges)
            count += 1
    assert count == 52
