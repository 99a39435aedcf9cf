"""Shared hypothesis strategies, seeded families of graph-shaped test data,
and small test helpers."""

from __future__ import annotations

import itertools
import sys

from hypothesis import strategies as st

from cfcolor.graph import Graph, write_graph
from cfcolor.generators import (
    random_cluster_modulator_instance,
    random_graph,
    random_threshold_modulator_instance,
)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs)))
    else:
        edges = set()
    return Graph(n, edges)


# every line boundary `str.splitlines` knows
LINE_SEPARATORS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                   "\x85", "\u2028", "\u2029")

# spellings of a non-negative id that canonical text never uses: all but
# the last are accepted by `int`, which refuses more than 4300 digits
RESPELLINGS = (
    lambda k: "+" + k,
    lambda k: "0" + k,
    lambda k: k[0] + "_" + k[1:] if len(k) > 1 else "0_" + k,
    lambda k: k.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    lambda k: "0" * 4301 + k,
)


@st.composite
def graph_texts(draw, max_n: int = 6):
    """Text in and around the `p cf` format: a graph's canonical text,
    then up to four edits.  The edits insert comments, blank lines,
    edge lines (duplicate, reversed, self-loop or out of range), extra
    or malformed headers and unknown lines; delete or swap lines (a
    missing header, a wrong edge count, unsorted edges); reverse an
    edge; respell its ids (`+5`, `05`, `1_0`, non-ASCII digits, over
    4300 leading zeros); indent
    with spaces or tabs.  Lines end in newlines as canonical text does,
    in one other separator throughout or in any mix of the
    `str.splitlines` separators, where the last one may be missing."""
    g = draw(graphs(min_n=0, max_n=max_n))
    lines = write_graph(g).splitlines()
    ids = st.integers(-1, g.n + 1)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(
            ("comment", "blank", "edge", "header", "junk", "delete", "swap", "reverse",
             "respell", "indent")))
        i = draw(st.integers(0, len(lines)))
        if kind == "comment":
            lines.insert(i, draw(st.sampled_from(("c", "c note", "cx 1 2", "c e 0 1"))))
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(("", " ", "\t"))))
        elif kind == "edge":
            lines.insert(i, f"e {draw(ids)} {draw(ids)}")
        elif kind == "header":
            lines.insert(i, draw(st.sampled_from(
                (f"p cf {g.n} {g.m}", f"p cf {g.n} {g.m + 1}", f"p cf {g.n}", "p cf -1 0",
                 f"p cf {g.n} x", f"p xx {g.n} {g.m}"))))
        elif kind == "junk":
            lines.insert(i, draw(st.sampled_from(("x 1 2", "e 1", "e 0 1 2", "e a 1", "p"))))
        elif lines:
            i = min(i, len(lines) - 1)
            fields = lines[i].split(" ")
            if kind == "delete":
                del lines[i]
            elif kind == "swap":
                j = draw(st.integers(0, len(lines) - 1))
                lines[i], lines[j] = lines[j], lines[i]
            elif kind == "reverse" and len(fields) == 3:
                lines[i] = " ".join((fields[0], fields[2], fields[1]))
            elif kind == "respell":
                respell = draw(st.sampled_from(RESPELLINGS))
                lines[i] = " ".join(respell(f) if f.isdigit() else f for f in fields)
            elif kind == "indent":
                lines[i] = draw(st.sampled_from((" ", "\t", "  "))) + lines[i].replace(
                    " ", draw(st.sampled_from((" ", "\t", " \t"))))
    ending = draw(st.sampled_from(("canonical", "one", "mixed")))
    if ending == "canonical":
        seps = ["\n"] * len(lines)
    elif ending == "one":
        seps = [draw(st.sampled_from(LINE_SEPARATORS))] * len(lines)
    else:
        seps = [draw(st.sampled_from(LINE_SEPARATORS)) for _ in lines]
    if seps and ending != "canonical" and draw(st.booleans()):
        seps[-1] = ""
    return "".join(line + sep for line, sep in zip(lines, seps))


# field spellings for the coloring and interval formats: integers and
# rationals in canonical and other forms, refused ones among them
# (`1/0`, exponents, words, over 4300 digits), and non-ASCII digits
FIELD_LITERALS = ("0", "1", "2", "-1", "007", "+3", "-0", "1_0", "7/2", "-7/2", "1/0",
                  "0/5", "1.5", ".5", "\uff13", "\u0663", "1e3", "1E3", "nan", "inf",
                  "0x10", "x", "9" * 4301, "1/" + "9" * 4301)


@st.composite
def record_texts(draw, tag: str, fields: int, max_n: int = 4):
    """Text in and around a `<tag> <vertex> <field>...` record format:
    records with ids from -1 to max_n + 1 and fields spelled from
    FIELD_LITERALS, records with too few or too many fields, comments,
    blank lines, other tags and arbitrary text, joined by any of the
    `str.splitlines` separators."""
    def token():
        return draw(st.one_of(st.integers(-1, max_n + 1).map(str), st.sampled_from(FIELD_LITERALS)))

    lines = []
    for _ in range(draw(st.integers(0, max_n + 3))):
        kind = draw(st.sampled_from(("record", "record", "record", "arity", "comment",
                                     "blank", "tag", "text")))
        if kind == "record":
            lines.append(" ".join([tag] + [token() for _ in range(fields + 1)]))
        elif kind == "arity":
            size = draw(st.integers(0, fields + 3).filter(lambda k: k != fields + 1))
            lines.append(" ".join([tag] + [token() for _ in range(size)]))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(("c", "c note", f"c{tag} 0 1"))))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(("", " ", "\t"))))
        elif kind == "tag":
            lines.append(" ".join([draw(st.sampled_from(("e", "p", "i", "v", "x")))]
                                  + [token() for _ in range(fields + 1)]))
        else:
            lines.append(draw(st.text(max_size=12)))
    seps = [draw(st.sampled_from(LINE_SEPARATORS)) for _ in lines]
    return "".join(line + sep for line, sep in zip(lines, seps))


@st.composite
def colored_graphs(draw, min_n: int = 1, max_n: int = 8):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    colors = draw(
        st.lists(st.integers(0, max(1, g.n)), min_size=g.n, max_size=g.n)
    )
    return g, tuple(colors)


def modulator_pin_graphs():
    """The 120 seeded graphs whose modulators and solve lines are pinned:
    planted cluster modulators (n 8-12, d 1-3), planted threshold
    modulators (n 8-12, d 1-2) and G(n, 0.4) (n 6-10)."""
    for s in range(40):
        yield random_cluster_modulator_instance(8 + s % 5, 1 + s % 3, s)[0]
        yield random_threshold_modulator_instance(8 + s % 5, 1 + s % 2, s)[0]
        yield random_graph(6 + s % 5, 0.4, s)


def labeled_graphs(max_n: int):
    """Every labeled graph on 1..max_n vertices, edge sets in bitmask
    order over the sorted vertex pairs."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def stack_depth() -> int:
    """Frames on the caller's stack, for tests that lower the recursion
    limit to just above it."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth
