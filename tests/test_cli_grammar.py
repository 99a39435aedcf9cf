"""Every command line the parser accepts, or refuses, has a defined
outcome: a property test over the subcommands, flags and values that
`build_parser()` declares, run in-process on tiny graphs."""

import argparse
import contextlib
import io
import os
import re
import tempfile
from datetime import timedelta

from hypothesis import given, settings, strategies as st

from cfcolor.cli import build_parser, dispatch

INTS = (0, -1, 1, 2, 3, 17, 10**12)

# name -> (graph text, interval text); C5 is no interval graph, so its
# intervals disagree with its edges, and the self-loop file fails to parse
GRAPHS = {
    "empty": ("p cf 0 0\n", ""),
    "K1": ("p cf 1 0\n", "i 0 0 1\n"),
    "2K3": ("p cf 6 6\ne 0 1\ne 0 2\ne 1 2\ne 3 4\ne 3 5\ne 4 5\n",
            "i 0 0 4\ni 1 1 5\ni 2 2 6\ni 3 10 14\ni 4 11 15\ni 5 12 16\n"),
    "P4": ("p cf 4 3\ne 0 1\ne 1 2\ne 2 3\n", "i 0 0 2\ni 1 1 4\ni 2 3 6\ni 3 5 7\n"),
    "C5": ("p cf 5 5\ne 0 1\ne 0 4\ne 1 2\ne 2 3\ne 3 4\n",
           "i 0 0 2\ni 1 1 4\ni 2 3 6\ni 3 5 7\ni 4 8 9\n"),
    "loop": ("p cf 2 1\ne 0 0\n", "i 0 0 1\ni 1 2 3\n"),
}

# `.`, `..` and `/` name no file and are refused; `missing/o` lies in a
# directory that does not exist; every other form stays inside the run's
# directory
OUTS = ("o", "d/o", "o/", "d/", "missing/o", ".", "..", "/")

# values for the string options, valid and not
TEXT_VALUES = {
    "modulator": ("auto", "0", "0,1", "1,x", "17", "-1", ""),
    "cliques": ("3,1,2", "1", "0", "x", "2,-1", ""),
}

REPORT_LINE = re.compile(r"[a-z][a-z0-9_]*: .*")


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices


def _value(command: str, action: argparse.Action, n: int):
    """A strategy for one option's value, on a graph of n vertices.
    Exhaustive work stays small: `gen --n` is at most 20, and a limit
    that lifts the oracle's guard (<= 0, or 10^12) is drawn only for
    graphs of at most 5 vertices, or 3 under `gadget`."""
    dest = action.dest
    if action.choices is not None:
        return st.sampled_from(tuple(action.choices))
    if dest == "out":
        return st.sampled_from(OUTS)
    if dest in TEXT_VALUES:
        return st.sampled_from(TEXT_VALUES[dest])
    if dest in ("graph", "coloring", "intervals"):
        suffix = {"graph": "cf", "coloring": "col", "intervals": "ivl"}[dest]
        # a missing file one time in five
        return st.sampled_from((f"g.{suffix}",) * 4 + (f"missing.{suffix}",))
    if action.type is int:
        if command == "gen" and dest == "n":
            return st.sampled_from(tuple(v for v in INTS if v <= 20)).map(str)
        if dest == "limit" and n > (3 if command == "gadget" else 5):
            return st.sampled_from(tuple(v for v in INTS if 0 < v < 10**12)).map(str)
        return st.sampled_from(INTS).map(str)
    raise AssertionError(f"no values drawn for {command} {dest}: extend the grammar test")


@st.composite
def command_lines(draw):
    """(graph name, coloring, argv): a subcommand, each option present or
    not (a missing required one is a usage error), then the positionals
    in order."""
    command, sub = draw(st.sampled_from(sorted(_subparsers().items())))
    name = draw(st.sampled_from(sorted(GRAPHS)))
    n = int(GRAPHS[name][0].split()[2])
    coloring = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    argv, positionals = [command], []
    for action in sub._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            positionals.append(draw(_value(command, action, n)))
        # a required option is left out one time in twenty
        elif draw(st.integers(0, 19)) > (0 if action.required else 9):
            argv += [action.option_strings[0], draw(_value(command, action, n))]
    return name, coloring, argv + positionals


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, files in os.walk(root) for f in files}


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(command_lines())
def test_every_command_line_has_a_defined_outcome(run):
    # exit 0-3 only, a `key: value` report, and no artifact left by a
    # refusal (exit 2) or a size-guard stop (exit 3)
    name, coloring, argv = run
    graph_text, interval_text = GRAPHS[name]
    with tempfile.TemporaryDirectory() as root:
        os.mkdir(os.path.join(root, "d"))
        for file, text in (("g.cf", graph_text), ("g.ivl", interval_text),
                           ("g.col", "".join(f"v {v} {c}\n" for v, c in enumerate(coloring)))):
            with open(os.path.join(root, file), "w") as f:
                f.write(text)
        before = _files(root)
        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = dispatch(argv)
        finally:
            os.chdir(cwd)
        left = _files(root) - before
    assert code in (0, 1, 2, 3), (argv, out.getvalue())
    for line in out.getvalue().splitlines():
        assert REPORT_LINE.fullmatch(line), (argv, line)
    assert code < 2 or not left, (argv, sorted(left))
