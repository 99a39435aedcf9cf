"""Command-line front end for the conflict-free coloring toolkit.

Every subcommand prints a machine-parseable run report, one `key: value`
line per fact: the command echo, a sha256 digest per input file, the
result summary, elapsed milliseconds, and the paths of any artifacts
written.  Exit codes are uniform across subcommands:

    0  success / valid coloring / YES decision
    1  invalid coloring / NO decision / nothing found / infeasible
    2  usage, file format, or I/O error
    3  size-guard refusal (instance too large for an exhaustive step)
    4  self-verification failure (a solver or reduction contradicted
       its own checker -- an internal defect, never silent)
    5  any other exception (an internal defect); the `error:` line
       names its type and message

Every artifact goes through `_emit`, which overwrites the old file in
place and then cuts it to the new length: the bytes, inode, mode and
mtime are those `Path.write_text` leaves, but the old blocks are not
freed first.  A process killed mid-write can leave old bytes after the
new ones; when the old file was longer, as an artifact of a larger
graph is, the readers reject them as a format error.  `--out` must end
in a file name: `.`, `..` and `/` are refused by the parser, exit 2,
before the input is read.

`solve` hands a feasible graph to `ladder.solve`, the `auto` ladder;
`fpt` decides rather than constructs and is its own branch.  `solve`,
`oracle` and `kernelize` report an infeasible CF-ON instance the same
way, exit 1.

`recognize` and `gen` call the library's recognizers and generators
directly, each through one table walked once.  `_RECOGNIZERS` maps each
class, in report order, to its recognizer and the report lines of the
certificate it returns; a certificate is reported whenever one is
returned, so a non-cograph shows its prime tree.  `_GENERATORS` maps
each `--class` to its generator call and its certificate's lines for
`<stem>.cert`; interval's certificate, its representation, goes to
`<stem>.ivl` instead.  The `--class` choices are the table's keys, as
the `--strategy` choices are `ladder.STRATEGIES`'.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .graph import Graph, GraphFormatError, SizeGuardError, parse_graph, write_graph
from .coloring import (INFEASIBLE, VARIANT_CN, VARIANTS, Coloring, SelfCheckError, checked,
                       feasible, parse_coloring, verify, write_coloring)
from .oracle import DEFAULT_LIMIT, decide_cf, exact_cf
from .graphclasses import (MDNode, Modulator, is_bipartite, is_cluster, is_cograph, is_split,
                           is_threshold)
from .interval import parse_intervals, write_intervals
from .fpt import kernel_size_bound, kernelize, provenance, rule1_cap, solve_via_kernel
from .ladder import DEFAULT_BUDGET, STRATEGIES, find_modulator, solve
from .hardness import cross_validate, encode
from .generators import (
    cluster_graph,
    random_cluster,
    random_cluster_modulator_instance,
    random_interval_instance,
    random_split,
    random_threshold,
    random_threshold_modulator_instance,
)

@dataclass
class RunReport:
    """Ordered `key: value` lines; rendered once per process."""

    lines: list[tuple[str, str]] = field(default_factory=list)

    def add(self, key: str, value) -> None:
        self.lines.append((key, str(value)))

    def render(self) -> str:
        return "\n".join(f"{key}: {value}" for key, value in self.lines)


def _read_input(path_str: str, key: str, report: RunReport) -> str:
    """The file's text, decoded as `Path.read_text` does (locale
    encoding, universal newlines), from the same bytes its reported
    sha256 is taken of: the file is read once."""
    path = Path(path_str)
    data = path.read_bytes()
    text = io.TextIOWrapper(io.BytesIO(data)).read()
    report.add(key, f"{path} sha256={hashlib.sha256(data).hexdigest()}")
    return text


def _load_graph(path_str: str, report: RunReport) -> Graph:
    return parse_graph(_read_input(path_str, "input_graph", report))


def _emit(path: Path, text: str, report: RunReport, key: str) -> None:
    """Write `text` as `Path.write_text` would, but over the old bytes
    and then cut to the new length: an open with O_TRUNC frees the old
    blocks, and ext4 then flushes the new data on close."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
        f.write(text)
        f.truncate()
    report.add(key, str(path))


def _emit_coloring(args, coloring: Coloring, report: RunReport, key: str) -> int:
    """Write `<stem>.<variant>.col`; 0, the exit code of a coloring found."""
    _emit(_stem(args).with_suffix(f".{args.variant}.col"), write_coloring(coloring), report, key)
    return 0


def _infeasible(report: RunReport, key: str = "result", value: str = "infeasible") -> int:
    """Report a CF-ON instance that no coloring satisfies; 1, its exit code."""
    report.add(key, value)
    report.add("reason", INFEASIBLE)
    return 1


def _out_stem(value: str) -> str:
    """The --out value, once its last component is a file name: `.`,
    `..` and `/` would leave no artifact name to add a suffix to."""
    if Path(value).name in ("", ".", ".."):
        raise argparse.ArgumentTypeError(f"must end in a file name, got {value!r}")
    return value


def _stem(args) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    return Path(args.graph).with_suffix("")


def _limit(value: int) -> int | None:
    return None if value <= 0 else value


def _ids(vertices) -> str:
    return " ".join(map(str, vertices))


def _tree_sexp(node: MDNode) -> str:
    """`(kind child ...)` with leaves as vertex ids, written without
    recursion: a cotree can be about n/2 levels deep."""
    tokens: list[str] = []
    stack: list[MDNode | None] = [node]  # None closes the innermost node
    while stack:
        item = stack.pop()
        if item is None:
            tokens[-1] += ")"
        elif item.kind == "leaf":
            tokens.append(str(item.vertex))
        else:
            tokens.append("(" + item.kind)
            stack.append(None)
            stack.extend(reversed(item.children))
    return " ".join(tokens)


def _parse_modulator(g: Graph, spec: str, residual: str, budget: int, report: RunReport) -> Modulator:
    """`auto` searches within the budget; otherwise a comma-separated
    vertex list is trusted (the solvers re-validate the residual).  The
    modulator goes into the report."""
    if spec == "auto":
        m = find_modulator(g, residual, budget)
        if m is None:
            raise ValueError(f"no {residual} modulator of size <= {budget}")
    else:
        try:
            vertices = tuple(sorted({int(tok) for tok in spec.split(",") if tok.strip()}))
        except ValueError:
            raise ValueError(f"modulator must be 'auto' or comma-separated vertices, got {spec!r}")
        for v in vertices:
            if not 0 <= v < g.n:
                raise ValueError(f"modulator vertex {v} out of range")
        m = Modulator(vertices, residual)
    report.add("modulator", _ids(m.vertices) or "(empty)")
    return m


# --- subcommands -----------------------------------------------------------


def _cmd_verify(args, report: RunReport) -> int:
    g = _load_graph(args.graph, report)
    coloring = parse_coloring(_read_input(args.coloring, "input_coloring", report), g)
    verdict = verify(coloring, args.variant)
    report.add("verdict", "valid" if verdict else "invalid")
    if verdict:
        report.add("colors_used", coloring.num_colors)
        return 0
    report.add("failing_vertex", verdict.failing_vertex)
    report.add("reason", verdict.reason)
    return 1


def _cmd_oracle(args, report: RunReport) -> int:
    g = _load_graph(args.graph, report)
    limit = _limit(args.limit)
    # before the library, whose size guard would refuse what is infeasible at any size
    if not feasible(g, args.variant):
        if args.k is None:
            return _infeasible(report, "chromatic")
        return _infeasible(report, "decision", "no")
    if args.k is not None:
        yes, witness = decide_cf(g, args.variant, args.k, limit=limit)
        report.add("decision", "yes" if yes else "no")
        if not yes:
            return 1
        report.add("colors_used", witness.num_colors)
        return _emit_coloring(args, witness, report, "witness_file")
    result = exact_cf(g, args.variant, limit=limit)
    report.add("chromatic", result.chromatic)
    return _emit_coloring(args, result.witness, report, "witness_file")


def _cmd_solve(args, report: RunReport) -> int:
    g = _load_graph(args.graph, report)
    rep = (parse_intervals(_read_input(args.intervals, "input_intervals", report), g.n)
           if args.intervals else None)
    limit = _limit(args.limit)
    if not feasible(g, args.variant):
        return _infeasible(report)

    if args.strategy == "fpt":
        if args.k is None:
            raise ValueError("the fpt strategy needs --k")
        m = _parse_modulator(g, args.modulator, "cluster", args.budget, report)
        decision = solve_via_kernel(g, m, args.k, args.variant, limit=limit)
        report.add("strategy", "fpt")
        report.add("decision", "yes" if decision.yes else "no")
        report.add("note", decision.note)
        if not decision.yes:
            return 1
        report.add("colors_used", decision.witness.num_colors)
        return _emit_coloring(args, decision.witness, report, "coloring_file")

    residual = {"lemma1": "cluster", "approx": "threshold"}.get(args.strategy)  # reads --modulator
    m = residual and _parse_modulator(g, args.modulator, residual, args.budget, report)
    strategy, outcome = solve(g, args.variant, args.strategy, intervals=rep, modulator=m,
                              budget=args.budget, limit=limit)
    # free for a coloring its solver already checked (the verdict is kept
    # on the coloring); a solver that skipped its check is caught here
    checked(outcome.coloring, args.variant, "re-verification")
    report.add("strategy", strategy)
    report.add("colors_used", outcome.colors_used)
    report.add("optimality", outcome.optimality)
    if outcome.note:
        report.add("note", outcome.note)
    return _emit_coloring(args, outcome.coloring, report, "coloring_file")


# class, in report order -> (recognizer(g) -> (ok, certificate), the
# certificate's report lines as (key, value) pairs)
_RECOGNIZERS = {
    "bipartite": (lambda g: is_bipartite(g), lambda sides: [
        ("bipartition_left", _ids(sides[0])), ("bipartition_right", _ids(sides[1]))]),
    "cluster": (lambda g: is_cluster(g),
                lambda cliques: [("cliques", " | ".join(map(_ids, cliques)))]),
    "split": (lambda g: is_split(g), lambda p: [
        ("split_clique", _ids(p.clique)), ("split_independent", _ids(p.independent))]),
    "threshold": (lambda g: is_threshold(g), lambda order: [
        ("threshold_order", " ".join(f"{v}:{kind}" for v, kind in order))]),
    "cograph": (lambda g: is_cograph(g), lambda tree: [("cograph_tree", _tree_sexp(tree))]),
}


def _cmd_recognize(args, report: RunReport) -> int:
    g = _load_graph(args.graph, report)
    found = {name: (*recognizer(g), lines) for name, (recognizer, lines) in _RECOGNIZERS.items()}
    labels = sorted(name for name, (ok, _, _) in found.items() if ok)
    report.add("labels", " ".join(labels) or "none")
    for name, (ok, certificate, lines) in found.items():
        report.add(name, "yes" if ok else "no")
        for key, value in lines(certificate) if certificate is not None else ():
            report.add(key, value)
    return 0


def _cmd_modulator(args, report: RunReport) -> int:
    g = _load_graph(args.graph, report)
    m = find_modulator(g, args.klass, args.budget)
    if m is None:
        report.add("modulator", "none")
        return 1
    report.add("modulator", _ids(m.vertices) or "(empty)")
    report.add("size", len(m.vertices))
    report.add("residual", m.residual_class)
    return 0


def _size_bound(d: int, k: int, variant: str) -> int | str:
    """`kernel_size_bound`, or its formula with the numbers filled in
    when the integer would pass 4000 digits, past which Python refuses
    to print it.  The digits are estimated from logarithms before any
    power is taken: around d = 30 the power alone needs 2^(d+1) bits.
    A cap itself past 4000 digits is written as its formula in k."""
    cap = rule1_cap(k, variant)
    # beyond d = 64 the leading term alone is far past the limit
    digits = (2.0 ** min(d, 64) * math.log10(cap + 1)
              + math.log10((d + 1) * cap) + d * math.log10(2))
    if digits > 4000:
        if math.log10(cap) <= 4000:
            c, c1 = cap, cap + 1
        else:
            c, c1 = ("(k+1)", "(k+2)") if variant == VARIANT_CN else ("(2k+1)", "(2k+2)")
        return f"{d} + {c1}^(2^{d}) * {d + 1} * 2^{d} * {c}"
    return kernel_size_bound(d, k, variant)


def _cmd_kernelize(args, report: RunReport) -> int:
    g = _load_graph(args.graph, report)
    if not feasible(g, args.variant):
        return _infeasible(report)
    m = _parse_modulator(g, args.modulator, "cluster", args.budget, report)
    inst = kernelize(g, m, args.k, args.variant)
    stem = _stem(args)
    report.add("kernel_vertices", inst.graph.n)
    report.add("kernel_edges", inst.graph.m)
    report.add("size_bound", _size_bound(len(m.vertices), args.k, args.variant))
    if inst.short_circuit is not None:
        report.add("short_circuit", "yes")
        report.add("colors_used", inst.short_circuit.colors_used)
        _emit_coloring(args, inst.short_circuit.coloring, report, "witness_file")
    else:
        report.add("short_circuit", "no")
    _emit(stem.with_suffix(".kernel.cf"), write_graph(inst.graph), report, "kernel_file")
    _emit(stem.with_suffix(".prov"), "\n".join(provenance(inst)) + "\n", report, "provenance_file")
    return 0


def _cmd_gadget(args, report: RunReport) -> int:
    g = _load_graph(args.graph, report)
    if args.mode == "encode":
        inst = encode(g, args.k)
        report.add("gadget_vertices", inst.graph.n)
        report.add("gadget_edges", inst.graph.m)
        report.add("clique_size", len(inst.clique))
        report.add("edge_slots", len(inst.independent))
        stem = _stem(args)
        _emit(stem.with_suffix(".gadget.cf"), write_graph(inst.graph), report, "gadget_file")
        lines = [f"x {inst.x}", f"y {inst.y}"]
        lines += [
            f"slot {slot} {u} {v}"
            for slot, (u, v) in zip(inst.independent, inst.pair_of)
        ]
        _emit(stem.with_suffix(".map"), "\n".join(lines) + "\n", report, "map_file")
        return 0
    cross = cross_validate(g, args.k, limit=_limit(args.limit))
    report.add("source_colorable", "yes" if cross.source_yes else "no")
    report.add("gadget_colorable", "yes" if cross.gadget_yes else "no")
    report.add("match", "yes" if cross.match else "no")
    return 0 if cross.match else 4


def _modulator_size(args) -> int:
    if args.d is None:
        raise ValueError(f"{args.klass} needs d")
    return args.d


def _modulator_lines(m: Modulator) -> list[str]:
    return ["modulator " + _ids(m.vertices), f"residual {m.residual_class}"]


# --class -> (generate(args, the --cliques sizes or None) -> (graph,
# certificate), the certificate's lines for `<stem>.cert`, or None for
# interval, whose representation goes to `<stem>.ivl`)
_GENERATORS = {
    "cluster": (lambda a, cliques: cluster_graph(cliques) if cliques is not None
                else random_cluster(a.n, a.seed),
                lambda cliques: ["clique " + _ids(c) for c in cliques]),
    "threshold": (lambda a, cliques: random_threshold(a.n, a.seed),
                  lambda creation: [f"step {v} {kind}" for v, kind in creation]),
    "split": (lambda a, cliques: random_split(a.n, a.seed),
              lambda p: ["clique " + _ids(p.clique), "independent " + _ids(p.independent)]),
    "interval": (lambda a, cliques: random_interval_instance(a.n, a.seed), None),
    "cluster-modulator": (
        lambda a, cliques: random_cluster_modulator_instance(a.n, _modulator_size(a), a.seed),
        _modulator_lines),
    "threshold-modulator": (
        lambda a, cliques: random_threshold_modulator_instance(a.n, _modulator_size(a), a.seed),
        _modulator_lines),
}


def _cmd_gen(args, report: RunReport) -> int:
    cliques = None
    if args.cliques:
        try:
            cliques = tuple(int(tok) for tok in args.cliques.split(",") if tok.strip())
        except ValueError:
            raise ValueError(f"--cliques must be comma-separated integers, got {args.cliques!r}")
    generate, cert_lines = _GENERATORS[args.klass]
    g, certificate = generate(args, cliques)
    stem = Path(args.out) if args.out else Path(
        f"{args.klass}-n{args.n}-s{args.seed}" + (f"-d{args.d}" if args.d is not None else "")
    )
    report.add("vertices", g.n)
    report.add("edges", g.m)
    _emit(stem.with_suffix(".cf"), write_graph(g), report, "graph_file")
    if cert_lines is None:
        _emit(stem.with_suffix(".ivl"), write_intervals(certificate), report, "intervals_file")
    elif lines := cert_lines(certificate):
        _emit(stem.with_suffix(".cert"), "\n".join(lines) + "\n", report, "certificate_file")
    return 0


# --- parser ----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="cfcolor",
        description="conflict-free graph coloring: verify, solve, kernelize, reduce",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, variant=True, limit=False, out=False):
        if variant:
            p.add_argument("--variant", choices=VARIANTS, required=True,
                           help="cn = closed neighborhoods, on = open neighborhoods")
        if limit:
            p.add_argument("--limit", type=int, default=DEFAULT_LIMIT,
                           help="exhaustive-search vertex guard; <= 0 disables")
        if out:
            p.add_argument("--out", type=_out_stem,
                           help="artifact path stem (default: input stem)")

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    common(p)
    p.add_argument("graph")
    p.add_argument("coloring")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exact chromatic number or k-decision by backtracking")
    common(p, limit=True, out=True)
    p.add_argument("--k", type=int, help="decide `<= k colors` instead of optimizing")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("solve", help="construct a conflict-free coloring")
    common(p, limit=True, out=True)
    p.add_argument(
        "--strategy",
        choices=("auto", *STRATEGIES, "fpt", "oracle"),
        default="auto",
    )
    p.add_argument("--intervals", help="interval representation file (interval strategy)")
    p.add_argument("--k", type=int, help="color budget (fpt strategy)")
    p.add_argument("--modulator", default="auto",
                   help="comma-separated vertices or 'auto' (lemma1/fpt/approx)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max modulator size for 'auto' search")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("recognize", help="class labels with certificates")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("modulator", help="small vertex set whose removal lands in a class")
    p.add_argument("--class", dest="klass", choices=("cluster", "threshold"), required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("graph")
    p.set_defaults(func=_cmd_modulator)

    p = sub.add_parser("kernelize", help="shrink to an equivalent bounded-size instance")
    common(p, out=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--modulator", default="auto")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("graph")
    p.set_defaults(func=_cmd_kernelize)

    p = sub.add_parser("gadget", help="hardness reduction: proper k-coloring vs CF-ON k+2")
    p.add_argument("mode", choices=("encode", "validate"))
    p.add_argument("--k", type=int, required=True)
    common(p, variant=False, limit=True, out=True)
    p.add_argument("graph")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("gen", help="seeded instance generators with certificates")
    p.add_argument("--class", dest="klass", required=True, choices=tuple(_GENERATORS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--d", type=int, help="modulator size for *-modulator classes")
    p.add_argument("--cliques", help="explicit clique sizes, e.g. 3,1,2 (cluster)")
    p.add_argument("--out", type=_out_stem,
                   help="artifact path stem (default: <class>-n<n>-s<seed>)")
    p.set_defaults(func=_cmd_gen)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    report = RunReport()
    report.add("command", " ".join(["cfcolor"] + argv))
    start = time.perf_counter()
    try:
        code = args.func(args, report)
    except SizeGuardError as exc:
        report.add("error", str(exc))
        code = 3
    except SelfCheckError as exc:
        report.add("error", str(exc))
        code = 4
    except (GraphFormatError, OSError, ValueError) as exc:
        report.add("error", str(exc))
        code = 2
    except Exception as exc:  # any other failure is a defect, not a NO
        report.add("error", f"{type(exc).__name__}: {exc}")
        code = 5
    report.add("time_ms", f"{(time.perf_counter() - start) * 1000:.1f}")
    print(report.render())
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
