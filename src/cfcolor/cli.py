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

`solve` goes through one ordered table of constructive strategies,
each with the variants it handles, an applicability test and a runner
that takes the variant.  `--strategy X` runs X's entry and refuses
(exit 2) when it does not apply.  `--strategy auto` walks the table in
order and runs the first entry that applies: split CF-CN, bipartite
CF-CN, cograph, interval when a representation is supplied, then the
smaller computed modulator (cluster -> lemma1 few-color bound,
threshold -> additive approximation; ties prefer cluster, so the
threshold search runs only below the cluster modulator's size); otherwise
the exact oracle when the instance fits under the guard, otherwise
refusal.  `fpt` decides rather than constructs and is its own branch.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .graph import Graph, GraphFormatError, SizeGuardError, parse_graph, write_graph
from .coloring import (EXACT, INFEASIBLE, VARIANT_CN, VARIANTS, Coloring, SelfCheckError,
                       SolveOutcome, checked, feasible, parse_coloring, verify, write_coloring)
from .oracle import DEFAULT_LIMIT, decide_cf, exact_cf
from .graphclasses import (
    MDNode,
    Modulator,
    cluster_modulator,
    is_bipartite,
    is_cograph,
    is_split,
    recognize,
    threshold_modulator,
)
from .polysolve import (
    lemma1_cfcn,
    lemma1_cfon,
    solve_bipartite_cfcn,
    solve_cograph,
    solve_split_cfcn,
)
from .interval import parse_intervals, write_intervals, cfcn_interval, cfon_interval
from .fpt import (
    approx_cfcn_threshold,
    approx_cfon_threshold,
    kernel_size_bound,
    kernelize,
    provenance,
    solve_via_kernel,
)
from .hardness import cross_validate, encode
from .generators import GenSpec, gen

DEFAULT_BUDGET = 6


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


def _load_coloring(path_str: str, g: Graph, report: RunReport) -> Coloring:
    return parse_coloring(_read_input(path_str, "input_coloring", report), g)


def _load_intervals(path_str: str, g: Graph, report: RunReport):
    return parse_intervals(_read_input(path_str, "input_intervals", report), g.n)


def _emit(path: Path, text: str, report: RunReport, key: str) -> None:
    path.write_text(text)
    report.add(key, str(path))


def _stem(args) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    return Path(args.graph).with_suffix("")


def _limit(value: int) -> int | None:
    return None if value <= 0 else value


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


def _find_modulator(g: Graph, residual: str, budget: int) -> Modulator | None:
    """The searched modulator of the `residual` class; the finder is
    looked up when this runs, not bound at import."""
    finder = cluster_modulator if residual == "cluster" else threshold_modulator
    return finder(g, budget)


def _parse_modulator(g: Graph, spec: str, residual: str, budget: int, report: RunReport) -> Modulator:
    """`auto` searches within the budget; otherwise a comma-separated
    vertex list is trusted (the solvers re-validate the residual).  The
    modulator goes into the report."""
    if spec == "auto":
        m = _find_modulator(g, residual, budget)
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
    report.add("modulator", " ".join(map(str, m.vertices)) or "(empty)")
    return m


# --- subcommands -----------------------------------------------------------


def _cmd_verify(args, report: RunReport) -> int:
    g = _load_graph(args.graph, report)
    coloring = _load_coloring(args.coloring, g, report)
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
    stem = _stem(args)
    if args.k is not None:
        yes, witness = decide_cf(g, args.variant, args.k, limit=limit)
        report.add("decision", "yes" if yes else "no")
        if not yes:
            return 1
        report.add("colors_used", witness.num_colors)
        _emit(stem.with_suffix(f".{args.variant}.col"), write_coloring(witness), report, "witness_file")
        return 0
    result = exact_cf(g, args.variant, limit=limit)
    if result.infeasible:
        report.add("chromatic", "infeasible")
        report.add("reason", INFEASIBLE)
        return 1
    report.add("chromatic", result.chromatic)
    _emit(stem.with_suffix(f".{args.variant}.col"), write_coloring(result.witness), report, "witness_file")
    return 0


# The constructive strategies in `auto` ladder order: name -> (variants,
# refusal, runner(g, certificate, variant)).  A runner names its solver
# in its body, so the solver is looked up when it runs, not at import.
_STRATEGIES = {
    "split": ((VARIANT_CN,), "the graph is not split", lambda g, cert, v: solve_split_cfcn(g, cert)),
    "bipartite": ((VARIANT_CN,), "the graph is not bipartite",
                  lambda g, cert, v: solve_bipartite_cfcn(g, cert)),
    "cograph": (VARIANTS, "the graph is not a cograph", lambda g, cert, v: solve_cograph(g, cert, v)),
    "interval": (VARIANTS, "the interval strategy needs --intervals",
                 lambda g, cert, v: (cfcn_interval if v == VARIANT_CN else cfon_interval)(g, cert)),
    "lemma1": (VARIANTS, None,
               lambda g, cert, v: (lemma1_cfcn if v == VARIANT_CN else lemma1_cfon)(g, cert)),
    "approx": (VARIANTS, None, lambda g, cert, v: (
        approx_cfcn_threshold if v == VARIANT_CN else approx_cfon_threshold)(g, cert)),
}


def _certificate(name: str, g: Graph, rep, args, report: RunReport, smallest):
    """Whether strategy `name` applies, and what it runs on.  An explicit
    lemma1 or approx reads --modulator and reports it; under `auto` each
    applies when `smallest()` is of its residual class."""
    if name in ("split", "bipartite", "cograph"):
        return {"split": is_split, "bipartite": is_bipartite, "cograph": is_cograph}[name](g)
    if name == "interval":
        return rep is not None, rep
    residual = "cluster" if name == "lemma1" else "threshold"
    if args.strategy == "auto":
        m = smallest()
        return m is not None and m.residual_class == residual, m
    return True, _parse_modulator(g, args.modulator, residual, args.budget, report)


def _solve(g: Graph, args, rep, limit, report: RunReport) -> tuple[str, SolveOutcome]:
    """Run the --strategy entry, raising its refusal, or walk the table
    under `auto`, skipping what does not apply; the oracle comes last."""

    @functools.cache
    def smallest():  # the smaller modulator, ties prefer cluster; searched once
        cluster = cluster_modulator(g, args.budget)
        if cluster is not None and not cluster.vertices:
            return cluster
        # only a strictly smaller threshold modulator can win
        threshold = threshold_modulator(
            g, args.budget if cluster is None else len(cluster.vertices) - 1)
        return threshold if threshold is not None else cluster

    if args.strategy in _STRATEGIES:
        variants, refusal, runner = _STRATEGIES[args.strategy]
        if args.variant not in variants:
            raise ValueError(f"the {args.strategy} strategy handles only --variant cn" + (
                "; the open variant on split graphs is as hard as graph coloring (see gadget)"
                if args.strategy == "split" else ""))
        ok, cert = _certificate(args.strategy, g, rep, args, report, smallest)
        if not ok:
            raise ValueError(refusal)
        return args.strategy, runner(g, cert, args.variant)
    if args.strategy == "auto":
        for name, (variants, _, runner) in _STRATEGIES.items():
            if args.variant in variants:
                ok, cert = _certificate(name, g, rep, args, report, smallest)
                if ok:
                    return name, runner(g, cert, args.variant)
        if limit is not None and g.n > limit:
            raise SizeGuardError(
                f"no polynomial strategy applies and {g.n} vertices exceed the oracle guard ({limit})"
            )
    result = exact_cf(g, args.variant, limit=limit)
    return "oracle", SolveOutcome(result.witness, result.chromatic, EXACT, "exhaustive search")


def _cmd_solve(args, report: RunReport) -> int:
    g = _load_graph(args.graph, report)
    rep = _load_intervals(args.intervals, g, report) if args.intervals else None
    limit = _limit(args.limit)
    if not feasible(g, args.variant):
        report.add("result", "infeasible")
        report.add("reason", INFEASIBLE)
        return 1

    if args.strategy == "fpt":
        if args.k is None:
            raise ValueError("the fpt strategy needs --k")
        m = _parse_modulator(g, args.modulator, "cluster", args.budget, report)
        decision = solve_via_kernel(g, m, args.k, args.variant, limit=limit)
        report.add("strategy", "fpt")
        report.add("decision", "yes" if decision.yes else "no")
        if decision.note:
            report.add("note", decision.note)
        if not decision.yes:
            return 1
        report.add("colors_used", decision.witness.num_colors)
        _emit(
            _stem(args).with_suffix(f".{args.variant}.col"),
            write_coloring(decision.witness),
            report,
            "coloring_file",
        )
        return 0

    strategy, outcome = _solve(g, args, rep, limit, report)
    # free for a coloring its solver already checked (the verdict is kept
    # on the coloring); a solver that skipped its check is caught here
    checked(outcome.coloring, args.variant, "re-verification")
    report.add("strategy", strategy)
    report.add("colors_used", outcome.colors_used)
    report.add("optimality", outcome.optimality)
    if outcome.note:
        report.add("note", outcome.note)
    _emit(
        _stem(args).with_suffix(f".{args.variant}.col"),
        write_coloring(outcome.coloring),
        report,
        "coloring_file",
    )
    return 0


def _cmd_recognize(args, report: RunReport) -> int:
    g = _load_graph(args.graph, report)
    rr = recognize(g)
    report.add("labels", " ".join(sorted(rr.labels)) or "none")
    report.add("bipartite", "yes" if "bipartite" in rr.labels else "no")
    if rr.bipartition is not None:
        left, right = rr.bipartition
        report.add("bipartition_left", " ".join(map(str, left)))
        report.add("bipartition_right", " ".join(map(str, right)))
    report.add("cluster", "yes" if "cluster" in rr.labels else "no")
    if rr.cliques is not None:
        report.add("cliques", " | ".join(" ".join(map(str, c)) for c in rr.cliques))
    report.add("split", "yes" if "split" in rr.labels else "no")
    if rr.split_partition is not None:
        report.add("split_clique", " ".join(map(str, rr.split_partition.clique)))
        report.add("split_independent", " ".join(map(str, rr.split_partition.independent)))
    report.add("threshold", "yes" if "threshold" in rr.labels else "no")
    if rr.elimination_order is not None:
        report.add(
            "threshold_order",
            " ".join(f"{v}:{kind}" for v, kind in rr.elimination_order),
        )
    report.add("cograph", "yes" if "cograph" in rr.labels else "no")
    if rr.md_tree is not None:
        report.add("cograph_tree", _tree_sexp(rr.md_tree))
    return 0


def _cmd_modulator(args, report: RunReport) -> int:
    g = _load_graph(args.graph, report)
    m = _find_modulator(g, args.klass, args.budget)
    if m is None:
        report.add("modulator", "none")
        return 1
    report.add("modulator", " ".join(map(str, m.vertices)) or "(empty)")
    report.add("size", len(m.vertices))
    report.add("residual", m.residual_class)
    return 0


def _cmd_kernelize(args, report: RunReport) -> int:
    g = _load_graph(args.graph, report)
    m = _parse_modulator(g, args.modulator, "cluster", args.budget, report)
    inst = kernelize(g, m, args.k, args.variant)
    stem = _stem(args)
    report.add("kernel_vertices", inst.graph.n)
    report.add("kernel_edges", inst.graph.m)
    report.add("size_bound", kernel_size_bound(len(m.vertices), args.k, args.variant))
    if inst.short_circuit is not None:
        report.add("short_circuit", "yes")
        report.add("colors_used", inst.short_circuit.colors_used)
        _emit(
            stem.with_suffix(f".{args.variant}.col"),
            write_coloring(inst.short_circuit.coloring),
            report,
            "witness_file",
        )
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


def _cmd_gen(args, report: RunReport) -> int:
    cliques = None
    if args.cliques:
        cliques = tuple(int(tok) for tok in args.cliques.split(",") if tok.strip())
    spec = GenSpec(tag=args.klass, n=args.n, seed=args.seed, d=args.d, cliques=cliques)
    result = gen(spec)
    stem = Path(args.out) if args.out else Path(
        f"{args.klass}-n{args.n}-s{args.seed}" + (f"-d{args.d}" if args.d is not None else "")
    )
    report.add("vertices", result.graph.n)
    report.add("edges", result.graph.m)
    _emit(stem.with_suffix(".cf"), write_graph(result.graph), report, "graph_file")
    if result.representation is not None:
        _emit(stem.with_suffix(".ivl"), write_intervals(result.representation), report, "intervals_file")
    cert_lines: list[str] = []
    if result.cliques is not None:
        cert_lines += ["clique " + " ".join(map(str, c)) for c in result.cliques]
    if result.creation is not None:
        cert_lines += [f"step {v} {kind}" for v, kind in result.creation]
    if result.partition is not None:
        cert_lines.append("clique " + " ".join(map(str, result.partition.clique)))
        cert_lines.append("independent " + " ".join(map(str, result.partition.independent)))
    if result.modulator is not None:
        cert_lines.append("modulator " + " ".join(map(str, result.modulator.vertices)))
        cert_lines.append(f"residual {result.modulator.residual_class}")
    if cert_lines:
        _emit(stem.with_suffix(".cert"), "\n".join(cert_lines) + "\n", report, "certificate_file")
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
            p.add_argument("--out", help="artifact path stem (default: input stem)")

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
        choices=("auto", *_STRATEGIES, "fpt", "oracle"),
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
    p.add_argument("--class", dest="klass", required=True,
                   choices=("cluster", "threshold", "split", "interval",
                            "cluster-modulator", "threshold-modulator"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--d", type=int, help="modulator size for *-modulator classes")
    p.add_argument("--cliques", help="explicit clique sizes, e.g. 3,1,2 (cluster)")
    p.add_argument("--out", help="artifact path stem (default: <class>-n<n>-s<seed>)")
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
