"""End-to-end CLI behavior: exit codes, report shape, artifacts."""

import hashlib
import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cfcolor
from cfcolor.cli import build_parser, dispatch
from cfcolor.coloring import VARIANT_CN, Coloring, parse_coloring, verify, write_coloring
from cfcolor.fpt import kernel_size_bound, kernelize, provenance
from cfcolor.generators import (random_cluster_modulator_instance, random_graph, random_split,
                                 random_threshold)
from cfcolor.graph import Graph, parse_graph, write_graph
from cfcolor.graphclasses import Modulator, is_bipartite, is_cograph, is_split
from cfcolor.polysolve import SolveOutcome, solve_split_cfcn

from smallgraphs import enumerate_small
from strategies import modulator_pin_graphs, stack_depth

P4 = "p cf 4 3\ne 0 1\ne 1 2\ne 2 3\n"
K3 = "p cf 3 3\ne 0 1\ne 0 2\ne 1 2\n"
C4 = "p cf 4 4\ne 0 1\ne 0 3\ne 1 2\ne 2 3\n"
C5 = "p cf 5 5\ne 0 1\ne 0 4\ne 1 2\ne 2 3\ne 3 4\n"
P4_INTERVALS = "i 0 0 2\ni 1 1 4\ni 2 3 6\ni 3 5 7\n"
GRAPHS = {"P4": P4, "C4": C4, "C5": C5}
TWO_ISOLATED = "p cf 2 0\n"
REPO_ROOT = Path(__file__).resolve().parent.parent


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(": ")
        pairs[key] = value
    return code, pairs, out


def test_version(capsys):
    assert dispatch(["--version"]) == 0
    assert "cfcolor 0.1.0" in capsys.readouterr().out


def test_usage_errors(capsys):
    assert dispatch(["frobnicate"]) == 2
    capsys.readouterr()
    assert dispatch(["verify", "a", "b"]) == 2  # --variant is required
    capsys.readouterr()


def test_report_is_key_value_lines(tmp_path, capsys):
    g = put(tmp_path, "p4.cf", P4)
    code, pairs, out = run(capsys, "recognize", g)
    assert code == 0
    for line in out.strip().splitlines():
        assert re.fullmatch(r"[a-z_0-9]+: .*", line), line
    assert pairs["command"].startswith("cfcolor recognize")
    assert "sha256=" in pairs["input_graph"]
    assert float(pairs["time_ms"]) >= 0


def test_reported_digest_is_of_the_parsed_bytes(tmp_path, capsys, monkeypatch):
    # each input file is rewritten right after its first read, as by a
    # concurrent writer: the sha256 in the report must still describe
    # the bytes that were parsed, so each file is read once
    originals = {
        "p4.cf": P4.replace("\n", "\r\n").encode(),  # CRLF decodes as read_text does
        "p4.ivl": P4_INTERVALS.encode(),
        "p4.col": b"v 0 0\nv 1 1\nv 2 1\nv 3 0\n",
    }
    later = {"p4.cf": C4, "p4.ivl": "i 0 0 1\ni 1 2 3\ni 2 4 5\ni 3 6 7\n",
             "p4.col": "v 0 0\nv 1 0\nv 2 0\nv 3 0\n"}
    paths = {}
    for name, data in originals.items():
        paths[name] = tmp_path / name
        paths[name].write_bytes(data)
    for method in ("read_bytes", "read_text"):
        original = getattr(Path, method)

        def read_then_rewrite(self, *args, _original=original, **kwargs):
            out = _original(self, *args, **kwargs)
            if self.name in later:
                self.write_text(later.pop(self.name))
            return out

        monkeypatch.setattr(Path, method, read_then_rewrite)

    def digest(name):
        return f"{paths[name]} sha256={hashlib.sha256(originals[name]).hexdigest()}"

    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--strategy", "interval",
                         "--intervals", str(paths["p4.ivl"]), "--out", str(tmp_path / "o"),
                         str(paths["p4.cf"]))
    assert code == 0 and pairs["strategy"] == "interval"
    assert pairs["input_graph"] == digest("p4.cf")
    assert pairs["input_intervals"] == digest("p4.ivl")
    paths["p4.cf"].write_bytes(originals["p4.cf"])
    later["p4.cf"] = C4
    code, pairs, _ = run(capsys, "verify", "--variant", "cn", str(paths["p4.cf"]),
                         str(paths["p4.col"]))
    assert code == 0 and pairs["verdict"] == "valid"
    assert pairs["input_graph"] == digest("p4.cf")
    assert pairs["input_coloring"] == digest("p4.col")


def test_verify_valid_and_invalid(tmp_path, capsys):
    g = put(tmp_path, "k3.cf", K3)
    good = put(tmp_path, "good.col", "v 0 0\nv 1 1\nv 2 1\n")
    bad = put(tmp_path, "bad.col", "v 0 0\nv 1 0\nv 2 0\n")
    code, pairs, _ = run(capsys, "verify", "--variant", "cn", g, good)
    assert code == 0 and pairs["verdict"] == "valid" and pairs["colors_used"] == "2"
    code, pairs, _ = run(capsys, "verify", "--variant", "on", g, bad)
    assert code == 1 and pairs["verdict"] == "invalid"
    assert "failing_vertex" in pairs and "reason" in pairs
    code, pairs, _ = run(capsys, "verify", "--variant", "cn", g, put(tmp_path, "trunc.col", "v 0 0\n"))
    assert code == 2 and "without a color" in pairs["error"]


def test_oversize_vertex_count_exits_2(tmp_path, capsys):
    # the header alone would have the reader allocate a list per vertex
    code, pairs, _ = run(capsys, "recognize", put(tmp_path, "huge.cf", "p cf 1000000000 0\n"))
    assert code == 2 and pairs["error"].startswith("line 1: header declares 1000000000 vertices")


def test_oracle_chromatic_and_witness(tmp_path, capsys):
    g = put(tmp_path, "k3.cf", K3)
    code, pairs, _ = run(capsys, "oracle", "--variant", "on", g)
    assert code == 0 and pairs["chromatic"] == "3"
    witness = pairs["witness_file"]
    assert witness.endswith("k3.on.col")
    code, pairs, _ = run(capsys, "verify", "--variant", "on", g, witness)
    assert code == 0 and pairs["colors_used"] == "3"


def test_oracle_decide(tmp_path, capsys):
    g = put(tmp_path, "k3.cf", K3)
    code, pairs, _ = run(capsys, "oracle", "--variant", "on", "--k", "2", g)
    assert code == 1 and pairs["decision"] == "no"
    code, pairs, _ = run(capsys, "oracle", "--variant", "on", "--k", "3", g)
    assert code == 0 and pairs["decision"] == "yes" and pairs["colors_used"] == "3"


def test_oracle_decide_budget_above_the_vertex_count(tmp_path, capsys):
    # the budget is cut to the vertex count, so no per-color state is sized by it
    g = put(tmp_path, "p4.cf", P4)
    code, pairs, _ = run(capsys, "oracle", "--variant", "cn", "--k", "1000000000000", g)
    assert code == 0 and pairs["decision"] == "yes" and pairs["colors_used"] == "2"


def test_oracle_infeasible(tmp_path, capsys):
    g = put(tmp_path, "iso.cf", TWO_ISOLATED)
    code, pairs, _ = run(capsys, "oracle", "--variant", "on", g)
    assert code == 1 and pairs["chromatic"] == "infeasible"


@pytest.mark.parametrize("text, k, key, value", [
    ("p cf 20 0\n", None, "chromatic", "infeasible"),  # above the guard: still infeasible
    ("p cf 20 0\n", "2", "decision", "no"),
    (TWO_ISOLATED, "2", "decision", "no"),
])
def test_oracle_infeasible_reported_before_the_guard(tmp_path, capsys, text, k, key, value):
    # the report solve gives: exit 1 with the one reason line, no witness
    g = put(tmp_path, "iso.cf", text)
    code, pairs, _ = run(capsys, "oracle", "--variant", "on", *(("--k", k) if k else ()), g)
    assert code == 1 and pairs[key] == value
    assert pairs["reason"] == "an isolated vertex leaves an open neighborhood empty"
    assert "error" not in pairs
    assert [p.name for p in tmp_path.iterdir()] == ["iso.cf"]
    code, pairs, _ = run(capsys, "solve", "--variant", "on", "--strategy", "oracle", g)
    assert code == 1 and pairs["result"] == "infeasible"


def test_oracle_guard(tmp_path, capsys):
    edges = "".join(f"e {i} {i + 1}\n" for i in range(16))
    g = put(tmp_path, "p17.cf", f"p cf 17 16\n{edges}")
    code, pairs, _ = run(capsys, "oracle", "--variant", "cn", g)
    assert code == 3 and "exceeds" in pairs["error"] or "above" in pairs["error"]
    code, pairs, _ = run(capsys, "oracle", "--variant", "cn", "--limit", "0", g)
    assert code == 0 and pairs["chromatic"] == "2"


def test_oracle_long_path_without_limit(tmp_path, capsys):
    # 1500 levels of search depth, beyond Python's recursion limit
    edges = "".join(f"e {i} {i + 1}\n" for i in range(1499))
    g = put(tmp_path, "p1500.cf", f"p cf 1500 1499\n{edges}")
    code, pairs, _ = run(capsys, "oracle", "--variant", "cn", "--limit", "0", g)
    assert code == 0 and pairs["chromatic"] == "2"
    code, pairs, _ = run(capsys, "verify", "--variant", "cn", g, pairs["witness_file"])
    assert code == 0 and pairs["colors_used"] == "2"


def test_solve_auto_p4_uses_split(tmp_path, capsys):
    g = put(tmp_path, "p4.cf", P4)
    code, pairs, _ = run(capsys, "solve", "--strategy", "auto", "--variant", "cn", g)
    assert code == 0
    assert pairs["strategy"] == "split"
    assert pairs["colors_used"] == "2"
    assert pairs["optimality"] == "exact"
    coloring = parse_coloring((tmp_path / "p4.cn.col").read_text(), parse_graph(P4))
    assert verify(coloring, "cn")


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_solve_auto_split_checks_the_partition_once(tmp_path, capsys, monkeypatch, seed):
    # is_split trusts the degree characterization, so the split solver's
    # clique and independence checks are the only two neighbourhood passes
    import cfcolor.graphclasses as graphclasses
    import cfcolor.polysolve as polysolve

    calls = []
    original = graphclasses.neighbours_inside

    def counted(g, vertices, inside):
        calls.append(g)
        return original(g, vertices, inside)

    monkeypatch.setattr(graphclasses, "neighbours_inside", counted)
    monkeypatch.setattr(polysolve, "neighbours_inside", counted)
    text = P4 if seed is None else write_graph(random_split(40, seed)[0])
    code, pairs, _ = run(capsys, "solve", "--strategy", "auto", "--variant", "cn",
                         put(tmp_path, "s.cf", text))
    assert code == 0 and pairs["strategy"] == "split"
    assert len(calls) == 2


def test_solve_auto_tiers(tmp_path, capsys):
    # C4: not split, bipartite wins under cn, cograph under on
    g = put(tmp_path, "c4.cf", C4)
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", g)
    assert code == 0 and pairs["strategy"] == "bipartite" and pairs["colors_used"] == "2"
    code, pairs, _ = run(capsys, "solve", "--variant", "on", g)
    assert code == 0 and pairs["strategy"] == "cograph"
    # C5: no exact class, cluster modulator tier
    c5 = put(tmp_path, "c5.cf", "p cf 5 5\ne 0 1\ne 0 4\ne 1 2\ne 2 3\ne 3 4\n")
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", c5)
    assert code == 0 and pairs["strategy"] == "lemma1"
    # budget 0 pushes C5 to the oracle tier
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--budget", "0", c5)
    assert code == 0 and pairs["strategy"] == "oracle" and pairs["optimality"] == "exact"


def test_solve_auto_refusal(tmp_path, capsys):
    edges = "".join(f"e {i} {i + 1}\n" for i in range(16)) + "e 0 16\n"
    g = put(tmp_path, "c17.cf", f"p cf 17 17\n{edges}")
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--budget", "0", g)
    assert code == 3 and "guard" in pairs["error"]


def test_solve_on_infeasible(tmp_path, capsys):
    g = put(tmp_path, "iso.cf", TWO_ISOLATED)
    code, pairs, _ = run(capsys, "solve", "--variant", "on", g)
    assert code == 1 and pairs["result"] == "infeasible"


def test_solve_strategy_mismatches(tmp_path, capsys):
    g = put(tmp_path, "p4.cf", P4)
    code, pairs, _ = run(capsys, "solve", "--variant", "on", "--strategy", "split", g)
    assert code == 2 and "only --variant cn" in pairs["error"]
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--strategy", "cograph", g)
    assert code == 2 and "not a cograph" in pairs["error"]
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--strategy", "interval", g)
    assert code == 2 and "--intervals" in pairs["error"]
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--strategy", "fpt", g)
    assert code == 2 and "--k" in pairs["error"]
    k3 = put(tmp_path, "k3.cf", K3)
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--strategy", "bipartite", k3)
    assert code == 2 and "not bipartite" in pairs["error"]


def test_solve_interval_strategy(tmp_path, capsys):
    g = put(tmp_path, "k2.cf", "p cf 2 1\ne 0 1\n")
    ivl = put(tmp_path, "k2.ivl", "i 0 0 2\ni 1 1 3\n")
    code, pairs, _ = run(capsys, "solve", "--variant", "on", "--strategy", "interval",
                         "--intervals", ivl, g)
    assert code == 0 and pairs["strategy"] == "interval"
    assert int(pairs["colors_used"]) <= 4


@pytest.mark.parametrize("variant", ["cn", "on"])
def test_solve_disconnected_interval_graph(tmp_path, capsys, variant):
    # P4 and K3 side by side: no rung above interval takes P4 + K3, and
    # the sweep answers each component
    g = put(tmp_path, "g.cf", "p cf 7 6\ne 0 1\ne 1 2\ne 2 3\ne 4 5\ne 4 6\ne 5 6\n")
    ivl = put(tmp_path, "g.ivl", P4_INTERVALS + "i 4 10 14\ni 5 11 15\ni 6 12 16\n")
    code, pairs, _ = run(capsys, "solve", "--variant", variant, "--intervals", ivl, g)
    assert code == 0 and pairs["strategy"] == "interval"
    assert int(pairs["colors_used"]) <= 4


@pytest.mark.parametrize(
    "strategy,graph,variant",
    [
        ("lemma1", "C5", "cn"),
        ("lemma1", "C5", "on"),
        ("approx", "P4", "cn"),
        ("approx", "C5", "on"),
        ("cograph", "C4", "cn"),
        ("cograph", "C4", "on"),
        ("oracle", "P4", "cn"),
        ("oracle", "C5", "on"),
    ],
)
def test_solve_explicit_strategies(tmp_path, capsys, strategy, graph, variant):
    g = put(tmp_path, "g.cf", GRAPHS[graph])
    code, pairs, _ = run(capsys, "solve", "--variant", variant, "--strategy", strategy, g)
    assert code == 0 and pairs["strategy"] == strategy
    assert ("modulator" in pairs) == (strategy in ("lemma1", "approx"))
    coloring = parse_coloring((tmp_path / f"g.{variant}.col").read_text(), parse_graph(GRAPHS[graph]))
    assert verify(coloring, variant)
    assert pairs["colors_used"] == str(coloring.num_colors)


def test_solve_fpt_decisions(tmp_path, capsys):
    g = put(tmp_path, "p4.cf", P4)
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--strategy", "fpt",
                         "--k", "1", "--modulator", "1", g)
    assert code == 1 and pairs["decision"] == "no"
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--strategy", "fpt",
                         "--k", "2", "--modulator", "1", g)
    assert code == 0 and pairs["decision"] == "yes" and pairs["colors_used"] == "2"
    coloring = parse_coloring((tmp_path / "p4.cn.col").read_text(), parse_graph(P4))
    assert verify(coloring, "cn")


@pytest.mark.parametrize("text,modulator,kernel_vertices,note", [
    # neither rule deletes a vertex of P4: the kernel is the graph itself
    (P4, "1", "4", "kernel is the whole graph; witness not lifted"),
    # three of the star's five leaf cliques are deleted and lifted back
    ("p cf 6 5\n" + "".join(f"e 0 {v}\n" for v in range(1, 6)), "0", "3",
     "lifted kernel witness"),
])
def test_solve_fpt_note_says_whether_the_witness_was_lifted(
        tmp_path, capsys, text, modulator, kernel_vertices, note):
    g = put(tmp_path, "g.cf", text)
    code, pairs, _ = run(capsys, "kernelize", "--variant", "cn", "--k", "2",
                         "--modulator", modulator, g)
    assert code == 0 and pairs["kernel_vertices"] == kernel_vertices
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--strategy", "fpt",
                         "--k", "2", "--modulator", modulator, g)
    assert code == 0 and pairs["decision"] == "yes" and pairs["note"] == note


def test_solve_modulator_arg_errors(tmp_path, capsys):
    g = put(tmp_path, "p4.cf", P4)
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--strategy", "lemma1",
                         "--modulator", "1,junk", g)
    assert code == 2 and "comma-separated" in pairs["error"]
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--strategy", "lemma1",
                         "--modulator", "9", g)
    assert code == 2 and "out of range" in pairs["error"]


def test_recognize_certificates(tmp_path, capsys):
    g = put(tmp_path, "p4.cf", P4)
    code, pairs, _ = run(capsys, "recognize", g)
    assert code == 0
    assert pairs["labels"] == "bipartite split"
    assert pairs["split_clique"] == "1 2"
    assert pairs["bipartition_left"] == "0 2"
    assert pairs["cograph"] == "no"
    assert "prime" in pairs["cograph_tree"]


def _sexp_reference(node):
    if node.kind == "leaf":
        return str(node.vertex)
    return "(" + " ".join([node.kind] + [_sexp_reference(c) for c in node.children]) + ")"


def test_recognize_deep_cotree_without_recursion(tmp_path, capsys):
    # the cotree of a random threshold graph on 400 vertices is about
    # 200 levels deep; recognize must print it with 100 frames to spare
    g = random_threshold(400, 1)[0]
    want = _sexp_reference(is_cograph(g)[1])
    path = put(tmp_path, "t.cf", write_graph(g))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        code = dispatch(["recognize", path])
    finally:
        sys.setrecursionlimit(old)
    pairs = dict(line.partition(": ")[::2] for line in capsys.readouterr().out.splitlines())
    assert code == 0 and pairs["cograph"] == "yes"
    assert pairs["cograph_tree"] == want


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_dispatch_in_process_matches_fresh_processes(tmp_path, capsys):
    # the cached parser must carry nothing from one call to the next
    g = put(tmp_path, "c5.cf", C5)
    calls = [
        ["solve", "--variant", "on", "--strategy", "lemma1", "--modulator", "0,2", "--limit", "3", g],
        ["solve", "--variant", "cn", g],
        ["recognize", g],
        ["solve", "--variant", "cn", "--strategy", "split", g],
    ]

    def report(out):
        return [line for line in out.splitlines() if not line.startswith("time_ms:")]

    in_process = []
    for argv in calls:
        code = dispatch(argv)
        in_process.append((code, report(capsys.readouterr().out)))
    env = dict(os.environ, PYTHONPATH=str(Path(cfcolor.__file__).resolve().parent.parent))
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-c", "from cfcolor.cli import main; main()", *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        fresh.append((proc.returncode, report(proc.stdout)))
    assert in_process == fresh
    assert [code for code, _ in fresh] == [0, 0, 0, 2]


def test_python_dash_m_matches_dispatch(tmp_path, capsys):
    # `python -m cfcolor` from a checkout, without an install, runs main()
    g = put(tmp_path, "c5.cf", C5)
    iso = put(tmp_path, "iso.cf", TWO_ISOLATED)
    calls = [["--version"], ["recognize", g], ["oracle", "--variant", "on", iso],
             ["solve", "--variant", "cn", "--strategy", "split", g]]

    def report(out):
        return [line for line in out.splitlines() if not line.startswith("time_ms:")]

    in_process = []
    for argv in calls:
        code = dispatch(argv)
        in_process.append((code, report(capsys.readouterr().out)))
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "cfcolor", *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        fresh.append((proc.returncode, report(proc.stdout)))
    assert fresh == in_process
    assert [code for code, _ in fresh] == [0, 0, 1, 2]


@pytest.mark.parametrize("module", ["cfcolor", "cfcolor.cli"])
def test_python_dash_m_version(tmp_path, module):
    # `python -m cfcolor.cli` runs main() as `python -m cfcolor` does
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", module, "--version"],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (0, "cfcolor 0.1.0\n")


def test_modulator_found_and_missing(tmp_path, capsys):
    g = put(tmp_path, "p4.cf", P4)
    code, pairs, _ = run(capsys, "modulator", "--class", "cluster", "--budget", "2", g)
    assert code == 0 and pairs["modulator"] == "1" and pairs["residual"] == "cluster"
    code, pairs, _ = run(capsys, "modulator", "--class", "cluster", "--budget", "0", g)
    assert code == 1 and pairs["modulator"] == "none"


def test_kernelize_artifacts(tmp_path, capsys):
    g = put(tmp_path, "p4.cf", P4)
    code, pairs, _ = run(capsys, "kernelize", "--variant", "cn", "--k", "2",
                         "--modulator", "1", g)
    assert code == 0 and pairs["short_circuit"] == "no"
    kernel = parse_graph((tmp_path / "p4.kernel.cf").read_text())
    inst = kernelize(parse_graph(P4), Modulator((1,), "cluster"), 2, VARIANT_CN)
    assert kernel == inst.graph
    prov = (tmp_path / "p4.prov").read_text().strip()
    assert prov == "\n".join(provenance(inst)).strip()
    assert int(pairs["kernel_vertices"]) <= int(pairs["size_bound"])


def test_kernelize_prints_a_large_size_bound_as_its_formula(tmp_path, capsys):
    # at d = 13 and cap 3 the bound has 4938 digits, more than Python
    # prints; the report gives its formula, and both artifacts are written
    g, m = random_cluster_modulator_instance(40, 13, 1)
    path = put(tmp_path, "g.cf", write_graph(g))
    code, pairs, _ = run(capsys, "kernelize", "--variant", "cn", "--k", "2",
                         "--modulator", ",".join(map(str, m.vertices)), path)
    assert code == 0 and "error" not in pairs
    assert pairs["size_bound"] == "13 + 4^(2^13) * 14 * 2^13 * 3"
    inst = kernelize(g, m, 2, VARIANT_CN)
    assert parse_graph((tmp_path / "g.kernel.cf").read_text()) == inst.graph
    assert (tmp_path / "g.prov").read_text() == "\n".join(provenance(inst)) + "\n"
    # below 4000 digits the bound stays an integer
    g, m = random_cluster_modulator_instance(30, 12, 1)
    path = put(tmp_path, "h.cf", write_graph(g))
    code, pairs, _ = run(capsys, "kernelize", "--variant", "cn", "--k", "2",
                         "--modulator", ",".join(map(str, m.vertices)), path)
    assert code == 0 and int(pairs["size_bound"]) == kernel_size_bound(12, 2, VARIANT_CN)


@pytest.mark.parametrize("variant,bound", [
    ("cn", "1 + (k+2)^(2^1) * 2 * 2^1 * (k+1)"),
    ("on", "1 + (2k+2)^(2^1) * 2 * 2^1 * (2k+1)"),
])
def test_kernelize_huge_k_prints_the_cap_as_a_formula(tmp_path, capsys, variant, bound):
    # a k of 4300 digits gives a cap past the digits Python prints: the
    # size bound names it by formula, and every artifact is written
    g = put(tmp_path, "p4.cf", P4)
    code, pairs, _ = run(capsys, "kernelize", "--variant", variant, "--k", "9" * 4300,
                         "--modulator", "1", g)
    assert code == 0 and "error" not in pairs
    assert pairs["size_bound"] == bound
    names = {p.name for p in tmp_path.iterdir()}
    assert {"p4.kernel.cf", "p4.prov", f"p4.{variant}.col"} <= names
    assert pairs["witness_file"] == str(tmp_path / f"p4.{variant}.col")


def test_kernelize_short_circuit(tmp_path, capsys):
    g = put(tmp_path, "k3.cf", K3)
    code, pairs, _ = run(capsys, "kernelize", "--variant", "cn", "--k", "2",
                         "--modulator", "", g)
    assert code == 0 and pairs["short_circuit"] == "yes"
    coloring = parse_coloring((tmp_path / "k3.cn.col").read_text(), parse_graph(K3))
    assert verify(coloring, "cn")


@pytest.mark.parametrize("text", ["p cf 3 1\ne 0 1\n", TWO_ISOLATED])
def test_kernelize_on_infeasible(tmp_path, capsys, text):
    # the report solve and oracle give: exit 1 before any modulator search,
    # and no kernel, provenance or coloring written
    g = put(tmp_path, "g.cf", text)
    code, pairs, _ = run(capsys, "kernelize", "--variant", "on", "--k", "2", g)
    assert code == 1 and pairs["result"] == "infeasible"
    assert pairs["reason"] == "an isolated vertex leaves an open neighborhood empty"
    assert "modulator" not in pairs and "error" not in pairs
    assert [p.name for p in tmp_path.iterdir()] == ["g.cf"]
    code, pairs, _ = run(capsys, "kernelize", "--variant", "cn", "--k", "2", g)
    assert code == 0 and pairs["short_circuit"] == "yes"


def test_gadget_encode_and_validate(tmp_path, capsys):
    g = put(tmp_path, "k3.cf", K3)
    code, pairs, _ = run(capsys, "gadget", "encode", "--k", "3", g)
    assert code == 0
    assert pairs["gadget_vertices"] == "15" and pairs["gadget_edges"] == "30"
    h = parse_graph((tmp_path / "k3.gadget.cf").read_text())
    assert h.n == 15
    lines = (tmp_path / "k3.map").read_text().strip().splitlines()
    assert lines[0] == "x 3" and lines[1] == "y 4"
    assert lines[2] == "slot 5 0 1" and len(lines) == 12
    code, pairs, _ = run(capsys, "gadget", "validate", "--k", "3", g)
    assert code == 0 and pairs["match"] == "yes"
    assert pairs["source_colorable"] == "yes" and pairs["gadget_colorable"] == "yes"
    # K4 is a no on both sides once the guard is lifted
    k4 = put(tmp_path, "k4.cf", "p cf 4 6\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n")
    code, pairs, _ = run(capsys, "gadget", "validate", "--k", "3", "--limit", "0", k4)
    assert code == 0 and pairs["match"] == "yes"
    assert pairs["source_colorable"] == "no" and pairs["gadget_colorable"] == "no"
    code, pairs, _ = run(capsys, "gadget", "validate", "--k", "3", k4)
    assert code == 3  # 18-vertex gadget trips the default guard


def test_gadget_validate_refuses_long_path(tmp_path, capsys):
    # the 6002-vertex gadget is refused by the guard, not by a crash in
    # the source's coloring
    text = "p cf 1500 1499\n" + "".join(f"e {i} {i + 1}\n" for i in range(1499))
    path = put(tmp_path, "path.cf", text)
    code, pairs, _ = run(capsys, "gadget", "validate", "--k", "3", path)
    assert code == 3
    assert "6002 vertices" in pairs["error"]


def test_gadget_encode_errors(tmp_path, capsys):
    g = put(tmp_path, "k3.cf", K3)
    code, pairs, _ = run(capsys, "gadget", "encode", "--k", "2", g)
    assert code == 2 and "k >= 3" in pairs["error"]


def test_gen_writes_certificates(tmp_path, capsys):
    out = str(tmp_path / "cl")
    code, pairs, _ = run(capsys, "gen", "--class", "cluster", "--n", "8", "--seed", "1",
                         "--out", out)
    assert code == 0
    assert parse_graph((tmp_path / "cl.cf").read_text()).n == 8
    assert all(line.startswith("clique ") for line in (tmp_path / "cl.cert").read_text().strip().splitlines())
    out = str(tmp_path / "iv")
    code, pairs, _ = run(capsys, "gen", "--class", "interval", "--n", "5", "--seed", "2",
                         "--out", out)
    assert code == 0 and (tmp_path / "iv.ivl").exists()
    out = str(tmp_path / "cm")
    code, pairs, _ = run(capsys, "gen", "--class", "cluster-modulator", "--n", "9",
                         "--seed", "3", "--d", "2", "--out", out)
    assert code == 0
    cert = (tmp_path / "cm.cert").read_text()
    assert "modulator " in cert and "residual cluster" in cert


def test_gen_determinism(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run(capsys, "gen", "--class", "split", "--n", "9", "--seed", "5", "--out", a)
    run(capsys, "gen", "--class", "split", "--n", "9", "--seed", "5", "--out", b)
    assert (tmp_path / "a.cf").read_text() == (tmp_path / "b.cf").read_text()
    assert (tmp_path / "a.cert").read_text() == (tmp_path / "b.cert").read_text()


def test_gen_missing_d(tmp_path, capsys):
    code, pairs, _ = run(capsys, "gen", "--class", "threshold-modulator", "--n", "8",
                         "--seed", "1")
    assert code == 2 and "needs d" in pairs["error"]
    code, pairs, _ = run(capsys, "gen", "--class", "cluster-modulator", "--n", "8", "--seed", "1",
                         "--out", str(tmp_path / "g"))
    assert code == 2 and pairs["error"] == "cluster-modulator needs d"
    assert list(tmp_path.iterdir()) == []  # refused before any artifact


@pytest.mark.parametrize("klass", ["split", "threshold", "interval"])
def test_gen_refuses_empty(klass, capsys):
    code, pairs, _ = run(capsys, "gen", "--class", klass, "--n", "0", "--seed", "1")
    assert code == 2 and pairs["error"] == "need n >= 1"


def test_gen_cluster_refuses_negative_n(capsys):
    code, pairs, _ = run(capsys, "gen", "--class", "cluster", "--n", "-3", "--seed", "1")
    assert code == 2 and pairs["error"] == "need n >= 0"


# --- artifact writes ---------------------------------------------------------

_ARTIFACT = "v 0 1\nv 1 0\nv 2 0\n"


@pytest.mark.parametrize("old", [_ARTIFACT * 3, _ARTIFACT[:6], _ARTIFACT.upper(), None],
                         ids=["longer", "shorter", "same-length", "absent"])
def test_emit_rewrites_in_place(tmp_path, monkeypatch, old):
    # `_emit` leaves the bytes `Path.write_text` leaves, keeps the inode
    # of the file it rewrites, creates with write_text's mode, and never
    # opens with O_TRUNC, whose freeing of the old blocks is its cost
    import cfcolor.cli as cli

    path, sibling = tmp_path / "g.cn.col", tmp_path / "sibling.col"
    flags = []

    def recording_open(file, flag, *rest):
        flags.append(flag)
        return real_open(file, flag, *rest)

    real_open = os.open
    monkeypatch.setattr(cli.os, "open", recording_open)
    umask = os.umask(0o027)
    try:
        if old is not None:
            path.write_text(old)
            sibling.write_text(old)
        inode = path.stat().st_ino if old is not None else None
        report = cli.RunReport()
        cli._emit(path, _ARTIFACT, report, "coloring_file")
        sibling.write_text(_ARTIFACT)
    finally:
        os.umask(umask)
    assert path.read_bytes() == sibling.read_bytes() == _ARTIFACT.encode()
    assert report.lines == [("coloring_file", str(path))]
    assert inode in (None, path.stat().st_ino)
    assert path.stat().st_mode == sibling.stat().st_mode
    assert flags and not any(flag & os.O_TRUNC for flag in flags)


def test_emit_errors_pinned(tmp_path, capsys, monkeypatch):
    # a missing directory and a directory at the artifact path exit 2
    # with the error lines `Path.write_text` gave
    monkeypatch.chdir(tmp_path)
    put(tmp_path, "g.cf", P4)
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--out", "nodir/x", "g.cf")
    assert (code, pairs["error"]) == (2, "[Errno 2] No such file or directory: 'nodir/x.cn.col'")
    (tmp_path / "g.cn.col").mkdir()
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "g.cf")
    assert (code, pairs["error"]) == (2, "[Errno 21] Is a directory: 'g.cn.col'")


def test_gen_rewrite_shrinks_artifacts(tmp_path, capsys):
    out = str(tmp_path / "s")
    for n in ("10", "5"):
        code, _, _ = run(capsys, "gen", "--class", "threshold", "--n", n, "--seed", "1",
                         "--out", out)
        assert code == 0
    assert (tmp_path / "s.cf").read_text() == write_graph(random_threshold(5, 1)[0])
    assert len((tmp_path / "s.cert").read_text().splitlines()) == 5


def test_solve_rewrite_with_another_strategy(tmp_path, capsys):
    # the artifact name does not carry the strategy, so the second solve
    # rewrites the first one's coloring, which differs from its own
    g = put(tmp_path, "k3.cf", K3)
    run(capsys, "solve", "--variant", "cn", "--strategy", "oracle", g)
    first = (tmp_path / "k3.cn.col").read_text()
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--strategy", "auto", g)
    assert code == 0 and pairs["strategy"] == "split"
    k3 = parse_graph(K3)
    want = solve_split_cfcn(k3, is_split(k3)[1]).coloring
    assert write_coloring(want) != first
    assert parse_coloring((tmp_path / "k3.cn.col").read_text(), k3) == want


@pytest.mark.parametrize("argv", [
    ["solve", "--variant", "cn"],
    ["oracle", "--variant", "cn"],
    ["kernelize", "--variant", "cn", "--k", "2"],
    ["gadget", "encode", "--k", "3"],
    ["gen", "--class", "split", "--n", "4", "--seed", "1"],
], ids=["solve", "oracle", "kernelize", "gadget-encode", "gen"])
def test_out_without_file_name_refused(tmp_path, capsys, monkeypatch, argv):
    # refused by the parser, before the input is read or anything is
    # written; `..` once wrote a hidden `...cn.col` here
    monkeypatch.chdir(tmp_path)
    graph = [] if argv[0] == "gen" else [put(tmp_path, "p4.cf", P4)]
    for out in (".", "/", "..", "a/.."):
        assert dispatch([*argv, "--out", out, *graph]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument --out: must end in a file name, got {out!r}" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == [Path(p).name for p in graph]


@pytest.mark.parametrize("argv, want", [
    (["solve", "--variant", "cn", "--strategy", "approx"],
     {"strategy": "approx", "colors_used": "0", "optimality": "exact"}),
    (["solve", "--variant", "on", "--strategy", "approx"],
     {"strategy": "approx", "colors_used": "0", "optimality": "exact"}),
    (["solve", "--variant", "cn", "--strategy", "fpt", "--k", "1"],
     {"strategy": "fpt", "decision": "yes", "colors_used": "0"}),
    (["solve", "--variant", "on", "--strategy", "fpt", "--k", "1"],
     {"strategy": "fpt", "decision": "yes", "colors_used": "0"}),
    (["kernelize", "--variant", "cn", "--k", "1"],
     {"kernel_vertices": "0", "kernel_edges": "0", "short_circuit": "no"}),
    (["kernelize", "--variant", "on", "--k", "1"],
     {"kernel_vertices": "0", "kernel_edges": "0", "short_circuit": "no"}),
])
def test_empty_graph_answered(tmp_path, capsys, argv, want):
    # `p cf 0 0` gets the outcome lemma1, cograph and the oracle give it
    code, pairs, _ = run(capsys, *argv, put(tmp_path, "empty.cf", "p cf 0 0\n"))
    assert code == 0 and "error" not in pairs
    assert {key: pairs.get(key) for key in want} == want


def _hash_run(h, capsys, argv):
    """Feed the exit code and the report into `h`, without the lines
    that vary from run to run (timing, command echo, input path and
    digest) and with each artifact's bytes in place of its path."""
    h.update(f"exit {dispatch(argv)}\n".encode())
    for line in capsys.readouterr().out.splitlines():
        key, _, value = line.partition(": ")
        if key in ("time_ms", "command", "input_graph"):
            continue
        h.update(f"{key}\n".encode())
        h.update(Path(value).read_bytes() if key.endswith("_file") else f"{value}\n".encode())


def test_recognize_and_gen_output_pinned(tmp_path, capsys):
    # sha256 over `recognize` reports on every connected graph with at
    # most 5 vertices, the empty and an edgeless graph, 2K3 and seeded
    # G(n, p), disconnected threshold and split graphs, and over `gen`
    # reports and artifacts for every class, seeds 0-2, with no option,
    # --d 2 and --cliques 3,1,2; as computed when `recognize` and `gen`
    # went through library dispatch functions
    texts = [write_graph(g) for n in range(1, 6) for g in enumerate_small(n)]
    texts += ["p cf 0 0\n", "p cf 4 0\n", write_graph(Graph(6, [(0, 1), (0, 2), (1, 2),
                                                                (3, 4), (3, 5), (4, 5)]))]
    for s in range(3):
        texts += [write_graph(random_graph(12, 0.3, s)), write_graph(random_graph(30, 0.1, s)),
                  write_graph(random_threshold(20, s, connected=False)[0]),
                  write_graph(random_split(15, s)[0])]
    h = hashlib.sha256()
    for text in texts:
        _hash_run(h, capsys, ["recognize", put(tmp_path, "g.cf", text)])
    for klass in ("cluster", "threshold", "split", "interval", "cluster-modulator",
                  "threshold-modulator"):
        for seed in range(3):
            for extra in ([], ["--d", "2"], ["--cliques", "3,1,2"]):
                _hash_run(h, capsys, ["gen", "--class", klass, "--n", "7", "--seed", str(seed),
                                      *extra, "--out", str(tmp_path / "gen")])
    assert h.hexdigest() == "50f22378ccaa3ef1ac529532e75565b6a0a661b1391a3cee3f41e1336a1e4f76"


def test_solver_defect_exits_4(tmp_path, capsys, monkeypatch):
    # wire a broken solver in behind the dispatcher: the re-verification
    # step must catch it and report an internal defect
    import cfcolor.polysolve as polysolve

    def broken(g, partition):
        return SolveOutcome(Coloring(g, (0,) * g.n), 1, "exact")

    monkeypatch.setattr(polysolve, "solve_split_cfcn", broken)
    g = put(tmp_path, "p4.cf", P4)
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--strategy", "split", g)
    assert code == 4 and "re-verification" in pairs["error"]


def test_approx_self_check_exits_4(tmp_path, capsys, monkeypatch):
    # the approximation's own checks raise SelfCheckError, not assert
    import cfcolor.fpt as fpt

    monkeypatch.setattr(fpt, "find_unique_coloring", lambda n, sets, k: None)
    g = put(tmp_path, "c5.cf", C5)
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--strategy", "approx", g)
    assert code == 4 and "the core has no coloring" in pairs["error"]


def test_uncaught_exception_exits_5(tmp_path, capsys, monkeypatch):
    # a crash is an internal defect: its own exit code and an error line,
    # never a traceback that exits 1, the code for NO
    import cfcolor.polysolve as polysolve

    def crashing(g, partition):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(polysolve, "solve_split_cfcn", crashing)
    g = put(tmp_path, "p4.cf", P4)
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", g)
    assert code == 5 and pairs["error"] == "RuntimeError: solver crashed"
    assert "time_ms" in pairs


@pytest.mark.parametrize("text", ["p cf 1 0\n", "p cf 3 0\n"])
def test_solve_edgeless_cn(tmp_path, capsys, text):
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", put(tmp_path, "e.cf", text))
    assert code == 0 and pairs["strategy"] == "split"
    assert pairs["colors_used"] == "1" and pairs["optimality"] == "exact"


@pytest.mark.parametrize("text", ["p cf 1 0\n", "p cf 3 0\n"])
def test_solve_edgeless_bipartite(tmp_path, capsys, text):
    # an edgeless graph is bipartite, and every vertex takes color 0
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--strategy", "bipartite",
                         put(tmp_path, "e.cf", text))
    assert code == 0 and pairs["strategy"] == "bipartite"
    assert pairs["colors_used"] == "1" and pairs["optimality"] == "exact"


@pytest.mark.parametrize("variant", ["cn", "on"])
def test_solve_empty_graph_as_cograph(tmp_path, capsys, variant):
    g = put(tmp_path, "empty.cf", "p cf 0 0\n")
    code, pairs, _ = run(capsys, "solve", "--variant", variant, "--strategy", "cograph", g)
    assert code == 0 and pairs["colors_used"] == "0" and pairs["optimality"] == "exact"


def test_solve_modulator_lines_pinned(tmp_path, capsys):
    # sha256 over the strategy: and modulator: lines of auto (both
    # variants) and of explicit lemma1 and approx solves, as computed
    # before the modulator search stopped at the smallest size
    h = hashlib.sha256()
    path = tmp_path / "g.cf"
    for g in modulator_pin_graphs():
        path.write_text(write_graph(g))
        for argv in (["--variant", "cn"], ["--variant", "on"],
                     ["--variant", "cn", "--strategy", "lemma1"],
                     ["--variant", "cn", "--strategy", "approx"]):
            _, _, out = run(capsys, "solve", *argv, str(path))
            lines = [l for l in out.splitlines() if l.startswith(("strategy:", "modulator:"))]
            h.update(repr(lines).encode())
    assert h.hexdigest() == "01f1ab5d1139bd4c406c2a4f7b67acc77b33594e0633552938143bacf8c52206"


@pytest.mark.parametrize(
    "strategy,graph,variant",
    [
        ("split", "P4", "cn"),
        ("bipartite", "C4", "cn"),
        ("cograph", "C4", "on"),
        ("interval", "P4", "cn"),
        ("interval", "P4", "on"),
        ("lemma1", "C5", "cn"),
        ("lemma1", "C5", "on"),
        ("approx", "C5", "cn"),
        ("approx", "C5", "on"),
        ("oracle", "C5", "on"),
    ],
)
def test_solve_verifies_each_coloring_once(tmp_path, capsys, monkeypatch, strategy, graph,
                                           variant):
    # the solver's self-check and the cli's re-check share one verifier run
    import cfcolor.coloring as coloring_module

    calls = []
    for name in ("verify_cfcn", "verify_cfon"):
        original = getattr(coloring_module, name)
        monkeypatch.setattr(coloring_module, name,
                            lambda c, original=original: calls.append(c) or original(c))
    argv = ["solve", "--variant", variant, "--strategy", strategy,
            put(tmp_path, "g.cf", GRAPHS[graph])]
    if strategy == "interval":
        argv += ["--intervals", put(tmp_path, "g.ivl", P4_INTERVALS)]
    code, pairs, _ = run(capsys, *argv)
    assert code == 0 and pairs["strategy"] == strategy and "coloring_file" in pairs
    assert len(calls) == 1


@pytest.mark.parametrize(
    "solver,graph,variant,strategy",
    [
        ("solve_bipartite_cfcn", "C4", "cn", "bipartite"),
        ("solve_cograph", "C4", "on", "cograph"),
        ("cfcn_interval", "P4", "cn", "interval"),
        ("cfon_interval", "P4", "on", "interval"),
        ("lemma1_cfcn", "C5", "cn", "lemma1"),
        ("approx_cfon_threshold", "C5", "on", "approx"),
    ],
)
def test_every_strategy_is_looked_up_in_cli(tmp_path, capsys, monkeypatch, solver, graph,
                                            variant, strategy):
    # the strategy table must find each solver in its defining module
    # when it runs: a broken stand-in put there has to reach the cli's
    # re-verification
    from cfcolor import fpt, interval, polysolve

    def broken(g, *rest):
        return SolveOutcome(Coloring(g, (0,) * g.n), 1, "exact")

    module = next(m for m in (polysolve, interval, fpt) if solver in vars(m))
    monkeypatch.setattr(module, solver, broken)
    argv = ["solve", "--variant", variant, "--strategy", strategy, put(tmp_path, "g.cf", GRAPHS[graph])]
    if strategy == "interval":
        argv += ["--intervals", put(tmp_path, "g.ivl", P4_INTERVALS)]
    code, pairs, _ = run(capsys, *argv)
    assert code == 4 and "re-verification" in pairs["error"]


_SPLIT_ON = ("the split strategy handles only --variant cn; the open variant on split graphs"
             " is as hard as graph coloring (see gadget)")
# (strategy, variant) -> (the graphs refused at --budget 0, their error line);
# computed before the strategy table carried its applicability tests
_REFUSALS = {
    ("split", "cn"): ("C4 C5", "the graph is not split"),
    ("split", "on"): ("P4 C4 K3 C5", _SPLIT_ON),
    ("bipartite", "cn"): ("K3 C5", "the graph is not bipartite"),
    ("bipartite", "on"): ("P4 C4 K3 C5", "the bipartite strategy handles only --variant cn"),
    ("cograph", "cn"): ("P4 C5", "the graph is not a cograph"),
    ("cograph", "on"): ("P4 C5", "the graph is not a cograph"),
    ("interval", "cn"): ("P4 C4 K3 C5", "the interval strategy needs --intervals"),
    ("interval", "on"): ("P4 C4 K3 C5", "the interval strategy needs --intervals"),
    ("lemma1", "cn"): ("P4 C4 C5", "no cluster modulator of size <= 0"),
    ("lemma1", "on"): ("P4 C4 C5", "no cluster modulator of size <= 0"),
    ("approx", "cn"): ("P4 C4 C5", "no threshold modulator of size <= 0"),
    ("approx", "on"): ("P4 C4 C5", "no threshold modulator of size <= 0"),
    ("fpt", "cn"): ("P4 C4 K3 C5", "the fpt strategy needs --k"),
    ("fpt", "on"): ("P4 C4 K3 C5", "the fpt strategy needs --k"),
    ("oracle", "cn"): ("", None),
    ("oracle", "on"): ("", None),
}


def test_solve_refusals_pinned(tmp_path, capsys):
    # every explicit strategy, both variants: a refusal exits 2 with its
    # exact error line, anything else solves
    graphs = {"P4": P4, "C4": C4, "K3": K3, "C5": C5}
    for (strategy, variant), (refused, error) in _REFUSALS.items():
        for name, text in graphs.items():
            code, pairs, _ = run(capsys, "solve", "--variant", variant, "--strategy", strategy,
                                 "--budget", "0", put(tmp_path, "g.cf", text))
            want = (2, error) if name in refused.split() else (0, None)
            assert (code, pairs.get("error")) == want, (strategy, variant, name)


def test_auto_matches_first_applicable_class_strategy(tmp_path, capsys):
    # auto and the explicit strategy are one walk of the table: where an
    # exact class rung applies, auto's report is that strategy's report
    def report(*argv):
        code, _, out = run(capsys, "solve", *argv)
        return code, [l for l in out.splitlines() if not l.startswith(("command:", "time_ms:"))]

    two_triangles = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    codes = []
    for g in [g for n in range(1, 6) for g in enumerate_small(n)] + [two_triangles]:
        path = put(tmp_path, "g.cf", write_graph(g))
        for variant in ("cn", "on"):
            tests = [("cograph", is_cograph)]
            if variant == "cn":
                tests = [("split", is_split), ("bipartite", is_bipartite)] + tests
            first = next((name for name, test in tests if test(g)[0]), None)
            if first is None:
                continue
            code, lines = report("--variant", variant, path)
            assert (code, lines) == report("--variant", variant, "--strategy", first, path), (
                write_graph(g), variant)
            codes.append(code)
    # 2K3, a disconnected cograph, is refused by both in both variants
    assert codes[-2:] == [2, 2] and len(codes) > 40


@pytest.mark.parametrize(
    "strategy,graph,refusal",
    [
        ("split", "P4", "the graph is not split"),
        ("bipartite", "C4", "the graph is not bipartite"),
        ("cograph", "C4", "the graph is not a cograph"),
    ],
)
def test_applicability_tests_are_looked_up_in_cli(tmp_path, capsys, monkeypatch, strategy,
                                                  graph, refusal):
    # the table's applicability tests find the recognizers in
    # `graphclasses` when they run: a recognizer replaced there refuses
    import cfcolor.graphclasses as graphclasses

    for name in ("is_split", "is_bipartite", "is_cograph"):
        monkeypatch.setattr(graphclasses, name, lambda g: (False, None))
    code, pairs, _ = run(capsys, "solve", "--variant", "cn", "--strategy", strategy,
                         put(tmp_path, "g.cf", GRAPHS[graph]))
    assert code == 2 and pairs["error"] == refusal


# subcommand -> (dest, option_strings, choices, default, required) per
# action, as the parser had them before the strategy table carried its
# applicability tests
_OPTIONS = {
    "cfcolor": [("version", ("--version",), None, "==SUPPRESS==", False),
                ("command", (), ("verify", "oracle", "solve", "recognize", "modulator",
                                 "kernelize", "gadget", "gen"), None, True)],
    "verify": [("variant", ("--variant",), ("cn", "on"), None, True),
               ("graph", (), None, None, True), ("coloring", (), None, None, True)],
    "oracle": [("variant", ("--variant",), ("cn", "on"), None, True),
               ("limit", ("--limit",), None, 16, False), ("out", ("--out",), None, None, False),
               ("k", ("--k",), None, None, False), ("graph", (), None, None, True)],
    "solve": [("variant", ("--variant",), ("cn", "on"), None, True),
              ("limit", ("--limit",), None, 16, False), ("out", ("--out",), None, None, False),
              ("strategy", ("--strategy",), ("auto", "split", "bipartite", "cograph", "interval",
                                             "lemma1", "approx", "fpt", "oracle"), "auto", False),
              ("intervals", ("--intervals",), None, None, False),
              ("k", ("--k",), None, None, False),
              ("modulator", ("--modulator",), None, "auto", False),
              ("budget", ("--budget",), None, 6, False), ("graph", (), None, None, True)],
    "recognize": [("graph", (), None, None, True)],
    "modulator": [("klass", ("--class",), ("cluster", "threshold"), None, True),
                  ("budget", ("--budget",), None, None, True), ("graph", (), None, None, True)],
    "kernelize": [("variant", ("--variant",), ("cn", "on"), None, True),
                  ("out", ("--out",), None, None, False), ("k", ("--k",), None, None, True),
                  ("modulator", ("--modulator",), None, "auto", False),
                  ("budget", ("--budget",), None, 6, False), ("graph", (), None, None, True)],
    "gadget": [("mode", (), ("encode", "validate"), None, True),
               ("k", ("--k",), None, None, True), ("limit", ("--limit",), None, 16, False),
               ("out", ("--out",), None, None, False), ("graph", (), None, None, True)],
    "gen": [("klass", ("--class",), ("cluster", "threshold", "split", "interval",
                                     "cluster-modulator", "threshold-modulator"), None, True),
            ("n", ("--n",), None, None, True), ("seed", ("--seed",), None, None, True),
            ("d", ("--d",), None, None, False), ("cliques", ("--cliques",), None, None, False),
            ("out", ("--out",), None, None, False)],
}


def test_cli_options_pinned():
    # every option of every subcommand, read from the parser rather than
    # from --help, whose layout follows the terminal width
    def options(parser):
        return [(a.dest, tuple(a.option_strings), None if a.choices is None else tuple(a.choices),
                 a.default, a.required) for a in parser._actions if a.dest != "help"]

    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    got = {"cfcolor": options(parser), **{name: options(p) for name, p in subparsers.items()}}
    assert got == _OPTIONS


def test_console_script_installed(tmp_path):
    """Installing this checkout gives a working `cfcolor` command.

    The install goes into a fresh venv under tmp_path, offline, and the
    command runs without PYTHONPATH from outside the checkout, so neither
    src/ nor a `cfcolor` installed from elsewhere can make it pass.
    """
    pytest.importorskip("pip")
    if sys.version_info < (3, 11):
        pytest.importorskip("tomli")  # the build backend's TOML parser before 3.11
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    venv = tmp_path / "venv"
    subprocess.run(
        [sys.executable, "-m", "venv", "--system-site-packages", "--without-pip", str(venv)],
        check=True, env=env, cwd=tmp_path,
    )
    bindir = str(venv / ("Scripts" if os.name == "nt" else "bin"))
    python = shutil.which("python", path=bindir)
    subprocess.run(
        [python, "-m", "pip", "install", "--no-index", "--no-deps", "--no-build-isolation",
         "--no-cache-dir", str(REPO_ROOT)],
        check=True, env=env, cwd=tmp_path,
    )
    exe = shutil.which("cfcolor", path=bindir)
    assert exe is not None
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0 and "cfcolor" in proc.stdout


def test_backend_requires_dist_lines_parse():
    # each dependency's own marker is joined with its extra's, so every
    # Requires-Dist line the build backend writes is one valid requirement
    requirements = pytest.importorskip("packaging.requirements")
    if sys.version_info < (3, 11):
        pytest.importorskip("tomli")  # the build backend's TOML parser before 3.11
    spec = importlib.util.spec_from_file_location("cfbuild", REPO_ROOT / "_backend" / "cfbuild.py")
    cfbuild = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cfbuild)
    lines = [line.removeprefix("Requires-Dist: ")
             for line in cfbuild._metadata(cfbuild._project()).splitlines()
             if line.startswith("Requires-Dist: ")]
    assert any("python_version" in line for line in lines)
    for line in lines:
        marker = requirements.Requirement(line).marker
        assert marker is not None and not marker.evaluate({"extra": ""}), line


def _python_3_10():
    """A Python 3.10 interpreter that starts, else None: `python3.10` on
    PATH, then pyenv's 3.10 installs."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates = [shutil.which("python3.10"),
                  *map(str, sorted(pyenv.glob("versions/3.10.*/bin/python")))]
    probe = "import sys; assert sys.version_info[:2] == (3, 10)"
    for exe in filter(None, candidates):
        if subprocess.run([exe, "-c", probe], capture_output=True).returncode == 0:
            return exe
    return None


def test_minimum_python_runs_gen_solve_modulator(tmp_path):
    """The declared minimum, requires-python >= 3.10, runs gen, solve
    --strategy auto and modulator through `dispatch` as this
    interpreter does: no syntax or library call of a later version."""
    exe = _python_3_10()
    if exe is None:
        pytest.skip("no Python 3.10 interpreter found")
    script = (
        "from cfcolor.cli import dispatch\n"
        "for klass, d in (('cluster-modulator', '2'), ('threshold-modulator', '1')):\n"
        "    stem = klass + '-g'\n"
        "    print(dispatch(['gen', '--class', klass, '--n', '10', '--seed', '3', '--d', d,\n"
        "                    '--out', stem]))\n"
        "    for variant in ('cn', 'on'):\n"
        "        print(dispatch(['solve', '--variant', variant, '--strategy', 'auto', stem + '.cf']))\n"
        "    print(dispatch(['modulator', '--class', klass.split('-')[0], '--budget', '3',\n"
        "                    stem + '.cf']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cfcolor.__file__).resolve().parent.parent))
    outputs = []
    for python in (exe, sys.executable):
        proc = subprocess.run([python, "-c", script], capture_output=True, text=True, env=env,
                              cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        outputs.append([line for line in proc.stdout.splitlines()
                        if not line.startswith("time_ms:")])
    assert outputs[0] == outputs[1]
    assert "strategy: lemma1" in outputs[0] and "strategy: approx" in outputs[0]
