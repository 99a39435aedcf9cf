"""The three benchmark workloads: their size ladders, how each input is
built from a pool entry, the call that is timed, and the check of its
output.

Every input comes from `pool.json`, which holds `pool` entries per
stratum (one family at one size and variant) of `LADDER`: a generator
seed, the time the call took when the pool was pinned, and, where the
answer is exact, the answer pinned by the reference solver in
`check.py`.  A run takes `take` entries of each stratum: it ranks the
stratum's entries by pinned time, cuts them into `take` consecutive
groups, and takes one entry of each group.  `--seed` chooses that entry
among the twins of the group's middle entry (same pinned answer and k,
pinned time within TWIN_SHARE of it), and sets the call order.  So every
seed gives a different set of inputs with the same family mix and nearly
the same order statistics, and every exact answer is known in advance.
`pin.py` rebuilds the pool.

This module does not import cfcolor: the library is imported during
set-up, which is timed, and handed in as `lib`.
"""

from __future__ import annotations

import importlib
import io
import json
import random
import re
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import check

VARIANTS = ("cn", "on")
LIB_MODULES = (
    "graph", "coloring", "oracle", "graphclasses", "polysolve",
    "interval", "fpt", "hardness", "generators", "cli",
)
POOL_FILE = Path(__file__).with_name("pool.json")
# Entries of one group whose pinned times lie within this share of the
# group's middle entry are interchangeable between seeds.
TWIN_SHARE = 0.15

# pool = entries per stratum (for the kernel family: graphs, each giving
# one entry per k); take = entries a run calls, 'pool // 2' when absent.
# A pass over one run's inputs takes about a second, so a run calls every
# input dozens of times and each input's fastest call can fall into a
# moment when the shared host is quiet.  The ceilings therefore sit well
# below the walls recorded in baseline.json.
LADDER: dict[str, list[dict[str, Any]]] = {
    "oracle-exact": [
        *({"family": "gnp", "n": n, "p": 0.3, "variant": v, "pool": 12,
           "take": 4 if (n, v) == (18, "cn") else 1 if n == 20 else 6}
          for n in (14, 16, 18, 20) for v in VARIANTS),
        *({"family": "gnp", "n": n, "p": 0.5, "variant": v, "pool": 12, "take": take}
          for n, take in ((14, 6), (16, 4), (18, 1)) for v in VARIANTS),
        *({"family": "gadget", "n": n, "pool": 24, "take": 24} for n in (5, 6)),
    ],
    "auto-solve": [
        *({"family": "threshold", "n": n, "variant": v, "pool": 6,
           "take": {"cn": 6, "on": 3 if n == 40 else 2}[v]}
          for n, variants in ((40, VARIANTS), (70, VARIANTS), (100, ("cn",))) for v in variants),
        *({"family": "split", "n": n, "variant": "cn", "pool": 6, "take": take}
          for n, take in ((100, 6), (150, 2))),
        *({"family": fam, "n": n, "variant": "cn", "pool": 6, "take": 6}
          for fam in ("grid", "tree") for n in (100, 200, 400)),
        *({"family": "interval", "n": n, "variant": v, "pool": 6, "take": take}
          for n, take in ((100, 3), (150, 1)) for v in VARIANTS),
        *({"family": fam, "n": 10, "d": d, "variant": v, "pool": 4, "take": 1}
          for fam in ("cluster-mod", "threshold-mod") for d in (1, 2) for v in VARIANTS),
        *({"family": "gnp", "n": n, "p": 0.4, "variant": v, "pool": 4, "take": take}
          for n, take in ((8, 2), (10, 1)) for v in VARIANTS),
        *({"family": "cluster", "singleton": s, "variant": v, "pool": 6}
          for s in (False, True) for v in VARIANTS),
    ],
    "kernel-decide": [
        # half of the decisions; a quarter at n 20 with d >= 2, whose NO
        # decisions near the threshold take up to 0.45 s
        *({"family": "kernel", "n": n, "d": d, "variant": v, "pool": 6,
           "take": 6 * (d + 2 if v == "cn" else 2 * d + 2) // (4 if n == 20 and d > 1 else 2)}
          for n, ds in ((12, (1, 2, 3)), (16, (1, 2, 3)), (20, (1, 2, 3)), (24, (1,)))
          for d in ds for v in VARIANTS),
        *({"family": "approx", "n": n, "d": d, "variant": v, "pool": 6}
          for n in (40, 80, 120) for d in (1, 2) for v in VARIANTS),
    ],
}


def stratum_key(spec: dict[str, Any]) -> str:
    return "/".join(f"{k}={spec[k]}" for k in sorted(spec) if k not in ("pool", "take"))


def import_library():
    """Import cfcolor afresh, so set-up pays for module execution."""
    for name in [m for m in sys.modules if m == "cfcolor" or m.startswith("cfcolor.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = type("Lib", (), {})()
    for name in LIB_MODULES:
        setattr(lib, name, importlib.import_module(f"cfcolor.{name}"))
    return lib


def load_pool() -> list[dict[str, Any]]:
    return json.loads(POOL_FILE.read_text())["entries"]


def _twins(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """Same pinned answer and k, and pinned times within TWIN_SHARE."""
    return (a.get("pin") == b.get("pin") and a.get("k") == b.get("k")
            and abs(a["pin_ms"] - b["pin_ms"]) <= TWIN_SHARE * b["pin_ms"])


def select(entries: list[dict[str, Any]], workload: str, seed: int) -> list[dict[str, Any]]:
    """`take` entries of each stratum, one per group of entries of similar
    pinned time, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    chosen = []
    for spec in LADDER[workload]:
        key = stratum_key(spec)
        ranked = sorted((e for e in entries if e["workload"] == workload and e["stratum"] == key),
                        key=lambda e: (e["pin_ms"], e["id"]))
        take = spec.get("take", spec["pool"] // 2)
        cuts = [round(i * len(ranked) / take) for i in range(take + 1)]
        for lo, hi in zip(cuts, cuts[1:]):
            group = ranked[lo:hi]
            middle = group[(len(group) - 1) // 2]
            chosen.append(rng.choice([e for e in group if _twins(e, middle)]))
    rng.shuffle(chosen)
    return chosen


# --- inputs the benchmark builds itself ---------------------------------------


def grid_edges(n: int, seed: int) -> tuple[int, list[tuple[int, int]]]:
    """A rows x cols grid with about n vertices and a seeded shape."""
    rows = random.Random(seed).randint(4, 12)
    cols = max(2, n // rows)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return rows * cols, edges


def tree_edges(n: int, seed: int) -> list[tuple[int, int]]:
    """Random recursive tree: vertex v hangs below a uniform earlier vertex."""
    rng = random.Random(seed)
    return [(rng.randrange(v), v) for v in range(1, n)]


def cluster_sizes(singleton: bool, seed: int) -> list[int]:
    """Two to four cliques, at least one of size three or more; with
    `singleton` one clique is a single (isolated) vertex."""
    rng = random.Random(seed)
    sizes = [rng.randint(3, 5)] + [rng.randint(2, 5) for _ in range(rng.randint(1, 3))]
    if singleton:
        sizes.append(1)
    rng.shuffle(sizes)
    return sizes


# --- instances ----------------------------------------------------------------


@dataclass
class Outcome:
    """What the checker concluded about one call."""

    status: str  # "ok", "failed" (error exit or exception) or "wrong"
    colors: int | None = None  # distinct colors of a returned coloring
    detail: str = ""
    rung: str | None = None  # auto-solve: ladder rung from the report
    kernel: tuple[int, int, bool, bool] | None = None  # (input n, kernel n, short-circuit, yes)

    def signature(self) -> tuple:
        return (self.status, self.colors, self.detail, self.rung, self.kernel)


@dataclass
class Instance:
    id: str
    entry: dict[str, Any]
    call: Callable[[], Any]  # the timed call
    check: Callable[[Any], Outcome]  # judges the call's result


def _colors_outcome(adj, colors, variant: str, limit: int | None = None) -> Outcome:
    bad = check.cf_violation(adj, colors, variant)
    if bad is not None:
        return Outcome("wrong", detail=f"vertex {bad} has no unique color")
    used = len(set(colors))
    if limit is not None and used > limit:
        return Outcome("wrong", detail=f"{used} colors exceed {limit}")
    return Outcome("ok", colors=used)


def _oracle_instance(lib, e) -> Instance:
    g = lib.generators.random_graph(e["n"], e["p"], e["seed"])
    adj = check.adjacency(g.n, g.edges)
    v, want = e["variant"], e["pin"]["chromatic"]

    def judge(res) -> Outcome:
        if res.infeasible or res.chromatic != want:
            return Outcome("wrong", detail=f"chromatic {res.chromatic}, pinned {want}")
        out = _colors_outcome(adj, res.witness.colors, v)
        if out.status == "ok" and out.colors != want:
            return Outcome("wrong", detail=f"witness uses {out.colors} colors")
        out.detail = f"chi={want}"
        return out

    return Instance(e["id"], e, lambda: lib.oracle.exact_cf(g, v, limit=None), judge)


def _gadget_instance(lib, e) -> Instance:
    g = lib.graph.Graph(e["n"], [tuple(p) for p in e["edges"]])
    adj = check.adjacency(g.n, g.edges)
    want = e["pin"]["source_yes"]

    def judge(rep) -> Outcome:
        if rep.source_yes != want or not rep.match:
            return Outcome("wrong", detail=f"source_yes={rep.source_yes} match={rep.match}")
        if rep.decoded is not None:
            colors = rep.decoded.colors
            if len(set(colors)) > 3 or any(colors[u] == colors[w] for u in range(g.n) for w in adj[u]):
                return Outcome("wrong", detail="decoded coloring is not a proper 3-coloring")
        return Outcome("ok", detail=f"source_yes={want}")

    return Instance(e["id"], e, lambda: lib.hardness.cross_validate(g, 3, limit=None), judge)


def _kernel_instance(lib, e) -> Instance:
    g, m = lib.generators.random_cluster_modulator_instance(e["n"], e["d"], e["seed"])
    adj = check.adjacency(g.n, g.edges)
    v, k, want = e["variant"], e["k"], e["pin"]["yes"]

    def judge(dec) -> Outcome:
        info = (g.n, dec.kernel.graph.n, dec.kernel.short_circuit is not None, dec.yes)
        if dec.yes != want:
            return Outcome("wrong", detail=f"k={k} yes={dec.yes}, pinned {want}", kernel=info)
        out = _colors_outcome(adj, dec.witness.colors, v, limit=k) if want else Outcome("ok")
        out.kernel = info
        return out

    return Instance(e["id"], e, lambda: lib.fpt.solve_via_kernel(g, m, k, v, limit=None), judge)


def _approx_instance(lib, e) -> Instance:
    g, m = lib.generators.random_threshold_modulator_instance(e["n"], e["d"], e["seed"])
    adj = check.adjacency(g.n, g.edges)
    v = e["variant"]

    def judge(res) -> Outcome:
        out = _colors_outcome(adj, res.coloring.colors, v)
        if out.status == "ok" and out.colors != res.colors_used:
            return Outcome("wrong", detail=f"reports {res.colors_used} colors, uses {out.colors}")
        return out

    def run():
        fn = lib.fpt.approx_cfcn_threshold if v == "cn" else lib.fpt.approx_cfon_threshold
        return fn(g, m)

    return Instance(e["id"], e, run, judge)


def _auto_graph(lib, e):
    """The graph (and interval representation, if any) of an auto-solve entry."""
    fam, gen, rep = e["family"], lib.generators, None
    if fam == "threshold":
        g, _ = gen.random_threshold(e["n"], e["seed"])
    elif fam == "split":
        g, _ = gen.random_split(e["n"], e["seed"])
    elif fam == "grid":
        g = lib.graph.Graph(*grid_edges(e["n"], e["seed"]))
    elif fam == "tree":
        g = lib.graph.Graph(e["n"], tree_edges(e["n"], e["seed"]))
    elif fam == "interval":
        g, rep = gen.random_interval_instance(e["n"], e["seed"])
    elif fam == "cluster-mod":
        g, _ = gen.random_cluster_modulator_instance(e["n"], e["d"], e["seed"])
    elif fam == "threshold-mod":
        g, _ = gen.random_threshold_modulator_instance(e["n"], e["d"], e["seed"])
    elif fam == "gnp":
        g = gen.random_graph(e["n"], e["p"], e["seed"])
    elif fam == "cluster":
        g, _ = gen.cluster_graph(tuple(cluster_sizes(e["singleton"], e["seed"])))
    else:
        raise ValueError(f"unknown auto-solve family {fam!r}")
    return g, rep


def _auto_instance(lib, e, workdir: Path) -> Instance:
    g, rep = _auto_graph(lib, e)
    adj = check.adjacency(g.n, g.edges)
    v = e["variant"]
    stem = workdir / re.sub(r"[^A-Za-z0-9]+", "_", e["id"])
    graph_file = stem.with_suffix(".cf")
    graph_file.write_text(lib.graph.write_graph(g))
    argv = ["solve", "--variant", v, "--strategy", "auto", str(graph_file)]
    if rep is not None:
        ivl = stem.with_suffix(".ivl")
        ivl.write_text(lib.interval.write_intervals(rep))
        argv += ["--intervals", str(ivl)]

    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = lib.cli.dispatch(argv)
        return code, buf.getvalue()

    def judge(result) -> Outcome:
        code, text = result
        report = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        if code == 0:
            colors = check.parse_coloring_file(Path(report["coloring_file"]).read_text(), g.n)
            out = _colors_outcome(adj, colors, v)
            if out.status == "ok" and str(out.colors) != report.get("colors_used"):
                out = Outcome("wrong", detail=f"reports {report.get('colors_used')} colors")
            out.rung = report.get("strategy")
            return out
        if code == 1:
            if v == "on" and any(not nb for nb in adj):
                return Outcome("ok", rung="infeasible", detail="isolated vertex")
            return Outcome("wrong", rung="infeasible", detail="exit 1 without an isolated vertex")
        rung = "refused" if code == 3 else "error"
        return Outcome("failed", rung=rung, detail=f"exit {code}: {report.get('error', '')}")

    return Instance(e["id"], e, run, judge)


def build(lib, workload: str, entries: list[dict[str, Any]], workdir: Path) -> list[Instance]:
    """Instances in call order; auto-solve writes its input files to workdir."""
    out: list[Instance] = []
    for e in entries:
        fam = e["family"]
        if workload == "oracle-exact":
            out.append(_oracle_instance(lib, e) if fam == "gnp" else _gadget_instance(lib, e))
        elif workload == "kernel-decide":
            out.append(_kernel_instance(lib, e) if fam == "kernel" else _approx_instance(lib, e))
        else:
            out.append(_auto_instance(lib, e, workdir))
    return out


def judge_call(inst: Instance, call_result: Any, error: BaseException | None) -> Outcome:
    """Check one call; an exception from the library counts as a failure."""
    if error is not None:
        return Outcome("failed", detail=f"{type(error).__name__}: {error}",
                       rung="error" if inst.entry["workload"] == "auto-solve" else None)
    try:
        return inst.check(call_result)
    except (OSError, ValueError, KeyError, AttributeError, TypeError) as exc:
        return Outcome("wrong", detail=f"unreadable output: {type(exc).__name__}: {exc}")
