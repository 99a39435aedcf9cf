"""Rebuild `pool.json`: the benchmark's inputs, with pinned answers.

    python3 bench/pin.py

Run from the repository root.  For every stratum of `workloads.LADDER`
this draws generator seeds, computes the exact answers with the
reference solver in `check.py`, and cross-checks them against the library
(`oracle.exact_cf`, `hardness.cross_validate`, and for kernel decisions
`oracle.decide_cf` on the uncut graph as well as `fpt.solve_via_kernel`).
It then times every entry with the benchmark's own loop and records the
fastest of PIN_PASSES calls.  That time only pairs entries of similar
difficulty; it is never compared against.  Any disagreement aborts
without writing the pool.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import workloads as wl  # noqa: E402
from run import Run  # noqa: E402

PIN_PASSES = 5


def _fail(entry, message):
    sys.exit(f"pin: {entry['id']}: {message}")


def _candidates(workload: str, spec: dict):
    rng = random.Random(f"pool:{workload}:{wl.stratum_key(spec)}")
    while True:
        yield rng.randrange(2**31)


def pin_oracle(lib, e) -> list[dict]:
    g = lib.generators.random_graph(e["n"], e["p"], e["seed"])
    adj = check.adjacency(g.n, g.edges)
    if any(not nb for nb in adj):
        return []  # an isolated vertex settles both variants without search
    chi = check.cf_chromatic(adj, e["variant"])
    res = lib.oracle.exact_cf(g, e["variant"], limit=None)
    if res.chromatic != chi:
        _fail(e, f"oracle says {res.chromatic}, reference says {chi}")
    e["pin"] = {"chromatic": chi}
    return [e]


def pin_gadget(lib, e, seen: set) -> list[dict]:
    rng = random.Random(e["seed"])
    n = e["n"]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    g = lib.graph.Graph(n, edges)
    if not lib.graph.is_connected(g) or frozenset(edges) in seen:
        return []
    seen.add(frozenset(edges))
    e["edges"] = edges
    yes = check.proper_colorable(check.adjacency(n, edges), 3)
    rep = lib.hardness.cross_validate(g, 3, limit=None)
    if rep.source_yes != yes or not rep.match:
        _fail(e, f"cross_validate source_yes={rep.source_yes} match={rep.match}, reference {yes}")
    e["pin"] = {"source_yes": yes, "match": True}
    return [e]


def pin_kernel(lib, e) -> list[dict]:
    """One entry per k from 1 to d+2 (cn) or 2d+2 (on)."""
    g, m = lib.generators.random_cluster_modulator_instance(e["n"], e["d"], e["seed"])
    v, d = e["variant"], e["d"]
    chi = check.cf_chromatic(check.adjacency(g.n, g.edges), v)
    out = []
    for k in range(1, (d + 2 if v == "cn" else 2 * d + 2) + 1):
        want = chi is not None and k >= chi
        uncut, _ = lib.oracle.decide_cf(g, v, k, limit=None)
        dec = lib.fpt.solve_via_kernel(g, m, k, v, limit=None)
        if uncut != want or dec.yes != want:
            _fail(e, f"k={k}: uncut oracle {uncut}, kernel {dec.yes}, reference {want}")
        out.append(dict(e, id=f"{e['id']}/k={k}", k=k, pin={"chromatic": chi, "yes": want}))
    return out


def time_entries(lib, workload: str, entries: list[dict], workdir: Path) -> None:
    """Set each entry's pin_ms to its fastest call, timed as a run times it;
    every output is checked as in a run."""
    timing = Run(wl.build(lib, workload, entries, workdir))
    for _ in range(PIN_PASSES):
        for i in range(len(entries)):
            timing.call(i)
    for e, out, ms in zip(entries, timing.outcomes, timing.fastest_ms()):
        if out.status == "wrong":
            _fail(e, out.detail)
        e["pin_ms"] = round(ms, 3)
    if timing.mismatches:
        _fail(entries[0], f"outcomes changed between calls: {timing.mismatches[0]}")


def main() -> None:
    lib = wl.import_library()
    workdir = ROOT / "bench" / "out" / "pin-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    entries = []
    for workload, ladder in wl.LADDER.items():
        for spec in ladder:
            key = wl.stratum_key(spec)
            seen: set = set()
            seeds = _candidates(workload, spec)
            made = 0
            while made < spec["pool"]:
                e = {"workload": workload, "stratum": key, "id": f"{key}#{made}"}
                e.update({k: val for k, val in spec.items() if k not in ("pool", "take")})
                e["seed"] = next(seeds)
                fam = spec["family"]
                if fam == "gnp" and workload == "oracle-exact":
                    pinned = pin_oracle(lib, e)
                elif fam == "gadget":
                    pinned = pin_gadget(lib, e, seen)
                elif fam == "kernel":
                    pinned = pin_kernel(lib, e)
                else:  # approximations and auto-solve have no exact answer to pin
                    pinned = [e]
                entries.extend(pinned)
                made += bool(pinned)
            print(f"{workload} {key}: pinned {made}", flush=True)
        time_entries(lib, workload, [e for e in entries if e["workload"] == workload], workdir)
        print(f"{workload}: timed", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    lines = ",\n".join("  " + json.dumps(e, sort_keys=True) for e in entries)
    wl.POOL_FILE.write_text('{"entries": [\n' + lines + "\n]}\n")
    print(f"wrote {len(entries)} entries to {wl.POOL_FILE}")


if __name__ == "__main__":
    main()
