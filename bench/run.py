"""cfcolor benchmark: one seeded, single-process, closed-loop run.

    python3 bench/run.py --workload oracle-exact --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from `src/`.
Workloads (see `workloads.py` and `BENCHMARK.json`):

  oracle-exact   oracle.exact_cf on G(n,p) and hardness.cross_validate
                 on split gadgets
  auto-solve     cli.dispatch(["solve", "--strategy", "auto", ...]) on
                 files written during set-up
  kernel-decide  fpt.solve_via_kernel at every k, and fpt.approx_*

One caller makes one call at a time, repeating the workload's inputs in
passes until `--seconds` have passed (at least one full pass).  Every
output is checked by `check.py` and must repeat exactly from pass to
pass.  `--trace 0` reports the end-to-end metrics; `--trace 1` spends
half the time untraced and half traced and reports the per-layer
metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans as tracing
import workloads as wl

SETUP_REPEATS = 5
RUNGS = ("split", "bipartite", "cograph", "interval", "lemma1", "approx", "oracle",
         "infeasible", "refused", "error")


def setup(root: Path, workload: str, seed: int):
    """Import cfcolor, generate the inputs, write the input files."""
    workdir = root / "bench" / "out" / f"work-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    lib = wl.import_library()
    entries = wl.select(wl.load_pool(), workload, seed)
    return lib, wl.build(lib, workload, entries, workdir), workdir


class Run:
    """Per-input call times and checked outcomes of one phase."""

    def __init__(self, instances):
        self.instances = instances
        self.times = [[] for _ in instances]  # seconds, one per call
        self.outcomes: list[wl.Outcome | None] = [None] * len(instances)
        self.mismatches: list[str] = []
        self.passes = 0

    def call(self, i: int, tracer=None) -> None:
        inst = self.instances[i]
        fn = inst.call if tracer is None else tracer.wrap(tracing.ROOT, inst.call)
        if tracer is not None:
            tracer.instance = i
        error = result = None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the library failed on this input; counted, not fatal
            error = exc
        self.times[i].append(time.perf_counter() - t0)
        outcome = wl.judge_call(inst, result, error)
        first = self.outcomes[i]
        if first is None:
            self.outcomes[i] = outcome
        elif first.signature() != outcome.signature():
            self.mismatches.append(f"{inst.id}: {first.signature()} then {outcome.signature()}")

    def measure(self, deadline: float, tracer=None, whole_passes: bool = False) -> None:
        """Passes over all inputs until the deadline; the first pass is
        always whole, and with `whole_passes` a pass starts only if one
        more pass as long as the last fits before the deadline.

        Each pass runs on the next of the CPUs this process may use.  A
        co-tenant can load one CPU for minutes; a run that stayed on it
        would never see a quiet moment."""
        cpus = sorted(os.sched_getaffinity(0))
        gc.collect()
        try:
            while True:
                began = time.perf_counter()
                os.sched_setaffinity(0, {cpus[self.passes % len(cpus)]})
                for i in range(len(self.instances)):
                    if self.passes and not whole_passes and time.perf_counter() >= deadline:
                        return
                    self.call(i, tracer)
                self.passes += 1
                now = time.perf_counter()
                if now >= deadline or (whole_passes and 2 * now - began > deadline):
                    return
        finally:
            os.sched_setaffinity(0, cpus)

    def fastest_ms(self) -> list[float]:
        """Each input's fastest call.  Other tenants of a shared machine
        only ever add time, and their load comes and goes for seconds at a
        time, so the fastest of an input's calls is the steadiest estimate
        of its own cost."""
        return [min(t) * 1000 for t in self.times]


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 + num * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 1e-12:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0 or x >= 1:
        return 0.0 if x <= 0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1 - x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1 - front * _beta_cf(b, a, 1 - x) / b


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics.  Unlike a single order statistic it does not
    jump across a gap between neighbouring inputs when noise swaps them."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def end_to_end(run: Run, setup_s: list[float]) -> dict[str, tuple[float, str]]:
    fastest = run.fastest_ms()
    n = len(fastest)
    ok = sum(o.status == "ok" for o in run.outcomes)
    return {
        "latency_ms.geomean": (math.exp(sum(math.log(m) for m in fastest) / n), "ms"),
        "latency_ms.p50": (quantile(fastest, 0.5), "ms"),
        "latency_ms.p90": (quantile(fastest, 0.9), "ms"),
        "throughput_ips": (n / (sum(fastest) / 1000), "1/s"),
        "colors_total": (sum(o.colors or 0 for o in run.outcomes if o.status == "ok"), "count"),
        "success_rate": (ok / n, "ratio"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced: Run, traced: Run, tracer: tracing.Tracer) -> dict[str, tuple[float, str]]:
    """Totals of the traced phase divided by its number of whole passes."""
    passes = traced.passes
    rows = tracer.summary()
    out: dict[str, tuple[float, str]] = {}
    for name in tracing.SPAN_NAMES:
        row = rows.get(name, {"calls": 0, "self_ms": 0.0, "failed": 0})
        out[f"{name}.calls"] = (row["calls"] / passes, "count")
        out[f"{name}.self_ms"] = (row["self_ms"] / passes, "ms")
        out[f"{name}.failed"] = (row["failed"] / passes, "count")
    out[f"{tracing.ROOT}.self_ms"] = (rows[tracing.ROOT]["self_ms"] / passes, "ms")

    outcomes = traced.outcomes
    for rung in RUNGS:
        out[f"cli.rung.{rung}"] = (sum(o.rung == rung for o in outcomes), "count")
    mod_calls = sum(rows[m]["calls"] for m in tracing.MODULATORS if m in rows)
    mod_hits = sum(rows[m]["hits"] for m in tracing.MODULATORS if m in rows)
    out["graphclasses.modulator.hit_ratio"] = (mod_hits / mod_calls if mod_calls else 0.0, "ratio")
    kern = [o.kernel for o in outcomes if o.kernel is not None]
    cut = [k for k in kern if not k[2]]
    out["fpt.kernel.vertex_ratio"] = (
        sum(k[1] for k in cut) / sum(k[0] for k in cut) if cut else 0.0, "ratio")
    out["fpt.kernel.short_circuit_ratio"] = (
        sum(k[2] for k in kern) / len(kern) if kern else 0.0, "ratio")
    out["fpt.kernel.yes_ratio"] = (sum(k[3] for k in kern) / len(kern) if kern else 0.0, "ratio")
    verifies = sum(rows[m]["calls"] for m in ("coloring.verify_cfcn", "coloring.verify_cfon") if m in rows)
    out["coloring.verify.calls_per_instance"] = (verifies / passes / len(outcomes), "count")

    base = sum(untraced.fastest_ms())
    out["trace.overhead_pct"] = (100 * (sum(traced.fastest_ms()) - base) / base, "%")
    out["trace.wall_ms"] = (sum(sum(t) for t in traced.times) * 1000 / passes, "ms")
    out["trace.self_sum_ms"] = (sum(r["self_ms"] for r in rows.values()) / passes, "ms")
    return out


def digest(outcomes) -> str:
    text = "\n".join(repr(o.signature()) for o in outcomes)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(wl.LADDER))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cfcolor" / "__init__.py").is_file():
        print("bench: run from the repository root; src/cfcolor is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib, instances, workdir = setup(root, args.workload, args.seed)
        setup_s.append(time.perf_counter() - t0)
    # the inputs and the checker's copies live for the whole run; keep the
    # collector from rescanning them during timed calls
    gc.collect()
    gc.freeze()

    start = time.perf_counter()
    untraced = Run(instances)
    if args.trace:
        untraced.measure(start + args.seconds / 2)
        traced = Run(instances)
        tracer = tracing.Tracer(lib, wl.LIB_MODULES)
        tracer.install()
        try:
            traced.measure(start + args.seconds, tracer, whole_passes=True)
        finally:
            tracer.uninstall()
        metrics = per_layer(untraced, traced, tracer)
        runs = (untraced, traced)
    else:
        untraced.measure(start + args.seconds)
        metrics = end_to_end(untraced, setup_s)
        runs = (untraced,)
    shutil.rmtree(workdir, ignore_errors=True)

    outcomes = untraced.outcomes
    mismatches = [m for r in runs for m in r.mismatches]
    if args.trace:
        mismatches += [
            f"{inst.id}: traced run gave {b.signature()}, untraced {a.signature()}"
            for inst, a, b in zip(instances, outcomes, traced.outcomes)
            if a.signature() != b.signature()
        ]
        tracer.write(root / "bench" / "out" / f"spans-{args.workload}-seed{args.seed}.csv")
    wrong = [(inst.id, o.detail) for inst, o in zip(instances, outcomes) if o.status == "wrong"]
    failed = [(inst.id, o.detail) for inst, o in zip(instances, outcomes) if o.status == "failed"]

    n = len(instances)
    print(f"workload: {args.workload} seed: {args.seed} inputs: {n} "
          f"passes: {'+'.join(str(r.passes) for r in runs)} "
          f"calls: {sum(len(t) for r in runs for t in r.times)}")
    print(f"outcome_digest: {digest(outcomes)}")
    print(f"error_rate: {len(failed)}/{n} = {len(failed) / n:.4f}")
    for ident, detail in failed:
        print(f"failed: {ident}: {detail}")
    for ident, detail in wrong:
        print(f"WRONG: {ident}: {detail}")
    for line in mismatches:
        print(f"NONDETERMINISTIC: {line}")
    for name, (value, unit) in metrics.items():
        note = f" (over {n} inputs, fastest of each input's calls)" if name.startswith("latency") else ""
        print(f"{name}: {value:.6g} {unit}{note}")

    print(json.dumps({
        "correct": not wrong and not mismatches,
        "attempted": n,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
