"""Spans around cfcolor's public functions, recorded from outside the library.

`Tracer.install` replaces each traced function by a wrapper in every
cfcolor module namespace that bound it, because `cli`, `polysolve`,
`fpt`, `interval`, `graphclasses` and `hardness` import these functions
by name.  A span is (name, start, end, parent span, instance, raised,
hit); spans stay in memory until the run writes them out.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from pathlib import Path

TRACED = {
    "graph": ("parse_graph", "complement", "induced_subgraph", "connected_components"),
    "coloring": ("verify", "verify_cfcn", "verify_cfon", "write_coloring"),
    "oracle": ("exact_cf", "decide_cf", "find_unique_coloring"),
    "graphclasses": ("is_split", "is_bipartite", "is_cograph", "cluster_modulator",
                     "threshold_modulator", "validate_modulator"),
    "polysolve": ("solve_split_cfcn", "solve_bipartite_cfcn", "solve_cograph",
                  "lemma1_cfcn", "lemma1_cfon"),
    "interval": ("parse_intervals", "validate_representation", "cfcn_interval", "cfon_interval"),
    "fpt": ("solve_via_kernel", "approx_cfcn_threshold", "approx_cfon_threshold"),
    "hardness": ("cross_validate", "encode"),
    "cli": ("dispatch",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
ROOT = "bench.call"  # the benchmark's own call around each input
MODULATORS = ("graphclasses.cluster_modulator", "graphclasses.threshold_modulator")

NAME, START, END, PARENT, INSTANCE, RAISED, HIT = range(7)


class Tracer:
    def __init__(self, lib, modules):
        self.lib = lib
        self.modules = modules
        self.spans: list[list] = []
        self.instance = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        records_hit = name in MODULATORS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance, True, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                span[RAISED] = False
                if records_hit:
                    span[HIT] = result is not None
                return result
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for mod_name, fnames in TRACED.items():
            owner = getattr(self.lib, mod_name)
            for fname in fnames:
                original = getattr(owner, fname)
                wrapper = self.wrap(f"{mod_name}.{fname}", original)
                for name in self.modules:
                    module = getattr(self.lib, name)
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_ms, raised, and modulator hits."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_ms": 0.0, "failed": 0, "hits": 0}
        )
        for s, inner in zip(self.spans, child_time):
            row = out[s[NAME]]
            row["calls"] += 1
            row["self_ms"] += (s[END] - s[START] - inner) * 1000
            row["failed"] += s[RAISED]
            row["hits"] += bool(s[HIT])
        return out

    def write(self, path: Path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        lines = ["name,start_us,end_us,parent,instance,raised"]
        lines += [
            f"{s[NAME]},{(s[START] - t0) * 1e6:.1f},{(s[END] - t0) * 1e6:.1f},"
            f"{s[PARENT]},{s[INSTANCE]},{int(s[RAISED])}"
            for s in self.spans
        ]
        path.write_text("\n".join(lines) + "\n")
