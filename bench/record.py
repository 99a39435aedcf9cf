"""Record the benchmark's first numbers into `baseline.json`.

    python3 bench/record.py [--seconds 40] [--workloads oracle-exact,auto-solve]

Run from the repository root.  For each workload this runs `run.py`
on seeds 1-10 with tracing off, once on the held-out seed, and once
traced, each in its own process as the benchmark is meant to be run.
It stores each end-to-end metric's ten values with their median,
quartiles and spread, (q3 - q1) / median with quartiles from
`statistics.quantiles(values, n=4)`, and prints the spreads next to each
metric's bound from BENCHMARK.json.  The descriptive parts of
`baseline.json` (families, walls, notes) are kept as they are.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
SEEDS = list(range(1, 11))
HELD_OUT_SEED = 1001


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread_row(values: list[float], unit: str, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "unit": unit, "bound": bound, "median": round(median, 6), "q1": round(q1, 6),
        "q3": round(q3, 6), "spread": round((q3 - q1) / median, 4) if median else 0.0,
        "per_seed": [round(v, 6) for v in values],
    }


def record(workload: str, seconds: float, bounds: dict[str, float]) -> dict:
    results = []
    for seed in SEEDS:
        results.append(run(workload, seed, seconds, 0))
        print(f"{workload} seed {seed}: {json.dumps(results[-1]['metrics'])}", flush=True)
    end_to_end = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        end_to_end[name] = spread_row(values, first["unit"], bounds[name])
    held = run(workload, HELD_OUT_SEED, seconds, 0)
    traced = run(workload, SEEDS[0], seconds, 1)
    return {
        "seeds": SEEDS,
        "correct": all(r["correct"] for r in results),
        "attempted": sorted({r["attempted"] for r in results}),
        "failed": sorted({r["failed"] for r in results}),
        "end_to_end": end_to_end,
        "held_out_seed": {
            "seed": HELD_OUT_SEED, "correct": held["correct"], "attempted": held["attempted"],
            "failed": held["failed"],
            "metrics": {k: round(v["value"], 6) for k, v in held["metrics"].items()},
        },
        "traced_run": {
            "seed": SEEDS[0], "correct": traced["correct"],
            "nonzero_per_layer": {k: round(v["value"], 4)
                                  for k, v in traced["metrics"].items() if v["value"]},
        },
    }


def main(argv: list[str]) -> int:
    bench = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = json.loads(BASELINE.read_text())
    baseline["run_seconds"] = args.seconds
    for workload in args.workloads.split(","):
        measured = record(workload, args.seconds, bounds)
        baseline["workloads"][workload].update(measured)
        for name, row in measured["end_to_end"].items():
            flag = "" if row["spread"] <= row["bound"] / 3 else "  over a third of the bound"
            print(f"{workload} {name}: median {row['median']:.6g} {row['unit']} "
                  f"spread {row['spread']:.3f} bound {row['bound']}{flag}", flush=True)
        BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
