"""Repeat run.py over seeds 1-10 and report each metric's median and spread.

    python3 perfbench/sweep.py [--traced-runs 2] [--out perfbench/trajectory/X.json]

Runs are sequential, one seed each, for every workload of BENCHMARK.json,
with its run length. The spread of an end-to-end metric is the distance
between the first and third quartile of its values (statistics.quantiles,
n=4) as a share of their median. A metric is "ok" when its spread stays
below a third of its bound, "in bound" when it stays below the bound, and
"WIDE" otherwise. With --out, the medians of every end-to-end metric, and
every per-layer metric of the first --traced-runs seeds, are written as one
trajectory point.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)


def run_once(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--traced-runs", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "cpus": os.cpu_count(), "processor": platform.processor(),
             "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, name, s, 0) for s in SEEDS]
        e2e = {k: summarize([r[k] for r in runs]) for k in runs[0]}
        for k, s in e2e.items():
            steady = ("ok" if s["spread"] < bounds[k] / 3
                      else "in bound" if s["spread"] <= bounds[k] else "WIDE")
            print(f"{name:<13} {k:<12} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} (bound {bounds[k]}) {steady} "
                  f"[{' '.join(f'{v:.4g}' for v in s['values'])}]", flush=True)
        point["workloads"][name] = {"end_to_end": e2e}
        if args.traced_runs:
            point["workloads"][name]["per_layer"] = {
                str(s): run_once(spec, name, s, 1) for s in SEEDS[:args.traced_runs]}
    if args.out:
        Path(args.out).write_text(json.dumps(point, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
