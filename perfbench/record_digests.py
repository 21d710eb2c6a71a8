"""Record the masked-artifact digests that the correctness gate compares.

    python3 perfbench/record_digests.py --seeds 0-31 --passes 3
    python3 perfbench/record_digests.py --seeds 1,12 --passes 40 --workloads mc,procurement

Runs passes 0..passes-1 of every workload for each seed, applies the same
seed-independent checks as run.py, and merges each pass's digest into
digests.json under the pass's input key. A digest already recorded under a
key must not change: re-recording on a tree whose artifacts moved fails.
Record only from a commit whose artifacts are known good.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,12")
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args(argv)

    path = BENCH_DIR / "digests.json"
    table = json.loads(path.read_text())
    for name in args.workloads.split(","):
        workload = WORKLOADS[name]
        recorded = table.setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            inputs = workload.setup(seed)
            for k in range(args.passes):
                p = workload.run_pass(inputs, k)
                workload.check(inputs, p)
                if p.failed:
                    raise SystemExit(f"{name} {p.key}: {p.errors}")
                if recorded.setdefault(p.key, p.digest) != p.digest:
                    raise SystemExit(f"{name} {p.key}: digest differs from the record")
        table[name] = dict(sorted(recorded.items()))
        print(f"{name}: {len(recorded)} digests", flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
