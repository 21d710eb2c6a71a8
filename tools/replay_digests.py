"""Replay every recorded benchmark digest and report the mismatches.

    python3 tools/replay_digests.py

Runs, for every key of perfbench/digests.json, the workload pass that
produced it (`WORKLOADS[name].run_pass`), applies the workload's correctness
check and compares the masked-artifact digest with the recorded one. Prints
the replayed and mismatched counts per workload and exits 1 on any mismatch;
it writes nothing. A pass that raises or fails its check counts as a
mismatch.

Keys are pass inputs: a suite workload's key is the suite seed of its pass
(pass 0 at that seed), an approx_large key is "seed/game" (pass `game` at
that seed).
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from workloads import WORKLOADS, CheckFailed  # noqa: E402


def passes_by_seed(keys: list[str]) -> dict[int, list[tuple[str, int]]]:
    """The recorded keys grouped by set-up seed, each with its pass index."""
    grouped = defaultdict(list)
    for key in keys:
        seed, _, k = key.partition("/")
        grouped[int(seed)].append((key, int(k or 0)))
    return grouped


def replay(name: str, recorded: dict[str, str]) -> list[str]:
    """The keys of one workload whose replayed digest differs from the record."""
    workload = WORKLOADS[name]
    bad = []
    for seed, passes in passes_by_seed(list(recorded)).items():
        inputs = workload.setup(seed)
        for key, k in passes:
            p = workload.run_pass(inputs, k)
            try:
                workload.check(inputs, p)
            except CheckFailed as exc:
                p.errors.append(str(exc))
            if p.failed or p.errors or p.key != key or p.digest != recorded[key]:
                bad.append(key)
    return bad


def main() -> int:
    table = json.loads((BENCH_DIR / "digests.json").read_text())
    total_bad = 0
    for name, recorded in table.items():
        bad = replay(name, recorded)
        total_bad += len(bad)
        print(f"{name}: replayed {len(recorded)}, mismatched {len(bad)}"
              + (f" ({', '.join(bad[:10])})" if bad else ""), flush=True)
    return 1 if total_bad else 0


if __name__ == "__main__":
    sys.exit(main())
