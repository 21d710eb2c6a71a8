"""Run one workload of the scmas benchmark and print its metrics.

    python3 perfbench/run.py --workload mc --seed 1 --seconds 30 --trace 0

--seconds defaults to run_seconds of BENCHMARK.json and --seed to 1.
Run from the root of a source checkout; the library is imported from its
`src` directory, never from an installed copy. With --trace 0 the last line
of standard output is a JSON object holding every end-to-end metric of
BENCHMARK.json; with --trace 1 it holds every per-layer metric. The lines
before it are a human-readable summary. A failed correctness check reports
"correct": false and counts every operation of the run as failed; a
per-layer hook that is missing or never fires aborts with exit code 3.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracer import SOLVER_SPANS, HookError, Tracer, wrapper_costs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15

# Times are reported in reference seconds: each measurement is scaled by
# REF_CALIBRATION_S over the mean of the calibration times taken right before
# and right after it. On a shared 2-vCPU Xeon host, the speed of all code
# alike drifts by up to a factor of two over minutes; the calibration kernel
# slows with it, so the ratio cancels most of that drift. The kernel uses no scmas
# code, so a change to the library cannot move it. REF_CALIBRATION_S is the
# kernel's time on that host when it is quiet.
REF_CALIBRATION_S = 0.01
_CAL_TABLE = {i: 3 * i for i in range(256)}
_CAL_A = np.arange(64.0)
_CAL_B = np.ones(64)

# Runs in a fresh interpreter: the clock starts before `import scmas`. The
# interpreter also times a pure-Python kernel of dict lookups right before and
# right after, so its own speed at that moment scales the set-up time to
# reference seconds. Calibrating in the parent process instead tracked the
# child's import time poorly. REF_SETUP_CALIBRATION_S is about this kernel's
# median time on the host of REF_CALIBRATION_S.
REF_SETUP_CALIBRATION_S = 0.01
_SETUP_PROBE = """
import sys, time
def calibration_s():
    table = {i: 3 * i for i in range(256)}
    t0 = time.perf_counter()
    acc = 0
    for i in range(120000):
        acc += table[i & 255]
    return time.perf_counter() - t0
c0 = calibration_s()
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]))
t = time.perf_counter() - t0
print(repr(t), repr(c0), repr(calibration_s()))
"""


def calibration_s() -> float:
    """Time of a fixed kernel of dict lookups and small numpy calls, the
    operations scmas spends its time in."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60000):
        acc += _CAL_TABLE[i & 255]
    for _ in range(6000):
        acc += float(np.dot(_CAL_A, _CAL_B))
    return time.perf_counter() - t0


def measured(fn):
    """(result, raw seconds, reference seconds) of one call of fn."""
    c0 = calibration_s()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    c1 = calibration_s()
    return result, raw, to_reference(raw, c0, c1)


def to_reference(raw: float, c0: float, c1: float) -> float:
    """Raw seconds scaled by the calibrations taken before and after."""
    return raw * 2.0 * REF_CALIBRATION_S / (c0 + c1)


def _setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Raw and reference set-up time of one fresh interpreter. The probe's
    own clock excludes process start-up."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_PROBE, str(SRC), str(BENCH_DIR),
         workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    t, c0, c1 = map(float, proc.stdout.split()[-3:])
    return t, t * 2.0 * REF_SETUP_CALIBRATION_S / (c0 + c1)


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and reference set-up times of SETUP_REPEATS fresh interpreters,
    one after another."""
    times = [_setup_probe(workload, seed) for _ in range(SETUP_REPEATS)]
    return [raw for raw, _ in times], [ref for _, ref in times]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Gate:
    """Correctness gate over the passes of one run."""

    def __init__(self, workload, inputs, digests: dict):
        self.workload = workload
        self.inputs = inputs
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.matched: set[str] = set()
        self.first_digest: dict[str, str] = {}

    def admit(self, p) -> None:
        from workloads import CheckFailed

        self.attempted += p.attempted
        self.failed += p.failed
        try:
            self.workload.check(self.inputs, p)
        except CheckFailed as exc:
            self.problems.append(f"inputs {p.key}: {exc}")
            return
        if self.first_digest.setdefault(p.key, p.digest) != p.digest:
            self.problems.append(f"inputs {p.key}: artifacts differ between passes")
        recorded = self.digests.get(p.key)
        if recorded is None:
            return
        if recorded != p.digest:
            self.problems.append(f"inputs {p.key}: masked artifacts differ from "
                                 "the recorded digest")
        else:
            self.matched.add(p.key)

    @property
    def correct(self) -> bool:
        return not self.problems

    def summary(self) -> list[str]:
        lines = [f"  failed_frac  {self.failed_frac():.6g} frac "
                 f"({self.reported_failed()} of {self.attempted} operations)"]
        if self.correct:
            note = (f"recorded digest matched for inputs {sorted(self.matched)}"
                    if self.matched else "no digest recorded for these inputs")
            lines.append(f"  correctness  pass ({note})")
        else:
            lines += [f"  correctness  FAIL {p}" for p in self.problems]
        return lines

    def reported_failed(self) -> int:
        return self.failed if self.correct else self.attempted

    def failed_frac(self) -> float:
        return self.reported_failed() / self.attempted


def timed_run(workload, inputs, gate: Gate, seconds: float):
    """Raw and reference pass times, passes running until the next one
    would overrun `seconds` of timed work."""
    raw, ref = [], []
    while not raw or sum(raw) + raw[-1] <= seconds:
        p, t, t_ref = measured(lambda: workload.run_pass(inputs, len(raw)))
        raw.append(t)
        ref.append(t_ref)
        gate.admit(p)
    return raw, ref


def layer_metrics(tr, wall: float, scale: float, operations: int) -> dict:
    """Per-layer metrics of one traced section. `wall` is its raw wall time;
    `scale` turns raw span seconds into reference seconds."""
    calls, items = tr.calls, tr.items
    busy = defaultdict(float, {k: v * scale for k, v in tr.busy.items()})
    self_time = defaultdict(float, {k: v * scale for k, v in tr.self_time.items()})
    solves = calls["solvers.stage2"]
    candidates = items["solvers.stage1"]
    ref_wall = wall * scale
    m = {
        "scm.enumerate.calls": calls["scm.enumerate"],
        "scm.enumerate.joints": items["scm.enumerate"],
        "scm.enumerate.busy_s": busy["scm.enumerate"],
        "scm.sample.draws": items["scm.sample"],
        "scm.sample.busy_s": busy["scm.sample"],
        "game.evaluator.builds": calls["game.evaluator"],
        "game.evaluator.builds_outside_solvers": tr.outside_solvers,
        "game.evaluator.self_s": self_time["game.evaluator"],
        "game.evaluator.share": busy["game.evaluator"] / ref_wall,
    }
    for span in SOLVER_SPANS:
        m[f"{span}.calls"] = calls[span]
        m[f"{span}.busy_s"] = busy[span]
    m.update({
        "solvers.stage2.solves": solves,
        "solvers.stage2.busy_s": busy["solvers.stage2"],
        "solvers.stage2.share": busy["solvers.stage2"] / ref_wall,
        "solvers.stage1.candidates": candidates,
        "solvers.stage1.self_s": sum(self_time[s] for s in SOLVER_SPANS),
        "solvers.stage1.useful_ratio": solves / candidates if candidates else 0.0,
        "generators.instances": items["generators"],
        "generators.busy_s": busy["generators"],
        "experiments.exact_per_instance": calls["solvers.exact"] / operations,
        "experiments.equilibrium_actions.busy_s": busy["experiments.equilibrium_actions"],
        "experiments.serialize_s": busy["experiments.serialize"],
        "experiments.self_s": self_time["experiments.suite"],
        "trace.wall_s": ref_wall,
    })
    return m


def traced_run(name, workload, inputs, gate: Gate, seconds: float) -> dict:
    """Run the traced section, passes 0..trace_passes-1, again and again
    over the same inputs.

    Pass 0 first runs once untraced and is discarded, so no section starts
    cold. Counts must repeat exactly from one section to the next. Span
    times are scaled to reference seconds by the calibrations around the
    section's passes.
    trace.overhead_frac is the wrappers' cost (events times the per-event
    cost that wrapper_costs measures before each section) over the section's
    time without it. Metrics are low medians over the sections, so counts
    stay whole numbers.
    """
    start = time.perf_counter()
    warm, _, _ = measured(lambda: workload.run_pass(inputs, 0))
    gate.admit(warm)
    per_section, section_s = [], 0.0
    counts = None
    while not per_section or time.perf_counter() - start + section_s <= seconds:
        t0 = time.perf_counter()
        per_call, per_item = wrapper_costs()
        with Tracer() as tr:
            timed = [measured(lambda: workload.run_pass(inputs, k))
                     for k in range(workload.trace_passes)]
        passes = [p for p, _, _ in timed]
        wall = sum(t for _, t, _ in timed)
        t_ref = sum(t for _, _, t in timed)
        for p in passes:
            gate.admit(p)
        tr.check_fired(name)
        if counts is None:
            counts = tr.counts()
        elif tr.counts() != counts:
            raise HookError("trace counts differ between two sections of one seed")
        m = layer_metrics(tr, wall, t_ref / wall, sum(p.attempted for p in passes))
        calls, items = tr.events()
        cost = calls * per_call + items * per_item
        m["trace.overhead_frac"] = cost / (wall - cost)
        per_section.append(m)
        section_s = time.perf_counter() - t0

    return {k: statistics.median_low(m[k] for m in per_section)
            for k in per_section[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "scmas" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a scmas source checkout ({SRC / 'scmas'} "
              f"and {spec_path} must exist)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scmas
    from workloads import WORKLOADS

    if not Path(scmas.__file__).resolve().is_relative_to(SRC):
        print(f"error: scmas was imported from {scmas.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads(spec_path.read_text())
    digests = json.loads((BENCH_DIR / "digests.json").read_text())
    workload = WORKLOADS[args.workload]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    inputs = workload.setup(args.seed)
    gate = Gate(workload, inputs, digests.get(args.workload, {}))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        declared = spec["per_layer"]
        try:
            values = traced_run(args.workload, workload, inputs, gate, seconds)
        except HookError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        for m in declared:
            print(f"  {m['name']:<42} {values[m['name']]:.6g} {m['unit']}")
    else:
        declared = spec["end_to_end"]
        setup_raw, setup_ref = setup_seconds(args.workload, args.seed)
        wall_raw, wall_ref = timed_run(workload, inputs, gate, seconds)
        values = {
            "setup_s": statistics.median(setup_ref),
            "wall_s": statistics.median(wall_ref),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": 1.0 - gate.failed_frac(),
        }
        print(f"  setup_s      {values['setup_s']:.4f} s (reference; median of "
              f"{len(setup_ref)} fresh interpreters; raw median "
              f"{statistics.median(setup_raw):.4f} s)")
        print(f"  wall_s       {values['wall_s']:.4f} s (reference; median of "
              f"{len(wall_ref)} passes; raw median {statistics.median(wall_raw):.4f} s, "
              f"raw min {min(wall_raw):.4f} s, raw max {max(wall_raw):.4f} s)")
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
        print(f"  ok_frac      {values['ok_frac']:.6g} frac")
    print("\n".join(gate.summary()))
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError("computed metrics do not match BENCHMARK.json")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.reported_failed(),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
