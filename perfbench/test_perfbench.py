"""Self-tests of the benchmark: tracer determinism and liveness, the
correctness gate, and the refusal to run outside a source checkout.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import scmas  # noqa: E402
from scmas import experiments, solvers  # noqa: E402
from tracer import Hook, HookError, Tracer, wrapper_costs  # noqa: E402
from workloads import WORKLOADS, masked_csv, masked_json  # noqa: E402

SEED = 1


def _traced_counts(workload, inputs) -> dict:
    with Tracer() as tr:
        for k in range(workload.trace_passes):
            workload.run_pass(inputs, k)
    tr.check_fired(workload.name)
    return {
        "solvers.stage1.candidates": tr.items["solvers.stage1"],
        "solvers.stage2.solves": tr.calls["solvers.stage2"],
        "game.evaluator.builds": tr.calls["game.evaluator"],
        "scm.enumerate.joints": tr.items["scm.enumerate"],
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_for_one_seed(name):
    workload = WORKLOADS[name]
    inputs = workload.setup(SEED)
    first = _traced_counts(workload, inputs)
    assert all(v > 0 for v in first.values()), first
    assert _traced_counts(workload, inputs) == first


def test_tracer_patches_every_binding_and_restores_them():
    orig = solvers.exact_scne
    with Tracer():
        assert solvers.exact_scne is not orig
        assert experiments.exact_scne is solvers.exact_scne
        assert scmas.exact_scne is solvers.exact_scne
    assert solvers.exact_scne is orig
    assert experiments.exact_scne is orig and scmas.exact_scne is orig


def test_missing_hook_target_fails_loudly():
    bad = (Hook("scmas.solvers", "no_such_entry_point", "solvers.stage2", ("mc",)),)
    orig = solvers._stage2
    with pytest.raises(HookError, match="missing"):
        with Tracer(hooks=bad):
            pass
    assert solvers._stage2 is orig


def test_silent_hook_fails_loudly():
    workload = WORKLOADS["approx_large"]
    inputs = workload.setup(SEED)
    with Tracer() as tr:
        workload.run_pass(inputs, 0)
    tr.check_fired("approx_large")
    with pytest.raises(HookError, match="_stage2|exact_scne"):
        Tracer().check_fired("approx_large")
    with pytest.raises(HookError, match="exact_scne"):
        tr.check_fired("mc")


def test_wrapper_costs_are_positive():
    per_call, per_item = wrapper_costs()
    assert per_call > per_item > 0


def test_masking_removes_only_timings():
    a = experiments.run_monte_carlo(3, seed=SEED)
    b = experiments.run_monte_carlo(3, seed=SEED)
    js = experiments.report_to_json(a)
    assert masked_json(js) == masked_json(experiments.report_to_json(b))
    assert masked_csv(experiments.report_to_csv(a)) == masked_csv(
        experiments.report_to_csv(b))
    masked = json.loads(masked_json(js))
    assert all(r["t_exact_s"] == 0.0 for r in masked["rows"])
    assert [r["scne_welfare"] for r in masked["rows"]] == [
        r["scne_welfare"] for r in json.loads(js)["rows"]]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_matches_recorded_digest(name):
    workload = WORKLOADS[name]
    inputs = workload.setup(SEED)
    p = workload.run_pass(inputs, 0)
    workload.check(inputs, p)
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())[name]
    assert recorded[p.key] == p.digest


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
