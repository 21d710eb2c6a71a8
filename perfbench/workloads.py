"""Workloads of the scmas benchmark: inputs, one timed pass, correctness gate.

Each workload has
  setup(seed)            -> inputs (timed as set-up in a fresh interpreter)
  run_pass(inputs, k)    -> Pass, the k-th pass of the timed section
  check(inputs, p)       -> raises CheckFailed; runs outside the timed section
  trace_passes           -> passes 0..trace_passes-1 form the traced section

The three workloads call the library's public API from one process with
jobs=1. Passes are short (about a second or less) so that the host-speed
calibration around each pass tracks the host closely; see run.py. Why each
workload was chosen is in README.md next to this file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass, field

import numpy as np

from scmas import experiments, game, generators, solvers

MC_INSTANCES = 25
PROCUREMENT_CONTRACTS = 800
APPROX_GAMES = 3
APPROX_SIZE = 20
APPROX_EPSILON = 0.05

# Pass k of a suite workload runs the suite at seed + k * PASS_SEED_STRIDE, so
# pass 0 uses the run's seed itself and its artifacts can be compared with
# the recorded digests.
PASS_SEED_STRIDE = 1_000_003

_TIMING_KEY = re.compile(r"^t_.*_s$")


class CheckFailed(AssertionError):
    """A workload's output is wrong."""


@dataclass
class Pass:
    key: str  # names the pass's inputs; recorded digests are keyed by it
    attempted: int
    failed: int
    digest: str | None = None
    result: object = None
    errors: list = field(default_factory=list)


# -- masking and digests -----------------------------------------------------


def _mask(node):
    if isinstance(node, dict):
        return {k: (0.0 if _TIMING_KEY.match(k) else _mask(v)) for k, v in node.items()}
    if isinstance(node, list):
        return [_mask(v) for v in node]
    return node


def masked_json(text: str) -> str:
    """The JSON report with every t_*_s timing field set to 0."""
    return json.dumps(_mask(json.loads(text)), indent=2, sort_keys=True) + "\n"


def masked_csv(text: str) -> str:
    """The CSV report with the t_*_s timing columns blanked."""
    rows = list(csv.reader(io.StringIO(text)))
    cols = [i for i, name in enumerate(rows[0]) if _TIMING_KEY.match(name)]
    for row in rows[1:]:
        for i in cols:
            row[i] = ""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _sha256(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


# -- the two suites ----------------------------------------------------------


def _pass_seed(seed: int, k: int) -> int:
    return seed + k * PASS_SEED_STRIDE


def _suite_pass(seed: int, k: int, run_suite, n_ops: int) -> Pass:
    s = _pass_seed(seed, k)
    try:
        report = run_suite(s)
        js = experiments.report_to_json(report)
        cs = experiments.report_to_csv(report)
    except Exception as exc:  # the whole suite call is lost
        return Pass(str(s), n_ops, n_ops, errors=[f"{type(exc).__name__}: {exc}"])
    errors = [r.error for r in report.rows if r.error is not None]
    return Pass(str(s), len(report.rows), len(errors), result=(report, js, cs),
                errors=errors)


def _check_suite(p: Pass, n_rows: int) -> None:
    """Seed-independent checks of a suite report and its two artifacts."""
    if p.result is None:
        raise CheckFailed(f"suite raised: {p.errors[0]}")
    report, js, cs = p.result
    if len(report.rows) != n_rows:
        raise CheckFailed(f"{len(report.rows)} rows, expected {n_rows}")
    recomputed = experiments.compute_aggregate(report.rows)
    if any(report.aggregate.get(k) != v for k, v in recomputed.items()):
        raise CheckFailed("aggregate does not recompute from the rows")
    ids = list(range(n_rows))
    if [r["instance_id"] for r in json.loads(js)["rows"]] != ids:
        raise CheckFailed("JSON rows are not the sorted instance ids")
    table = list(csv.reader(io.StringIO(cs)))
    if tuple(table[0]) != experiments.CSV_COLUMNS or [int(r[0]) for r in table[1:]] != ids:
        raise CheckFailed("CSV header or rows do not match the report")
    p.digest = _sha256(masked_json(js), masked_csv(cs))


def _seed_only(seed: int) -> int:
    return seed


def _mc_pass(seed: int, k: int) -> Pass:
    return _suite_pass(
        seed, k,
        lambda s: experiments.run_monte_carlo(
            MC_INSTANCES, seed=s, approx_epsilon=APPROX_EPSILON),
        MC_INSTANCES,
    )


def _mc_check(seed: int, p: Pass) -> None:
    _check_suite(p, MC_INSTANCES)


def _procurement_pass(seed: int, k: int) -> Pass:
    return _suite_pass(
        seed, k,
        lambda s: experiments.run_procurement(PROCUREMENT_CONTRACTS, seed=s),
        PROCUREMENT_CONTRACTS,
    )


def _procurement_check(seed: int, p: Pass) -> None:
    _check_suite(p, PROCUREMENT_CONTRACTS)


# -- large approximate solves ------------------------------------------------


def _approx_setup(seed: int):
    """Three 20x20 `independent` games; pass k solves game k mod 3."""
    games = []
    for i in range(APPROX_GAMES):
        game_seed = int(np.random.default_rng([seed, i]).integers(2 ** 62))
        games.append(generators.build_instance(
            APPROX_SIZE, APPROX_SIZE, "independent",
            game.InformationStructure(game.PERFECT), "uniform", 0.8, game_seed,
        ))
    return seed, games


def _approx_pass(inputs, k: int) -> Pass:
    seed, games = inputs
    i = k % len(games)
    key = f"{seed}/{i}"
    try:
        profile = solvers.approx_scne(games[i], APPROX_EPSILON, seed + i)
    except Exception as exc:  # counted as one failed solve
        return Pass(key, 1, 1, errors=[f"{type(exc).__name__}: {exc}"])
    return Pass(key, 1, 0, result=(games[i], profile))


def _approx_check(inputs, p: Pass) -> None:
    if p.errors:
        raise CheckFailed(f"approx solve raised: {p.errors[0]}")
    g, prof = p.result
    payoffs = game.expected_payoffs(g, prof.leader, prof.follower)
    if payoffs != (prof.leader_payoff, prof.follower_payoff):
        raise CheckFailed(
            f"payoffs {payoffs} do not reproduce the profile's "
            f"{(prof.leader_payoff, prof.follower_payoff)}"
        )
    p.digest = _sha256(json.dumps(solvers.profile_to_dict(prof), sort_keys=True))


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run_pass: object
    check: object
    trace_passes: int


# The traced section covers 100 MC instances, 2400 contracts and the three
# large games.
WORKLOADS = {
    w.name: w for w in (
        Workload("mc", _seed_only, _mc_pass, _mc_check, 4),
        Workload("procurement", _seed_only, _procurement_pass, _procurement_check, 3),
        Workload("approx_large", _approx_setup, _approx_pass, _approx_check,
                 APPROX_GAMES),
    )
}
