"""Experiment harness: welfare comparisons, sweeps, benchmark, reports.

Every run is deterministic given its master seed: per-instance seeds derive
from (master seed, instance index) via numpy SeedSequence, rows are sorted by
instance id before aggregation and emission, and parallel execution cannot
change the artifacts. Report floats are emitted with 9 significant digits.
Wall-clock timing columns are reported for orientation only and are the one
field exempt from byte-reproducibility.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    ActionSpaceTooLarge,
    NoPureEquilibrium,
    ScmasError,
    TypeMismatch,
    TypeSetTooSmall,
)
from .game import MECHANISM, PERFECT, InformationStructure, PayoffEvaluator, ScmasGame
from .generators import (
    GeneratorParams,
    PAYOFF_DISTS,
    PROCUREMENT_TYPES,
    SUITE_NAMES,
    TOPOLOGIES,
    build_instance,
    info_from_token,
    info_token,
    procurement,
    random_instance,
    synthetic,
)
from .scm import sample_exogenous
from .solvers import (
    EquilibriumProfile,
    approx_scne,
    classical_stackelberg,
    exact_scne,
    strategy_to_dict,
)

DEFAULT_APPROX_EPSILON = 0.05
PAYOFF_SCALE = 10.0  # generator payoffs live in [0, 10]


def _entropy(*parts) -> np.random.SeedSequence:
    # SeedSequence wants non-negative entropy words
    return np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])


CSV_COLUMNS = (
    "instance_id", "seed", "topology", "nxl", "nxf", "info", "payoff_dist",
    "instinct_quality", "scne_welfare", "classical_welfare", "welfare_delta",
    "pareto_improved", "leader_layer", "t_exact_s", "t_approx_s", "approx_error",
)


@dataclass(frozen=True)
class InstanceResult:
    instance_id: int
    seed: int
    topology: str
    nxl: int
    nxf: int
    info: str
    payoff_dist: str
    instinct_quality: float
    scne_welfare: float
    classical_welfare: float
    welfare_delta: float
    pareto_improved: bool
    leader_layer: str
    t_exact_s: float
    t_approx_s: float
    approx_error: float | None
    info_invariant: bool | None = None
    error: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    rows: tuple[InstanceResult, ...]
    aggregate: dict


def compute_aggregate(rows) -> dict:
    """Pure fold over sorted rows; recomputable from the serialized report."""
    ok = [r for r in rows if r.error is None]
    n = len(ok)
    layer_hist = {"L1": 0, "L2": 0, "L3": 0}
    for r in ok:
        layer_hist[r.leader_layer] += 1
    agg = {
        "n_instances": len(rows),
        "n_solved": n,
        "improvement_rate": (sum(1 for r in ok if r.pareto_improved) / n) if n else 0.0,
        "mean_welfare_delta": (math.fsum(r.welfare_delta for r in ok) / n) if n else 0.0,
        "max_abs_welfare_delta": max((abs(r.welfare_delta) for r in ok), default=0.0),
        "layer_histogram": layer_hist,
        "timing_table": _timing_table(ok),
    }
    checked = [r for r in ok if r.info_invariant is not None]
    if checked:
        agg["info_structure_sensitivity"] = {
            "checked": len(checked),
            "identical": sum(1 for r in checked if r.info_invariant),
            "fraction_identical": sum(1 for r in checked if r.info_invariant) / len(checked),
        }
    return agg


def _timing_table(rows) -> list[dict]:
    by_size: dict[int, list] = {}
    for r in rows:
        by_size.setdefault(max(r.nxl, r.nxf), []).append(r)
    table = []
    for size in sorted(by_size):
        grp = by_size[size]
        table.append({
            "size": size,
            "n": len(grp),
            "t_exact_median_s": statistics.median(r.t_exact_s for r in grp),
            "t_approx_median_s": statistics.median(r.t_approx_s for r in grp),
            "mean_approx_error": math.fsum(
                r.approx_error for r in grp if r.approx_error is not None
            ) / max(1, sum(1 for r in grp if r.approx_error is not None)),
        })
    return table


def equilibrium_actions(game: ScmasGame, profile: EquilibriumProfile) -> dict:
    """On-path outcome summary: the leader strategy plus the follower's
    response at every observation each reached action can produce."""
    ev = PayoffEvaluator(game)
    xl = ev.leader_actions(profile.leader)
    reached = sorted({int(x) for x, w in zip(xl, ev.weights) if w > 0})
    responses = {
        x: [strategy_to_dict(profile.follower.response(obs))
            for obs, _ in ev.channel(x, profile.leader.layer)]
        for x in reached
    }
    return {"leader": strategy_to_dict(profile.leader), "responses": responses}


def _compare(game_a, prof_a, game_b, prof_b) -> bool:
    return (
        equilibrium_actions(game_a, prof_a) == equilibrium_actions(game_b, prof_b)
        and prof_a.welfare == prof_b.welfare
    )


def _solve_and_compare(game, approx_epsilon, approx_seed):
    """The exact profile and a row's comparison fields, scne_welfare
    through approx_error, from the exact, classical and approx solves."""
    t0 = time.perf_counter()
    scne = exact_scne(game)
    t_exact = time.perf_counter() - t0
    classical = classical_stackelberg(game)
    t0 = time.perf_counter()
    approx = approx_scne(game, approx_epsilon, approx_seed)
    t_approx = time.perf_counter() - t0
    return scne, dict(
        scne_welfare=scne.welfare,
        classical_welfare=classical.welfare,
        welfare_delta=scne.welfare - classical.welfare,
        pareto_improved=_pareto_improved(scne, classical),
        leader_layer=scne.leader.layer,
        t_exact_s=t_exact,
        t_approx_s=t_approx,
        approx_error=abs(approx.leader_payoff - scne.leader_payoff) / PAYOFF_SCALE,
    )


def _pareto_improved(scne, classical) -> bool:
    return (
        scne.leader_payoff >= classical.leader_payoff
        and scne.follower_payoff >= classical.follower_payoff
        and (scne.leader_payoff > classical.leader_payoff
             or scne.follower_payoff > classical.follower_payoff)
    )


def default_param_grid() -> dict:
    return {
        "topologies": list(TOPOLOGIES),
        "sizes": [2, 3, 4, 5],
        "infos": ["perfect", "mechanism", "imperfect:0.1", "imperfect:0.5",
                  "imperfect:1.0"],
        "payoff_dists": list(PAYOFF_DISTS),
        "qualities": [0.2, 0.4, 0.6, 0.8],
    }


def _draw_params(grid: dict, rng: np.random.Generator, seed: int) -> GeneratorParams:
    pick = lambda key: grid[key][int(rng.integers(len(grid[key])))]
    topology = pick("topologies")
    nxl = int(pick("sizes"))
    nxf = int(pick("sizes"))
    info = info_from_token(pick("infos"))
    dist = pick("payoff_dists")
    quality = float(pick("qualities"))
    return GeneratorParams(nxl, nxf, topology, info, dist, quality, seed)


def _mc_instance(args) -> InstanceResult:
    master_seed, idx, grid, approx_epsilon = args
    rng = np.random.default_rng(_entropy(master_seed, idx))
    game_seed = int(rng.integers(2 ** 62))
    approx_seed = int(rng.integers(2 ** 62))
    params = _draw_params(grid, rng, game_seed)
    drawn = dict(
        instance_id=idx,
        seed=game_seed,
        topology=params.topology,
        nxl=params.n_leader_actions,
        nxf=params.n_follower_actions,
        info=info_token(params.info),
        payoff_dist=params.payoff_dist,
        instinct_quality=params.instinct_quality,
    )
    try:
        game = random_instance(params)
        scne, compared = _solve_and_compare(game, approx_epsilon, approx_seed)
        # Swap in perfect vs mechanism information on the same draw and check
        # that the equilibrium outcome does not move. The drawn game is one
        # of the pair unless its information is imperfect.
        pair = {params.info.kind: (game, scne)}
        for kind in (PERFECT, MECHANISM):
            if kind not in pair:
                g = random_instance(replace(params, info=InformationStructure(kind)))
                pair[kind] = (g, exact_scne(g))
        invariant = _compare(*pair[PERFECT], *pair[MECHANISM])
        return InstanceResult(**drawn, **compared, info_invariant=invariant)
    except ScmasError as exc:  # recorded per instance, the run continues
        return InstanceResult(
            **drawn,
            scne_welfare=float("nan"), classical_welfare=float("nan"),
            welfare_delta=float("nan"), pareto_improved=False, leader_layer="L2",
            t_exact_s=0.0, t_approx_s=0.0, approx_error=None,
            error=f"{type(exc).__name__}: {exc}",
        )


def _run_parallel(worker, arglist, jobs):
    if jobs <= 1:
        return [worker(a) for a in arglist]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, arglist))


def run_monte_carlo(n_instances: int, param_grid: dict | None = None,
                    seed: int = 0, *, jobs: int = 1,
                    approx_epsilon: float = DEFAULT_APPROX_EPSILON) -> ExperimentReport:
    """Random-instance welfare comparison against the deliberate baseline."""
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    grid = param_grid or default_param_grid()
    args = [(seed, idx, grid, approx_epsilon) for idx in range(n_instances)]
    rows = _run_parallel(_mc_instance, args, jobs)
    rows = tuple(sorted(rows, key=lambda r: r.instance_id))
    config = {"suite": "monte_carlo", "n_instances": n_instances, "seed": seed,
              "approx_epsilon": approx_epsilon, "param_grid": grid}
    return ExperimentReport(config, rows, compute_aggregate(rows))


def _synthetic_instance(args) -> InstanceResult:
    idx, name, seed, approx_epsilon = args
    game = synthetic(name, seed)
    approx_seed = int(np.random.default_rng(_entropy(seed, idx)).integers(2 ** 62))
    _, compared = _solve_and_compare(game, approx_epsilon, approx_seed)
    return InstanceResult(
        instance_id=idx,
        seed=seed,
        topology=name,
        nxl=len(game.leader_support),
        nxf=len(game.follower_support),
        info=info_token(game.info),
        payoff_dist="fixed",
        instinct_quality=game.meta["instinct_quality"],
        **compared,
    )


def run_synthetic_suite(seeds, *, jobs: int = 1,
                        approx_epsilon: float = DEFAULT_APPROX_EPSILON) -> ExperimentReport:
    """Each of the five hand-crafted game types, once per seed."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    args = [
        (idx, name, s, approx_epsilon)
        for idx, (s, name) in enumerate(
            (s, name) for s in seeds for name in SUITE_NAMES
        )
    ]
    rows = tuple(sorted(_run_parallel(_synthetic_instance, args, jobs),
                        key=lambda r: r.instance_id))
    config = {"suite": "synthetic", "seeds": seeds, "approx_epsilon": approx_epsilon}
    return ExperimentReport(config, rows, compute_aggregate(rows))


def _realized_play(ev: PayoffEvaluator, profile: EquilibriumProfile) -> list:
    """The (x_l, x_f) pair per joint of ev when the profile is played under
    perfect or mechanism information, where each action is observed as is."""
    xl = ev.leader_actions(profile.leader)
    xf = np.empty_like(xl)
    for x in range(ev.k_l):
        idx = np.flatnonzero(xl == x)
        [(obs, _)] = ev.channel(x, profile.leader.layer)
        xf[idx] = ev.follower_actions(profile.follower.response(obs), idx, x)
    return list(zip(xl.tolist(), xf.tolist()))


def run_procurement(n_contracts: int, seed: int = 0) -> ExperimentReport:
    """Contract simulation split evenly across the two contractor types."""
    if n_contracts < 2 or n_contracts % 2 != 0:
        raise ValueError("n_contracts must be an even count >= 2")
    per_type = n_contracts // 2
    rows = []
    summary = {}
    rl_arrs = {}
    for t_idx, ctype in enumerate(PROCUREMENT_TYPES):
        game = procurement(ctype, seed)
        scne = exact_scne(game)
        classical = classical_stackelberg(game)
        rl, rf = game.reward_arrays()
        rl_arrs[ctype] = (rl, rf)
        draws = sample_exogenous(game.scm, seed + t_idx, per_type)
        ev = PayoffEvaluator(game, joints=draws, weights=np.full(per_type, 1.0 / per_type))
        contracts = list(zip(_realized_play(ev, scne), _realized_play(ev, classical)))
        for i, (xs, xc) in enumerate(contracts):
            idx = t_idx * per_type + i
            rows.append(InstanceResult(
                instance_id=idx,
                seed=seed,
                topology=f"procurement_{ctype}",
                nxl=3, nxf=3,
                info=info_token(game.info),
                payoff_dist="fixed",
                instinct_quality=game.meta["instinct_quality"],
                scne_welfare=float(rl[xs] + rf[xs]),
                classical_welfare=float(rl[xc] + rf[xc]),
                welfare_delta=float((rl[xs] + rf[xs]) - (rl[xc] + rf[xc])),
                pareto_improved=_pareto_improved(scne, classical),
                leader_layer=scne.leader.layer,
                t_exact_s=0.0,
                t_approx_s=0.0,
                approx_error=None,
            ))
        summary[ctype] = contracts

    def stats(side):
        savings, compliance, welfare = [], [], []
        for ctype in PROCUREMENT_TYPES:
            rl, rf = rl_arrs[ctype]
            for pair in summary[ctype]:
                x = pair[side]
                savings.append(float(rl[x]))
                compliance.append(1.0 if x[1] == 0 else 0.0)  # truthful bid
                welfare.append(float(rl[x] + rf[x]))
        mean = lambda xs: math.fsum(xs) / len(xs)
        var = lambda xs: math.fsum((v - mean(xs)) ** 2 for v in xs) / len(xs)
        return mean(savings), mean(compliance), var(welfare)

    s_save, s_comp, s_var = stats(0)
    c_save, c_comp, c_var = stats(1)
    rows = tuple(sorted(rows, key=lambda r: r.instance_id))
    aggregate = compute_aggregate(rows)
    aggregate.update({
        "cost_savings_delta": s_save - c_save,
        "compliance_rate_scne": s_comp,
        "compliance_rate_classical": c_comp,
        "compliance_delta": s_comp - c_comp,
        "welfare_variance_delta": s_var - c_var,
    })
    config = {"suite": "procurement", "n_contracts": n_contracts, "seed": seed}
    return ExperimentReport(config, rows, aggregate)


def bench_scaling(sizes, epsilon: float, seed: int, *,
                  n_instances: int = 30) -> dict:
    """Median solve times and approximation error per action-space size.

    Errors are |approx - exact| leader payoff on the [0, 1] normalized scale,
    reported only where the exact solver is feasible. Timings are
    hardware-dependent and never gated.
    """
    sizes = list(sizes)
    if any(s < 2 or s > 20 for s in sizes):
        raise ValueError("sizes must lie in [2, 20]")
    out_rows = []
    for size in sizes:
        t_exacts, t_approxs, errors = [], [], []
        for i in range(n_instances):
            rng = np.random.default_rng(_entropy(seed, size, i))
            game_seed = int(rng.integers(2 ** 62))
            approx_seed = int(rng.integers(2 ** 62))
            game = build_instance(
                size, size, "independent", InformationStructure(PERFECT),
                "uniform", 0.8, game_seed,
            )
            exact = None
            t_exact = None
            try:
                t0 = time.perf_counter()
                exact = exact_scne(game)
                t_exact = time.perf_counter() - t0
            except ActionSpaceTooLarge:
                pass
            t0 = time.perf_counter()
            approx = approx_scne(game, epsilon, approx_seed)
            t_approxs.append(time.perf_counter() - t0)
            if exact is not None:
                t_exacts.append(t_exact)
                errors.append(abs(approx.leader_payoff - exact.leader_payoff)
                              / PAYOFF_SCALE)
        out_rows.append({
            "size": size,
            "n": n_instances,
            "t_exact_median_s": statistics.median(t_exacts) if t_exacts else None,
            "t_approx_median_s": statistics.median(t_approxs),
            "mean_abs_error": (math.fsum(errors) / len(errors)) if errors else None,
        })
    return {"epsilon": epsilon, "seed": seed, "n_instances": n_instances,
            "rows": out_rows}


def classify_signaling(type_games, profiles) -> str:
    """Separating / Pooling / Semi by the layer signals the types choose."""
    if len(type_games) < 2:
        raise TypeSetTooSmall("need at least two leader types")
    if len(profiles) != len(type_games):
        raise TypeMismatch("one profile per leader type required")
    for g in type_games:
        if g.info.kind != MECHANISM:
            raise TypeMismatch("signaling classification requires mechanism information")
    signals = [p.leader.layer for p in profiles]
    if len(set(signals)) == len(signals):
        return "Separating"
    if len(set(signals)) == 1:
        return "Pooling"
    return "Semi"


def uniform_equilibrium_welfare(game: ScmasGame) -> float:
    """Expected welfare when play randomizes uniformly over the pure
    equilibrium outcomes of the induced action matrix."""
    rl, rf = game.reward_arrays()
    k_l, k_f = rl.shape
    eqs = [
        (i, j)
        for i in range(k_l)
        for j in range(k_f)
        if rl[i, j] >= rl[:, j].max() and rf[i, j] >= rf[i, :].max()
    ]
    if not eqs:
        raise NoPureEquilibrium("the induced action matrix has no pure equilibrium")
    return math.fsum(rl[i, j] + rf[i, j] for i, j in eqs) / len(eqs)


# --- serialization ----------------------------------------------------------


def _fmt9(x) -> str:
    return f"{x:.9g}"


def _round9(obj):
    if isinstance(obj, float):
        return float(_fmt9(obj))
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def report_to_json(report: ExperimentReport) -> str:
    payload = {
        "config": report.config,
        "rows": [asdict(r) for r in report.rows],
        "aggregate": report.aggregate,
    }
    return json.dumps(_round9(payload), indent=2, sort_keys=True) + "\n"


def report_to_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.rows:
        writer.writerow([
            r.instance_id,
            r.seed,
            r.topology,
            r.nxl,
            r.nxf,
            r.info,
            r.payoff_dist,
            _fmt9(r.instinct_quality),
            _fmt9(r.scne_welfare),
            _fmt9(r.classical_welfare),
            _fmt9(r.welfare_delta),
            "true" if r.pareto_improved else "false",
            r.leader_layer,
            _fmt9(r.t_exact_s),
            _fmt9(r.t_approx_s),
            "" if r.approx_error is None else _fmt9(r.approx_error),
        ])
    return buf.getvalue()


def write_report(report: ExperimentReport, csv_path=None, json_path=None) -> None:
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(report_to_csv(report))
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
