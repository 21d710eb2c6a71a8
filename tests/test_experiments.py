import csv
import io
import json
import re

import numpy as np
import pytest

from scmas import experiments
from scmas.errors import NoPureEquilibrium, TooLarge, TypeMismatch, TypeSetTooSmall
from scmas.experiments import (
    CSV_COLUMNS,
    _realized_play,
    bench_scaling,
    classify_signaling,
    compute_aggregate,
    default_param_grid,
    report_to_csv,
    report_to_json,
    run_monte_carlo,
    run_procurement,
    run_synthetic_suite,
    uniform_equilibrium_welfare,
)
from scmas.game import (
    MECHANISM,
    FollowerPolicy,
    InformationStructure,
    LayeredStrategy,
    Observation,
    PayoffEvaluator,
    ScmasGame,
)
from scmas.generators import GeneratorParams, random_instance, synthetic
from scmas.scm import (
    EndogenousVar,
    ExogenousVar,
    Scm,
    StructuralEquation,
    contiguous,
    evaluate,
    sample_exogenous,
    table_from_fn,
)
from scmas.solvers import EquilibriumProfile, SolveMethod, exact_scne, observations
from conftest import make_simple_game, resolve_action


def _mask_timings_json(text):
    payload = json.loads(text)
    for row in payload.get("rows", []):
        row["t_exact_s"] = 0.0
        row["t_approx_s"] = 0.0
    agg = payload.get("aggregate", {})
    for entry in agg.get("timing_table", []):
        entry["t_exact_median_s"] = 0.0
        entry["t_approx_median_s"] = 0.0
    return json.dumps(payload, sort_keys=True)


def _mask_timings_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    i_exact = header.index("t_exact_s")
    i_approx = header.index("t_approx_s")
    for row in rows[1:]:
        row[i_exact] = "0"
        row[i_approx] = "0"
    return rows


def test_monte_carlo_shape_and_zero_improvement():
    report = run_monte_carlo(6, seed=5)
    assert len(report.rows) == 6
    assert report.aggregate["improvement_rate"] == 0.0
    assert report.aggregate["max_abs_welfare_delta"] <= 1e-9
    assert report.aggregate["info_structure_sensitivity"]["fraction_identical"] == 1.0
    assert all(r.error is None for r in report.rows)


DRAWN_FIELDS = ("instance_id", "seed", "topology", "nxl", "nxf", "info",
                "payoff_dist", "instinct_quality")


def test_monte_carlo_records_a_library_error_and_propagates_a_bug(monkeypatch):
    clean = run_monte_carlo(4, seed=5)
    target = clean.rows[1].seed

    def refuse_one(game, **kw):
        if game.meta["seed"] == target:
            raise TooLarge("refused for the test")
        return exact_scne(game, **kw)

    monkeypatch.setattr(experiments, "exact_scne", refuse_one)
    report = run_monte_carlo(4, seed=5)
    row = report.rows[1]
    assert row.error == "TooLarge: refused for the test"
    for name in DRAWN_FIELDS:
        assert getattr(row, name) == getattr(clean.rows[1], name)
    assert all(np.isnan([row.scne_welfare, row.classical_welfare, row.welfare_delta]))
    assert report.aggregate["n_solved"] == len(report.rows) - 1 == 3

    def crash(game, **kw):
        raise RuntimeError("solver bug")

    monkeypatch.setattr(experiments, "exact_scne", crash)
    with pytest.raises(RuntimeError, match="solver bug"):
        run_monte_carlo(2, seed=5)


def test_monte_carlo_requires_positive_count():
    with pytest.raises(ValueError):
        run_monte_carlo(0, seed=1)


def test_monte_carlo_deterministic_and_parallel_consistent():
    a = run_monte_carlo(4, seed=9)
    b = run_monte_carlo(4, seed=9)
    assert _mask_timings_json(report_to_json(a)) == _mask_timings_json(report_to_json(b))
    c = run_monte_carlo(4, seed=9, jobs=2)
    assert _mask_timings_json(report_to_json(a)) == _mask_timings_json(report_to_json(c))


def test_synthetic_suite_single_seed():
    report = run_synthetic_suite([1])
    assert len(report.rows) == 5
    assert {r.topology for r in report.rows} == {
        "coordination", "battle_of_sexes", "stag_hunt", "anti_coordination",
        "prisoners_dilemma_m1",
    }
    assert report.aggregate["max_abs_welfare_delta"] <= 1e-9


def test_synthetic_suite_counts_scale_with_seeds():
    report = run_synthetic_suite([1, 2])
    assert len(report.rows) == 10
    with pytest.raises(ValueError):
        run_synthetic_suite([])


def test_procurement_run_zero_deltas():
    report = run_procurement(4, seed=2)
    assert len(report.rows) == 4
    agg = report.aggregate
    assert agg["cost_savings_delta"] == 0.0
    assert agg["compliance_rate_scne"] == 1.0
    assert agg["compliance_rate_classical"] == 1.0
    assert agg["welfare_variance_delta"] == 0.0
    with pytest.raises(ValueError):
        run_procurement(3, seed=2)


def test_aggregate_recomputable_from_rows():
    report = run_monte_carlo(5, seed=3)
    assert compute_aggregate(report.rows) == report.aggregate


def test_rows_rematerialize_their_instances():
    from scmas.generators import GeneratorParams, info_from_token, random_instance

    report = run_monte_carlo(3, seed=6)
    for row in report.rows:
        params = GeneratorParams(
            row.nxl, row.nxf, row.topology, info_from_token(row.info),
            row.payoff_dist, row.instinct_quality, row.seed,
        )
        game = random_instance(params)
        assert exact_scne(game).welfare == row.scne_welfare


def test_csv_layout_and_digits():
    report = run_monte_carlo(3, seed=4)
    text = report_to_csv(report)
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 4
    for row in rows[1:]:
        for cell in row:
            number = re.fullmatch(r"-?(\d+)\.(\d+)(e[-+]?\d+)?", cell)
            if number:  # significant digits are the mantissa's, not the exponent's
                digits = (number[1] + number[2]).lstrip("0")
                assert len(digits) <= 9


def test_json_report_is_ordered_and_parseable():
    report = run_monte_carlo(3, seed=4)
    payload = json.loads(report_to_json(report))
    assert set(payload) == {"config", "rows", "aggregate"}
    ids = [r["instance_id"] for r in payload["rows"]]
    assert ids == sorted(ids)


def test_bench_scaling_columns():
    table = bench_scaling([2, 3], epsilon=0.1, seed=1, n_instances=3)
    assert [r["size"] for r in table["rows"]] == [2, 3]
    for row in table["rows"]:
        assert row["t_exact_median_s"] is not None
        assert row["mean_abs_error"] is not None
        assert row["mean_abs_error"] <= 0.2


def test_bench_scaling_above_exact_cap():
    table = bench_scaling([10], epsilon=0.5, seed=1, n_instances=1)
    row = table["rows"][0]
    assert row["t_exact_median_s"] is None
    assert row["mean_abs_error"] is None
    assert row["t_approx_median_s"] > 0
    with pytest.raises(ValueError):
        bench_scaling([25], epsilon=0.5, seed=1)


def test_classify_signaling_cases():
    games = [synthetic("battle_of_sexes", s) for s in (0, 1)]
    profs = [exact_scne(g) for g in games]
    from scmas.solvers import EquilibriumProfile, SolveMethod
    from scmas.game import LayeredStrategy

    def with_layer(p, layer, action=0):
        lead = (LayeredStrategy("L1") if layer == "L1"
                else LayeredStrategy(layer, action=action) if layer == "L2"
                else LayeredStrategy("L3", counterfactual_map=(0, 0)))
        return EquilibriumProfile(lead, p.follower, p.leader_payoff,
                                  p.follower_payoff, p.welfare, SolveMethod("exact"))

    sep = [with_layer(profs[0], "L1"), with_layer(profs[1], "L3")]
    assert classify_signaling(games, sep) == "Separating"
    pool = [with_layer(profs[0], "L1"), with_layer(profs[1], "L1")]
    assert classify_signaling(games, pool) == "Pooling"
    games3 = games + [synthetic("battle_of_sexes", 2)]
    semi = [with_layer(profs[0], "L1"), with_layer(profs[1], "L1"),
            with_layer(profs[0], "L2")]
    assert classify_signaling(games3, semi) == "Semi"

    with pytest.raises(TypeSetTooSmall):
        classify_signaling(games[:1], profs[:1])
    with pytest.raises(TypeMismatch):
        classify_signaling(games, profs[:1])
    with pytest.raises(TypeMismatch):
        classify_signaling([synthetic("coordination", 0)] * 2, pool)


def test_uniform_equilibrium_welfare_examples():
    game = synthetic("appendix_d_coordination", 0)
    assert uniform_equilibrium_welfare(game) == pytest.approx(20.0, abs=1e-12)

    doubled = ScmasGame(
        scm=game.scm, leader_action="XL", follower_action="XF",
        rewards=tuple(tuple((2 * a, 2 * b) for a, b in row) for row in game.rewards),
        info=game.info,
    )
    assert uniform_equilibrium_welfare(doubled) == pytest.approx(40.0, abs=1e-12)

    single = synthetic("coordination", 0)  # both diagonal cells are equilibria
    assert uniform_equilibrium_welfare(single) == pytest.approx(18.0, abs=1e-12)

    from conftest import make_simple_game
    cyclic = make_simple_game([[0, 1], [1, 0]], [[1, 0], [0, 1]],
                              (0.5, 0.5), (0.5, 0.5))
    with pytest.raises(NoPureEquilibrium):
        uniform_equilibrium_welfare(cyclic)


def test_layer_histogram_counts_instinct_choices():
    report = run_monte_carlo(8, seed=12)
    hist = report.aggregate["layer_histogram"]
    assert hist["L1"] == 8


def _realized_by_evaluate(game, profile, u):
    """One draw played by evaluating the SCM at it, one draw at a time."""
    i_l = evaluate(game.scm, u)[game.leader_action]
    x_l = resolve_action(profile.leader, i_l)
    lay = profile.leader.layer if game.info.kind == MECHANISM else None
    strat = profile.follower.response(Observation(x_l, lay))
    i_f = evaluate(game.scm, u, {game.leader_action: x_l})[game.follower_action]
    return x_l, resolve_action(strat, i_f)


def _reacting_cycle_game(info):
    """Cycles through both action nodes, run as forward passes, and a follower
    instinct that reacts to the leader's action."""
    k = 3
    scm = Scm(
        exogenous=(ExogenousVar("UL", contiguous(k), (0.5, 0.3, 0.2)),
                   ExogenousVar("UF", contiguous(k), (0.2, 0.3, 0.5))),
        endogenous=(EndogenousVar("Z1", (0, 1)), EndogenousVar("Z2", (0, 1)),
                    EndogenousVar("XL", contiguous(k)), EndogenousVar("XF", contiguous(k))),
        equations=(
            StructuralEquation("Z1", ("XL",), table_from_fn([k], lambda x: int(x == 0))),
            StructuralEquation("Z2", ("XF",), table_from_fn([k], lambda x: x % 2)),
            StructuralEquation("XL", ("UL", "Z1"),
                               table_from_fn([k, 2], lambda u, z: (u + z) % k)),
            StructuralEquation("XF", ("UF", "XL", "Z2"),
                               table_from_fn([k, k, 2], lambda u, x, z: (u + x + z) % k)),
        ),
        action_nodes=("XL", "XF"),
        order=("Z1", "Z2", "XL", "XF"),
    )
    rewards = tuple(tuple((0.0, 0.0) for _ in range(k)) for _ in range(k))
    return ScmasGame(scm, "XL", "XF", rewards, info)


def _realized_play_games(info):
    yield make_simple_game([[0] * 3] * 3, [[0] * 3] * 3, (0.3, 0.3, 0.4),
                           (0.2, 0.5, 0.3), info=info, correlated=True)
    yield _reacting_cycle_game(info)
    for seed, topology in enumerate(("leader_cycle", "follower_cycle")):
        yield random_instance(GeneratorParams(3, 3, topology, info, "uniform", 0.4,
                                              300 + seed))


@pytest.mark.parametrize("info", [InformationStructure("perfect"),
                                  InformationStructure("mechanism")])
def test_realized_play_matches_per_draw_evaluation(info):
    rng = np.random.default_rng(0)
    layers_played = set()
    for game in _realized_play_games(info):
        draws = sample_exogenous(game.scm, 5, 60)
        ev = PayoffEvaluator(game, joints=draws, weights=np.full(60, 1 / 60))
        leaders = [LayeredStrategy("L1"), LayeredStrategy("L2", action=1),
                   LayeredStrategy("L3", counterfactual_map=(2, 0, 1)),
                   LayeredStrategy("L3", counterfactual_map=rng.integers(3, size=3))]
        for shift in range(3):  # every observation meets every follower layer
            responses = {}
            for i, obs in enumerate(observations(game)):
                layer = ("L1", "L2", "L3")[(i + shift) % 3]
                responses[obs] = (
                    LayeredStrategy("L1") if layer == "L1"
                    else LayeredStrategy("L2", action=int(rng.integers(3))) if layer == "L2"
                    else LayeredStrategy("L3", counterfactual_map=rng.integers(3, size=3))
                )
            pol = FollowerPolicy(responses)
            for leader in leaders:
                profile = EquilibriumProfile(leader, pol, 0.0, 0.0, 0.0,
                                             SolveMethod("exact"))
                want = [_realized_by_evaluate(game, profile, u) for u in draws]
                assert _realized_play(ev, profile) == want
                lay = leader.layer if info.kind == MECHANISM else None
                layers_played |= {(leader.layer, pol.response(Observation(x_l, lay)).layer)
                                  for x_l, _ in want}
    assert layers_played == {(a, b) for a in ("L1", "L2", "L3")
                             for b in ("L1", "L2", "L3")}
