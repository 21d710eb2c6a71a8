import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from scmas import solvers
from scmas.errors import (
    ActionSpaceTooLarge,
    CapExceeded,
    TooLarge,
    TypeMismatch,
    TypeSetTooSmall,
)
from scmas.game import (
    LAYERS,
    FollowerPolicy,
    InformationStructure,
    LayeredStrategy,
    MixedResponse,
    Observation,
    PayoffEvaluator,
    expected_payoffs,
    signal_matrix,
)
from scmas.generators import (
    TOPOLOGIES,
    GeneratorParams,
    build_instance,
    random_instance,
    synthetic,
)
from scmas.solvers import (
    EquilibriumProfile,
    approx_scne,
    classical_stackelberg,
    exact_scne,
    follower_best_response,
    forward_induction_filter,
    observations,
    profile_to_dict,
    satisficing_scne,
    trembling_hand_check,
)
from scmas.scm import sample_exogenous
from conftest import (
    all_follower_strategies,
    all_leader_strategies,
    assert_no_profitable_deviation,
    first_within_tol,
    make_simple_game,
    oracle_backward_induction,
    oracle_profile_value,
    resolve_action,
    six_action_game,
)


def _perfect(sigma=None):
    return InformationStructure("perfect")


def _params(nxl=2, nxf=2, topology="independent", info=None, dist="uniform",
            quality=0.6, seed=0):
    return GeneratorParams(nxl, nxf, topology,
                           info or InformationStructure("perfect"),
                           dist, quality, seed)


# --- follower best response --------------------------------------------------


def test_follower_best_response_on_coordination_row():
    game = synthetic("appendix_d_coordination", 0)
    strat = follower_best_response(game, Observation(0, None), "L2")
    assert strat == LayeredStrategy("L2", action=0)


def test_follower_best_response_indifference_breaks_low():
    game = make_simple_game([[1, 1], [1, 1]], [[5, 5], [5, 5]],
                            (0.5, 0.5), (0.5, 0.5))
    strat = follower_best_response(game, Observation(1, None), "L2")
    assert strat == LayeredStrategy("L2", action=0)


def test_follower_best_response_matches_brute_force():
    game = random_instance(_params(seed=42))
    for obs in observations(game):
        for layer in ("L1", "L2", "L3"):
            got = follower_best_response(game, obs, layer)
            # brute force over every strategy of that layer, face-value prior
            from scmas.scm import enumerate_exogenous, evaluate
            best = None
            for strat in all_follower_strategies(2):
                if strat.layer != layer:
                    continue
                val = 0.0
                for u, p in enumerate_exogenous(game.scm):
                    i_f = evaluate(game.scm, u, {"XL": obs.action_signal})["XF"]
                    x_f = resolve_action(strat, i_f)
                    val += p * game.rewards[obs.action_signal][x_f][1]
                if best is None or val > best[0] + 1e-12:
                    best = (val, strat)
            assert got == best[1]


# --- exact equilibrium --------------------------------------------------------


def test_exact_selects_high_coordination_outcome():
    game = synthetic("appendix_d_coordination", 0)
    prof = exact_scne(game)
    assert prof.leader == LayeredStrategy("L2", action=0)
    assert prof.follower.response(Observation(0, None)) == LayeredStrategy("L2", action=0)
    assert abs(prof.welfare - 30.0) < 1e-12


def test_single_action_game_is_trivially_solved():
    game = make_simple_game([[7.0]], [[3.0]], (1.0,), (1.0,))
    prof = exact_scne(game)
    assert abs(prof.leader_payoff - 7.0) < 1e-12
    assert abs(prof.follower_payoff - 3.0) < 1e-12


def test_defection_instincts_lead_to_mutual_defection():
    game = synthetic("prisoners_dilemma_m2", 0)
    prof = exact_scne(game)
    lead, pol, vl, vf = oracle_backward_induction(game)
    assert abs(prof.leader_payoff - vl) < 1e-12
    assert abs(prof.follower_payoff - vf) < 1e-12
    assert prof.leader == LayeredStrategy("L2", action=1)
    assert prof.follower.response(Observation(1, "L2")) == LayeredStrategy("L2", action=1)


def test_exact_matches_oracle_on_random_instances():
    for seed in range(12):
        q = (0.2, 0.5, 0.8)[seed % 3]
        info = (InformationStructure("perfect"), InformationStructure("mechanism"))[seed % 2]
        game = random_instance(_params(info=info, quality=q, seed=200 + seed))
        prof = exact_scne(game)
        _, _, vl, vf = oracle_backward_induction(game)
        assert abs(prof.leader_payoff - vl) < 1e-12
        assert abs(prof.follower_payoff - vf) < 1e-12


def test_exact_matches_oracle_with_stochastic_leader_instinct():
    # hand games where the leader's natural play genuinely mixes
    tables = [
        ([[4, 1], [2, 7]], [[3, 5], [6, 0]], (0.6, 0.4), (0.3, 0.7)),
        ([[9, 2], [5, 5]], [[1, 8], [4, 4]], (0.3, 0.7), (0.8, 0.2)),
        ([[2, 8], [6, 1]], [[7, 2], [2, 9]], (0.5, 0.5), (0.5, 0.5)),
    ]
    for info in (InformationStructure("perfect"), InformationStructure("mechanism")):
        for rl, rf, lm, fm in tables:
            game = make_simple_game(rl, rf, lm, fm, info=info)
            prof = exact_scne(game)
            _, _, vl, vf = oracle_backward_induction(game)
            assert abs(prof.leader_payoff - vl) < 1e-12
            assert abs(prof.follower_payoff - vf) < 1e-12
            assert_no_profitable_deviation(game, prof, tol=1e-9)


def _deterministic_game(bins):
    # Single-point instinct distributions: no sampling variance at any N.
    return make_simple_game([[4, 1], [2, 7]], [[3, 5], [6, 0]],
                            (1.0, 0.0), (1.0, 0.0), bins=bins)


def test_enumeration_cap_propagates():
    # 1001 bins per exogenous variable: 1,002,001 joints, over the 10**6 cap.
    with pytest.raises(CapExceeded):
        exact_scne(_deterministic_game(1001))


def test_action_cap_enforced_and_overridable():
    game = build_instance(9, 2, "independent", InformationStructure("perfect"),
                          "uniform", 0.8, 5)
    with pytest.raises(ActionSpaceTooLarge):
        exact_scne(game)
    prof = exact_scne(game, action_cap=9)
    assert prof.method.kind == "exact"


def test_action_cap_env_override(monkeypatch):
    game = build_instance(9, 2, "independent", InformationStructure("perfect"),
                          "uniform", 0.8, 5)
    monkeypatch.setenv("SCMAS_EXACT_CAP", "9")
    prof = exact_scne(game)
    assert prof.method.kind == "exact"


def test_profile_payoffs_reproducible():
    game = random_instance(_params(nxl=3, nxf=3, quality=0.4, seed=77))
    prof = exact_scne(game)
    el, ef = expected_payoffs(game, prof.leader, prof.follower)
    assert el == prof.leader_payoff
    assert ef == prof.follower_payoff
    assert abs(prof.welfare - (el + ef)) < 1e-12


# --- classical baseline -------------------------------------------------------


def test_classical_on_coordination_game():
    game = synthetic("appendix_d_coordination", 0)
    prof = classical_stackelberg(game)
    assert prof.leader == LayeredStrategy("L2", action=0)
    assert abs(prof.welfare - 30.0) < 1e-12


def test_classical_zero_game():
    game = make_simple_game([[0, 0], [0, 0]], [[0, 0], [0, 0]],
                            (0.5, 0.5), (0.5, 0.5))
    assert classical_stackelberg(game).welfare == 0.0


def test_welfare_matches_classical_on_generated_instances():
    from scmas.generators import TOPOLOGIES
    n = 0
    for topo in TOPOLOGIES:
        for q in (0.2, 0.8):
            game = random_instance(_params(nxl=3, nxf=2, topology=topo,
                                           quality=q, seed=300 + n))
            e = exact_scne(game)
            c = classical_stackelberg(game)
            assert abs(e.welfare - c.welfare) <= 1e-9
            n += 1


def test_classical_ignores_layer_signal():
    game = synthetic("battle_of_sexes", 0)  # mechanism information
    prof = classical_stackelberg(game)
    for x in range(2):
        r = {prof.follower.response(Observation(x, lay)) for lay in ("L1", "L2", "L3")}
        assert len(r) == 1


# --- sampling approximation ---------------------------------------------------


def test_approx_deterministic_per_seed():
    game = random_instance(_params(nxl=3, nxf=3, quality=0.4, seed=11))
    a = approx_scne(game, 0.05, seed=9)
    b = approx_scne(game, 0.05, seed=9)
    assert a == b
    assert a.method.kind == "approx" and a.method.n_samples >= 1


def test_approx_equals_exact_on_deterministic_model():
    game = _deterministic_game(10)
    exact = exact_scne(game)
    for eps in (0.5, 0.1):
        approx = approx_scne(game, eps, seed=3)
        assert approx.leader == exact.leader
        assert approx.leader_payoff == exact.leader_payoff


def test_approx_samples_when_the_space_is_not_enumerable():
    # Too many joints to enumerate, so approx solves and reports on its
    # draws alone; they agree with the exact profile of the 10-bin twin.
    approx = approx_scne(_deterministic_game(1001), 0.5, seed=3)
    exact = exact_scne(_deterministic_game(10))
    assert approx.leader == exact.leader == LayeredStrategy("L2", action=1)
    assert approx.follower == exact.follower
    assert approx.leader_payoff == pytest.approx(exact.leader_payoff, abs=1e-12)
    assert approx.follower_payoff == pytest.approx(exact.follower_payoff, abs=1e-12)
    assert exact.leader_payoff == pytest.approx(2.0, abs=1e-12)


def test_approx_close_to_exact_on_small_instance():
    game = random_instance(_params(seed=42))
    exact = exact_scne(game)
    approx = approx_scne(game, 0.01, seed=5)
    assert abs(approx.leader_payoff - exact.leader_payoff) / 10.0 <= 0.01


def test_approx_error_monotone_in_epsilon():
    # averaged over 30 seeds on a stochastic-instinct hand game
    game = make_simple_game([[4, 1], [2, 7]], [[3, 5], [6, 0]],
                            (0.6, 0.4), (0.3, 0.7))
    exact = exact_scne(game)
    means = []
    for eps in (0.1, 0.05, 0.01):
        errs = [
            abs(approx_scne(game, eps, seed=s).leader_payoff - exact.leader_payoff) / 10.0
            for s in range(30)
        ]
        means.append(sum(errs) / len(errs))
    assert means[0] >= means[1] >= means[2]


def test_approx_sample_count_formula():
    game = random_instance(_params(nxl=4, nxf=3, seed=1))
    prof = approx_scne(game, 0.1, seed=0)
    assert prof.method.n_samples == math.ceil(0.5 * 0.1 ** -2 * math.log(4))
    with pytest.raises(ValueError):
        approx_scne(game, 0.0, seed=0)


# --- satisficing --------------------------------------------------------------


def test_satisficing_zero_tolerance_keeps_outcome():
    game = synthetic("appendix_d_coordination", 0)
    prof = satisficing_scne(game, 0.0)
    assert prof.leader == LayeredStrategy("L2", action=0)
    assert abs(prof.welfare - 30.0) < 1e-12
    resp = prof.follower.response(Observation(0, None))
    assert resp == MixedResponse((1.0, 0.0, 0.0))


def test_satisficing_matches_classical_outcome_at_zero():
    game = synthetic("appendix_d_coordination", 0)
    sat = satisficing_scne(game, 0.0)
    cla = classical_stackelberg(game)
    assert sat.leader.action == cla.leader.action == 0


def test_satisficing_wide_tolerance_mixes_uniformly():
    game = synthetic("appendix_d_coordination", 0)
    prof = satisficing_scne(game, 15.0)
    resp = prof.follower.response(Observation(0, None))
    assert resp == MixedResponse((1 / 3, 1 / 3, 1 / 3))
    assert abs(prof.leader_payoff - 5.0) < 1e-12


def test_satisficing_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        satisficing_scne(synthetic("coordination", 0), -1.0)


# --- trembling hand -----------------------------------------------------------


def test_tremble_survives_strict_best_response():
    game = synthetic("appendix_d_coordination", 0)
    prof = exact_scne(game)
    assert trembling_hand_check(game, prof) is True


def test_tremble_single_action_game():
    game = make_simple_game([[7.0]], [[3.0]], (1.0,), (1.0,))
    prof = exact_scne(game)
    assert trembling_hand_check(game, prof) is True


def test_tremble_detects_fragile_margin():
    # leader's optimum relies on the follower never erring: a 1e-2 tremble
    # at the top row erases the 0.05 margin over the safe row
    game = make_simple_game([[10, 0], [9.97, 9.97]], [[5, 0], [3, 0]],
                            (1.0, 0.0), (1.0, 0.0))
    prof = exact_scne(game)
    assert prof.leader == LayeredStrategy("L1")  # ties the forced top row
    assert abs(prof.leader_payoff - 10.0) < 1e-12
    assert trembling_hand_check(game, prof) is False
    assert trembling_hand_check(game, prof, eps_grid=(1e-4,)) is True


# --- forward induction --------------------------------------------------------


def _typed_pair():
    info = InformationStructure("mechanism")
    # type 0: surely-cooperative instinct; type 1: mostly the other action.
    # leader payoffs are response-independent so the instinctive layer is
    # weakly optimal for type 0 and strictly dominated for type 1.
    rl = [[4, 4], [0, 0]]
    rf = [[3, 0], [0, 3]]
    g_good = make_simple_game(rl, rf, (1.0, 0.0), (0.5, 0.5), info=info)
    g_poor = make_simple_game(rl, rf, (0.3, 0.7), (0.5, 0.5), info=info)
    return g_good, g_poor


def _profile_with_response(game, obs, strat):
    # deliberate-layer leader so every instinct-layer observation is off-path
    leader = LayeredStrategy("L2", action=0)
    prof = exact_scne(game)
    responses = dict(prof.follower.responses)
    responses[obs] = strat
    pol = FollowerPolicy(responses)
    el, ef = expected_payoffs(game, leader, pol)
    from scmas.solvers import EquilibriumProfile, SolveMethod
    return EquilibriumProfile(leader, pol, el, ef, el + ef, SolveMethod("exact"))


def test_forward_induction_identity_on_duplicated_type():
    game = synthetic("battle_of_sexes", 0)
    profs = [exact_scne(game)]
    kept = forward_induction_filter([game, game], profs)
    assert kept == profs


def test_forward_induction_removes_misattributed_signal():
    g_good, g_poor = _typed_pair()
    obs = Observation(0, "L1")
    # response rationalized only by pinning the belief on the poor type
    bad = _profile_with_response(g_good, obs, LayeredStrategy("L2", action=1))
    good = _profile_with_response(g_good, obs, LayeredStrategy("L2", action=0))
    kept = forward_induction_filter([g_good, g_poor], [bad, good])
    assert bad not in kept
    assert good in kept


def test_forward_induction_empty_profiles():
    g_good, g_poor = _typed_pair()
    assert forward_induction_filter([g_good, g_poor], []) == []


def test_forward_induction_requires_two_types():
    game = synthetic("battle_of_sexes", 0)
    with pytest.raises(TypeSetTooSmall):
        forward_induction_filter([game], [exact_scne(game)])


def test_forward_induction_requires_mechanism_information():
    game = synthetic("coordination", 0)
    with pytest.raises(TypeMismatch):
        forward_induction_filter([game, game], [exact_scne(game)])


# --- equilibrium self-consistency ----------------------------------------------


def test_no_profitable_deviation_on_generated_games():
    for seed in range(8):
        info = [InformationStructure("perfect"), InformationStructure("mechanism"),
                InformationStructure("imperfect", 0.5)][seed % 3]
        game = random_instance(_params(nxl=3, nxf=3, info=info,
                                       quality=(0.2, 0.8)[seed % 2],
                                       seed=900 + seed))
        prof = exact_scne(game)
        assert_no_profitable_deviation(game, prof, tol=1e-9)


# --- leader search over reached instincts, follower instinct tables ------------


def _reference_backward(game, leader_layers=("L1", "L2", "L3")):
    """Backward induction the unpruned way: every one of the k_L^k_L leader
    maps on every assignment, the first one within the tie tolerance of the
    best, stage-2 cache keyed on the layer."""
    ev = PayoffEvaluator(game)
    cache, found = {}, []
    for cand in all_leader_strategies(ev.k_l):
        if cand.layer not in leader_layers:
            continue
        xl = ev.leader_actions(cand)
        key = (cand.layer, xl.tobytes())
        if key not in cache:
            pol = solvers._stage2(ev, cand.layer, xl)
            cache[key] = (*ev.value_from_actions(xl, cand.layer, pol), pol)
        found.append((*cache[key], cand))
    el, ef, pol, cand = found[first_within_tol([f[0] for f in found], ev.leader_tol)]
    return profile_to_dict(EquilibriumProfile(
        cand, pol, el, ef, el + ef, solvers.SolveMethod("exact")))


def _partially_reached_games(k_l):
    """Games whose leader instinct reaches a strict subset of >= 2 values."""
    rng = np.random.default_rng(k_l)
    for _ in range(4):
        n_reached = int(rng.integers(2, min(k_l - 1, 3) + 1))
        reached = np.sort(rng.choice(k_l, size=n_reached, replace=False))
        counts = np.zeros(k_l, dtype=int)
        counts[reached] = 1 + rng.multinomial(10 - n_reached, np.full(n_reached, 1 / n_reached))
        k_f = int(rng.integers(2, 4))
        f_counts = rng.multinomial(10, np.full(k_f, 1 / k_f))
        rl = rng.integers(0, 4, size=(k_l, k_f)).tolist()
        rf = rng.integers(0, 4, size=(k_l, k_f)).tolist()
        yield tuple(reached), rl, rf, tuple(counts / 10), tuple(f_counts / 10)


@pytest.mark.parametrize("k_l", [3, 4, 5])
@pytest.mark.parametrize("info", [
    InformationStructure("perfect"),
    InformationStructure("mechanism"),
    InformationStructure("imperfect", 0.5),
])
@pytest.mark.parametrize("correlated", [False, True])
def test_pruned_leader_search_matches_full_enumeration(k_l, info, correlated):
    for reached, rl, rf, lm, fm in _partially_reached_games(k_l):
        game = make_simple_game(rl, rf, lm, fm, info=info, correlated=correlated)
        assert profile_to_dict(exact_scne(game)) == _reference_backward(game)
        # Restricted to L3, the winner is a map, so this checks that the
        # pruned search picks the lexicographically first optimal one.
        ev = PayoffEvaluator(game)
        l3 = solvers._solve_backward(
            ev, ("L1", "L2", "L3"), solvers.SolveMethod("exact"), leader_layers=("L3",))
        assert profile_to_dict(l3) == _reference_backward(game, ("L3",))
        assert all(l3.leader.counterfactual_map[v] == 0
                   for v in range(k_l) if v not in reached)


def test_leader_search_keeps_the_layer_under_mechanism_information():
    # The follower answers the L3 signal alone with the action the leader
    # wants. Every L3 map shares its action process with L1 or an L2 action
    # here except (1, 0), so a cache that forgot the layer would pick (1, 0)
    # instead of the first L3 map.
    game = make_simple_game([[0, 10], [0, 10]], [[0, 0], [0, 0]], (0.5, 0.5),
                            (0.5, 0.5), info=InformationStructure("mechanism"))
    pol = FollowerPolicy({
        obs: LayeredStrategy("L2", action=int(obs.layer_signal == "L3"))
        for obs in observations(game)
    })
    best = solvers._best_leader(PayoffEvaluator(game), lambda layer, xl: pol)[3]
    assert best == LayeredStrategy("L3", counterfactual_map=(0, 0))


@pytest.mark.parametrize("k_l", [3, 4, 5])
def test_leader_candidates_count_reached_maps(k_l, monkeypatch):
    for reached, rl, rf, lm, fm in _partially_reached_games(k_l):
        ev = PayoffEvaluator(make_simple_game(rl, rf, lm, fm))
        cands = list(solvers._leader_candidates(ev))
        assert len(cands) == 1 + k_l + k_l ** len(reached)
        maps = [c.counterfactual_map for c in cands if c.layer == "L3"]
        assert maps == sorted(maps)

    # One reached map more than the limit allows: a search that includes
    # L3 is refused, one over L2 alone is not.
    monkeypatch.setattr(solvers, "L3_ENUM_LIMIT", k_l ** len(reached) - 1)
    with pytest.raises(TooLarge, match="L3_ENUM_LIMIT"):
        list(solvers._leader_candidates(ev))
    assert list(solvers._leader_candidates(ev, ("L2",))) == [
        LayeredStrategy("L2", action=a) for a in range(k_l)]


def _l2_by_loop(ev, xl, w):
    """The follower's L2 choice as a per-action np.dot loop."""
    best_a, best_v = 0, -math.inf
    for a in range(ev.k_f):
        v = float(np.dot(w, ev.RF[xl, np.full(len(xl), a, dtype=int)]))
        if v > best_v:
            best_a, best_v = a, v
    return best_v, best_a


def _l3_map_by_loop(ev, xl, w):
    """The follower's L3 map as a masked np.dot per (instinct, action)."""
    instincts = ev.i_follower[np.arange(len(ev.joints)), xl]
    cmap = []
    for v in range(ev.k_f):
        sel = instincts == v
        best_a, best_v = 0, -math.inf
        for a in range(ev.k_f):
            val = float(np.dot(w[sel], ev.RF[xl[sel], a]))
            if val > best_v:
                best_a, best_v = a, val
        cmap.append(best_a)
    return tuple(cmap)


@pytest.mark.parametrize("k_f", [2, 3, 4, 5])
@pytest.mark.parametrize("weights", ["dirichlet", "integer"])
def test_vectorized_follower_choice_matches_loop(k_f, weights):
    rng = np.random.default_rng(10 * k_f + (weights == "integer"))
    k_l = 3
    for _ in range(20):
        rf = rng.integers(-3, 4, size=(k_l, k_f))
        rf[:, -1] = rf[:, 0]  # an exact tie between two actions everywhere
        f_counts = rng.multinomial(10, np.full(k_f, 1 / k_f))
        unreached = int(rng.integers(k_f))
        f_counts[unreached] = 0
        f_counts[(unreached + 1) % k_f] += 10 - f_counts.sum()
        game = make_simple_game(np.zeros((k_l, k_f)).tolist(), rf.tolist(),
                                (0.4, 0.3, 0.3), tuple(f_counts / 10))
        ev = PayoffEvaluator(game)
        n = len(ev.joints)
        xl = rng.integers(k_l, size=n)
        if weights == "integer":  # sums are exact, so every tie is exact
            w = rng.integers(0, 3, size=n).astype(float)
        else:
            w = rng.dirichlet(np.ones(n))
        instincts = ev.i_follower[np.arange(n), xl]
        w[instincts == rng.integers(k_f)] = 0.0  # a reached value of no weight
        table = np.zeros((k_f, k_f))  # the (instinct x action) value table
        np.add.at(table, instincts, w[:, None] * ev.RF[xl])

        v2, a2 = _l2_by_loop(ev, xl, w)
        [got_v2], [got_a2] = solvers._layer_optimum(table[None], "L2", ev.follower_tol)
        assert got_a2 == a2
        assert abs(got_v2 - v2) <= 1e-12

        cmap = _l3_map_by_loop(ev, xl, w)
        [v3], [got_map] = solvers._layer_optimum(table[None], "L3", ev.follower_tol)
        assert tuple(got_map) == cmap
        assert all(cmap[v] == 0 for v in range(k_f) if not w[instincts == v].any())
        # summed through the table, so equal to the per-joint sum up to rounding
        assert abs(v3 - float(np.dot(w, ev.RF[xl, np.asarray(cmap)[instincts]]))) <= 1e-12


def _stage2_by_observation(ev, leader_layer, leader_xl, layers):
    """Stage 2 one observation at a time: the posterior by Bayes over the
    per-assignment weights (face value at zero mass and on another layer),
    then each layer's best strategy by its own loop, then the first layer
    within the follower's tie tolerance of the best."""
    n, tol = len(ev.joints), ev.follower_tol
    responses = {}
    for obs in ev.observations:
        xl, w = np.full(n, obs.action_signal, dtype=int), ev.weights / ev.weights.sum()
        if obs.layer_signal in (None, leader_layer):
            on_path = ev.weights * ev.signal[leader_xl, obs.action_signal]
            if on_path.sum() > 0.0:
                xl, w = leader_xl, on_path / on_path.sum()
        instincts = ev.i_follower[np.arange(n), xl]
        found = []
        for layer in layers:
            if layer == "L1":
                found.append((float(np.dot(w, ev.RF[xl, instincts])), LayeredStrategy("L1")))
            elif layer == "L2":
                vals = [float(np.dot(w, ev.RF[xl, a])) for a in range(ev.k_f)]
                a = first_within_tol(vals, tol)
                found.append((vals[a], LayeredStrategy("L2", action=a)))
            else:
                table = np.zeros((ev.k_f, ev.k_f))
                np.add.at(table, instincts, w[:, None] * ev.RF[xl])
                cmap = [first_within_tol(list(row), tol) for row in table]
                value = float(np.dot(w, ev.RF[xl, np.asarray(cmap)[instincts]]))
                found.append((value, LayeredStrategy("L3", counterfactual_map=cmap)))
        responses[obs] = found[first_within_tol([v for v, _ in found], tol)][1]
    return FollowerPolicy(responses)


_STAGE2_INFOS = (InformationStructure("perfect"), InformationStructure("mechanism"),
                 InformationStructure("imperfect", 0.5), InformationStructure("imperfect", 1.0))


@pytest.mark.parametrize("info", _STAGE2_INFOS, ids=lambda i: f"{i.kind}{i.sigma or ''}")
def test_batched_stage2_matches_per_observation_reference(info):
    # One value table per leader process answers every observation as the
    # per-observation posterior and per-layer loops do, on the full and the
    # merged view and for the exact and the classical follower. In the last
    # game both instincts read one variable, so a posterior moves the
    # follower's instinct and face value differs from it.
    games = [random_instance(_params(nxl=3, nxf=3, topology=topology, info=info,
                                     quality=0.5, seed=1100 + seed))
             for seed, topology in enumerate(TOPOLOGIES)]
    games.append(make_simple_game([[4, 1, 0], [2, 7, 3], [5, 0, 6]],
                                  [[3, 5, 1], [6, 0, 2], [1, 4, 4]],
                                  (0.3, 0.3, 0.4), (0.2, 0.5, 0.3), info=info,
                                  correlated=True))
    for game in games:
        full = PayoffEvaluator(game)
        for ev in (full, full.merged()):
            seen = set()
            for cand in solvers._leader_candidates(ev):
                xl = ev.leader_actions(cand)
                key = (cand.layer, xl.tobytes())
                if key in seen:
                    continue
                seen.add(key)
                for layers in (LAYERS, ("L2",)):
                    assert solvers._stage2(ev, cand.layer, xl, layers) == \
                        _stage2_by_observation(ev, cand.layer, xl, layers), cand


def test_follower_layer_ties_go_to_l1_then_l2_then_l3():
    # The follower's instinct is always action 0, its best action at every
    # leader action: L1, L2 action 0 and the constant map 0 tie exactly.
    rf = [[4.0, 1.0, 2.0], [8.0, 0.5, 3.0], [1.0, 0.25, 0.5]]
    for info in _STAGE2_INFOS[:2]:
        game = make_simple_game(np.zeros((3, 3)).tolist(), rf, (0.4, 0.3, 0.3),
                                (1.0, 0.0, 0.0), info=info)
        ev = PayoffEvaluator(game)
        for cand in all_leader_strategies(ev.k_l):
            xl = ev.leader_actions(cand)
            for layers, want in ((LAYERS, LayeredStrategy("L1")),
                                 (("L2", "L3"), LayeredStrategy("L2", action=0)),
                                 (("L3",), LayeredStrategy("L3", counterfactual_map=(0, 0, 0)))):
                pol = solvers._stage2(ev, cand.layer, xl, layers)
                assert set(pol.responses.values()) == {want}


# --- imperfect information against the plain-enumeration oracle ----------------


def _imperfect_games(sigma):
    info = InformationStructure("imperfect", sigma)
    yield make_simple_game([[4, 1, 0], [2, 7, 3], [5, 0, 6]],
                           [[3, 5, 1], [6, 0, 2], [1, 4, 4]],
                           (0.3, 0.3, 0.4), (0.2, 0.5, 0.3), info=info,
                           correlated=True)
    for seed, topology in enumerate(("independent", "fork_collider", "leader_cycle",
                                     "follower_cycle")):
        yield random_instance(_params(nxl=3, nxf=3, topology=topology, info=info,
                                      seed=700 + seed))


@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_imperfect_payoffs_match_oracle(sigma):
    for game in _imperfect_games(sigma):
        k_l, k_f = len(game.leader_support), len(game.follower_support)
        prof = exact_scne(game)
        obs = observations(game)
        fixed = [
            FollowerPolicy({o: LayeredStrategy("L1") for o in obs}),
            FollowerPolicy({o: LayeredStrategy("L2", action=o.action_signal % k_f)
                            for o in obs}),
            FollowerPolicy({o: LayeredStrategy(
                "L3", counterfactual_map=[(v + o.action_signal) % k_f for v in range(k_f)])
                for o in obs}),
            FollowerPolicy({o: MixedResponse((1 / k_f,) * k_f) for o in obs}),
        ]
        leaders = [prof.leader, LayeredStrategy("L1"), LayeredStrategy("L2", action=k_l - 1),
                   LayeredStrategy("L3", counterfactual_map=[k_l - 1 - v for v in range(k_l)])]
        assert expected_payoffs(game, prof.leader, prof.follower) == pytest.approx(
            oracle_profile_value(game, prof.leader, prof.follower), abs=1e-12)
        for leader in leaders:
            for pol in fixed:
                assert expected_payoffs(game, leader, pol) == pytest.approx(
                    oracle_profile_value(game, leader, pol), abs=1e-12)


# --- forward induction's alternatives ------------------------------------------


@pytest.mark.parametrize("k_l, leader_masses, n_maps", [
    (2, (1.0, 0.0), None),
    (3, (0.6, 0.0, 0.4), None),
    (4, (0.0, 0.3, 0.0, 0.7), 96),
    (4, (0.2, 0.3, 0.5, 0.0), 96),
])
def test_leader_candidates_reach_the_best_of_all_strategies(k_l, leader_masses, n_maps):
    # Against every pure response map (a seeded sample of them at k_L = 4),
    # the candidates that forward induction compares reach the same best
    # value as every leader strategy.
    rng = np.random.default_rng(k_l)
    rl = rng.integers(0, 6, size=(k_l, 2)).tolist()
    game = make_simple_game(rl, [[0, 0]] * k_l, leader_masses, (0.5, 0.5),
                            info=InformationStructure("mechanism"))
    ev = PayoffEvaluator(game)
    obs = observations(game)
    combos = list(itertools.product(range(2), repeat=len(obs)))
    if n_maps is not None:
        combos = [combos[i] for i in rng.choice(len(combos), n_maps, replace=False)]
    for combo in combos:
        pol = FollowerPolicy({o: LayeredStrategy("L2", action=a)
                              for o, a in zip(obs, combo)})
        best_cands = max(ev.profile_value(c, pol)[0]
                         for c in solvers._leader_candidates(ev))
        best_all = max(ev.profile_value(c, pol)[0] for c in all_leader_strategies(k_l))
        assert best_cands == pytest.approx(best_all, abs=1e-12)


# --- refusal above the leader map limit ----------------------------------------


def test_solvers_refuse_more_leader_maps_than_the_limit():
    # Six leader actions, five reached instinct values: 6**5 = 7,776 maps.
    game = six_action_game()
    for solve in (exact_scne, lambda g: approx_scne(g, 0.1, seed=0),
                  lambda g: satisficing_scne(g, 0.0)):
        with pytest.raises(TooLarge, match=r"7776 .*L3_ENUM_LIMIT=4096"):
            solve(game)
    classical = classical_stackelberg(game)
    assert classical.leader.layer == "L2"
    with pytest.raises(TooLarge):
        trembling_hand_check(game, classical)


# --- one observation model for every information structure ---------------------


@pytest.mark.parametrize("info", [
    InformationStructure("perfect"),
    InformationStructure("mechanism"),
    InformationStructure("imperfect", 0.0),
    InformationStructure("imperfect", 0.5),
    InformationStructure("imperfect", 1.0),
])
def test_signal_matrix_reproduces_the_per_kind_observation_formulas(info, monkeypatch):
    # The posterior and the channel read one signal matrix for every kind;
    # they must give bit for bit what a branch per kind gave.
    kind, k_l = info.kind, 4
    channel_matrix = signal_matrix(k_l, info.sigma)

    def per_kind_posterior(ev, obs, leader_layer, leader_xl):
        n = len(ev.joints)
        face_value = np.full(n, obs.action_signal, dtype=int)
        prior = ev.weights / ev.weights.sum()
        if leader_xl is None:
            return face_value, prior
        if kind == "imperfect":
            w = ev.weights * channel_matrix[leader_xl, obs.action_signal]
        else:
            on_path = obs.layer_signal is None or obs.layer_signal == leader_layer
            w = ev.weights * (leader_xl == obs.action_signal) if on_path else np.zeros(n)
        total = w.sum()
        if total <= 0.0:
            return face_value, prior
        return leader_xl, w / total

    def per_kind_channel(x, leader_layer):
        if kind == "imperfect":
            return [(Observation(s, None), p)
                    for s, p in enumerate(channel_matrix[x]) if p > 0.0]
        return [(Observation(x, leader_layer if kind == "mechanism" else None), 1.0)]

    rng = np.random.default_rng(5)
    game = make_simple_game(rng.integers(0, 6, size=(k_l, 3)).tolist(),
                            rng.integers(0, 6, size=(k_l, 3)).tolist(),
                            (0.3, 0.0, 0.7, 0.0), (0.2, 0.5, 0.3), info=info,
                            correlated=True)
    full = PayoffEvaluator(game)
    n = len(full.joints)
    sparse = PayoffEvaluator(game, joints=full.joints,
                             weights=full.weights * (rng.random(n) < 0.3))
    for ev in (full, sparse):
        assert ev.observations == observations(game)
        processes = [ev.leader_actions(LayeredStrategy("L1")),
                     ev.leader_actions(LayeredStrategy("L3", counterfactual_map=(3, 0, 1, 1))),
                     rng.integers(0, k_l, size=n),
                     rng.choice([0, 2], size=n)]  # signals 1 and 3 have no mass
        for layer, xl in itertools.product(("L1", "L2", "L3"), processes):
            for obs in ev.observations:  # mechanism: every off-path layer too
                for args in ((layer, xl), (None, None)):
                    got = solvers._posterior(ev, obs, *args)
                    want = per_kind_posterior(ev, obs, *args)
                    assert np.array_equal(got[0], want[0])
                    assert np.array_equal(got[1], want[1])
            for x in range(k_l):
                got, want = ev.channel(x, layer), per_kind_channel(x, layer)
                assert [o for o, _ in got] == [o for o, _ in want]
                assert np.array_equal([p for _, p in got], [p for _, p in want])

    # approx searches the exact evaluator reweighted by the draws' counts,
    # which on response types is the measure of the draws themselves.
    searched = []

    def record(ev, *args, **kwargs):
        searched.append(ev)
        return solve_backward(ev, *args, **kwargs)

    solve_backward = solvers._solve_backward
    monkeypatch.setattr(solvers, "_solve_backward", record)
    prof = approx_scne(game, 0.1, seed=4)
    n_draws = prof.method.n_samples
    draws = sample_exogenous(game.scm, 4, n_draws)
    idx = [full.joints.index(u) for u in draws]
    (ev,) = searched
    assert np.array_equal(ev.weights, np.bincount(idx, minlength=n) / n_draws)
    for name in ("i_leader", "i_follower", "signal"):
        assert np.array_equal(getattr(ev, name), getattr(full, name))
    assert ev.joints == full.joints
    assert ev.observations == full.observations
    assert ev.reveals_layer == full.reveals_layer
    drawn = PayoffEvaluator(game, joints=draws, weights=np.full(n_draws, 1 / n_draws))
    types, drawn_types = ev.merged(), drawn.merged()
    on = types.weights > 0
    assert np.array_equal(types.i_leader[on], drawn_types.i_leader)
    assert np.array_equal(types.i_follower[on], drawn_types.i_follower)
    assert types.weights[on] == pytest.approx(drawn_types.weights, abs=1e-12)
    on_draws = solve_backward(drawn, LAYERS, prof.method, payoff_ev=full)
    assert profile_to_dict(prof) == profile_to_dict(on_draws)


# --- ties and response types ---------------------------------------------------


def test_exact_ties_break_by_layer_even_when_floats_differ_by_one_ulp():
    # Leader actions 0 and 1 pay the same whatever the follower does, so L2
    # action 0 and every L3 map into {0, 1} are worth the same in exact
    # arithmetic. Summed in groups, the best of those maps comes out one ulp
    # above L2 action 0, both over every assignment and over response types.
    game = make_simple_game([[0.3, 0.3], [0.3, 0.3], [0.0, 0.0]], [[0, 0]] * 3,
                            (0.1, 0.2, 0.7), (0.5, 0.5))
    pol = FollowerPolicy({o: LayeredStrategy("L1") for o in observations(game)})
    l2 = LayeredStrategy("L2", action=0)
    maps = [LayeredStrategy("L3", counterfactual_map=m)
            for m in itertools.product(range(2), repeat=3)]
    full = PayoffEvaluator(game)
    for ev in (full, full.merged()):
        def exact_value(leader):
            xl = ev.leader_actions(leader)
            return sum(Fraction(w) * Fraction(ev.RL[x, 0]) for w, x in zip(ev.weights, xl))

        assert {exact_value(m) for m in maps} == {exact_value(l2)}
        v2 = ev.profile_value(l2, pol)[0]
        assert max(ev.profile_value(m, pol)[0] for m in maps) == math.nextafter(v2, math.inf)
    assert exact_scne(game).leader == l2


def _every_topology_and_information():
    infos = (InformationStructure("perfect"), InformationStructure("mechanism"),
             InformationStructure("imperfect", 0.5))
    for i, topology in enumerate(TOPOLOGIES):
        for j, info in enumerate(infos):
            yield random_instance(_params(nxl=3, nxf=3, topology=topology, info=info,
                                          quality=(0.2, 0.8)[(i + j) % 2],
                                          seed=500 + 3 * i + j))


def test_merged_view_keeps_the_measure_on_distinct_response_types():
    for game in _every_topology_and_information():
        ev = PayoffEvaluator(game)
        types = ev.merged()
        rows = np.column_stack((types.i_leader, types.i_follower))
        assert len(np.unique(rows, axis=0)) == len(rows) == len(types.weights)
        assert types.weights.sum() == pytest.approx(ev.weights.sum(), abs=1e-12)
        full_rows = [tuple(r) for r in np.column_stack((ev.i_leader, ev.i_follower))]
        for r, w in zip(map(tuple, rows), types.weights):
            assert w == pytest.approx(
                sum(v for fr, v in zip(full_rows, ev.weights) if fr == r), abs=1e-12)


def test_search_on_response_types_matches_the_search_on_every_assignment(monkeypatch):
    solves = (exact_scne, classical_stackelberg, lambda g: approx_scne(g, 0.05, seed=2))
    games = list(_every_topology_and_information())
    merged = [[profile_to_dict(solve(g)) for solve in solves] for g in games]
    monkeypatch.setattr(PayoffEvaluator, "merged", lambda self: self)
    full = [[profile_to_dict(solve(g)) for solve in solves] for g in games]
    assert merged == full
