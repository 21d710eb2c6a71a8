"""Shared builders and independent brute-force oracles for the test suite.

The oracles here enumerate strategy spaces exhaustively with plain loops and
never reuse the solver's candidate construction or caching, so they stay
valid as checks against it.
"""

import itertools
import math

import numpy as np
import pytest

from scmas.game import (
    IMPERFECT,
    L1,
    L2,
    L3,
    MECHANISM,
    TIE_TOL,
    FollowerPolicy,
    InformationStructure,
    LayeredStrategy,
    MixedResponse,
    Observation,
    PayoffEvaluator,
    ScmasGame,
    signal_matrix,
)
from scmas.scm import (
    EndogenousVar,
    ExogenousVar,
    Scm,
    StructuralEquation,
    contiguous,
    enumerate_exogenous,
    evaluate,
    table_from_fn,
)
from scmas.solvers import observations


def make_chain_scm():
    """U -> X -> Y with identity equations, X an action node."""
    return Scm(
        exogenous=(ExogenousVar("U", (0, 1), (0.5, 0.5)),),
        endogenous=(EndogenousVar("X", (0, 1)), EndogenousVar("Y", (0, 1))),
        equations=(
            StructuralEquation("X", ("U",), table_from_fn([2], lambda u: u)),
            StructuralEquation("Y", ("X",), table_from_fn([2], lambda x: x)),
        ),
        action_nodes=("X",),
    )


def make_simple_game(rl, rf, leader_masses, follower_masses, info=None,
                     bins=10, correlated=False):
    """Two-action-node game with ten-bin instinct variables per agent.

    With correlated=True both instincts read the leader's bin variable, so
    each is monotone in the other.
    """
    k_l, k_f = len(rl), len(rl[0])

    def mapping(masses):
        counts = [round(m * bins) for m in masses]
        assert sum(counts) == bins
        out = []
        for a, c in enumerate(counts):
            out.extend([a] * c)
        return out

    lmap, fmap = mapping(leader_masses), mapping(follower_masses)
    scm = Scm(
        exogenous=(
            ExogenousVar("UL", contiguous(bins), (1.0 / bins,) * bins),
            ExogenousVar("UF", contiguous(bins), (1.0 / bins,) * bins),
        ),
        endogenous=(EndogenousVar("XL", contiguous(k_l)),
                    EndogenousVar("XF", contiguous(k_f))),
        equations=(
            StructuralEquation("XL", ("UL",), table_from_fn([bins], lambda u: lmap[u])),
            StructuralEquation("XF", ("UL" if correlated else "UF",),
                               table_from_fn([bins], lambda u: fmap[u])),
        ),
        action_nodes=("XL", "XF"),
    )
    rewards = tuple(
        tuple((float(rl[i][j]), float(rf[i][j])) for j in range(k_f))
        for i in range(k_l)
    )
    return ScmasGame(
        scm=scm,
        leader_action="XL",
        follower_action="XF",
        rewards=rewards,
        info=info or InformationStructure("perfect"),
        meta={"name": "test"},
    )


def six_action_game():
    """Six leader actions whose instinct reaches five values, so the leader
    has 6**5 = 7,776 L3 maps over them: more than the solvers' limit."""
    return make_simple_game([[i, 5 - i] for i in range(6)],
                            [[i % 2, 1 - i % 2] for i in range(6)],
                            (0.2, 0.2, 0.2, 0.2, 0.2, 0.0), (0.5, 0.5))


def all_follower_strategies(k_f):
    yield LayeredStrategy(L1)
    for a in range(k_f):
        yield LayeredStrategy(L2, action=a)
    for cmap in itertools.product(range(k_f), repeat=k_f):
        yield LayeredStrategy(L3, counterfactual_map=cmap)


def all_leader_strategies(k_l):
    yield LayeredStrategy(L1)
    for a in range(k_l):
        yield LayeredStrategy(L2, action=a)
    for cmap in itertools.product(range(k_l), repeat=k_l):
        yield LayeredStrategy(L3, counterfactual_map=cmap)


def resolve_action(strat, instinct):
    if isinstance(strat, MixedResponse):
        raise TypeError("pure strategies only")
    if strat.layer == L1:
        return instinct
    if strat.layer == L2:
        return strat.action
    return strat.counterfactual_map[instinct]


def oracle_profile_value(game, leader, policy):
    """Direct expectation by plain enumeration.

    Under imperfect information the follower answers signal s with
    probability signal_matrix[x_l, s], summed over the whole row.
    """
    k_l = len(game.leader_support)
    channel = signal_matrix(k_l, game.info.sigma)
    total_l = total_f = 0.0
    for u, p in enumerate_exogenous(game.scm):
        i_l = evaluate(game.scm, u)[game.leader_action]
        x_l = resolve_action(leader, i_l)
        i_f = evaluate(game.scm, u, {game.leader_action: x_l})[game.follower_action]
        if game.info.kind == IMPERFECT:
            seen = [(Observation(s, None), channel[x_l, s]) for s in range(k_l)]
        else:
            lay = leader.layer if game.info.kind == MECHANISM else None
            seen = [(Observation(x_l, lay), 1.0)]
        for obs, q in seen:
            strat = policy.response(obs)
            if isinstance(strat, MixedResponse):
                rl = sum(w * game.rewards[x_l][a][0] for a, w in enumerate(strat.weights))
                rf = sum(w * game.rewards[x_l][a][1] for a, w in enumerate(strat.weights))
            else:
                x_f = resolve_action(strat, i_f)
                rl, rf = game.rewards[x_l][x_f]
            total_l += p * q * rl
            total_f += p * q * rf
    return total_l, total_f


def first_within_tol(values, tol):
    """The solvers' tie rule: the index of the first value within tol of the
    maximum."""
    top = max(values)
    return next(i for i, v in enumerate(values) if v >= top - tol)


def oracle_backward_induction(game):
    """Reference equilibrium: every follower map enumerated per observation,
    every leader map enumerated, each agent taking the first strategy within
    TIE_TOL times its largest |reward| of its best value.

    Returns (leader strategy, policy, leader value, follower value).
    """
    assert game.info.kind != IMPERFECT
    rl, rf = game.reward_arrays()
    tol_l, tol_f = TIE_TOL * np.abs(rl).max(), TIE_TOL * np.abs(rf).max()
    k_l = len(game.leader_support)
    k_f = len(game.follower_support)
    joints = enumerate_exogenous(game.scm)
    i_l = [evaluate(game.scm, u)[game.leader_action] for u, _ in joints]
    i_f = [
        [evaluate(game.scm, u, {game.leader_action: x})[game.follower_action]
         for x in range(k_l)]
        for u, _ in joints
    ]

    def stage2(leader):
        responses = {}
        for obs in observations(game):
            if obs.layer_signal is None or obs.layer_signal == leader.layer:
                sel = [
                    j for j in range(len(joints))
                    if resolve_action(leader, i_l[j]) == obs.action_signal
                ]
            else:
                sel = []
            if sel and sum(joints[j][1] for j in sel) > 0:
                weighted = [(joints[j][1], obs.action_signal, i_f[j][obs.action_signal])
                            for j in sel]
            else:
                weighted = [
                    (joints[j][1], obs.action_signal, i_f[j][obs.action_signal])
                    for j in range(len(joints))
                ]
            mass = math.fsum(p for p, _, _ in weighted)
            strats = list(all_follower_strategies(k_f))
            values = [
                math.fsum(p * game.rewards[x][resolve_action(strat, inst)][1]
                          for p, x, inst in weighted) / mass
                for strat in strats
            ]
            responses[obs] = strats[first_within_tol(values, tol_f)]
        return FollowerPolicy(responses)

    found = []
    for leader in all_leader_strategies(k_l):
        pol = stage2(leader)
        found.append((*oracle_profile_value(game, leader, pol), leader, pol))
    vl, vf, leader, pol = found[first_within_tol([f[0] for f in found], tol_l)]
    return leader, pol, vl, vf


def assert_no_profitable_deviation(game, profile, tol=1e-9):
    """Exhaustive unilateral-deviation check against an equilibrium profile.

    Follower deviations are per observation against the fixed leader; leader
    deviations are answered by a freshly derived follower best response per
    observation (the sequential reading of unilateral deviation).
    """
    ev = PayoffEvaluator(game)
    k_l, k_f = ev.k_l, ev.k_f
    leader_xl = ev.leader_actions(profile.leader)

    def reach_groups(xl, layer):
        """Per-observation unnormalized (joint indices, weights, action)."""
        groups = {}
        for obs in observations(game):
            if game.info.kind == IMPERFECT:
                entries = []
                for x in range(k_l):
                    idx = np.flatnonzero(xl == x)
                    if idx.size == 0:
                        continue
                    p = ev.signal[x, obs.action_signal]
                    if p > 0:
                        entries.append((idx, ev.weights[idx] * p, x))
                groups[obs] = entries
            else:
                if obs.layer_signal is not None and obs.layer_signal != layer:
                    groups[obs] = []
                    continue
                idx = np.flatnonzero(xl == obs.action_signal)
                groups[obs] = (
                    [(idx, ev.weights[idx], obs.action_signal)] if idx.size else []
                )
        return groups

    def cond_value(entries, strat, reward_col):
        total = 0.0
        for idx, w, x in entries:
            if isinstance(strat, MixedResponse):
                arr = ev.RL if reward_col == 0 else ev.RF
                cell = sum(p * arr[x, a] for a, p in enumerate(strat.weights))
                total += float(w.sum()) * cell
            else:
                insts = ev.i_follower[idx, x]
                xf = np.array([resolve_action(strat, i) for i in insts])
                arr = ev.RL if reward_col == 0 else ev.RF
                total += float(np.dot(w, arr[x, xf]))
        return total

    groups = reach_groups(leader_xl, profile.leader.layer)
    for obs, entries in groups.items():
        stored = cond_value(entries, profile.follower.response(obs), 1)
        for strat in all_follower_strategies(k_f):
            assert cond_value(entries, strat, 1) <= stored + tol, (
                f"follower deviation at {obs} to {strat} is profitable"
            )

    # Leader side: best response of the follower recomputed per deviation,
    # cached on the induced action process.
    br_cache = {}

    def br_policy(layer, xl):
        key = (layer, xl.tobytes())
        if key not in br_cache:
            grp = reach_groups(xl, layer)
            responses = {}
            for obs, entries in grp.items():
                use = entries
                if not use or sum(float(w.sum()) for _, w, _ in use) == 0.0:
                    all_idx = np.arange(len(ev.joints))
                    use = [(all_idx, ev.weights, obs.action_signal)]
                best = None
                for strat in all_follower_strategies(k_f):
                    v = cond_value(use, strat, 1)
                    if best is None or v > best[0] + 1e-12:
                        best = (v, strat)
                responses[obs] = best[1]
            br_cache[key] = FollowerPolicy(responses)
        return br_cache[key]

    eq_value = ev.value_from_actions(leader_xl, profile.leader.layer,
                                     profile.follower)[0]
    for cand in all_leader_strategies(k_l):
        xl = ev.leader_actions(cand)
        pol = br_policy(cand.layer, xl)
        val = ev.value_from_actions(xl, cand.layer, pol)[0]
        assert val <= eq_value + tol, (
            f"leader deviation to {cand} is profitable ({val} > {eq_value})"
        )


@pytest.fixture
def chain_scm():
    return make_chain_scm()
