"""Equilibrium computation by backward induction over reasoning layers.

Stage 2 computes, for a candidate leader strategy, the follower's best
response at every observation (maximized over the follower's own layers),
answering all observations of one leader action process from one
(observation x instinct x action) value table; stage 1 then maximizes the
leader's exact expected reward over all layer and within-layer choices.
Ties are broken by layer preference L1 > L2 > L3, then lowest action index,
then lexicographically smallest counterfactual map: every leader and
follower choice is the first candidate in that order whose value is within
the agent's tie tolerance of the best value (TIE_TOL times the agent's
largest |reward|, `_first_argmax`), so summation order never decides a tie.

Both stages run on response types (`PayoffEvaluator.merged`): assignments
with the same leader instinct and the same follower instinct row are one
row, since payoffs depend on nothing else. The reported payoffs are summed
over every assignment of the measure.

Stage 1 searches leader action processes rather than leader strategies.
Counterfactual maps that differ only on instinct values of zero mass realize
the same process (Balke & Pearl's response types), so leader L3 maps range
over the reached instinct values only, with unreached entries fixed at 0.
That visits the lexicographically first map of each class in the order of a
full enumeration, so the tie-break is unchanged. Stage-2 responses and
payoffs are cached per realized action process; the leader's layer is part
of that key only under mechanism information, the one structure in which the
follower observes it. What the follower observes is one signal matrix per
evaluator (`PayoffEvaluator.signal`, the identity unless information is
imperfect): payoff sums read it forward through `PayoffEvaluator.channel`,
and the follower's posteriors read it backward by Bayes' rule.

Every search for the leader's best reply is `_best_leader`: against the
follower's best response (exact, classical, approx) or against one fixed
follower policy (satisficing, the tremble check, forward induction's
plausibility test). Every fixed follower policy is built by `_policy` from
per-observation posteriors (`_posterior`). The search enumerates only the
leader layers it is asked for, so classical never searches L3. When the
reached instinct values admit more than L3_ENUM_LIMIT (4,096) leader maps,
every solver and check that searches L3 (exact, approx, satisficing,
tremble, forward induction) raises TooLarge rather than settle for a map it
cannot verify.

The exhaustive solvers (exact, classical, satisficing) share one action-space
cap: the `action_cap` argument, else SCMAS_EXACT_CAP, else 8.
"""

from __future__ import annotations

import copy
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ActionSpaceTooLarge,
    CapExceeded,
    TooLarge,
    TypeMismatch,
    TypeSetTooSmall,
)
from .game import (
    L1,
    L2,
    L3,
    LAYERS,
    MECHANISM,
    FollowerPolicy,
    LayeredStrategy,
    MixedResponse,
    Observation,
    PayoffEvaluator,
    ScmasGame,
    observations,  # noqa: F401  (re-exported)
)
from .scm import sample_exogenous

DEFAULT_ACTION_CAP = 8
# The most leader L3 maps over the reached instinct values that stage 1
# enumerates, and the most follower response maps that forward induction
# enumerates; above it both raise TooLarge.
L3_ENUM_LIMIT = 4096

SAMPLE_CONSTANT = 0.5
DEFAULT_TREMBLE_GRID = (1e-2, 1e-3, 1e-4)


def _capped_evaluator(game: ScmasGame, action_cap: int | None) -> PayoffEvaluator:
    """The exact evaluator of a game whose action spaces fit the cap of the
    exhaustive solvers: action_cap if given, else SCMAS_EXACT_CAP, else 8."""
    cap = action_cap
    if cap is None:
        cap = int(os.environ.get("SCMAS_EXACT_CAP", DEFAULT_ACTION_CAP))
    if max(len(game.leader_support), len(game.follower_support)) > cap:
        raise ActionSpaceTooLarge(
            f"action spaces exceed the exact-solver cap {cap} "
            "(set SCMAS_EXACT_CAP or use the sampling solver)"
        )
    return PayoffEvaluator(game)


@dataclass(frozen=True)
class SolveMethod:
    """Provenance of an equilibrium profile."""

    kind: str  # exact | classical_l2 | approx | satisficing
    epsilon: float | None = None
    seed: int | None = None
    n_samples: int | None = None
    eps_sat: float | None = None

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for k in ("epsilon", "seed", "n_samples", "eps_sat"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        return out


@dataclass(frozen=True)
class EquilibriumProfile:
    leader: LayeredStrategy
    follower: FollowerPolicy
    leader_payoff: float
    follower_payoff: float
    welfare: float
    method: SolveMethod

    def __post_init__(self):
        if abs(self.welfare - (self.leader_payoff + self.follower_payoff)) > 1e-12:
            raise ValueError("welfare must equal the payoff sum")


def _posterior(ev: PayoffEvaluator, obs: Observation,
               leader_layer: str | None, leader_xl: np.ndarray | None):
    """Joint weights and per-joint leader actions conditioned on an observation.

    With a leader action process (layer, realized-action array), conditions
    on the event that it produced this observation: Bayes over the signal
    matrix. Off-path, when the observation carries another layer, or
    without a leader process, the follower takes the action signal at face
    value and keeps its prior over the exogenous space.
    """
    face_value = np.full(len(ev.joints), obs.action_signal, dtype=int)
    prior = ev.weights / ev.weights.sum()
    if leader_xl is None or obs.layer_signal not in (None, leader_layer):
        return face_value, prior
    w = ev.weights * ev.signal[leader_xl, obs.action_signal]
    total = w.sum()
    if total <= 0.0:
        return face_value, prior
    return leader_xl, w / total


def _action_values(ev: PayoffEvaluator, xl: np.ndarray, w: np.ndarray) -> list[float]:
    """The follower's value of each deliberate (L2) action at a posterior:
    one np.dot per action over a contiguous row of RF[xl].T."""
    rows = np.ascontiguousarray(ev.RF[xl].T)
    return [float(np.dot(w, rows[a])) for a in range(ev.k_f)]


def _first_argmax(values, tol: float):
    """Index of the first value within tol of the maximum, along the last
    axis: the earliest candidate wins ties, whatever the summation order."""
    values = np.asarray(values)
    return (values >= values.max(axis=-1, keepdims=True) - tol).argmax(axis=-1)


def _layer_optimum(tables: np.ndarray, layer: str, tol: float):
    """(values, choices) of the follower's best strategy within one layer at
    each value table T[obs, instinct, action]. L1's value is the trace, L2's
    the best column sum and L3's the sum of the row maxima; L2 takes the first
    action within tol of the best column, and L3 maps each instinct row to its
    first action within tol of the row's best (action 0 on a row of no weight)."""
    if layer == L1:
        return tables.diagonal(axis1=1, axis2=2).sum(axis=1), None
    if layer == L2:
        cols = tables.sum(axis=1)
        return cols.max(axis=1), _first_argmax(cols, tol)
    return tables.max(axis=2).sum(axis=1), _first_argmax(tables, tol)


def _best_responses(tables: np.ndarray, layers, tol: float) -> list:
    """The follower's best strategy at each table: the first layer within tol of the best."""
    found = [_layer_optimum(tables, layer, tol) for layer in layers]
    win = _first_argmax(np.column_stack([v for v, _ in found]), tol).tolist()
    picks = [None if c is None else c.tolist() for _, c in found]
    return [LayeredStrategy(L1) if layers[k] == L1
            else LayeredStrategy(L2, action=picks[k][o]) if layers[k] == L2
            else LayeredStrategy(L3, counterfactual_map=picks[k][o])
            for o, k in enumerate(win)]


def _face_value_tables(ev: PayoffEvaluator) -> np.ndarray:
    """The table of each action signal s taken at face value: P_s[i] *
    RF[s, a], with P_s[i] the prior mass of follower instinct i at action s."""
    cells = (ev.i_follower + np.arange(ev.k_l) * ev.k_f).ravel()
    prior = np.repeat(ev.weights / ev.weights.sum(), ev.k_l)
    mass = np.bincount(cells, weights=prior, minlength=ev.k_l * ev.k_f)
    return mass.reshape(ev.k_l, ev.k_f, 1) * ev.RF[:, None, :]


def _policy(ev: PayoffEvaluator, answer, leader_layer: str | None,
            leader_xl: np.ndarray | None) -> FollowerPolicy:
    """The follower policy that answers every observation with answer(xl, w)
    at its posterior (`_posterior`) under the leader action process."""
    return FollowerPolicy({
        obs: answer(*_posterior(ev, obs, leader_layer, leader_xl))
        for obs in ev.observations
    })


def _stage2(ev: PayoffEvaluator, leader_layer: str, leader_xl: np.ndarray,
            layers=LAYERS) -> FollowerPolicy:
    """The follower's best response at every observation of one leader action
    process, which matters only through mass[x, i], the weight of realized
    leader action x with follower instinct i. An on-path observation (as in
    `_posterior`) of signal s has the table sum_x mass[x, i] signal[x, s]
    RF[x, a], normalized; every other one is taken at face value."""
    k_l, k_f = ev.k_l, ev.k_f
    inst = ev.i_follower[np.arange(len(leader_xl)), leader_xl]
    mass = np.bincount(leader_xl * k_f + inst, weights=ev.weights,
                       minlength=k_l * k_f).reshape(k_l, k_f)
    tables = ev.signal.T @ (mass[:, :, None] * ev.RF[:, None, :]).reshape(k_l, -1)
    tot = ev.signal.T @ mass.sum(axis=1)
    sig = [o.action_signal for o in ev.observations]
    on_path = np.array([o.layer_signal in (None, leader_layer) for o in ev.observations])
    on_path &= tot[sig] > 0.0
    chosen = np.where(on_path[:, None, None],
                      tables.reshape(k_l, k_f, k_f)[sig]
                      / np.where(on_path, tot[sig], 1.0)[:, None, None],
                      _face_value_tables(ev)[sig])
    return FollowerPolicy(dict(zip(ev.observations,
                                   _best_responses(chosen, layers, ev.follower_tol))))


def follower_best_response(game: ScmasGame, observation: Observation,
                           follower_layer: str) -> LayeredStrategy:
    """Best within-layer response to a single observation taken at face value."""
    ev = PayoffEvaluator(game)
    table = _face_value_tables(ev)[observation.action_signal]
    return _best_responses(table[None], (follower_layer,), ev.follower_tol)[0]


def _leader_candidates(ev, layers=LAYERS):
    """Leader strategies of the given layers in tie-break order: L1, L2 by
    action, then L3.

    L3 maps range over the reached instinct values (positive mass) in
    product order, unreached entries 0. More than L3_ENUM_LIMIT of them
    raise TooLarge before any candidate is yielded.
    """
    if L3 in layers:
        mass = np.bincount(ev.i_leader, weights=ev.weights, minlength=ev.k_l)
        reached = np.flatnonzero(mass > 0)
        n_maps = ev.k_l ** len(reached)
        if n_maps > L3_ENUM_LIMIT:
            raise TooLarge(
                f"{n_maps} leader L3 maps over {len(reached)} reached instinct "
                f"values exceed L3_ENUM_LIMIT={L3_ENUM_LIMIT}"
            )
    if L1 in layers:
        yield LayeredStrategy(L1)
    if L2 in layers:
        for a in range(ev.k_l):
            yield LayeredStrategy(L2, action=a)
    if L3 not in layers:
        return
    cmap = [0] * ev.k_l
    for values in itertools.product(range(ev.k_l), repeat=len(reached)):
        for v, x in zip(reached, values):
            cmap[v] = x
        yield LayeredStrategy(L3, counterfactual_map=cmap)


def _process_key(ev: PayoffEvaluator, layer: str, xl: np.ndarray):
    """Cache key of a leader action process: the realized-action array, plus
    the layer under mechanism information, the only structure that reveals
    it to the follower."""
    return (layer if ev.reveals_layer else None, xl.tobytes())


def _best_leader(ev: PayoffEvaluator, respond, leader_layers=LAYERS):
    """The leader's best candidate when respond(layer, xl) gives the follower
    policy in force against each leader action process.

    Returns (leader payoff, follower payoff, follower policy, leader
    strategy) of the first candidate within the leader's tie tolerance of
    the best payoff. Candidates inducing the same action process
    (`_process_key`) share one response and one payoff pair, so both are
    cached on that key.
    """
    cache: dict = {}
    found = []
    for cand in _leader_candidates(ev, leader_layers):
        xl = ev.leader_actions(cand)
        key = _process_key(ev, cand.layer, xl)
        hit = cache.get(key)
        if hit is None:
            pol = respond(cand.layer, xl)
            hit = cache[key] = (*ev.value_from_actions(xl, cand.layer, pol), pol)
        found.append((*hit, cand))
    return found[_first_argmax([f[0] for f in found], ev.leader_tol)]


def _solve_backward(ev: PayoffEvaluator, follower_layers, method: SolveMethod,
                    payoff_ev: PayoffEvaluator | None = None,
                    leader_layers=LAYERS) -> EquilibriumProfile:
    """Backward induction on the response types of an evaluator's measure
    (exact or empirical). The payoffs are reported on payoff_ev if given,
    else on ev, summed over every assignment."""
    types = ev.merged()
    _, _, pol, cand = _best_leader(
        types, lambda layer, xl: _stage2(types, layer, xl, follower_layers), leader_layers
    )
    el, ef = (ev if payoff_ev is None else payoff_ev).profile_value(cand, pol)
    return EquilibriumProfile(
        leader=cand,
        follower=pol,
        leader_payoff=el,
        follower_payoff=ef,
        welfare=el + ef,
        method=method,
    )


def exact_scne(game: ScmasGame, *,
               action_cap: int | None = None) -> EquilibriumProfile:
    """Exact equilibrium by exhaustive backward induction."""
    ev = _capped_evaluator(game, action_cap)
    return _solve_backward(ev, LAYERS, SolveMethod("exact"))


def classical_stackelberg(game: ScmasGame, *,
                          action_cap: int | None = None) -> EquilibriumProfile:
    """Baseline: both agents restricted to deliberate (L2) play; the follower
    keys only on the action signal, so its response is constant across layer
    signals."""
    ev = _capped_evaluator(game, action_cap)
    return _solve_backward(
        ev, (L2,), SolveMethod("classical_l2"), leader_layers=(L2,)
    )


def approx_scne(game: ScmasGame, epsilon: float, seed: int) -> EquilibriumProfile:
    """Sampling approximation: empirical best responses on N causal draws.

    N = ceil(c * eps^-2 * ln(max(|X_L|, |X_F|, 2))) with c = SAMPLE_CONSTANT.
    The returned strategies come from the empirical comparison. When the
    exogenous space is enumerable, the empirical measure is the exact
    evaluator reweighted by the draws' counts, and the reported payoffs are
    exact, so the profile invariant (payoffs reproducible from the stored
    strategies) holds either way.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    k = max(len(game.leader_support), len(game.follower_support), 2)
    n = math.ceil(SAMPLE_CONSTANT * epsilon ** -2 * math.log(k))
    n = max(n, 1)
    joints = sample_exogenous(game.scm, seed, n)
    try:
        payoff_ev = PayoffEvaluator(game)
    except CapExceeded:
        payoff_ev = None
    if payoff_ev is not None:
        # Enumeration is row-major over 0-based contiguous supports, so a draw's
        # index there is its raveled multi-index (0 with no exogenous variable).
        idx = np.zeros(n, dtype=int)
        for v in game.scm.exogenous:
            idx = idx * len(v.support) + np.fromiter((u[v.id] for u in joints), int, n)
        ev = copy.copy(payoff_ev)
        ev.weights = np.bincount(idx, minlength=len(payoff_ev.joints)) / n
    else:
        ev = PayoffEvaluator(game, joints=joints, weights=np.full(n, 1.0 / n))
    method = SolveMethod("approx", epsilon=epsilon, seed=seed, n_samples=n)
    return _solve_backward(ev, LAYERS, method, payoff_ev=payoff_ev)


def satisficing_scne(game: ScmasGame, eps_sat: float, *,
                     action_cap: int | None = None) -> EquilibriumProfile:
    """Follower accepts anything within eps_sat of its best reward at each
    observation and mixes uniformly over the acceptance set; the leader
    best-responds to that mixture exactly."""
    if eps_sat < 0:
        raise ValueError("eps_sat must be nonnegative")
    ev = _capped_evaluator(game, action_cap)

    def satisfice(xl, w):
        vals = _action_values(ev, xl, w)
        top = max(vals)
        accept = [float(v >= top - eps_sat) for v in vals]
        return MixedResponse(tuple(a / sum(accept) for a in accept))

    pol = _policy(ev, satisfice, None, None)
    el, ef, _, best = _best_leader(ev, lambda layer, xl: pol)
    return EquilibriumProfile(
        leader=best,
        follower=pol,
        leader_payoff=el,
        follower_payoff=ef,
        welfare=el + ef,
        method=SolveMethod("satisficing", eps_sat=eps_sat),
    )


def trembling_hand_check(game: ScmasGame, profile: EquilibriumProfile,
                         eps_grid=DEFAULT_TREMBLE_GRID) -> bool:
    """Finite-grid surrogate for trembling-hand perfection.

    For each grid epsilon the follower is forced to put probability epsilon
    on every action, the rest on its best-response action per observation;
    the check passes if the leader's equilibrium choice stays optimal (under
    the tie-break rule) against every such perturbation. This is a sound
    desk-scale surrogate for the limit definition, not the limit itself.
    """
    ev = PayoffEvaluator(game)
    leader_xl = ev.leader_actions(profile.leader)
    for eps in eps_grid:
        extra = 1.0 - ev.k_f * eps
        if extra < 0:
            raise ValueError(f"epsilon {eps} too large for {ev.k_f} actions")

        def tremble(xl, w):
            weights = [eps] * ev.k_f
            weights[_first_argmax(_action_values(ev, xl, w), ev.follower_tol)] += extra
            return MixedResponse(tuple(weights))

        pol = _policy(ev, tremble, profile.leader.layer, leader_xl)
        if _best_leader(ev, lambda layer, xl: pol)[3] != profile.leader:
            return False
    return True


# --- forward induction ------------------------------------------------------


def _belief_posterior(ev: PayoffEvaluator, obs: Observation):
    """Posterior a follower holds at obs when attributing it to this type.

    An instinctive-layer signal is attributed to the type's natural play (its
    instinct distribution); deliberate and counterfactual signals pin the
    action to the observed one.
    """
    prior = ev.weights / ev.weights.sum()
    if obs.layer_signal == L1:
        return ev.i_leader, prior
    return np.full(len(ev.joints), obs.action_signal, dtype=int), prior


def _response_value(ev, xl, w, strat) -> float:
    if isinstance(strat, MixedResponse):
        vals = _action_values(ev, xl, w)
        return sum(p * vals[a] for a, p in enumerate(strat.weights) if p)
    xf = ev.follower_actions(strat, np.arange(len(xl)), xl)
    return float(np.dot(w, ev.RF[xl, xf]))


def _choice_for_observation(ev: PayoffEvaluator, obs: Observation):
    """The leader choice that would have produced this observation, or None
    if this type cannot produce it."""
    if obs.layer_signal == L2:
        return LayeredStrategy(L2, action=obs.action_signal)
    if obs.layer_signal == L1:
        if not np.any((ev.i_leader == obs.action_signal) & (ev.weights > 0)):
            return None
        return LayeredStrategy(L1)
    return LayeredStrategy(L3, counterfactual_map=(obs.action_signal,) * ev.k_l)


def forward_induction_filter(games: list[ScmasGame],
                             profiles: list[EquilibriumProfile]) -> list[EquilibriumProfile]:
    """Drop profiles whose off-path responses are explicable only by beliefs
    in leader types for whom the observed choice is never optimal.

    A type is plausible at an off-path observation if some assignment of
    pure follower responses to observations makes the observed (layer,
    action) choice weakly optimal for that type: its value is within the
    leader's tie tolerance of the type's best reply to those responses
    (`_best_leader`), whose L3 maps leave out only maps that differ on
    instinct values of zero mass and so reach no other value. A response is
    rationalized by a type when it is within the follower's tie tolerance of
    the best action at the belief pinned on that type. A profile is removed
    when some off-path observation's stored response best-responds to a
    belief pinned on an implausible type while no plausible type
    rationalizes it.
    """
    if len(games) < 2:
        raise TypeSetTooSmall("need at least two leader types")
    shape = (games[0].leader_support, games[0].follower_support)
    for g in games:
        if g.info.kind != MECHANISM:
            raise TypeMismatch("forward induction requires mechanism information")
        if (g.leader_support, g.follower_support) != shape:
            raise TypeMismatch("leader types must share the action shape")
    if not profiles:
        return []

    evs = [PayoffEvaluator(g) for g in games]
    obs_list = evs[0].observations
    k_f = len(games[0].follower_support)
    n_maps = k_f ** len(obs_list)
    if n_maps > L3_ENUM_LIMIT:
        raise TooLarge(
            f"{n_maps} follower response maps exceed L3_ENUM_LIMIT={L3_ENUM_LIMIT}")

    response_maps = []
    for combo in itertools.product(range(k_f), repeat=len(obs_list)):
        response_maps.append(FollowerPolicy({
            o: LayeredStrategy(L2, action=a) for o, a in zip(obs_list, combo)
        }))

    def plausible(t: int, obs: Observation) -> bool:
        choice = _choice_for_observation(evs[t], obs)
        if choice is None:
            return False
        for pol in response_maps:
            v_choice = evs[t].profile_value(choice, pol)[0]
            best = _best_leader(evs[t], lambda layer, xl: pol)[0]
            if v_choice >= best - evs[t].leader_tol:
                return True
        return False

    def rationalized(t: int, obs: Observation, strat) -> bool:
        xl, w = _belief_posterior(evs[t], obs)
        val = _response_value(evs[t], xl, w, strat)
        return val >= max(_action_values(evs[t], xl, w)) - evs[t].follower_tol

    kept = []
    for prof in profiles:
        reached = set()
        for t in range(len(games)):
            xl = evs[t].leader_actions(prof.leader)
            for x in np.unique(xl[evs[t].weights > 0]):
                reached.add(Observation(int(x), prof.leader.layer))
        removed = False
        for obs in obs_list:
            if obs in reached:
                continue
            strat = prof.follower.response(obs)
            plaus = [t for t in range(len(games)) if plausible(t, obs)]
            implaus = [t for t in range(len(games)) if t not in plaus]
            if not plaus or not implaus:
                continue
            if any(rationalized(t, obs, strat) for t in implaus) and not any(
                rationalized(t, obs, strat) for t in plaus
            ):
                removed = True
                break
        if not removed:
            kept.append(prof)
    return kept


# --- serialization ----------------------------------------------------------


def strategy_to_dict(strat) -> dict:
    if isinstance(strat, MixedResponse):
        return {"mixture": list(strat.weights)}
    out = {"layer": strat.layer}
    if strat.layer == L2:
        out["action"] = strat.action
    elif strat.layer == L3:
        out["map"] = list(strat.counterfactual_map)
    return out


def profile_to_dict(profile: EquilibriumProfile) -> dict:
    entries = []
    for obs in sorted(
        profile.follower.responses,
        key=lambda o: (o.layer_signal or "", o.action_signal),
    ):
        entries.append({
            "observation": {
                "action_signal": obs.action_signal,
                "layer_signal": obs.layer_signal,
            },
            "response": strategy_to_dict(profile.follower.responses[obs]),
        })
    return {
        "method": profile.method.to_dict(),
        "leader": strategy_to_dict(profile.leader),
        "follower": entries,
        "leader_payoff": profile.leader_payoff,
        "follower_payoff": profile.follower_payoff,
        "welfare": profile.welfare,
    }
