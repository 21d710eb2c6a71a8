"""Leader-follower game objects over an SCM, and exact expected payoffs.

A game pairs a discrete SCM with a leader action node, a follower action
node, a dense numeric reward table keyed by the two actions, and an
information structure describing what the follower sees before responding.
Both agents choose a reasoning layer: L1 plays the node's natural value, L2
forces an action, L3 observes the natural value and maps it to an action.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownVariable
from .scm import (
    Scm,
    compiled_evaluate,
    enumerate_exogenous,
    scm_from_dict,
    scm_to_dict,
    unfreeze,
)

L1 = "L1"
L2 = "L2"
L3 = "L3"
LAYERS = (L1, L2, L3)

PERFECT = "perfect"
MECHANISM = "mechanism"
IMPERFECT = "imperfect"

# Two values tie when they differ by at most TIE_TOL times the largest
# |reward| of the agent comparing them (`PayoffEvaluator.leader_tol`,
# `follower_tol`), so summation order never decides a choice.
TIE_TOL = 1e-9

# Discretization of the additive Gaussian signal channel.
NOISE_GRID_POINTS = 17
NOISE_GRID_SPAN = 4.0


@dataclass(frozen=True)
class InformationStructure:
    """What the follower observes: the action, the action plus the leader's
    layer, or a noisy version of the action."""

    kind: str
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in (PERFECT, MECHANISM, IMPERFECT):
            raise ValueError(f"unknown information kind {self.kind!r}")
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if self.kind != IMPERFECT and self.sigma != 0.0:
            raise ValueError("sigma only applies to imperfect information")


@dataclass(frozen=True)
class LayeredStrategy:
    """A reasoning-layer choice plus the within-layer object.

    L1 carries nothing, L2 a single action, L3 a total instinct-to-action map
    (tuple indexed by instinct value).
    """

    layer: str
    action: int | None = None
    counterfactual_map: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.layer not in LAYERS:
            raise ValueError(f"unknown layer {self.layer!r}")
        if self.layer == L1 and not (self.action is None and self.counterfactual_map is None):
            raise ValueError("L1 takes no within-layer object")
        if self.layer == L2 and (self.action is None or self.counterfactual_map is not None):
            raise ValueError("L2 takes exactly an action")
        if self.layer == L3:
            if self.counterfactual_map is None or self.action is not None:
                raise ValueError("L3 takes exactly a counterfactual map")
            object.__setattr__(
                self, "counterfactual_map", tuple(int(v) for v in self.counterfactual_map)
            )


@dataclass(frozen=True)
class MixedResponse:
    """A probability vector over the follower's actions.

    Used by the satisficing solver and the trembling-hand check, where the
    follower's response is a mixture rather than a single layered strategy.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if any(w < 0 for w in self.weights):
            raise ValueError("negative mixture weight")
        if abs(math.fsum(self.weights) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")


@dataclass(frozen=True)
class Observation:
    """What the follower sees: an action signal and, under mechanism
    information, the leader's layer."""

    action_signal: int | None
    layer_signal: str | None = None


@dataclass(frozen=True)
class FollowerPolicy:
    """Total map from observations to responses (layered or mixed)."""

    responses: dict

    def response(self, obs: Observation):
        try:
            return self.responses[obs]
        except KeyError:
            raise ValueError(f"follower policy undefined at observation {obs}") from None


@dataclass(frozen=True)
class ScmasGame:
    """SCM plus action nodes, reward tables, timing, and information."""

    scm: Scm
    leader_action: str
    follower_action: str
    rewards: tuple  # nested (k_L, k_F) of (leader, follower) pairs
    info: InformationStructure
    leader_reward: str = "YL"
    follower_reward: str = "YF"
    timing: tuple[str, str] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "rewards", _freeze_rewards(self.rewards))
        if self.timing is None:
            object.__setattr__(self, "timing", (self.leader_action, self.follower_action))

    @property
    def leader_support(self) -> tuple[int, ...]:
        return self.scm.support(self.leader_action)

    @property
    def follower_support(self) -> tuple[int, ...]:
        return self.scm.support(self.follower_action)

    def reward_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        arr = np.asarray(self.rewards, dtype=float)
        return arr[..., 0], arr[..., 1]


def _freeze_rewards(node):
    if isinstance(node, (list, tuple)):
        return tuple(_freeze_rewards(x) for x in node)
    return float(node)


def validate(game: ScmasGame) -> list[str]:
    """Structural invariant check; returns human-readable violations."""
    v: list[str] = []
    scm = game.scm
    endo = set(scm.endogenous_ids)

    if game.leader_action == game.follower_action:
        v.append(
            f"leader_action and follower_action are both {game.leader_action!r}"
        )
    for name, label in ((game.leader_action, "leader_action"),
                        (game.follower_action, "follower_action")):
        if name not in endo:
            v.append(f"{label} {name!r} is not an endogenous variable")
        elif name not in scm.action_nodes:
            v.append(f"{label} {name!r} is not declared as an action node")

    if game.leader_reward in (game.leader_action, game.follower_action):
        v.append("leader_reward collides with an action variable")
    if game.follower_reward in (game.leader_action, game.follower_action):
        v.append("follower_reward collides with an action variable")

    if game.leader_action in endo and game.follower_action in endo:
        if game.follower_action in scm.ancestors(game.leader_action):
            v.append(
                f"timing violation: follower_action {game.follower_action!r} "
                f"is an ancestor of leader_action {game.leader_action!r}"
            )

    if game.timing != (game.leader_action, game.follower_action):
        v.append("timing pair does not match the action variables")

    try:
        rl, rf = game.reward_arrays()
        kl = len(scm.support(game.leader_action)) if game.leader_action in endo else None
        kf = len(scm.support(game.follower_action)) if game.follower_action in endo else None
        if kl is not None and kf is not None and rl.shape != (kl, kf):
            v.append(f"reward table shape {rl.shape} != ({kl}, {kf})")
        if not (np.isfinite(rl).all() and np.isfinite(rf).all()):
            v.append("reward table contains non-finite values")
    except (ValueError, UnknownVariable) as exc:
        v.append(f"malformed reward table: {exc}")

    return v


def signal_matrix(k: int, sigma: float) -> np.ndarray:
    """Channel matrix P[x, s] for the discretized additive Gaussian signal.

    The noise is discretized to a fixed symmetric grid over +-4 sigma,
    weighted by the Gaussian density and renormalized; the signal is the
    action index plus the rounded noise, clamped into the support.
    """
    out = np.zeros((k, k))
    if sigma == 0.0:
        np.fill_diagonal(out, 1.0)
        return out
    pts = np.linspace(-NOISE_GRID_SPAN * sigma, NOISE_GRID_SPAN * sigma, NOISE_GRID_POINTS)
    w = np.exp(-0.5 * (pts / sigma) ** 2)
    w = w / w.sum()
    for x in range(k):
        s = np.clip(np.rint(x + pts), 0, k - 1).astype(int)
        for si, wi in zip(s, w):
            out[x, si] += wi
    return out


def observe(game: ScmasGame, leader_layer: str, x_l: int, noise_seed: int = 0) -> Observation:
    """One realized observation of the leader's move."""
    if x_l not in game.leader_support:
        raise ValueError(f"action {x_l} outside the leader support")
    kind = game.info.kind
    if kind == PERFECT:
        return Observation(x_l, None)
    if kind == MECHANISM:
        return Observation(x_l, leader_layer)
    eta = np.random.default_rng(noise_seed).normal(0.0, game.info.sigma)
    lo, hi = 0, len(game.leader_support) - 1
    s = int(np.clip(np.rint(x_l + eta), lo, hi))
    return Observation(s, None)


def observations(game: ScmasGame) -> list[Observation]:
    """Every observation the information structure can produce."""
    k_l = len(game.leader_support)
    if game.info.kind == MECHANISM:
        return [Observation(x, lay) for lay in LAYERS for x in range(k_l)]
    return [Observation(x, None) for x in range(k_l)]


class PayoffEvaluator:
    """Expectation engine over a weighted set of exogenous assignments.

    By default the measure is the full enumerated prior (exact expectations);
    passing sampled joints with uniform weights yields empirical estimates on
    the same code path. Also precomputes the natural action of each agent per
    assignment: the leader's under no intervention, the follower's under each
    possible leader action (the follower's mechanism may react to it).

    One observation model serves every information structure: `signal[x, s]`
    is the probability of action signal s given realized action x (the
    identity unless information is imperfect), and `reveals_layer` says
    whether the follower also sees the leader's layer. Payoff sums read it
    forward (`channel`), the follower's posteriors backward.

    `leader_tol` and `follower_tol` are the tie tolerances of the two agents'
    comparisons (TIE_TOL times the largest |reward| in their table).
    """

    def __init__(self, game: ScmasGame, *, joints=None, weights=None):
        scm = game.scm
        if joints is None:
            pairs = enumerate_exogenous(scm)
            joints = [a for a, _ in pairs]
            weights = np.array([p for _, p in pairs], dtype=float)
        else:
            weights = np.asarray(weights, dtype=float)
        self.joints = joints
        self.weights = weights
        self.k_l = len(game.leader_support)
        self.k_f = len(game.follower_support)
        self.RL, self.RF = game.reward_arrays()
        self.leader_tol = TIE_TOL * float(np.abs(self.RL).max(initial=0.0))
        self.follower_tol = TIE_TOL * float(np.abs(self.RF).max(initial=0.0))

        xl, xf = game.leader_action, game.follower_action
        run_nat = compiled_evaluate(scm, ())
        run_do = compiled_evaluate(scm, (xl,))
        self.i_leader = np.array(
            [run_nat(u, {})[xl] for u in joints], dtype=int
        )
        self.i_follower = np.array(
            [[run_do(u, {xl: x})[xf] for x in range(self.k_l)] for u in joints],
            dtype=int,
        )
        self.signal = signal_matrix(self.k_l, game.info.sigma)
        self.reveals_layer = game.info.kind == MECHANISM
        self.observations = observations(game)

    def merged(self) -> "PayoffEvaluator":
        """The same measure over response types (Balke & Pearl): one row per
        distinct (leader instinct, follower instinct row) pair, carrying the
        summed weight of its assignments and represented by the first of
        them. Payoffs depend on an assignment only through that pair, so
        every value on this view equals the full view's up to summation
        order. Types of zero weight are kept, so two leader strategies
        realize the same actions on this view exactly when they do on the
        full one."""
        rows = np.column_stack((self.i_leader, self.i_follower))
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        ev = copy.copy(self)
        ev.joints = [self.joints[j] for j in first]
        ev.weights = np.bincount(inverse, weights=self.weights, minlength=len(first))
        ev.i_leader = self.i_leader[first]
        ev.i_follower = self.i_follower[first]
        return ev

    def leader_actions(self, leader: LayeredStrategy) -> np.ndarray:
        """Realized leader action per assignment."""
        if leader.layer == L2:
            return np.full(len(self.joints), leader.action, dtype=int)
        if leader.layer == L1:
            return self.i_leader.copy()
        cmap = np.asarray(leader.counterfactual_map, dtype=int)
        return cmap[self.i_leader]

    def follower_actions(self, strat, idx: np.ndarray, x: int) -> np.ndarray:
        """Realized follower action per selected assignment, at leader action x
        (one action, or one per selected assignment)."""
        if strat.layer == L2:
            return np.full(len(idx), strat.action, dtype=int)
        instincts = self.i_follower[idx, x]
        if strat.layer == L1:
            return instincts
        cmap = np.asarray(strat.counterfactual_map, dtype=int)
        return cmap[instincts]

    def channel(self, x: int, leader_layer: str) -> list:
        """The observations the leader's realized action x produces, each
        with its probability: every signal of positive mass in row x of
        `signal`, with the layer when the follower sees it."""
        layer = leader_layer if self.reveals_layer else None
        return [(Observation(s, layer), p)
                for s, p in enumerate(self.signal[x]) if p > 0.0]

    def _group_value(self, idx: np.ndarray, x: int, strat, scale: float):
        w = self.weights[idx] * scale
        if isinstance(strat, MixedResponse):
            el = sum(p * self.RL[x, a] for a, p in enumerate(strat.weights) if p)
            ef = sum(p * self.RF[x, a] for a, p in enumerate(strat.weights) if p)
            tot = float(w.sum())
            return tot * el, tot * ef
        xf = self.follower_actions(strat, idx, x)
        return float(np.dot(w, self.RL[x, xf])), float(np.dot(w, self.RF[x, xf]))

    def profile_value(self, leader: LayeredStrategy, policy: FollowerPolicy):
        """Exact (or empirical, per the measure) expected payoffs of a profile."""
        return self.value_from_actions(self.leader_actions(leader), leader.layer, policy)

    def value_from_actions(self, xl: np.ndarray, leader_layer: str,
                           policy: FollowerPolicy):
        """Expected payoffs for a precomputed realized-action array."""
        el = ef = 0.0
        for x in range(self.k_l):
            idx = np.flatnonzero(xl == x)
            if idx.size == 0:
                continue
            for obs, p in self.channel(x, leader_layer):
                dl, df = self._group_value(idx, x, policy.response(obs), p)
                el += dl
                ef += df
        return el, ef


def expected_payoffs(game: ScmasGame, leader: LayeredStrategy,
                     follower: FollowerPolicy) -> tuple[float, float]:
    """Exact expected rewards of (leader strategy, follower policy).

    Expectation is over the enumerated exogenous space and, under imperfect
    information, the discretized noise channel.
    """
    ev = PayoffEvaluator(game)
    return ev.profile_value(leader, follower)


# --- JSON interchange -------------------------------------------------------


def game_to_dict(game: ScmasGame) -> dict:
    return {
        "scm": scm_to_dict(game.scm),
        "leader_action": game.leader_action,
        "follower_action": game.follower_action,
        "rewards": unfreeze(game.rewards),
        "info": {"kind": game.info.kind, "sigma": game.info.sigma},
        "meta": dict(game.meta),
    }


def game_from_dict(d: dict) -> ScmasGame:
    info = d.get("info", {})
    return ScmasGame(
        scm=scm_from_dict(d["scm"]),
        leader_action=d["leader_action"],
        follower_action=d["follower_action"],
        rewards=d["rewards"],
        info=InformationStructure(info.get("kind", PERFECT), float(info.get("sigma", 0.0))),
        meta=dict(d.get("meta", {})),
    )
