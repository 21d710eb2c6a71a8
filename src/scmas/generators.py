"""Game instance constructors: random suite, hand-crafted games, procurement.

Random instances draw both reward tables first, solve the induced classical
commitment game on the tables, and then wire the instinct mechanisms against
that solution: the leader's natural play lands on its classical action, and
the follower's natural play hits its classical response with probability
`instinct_quality` (remaining mass uniform over the other actions). Topology
kinds add structural decoration variables around the two action nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, UnknownName
from .game import (
    IMPERFECT,
    MECHANISM,
    PERFECT,
    InformationStructure,
    ScmasGame,
)
from .scm import (
    EndogenousVar,
    ExogenousVar,
    Scm,
    StructuralEquation,
    contiguous,
    table_from_fn,
)

TOPOLOGIES = (
    "chain3",
    "chain5",
    "fork",
    "collider",
    "diamond",
    "fork_collider",
    "leader_cycle",
    "follower_cycle",
    "confounded",
    "independent",
)

PAYOFF_DISTS = ("uniform", "normal", "skewed")

GENERATOR_NOISE_LEVELS = (0.1, 0.5, 1.0)

SYNTHETIC_NAMES = (
    "coordination",
    "battle_of_sexes",
    "stag_hunt",
    "anti_coordination",
    "prisoners_dilemma_m1",
    "prisoners_dilemma_m2",
    "appendix_d_coordination",
)

# The five-game sweep used by the synthetic experiment suite.
SUITE_NAMES = (
    "coordination",
    "battle_of_sexes",
    "stag_hunt",
    "anti_coordination",
    "prisoners_dilemma_m1",
)

INSTINCT_BINS = 10


@dataclass(frozen=True)
class GeneratorParams:
    n_leader_actions: int
    n_follower_actions: int
    topology: str
    info: InformationStructure
    payoff_dist: str
    instinct_quality: float
    seed: int

    def __post_init__(self):
        if not (2 <= self.n_leader_actions <= 5 and 2 <= self.n_follower_actions <= 5):
            raise InvalidParams("action counts must lie in [2, 5]")
        if self.topology not in TOPOLOGIES:
            raise InvalidParams(
                f"unknown topology {self.topology!r}; valid: {', '.join(TOPOLOGIES)}"
            )
        if self.payoff_dist not in PAYOFF_DISTS:
            raise InvalidParams(f"unknown payoff distribution {self.payoff_dist!r}")
        if not (0.2 <= self.instinct_quality <= 0.8):
            raise InvalidParams("instinct_quality must lie in [0.2, 0.8]")
        if self.info.kind == IMPERFECT and self.info.sigma not in GENERATOR_NOISE_LEVELS:
            raise InvalidParams(
                f"imperfect noise must be one of {GENERATOR_NOISE_LEVELS}"
            )


def _draw_rewards(rng: np.random.Generator, dist: str, shape):
    if dist == "uniform":
        return rng.uniform(0.0, 10.0, shape)
    if dist == "normal":
        return np.clip(rng.normal(5.0, 2.0, shape), 0.0, 10.0)
    # skewed: squared uniform stretched back onto [0, 10]
    return 10.0 * rng.uniform(0.0, 1.0, shape) ** 2


def classical_pair(rl: np.ndarray, rf: np.ndarray) -> tuple[int, int]:
    """Commitment solution of the bare tables: leader action and the
    follower's best response to it, lowest index on ties."""
    k_l = rl.shape[0]
    br = [int(np.argmax(rf[x])) for x in range(k_l)]
    values = [rl[x, br[x]] for x in range(k_l)]
    a_star = int(np.argmax(values))
    return a_star, br[a_star]


def _aligned_prior(k: int, quality: float, target: int) -> tuple[float, ...]:
    p = [(1.0 - quality) / (k - 1)] * k
    p[target] = 1.0 - math.fsum(p[:target] + p[target + 1:])
    return tuple(p)


def _pack_rewards(rl: np.ndarray, rf: np.ndarray):
    return tuple(
        tuple((float(rl[i, j]), float(rf[i, j])) for j in range(rl.shape[1]))
        for i in range(rl.shape[0])
    )


def _decoration(topology: str):
    """Structural decoration around the action nodes, per topology kind.

    Returns (exo, endo, equations, xl_extra_parents, xf_extra_parents,
    needs_declared_order).
    """
    b = (0, 1)
    uniform = (0.5, 0.5)

    def exo(name):
        return ExogenousVar(name, b, uniform)

    def var(name):
        return EndogenousVar(name, b)

    def eq(target, parents, fn):
        sizes = [2] * len(parents)
        return StructuralEquation(target, tuple(parents), table_from_fn(sizes, fn))

    ident = lambda v: v
    xor = lambda a, c: a ^ c

    if topology == "independent":
        return [], [], [], [], [], False
    if topology == "chain3":
        return (
            [exo("UZ1")],
            [var("Z1"), var("Z2"), var("Z3")],
            [eq("Z1", ["UZ1"], ident), eq("Z2", ["Z1"], ident), eq("Z3", ["Z2"], ident)],
            [], [], False,
        )
    if topology == "chain5":
        names = [f"Z{i}" for i in range(1, 6)]
        eqs = [eq("Z1", ["UZ1"], ident)]
        eqs += [eq(names[i], [names[i - 1]], ident) for i in range(1, 5)]
        return [exo("UZ1")], [var(n) for n in names], eqs, [], [], False
    if topology == "fork":
        return (
            [exo("UZ1")],
            [var("Z1"), var("Z2"), var("Z3")],
            [eq("Z1", ["UZ1"], ident), eq("Z2", ["Z1"], ident), eq("Z3", ["Z1"], ident)],
            [], [], False,
        )
    if topology == "collider":
        return (
            [exo("UZ1"), exo("UZ2")],
            [var("Z1"), var("Z2"), var("Z3")],
            [eq("Z1", ["UZ1"], ident), eq("Z2", ["UZ2"], ident),
             eq("Z3", ["Z1", "Z2"], xor)],
            [], [], False,
        )
    if topology == "diamond":
        return (
            [exo("UZ1")],
            [var("Z1"), var("Z2"), var("Z3"), var("Z4")],
            [eq("Z1", ["UZ1"], ident), eq("Z2", ["Z1"], ident),
             eq("Z3", ["Z1"], ident), eq("Z4", ["Z2", "Z3"], xor)],
            [], [], False,
        )
    if topology == "fork_collider":
        return (
            [exo("UZ1"), exo("UZ2")],
            [var("Z1"), var("Z2"), var("Z3"), var("Z4"), var("Z5")],
            [eq("Z1", ["UZ1"], ident), eq("Z2", ["Z1"], ident),
             eq("Z3", ["Z1"], ident), eq("Z4", ["UZ2"], ident),
             eq("Z5", ["Z3", "Z4"], xor)],
            [], [], False,
        )
    if topology == "leader_cycle":
        # Z1 <-> XL: the only cycle runs through the leader's action node.
        return [], [var("Z1")], [], ["Z1"], [], True
    if topology == "follower_cycle":
        return [], [var("Z1")], [], [], ["Z1"], True
    if topology == "confounded":
        # A shared exogenous parent feeds both instinct mechanisms.
        return [exo("UC")], [], [], ["UC"], ["UC"], False
    raise InvalidParams(f"unknown topology {topology!r}")


def build_instance(n_leader_actions: int, n_follower_actions: int, topology: str,
                   info: InformationStructure, payoff_dist: str,
                   instinct_quality: float, seed: int) -> ScmasGame:
    """Assemble one random game; no bounds on the action counts (the public
    `random_instance` enforces the documented parameter ranges)."""
    k_l, k_f = n_leader_actions, n_follower_actions
    rng = np.random.default_rng(seed)
    rl = _draw_rewards(rng, payoff_dist, (k_l, k_f))
    rf = _draw_rewards(rng, payoff_dist, (k_l, k_f))
    a_star, b_star = classical_pair(rl, rf)

    exo_extra, endo_extra, eq_extra, xl_extra, xf_extra, needs_order = _decoration(topology)

    exogenous = [
        ExogenousVar("UL", contiguous(k_l), _aligned_prior(k_l, instinct_quality, a_star)),
        ExogenousVar("UF", contiguous(k_f), _aligned_prior(k_f, instinct_quality, b_star)),
    ] + exo_extra

    endogenous = endo_extra + [
        EndogenousVar("XL", contiguous(k_l)),
        EndogenousVar("XF", contiguous(k_f)),
    ]

    # Leader mechanism: natural play pinned to the classical action; the
    # follower mechanism realizes the quality-weighted prior directly.
    xl_parents = ["UL"] + xl_extra
    xl_sizes = [k_l] + [2] * len(xl_extra)
    xf_parents = ["UF"] + xf_extra
    xf_sizes = [k_f] + [2] * len(xf_extra)
    equations = eq_extra + [
        StructuralEquation("XL", tuple(xl_parents),
                           table_from_fn(xl_sizes, lambda *vs: a_star)),
        StructuralEquation("XF", tuple(xf_parents),
                           table_from_fn(xf_sizes, lambda uf, *vs: uf)),
    ]
    if topology == "leader_cycle":
        equations = [StructuralEquation("Z1", ("XL",),
                                        table_from_fn([k_l], lambda x: x % 2))] + equations
    elif topology == "follower_cycle":
        equations = [StructuralEquation("Z1", ("XF",),
                                        table_from_fn([k_f], lambda x: x % 2))] + equations

    order = None
    if needs_order:
        order = tuple(v.id for v in endo_extra) + ("XL", "XF")

    scm = Scm(
        exogenous=tuple(exogenous),
        endogenous=tuple(endogenous),
        equations=tuple(equations),
        action_nodes=("XL", "XF"),
        order=order,
    )
    meta = {
        "name": f"random-{topology}-{seed}",
        "seed": seed,
        "generator": {
            "kind": "random",
            "topology": topology,
            "nxl": k_l,
            "nxf": k_f,
            "info": info.kind,
            "sigma": info.sigma,
            "payoff_dist": payoff_dist,
            "instinct_quality": instinct_quality,
            "seed": seed,
        },
        "instinct_quality": instinct_quality,
    }
    return ScmasGame(
        scm=scm,
        leader_action="XL",
        follower_action="XF",
        rewards=_pack_rewards(rl, rf),
        info=info,
        meta=meta,
    )


def random_instance(params: GeneratorParams) -> ScmasGame:
    """One seeded random game drawn per the parameter vector."""
    return build_instance(
        params.n_leader_actions,
        params.n_follower_actions,
        params.topology,
        params.info,
        params.payoff_dist,
        params.instinct_quality,
        params.seed,
    )


def _binned_instinct(var_id: str, masses) -> tuple[ExogenousVar, list[int]]:
    """A 10-bin uniform variable plus the bin-to-action assignment realizing
    the given action masses (each a multiple of 0.1)."""
    counts = [round(m * INSTINCT_BINS) for m in masses]
    if sum(counts) != INSTINCT_BINS:
        raise ValueError("instinct masses must be multiples of 0.1 summing to 1")
    mapping = []
    for action, c in enumerate(counts):
        mapping.extend([action] * c)
    var = ExogenousVar(var_id, contiguous(INSTINCT_BINS),
                       (1.0 / INSTINCT_BINS,) * INSTINCT_BINS)
    return var, mapping


def _two_agent_scm(leader_masses, follower_masses, k_l, k_f,
                   follower_reciprocates=False) -> Scm:
    ul, l_map = _binned_instinct("UL", leader_masses)
    if follower_reciprocates:
        # Follower's mechanism reacts to the leader's realized action:
        # copy it on 8 of the 10 bins, flip it on the other 2.
        uf = ExogenousVar("UF", contiguous(INSTINCT_BINS),
                          (1.0 / INSTINCT_BINS,) * INSTINCT_BINS)
        xf_eq = StructuralEquation(
            "XF", ("XL", "UF"),
            table_from_fn([k_l, INSTINCT_BINS],
                          lambda x, u: x if u < 8 else 1 - x),
        )
    else:
        uf, f_map = _binned_instinct("UF", follower_masses)
        xf_eq = StructuralEquation(
            "XF", ("UF",), table_from_fn([INSTINCT_BINS], lambda u: f_map[u])
        )
    return Scm(
        exogenous=(ul, uf),
        endogenous=(EndogenousVar("XL", contiguous(k_l)),
                    EndogenousVar("XF", contiguous(k_f))),
        equations=(
            StructuralEquation("XL", ("UL",),
                               table_from_fn([INSTINCT_BINS], lambda u: l_map[u])),
            xf_eq,
        ),
        action_nodes=("XL", "XF"),
    )


_PD_REWARDS = (((3.0, 3.0), (0.0, 5.0)), ((5.0, 0.0), (1.0, 1.0)))


def synthetic(name: str, seed: int = 0) -> ScmasGame:
    """One of the hand-crafted game types; content is fixed per name, the
    seed is carried in metadata for downstream solvers."""
    if name not in SYNTHETIC_NAMES:
        raise UnknownName(
            f"unknown synthetic game {name!r}; valid: {', '.join(SYNTHETIC_NAMES)}"
        )

    if name == "coordination":
        rewards = (((10.0, 10.0), (0.0, 0.0)), ((0.0, 0.0), (8.0, 8.0)))
        scm = _two_agent_scm((0.8, 0.2), (0.8, 0.2), 2, 2)
        info, quality = InformationStructure(PERFECT), 0.8
    elif name == "battle_of_sexes":
        rewards = (((10.0, 7.0), (2.0, 2.0)), ((0.0, 0.0), (7.0, 10.0)))
        scm = _two_agent_scm((0.8, 0.2), (0.8, 0.2), 2, 2)
        info, quality = InformationStructure(MECHANISM), 0.8
    elif name == "stag_hunt":
        rewards = (((9.0, 9.0), (0.0, 6.0)), ((6.0, 0.0), (5.0, 5.0)))
        scm = _two_agent_scm((0.8, 0.2), (0.8, 0.2), 2, 2)
        info, quality = InformationStructure(PERFECT), 0.8
    elif name == "anti_coordination":
        rewards = (((0.0, 0.0), (7.0, 2.0)), ((2.0, 7.0), (1.0, 1.0)))
        scm = _two_agent_scm((0.8, 0.2), (0.2, 0.8), 2, 2)
        info, quality = InformationStructure(PERFECT), 0.8
    elif name in ("prisoners_dilemma_m1", "prisoners_dilemma_m2"):
        # Action 0 cooperates. Natural cooperation rate 0.7 or 0.3; the
        # follower's mechanism reciprocates the observed move on 8 of 10 bins.
        coop = 0.7 if name.endswith("m1") else 0.3
        rewards = _PD_REWARDS
        scm = _two_agent_scm((coop, 1.0 - coop), None, 2, 2,
                             follower_reciprocates=True)
        info, quality = InformationStructure(MECHANISM), coop
    else:  # appendix_d_coordination
        diag = (15.0, 10.0, 5.0)
        rewards = tuple(
            tuple((diag[i], diag[i]) if i == j else (0.0, 0.0) for j in range(3))
            for i in range(3)
        )
        scm = _two_agent_scm((0.8, 0.1, 0.1), (0.8, 0.1, 0.1), 3, 3)
        info, quality = InformationStructure(PERFECT), 0.8

    return ScmasGame(
        scm=scm,
        leader_action="XL",
        follower_action="XF",
        rewards=rewards,
        info=info,
        meta={
            "name": name,
            "seed": seed,
            "generator": {"kind": "synthetic", "name": name, "seed": seed},
            "instinct_quality": quality,
        },
    )


# Procurement: leader designs a mechanism (fixed-price, incentive,
# audit-heavy), contractor picks a bid style (truthful, padded, strategic).
# Magnitudes make (incentive, truthful) a strict dominant outcome.
_PROC_RL = ((6.0, 2.0, 3.0), (9.0, 4.0, 3.0), (6.0, 4.0, 2.0))
_PROC_RF = ((4.0, 6.0, 5.0), (8.0, 5.0, 4.0), (5.0, 3.0, 2.0))

PROCUREMENT_TYPES = ("honest", "opportunistic")
MECHANISM_LABELS = ("fixed_price", "incentive", "audit_heavy")
BID_LABELS = ("truthful", "padded", "strategic")


def procurement(contractor_type: str, seed: int = 0) -> ScmasGame:
    if contractor_type not in PROCUREMENT_TYPES:
        raise UnknownName(f"unknown contractor type {contractor_type!r}")
    follower_masses = (0.8, 0.1, 0.1) if contractor_type == "honest" else (0.1, 0.8, 0.1)
    scm = _two_agent_scm((0.1, 0.8, 0.1), follower_masses, 3, 3)
    rewards = tuple(
        tuple((_PROC_RL[i][j], _PROC_RF[i][j]) for j in range(3)) for i in range(3)
    )
    return ScmasGame(
        scm=scm,
        leader_action="XL",
        follower_action="XF",
        rewards=rewards,
        info=InformationStructure(PERFECT),
        meta={
            "name": f"procurement-{contractor_type}",
            "seed": seed,
            "generator": {"kind": "procurement", "contractor_type": contractor_type,
                          "seed": seed},
            "instinct_quality": 0.8,
            "mechanism_labels": list(MECHANISM_LABELS),
            "bid_labels": list(BID_LABELS),
        },
    )


def info_from_token(token: str) -> InformationStructure:
    """Parse "perfect" | "mechanism" | "imperfect:SIGMA"."""
    if token == PERFECT:
        return InformationStructure(PERFECT)
    if token == MECHANISM:
        return InformationStructure(MECHANISM)
    if token.startswith(IMPERFECT):
        sigma = 0.0
        if ":" in token:
            sigma = float(token.split(":", 1)[1])
        return InformationStructure(IMPERFECT, sigma)
    raise InvalidParams(f"unknown information token {token!r}")


def info_token(info: InformationStructure) -> str:
    if info.kind == IMPERFECT:
        return f"{IMPERFECT}:{info.sigma:g}"
    return info.kind
