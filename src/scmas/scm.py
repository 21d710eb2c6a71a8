"""Discrete structural causal models: evaluation, intervention, enumeration.

All variable supports are 0-based contiguous integers, so structural
equations are plain lookup tables indexed by parent values. Exogenous
variables carry explicit priors. Dependency cycles are tolerated only when
every cycle passes through a declared action node (an intervention on that
node cuts the cycle); the un-intervened value of such a model is defined by
a single forward pass in the stored evaluation order, with parents that
have not been assigned yet reading as 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, CyclicAfterIntervention, UnknownVariable

DEFAULT_ENUM_CAP = 10**6


def contiguous(n: int) -> tuple[int, ...]:
    """Support of size n: the integers 0..n-1."""
    return tuple(range(n))


@dataclass(frozen=True)
class ExogenousVar:
    """Exogenous variable with a finite support and a prior over it."""

    id: str
    support: tuple[int, ...]
    prior: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "prior", tuple(float(p) for p in self.prior))
        if not self.support:
            raise ValueError(f"{self.id}: support is empty")
        if self.support != contiguous(len(self.support)):
            raise ValueError(f"{self.id}: support must be 0-based contiguous")
        if len(self.prior) != len(self.support):
            raise ValueError(f"{self.id}: prior length != support length")
        if any(p < 0.0 for p in self.prior):
            raise ValueError(f"{self.id}: negative prior mass")
        if abs(math.fsum(self.prior) - 1.0) > 1e-12:
            raise ValueError(f"{self.id}: prior does not sum to 1")


@dataclass(frozen=True)
class EndogenousVar:
    """Endogenous variable: identifier plus its support."""

    id: str
    support: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        if not self.support:
            raise ValueError(f"{self.id}: support is empty")
        if self.support != contiguous(len(self.support)):
            raise ValueError(f"{self.id}: support must be 0-based contiguous")


@dataclass(frozen=True)
class StructuralEquation:
    """Total lookup table from parent-value tuples to a target value.

    ``table`` is nested with one level per parent, in parent order; with no
    parents it is a bare integer.
    """

    target: str
    parents: tuple[str, ...]
    table: object

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "table", _freeze_table(self.table))

    def value(self, parent_values: tuple[int, ...]) -> int:
        node = self.table
        for v in parent_values:
            node = node[v]
        return node


def _freeze_table(node):
    if isinstance(node, (list, tuple)):
        return tuple(_freeze_table(x) for x in node)
    return int(node)


def table_from_fn(parent_sizes, fn):
    """Build a nested table by evaluating fn over the parent value grid."""
    if not parent_sizes:
        return int(fn())
    head, rest = parent_sizes[0], parent_sizes[1:]
    return tuple(
        table_from_fn(rest, lambda *vs, v=v: fn(v, *vs)) for v in range(head)
    )


def _check_table(node, parent_sizes, target_support, target, path=()):
    if not parent_sizes:
        if not isinstance(node, int):
            raise ValueError(f"{target}: table not total at {path}")
        if node not in target_support:
            raise ValueError(f"{target}: table value {node} outside support")
        return
    if not isinstance(node, tuple) or len(node) != parent_sizes[0]:
        raise ValueError(f"{target}: table level at {path} has wrong arity")
    for v, child in enumerate(node):
        _check_table(child, parent_sizes[1:], target_support, target, path + (v,))


def _topo_order(nodes, parents_of):
    """Kahn's algorithm, stable in the given node order; None on a cycle."""
    nodes = list(nodes)
    node_set = set(nodes)
    indeg = {n: sum(1 for p in parents_of(n) if p in node_set) for n in nodes}
    order = []
    ready = [n for n in nodes if indeg[n] == 0]
    while ready:
        n = ready.pop(0)
        order.append(n)
        for m in nodes:
            if n in parents_of(m) and m not in order:
                indeg[m] -= 1
                if indeg[m] == 0 and m not in ready:
                    ready.append(m)
    if len(order) != len(nodes):
        return None
    return order


@dataclass(frozen=True)
class Scm:
    """A discrete SCM: exogenous priors plus one equation per endogenous node.

    ``action_nodes`` marks the endogenous nodes that agents may intervene on;
    they are the only nodes allowed to sit on dependency cycles. ``order``
    optionally fixes the forward-pass evaluation order (defaults to the
    declaration order of the endogenous variables).
    """

    exogenous: tuple[ExogenousVar, ...]
    endogenous: tuple[EndogenousVar, ...]
    equations: tuple[StructuralEquation, ...]
    action_nodes: tuple[str, ...] = ()
    order: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "exogenous", tuple(self.exogenous))
        object.__setattr__(self, "endogenous", tuple(self.endogenous))
        object.__setattr__(self, "equations", tuple(self.equations))
        object.__setattr__(self, "action_nodes", tuple(self.action_nodes))
        if self.order is not None:
            object.__setattr__(self, "order", tuple(self.order))

        ids = [v.id for v in self.exogenous] + [v.id for v in self.endogenous]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate variable identifiers")
        endo_ids = [v.id for v in self.endogenous]
        eq_targets = [e.target for e in self.equations]
        if sorted(eq_targets) != sorted(endo_ids):
            raise ValueError("exactly one equation per endogenous variable required")

        supports = self._supports()
        for eq in self.equations:
            for p in eq.parents:
                if p not in supports:
                    raise ValueError(f"{eq.target}: unknown parent {p}")
            _check_table(
                eq.table,
                tuple(len(supports[p]) for p in eq.parents),
                set(supports[eq.target]),
                eq.target,
            )

        for a in self.action_nodes:
            if a not in endo_ids:
                raise ValueError(f"action node {a} is not endogenous")

        non_action = [n for n in endo_ids if n not in self.action_nodes]
        if _topo_order(non_action, self._endo_parents) is None:
            raise ValueError("cycle through non-action variables")

        if self.order is not None and sorted(self.order) != sorted(endo_ids):
            raise ValueError("order must be a permutation of the endogenous variables")

    def _supports(self) -> dict[str, tuple[int, ...]]:
        out = {v.id: v.support for v in self.exogenous}
        out.update({v.id: v.support for v in self.endogenous})
        return out

    def support(self, var: str) -> tuple[int, ...]:
        sup = self._supports().get(var)
        if sup is None:
            raise UnknownVariable(var)
        return sup

    def equation(self, var: str) -> StructuralEquation:
        for eq in self.equations:
            if eq.target == var:
                return eq
        raise UnknownVariable(var)

    def _endo_parents(self, var: str) -> tuple[str, ...]:
        endo = {v.id for v in self.endogenous}
        return tuple(p for p in self.equation(var).parents if p in endo)

    @property
    def graph(self) -> dict[str, tuple[str, ...]]:
        """Parent adjacency over all variables (exogenous nodes have none)."""
        adj = {v.id: () for v in self.exogenous}
        adj.update({e.target: e.parents for e in self.equations})
        return adj

    @property
    def exogenous_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.exogenous)

    @property
    def endogenous_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.endogenous)

    def evaluation_order(self) -> tuple[str, ...]:
        return self.order if self.order is not None else self.endogenous_ids

    def ancestors(self, var: str) -> set[str]:
        """All strict ancestors of var in the parent graph."""
        graph = self.graph
        seen: set[str] = set()
        stack = list(graph.get(var, ()))
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            stack.extend(graph.get(p, ()))
        return seen


def _evaluation_plan(scm: Scm, intervened: tuple[str, ...]):
    """Resolve the node order used to solve the model under interventions.

    Returns the equations in solving order: topological for an acyclic
    residual graph, else the declared order of the single forward pass
    allowed when every surviving cycle goes through a non-intervened action
    node.
    """
    remaining = [n for n in scm.endogenous_ids if n not in intervened]

    def live_parents(n):
        return tuple(p for p in scm._endo_parents(n) if p in remaining)

    order = _topo_order(remaining, live_parents)
    if order is not None:
        return [scm.equation(n) for n in order]

    non_action = [n for n in remaining if n not in scm.action_nodes]
    if _topo_order(non_action, lambda n: tuple(
            p for p in scm._endo_parents(n) if p in non_action)) is None:
        raise CyclicAfterIntervention(
            "cycle without an action node survives the interventions"
        )
    order = [n for n in scm.evaluation_order() if n in remaining]
    return [scm.equation(n) for n in order]


def compiled_evaluate(scm: Scm, intervention_vars: tuple[str, ...]):
    """Fast evaluator for a fixed intervention set; skips per-call planning.

    Returns run(u, interventions) -> values dict. The interventions must
    assign exactly intervention_vars.
    """
    # In topological order every parent is assigned before it is read, so the
    # default 0 is reached only by the forward pass over a surviving cycle.
    plan = _evaluation_plan(scm, tuple(intervention_vars))

    def run(u, interventions):
        values = dict(u)
        values.update(interventions)
        for eq in plan:
            node = eq.table
            for p in eq.parents:
                node = node[values.get(p, 0)]
            values[eq.target] = node
        return values

    return run


def evaluate(scm: Scm, u: dict, interventions: dict | None = None) -> dict:
    """Evaluate the SCM at exogenous assignment u under do-interventions.

    Intervened nodes take their forced values and their equations are
    ignored. The remaining nodes are solved in topological order; if a cycle
    survives, every surviving cycle must pass through a non-intervened action
    node, and the model is resolved by one forward pass in the declared
    evaluation order (parents not yet assigned read as 0).
    """
    interventions = dict(interventions or {})
    exo_ids = set(scm.exogenous_ids)
    endo_ids = set(scm.endogenous_ids)
    if set(u) != exo_ids:
        missing = exo_ids - set(u)
        extra = set(u) - exo_ids
        raise UnknownVariable(
            f"exogenous assignment mismatch (missing={sorted(missing)}, "
            f"extra={sorted(extra)})"
        )
    for t, v in interventions.items():
        if t not in endo_ids:
            raise UnknownVariable(f"intervention target {t} is not endogenous")
        if v not in scm.support(t):
            raise ValueError(f"intervention value {v} outside support of {t}")

    run = compiled_evaluate(scm, tuple(sorted(interventions)))
    return run(u, interventions)


def natural_instinct(scm: Scm, u: dict, action_node: str) -> int:
    """Value the action node takes under the un-intervened mechanism."""
    if action_node not in scm.endogenous_ids:
        raise UnknownVariable(action_node)
    return evaluate(scm, u, {})[action_node]


def enumerate_exogenous(scm: Scm, cap: int = DEFAULT_ENUM_CAP):
    """All joint exogenous assignments with their probabilities.

    Deterministic order: declaration order of variables, ascending values.
    """
    size = 1
    for v in scm.exogenous:
        size *= len(v.support)
        if size > cap:
            raise CapExceeded(f"joint exogenous space exceeds cap {cap}")
    ids = scm.exogenous_ids
    out = []
    for combo in itertools.product(*(v.support for v in scm.exogenous)):
        p = 1.0
        for var, val in zip(scm.exogenous, combo):
            p *= var.prior[val]
        out.append((dict(zip(ids, combo)), p))
    return out


def sample_exogenous(scm: Scm, seed: int, n: int) -> list[dict]:
    """n i.i.d. joint draws from the exogenous prior; bit-stable per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    cols = {}
    for v in scm.exogenous:
        p = np.asarray(v.prior, dtype=float)
        p = p / p.sum()
        cols[v.id] = rng.choice(len(v.support), size=n, p=p)
    return [{k: int(cols[k][i]) for k in scm.exogenous_ids} for i in range(n)]


def unfreeze(node):
    """Nested tuples as nested lists, for JSON."""
    if isinstance(node, tuple):
        return [unfreeze(x) for x in node]
    return node


def scm_to_dict(scm: Scm) -> dict:
    """JSON-ready fragment describing the SCM."""
    return {
        "exogenous": [
            {"id": v.id, "support": list(v.support), "prior": list(v.prior)}
            for v in scm.exogenous
        ],
        "endogenous": [
            {"id": v.id, "support": list(v.support)} for v in scm.endogenous
        ],
        "equations": [
            {"target": e.target, "parents": list(e.parents), "table": unfreeze(e.table)}
            for e in scm.equations
        ],
        "action_nodes": list(scm.action_nodes),
        "order": list(scm.order) if scm.order is not None else None,
    }


def scm_from_dict(d: dict) -> Scm:
    return Scm(
        exogenous=tuple(
            ExogenousVar(v["id"], tuple(v["support"]), tuple(v["prior"]))
            for v in d["exogenous"]
        ),
        endogenous=tuple(
            EndogenousVar(v["id"], tuple(v["support"])) for v in d["endogenous"]
        ),
        equations=tuple(
            StructuralEquation(e["target"], tuple(e["parents"]), e["table"])
            for e in d["equations"]
        ),
        action_nodes=tuple(d.get("action_nodes", ())),
        order=tuple(d["order"]) if d.get("order") else None,
    )
