"""Exists-forall quantified Boolean formulas and their game encoding.

The decidable fragment handled here is prenex formulas with one existential
block followed by one universal block over a CNF matrix. A formula maps to a
two-move game: the leader's action picks an assignment of the existential
block, the adversarial follower's action picks an assignment of the universal
block, and the leader earns 1 exactly when the matrix is satisfied (the
follower earns -1 then, which makes its best response implement the
universal quantifier).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, TooLarge, UnsupportedAlternation
from .game import InformationStructure, PERFECT, ScmasGame
from .scm import EndogenousVar, ExogenousVar, Scm, StructuralEquation, contiguous, table_from_fn
from .solvers import exact_scne

MAX_BLOCK_VARS = 4
MAX_BRUTE_VARS = 8


@dataclass(frozen=True)
class Qbf:
    existential_vars: tuple[int, ...]
    universal_vars: tuple[int, ...]
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "existential_vars", tuple(self.existential_vars))
        object.__setattr__(self, "universal_vars", tuple(self.universal_vars))
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        e, a = set(self.existential_vars), set(self.universal_vars)
        if e & a:
            raise ValueError("quantifier blocks overlap")
        if len(self.existential_vars) > MAX_BLOCK_VARS or len(self.universal_vars) > MAX_BLOCK_VARS:
            raise ValueError(f"blocks are capped at {MAX_BLOCK_VARS} variables")
        declared = e | a
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) not in declared:
                    raise ValueError(f"literal {lit} references an undeclared variable")


def parse_qdimacs(text: str) -> Qbf:
    """Parse the QDIMACS subset: optional header/comments, one `e` line, one
    `a` line, then zero-terminated clause lines."""
    e_vars: list[int] | None = None
    a_vars: list[int] | None = None
    clauses: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("malformed problem line", lineno)
            continue
        if line.startswith("e") or line.startswith("a"):
            parts = line.split()
            try:
                nums = [int(x) for x in parts[1:]]
            except ValueError:
                raise ParseError("non-integer quantifier entry", lineno) from None
            if not nums or nums[-1] != 0:
                raise ParseError("quantifier line must end with 0", lineno)
            block = nums[:-1]
            if any(v <= 0 for v in block):
                raise ParseError("quantified variables must be positive", lineno)
            if parts[0] == "e":
                if e_vars is not None or a_vars is not None:
                    raise UnsupportedAlternation(
                        f"line {lineno}: only a single exists-forall prefix is supported"
                    )
                e_vars = block
            else:
                if a_vars is not None:
                    raise UnsupportedAlternation(
                        f"line {lineno}: only a single exists-forall prefix is supported"
                    )
                if e_vars is None:
                    raise ParseError("universal block before existential block", lineno)
                a_vars = block
            continue
        try:
            nums = [int(x) for x in line.split()]
        except ValueError:
            raise ParseError("non-integer clause entry", lineno) from None
        if not nums or nums[-1] != 0:
            raise ParseError("clause must end with 0", lineno)
        if e_vars is None:
            raise ParseError("clause before the quantifier prefix", lineno)
        declared = set(e_vars) | set(a_vars or ())
        for lit in nums[:-1]:
            if lit == 0 or abs(lit) not in declared:
                raise ParseError(f"literal {lit} references an undeclared variable", lineno)
        clauses.append(tuple(nums[:-1]))
    if e_vars is None:
        raise ParseError("missing existential quantifier line")
    try:
        return Qbf(tuple(e_vars), tuple(a_vars or ()), tuple(clauses))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def emit_qdimacs(f: Qbf) -> str:
    """Inverse of parse_qdimacs (round-trips)."""
    max_var = max([*f.existential_vars, *f.universal_vars], default=1)
    lines = [f"p cnf {max_var} {len(f.clauses)}"]
    lines.append("e " + " ".join(str(v) for v in f.existential_vars) + " 0")
    lines.append("a " + " ".join(str(v) for v in f.universal_vars) + " 0")
    for clause in f.clauses:
        lines.append(" ".join(str(x) for x in clause) + " 0")
    return "\n".join(lines) + "\n"


def _matrix_satisfied(f: Qbf, assignment: dict[int, bool]) -> bool:
    return all(
        any(assignment[abs(lit)] == (lit > 0) for lit in clause)
        for clause in f.clauses
    )


def brute_force_qbf(f: Qbf) -> bool:
    """Truth by full enumeration of both blocks."""
    total = len(f.existential_vars) + len(f.universal_vars)
    if total > MAX_BRUTE_VARS:
        raise TooLarge(f"{total} variables exceed the brute-force limit {MAX_BRUTE_VARS}")
    for e_bits in itertools.product((False, True), repeat=len(f.existential_vars)):
        assignment = dict(zip(f.existential_vars, e_bits))
        ok = True
        for a_bits in itertools.product((False, True), repeat=len(f.universal_vars)):
            assignment.update(zip(f.universal_vars, a_bits))
            if not _matrix_satisfied(f, assignment):
                ok = False
                break
        if ok:
            return True
    return False


def decode_assignment(index: int, variables: tuple[int, ...]) -> dict[int, bool]:
    """Bit i of the action index assigns variables[i]."""
    return {v: bool((index >> i) & 1) for i, v in enumerate(variables)}


def reduce_to_scmas(f: Qbf) -> ScmasGame:
    """Encode the formula as a leader-follower game over assignment indices."""
    k_l = 2 ** len(f.existential_vars)
    k_f = 2 ** len(f.universal_vars)
    rewards = []
    for i in range(k_l):
        row = []
        assignment = decode_assignment(i, f.existential_vars)
        for j in range(k_f):
            assignment.update(decode_assignment(j, f.universal_vars))
            sat = _matrix_satisfied(f, assignment)
            row.append((1.0, -1.0) if sat else (0.0, 0.0))
        rewards.append(tuple(row))

    scm = Scm(
        exogenous=(ExogenousVar("U", (0,), (1.0,)),),
        endogenous=(EndogenousVar("XL", contiguous(k_l)),
                    EndogenousVar("XF", contiguous(k_f))),
        equations=(
            StructuralEquation("XL", ("U",), table_from_fn([1], lambda u: 0)),
            StructuralEquation("XF", ("U",), table_from_fn([1], lambda u: 0)),
        ),
        action_nodes=("XL", "XF"),
    )
    return ScmasGame(
        scm=scm,
        leader_action="XL",
        follower_action="XF",
        rewards=tuple(rewards),
        info=InformationStructure(PERFECT),
        meta={
            "name": "qbf-reduction",
            "existential_vars": list(f.existential_vars),
            "universal_vars": list(f.universal_vars),
            "n_clauses": len(f.clauses),
        },
    )


def verify_reduction(f: Qbf) -> bool:
    """Check truth(formula) == (leader secures payoff 1 in the encoded game)."""
    truth = brute_force_qbf(f)
    game = reduce_to_scmas(f)
    cap = max(len(game.leader_support), len(game.follower_support))
    profile = exact_scne(game, action_cap=cap)
    return truth == (profile.leader_payoff == 1.0)


def exhaustive_family():
    """Every formula with one existential and one universal variable and at
    most two clauses (clause sets, no duplicates)."""
    literals = (1, -1, 2, -2)
    clauses = []
    for r in range(1, len(literals) + 1):
        for combo in itertools.combinations(literals, r):
            clauses.append(tuple(combo))
    out = [Qbf((1,), (2,), ())]
    for r in (1, 2):
        for subset in itertools.combinations(clauses, r):
            out.append(Qbf((1,), (2,), subset))
    return out


def random_formula(rng: np.random.Generator, n_e: int = 3, n_a: int = 3,
                   n_clauses: int = 4, clause_len: int = 3) -> Qbf:
    """Seeded random formula over disjoint blocks 1..n_e and n_e+1..n_e+n_a."""
    e_vars = tuple(range(1, n_e + 1))
    a_vars = tuple(range(n_e + 1, n_e + n_a + 1))
    pool = e_vars + a_vars
    clauses = []
    for _ in range(n_clauses):
        chosen = rng.choice(len(pool), size=clause_len, replace=False)
        clause = tuple(
            int(pool[i]) * (1 if rng.integers(2) else -1) for i in sorted(chosen)
        )
        clauses.append(clause)
    return Qbf(e_vars, a_vars, tuple(clauses))
