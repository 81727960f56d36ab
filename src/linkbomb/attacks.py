"""Construction and measurement of link-bomb attacks.

An attack is a rewrite of the attackers' outgoing edges only: applying a
spec removes every edge leaving each attacker and installs the spec's
per-attacker assignment instead. Victims' and bystanders' edges are never
touched. Replacement (rather than augmentation) keeps before/after
comparisons well-posed when attacker out-edges were stripped beforehand.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DirectedMultigraph, _integers, _node_ids
from .pagerank import PageRankConfig, PageRankVector, compute_pagerank, rank_of

__all__ = [
    "AttackSpec",
    "AttackResult",
    "build_pattern",
    "apply_attack",
    "attack_magnitude",
    "enumerate_alternative_attacks",
]

@dataclass(frozen=True)
class AttackSpec:
    """Attackers, victim, and the out-edges each attacker will end up with.

    `assignment` maps attacker -> {head: multiplicity}; attackers missing
    from it (or mapped to an empty dict) are left dangling. The victim may
    be a member of `attackers` only in link-farm setups; the standard
    constructors reject that. Node ids and multiplicities must be ints or
    numpy integers; attackers and victim are stored as Python ints.
    """

    attackers: tuple[int, ...]
    victim: int
    assignment: dict[int, dict[int, int]]

    def __post_init__(self):
        *attackers, victim = _integers("node id", (*self.attackers, self.victim))
        object.__setattr__(self, "attackers", tuple(attackers))
        object.__setattr__(self, "victim", victim)
        _integers("node id", [*self.assignment, *(h for t in self.assignment.values() for h in t)])
        _integers("edge multiplicity", [m for t in self.assignment.values() for m in t.values()])
        if not self.attackers:
            raise ValueError("attack needs at least one attacker")
        if len(set(self.attackers)) != len(self.attackers):
            raise ValueError(f"attackers must be distinct, got {self.attackers}")
        attacker_set = set(self.attackers)
        for a, targets in self.assignment.items():
            if a not in attacker_set:
                raise ValueError(f"assignment for non-attacker node {a}")
            for head, mult in targets.items():
                if head == a:
                    raise ValueError(f"assignment contains self-loop ({a}, {head})")
                if mult < 1:
                    raise ValueError(f"edge multiplicity must be >= 1, got {mult}")


@dataclass
class AttackResult:
    victim_before: float
    victim_after: float
    magnitude: float  # victim_after - victim_before
    rank_before: int
    rank_after: int
    before: PageRankVector
    after: PageRankVector


def build_pattern(pattern: str, attackers, victim: int) -> AttackSpec:
    """Canned attack shapes. Every attacker points at the victim; the
    pattern fixes the links among the attackers themselves:

      individual -- no links among attackers at all
      star/tree  -- attackers 2..K additionally point at attacker 1
      cycle      -- each attacker additionally points at its cyclic successor
      complete   -- each attacker additionally points at every other attacker
    """
    *attackers, victim = _integers("node id", (*attackers, victim))
    attackers = tuple(attackers)
    if victim in attackers:
        raise ValueError(f"victim {victim} cannot be an attacker")
    # Empty or repeated attackers are left to AttackSpec, so no branch below
    # may fail on them first.
    k = len(attackers)
    if pattern == "tree":
        # The tree shape is used in its star specialization.
        pattern = "star"
    if pattern == "individual":
        assignment = {a: {victim: 1} for a in attackers}
    elif pattern == "star":
        assignment = {a: {victim: 1, attackers[0]: 1} if i else {victim: 1} for i, a in enumerate(attackers)}
    elif pattern == "cycle":
        if k == 1:
            raise ValueError("cycle pattern needs at least 2 attackers")
        assignment = {}
        for i, a in enumerate(attackers):
            assignment[a] = {victim: 1, attackers[(i + 1) % k]: 1}
    elif pattern == "complete":
        assignment = {}
        for a in attackers:
            targets = {victim: 1}
            for b in attackers:
                if b != a:
                    targets[b] = 1
            assignment[a] = targets
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    return AttackSpec(attackers=attackers, victim=victim, assignment=assignment)


def apply_attack(g: DirectedMultigraph, spec: AttackSpec) -> DirectedMultigraph:
    """Replace each attacker's out-edges with the spec assignment."""
    _node_ids(g.node_count, [spec.victim])
    edges = {(a, head): mult for a in spec.attackers for head, mult in spec.assignment.get(a, {}).items()}
    return g._splice(spec.attackers, edges)


def attack_magnitude(
    g: DirectedMultigraph, spec: AttackSpec, cfg: PageRankConfig = PageRankConfig()
) -> AttackResult:
    """Solve before and after the attack and report the victim's change."""
    before = compute_pagerank(g, cfg)
    return _result(before, compute_pagerank(apply_attack(g, spec), cfg), spec.victim)


def _result(before: PageRankVector, after: PageRankVector, victim: int) -> AttackResult:
    """The victim's change between two solved score vectors."""
    vb = float(before.scores[victim])
    va = float(after.scores[victim])
    return AttackResult(
        victim_before=vb,
        victim_after=va,
        magnitude=va - vb,
        rank_before=rank_of(before, victim),
        rank_after=rank_of(after, victim),
        before=before,
        after=after,
    )


def enumerate_alternative_attacks(
    g: DirectedMultigraph,
    attackers,
    victim: int,
    budget: int,
    count: int,
    seed: int,
) -> list[AttackSpec]:
    """Randomized adversary for optimality checks.

    Returns `count` specs; index 0 is always the individual attack, the
    rest give each attacker 1..budget out-edges to uniformly random
    non-self targets (duplicates accumulate as multiplicity).
    Deterministic given the seed.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    n = g.node_count
    *attackers, victim = _node_ids(n, (*attackers, victim))
    specs = [build_pattern("individual", attackers, victim)]
    rng = np.random.default_rng(seed)
    for _ in range(count - 1):
        assignment: dict[int, dict[int, int]] = {}
        for a in attackers:
            n_edges = int(rng.integers(1, budget + 1))
            targets: dict[int, int] = {}
            for _ in range(n_edges):
                t = int(rng.integers(0, n - 1))
                if t >= a:
                    t += 1  # skip the attacker itself
                targets[t] = targets.get(t, 0) + 1
            assignment[a] = targets
        specs.append(AttackSpec(attackers=attackers, victim=victim, assignment=assignment))
    return specs
