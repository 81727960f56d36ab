"""Flow fractions along walks of a directed multigraph.

The central quantity is the fraction of a source node's score that
reaches a target node along walks that avoid a given set of nodes as
intermediates, where each traversed edge attenuates the flow by
alpha/outdeg (parallel edges weighted by multiplicity) and the walk ends
on first arrival at the target. With source == target this is the cycle
flow, whose geometric amplification 1/(1-gamma) is what makes cycles
through a node multiply its incoming gains.

Two routes are provided: an absorbing fixed-point solve (exact up to the
solver tolerance, sums infinite walk families), and an explicit walk
enumeration capped at a maximum length, kept as an independent oracle
with an explicit tail bound. The absorbing solve runs on the pagerank
solver's fixed-point loop, `pagerank._iterate`, as one block: the rows of
the pinned and zeroed nodes are emptied (`pagerank._emptied`, which
deflated pagerank solves use too) and the pinned ones get a jump of 1,
so the map x <- alpha * (R @ x) + 1_pinned holds them at 1 and 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DirectedMultigraph, _node_ids, _peel
from .pagerank import MAX_ITERATIONS, TOLERANCE, ConvergenceError, _check_alpha, _check_limits, _emptied, _iterate

__all__ = [
    "FlowQuery",
    "FlowResult",
    "flow_fraction",
    "flow_fraction_bruteforce",
    "attack_magnitude_formula",
]


@dataclass(frozen=True)
class FlowQuery:
    """Source/target pair with nodes excluded as intermediates.

    The exclusion set constrains intermediates only: the source is always
    a valid origin and the target always a valid terminal, whether or not
    they appear in `excluded`. source == target asks for the cycle flow.
    """

    source: int
    target: int
    excluded: frozenset[int] = frozenset()
    alpha: float = 0.85

    def __post_init__(self):
        object.__setattr__(self, "excluded", frozenset(self.excluded))
        _check_alpha(self.alpha)


@dataclass
class FlowResult:
    fraction: float
    method: str  # "linear_solve" | "enumeration"
    tail_bound: float | None = None  # enumeration only


def _absorbing_values(
    g: DirectedMultigraph,
    pinned,
    zero_nodes,
    alpha: float,
    tolerance: float,
    max_iterations: int,
):
    """Fixed point of h(u) = alpha/outdeg(u) * sum mult(u,w) h(w).

    h is pinned to 1 on every node in `pinned` (a sequence of node ids) and
    to 0 on zero_nodes minus the pinned ones; dangling nodes keep h = 0.
    One pinned node gives the first-arrival flow into it. Pinning a set of
    dangling nodes gives the summed resolvent columns (I - alpha R)^-1 1_A,
    since a walk stops at the first of them it reaches. Returns (h,
    residual, iterations) where the residual is the certified max-norm
    defect of the returned vector. The update is a max-norm contraction
    with factor alpha, so alpha < 1 always converges and the max-norm error
    is at most residual / (1 - alpha); alpha = 1 converges only when the
    relevant walk families are finite.
    """
    _check_limits(tolerance, max_iterations)
    pinned = np.asarray(pinned, dtype=np.intp)
    a = _emptied(g.forward_matrix(), np.concatenate((np.fromiter(zero_nodes, dtype=np.intp), pinned)))
    b = np.zeros(g.node_count)
    b[pinned] = 1.0
    [(h, iterations, resid, converged)] = _iterate(a, alpha, b, b, np.array([0, len(b)]), tolerance, max_iterations)
    if not converged:
        raise ConvergenceError(
            f"absorbing solve did not converge in {max_iterations} iterations "
            f"(last residual {resid:.3e})",
            residual=resid,
        )
    return h, resid, iterations


def flow_fraction(
    g: DirectedMultigraph,
    q: FlowQuery,
    tolerance: float = TOLERANCE,
    max_iterations: int = MAX_ITERATIONS,
) -> FlowResult:
    """Exact flow fraction via the absorbing linear solve.

    Solves the h-system pinned at the target, then expands one step from
    the source, so the source and target act purely as origin/terminal
    even when they sit in the exclusion set.
    """
    source, target, *_ = _node_ids(g.node_count, (q.source, q.target, *q.excluded))
    h, _resid, _it = _absorbing_values(g, (target,), q.excluded, q.alpha, tolerance, max_iterations)
    od = g.out_degree(source)
    if od == 0:
        frac = 0.0
    else:
        frac = (q.alpha / od) * sum(m * h[w] for (w, m) in g.out_edges(source))
    return FlowResult(fraction=float(frac), method="linear_solve")


def _has_cycle(g: DirectedMultigraph) -> bool:
    # Only nodes on or behind a cycle survive the peel of source nodes.
    return bool(_peel(g._indptr, g._heads, np.ones(g.node_count, dtype=bool), g.node_count).any())


def flow_fraction_bruteforce(g: DirectedMultigraph, q: FlowQuery, max_len: int) -> FlowResult:
    """Walk-enumeration oracle: sum per-walk products of alpha/outdeg.

    Enumerates every admissible walk of length <= max_len from source to
    target (target terminal-only, excluded nodes never intermediate) and
    sums multiplicity-weighted step products. The result is a lower bound
    on the exact fraction with error at most the returned tail bound
    alpha^(max_len+1) / (1 - alpha). Intended for small graphs only.
    """
    source, target, *_ = _node_ids(g.node_count, (q.source, q.target, *q.excluded))
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    alpha = q.alpha
    if alpha >= 1.0:
        if _has_cycle(g):
            raise ValueError("alpha = 1 with cycles: enumeration tail bound unavailable")
        if max_len < g.node_count - 1:
            raise ValueError(
                "alpha = 1: need max_len >= node_count - 1 to enumerate all acyclic walks"
            )
        tail = 0.0
    else:
        tail = alpha ** (max_len + 1) / (1.0 - alpha)

    out_adj = [g.out_edges(u) for u in range(g.node_count)]
    out_deg = [g.out_degree(u) for u in range(g.node_count)]
    excluded = q.excluded
    total = 0.0
    # Iterative DFS over (node, accumulated weight, edges used).
    stack = [(source, 1.0, 0)]
    while stack:
        u, weight, used = stack.pop()
        if used >= max_len or out_deg[u] == 0:
            continue
        scale = alpha / out_deg[u]
        for (w, m) in out_adj[u]:
            step = weight * scale * m
            if w == target:
                total += step
            elif w not in excluded:
                stack.append((w, step, used + 1))
    return FlowResult(fraction=total, method="enumeration", tail_bound=tail)


def attack_magnitude_formula(delta: float, gamma_v0: float, rho_v0vi: float, p_i: float) -> float:
    """Victim gain from a single attacker pushing raw flow `delta`.

    delta is the attacker's score times the fraction reaching the victim
    (victim terminal-only); gamma_v0 is the victim's cycle flow avoiding
    the attacker; rho_v0vi the victim-to-attacker flow avoiding both as
    intermediates; p_i the attacker's pre-attack score. The closed form

        delta / (1 - gamma_v0 - rho_v0vi * delta / p_i)

    sums the full feedback series and is monotone in delta.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if p_i <= 0:
        raise ValueError(f"p_i must be positive, got {p_i}")
    denom = 1.0 - gamma_v0 - rho_v0vi * delta / p_i
    if denom <= 0:
        raise ValueError(f"feedback factor must stay below 1 (denominator {denom:.3e})")
    return delta / denom
