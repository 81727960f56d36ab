"""Pagerank solver for multigraphs where dangling nodes stunt the flow.

Scores satisfy

    p_i = alpha * sum_{(j,i) in E} p_j / outdeg(j)  +  (1 - alpha) / N,

with parallel edges counted by multiplicity and nothing redistributed for
dangling nodes: whatever reaches a node with out-degree zero is simply
lost, so the scores need not sum to 1. Instead they obey

    sum_i p_i = 1 - alpha/(1-alpha) * sum_{outdeg(j)=0} p_j        (alpha < 1)

which `verify_sum_identity` checks. The solver is the plain power
iteration from the uniform start 1/N, stopped on the max-norm residual
of the defining equations.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import DirectedMultigraph

__all__ = [
    "PageRankConfig",
    "PageRankVector",
    "ConvergenceError",
    "compute_pagerank",
    "closed_form_isolated",
    "verify_sum_identity",
    "rank_of",
]


class ConvergenceError(RuntimeError):
    """Raised when an iterative solve does not reach tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class PageRankConfig:
    alpha: float = 0.85
    tolerance: float = 1e-12
    max_iterations: int = 10_000

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.tolerance <= 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class PageRankVector:
    """Solved scores plus solver diagnostics.

    `residual` is the max-norm defect of the returned scores in the
    defining equations. `flagged_alpha_one` marks solves at alpha = 1,
    where convergence (and uniqueness) is only guaranteed on acyclic
    graphs; such solves return at the iteration cutoff instead of
    raising.
    """

    scores: np.ndarray
    alpha: float
    iterations: int
    residual: float
    converged: bool
    flagged_alpha_one: bool = False
    residual_history: list[float] = field(default_factory=list, repr=False)

    @property
    def node_count(self) -> int:
        return len(self.scores)


def compute_pagerank(g: DirectedMultigraph, cfg: PageRankConfig = PageRankConfig()) -> PageRankVector:
    """Power-iterate to the score vector of `g`.

    Returns the first iterate whose equation residual is within
    cfg.tolerance, so the advertised residual is certified rather than
    estimated. Raises ConvergenceError for alpha < 1 if the cutoff is hit.
    """
    n = g.node_count
    alpha = cfg.alpha
    m = g.transition_matrix()
    jump = (1.0 - alpha) / n
    p = np.full(n, 1.0 / n)
    history: list[float] = []
    resid = np.inf
    for it in range(1, cfg.max_iterations + 1):
        nxt = alpha * (m @ p) + jump
        resid = float(np.max(np.abs(nxt - p)))
        history.append(resid)
        if resid <= cfg.tolerance:
            return PageRankVector(
                scores=p,
                alpha=alpha,
                iterations=it,
                residual=resid,
                converged=True,
                flagged_alpha_one=alpha >= 1.0,
                residual_history=history,
            )
        p = nxt
    if alpha >= 1.0:
        # alpha = 1 is allowed only under a hard cutoff; hand back the last
        # iterate, flagged, rather than failing.
        return PageRankVector(
            scores=p,
            alpha=alpha,
            iterations=cfg.max_iterations,
            residual=resid,
            converged=False,
            flagged_alpha_one=True,
            residual_history=history,
        )
    raise ConvergenceError(
        f"pagerank did not converge in {cfg.max_iterations} iterations "
        f"(last residual {resid:.3e}, tolerance {cfg.tolerance:.3e})",
        residual=resid,
    )


_PATTERNS = ("individual", "star", "cycle", "complete")


def closed_form_isolated(pattern: str, k: int, alpha: float) -> float:
    """Victim score on the isolated graph of k attackers plus the victim.

    Every attacker points at the victim; the pattern fixes how the
    attackers link among themselves. With p0 = (1-alpha)/(k+1), the
    boosted score is:

        individual:  p0 * (1 + alpha*k)
        star:        p0 * (1 + alpha/2 * (k*(1+alpha) + 1 - alpha))
        cycle:       p0 * (1 + alpha*k / (2 - alpha))
        complete:    p0 * (1 + alpha*k / (k*(1-alpha) + alpha))
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    p0 = (1.0 - alpha) / (k + 1)
    if pattern == "individual":
        return p0 * (1.0 + alpha * k)
    if pattern == "star":
        return p0 * (1.0 + 0.5 * alpha * (k * (1.0 + alpha) + 1.0 - alpha))
    if pattern == "cycle":
        return p0 * (1.0 + alpha * k / (2.0 - alpha))
    if pattern == "complete":
        return p0 * (1.0 + alpha * k / (k * (1.0 - alpha) + alpha))
    raise ValueError(f"unknown pattern {pattern!r}, expected one of {_PATTERNS}")


def verify_sum_identity(prv: PageRankVector, g: DirectedMultigraph) -> float:
    """Residual of the dangling-mass identity; callers assert a bound on it.

    Returns |sum_i p_i - (1 - alpha/(1-alpha) * sum_dangling p_j)|.
    """
    if prv.alpha >= 1.0:
        raise ValueError("sum identity requires alpha < 1")
    scores = prv.scores
    dangling = g.out_degrees() == 0
    rhs = 1.0 - (prv.alpha / (1.0 - prv.alpha)) * float(scores[dangling].sum())
    return abs(float(scores.sum()) - rhs)


def rank_of(prv: PageRankVector, v: int) -> int:
    """Competition rank of node v: 1 + number of strictly higher scores."""
    if not 0 <= v < prv.node_count:
        raise ValueError(f"node id {v} out of range [0, {prv.node_count})")
    return 1 + int(np.sum(prv.scores > prv.scores[v]))
