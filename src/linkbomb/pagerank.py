"""Pagerank solver for multigraphs where dangling nodes stunt the flow.

Scores satisfy

    p_i = alpha * sum_{(j,i) in E} p_j / outdeg(j)  +  (1 - alpha) / N,

with parallel edges counted by multiplicity and nothing redistributed for
dangling nodes: whatever reaches a node with out-degree zero is simply
lost, so the scores need not sum to 1. Instead they obey

    sum_i p_i = 1 - alpha/(1-alpha) * sum_{outdeg(j)=0} p_j        (alpha < 1)

which `verify_sum_identity` checks. The solver is the power iteration
from the uniform start 1/N, stopped on the max-norm residual of the
defining equations.

A closed strong component holds that iteration to the alpha^t rate: the
seed pair 0 <-> 1 of an mwdta graph, or a link farm's loop, takes 130-odd
iterations at alpha = 0.85 where the leaky rest of the graph takes about
20. So for 0 < alpha < 1 a graph's closed set Q
(`DirectedMultigraph._closed_nodes`: the nodes that reach no dangling
node, less the acyclic ones feeding them) is deflated when it has at most
_DENSE_ROWS nodes (Langville & Meyer, "Deeper inside PageRank", 2004; Lee,
Golub & Zenios, 2003). No node of Q links out of it, so nothing outside
Q reads its scores: Q's rows are emptied and start at 0, the loop
converges on the other rows alone, and one dense solve of
(I - alpha M_QQ) x_Q = (1 - alpha)/N + alpha M_QT x_T then fills Q in.
`iterations` counts the steps on the other rows, and `residual` is the
max-norm defect of the returned scores over every row, Q included. The
scores differ from the plain iteration's in the last digits only, within
the certified bound |p - p*|_1 <= |r|_1 / (1 - alpha) of each, r being
the defect vector. A graph whose Q is empty or larger, too deep for the
finder's round budget, or whose dense solve misses the tolerance, is
iterated whole, bit for bit as before; so is every solve at alpha = 0 or 1.

`compute_pageranks` solves several graphs at once, in stacks of a bounded
number of rows, and `compute_pagerank` is its one-graph case. A stack's
transition matrices are laid along the diagonal of one CSR matrix M, so
each step is one mat-vec on the stacked vector, nxt = alpha * (M @ p) +
jump, with every block's own jump (1 - alpha)/N and start 1/N. Blocks do
not mix: row i of M holds the same
entries in the same order as in its own graph's matrix, and every other
operation is elementwise, so each block's iterates are bit-identical to a
lone solve. One `np.maximum.reduceat` gives each block's max-norm
residual. A block is frozen at its own first in-tolerance iterate (its
scores copied out) while the rest iterate on, and each block deflates, or
falls back, on its own graph and result, so its result equals a lone
solve's exactly. Only the final residual is kept, not a history.

That loop, `_iterate(m, alpha, b, ...)` for x <- alpha * (m @ x) + b, is
the package's one fixed-point loop: the absorbing solves of `flow` run on
it too, as a single block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import DirectedMultigraph, _entries, _integers, _node_ids

__all__ = [
    "MAX_ITERATIONS",
    "TOLERANCE",
    "PageRankConfig",
    "PageRankVector",
    "ConvergenceError",
    "compute_pagerank",
    "compute_pageranks",
    "closed_form_isolated",
    "verify_sum_identity",
    "rank_of",
]


MAX_ITERATIONS = 100_000  # default iteration cap of every solve, in the library and the CLI
TOLERANCE = 1e-12  # default max-norm tolerance of every solve, in the library and the CLI


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")


def _check_limits(tolerance: float, max_iterations: int) -> None:
    """A solve's stopping rule: a positive tolerance (NaN never compares as
    met, so it is refused here) and an integer iteration cap >= 1."""
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    _integers("max_iterations", [max_iterations])
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")


class ConvergenceError(RuntimeError):
    """Raised when an iterative solve does not reach tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class PageRankConfig:
    alpha: float = 0.85
    tolerance: float = TOLERANCE
    max_iterations: int = MAX_ITERATIONS

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_limits(self.tolerance, self.max_iterations)


@dataclass
class PageRankVector:
    """Solved scores plus solver diagnostics.

    `residual` is the max-norm defect of the returned scores in the
    defining equations, over every row. `iterations` counts power steps;
    a deflated solve (see the module docstring) takes them on the rows
    outside its closed set only. `flagged_alpha_one` marks solves at
    alpha = 1, where convergence (and uniqueness) is only guaranteed on
    acyclic graphs; such solves return at the iteration cutoff instead of
    raising.
    """

    scores: np.ndarray
    alpha: float
    iterations: int
    residual: float
    converged: bool
    flagged_alpha_one: bool = False

    @property
    def node_count(self) -> int:
        return len(self.scores)


def compute_pagerank(g: DirectedMultigraph, cfg: PageRankConfig = PageRankConfig()) -> PageRankVector:
    """Power-iterate to the score vector of `g`.

    Returns the first iterate whose equation residual is within
    cfg.tolerance, so the advertised residual is certified rather than
    estimated. Raises ConvergenceError for alpha < 1 if the cutoff is hit.
    """
    return compute_pageranks([g], cfg)[0]


# Rows stacked into one block-diagonal solve. A power-iteration step on one
# 1000-node mwdta graph (E = 5n) cost 17.6 us, and 11.9, 8.9, 8.3, 8.6 and
# 8.8 us per graph with 2, 4, 8, 16 and 32 such graphs stacked (2-vCPU x86
# VM, scipy 1.17): the fixed per-step cost is spread by about eight blocks.
# Wider stacks gain no time but hold every stacked graph, its cached
# matrices and a block-diagonal copy at once: a streamed joint disguise scan
# at alpha = 1 over an 86-candidate shell of an n = 5000 mwdta graph (cap
# 3000 iterations) rose from 57 MB of RSS to 198 MB in one stack and to
# 61 MB in bounded ones, in 7.9-8.1 s against 6.9 s.
# The bound keeps a 5 x 800-row sweep batch in one stack.
_STACK_ROWS = 8000


def compute_pageranks(graphs, cfg: PageRankConfig = PageRankConfig()) -> list[PageRankVector]:
    """Solve every graph in `graphs` by block-diagonal power iteration, in
    consecutive stacks of at most _STACK_ROWS rows (a larger graph is a
    stack of its own).

    Each result is bit-identical to solving its graph alone (see the
    module docstring). For alpha < 1 a cutoff raises the
    ConvergenceError of the first unconverged graph in input order; at
    alpha = 1 cut-off graphs come back flagged.
    """
    return [prv for _, prv in _stacked_pageranks(graphs, cfg)]


def _stacked_pageranks(graphs, cfg: PageRankConfig):
    """compute_pageranks as a generator of (graph, result) pairs. `graphs`
    is read one graph past a stack before that stack is solved, so a
    caller streaming both holds about one stack at a time."""
    stack: list[DirectedMultigraph] = []
    rows = 0
    for g in graphs:
        if stack and rows + g.node_count > _STACK_ROWS:
            yield from zip(stack, _solve_stack(stack, cfg))
            stack, rows = [], 0
        stack.append(g)
        rows += g.node_count
    if stack:
        yield from zip(stack, _solve_stack(stack, cfg))


def _solve_stack(graphs: list[DirectedMultigraph], cfg: PageRankConfig) -> list[PageRankVector]:
    alpha = cfg.alpha
    closed = [_deflated_nodes(g, alpha) for g in graphs]
    out = []
    for g, q, (scores, iterations, residual, converged) in zip(graphs, closed, _power(graphs, closed, cfg)):
        if converged and len(q):
            defect = _solve_closed(g.transition_matrix(), alpha, scores, q)
            if defect <= cfg.tolerance:
                residual = max(residual, defect)
            else:  # the direct solve missed the tolerance: iterate the whole graph instead
                [(scores, iterations, residual, converged)] = _power([g], [_NONE], cfg)
        # alpha = 1 is allowed only under a hard cutoff; the last iterate comes
        # back flagged rather than failing.
        if not converged and alpha < 1.0:
            raise ConvergenceError(
                f"pagerank did not converge in {cfg.max_iterations} iterations "
                f"(last residual {residual:.3e}, tolerance {cfg.tolerance:.3e})",
                residual=residual,
            )
        out.append(PageRankVector(scores, alpha, iterations, residual, converged, flagged_alpha_one=alpha >= 1.0))
    return out


# Largest closed set solved directly. np.linalg.solve on a dense k x k system
# took 0.03, 0.11, 0.49, 2.1 and 4.5 ms for k = 50, 100, 200, 300 and 500
# (2-vCPU x86 VM, numpy 2.4, one BLAS thread), while deflating the closed seed
# pair of an mwdta graph (E = 5n) saves about 110 power steps of 0.021 ms at
# n = 1000 and 0.085 ms at n = 5000: a set of up to 256 nodes costs less than
# the steps it saves on such graphs. Peak RSS rose by 2.9 MB over a first
# solve at k = 256 (the matrix, LAPACK's copy and BLAS buffers), 0.7 MB at k = 44.
_DENSE_ROWS = 256
_NONE = np.zeros(0, dtype=np.intp)


def _deflated_nodes(g: DirectedMultigraph, alpha: float) -> np.ndarray:
    """The closed nodes of g (`DirectedMultigraph._closed_nodes`) that its
    solve deflates: all of them for 0 < alpha < 1 if they were found and
    there are at most _DENSE_ROWS, none otherwise."""
    if not 0.0 < alpha < 1.0:
        return _NONE
    q = g._closed_nodes()
    return q if q is not None and len(q) <= _DENSE_ROWS else _NONE


def _power(graphs, closed, cfg: PageRankConfig):
    """`_iterate` over the block-diagonal stack of the graphs' transition
    matrices, from 1/N with jump (1 - alpha)/N per block, except that the
    rows of each block's `closed` nodes are emptied and start at 0."""
    alpha = cfg.alpha
    sizes = np.array([g.node_count for g in graphs])
    starts = np.concatenate(([0], np.cumsum(sizes)))
    b = np.repeat((1.0 - alpha) / sizes, sizes)
    x0 = np.repeat(1.0 / sizes, sizes)
    mats = []
    for g, q, s in zip(graphs, closed, starts):
        t = g.transition_matrix()
        if len(q):
            b[s + q] = x0[s + q] = 0.0
            t = _emptied(t, q)
        mats.append(t)
    return _iterate(_block_diagonal(mats, starts), alpha, b, x0, starts, cfg.tolerance, cfg.max_iterations)


def _solve_closed(t: sp.csr_matrix, alpha: float, x: np.ndarray, q: np.ndarray) -> float:
    """Fill in x[q], zero on entry, from the rest of x by one dense solve of
    (I - alpha M_QQ) x_Q = (1 - alpha)/N + alpha M_QT x_T, where M is the
    transition matrix `t`, and return the max-norm defect of the q rows.

    No node of a closed set q links out of it, so the other rows of M do not
    read x[q]: their defect is the one the iteration reached.
    """
    c = (1.0 - alpha) / len(x)
    at = _entries(t.indptr, q)
    row = np.repeat(np.arange(len(q)), t.indptr[q + 1] - t.indptr[q])
    col, val = t.indices[at], t.data[at]
    local = np.full(len(x), -1)
    local[q] = np.arange(len(q))
    inside = local[col] >= 0
    a = np.eye(len(q))
    a[row[inside], local[col[inside]]] -= alpha * val[inside]
    x[q] = np.linalg.solve(a, c + alpha * np.bincount(row, val * x[col], minlength=len(q)))
    return float(np.max(np.abs(c + alpha * np.bincount(row, val * x[col], minlength=len(q)) - x[q])))


def _emptied(m: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """m with every entry of the rows `rows` (node ids) an explicit zero;
    every other row keeps its entries in their stored order, so its sums
    come out as on m itself."""
    data = m.data.copy()
    data[_entries(m.indptr, rows)] = 0.0
    return sp.csr_matrix((data, m.indices, m.indptr), shape=m.shape)


def _iterate(m, alpha: float, b: np.ndarray, x0: np.ndarray, starts: np.ndarray, tolerance: float, max_iterations: int):
    """Run x <- alpha * (m @ x) + b from x0 over the blocks that `starts`
    marks (block k is x[starts[k]:starts[k + 1]]; m must not mix blocks).

    Returns one (x_k, iterations, residual, converged) per block: the first
    iterate whose max-norm step is within tolerance, or, for a block cut off
    at max_iterations, the last iterate and the last step.
    """
    # A block's own tolerance, -inf once it is frozen at its first in-tolerance
    # iterate; residuals are never negative, so a frozen block never hits again.
    tol = np.full(len(starts) - 1, tolerance, dtype=float)
    resid = np.full(len(tol), np.inf)
    solved: list[tuple | None] = [None] * len(tol)
    x = x0
    for it in range(1, max_iterations + 1):
        nxt = alpha * (m @ x) + b
        resid = np.maximum.reduceat(np.abs(nxt - x), starts[:-1])
        hit = resid <= tol
        if hit.any():
            for k in np.flatnonzero(hit):
                solved[k] = (x[starts[k]:starts[k + 1]].copy(), it, float(resid[k]), True)
            tol[hit] = -np.inf
            if tol.max() < 0:
                break
        x = nxt
    return [
        s or (x[starts[k]:starts[k + 1]].copy(), max_iterations, float(resid[k]), False)
        for k, s in enumerate(solved)
    ]


def _block_diagonal(mats, starts: np.ndarray) -> sp.csr_matrix:
    """The CSR matrices `mats` along the diagonal, each row's entries kept in
    their stored order; `starts` holds the block offsets and the total size."""
    if len(mats) == 1:
        return mats[0]
    nnz = np.cumsum([0] + [mat.nnz for mat in mats])
    indptr = np.concatenate([[0]] + [mat.indptr[1:] + k for mat, k in zip(mats, nnz)])
    indices = np.concatenate([mat.indices + k for mat, k in zip(mats, starts)])
    data = np.concatenate([mat.data for mat in mats])
    return sp.csr_matrix((data, indices, indptr), shape=(starts[-1], starts[-1]))


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
    _check_alpha(alpha)
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
    [v] = _node_ids(prv.node_count, [v])
    return 1 + int(np.sum(prv.scores > prv.scores[v]))
