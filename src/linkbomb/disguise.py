"""Optimal disguised attacks and link-farm configuration.

A disguised attack must keep every attacker at shortest-path distance at
least ell from the victim, so attackers cannot link to the victim
directly. The key quantity is the forward value f(u): the fraction of
u's score that reaches the victim along walks with the victim as
terminal but never intermediate node. For alpha < 1 the best
single-attacker move is one link to the forward-value maximizer among
nodes at distance exactly ell - 1, and there is always a joint optimum
where every attacker points at the same such node w. The single-attacker
scan is therefore the joint scan with one attacker.

With the attackers' out-edges stripped (graph S, forward matrix R),
pointing all of them at w is a rank-one change to I - alpha R, so two
absorbing solves on S score every candidate at once (Sherman-Morrison):

    V(w) = c / (1 - gamma) * (sum f + alpha f(w) sum y / (1 - alpha y(w)))

with c = (1 - alpha) / n, f the forward values toward the victim, gamma =
alpha (R f)[victim] its cycle flow and y = (I - alpha R)^-1 1_A the
absorbing values with every attacker pinned to 1. Only the candidates
whose V lies within the solvers' certified error of the best (the tie
band) get a full pagerank solve: the baseline and every band candidate's
attacked graph are solved as block-diagonal power iterations, streamed
in stacks of bounded height (`compute_pageranks`), each result
bit-identical to a lone solve. The largest full-solve magnitude wins,
the lowest id among equal magnitudes, so the chosen attack is the one a
full solve per candidate would pick. Candidates whose exact forward values
tie (mirror images, say) can differ in computed magnitude by rounding or
solver error; the larger computed magnitude then wins, not the lower id.
At alpha = 1 the scores need not be unique and there is no certified
bound: the band is the whole shell, and full solves, flagged and possibly
cut off at the iteration cap, decide.

Every solve takes its tolerance and iteration cap from the config, by
default `pagerank.TOLERANCE` and `pagerank.MAX_ITERATIONS`.

A link farm is the ell = 1 self-disguised case: all farm members point
at the target, and the target (which controls its own links, but cannot
self-loop) points wherever the flow returned to it is largest.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .attacks import AttackResult, AttackSpec, _result, apply_attack
from .flow import _absorbing_values
from .graph import DirectedMultigraph, _integers, _node_ids, _reals
from .pagerank import MAX_ITERATIONS, TOLERANCE, PageRankConfig, _stacked_pageranks

__all__ = [
    "ForwardValueMap",
    "DisguisedAttackPlan",
    "forward_values",
    "candidate_set",
    "value_of",
    "optimal_disguised_single",
    "optimal_disguised_joint",
    "optimal_link_farm",
]


@dataclass
class ForwardValueMap:
    """Per-node forward values toward a fixed target.

    values[target] is pinned to 1; every other node's value is
    alpha/outdeg times the sum over its out-edges (0 for dangling nodes),
    and is bounded by alpha ** distance(node, target).
    """

    target: int
    values: np.ndarray
    alpha: float
    residual: float


@dataclass
class DisguisedAttackPlan:
    attackers: tuple[int, ...]
    victim: int
    ell: int
    chosen_node: int
    per_attacker_value: dict[int, float]
    magnitude: float
    result: AttackResult  # before/after solves of the chosen attack


def forward_values(
    g: DirectedMultigraph,
    target: int,
    alpha: float,
    tolerance: float = TOLERANCE,
    max_iterations: int = MAX_ITERATIONS,
) -> ForwardValueMap:
    [target] = _node_ids(g.node_count, [target])
    _reals("alpha", [alpha], 0, 1)
    h, resid, _it = _absorbing_values(g, (target,), frozenset(), alpha, tolerance, max_iterations)
    return ForwardValueMap(target=target, values=h, alpha=alpha, residual=resid)


def candidate_set(g: DirectedMultigraph, victim: int, ell: int) -> set[int]:
    """Nodes at shortest distance exactly ell - 1 from the victim.

    These are the only nodes worth linking to under a distance->= ell
    disguise constraint. May be empty; callers treat that as infeasible.
    """
    [ell] = _integers("ell", [ell], 1)
    dist = g.distances_to(victim)
    want = ell - 1
    return {u for u, d in enumerate(dist) if d == want}


def value_of(
    g: DirectedMultigraph,
    attacker: int,
    u: int,
    victim: int,
    alpha: float,
    cfg: PageRankConfig | None = None,
) -> float:
    """Forward value the attacker achieves by pointing only at u.

    The attacker's out-edges are replaced by the single probe edge
    (attacker, u); the result is the attacker's forward value toward the
    victim on that modified graph. `cfg.alpha` must equal `alpha`; a given
    `cfg` also sets the solve's tolerance and iteration cap.
    """
    cfg = _config(alpha, cfg)
    attacker, u = _node_ids(g.node_count, (attacker, u))
    if u == attacker:
        raise ValueError(f"probe edge ({attacker}, {u}) would be a self-loop")
    probed = g._splice((attacker,), {(attacker, u): 1})
    fwd = forward_values(probed, victim, alpha, cfg.tolerance, cfg.max_iterations)
    return float(fwd.values[attacker])


def _staged(g: DirectedMultigraph, attackers) -> DirectedMultigraph:
    """The graph the plan actually builds on: attacker out-edges are replaced
    no matter what, so planning distances and values ignore them."""
    return g._splice(attackers)


def _candidates_for(staged, attackers, victim, ell) -> list[int]:
    cands = candidate_set(staged, victim, ell)
    cands -= set(attackers)  # pointing an attacker at itself is a self-loop
    if ell >= 2:
        cands.discard(victim)
    out = sorted(cands)
    if not out:
        raise ValueError(
            f"no usable node at distance {ell - 1} from victim {victim}: disguised attack infeasible"
        )
    return out


def _config(alpha: float, cfg: PageRankConfig | None) -> PageRankConfig:
    """The solver config; one that names a different alpha is an error."""
    if cfg is None:
        return PageRankConfig(alpha=alpha)
    if cfg.alpha != alpha:
        raise ValueError(f"alpha {alpha} disagrees with cfg.alpha {cfg.alpha}")
    return cfg


def optimal_disguised_single(
    g: DirectedMultigraph,
    attacker: int,
    victim: int,
    ell: int,
    alpha: float,
    cfg: PageRankConfig | None = None,
) -> DisguisedAttackPlan:
    """Best single link for one attacker under the distance constraint: the
    joint scan with one attacker.

    For alpha < 1 the winner is a forward-value maximizer in the distance
    ell - 1 shell; scanning farther shells can never do better. The largest
    full-solve magnitude wins, the lowest id among equal magnitudes, so a
    tie in exact forward values goes to the larger computed magnitude. At
    alpha = 1 the full solves of the whole shell decide, flagged when they
    reach the iteration cap. With ell = 1 the shell is just the victim and
    the plan is the direct individual attack. `cfg.alpha` must equal
    `alpha`; a given `cfg` also sets every solve's tolerance and iteration
    cap.
    """
    return optimal_disguised_joint(g, (attacker,), victim, ell, alpha, cfg)


def _shell_scores(staged: DirectedMultigraph, attackers, victim: int, cands, cfg: PageRankConfig):
    """V(w) for each candidate w (see the module docstring) and a bound on
    |V(w) - victim score of the full pagerank solve of that attack|.

    V increases in each of its inputs, so it is evaluated with every input
    at the low and at the high end of its certified error: residual / (1 -
    alpha) in max norm for f and y. The full solve adds its L1 error n *
    tolerance / (1 - alpha), and n * eps covers rounding. Needs alpha < 1.
    """
    n, alpha = staged.node_count, cfg.alpha
    eps = np.finfo(float).eps
    fwd = forward_values(staged, victim, alpha, cfg.tolerance, cfg.max_iterations)
    y, y_resid, _it = _absorbing_values(staged, attackers, (), alpha, cfg.tolerance, cfg.max_iterations)
    f = fwd.values
    err_f = (fwd.residual + n * eps) / (1.0 - alpha)
    err_y = (y_resid + n * eps) / (1.0 - alpha)
    gamma = alpha * float((staged.forward_matrix() @ f)[victim])
    # Rows: low end, computed value, high end. Exact values obey f <= 1,
    # gamma <= alpha and y(w) <= alpha off the attackers, which keeps both
    # denominators at least 1 - alpha.
    side = np.array([[-1.0], [0.0], [1.0]])
    w = np.asarray(cands, dtype=np.intp)
    f_w = np.clip(f[w] + side * err_f, 0.0, 1.0)
    y_w = np.clip(y[w] + side * err_y, 0.0, alpha)
    gamma = np.clip(gamma + side * alpha * err_f, 0.0, alpha)
    sum_f = np.maximum(f.sum() + side * n * err_f, 0.0)
    sum_y = np.maximum(y.sum() + side * n * err_y, 0.0)
    lo, mid, hi = (1.0 - alpha) / n / (1.0 - gamma) * (sum_f + alpha * f_w * sum_y / (1.0 - alpha * y_w))
    full_solve = n * (cfg.tolerance + eps) / (1.0 - alpha)
    return mid, np.maximum(hi - mid, mid - lo) + full_solve + n * eps * hi


def _tie_band(staged: DirectedMultigraph, attackers, victim: int, cands, cfg: PageRankConfig) -> list[int]:
    """The candidates whose full solve may still win the scan.

    A candidate is dropped only when its score's upper bound lies below some
    candidate's lower bound, so its full-solve magnitude would be strictly
    smaller. At alpha = 1 there is no bound and the band is the whole shell.
    """
    if cfg.alpha >= 1.0:
        return list(cands)
    score, bound = _shell_scores(staged, attackers, victim, cands, cfg)
    keep = score + bound >= np.max(score - bound)
    return [w for w, k in zip(cands, keep) if k]


def optimal_disguised_joint(
    g: DirectedMultigraph,
    attackers,
    victim: int,
    ell: int,
    alpha: float,
    cfg: PageRankConfig | None = None,
) -> DisguisedAttackPlan:
    """Best joint attack where every attacker points at one shared node.

    Individually optimal nodes can differ between attackers, yet some
    single shared node always does at least as well as any mix of
    per-attacker single links. The whole shell is scored in closed form
    from two absorbing solves (see the module docstring); the baseline and
    the attacked graphs of the tie band -- candidates within the certified
    error of the best -- get full solves, streamed as block-diagonal
    stacks of bounded height (see `compute_pageranks`). The largest
    full-solve magnitude wins, the lowest id among equals, exactly as a
    full solve per candidate would choose. `cfg.alpha` must equal
    `alpha`; a given `cfg` also sets the absorbing solves' tolerance and
    iteration cap.
    """
    *attackers, victim = _node_ids(g.node_count, (*attackers, victim))
    attackers = tuple(attackers)
    [ell] = _integers("ell", [ell])
    if victim in attackers:
        raise ValueError(f"victim {victim} cannot be an attacker")
    cfg = _config(alpha, cfg)
    staged = _staged(g, attackers)
    cands = _candidates_for(staged, attackers, victim, ell)
    band = _tie_band(staged, attackers, victim, cands, cfg)
    attacked = (apply_attack(g, AttackSpec(attackers, victim, {a: {w: 1} for a in attackers})) for w in band)
    # Streamed: one stack's attacked graphs, matrices and score vectors are
    # held at a time, plus the best graph and score vector so far.
    solved = _stacked_pageranks(itertools.chain([g], attacked), cfg)
    _, before = next(solved)
    vb = float(before.scores[victim])
    best = top = None
    for k, (graph, prv) in enumerate(solved):
        magnitude = float(prv.scores[victim]) - vb
        if best is None or magnitude > top:  # strict: the lowest id among equal magnitudes
            best, top, best_graph, after = k, magnitude, graph, prv
    result = _result(before, after, victim)
    fwd = forward_values(best_graph, victim, alpha, cfg.tolerance, cfg.max_iterations)
    return DisguisedAttackPlan(
        attackers=attackers,
        victim=victim,
        ell=ell,
        chosen_node=band[best],
        per_attacker_value={a: float(fwd.values[a]) for a in attackers},
        magnitude=result.magnitude,
        result=result,
    )


def optimal_link_farm(
    g: DirectedMultigraph,
    farm_nodes,
    target: int,
    alpha: float,
    cfg: PageRankConfig | None = None,
) -> AttackSpec:
    """Best configuration for a farm that controls the target's links too.

    Every farm member except the target gets a single link to the target
    (the direct individual attack). The target then takes the single
    out-edge that maximizes the flow returned to itself, i.e. the forward
    value toward the target on the post-attack graph, over all nodes but
    itself (self-loops are impossible); ties go to the lowest id. After
    the direct attack the farm members all sit at the best achievable
    return, so the chosen node is a farm member unless an outsider ties.
    `cfg.alpha` must equal `alpha`; a given `cfg` also sets the forward-value
    solve's tolerance and iteration cap.
    """
    cfg = _config(alpha, cfg)
    *farm, target = _node_ids(g.node_count, (*farm_nodes, target))
    farm = tuple(farm)
    if len(set(farm)) != len(farm):
        raise ValueError(f"farm nodes must be distinct, got {farm}")
    if len(farm) < 2:
        raise ValueError("link farm needs at least 2 nodes to optimize")
    if target not in farm:
        raise ValueError(f"target {target} must be a farm member")
    members = tuple(v for v in farm if v != target)
    direct = AttackSpec(attackers=members, victim=target, assignment={a: {target: 1} for a in members})
    staged = apply_attack(g, direct)
    returns = forward_values(staged, target, alpha, cfg.tolerance, cfg.max_iterations).values
    returns[target] = -np.inf  # no self-loop; argmax takes the first, lowest-id maximum
    assignment = {a: {target: 1} for a in members}
    assignment[target] = {int(np.argmax(returns)): 1}
    return AttackSpec(attackers=farm, victim=target, assignment=assignment)
