"""Seeded random graph models normalized to comparable edge counts.

Three models:

  random -- directed Erdos-Renyi G(n, p): every ordered pair gets an
            edge independently with probability p. Sampled by geometric
            skipping over the n(n-1) ordered non-loop pairs (Batagelj &
            Brandes, Phys. Rev. E 71, 2005): the gaps between hits are
            drawn in bulk, so a graph costs O(n + E), not O(n^2).
  ba     -- directed preferential attachment: nodes arrive sequentially
            and send m out-edges to earlier nodes, drawn without
            replacement with probability proportional to in-degree + 1.
            All edges point backwards in arrival order, so the result is
            acyclic, and in-degrees are power-law heavy. Sampled from a
            repeated-endpoint array (Batagelj & Brandes) holding one
            entry per node and one per earlier edge head: each node
            draws uniform positions in it and rejects repeats, O(m)
            expected work per node and O(n + E) per graph.
  mwdta  -- mixed-attachment web model in which every node keeps at
            least one out-edge: each arriving node draws its out-degree
            from a truncated power law (minimum 1) and attaches each
            edge uniformly with probability beta, preferentially
            (in-degree + 1) otherwise. Compared with ba, the in-degree
            mass spreads over many mid-sized nodes instead of a few huge
            hubs. The construction is an approximation to that family of
            models, not a calibrated fit. It still draws node by node
            from a weight vector over all earlier nodes, O(n^2) per
            graph.

The random and ba edges reach the graph as arrays, in one CSR build.

Setting target_expected_edges rescales a model to a desired expected
edge count: analytically for random (p = target / n(n-1)), via
m = round(target / n) for ba, and by solving the power-law exponent for
the required mean out-degree for mwdta.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graph import DirectedMultigraph, _coalesce, _integers, _reals

__all__ = ["GeneratorConfig", "generate", "gen_er", "gen_ba", "gen_mwdta"]

MODELS = ("random", "ba", "mwdta")


@dataclass(frozen=True)
class GeneratorConfig:
    model: str
    n: int
    p: float = 0.005  # random: edge probability
    m: int = 5  # ba: out-edges per new vertex
    beta: float = 0.3  # mwdta: uniform-attachment weight
    tau: float = 2.5  # mwdta: out-degree power-law exponent
    d_max: int = 50  # mwdta: out-degree cap
    seed: int = 0
    target_expected_edges: float | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        for name, lo in (("n", 1), ("m", 1), ("d_max", 1), ("seed", 0)):
            _integers(name, [getattr(self, name)], lo)
        _reals("p", [self.p], 0, 1)
        _reals("beta", [self.beta], 0, 1)
        _reals("tau", [self.tau], 1, math.inf, "()")
        if self.target_expected_edges is not None:
            _reals("target_expected_edges", [self.target_expected_edges], 0, math.inf, "()")


def generate(cfg: GeneratorConfig) -> DirectedMultigraph:
    if cfg.model == "random":
        return gen_er(cfg)
    if cfg.model == "ba":
        return gen_ba(cfg)
    return gen_mwdta(cfg)


def gen_er(cfg: GeneratorConfig) -> DirectedMultigraph:
    n = cfg.n
    p = cfg.p
    if cfg.target_expected_edges is not None:
        if n < 2:
            raise ValueError("cannot target an edge count on a single node")
        p = min(1.0, cfg.target_expected_edges / (n * (n - 1)))
    rng = np.random.default_rng(cfg.seed)
    # Pair k is (u, r + (r >= u)) with (u, r) = divmod(k, n - 1): the n(n-1)
    # ordered non-loop pairs in row order. Between two hits of independent
    # Bernoulli(p) trials lie Geometric(p) - 1 misses, floor(E / -log(1 - p))
    # for an exponential E; the hits are the running sum of those skips + 1.
    # Skips come in chunks of the expected hit count, so about half the
    # graphs need a second chunk.
    pairs = n * (n - 1)
    hits = [np.zeros(0, dtype=np.int64)]
    if p > 0.0 and pairs:
        rate = -np.log1p(-p) if p < 1.0 else np.inf
        chunk = int(pairs * p) + 1
        last = -1
        while last < pairs - 1:
            skips = np.minimum(np.floor(rng.standard_exponential(chunk) / rate), pairs)
            hits.append(last + np.cumsum(skips.astype(np.int64) + 1))
            last = int(hits[-1][-1])
    k = np.concatenate(hits)
    k = k[k < pairs]
    tails, r = np.divmod(k, n - 1)
    return _build(n, tails, r + (r >= tails))


def gen_ba(cfg: GeneratorConfig) -> DirectedMultigraph:
    n = cfg.n
    m = cfg.m
    if cfg.target_expected_edges is not None:
        m = max(1, round(cfg.target_expected_edges / n))
    if n <= m:
        raise ValueError(f"ba model needs n > m, got n={n}, m={m}")
    rng = np.random.default_rng(cfg.seed)
    # Repeated-endpoint array: in arrival order, each node's own entry (the
    # "+1") followed by the heads of its out-edges, so a uniform position in
    # it picks node j with probability (in-degree(j) + 1) / length. Seed core:
    # nodes 0..m, each pointing at all earlier nodes.
    ends = [x for i in range(m + 1) for x in (i, *range(i))]
    sizes = len(ends) + (m + 1) * np.arange(n - m - 1)  # length when node m + 1 + j draws
    # Each node's targets are the first m distinct nodes of a stream of
    # uniform positions, which has the law of drawing m without replacement
    # with weights in-degree + 1. The first m + 1 positions of every stream are
    # drawn in bulk; repeats past the spare one draw more.
    draws = rng.integers(0, sizes[:, None], size=(n - m - 1, m + 1)).tolist()
    for i, row in enumerate(draws, start=m + 1):
        picked = dict.fromkeys([ends[x] for x in row])
        while len(picked) < m:
            picked[ends[int(rng.integers(len(ends)))]] = None
        ends.append(i)
        ends.extend(itertools.islice(picked, m))
    out_degs = np.minimum(np.arange(n), m)
    own = np.cumsum(out_degs + 1) - (out_degs + 1)  # positions of the nodes' own entries
    return _build(n, np.repeat(np.arange(n), out_degs), np.delete(np.array(ends, dtype=np.int64), own))


def _build(n: int, tails: np.ndarray, heads: np.ndarray) -> DirectedMultigraph:
    """The simple graph on n nodes with edges tails[i] -> heads[i]."""
    return DirectedMultigraph(n, _coalesce(n, tails, heads, np.ones(len(tails), dtype=np.int64)))


def _powerlaw_mean(tau: float, d_max: int) -> float:
    d = np.arange(1, d_max + 1, dtype=float)
    w = d**-tau
    return float((w * d).sum() / w.sum())


def _tau_for_mean(mean: float, d_max: int) -> float:
    """Solve the truncated power-law exponent giving the requested mean."""
    lo, hi = 1.0001, 64.0
    if not _powerlaw_mean(hi, d_max) <= mean <= _powerlaw_mean(lo, d_max):
        raise ValueError(
            f"mean out-degree {mean:.3f} not reachable with d_max={d_max} "
            f"(supported range [{_powerlaw_mean(hi, d_max):.3f}, {_powerlaw_mean(lo, d_max):.3f}])"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _powerlaw_mean(mid, d_max) > mean:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gen_mwdta(cfg: GeneratorConfig) -> DirectedMultigraph:
    n = cfg.n
    if n < 2:
        raise ValueError("mwdta model needs n >= 2 (min out-degree 1, no self-loops)")
    d_max = min(cfg.d_max, n - 1)
    tau = cfg.tau
    if cfg.target_expected_edges is not None:
        if n == 2:
            raise ValueError("cannot target an edge count with only the seed pair")
        tau = _tau_for_mean((cfg.target_expected_edges - 2) / (n - 2), d_max)
    rng = np.random.default_rng(cfg.seed)
    d = np.arange(1, d_max + 1, dtype=float)
    pmf = d**-tau
    pmf /= pmf.sum()
    out_degs = rng.choice(d_max, size=max(0, n - 2), p=pmf) + 1

    # Seed pair guarantees the first two nodes an out-edge each.
    edges: dict[tuple[int, int], int] = {(0, 1): 1, (1, 0): 1}
    indeg = np.zeros(n)
    indeg[0] = 1
    indeg[1] = 1
    for i in range(2, n):
        k = int(out_degs[i - 2])
        uniform = rng.random(k) < cfg.beta
        targets = np.empty(k, dtype=np.int64)
        n_uni = int(uniform.sum())
        if n_uni:
            targets[uniform] = rng.integers(0, i, size=n_uni)
        if k - n_uni:
            w = indeg[:i] + 1.0
            targets[~uniform] = rng.choice(i, size=k - n_uni, replace=True, p=w / w.sum())
        for t in targets:
            key = (i, int(t))
            edges[key] = edges.get(key, 0) + 1
            indeg[t] += 1
    return DirectedMultigraph.from_edges(n, edges)
