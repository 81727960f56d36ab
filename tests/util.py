"""Shared corpus builders and independent oracles for the test suite."""
from __future__ import annotations

import itertools
import math
from typing import Iterator, Mapping

import numpy as np
import scipy.sparse as sp

from linkbomb import (
    AttackSpec,
    ConvergenceError,
    DirectedMultigraph,
    GeneratorConfig,
    PageRankConfig,
    PageRankVector,
    apply_attack,
    attack_magnitude,
    forward_values,
    generate,
)
from linkbomb.disguise import DisguisedAttackPlan, _candidates_for, _staged
from linkbomb.graph import _coalesce


def small_random_graph(rng, n_min=3, n_max=8, extra_edges=3, multiplicity=2) -> DirectedMultigraph:
    """Sparse random multigraph for enumeration-friendly oracles."""
    n = int(rng.integers(n_min, n_max + 1))
    n_edges = int(rng.integers(1, n + extra_edges + 1))
    edges: dict[tuple[int, int], int] = {}
    for _ in range(n_edges):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n - 1))
        if v >= u:
            v += 1
        m = int(rng.integers(1, multiplicity + 1))
        edges[(u, v)] = edges.get((u, v), 0) + m
    return DirectedMultigraph.from_edges(n, edges)


def mixed_model_graph(seed: int, n: int) -> DirectedMultigraph:
    """Cycle through the three generator models deterministically."""
    model = ("random", "ba", "mwdta")[seed % 3]
    if model == "random":
        cfg = GeneratorConfig("random", n, p=min(1.0, 3.0 / n), seed=seed)
    elif model == "ba":
        cfg = GeneratorConfig("ba", n, m=min(3, n - 1), seed=seed)
    else:
        cfg = GeneratorConfig("mwdta", n, seed=seed)
    return generate(cfg)


def enumerate_paths(g: DirectedMultigraph, u: int, v: int, max_len: int):
    """All simple-walk node sequences u -> v up to max_len edges (oracle use)."""
    paths = []

    def extend(seq):
        cur = seq[-1]
        if len(seq) - 1 >= max_len:
            return
        for (w, _m) in g.out_edges(cur):
            if w == v:
                paths.append(seq + [w])
            else:
                extend(seq + [w])

    if u == v:
        return [[u]]
    extend([u])
    return paths


def bfs_distance_oracle(g: DirectedMultigraph, u: int, v: int) -> float:
    """Shortest u->v distance by exhaustive walk extension (independent of BFS)."""
    if u == v:
        return 0
    best = math.inf
    frontier = {u}
    for depth in range(1, g.node_count + 1):
        nxt = set()
        for x in frontier:
            for (w, _m) in g.out_edges(x):
                if w == v:
                    best = min(best, depth)
                nxt.add(w)
        frontier = nxt
    return best


def admissible_shortest_len(g: DirectedMultigraph, source: int, target: int, excluded) -> float:
    """Shortest admissible walk length for a flow query (target terminal-only)."""
    excluded = set(excluded)
    best = math.inf
    frontier = {source}
    seen = set()
    for depth in range(1, g.node_count + 2):
        nxt = set()
        for x in frontier:
            for (w, _m) in g.out_edges(x):
                if w == target:
                    return depth
                if w not in excluded and w not in seen:
                    nxt.add(w)
                    seen.add(w)
        frontier = nxt
        if not frontier:
            break
    return best


def attacker_edges_only_differ(before: DirectedMultigraph, after: DirectedMultigraph, attackers) -> bool:
    attackers = set(attackers)
    b = {(u, v): m for (u, v, m) in before.edges()}
    a = {(u, v): m for (u, v, m) in after.edges()}
    for key in set(b) | set(a):
        if b.get(key) != a.get(key) and key[0] not in attackers:
            return False
    return True


def all_edges_to_victim(spec) -> bool:
    """Flow-equivalent to the individual attack: every attacker has at least
    one out-edge and every out-edge points at the victim (any multiplicity)."""
    for a in spec.attackers:
        targets = spec.assignment.get(a, {})
        if not targets:
            return False
        if set(targets) != {spec.victim}:
            return False
    return True


def multisets(items, max_size):
    """All multisets of size 1..max_size over items, as sorted tuples."""
    out = []
    for size in range(1, max_size + 1):
        out.extend(itertools.combinations_with_replacement(items, size))
    return out


# ---- reference implementation of the graph core --------------------------------


class ReferenceMultigraph:
    """The dict-based multigraph the CSR core replaced, kept as a test oracle.

    Edges live in a {(u, v): multiplicity} dict with Python degree and
    adjacency lists; every edit copies the dict.
    """

    __slots__ = ("_n", "_edges", "_out_deg", "_in_deg", "_cache")

    def __init__(self, node_count: int):
        if not isinstance(node_count, (int, np.integer)) or isinstance(node_count, bool):
            raise ValueError(f"node count must be a positive integer, got {node_count!r}")
        if node_count < 1:
            raise ValueError(f"node count must be >= 1, got {node_count}")
        self._n = int(node_count)
        self._edges: dict[tuple[int, int], int] = {}
        self._out_deg: list[int] = [0] * self._n
        self._in_deg: list[int] = [0] * self._n
        self._cache: dict[str, object] = {}

    # ---- construction ----------------------------------------------------

    @classmethod
    def from_edges(cls, node_count: int, edges) -> "ReferenceMultigraph":
        """Build a graph in one pass.

        `edges` is either a mapping {(u, v): multiplicity} or an iterable
        of (u, v) / (u, v, multiplicity) tuples. Repeated pairs accumulate.
        """
        g = cls(node_count)
        if isinstance(edges, Mapping):
            for (u, v), mult in edges.items():
                g._add(u, v, mult)
        else:
            for e in edges:
                if len(e) == 2:
                    g._add(e[0], e[1], 1)
                elif len(e) == 3:
                    g._add(e[0], e[1], e[2])
                else:
                    raise ValueError(f"edge tuple must have 2 or 3 entries, got {e!r}")
        return g

    def _add(self, u: int, v: int, mult: int) -> None:
        u = self._check_node(u)
        v = self._check_node(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        m = int(mult)
        if m < 1:
            raise ValueError(f"edge multiplicity must be >= 1, got {mult!r}")
        self._edges[(u, v)] = self._edges.get((u, v), 0) + m
        self._out_deg[u] += m
        self._in_deg[v] += m

    def _check_node(self, v) -> int:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"node id must be an integer, got {v!r}")
        v = int(v)
        if not 0 <= v < self._n:
            raise ValueError(f"node id {v} out of range [0, {self._n})")
        return v

    def _copy(self) -> "ReferenceMultigraph":
        g = ReferenceMultigraph(self._n)
        g._edges = dict(self._edges)
        g._out_deg = list(self._out_deg)
        g._in_deg = list(self._in_deg)
        return g

    # ---- basic queries ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        """Total multiplicity over all edges."""
        return sum(self._edges.values())

    def multiplicity(self, u: int, v: int) -> int:
        return self._edges.get((self._check_node(u), self._check_node(v)), 0)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (tail, head, multiplicity) triples."""
        for (u, v), m in self._edges.items():
            yield u, v, m

    def out_degree(self, u: int) -> int:
        return self._out_deg[self._check_node(u)]

    def in_degree(self, v: int) -> int:
        return self._in_deg[self._check_node(v)]

    def out_degrees(self) -> np.ndarray:
        return np.asarray(self._out_deg, dtype=np.int64)

    def in_degrees(self) -> np.ndarray:
        return np.asarray(self._in_deg, dtype=np.int64)

    def out_edges(self, u: int) -> list[tuple[int, int]]:
        """(head, multiplicity) pairs for edges leaving u."""
        return self._adjacency()[0][self._check_node(u)]

    def in_edges(self, v: int) -> list[tuple[int, int]]:
        """(tail, multiplicity) pairs for edges entering v."""
        return self._adjacency()[1][self._check_node(v)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReferenceMultigraph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __repr__(self) -> str:
        return f"ReferenceMultigraph(n={self._n}, edges={self.edge_count})"

    # ---- edits (return new graphs) ----------------------------------------

    def add_edge(self, u: int, v: int, count: int = 1) -> "ReferenceMultigraph":
        g = self._copy()
        g._add(u, v, count)
        return g

    def remove_out_edges(self, v: int) -> "ReferenceMultigraph":
        """Drop every edge leaving v; edges into v are untouched."""
        v = self._check_node(v)
        g = self._copy()
        for (u, w) in [key for key in g._edges if key[0] == v]:
            m = g._edges.pop((u, w))
            g._out_deg[u] -= m
            g._in_deg[w] -= m
        return g

    # ---- distances ----------------------------------------------------------

    def distances_to(self, v: int) -> list[float]:
        """BFS distances from every node to v, via reverse edges."""
        return self._bfs(v, self._adjacency()[1])

    def _bfs(self, start: int, adj) -> list[float]:
        start = self._check_node(start)
        dist: list[float] = [math.inf] * self._n
        dist[start] = 0
        frontier = [start]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for x in frontier:
                for (w, _m) in adj[x]:
                    if dist[w] == math.inf:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return dist

    # ---- cached operators ---------------------------------------------------

    def _adjacency(self):
        adj = self._cache.get("adj")
        if adj is None:
            out_adj: list[list[tuple[int, int]]] = [[] for _ in range(self._n)]
            in_adj: list[list[tuple[int, int]]] = [[] for _ in range(self._n)]
            for (u, v), m in self._edges.items():
                out_adj[u].append((v, m))
                in_adj[v].append((u, m))
            adj = (out_adj, in_adj)
            self._cache["adj"] = adj
        return adj

    def forward_matrix(self) -> sp.csr_matrix:
        """Sparse operator R with R[u, w] = multiplicity(u, w) / outdeg(u).

        Rows of dangling nodes are zero; every other row sums to 1.
        """
        m = self._cache.get("fwd")
        if m is None:
            rows, cols, data = [], [], []
            for (u, v), mult in self._edges.items():
                rows.append(u)
                cols.append(v)
                data.append(mult / self._out_deg[u])
            m = sp.csr_matrix(
                (data, (rows, cols)), shape=(self._n, self._n), dtype=np.float64
            )
            self._cache["fwd"] = m
        return m

    def transition_matrix(self) -> sp.csr_matrix:
        """Transpose of forward_matrix: (M @ p)[i] sums p_j * mult(j,i)/outdeg(j)."""
        m = self._cache.get("trans")
        if m is None:
            m = self.forward_matrix().T.tocsr()
            self._cache["trans"] = m
        return m


def reference_gen_er(cfg: GeneratorConfig) -> DirectedMultigraph:
    """Row-by-row G(n, p) sampler, one rng.random(n) per tail: the oracle for
    generators.gen_er (same law, a different random stream)."""
    n = cfg.n
    p = cfg.p
    if cfg.target_expected_edges is not None:
        if n < 2:
            raise ValueError("cannot target an edge count on a single node")
        p = min(1.0, cfg.target_expected_edges / (n * (n - 1)))
    rng = np.random.default_rng(cfg.seed)
    edges: dict[tuple[int, int], int] = {}
    for u in range(n):
        hits = np.flatnonzero(rng.random(n) < p)
        for v in hits:
            if v != u:
                edges[(u, int(v))] = 1
    return DirectedMultigraph.from_edges(n, edges)


def reference_gen_ba(cfg: GeneratorConfig) -> DirectedMultigraph:
    """Node-by-node preferential attachment through
    rng.choice(replace=False, p ∝ in-degree + 1): the oracle for
    generators.gen_ba (same law, a different random stream)."""
    n = cfg.n
    m = cfg.m
    if cfg.target_expected_edges is not None:
        m = max(1, round(cfg.target_expected_edges / n))
    if n <= m:
        raise ValueError(f"ba model needs n > m, got n={n}, m={m}")
    rng = np.random.default_rng(cfg.seed)
    edges: dict[tuple[int, int], int] = {}
    indeg = np.zeros(n)
    for i in range(1, m + 1):
        for j in range(i):
            edges[(i, j)] = 1
            indeg[j] += 1
    for i in range(m + 1, n):
        w = indeg[:i] + 1.0
        targets = rng.choice(i, size=m, replace=False, p=w / w.sum())
        for t in targets:
            edges[(i, int(t))] = 1
            indeg[t] += 1
    return DirectedMultigraph.from_edges(n, edges)


def reference_apply_attack(g: ReferenceMultigraph, spec) -> ReferenceMultigraph:
    """Replace each attacker's out-edges with the spec assignment, one dict copy at a time."""
    for a in spec.attackers:
        g = g.remove_out_edges(a)
    for a in spec.attackers:
        for head, mult in spec.assignment.get(a, {}).items():
            g = g.add_edge(a, head, mult)
    return g


def reference_dumps_edgelist(g: ReferenceMultigraph) -> str:
    lines = [f"# nodes {g.node_count}"]
    for (u, v) in sorted(g._edges):
        m = g._edges[(u, v)]
        lines.append(f"{u} {v}" if m == 1 else f"{u} {v} {m}")
    return "\n".join(lines) + "\n"


def reference_coalesce(n: int, tails, heads, mult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort-and-sum merge of valid edge columns into (indptr, heads, mult):
    the oracle for `graph._coalesce`, whose sorted input skips the sort."""
    keys, inverse = np.unique(tails * n + heads, return_inverse=True)
    summed = np.zeros(len(keys), dtype=np.int64)
    np.add.at(summed, inverse, mult)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n, summed


def reference_loads_edgelist(text: str) -> DirectedMultigraph:
    """Line-by-line edge-list parser (int() per field), the oracle for
    graph.loads_edgelist: same graph or the same ValueError message."""
    declared: int | None = None
    declared_at = 0
    rows: list[list[int]] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body, hashed, comment = raw.partition("#")
        parts = body.split()
        if not parts:
            fields = comment.split()
            if hashed and len(fields) == 2 and fields[0] == "nodes":
                try:
                    n = int(fields[1])
                except ValueError:
                    raise ValueError(f"line {lineno}: node count must be an integer, got {raw!r}") from None
                if n < 1:
                    raise ValueError(f"line {lineno}: node count must be >= 1, got {n}")
                if declared is not None and n != declared:
                    raise ValueError(
                        f"line {lineno}: '# nodes {n}' conflicts with '# nodes {declared}' on line {declared_at}"
                    )
                declared, declared_at = n, lineno
            continue
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v [multiplicity]', got {raw!r}")
        try:
            row = [int(x) for x in parts]
        except ValueError:
            raise ValueError(f"line {lineno}: fields must be integers, got {raw!r}") from None
        if len(row) == 2:
            row.append(1)
        rows.append(row)
        linenos.append(lineno)
    if declared is None and not rows:
        raise ValueError("empty edge list with no '# nodes N' directive")
    try:
        cols = np.array(rows, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        i = next(i for i, row in enumerate(rows) if any(not -(2**63) <= x < 2**63 for x in row))
        raise ValueError(f"line {linenos[i]}: field out of range in {rows[i]}") from None
    n = declared if declared is not None else max(int(cols[:, :2].max()) + 1, 1)
    return DirectedMultigraph(n, _coalesce(n, cols[:, 0], cols[:, 1], cols[:, 2], linenos))


def reference_compute_pagerank(g: DirectedMultigraph, cfg: PageRankConfig = PageRankConfig()) -> PageRankVector:
    """The lone power iteration, one graph per call: the oracle for the
    block-diagonal `compute_pageranks`."""
    n = g.node_count
    alpha = cfg.alpha
    m = g.transition_matrix()
    jump = (1.0 - alpha) / n
    p = np.full(n, 1.0 / n)
    resid = np.inf
    for it in range(1, cfg.max_iterations + 1):
        nxt = alpha * (m @ p) + jump
        resid = float(np.max(np.abs(nxt - p)))
        if resid <= cfg.tolerance:
            return PageRankVector(
                scores=p,
                alpha=alpha,
                iterations=it,
                residual=resid,
                converged=True,
                flagged_alpha_one=alpha >= 1.0,
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
        )
    raise ConvergenceError(
        f"pagerank did not converge in {cfg.max_iterations} iterations "
        f"(last residual {resid:.3e}, tolerance {cfg.tolerance:.3e})",
        residual=resid,
    )


def reachability(g) -> np.ndarray:
    """reach[u, v]: some walk of one or more edges leads from u to v (Warshall's closure)."""
    reach = g.forward_matrix().toarray() > 0
    for k in range(g.node_count):
        reach |= np.outer(reach[:, k], reach[k])
    return reach


def reference_closed_nodes(g: DirectedMultigraph) -> list[int]:
    """The nodes that reach no dangling node and sit on, or are reachable
    from, a cycle of such nodes, read off the reachability closure: the
    oracle for `DirectedMultigraph._closed_nodes`."""
    reach = reachability(g)
    dangling = g.out_degrees() == 0
    safe = ~dangling & ~reach[:, dangling].any(axis=1)
    on_cycle = safe & reach.diagonal()
    return [u for u in range(g.node_count) if on_cycle[u] or (safe[u] and reach[on_cycle, u].any())]


def reference_absorbing_values(g: DirectedMultigraph, pinned, zero_nodes, alpha, tolerance, max_iterations):
    """The absorbing solve's own Jacobi loop, pinned and zeroed entries
    overwritten after every step: the oracle for `flow._absorbing_values`."""
    n = g.node_count
    r = g.forward_matrix()
    pinned = np.asarray(pinned, dtype=np.intp)
    zeros = np.setdiff1d(np.fromiter(zero_nodes, dtype=np.intp), pinned)
    h = np.zeros(n)
    h[pinned] = 1.0
    resid = np.inf
    for it in range(1, max_iterations + 1):
        nxt = alpha * (r @ h)
        nxt[pinned] = 1.0
        if len(zeros):
            nxt[zeros] = 0.0
        resid = float(np.max(np.abs(nxt - h)))
        if resid <= tolerance:
            return h, resid, it
        h = nxt
    raise ConvergenceError(
        f"absorbing solve did not converge in {max_iterations} iterations "
        f"(last residual {resid:.3e})",
        residual=resid,
    )


def reference_optimal_disguised_joint(g, attackers, victim, ell, alpha, cfg=None) -> DisguisedAttackPlan:
    """The full-solve joint disguise scan: one `attack_magnitude` (baseline
    and attacked solve) per shell candidate in ascending id, strict `>`.
    A given `cfg` also sets the winner's forward-value solve limits."""
    attackers = tuple(int(a) for a in attackers)
    limits = () if cfg is None else (cfg.tolerance, cfg.max_iterations)
    cfg = cfg or PageRankConfig(alpha=alpha)
    cands = _candidates_for(_staged(g, attackers), attackers, victim, ell)
    best_w, best_spec, best = None, None, None
    for w in cands:
        spec = AttackSpec(attackers=attackers, victim=victim, assignment={a: {w: 1} for a in attackers})
        res = attack_magnitude(g, spec, cfg)
        if best is None or res.magnitude > best.magnitude:
            best_w, best_spec, best = w, spec, res
    fwd = forward_values(apply_attack(g, best_spec), victim, alpha, *limits)
    return DisguisedAttackPlan(
        attackers=attackers,
        victim=victim,
        ell=ell,
        chosen_node=best_w,
        per_attacker_value={a: float(fwd.values[a]) for a in attackers},
        magnitude=best.magnitude,
        result=best,
    )


def mirrored_disguise_graph(half: DirectedMultigraph, k: int, rng) -> tuple[DirectedMultigraph, int, tuple[int, ...]]:
    """Two copies of `half` joined through a shared victim and k attackers.

    Copy one keeps ids 0..n-1 and node u of copy two is 2n-1-u; the victim
    is 2n and the attackers follow it. Every edge touching the victim or an
    attacker is added to both copies, so swapping the copies is an
    automorphism fixing the victim and each attacker: mirror candidates tie
    exactly. Copy two's ids run backwards, so solvers sum the twins' terms
    in different orders and their computed scores may differ in the last
    bits. Returns (graph, victim, attackers).
    """
    n = half.node_count
    victim = 2 * n
    attackers = tuple(range(2 * n + 1, 2 * n + 1 + k))

    def twin(u):
        return u if u >= 2 * n else 2 * n - 1 - u

    edges: dict[tuple[int, int], int] = {}

    def add(u, v, m=1):
        edges[(u, v)] = edges[(twin(u), twin(v))] = m

    for u, v, m in half.edges():
        add(u, v, m)
    picks = [int(x) for x in rng.integers(0, n, size=3 + 2 * k)]
    for x in picks[:2]:
        add(x, victim)
    add(victim, picks[2])
    for a, z, t in zip(attackers, picks[3::2], picks[4::2]):
        add(z, a)  # flow into the attackers
        add(a, t)  # stripped by the attack
    return DirectedMultigraph.from_edges(2 * n + 1 + k, edges), victim, attackers
