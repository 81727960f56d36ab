"""Directed multigraph with parallel edges and no self-loops.

Nodes are dense integer ids 0..n-1. The graph is stored as immutable,
row-sorted CSR arrays: the out-edges of u are
heads[indptr[u]:indptr[u + 1]] in increasing head order, and mult holds
one multiplicity per distinct (u, v) pair, which turns sums over
parallel edges into weighted sums. Every edit returns a new graph, so
instances can be shared freely between concurrent workers.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping, Sized
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "MAX_NODES",
    "DirectedMultigraph",
    "load_edgelist",
    "loads_edgelist",
    "save_edgelist",
    "dumps_edgelist",
]


def _integers(what: str, values) -> list[int]:
    """`values` as Python ints: the one integer rule for node ids,
    multiplicities and counts that come from outside. Each value must be an
    int or a numpy integer; a bool, float, string or anything else fails
    with a ValueError naming `what` rather than being truncated. The type
    test runs once per distinct type, not once per value, and a batch of
    plain ints is returned without a copy per value."""
    values = list(values)
    types = set(map(type, values))
    for t in types:
        if t is bool or not issubclass(t, (int, np.integer)):
            raise ValueError(f"{what} must be an integer, got {next(x for x in values if type(x) is t)!r}")
    return values if types <= {int} else list(map(int, values))


def _node_ids(n: int, values) -> list[int]:
    """`values` as Python ints, each an integer (`_integers`) in [0, n)."""
    ids = _integers("node id", values)
    for v in ids:
        if not 0 <= v < n:
            raise ValueError(f"node id {v} out of range [0, {n})")
    return ids


def _edge_columns(n: int, pairs, mults) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 (tail, head, multiplicity) columns from Python (u, v) pairs.

    Node ids and multiplicities follow `_integers`. Range, self-loop and
    multiplicity checks are left to _coalesce.
    """
    bad = [p for p in pairs if not isinstance(p, tuple) or len(p) != 2]
    if bad:
        raise ValueError(f"edge key must be a (u, v) pair, got {bad[0]!r}")
    ids = _integers("node id", itertools.chain.from_iterable(pairs))
    values = ids + _integers("edge multiplicity", mults)
    try:
        cols = np.array(values, dtype=np.int64)
    except OverflowError:
        i = next(i for i, x in enumerate(values) if not -(2**63) <= x < 2**63)
        raise ValueError(f"node id out of range [0, {n})" if i < len(ids) else f"edge multiplicity {values[i]} out of int64 range") from None
    return cols[0:len(ids):2], cols[1:len(ids):2], cols[len(ids):]


_MAX_TOTAL = 2**63 - 1  # largest total multiplicity, so degrees and merged edges fit in int64


def _coalesce(n: int, tails, heads, mult, lines=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate edge columns and merge them into row-sorted CSR arrays.

    Every edge is checked at once for node range, self-loops and
    multiplicity >= 1; the first offending edge is reported, prefixed with
    its input line number when `lines` gives one per edge. The total
    multiplicity must fit in int64, which bounds every merged multiplicity
    and degree too; past it, the edge where the running total crosses the
    limit is reported. Repeated (u, v) pairs are summed. Returns (indptr,
    heads, mult), all new arrays.

    Edges already in strictly increasing (u, v) order, as in every file
    dumps_edgelist writes, skip the sort: their heads and multiplicities
    are copied as they are.
    """
    bad = (tails < 0) | (tails >= n) | (heads < 0) | (heads >= n) | (tails == heads) | (mult < 1)
    if bad.any():
        i = int(np.argmax(bad))
        u, v, m = int(tails[i]), int(heads[i]), int(mult[i])
        if not 0 <= u < n or not 0 <= v < n:
            msg = f"node id {u if not 0 <= u < n else v} out of range [0, {n})"
        elif u == v:
            msg = f"self-loop ({u}, {v}) is not allowed"
        else:
            msg = f"edge multiplicity must be >= 1, got {m}"
        raise ValueError(msg if lines is None else f"line {lines[i]}: {msg}")
    # Only a total that max * count puts past the limit needs summing. Each
    # multiplicity is below 2**63, so a uint64 running total is exact up to
    # the first edge that takes it past the limit.
    if len(mult) and int(mult.max()) * len(mult) > _MAX_TOTAL:
        over = np.cumsum(mult, dtype=np.uint64) > np.uint64(_MAX_TOTAL)
        if over.any():
            i = int(np.argmax(over))
            msg = f"total edge multiplicity exceeds {_MAX_TOTAL}"
            raise ValueError(msg if lines is None else f"line {lines[i]}: {msg}")
    keys = tails * n + heads
    if np.all(keys[1:] > keys[:-1]):
        heads, summed = heads.astype(np.int64), mult.astype(np.int64)
    else:
        keys, inverse = np.unique(keys, return_inverse=True)
        summed = np.zeros(len(keys), dtype=np.int64)
        np.add.at(summed, inverse, mult)
        tails, heads = keys // n, keys % n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    return indptr, heads, summed


def _entries(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of the entries of every CSR row in `rows`, row by row in stored order."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return offsets + np.arange(len(offsets))


def _step(indptr: np.ndarray, targets: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Targets of every CSR row in `frontier`, with repeats."""
    return targets[_entries(indptr, frontier)]


def _unique(nodes: np.ndarray, stamp: np.ndarray) -> np.ndarray:
    """`nodes` with repeats dropped, in O(len(nodes)); `stamp` is scratch
    space indexed by node id. Of each repeated id one position wins the
    scatter, whichever it is, and only that one reads its own stamp back."""
    at = np.arange(len(nodes))
    stamp[nodes] = at
    return nodes[stamp[nodes] == at]


def _peel(indptr: np.ndarray, targets: np.ndarray, alive: np.ndarray, rounds: int) -> np.ndarray | None:
    """Clear, round by round, every node of the mask `alive` with no CSR
    entry from an alive row, in O(n + E), or return None when that takes
    more than `rounds` rounds (n rounds always suffice). The nodes left are
    those on or behind a cycle of alive nodes; `alive` must be closed under
    the rows' targets."""
    stamp = np.empty(len(alive), dtype=np.intp)
    tails = np.repeat(np.arange(len(alive)), np.diff(indptr))
    indeg = np.bincount(targets[alive[tails]], minlength=len(alive))
    free = np.flatnonzero(alive & (indeg == 0))
    while len(free):
        if not rounds:
            return None
        rounds -= 1
        alive[free] = False
        nxt = _step(indptr, targets, free)
        np.subtract.at(indeg, nxt, 1)
        free = _unique(nxt[indeg[nxt] == 0], stamp)
    return alive


# Most rounds, search and peel levels together, that `_closed_nodes` runs.
# Model graphs need few: 30 for mwdta at n = 5000 and 36 at n = 2e4, 8 for
# random and 4 for ba at n = 1e5 (E = 5n). A round costs about 20 us on a
# 2-vCPU x86 VM however small its frontier, so without a budget a 20000-node
# path took 220-280 ms to search against a 12 ms solve. Past the budget the
# graph is iterated whole.
_CLOSED_ROUNDS = 256


def _search(m: sp.csr_matrix, sources, rounds: float = math.inf) -> tuple[np.ndarray, int] | None:
    """Breadth-first hop counts from the nodes `sources` along the rows of
    the CSR matrix `m` (inf when unreachable), and the rounds of the
    budget `rounds` left; None when the search takes more rounds than that.

    One numpy round per level, each frontier deduplicated by `_unique`; the
    round that finds the last frontier empty counts too. O(n + E) work.
    """
    # scipy's int32 index arrays would be cast on every gather below
    indptr, targets = m.indptr.astype(np.intp), m.indices.astype(np.intp)
    dist = np.full(m.shape[0], np.inf)
    stamp = np.empty(m.shape[0], dtype=np.intp)
    frontier = np.asarray(sources, dtype=np.intp)
    dist[frontier] = 0
    d = 0
    while len(frontier):
        if d == rounds:
            return None
        d += 1
        nxt = _step(indptr, targets, frontier)
        nxt = nxt[dist[nxt] == np.inf]
        dist[nxt] = d
        frontier = _unique(nxt, stamp)
    return dist, rounds - d


class DirectedMultigraph:
    """Directed multigraph over nodes 0..n-1 (no self-loops)."""

    __slots__ = ("_n", "_indptr", "_heads", "_mult", "_cache")

    def __init__(self, node_count: int, _csr=None):
        """Empty graph on node_count nodes; `_csr` (internal) passes
        validated (indptr, heads, mult) arrays to adopt instead."""
        [self._n] = _integers("node count", [node_count])
        if self._n < 1:
            raise ValueError(f"node count must be >= 1, got {self._n}")
        if _csr is None:
            _csr = (np.zeros(self._n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        for a in _csr:
            a.flags.writeable = False
        self._indptr, self._heads, self._mult = _csr
        self._cache: dict[str, object] = {}

    # ---- construction ----------------------------------------------------

    @classmethod
    def from_edges(cls, node_count: int, edges) -> "DirectedMultigraph":
        """Build a graph in one pass.

        `edges` is either a mapping {(u, v): multiplicity} or an iterable
        of (u, v) / (u, v, multiplicity) tuples. Repeated pairs accumulate.
        """
        n = cls(node_count).node_count  # validates the count
        if isinstance(edges, Mapping):
            pairs, mults = list(edges.keys()), list(edges.values())
        else:
            edges = list(edges)
            for e in edges:
                if not isinstance(e, Sized) or len(e) not in (2, 3):
                    raise ValueError(f"edge tuple must have 2 or 3 entries, got {e!r}")
            pairs = [(e[0], e[1]) for e in edges]
            mults = [e[2] if len(e) == 3 else 1 for e in edges]
        return cls(n, _coalesce(n, *_edge_columns(n, pairs, mults)))

    def _splice(self, drop, edges: Mapping | None = None) -> "DirectedMultigraph":
        """Drop every out-edge of the nodes in `drop`, then add `edges`
        ({(u, v): multiplicity}, accumulating onto kept edges), in one rebuild."""
        keep = np.ones(self._n, dtype=bool)
        keep[_node_ids(self._n, drop)] = False
        tails = self._tails()
        kept = keep[tails]
        edges = edges or {}
        new_u, new_v, new_m = _edge_columns(self._n, list(edges.keys()), list(edges.values()))
        return DirectedMultigraph(
            self._n,
            _coalesce(
                self._n,
                np.concatenate((tails[kept], new_u)),
                np.concatenate((self._heads[kept], new_v)),
                np.concatenate((self._mult[kept], new_m)),
            ),
        )

    # ---- basic queries ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        """Total multiplicity over all edges."""
        return int(self._mult.sum())

    def multiplicity(self, u: int, v: int) -> int:
        u, v = _node_ids(self._n, (u, v))
        row = slice(self._indptr[u], self._indptr[u + 1])
        return int(self._mult[row][self._heads[row] == v].sum())

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (tail, head, multiplicity) triples in (tail, head) order."""
        return zip(self._tails().tolist(), self._heads.tolist(), self._mult.tolist())

    def out_degree(self, u: int) -> int:
        [u] = _node_ids(self._n, [u])
        return int(self._out_degrees()[u])

    def out_degrees(self) -> np.ndarray:
        return self._out_degrees().copy()

    def in_degrees(self) -> np.ndarray:
        deg = np.zeros(self._n, dtype=np.int64)
        np.add.at(deg, self._heads, self._mult)
        return deg

    def out_edges(self, u: int) -> list[tuple[int, int]]:
        """(head, multiplicity) pairs for edges leaving u."""
        [u] = _node_ids(self._n, [u])
        row = slice(self._indptr[u], self._indptr[u + 1])
        return list(zip(self._heads[row].tolist(), self._mult[row].tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedMultigraph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._heads, other._heads)
            and np.array_equal(self._mult, other._mult)
        )

    def __repr__(self) -> str:
        return f"DirectedMultigraph(n={self._n}, edges={self.edge_count})"

    # ---- edits (return new graphs) ----------------------------------------

    def add_edge(self, u: int, v: int, count: int = 1) -> "DirectedMultigraph":
        return self._splice((), {(u, v): count})

    def remove_out_edges(self, v: int) -> "DirectedMultigraph":
        """Drop every edge leaving v; edges into v are untouched."""
        return self._splice((v,))

    # ---- distances --------------------------------------------------------

    def distances_to(self, v: int) -> list[float]:
        """Hop counts from every node to v (inf when v is unreachable): a
        breadth-first search from v over the transition matrix's rows,
        which are the in-edges."""
        [v] = _node_ids(self._n, [v])
        return _search(self.transition_matrix(), [v])[0].tolist()

    # ---- derived arrays and cached operators -------------------------------

    def _tails(self) -> np.ndarray:
        """Tail of every stored edge, aligned with heads and mult."""
        return np.repeat(np.arange(self._n, dtype=np.int64), np.diff(self._indptr))

    def _out_degrees(self) -> np.ndarray:
        """Out-degrees, counting multiplicity: exact int64 row sums, read
        off one running total at the row bounds."""
        deg = self._cache.get("deg")
        if deg is None:
            total = np.concatenate(([0], np.cumsum(self._mult)))
            deg = self._cache["deg"] = total[self._indptr[1:]] - total[self._indptr[:-1]]
        return deg

    def forward_matrix(self) -> sp.csr_matrix:
        """Sparse operator R with R[u, w] = multiplicity(u, w) / outdeg(u).

        Rows of dangling nodes are zero; every other row sums to 1.
        """
        m = self._cache.get("fwd")
        if m is None:
            data = self._mult / self._out_degrees()[self._tails()]
            m = sp.csr_matrix((data, self._heads, self._indptr), shape=(self._n, self._n))
            self._cache["fwd"] = m
        return m

    def transition_matrix(self) -> sp.csr_matrix:
        """Transpose of forward_matrix: (M @ p)[i] sums p_j * mult(j,i)/outdeg(j)."""
        m = self._cache.get("trans")
        if m is None:
            m = self.forward_matrix().T.tocsr()
            self._cache["trans"] = m
        return m

    def _closed_nodes(self) -> np.ndarray | None:
        """Ids, ascending, of the nodes that reach no dangling node and
        survive the peel of source nodes (`_peel`), or None when finding
        them takes more than _CLOSED_ROUNDS rounds.

        The set is closed under out-edges and holds every closed strong
        component with an edge in it. `_search` from the dangling nodes
        over the transition matrix's rows (the in-edges) finds the nodes
        that can lose flow; the peel then drops the acyclic nodes feeding
        the rest, with the rounds the search left. O(n + E) work, in one
        numpy round per search level and per peel level.
        """
        if "closed" not in self._cache:
            found = _search(self.transition_matrix(), np.flatnonzero(self._out_degrees() == 0), _CLOSED_ROUNDS)
            alive = None if found is None else found[0] == np.inf
            if alive is not None and alive.any():
                alive = _peel(self._indptr, self._heads, alive, found[1])
            self._cache["closed"] = None if alive is None else np.flatnonzero(alive)
        return self._cache["closed"]


# ---- edge-list text format ---------------------------------------------------
#
# One edge per line: "u v [multiplicity]", whitespace separated, '#' starts a
# comment. The canonical form written by dumps_edgelist leads with a
# "# nodes N" directive (so isolated trailing nodes survive a round trip) and
# orders edges by (u, v).

MAX_NODES = 10_000_000  # largest node count a "# nodes N" directive or a node id may give
_MAX_DIGITS = 18  # every field of at most 18 digits fits in int64
_PLAIN = b"0123456789 \t\n"  # the bytes a plain text may hold outside comments
_PRINTABLE = bytes([*b"\t\n", *range(32, 128)])  # the bytes it may hold in comments


def dumps_edgelist(g: DirectedMultigraph) -> str:
    lines = [f"# nodes {g.node_count}"]
    lines.extend(f"{u} {v}" if m == 1 else f"{u} {v} {m}" for u, v, m in g.edges())
    return "\n".join(lines) + "\n"


def loads_edgelist(text: str) -> DirectedMultigraph:
    """Parse the edge-list format; the first malformed line fails with its number.

    A repeated "# nodes N" directive must agree with the first, and the
    node count, declared or one past the largest id, is at most MAX_NODES.
    Plain text (every byte outside comments an ASCII digit, space, tab or
    newline) is parsed on its bytes by `_parse_plain`. Any other text, and
    plain text with a row of other than 2 or 3 fields, a field of more than
    18 digits or a faulty directive, is parsed line by line by
    `_parse_lines`.
    """
    cols = _parse_plain(text)
    if cols is None:
        cols = _parse_lines(text)
    declared, tails, heads, mult, lines = cols
    if declared is None and not len(tails):
        raise ValueError("empty edge list with no '# nodes N' directive")
    if declared is not None:
        n = declared[0]
    else:  # an id past the limit fails _coalesce's range check with its line
        n = min(max(int(np.maximum(tails, heads).max()) + 1, 1), MAX_NODES)
    return DirectedMultigraph(n, _coalesce(n, tails, heads, mult, lines))


def _directive(lineno: int, raw: str, word: str, declared: tuple[int, int] | None) -> tuple[int, int]:
    """Check the "# nodes N" directive on line `lineno`, N spelled `word`,
    against the one before it, (count, line) or None; return (N, lineno)."""
    try:
        n = int(word)
    except ValueError:
        raise ValueError(f"line {lineno}: node count must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"line {lineno}: node count must be >= 1, got {n}")
    if n > MAX_NODES:
        raise ValueError(f"line {lineno}: node count must be <= {MAX_NODES}, got {n}")
    if declared is not None and n != declared[0]:
        raise ValueError(f"line {lineno}: '# nodes {n}' conflicts with '# nodes {declared[0]}' on line {declared[1]}")
    return n, lineno


def _parse_plain(text: str):
    """(declared, tails, heads, multiplicities, line numbers) of a plain
    text, or None when it needs the per-line path; it never raises.

    Comments are found with bytes.find and blanked; their directives go
    through `_directive`, and a faulty one sends the text to the per-line
    path, which reports the first fault. Each byte-set check (no control
    byte inside a comment; only digits, space, tab and newline outside
    them) is one bytes.translate that deletes the allowed bytes and must
    leave nothing. Field starts and ends are the edges of the digit runs;
    once every run is known to be at most 18 digits long, one
    np.fromstring reads all the values from the comment-blanked bytes.
    One np.searchsorted of the newline positions into the field starts
    counts the fields of every line.
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    newlines = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == 10)
    declared = None
    pos = raw.find(b"#")
    if pos >= 0:
        blanked = bytearray(raw)
        while pos >= 0:
            end = raw.find(b"\n", pos)
            end = len(raw) if end < 0 else end
            if raw[pos:end].translate(None, _PRINTABLE):
                return None
            blanked[pos:end] = b" " * (end - pos)
            start = raw.rfind(b"\n", 0, pos) + 1
            words = text[pos + 1:end].split()
            if not text[start:pos].split() and len(words) == 2 and words[0] == "nodes":
                try:
                    declared = _directive(int(np.searchsorted(newlines, pos)) + 1, text[start:end], words[1], declared)
                except ValueError:
                    return None
            pos = raw.find(b"#", end)
        raw = bytes(blanked)
        del blanked
    if raw.translate(None, _PLAIN):
        return None
    # every byte is now a digit or whitespace; pad the digit mask so that
    # each run has a rising and a falling edge
    is_digit = np.zeros(len(raw) + 2, dtype=bool)
    np.greater_equal(np.frombuffer(raw, dtype=np.uint8), ord("0"), out=is_digit[1:-1])
    starts = np.flatnonzero(is_digit[1:] > is_digit[:-1])
    if len(starts) and (np.flatnonzero(is_digit[:-1] > is_digit[1:]) - starts).max() > _MAX_DIGITS:
        return None
    del is_digit
    # np.fromstring reads whitespace alone as one 0, hence the guard
    fields = np.fromstring(raw, dtype=np.int64, sep=" ") if len(starts) else starts
    # line k + 1 holds fields[bounds[k]:bounds[k + 1]]
    bounds = np.empty(len(newlines) + 2, dtype=np.intp)
    bounds[0], bounds[-1] = 0, len(starts)
    bounds[1:-1] = np.searchsorted(starts, newlines)
    count = bounds[1:] - bounds[:-1]
    rows = np.flatnonzero(count)
    count, first = count[rows], bounds[rows]
    if np.any((count < 2) | (count > 3)):
        return None
    mult = np.ones(len(first), dtype=np.int64)
    triple = count == 3
    mult[triple] = fields[first[triple] + 2]
    return declared, fields[first], fields[first + 1], mult, rows + 1


def _parse_lines(text: str):
    """`_parse_plain`'s columns for any text, one line at a time.

    Fields go through int(), so forms such as "+3" and "1_0" parse. Fails
    on the first line with a bad field count, a non-integer field or a
    faulty directive; after that, on the first row with a field outside
    int64.
    """
    declared = None
    rows: list[list[int]] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body, hashed, comment = raw.partition("#")
        parts = body.split()
        if not parts:
            words = comment.split()
            if hashed and len(words) == 2 and words[0] == "nodes":
                declared = _directive(lineno, raw, words[1], declared)
            continue
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v [multiplicity]', got {raw!r}")
        try:
            rows.append([int(x) for x in parts] + [1] * (3 - len(parts)))
        except ValueError:
            raise ValueError(f"line {lineno}: fields must be integers, got {raw!r}") from None
        linenos.append(lineno)
    try:
        cols = np.array(rows, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        i = next(i for i, row in enumerate(rows) if not all(-(2**63) <= x < 2**63 for x in row))
        raise ValueError(f"line {linenos[i]}: field out of range in {rows[i]}") from None
    return declared, cols[:, 0], cols[:, 1], cols[:, 2], np.array(linenos, dtype=np.int64)


def save_edgelist(g: DirectedMultigraph, path) -> None:
    Path(path).write_text(dumps_edgelist(g))


def load_edgelist(path) -> DirectedMultigraph:
    return loads_edgelist(Path(path).read_text())
