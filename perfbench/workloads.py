"""The three benchmark workloads and the checks on every op's output.

Each workload makes its inputs from the seed in `setup`, then hands out
ops by index. An op runs one library or CLI call in-process; its check
runs outside the timed region and raises `CheckError` on a bad output.
Op lists are built in blocks of fixed composition, so any prefix of
whole blocks has the same mix of op kinds and sizes whatever the seed.
"""
from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

from linkbomb import cli, experiment, generators, graph

ALPHA = 0.85


class CheckError(ValueError):
    """An op's output failed its correctness check."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]  # raises CheckError; returns the text digested


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _rows(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(text.splitlines()))
    _require(bool(rows) and rows[0] == header, f"expected header {header}, got {rows[:1]}")
    _require(all(len(r) == len(header) for r in rows[1:]), "ragged CSV row")
    return rows[1:]


def _finite(x: str) -> float:
    value = float(x)
    _require(math.isfinite(value), f"non-finite value {x!r}")
    return value


def _rank(x: str, n: int) -> int:
    r = int(x)
    _require(1 <= r <= n, f"rank {r} outside [1, {n}]")
    return r


# ---- output checks -----------------------------------------------------------


def check_trial_records(records, n_alphas: int, patterns) -> None:
    """Individual attack is the best pattern, and it never lowers the victim's rank."""
    _require(len(records) == n_alphas, f"expected {n_alphas} records, got {len(records)}")
    for r in records:
        _require(set(r.outcomes) == set(patterns), f"outcomes {sorted(r.outcomes)} != {sorted(patterns)}")
        for pattern, oc in r.outcomes.items():
            if pattern == "individual":
                _require(oc.rank_after <= r.rank_before,
                         f"individual attack lowered rank {r.rank_before} -> {oc.rank_after}")
            elif oc.discrepancy is not None:
                _require(oc.discrepancy >= 1 - 1e-9,
                         f"{pattern} discrepancy {oc.discrepancy} < 1 at alpha {r.alpha}")


def check_pagerank_csv(text: str, dangling: np.ndarray, alpha: float) -> None:
    """n rows in node order, ranks in [1, n], and the dangling-mass identity."""
    n = len(dangling)
    rows = _rows(text, ["node", "score", "rank"])
    _require(len(rows) == n, f"expected {n} rows, got {len(rows)}")
    _require([int(r[0]) for r in rows] == list(range(n)), "node column is not 0..n-1")
    scores = np.array([_finite(r[1]) for r in rows])
    for r in rows:
        _rank(r[2], n)
    rhs = 1.0 - alpha / (1.0 - alpha) * float(scores[dangling].sum())
    gap = abs(float(scores.sum()) - rhs)
    _require(gap <= 1e-9, f"dangling-mass identity off by {gap:.3e}")


def check_hist_csv(text: str, n: int, bins: int) -> None:
    rows = _rows(text, ["bin_lo", "bin_hi", "count"])
    _require(len(rows) == bins, f"expected {bins} bins, got {len(rows)}")
    total = sum(int(r[2]) for r in rows)
    _require(total == n, f"histogram counts sum to {total}, expected {n}")


def check_attack_csv(text: str, n: int) -> None:
    (row,) = _rows(text, ["victim_before", "victim_after", "magnitude", "rank_before", "rank_after"])
    before, after, magnitude = (_finite(x) for x in row[:3])
    _require(magnitude == after - before, f"magnitude {magnitude} != {after} - {before}")
    _rank(row[3], n)
    _rank(row[4], n)


def check_flow_csv(text: str) -> None:
    (row,) = _rows(text, ["fraction"])
    frac = _finite(row[0])
    _require(0.0 <= frac <= 1.0, f"flow fraction {frac} outside [0, 1]")


def check_choice_csv(text: str, n: int, allowed) -> None:
    """Disguise and farm rows: the chosen node is allowed, values finite, ranks in range."""
    (row,) = _rows(text, ["chosen_node", "magnitude", "rank_before", "rank_after"])
    chosen = int(row[0])
    _require(chosen in allowed, f"chosen node {chosen} is not an allowed choice")
    _finite(row[1])
    _rank(row[2], n)
    _rank(row[3], n)


def check_line_count(path: Path, expected: int) -> None:
    got = len(path.read_text().splitlines())
    _require(got == expected, f"{path.name}: {got} lines, expected {expected}")


# ---- edge lists read without the library, for the checks ------------------------------


class EdgeList:
    """Distinct edges of a canonical edge-list file, parsed independently of linkbomb."""

    def __init__(self, path: Path):
        self.path = path
        lines = path.read_text().splitlines()
        _require(lines[0].startswith("# nodes "), f"{path}: missing '# nodes N' header")
        self.n = int(lines[0].split()[2])
        pairs = np.array([line.split()[:2] for line in lines[1:]], dtype=np.int64).reshape(-1, 2)
        self.nnz = len(pairs)
        ones = np.ones(self.nnz, dtype=np.int8)
        # reverse[v, u] != 0 iff the edge u -> v exists
        self.reverse = sp.csr_matrix((ones, (pairs[:, 1], pairs[:, 0])), shape=(self.n, self.n))
        self.dangling = np.bincount(pairs[:, 0], minlength=self.n) == 0

    def shell(self, victim: int, attackers, depth: int) -> set[int]:
        """Nodes at distance exactly `depth` to `victim` once the attackers'
        out-edges are removed (so no path enters or passes an attacker)."""
        blocked = np.zeros(self.n, dtype=bool)
        blocked[list(attackers)] = True
        blocked[victim] = True
        frontier = np.array([victim])
        for _ in range(depth):
            reached = np.unique(self.reverse[frontier].indices)
            frontier = reached[~blocked[reached]]
            blocked[frontier] = True
        return set(frontier.tolist()) if depth else {victim}


def _gen_argv(n: int, seed: int, out: Path) -> list[str]:
    return ["gen", "--model", "mwdta", "--n", str(n), "--target-edges", str(5 * n),
            "--seed", str(seed), "--out", str(out)]


def _nodes(xs) -> str:
    return ",".join(str(int(x)) for x in xs)


class _CliWorkload:
    """Shared by the workloads whose ops are `linkbomb` CLI calls on generated files."""

    n: int
    GRAPHS = 1  # edge-list files made in setup, each from its own seed

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.out_path = workdir / "out.csv"
        self.graphs: list[EdgeList] = []
        self.ops: list[Op] = []

    def setup(self) -> dict:
        self.graphs = []
        for j in range(self.GRAPHS):
            path = self.workdir / f"graph{j}.el"
            cli.main(_gen_argv(self.n, self.seed * self.GRAPHS + j, path))
            self.graphs.append(EdgeList(path))
        self.ops = self.make_ops(np.random.default_rng(self.seed))
        return {"n": self.n, "nnz": [g.nnz for g in self.graphs]}

    def op(self, i: int) -> Op:
        return self.ops[i % len(self.ops)]

    def final_op(self):
        return None

    def reset(self) -> None:
        pass

    def _cli_op(self, graph: EdgeList, kind: str, args: list[str], check: Callable[[str], None]) -> Op:
        argv = [kind, "--graph", str(graph.path), "--alpha", str(ALPHA), "--out", str(self.out_path), *args]

        def run():
            cli.main(argv)
            return self.out_path.read_text()

        def checked(text):
            check(text)
            return f"{kind} {graph.path.name} {' '.join(args)}\n{text}"

        return Op(kind, run, checked)

    def _farm_op(self, graph: EdgeList, rng) -> Op:
        farm = rng.choice(graph.n, size=int(rng.integers(3, 7)), replace=False)
        target = int(farm[0])
        allowed = set(range(graph.n)) - {target}
        return self._cli_op(graph, "farm", ["--farm", _nodes(farm), "--target", str(target)],
                            lambda t: check_choice_csv(t, graph.n, allowed))


class CliWorkload(_CliWorkload):
    """One large graph, every op re-parses it: parse, graph edits, solves, rank column."""

    name = "cli"
    n = 5000
    # Sorted by cost, a block ends hist < attack ~ flow < pagerank < farm; with one
    # farm in 20 ops, p90 falls inside the pagerank ops, which pay the rank column.
    BLOCK = ("attack",) * 8 + ("pagerank",) * 4 + ("flow",) * 4 + ("hist",) * 3 + ("farm",)
    ATTACKS = [(p, k) for p in ("individual", "star", "tree", "cycle", "complete")
               for k in (1, 5, 20) if not (p == "cycle" and k == 1)]
    BINS = 50

    def make_ops(self, rng) -> list[Op]:
        (g,) = self.graphs
        n = g.n
        attacks = [self.ATTACKS[j] for j in rng.permutation(len(self.ATTACKS))]
        ops = []
        for _ in range(10):
            for kind in rng.permutation(self.BLOCK):
                if kind == "attack":
                    pattern, k = attacks[len(ops) % len(attacks)]
                    nodes = rng.choice(n, size=k + 1, replace=False)
                    ops.append(self._cli_op(g, "attack", [
                        "--victim", str(nodes[0]), "--attackers", _nodes(nodes[1:]), "--pattern", pattern,
                    ], lambda t: check_attack_csv(t, n)))
                elif kind == "pagerank":
                    ops.append(self._cli_op(g, "pagerank", [],
                                            lambda t: check_pagerank_csv(t, g.dangling, ALPHA)))
                elif kind == "hist":
                    ops.append(self._cli_op(g, "hist", ["--bins", str(self.BINS)],
                                            lambda t: check_hist_csv(t, n, self.BINS)))
                elif kind == "flow":
                    nodes = rng.choice(n, size=4, replace=False)
                    ops.append(self._cli_op(g, "flow", [
                        "--source", str(nodes[0]), "--target", str(nodes[1]), "--exclude", _nodes(nodes[2:]),
                    ], check_flow_csv))
                else:
                    ops.append(self._farm_op(g, rng))
        return ops


class DisguiseWorkload(_CliWorkload):
    """Small graphs where each disguise query costs two full solves per shell candidate."""

    name = "disguise"
    n = 1000
    # Solve cost follows each graph's edge count, which varies by about 10% between
    # seeds; blocks rotate over three graphs so that a run averages over them.
    GRAPHS = 3
    POOL = 1000  # candidate queries drawn per graph, a fixed amount of set-up work
    # One disguise op per block from each shell-size bin. Bins are absolute, not
    # quantiles of the pool, so op costs do not depend on the seed's graph.
    # Capped at 24 candidates so that a run holds at least 100 ops.
    SHELL_BINS = ((1, 1), (2, 2), (3, 3), (4, 5), (6, 7), (8, 9), (10, 12), (13, 15), (16, 19), (20, 24))
    BLOCKS = 15
    FARMS = 2  # farm ops per block

    def make_ops(self, rng) -> list[Op]:
        picks = []  # per graph: each bin's members and which of them each block takes
        for g in self.graphs:
            bins = [[] for _ in self.SHELL_BINS]
            for i in range(self.POOL):
                ell, k = (2, 3)[i % 2], (1, 3)[(i // 2) % 2]
                nodes = rng.choice(g.n, size=k + 1, replace=False)
                victim, attackers = int(nodes[0]), [int(a) for a in nodes[1:]]
                shell = g.shell(victim, attackers, ell - 1)
                for members, (lo, hi) in zip(bins, self.SHELL_BINS):
                    if lo <= len(shell) <= hi:
                        members.append((victim, attackers, ell, shell))
            _require(all(bins), f"no disguise query with shell size in some bin of {self.SHELL_BINS}")
            picks.append([(m, rng.choice(len(m), size=self.BLOCKS, replace=len(m) < self.BLOCKS))
                          for m in bins])
        ops = []
        for b in range(self.BLOCKS):
            g = self.graphs[b % len(self.graphs)]
            block = [self._disguise_op(g, *members[p[b]]) for members, p in picks[b % len(self.graphs)]]
            block += [self._farm_op(g, rng) for _ in range(self.FARMS)]
            ops.extend(block[j] for j in rng.permutation(len(block)))
        return ops

    def _disguise_op(self, g: EdgeList, victim, attackers, ell, shell) -> Op:
        return self._cli_op(g, "disguise", [
            "--victim", str(victim), "--attackers", _nodes(attackers), "--ell", str(ell),
        ], lambda t: check_choice_csv(t, g.n, shell))


class SweepWorkload:
    """Seeded trials across models and alphas: generators and graph rebuilds sit in the ops."""

    name = "sweep"
    n = 800
    MODELS = ("random", "ba", "mwdta")
    ALPHAS = (0.5, 0.85, 0.95)
    PATTERNS = ("individual", "star", "cycle", "complete")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.configs = {}
        self.records: dict[str, list] = {}

    def setup(self) -> dict:
        nnz = {}
        for model in self.MODELS:
            path = self.workdir / f"sweep-{model}.cfg"
            path.write_text(
                f"model = {model}\nn = {self.n}\ntarget_edges = {5 * self.n}\n"
                f"alphas = {','.join(map(str, self.ALPHAS))}\nattacks = {','.join(self.PATTERNS)}\n"
                f"n_attackers = 10\nattacker_selection = quantile:0.5:1.0\nmaster_seed = {self.seed}\n"
            )
            cfg = experiment.read_experiment_config(path)
            self.configs[model] = cfg
            # One sample graph per model, written like the CLI does, to report its size.
            sample = generators.generate(dataclasses.replace(cfg.generator, seed=self.seed))
            graph.save_edgelist(sample, self.workdir / f"sample-{model}.el")
            nnz[model] = EdgeList(self.workdir / f"sample-{model}.el").nnz
        self.reset()
        return {"n": self.n, "nnz": nnz}

    def reset(self) -> None:
        self.records = {m: [] for m in self.MODELS}

    def op(self, i: int) -> Op:
        model = self.MODELS[i % len(self.MODELS)]

        def run():
            records = experiment.run_trial(self.configs[model], i)
            self.records[model].extend(records)
            return records

        def check(records):
            check_trial_records(records, len(self.ALPHAS), self.PATTERNS)
            return "\n".join(_record_text(r) for r in records)

        return Op("trial", run, check)

    def final_op(self) -> Op:
        trials = self.workdir / "trials.csv"

        def run():
            everything = [r for m in self.MODELS for r in self.records[m]]
            experiment.write_trials_csv(everything, trials)
            for model in self.MODELS:
                experiment.write_summary_csv(self.configs[model], self.records[model],
                                             self.workdir / f"summary-{model}.csv")
            return everything

        def check(everything):
            check_line_count(trials, 1 + sum(len(r.outcomes) for r in everything))
            for model in self.MODELS:
                cells = len(self.ALPHAS) * len(self.PATTERNS) if self.records[model] else 0
                check_line_count(self.workdir / f"summary-{model}.csv", 1 + cells)
            return ""

        return Op("write", run, check)


def _record_text(r) -> str:
    head = f"{r.trial} {r.alpha} {r.model} {r.seed} {r.victim} {r.attackers} {r.p0!r} {r.rank_before}"
    tail = " ".join(f"{p}:{oc.magnitude!r}:{oc.rank_after}" for p, oc in r.outcomes.items())
    return f"{head} {tail}"


WORKLOADS = {w.name: w for w in (SweepWorkload, CliWorkload, DisguiseWorkload)}
