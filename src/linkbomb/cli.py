"""Command-line front end.

Subcommands: gen, pagerank, flow, attack, disguise, farm, experiment,
hist. All numeric output is CSV with a header row, written by
`graph._write_table`; files written with identical flags and seeds are
byte-identical.
"""
from __future__ import annotations

import argparse
import functools
from pathlib import Path

import numpy as np

from .attacks import PATTERNS, attack_magnitude, build_pattern
from .disguise import optimal_disguised_joint, optimal_link_farm
from .experiment import (
    pagerank_histogram,
    read_experiment_config,
    run_experiment,
    write_summary_csv,
    write_trials_csv,
)
from .flow import FlowQuery, flow_fraction, flow_fraction_bruteforce
from .generators import MODELS, GeneratorConfig, generate
from .graph import _write_table, load_edgelist, save_edgelist
from .pagerank import MAX_ITERATIONS, TOLERANCE, PageRankConfig, compute_pagerank


def _node_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _cmd_gen(args):
    cfg = GeneratorConfig(
        model=args.model,
        n=args.n,
        p=args.p,
        m=args.m,
        beta=args.beta,
        tau=args.tau,
        d_max=args.d_max,
        seed=args.seed,
        target_expected_edges=args.target_edges,
    )
    save_edgelist(generate(cfg), args.out)


def _cmd_experiment(args):
    cfg = read_experiment_config(args.config)
    records = run_experiment(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trials_csv(records, out / "trials.csv")
    write_summary_csv(cfg, records, out / "summary.csv")


# The table commands take the --graph file and the PageRankConfig that `main`
# builds, and return (header, rows) for `main` to write.


def _cmd_pagerank(g, cfg, args):
    prv = compute_pagerank(g, cfg)
    # Competition rank, as rank_of: 1 + the number of strictly higher scores.
    ranks = 1 + len(prv.scores) - np.searchsorted(np.sort(prv.scores), prv.scores, side="right")
    return ["node", "score", "rank"], zip(range(g.node_count), prv.scores.tolist(), ranks.tolist())


def _cmd_flow(g, cfg, args):
    q = FlowQuery(source=args.source, target=args.target, excluded=args.exclude, alpha=args.alpha)
    exact = flow_fraction(g, q, args.tol, args.max_iter)
    if args.oracle is None:
        return ["fraction"], [(exact.fraction,)]
    oracle = flow_fraction_bruteforce(g, q, args.oracle)
    header = ["fraction", "oracle_fraction", "oracle_tail_bound"]
    return header, [(exact.fraction, oracle.fraction, oracle.tail_bound)]


def _cmd_attack(g, cfg, args):
    res = attack_magnitude(g, build_pattern(args.pattern, args.attackers, args.victim), cfg)
    header = ["victim_before", "victim_after", "magnitude", "rank_before", "rank_after"]
    return header, [(res.victim_before, res.victim_after, res.magnitude, res.rank_before, res.rank_after)]


_PLAN_COLUMNS = ["chosen_node", "magnitude", "rank_before", "rank_after"]


def _cmd_disguise(g, cfg, args):
    plan = optimal_disguised_joint(g, args.attackers, args.victim, args.ell, args.alpha, cfg)
    res = plan.result
    return _PLAN_COLUMNS, [(plan.chosen_node, res.magnitude, res.rank_before, res.rank_after)]


def _cmd_farm(g, cfg, args):
    spec = optimal_link_farm(g, args.farm, args.target, args.alpha, cfg)
    res = attack_magnitude(g, spec, cfg)
    chosen = next(iter(spec.assignment[args.target]))
    return _PLAN_COLUMNS, [(chosen, res.magnitude, res.rank_before, res.rank_after)]


def _cmd_hist(g, cfg, args):
    counts, edges = pagerank_histogram(compute_pagerank(g, cfg), args.bins)
    return ["bin_lo", "bin_hi", "count"], zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())


def _add_solver_opts(p):
    p.add_argument("--alpha", type=float, required=True, help="navigation probability")
    p.add_argument("--tol", type=float, default=TOLERANCE, help="solver tolerance (max-norm)")
    p.add_argument("--max-iter", type=int, default=MAX_ITERATIONS, dest="max_iter")
    p.add_argument("--out", default=None, help="output file (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    `main` call (parse_args leaves it unchanged): a fresh one per call
    costs about a millisecond and leaves cyclic garbage behind."""
    parser = argparse.ArgumentParser(prog="linkbomb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random graph and write an edge list")
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=0.005)
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--beta", type=float, default=0.3)
    p.add_argument("--tau", type=float, default=2.5)
    p.add_argument("--d-max", type=int, default=50, dest="d_max")
    p.add_argument("--target-edges", type=float, default=None, dest="target_edges")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("pagerank", help="solve scores and emit node,score,rank")
    p.add_argument("--graph", required=True)
    _add_solver_opts(p)
    p.set_defaults(func=_cmd_pagerank)

    p = sub.add_parser("flow", help="flow fraction between two nodes")
    p.add_argument("--graph", required=True)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--exclude", type=_node_list, default="", help="comma-separated intermediates to forbid")
    p.add_argument("--oracle", type=int, default=None, metavar="MAXLEN",
                   help="also run the walk-enumeration oracle up to MAXLEN")
    _add_solver_opts(p)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("attack", help="apply a canned attack pattern and measure it")
    p.add_argument("--graph", required=True)
    p.add_argument("--victim", type=int, required=True)
    p.add_argument("--attackers", type=_node_list, required=True, help="comma-separated attacker ids")
    p.add_argument("--pattern", required=True, choices=PATTERNS)
    _add_solver_opts(p)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("disguise", help="optimal joint disguised attack")
    p.add_argument("--graph", required=True)
    p.add_argument("--victim", type=int, required=True)
    p.add_argument("--attackers", type=_node_list, required=True)
    p.add_argument("--ell", type=int, required=True, help="minimum attacker-victim distance")
    _add_solver_opts(p)
    p.set_defaults(func=_cmd_disguise)

    p = sub.add_parser("farm", help="optimal link-farm configuration")
    p.add_argument("--graph", required=True)
    p.add_argument("--farm", type=_node_list, required=True, help="comma-separated farm node ids")
    p.add_argument("--target", type=int, required=True)
    _add_solver_opts(p)
    p.set_defaults(func=_cmd_farm)

    p = sub.add_parser("experiment", help="run a trial sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory for trials.csv/summary.csv")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("hist", help="score histogram as bin_lo,bin_hi,count")
    p.add_argument("--graph", required=True)
    p.add_argument("--bins", type=int, default=50)
    _add_solver_opts(p)
    p.set_defaults(func=_cmd_hist)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "alpha" not in args:  # gen and experiment write their own files
        args.func(args)
    else:
        cfg = PageRankConfig(args.alpha, args.tol, args.max_iter)
        _write_table(args.out, *args.func(load_edgelist(args.graph), cfg, args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
