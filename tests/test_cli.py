import csv
import gc
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from linkbomb import (
    ConvergenceError,
    DirectedMultigraph,
    FlowQuery,
    GeneratorConfig,
    PageRankConfig,
    compute_pagerank,
    flow_fraction,
    generate,
    load_edgelist,
    rank_of,
    save_edgelist,
)
import linkbomb.graph
from linkbomb.cli import build_parser, main


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "linkbomb", *map(str, args)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "g.el"
    save_edgelist(generate(GeneratorConfig("random", 25, p=0.12, seed=3)), path)
    return path


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.el", tmp_path / "b.el"
    run_cli("gen", "--model", "ba", "--n", "40", "--m", "3", "--seed", "7", "--out", a)
    run_cli("gen", "--model", "ba", "--n", "40", "--m", "3", "--seed", "7", "--out", b)
    assert a.read_bytes() == b.read_bytes()
    g = load_edgelist(a)
    assert g.node_count == 40


def test_pagerank_output_matches_library(graph_file):
    out = run_cli("pagerank", "--graph", graph_file, "--alpha", "0.85")
    rows = list(csv.DictReader(out.splitlines()))
    g = load_edgelist(graph_file)
    prv = compute_pagerank(g, PageRankConfig(0.85))
    assert len(rows) == g.node_count
    for row in rows[:5]:
        assert float(row["score"]) == pytest.approx(prv.scores[int(row["node"])], abs=1e-15)
    assert any(row["rank"] == "1" for row in rows)


def test_flow_with_oracle(graph_file):
    out = run_cli(
        "flow", "--graph", graph_file, "--alpha", "0.5",
        "--source", "0", "--target", "3", "--exclude", "5,6", "--oracle", "10",
    )
    row = next(csv.DictReader(out.splitlines()))
    g = load_edgelist(graph_file)
    expect = flow_fraction(g, FlowQuery(0, 3, frozenset({5, 6}), 0.5)).fraction
    assert float(row["fraction"]) == pytest.approx(expect, abs=1e-12)
    assert abs(float(row["fraction"]) - float(row["oracle_fraction"])) <= float(
        row["oracle_tail_bound"]
    ) + 1e-10


def test_flow_takes_the_solver_limits(tmp_path):
    # walks from 1 to 0 circle 1 -> 2 -> 1 any number of times
    g = DirectedMultigraph.from_edges(3, [(0, 1), (1, 2), (2, 1), (2, 0)])
    path, out = tmp_path / "loop.el", tmp_path / "flow.csv"
    save_edgelist(g, path)
    args = ["flow", "--graph", str(path), "--alpha", "0.85", "--source", "1", "--target", "0"]
    with pytest.raises(ConvergenceError, match="absorbing solve did not converge in 1 iterations"):
        main(args + ["--max-iter", "1"])
    assert main(args + ["--tol", "1e-3", "--out", str(out)]) == 0
    coarse = flow_fraction(g, FlowQuery(1, 0, alpha=0.85), 1e-3).fraction
    assert coarse != flow_fraction(g, FlowQuery(1, 0, alpha=0.85)).fraction
    assert out.read_text() == f"fraction\n{coarse}\n"


def test_flow_rejects_a_nan_tolerance(tmp_path):
    path = tmp_path / "path.el"
    save_edgelist(DirectedMultigraph.from_edges(3, [(1, 2), (2, 0)]), path)
    args = ["flow", "--graph", str(path), "--alpha", "0.85", "--source", "1", "--target", "0"]
    with pytest.raises(ValueError, match=r"tolerance must be in \(0, inf\), got nan"):
        main(args + ["--tol", "nan", "--max-iter", "50"])


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--attackers", ["attack", "--victim", "0", "--attackers", "1,x", "--pattern", "cycle"]),
        ("--attackers", ["disguise", "--victim", "0", "--attackers", "1,x", "--ell", "2"]),
        ("--farm", ["farm", "--farm", "1,x", "--target", "1"]),
        ("--exclude", ["flow", "--source", "0", "--target", "1", "--exclude", "2,x"]),
    ],
)
def test_bad_node_list_is_a_usage_error(graph_file, tmp_path, capsys, flag, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--graph", str(graph_file), "--alpha", "0.85", "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_writes_nothing_when_the_run_fails(tmp_path):
    cfg, out = tmp_path / "exp.cfg", tmp_path / "run"
    cfg.write_text("model = random\nn = 25\np = 0.1\nn_attackers = 3\nmax_iterations = 1\n")
    with pytest.raises(ConvergenceError):
        main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert not out.exists()
    cfg.write_text("model = random\nn = 25\np = 0.1\nn_attackers = 1\n")
    with pytest.raises(ValueError, match="cycle pattern needs at least 2 attackers"):
        main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


def test_flow_default_cap_matches_library(tmp_path):
    # walks from 1 to 0 circle 1 -> 2 -> 1 ~1000 times; at alpha = 0.999 the
    # absorbing solve needs more than 10000 iterations
    g = DirectedMultigraph.from_edges(3, [(1, 2), (2, 0), (2, 1, 999)])
    path, out = tmp_path / "slow.el", tmp_path / "flow.csv"
    save_edgelist(g, path)
    main(["flow", "--graph", str(path), "--alpha", "0.999", "--source", "1", "--target", "0", "--out", str(out)])
    assert out.read_text() == f"fraction\n{flow_fraction(g, FlowQuery(1, 0, alpha=0.999)).fraction}\n"


def test_attack_row(graph_file):
    out = run_cli(
        "attack", "--graph", graph_file, "--alpha", "0.85",
        "--victim", "0", "--attackers", "1,2,3", "--pattern", "individual",
    )
    row = next(csv.DictReader(out.splitlines()))
    assert float(row["magnitude"]) == pytest.approx(
        float(row["victim_after"]) - float(row["victim_before"]), abs=1e-15
    )
    assert int(row["rank_after"]) <= int(row["rank_before"])


def test_disguise_and_farm(graph_file):
    out = run_cli(
        "disguise", "--graph", graph_file, "--alpha", "0.85",
        "--victim", "0", "--attackers", "1,2", "--ell", "2",
    )
    row = next(csv.DictReader(out.splitlines()))
    assert float(row["magnitude"]) > 0

    out = run_cli(
        "farm", "--graph", graph_file, "--alpha", "0.85", "--farm", "0,1,2,3", "--target", "0"
    )
    row = next(csv.DictReader(out.splitlines()))
    assert float(row["magnitude"]) > 0
    assert int(row["chosen_node"]) != 0


def test_hist_counts(graph_file):
    out = run_cli("hist", "--graph", graph_file, "--alpha", "0.85", "--bins", "6")
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 6
    assert sum(int(r["count"]) for r in rows) == 25


def test_experiment_end_to_end(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "model = random\nn = 25\np = 0.1\nalphas = 0.85\ntrials = 2\n"
        "n_attackers = 3\nmaster_seed = 11\n"
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_cli("experiment", "--config", cfg, "--out", out1)
    run_cli("experiment", "--config", cfg, "--out", out2)
    trials = (out1 / "trials.csv").read_bytes()
    assert trials == (out2 / "trials.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    rows = list(csv.DictReader(trials.decode().splitlines()))
    assert len(rows) == 4  # 2 trials x 2 attacks
    assert {r["attack"] for r in rows} == {"individual", "cycle"}
    for r in rows:
        if r["attack"] == "individual":
            assert r["discrepancy"] == "1.0"
            assert r["discrepancy_undefined"] == "0"


def test_repeat_invocation_byte_identical(graph_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run_cli("pagerank", "--graph", graph_file, "--alpha", "0.85", "--out", path)
    assert a.read_bytes() == b.read_bytes()


def test_pagerank_rank_column_matches_rank_of_with_ties(tmp_path):
    # Nodes 2..9 have no in-edges, so their scores tie exactly at (1 - alpha)/n.
    g = DirectedMultigraph.from_edges(10, [(v, 0) for v in range(2, 7)] + [(9, 1), (8, 1), (1, 0)])
    path, out = tmp_path / "ties.el", tmp_path / "ranks.csv"
    save_edgelist(g, path)
    assert main(["pagerank", "--graph", str(path), "--alpha", "0.85", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    prv = compute_pagerank(g, PageRankConfig(0.85))
    assert [int(r["rank"]) for r in rows] == [rank_of(prv, v) for v in range(10)]
    assert len({prv.scores[v] for v in range(2, 10)}) == 1
    assert {int(r["rank"]) for r in rows[2:]} == {3}


def test_csv_bytes_equal_per_cell_numpy_str(tmp_path):
    # The score and histogram writers hand Python floats to csv, which writes
    # their repr; the text must equal str() of each np.float64 cell.
    g = generate(GeneratorConfig("mwdta", 400, seed=11, target_expected_edges=2000.0))
    path, pr, hist = tmp_path / "g.el", tmp_path / "pr.csv", tmp_path / "hist.csv"
    save_edgelist(g, path)
    main(["pagerank", "--graph", str(path), "--alpha", "0.85", "--out", str(pr)])
    main(["hist", "--graph", str(path), "--alpha", "0.85", "--bins", "30", "--out", str(hist)])
    scores = compute_pagerank(g, PageRankConfig(0.85)).scores
    ranks = 1 + len(scores) - np.searchsorted(np.sort(scores), scores, side="right")
    counts, edges = np.histogram(scores, bins=30, range=(float(scores.min()), float(scores.max())))

    def per_cell(header, rows):
        return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows]).encode()

    assert pr.read_bytes() == per_cell(["node", "score", "rank"], zip(range(g.node_count), scores, ranks))
    assert hist.read_bytes() == per_cell(["bin_lo", "bin_hi", "count"], zip(edges[:-1], edges[1:], counts))


def test_cli_import_leaves_csgraph_unloaded(tmp_path):
    # scipy.sparse.csgraph and scipy.sparse.linalg each add ~10-11 MB of peak
    # RSS at import time; neither is loaded by the import, nor by a solve
    # that deflates a closed set (the mwdta seed pair 0 <-> 1).
    graph = tmp_path / "g.el"
    save_edgelist(generate(GeneratorConfig("mwdta", 200, seed=3)), graph)
    code = (
        "import sys, linkbomb.cli\n"
        "from linkbomb import compute_pagerank, load_edgelist\n"
        "loaded = lambda: [m in sys.modules for m in ('scipy.sparse.csgraph', 'scipy.sparse.linalg')]\n"
        "print(loaded())\n"
        f"linkbomb.cli.main(['pagerank', '--graph', {str(graph)!r}, '--alpha', '0.85', '--out', {str(tmp_path / 'pr.csv')!r}])\n"
        f"g = load_edgelist({str(graph)!r})\n"
        "print(compute_pagerank(g).iterations < 40, g._closed_nodes().tolist(), loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[False, False]", "True [0, 1] [False, False]"]


def test_one_parser_per_process(graph_file, tmp_path):
    assert build_parser() is build_parser()
    out = tmp_path / "hist.csv"
    main(["hist", "--graph", str(graph_file), "--alpha", "0.85", "--bins", "7", "--out", str(out)])
    assert len(out.read_text().splitlines()) == 1 + 7
    main(["hist", "--graph", str(graph_file), "--alpha", "0.85", "--out", str(out)])
    assert len(out.read_text().splitlines()) == 1 + 50


def test_parser_survives_a_usage_error(graph_file, tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["pagerank", "--graph", str(graph_file)])  # --alpha is required
    with pytest.raises(SystemExit):
        main(["attack", "--graph", str(graph_file), "--alpha", "0.85", "--victim", "0", "--attackers", "1",
              "--pattern", "ring"])
    capsys.readouterr()
    out = tmp_path / "pr.csv"
    assert main(["pagerank", "--graph", str(graph_file), "--alpha", "0.85", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 25


def test_cli_call_leaves_no_cyclic_garbage(tmp_path):
    path, out = tmp_path / "g.el", tmp_path / "pr.csv"
    save_edgelist(DirectedMultigraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 0)]), path)
    argv = ["pagerank", "--graph", str(path), "--alpha", "0.85", "--out", str(out)]
    main(argv)
    gc.collect()
    main(argv)
    assert gc.collect() == 0


def _hist_to(graph_file, out):
    main(["hist", "--graph", str(graph_file), "--alpha", "0.85", "--bins", "3", "--out", str(out)])


def test_out_rewrites_a_longer_file_to_exactly_the_new_bytes(graph_file, tmp_path):
    fresh, out = tmp_path / "fresh.csv", tmp_path / "out.csv"
    out.write_bytes(b"x" * 200_000)
    _hist_to(graph_file, fresh)
    _hist_to(graph_file, out)
    assert out.read_bytes() == fresh.read_bytes()
    assert len(fresh.read_text().splitlines()) == 1 + 3


def test_out_keeps_links_inode_and_mode(graph_file, tmp_path):
    """Like open(path, "w"): a symlink is written through, a hard link sees
    the new bytes, and the file keeps its inode and mode."""
    fresh, target, hard, link = (tmp_path / name for name in ("fresh.csv", "t.csv", "hard.csv", "link.csv"))
    target.write_bytes(b"x" * 200_000)
    target.chmod(0o600)
    os.link(target, hard)
    link.symlink_to(target)
    inode = target.stat().st_ino
    _hist_to(graph_file, fresh)
    _hist_to(graph_file, link)
    assert link.is_symlink()
    assert target.read_bytes() == hard.read_bytes() == fresh.read_bytes()
    assert target.stat().st_ino == inode
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


def test_out_to_dev_null(graph_file):
    _hist_to(graph_file, os.devnull)


def test_no_write_path_truncates_to_zero(graph_file, tmp_path, monkeypatch):
    flags = []
    real_open = os.open
    monkeypatch.setattr(linkbomb.graph.os, "open", lambda path, fl, *a: flags.append(fl) or real_open(path, fl, *a))
    fresh, out = tmp_path / "fresh.csv", tmp_path / "out.csv"
    out.write_bytes(b"x" * 200_000)
    argv = ["pagerank", "--graph", str(graph_file), "--alpha", "0.85", "--out"]
    main([*argv, str(out)])
    main([*argv, str(out)])
    main([*argv, str(fresh)])
    assert len(flags) == 3 and not any(fl & os.O_TRUNC for fl in flags)
    assert out.read_bytes() == fresh.read_bytes()
