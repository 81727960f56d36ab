"""Tests of the benchmark itself: percentiles, span self time, tracing and output checks.

Run from the repository root with `python -m pytest perfbench/tests`.
"""
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from linkbomb import cli, experiment  # noqa: E402
from linkbomb.disguise import _staged, candidate_set  # noqa: E402
from linkbomb.graph import load_edgelist  # noqa: E402
from workloads import CheckError  # noqa: E402

# ---- percentile rule ----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert run.percentile(samples, 50) == 50
    assert run.percentile(samples, 90) == 90
    assert run.percentile([7.0], 90) == 7.0
    assert run.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_p90_needs_a_hundred_samples_for_ten_beyond():
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(99, 90) == 9
    assert run.samples_beyond(1000, 90) == 100
    assert run.samples_beyond(1, 50) == 0


# ---- self time from nested spans ------------------------------------------------------------


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_direct_children_only():
    s = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 7.0, 0),
    ]
    assert spans.self_times(s) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    s = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 5.0, 0),
        _span("b", 4.0, 6.0, 0),
        _span("c", 9.0, 12.0, 0),  # sticks out of its parent
    ]
    assert spans.self_times(s)[0] == pytest.approx(10.0 - 5.0 - 1.0)


# ---- tracing the library from outside ---------------------------------------------------------


@pytest.fixture(scope="module")
def small_graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("pb") / "g.el"
    cli.main(["gen", "--model", "mwdta", "--n", "80", "--target-edges", "400", "--seed", "3",
              "--out", str(path)])
    return path


def test_tracer_wraps_every_namespace_and_reports_absent_targets(small_graph, tmp_path):
    tracer = spans.Tracer()
    missing = spans.Target("graph.no_such", "graph", "no_such_function")
    tracer.install(spans.TARGETS + (missing,))
    try:
        assert "graph.no_such_function" in tracer.absent
        tracer.begin_op(0)
        cli.main(["attack", "--graph", str(small_graph), "--alpha", "0.85", "--victim", "1",
                  "--attackers", "2,3", "--pattern", "cycle", "--out", str(tmp_path / "a.csv")])
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert experiment.run_trial.__name__ == "run_trial" and not hasattr(experiment.run_trial, "__wrapped__")
    totals = tracer.layer_totals()
    assert totals["cli.main.calls"] == 1
    assert totals["attacks.attack_magnitude.calls"] == 1  # reached through cli's own binding
    assert totals["pagerank.compute_pagerank.calls"] == 2
    assert totals["pagerank.compute_pagerank.repeats"] == 0
    assert totals["graph.transition_matrix.builds"] == 2
    assert "graph.no_such.calls" not in tracer.provided
    by_name = {s[0]: s for s in tracer.spans}
    main_index = tracer.spans.index(by_name["cli.main"])
    assert by_name["attacks.attack_magnitude"][3] == main_index
    assert all(s[4] == 0 for s in tracer.spans)


def test_repeat_frac_counts_solves_repeated_within_an_op(small_graph):
    from linkbomb import PageRankConfig, pagerank

    g = load_edgelist(small_graph)
    tracer = spans.Tracer()
    tracer.install(spans.TARGETS)
    try:
        tracer.begin_op(0)
        for _ in range(3):
            pagerank.compute_pagerank(g, PageRankConfig(0.85))
        tracer.end_op()
        tracer.begin_op(1)
        pagerank.compute_pagerank(g, PageRankConfig(0.85))
        tracer.end_op()
    finally:
        tracer.uninstall()
    metrics = spans.per_op_metrics(tracer.layer_totals(), [
        "pagerank.compute_pagerank.repeat_frac", "pagerank.compute_pagerank.calls"], ops=2)
    assert metrics["pagerank.compute_pagerank.repeat_frac"] == pytest.approx(2 / 4)
    assert metrics["pagerank.compute_pagerank.calls"] == pytest.approx(2.0)


# ---- every output check accepts a real output and rejects a corrupted one ----------------------------


def _cli_text(small_graph, tmp_path, *argv):
    out = tmp_path / "out.csv"
    cli.main([argv[0], "--graph", str(small_graph), "--alpha", "0.85", "--out", str(out), *argv[1:]])
    return out.read_text()


def _replace_line(text, index, new):
    lines = text.splitlines()
    lines[index] = new
    return "\n".join(lines) + "\n"


def test_pagerank_check(small_graph, tmp_path):
    edges = workloads.EdgeList(small_graph)
    text = _cli_text(small_graph, tmp_path, "pagerank")
    workloads.check_pagerank_csv(text, edges.dangling, 0.85)
    lines = text.splitlines()
    node, score, _rank = lines[1].split(",")
    bad = [
        "\n".join(lines[:-1]) + "\n",  # a row missing
        _replace_line(text, 1, f"{node},{score},{edges.n + 1}"),  # rank out of range
        _replace_line(text, 1, f"{node},{float(score) * 2},1"),  # breaks the mass identity
    ]
    for corrupted in bad:
        with pytest.raises(CheckError):
            workloads.check_pagerank_csv(corrupted, edges.dangling, 0.85)


def test_hist_check(small_graph, tmp_path):
    text = _cli_text(small_graph, tmp_path, "hist", "--bins", "10")
    workloads.check_hist_csv(text, 80, 10)
    lo, hi, count = text.splitlines()[1].split(",")
    with pytest.raises(CheckError):
        workloads.check_hist_csv(_replace_line(text, 1, f"{lo},{hi},{int(count) + 1}"), 80, 10)


def test_attack_check(small_graph, tmp_path):
    text = _cli_text(small_graph, tmp_path, "attack", "--victim", "1", "--attackers", "2,3",
                     "--pattern", "star")
    workloads.check_attack_csv(text, 80)
    before, after, mag, rb, ra = text.splitlines()[1].split(",")
    for row in (f"{before},{after},{float(mag) * 1.5},{rb},{ra}", f"{before},{after},{mag},0,{ra}",
                f"{before},nan,{mag},{rb},{ra}"):
        with pytest.raises(CheckError):
            workloads.check_attack_csv(_replace_line(text, 1, row), 80)


def test_flow_check(small_graph, tmp_path):
    text = _cli_text(small_graph, tmp_path, "flow", "--source", "4", "--target", "0", "--exclude", "5")
    workloads.check_flow_csv(text)
    with pytest.raises(CheckError):
        workloads.check_flow_csv("fraction\n1.5\n")
    with pytest.raises(CheckError):
        workloads.check_flow_csv("frac\n0.5\n")


def test_disguise_check_and_shell_oracle(small_graph, tmp_path):
    edges = workloads.EdgeList(small_graph)
    g = load_edgelist(small_graph)
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(40):
        victim, *attackers = (int(x) for x in rng.choice(80, size=3, replace=False))
        for ell in (1, 2, 3):
            shell = edges.shell(victim, attackers, ell - 1)
            assert shell == candidate_set(_staged(g, attackers), victim, ell) - set(attackers)
        shell = edges.shell(victim, attackers, 1)
        if not shell or checked:
            continue
        text = _cli_text(small_graph, tmp_path, "disguise", "--victim", str(victim),
                         "--attackers", ",".join(map(str, attackers)), "--ell", "2")
        workloads.check_choice_csv(text, 80, shell)
        chosen, mag, rb, ra = text.splitlines()[1].split(",")
        outside = min(set(range(80)) - shell)
        with pytest.raises(CheckError):
            workloads.check_choice_csv(_replace_line(text, 1, f"{outside},{mag},{rb},{ra}"), 80, shell)
        with pytest.raises(CheckError):
            workloads.check_choice_csv(_replace_line(text, 1, f"{chosen},inf,{rb},{ra}"), 80, shell)
        checked += 1
    assert checked == 1


def test_trial_records_check():
    cfg = experiment.parse_experiment_config(
        "model = ba\nn = 60\nm = 2\nalphas = 0.5,0.85\nattacks = individual,star,cycle\nn_attackers = 3\n"
    )
    records = experiment.run_trial(cfg, 0)
    patterns = ("individual", "star", "cycle")
    workloads.check_trial_records(records, 2, patterns)
    with pytest.raises(CheckError):
        workloads.check_trial_records(records[:1], 2, patterns)
    records[0].outcomes["cycle"].discrepancy = 0.5
    with pytest.raises(CheckError):
        workloads.check_trial_records(records, 2, patterns)
    records[0].outcomes["cycle"].discrepancy = None  # undefined discrepancies are allowed
    workloads.check_trial_records(records, 2, patterns)
    records[1].outcomes["individual"].rank_after = records[1].rank_before + 1
    with pytest.raises(CheckError):
        workloads.check_trial_records(records, 2, patterns)


def test_line_count_check(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("h\n1\n2\n")
    workloads.check_line_count(path, 3)
    with pytest.raises(CheckError):
        workloads.check_line_count(path, 4)


def test_loop_counts_failed_checks_and_goes_on():
    def raise_check(_):
        raise CheckError("bad")

    ops = [workloads.Op("ok", lambda: "x", lambda out: out),
           workloads.Op("bad", lambda: "y", raise_check),
           workloads.Op("boom", lambda: 1 / 0, lambda out: "")]
    fake = SimpleNamespace(op=lambda i: ops[i], final_op=lambda: None)
    loop = run.Loop(fake, run.SpeedProbe())
    assert loop.run(range(3)) == 3
    assert len(loop.latencies()) == len(loop.wall) == 3
    assert len(loop.failures) == 2
    assert loop.digests[1:] == ["failed", "failed"]


class FixedProbe(run.SpeedProbe):
    """Probe whose timings are given, to test the scaling arithmetic."""

    def __init__(self, times):
        self.samples = []
        self._times = iter(times)

    def __call__(self):
        self.samples.append(next(self._times))
        return self.samples[-1]


def test_probe_scales_by_the_median_of_the_nearest_probes():
    probe = FixedProbe([0.004, 0.012, 0.005, 0.016, 0.016, 0.016, 0.016, 0.016, 0.016])
    result, wall, pos = probe.timed(lambda: sum(range(10)))
    assert (result, pos) == (45, 1)
    for _ in range(7):
        probe()
    # window: the probe before the op and the three from its end on
    assert probe.scale(0.5, pos) == pytest.approx(0.5 * run.PROBE_NOMINAL_S / 0.0085)
    assert probe.scale(0.5, 8) == pytest.approx(0.5 * run.PROBE_NOMINAL_S / 0.016)
