import dataclasses
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from linkbomb import (
    DirectedMultigraph,
    ExperimentConfig,
    GeneratorConfig,
    PageRankConfig,
    SelectionRule,
    compute_pagerank,
    gen_ba,
    gen_er,
    pagerank_histogram,
    parse_experiment_config,
    run_experiment,
    run_trial,
)
import linkbomb.experiment
from linkbomb.experiment import read_experiment_config, summarize, write_summary_csv, write_trials_csv

from util import reference_compute_pagerank


def isolated_cfg(alpha=0.85):
    # an edgeless 11-node graph forces the isolated setting: 10 attackers
    # plus the victim are the whole graph
    return ExperimentConfig(
        generator=GeneratorConfig("random", 11, p=0.0),
        alphas=(alpha,),
        trials=1,
        n_attackers=10,
    )


def test_isolated_trial_matches_closed_forms():
    rec = run_trial(isolated_cfg(), 0)[0]
    ind, cyc = rec.outcomes["individual"], rec.outcomes["cycle"]
    assert ind.gain == pytest.approx(8.5, abs=1e-9)  # alpha * K
    assert cyc.gain == pytest.approx(8.5 / 1.15, abs=1e-9)
    assert cyc.discrepancy == pytest.approx(1.15, abs=1e-9)  # 2 - alpha
    assert ind.rank_after == 1


def test_individual_discrepancy_is_exactly_one():
    rec = run_trial(isolated_cfg(), 0)[0]
    assert rec.outcomes["individual"].discrepancy == 1.0
    assert rec.outcomes["individual"].norm_discrepancy == 0.0


def test_alpha_zero_yields_flagged_nulls():
    cfg = ExperimentConfig(
        generator=GeneratorConfig("random", 12, p=0.2),
        alphas=(0.0,),
        trials=1,
        n_attackers=3,
    )
    rec = run_trial(cfg, 0)[0]
    cyc = rec.outcomes["cycle"]
    assert cyc.magnitude == 0.0
    assert cyc.discrepancy is None
    assert cyc.discrepancy_undefined


def test_gain_signs_match_magnitude():
    cfg = ExperimentConfig(
        generator=GeneratorConfig("random", 40, p=0.1), alphas=(0.85,), trials=2, n_attackers=4
    )
    for rec in run_experiment(cfg):
        for oc in rec.outcomes.values():
            assert np.sign(oc.gain) == np.sign(oc.magnitude)
            assert np.sign(oc.norm_gain) == np.sign(oc.magnitude)


def test_single_trial_summary_equals_record():
    cfg = isolated_cfg()
    records = run_experiment(cfg)
    rows = summarize(cfg, records)
    ind_row = next(r for r in rows if r["attack"] == "individual")
    assert ind_row["trials"] == 1
    assert ind_row["mean_gain"] == records[0].outcomes["individual"].gain
    assert ind_row["std_gain"] == 0.0


def test_alpha_sweep_shares_graph_and_selection():
    cfg = ExperimentConfig(
        generator=GeneratorConfig("random", 30, p=0.1),
        alphas=(0.5, 0.85),
        trials=1,
        n_attackers=3,
    )
    recs = run_trial(cfg, 0)
    assert len(recs) == 2
    assert recs[0].victim == recs[1].victim
    assert recs[0].attackers == recs[1].attackers
    assert recs[0].seed == recs[1].seed


def test_csv_determinism(tmp_path):
    cfg = ExperimentConfig(
        generator=GeneratorConfig("random", 25, p=0.1),
        alphas=(0.85,),
        trials=3,
        n_attackers=3,
        master_seed=5,
    )
    for name in ("a", "b"):
        records = run_experiment(cfg)
        write_trials_csv(records, tmp_path / f"trials_{name}.csv")
        write_summary_csv(cfg, records, tmp_path / f"summary_{name}.csv")
    assert (tmp_path / "trials_a.csv").read_bytes() == (tmp_path / "trials_b.csv").read_bytes()
    assert (tmp_path / "summary_a.csv").read_bytes() == (tmp_path / "summary_b.csv").read_bytes()


def test_different_master_seeds_differ():
    cfg = ExperimentConfig(
        generator=GeneratorConfig("random", 25, p=0.1), alphas=(0.85,), trials=1, n_attackers=3
    )
    cfg2 = ExperimentConfig(
        generator=GeneratorConfig("random", 25, p=0.1),
        alphas=(0.85,),
        trials=1,
        n_attackers=3,
        master_seed=1,
    )
    assert run_trial(cfg, 0)[0].seed != run_trial(cfg2, 0)[0].seed


def test_quantile_selection_respects_band():
    cfg = ExperimentConfig(
        generator=GeneratorConfig("ba", 100, m=3),
        alphas=(0.85,),
        trials=1,
        n_attackers=5,
        attacker_selection=SelectionRule("quantile", 0.8, 1.0),
        victim_selection=SelectionRule("quantile", 0.0, 0.2),
    )
    rec = run_trial(cfg, 0)[0]
    g = gen_ba(GeneratorConfig("ba", 100, m=3, seed=rec.seed))
    scores = compute_pagerank(g, PageRankConfig(0.85)).scores
    order = np.argsort(scores, kind="stable")
    top_band = set(int(x) for x in order[80:])
    low_band = set(int(x) for x in order[:20])
    assert set(rec.attackers) <= top_band
    assert rec.victim in low_band


def test_histogram_uniform_single_bin():
    prv = compute_pagerank(DirectedMultigraph(10), PageRankConfig(alpha=0.0))
    counts, edges = pagerank_histogram(prv, 7)
    assert counts.sum() == 10
    assert (counts > 0).sum() == 1
    assert len(edges) == 8


def test_histogram_counts_sum_to_n():
    g = gen_er(GeneratorConfig("random", 300, p=0.02, seed=4))
    prv = compute_pagerank(g, PageRankConfig(0.85))
    counts, _ = pagerank_histogram(prv, 50)
    assert counts.sum() == 300


def test_score_distribution_shapes():
    er = compute_pagerank(gen_er(GeneratorConfig("random", 1000, p=0.01, seed=8)), PageRankConfig(0.85))
    ba = compute_pagerank(gen_ba(GeneratorConfig("ba", 1000, m=5, seed=8)), PageRankConfig(0.85))
    assert abs(stats.skew(er.scores)) < 1.0
    assert stats.skew(ba.scores) > 2.0


def test_rank1_more_common_on_er_than_ba():
    def rank1_fraction(model, **kw):
        cfg = ExperimentConfig(
            generator=GeneratorConfig(model, 150, **kw),
            alphas=(0.85,),
            trials=12,
            n_attackers=10,
            attacks=("individual",),
        )
        recs = run_experiment(cfg)
        return np.mean([r.outcomes["individual"].rank_after == 1 for r in recs])

    assert rank1_fraction("random", p=0.02) > rank1_fraction("ba", m=3)


def test_config_parsing_round_trip():
    text = """
    # sweep config
    model = random
    n = 25
    p = 0.1
    alphas = 0.5, 0.85
    trials = 2
    n_attackers = 3
    attacks = individual,cycle
    attacker_selection = quantile:0.5:1.0
    master_seed = 7
    """
    cfg = parse_experiment_config(text)
    assert cfg.generator.model == "random"
    assert cfg.generator.n == 25
    assert cfg.alphas == (0.5, 0.85)
    assert cfg.attacker_selection == SelectionRule("quantile", 0.5, 1.0)
    assert cfg.victim_selection == SelectionRule()
    assert cfg.master_seed == 7


def test_sweep_configs_parse():
    # the checked-in density / prominence / alpha sweeps for `linkbomb experiment`
    base = ExperimentConfig(generator=GeneratorConfig("random", 200, p=0.01), alphas=(0.85,), trials=20)
    bands = (("0.0", "0.3"), ("0.35", "0.65"), ("0.7", "1.0"))
    want = {f"density_p{p}": dataclasses.replace(base, generator=GeneratorConfig("random", 200, p=float(p)))
            for p in ("0.01", "0.03", "0.08")}
    for lo, hi in bands:
        rule = SelectionRule("quantile", float(lo), float(hi))
        want[f"attacker_band_{lo}_{hi}"] = dataclasses.replace(base, attacker_selection=rule)
        want[f"victim_band_{lo}_{hi}"] = dataclasses.replace(base, victim_selection=rule)
    want["alpha_sweep_mwdta"] = dataclasses.replace(
        base, generator=GeneratorConfig("mwdta", 200, target_expected_edges=800.0), alphas=(0.5, 0.85, 0.95)
    )
    configs = Path(__file__).resolve().parent.parent / "configs"
    got = {path.stem: read_experiment_config(path) for path in configs.glob("*.cfg")}
    assert got == want


def test_config_parsing_errors():
    with pytest.raises(ValueError):
        parse_experiment_config("model = random\n")  # missing n
    with pytest.raises(ValueError):
        parse_experiment_config("model = random\nn = 20\nwidgets = 3\n")
    with pytest.raises(ValueError):
        parse_experiment_config("model = random\nn = 20\nattacks = cycle\n")


def test_experiment_config_validation():
    gen = GeneratorConfig("random", 5, p=0.1)
    with pytest.raises(ValueError):
        ExperimentConfig(generator=gen, n_attackers=5)  # needs n_attackers + 1 <= n
    with pytest.raises(ValueError):
        ExperimentConfig(generator=gen, n_attackers=2, alphas=(1.0,))
    with pytest.raises(ValueError):
        SelectionRule("quantile", 0.5, 0.2)


def test_config_value_errors_name_line_and_key():
    head = "model = random\nn = 20\np = 0.1\n"
    cases = [
        ("model = random\nn = abc\n", "line 2: n: invalid literal for int()"),
        (head + "alphas = 0.5,x\n", "line 4: alphas: could not convert string to float: 'x'"),
        (head + "\nattacker_selection = quantile:0.1\n",
         "line 5: attacker_selection: cannot parse selection rule 'quantile:0.1'"),
        (head + "victim_selection = quantile:0.1:0.2:0.3\n", "line 4: victim_selection: cannot parse"),
        (head + "trials = 2.5  # not an int\n", "line 4: trials: invalid literal for int()"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError) as err:
            parse_experiment_config(text)
        assert str(err.value).startswith(message)


def test_trial_solves_each_attacked_graph_once_per_alpha(monkeypatch):
    cfg = ExperimentConfig(
        generator=GeneratorConfig("mwdta", 60, target_expected_edges=240.0),
        alphas=(0.0, 0.5, 0.85, 0.95),
        trials=3,
        n_attackers=4,
        attacks=("individual", "star", "cycle", "complete"),
        attacker_selection=SelectionRule("quantile", 0.5, 1.0),
        master_seed=5,
    )
    real = run_experiment(cfg)
    applied = []
    apply = linkbomb.experiment.apply_attack
    monkeypatch.setattr(linkbomb.experiment, "apply_attack", lambda g, spec: applied.append(spec) or apply(g, spec))
    monkeypatch.setattr(
        linkbomb.experiment,
        "compute_pageranks",
        lambda graphs, prcfg: [reference_compute_pagerank(g, prcfg) for g in graphs],
    )
    for t in range(cfg.trials):
        applied.clear()
        assert run_trial(cfg, t) == real[t * len(cfg.alphas):(t + 1) * len(cfg.alphas)]
        assert len(applied) == len(cfg.attacks)
