import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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


def test_alpha_zero_yields_flagged_nulls(tmp_path):
    cfg = ExperimentConfig(
        generator=GeneratorConfig("random", 12, p=0.2),
        alphas=(0.0,),
        trials=1,
        n_attackers=3,
    )
    records = run_trial(cfg, 0)
    cyc = records[0].outcomes["cycle"]
    assert cyc.magnitude == 0.0
    assert cyc.discrepancy is None
    assert cyc.discrepancy_undefined
    # An undefined discrepancy is an empty cell; the flag is 1 or 0.
    write_trials_csv(records, tmp_path / "trials.csv")
    write_summary_csv(cfg, records, tmp_path / "summary.csv")
    trials = {r["attack"]: r for r in csv.DictReader((tmp_path / "trials.csv").read_text().splitlines())}
    assert (trials["cycle"]["discrepancy"], trials["cycle"]["discrepancy_undefined"]) == ("", "1")
    assert trials["individual"]["discrepancy_undefined"] == "0"
    summary = {r["attack"]: r for r in csv.DictReader((tmp_path / "summary.csv").read_text().splitlines())}
    cycle = summary["cycle"]
    assert (cycle["mean_discrepancy"], cycle["std_discrepancy"]) == ("", "")
    assert cycle["undefined_discrepancies"] == str(cfg.trials)


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"alphas": (0.85, 0.85)}, r"^alphas must be distinct, got \(0.85, 0.85\)$"),
        ({"attacks": ("individual", "individual", "cycle")}, r"^attacks must be distinct, got \('individual', 'individual', 'cycle'\)$"),
        ({"attacks": ("individual", "bogus")}, r"^unknown attack 'bogus', expected one of \('individual', 'star', 'tree', 'cycle', 'complete'\)$"),
    ],
)
def test_experiment_config_refuses_repeated_and_unknown_sweep_entries(kwargs, message):
    # a repeat would merge summary cells and solve its graphs twice; an unknown
    # attack would fail only inside run_trial, after a graph was generated
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(generator=GeneratorConfig("random", 20, p=0.1), n_attackers=3, **kwargs)


def test_experiment_config_refuses_a_one_attacker_cycle():
    # the default attack list holds cycle; each trial would fail inside
    # run_trial, after its graph was generated
    with pytest.raises(ValueError, match="^cycle pattern needs at least 2 attackers$"):
        ExperimentConfig(GeneratorConfig("random", 50), n_attackers=1)
    ExperimentConfig(GeneratorConfig("random", 50), n_attackers=1, attacks=("individual", "star", "complete"))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("max_iterations", 0, "max_iterations must be >= 1, got 0"),
        ("tolerance", -1.0, r"tolerance must be in \(0, inf\), got -1.0"),
        ("tolerance", float("nan"), r"tolerance must be in \(0, inf\), got nan"),
        ("master_seed", -1, "master_seed must be >= 0, got -1"),
    ],
)
def test_experiment_config_checks_solver_limits_and_seed(key, value, message):
    # rejected when the config is built, not inside run_trial
    gen = GeneratorConfig("random", 20, p=0.1)
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(generator=gen, n_attackers=3, **{key: value})
    with pytest.raises(ValueError, match=message):
        parse_experiment_config(f"model = random\nn = 20\nn_attackers = 3\n{key} = {value}\n")


_CONFIG_KEYS = sorted({*linkbomb.experiment._GENERATOR_KEYS, *linkbomb.experiment._EXPERIMENT_KEYS})
_CONFIG_VALUES = [
    "random", "ba", "mwdta", "20", "3", "0", "-1", "0.85", "0.5,0.95", "1.0", "nan", "inf", "1e-12",
    "1e400", "2.5", "individual", "individual,cycle", "cycle", "uniform", "quantile:0.5:1.0",
    "quantile:0.9:0.1", "quantile:0.1", "",
]


@st.composite
def config_texts(draw):
    """Text that is mostly `key = value` lines over the real keys and values,
    with stray text, comments, duplicates and unknown keys mixed in."""
    value = st.sampled_from(_CONFIG_VALUES) | st.integers(-3, 10**6).map(str) | st.floats().map(str) | st.text(max_size=8)
    pair = st.tuples(st.sampled_from(_CONFIG_KEYS + ["widgets"]), value).map(lambda kv: f"{kv[0]} = {kv[1]}")
    line = st.one_of(pair, pair, pair, pair, st.text(max_size=16), st.just("# comment"))
    head = draw(st.sampled_from(["", "model = random\nn = 20\n", "model = ba\nn = 30\n", "n = 11\nmodel = mwdta\n"]))
    return head + "\n".join(draw(st.lists(line, max_size=6)))


@settings(max_examples=1000, deadline=None)
@given(config_texts())
def test_config_parser_gives_a_config_or_a_value_error(text):
    try:
        cfg = parse_experiment_config(text)
    except ValueError:
        return
    assert isinstance(cfg, ExperimentConfig)


def _config_text(cfg: ExperimentConfig) -> str:
    gen = cfg.generator
    values = {
        "model": gen.model, "n": gen.n, "p": gen.p, "m": gen.m, "beta": gen.beta, "tau": gen.tau,
        "d_max": gen.d_max, "target_edges": gen.target_expected_edges,
        "alphas": ",".join(map(str, cfg.alphas)), "trials": cfg.trials, "n_attackers": cfg.n_attackers,
        "attacks": ",".join(cfg.attacks), "attacker_selection": cfg.attacker_selection,
        "victim_selection": cfg.victim_selection, "master_seed": cfg.master_seed,
        "tolerance": cfg.tolerance, "max_iterations": cfg.max_iterations,
    }
    return "".join(f"{key} = {value}\n" for key, value in values.items() if value is not None)


@st.composite
def experiment_configs(draw):
    unit = st.floats(0.0, 1.0)
    n = draw(st.integers(2, 10**6))
    gen = GeneratorConfig(
        draw(st.sampled_from(["random", "ba", "mwdta"])), n, p=draw(unit), m=draw(st.integers(1, 50)),
        beta=draw(unit), tau=draw(st.floats(1.0, 10.0, exclude_min=True)), d_max=draw(st.integers(1, 100)),
        target_expected_edges=draw(st.none() | st.floats(0.0, 1e12, exclude_min=True)),
    )
    bands = st.tuples(unit, unit).filter(lambda b: b[0] < b[1]).map(lambda b: SelectionRule("quantile", *b))
    rules = st.just(SelectionRule()) | bands
    others = draw(st.lists(st.sampled_from(["star", "tree", "cycle", "complete"]), unique=True))
    return ExperimentConfig(
        generator=gen,
        alphas=tuple(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4, unique=True))),
        trials=draw(st.integers(1, 10**4)),
        n_attackers=(k := draw(st.integers(1, n - 1))),
        # a cycle needs two attackers
        attacks=tuple(draw(st.permutations(["individual", *(a for a in others if k > 1 or a != "cycle")]))),
        attacker_selection=draw(rules),
        victim_selection=draw(rules),
        master_seed=draw(st.integers(0, 2**64)),
        tolerance=draw(st.floats(0.0, 1.0, exclude_min=True)),
        max_iterations=draw(st.integers(1, 10**7)),
    )


@settings(max_examples=300, deadline=None)
@given(experiment_configs(), st.randoms())
def test_config_written_as_lines_parses_back_equal(cfg, rnd):
    lines = _config_text(cfg).splitlines(keepends=True)
    rnd.shuffle(lines)
    assert parse_experiment_config("".join(lines)) == cfg


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
        lambda graphs, prcfg: [compute_pagerank(g, prcfg) for g in graphs],
    )
    for t in range(cfg.trials):
        applied.clear()
        assert run_trial(cfg, t) == real[t * len(cfg.alphas):(t + 1) * len(cfg.alphas)]
        assert len(applied) == len(cfg.attacks)
