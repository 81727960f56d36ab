import itertools
from collections import Counter, defaultdict

import numpy as np
import pytest

from linkbomb import DirectedMultigraph, GeneratorConfig, gen_ba, gen_er, gen_mwdta, generate, parse_experiment_config

from util import reference_gen_ba, reference_gen_er


def test_er_p_zero_edgeless():
    g = gen_er(GeneratorConfig("random", 50, p=0.0, seed=1))
    assert g.edge_count == 0


def test_er_p_one_complete():
    n = 12
    g = gen_er(GeneratorConfig("random", n, p=1.0, seed=1))
    assert g.edge_count == n * (n - 1)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_er_p_zero_and_one_equal_the_reference(n):
    for p in (0.0, 1.0):
        cfg = GeneratorConfig("random", n, p=p, seed=3)
        assert gen_er(cfg) == reference_gen_er(cfg)


@pytest.mark.parametrize("p, seeds", [(0.3, 2000), (0.02, 10000)])
def test_er_pair_frequencies_match_p(p, seeds):
    n = 4
    counts = np.zeros((n, n))
    for seed in range(seeds):
        for u, v, _mult in gen_er(GeneratorConfig("random", n, p=p, seed=seed)).edges():
            counts[u, v] += 1
    assert np.diagonal(counts).sum() == 0
    off = counts[~np.eye(n, dtype=bool)]
    assert np.all(np.abs(off - seeds * p) <= 5 * np.sqrt(seeds * p * (1 - p)))
    trials = seeds * len(off)
    assert abs(off.sum() - trials * p) <= 5 * np.sqrt(trials * p * (1 - p))


def _sampling_law(weights, m: int) -> dict[frozenset, float]:
    """Exact law of the set of m draws without replacement, each draw
    proportional to the weights of the items not yet drawn."""
    law: dict[frozenset, float] = defaultdict(float)
    for order in itertools.permutations(range(len(weights)), m):
        pr, left = 1.0, float(sum(weights))
        for j in order:
            pr *= weights[j] / left
            left -= weights[j]
        law[frozenset(order)] += pr
    return law


def _ba_target_laws(n: int, m: int) -> dict[int, dict[frozenset, float]]:
    """For each node past the seed core, the exact law of its target set,
    by enumerating every history of successive sampling ∝ in-degree + 1."""
    laws: dict[int, dict[frozenset, float]] = {i: defaultdict(float) for i in range(m + 1, n)}
    core = np.array([m - j for j in range(m + 1)], dtype=float)  # core node j has m - j in-edges

    def walk(i, indeg, pr):
        if i == n:
            return
        for targets, q in _sampling_law(indeg[:i] + 1.0, m).items():
            laws[i][targets] += pr * q
            nxt = indeg.copy()
            nxt[list(targets)] += 1
            walk(i + 1, nxt, pr * q)

    walk(m + 1, np.concatenate((core, np.zeros(n - m - 1))), 1.0)
    return laws


@pytest.mark.parametrize("sampler", [gen_ba, reference_gen_ba])
@pytest.mark.parametrize("n, m", [(6, 2), (6, 3), (5, 1)])
def test_ba_target_sets_follow_successive_sampling(sampler, n, m):
    seeds = 3000
    seen = {i: Counter() for i in range(m + 1, n)}
    for seed in range(seeds):
        g = sampler(GeneratorConfig("ba", n, m=m, seed=seed))
        for i in seen:
            seen[i][frozenset(v for v, _mult in g.out_edges(i))] += 1
    for i, law in _ba_target_laws(n, m).items():
        assert set(seen[i]) <= set(law)
        for targets, pr in law.items():
            assert abs(seen[i][targets] - seeds * pr) <= 5 * np.sqrt(seeds * pr * (1 - pr)) + 1e-9


def test_ba_indegree_statistics_match_the_reference():
    # edge count, max and median in-degree, nodes with in-degree >= 10 and with
    # none: the per-seed means agree within 5 standard errors (or 1, for a
    # statistic that does not vary across seeds)
    def stats(g):
        d = g.in_degrees()
        return [g.edge_count, d.max(), np.median(d), (d >= 10).sum(), (d == 0).sum()]

    seeds = range(10)
    new = np.array([stats(gen_ba(GeneratorConfig("ba", 2000, m=5, seed=s))) for s in seeds], dtype=float)
    ref = np.array([stats(reference_gen_ba(GeneratorConfig("ba", 2000, m=5, seed=s))) for s in seeds], dtype=float)
    se = np.sqrt((new.var(0, ddof=1) + ref.var(0, ddof=1)) / len(seeds))
    assert np.all(np.abs(new.mean(0) - ref.mean(0)) <= np.maximum(5 * se, 1.0))


def test_er_binomial_concentration():
    n, p = 1000, 0.005
    mean = n * (n - 1) * p
    sigma = (n * (n - 1) * p * (1 - p)) ** 0.5
    for seed in range(20):
        count = gen_er(GeneratorConfig("random", n, p=p, seed=seed)).edge_count
        assert abs(count - mean) <= 4 * sigma


def test_ba_out_degrees():
    g = gen_ba(GeneratorConfig("ba", 300, m=5, seed=2))
    degs = g.out_degrees()
    assert (degs[6:] == 5).all()  # every node past the seed core
    assert degs[5] == 5


def test_ba_acyclic():
    g = gen_ba(GeneratorConfig("ba", 200, m=4, seed=3))
    assert all(u > v for (u, v, _m) in g.edges())  # edges point to earlier nodes


def test_ba_heavy_tail():
    for seed in range(10):
        degs = gen_ba(GeneratorConfig("ba", 2000, m=5, seed=seed)).in_degrees()
        assert degs.max() >= 10 * max(float(np.median(degs)), 1.0)


def test_ba_needs_n_above_m():
    with pytest.raises(ValueError):
        gen_ba(GeneratorConfig("ba", 5, m=5, seed=0))


def test_mwdta_min_out_degree():
    for seed in range(5):
        g = gen_mwdta(GeneratorConfig("mwdta", 400, seed=seed))
        assert g.out_degrees().min() >= 1


def test_mwdta_spreads_indegree_wider_than_ba():
    # at matched edge counts the mixed-attachment model puts more nodes in
    # the "significant in-degree" band than pure preferential attachment
    ba_counts, mw_counts = [], []
    for seed in range(10):
        gb = gen_ba(GeneratorConfig("ba", 1000, m=5, seed=seed))
        gm = gen_mwdta(
            GeneratorConfig("mwdta", 1000, seed=seed, target_expected_edges=float(gb.edge_count))
        )
        ba_counts.append(int((gb.in_degrees() >= 10).sum()))
        mw_counts.append(int((gm.in_degrees() >= 10).sum()))
    assert np.mean(mw_counts) > np.mean(ba_counts)


def test_mwdta_heavy_out_tail():
    g = gen_mwdta(GeneratorConfig("mwdta", 2000, seed=0))
    degs = g.out_degrees()
    assert degs.max() >= 10  # the power-law draw actually reaches the tail


@pytest.mark.parametrize("model", ["random", "ba", "mwdta"])
def test_normalization_within_five_percent(model):
    target = 1000.0
    counts = [
        generate(GeneratorConfig(model, 200, seed=s, target_expected_edges=target)).edge_count
        for s in range(10)
    ]
    assert abs(np.mean(counts) - target) / target <= 0.05


@pytest.mark.parametrize("model", ["random", "ba", "mwdta"])
def test_determinism(model):
    cfg = GeneratorConfig(model, 150, p=0.02, seed=97)
    a, b = generate(cfg), generate(cfg)
    assert a == b


@pytest.mark.parametrize("model", ["random", "ba", "mwdta"])
def test_no_self_loops(model):
    g = generate(GeneratorConfig(model, 120, p=0.05, seed=11))
    assert all(u != v for (u, v, _m) in g.edges())


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig("triangle", 10)
    with pytest.raises(ValueError):
        GeneratorConfig("random", 10, p=1.5)
    with pytest.raises(ValueError):
        GeneratorConfig("mwdta", 10, beta=-0.2)
    with pytest.raises(ValueError):
        gen_mwdta(GeneratorConfig("mwdta", 200, target_expected_edges=50.0))  # < n edges


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"target_expected_edges": float("nan")}, r"target_expected_edges must be in \(0, inf\), got nan"),
        ({"target_expected_edges": float("inf")}, r"target_expected_edges must be in \(0, inf\), got inf"),
        ({"target_expected_edges": 0.0}, r"target_expected_edges must be in \(0, inf\), got 0.0"),
        ({"tau": float("nan")}, r"tau must be in \(1, inf\), got nan"),
    ],
)
def test_config_rejects_nan_and_infinite_inputs(kwargs, message):
    with pytest.raises(ValueError, match=message):
        GeneratorConfig("mwdta", 50, **kwargs)


@pytest.mark.parametrize("line", ["target_edges = nan", "target_edges = inf", "tau = nan"])
def test_config_file_rejects_nan_and_infinite_inputs(line):
    with pytest.raises(ValueError, match="must be"):
        parse_experiment_config(f"model = mwdta\nn = 50\nn_attackers = 3\n{line}\n")
