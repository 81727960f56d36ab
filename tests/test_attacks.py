import numpy as np
import pytest

from linkbomb import (
    AttackSpec,
    DirectedMultigraph,
    PageRankConfig,
    apply_attack,
    attack_magnitude,
    build_pattern,
    closed_form_isolated,
    compute_pagerank,
    enumerate_alternative_attacks,
    rank_of,
)

from util import all_edges_to_victim, attacker_edges_only_differ, mixed_model_graph

CFG = PageRankConfig(alpha=0.85)


def test_build_individual():
    spec = build_pattern("individual", (1, 2, 3), 0)
    assert all(spec.assignment[a] == {0: 1} for a in (1, 2, 3))


def test_build_star():
    spec = build_pattern("star", (1, 2, 3), 0)
    assert spec.assignment[1] == {0: 1}
    assert spec.assignment[2] == {0: 1, 1: 1}
    assert spec.assignment[3] == {0: 1, 1: 1}


def test_build_tree_is_star():
    assert build_pattern("tree", (4, 5, 6), 0).assignment == build_pattern("star", (4, 5, 6), 0).assignment


def test_build_cycle():
    spec = build_pattern("cycle", (1, 2, 3), 0)
    assert spec.assignment[1] == {0: 1, 2: 1}
    assert spec.assignment[3] == {0: 1, 1: 1}
    with pytest.raises(ValueError):
        build_pattern("cycle", (1,), 0)


def test_build_complete():
    spec = build_pattern("complete", (1, 2, 3), 0)
    assert all(sum(spec.assignment[a].values()) == 3 for a in (1, 2, 3))


def test_build_pattern_validation():
    with pytest.raises(ValueError):
        build_pattern("individual", (1, 2), 2)  # victim among attackers
    with pytest.raises(ValueError):
        build_pattern("individual", (1, 1), 0)  # duplicates
    with pytest.raises(ValueError):
        build_pattern("pentagram", (1, 2), 0)


@pytest.mark.parametrize("pattern", ["individual", "star", "tree", "cycle", "complete"])
def test_build_pattern_attacker_errors(pattern):
    with pytest.raises(ValueError, match=r"^attackers must be distinct, got \(1, 1\)$"):
        build_pattern(pattern, [1, 1], 0)
    with pytest.raises(ValueError, match=r"^attackers must be distinct, got \(1, 2, 1\)$"):
        build_pattern(pattern, [1, 2, 1], 0)
    with pytest.raises(ValueError, match="^attack needs at least one attacker$"):
        build_pattern(pattern, [], 0)
    with pytest.raises(ValueError, match="^victim 1 cannot be an attacker$"):
        build_pattern(pattern, [1, 1], 1)


def test_spec_rejects_self_loops():
    with pytest.raises(ValueError):
        AttackSpec(attackers=(1,), victim=0, assignment={1: {1: 1}})


def test_apply_attack_replaces_out_edges():
    g = DirectedMultigraph.from_edges(4, [(1, 2), (1, 3), (1, 2), (2, 1), (3, 1)])
    spec = AttackSpec(attackers=(1,), victim=0, assignment={1: {0: 1}})
    attacked = apply_attack(g, spec)
    assert attacked.out_degree(1) == 1
    assert attacked.multiplicity(1, 0) == 1
    assert attacked.in_degrees()[1] == 2  # in-edges preserved
    assert attacker_edges_only_differ(g, attacked, (1,))


def test_apply_attack_empty_assignment_dangles():
    g = DirectedMultigraph.from_edges(3, [(1, 2), (2, 0)])
    spec = AttackSpec(attackers=(1, 2), victim=0, assignment={})
    attacked = apply_attack(g, spec)
    assert attacked.out_degree(1) == 0
    assert attacked.out_degree(2) == 0


def test_isolated_magnitude_and_gain():
    spec = build_pattern("individual", tuple(range(1, 11)), 0)
    res = attack_magnitude(DirectedMultigraph(11), spec, CFG)
    assert res.magnitude == pytest.approx(0.1159091, abs=5e-8)
    assert res.magnitude == pytest.approx(res.victim_after - res.victim_before, abs=0)
    assert res.magnitude / res.victim_before == pytest.approx(8.5, abs=1e-9)  # alpha * K
    assert res.rank_after == 1


def test_alpha_zero_attack_changes_nothing():
    g = mixed_model_graph(1, 15)
    spec = build_pattern("individual", (2, 3), 0)
    res = attack_magnitude(g, spec, PageRankConfig(alpha=0.0))
    assert res.magnitude == 0.0


def test_dangling_attackers_strictly_worse_than_individual():
    g = DirectedMultigraph(6)
    dangle = AttackSpec(attackers=(1, 2, 3), victim=0, assignment={})
    direct = build_pattern("individual", (1, 2, 3), 0)
    assert attack_magnitude(g, direct, CFG).magnitude > attack_magnitude(g, dangle, CFG).magnitude + 1e-6


def test_enumerate_count_one_is_individual():
    g = DirectedMultigraph(5)
    specs = enumerate_alternative_attacks(g, (1, 2), 0, budget=3, count=1, seed=9)
    assert len(specs) == 1
    assert specs[0].assignment == build_pattern("individual", (1, 2), 0).assignment


def test_enumerate_deterministic():
    g = DirectedMultigraph(8)
    a = enumerate_alternative_attacks(g, (1, 2, 3), 0, budget=3, count=10, seed=42)
    b = enumerate_alternative_attacks(g, (1, 2, 3), 0, budget=3, count=10, seed=42)
    assert [s.assignment for s in a] == [s.assignment for s in b]


def test_enumerate_two_node_graph_collapses_to_individual():
    # the only non-self target is the victim, so with budget 1 every spec
    # is the individual attack
    g = DirectedMultigraph(2)
    specs = enumerate_alternative_attacks(g, (1,), 0, budget=1, count=5, seed=0)
    assert all(s.assignment == {1: {0: 1}} for s in specs)


@pytest.mark.parametrize("k", [2, 5, 10])
@pytest.mark.parametrize("alpha", [0.5, 0.85, 0.95])
def test_solver_reproduces_pattern_ordering(k, alpha):
    cfg = PageRankConfig(alpha=alpha)
    attackers = tuple(range(1, k + 1))
    scores = []
    for pattern in ("individual", "star", "cycle", "complete"):
        res = attack_magnitude(DirectedMultigraph(k + 1), build_pattern(pattern, attackers, 0), cfg)
        scores.append(res.victim_after)
        assert res.victim_after == pytest.approx(closed_form_isolated(pattern, k, alpha), abs=1e-10)
    assert scores == sorted(scores, reverse=True)


def test_individual_uniquely_best_on_isolated_graphs():
    # on the isolated graph, anything that diverts flow away from the victim
    # strictly loses
    g = DirectedMultigraph(7)
    attackers = (1, 2, 3, 4, 5)
    best = attack_magnitude(g, build_pattern("individual", attackers, 0), CFG).magnitude
    specs = enumerate_alternative_attacks(g, attackers, 0, budget=3, count=30, seed=5)
    for spec in specs[1:]:
        mag = attack_magnitude(g, spec, CFG).magnitude
        if all_edges_to_victim(spec):
            assert mag == pytest.approx(best, abs=1e-10)
        else:
            assert mag < best - 1e-10


def test_individual_dominates_on_random_graphs():
    # smaller sweep of the optimality theorems; the acceptance suite runs the
    # full corpus
    cfg = PageRankConfig(alpha=0.85)
    for seed in range(20):
        g = mixed_model_graph(seed, 12 + (seed % 14))
        rng = np.random.default_rng(seed + 1000)
        picks = rng.choice(g.node_count, size=4, replace=False)
        victim, attackers = int(picks[0]), tuple(int(a) for a in picks[1:])
        specs = enumerate_alternative_attacks(g, attackers, victim, budget=3, count=11, seed=seed)
        ind = attack_magnitude(g, specs[0], cfg)
        for spec in specs[1:]:
            alt = attack_magnitude(g, spec, cfg)
            assert ind.magnitude >= alt.magnitude - 1e-10
            assert ind.rank_after <= alt.rank_after
            if not all_edges_to_victim(spec):
                assert ind.magnitude > alt.magnitude + 1e-10
