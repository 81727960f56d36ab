import gc
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import linkbomb.attacks
import linkbomb.disguise
import linkbomb.pagerank
from linkbomb import (
    AttackSpec,
    ConvergenceError,
    DirectedMultigraph,
    PageRankConfig,
    attack_magnitude,
    build_pattern,
    candidate_set,
    forward_values,
    optimal_disguised_joint,
    optimal_disguised_single,
    optimal_link_farm,
    value_of,
)

from linkbomb.disguise import _candidates_for, _shell_scores, _staged, _tie_band
from linkbomb.pagerank import MAX_ITERATIONS, TOLERANCE

from util import (
    mirrored_disguise_graph,
    mixed_model_graph,
    reference_optimal_disguised_joint,
    small_random_graph,
)

CFG = PageRankConfig(alpha=0.85)

# Five-node graph where the two attackers' individually best probe targets
# differ (each candidate cycles flow back through a different attacker) yet
# concentrating both attackers on one node strictly beats the mixed plan:
# victim 0, attackers 1 and 2, candidates 3 (double edge to the victim, edge
# to attacker 1) and 4 (edges to the victim and attacker 2).
TWO_CANDIDATE = DirectedMultigraph.from_edges(5, {(3, 0): 2, (3, 1): 1, (4, 0): 1, (4, 2): 1})


def test_forward_values_chain():
    g = DirectedMultigraph.from_edges(3, [(0, 1), (1, 2)])
    fwd = forward_values(g, 2, 0.85)
    assert fwd.values[2] == 1.0
    assert fwd.values[1] == pytest.approx(0.85, abs=1e-12)
    assert fwd.values[0] == pytest.approx(0.85**2, abs=1e-12)


def test_forward_values_dangling_zero():
    g = DirectedMultigraph.from_edges(3, [(0, 1)])
    fwd = forward_values(g, 1, 0.85)
    assert fwd.values[2] == 0.0


def test_forward_values_bounded_by_distance():
    for seed in range(12):
        g = mixed_model_graph(seed, 12)
        target = seed % g.node_count
        fwd = forward_values(g, target, 0.85)
        dist = g.distances_to(target)
        for u in range(g.node_count):
            bound = 0.85 ** dist[u] if not math.isinf(dist[u]) else 0.0
            assert fwd.values[u] <= bound + 1e-12


def test_candidate_set():
    chain = DirectedMultigraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert candidate_set(chain, 3, 1) == {3}
    assert candidate_set(chain, 3, 2) == {2}
    assert candidate_set(chain, 3, 3) == {1}
    assert candidate_set(DirectedMultigraph(4), 3, 2) == set()


def test_value_of():
    # u with no path to the victim is worthless
    g = DirectedMultigraph.from_edges(4, [(2, 0)])
    assert value_of(g, 1, 3, 0, 0.85) == 0.0
    # two unit-outdeg hops
    assert value_of(g, 1, 2, 0, 0.85) == pytest.approx(0.85**2, abs=1e-12)
    # pointing straight at the victim is the direct attack value
    assert value_of(g, 1, 0, 0, 0.85) == pytest.approx(0.85, abs=1e-12)
    with pytest.raises(ValueError):
        value_of(g, 1, 1, 0, 0.85)


def test_single_ell1_equals_direct_attack():
    g = mixed_model_graph(3, 10)
    plan = optimal_disguised_single(g, 4, 2, 1, 0.85)
    assert plan.chosen_node == 2
    direct = attack_magnitude(g, build_pattern("individual", (4,), 2), CFG)
    assert plan.magnitude == pytest.approx(direct.magnitude, abs=1e-12)


def test_single_unique_candidate_chain():
    g = DirectedMultigraph.from_edges(4, [(1, 2), (2, 0)])  # a -> b -> victim, attacker 3
    plan = optimal_disguised_single(g, 3, 0, 2, 0.85)
    assert plan.chosen_node == 2
    assert plan.per_attacker_value[3] == pytest.approx(0.85 * 0.85, abs=1e-12)


def test_single_infeasible_raises():
    g = DirectedMultigraph(4)
    with pytest.raises(ValueError):
        optimal_disguised_single(g, 1, 0, 2, 0.85)


def test_candidate_shell_scan_matches_full_scan():
    # scanning only the distance ell-1 shell must match the scan over every
    # node at distance >= ell-1, and the winner must sit in the shell
    checked = 0
    for seed in range(40):
        g = mixed_model_graph(seed, 9 + (seed % 4))
        rng = np.random.default_rng(seed)
        victim = int(rng.integers(0, g.node_count))
        attacker = int(rng.integers(0, g.node_count - 1))
        if attacker >= victim:
            attacker += 1
        for ell in (2, 3):
            # the attack replaces the attacker's out-edges, so planning
            # distances ignore them
            dist = g.remove_out_edges(attacker).distances_to(victim)
            shell = [u for u in range(g.node_count)
                     if dist[u] == ell - 1 and u != attacker]
            beyond = [u for u in range(g.node_count)
                      if dist[u] >= ell - 1 and u != attacker and u != victim]
            if not shell:
                continue
            values = {u: value_of(g, attacker, u, victim, 0.85) for u in beyond}
            best_shell = max(values[u] for u in shell)
            best_all = max(values.values())
            assert abs(best_shell - best_all) <= 1e-10
            outside = [values[u] for u in beyond if u not in shell]
            if outside:
                assert best_shell > max(outside)
            plan = optimal_disguised_single(g, attacker, victim, ell, 0.85)
            assert plan.chosen_node in shell
            assert plan.per_attacker_value[attacker] == pytest.approx(best_all, abs=1e-12)
            checked += 1
    assert checked >= 25


def test_two_candidate_graph_preferences_differ():
    v1u = value_of(TWO_CANDIDATE, 1, 3, 0, 0.85)
    v1w = value_of(TWO_CANDIDATE, 1, 4, 0, 0.85)
    v2u = value_of(TWO_CANDIDATE, 2, 3, 0, 0.85)
    v2w = value_of(TWO_CANDIDATE, 2, 4, 0, 0.85)
    assert v1u > v1w  # attacker 1 prefers node 3 alone
    assert v2w > v2u  # attacker 2 prefers node 4 alone


def test_joint_beats_mixed_individual_optima():
    plan = optimal_disguised_joint(TWO_CANDIDATE, (1, 2), 0, 2, 0.85, CFG)
    assert plan.chosen_node == 3
    mixed = AttackSpec(attackers=(1, 2), victim=0, assignment={1: {3: 1}, 2: {4: 1}})
    mixed_mag = attack_magnitude(TWO_CANDIDATE, mixed, CFG).magnitude
    assert plan.magnitude > mixed_mag + 1e-6


def test_joint_plan_carries_the_chosen_attack_result():
    g = mixed_model_graph(5, 12)
    attackers = (3, 7)
    plan = optimal_disguised_joint(g, attackers, 0, 2, 0.85, CFG)
    spec = AttackSpec(attackers=attackers, victim=0, assignment={a: {plan.chosen_node: 1} for a in attackers})
    fresh = attack_magnitude(g, spec, CFG)
    got = plan.result
    assert got.magnitude == fresh.magnitude == plan.magnitude
    assert (got.rank_before, got.rank_after) == (fresh.rank_before, fresh.rank_after)
    assert np.array_equal(got.after.scores, fresh.after.scores)


def test_joint_single_attacker_agrees_with_single_api():
    g = mixed_model_graph(7, 11)
    victim, attacker = 0, 5
    if math.isinf(g.distances_to(victim)[1]):
        victim = int(np.argmax([d != math.inf for d in g.distances_to(0)]))
    single = optimal_disguised_single(g, attacker, 0, 2, 0.85, CFG)
    joint = optimal_disguised_joint(g, (attacker,), 0, 2, 0.85, CFG)
    assert joint.magnitude == pytest.approx(single.magnitude, abs=1e-11)
    assert joint.chosen_node == single.chosen_node


def test_joint_ell1_is_direct_attack():
    g = mixed_model_graph(4, 10)
    attackers = (3, 7)
    plan = optimal_disguised_joint(g, attackers, 1, 1, 0.85, CFG)
    assert plan.chosen_node == 1
    direct = attack_magnitude(g, build_pattern("individual", attackers, 1), CFG)
    assert plan.magnitude == pytest.approx(direct.magnitude, abs=1e-12)


def test_joint_dominates_mixed_assignments():
    # exhaustive cartesian check over per-attacker single links into the shell
    cfg = PageRankConfig(alpha=0.85)
    checked = 0
    for seed in range(25):
        g = mixed_model_graph(seed, 8 + (seed % 3))
        rng = np.random.default_rng(seed + 77)
        picks = rng.choice(g.node_count, size=3, replace=False)
        victim, attackers = int(picks[0]), tuple(int(a) for a in picks[1:])
        shell = sorted(candidate_set(g, victim, 2) - set(attackers) - {victim})
        if not shell or len(shell) > 6:
            continue
        plan = optimal_disguised_joint(g, attackers, victim, 2, 0.85, cfg)
        for w1 in shell:
            for w2 in shell:
                spec = AttackSpec(
                    attackers=attackers, victim=victim,
                    assignment={attackers[0]: {w1: 1}, attackers[1]: {w2: 1}},
                )
                assert plan.magnitude >= attack_magnitude(g, spec, cfg).magnitude - 1e-10
        checked += 1
    assert checked >= 10


def _joint_case(seed, k, mirrored):
    rng = np.random.default_rng(seed)
    if mirrored:
        half = small_random_graph(rng, n_min=3, n_max=7)
        return mirrored_disguise_graph(half, k, rng)
    g = mixed_model_graph(seed, 14 + seed % 17)
    picks = rng.choice(g.node_count, size=k + 1, replace=False)
    return g, int(picks[0]), tuple(int(a) for a in picks[1:])


@given(
    seed=st.integers(0, 10_000),
    alpha=st.sampled_from([0.0, 0.5, 0.85, 0.95, 1.0]),
    ell=st.integers(1, 3),
    k=st.integers(1, 3),
    mirrored=st.booleans(),
    tolerance=st.sampled_from([1e-12, 1e-4]),
)
# mirror twins 2 and 9 tie in exact forward value, and the full solves give 9
# a magnitude 1.4e-17 higher
@example(seed=8, alpha=0.85, ell=2, k=1, mirrored=True, tolerance=1e-12)
def test_joint_scan_equals_full_solve_reference(seed, alpha, ell, k, mirrored, tolerance):
    # a loose tolerance leaves the full solves far from exact, and the band
    # must widen to match the scan that trusts them
    g, victim, attackers = _joint_case(seed, k, mirrored)
    cfg = PageRankConfig(alpha=alpha, tolerance=tolerance)
    # with one attacker the single scan must pick the same plan
    scans = [lambda: optimal_disguised_joint(g, attackers, victim, ell, alpha, cfg)]
    if k == 1:
        scans.append(lambda: optimal_disguised_single(g, attackers[0], victim, ell, alpha, cfg))
    try:
        ref = reference_optimal_disguised_joint(g, attackers, victim, ell, alpha, cfg)
    except (ValueError, ConvergenceError) as exc:
        for scan in scans:
            with pytest.raises(type(exc)):
                scan()
        return
    for scan in scans:
        plan = scan()
        assert plan.chosen_node == ref.chosen_node
        assert plan.magnitude == ref.magnitude
        assert (plan.result.rank_before, plan.result.rank_after) == (ref.result.rank_before, ref.result.rank_after)
        assert np.array_equal(plan.result.after.scores, ref.result.after.scores)
        assert np.array_equal(plan.result.before.scores, ref.result.before.scores)
        assert plan.per_attacker_value == ref.per_attacker_value


def test_mirrored_ties_stay_in_the_band():
    # mirror candidates have equal exact scores, so the band keeps both and
    # the full solves decide between them exactly as the full scan does
    checked = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        g, victim, attackers = mirrored_disguise_graph(small_random_graph(rng, 4, 8), 2, rng)
        mirror = g.node_count - 4  # twin(u) = 2n - 1 - u with n = (node_count - 3) / 2
        staged = _staged(g, attackers)
        try:
            cands = _candidates_for(staged, attackers, victim, 3)
        except ValueError:
            continue
        band = _tie_band(staged, attackers, victim, cands, CFG)
        ref = reference_optimal_disguised_joint(g, attackers, victim, 3, 0.85, CFG)
        w = ref.chosen_node
        assert {w, mirror - w} <= set(band)
        assert optimal_disguised_joint(g, attackers, victim, 3, 0.85, CFG).chosen_node == w
        checked += 1
    assert checked >= 10


def test_shell_scores_within_certified_bound():
    checked = 0
    for seed in range(8):
        g = mixed_model_graph(seed, 40 + seed)
        rng = np.random.default_rng(seed)
        for alpha, ell in itertools.product((0.0, 0.5, 0.85, 0.95), (1, 2, 3)):
            cfg = PageRankConfig(alpha=alpha)
            picks = rng.choice(g.node_count, size=2 + (seed + ell) % 3, replace=False)
            victim, attackers = int(picks[0]), tuple(int(a) for a in picks[1:])
            staged = _staged(g, attackers)
            try:
                cands = _candidates_for(staged, attackers, victim, ell)
            except ValueError:
                continue
            score, bound = _shell_scores(staged, attackers, victim, cands, cfg)
            for w, s, b in zip(cands, score, bound):
                spec = AttackSpec(attackers, victim, {a: {w: 1} for a in attackers})
                assert abs(s - attack_magnitude(g, spec, cfg).victim_after) <= b
                checked += 1
    assert checked >= 100


def test_joint_full_solves_only_the_tie_band(monkeypatch):
    calls = []
    real = linkbomb.disguise._stacked_pageranks

    def counting(graphs, cfg):
        graphs = list(graphs)
        calls.append(len(graphs))
        return real(graphs, cfg)

    def no_lone_solve(g, cfg):
        raise AssertionError("the joint scan solves nothing outside its one stacked call")

    monkeypatch.setattr(linkbomb.disguise, "_stacked_pageranks", counting)
    monkeypatch.setattr(linkbomb.attacks, "compute_pagerank", no_lone_solve)
    unique = 0
    for seed in range(12):
        g = mixed_model_graph(seed, 200)
        rng = np.random.default_rng(seed)
        picks = rng.choice(g.node_count, size=3, replace=False)
        victim, attackers = int(picks[0]), tuple(int(a) for a in picks[1:])
        staged = _staged(g, attackers)
        try:
            cands = _candidates_for(staged, attackers, victim, 2)
        except ValueError:
            continue
        band = _tie_band(staged, attackers, victim, cands, CFG)
        calls.clear()
        optimal_disguised_joint(g, attackers, victim, 2, 0.85, CFG)
        assert calls == [1 + len(band)]
        if len(cands) >= 3 and len(band) == 1:
            unique += 1
    assert unique >= 3


def test_joint_scan_streams_the_band_one_stack_at_a_time(monkeypatch):
    # At alpha = 1 the band is the whole shell (34 candidates here). Attacked
    # graphs are built as their stack fills and freed once it is solved, so
    # a solve sees alive its own stack's graphs and at most three more: the
    # next one, the best so far and the last one read.
    built = set()
    real_apply = linkbomb.disguise.apply_attack
    real_solve = linkbomb.pagerank._solve_stack
    stacks = []

    def tracked(g, spec):
        attacked = real_apply(g, spec)
        built.add(id(attacked))
        return attacked

    def solve(graphs, cfg):
        gc.collect()
        alive = sum(type(o) is DirectedMultigraph and id(o) in built for o in gc.get_objects())
        stacks.append((len(graphs), alive))
        return real_solve(graphs, cfg)

    g = mixed_model_graph(6, 200)
    picks = np.random.default_rng(6).choice(g.node_count, size=3, replace=False)
    victim, attackers = int(picks[0]), tuple(int(a) for a in picks[1:])
    cfg = PageRankConfig(alpha=1.0, max_iterations=5000)
    whole = optimal_disguised_joint(g, attackers, victim, 4, 1.0, cfg)
    monkeypatch.setattr(linkbomb.disguise, "apply_attack", tracked)
    monkeypatch.setattr(linkbomb.pagerank, "_solve_stack", solve)
    monkeypatch.setattr(linkbomb.pagerank, "_STACK_ROWS", 3 * g.node_count)
    streamed = optimal_disguised_joint(g, attackers, victim, 4, 1.0, cfg)
    assert sum(n for n, _ in stacks) == 1 + 34
    assert len(stacks) == 12
    assert all(alive <= n + 3 for n, alive in stacks), stacks
    assert (streamed.chosen_node, streamed.magnitude, streamed.per_attacker_value) == (
        whole.chosen_node, whole.magnitude, whole.per_attacker_value
    )
    assert np.array_equal(streamed.result.after.scores, whole.result.after.scores)


def test_alpha_must_match_config():
    g = mixed_model_graph(5, 12)
    cfg = PageRankConfig(alpha=0.5)
    with pytest.raises(ValueError, match="disagrees"):
        optimal_disguised_joint(g, (3, 7), 0, 2, 0.85, cfg)
    with pytest.raises(ValueError, match="disagrees"):
        optimal_disguised_single(g, 3, 0, 2, 0.85, cfg)
    with pytest.raises(ValueError, match="disagrees"):
        value_of(g, 3, 1, 0, 0.85, cfg)
    with pytest.raises(ValueError, match="disagrees"):
        optimal_link_farm(g, (1, 2, 3), 2, 0.85, cfg)


def test_link_farm_isolated():
    g = DirectedMultigraph(8)
    farm = (2, 3, 4, 5)
    spec = optimal_link_farm(g, farm, 3, 0.85, CFG)
    # every member points at the target, the target points at the lowest member
    assert spec.assignment[2] == {3: 1}
    assert spec.assignment[4] == {3: 1}
    assert spec.assignment[3] == {2: 1}


def test_link_farm_return_flow_scan():
    # outsider 0 sends everything straight back to the target, tying the farm
    # members' return flow; an outsider with split out-edges loses the scan
    g = DirectedMultigraph.from_edges(6, [(0, 4), (1, 4), (1, 5)])
    farm = (2, 3, 4)
    spec = optimal_link_farm(g, farm, 4, 0.85, CFG)
    staged_fwd = forward_values(
        DirectedMultigraph.from_edges(6, [(0, 4), (1, 4), (1, 5), (2, 4), (3, 4)]), 4, 0.85
    )
    chosen = next(iter(spec.assignment[4]))
    best = max(float(v) for u, v in enumerate(staged_fwd.values) if u != 4)
    assert float(staged_fwd.values[chosen]) == pytest.approx(best, abs=1e-12)
    assert chosen == 0  # ties at alpha broken by lowest id; node 1 splits flow


def test_link_farm_alpha_zero_tie_break():
    g = DirectedMultigraph(5)
    spec = optimal_link_farm(g, (1, 2, 3), 2, 0.0, PageRankConfig(alpha=0.0))
    assert spec.assignment[2] == {0: 1}  # all returns are zero, lowest id wins


def test_link_farm_validation():
    g = DirectedMultigraph(5)
    with pytest.raises(ValueError):
        optimal_link_farm(g, (2,), 2, 0.85)
    with pytest.raises(ValueError):
        optimal_link_farm(g, (1, 2), 3, 0.85)


def test_link_farm_solve_takes_the_config_limits(monkeypatch):
    g = DirectedMultigraph.from_edges(6, [(0, 4), (1, 4), (1, 5)])
    capped = PageRankConfig(alpha=0.85, max_iterations=1)
    with pytest.raises(ConvergenceError, match="absorbing solve did not converge in 1 iterations"):
        optimal_link_farm(g, (2, 3, 4), 4, 0.85, capped)
    limits = []
    solve = linkbomb.disguise.forward_values
    monkeypatch.setattr(
        linkbomb.disguise, "forward_values", lambda *args: limits.append(args[3:]) or solve(*args)
    )
    optimal_link_farm(g, (2, 3, 4), 4, 0.85, PageRankConfig(alpha=0.85, tolerance=1e-6, max_iterations=50))
    optimal_link_farm(g, (2, 3, 4), 4, 0.85)
    assert limits == [(1e-6, 50), (TOLERANCE, MAX_ITERATIONS)]  # without a config, the package defaults


def test_disguise_solves_take_the_config_limits():
    capped = PageRankConfig(alpha=0.85, max_iterations=1)
    absorbing = "absorbing solve did not converge in 1 iterations"
    with pytest.raises(ConvergenceError, match=absorbing):
        value_of(TWO_CANDIDATE, 1, 3, 0, 0.85, capped)
    with pytest.raises(ConvergenceError, match=absorbing):
        optimal_disguised_single(TWO_CANDIDATE, 1, 0, 2, 0.85, capped)
    # the shell scan's f and y solves run before any pagerank solve
    with pytest.raises(ConvergenceError, match=absorbing):
        optimal_disguised_joint(TWO_CANDIDATE, (1, 2), 0, 2, 0.85, capped)
    # at alpha = 1 the pagerank solves return flagged at the cutoff; the
    # winner's forward-value solve still raises
    with pytest.raises(ConvergenceError, match=absorbing):
        optimal_disguised_joint(TWO_CANDIDATE, (1, 2), 0, 2, 1.0, PageRankConfig(alpha=1.0, max_iterations=1))


def test_disguise_solve_limits_reach_every_absorbing_solve(monkeypatch):
    limits = []
    solve = linkbomb.disguise._absorbing_values

    def recording(*args):
        limits.append(args[4:])
        return solve(*args)

    monkeypatch.setattr(linkbomb.disguise, "_absorbing_values", recording)
    given_cfg = PageRankConfig(alpha=0.85, tolerance=1e-10, max_iterations=500)
    for cfg, want in ((given_cfg, (1e-10, 500)), (None, (1e-12, 100_000))):
        limits.clear()
        optimal_disguised_single(TWO_CANDIDATE, 1, 0, 2, 0.85, cfg)
        optimal_disguised_joint(TWO_CANDIDATE, (1, 2), 0, 2, 0.85, cfg)
        # each scan runs the f and y solves and the winner's forward values
        assert limits == [want] * 6
