import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import linkbomb.graph
import linkbomb.pagerank
from linkbomb import (
    ConvergenceError,
    DirectedMultigraph,
    GeneratorConfig,
    PageRankConfig,
    PageRankVector,
    build_pattern,
    apply_attack,
    closed_form_isolated,
    compute_pagerank,
    compute_pageranks,
    generate,
    optimal_link_farm,
    rank_of,
    verify_sum_identity,
)
from linkbomb.graph import _CLOSED_ROUNDS
from linkbomb.pagerank import _DENSE_ROWS, _deflated_nodes

from util import mixed_model_graph, reference_compute_pagerank, small_random_graph

PAIR = DirectedMultigraph.from_edges(2, [(0, 1)])


def isolated_attack_graph(pattern, k):
    spec = build_pattern(pattern, tuple(range(1, k + 1)), 0)
    return apply_attack(DirectedMultigraph(k + 1), spec)


def test_alpha_zero_is_uniform():
    g = DirectedMultigraph.from_edges(4, [(0, 1), (2, 3), (3, 0)])
    prv = compute_pagerank(g, PageRankConfig(alpha=0.0))
    assert np.allclose(prv.scores, 0.25, atol=0)


def test_two_node_chain_exact():
    prv = compute_pagerank(PAIR, PageRankConfig(alpha=0.85))
    assert prv.scores[0] == pytest.approx(0.075, abs=1e-12)
    assert prv.scores[1] == pytest.approx(0.13875, abs=1e-12)
    # p1 = p0 * (1 + alpha)
    assert prv.scores[1] == pytest.approx(prv.scores[0] * 1.85, abs=1e-12)


def test_isolated_individual_k10():
    g = isolated_attack_graph("individual", 10)
    prv = compute_pagerank(g, PageRankConfig(alpha=0.85))
    expected = (0.15 / 11) * (1 + 0.85 * 10)  # 0.1295455 rounded
    assert prv.scores[0] == pytest.approx(expected, abs=1e-10)
    assert prv.scores[0] == pytest.approx(0.1295455, abs=5e-8)
    assert closed_form_isolated("individual", 10, 0.85) == pytest.approx(expected, abs=1e-15)


def test_closed_form_examples():
    assert closed_form_isolated("cycle", 10, 0.85) == pytest.approx(
        (0.15 / 11) * (1 + 8.5 / 1.15), abs=1e-15
    )
    assert closed_form_isolated("cycle", 10, 0.85) == pytest.approx(0.1144269, abs=5e-8)
    # alpha = 0: every pattern collapses to the unattacked score
    for pattern in ("individual", "star", "cycle", "complete"):
        assert closed_form_isolated(pattern, 7, 0.0) == pytest.approx(1 / 8, abs=1e-15)


def test_closed_form_rejects_unknowns():
    with pytest.raises(ValueError):
        closed_form_isolated("ring", 5, 0.85)
    with pytest.raises(ValueError):
        closed_form_isolated("cycle", 0, 0.85)


@pytest.mark.parametrize("pattern", ["individual", "star", "cycle", "complete"])
@pytest.mark.parametrize("k", [1, 2, 5, 10, 50])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.85, 0.95])
def test_closed_form_matches_power_iteration(pattern, k, alpha):
    if pattern == "cycle" and k == 1:
        pytest.skip("a 1-attacker cycle would need a self-loop")
    g = isolated_attack_graph(pattern, k)
    prv = compute_pagerank(g, PageRankConfig(alpha=alpha))
    assert prv.scores[0] == pytest.approx(closed_form_isolated(pattern, k, alpha), abs=1e-10)


@pytest.mark.parametrize("k", [2, 3, 5, 10, 50])
@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.85, 0.95, 0.999])
def test_pattern_ordering(k, alpha):
    vals = [closed_form_isolated(p, k, alpha) for p in ("individual", "star", "cycle", "complete")]
    assert vals == sorted(vals, reverse=True)
    # strict for alpha in (0, 1), except cycle == complete at k == 2 where
    # the two patterns are literally the same graph
    assert vals[0] > vals[1] > vals[2]
    if k == 2:
        assert vals[2] == pytest.approx(vals[3], abs=1e-15)
    else:
        assert vals[2] > vals[3]


def test_sum_identity_no_dangling():
    g = DirectedMultigraph.from_edges(2, [(0, 1), (1, 0)])
    prv = compute_pagerank(g, PageRankConfig(alpha=0.85))
    assert prv.scores.sum() == pytest.approx(1.0, abs=1e-10)
    assert verify_sum_identity(prv, g) < 1e-10


def test_sum_identity_pair():
    prv = compute_pagerank(PAIR, PageRankConfig(alpha=0.85))
    assert prv.scores.sum() == pytest.approx(0.21375, abs=1e-12)
    assert verify_sum_identity(prv, PAIR) < 1e-12


def test_sum_identity_isolated_attack():
    g = isolated_attack_graph("individual", 10)
    prv = compute_pagerank(g, PageRankConfig(alpha=0.85))
    assert verify_sum_identity(prv, g) < 1e-10


def test_rank_of():
    prv = PageRankVector(np.array([0.5, 0.3, 0.2]), 0.85, 1, 0.0, True)
    assert rank_of(prv, 0) == 1
    assert rank_of(prv, 1) == 2

    tied = PageRankVector(np.array([0.4, 0.3, 0.3]), 0.85, 1, 0.0, True)
    assert rank_of(tied, 1) == 2
    assert rank_of(tied, 2) == 2

    uniform = PageRankVector(np.full(5, 0.2), 0.0, 1, 0.0, True)
    assert all(rank_of(uniform, v) == 1 for v in range(5))


def _equation_residual(g, prv):
    acc = [0] * g.node_count
    for j, i, m in g.edges():
        acc[i] += prv.scores[j] * m / g.out_degree(j)
    jump = (1 - prv.alpha) / g.node_count
    return max(abs(prv.scores[i] - prv.alpha * acc[i] - jump) for i in range(g.node_count))


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.85, 0.95]))
def test_solver_invariants(seed, alpha):
    g = small_random_graph(np.random.default_rng(seed))
    cfg = PageRankConfig(alpha=alpha)
    prv = compute_pagerank(g, cfg)
    jump = (1 - alpha) / g.node_count
    assert (prv.scores >= jump).all()  # the jump term is irreducible
    assert _equation_residual(g, prv) <= cfg.tolerance
    # summing the equations bounds the identity defect by n * tol / (1 - alpha)
    bound = g.node_count * cfg.tolerance / (1 - alpha)
    assert verify_sum_identity(prv, g) <= bound + 1e-15


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.85, 0.95]))
def test_iteration_contracts(seed, alpha):
    # the update is an L1 contraction with factor alpha (column sums of the
    # transition matrix are at most 1), so successive L1 changes never grow
    g = small_random_graph(np.random.default_rng(seed))
    n = g.node_count
    m = g.transition_matrix()
    jump = (1 - alpha) / n
    p = np.full(n, 1.0 / n)
    last = None
    for _ in range(60):
        nxt = alpha * (m @ p) + jump
        delta = float(np.abs(nxt - p).sum())
        if last is not None:
            assert delta <= alpha * last + 1e-15
        last = delta
        p = nxt


def test_non_convergence_raises_with_residual():
    with pytest.raises(ConvergenceError) as err:
        compute_pagerank(LEAKY, PageRankConfig(alpha=0.95, max_iterations=3))
    assert err.value.residual > 0


def test_alpha_one_acyclic_is_flagged():
    chain = DirectedMultigraph.from_edges(3, [(0, 1), (1, 2)])
    prv = compute_pagerank(chain, PageRankConfig(alpha=1.0))
    assert prv.converged
    assert prv.flagged_alpha_one
    # all mass drains out of the chain
    assert prv.scores.sum() == pytest.approx(0.0, abs=1e-9)


def test_alpha_one_cyclic_returns_at_cutoff():
    g = DirectedMultigraph.from_edges(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    prv = compute_pagerank(g, PageRankConfig(alpha=1.0, max_iterations=25))
    assert prv.flagged_alpha_one
    assert not prv.converged
    assert prv.iterations == 25


def test_config_validation():
    with pytest.raises(ValueError):
        PageRankConfig(alpha=1.2)
    with pytest.raises(ValueError):
        PageRankConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        PageRankConfig(max_iterations=0)


@pytest.mark.parametrize(
    "limits, message",
    [
        ((float("nan"), 50), r"tolerance must be in \(0, inf\), got nan"),
        ((-1.0, 50), r"tolerance must be in \(0, inf\), got -1.0"),
        ((1e-12, 2.5), "max_iterations must be an integer, got 2.5"),
        ((1e-12, True), "max_iterations must be an integer, got True"),
    ],
)
def test_config_rejects_bad_limits(limits, message):
    with pytest.raises(ValueError, match=message):
        PageRankConfig(0.85, *limits)


CYCLIC = DirectedMultigraph.from_edges(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
LEAKY = DirectedMultigraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 3)])  # CYCLIC leaking into node 3


@st.composite
def solver_graphs(draw):
    """Graphs of 1-12 nodes, edgeless ones included, plus a closed and a leaky slow cycle."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from([CYCLIC, LEAKY]))
    n = draw(st.integers(1, 12))
    if n == 1:
        return DirectedMultigraph(1)
    rows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 2), st.integers(1, 3)), max_size=3 * n))
    return DirectedMultigraph.from_edges(n, [(u, v + (v >= u), m) for u, v, m in rows])


def assert_same_solve(got, want):
    assert got.scores.dtype == want.scores.dtype
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.scores.flags.owndata  # a frozen block keeps its own copy
    assert (got.alpha, got.iterations, got.residual, got.converged, got.flagged_alpha_one) == (
        want.alpha,
        want.iterations,
        want.residual,
        want.converged,
        want.flagged_alpha_one,
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(solver_graphs(), min_size=1, max_size=5),
    st.sampled_from([0.0, 0.5, 0.85, 1.0]),
    st.sampled_from([1e-12, 1e-4]),
    st.sampled_from([1, 5, 60, 2000]),
)
def test_batched_solve_equals_lone_solves(graphs, alpha, tolerance, max_iterations):
    cfg = PageRankConfig(alpha, tolerance, max_iterations)
    try:
        want = [compute_pagerank(g, cfg) for g in graphs]
    except ConvergenceError as lone:
        # the first graph, in input order, that a sequence of lone solves fails on
        with pytest.raises(ConvergenceError) as err:
            compute_pageranks(graphs, cfg)
        assert str(err.value) == str(lone)
        assert err.value.residual == lone.residual
        return
    got = compute_pageranks(graphs, cfg)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_solve(a, b)
    assert_same_solve_if_not_deflated(graphs, want, cfg)


def assert_same_solve_if_not_deflated(graphs, got, cfg):
    """Solves without a deflated closed set are the reference loop's, bit for bit."""
    for g, a in zip(graphs, got):
        if not len(_deflated_nodes(g, cfg.alpha)):
            assert_same_solve(a, reference_compute_pagerank(g, cfg))


def test_batched_alpha_one_flags_the_cut_off_cycle():
    chain = DirectedMultigraph.from_edges(3, [(0, 1), (1, 2)])
    cfg = PageRankConfig(alpha=1.0, max_iterations=25)
    got = compute_pageranks([chain, CYCLIC, DirectedMultigraph(4)], cfg)
    assert [(r.converged, r.flagged_alpha_one) for r in got] == [(True, True), (False, True), (True, True)]
    assert got[1].iterations == 25
    for a, g in zip(got, (chain, CYCLIC, DirectedMultigraph(4))):
        assert_same_solve(a, reference_compute_pagerank(g, cfg))


def test_batched_error_names_the_first_unconverged_graph():
    fast = DirectedMultigraph(2)  # converges at the second iterate
    slow = _leaky_cycle(6)
    cfg = PageRankConfig(alpha=0.95, max_iterations=3)
    with pytest.raises(ConvergenceError) as lone:
        for g in (fast, LEAKY, slow):
            reference_compute_pagerank(g, cfg)
    with pytest.raises(ConvergenceError) as batched:
        compute_pageranks([fast, LEAKY, slow], cfg)
    assert str(batched.value) == str(lone.value)
    assert batched.value.residual == lone.value.residual
    assert compute_pageranks([], cfg) == []


def _chorded_cycle(n):
    """An n-cycle plus one chord: slow to converge, with a residual that depends on n."""
    return DirectedMultigraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)])


def _leaky_cycle(n):
    """`_chorded_cycle(n)` whose node n - 1 also links to a dangling node n:
    as slow, but with no closed set to deflate."""
    return DirectedMultigraph.from_edges(n + 1, [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2), (n - 1, n)])


def _random_graph(rng, n):
    """n nodes and 3n uniform non-loop edges, repeats adding multiplicity."""
    if n == 1:
        return DirectedMultigraph(1)
    tails = rng.integers(0, n, 3 * n)
    return DirectedMultigraph.from_edges(n, list(zip(tails, (tails + rng.integers(1, n, 3 * n)) % n)))


def test_stacks_are_bounded_and_equal_lone_solves(monkeypatch):
    stacks = []
    real = linkbomb.pagerank._solve_stack

    def recording(graphs, cfg):
        stacks.append([g.node_count for g in graphs])
        return real(graphs, cfg)

    monkeypatch.setattr(linkbomb.pagerank, "_solve_stack", recording)
    bound = linkbomb.pagerank._STACK_ROWS
    rng = np.random.default_rng(4)
    sizes = [3000, 2500, 1, bound + 1000, 700, 4000, 4000, 60, 2, 5000, 3500]
    graphs = [_random_graph(rng, n) for n in sizes]
    cfg = PageRankConfig(0.85)
    got = compute_pageranks(graphs, cfg)
    assert [n for stack in stacks for n in stack] == sizes  # consecutive, in input order
    assert len(stacks) > 1
    assert all(sum(stack) <= bound or len(stack) == 1 for stack in stacks)
    for a, g in zip(got, graphs):
        assert_same_solve(a, compute_pagerank(g, cfg))
    assert_same_solve_if_not_deflated(graphs, got, cfg)
    # the sweep's batch of a baseline and four attacked graphs at n = 800 stays one stack
    stacks.clear()
    compute_pageranks([DirectedMultigraph(800)] * 5, cfg)
    assert stacks == [[800] * 5]


def test_stacked_error_names_the_first_unconverged_graph_across_stacks():
    bound = linkbomb.pagerank._STACK_ROWS
    # stacks: [edgeless], [300-cycle], [edgeless, 40-cycle]; both cycles are cut off
    graphs = [DirectedMultigraph(bound - 100), _leaky_cycle(300), DirectedMultigraph(bound - 100), _leaky_cycle(40)]
    cfg = PageRankConfig(alpha=0.95, max_iterations=3)
    with pytest.raises(ConvergenceError) as first:
        reference_compute_pagerank(graphs[1], cfg)
    with pytest.raises(ConvergenceError) as later:
        reference_compute_pagerank(graphs[3], cfg)
    assert first.value.residual != later.value.residual
    with pytest.raises(ConvergenceError) as stacked:
        compute_pageranks(graphs, cfg)
    assert str(stacked.value) == str(first.value)
    assert stacked.value.residual == first.value.residual


# ---- deflated closed sets --------------------------------------------------------


def _mwdta(seed, n=300):
    return generate(GeneratorConfig("mwdta", n, target_expected_edges=5.0 * n, seed=seed))


def _farmed(seed):
    """An mwdta graph taken over by its best five-node link farm: a closed loop."""
    g = _mwdta(seed)
    farm = np.random.default_rng(seed).choice(g.node_count, size=5, replace=False)
    return apply_attack(g, optimal_link_farm(g, farm, int(farm[0]), 0.85))


# Graphs with a closed set small enough to deflate: closed cycles, link
# farms, and mwdta graphs (whose seed pair 0 <-> 1 is closed).
CLOSED = [CYCLIC, _chorded_cycle(40), _farmed(1), _farmed(2), _mwdta(1), _mwdta(2), _mwdta(3)]


def _defect(g, prv):
    """The defect of a solve's scores in the defining equations, every row."""
    return prv.alpha * (g.transition_matrix() @ prv.scores) + (1.0 - prv.alpha) / g.node_count - prv.scores


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.85, 0.95])
@pytest.mark.parametrize("g", CLOSED, ids=range(len(CLOSED)))
def test_deflated_solve_is_within_its_certified_bound(g, alpha):
    cfg = PageRankConfig(alpha)
    assert 0 < len(_deflated_nodes(g, alpha)) or alpha == 0.0
    got = compute_pagerank(g, cfg)
    exact = reference_compute_pagerank(g, PageRankConfig(alpha, 1e-15))
    r, r_exact = _defect(g, got), _defect(g, exact)
    assert got.residual == np.abs(r).max() <= cfg.tolerance  # the defect of every row, closed ones included
    # |p - p*|_1 <= |r|_1 / (1 - alpha) for both solves, plus rounding
    bound = (np.abs(r).sum() + np.abs(r_exact).sum() + g.node_count * np.finfo(float).eps) / (1.0 - alpha)
    assert np.abs(got.scores - exact.scores).sum() <= bound
    assert verify_sum_identity(got, g) <= bound
    if alpha > 0:  # deflated, not iterated whole after a failed direct solve
        assert got.iterations < reference_compute_pagerank(g, cfg).iterations


def test_deflation_cuts_mwdta_iterations():
    g = _mwdta(1, n=1000)
    cfg = PageRankConfig(0.85)
    assert _deflated_nodes(g, 0.85).tolist() == [0, 1]
    assert compute_pagerank(g, cfg).iterations <= 25
    assert reference_compute_pagerank(g, cfg).iterations >= 100


def _path(n, closed_pair):
    """0 -> 1 -> ... -> n-1, leaking at its dangling end, or with n-1 -> n-2
    closing the last two nodes into a pair that the whole path feeds."""
    edges = {(i, i + 1): 1 for i in range(n - 1)}
    if closed_pair:
        edges[(n - 1, n - 2)] = 1
    return DirectedMultigraph.from_edges(n, edges)


@pytest.mark.parametrize("closed_pair", [False, True])
def test_closed_set_search_is_bounded_on_deep_graphs(monkeypatch, closed_pair):
    """The leaky path needs one search round per node, the closed pair's
    path one peel round per node: past the budget the finder gives up, and
    the graph is iterated whole, as the undeflated loop does."""
    steps = []
    step = linkbomb.graph._step
    monkeypatch.setattr(linkbomb.graph, "_step", lambda *args: steps.append(1) or step(*args))
    g = _path(3 * _CLOSED_ROUNDS, closed_pair)
    assert g._closed_nodes() is None
    assert 0 < len(steps) <= _CLOSED_ROUNDS
    assert not len(_deflated_nodes(g, 0.85))
    cfg = PageRankConfig(0.85)
    assert_same_solve(compute_pagerank(g, cfg), reference_compute_pagerank(g, cfg))
    # within the budget the closed pair is still found and deflated
    n = _CLOSED_ROUNDS // 2
    assert _deflated_nodes(_path(n, closed_pair), 0.85).tolist() == ([n - 2, n - 1] if closed_pair else [])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**20), st.sampled_from([0, 1]), st.sampled_from([0.0, 0.5, 0.85, 0.95, 1.0]))
def test_solves_without_a_closed_set_are_unchanged(seed, model, alpha):
    g = mixed_model_graph(3 * seed + model, 200)  # a random or a ba graph
    assume(not len(g._closed_nodes()))  # ba graphs are acyclic; random ones almost always leak everywhere
    cfg = PageRankConfig(alpha, max_iterations=500)
    assert_same_solve(compute_pagerank(g, cfg), reference_compute_pagerank(g, cfg))


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(6)), st.sampled_from([0.5, 0.85, 0.95]))
def test_stacks_mixing_closed_sets_equal_lone_solves(order, alpha):
    rng = np.random.default_rng(7)
    graphs = [
        _random_graph(rng, 500),  # most likely no closed set; checked below
        _mwdta(4),  # the closed seed pair
        _farmed(3),
        _chorded_cycle(_DENSE_ROWS),  # the largest closed set that is deflated
        _chorded_cycle(_DENSE_ROWS + 1),  # too large: iterated whole
        DirectedMultigraph(3),
    ]
    assert [len(_deflated_nodes(g, alpha)) > 0 for g in graphs] == [False, True, True, True, False, False]
    graphs = [graphs[i] for i in order]
    cfg = PageRankConfig(alpha)
    got = compute_pageranks(graphs, cfg)
    for a, g in zip(got, graphs):
        assert_same_solve(a, compute_pagerank(g, cfg))
    assert_same_solve_if_not_deflated(graphs, got, cfg)


def test_closed_solve_missing_the_tolerance_falls_back(monkeypatch):
    real = linkbomb.pagerank._solve_closed
    monkeypatch.setattr(linkbomb.pagerank, "_solve_closed", lambda *args: real(*args) + 1.0)
    cfg = PageRankConfig(0.85)
    for g in (CYCLIC, _mwdta(1)):
        assert_same_solve(compute_pagerank(g, cfg), reference_compute_pagerank(g, cfg))
