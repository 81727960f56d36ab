import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkbomb import (
    ConvergenceError,
    DirectedMultigraph,
    FlowQuery,
    PageRankConfig,
    attack_magnitude_formula,
    compute_pagerank,
    flow_fraction,
    flow_fraction_bruteforce,
    forward_values,
)

from linkbomb.flow import _absorbing_values, _has_cycle
from util import admissible_shortest_len, reference_absorbing_values, small_random_graph

TWO_CYCLE = DirectedMultigraph.from_edges(2, [(0, 1), (1, 0)])
CHAIN = DirectedMultigraph.from_edges(3, [(0, 1), (1, 2)])


def test_single_edge_flow_is_alpha():
    g = DirectedMultigraph.from_edges(2, [(0, 1)])
    res = flow_fraction(g, FlowQuery(0, 1, frozenset({1}), alpha=0.85))
    assert res.fraction == pytest.approx(0.85, abs=1e-12)


def test_split_outdeg_halves_flow():
    g = DirectedMultigraph.from_edges(3, [(0, 1), (0, 2)])
    res = flow_fraction(g, FlowQuery(0, 1, frozenset({1}), alpha=0.85))
    assert res.fraction == pytest.approx(0.425, abs=1e-12)


def test_two_cycle_gamma():
    res = flow_fraction(TWO_CYCLE, FlowQuery(0, 0, frozenset({0}), alpha=0.85))
    assert res.fraction == pytest.approx(0.85**2, abs=1e-12)


def test_parallel_edges_weighted():
    g = DirectedMultigraph.from_edges(3, {(0, 1): 3, (0, 2): 1})
    res = flow_fraction(g, FlowQuery(0, 1, frozenset(), alpha=0.8))
    assert res.fraction == pytest.approx(0.8 * 3 / 4, abs=1e-12)


def test_bruteforce_no_path():
    g = DirectedMultigraph(3).add_edge(0, 1)
    res = flow_fraction_bruteforce(g, FlowQuery(0, 2, frozenset(), alpha=0.5), max_len=6)
    assert res.fraction == 0.0
    assert res.tail_bound == pytest.approx(0.5**7 / 0.5)


def test_bruteforce_two_cycle_exact():
    res = flow_fraction_bruteforce(TWO_CYCLE, FlowQuery(0, 0, frozenset({0}), alpha=0.85), max_len=2)
    assert res.fraction == pytest.approx(0.85**2, abs=1e-15)


def test_bruteforce_chain():
    res = flow_fraction_bruteforce(CHAIN, FlowQuery(0, 2, frozenset({2}), alpha=0.85), max_len=5)
    assert res.fraction == pytest.approx(0.85**2, abs=1e-15)


def test_bruteforce_alpha_one():
    with pytest.raises(ValueError):
        flow_fraction_bruteforce(TWO_CYCLE, FlowQuery(0, 1, frozenset(), alpha=1.0), max_len=10)
    res = flow_fraction_bruteforce(CHAIN, FlowQuery(0, 2, frozenset(), alpha=1.0), max_len=4)
    assert res.fraction == 1.0
    assert res.tail_bound == 0.0


def test_cycle_detection_matches_nilpotency():
    # A digraph on n nodes is acyclic iff its adjacency matrix is nilpotent: A^n = 0.
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = small_random_graph(rng, n_min=2, n_max=7, extra_edges=0)
        adj = (g.forward_matrix().toarray() > 0).astype(float)
        assert _has_cycle(g) == bool(np.linalg.matrix_power(adj, g.node_count).any())


def _random_query(rng, g):
    n = g.node_count
    source = int(rng.integers(0, n))
    if rng.random() < 0.3:
        target = source
    else:
        target = int(rng.integers(0, n))
    k = int(rng.integers(0, min(3, n) + 1))
    excluded = frozenset(int(x) for x in rng.choice(n, size=k, replace=False))
    alpha = float(rng.choice([0.2, 0.5, 0.7]))
    return FlowQuery(source, target, excluded, alpha)


@given(st.integers(0, 2**32 - 1))
def test_linear_solve_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    g = small_random_graph(rng)
    q = _random_query(rng, g)
    exact = flow_fraction(g, q).fraction
    oracle = flow_fraction_bruteforce(g, q, max_len=12)
    assert exact >= oracle.fraction - 1e-10  # enumeration is a lower bound
    assert abs(exact - oracle.fraction) <= oracle.tail_bound + 1e-10


@given(st.integers(0, 2**32 - 1))
def test_flow_bounded_by_alpha_power(seed):
    rng = np.random.default_rng(seed)
    g = small_random_graph(rng)
    q = _random_query(rng, g)
    frac = flow_fraction(g, q).fraction
    ell = admissible_shortest_len(g, q.source, q.target, q.excluded)
    if math.isinf(ell):
        assert frac == 0.0
    else:
        assert frac <= q.alpha**ell + 1e-12
    assert 0.0 <= frac <= 1.0


@given(st.integers(0, 2**32 - 1))
def test_excluding_more_nodes_never_raises_flow(seed):
    rng = np.random.default_rng(seed)
    g = small_random_graph(rng)
    q = _random_query(rng, g)
    extra = frozenset(int(x) for x in rng.choice(g.node_count, size=2))
    bigger = FlowQuery(q.source, q.target, q.excluded | extra, q.alpha)
    assert flow_fraction(g, q).fraction >= flow_fraction(g, bigger).fraction - 1e-12


def test_magnitude_formula_trivial_cases():
    assert attack_magnitude_formula(0.123, 0.0, 0.0, 0.5) == pytest.approx(0.123)
    assert attack_magnitude_formula(0.0, 0.3, 0.2, 0.5) == 0.0
    with pytest.raises(ValueError):
        attack_magnitude_formula(1.0, 0.9, 0.5, 0.1)  # feedback factor >= 1


def test_magnitude_formula_against_solver():
    # attacker 0 (dangling), victim 1, helper 2 forming a cycle through the victim
    g = DirectedMultigraph.from_edges(3, [(1, 2), (2, 1)])
    alpha = 0.85
    cfg = PageRankConfig(alpha)
    before = compute_pagerank(g, cfg)
    attacked = g.add_edge(0, 1)
    after = compute_pagerank(attacked, cfg)

    p_i = float(before.scores[0])
    delta = flow_fraction(attacked, FlowQuery(0, 1, frozenset({1}), alpha)).fraction * p_i
    gamma = flow_fraction(attacked, FlowQuery(1, 1, frozenset({1, 0}), alpha)).fraction
    rho = flow_fraction(attacked, FlowQuery(1, 0, frozenset({1, 0}), alpha)).fraction
    predicted = attack_magnitude_formula(delta, gamma, rho, p_i)
    actual = float(after.scores[1] - before.scores[1])
    assert predicted == pytest.approx(actual, abs=1e-8)
    assert gamma == pytest.approx(alpha**2, abs=1e-12)
    assert rho == 0.0


def test_query_validation():
    with pytest.raises(ValueError):
        FlowQuery(0, 1, frozenset(), alpha=1.5)
    g = DirectedMultigraph(2)
    with pytest.raises(ValueError):
        flow_fraction(g, FlowQuery(0, 5, frozenset(), alpha=0.5))


@pytest.mark.parametrize("tolerance, max_iterations", [(float("nan"), 50), (0.0, 50), (1e-12, 0)])
def test_absorbing_solves_reject_bad_limits(tolerance, max_iterations):
    # a NaN tolerance is never met, so the solve would run to the cap and
    # report a converged walk family as a failure
    g = DirectedMultigraph.from_edges(3, [(1, 2), (2, 0)])
    with pytest.raises(ValueError, match=r"tolerance must be in \(0, inf\)|max_iterations must be >= 1"):
        flow_fraction(g, FlowQuery(1, 0, alpha=0.85), tolerance, max_iterations)
    with pytest.raises(ValueError, match=r"tolerance must be in \(0, inf\)|max_iterations must be >= 1"):
        forward_values(g, 0, 0.85, tolerance, max_iterations)


@st.composite
def absorbing_problems(draw):
    """A graph of 1-10 nodes, 1-3 pinned nodes (dangling ones included) and
    a zero set that may overlap them or be empty."""
    n = draw(st.integers(1, 10))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, max(n - 2, 0)), st.integers(1, 3))
    rows = draw(st.lists(edge, max_size=3 * n))
    g = DirectedMultigraph.from_edges(n, [(u, v + (v >= u), m) for u, v, m in rows] if n > 1 else [])
    nodes = st.integers(0, n - 1)
    pinned = draw(st.lists(nodes, min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        g = g._splice(pinned)  # the pinned nodes dangle, as in the disguise y-solve
    zeros = draw(st.frozensets(nodes, max_size=3) | st.just(frozenset(pinned[:1])))
    return g, pinned, zeros


@settings(max_examples=300, deadline=None)
@given(
    absorbing_problems(),
    st.sampled_from([0.0, 0.5, 0.85, 0.95, 1.0]),
    st.sampled_from([1e-12, 1e-4]),
    st.sampled_from([1, 5, 60, 2000]),
)
def test_absorbing_values_equal_reference_loop(problem, alpha, tolerance, max_iterations):
    g, pinned, zeros = problem
    args = (g, pinned, zeros, alpha, tolerance, max_iterations)
    try:
        want = reference_absorbing_values(*args)
    except ConvergenceError as ref:
        with pytest.raises(ConvergenceError) as err:
            _absorbing_values(*args)
        assert str(err.value) == str(ref)
        assert err.value.residual == ref.residual
        return
    h, resid, iterations = _absorbing_values(*args)
    assert h.dtype == want[0].dtype
    assert h.tobytes() == want[0].tobytes()
    assert (resid, iterations) == want[1:]
