import functools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import linkbomb.graph
from linkbomb import (
    AttackSpec,
    DirectedMultigraph,
    GeneratorConfig,
    PageRankConfig,
    apply_attack,
    build_pattern,
    compute_pagerank,
    dumps_edgelist,
    enumerate_alternative_attacks,
    generate,
    load_edgelist,
    loads_edgelist,
    optimal_disguised_joint,
    optimal_link_farm,
    rank_of,
)
from linkbomb.disguise import _staged
from linkbomb.graph import MAX_NODES, _coalesce

from util import (
    ReferenceMultigraph,
    bfs_distance_oracle,
    reachability,
    reference_apply_attack,
    reference_closed_nodes,
    reference_coalesce,
    reference_dumps_edgelist,
    reference_loads_edgelist,
)


def test_new_graph_basics():
    g = DirectedMultigraph(1)
    assert g.node_count == 1
    assert g.edge_count == 0

    g = DirectedMultigraph(1000)
    assert g.node_count == 1000
    assert g.edge_count == 0
    assert all(g.out_degree(v) == 0 for v in (0, 500, 999))


def test_zero_nodes_rejected():
    with pytest.raises(ValueError):
        DirectedMultigraph(0)


def test_add_edge_accumulates_multiplicity():
    g = DirectedMultigraph(3).add_edge(0, 1).add_edge(0, 1)
    assert g.multiplicity(0, 1) == 2
    assert g.out_degree(0) == 2
    assert g.in_degrees()[1] == 2


def test_add_edge_degree_sum():
    g = DirectedMultigraph(3).add_edge(0, 1, 2).add_edge(0, 2)
    assert g.out_degree(0) == 3


def test_self_loop_rejected():
    g = DirectedMultigraph(5)
    with pytest.raises(ValueError):
        g.add_edge(3, 3)


def test_bad_node_ids_rejected():
    g = DirectedMultigraph(3)
    with pytest.raises(ValueError):
        g.add_edge(0, 3)
    with pytest.raises(ValueError):
        g.add_edge(-1, 0)
    with pytest.raises(ValueError):
        g.out_degree(7)


def test_edits_do_not_mutate_original():
    g = DirectedMultigraph(3).add_edge(0, 1)
    g2 = g.add_edge(1, 2)
    assert g.edge_count == 1
    assert g2.edge_count == 2
    g3 = g2.remove_out_edges(0)
    assert g2.multiplicity(0, 1) == 1
    assert g3.multiplicity(0, 1) == 0


def test_remove_out_edges():
    g = DirectedMultigraph(3)
    assert g.remove_out_edges(0) == g  # no-op on a dangling node

    star = DirectedMultigraph.from_edges(6, [(0, v) for v in range(1, 6)] + [(3, 0)])
    stripped = star.remove_out_edges(0)
    assert stripped.out_degree(0) == 0
    assert stripped.in_degrees()[0] == 1  # in-edges preserved
    assert stripped.edge_count == 1


def test_distances_to_reverse_bfs():
    g = DirectedMultigraph.from_edges(4, [(0, 1), (1, 3), (2, 3)])
    assert g.distances_to(3) == [2, 1, 1, 0]


edit_steps = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 3)), max_size=25
)


@given(edit_steps, st.sets(st.integers(0, 5), max_size=3))
def test_degree_sums_conserved(steps, removals):
    g = DirectedMultigraph(6)
    for u, v, m in steps:
        if u != v:
            g = g.add_edge(u, v, m)
    for v in removals:
        g = g.remove_out_edges(v)
    total = g.edge_count
    assert sum(g.out_degree(v) for v in range(6)) == total
    assert g.in_degrees().sum() == total


@given(edit_steps, st.integers(0, 5), st.integers(0, 5))
def test_distances_to_matches_enumeration(steps, u, v):
    g = DirectedMultigraph(6)
    for a, b, m in steps:
        if a != b:
            g = g.add_edge(a, b, m)
    assert g.distances_to(v)[u] == bfs_distance_oracle(g, u, v)


def test_edgelist_round_trip():
    g = DirectedMultigraph.from_edges(7, {(0, 1): 2, (3, 2): 1, (5, 0): 3})
    text = dumps_edgelist(g)
    g2 = loads_edgelist(text)
    assert g2 == g
    assert dumps_edgelist(g2) == text  # canonical form is a fixed point


def test_edgelist_preserves_isolated_nodes():
    g = DirectedMultigraph(9).add_edge(0, 1)
    assert loads_edgelist(dumps_edgelist(g)).node_count == 9


def test_edgelist_parsing():
    text = "# a comment\n0 1\n1 2 3  # trailing comment\n\n2 0\n"
    g = loads_edgelist(text)
    assert g.node_count == 3
    assert g.multiplicity(1, 2) == 3
    assert g.multiplicity(0, 1) == 1


def test_edgelist_errors():
    with pytest.raises(ValueError):
        loads_edgelist("0 1 2 3\n")
    with pytest.raises(ValueError):
        loads_edgelist("# only comments\n")
    with pytest.raises(ValueError):
        loads_edgelist("0 0\n")  # self-loop


# ---- CSR core against the dict-based reference -----------------------------------

def _edge_triples(n):
    if n == 1:
        return st.just([])
    # heads drawn from n - 1 slots and shifted past the tail: no self-loops
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2), st.integers(1, 3))
    return st.lists(edge.map(lambda e: (e[0], e[1] + (e[1] >= e[0]), e[2])), max_size=30)


multigraphs = st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), _edge_triples(n)))


def _pair(n, triples):
    return DirectedMultigraph.from_edges(n, triples), ReferenceMultigraph.from_edges(n, triples)


def _same_matrix(a, b):
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


@given(multigraphs)
def test_csr_core_matches_reference(graph):
    n, triples = graph
    g, ref = _pair(n, triples)
    assert set(g.edges()) == set(ref.edges())
    assert np.array_equal(g.out_degrees(), ref.out_degrees())
    assert np.array_equal(g.in_degrees(), ref.in_degrees())
    assert g.edge_count == ref.edge_count
    for u in range(n):
        assert sorted(g.out_edges(u)) == sorted(ref.out_edges(u))
        for v in range(n):
            assert g.multiplicity(u, v) == ref.multiplicity(u, v)
    assert _same_matrix(g.forward_matrix(), ref.forward_matrix())
    assert _same_matrix(g.transition_matrix(), ref.transition_matrix())
    assert dumps_edgelist(g) == reference_dumps_edgelist(ref)


@given(multigraphs, st.integers(0, 6))
def test_csr_walks_match_reference(graph, v):
    n, triples = graph
    g, ref = _pair(n, triples)
    v %= n
    assert g.distances_to(v) == ref.distances_to(v)


@pytest.mark.parametrize("model", ["random", "ba", "mwdta"])
def test_distances_match_reference_on_model_graphs(model):
    """Model graphs with three attackers stripped, as the disguise scan
    stages them, against the reference's Python search."""
    rng = np.random.default_rng(11)
    g = generate(GeneratorConfig(model, 2000, seed=11, target_expected_edges=10000))
    staged = _staged(g, rng.choice(2000, 3, replace=False).tolist())
    ref = ReferenceMultigraph.from_edges(2000, list(staged.edges()))
    for v in rng.choice(2000, 5, replace=False).tolist():
        assert staged.distances_to(v) == ref.distances_to(v)


def test_distances_have_no_round_budget():
    n = 20000
    path = DirectedMultigraph.from_edges(n, {(i, i + 1): 1 for i in range(n - 1)})
    assert path.distances_to(n - 1) == list(range(n - 1, -1, -1))


def test_distances_reuse_the_transition_matrix(monkeypatch):
    g = generate(GeneratorConfig("mwdta", 200, seed=4))
    want = ReferenceMultigraph.from_edges(200, list(g.edges())).distances_to(0)
    calls = []
    coalesce = linkbomb.graph._coalesce
    monkeypatch.setattr(linkbomb.graph, "_coalesce", lambda *args: calls.append(1) or coalesce(*args))
    t = g.transition_matrix()
    assert g.distances_to(0) == want
    g.distances_to(7)
    assert calls == []
    assert g.transition_matrix() is t


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DirectedMultigraph(3).add_edge(0, 1, 2.5), "edge multiplicity must be an integer, got 2.5"),
        (lambda: apply_attack(DirectedMultigraph(3), AttackSpec((1,), 0, {1: {0: 1.5}})), "edge multiplicity must be an integer, got 1.5"),
        (lambda: DirectedMultigraph.from_edges(3, [(0, 1, np.float64(3.9))]), "edge multiplicity must be an integer, got .*3.9"),
        (lambda: DirectedMultigraph.from_edges(3, [(0, 1, "2")]), "edge multiplicity must be an integer, got '2'"),
        (lambda: DirectedMultigraph.from_edges(3, [(0, 1, True)]), "edge multiplicity must be an integer, got True"),
        (lambda: DirectedMultigraph.from_edges(3, {5: 1}), r"edge key must be a \(u, v\) pair, got 5"),
        (lambda: DirectedMultigraph.from_edges(3, {(0, 1): 2**63}), f"edge multiplicity {2**63} out of int64 range"),
        (lambda: DirectedMultigraph.from_edges(3, [5]), "edge tuple must have 2 or 3 entries, got 5"),
        (
            lambda: DirectedMultigraph.from_edges(3, [(0, 1, 2**62), (0, 1, 2**62), (1, 2, 1)]),
            f"^total edge multiplicity exceeds {2**63 - 1}$",
        ),
    ],
    ids=["add_edge", "apply_attack", "float64", "str", "bool", "bare key", "past int64", "bare int", "merged past int64"],
)
def test_malformed_edges_are_rejected(build, message):
    """Multiplicities follow the node-id rule: ints or numpy integers, no bools."""
    with pytest.raises(ValueError, match=message):
        build()


# victim 0; nodes 1 and 2 link to it, 3 and 4 sit one hop further out, 5 two
_SIX = DirectedMultigraph.from_edges(6, [(1, 0), (2, 0), (3, 1), (4, 2), (5, 3)])
_SIX_SCORES = compute_pagerank(_SIX, PageRankConfig(0.85))

# Entry point -> (what the message names, a call taking the bad value).
_INTEGER_SITES = {
    "spec attacker": ("node id", lambda x: AttackSpec((x,), 0, {})),
    "spec victim": ("node id", lambda x: AttackSpec((4,), x, {})),
    "spec assignment key": ("node id", lambda x: AttackSpec((1,), 0, {x: {0: 1}})),
    "spec head": ("node id", lambda x: AttackSpec((4,), 0, {4: {x: 1}})),
    "spec multiplicity": ("edge multiplicity", lambda x: AttackSpec((4,), 0, {4: {1: x}})),
    "pattern attacker": ("node id", lambda x: build_pattern("individual", [x], 0)),
    "pattern victim": ("node id", lambda x: build_pattern("individual", [4], x)),
    "enumerate attacker": ("node id", lambda x: enumerate_alternative_attacks(_SIX, [x], 0, 2, 2, 1)),
    "enumerate victim": ("node id", lambda x: enumerate_alternative_attacks(_SIX, [4], x, 2, 2, 1)),
    "joint attacker": ("node id", lambda x: optimal_disguised_joint(_SIX, [x], 0, 2, 0.85)),
    "farm member": ("node id", lambda x: optimal_link_farm(_SIX, [0, x, 5], 0, 0.85)),
    "rank_of": ("node id", lambda x: rank_of(_SIX_SCORES, x)),
    "joint ell": ("ell", lambda x: optimal_disguised_joint(_SIX, [4], 0, x, 0.85)),
}


@pytest.mark.parametrize("bad", [2.5, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("site", list(_INTEGER_SITES))
def test_integer_rule_refuses_what_int_would_truncate(site, bad):
    """Every entry point that takes node ids, multiplicities or ell refuses
    floats, bools and strings with a ValueError instead of coercing them."""
    what, call = _INTEGER_SITES[site]
    with pytest.raises(ValueError, match=f"^{what} must be an integer, got {re.escape(repr(bad))}$"):
        call(bad)


def test_numpy_integer_ids_match_python_ints():
    i = np.int64
    spec = AttackSpec((i(4),), i(0), {i(4): {i(1): i(2)}})
    assert spec == AttackSpec((4,), 0, {4: {1: 2}})
    assert build_pattern("star", [i(4), i(5)], i(0)) == build_pattern("star", [4, 5], 0)
    plan = optimal_disguised_joint(_SIX, [i(4), i(5)], i(0), i(2), 0.85)
    ref = optimal_disguised_joint(_SIX, [4, 5], 0, 2, 0.85)
    assert (plan.attackers, plan.victim, plan.ell, plan.chosen_node, plan.magnitude) == (
        ref.attackers, ref.victim, ref.ell, ref.chosen_node, ref.magnitude
    )
    assert {type(v) for v in (*spec.attackers, spec.victim, *plan.attackers, plan.victim, plan.ell)} == {int}
    assert rank_of(_SIX_SCORES, i(3)) == rank_of(_SIX_SCORES, 3)


def test_degrees_are_exact_int64_sums():
    """Degrees sum the int64 multiplicities exactly, up to the int64 total."""
    g = DirectedMultigraph.from_edges(3, {(0, 1): 2**60 + 1, (0, 2): 1})
    assert g.out_degree(0) == 2**60 + 2
    assert g.in_degrees().tolist() == [0, 2**60 + 1, 1]
    top = DirectedMultigraph.from_edges(3, {(0, 1): 2**62, (2, 1): 2**62 - 1})
    assert top.edge_count == top.in_degrees()[1] == 2**63 - 1
    assert top.out_degrees().tolist() == [2**62, 0, 2**62 - 1]


@st.composite
def _sparse_graphs(draw):
    """Graphs of 1-12 nodes with n/2 to 2n edges: dangling nodes, closed
    cycles and cycles that leak into them all come up."""
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, max(n - 2, 0))), min_size=n // 2, max_size=2 * n))
    return DirectedMultigraph.from_edges(n, [(u, v + (v >= u)) for u, v in rows if n > 1])


@settings(max_examples=300)
@given(_sparse_graphs())
def test_closed_nodes_match_reachability(g):
    q = g._closed_nodes()
    event(f"closed set {'empty' if not len(q) else 'nonempty'}")
    assert q.tolist() == reference_closed_nodes(g)
    inside = np.zeros(g.node_count, dtype=bool)
    inside[q] = True
    assert all(inside[v] for u in q for v, _m in g.out_edges(int(u)))  # closed under out-edges
    assert (g.out_degrees()[q] > 0).all()  # no dangling node
    # every closed strong component with an edge in it lies inside
    reach = reachability(g)
    for u in range(g.node_count):
        component = np.flatnonzero(reach[u] & reach[:, u])
        if len(component) and not reach[u, ~np.isin(np.arange(g.node_count), component)].any():
            assert inside[component].all()
    assert g._closed_nodes() is q  # cached


@given(multigraphs, st.data())
def test_csr_edits_match_reference(graph, data):
    n, triples = graph
    g, ref = _pair(n, triples)
    for v in range(n):
        assert set(g.remove_out_edges(v).edges()) == set(ref.remove_out_edges(v).edges())
    if n < 2:
        return
    attackers = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    assignment = {
        a: data.draw(st.dictionaries(st.integers(0, n - 1).filter(lambda h, a=a: h != a), st.integers(1, 3), max_size=3))
        for a in attackers
    }
    spec = AttackSpec(attackers=tuple(attackers), victim=data.draw(st.integers(0, n - 1)), assignment=assignment)
    attacked = apply_attack(g, spec)
    expected = reference_apply_attack(ref, spec)
    assert set(attacked.edges()) == set(expected.edges())
    assert _same_matrix(attacked.transition_matrix(), expected.transition_matrix())


BAD_EDGES = [
    [(True, 2)],
    [(2, False)],
    [(0.0, 1)],
    [(0, 1.5)],
    [(0, "1")],
    [(0, 3)],
    [(-1, 0)],
    [(0, 1), (2, 2)],
    [(0, 1, 0)],
    [(0, 1, -2)],
]


@pytest.mark.parametrize("edges", BAD_EDGES)
@pytest.mark.parametrize("cls", [DirectedMultigraph, ReferenceMultigraph])
def test_bad_edges_rejected_by_both(cls, edges):
    with pytest.raises(ValueError):
        cls.from_edges(3, edges)
    u, v, *m = edges[-1]
    with pytest.raises(ValueError):
        cls(3).add_edge(u, v, *m)


# ---- edge-list parser ------------------------------------------------------------


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1\n1 x\n", r"^line 2: fields must be integers"),
        ("0 1\n1.5 2\n", r"^line 2: fields must be integers"),
        ("# nodes 3\n0 1\n\n1 3\n", r"^line 4: node id 3 out of range"),
        ("0 1\n-1 0\n", r"^line 2: node id -1 out of range"),
        ("0 1\n# note\n2 2\n", r"^line 3: self-loop"),
        ("0 1 0\n", r"^line 1: edge multiplicity"),
        ("0 1\n1 0 -3\n", r"^line 2: edge multiplicity"),
        ("0 1 2 3\n", r"^line 1: expected"),
        ("# nodes many\n0 1\n", r"^line 1: node count must be an integer"),
        ("# nodes 0\n", r"^line 1: node count must be >= 1"),
        ("0 99999999999999999999999\n", r"^line 1: field out of range"),
        ("# nodes 4\n0 1\n# nodes 5\n", r"^line 3: '# nodes 5' conflicts with '# nodes 4' on line 1"),
        (f"0 1 {2**62}\n0 1 {2**62}\n1 2\n", rf"^line 2: total edge multiplicity exceeds {2**63 - 1}$"),
        ("0 1 999999999999999999\n" * 10, rf"^line 10: total edge multiplicity exceeds {2**63 - 1}$"),
    ],
)
def test_edgelist_errors_name_the_line(text, message):
    with pytest.raises(ValueError, match=message):
        loads_edgelist(text)


def test_edgelist_repeated_agreeing_directive():
    assert loads_edgelist("# nodes 4\n0 1\n# nodes 4\n").node_count == 4


@given(multigraphs)
def test_edgelist_round_trip_property(graph):
    n, triples = graph
    g = DirectedMultigraph.from_edges(n, triples)
    text = dumps_edgelist(g)
    assert loads_edgelist(text) == g
    assert dumps_edgelist(loads_edgelist(text)) == text


# ---- bulk parser against the line-by-line reference ------------------------------

_ODD_FIELDS = (
    "+3", "1_0", "\u0663", "\uff15", "-1", "0", "x", "1.5", "0x1", "",
    str(2**63), str(-(2**63) - 1), str(10**20), str(-(2**63)),
)
_SPACES = st.sampled_from([" ", "\t", "  ", " \t", "\xa0"])
_COUNTS = ("3", "6", "8", "8", "0", "-2", "many", "+8", "1_0", "\u0668", "1.5", "6 6")


@st.composite
def _edgelist_line(draw) -> str:
    kind = draw(st.sampled_from(("edge",) * 5 + ("odd", "directive", "comment", "blank")))
    if kind == "blank":
        return draw(st.sampled_from(("", " ", "\t ")))
    if kind == "comment":
        return draw(st.sampled_from(("#", "# a note", "  # 1 2", "#nodes", "# nodes", "# nodes 4 # twice")))
    if kind == "directive":
        return draw(st.sampled_from(("# nodes ", "#nodes ", "  #  nodes\t"))) + draw(st.sampled_from(_COUNTS))
    if kind == "edge":
        fields = [str(draw(st.integers(0, 7))) for _ in range(2)]
        if draw(st.booleans()):
            fields.append(draw(st.sampled_from(("1", "2", "3") * 3 + ("0", "-4"))))
    else:
        small = st.integers(-2, 9).map(str)
        size = draw(st.sampled_from((1, 2, 2, 3, 3, 4)))
        fields = [draw(st.one_of(small, st.sampled_from(_ODD_FIELDS))) for _ in range(size)]
    line = draw(st.sampled_from(("", " ", "\t"))) + draw(_SPACES).join(fields)
    return line + draw(st.sampled_from(("", "", " ", "  # trailing", "#x")))


@st.composite
def _edgelist_text(draw) -> str:
    lines = draw(st.lists(_edgelist_line(), max_size=10))
    breaks = st.sampled_from(("\n", "\n", "\r\n", "\r", "\x0c"))
    return "".join(line + draw(breaks) for line in lines)


def _same_parse(text: str) -> None:
    """loads_edgelist gives the reference's graph, or raises its exact message."""
    try:
        expected = reference_loads_edgelist(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            loads_edgelist(text)
        assert str(got.value) == str(exc)
    else:
        assert loads_edgelist(text) == expected


@settings(max_examples=1000)
@given(_edgelist_text())
def test_loads_edgelist_matches_line_by_line_reference(text):
    _same_parse(text)


def test_loads_edgelist_reports_the_first_of_several_faults():
    faults = [
        "0 1 2 3", "1", "1 x", "1.5 2", "0 99999999999999999999", "9223372036854775808 1 1",
        "# nodes 0", "# nodes many", "# nodes 2", "# nodes 9", "0 0", "0 1 0", "0 1 -2", "-1 0", "0 8",
    ]
    rng = np.random.default_rng(4)
    for _ in range(2000):
        lines = [f"{u} {v}" for u, v in rng.integers(0, 6, size=(int(rng.integers(0, 6)), 2)) if u != v]
        for fault in rng.choice(faults, size=int(rng.integers(2, 5))):
            lines.insert(int(rng.integers(0, len(lines) + 1)), str(fault))
        if rng.random() < 0.5:
            lines.insert(0, "# nodes 7")
        _same_parse("\n".join(lines) + "\n")


# ---- byte path ----------------------------------------------------------------------

# Fields past 18 digits go to the per-line path. Without a directive the node
# count is one past the largest id, so values inside int64 but far past the
# node limit appear only under a leading directive: the reference parser has
# no limit and would try to allocate them.
_LONG = ("0000000000000000000007", str(2**63), "12345678901234567890123")
_LONG_DECLARED = _LONG + ("999999999999999999", "1000000000000000000", str(2**63 - 1))
_PLAIN_GAPS = st.sampled_from([" ", "\t", "  ", " \t "])
_PLAIN_KINDS = st.sampled_from(("edge",) * 24 + ("odd", "directive", "directive", "comment", "blank"))
_SMALL = tuple("0123456789") + ("00", "03", "007")


@st.composite
def _plain_line(draw, field) -> str:
    kind = draw(_PLAIN_KINDS)
    if kind == "blank":
        return draw(st.sampled_from(("", " ", "\t")))
    if kind == "comment":
        return draw(st.sampled_from(("#", "# a note", " # 1 2", "#nodes", "# nodes", "# nodes 8 # twice")))
    if kind == "directive":
        lead = draw(st.sampled_from(("# nodes ", "#\tnodes ", " # nodes  ")))
        return lead + draw(st.sampled_from(("8",) * 4 + ("008", "+8", "3", "0", "many")))
    size = draw(st.sampled_from((2, 2, 3))) if kind == "edge" else draw(st.sampled_from((1, 4)))
    fields = [draw(field) for _ in range(size)]
    line = draw(st.sampled_from(("", " ", "\t"))) + draw(_PLAIN_GAPS).join(fields)
    return line + draw(st.sampled_from(("", "", " ", "  # trailing", "#3 4", " # nodes 3")))


@st.composite
def _plain_text(draw) -> str:
    declared = draw(st.booleans())
    field = st.sampled_from(_SMALL * 24 + (_LONG_DECLARED if declared else _LONG))
    lines = draw(st.lists(_plain_line(field), max_size=10))
    text = "\n".join((["# nodes 8"] if declared else []) + lines)
    return text + draw(st.sampled_from(("", "\n")))


@settings(max_examples=1000)
@given(_plain_text())
def test_plain_text_matches_line_by_line_reference(text):
    event("byte path" if linkbomb.graph._parse_plain(text) is not None else "per-line path")
    _same_parse(text)


@pytest.mark.parametrize(
    "text",
    ["# nodes 3\n0 1\n1 2 3 # c\n\t2\t0", "0 1", "# nodes 2\n", "#x\x7f\n0 1\n", "0 " + "0" * 17 + "1\n", ""],
)
def test_plain_text_takes_the_byte_path(text):
    assert linkbomb.graph._parse_plain(text) is not None
    _same_parse(text)


@pytest.mark.parametrize(
    "text",
    [
        "+3 1\n", "1_0 2\n", "1\xa02\n", "0 1\r\n", "\u0663 1\n", "0\n", "0 1 2 3\n", "0 " + "0" * 18 + "1\n",
        "# nodes x\n0 1\n", "# nodes 4\r\n0 1\n", "# nodes 2\n0 1\n# nodes 3\n", "# nodes\x0b4\n0 1\n",
    ],
)
def test_other_text_takes_the_per_line_path(text):
    assert linkbomb.graph._parse_plain(text) is None
    _same_parse(text)


def test_model_graphs_never_reach_the_per_line_path(monkeypatch):
    calls = []
    parse_lines = linkbomb.graph._parse_lines
    monkeypatch.setattr(linkbomb.graph, "_parse_lines", lambda text: calls.append(text) or parse_lines(text))
    graphs = [generate(GeneratorConfig(model, 60, seed=seed)) for model in ("random", "ba", "mwdta") for seed in (1, 2)]
    graphs.append(DirectedMultigraph.from_edges(12, {(0, 11): 3, (10, 2): 1234567, (5, 4): 2}))
    for g in graphs:
        assert loads_edgelist(dumps_edgelist(g)) == g
    assert calls == []


@functools.lru_cache(maxsize=None)
def _model_file(model: str, n: int) -> str:
    return dumps_edgelist(generate(GeneratorConfig(model, n, seed=3, target_expected_edges=5 * n)))


def _wide_plain_file() -> str:
    """Seven-digit ids under '# nodes 9999999', tab and space gaps, trailing
    comments, blank and comment lines, multiplicities up to 18 digits."""
    rng = np.random.default_rng(12)
    lines = ["# nodes 9999999"]
    for _ in range(20000):
        kind = rng.random()
        if kind < 0.03:
            lines.append(str(rng.choice(["", "\t", "# a note", "  # 1 2 3"])))
            continue
        fields = [str(x) for x in rng.integers(1_000_000, 9_999_999, size=2)]
        if kind < 0.25:
            fields.append(str(rng.integers(1, 10 ** int(rng.integers(1, 19)))))
        gap = str(rng.choice([" ", "\t", "  \t", "\t "]))
        tail = str(rng.choice(["", "", " ", "\t# trailing 12", " #"]))
        lines.append(str(rng.choice(["", " ", "\t"])) + gap.join(fields) + tail)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("source", ["random", "ba", "mwdta", "wide"])
def test_byte_path_matches_per_line_path_on_large_files(source):
    text = _wide_plain_file() if source == "wide" else _model_file(source, 5000)
    plain = linkbomb.graph._parse_plain(text)
    lines = linkbomb.graph._parse_lines(text)
    assert plain is not None
    assert plain[0] == lines[0]
    for got, want in zip(plain[1:], lines[1:]):  # tails, heads, multiplicities, line numbers
        assert got.dtype.kind == "i" and np.array_equal(got, want)


@pytest.mark.parametrize("model", ["random", "mwdta"])
def test_loading_peaks_within_20_bytes_per_input_byte(model):
    text = _model_file(model, 20000 if model == "random" else 5000)
    tracemalloc.start()
    try:
        g = loads_edgelist(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.node_count == (20000 if model == "random" else 5000)
    assert peak <= 20 * len(text)


@st.composite
def _ordered_columns(draw):
    """Valid edge columns in one of three orders: strictly increasing (u, v),
    increasing with repeated pairs, or shuffled."""
    n = draw(st.integers(2, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)).map(lambda e: (e[0], e[1] + (e[1] >= e[0])))
    edges = draw(st.lists(st.tuples(pair, st.integers(1, 4)), max_size=40))
    order = draw(st.sampled_from(["distinct", "repeats", "shuffled"]))
    if order == "distinct":
        edges = sorted(dict(edges).items())
    elif order == "repeats":
        edges = sorted(edges + edges[: len(edges) // 2], key=lambda e: e[0])
    else:
        edges = draw(st.permutations(edges))
    event(order)
    cols = np.array([(u, v, m) for (u, v), m in edges], dtype=np.int64).reshape(-1, 3)
    return n, cols[:, 0].copy(), cols[:, 1].copy(), cols[:, 2].copy()


@settings(max_examples=300)
@given(_ordered_columns())
def test_coalesce_matches_sort_and_sum(columns):
    n, tails, heads, mult = columns
    for got, want in zip(_coalesce(n, tails, heads, mult), reference_coalesce(n, tails, heads, mult)):
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_coalesce_copies_the_callers_columns():
    tails, heads, mult = np.array([0, 1, 1]), np.array([1, 0, 2]), np.array([3, 1, 2])  # sorted: no merge
    g = DirectedMultigraph(3, _coalesce(3, tails, heads, mult))
    assert all(a.flags.writeable for a in (tails, heads, mult))
    assert not any(np.shares_memory(a, b) for a in (tails, heads, mult) for b in (g._indptr, g._heads, g._mult))
    mult[0] = 7
    assert g.multiplicity(0, 1) == 3


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_node_count_limit_names_the_line(monkeypatch, newline):
    """Both paths reach the one directive check: the byte path meets the
    fault and hands the plain text on; the per-line path raises it."""
    calls = []
    check, parse_lines = linkbomb.graph._directive, linkbomb.graph._parse_lines
    monkeypatch.setattr(linkbomb.graph, "_directive", lambda *args: calls.append("check") or check(*args))
    monkeypatch.setattr(linkbomb.graph, "_parse_lines", lambda text: calls.append("lines") or parse_lines(text))
    text = newline.join(["0 1", f"# nodes {10**15}", "1 2"]) + newline
    with pytest.raises(ValueError, match=rf"^line 2: node count must be <= {MAX_NODES}, got {10**15}$"):
        loads_edgelist(text)
    assert calls == (["check", "lines", "check"] if newline == "\n" else ["lines", "check"])


@pytest.mark.parametrize("text", ["0 1\n2 10000000\n", "0 1\n2 1000000000000000\n", "0 1\n+2 10000000\n"])
def test_node_ids_past_the_limit_name_the_line(text):
    bad = text.split()[-1]
    with pytest.raises(ValueError, match=rf"^line 2: node id {int(bad)} out of range \[0, {MAX_NODES}\)$"):
        loads_edgelist(text)


def test_load_edgelist_parses_through_the_module_function(tmp_path, monkeypatch):
    """load_edgelist looks loads_edgelist up in linkbomb.graph at call time,
    so a wrapper installed there (as the benchmark's tracer does) sees the parse."""
    seen = []
    parse = linkbomb.graph.loads_edgelist
    monkeypatch.setattr(linkbomb.graph, "loads_edgelist", lambda text: seen.append(text) or parse(text))
    path = tmp_path / "g.txt"
    path.write_text("# nodes 3\n0 1\n")
    assert load_edgelist(path) == DirectedMultigraph(3).add_edge(0, 1)
    assert seen == ["# nodes 3\n0 1\n"]
