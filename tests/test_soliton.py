import pytest

from ima.automata import ANCHOR, equivalent_automata
from ima.dflow import evaluate, walk_closure
from ima.errors import BadLabel, NotInternalEdge
from ima.graph import DEFAULT_SORT, InterfaceLabel, SigmaGraph, SymbolLabel
from ima.perm import Obj
from ima.soliton import (
    edge_consistent,
    enumerate_pims,
    is_pim,
    make_presoliton,
    parse_plain_graph,
    parse_plain_state,
    positive_edges,
    relabel_for_soliton,
    soliton_walks,
    walk_data,
)

S = DEFAULT_SORT


def graph_of(text):
    g, ids = parse_plain_graph(text)
    return make_presoliton(g), ids


PATH = "interfaces a b\nedge a u\nedge u v\nedge v b\n"


# -- construction -----------------------------------------------------------------

def test_single_c1_vertex():
    p, ids = graph_of("interfaces a\nedge a u\n")
    auto = evaluate(p.machine)
    from ima.dflow import alternating_switch

    assert equivalent_automata(auto.base, alternating_switch(1).base)


def test_path_of_two_cells():
    p, ids = graph_of(PATH)
    assert len(p.graph.internal_vertices()) == 2
    assert {p.graph.vertices[v].name for v in p.graph.internal_vertices()} == {"c2"}


def test_bad_label_rejected():
    g = SigmaGraph(
        {
            0: SymbolLabel("h", Obj((S,))),
            1: InterfaceLabel(1, S),
        },
        [{(0, 0), (1, 0)}],
    )
    with pytest.raises(BadLabel):
        make_presoliton(g)
    fixed = relabel_for_soliton(g)
    make_presoliton(fixed)


# -- consistency and matchings ---------------------------------------------------

def test_edge_signs_on_path():
    p, ids = graph_of(PATH)
    u, v = ids["u"], ids["v"]
    mid = next(
        e
        for e in p.graph.edges
        if {w for w, _ in e} == {u, v}
    )
    # selected at both ends: consistent (positive)
    port_u = next(i for w, i in mid if w == u)
    port_v = next(i for w, i in mid if w == v)
    other_u = 1 - port_u
    other_v = 1 - port_v
    assert edge_consistent(p, {u: port_u, v: port_v}, mid)
    # selected at exactly one end: inconsistent
    assert not edge_consistent(p, {u: port_u, v: other_v}, mid)
    # selected at neither end: consistent (negative)
    assert edge_consistent(p, {u: other_u, v: other_v}, mid)


def test_edge_consistent_rejects_interface_edge():
    p, ids = graph_of(PATH)
    u = ids["u"]
    iface_edge = next(
        e for e in p.graph.edges if any(w == ids["a"] for w, _ in e)
    )
    with pytest.raises(NotInternalEdge):
        edge_consistent(p, {u: 0}, iface_edge)


def test_self_loop_signs():
    # one vertex with a self loop and a pendant interface: c3
    text = "interfaces a\nedge a u\nedge u u\n"
    p, ids = graph_of(text)
    u = ids["u"]
    loop = next(e for e in p.graph.edges if {w for w, _ in e} == {u})
    i, j = sorted(port for _, port in loop)
    assert edge_consistent(p, {u: 0}, loop)  # port 0 is the interface edge
    assert not edge_consistent(p, {u: i}, loop)
    assert not edge_consistent(p, {u: j}, loop)


def test_pim_on_path_middle_edge():
    p, ids = graph_of(PATH)
    u, v = ids["u"], ids["v"]
    # the middle edge uses port 1 of u (its second edge) and port 0 of v
    assert is_pim(p, {u: 1, v: 0})


def test_pim_on_path_interface_edges():
    p, ids = graph_of(PATH)
    u, v = ids["u"], ids["v"]
    q = {u: 0, v: 1}  # both select their interface edges
    assert is_pim(p, q)
    assert len(positive_edges(p, q)) == 2


def test_not_pim_when_inconsistent():
    p, ids = graph_of(PATH)
    u, v = ids["u"], ids["v"]
    assert not is_pim(p, {u: 1, v: 1})


def test_enumerate_pims_path():
    p, ids = graph_of(PATH)
    assert len(enumerate_pims(p)) == 2


def test_pim_requires_cover():
    # a triangle with no interfaces admits no perfect matching
    text = "edge u v\nedge v w\nedge w u\n"
    p, _ = graph_of(text)
    assert enumerate_pims(p) == []


def test_closed_cycle_has_pims():
    text = "edge u v\nedge v u\n"  # two vertices, double edge
    p, _ = graph_of(text)
    assert len(enumerate_pims(p)) == 2


# -- walks --------------------------------------------------------------------------

def test_walk_through_single_cell_flips_state():
    p, ids = graph_of("interfaces a b\nedge a u\nedge u b\n")
    u = ids["u"]
    q = {u: 0}  # positive edge toward interface a
    found = soliton_walks(p, q, 1, 2, max_steps=4)
    assert found
    for walk, final in found:
        assert dict(final) == {u: 1}
        data = walk_data(walk)
        assert data[0] == 1  # entered on the positive edge with datum 1
        assert len(walk) == 3  # enter, fire, exit


def test_blocked_walk_no_results():
    p, ids = graph_of("interfaces a b\nedge a u\nedge u b\n")
    u = ids["u"]
    q = {u: 1}  # positive edge toward b; entering at a needs datum 0 only
    walks_found = soliton_walks(p, q, 1, 2, max_steps=4)
    finals = {dict(f)[u] for _, f in walks_found}
    assert finals == {0}
    # entering with the wrong datum contributes nothing: every found walk
    # entered with datum 0
    assert all(walk_data(w)[0] == 0 for w, _ in walks_found)


def test_walk_data_alternates():
    p, ids = graph_of(PATH)
    u, v = ids["u"], ids["v"]
    q = {u: 1, v: 0}  # middle edge positive
    for walk, final in soliton_walks(p, q, 1, 2, max_steps=8):
        data = walk_data(walk)
        assert all(abs(a - b) == 1 for a, b in zip(data, data[1:]))
        assert is_pim(p, dict(final))


def test_anchor_walk_on_closed_cycle_returns():
    p, _ = graph_of("edge u v\nedge v u\n")
    for q in enumerate_pims(p):
        found = soliton_walks(p, q, ANCHOR, ANCHOR, max_steps=10)
        assert found
    # and the anchor row of the machine automaton only reaches the anchor
    ev = evaluate(p.machine)
    for (s, x), (t, y) in ev.base.delta:
        if x == ANCHOR:
            assert y == ANCHOR


def test_walks_agree_with_machine_relation():
    p, ids = graph_of(PATH)
    ev = evaluate(p.machine)
    assert walk_closure(p.machine) == ev.base.delta
    assert ev.sort_word == p.machine.graph.rank_word()


def test_alternation_across_small_sweep():
    # data alternate along every walk from a PIM, over a sample of small
    # connected graphs
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from sweeps import connected_port_graphs

    checked = 0
    for g in connected_port_graphs(max_internal=3, max_iface=2, max_degree=3):
        ifaces = sorted(g.interface_vertices())
        if not ifaces:
            continue
        p = make_presoliton(g)
        for q in enumerate_pims(p):
            for i in ifaces:
                for j in ifaces:
                    for walk, final in soliton_walks(p, q, i, j, max_steps=8):
                        data = walk_data(walk)
                        assert all(
                            abs(a - b) == 1 for a, b in zip(data, data[1:])
                        ), (walk, data)
                        checked += 1
    assert checked > 100


def test_circular_symmetry_of_port_order():
    # rotating the port order of an internal vertex leaves the machine
    # automaton equivalent
    text = "interfaces a b c\nedge a u\nedge b u\nedge c u\n"
    g, ids = parse_plain_graph(text)
    u = ids["u"]
    rotated_edges = []
    for e in g.edges:
        e2 = {( (vid, (i + 1) % 3) if vid == u else (vid, i)) for vid, i in e}
        rotated_edges.append(e2)
    g2 = SigmaGraph(dict(g.vertices), rotated_edges)
    a1 = evaluate(make_presoliton(g).machine)
    a2 = evaluate(make_presoliton(g2).machine)
    assert equivalent_automata(a1.base, a2.base)


# -- plain formats --------------------------------------------------------------------

def test_parse_plain_state_by_neighbor():
    g, ids = parse_plain_graph(PATH)
    q = parse_plain_state("u -> v\nv -> u\n", g, ids)
    p = make_presoliton(g)
    assert is_pim(p, q)


def test_parse_plain_state_missing_vertex():
    g, ids = parse_plain_graph(PATH)
    with pytest.raises(ValueError):
        parse_plain_state("u 1\n", g, ids)


# -- is_pim against its definition ------------------------------------------------


def defined_is_pim(p, q):
    """``is_pim`` as the definition reads: every internal edge consistent,
    and the positive edges a matching covering all internal vertices."""
    g = p.graph

    def internal(v):
        return isinstance(g.vertices[v], SymbolLabel)

    for e in g.edges:
        (a, _), (b, _) = sorted(e)
        if internal(a) and internal(b):
            if not edge_consistent(p, q, e):
                return False
    covered: set[int] = set()
    for e in positive_edges(p, q):
        ends = [v for v, _ in e if internal(v)]
        for v in ends:
            if v in covered:
                return False  # two positive edges share a vertex
        covered.update(ends)
    return covered == set(g.internal_vertices())


def test_is_pim_equals_its_definition_on_a_sweep():
    from sweeps import connected_port_graphs

    from ima.soliton import states_of

    verdicts = set()
    for g in connected_port_graphs(max_internal=3, max_iface=2, max_degree=4, dedupe=False):
        p = make_presoliton(g)
        for q in states_of(p):
            want = defined_is_pim(p, q)
            assert is_pim(p, q) == want, (g.edges, q)
            verdicts.add(want)
    assert verdicts == {False, True}
