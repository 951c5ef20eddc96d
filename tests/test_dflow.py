import json
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from ima import automata, dflow, laws
from ima import graph as gr
from ima import term as tm
from ima.automata import (
    ANCHOR,
    AutomataAlgebra,
    TuringAutomaton,
    atomic_switch,
    reverse,
    sum_automata,
)
from ima.dflow import (
    Config,
    DFlowAlgebra,
    DFlowAutomaton,
    GraphMachine,
    TMSpec,
    alternating_switch,
    atomic_switch_dflow,
    cell_automaton,
    decode_position,
    evaluate,
    expand_word,
    format_automaton,
    pack_state,
    parse_automaton,
    position_of,
    reverse_machine,
    run_tm,
    step,
    tm_encode,
    unary_increment_tm,
    walk_closure,
    walks,
)
from ima.errors import (
    IllFormedConfig, ImaError, InvalidArity, InvalidSpec, RankMismatch, TooManyStates,
)
from ima.graph import (
    DEFAULT_SORT,
    InterfaceLabel,
    LoopLabel,
    SigmaGraph,
    SymbolLabel,
)
from ima.perm import Obj, Sort, identity as perm_identity
from sweeps import (
    connected_port_graphs,
    machine_states,
    random_machine,
    random_port_graph,
    switch_machine,
)


S = DEFAULT_SORT


def single_vertex_machine(auto: DFlowAutomaton) -> GraphMachine:
    n = auto.arity()
    vertices = {0: SymbolLabel("c", auto.sort_word)}
    edges = []
    for i in range(n):
        vertices[1 + i] = InterfaceLabel(1 + i, auto.sort_word.word[i])
        edges.append({(0, i), (1 + i, 0)})
    return GraphMachine(SigmaGraph(vertices, edges), auto.data, {"c": auto})


def path_machine(auto: DFlowAutomaton, cells: int) -> GraphMachine:
    """A chain of binary cells with both ends exposed."""
    assert auto.arity() == 2
    vertices = {}
    edges = []
    for i in range(cells):
        vertices[i] = SymbolLabel("c", auto.sort_word)
    vertices[cells] = InterfaceLabel(1, S)
    vertices[cells + 1] = InterfaceLabel(2, S)
    edges.append({(cells, 0), (0, 0)})
    for i in range(cells - 1):
        edges.append({(i, 1), (i + 1, 0)})
    edges.append({(cells - 1, 1), (cells + 1, 0)})
    return GraphMachine(SigmaGraph(vertices, edges), auto.data, {"c": auto})


# -- position encoding ---------------------------------------------------------

def test_position_round_trip():
    for port in (1, 2, 3):
        for d in (0, 1):
            assert decode_position(position_of(port, d, 2), 2) == (port, d)


def test_positions_identify_sums():
    # positions of D x (A+B) are those of D x A followed by D x B
    k = 2
    a, b = 2, 3  # arities
    left = [position_of(j, d, k) for j in range(1, a + 1) for d in range(k)]
    assert left == list(range(1, a * k + 1))
    right = [
        a * k + position_of(j, d, k) for j in range(1, b + 1) for d in range(k)
    ]
    assert right == list(range(a * k + 1, (a + b) * k + 1))


# -- alternating switch ------------------------------------------------------------

def expected_alternating_delta(n):
    def pos(d, j):
        return (j - 1) * 2 + d + 1

    delta = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                delta.add(((i, pos(0, j)), (j, pos(1, i))))
                delta.add(((i, pos(1, i)), (j, pos(0, j))))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for d in (0, 1):
                delta.add(((i, ANCHOR), (i, pos(d, j))))
                delta.add(((i, pos(d, j)), (i, ANCHOR)))
        delta.add(((i, ANCHOR), (i, ANCHOR)))
    if n == 1:
        delta.add(((1, pos(1, 1)), (1, pos(0, 1))))
    return delta


@pytest.mark.parametrize("n", [1, 2, 3])
def test_alternating_switch_clauses(n):
    assert set(alternating_switch(n).base.delta) == expected_alternating_delta(n)


def test_alternating_switch_sample():
    a = alternating_switch(2)
    # state 1, entry (0,2) -> exit (1,1), state 2
    assert ((1, a.position(2, 0)), (2, a.position(1, 1))) in a.base.delta
    # state 1, entry (0,1) is blocked: port 1 is positive, needs datum 1
    blocked = [
        t for (q, x), t in a.base.delta if q == 1 and x == a.position(1, 0)
    ]
    anchor_only = [t for t in blocked if t[1] == ANCHOR]
    assert blocked == anchor_only


def test_alternating_switch_counts():
    a3 = alternating_switch(3)
    non_anchor = [
        ((q, x), (r, y))
        for (q, x), (r, y) in a3.base.delta
        if x != ANCHOR and y != ANCHOR
    ]
    assert len(non_anchor) == 2 * (3 * 2)


def test_alternating_switch_arity():
    with pytest.raises(InvalidArity):
        alternating_switch(0)


# -- step -------------------------------------------------------------------------

def test_step_single_switch_flip():
    m = single_vertex_machine(alternating_switch(2))
    c = Config.make({0: 1}, ("port", 0, 1), 0)  # entering port 2 with 0
    out = step(m, c)
    # exits at port 1 with datum 1, crossing to interface 1; state flips to 2
    want = Config.make({0: 2}, ("iface", 1), 1)
    assert want in out
    # anchor diversion is also possible
    assert Config.make({0: 1}, ("anchor",), None) in out


def test_step_blocked_entry():
    m = single_vertex_machine(alternating_switch(2))
    c = Config.make({0: 1}, ("port", 0, 0), 0)  # positive port wants 1
    out = step(m, c)
    assert all(c2.locus == ("anchor",) for c2 in out)


def test_step_anchor_with_no_anchor_rules():
    spec = unary_increment_tm()
    m = tm_encode(spec, 2)
    locals_ = {0: "b", 1: "b"}
    assert step(m, Config.make(locals_, ("anchor",), None)) == set()


def test_step_rejects_bad_config():
    m = single_vertex_machine(alternating_switch(2))
    with pytest.raises(IllFormedConfig):
        step(m, Config.make({0: 9}, ("anchor",), None))
    with pytest.raises(IllFormedConfig):
        step(m, Config.make({0: 1}, ("iface", 7), 0))
    with pytest.raises(IllFormedConfig):
        step(m, Config.make({0: 1}, ("anchor",), 0))


# -- indexed step against the scanning step ------------------------------------------
#
# The scanning step that the indexed one replaced, kept only as a reference:
# it re-checks the configuration through dicts and sets and scans the
# vertex's whole local delta on every call.


def scanning_check_config(m: GraphMachine, c: Config):
    local = c.local_map()
    if set(local) != set(m.graph.internal_vertices()):
        raise IllFormedConfig("local state map does not cover internal vertices")
    for vid, q in local.items():
        if q not in m.local(vid).base.states:
            raise IllFormedConfig(f"state {q!r} unknown at vertex {vid}")
    kind = c.locus[0]
    if kind == "anchor":
        if c.datum is not None:
            raise IllFormedConfig("datum at the anchor")
    elif kind == "iface":
        if c.datum not in m.data:
            raise IllFormedConfig(f"datum {c.datum!r} not in machine data")
        if c.locus[1] not in m.graph.interface_vertices():
            raise IllFormedConfig(f"no interface {c.locus[1]}")
    elif kind == "port":
        if c.datum not in m.data:
            raise IllFormedConfig(f"datum {c.datum!r} not in machine data")
        _, vid, port = c.locus
        if vid not in set(m.graph.internal_vertices()):
            raise IllFormedConfig(f"vertex {vid} is not internal")
        if not 0 <= port < len(m.graph.ports_of(vid)):
            raise IllFormedConfig(f"vertex {vid} has no port {port}")
    else:
        raise IllFormedConfig(f"unknown locus {c.locus!r}")


def scanning_cross(m: GraphMachine, local, port, datum) -> Config:
    other = m.graph.partner(port)
    lab = m.graph.vertices[other[0]]
    if isinstance(lab, InterfaceLabel):
        return Config.make(local, ("iface", lab.serial), datum)
    return Config.make(local, ("port", other[0], other[1]), datum)


def scanning_step(m: GraphMachine, c: Config) -> set[Config]:
    scanning_check_config(m, c)
    local = c.local_map()
    out: set[Config] = set()
    kind = c.locus[0]
    if kind == "iface":
        vid = m.graph.interface_vertices()[c.locus[1]]
        out.add(scanning_cross(m, local, (vid, 0), c.datum))
        return out
    if kind == "port":
        _, vid, port = c.locus
        auto = m.local(vid)
        scanning_fire(m, local, vid, auto, auto.position(port + 1, c.datum), out)
        return out
    for vid in m.graph.internal_vertices():
        scanning_fire(m, local, vid, m.local(vid), ANCHOR, out)
    return out


def scanning_fire(m: GraphMachine, local, vid, auto: DFlowAutomaton, entry, out):
    for (q, x), (r, y) in auto.base.delta:
        if q != local[vid] or x != entry:
            continue
        nxt = dict(local)
        nxt[vid] = r
        if y == ANCHOR:
            out.add(Config.make(nxt, ("anchor",), None))
        else:
            out_port, d_idx = decode_position(y, len(auto.data))
            out.add(scanning_cross(m, nxt, (vid, out_port - 1), auto.data[d_idx]))


def differential_machines() -> list[GraphMachine]:
    """Random machines, switch machines on small connected port graphs and
    on graphs with wires and loop vertices, random Turing machines, and
    switch and random machines on :func:`featured_graph` and on a graph
    with no internal vertex."""
    rng = random.Random(20261019)
    machines = [random_machine(rng) for _ in range(40)]
    machines += [
        switch_machine(g, alternating)
        for g in connected_port_graphs(max_internal=3, max_iface=2, max_degree=3)
        for alternating in (False, True)
    ]
    for degrees in ([2], [3, 1], [2, 2], [3, 2, 1]):
        machines.append(switch_machine(switch_graph(rng, degrees), rng.random() < 0.5))
    machines += [tm_encode(random_tm_spec(rng), rng.randint(1, 4)) for _ in range(8)]
    g = featured_graph()
    machines += [switch_machine(g, False), switch_machine(g, True)]
    machines.append(GraphMachine(g, (0, 1), {
        name: DFlowAutomaton((0, 1), word, laws.random_automaton(rng, expand_word(word, 2), 3, 5))
        for name, word in (("c4", Obj((S,) * 4)), ("c3", Obj((S,) * 3)))
    }))
    wires = SigmaGraph(
        {0: InterfaceLabel(2, S), 1: InterfaceLabel(1, S), 2: LoopLabel(S)}, [{(0, 0), (1, 0)}]
    )
    machines.append(GraphMachine(wires, (0, 1), {}))
    return machines


def featured_graph() -> SigmaGraph:
    """Two vertices ``c4`` and ``c3``: a self-loop on the first, two
    parallel edges between them, an interface on the second, an
    interface-to-interface wire and a loop vertex."""
    vertices = {
        0: SymbolLabel("c4", Obj((S,) * 4)),
        1: SymbolLabel("c3", Obj((S,) * 3)),
        2: InterfaceLabel(1, S),
        3: InterfaceLabel(2, S),
        4: InterfaceLabel(3, S),
        5: LoopLabel(S),
    }
    edges = [
        {(0, 0), (0, 1)}, {(0, 2), (1, 0)}, {(0, 3), (1, 1)}, {(1, 2), (2, 0)}, {(3, 0), (4, 0)},
    ]
    return SigmaGraph(vertices, edges)


def all_configs(m: GraphMachine):
    """Every well-formed configuration of ``m``."""
    g = m.graph
    loci = [(("anchor",), None)]
    loci += [(("iface", serial), d) for serial in g.interface_vertices() for d in m.data]
    loci += [
        (("port", vid, port), d)
        for vid in g.internal_vertices()
        for port in range(len(g.ports_of(vid)))
        for d in m.data
    ]
    for local in machine_states(m):
        for locus, datum in loci:
            yield Config.make(local, locus, datum)


def malformed_configs(m: GraphMachine):
    """Configurations breaking each well-formedness rule in turn."""
    g = m.graph
    good = machine_states(m)[0]
    internal = g.internal_vertices()
    d = m.data[0]
    yield Config.make(good, ("anchor",), d)
    yield Config.make(good, ("iface", len(g.interface_vertices()) + 1), d)
    yield Config.make(good, ("iface", 1), "no datum")
    yield Config.make(good, ("port", max(g.vertices, default=0) + 1, 0), d)
    yield Config.make(good, ("nowhere",), d)
    yield Config.make({**good, max(g.vertices, default=0) + 1: 1}, ("anchor",), None)
    if internal:
        vid = internal[0]
        yield Config.make({**good, vid: "no such state"}, ("anchor",), None)
        yield Config.make({v: q for v, q in good.items() if v != vid}, ("anchor",), None)
        yield Config.make(good, ("port", vid, len(g.ports_of(vid))), d)
        yield Config.make(good, ("port", vid, -1), d)
        yield Config.make(good, ("port", vid, 0), "no datum")
    for vid, lab in g.vertices.items():
        if not isinstance(lab, SymbolLabel):
            yield Config.make(good, ("port", vid, 0), d)


def raised(stepper, m, c) -> str:
    with pytest.raises(IllFormedConfig) as err:
        stepper(m, c)
    return str(err.value)


def assert_same_steps(m: GraphMachine) -> int:
    """``step`` and ``scanning_step`` agree on every configuration of ``m``
    and raise the same message on malformed ones; returns how many
    well-formed configurations there were."""
    configs = 0
    for c in all_configs(m):
        assert step(m, c) == scanning_step(m, c), c
        configs += 1
    for c in malformed_configs(m):
        assert raised(step, m, c) == raised(scanning_step, m, c), c
    return configs


def test_indexed_step_equals_scanning_step():
    configs = 0
    for m in differential_machines():
        configs += assert_same_steps(m)
        ev = evaluate(m)
        assert walk_closure(m) == ev.base.delta
        assert ev.sort_word == m.graph.rank_word()
    assert configs > 20_000


def config_walk_closure(m: GraphMachine) -> frozenset:
    """The walk closure over ``Config``s that the numbered one replaced,
    kept only as a reference: one breadth-first search through ``step``
    from every start, each configuration stepped once."""
    cache: dict[Config, set[Config]] = {}

    def stepper(c: Config) -> set[Config]:
        if c not in cache:
            cache[c] = step(m, c)
        return cache[c]

    def end(c: Config) -> tuple:
        state = pack_state(m, c.local_map())
        if c.locus[0] == "anchor":
            return state, ANCHOR
        return state, position_of(c.locus[1], m.data.index(c.datum), len(m.data))

    out = set()
    for local in machine_states(m):
        starts = [Config.make(local, ("anchor",), None)]
        starts += [
            Config.make(local, ("iface", i), d) for i in m.graph.interface_vertices() for d in m.data
        ]
        for s0 in starts:
            frontier, seen = [s0], set()
            while frontier:
                nxt = []
                for c in frontier:
                    for c2 in stepper(c):
                        if c2.locus[0] in ("iface", "anchor"):
                            out.add((end(s0), end(c2)))
                        elif c2 not in seen:
                            seen.add(c2)
                            nxt.append(c2)
                frontier = nxt
    return frozenset(out)


def test_walk_closure_equals_config_oracle():
    seen = set()
    machines = differential_machines()
    # the largest shape of the benchmark's walks pool: five cubic switches,
    # atomic and alternating, 3**5 states each
    g = switch_graph(random.Random(20261024), [3] * 5)
    cubic = [switch_machine(g, False), switch_machine(g, True)]
    assert [m.step_index.size for m in cubic] == [243, 243]
    for m in machines + cubic:
        seen |= graph_features(m.graph)
        assert walk_closure(m) == config_walk_closure(m)
    assert seen >= {"no internal vertex", "loop vertex", "wire", "self-loop", "parallel edges"}


def test_walk_closure_does_not_step(monkeypatch):
    # walk_closure runs on configuration numbers; walks still steps Configs
    calls = []
    real_step = dflow.step

    def counting(m, c):
        calls.append(c)
        return real_step(m, c)

    monkeypatch.setattr("ima.dflow.step", counting)
    m = switch_machine(switch_graph(random.Random(20261022), [3] * 5), True)
    assert len(m.graph.internal_vertices()) == 5
    walk_closure(m)
    assert len(calls) == 0
    walks(m, {v: 1 for v in m.graph.internal_vertices()}, ANCHOR, ANCHOR)
    assert len(calls) > 0


def test_repeated_data_are_rejected():
    # the operational view would enter a repeated datum at one position
    # only, while the algebra keeps both, so walks and evaluate disagree
    word = Obj((S, S))
    base = laws.random_automaton(random.Random(20261020), expand_word(word, 2), density=5)
    with pytest.raises(ValueError, match="repeat"):
        DFlowAutomaton((0, 0), word, base)


def test_base_interface_must_be_the_expanded_sort_word():
    # a base of the right length but of other sorts used to pass here and
    # fail only at the next reindex or trace
    base = TuringAutomaton(Obj.parse("BBAA"), (0,), set())
    with pytest.raises(ValueError, match="does not match 2 data over AB"):
        DFlowAutomaton((0, 1), Obj.parse("AB"), base)
    assert DFlowAutomaton((0, 1), Obj.parse("BA"), base).arity() == 2


def test_dflow_trace_and_reindex_reject_wrong_ranks():
    alg = DFlowAlgebra((0, 1))
    x = alg.identity(Obj.parse("AB"))
    with pytest.raises(RankMismatch):
        alg.trace(Obj.parse("B"), x)
    with pytest.raises(RankMismatch):
        alg.reindex(x, perm_identity(Obj.parse("BAAB")))


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_spine_sum_of_automata_is_the_binary_left_fold(seed):
    # the spine sum folds left, so product states nest as ((q1, q2), q3)
    rng = random.Random(seed)
    a, b, c = (laws.random_automaton(rng, laws.random_obj(rng)) for _ in range(3))
    assert AutomataAlgebra().sum((a, b, c)) == sum_automata(sum_automata(a, b), c)
    alg = DFlowAlgebra(laws.DATA)
    x, y, z = (laws.random_dflow(rng, laws.random_obj(rng)) for _ in range(3))
    assert alg.sum((x, y, z)) == alg.sum((alg.sum((x, y)), z))


def test_step_index_is_built_once():
    m = path_machine(alternating_switch(2), 3)
    index = m.step_index
    walk_closure(m)
    assert m.step_index is index


# -- evaluate and the oracle ---------------------------------------------------------

def test_evaluate_single_vertex_is_interpretation():
    a = alternating_switch(2)
    m = single_vertex_machine(a)
    got = evaluate(m)
    assert got.base.delta == a.base.delta
    assert got.base.states == a.base.states


def test_evaluate_empty_graph():
    g = SigmaGraph({}, [])
    m = GraphMachine(g, (0, 1), {})
    got = evaluate(m)
    assert got.sort_word == Obj.parse("()")
    assert not got.base.delta


def test_walks_on_single_vertex_reproduce_delta():
    a = alternating_switch(2)
    m = single_vertex_machine(a)
    got = walk_closure(m)
    assert got == evaluate(m).base.delta


def test_walks_match_evaluate_on_path_of_two_switches():
    a = alternating_switch(2)
    m = path_machine(a, 2)
    ev = evaluate(m)
    assert walk_closure(m) == ev.base.delta
    assert ev.sort_word == m.graph.rank_word()


def test_walks_match_evaluate_atomic_interpretation():
    a = atomic_switch_dflow(2)
    m = path_machine(a, 2)
    ev = evaluate(m)
    assert walk_closure(m) == ev.base.delta
    assert ev.sort_word == m.graph.rank_word()


def test_walks_from_anchor_only_pairs():
    # a machine whose only anchor rules are self loops: anchor walks exist
    base = TuringAutomaton(
        expand_word(Obj((S, S)), 1),
        frozenset({"q"}),
        frozenset({(("q", ANCHOR), ("q", ANCHOR))}),
    )
    auto = DFlowAutomaton((0,), Obj((S, S)), base)
    m = path_machine(auto, 2)
    start = {0: "q", 1: "q"}
    got = walks(m, start, ANCHOR, ANCHOR)
    packed = pack_state(m, start)
    assert got == {((packed, ANCHOR), (packed, ANCHOR))}
    assert walks(m, start, ANCHOR, 1) == set()


def test_walks_direction_specific():
    m = path_machine(alternating_switch(2), 1)
    # positive edge toward interface 1: entering from 1 with datum 1 flips
    start = {0: 1}
    got = walks(m, start, 1, 2)
    packed0 = pack_state(m, {0: 1})
    packed1 = pack_state(m, {0: 2})
    k = len(m.data)
    enter = position_of(1, 1, k)  # datum 1 at interface 1
    exit_ = position_of(2, 0, k)  # datum 0 at interface 2
    assert ((packed0, enter), (packed1, exit_)) in got


# -- state packing ---------------------------------------------------------------------

def test_walks_match_on_machine_with_wire_and_loop_vertex():
    # graph: one cell, one direct interface-to-interface wire, one loop
    # vertex; the oracle equality must hold on all of it
    a = alternating_switch(2)
    vertices = {
        0: SymbolLabel("c", a.sort_word),
        1: InterfaceLabel(1, S),
        2: InterfaceLabel(2, S),
        3: InterfaceLabel(3, S),
        4: InterfaceLabel(4, S),
        5: LoopLabel(S),
    }
    edges = [
        {(1, 0), (0, 0)},
        {(0, 1), (2, 0)},
        {(3, 0), (4, 0)},  # plain wire
    ]
    m = GraphMachine(SigmaGraph(vertices, edges), a.data, {"c": a})
    ev = evaluate(m)
    assert walk_closure(m) == ev.base.delta
    assert ev.sort_word == m.graph.rank_word()
    # the wire shows up as identity transitions between interfaces 3 and 4
    k = len(m.data)
    packed = pack_state(m, {0: 1})
    assert ((packed, position_of(3, 0, k)), (packed, position_of(4, 0, k))) in ev.base.delta


def test_machine_requires_interpretation():
    from ima.errors import MissingSymbol

    a = alternating_switch(2)
    g = SigmaGraph(
        {0: SymbolLabel("c", a.sort_word), 1: InterfaceLabel(1, S), 2: InterfaceLabel(2, S)},
        [{(1, 0), (0, 0)}, {(0, 1), (2, 0)}],
    )
    with pytest.raises(MissingSymbol):
        GraphMachine(g, (0, 1), {})


def test_machine_automata_carry_the_vertices_port_words():
    # the arity alone let a switch of ports 11 stand for a vertex of rank AA
    a_sort = Sort("A")
    g = SigmaGraph(
        {0: SymbolLabel("c", Obj.parse("AA")), 1: InterfaceLabel(1, a_sort),
         2: InterfaceLabel(2, a_sort)},
        [{(1, 0), (0, 0)}, {(0, 1), (2, 0)}],
    )
    with pytest.raises(ValueError, match=r"^automaton for 'c' has port word 11, vertex has rank AA$"):
        GraphMachine(g, (0, 1), {"c": alternating_switch(2)})
    m = GraphMachine(g, (0, 1), {"c": alternating_switch(2, a_sort)})
    assert evaluate(m).sort_word == g.rank_word()


def ring_machine(cells: int) -> GraphMachine:
    """``cells`` alternating switches in a closed ring: 2**cells global states."""
    vertices = {i: SymbolLabel("c", Obj((S, S))) for i in range(cells)}
    edges = [{(i, 1), ((i + 1) % cells, 0)} for i in range(cells)]
    return GraphMachine(SigmaGraph(vertices, edges), (0, 1), {"c": alternating_switch(2)})


def test_too_many_states_are_refused_before_anything_is_built():
    m = ring_machine(40)
    for run in (evaluate, walk_closure):
        start = time.perf_counter()
        with pytest.raises(TooManyStates, match=f"^the machine has {2**40} global states, "
                                                f"more than the bound {dflow.MAX_STATES}$"):
            run(m)
        assert time.perf_counter() - start < 0.5


def test_a_machine_at_the_state_bound_evaluates(monkeypatch):
    m = path_machine(alternating_switch(2), 3)  # 8 global states
    monkeypatch.setattr(dflow, "MAX_STATES", 8)
    assert evaluate(m).base.delta == walk_closure(m)
    monkeypatch.setattr(dflow, "MAX_STATES", 7)
    for run in (evaluate, walk_closure):
        with pytest.raises(TooManyStates, match="has 8 global states, more than the bound 7"):
            run(m)


def test_eval_identity_term_is_dflow_identity():
    # the identity term evaluates to the identity automaton on D x A
    from ima import term as tm
    from ima.automata import identity_automaton

    a = Obj.parse("AA")
    alg = DFlowAlgebra((0, 1))
    got = tm.evaluate(tm.Id(a), tm.Interpretation(alg, {}))
    assert got.base.delta == identity_automaton(expand_word(a, 2)).delta


def test_pack_state_matches_evaluate_states():
    m = path_machine(alternating_switch(2), 3)
    ev = evaluate(m)
    packed = {pack_state(m, loc) for loc in machine_states(m)}
    assert packed == set(ev.base.states)


def test_step_index_numbers_states_as_evaluate():
    # state number s of the step index is state number s of evaluate(m).base
    for m in differential_machines():
        ix = m.step_index
        assert [ix.name(s) for s in range(ix.size)] == list(evaluate(m).base.names)
        for local in machine_states(m):
            assignment = tuple(sorted(local.items()))
            s = dflow._state_number(ix, assignment)
            assert ix.local(s) == assignment
            assert pack_state(m, local) == ix.name(s)


def test_walks_and_pack_state_do_not_replan(monkeypatch):
    m = switch_machine(switch_graph(random.Random(20261023), [3, 3, 2]), True)
    m.step_index
    calls = []
    real_plan = gr.decomposition_plan

    def counting(g):
        calls.append(g)
        return real_plan(g)

    monkeypatch.setattr("ima.graph.decomposition_plan", counting)
    local = {v: 1 for v in m.graph.internal_vertices()}
    for _ in range(3):
        assert walks(m, local, ANCHOR, ANCHOR)
        pack_state(m, local)
    assert calls == []


def test_pack_state_rejects_malformed_maps():
    m = path_machine(alternating_switch(2), 2)
    with pytest.raises(IllFormedConfig, match="cover"):
        pack_state(m, {0: 1})
    with pytest.raises(IllFormedConfig, match="cover"):
        pack_state(m, {0: 1, 1: 1, 5: 1})
    with pytest.raises(IllFormedConfig, match="unknown"):
        pack_state(m, {0: 1, 1: 7})
    with pytest.raises(IllFormedConfig, match="unknown"):
        pack_state(m, {0: 1, 1: [1]})


# -- Turing machine encoding --------------------------------------------------------------

def test_cell_automaton_rule_translation():
    spec = unary_increment_tm()
    cell = cell_automaton(spec)
    # (s,1) -> (s,1,R): datum s enters left, leaves right
    assert (("1", cell.position(1, "s")), ("1", cell.position(2, "s"))) in cell.base.delta
    # writing rule (s,b) -> (h,1,L)
    assert (("b", cell.position(1, "s")), ("1", cell.position(1, "h"))) in cell.base.delta
    # halting drains leftward unchanged
    assert (("1", cell.position(2, "h")), ("1", cell.position(1, "h"))) in cell.base.delta


def test_tm_machine_runs_like_reference():
    spec = unary_increment_tm()
    tape_len = 4
    m = tm_encode(spec, tape_len)
    ev = evaluate(m)
    pack = lambda tape: pack_state(m, dict(enumerate(tape)))  # noqa: E731
    k = len(m.data)
    entry = 2 * (tape_len - 1) * 0 + position_of(1, m.data.index("s"), k)
    exit_h = position_of(1, m.data.index("h"), k)
    for ones in range(0, 3):
        tape = ["1"] * ones + ["b"] * (tape_len - ones)
        want_tape, want_state = run_tm(spec, tape)
        trans = ((pack(tape), entry), (pack(want_tape), exit_h))
        assert trans in ev.base.delta


def test_tm_stepwise_bisimulation():
    # running the machine config by config mirrors the reference machine
    # move for move while the head stays on the tape
    spec = unary_increment_tm()
    tape_len = 5
    m = tm_encode(spec, tape_len)
    for ones in range(0, 4):
        tape = ["1"] * ones + ["b"] * (tape_len - ones)
        ref_tape = list(tape)
        ref_head, ref_state = 0, "s"
        c = Config.make(dict(enumerate(tape)), ("iface", 1), "s")
        (c,) = step(m, c)  # cross onto the first cell
        while True:
            assert c.locus == ("port", ref_head, 0) or c.locus == (
                "port",
                ref_head,
                1,
            )
            assert c.datum == ref_state
            assert [c.local_map()[i] for i in range(tape_len)] == ref_tape
            if ref_state in spec.halting:
                break
            ref_state, ref_tape[ref_head], move = spec.rules[
                (ref_state, ref_tape[ref_head])
            ]
            ref_head += 1 if move == "R" else -1
            (c,) = step(m, c)
            if ref_head < 0 or ref_state in spec.halting:
                break


def test_reverse_commutes_with_encoding():
    spec = unary_increment_tm()
    m = tm_encode(spec, 3)
    lhs = reverse(evaluate(m).base)
    rhs = evaluate(reverse_machine(m)).base
    assert lhs.delta == rhs.delta


def test_tm_spec_validation():
    with pytest.raises(InvalidSpec):
        TMSpec = type(unary_increment_tm())
        TMSpec(
            states=("s",),
            tape_alphabet=("1",),
            blank="b",
            rules={},
            initial="s",
            halting=frozenset(),
        )


def test_run_tm_out_of_bounds():
    spec = unary_increment_tm()
    with pytest.raises(InvalidSpec):
        run_tm(spec, ["1", "1"])  # never sees a blank before the edge


# -- evaluation order ------------------------------------------------------------


def star_fold(m: GraphMachine) -> DFlowAutomaton:
    """The machine's star decomposition evaluated as it stands: all atoms
    summed, then one indexing and one trace over every internal edge."""
    interp = tm.Interpretation(DFlowAlgebra(m.data), m.omega)
    return tm.evaluate(gr.decompose(m.graph), interp)


def scanner_tm() -> TMSpec:
    """One tape symbol: the head walks right over every cell."""
    return TMSpec(
        states=("s", "h"),
        tape_alphabet=("b",),
        blank="b",
        rules={("s", "b"): ("s", "b", "R")},
        initial="s",
        halting=frozenset({"h"}),
    )


def random_tm_spec(rng: random.Random) -> TMSpec:
    working = ("q0", "q1")[: rng.randint(1, 2)]
    alphabet = ("b", "1", "2")[: rng.randint(1, 3)]
    rules = {
        (q, g): (rng.choice(working + ("h",)), rng.choice(alphabet), rng.choice("LR"))
        for q in working
        for g in alphabet
    }
    return TMSpec(working + ("h",), alphabet, "b", rules, "q0", frozenset({"h"}))


def switch_graph(rng: random.Random, degrees) -> SigmaGraph:
    """Single-sorted, one ``c<d>`` vertex per degree d, 0-3 interfaces (one
    more or fewer when the port count is odd), at most one loop vertex."""
    n_if = rng.randint(0, 3)
    if (sum(degrees) + n_if) % 2:
        n_if += -1 if n_if == 3 else 1
    ranks = [(f"c{d}", Obj((S,) * d)) for d in degrees]
    return random_port_graph(rng, ranks, [S] * n_if, [S] * rng.randint(0, 1))


def graph_features(g: SigmaGraph) -> set[str]:
    out = set()
    internal = set(g.internal_vertices())
    if not internal:
        out.add("no internal vertex")
    if g.loop_vertices():
        out.add("loop vertex")
    pairs = []
    for e in g.edges:
        (a, _), (b, _) = sorted(e)
        if a not in internal and b not in internal:
            out.add("wire")
        if a == b:
            out.add("self-loop")
        pairs.append((a, b))
    if len(pairs) != len(set(pairs)):
        out.add("parallel edges")
    if list(g.interface_vertices().values()) != sorted(g.interface_vertices().values()):
        out.add("serials out of vertex order")
    return out


def test_evaluate_equals_star_fold():
    rng = random.Random(20261018)
    machines = [tm_encode(unary_increment_tm(), n) for n in range(1, 6)]
    machines += [tm_encode(scanner_tm(), n) for n in (1, 4)]
    machines += [tm_encode(random_tm_spec(rng), rng.randint(2, 4)) for _ in range(6)]
    machines += [reverse_machine(tm_encode(unary_increment_tm(), 3))]
    for k in (2, 2, 3, 3, 4):
        g = switch_graph(rng, [3] * k)
        machines += [switch_machine(g, True), switch_machine(g, False)]
    for _ in range(40):
        g = switch_graph(rng, [rng.randint(1, 3) for _ in range(rng.randint(0, 3))])
        machines.append(switch_machine(g, rng.random() < 0.5))
    machines += [random_machine(rng) for _ in range(10)]
    seen = set()
    for m in machines:
        seen |= graph_features(m.graph)
        assert evaluate(m) == star_fold(m)
    assert seen == {
        "no internal vertex", "loop vertex", "wire", "self-loop",
        "parallel edges", "serials out of vertex order",
    }


def test_evaluate_deep_tape(monkeypatch):
    # about three term levels per cell, so the term walkers must not
    # recurse; a trace wider than two cells' ports fails at once instead
    # of building a table over every port of the tape
    def narrow(t, w, *rest):
        assert len(t.iface) <= 8, f"trace over {len(t.iface)} positions"
        return automata.trace_automaton(t, w, *rest)

    monkeypatch.setattr("ima.dflow.trace_automaton", narrow)
    m = tm_encode(scanner_tm(), 600)
    ev = evaluate(m)
    assert ev.base.delta == walk_closure(m)
    assert ev.sort_word == m.graph.rank_word()


def test_evaluate_thousand_cell_tape():
    # product states nest once per cell, and comparing or sorting them
    # recurses as deep, so only sizes and position pairs are compared
    def shape(m):
        got = evaluate(m).base
        return len(got.states), len(got.delta), {(x, y) for (_, x), (_, y) in got.delta}

    assert shape(tm_encode(scanner_tm(), 1000)) == shape(tm_encode(scanner_tm(), 5))


def test_trace_width_does_not_grow_with_tape(monkeypatch):
    # the data-flow algebra calls trace_automaton through its own binding
    widest = []

    def spy(t, w, *rest):
        widest[-1] = max(widest[-1], len(t.iface))
        return automata.trace_automaton(t, w, *rest)

    monkeypatch.setattr("ima.dflow.trace_automaton", spy)
    for n in (4, 8):
        widest.append(0)
        evaluate(tm_encode(unary_increment_tm(), n))
    assert widest[0] == widest[1] > 0


# -- file format ----------------------------------------------------------------


def round_trips(a) -> bool:
    return parse_automaton(format_automaton(a)) == a


def test_file_round_trip_named_automata():
    tm_auto = evaluate(tm_encode(unary_increment_tm(), 4))
    assert all(isinstance(q, tuple) for q in tm_auto.base.states)
    plain_sum = sum_automata(atomic_switch(2), atomic_switch(3))
    for a in (
        tm_auto,
        alternating_switch(3),
        atomic_switch_dflow(2),
        atomic_switch(3),
        plain_sum,
    ):
        assert round_trips(a), a


def test_file_round_trip_random_automata():
    rng = random.Random(11)
    dflow_alg = DFlowAlgebra(laws.DATA)
    for _ in range(150):
        w, v = laws.random_obj(rng, 3), laws.random_obj(rng, 2)
        a, b = laws.random_automaton(rng, w), laws.random_automaton(rng, v)
        x, y = laws.random_dflow(rng, w), laws.random_dflow(rng, v)
        for auto in (a, x, sum_automata(a, b), dflow_alg.sum((x, y))):
            assert round_trips(auto), format_automaton(auto)


def test_file_round_trip_digit_and_underscore_sorts():
    word = Obj.parse("1_9")
    plain = TuringAutomaton(word, (0,), {((0, 1), (0, 3)), ((0, ANCHOR), (0, 2))})
    base = laws.random_automaton(random.Random(3), expand_word(word, 2))
    flow = DFlowAutomaton((0, 1), word, base)
    for a in (plain, flow):
        assert round_trips(a), format_automaton(a)


def sweep_writer_limit(frames):
    """Below ``frames`` more frames of stack: find the writer's limit L,
    the first depth of a one-state automaton's state that
    ``format_automaton`` refuses; from L - 5 to L + 5, check that every
    text it writes reads back equal, and that the reader refuses the
    automaton's text from L on.  Writer and reader are called from this
    one frame, so both see the same stack."""
    if frames:
        return sweep_writer_limit(frames - 1)

    def auto(depth):
        q = 0
        for _ in range(depth):
            q = (q,)
        return TuringAutomaton(Obj.parse("A"), (q,), {((q, 1), (q, ANCHOR))})

    ok, limit = 0, sys.getrecursionlimit()
    while limit - ok > 1:
        mid = (ok + limit) // 2
        try:
            format_automaton(auto(mid))
            ok = mid
        except ImaError:
            limit = mid
    for depth in range(limit - 5, limit + 6):
        a = auto(depth)
        if depth < limit:
            assert parse_automaton(format_automaton(a)) == a, depth
            continue
        with pytest.raises(ImaError, match="nested too deeply"):
            format_automaton(a)
        q = "[" * depth + "0" + "]" * depth
        text = f'{{"interface": "A", "states": [{q}], "transitions": [[{q}, 1, {q}, "*"]]}}'
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_automaton(text)


@pytest.mark.parametrize("frames", [0, 1])
def test_writer_and_reader_stop_at_one_depth(frames):
    # two frames per level of nesting: sweep both parities of the stack
    sweep_writer_limit(frames)


def test_automaton_of_sorts_that_print_as_the_unit_cannot_be_built():
    # ``(`` then ``)`` would print as ``()`` and read back as the unit
    with pytest.raises(ValueError, match="is not one letter"):
        TuringAutomaton(Obj((Sort("("), Sort(")"))), (0,), set())


@pytest.mark.parametrize("iface", [["a", "b"], {"a": 1}, 5], ids=["list", "object", "number"])
def test_parse_automaton_rejects_an_interface_that_is_not_a_string(iface):
    doc = {"interface": iface, "states": [0], "transitions": []}
    message = f"malformed automaton file: interface {json.dumps(iface)} is not a string"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_automaton(json.dumps(doc))


@pytest.mark.parametrize(
    "change, what",
    [
        ({"states": "ab"}, 'states "ab" is not an array'),
        ({"states": {"a": 1}}, 'states {"a": 1} is not an array'),
        ({"transitions": {}}, "transitions {} is not an array"),
        ({"data": "01"}, 'data "01" is not an array'),
        ({"transitions": ["0101"]}, 'transition "0101" is not an array of four'),
        ({"transitions": [[0, 1, 0]]}, "transition [0, 1, 0] is not an array of four"),
    ],
    ids=["states-string", "states-object", "transitions-object", "data-string",
         "transition-string", "transition-of-three"],
)
def test_parse_automaton_rejects_a_part_that_is_not_an_array(change, what):
    doc = {"interface": "1", "states": [0], "transitions": [], **change}
    with pytest.raises(ValueError, match=re.escape(f"malformed automaton file: {what}")):
        parse_automaton(json.dumps(doc))


def test_file_format_shapes():
    plain = json.loads(format_automaton(atomic_switch(2)))
    assert plain["interface"] == "11" and "data" not in plain
    assert all(isinstance(x, (int, str)) for _, x, _, _ in plain["transitions"])
    flow = json.loads(format_automaton(alternating_switch(2)))
    assert flow["data"] == [0, 1] and flow["interface"] == "11"
    assert [1, [1, 1], 2, [0, 2]] in flow["transitions"]
    assert [1, "*", 1, "*"] in flow["transitions"]
    summed = json.loads(format_automaton(sum_automata(atomic_switch(1), atomic_switch(1))))
    assert summed["states"] == [[1, 1]]
