import json
import random

import pytest

from ima import laws
from ima.automata import ANCHOR, TuringAutomaton, atomic_switch, reverse, sum_automata
from ima.dflow import (
    Config,
    DFlowAlgebra,
    DFlowAutomaton,
    GraphMachine,
    alternating_switch,
    atomic_switch_dflow,
    cell_automaton,
    decode_position,
    evaluate,
    expand_word,
    format_automaton,
    machine_states,
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
from ima.errors import IllFormedConfig, InvalidArity, InvalidSpec
from ima.graph import (
    DEFAULT_SORT,
    InterfaceLabel,
    SigmaGraph,
    SymbolLabel,
)
from ima.perm import Obj


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
    assert walk_closure(m) == evaluate(m).base.delta


def test_walks_match_evaluate_atomic_interpretation():
    a = atomic_switch_dflow(2)
    m = path_machine(a, 2)
    assert walk_closure(m) == evaluate(m).base.delta


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
    from ima.graph import LoopLabel

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
        for auto in (a, x, sum_automata(a, b), dflow_alg.sum(x, y)):
            assert round_trips(auto), format_automaton(auto)


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
