"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import itertools
import random
import time
from contextlib import contextmanager

from sweeps import connected_port_graphs, random_machine, switch_machine
from test_automata import trace_in_order

from ima import laws
from ima import soliton as sol
from ima import term as tm
from ima.automata import ANCHOR, atomic_switch, identity_automaton, reverse, trace_automaton
from ima.dflow import (
    alternating_switch,
    evaluate,
    pack_state,
    position_of,
    reverse_machine,
    run_tm,
    tm_encode,
    unary_increment_tm,
    walk_closure,
    walks,
)
from ima.graph import LoopLabel, identity_graph, trace
from ima.laws import random_automaton, random_graph, random_obj, random_symbol_on
from ima.perm import Obj


@contextmanager
def criterion(number, text):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {text}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {text} ({time.time() - start:.1f}s)")


# -- 1: axiom families in both algebras ---------------------------------------------


def test_criterion_1_axioms():
    with criterion(1, "axioms I1-I9, 200 instances, graph and automata algebras"):
        start = time.time()
        for factory in (laws.graphs_under_test, laws.automata_under_test):
            aut = factory()
            report = laws.run_families(aut, laws.AXIOM_FAMILIES, cases=200, seed=20240801)
            assert report.ok, "\n".join(report.lines())
            assert set(report.cases) == set(laws.AXIOM_FAMILIES)
        elapsed = time.time() - start
        assert elapsed < 60, f"axiom suite took {elapsed:.1f}s"


# -- 2: derived structure ------------------------------------------------------------


def test_criterion_2_derived_structure():
    with criterion(2, "zig-zag, trace symmetry, left identity, tensor of identity"):
        for factory in (laws.graphs_under_test, laws.automata_under_test):
            aut = factory()
            report = laws.run_families(aut, laws.DERIVED_FAMILIES, cases=100, seed=20240802)
            assert report.ok, "\n".join(report.lines())
            assert set(report.cases) == set(laws.DERIVED_FAMILIES)


# -- 3: freeness and homomorphism ------------------------------------------------------


def _interp_for(aut, symbols_ranks, rng):
    return tm.Interpretation(
        aut.algebra,
        {name: aut.random_element(rng, w) for name, w in symbols_ranks.items()},
    )


def test_criterion_3_freeness():
    with criterion(3, "decompose round-trips and eval homomorphism laws"):
        from ima.graph import RankedAlphabet, decompose, isomorphic

        rng = random.Random(20240803)
        for _ in range(100):
            g = random_graph(rng, random_obj(rng))
            alphabet = RankedAlphabet(
                {
                    g.vertices[v].name: g.vertices[v].rank
                    for v in g.internal_vertices()
                }
            )
            back = tm.evaluate(decompose(g), tm.graph_interpretation(alphabet))
            assert isomorphic(back, g)

        for factory in (laws.graphs_under_test, laws.automata_under_test):
            aut = factory()
            rng = random.Random(20240804)
            for _ in range(100):
                w1, w2 = random_obj(rng), random_obj(rng)
                a = random_obj(rng, 1)
                f = aut.random_element(rng, w1)
                g2 = aut.random_element(rng, w2)
                h = aut.random_element(rng, a + a + w1)
                symbols = {"f": f, "g": g2, "h": h}
                interp = tm.Interpretation(aut.algebra, symbols)
                F, G, H = tm.Atom("f"), tm.Atom("g"), tm.Atom("h")

                lhs = tm.evaluate(tm.Sum(F, G), interp)
                rhs = aut.algebra.sum((f, g2))
                assert aut.algebra.equivalent(lhs, rhs)

                lhs = tm.evaluate(tm.Trace(a, H), interp)
                rhs = aut.algebra.trace(a, h)
                assert aut.algebra.equivalent(lhs, rhs)

                rho = random_symbol_on(rng, w1)
                lhs = tm.evaluate(tm.Index(F, rho), interp)
                rhs = aut.algebra.reindex(f, rho)
                assert aut.algebra.equivalent(lhs, rhs)


# -- 4: elimination order independence ---------------------------------------------------


def test_criterion_4_elimination_orders():
    with criterion(4, "Kleene trace identical under all elimination orders"):
        rng = random.Random(20240805)
        for case in range(50):
            n = rng.randint(1, 3)
            tail = random_obj(rng, 2)
            w = random_obj(rng, 3, min_len=n)[:n]
            t = random_automaton(rng, w + w + tail, density=6)
            want = trace_automaton(t, w).delta
            for order in itertools.permutations(range(1, n + 1)):
                got = trace_in_order(t, w, order).delta
                assert got == want, f"case {case}: order {order} disagrees"


# -- 5: denotational equals operational ---------------------------------------------------


def test_criterion_5_oracle_equality():
    with criterion(5, "evaluate = walk closure, exhaustive and random machines"):
        count = 0
        for g in connected_port_graphs(max_internal=3, max_iface=2, max_degree=3):
            for alternating in (False, True):
                m = switch_machine(g, alternating)
                ev = evaluate(m)
                assert walk_closure(m) == ev.base.delta
                assert ev.sort_word == m.graph.rank_word()
                count += 1
        assert count >= 80
        rng = random.Random(20240806)
        for _ in range(50):
            m = random_machine(rng)
            ev = evaluate(m)
            assert walk_closure(m) == ev.base.delta
            assert ev.sort_word == m.graph.rank_word()


# -- 6: switch fidelity ------------------------------------------------------------------


def _expected_atomic(n):
    delta = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                delta.add(((i, j), (j, i)))
                delta.add(((i, i), (j, j)))
            delta.add(((i, ANCHOR), (i, j)))
            delta.add(((i, j), (i, ANCHOR)))
        delta.add(((i, ANCHOR), (i, ANCHOR)))
    if n == 1:
        delta.add(((1, 1), (1, 1)))
    return delta


def _expected_alternating(n):
    def pos(d, j):
        return (j - 1) * 2 + d + 1

    delta = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                delta.add(((i, pos(0, j)), (j, pos(1, i))))
                delta.add(((i, pos(1, i)), (j, pos(0, j))))
            for d in (0, 1):
                delta.add(((i, ANCHOR), (i, pos(d, j))))
                delta.add(((i, pos(d, j)), (i, ANCHOR)))
        delta.add(((i, ANCHOR), (i, ANCHOR)))
    if n == 1:
        delta.add(((1, pos(1, 1)), (1, pos(0, 1))))
    return delta


def test_criterion_6_switch_examples():
    with criterion(6, "switch definitions match clause by clause, n in 1..3"):
        for n in (1, 2, 3):
            assert set(atomic_switch(n).delta) == _expected_atomic(n)
            assert set(alternating_switch(n).base.delta) == _expected_alternating(n)
        assert len(atomic_switch(3).delta) == 33
        a3 = alternating_switch(3).base.delta
        non_anchor = [t for (q, x), t2 in a3 for t in [((q, x), t2)] if x != ANCHOR and t2[1] != ANCHOR]
        assert len(non_anchor) == 12
        assert ((1, 1), (1, 1)) in atomic_switch(1).delta
        a1 = alternating_switch(1)
        assert ((1, a1.position(1, 1)), (1, a1.position(1, 0))) in a1.base.delta


# -- 7: soliton sweep ----------------------------------------------------------------------


def test_criterion_7_soliton_sweep():
    with criterion(
        7,
        "soliton walks from PIMs end in PIMs; closed-graph anchor walks return",
    ):
        start = time.time()
        graphs = walks_seen = 0
        for g in connected_port_graphs(max_internal=4, max_iface=2, max_degree=4):
            p = sol.make_presoliton(g)
            m = p.machine
            # each global state name back to its selected ports
            chosen = {pack_state(m, {v: port + 1 for v, port in q.items()}): q
                      for q in sol.states_of(p)}
            ifaces = sorted(g.interface_vertices())
            graphs += 1
            for q in sol.enumerate_pims(p):
                local = {v: port + 1 for v, port in q.items()}
                for i in ifaces:
                    for j in ifaces:
                        for _, (state, _) in walks(m, local, i, j):
                            assert sol.is_pim(p, chosen[state])
                            walks_seen += 1
                if not ifaces:
                    assert walks(m, local, ANCHOR, ANCHOR)
        assert graphs > 700 and walks_seen > 5000
        elapsed = time.time() - start
        assert elapsed < 300, f"sweep took {elapsed:.1f}s"


def test_criterion_7_anchor_exits_on_open_graphs():
    # the anchor clauses let a walk from the anchor leave at an external
    # interface when one is reachable; the single pendant switch is the
    # smallest witness, so the closed-graph scoping above is necessary
    g, _ = sol.parse_plain_graph("interfaces a\nedge a u\n")
    p = sol.make_presoliton(g)
    m = p.machine
    local = {v: 1 for v in m.graph.internal_vertices()}
    assert walks(m, local, ANCHOR, 1)


# -- 8: Turing machine encoding ---------------------------------------------------------------


def test_criterion_8_tm_encoding():
    with criterion(8, "unary increment agrees with the reference, reverse commutes"):
        spec = unary_increment_tm()
        tape_len = 8
        m = tm_encode(spec, tape_len)
        ev = evaluate(m)
        k = len(m.data)
        entry = position_of(1, m.data.index("s"), k)
        exit_h = position_of(1, m.data.index("h"), k)
        for ones in range(0, 5):
            tape = ["1"] * ones + ["b"] * (tape_len - ones)
            want_tape, want_state = run_tm(spec, tape)
            assert want_state == "h"
            trans = (
                (pack_state(m, dict(enumerate(tape))), entry),
                (pack_state(m, dict(enumerate(want_tape))), exit_h),
            )
            assert trans in ev.base.delta
        assert reverse(ev.base).delta == evaluate(reverse_machine(m)).base.delta


# -- 9: structural checks ------------------------------------------------------------------------


def test_criterion_9_structural():
    with criterion(9, "silent traced identity automaton; single loop vertex"):
        a = Obj.parse("A")
        t = trace_automaton(identity_automaton(a), a)
        assert t.delta == frozenset()
        assert len(t.states) == 1
        g = trace(identity_graph(a), a)
        assert len(g.vertices) == 1
        only = g.vertices[next(iter(g.vertices))]
        assert isinstance(only, LoopLabel)
        assert only.sort.name == "A"
        assert not g.edges
