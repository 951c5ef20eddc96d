import functools
import itertools
import operator
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from ima.errors import InvalidArity, RankMismatch
from ima.automata import (
    ANCHOR,
    AutomataAlgebra,
    Rel,
    TuringAutomaton,
    atomic_switch,
    equivalent_automata,
    identity_automaton,
    is_deterministic,
    reindex_automaton,
    reverse,
    sum_automata,
    trace_automaton,
)
from ima import automata, dflow, laws, term as tm
from ima.perm import Obj, block_transposition, compose, from_positions, identity
from test_dflow import differential_machines

A = Obj.parse("A")
B = Obj.parse("B")
UNIT = Obj.parse("()")


def rel(pairs, size=2):
    return Rel.from_pairs(size, pairs)


def evaluated(alg, term, **symbols):
    return tm.evaluate(term, tm.Interpretation(alg, symbols))


# -- Rel -----------------------------------------------------------------------

def test_rel_compose_matches_brute_force():
    r = rel([(0, 1), (1, 1)])
    s = rel([(1, 0)])
    brute = {(a, c) for a, b in r.pairs() for b2, c in s.pairs() if b == b2}
    assert set(r.compose(s).pairs()) == brute


def test_rel_union_converse():
    r = rel([(0, 1)])
    assert set(r.union(rel([(1, 0)])).pairs()) == {(0, 1), (1, 0)}
    assert set(r.converse().pairs()) == {(1, 0)}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda size: st.sets(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)))
    .map(lambda pairs: Rel.from_pairs(size, pairs))))
def test_rel_star_is_the_reflexive_transitive_closure(r):
    closure = {(i, i) for i in range(r.size)} | set(r.pairs())
    while True:
        grown = closure | {(a, c) for a, b in closure for b2, c in closure if b == b2}
        if grown == closure:
            break
        closure = grown
    assert set(r.star().pairs()) == closure


# A tuple of dense rows, row i the bitmask of state i's successors, is the
# reference the sparse Rel is checked against.

def dense(size, pairs):
    rows = [0] * size
    for i, j in pairs:
        rows[i] |= 1 << j
    return tuple(rows)


def dense_pairs(rows):
    return [(i, j) for i, row in enumerate(rows) for j in range(len(rows)) if row >> j & 1]


def dense_compose(a, b):
    return tuple(
        functools.reduce(operator.or_, (b[j] for j in range(len(b)) if row >> j & 1), 0)
        for row in a)


def dense_star(a):
    # Warshall's closure of the reflexive relation
    rows = [row | 1 << i for i, row in enumerate(a)]
    for k in range(len(rows)):
        for i in range(len(rows)):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return tuple(rows)


@st.composite
def same_size_pairs(draw):
    """A size from 1 to 70, so that some rows cross 64 bits, and two lists
    of pairs over it; now and then every pair leaves state 0."""
    size = draw(st.integers(1, 70))
    target = st.integers(0, size - 1)
    lists = []
    for _ in range(2):
        source = draw(st.sampled_from([target, st.just(0)]))
        lists.append(draw(st.lists(st.tuples(source, target), max_size=2 * size)))
    return size, lists


@settings(max_examples=300, deadline=None)
@given(same_size_pairs())
@example((5, [[(0, 3)], [(0, 0), (0, 4)]]))  # only row 0 is non-zero: any(rows) is still True
def test_rel_equals_the_dense_reference(case):
    size, (p, q) = case
    r, s = Rel.from_pairs(size, p), Rel.from_pairs(size, q)
    a, b = dense(size, p), dense(size, q)
    assert r.size == size and r.rows == a and s.rows == b
    assert Rel(size, {}) == Rel.from_pairs(size, []) and Rel(size, {}).rows == (0,) * size
    assert r.pairs() == dense_pairs(a)
    assert any(r.rows) == (not r.is_empty()) and r.is_empty() == (not any(a))
    assert (r == s) == (a == b)
    # results equal the relation built from their pairs, so no operation
    # keeps a zero row
    for got, want in ((r.union(s), tuple(x | y for x, y in zip(a, b))),
                      (r.compose(s), dense_compose(a, b)),
                      (s.compose(r), dense_compose(b, a)),
                      (r.star(), dense_star(a)),
                      (r.converse(), dense(size, [(j, i) for i, j in dense_pairs(a)]))):
        assert got.rows == want
        assert got == Rel.from_pairs(size, dense_pairs(want))
        assert hash(got) == hash(Rel.from_pairs(size, reversed(dense_pairs(want))))


# -- identity automaton ------------------------------------------------------------

def test_identity_automaton_shape():
    t = identity_automaton(A)
    assert t.iface == Obj.parse("AA")
    assert len(t.states) == 1
    q = next(iter(t.states))
    assert t.delta == frozenset({((q, 1), (q, 2)), ((q, 2), (q, 1))})


def test_identity_automaton_unit():
    t = identity_automaton(UNIT)
    assert not t.delta and len(t.states) == 1


def test_trace_of_identity_is_silent():
    t = trace_automaton(identity_automaton(A), A)
    assert t.iface == UNIT
    assert not t.delta
    assert len(t.states) == 1


# -- reindex, sum --------------------------------------------------------------------

def test_reindex_identity_automaton():
    t = atomic_switch(2)
    assert reindex_automaton(t, identity(t.iface)).delta == t.delta


def test_reindex_swaps_ports():
    t = atomic_switch(2)
    s = t.iface[:1]
    swapped = reindex_automaton(t, block_transposition(s, s))
    # relabeling the example by hand: ((1,2),(2,1)) becomes ((1,1),(2,2))
    assert ((1, 1), (2, 2)) in swapped.delta
    assert ((1, ANCHOR), (1, 1)) in swapped.delta


def test_reindex_functorial():
    t = atomic_switch(2)
    s = t.iface[:1]
    rho = block_transposition(s, s)
    once = reindex_automaton(t, compose(rho, rho))
    twice = reindex_automaton(reindex_automaton(t, rho), rho)
    assert once.delta == twice.delta


def test_sum_rule_expansion():
    # both components may fire on (*,*) independently
    q = frozenset({"a"})
    t1 = TuringAutomaton(UNIT, q, frozenset({(("a", ANCHOR), ("a", ANCHOR))}))
    t2 = TuringAutomaton(
        UNIT, frozenset({"x", "y"}), frozenset({(("x", ANCHOR), ("y", ANCHOR))})
    )
    s = sum_automata(t1, t2)
    assert ((("a", "x"), ANCHOR), (("a", "x"), ANCHOR)) in s.delta
    assert ((("a", "x"), ANCHOR), (("a", "y"), ANCHOR)) in s.delta
    assert ((("a", "y"), ANCHOR), (("a", "y"), ANCHOR)) in s.delta
    assert len(s.delta) == 3


def test_sum_with_unit_identity():
    t = atomic_switch(2)
    unit = identity_automaton(UNIT)
    s = sum_automata(t, unit)
    e = next(iter(unit.states))
    assert equivalent_automata(s, t)
    assert s.states == frozenset((q, e) for q in t.states)


def test_tensor_of_identities_is_identity():
    for alg in (AutomataAlgebra(), dflow.DFlowAlgebra((0, 1))):
        got = evaluated(alg, tm.Tensor(A, A, B, B, tm.Id(A), tm.Id(B)))
        assert alg.equivalent(got, alg.identity(Obj.parse("AB")))


# -- trace ----------------------------------------------------------------------------

def test_trace_by_unit_is_same():
    t = atomic_switch(2)
    assert trace_automaton(t, UNIT).delta == t.delta


def test_trace_one_pass_expansion():
    # a chain with empty middle matrix: the closure adds exactly the two
    # single-crossing terms
    s = Obj.parse("A")
    q = frozenset({0, 1})
    delta = frozenset(
        {
            ((0, 3), (0, 1)),  # external 3 enters pair side 1
            ((0, 2), (1, 3)),  # pair side 2 exits to external 3
        }
    )
    t = TuringAutomaton(Obj.parse("AAA"), q, delta)
    traced = trace_automaton(t, s)
    # external position 3 is renamed to 1
    assert traced.delta == frozenset({((0, 1), (1, 1))})


def trace_in_order(t, w, order):
    """``trace_automaton(t, w)`` with the glued pairs eliminated in
    ``order``, a permutation of 1..|w|: a reindex moves pair ``order[k]``,
    both its ends, to pair k + 1, and the result is traced."""
    n = len(w)
    sends = list(range(len(t.iface)))
    for k, i in enumerate(order):
        sends[i - 1], sends[n + i - 1] = k, n + k
    moved = reindex_automaton(t, from_positions(t.iface, sends))
    return trace_automaton(moved, moved.iface[:n])


def test_trace_elimination_order_independent_small():
    q = frozenset({0, 1})
    rng_delta = frozenset(
        {
            ((0, 1), (1, 3)),
            ((1, 4), (0, 2)),
            ((0, 5), (0, 1)),
            ((1, 3), (1, 5)),
            ((0, ANCHOR), (1, 2)),
        }
    )
    t = TuringAutomaton(Obj.parse("AAAAA"), q, rng_delta)
    w = Obj.parse("AA")
    base = trace_in_order(t, w, [1, 2])
    other = trace_in_order(t, w, [2, 1])
    assert base.delta == other.delta == trace_automaton(t, w).delta


def test_trace_rank_mismatch():
    with pytest.raises(RankMismatch):
        trace_automaton(atomic_switch(2), atomic_switch(2).iface)


# -- derived ops -----------------------------------------------------------------------

def two_port_switches():
    """The two-port switch, its sort and its algebra, plain and data-flow."""
    t, flow = atomic_switch(2), dflow.alternating_switch(2)
    return [(AutomataAlgebra(), t, Obj.of(t.iface.word[0])),
            (dflow.DFlowAlgebra(flow.data), flow, Obj.of(flow.sort_word.word[0]))]


def test_compose_with_identity_automaton():
    for alg, t, s in two_port_switches():
        got = evaluated(alg, tm.Comp(s, s, s, tm.Atom("t"), tm.Id(s)), t=t)
        assert alg.equivalent(got, t)


def test_compose_identity_left_automaton():
    for alg, t, s in two_port_switches():
        got = evaluated(alg, tm.Comp(s, s, s, tm.Id(s), tm.Atom("t")), t=t)
        assert alg.equivalent(got, t)


# -- reverse and determinism --------------------------------------------------------------

def test_reverse_involution():
    t = atomic_switch(3)
    assert reverse(reverse(t)) == t


def test_reverse_identity_fixed():
    t = identity_automaton(A)
    assert reverse(t).delta == t.delta


def test_reverse_switch_fixed():
    # the switch relation is converse-closed
    for n in (1, 2, 3):
        t = atomic_switch(n)
        assert reverse(t).delta == t.delta


def test_determinism():
    assert is_deterministic(identity_automaton(A))
    assert is_deterministic(atomic_switch(2))
    nd = TuringAutomaton(
        A + A,
        frozenset({0, 1}),
        frozenset({((0, 1), (0, 2)), ((0, 1), (1, 2))}),
    )
    assert not is_deterministic(nd)


# -- partial functions and partial injections: closed sub-algebras ----------------------------
#
# Partial functions on (state, position) pairs are traced over disjoint
# union (Joyal, Street & Verity 1996; Abramsky, Haghverdi & Scott 2002),
# and so are partial injections, the reversible devices.  Both summands
# of a sum can take control entered at the anchor, so the classes below
# leave the anchor out where a sum would otherwise offer a choice.

def successor_counts(t):
    return Counter(source for source, _ in t.delta)


def is_partial_function(t):
    """At most one transition from each (state, position) pair, the anchor
    included."""
    return all(k == 1 for k in successor_counts(t).values())


def is_partial_injection(t):
    return is_partial_function(t) and is_partial_function(reverse(t))


def random_partial(rng, w, injective):
    """A random partial function on the (state, position) pairs of ``w``
    that is never entered at the anchor; a partial injection that never
    touches the anchor when ``injective``."""
    q = rng.randint(1, 3)
    ports = [(s, x) for s in range(q) for x in range(1, len(w) + 1)]
    targets = ports + ([] if injective else [(s, ANCHOR) for s in range(q)])
    rng.shuffle(targets)
    density = rng.random()
    delta = set()
    for source in ports:
        if targets and rng.random() < density:
            delta.add((source, targets.pop() if injective else rng.choice(targets)))
    return TuringAutomaton(w, range(q), delta)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_partial_functions_and_injections_are_closed(seed, injective):
    rng = random.Random(seed)
    in_class = is_partial_injection if injective else is_partial_function
    v = laws.random_obj(rng, 2)
    a = random_partial(rng, v + v + laws.random_obj(rng, 2), injective)
    b = random_partial(rng, laws.random_obj(rng, 3), injective)
    assert in_class(a) and in_class(b)
    got = sum_automata(a, b)
    assert in_class(got)
    got = reindex_automaton(got, laws.random_symbol_on(rng, got.iface))
    assert in_class(got)
    assert in_class(trace_automaton(a, v))
    assert in_class(trace_automaton(sum_automata(a, identity_automaton(v)), v))


def test_anchor_entries_of_both_summands_offer_a_choice():
    # why the classes above are never entered at the anchor
    enters = TuringAutomaton(A, {0}, {((0, ANCHOR), (0, 1))})
    assert is_partial_injection(enters)
    got = sum_automata(enters, enters)
    assert successor_counts(got)[((0, 0), ANCHOR)] == 2


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reverse_commutes_with_every_operation(seed):
    rng = random.Random(seed)
    v = laws.random_obj(rng, 2)
    w = v + v + laws.random_obj(rng, 2)
    for a, b in ((laws.random_automaton(rng, w), laws.random_automaton(rng, laws.random_obj(rng, 3))),
                 (random_partial(rng, w, False), random_partial(rng, v, True))):
        assert reverse(sum_automata(a, b)) == sum_automata(reverse(a), reverse(b))
        rho = laws.random_symbol_on(rng, w)
        assert reverse(reindex_automaton(a, rho)) == reindex_automaton(reverse(a), rho)
        assert reverse(trace_automaton(a, v)) == trace_automaton(reverse(a), v)


def brute_force_trace(t, n):
    """Independent oracle for gluing pairs (i, n+i): chase transition
    chains that hop across glued pairs, no matrices involved."""
    total = len(t.iface)
    glued = {}
    for i in range(1, n + 1):
        glued[i] = n + i
        glued[n + i] = i
    survivors = [x for x in range(1, total + 1) if x not in glued] + [ANCHOR]

    fire = {}
    for (q, x), (r, y) in t.delta:
        fire.setdefault((q, x), set()).add((r, y))

    def rename(x):
        return x if x == ANCHOR else x - 2 * n

    closure = set()
    for q0 in t.states:
        for x0 in survivors:
            seen = set()
            frontier = {(q0, x0)}
            while frontier:
                nxt = set()
                for q, x in frontier:
                    for r, y in fire.get((q, x), ()):
                        if y in glued:
                            hop = (r, glued[y])
                            if hop not in seen:
                                seen.add(hop)
                                nxt.add(hop)
                        else:
                            closure.add(((q0, rename(x0)), (r, rename(y))))
                frontier = nxt
    return frozenset(closure)


def test_trace_matches_chain_oracle():
    rng = random.Random(424242)
    from ima.laws import random_automaton, random_obj

    for case in range(300):
        n = rng.randint(0, 3)
        w = random_obj(rng, 3, min_len=n)[:n]
        tail = random_obj(rng, 2)
        t = random_automaton(rng, w + w + tail, density=7)
        got = trace_automaton(t, w).delta
        assert got == brute_force_trace(t, n), f"case {case}"


def test_trace_matches_chain_oracle_on_switch_sums(monkeypatch):
    # Kronecker sums of 2-3 switches have 9-81 states.  Shuffled and glued
    # over 1-3 pairs, some glued ends face a port of their own switch (a
    # loop to close) and some a port of another (no loop until an earlier
    # elimination makes one), so both kinds of end occur over a large |Q|.
    seed = 190
    rng = random.Random(seed)
    closed = []
    star = Rel.star

    def spy(rel):
        closed.append(rel.size)
        return star(rel)

    monkeypatch.setattr(Rel, "star", spy)
    ends = 0
    for case in range(30):
        count = rng.choice((2, 3))
        arities = [rng.randint(3, 4 if count == 3 else 9) for _ in range(count)]
        while functools.reduce(operator.mul, arities) > 81:
            arities[arities.index(max(arities))] -= 1
        bases = [rng.choice((atomic_switch, lambda k: dflow.alternating_switch(k).base))(k)
                 for k in arities]
        t = functools.reduce(sum_automata, bases)
        sends = list(range(len(t.iface)))
        rng.shuffle(sends)
        t = reindex_automaton(t, from_positions(t.iface, sends))
        n = rng.randint(1, min(3, len(t.iface) // 2))
        w = t.iface[:n]
        assert 9 <= len(t.names) <= 81 and t.iface[: 2 * n] == w + w
        got = trace_automaton(t, w).delta
        assert got == brute_force_trace(t, n), f"seed {seed} case {case}"
        ends += 2 * n
    assert 0 < len(closed) < ends, f"seed {seed}: {len(closed)} loops closed of {ends} ends"


# -- the switch examples, clause by clause ---------------------------------------------------

def expected_atomic_delta(n):
    delta = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                delta.add(((i, j), (j, i)))
                delta.add(((i, i), (j, j)))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            delta.add(((i, ANCHOR), (i, j)))
            delta.add(((i, j), (i, ANCHOR)))
        delta.add(((i, ANCHOR), (i, ANCHOR)))
    if n == 1:
        delta.add(((1, 1), (1, 1)))
    return delta


@pytest.mark.parametrize("n", [1, 2, 3])
def test_atomic_switch_matches_quoted_clauses(n):
    assert set(atomic_switch(n).delta) == expected_atomic_delta(n)


def test_atomic_switch_sample_transitions():
    assert ((1, 2), (2, 1)) in atomic_switch(2).delta
    assert ((1, 1), (1, 1)) in atomic_switch(1).delta


def test_atomic_switch_count_n3():
    assert len(atomic_switch(3).delta) == 3 * 2 + 3 * 2 + 3 * (3 + 3 + 1)


def test_atomic_switch_arity():
    with pytest.raises(InvalidArity):
        atomic_switch(0)


# -- equivalence ----------------------------------------------------------------------------

def test_equivalent_reflexive():
    t = atomic_switch(3)
    assert equivalent_automata(t, t)


def test_equivalent_product_reassociation():
    a, b, c = atomic_switch(1), atomic_switch(2), atomic_switch(1)
    lhs = sum_automata(sum_automata(a, b), c)
    rhs = sum_automata(a, sum_automata(b, c))
    assert equivalent_automata(lhs, rhs)


def test_equivalent_decodes_neither_automaton():
    # one assembled pair with equal tables and one whose tables differ,
    # so that the bijection search runs as well
    a, b = atomic_switch(2), atomic_switch(3)
    same = (sum_automata(sum_automata(a, b), a), sum_automata(a, sum_automata(b, a)))
    swapped = (sum_automata(b, a),
               reindex_automaton(sum_automata(a, b), block_transposition(a.iface, b.iface)))
    assert same[0].table == same[1].table and swapped[0].table != swapped[1].table
    for t, u in (same, swapped):
        assert equivalent_automata(t, u)
        for x in (t, u):
            assert "delta" not in x.__dict__ and "states" not in x.__dict__


def test_equivalent_state_count_differs():
    assert not equivalent_automata(atomic_switch(2), atomic_switch(3))


def test_equivalent_detects_difference():
    t1 = TuringAutomaton(A + A, frozenset({0}), frozenset({((0, 1), (0, 2))}))
    t2 = TuringAutomaton(A + A, frozenset({0}), frozenset({((0, 2), (0, 1))}))
    assert not equivalent_automata(t1, t2)


def test_equivalent_search_handles_symmetric_products():
    # maximally symmetric 27-state products must not blow up the search
    silent = TuringAutomaton(A, frozenset(range(3)), frozenset())
    cyclic = TuringAutomaton(
        A,
        frozenset(range(3)),
        frozenset({((0, 1), (1, 1)), ((1, 1), (2, 1)), ((2, 1), (0, 1))}),
    )
    for base in (silent, cyclic):
        lhs = sum_automata(sum_automata(base, base), base)
        rhs = sum_automata(base, sum_automata(base, base))
        assert equivalent_automata(lhs, rhs)
    mixed = sum_automata(cyclic, sum_automata(cyclic, silent))
    assert not equivalent_automata(
        sum_automata(sum_automata(cyclic, cyclic), cyclic), mixed
    )


# -- the alternation mutant --------------------------------------------------------------------

def test_broken_alternation_changes_trace():
    # entering the glued pair on side 1 must continue from side 2; with a
    # plain (non-alternating) product the chain continues from side 1
    broken = laws.automata_under_test(broken_alternation=True).algebra
    good = AutomataAlgebra()
    t = TuringAutomaton(
        Obj.parse("AAA"),
        frozenset({0, 1, 2}),
        frozenset({((0, 3), (0, 1)), ((0, 1), (1, 3)), ((0, 2), (2, 3))}),
    )
    w = A
    assert ((0, 1), (2, 1)) in good.trace(w, t).delta
    assert ((0, 1), (2, 1)) not in broken.trace(w, t).delta


# -- differential: the table form against the transition-set construction ----------------------

# Copies of the operations as they were when an automaton was a frozenset of
# transitions, with the trace as the chain search of ``brute_force_trace``:
# each reads ``states`` and ``delta`` and builds its result transition by
# transition through the public constructor.

def set_identity(w):
    n = len(w)
    delta = {((0, i), (0, n + i)) for i in range(1, n + 1)}
    delta |= {((0, n + i), (0, i)) for i in range(1, n + 1)}
    return TuringAutomaton(w + w, frozenset({0}), frozenset(delta))


@pytest.mark.parametrize("length", range(4))
def test_identity_automaton_equals_the_constructor_built_one(length):
    for letters in itertools.product(laws.SORTS, repeat=length):
        w = Obj(letters)
        got, want = identity_automaton(w), set_identity(w)
        assert got == want and got.table == want.table


def set_reindex(t, rho):
    if rho.dom != t.iface:
        raise RankMismatch(f"reindex: automaton iface {t.iface}, symbol domain {rho.dom}")
    sends = rho.flatten()

    def move(x):
        return x if x == ANCHOR else sends[x - 1] + 1

    delta = frozenset(((q, move(x)), (r, move(y))) for (q, x), (r, y) in t.delta)
    return TuringAutomaton(rho.cod, t.states, delta)


def set_sum(t1, t2):
    shift = len(t1.iface)

    def move(x):
        return x if x == ANCHOR else x + shift

    delta = set()
    for (q, x), (r, y) in t1.delta:
        for q2 in t2.states:
            delta.add((((q, q2), x), ((r, q2), y)))
    for (q2, x), (r2, y) in t2.delta:
        for q in t1.states:
            delta.add((((q, q2), move(x)), ((q, r2), move(y))))
    states = frozenset(itertools.product(t1.states, t2.states))
    return TuringAutomaton(t1.iface + t2.iface, states, frozenset(delta))


def set_trace(t, w):
    n = len(w)
    if t.iface[: 2 * n] != w + w:
        raise RankMismatch(f"trace: iface {t.iface} does not start with {w}{w}")
    return TuringAutomaton(t.iface[2 * n :], t.states, brute_force_trace(t, n))


def assert_same(got, want):
    assert got.iface == want.iface
    assert got.states == want.states
    assert got.delta == want.delta


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_table_operations_equal_transition_set_operations(seed):
    rng = random.Random(seed)
    w = laws.random_obj(rng, 2)
    assert_same(identity_automaton(w), set_identity(w))
    a = laws.random_automaton(rng, w + w + laws.random_obj(rng, 2))
    b = laws.random_automaton(rng, laws.random_obj(rng, 3))
    # each operation applied to the table form's own results and to the
    # copy's, so the tables that sum and trace read come from the
    # operations as well as from the constructor
    got, want = sum_automata(a, b), set_sum(a, b)
    assert_same(got, want)
    rho = laws.random_symbol_on(rng, got.iface)
    got, want = reindex_automaton(got, rho), set_reindex(want, rho)
    assert_same(got, want)
    got, want = sum_automata(identity_automaton(w), got), set_sum(set_identity(w), want)
    assert_same(got, want)
    got, want = trace_automaton(got, w), set_trace(want, w)
    assert_same(got, want)
    assert_same(trace_automaton(a, w), set_trace(a, w))
    assert got == want and hash(got) == hash(want)


def test_evaluate_equals_transition_set_fold(monkeypatch):
    machines = differential_machines()
    with monkeypatch.context() as patched:
        for name, fn in (("identity_automaton", set_identity), ("sum_automata", set_sum),
                         ("reindex_automaton", set_reindex), ("trace_automaton", set_trace)):
            patched.setattr(dflow, name, fn)
        want = [dflow.evaluate(m) for m in machines]
    for m, w in zip(machines, want):
        got = dflow.evaluate(m)
        assert_same(got.base, w.base)
        assert got == w


# -- the fold decodes transitions only when they are read ------------------------------------

def test_evaluate_decodes_no_intermediate_delta(monkeypatch):
    decoded = []

    def spy(names, table):
        decoded.append(len(names))
        return decode(names, table)

    decode = automata._decode
    monkeypatch.setattr(automata, "_decode", spy)
    got = dflow.evaluate(dflow.tm_encode(dflow.unary_increment_tm(), 6)).base
    assert decoded == []
    assert len(got.delta) > 0 and decoded == [len(got.names)]
    got.delta
    assert len(decoded) == 1


def test_evaluate_closes_no_empty_loop(monkeypatch):
    # a glued end whose loop entry is empty is eliminated without Rel.star
    # and without composing with the identity it would return
    closed = []
    star = Rel.star

    def spy(rel):
        closed.append(rel.is_empty())
        return star(rel)

    monkeypatch.setattr(Rel, "star", spy)
    m = dflow.tm_encode(dflow.unary_increment_tm(), 6)
    ev = dflow.evaluate(m)
    assert True not in closed
    assert ev.base.delta == dflow.walk_closure(m)
    assert ev.sort_word == m.graph.rank_word()
