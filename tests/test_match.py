"""Differential tests of the bijection search behind ``graph.isomorphic``
and ``automata.equivalent_automata`` against independent references:
networkx VF2++ on port-labelled graphs, and a brute-force search over
all state permutations."""

import itertools
import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from ima import laws
from ima.automata import ANCHOR, TuringAutomaton, equivalent_automata
from ima.graph import (
    InterfaceLabel,
    SigmaGraph,
    SymbolLabel,
    isomorphic,
    label_ports,
    sum_graphs,
)
from sweeps import shuffled

SEEDS = st.integers(0, 2**32 - 1)


def port_labelled(g: SigmaGraph) -> nx.Graph:
    """One node per vertex, labelled by symbol and rank, interface serial
    and sort, or loop sort; one node per port, labelled by index and sort;
    each graph edge joins two port nodes."""
    out = nx.Graph()
    for v, lab in g.vertices.items():
        if isinstance(lab, SymbolLabel):
            key = ("sym", lab.name, str(lab.rank))
        elif isinstance(lab, InterfaceLabel):
            key = ("in", lab.serial, lab.sort.name)
        else:
            key = ("loop", lab.sort.name)
        out.add_node(("v", v), label=key)
        for i, sort in enumerate(label_ports(lab)):
            out.add_node(("p", v, i), label=("port", i, sort.name))
            out.add_edge(("v", v), ("p", v, i))
    for e in g.edges:
        p, q = sorted(e)
        out.add_edge(("p", *p), ("p", *q))
    return out


def reference_isomorphic(g1: SigmaGraph, g2: SigmaGraph) -> bool:
    h1, h2 = port_labelled(g1), port_labelled(g2)
    if not h1 and not h2:
        return True  # VF2++ answers False for two empty graphs
    return nx.vf2pp_is_isomorphic(h1, h2, node_label="label")


def random_graph(rng: random.Random) -> SigmaGraph:
    """A sum of random graphs; repeated summands, closed ones especially,
    leave classes of alike vertices for the search to split."""
    parts = [laws.random_graph(rng, laws.random_obj(rng, 3)) for _ in range(rng.randint(1, 3))]
    parts += parts[: rng.randint(0, len(parts))]
    g = parts[0]
    for h in parts[1:]:
        g = sum_graphs(g, h)
    return g


def edge_swapped(g: SigmaGraph, rng: random.Random) -> SigmaGraph | None:
    """Exchange one endpoint each of two edges whose exchanged ends share a
    sort; ``None`` when no two edges allow that."""
    edges = sorted(tuple(sorted(e)) for e in g.edges)
    pairs = [
        (e1, e2, p, q, r, s)
        for e1, e2 in itertools.combinations(edges, 2)
        for p, q in (e1, e1[::-1])
        for r, s in (e2, e2[::-1])
        if g.port_sort(q) == g.port_sort(s)
    ]
    if not pairs:
        return None
    e1, e2, p, q, r, s = rng.choice(pairs)
    rest = [set(e) for e in edges if e not in (e1, e2)]
    return SigmaGraph(g.vertices, rest + [{p, s}, {r, q}])


@settings(max_examples=200)
@given(SEEDS)
def test_isomorphic_agrees_with_networkx(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    others = [shuffled(g, rng), random_graph(rng)]
    swapped = edge_swapped(g, rng)
    if swapped is not None:
        others.append(shuffled(swapped, rng))
    assert isomorphic(g, others[0])
    for h in others:
        assert isomorphic(g, h) == reference_isomorphic(g, h)
        assert isomorphic(h, g) == isomorphic(g, h)


def brute_force_equivalent(t1: TuringAutomaton, t2: TuringAutomaton) -> bool:
    if t1.iface != t2.iface or len(t1.states) != len(t2.states):
        return False
    states1 = list(t1.states)
    for image in itertools.permutations(t2.states):
        m = dict(zip(states1, image))
        if {((m[q], x), (m[r], y)) for (q, x), (r, y) in t1.delta} == t2.delta:
            return True
    return False


def relabelled(t: TuringAutomaton, rng: random.Random) -> TuringAutomaton:
    names = [f"s{k}" for k in range(len(t.states))]
    rng.shuffle(names)
    m = dict(zip(sorted(t.states), names))
    return TuringAutomaton(
        t.iface,
        frozenset(names),
        frozenset(((m[q], x), (m[r], y)) for (q, x), (r, y) in t.delta),
    )


def one_transition_changed(t: TuringAutomaton, rng: random.Random) -> TuringAutomaton:
    states = sorted(t.states)
    positions = list(range(1, len(t.iface) + 1)) + [ANCHOR]
    delta = set(t.delta)
    if delta:
        delta.remove(rng.choice(sorted(delta, key=repr)))
    delta.add(((rng.choice(states), rng.choice(positions)),
               (rng.choice(states), rng.choice(positions))))
    return TuringAutomaton(t.iface, t.states, frozenset(delta))


@settings(max_examples=200)
@given(SEEDS)
def test_equivalent_automata_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    w = laws.random_obj(rng, 3)
    t = laws.random_automaton(rng, w, max_states=4, density=rng.randint(0, 8))
    others = [
        relabelled(t, rng),
        relabelled(one_transition_changed(t, rng), rng),
        laws.random_automaton(rng, w, max_states=4, density=rng.randint(0, 8)),
    ]
    assert equivalent_automata(t, others[0])
    for u in others:
        assert equivalent_automata(t, u) == brute_force_equivalent(t, u)
