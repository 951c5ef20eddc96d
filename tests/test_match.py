"""Differential tests of ``graph.isomorphic`` and of the bijection search
``match.find_bijection`` behind ``automata.equivalent_automata`` against
independent references: networkx VF2++ on port-labelled graphs, a
brute-force search over all state permutations, and a separate
round-based matcher that refines once and then backtracks without
refining after each choice.  The search still runs on
graphs, encoded as coloured, labelled edges, so that tapes and
edge-swapped graphs exercise its refinement, and its verdict there must
be ``isomorphic``'s."""

import gc
import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import ima
from ima import laws, match
from ima.automata import (
    ANCHOR,
    TuringAutomaton,
    equivalent_automata,
    identity_automaton,
    sum_automata,
)
from ima.graph import (
    InterfaceLabel,
    RankedAlphabet,
    SigmaGraph,
    SymbolLabel,
    atom,
    identity_graph,
    isomorphic,
    label_ports,
    reindex,
    sum_graphs,
    trace,
)
from ima.perm import UNIT, Obj, from_positions
from sweeps import shuffled, tape_graph

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


def summed(parts: list[SigmaGraph]) -> SigmaGraph:
    g = parts[0]
    for h in parts[1:]:
        g = sum_graphs(g, h)
    return g


def random_graph(rng: random.Random) -> SigmaGraph:
    """A sum of random graphs; repeated summands, closed ones especially,
    leave classes of alike vertices for the search to split."""
    parts = [laws.random_graph(rng, laws.random_obj(rng, 3)) for _ in range(rng.randint(1, 3))]
    parts += parts[: rng.randint(0, len(parts))]
    return summed(parts)


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
    # equal tables over differently named states; one-state summands keep
    # the brute force on the sums at 4! maps
    a, b = (laws.random_automaton(rng, laws.random_obj(rng, 1), max_states=1) for _ in range(2))
    for lhs, rhs in ((sum_automata(sum_automata(t, a), b), sum_automata(t, sum_automata(a, b))),
                     (sum_automata(t, identity_automaton(Obj())), t)):
        assert lhs.table == rhs.table and lhs.states != rhs.states
        assert equivalent_automata(lhs, rhs) and brute_force_equivalent(lhs, rhs)


def round_based_find_bijection(colors1, edges1, colors2, edges2):
    """The matcher before the splitter queue: every round recolours every
    node by its colour and its edges' (label, colour) multisets, until the
    number of colours stops growing."""
    nodes = list(colors1) + list(colors2)
    n1 = len(colors1)
    index = [{v: k for k, v in enumerate(nodes[:n1])},
             {v: n1 + k for k, v in enumerate(nodes[n1:])}]
    labels: dict = {}
    edges = [
        {(index[side][u], labels.setdefault(lab, len(labels)), index[side][v])
         for u, lab, v in es}
        for side, es in ((0, edges1), (1, edges2))
    ]
    if n1 != len(colors2) or len(edges[0]) != len(edges[1]):
        return None
    out: list[list] = [[] for _ in nodes]
    inc: list[list] = [[] for _ in nodes]
    for u, lab, v in edges[0] | edges[1]:
        out[u].append((lab, v))
        inc[v].append((lab, u))

    palette: dict = {}
    color = [palette.setdefault(c, len(palette))
             for c in (*colors1.values(), *colors2.values())]
    classes = 0
    while True:
        if Counter(color[:n1]) != Counter(color[n1:]):
            return None
        if len(palette) == classes:
            break
        classes = len(palette)
        palette = {}
        color = [
            palette.setdefault(
                (color[v],
                 tuple(sorted((lab, color[w]) for lab, w in out[v])),
                 tuple(sorted((lab, color[u]) for lab, u in inc[v]))),
                len(palette),
            )
            for v in range(len(nodes))
        ]

    members: dict[int, list[int]] = {}
    for v in range(n1, len(nodes)):
        members.setdefault(color[v], []).append(v)
    order = sorted(range(n1), key=lambda v: (len(members[color[v]]), v))
    image = [None] * len(nodes)
    taken = [False] * len(nodes)

    def fits(v: int, w: int) -> bool:
        image[v] = w
        ok = all(
            (w, lab, image[x]) in edges[1] for lab, x in out[v] if image[x] is not None
        ) and all(
            (image[u], lab, w) in edges[1] for lab, u in inc[v] if image[u] is not None
        )
        image[v] = None
        return ok

    tries = [iter(members[color[order[0]]])] if order else []
    k = 0
    while k < n1:
        v = order[k]
        for w in tries[k]:
            if not taken[w] and fits(v, w):
                image[v], taken[w] = w, True
                k += 1
                if k < n1:
                    tries.append(iter(members[color[order[k]]]))
                break
        else:
            tries.pop()
            k -= 1
            if k < 0:
                return None
            taken[image[order[k]]] = False
            image[order[k]] = None
    return {nodes[v]: nodes[image[v]] for v in range(n1)}


def carries_edges(got, colors1, edges1, colors2, edges2) -> bool:
    """``got`` is a colour-preserving bijection of the nodes that carries
    ``edges1`` exactly onto ``edges2``."""
    return (
        got.keys() == colors1.keys()
        and set(got.values()) == colors2.keys()
        and len(got) == len(colors2)
        and all(colors1[v] == colors2[w] for v, w in got.items())
        and {(got[u], lab, got[v]) for u, lab, v in edges1} == set(edges2)
    )


def valid_find_bijection(colors1, edges1, colors2, edges2):
    """``find_bijection``, with any map it returns checked."""
    edges1, edges2 = list(edges1), list(edges2)
    got = match.find_bijection(colors1, edges1, colors2, edges2)
    assert got is None or carries_edges(got, colors1, edges1, colors2, edges2)
    return got


def checked_find_bijection(colors1, edges1, colors2, edges2):
    """``find_bijection``, checked against the round-based matcher: the
    first bijection each finds may differ, but not whether there is one."""
    edges1, edges2 = list(edges1), list(edges2)
    got = valid_find_bijection(colors1, edges1, colors2, edges2)
    assert (got is None) == (round_based_find_bijection(colors1, edges1, colors2, edges2) is None)
    return got


def automaton_sum(rng: random.Random, max_states: int) -> TuringAutomaton:
    """A sum of at most three random automata of at most ``max_states``
    states each, one of them repeated, so product states fall into classes
    of alike states."""
    parts = [laws.random_automaton(rng, laws.random_obj(rng, 2), max_states=max_states,
                                   density=rng.randint(0, 6))
             for _ in range(rng.randint(1, 2))]
    parts.append(parts[0])
    t = parts[0]
    for u in parts[1:]:
        t = sum_automata(t, u)
    return t


def drawn_pairs(rng: random.Random, max_states: int):
    """Pairs for the matcher.  Graphs: a random graph with a shuffled copy,
    a tape with a shuffled copy, the random graph with another random graph
    and with a shuffled edge-swapped copy, and the tape with a shuffled
    edge-swapped copy.  Automata: a sum with a relabelled copy, with a
    relabelled copy with one transition changed, and with another sum.  So
    the first two graph pairs and the first automaton pair are isomorphic."""
    g = random_graph(rng)
    swapped = edge_swapped(g, rng)
    graphs = [(g, h) for h in (shuffled(g, rng), random_graph(rng),
                               swapped and shuffled(swapped, rng)) if h is not None]
    tape = tape_graph(rng.randint(1, 40))
    graphs.insert(1, (tape, shuffled(tape, rng)))
    swapped = edge_swapped(tape, rng)
    if swapped is not None:
        graphs.append((tape, shuffled(swapped, rng)))
    t = automaton_sum(rng, max_states)
    automata = [(t, u) for u in (relabelled(t, rng), relabelled(one_transition_changed(t, rng), rng),
                                 automaton_sum(rng, max_states))]
    return graphs, automata


def encoded(g: SigmaGraph):
    """``g`` as the search's colours and edges: each vertex a node
    coloured by its label, each partner entry ``(v, i) -> (w, j)`` an edge
    ``(v, (i, j), w)``.  An interface label carries its serial and sort, so
    refinement pins interfaces; loop vertices are isolated nodes."""
    return g.vertices, [(v, (i, j), w) for v in g.vertices for i in range(len(g.ports_of(v)))
                        for w, j in [g.partner((v, i))]]


def encoded_isomorphic(g: SigmaGraph, h: SigmaGraph, matcher=match.find_bijection) -> bool:
    return matcher(*encoded(g), *encoded(h)) is not None


def matched_with(matcher, graphs, automata):
    """``matcher`` on each graph pair, encoded, and ``equivalent_automata``
    of each automaton pair with ``matcher`` in place of ``find_bijection``.
    The encoded verdicts must be ``isomorphic``'s.  The matcher must be
    called for automata exactly when some pair is settled neither by its
    interfaces and state counts nor by equal tables."""
    verdicts = [encoded_isomorphic(g, h, matcher) for g, h in graphs]
    assert verdicts == [isomorphic(g, h) for g, h in graphs]
    with mock.patch("ima.automata.find_bijection", wraps=matcher) as in_automata:
        results = (verdicts, [equivalent_automata(t, u) for t, u in automata])
    searched = any(t.iface == u.iface and len(t.names) == len(u.names) and t.table != u.table
                   for t, u in automata)
    assert in_automata.called == searched
    return results


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_splitter_queue_equals_round_based(seed):
    # the round-based copy backtracks without refining after each choice,
    # so it is compared only on sums of summands of at most 2 states
    graphs, automata = matched_with(checked_find_bijection, *drawn_pairs(random.Random(seed), 2))
    assert graphs[0] and graphs[1] and automata[0]


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_find_bijection_on_sums_of_three_state_summands(seed):
    # up to 27 alike product states
    graphs, automata = matched_with(valid_find_bijection, *drawn_pairs(random.Random(seed), 3))
    assert graphs[0] and graphs[1] and automata[0]


# The 27-state sum that seed 21 draws and its relabelled copy, timed in a
# fresh process, since the hash seed orders the states and so the choices.
SEED_21_PAIR = """
import random, time
from ima.automata import equivalent_automata
from test_match import drawn_pairs
t, u = drawn_pairs(random.Random(21), 3)[1][0]
assert t.table != u.table
start = time.perf_counter()
assert equivalent_automata(t, u)
print(len(t.states), time.perf_counter() - start)
"""


def test_seed_21_pair_is_fast_under_every_hash_seed():
    # a search that did not refine after each choice took 0.1 s on it
    # under hash seed 1 and about 20 s under hash seeds 2 and 3
    path = os.pathsep.join([str(Path(__file__).parent), str(Path(ima.__file__).parents[1])])
    for hash_seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", SEED_21_PAIR], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        states, seconds = run.stdout.split()
        assert states == "27" and float(seconds) < 0.5, (hash_seed, seconds)


def cycles_automaton(lengths: list[int]) -> TuringAutomaton:
    """An automaton whose states form disjoint cycles of the given
    lengths, each transition entering and leaving at the anchor."""
    cycles = [[f"c{k}.{i}" for i in range(n)] for k, n in enumerate(lengths)]
    return TuringAutomaton(UNIT, [q for c in cycles for q in c],
                           [((c[i], ANCHOR), (c[i - 1], ANCHOR)) for c in cycles for i in range(len(c))])


def test_cycles_of_other_lengths_are_rejected_fast():
    # refinement leaves all 32 states in one cell, so only the component
    # census of match.same_components tells eight 2-cycles from six and a
    # 4-cycle; without it the search tries every branch, for seconds
    t, u = cycles_automaton([2] * 8), cycles_automaton([2] * 6 + [4])
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert not equivalent_automata(t, u)
        best = min(best, time.perf_counter() - start)
    assert best < 0.1, best


def stable_colouring(color: list[int], out: list[list], inc: list[list]) -> list[int]:
    """Colour refinement by rounds: each round recolours every node by its
    colour and the (label, colour) multisets of its edges out and in,
    until a round adds no colour."""
    while True:
        palette: dict = {}
        new = [
            palette.setdefault(
                (color[v],
                 tuple(sorted((lab, color[w]) for lab, w in out[v])),
                 tuple(sorted((lab, color[u]) for lab, u in inc[v]))),
                len(palette),
            )
            for v in range(len(color))
        ]
        if len(palette) == len(set(color)):
            return new
        color = new


def cells_of(color: list[int]) -> set[frozenset]:
    cells: dict = {}
    for v, c in enumerate(color):
        cells.setdefault(c, set()).add(v)
    return {frozenset(cell) for cell in cells.values()}


def test_refine_gives_the_coarsest_equitable_partition():
    # the search can still find the same bijection over a coarser, not
    # equitable partition, so the partition itself is compared with the
    # round-based stable colouring, which is the coarsest equitable one
    kinds = Counter()
    for seed in range(2000):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        labels = rng.randint(1, 2)
        edges = {(rng.randrange(n), rng.randrange(labels), rng.randrange(n))
                 for _ in range(rng.randint(0, 3 * n))}
        image = list(range(n, 2 * n))
        rng.shuffle(image)
        copied = {(image[u], lab, image[v]) for u, lab, v in edges}
        if copied and rng.random() < 0.3:
            copied.remove(rng.choice(sorted(copied)))
            copied.add((rng.randrange(n, 2 * n), rng.randrange(labels), rng.randrange(n, 2 * n)))
        color = [rng.randrange(2) for _ in range(n)] + [0] * n
        for v in range(n):
            color[image[v]] = color[v]
        out: list[list] = [[] for _ in color]
        inc: list[list] = [[] for _ in color]
        for u, lab, v in edges | copied:
            out[u].append((lab, v))
            inc[v].append((lab, u))
        want = stable_colouring(color, out, inc)
        balanced = all(2 * sum(v >= n for v in cell) == len(cell) for cell in cells_of(want))
        got = match.refine(n, color, out, inc)
        if balanced:
            assert got is not None and cells_of(got) == cells_of(want), seed
        else:
            assert got is None, seed
        kinds[balanced] += 1
    assert min(kinds.values()) > 200


def test_isomorphic_tape_scales_near_linearly():
    # the round-based refinement needed about n/2 rounds on a path, so 4x
    # the cells took about 16x the time.  The sizes are timed in turn, and
    # with the garbage collector off as timeit does, so that a pause in
    # the machine's load or a collection falls on one run, not one size.
    pairs = {n: (tape_graph(n), shuffled(tape_graph(n), random.Random(n))) for n in (1000, 4000)}
    best = dict.fromkeys(pairs, float("inf"))
    gc.collect()
    gc.disable()
    try:
        for _ in range(7):
            for n, (g, h) in pairs.items():
                start = time.perf_counter()
                assert isomorphic(g, h)
                best[n] = min(best[n], time.perf_counter() - start)
    finally:
        gc.enable()
    assert best[4000] <= 8 * best[1000]


def ladder_copies(k: int, length: int) -> SigmaGraph:
    """``k`` disjoint circular ladders ``rung : AAB``: two rings of
    ``length`` rungs, joined rung to rung by their B ports."""
    rung = SymbolLabel("rung", Obj.parse("AAB"))
    vertices = {v: rung for v in range(2 * length * k)}
    edges = []
    for c in range(k):
        base = 2 * length * c
        for side in (0, length):
            edges += [{(base + side + i, 1), (base + side + (i + 1) % length, 0)}
                      for i in range(length)]
        edges += [{(base + i, 2), (base + length + i, 2)} for i in range(length)]
    return SigmaGraph(vertices, edges)


def mobius_ladder(length: int) -> SigmaGraph:
    """The Möbius ladder of ``length`` rungs ``rung : AAB``, ports as in
    :func:`ladder_copies`: one ring of ``2 * length`` rungs whose B ports
    join opposite rungs."""
    rung = SymbolLabel("rung", Obj.parse("AAB"))
    ring = 2 * length
    edges = [{(i, 1), ((i + 1) % ring, 0)} for i in range(ring)]
    edges += [{(i, 2), (length + i, 2)} for i in range(length)]
    return SigmaGraph(dict.fromkeys(range(ring), rung), edges)


def test_circular_and_mobius_ladders_differ():
    # both are cubic and colour refinement leaves every rung in one cell,
    # so the search must give up each branch it opens and backtrack
    for length in (3, 4, 6):
        g, h = ladder_copies(1, length), mobius_ladder(length)
        assert reference_isomorphic(g, h) is False
        assert isomorphic(g, h) is False
        assert isomorphic(h, g) is False


def shape(g: SigmaGraph):
    """Sorted component sizes and sorted (port, port) edge types of a
    graph whose vertices share one symbol."""
    parent = {v: v for v in g.vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    types = []
    for e in g.edges:
        (a, i), (b, j) = sorted(e)
        parent[find(a)] = find(b)
        types.append(tuple(sorted((i, j))))
    return sorted(Counter(map(find, g.vertices)).values()), sorted(types)


def shape_swapped(g: SigmaGraph, rng: random.Random) -> SigmaGraph:
    """Exchange one endpoint each of two edges whose exchanged ends share a
    sort, choosing a swap that changes :func:`shape`, so the result is
    certainly not isomorphic to ``g``."""
    edges = sorted(tuple(sorted(e)) for e in g.edges)
    while True:
        e1, e2 = rng.sample(edges, 2)
        p, q = e1 if rng.random() < 0.5 else e1[::-1]
        r, s = e2 if rng.random() < 0.5 else e2[::-1]
        if g.port_sort(q) != g.port_sort(s):
            continue
        rest = [set(e) for e in edges if e not in (e1, e2)]
        out = SigmaGraph(g.vertices, rest + [{p, s}, {r, q}])
        if shape(out) != shape(g):
            return out


def test_swapped_ladders_are_rejected_fast():
    # colour refinement cannot see component sizes, so four ladders of 8
    # rungs against two of them and one of 16 rungs made the search try
    # every branch, for seconds on such a pair
    g = ladder_copies(4, 8)
    assert isomorphic(g, shuffled(g, random.Random(0)))
    sizes = Counter()
    for seed in range(40):
        rng = random.Random(seed)
        h = shuffled(shape_swapped(g, rng), rng)
        sizes[tuple(shape(h)[0])] += 1
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            assert not isomorphic(g, h)
            best = min(best, time.perf_counter() - start)
        assert best < 0.05, (seed, best)
    assert sizes[(16, 16, 32)] > 0


# -- components with and without interfaces ---------------------------------------


def cycle_copies(k: int, length: int) -> SigmaGraph:
    """``k`` disjoint closed rings of ``length`` cells ``cell : AA``, each
    cell's port 2 joined to the next cell's port 1."""
    cell = SymbolLabel("cell", Obj.parse("AA"))
    return SigmaGraph(dict.fromkeys(range(k * length), cell),
                      [{(c * length + i, 1), (c * length + (i + 1) % length, 0)}
                       for c in range(k) for i in range(length)])


def marked_ring(length: int, mark: int = 0) -> SigmaGraph:
    """A closed ring as in :func:`cycle_copies` whose cell ``mark`` is a
    ``mark : AA``: of the ring's cells, a cell of another copy can map
    onto one alone, so trying them in turn fails at all but one."""
    g = cycle_copies(1, length)
    return SigmaGraph({**g.vertices, mark: SymbolLabel("mark", Obj.parse("AA"))}, g.edges)


def closed_part(rng: random.Random) -> tuple[SigmaGraph, SigmaGraph]:
    """A component without an interface and a twin with the same labels
    that need not be isomorphic to it: a circular ladder and a Möbius
    ladder, a ring of cells and two rings as long together, two rings
    marked at different cells."""
    n = rng.randint(1, 3)
    a = rng.randint(1, max(1, n - 1))
    pairs = [(ladder_copies(1, n), mobius_ladder(n)), (mobius_ladder(n), ladder_copies(1, n)),
             (cycle_copies(1, 2 * n), sum_graphs(cycle_copies(1, a), cycle_copies(1, 2 * n - a))),
             (marked_ring(n + 1, rng.randint(0, n)), marked_ring(n + 1, rng.randint(0, n)))]
    return rng.choice(pairs)


def mixed_parts(rng: random.Random) -> tuple[list[SigmaGraph], list[SigmaGraph]]:
    """Summands and their twins: random graphs with interfaces (and now
    and then a loop or a symbol without ports), identity wires joining
    interfaces to interfaces, loop vertices of either sort, closed
    components and the empty graph, some repeated.  Only closed
    components have twins other than themselves."""
    parts = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(5)
        if kind == 0:
            g = laws.random_graph(rng, laws.random_obj(rng, 3))
        elif kind == 1:
            g = identity_graph(laws.random_obj(rng, 2, min_len=1))
        elif kind == 2:
            w = Obj.of(rng.choice(laws.SORTS))
            g = trace(identity_graph(w), w)  # a loop vertex
        elif kind == 3:
            parts.append(closed_part(rng))
            continue
        else:
            g = identity_graph(UNIT)
        parts.append((g, g))
    parts += parts[: rng.randint(0, len(parts))]
    rng.shuffle(parts)
    return [g for g, _ in parts], [h for _, h in parts]


def port_components(g: SigmaGraph) -> list[nx.Graph]:
    h = port_labelled(g)
    return [h.subgraph(c) for c in nx.connected_components(h)]


def componentwise_reference(g1: SigmaGraph, g2: SigmaGraph) -> bool:
    """:func:`reference_isomorphic` one connected component at a time:
    each component of one side is paired off with a VF2++-isomorphic
    component of the other, which is exact because isomorphism is an
    equivalence.  VF2++ on the whole graph took seconds on some
    edge-swapped copies of several ladders."""
    rest = port_components(g2)
    for part in port_components(g1):
        twin = next((d for d in rest if len(d) == len(part)
                     and nx.vf2pp_is_isomorphic(part, d, node_label="label")), None)
        if twin is None:
            return False
        rest.remove(twin)
    return not rest


def agree(g: SigmaGraph, h: SigmaGraph) -> bool:
    """``isomorphic(g, h)``, checked against networkx VF2++ component by
    component and against the encoded bijection search, both ways round."""
    verdict = isomorphic(g, h)
    assert verdict == componentwise_reference(g, h) == encoded_isomorphic(g, h)
    assert isomorphic(h, g) == verdict
    return verdict


@settings(max_examples=200)
@given(SEEDS)
def test_isomorphic_agrees_with_networkx_on_mixed_components(seed):
    rng = random.Random(seed)
    parts, twins = mixed_parts(rng)
    g = summed(parts)
    assert agree(g, shuffled(g, rng))
    agree(g, shuffled(summed(twins), rng))
    agree(g, summed(rng.sample(parts, len(parts))))
    swapped = edge_swapped(g, rng)
    if swapped is not None:
        agree(g, shuffled(swapped, rng))


HH = RankedAlphabet({"h": Obj.parse("AA")})
HH_PAIR = sum_graphs(atom(HH, "h"), atom(HH, "h"))


@pytest.mark.parametrize(
    "g, h, verdict",
    [
        (identity_graph(UNIT), identity_graph(UNIT), True),
        (identity_graph(UNIT), trace(identity_graph(Obj.parse("A")), Obj.parse("A")), False),
        # two h : AA joined port 1 to port 1 and 2 to 2, or 1 to 2 and 2 to 1
        (trace(HH_PAIR, Obj.parse("AA")),
         trace(reindex(HH_PAIR, from_positions(Obj.parse("AAAA"), (0, 1, 3, 2))), Obj.parse("AA")),
         False),
        (sum_graphs(marked_ring(5), atom(HH, "h")),
         sum_graphs(marked_ring(5), atom(HH, "h")), True),
    ],
    ids=["empty", "empty-and-loop", "parallel-and-crossed", "marked-ring-beside-interfaces"],
)
def test_isomorphic_agrees_with_networkx_on_fixed_pairs(g, h, verdict):
    assert agree(g, h) == verdict
    assert agree(g, shuffled(h, random.Random(0))) == verdict


def test_failed_tries_leave_no_map():
    # vertex 0 is a cell, so its tries against the cells of the other
    # side fail but one, and each must be undone before the next
    for seed in range(20):
        for k in (1, 2):
            g, h = (summed([marked_ring(6, mark)] * k) for mark in (3, seed % 6))
            assert isomorphic(g, shuffled(h, random.Random(seed)))


def best_call_time(g: SigmaGraph, h: SigmaGraph, verdict: bool) -> float:
    """The best of three timed ``isomorphic(g, h)`` calls, each checked to
    give ``verdict``."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert isomorphic(g, h) is verdict
        best = min(best, time.perf_counter() - start)
    return best


def test_ladder_and_mobius_mix_is_rejected_fast():
    # k - 1 circular ladders and one Möbius ladder against k circular
    # ladders: the matcher on the whole graph took 14.2 s at k = 4
    for k in range(2, 9):
        g = summed([ladder_copies(1, 6)] * (k - 1) + [mobius_ladder(6)])
        h = shuffled(ladder_copies(k, 6), random.Random(k))
        assert best_call_time(g, h, False) < 0.5, k


def test_copies_of_closed_components_are_matched_fast():
    for copies in (cycle_copies, ladder_copies):
        for k in range(1, 9):
            g = copies(k, 6)
            rng = random.Random(k)
            assert best_call_time(g, shuffled(g, rng), True) < 0.5, (copies, k)
            h = shuffled(shape_swapped(g, rng), rng)
            assert best_call_time(g, h, False) < 0.5, (copies, k)


def test_one_ladder_against_one_mobius_ladder_stays_fast():
    # the worst case: every try at the one closed component fails only
    # after going most of the way round; quadratic, 1.4 s at 400 rungs
    assert best_call_time(ladder_copies(1, 100), mobius_ladder(100), False) < 0.5
