"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of a ``random.Random`` and a few size
parameters, so one seed always yields the same inputs.  The library only
ever receives what these functions build.
"""

from __future__ import annotations

import random

from ima import dflow
from ima import term as tm
from ima.graph import DEFAULT_SORT, InterfaceLabel, LoopLabel, SigmaGraph, SymbolLabel
from ima.perm import Obj, Sort

A, B = Sort("A"), Sort("B")
UNIT = Obj()


# -- Turing machines -------------------------------------------------------------


def random_tm_spec(rng: random.Random, working: int, symbols: int) -> dflow.TMSpec:
    """A total one-tape machine: every (working state, symbol) pair has a
    rule; the single halting state is ``h`` and the blank is ``b``."""
    states = tuple(f"q{i}" for i in range(working)) + ("h",)
    alphabet = ("b", "1", "2")[:symbols]
    rules = {}
    for q in states[:-1]:
        for g in alphabet:
            rules[(q, g)] = (rng.choice(states), rng.choice(alphabet), rng.choice("LR"))
    return dflow.TMSpec(states, alphabet, "b", rules, "q0", frozenset({"h"}))


# -- single-sorted port graphs for switch machines ------------------------------------


def _connected(n: int, pairs) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, _), (b, _) in pairs:
        if a < n and b < n:
            parent[find(a)] = find(b)
    return len({find(v) for v in range(n)}) == 1


def port_graph(rng: random.Random, degrees: list[int], n_iface: int) -> SigmaGraph:
    """A connected multigraph whose internal vertex v has ``degrees[v]``
    ports, ``n_iface`` of all ports lead to interfaces and the rest are
    paired at random.  Internal vertices are labelled ``c<degree>``."""
    n = len(degrees)
    ports = [(v, i) for v in range(n) for i in range(degrees[v])]
    if (len(ports) - n_iface) % 2 or n_iface > len(ports):
        raise ValueError(f"{degrees} with {n_iface} interfaces cannot be paired")
    for _ in range(1000):
        order = ports[:]
        rng.shuffle(order)
        iface_ports, rest = order[:n_iface], order[n_iface:]
        pairs = [(rest[i], rest[i + 1]) for i in range(0, len(rest), 2)]
        if _connected(n, pairs):
            break
    else:
        raise ValueError(f"no connected pairing for {degrees}")
    vertices: dict[int, object] = {
        v: SymbolLabel(f"c{d}", Obj((DEFAULT_SORT,) * d)) for v, d in enumerate(degrees)
    }
    edges = [{p, q} for p, q in pairs]
    for serial, p in enumerate(sorted(iface_ports), start=1):
        vid = n + serial - 1
        vertices[vid] = InterfaceLabel(serial, DEFAULT_SORT)
        edges.append({(vid, 0), p})
    return SigmaGraph(vertices, edges)


def cubic_multigraph(rng: random.Random, n: int, n_iface: int) -> SigmaGraph:
    """Every internal vertex has degree 3, interface edges included."""
    return port_graph(rng, [3] * n, n_iface)


def switch_machine(g: SigmaGraph, alternating: bool) -> dflow.GraphMachine:
    arities = {len(g.vertices[v].rank) for v in g.internal_vertices()}
    if alternating:
        omega = {f"c{n}": dflow.alternating_switch(n) for n in arities}
        return dflow.GraphMachine(g, (0, 1), omega)
    omega = {f"c{n}": dflow.atomic_switch_dflow(n) for n in arities}
    return dflow.GraphMachine(g, (0,), omega)


# -- multi-sorted graphs for term equality -------------------------------------------

SYMBOLS = {
    "cell": Obj.parse("AA"),
    "rung": Obj.parse("AAB"),
    "f": Obj.parse("AB"),
    "g": Obj.parse("ABB"),
    "h": Obj.parse("A"),
}


def tape_graph(n: int) -> SigmaGraph:
    """``n`` cells in a row; the left end is interface 1, the right end 2."""
    vertices: dict[int, object] = {i: SymbolLabel("cell", SYMBOLS["cell"]) for i in range(n)}
    vertices[n] = InterfaceLabel(1, A)
    vertices[n + 1] = InterfaceLabel(2, A)
    edges = [{(n, 0), (0, 0)}, {(n - 1, 1), (n + 1, 0)}]
    edges += [{(i, 1), (i + 1, 0)} for i in range(n - 1)]
    return SigmaGraph(vertices, edges)


def cycle_copies(k: int, length: int) -> SigmaGraph:
    """``k`` disjoint closed rings of ``length`` cells: every vertex looks
    the same to colour refinement."""
    vertices: dict[int, object] = {}
    edges = []
    for c in range(k):
        for i in range(length):
            vertices[c * length + i] = SymbolLabel("cell", SYMBOLS["cell"])
            edges.append({(c * length + i, 1), (c * length + (i + 1) % length, 0)})
    return SigmaGraph(vertices, edges)


def ladder_copies(k: int, length: int) -> SigmaGraph:
    """``k`` disjoint circular ladders: two rings of ``length`` rungs joined
    rung to rung by their B ports."""
    vertices: dict[int, object] = {}
    edges = []
    for c in range(k):
        base = 2 * length * c
        for side in (0, length):
            for i in range(length):
                vertices[base + side + i] = SymbolLabel("rung", SYMBOLS["rung"])
                edges.append({(base + side + i, 1), (base + side + (i + 1) % length, 0)})
        for i in range(length):
            edges.append({(base + i, 2), (base + length + i, 2)})
    return SigmaGraph(vertices, edges)


def random_multigraph(rng: random.Random, n: int) -> SigmaGraph:
    """``n`` internal vertices with symbols drawn from ``SYMBOLS``, a loop
    vertex now and then, and interfaces topping up odd port counts; ports
    of each sort are paired at random."""
    names = sorted(SYMBOLS)
    vertices: dict[int, object] = {}
    by_sort: dict[Sort, list] = {A: [], B: []}
    for v in range(n):
        name = rng.choice(names)
        vertices[v] = SymbolLabel(name, SYMBOLS[name])
        for i, s in enumerate(SYMBOLS[name]):
            by_sort[s].append((v, i))
    serial = 0
    for s in (A, B):
        extra = len(by_sort[s]) % 2 + 2 * rng.randint(0, 1)
        for _ in range(extra):
            serial += 1
            vid = n + serial - 1
            vertices[vid] = InterfaceLabel(serial, s)
            by_sort[s].append((vid, 0))
    if rng.random() < 0.3:
        vertices[n + serial] = LoopLabel(rng.choice((A, B)))
    edges = []
    for s in (A, B):
        group = by_sort[s]
        rng.shuffle(group)
        edges += [{group[i], group[i + 1]} for i in range(0, len(group), 2)]
    return SigmaGraph(vertices, edges)


def shuffled(g: SigmaGraph, rng: random.Random) -> SigmaGraph:
    """The same graph with its vertex ids permuted."""
    ids = sorted(g.vertices)
    image = ids[:]
    rng.shuffle(image)
    move = dict(zip(ids, image))
    return SigmaGraph(
        {move[v]: lab for v, lab in g.vertices.items()},
        [{(move[a], i), (move[b], j)} for e in g.edges for (a, i), (b, j) in [sorted(e)]],
    )


def _vertex_key(g: SigmaGraph, v: int):
    lab = g.vertices[v]
    if isinstance(lab, SymbolLabel):
        return ("sym", lab.name)
    if isinstance(lab, InterfaceLabel):
        return ("in", lab.serial)
    return ("loop", lab.sort.name)


def invariant(g: SigmaGraph):
    """Sorted component sizes plus the multiset of edge types; graphs that
    differ here are not isomorphic."""
    parent = {v: v for v in g.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    types = []
    for e in g.edges:
        (a, i), (b, j) = sorted(e)
        parent[find(a)] = find(b)
        types.append(tuple(sorted([(_vertex_key(g, a), i), (_vertex_key(g, b), j)])))
    sizes: dict[int, int] = {}
    for v in g.vertices:
        sizes[find(v)] = sizes.get(find(v), 0) + 1
    return sorted(sizes.values()), sorted(types)


def swapped(g: SigmaGraph, rng: random.Random) -> SigmaGraph:
    """Exchange one endpoint each of two edges whose exchanged ends share a
    sort, choosing a swap that changes :func:`invariant` so the result is
    certainly not isomorphic to ``g``."""
    edges = sorted(tuple(sorted(e)) for e in g.edges)
    before = invariant(g)
    for _ in range(1000):
        e1, e2 = rng.sample(edges, 2)
        p, q = e1 if rng.random() < 0.5 else e1[::-1]
        r, s = e2 if rng.random() < 0.5 else e2[::-1]
        if g.port_sort(q) != g.port_sort(s):
            continue
        rest = [set(e) for e in edges if e not in (e1, e2)]
        out = SigmaGraph(g.vertices, rest + [{p, s}, {r, q}])
        if invariant(out) != before:
            return out
    raise ValueError("no invariant-changing swap found")


def deep_sum(summands: int) -> tm.Term:
    """``id(A) + id() + ... + id()``, left-nested, ``summands`` in all; it
    denotes the same graph as ``id(A)``."""
    t: tm.Term = tm.Id(Obj.of(A))
    for _ in range(summands - 1):
        t = tm.Sum(t, tm.Id(UNIT))
    return t
