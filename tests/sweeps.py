"""Enumeration helpers for the acceptance sweeps: small connected
port graphs, switch machines over them, random machines and random
multi-sorted port graphs; tapes of cells and vertex-shuffled copies; the
local-state assignments of a machine."""

import itertools
import random

from ima.dflow import (
    DFlowAutomaton,
    GraphMachine,
    alternating_switch,
    atomic_switch_dflow,
    expand_word,
)
from ima.graph import (
    DEFAULT_SORT,
    InterfaceLabel,
    LoopLabel,
    SigmaGraph,
    SymbolLabel,
    label_ports,
)
from ima.laws import random_automaton
from ima.perm import Obj

S = DEFAULT_SORT


def _canonical(k, pairs, mult, attach):
    """The least relabeling of (edge multiset, interface attachment) over
    all permutations of the internal vertices.  Sound for deduping switch
    machines because the switches are symmetric in their ports."""
    by_pair = dict(zip(pairs, mult))
    best = None
    for sigma in itertools.permutations(range(k)):
        edges = sorted(
            (tuple(sorted((sigma[i], sigma[j]))), m)
            for (i, j), m in by_pair.items()
            if m
        )
        att = tuple(sigma[t] for t in attach)
        cand = (edges, att)
        if best is None or cand < best:
            best = cand
    return (k, repr(best))


def connected_port_graphs(
    max_internal=4,
    max_iface=2,
    max_degree=4,
    parallel_cap=2,
    self_cap=1,
    dedupe=True,
):
    """All connected single-sorted multigraphs with the given bounds,
    internal vertices labeled c<degree>.  Interfaces attach to internal
    vertices; connectivity is over the internal part.  With ``dedupe``,
    one representative per vertex-relabeling class."""
    seen: set[tuple] = set()
    for k in range(1, max_internal + 1):
        pairs = [(i, j) for i in range(k) for j in range(i, k)]
        caps = [self_cap if i == j else parallel_cap for i, j in pairs]
        for mult in itertools.product(*(range(c + 1) for c in caps)):
            degree = [0] * k
            for (i, j), m in zip(pairs, mult):
                if i == j:
                    degree[i] += 2 * m
                else:
                    degree[i] += m
                    degree[j] += m
            if any(d > max_degree for d in degree):
                continue
            if k > 1 and not _connected(k, pairs, mult):
                continue
            for n_if in range(0, max_iface + 1):
                for attach in itertools.product(range(k), repeat=n_if):
                    deg2 = degree[:]
                    for target in attach:
                        deg2[target] += 1
                    if any(d > max_degree for d in deg2):
                        continue
                    if any(d == 0 for d in deg2):
                        continue
                    if dedupe:
                        key = _canonical(k, pairs, mult, attach)
                        if key in seen:
                            continue
                        seen.add(key)
                    yield _build(k, pairs, mult, attach)


def _connected(k, pairs, mult):
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j), m in zip(pairs, mult):
        if m and i != j:
            parent[find(i)] = find(j)
    return len({find(i) for i in range(k)}) == 1


def _build(k, pairs, mult, attach) -> SigmaGraph:
    counts = [0] * k
    edges = []

    def next_port(v):
        counts[v] += 1
        return counts[v] - 1

    for (i, j), m in zip(pairs, mult):
        for _ in range(m):
            edges.append({(i, next_port(i)), (j, next_port(j))})
    vertices: dict[int, object] = {}
    for serial, target in enumerate(attach, start=1):
        vid = k + serial - 1
        vertices[vid] = InterfaceLabel(serial, S)
        edges.append({(vid, 0), (target, next_port(target))})
    for v in range(k):
        vertices[v] = SymbolLabel(
            f"c{counts[v]}", Obj(tuple(S for _ in range(counts[v])))
        )
    return SigmaGraph(vertices, edges)


def switch_machine(g: SigmaGraph, alternating: bool) -> GraphMachine:
    arities = {
        len(g.vertices[v].rank) for v in g.internal_vertices()
    }
    if alternating:
        omega = {f"c{n}": alternating_switch(n) for n in arities}
        data = (0, 1)
    else:
        omega = {f"c{n}": atomic_switch_dflow(n) for n in arities}
        data = (0,)
    return GraphMachine(g, data, omega)


def random_machine(rng: random.Random, max_internal=4, max_iface=2) -> GraphMachine:
    """A random single-sorted machine: arbitrary multigraph (possibly
    disconnected), random local automata with at most 3 states over two
    data values."""
    k = rng.randint(1, max_internal)
    n_if = rng.randint(0, max_iface)
    degrees = [rng.randint(1, 3) for _ in range(k)]
    total = sum(degrees) + n_if
    if total % 2:
        degrees[rng.randrange(k)] += 1

    vertices: dict[int, object] = {}
    ports = []
    for v, d in enumerate(degrees):
        vertices[v] = SymbolLabel(f"m{d}", Obj(tuple(S for _ in range(d))))
        ports.extend((v, i) for i in range(d))
    for serial in range(1, n_if + 1):
        vid = k + serial - 1
        vertices[vid] = InterfaceLabel(serial, S)
        ports.append((vid, 0))
    rng.shuffle(ports)
    edges = [{ports[i], ports[i + 1]} for i in range(0, len(ports), 2)]
    g = SigmaGraph(vertices, edges)

    data = (0, 1)
    omega = {}
    for d in set(degrees):
        word = Obj(tuple(S for _ in range(d)))
        base = random_automaton(rng, expand_word(word, len(data)), density=5)
        omega[f"m{d}"] = DFlowAutomaton(data, word, base)
    return GraphMachine(g, data, omega)


def machine_states(m: GraphMachine) -> list[dict[int, object]]:
    """All assignments of local states to internal vertices."""
    vids = m.graph.internal_vertices()
    pools = [sorted(m.local(v).base.states, key=repr) for v in vids]
    return [dict(zip(vids, combo)) for combo in itertools.product(*pools)]


def random_port_graph(rng: random.Random, ranks, iface_sorts, loop_sorts=()) -> SigmaGraph:
    """Internal vertices ``SymbolLabel(name, rank)`` for the given pairs,
    interfaces of the given sorts in serial order and loop vertices, all
    at shuffled vertex ids, so serials need not follow vertex order.
    Ports are paired at random within each sort, so self-loops, parallel
    edges and interface-to-interface wires all occur.  Every sort needs an
    even number of ports."""
    labels = [SymbolLabel(name, rank) for name, rank in ranks]
    labels += [InterfaceLabel(serial, s) for serial, s in enumerate(iface_sorts, start=1)]
    labels += [LoopLabel(s) for s in loop_sorts]
    ids = list(range(len(labels)))
    rng.shuffle(ids)
    vertices = dict(zip(ids, labels))
    by_sort: dict = {}
    for vid in sorted(vertices):
        for i, s in enumerate(label_ports(vertices[vid])):
            by_sort.setdefault(s, []).append((vid, i))
    edges = []
    for group in by_sort.values():
        rng.shuffle(group)
        edges += [{group[i], group[i + 1]} for i in range(0, len(group), 2)]
    return SigmaGraph(vertices, edges)


def tape_graph(n):
    """``n`` cells ``cell : AA`` in a row; the left end is interface 1,
    the right end interface 2."""
    a = Obj.parse("A")
    cell = SymbolLabel("cell", a + a)
    vertices = {i: cell for i in range(n)}
    vertices[n] = InterfaceLabel(1, a[0])
    vertices[n + 1] = InterfaceLabel(2, a[0])
    edges = [{(n, 0), (0, 0)}, {(n - 1, 1), (n + 1, 0)}]
    edges += [{(i, 1), (i + 1, 0)} for i in range(n - 1)]
    return SigmaGraph(vertices, edges)


def shuffled(g, rng):
    """The same graph with its vertex ids permuted."""
    ids = sorted(g.vertices)
    image = ids[:]
    rng.shuffle(image)
    move = dict(zip(ids, image))
    return SigmaGraph(
        {move[v]: lab for v, lab in g.vertices.items()},
        [{(move[a], i), (move[b], j)} for e in g.edges for (a, i), (b, j) in [sorted(e)]],
    )
