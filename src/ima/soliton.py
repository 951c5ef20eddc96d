"""Pre-soliton automata: undirected graphs run under the fixed
bit-passing switch interpretation.

A state selects one (positive) port per internal vertex.  An internal edge
is consistent when its two endpoints agree on its sign; a perfect internal
matching is a state where every internal edge is consistent and the
positive edges form a matching covering all internal vertices, edges into
interface vertices counting as positive on the strength of their internal
endpoint alone.  Soliton walks are ordinary machine walks; the datum
discipline of the switches confines them to alternating trails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .dflow import (
    Config,
    GraphMachine,
    alternating_switch,
    enumerate_walks,
)
from .errors import BadLabel, ImaError, NotInternalEdge
from .graph import DEFAULT_SORT, InterfaceLabel, SigmaGraph, SymbolLabel
from .perm import Obj

SolitonState = Mapping[int, int]  # internal vertex -> selected 0-based port


@dataclass(frozen=True)
class PreSolitonAutomaton:
    graph: SigmaGraph
    machine: GraphMachine


def make_presoliton(g: SigmaGraph) -> PreSolitonAutomaton:
    """Attach the n-port bit switch to every internal vertex.

    Labels must be ``c<n>`` with n the vertex degree; the switches are
    circularly symmetric, so the port order of the graph does not matter.
    """
    sorts = {g.port_sort((v, i)) for v in g.vertices for i in range(len(g.ports_of(v)))}
    if len(sorts) > 1:
        raise BadLabel(f"graph is not single-sorted: {sorted(s.name for s in sorts)}")
    sort = sorts.pop() if sorts else DEFAULT_SORT
    omega = {}
    for vid in g.internal_vertices():
        lab = g.vertices[vid]
        n = len(lab.rank)
        if lab.name != f"c{n}":
            raise BadLabel(f"vertex {vid} labeled {lab.name!r}, want c{n}")
        if lab.name not in omega:
            omega[lab.name] = alternating_switch(n, sort)
    machine = GraphMachine(g, (0, 1), omega)
    return PreSolitonAutomaton(g, machine)


def relabel_for_soliton(g: SigmaGraph) -> SigmaGraph:
    """Rename every internal vertex to ``c<degree>``."""
    vertices = {}
    for vid, lab in g.vertices.items():
        if isinstance(lab, SymbolLabel):
            lab = SymbolLabel(f"c{len(lab.rank)}", lab.rank)
        vertices[vid] = lab
    return SigmaGraph(vertices, g.edges)


# -- signs, consistency, matchings ------------------------------------------------


def _is_internal(g: SigmaGraph, vid: int) -> bool:
    return isinstance(g.vertices[vid], SymbolLabel)


def edge_consistent(p: PreSolitonAutomaton, q: SolitonState, e: frozenset) -> bool:
    """Both internal endpoints see the same sign; a self loop is consistent
    only when neither of its ports is the selected one."""
    g = p.graph
    (a, i), (b, j) = sorted(e)
    if not (_is_internal(g, a) and _is_internal(g, b)):
        raise NotInternalEdge(f"edge {sorted(e)} touches an interface")
    if a == b:
        return q[a] != i and q[a] != j
    return (q[a] == i) == (q[b] == j)


def positive_edges(p: PreSolitonAutomaton, q: SolitonState) -> set[frozenset]:
    """Edges positive at their internal endpoint(s): internal edges
    selected at both ends, interface edges selected at the internal end."""
    g = p.graph
    out = set()
    for e in g.edges:
        (a, i), (b, j) = sorted(e)
        ia, ib = _is_internal(g, a), _is_internal(g, b)
        if ia and ib:
            if a == b:
                continue  # a positive self loop would be inconsistent
            if q[a] == i and q[b] == j:
                out.add(e)
        elif ia and q[a] == i:
            out.add(e)
        elif ib and q[b] == j:
            out.add(e)
    return out


def is_pim(p: PreSolitonAutomaton, q: SolitonState) -> bool:
    """Every internal edge consistent, and the positive edges a matching
    covering all internal vertices.  That holds exactly when each internal
    vertex's selected port is joined to an interface or to another
    vertex's selected port, which one pass over the selected ports reads."""
    g = p.graph
    for v in g.internal_vertices():
        w, port = g.partner((v, q[v]))
        if w == v or (_is_internal(g, w) and q[w] != port):
            return False
    return True


def states_of(p: PreSolitonAutomaton) -> Iterator[dict[int, int]]:
    """All positive-port choices."""
    vids = p.graph.internal_vertices()
    pools = [range(len(p.graph.ports_of(v))) for v in vids]
    for combo in itertools.product(*pools):
        yield dict(zip(vids, combo))


def enumerate_pims(p: PreSolitonAutomaton) -> list[dict[int, int]]:
    return [q for q in states_of(p) if is_pim(p, q)]


def _machine_state(q: SolitonState) -> dict[int, int]:
    """Selected ports are 0-based; switch states are 1-based ports."""
    return {vid: port + 1 for vid, port in q.items()}


def _soliton_state(local: Mapping[int, int]) -> dict[int, int]:
    return {vid: state - 1 for vid, state in local.items()}


def soliton_walks(
    p: PreSolitonAutomaton,
    q: SolitonState,
    i,
    j,
    max_steps: int = 20,
) -> set[tuple[tuple[Config, ...], tuple[tuple[int, int], ...]]]:
    """All complete walks from endpoint ``i`` to endpoint ``j`` of at most
    ``max_steps`` steps, each with its final state.

    Endpoints are interface serials or the anchor.  A walk is the full
    configuration sequence including entry and exit; walks may revisit
    configurations, so the bound keeps the enumeration finite.
    """
    out = set()
    for walk in enumerate_walks(p.machine, _machine_state(q), i, j, max_steps):
        final = tuple(sorted(_soliton_state(walk[-1].local_map()).items()))
        out.add((walk, final))
    return out


def walk_data(walk: Sequence[Config]) -> list:
    """The datum carried over each edge crossing of a walk, in order.

    The first configuration is the entry point; every later one is the
    result of a crossing (anchor hops carry no datum and are skipped).
    """
    return [c.datum for c in walk[1:] if c.datum is not None]


# -- plain text formats -----------------------------------------------------------


def parse_plain_graph(text: str) -> tuple[SigmaGraph, dict[str, int]]:
    """An edge list with an optional ordered interface list::

        interfaces a b
        edge a u
        edge u v
        edge v b

    Vertices not listed as interfaces are internal and get labeled
    ``c<degree>``.  Returns the graph and the name-to-vertex-id map.  A
    second ``interfaces`` line, or a name listed twice on it, raises
    ``ImaError`` naming the line and the name.
    """
    iface_names: list[str] = []
    iface_line = None
    edge_names: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "interfaces":
            if iface_line is not None:
                raise ImaError(f"line {lineno}: second 'interfaces' line (first on line {iface_line})")
            iface_line, iface_names = lineno, parts[1:]
            for k, name in enumerate(iface_names):
                if name in iface_names[:k]:
                    raise ImaError(f"line {lineno}: interface {name!r} listed twice")
        elif parts[0] == "edge" and len(parts) == 3:
            edge_names.append((parts[1], parts[2]))
        else:
            raise ValueError(f"line {lineno}: cannot parse {line!r}")

    degree: dict[str, int] = {}
    for u, v in edge_names:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    for name in iface_names:
        if degree.get(name, 0) != 1:
            raise ValueError(f"interface {name!r} must have exactly one edge")

    order = iface_names + sorted(n for n in degree if n not in iface_names)
    ids = {name: k for k, name in enumerate(order)}
    vertices: dict[int, object] = {}
    for name in order:
        if name in iface_names:
            serial = iface_names.index(name) + 1
            vertices[ids[name]] = InterfaceLabel(serial, DEFAULT_SORT)
        else:
            d = degree[name]
            vertices[ids[name]] = SymbolLabel(
                f"c{d}", Obj(tuple(DEFAULT_SORT for _ in range(d)))
            )
    next_port: dict[str, int] = {n: 0 for n in degree}
    edges = []
    for u, v in edge_names:
        pu = next_port[u]
        next_port[u] += 1
        pv = next_port[v]
        next_port[v] += 1
        edges.append({(ids[u], pu), (ids[v], pv)})
    return SigmaGraph(vertices, edges), ids


def parse_plain_state(
    text: str, g: SigmaGraph, ids: dict[str, int]
) -> dict[int, int]:
    """One selected port per internal vertex: ``<vertex> <port>`` with a
    1-based port, or ``<vertex> -> <neighbor>`` naming the edge.  A name
    that is no internal vertex, a port that is not one of the vertex's, or
    a vertex given twice raises ``ImaError`` naming the line and the token."""
    q: dict[int, int] = {}
    names = {v: k for k, v in ids.items()}
    internal = set(g.internal_vertices())
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3) or (len(parts) == 3 and parts[1] != "->"):
            raise ValueError(f"line {lineno}: cannot parse {line!r}")
        vid = ids.get(parts[0])
        if vid not in internal:
            raise ImaError(f"line {lineno}: no internal vertex {parts[0]!r}")
        if vid in q:
            raise ImaError(f"line {lineno}: vertex {parts[0]!r} given twice")
        degree = len(g.ports_of(vid))
        if len(parts) == 3:
            other = ids.get(parts[2])
            for port in range(degree):
                if g.partner((vid, port))[0] == other:
                    q[vid] = port
                    break
            else:
                raise ValueError(f"line {lineno}: no edge {parts[0]} -> {parts[2]}")
        else:
            port = int(parts[1]) if parts[1].isdecimal() else 0
            if not 1 <= port <= degree:
                raise ImaError(
                    f"line {lineno}: port {parts[1]!r} of vertex {parts[0]!r} "
                    f"is not one of 1..{degree}"
                )
            q[vid] = port - 1
    missing = internal - set(q)
    if missing:
        raise ValueError(f"no selected port for {sorted(names[v] for v in missing)}")
    return q
