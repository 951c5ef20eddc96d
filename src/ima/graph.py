"""Undirected sort-labeled multigraphs with ordered interfaces.

A graph consists of vertices labeled either by a ranked symbol, by an
interface marker carrying a serial number and a sort, or by a loop marker.
Every vertex owns an ordered list of ports (one per letter of its rank
word) and the edge set is a perfect matching on ports: each port is an
endpoint of exactly one edge, and the two endpoints of an edge carry the
same sort.  Interface vertices have one port, loop vertices none.

The operations below make the family of such graphs an indexed monoidal
algebra: reindexing permutes interface serials, sum is disjoint union,
and trace glues paired interface edges, recording any closed chain of
glued edges as a fresh loop vertex.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import perm
from .errors import ImaError, RankMismatch, UnknownSymbol
from .perm import DEFAULT_SORT, Obj, PermSymbol, Sort

Port = tuple[int, int]  # (vertex id, 0-based port index)


@dataclass(frozen=True)
class SymbolLabel:
    name: str
    rank: Obj


@dataclass(frozen=True)
class InterfaceLabel:
    serial: int  # 1-based
    sort: Sort


@dataclass(frozen=True)
class LoopLabel:
    sort: Sort


Label = SymbolLabel | InterfaceLabel | LoopLabel


def label_ports(label: Label) -> tuple[Sort, ...]:
    if isinstance(label, SymbolLabel):
        return label.rank.word
    if isinstance(label, InterfaceLabel):
        return (label.sort,)
    return ()


@dataclass(frozen=True)
class RankedAlphabet:
    """Symbol names with their rank words; a name has exactly one rank."""

    symbols: dict[str, Obj]

    def rank(self, name: str) -> Obj:
        try:
            return self.symbols[name]
        except KeyError:
            raise UnknownSymbol(f"symbol {name!r} is not declared") from None


class SigmaGraph:
    """Immutable value; compare with :func:`isomorphic`, not ``==``.

    The constructor is the one place that checks a graph, for parts that
    come from outside.  Sum, reindex and trace build well-formed graphs from
    already checked operands and skip it.  The partner map is the only
    stored edge set; :attr:`edges` is derived from it on first use.  Vertex
    ids only name vertices and may have gaps: no operation renumbers them,
    sum moves a later summand's ids past those in use, trace gives a new
    loop vertex an id past the largest, and only the writers number them.

    A serial is a place: interface ``_ifaces[k]`` has serial ``k + 1``.  Sum,
    reindex and trace build no :class:`InterfaceLabel`, so the raw map
    ``_vertices`` may hold stale serials, which :attr:`vertices` rebuilds
    in a copy on first read.  A value is never written once returned, so
    maps are shared: reindex shares its operand's, and every fold shares
    the atoms and the cached identities.  Only a graph the current call has
    just built is written: ``GraphAlgebra.sum`` extends what
    :func:`sum_graphs` returned, and :attr:`vertices` fills its copy."""

    __slots__ = ("_vertices", "_stale", "_partner", "_ifaces", "_rank", "_edges")

    def __init__(self, vertices: dict[int, Label], edges):
        vertices = dict(vertices)
        edges = frozenset(frozenset(e) for e in edges)
        ifaces = sorted(
            (lab.serial, vid)
            for vid, lab in vertices.items()
            if isinstance(lab, InterfaceLabel)
        )
        serials = [s for s, _ in ifaces]
        if serials != list(range(1, len(ifaces) + 1)):
            raise ValueError(f"interface serials {serials} have gaps")
        partner: dict[Port, Port] = {}
        for e in edges:
            pair = sorted(e)
            if len(pair) != 2:
                raise ValueError(f"edge {pair} must join two distinct ports")
            sorts = []
            for x in pair:
                vid, i = x
                ports = label_ports(vertices[vid]) if vid in vertices else ()
                if not 0 <= i < len(ports):
                    raise ValueError(f"edge endpoint {x} is not a port")
                if x in partner:
                    raise ValueError(f"port {x} lies on two edges")
                sorts.append(ports[i])
            p, q = pair
            if sorts[0] != sorts[1]:
                raise ValueError(f"edge {p}-{q} joins ports of different sorts")
            partner[p] = q
            partner[q] = p
        if len(partner) != sum(len(label_ports(lab)) for lab in vertices.values()):
            ports = {(v, i) for v, lab in vertices.items() for i in range(len(label_ports(lab)))}
            raise ValueError(f"unmatched ports: {sorted(ports - partner.keys())}")
        self._vertices, self._stale, self._partner = vertices, False, partner
        self._ifaces = tuple(vid for _, vid in ifaces)
        self._rank = Obj(tuple(vertices[vid].sort for vid in self._ifaces))
        self._edges = None

    @property
    def vertices(self) -> dict[int, Label]:
        """Vertex id -> label, each interface's serial its place in order."""
        if self._stale:
            self._vertices, self._stale = dict(self._vertices), False
            for k, vid in enumerate(self._ifaces, start=1):
                if (lab := self._vertices[vid]).serial != k:
                    self._vertices[vid] = InterfaceLabel(k, lab.sort)
        return self._vertices

    @property
    def edges(self) -> frozenset[frozenset[Port]]:
        """Each edge as the frozenset of its two ports."""
        if self._edges is None:
            self._edges = frozenset(frozenset(pq) for pq in self._partner.items() if pq[0] < pq[1])
        return self._edges

    # -- structure ------------------------------------------------------

    def ports_of(self, vid: int) -> tuple[Sort, ...]:
        return label_ports(self._vertices[vid])

    def port_sort(self, port: Port) -> Sort:
        return self.ports_of(port[0])[port[1]]

    def partner(self, port: Port) -> Port:
        return self._partner[port]

    def interface_vertices(self) -> dict[int, int]:
        """serial -> vertex id"""
        return dict(enumerate(self._ifaces, start=1))

    def internal_vertices(self) -> list[int]:
        return sorted(
            vid for vid, lab in self._vertices.items() if isinstance(lab, SymbolLabel)
        )

    def loop_vertices(self) -> list[int]:
        return sorted(
            vid for vid, lab in self._vertices.items() if isinstance(lab, LoopLabel)
        )

    def rank_word(self) -> Obj:
        return self._rank

    def __repr__(self):
        n = len(self.internal_vertices())
        return (
            f"<SigmaGraph {self.rank_word()} with {n} internal, "
            f"{len(self.loop_vertices())} loop, {len(self._partner) // 2} edges>"
        )


def _assemble(vertices, partner, ifaces, rank) -> SigmaGraph:
    """A graph from parts that are well-formed by construction, unchecked:
    ``ifaces`` lists the interface vertex ids in serial order and ``rank``
    their sorts; the serials in ``vertices`` may be stale."""
    g = object.__new__(SigmaGraph)
    g._vertices, g._stale, g._partner, g._ifaces, g._rank, g._edges = (
        vertices, True, partner, ifaces, rank, None
    )
    return g


def _edge_pairs(g: SigmaGraph) -> list[tuple[Port, Port]]:
    """Each edge once as its ports ``(p, q)`` with ``p < q``, sorted."""
    return sorted(pq for pq in g._partner.items() if pq[0] < pq[1])


# -- constructors ---------------------------------------------------------


def atom(alphabet: RankedAlphabet, name: str) -> SigmaGraph:
    """The star graph of a symbol: one internal vertex whose ports hang off
    fresh interface vertices numbered in rank order."""
    rank = alphabet.rank(name)
    vertices: dict[int, Label] = {0: SymbolLabel(name, rank)}
    partner: dict[Port, Port] = {}
    for i, sort in enumerate(rank):
        vertices[1 + i] = InterfaceLabel(1 + i, sort)
        partner[(0, i)] = (1 + i, 0)
        partner[(1 + i, 0)] = (0, i)
    return _assemble(vertices, partner, tuple(range(1, len(rank) + 1)), rank)


@functools.cache
def identity_graph(w: Obj) -> SigmaGraph:
    """2|w| interfaces wired straight across; cached, so one value per word."""
    n = len(w)
    vertices: dict[int, Label] = {}
    partner: dict[Port, Port] = {}
    for i, sort in enumerate(w):
        vertices[i] = InterfaceLabel(1 + i, sort)
        vertices[n + i] = InterfaceLabel(1 + n + i, sort)
        partner[(i, 0)] = (n + i, 0)
        partner[(n + i, 0)] = (i, 0)
    return _assemble(vertices, partner, tuple(range(2 * n)), w + w)


# -- algebra operations ----------------------------------------------------


def reindex(g: SigmaGraph, rho: PermSymbol) -> SigmaGraph:
    """Move interface ``k`` to place ``rho.flatten()[k]``; shares both maps."""
    if rho.dom != g.rank_word():
        raise RankMismatch(f"reindex: graph has rank {g.rank_word()}, symbol domain {rho.dom}")
    ifaces = list(g._ifaces)
    for vid, to in zip(g._ifaces, rho.flatten()):
        ifaces[to] = vid
    return _assemble(g._vertices, g._partner, tuple(ifaces), rho.cod)


def _extend(vertices, partner, ifaces: tuple, gs) -> tuple:
    """Add the graphs ``gs`` in place to the parts of a graph being built,
    as ``functools.reduce(sum_graphs)`` would: each moves its ids past the
    largest id in use before it.  Returns ``ifaces`` extended."""
    top, shifted = max(vertices, default=-1) + 1, []
    for h in gs:
        shifted.append((top, h))
        top += max(h._vertices) + 1 if h._vertices else 0
    vertices.update({t + v: lab for t, h in shifted for v, lab in h._vertices.items()})
    partner.update({(t + a, i): (t + b, j) for t, h in shifted for (a, i), (b, j) in h._partner.items()})
    return ifaces + tuple(t + v for t, h in shifted for v in h._ifaces)


def sum_graphs(g1: SigmaGraph, g2: SigmaGraph) -> SigmaGraph:
    """Disjoint union; the second graph's vertex ids move past the first's and
    its interfaces follow.  The result shares no map with an operand."""
    vertices, partner = dict(g1._vertices), dict(g1._partner)
    ifaces = _extend(vertices, partner, g1._ifaces, (g2,))
    return _assemble(vertices, partner, ifaces, g1.rank_word() + g2.rank_word())


def trace(g: SigmaGraph, w: Obj) -> SigmaGraph:
    """Glue the edges at interface pairs (i, |w|+i) for i = 1..|w|.

    All pairs are spliced simultaneously by following chains of edges
    through the deleted interface ports, so the work beyond copying ``g``'s
    maps grows with the chains.  A chain that closes on itself without
    reaching a surviving port leaves a loop vertex of the chain's common
    sort, with an id past ``max(g.vertices)``.  Surviving vertices keep
    their ids, and surviving interfaces their order.
    """
    n = len(w)
    rank = g.rank_word()
    if rank[: 2 * n] != w + w:
        raise RankMismatch(f"trace: rank {rank} does not start with {w}{w}")
    ifaces = g._ifaces
    splice: dict[Port, Port] = {}
    for a, b in zip(ifaces[:n], ifaces[n : 2 * n]):
        splice[(a, 0)], splice[(b, 0)] = (b, 0), (a, 0)
    vertices, partner = dict(g._vertices), dict(g._partner)
    for vid in ifaces[: 2 * n]:
        del vertices[vid], partner[(vid, 0)]

    def walk(q: Port) -> Port:
        while q in splice:
            b = splice.pop(q)
            del splice[b]
            q = g._partner[b]
        return q
    # Each chain of glued edges leaves ``splice``; its two kept ends pair up.
    for a in list(splice):
        if a in splice and (p := g._partner[a]) not in splice:
            q = walk(a)
            partner[p], partner[q] = q, p
    # A chain no kept port reaches closes on itself into a loop.
    if splice:
        top = max(g._vertices) + 1
        for a in sorted(splice):
            if a in splice:
                vertices[top] = LoopLabel(g._vertices[a[0]].sort)
                top += 1
                walk(a)
    return _assemble(vertices, partner, ifaces[2 * n :], rank[2 * n :])


# -- isomorphism -----------------------------------------------------------


def isomorphic(g1: SigmaGraph, g2: SigmaGraph) -> bool:
    """Label-, port-order-, sort- and serial-preserving isomorphism.

    Ports are ordered and each has one partner, so once a vertex's image
    is fixed, its whole component follows: port ``i`` of ``v`` must land
    on port ``i`` of ``v``'s image, with the same partner port index
    (Weinberg 1966, for embedded graphs).  Interface ``k`` of ``g1`` maps
    to interface ``k`` of ``g2``, since labels carry the serial, and that
    pins every component with an interface.  A component without one (a
    closed component, a loop vertex, a symbol without ports) is matched
    by trying its first vertex against each free ``g2`` vertex of the
    same label in turn, undoing each failed try.  The first try that
    succeeds is kept: it maps the component onto a whole isomorphic
    component of ``g2``, and isomorphic components are interchangeable.

    Linear when every component has an interface.  A closed component of
    ``n`` vertices may fail at up to ``n`` tries of up to ``n`` vertices
    each, so the worst case, one circular ladder against one Möbius
    ladder, is quadratic."""
    lab1, lab2 = g1.vertices, g2.vertices
    p1, p2 = g1._partner, g2._partner
    if len(lab1) != len(lab2) or len(p1) != len(p2) or len(g1._ifaces) != len(g2._ifaces):
        return False
    image: dict[int, int] = {}
    taken: set[int] = set()

    def follow(v: int, w: int, added: list[int]) -> bool:
        """Map ``v`` to ``w`` and every vertex the ports reach from ``v``
        to the vertex the same ports reach from ``w``, appending each newly
        mapped vertex to ``added``; ``False`` at the first conflict."""
        pairs = [(v, w)]
        while pairs:
            x, y = pairs.pop()
            if x in image:
                if image[x] != y:
                    return False
                continue
            label = lab1[x]
            if y in taken or label != lab2[y]:
                return False
            image[x] = y
            taken.add(y)
            added.append(x)
            for i in range(len(label_ports(label))):
                (a, j), (b, k) = p1[x, i], p2[y, i]
                if j != k:
                    return False
                pairs.append((a, b))
        return True

    for v, w in zip(g1._ifaces, g2._ifaces):
        if not follow(v, w, []):
            return False
    if len(image) == len(lab1):
        return True
    free: dict[Label, list[int]] = {}
    for w, label in lab2.items():
        if w not in taken:
            free.setdefault(label, []).append(w)
    for v, label in lab1.items():
        if v in image:
            continue
        # A failed try is undone, so a taken vertex stays taken and can be
        # dropped from the end of the list.
        ws = free.get(label, [])
        while ws and ws[-1] in taken:
            ws.pop()
        for w in reversed(ws):
            if w in taken:
                continue
            added: list[int] = []
            if follow(v, w, added):
                break
            for x in added:
                taken.discard(image.pop(x))
        else:
            return False
    return True


# -- decomposition into a term ----------------------------------------------


@dataclass(frozen=True)
class DecompositionPlan:
    """How a graph is rebuilt from stars: the ordered sum of atoms, wire
    pairs for interface-to-interface edges, loop markers, then one
    reindexing and one trace closing all internal edges."""

    atoms: tuple[tuple[int, str, Obj], ...]  # (vertex id, symbol, rank)
    wire_sorts: tuple[Sort, ...]  # one identity summand per iface-iface edge
    loop_sorts: tuple[Sort, ...]
    trace_word: Obj
    sends: tuple[int, ...]  # position permutation applied before the trace
    base_word: Obj


def decomposition_plan(g: SigmaGraph) -> DecompositionPlan:
    internal = g.internal_vertices()
    offsets = {}
    acc = 0
    for vid in internal:
        offsets[vid] = acc
        acc += len(g.ports_of(vid))
    base_positions = acc

    def is_internal_port(p: Port) -> bool:
        return isinstance(g.vertices[p[0]], SymbolLabel)

    internal_edges = []
    iface_edges = {}  # serial -> internal port
    wire_edges = []
    for p, q in _edge_pairs(g):
        if is_internal_port(p) and is_internal_port(q):
            internal_edges.append((p, q))
        elif is_internal_port(p) or is_internal_port(q):
            port = p if is_internal_port(p) else q
            iface = q if is_internal_port(p) else p
            iface_edges[g.vertices[iface[0]].serial] = port
        else:
            s1 = g.vertices[p[0]].serial
            s2 = g.vertices[q[0]].serial
            wire_edges.append((min(s1, s2), max(s1, s2)))
    wire_edges.sort()

    s = len(internal_edges)
    trace_word = Obj(tuple(g.port_sort(p) for p, _ in internal_edges))
    n_ext = len(g.rank_word())

    sends = [0] * (base_positions + 2 * len(wire_edges))
    for t, (p, q) in enumerate(internal_edges):
        sends[offsets[p[0]] + p[1]] = t
        sends[offsets[q[0]] + q[1]] = s + t
    for serial, port in iface_edges.items():
        sends[offsets[port[0]] + port[1]] = 2 * s + serial - 1
    for t, (s1, s2) in enumerate(wire_edges):
        sends[base_positions + 2 * t] = 2 * s + s1 - 1
        sends[base_positions + 2 * t + 1] = 2 * s + s2 - 1

    atoms = tuple(
        (vid, g.vertices[vid].name, g.vertices[vid].rank) for vid in internal
    )
    wire_sorts = tuple(g.rank_word()[s1 - 1] for s1, _ in wire_edges)
    loop_sorts = tuple(
        sorted(g.vertices[v].sort for v in g.loop_vertices())
    )
    base_word = perm.concat(
        [rank for _, _, rank in atoms]
        + [Obj.of(x, x) for x in wire_sorts]
    )
    return DecompositionPlan(
        atoms, wire_sorts, loop_sorts, trace_word, tuple(sends), base_word
    )


def decompose(g: SigmaGraph):
    """A term whose evaluation in the graph algebra rebuilds ``g``."""
    from . import term as tm

    plan = decomposition_plan(g)
    parts = [tm.Atom(name) for _, name, _ in plan.atoms]
    parts += [tm.Id(Obj.of(x)) for x in plan.wire_sorts]
    parts += [tm.Trace(Obj.of(x), tm.Id(Obj.of(x))) for x in plan.loop_sorts]
    if not parts:
        body = tm.Id(perm.UNIT)
    else:
        body = parts[0]
        for p in parts[1:]:
            body = tm.Sum(body, p)
    rho = perm.from_positions(plan.base_word, plan.sends)
    if rho.flatten() != tuple(range(len(plan.base_word))):
        body = tm.Index(body, rho)
    if plan.trace_word:
        body = tm.Trace(plan.trace_word, body)
    return body


# -- text format and DOT -----------------------------------------------------


def format_graph(g: SigmaGraph) -> str:
    """The ``graph/vertex/edge`` text of ``g``; every symbol vertex carries
    its rank word, as in ``sym:f:AB`` or ``sym:g0:()``, so that
    :func:`parse_graph` reads back a graph isomorphic to ``g``, numbered
    from 0 in id order."""
    lines = [f"graph {g.rank_word()}"]
    num = {vid: k for k, vid in enumerate(sorted(g.vertices))}
    for vid, k in num.items():
        lab = g.vertices[vid]
        if isinstance(lab, SymbolLabel):
            text = f"sym:{lab.name}:{lab.rank}"
        elif isinstance(lab, InterfaceLabel):
            text = f"in:{lab.serial}:{lab.sort.name}"
        else:
            text = f"loop:{lab.sort.name}"
        lines.append(f"vertex {k} {text}")
    for (a, i), (b, j) in _edge_pairs(g):
        lines.append(f"edge {num[a]}.{i + 1} {num[b]}.{j + 1}")
    return "\n".join(lines) + "\n"


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def parse_graph(text: str) -> SigmaGraph:
    """Read the ``graph/vertex/edge`` format.

    Words read one sort per character: the ``graph`` line, the rank of a
    symbol vertex ``sym:<name>:<word>`` and the sort of an ``in:`` or
    ``loop:`` vertex, which must be one character.  A sort is a letter,
    digit or ``_``, and ``()`` is the unit word; any other character
    raises ``ImaError`` naming the line or the vertex.  A rank-less
    ``sym:<name>`` has as many ports as the highest port its edges name,
    all of the one sort of the file's ``graph`` line, interfaces and
    ranked symbols (``DEFAULT_SORT`` when there is none); in a file of two
    or more sorts it raises ``ImaError`` naming the vertex.  A second
    ``graph`` line, or a vertex id or an edge (in either direction) given
    twice, raises ``ImaError`` naming the line.
    """
    rank_decl = None
    raw_vertices: dict[int, str] = {}
    raw_edges: dict[frozenset, tuple[tuple[int, int], tuple[int, int]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "graph" and len(parts) == 2:
            if rank_decl is not None:
                raise ImaError(f"line {lineno}: second 'graph' line")
            rank_decl = Obj.read(parts[1], f"line {lineno}: sort word {parts[1]!r}")
        elif parts[0] == "vertex" and len(parts) == 3:
            if not _is_int(parts[1]):
                raise ImaError(f"line {lineno}: vertex id {parts[1]!r} is not an integer")
            if int(parts[1]) in raw_vertices:
                raise ImaError(f"line {lineno}: vertex id {parts[1]} given twice")
            raw_vertices[int(parts[1])] = parts[2]
        elif parts[0] == "edge" and len(parts) == 3:
            ends = []
            for token in parts[1:]:
                vid, _, port = token.partition(".")
                if not (_is_int(vid) and _is_int(port) and int(port) >= 1):
                    raise ImaError(
                        f"line {lineno}: edge end {token!r} is not <vertex id>.<port from 1>"
                    )
                ends.append((int(vid), int(port) - 1))
            if frozenset(ends) in raw_edges:
                raise ImaError(f"line {lineno}: edge {parts[1]} {parts[2]} given twice")
            raw_edges[frozenset(ends)] = (ends[0], ends[1])
        else:
            raise ValueError(f"line {lineno}: cannot parse {line!r}")

    degree: dict[int, int] = {v: 0 for v in raw_vertices}
    for (a, i), (b, j) in raw_edges.values():
        for v in (a, b):
            if v not in degree:
                raise ValueError(f"edge {a}.{i + 1} {b}.{j + 1}: no vertex {v}")
        degree[a] = max(degree[a], i + 1)
        degree[b] = max(degree[b], j + 1)

    def one_sort(vid: int, name: str, text_label: str) -> Sort:
        if len(name) != 1:
            raise ImaError(f"vertex {vid}: sort {name!r} of {text_label!r} is not one character")
        return Obj.read(name, f"vertex {vid}: sort {name!r} of {text_label!r}").word[0]

    vertices: dict[int, Label] = {}
    rankless: dict[int, str] = {}
    for vid, text_label in raw_vertices.items():
        kind, _, rest = text_label.partition(":")
        if kind == "in":
            serial, _, sortname = rest.partition(":")
            if not _is_int(serial):
                raise ImaError(f"vertex {vid}: serial {serial!r} of {text_label!r} is not an integer")
            vertices[vid] = InterfaceLabel(int(serial), one_sort(vid, sortname, text_label))
        elif kind == "loop":
            vertices[vid] = LoopLabel(one_sort(vid, rest, text_label))
        elif kind == "sym" and ":" in rest:
            name, _, word = rest.rpartition(":")
            vertices[vid] = SymbolLabel(
                name, Obj.read(word, f"vertex {vid}: rank {word!r} of {text_label!r}")
            )
        elif kind == "sym":
            rankless[vid] = rest
        else:
            raise ValueError(f"unknown vertex label {text_label!r}")

    if rankless:
        sorts = {s for lab in vertices.values() for s in label_ports(lab)}
        sorts |= set(rank_decl or ())
        if len(sorts) > 1:
            vid, name = next(iter(rankless.items()))
            raise ImaError(
                f"vertex {vid}: 'sym:{name}' has no rank in a file of sorts "
                f"{''.join(sorted(s.name for s in sorts))}; write sym:{name}:<word>"
            )
        sort = next(iter(sorts), DEFAULT_SORT)
        for vid, name in rankless.items():
            vertices[vid] = SymbolLabel(name, Obj((sort,) * degree[vid]))

    g = SigmaGraph(vertices, list(raw_edges))
    if rank_decl is not None and g.rank_word() != rank_decl:
        raise ValueError(
            f"declared rank {rank_decl} does not match interfaces {g.rank_word()}"
        )
    return g


def to_dot(g: SigmaGraph) -> str:
    lines = ["graph G {"]
    num = {vid: k for k, vid in enumerate(sorted(g.vertices))}
    for vid, k in num.items():
        lab = g.vertices[vid]
        if isinstance(lab, SymbolLabel):
            lines.append(f'  v{k} [shape=circle, label="{lab.name}"];')
        elif isinstance(lab, InterfaceLabel):
            lines.append(
                f'  v{k} [shape=box, label="{lab.serial}:{lab.sort.name}"];'
            )
        else:
            lines.append(f'  v{k} [shape=diamond, label="{lab.sort.name}"];')
    for (a, i), (b, j) in _edge_pairs(g):
        lines.append(f'  v{num[a]} -- v{num[b]} [taillabel="{i + 1}", headlabel="{j + 1}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


class GraphAlgebra:
    """The indexed monoidal algebra of graphs over a fixed alphabet."""

    def identity(self, w: Obj) -> SigmaGraph:
        return identity_graph(w)

    def sum(self, xs):
        """``functools.reduce(sum_graphs, xs)`` of the two or more summands
        of a ``Sum`` spine, exactly (vertex ids, map orders, interfaces and
        rank), in one pass: :func:`sum_graphs` of the first two, then the
        later summands added to that new graph in place by one
        :func:`_extend`, so no intermediate graph is built."""
        g = sum_graphs(xs[0], xs[1])
        if len(xs) > 2:
            g._ifaces = _extend(g._vertices, g._partner, g._ifaces, xs[2:])
            g._rank = perm.concat([h.rank_word() for h in xs])
        return g

    def trace(self, w, x):
        return trace(x, w)

    def reindex(self, x, rho):
        return reindex(x, rho)

    def rank_of(self, x) -> Obj:
        return x.rank_word()

    def equivalent(self, x, y) -> bool:
        return isomorphic(x, y)


GRAPH_ALGEBRA = GraphAlgebra()
