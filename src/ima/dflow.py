"""Data-flow Turing automata and Turing graph machines.

A data-flow automaton over a finite datum set D and sort word A is a
Turing automaton whose interface positions stand for pairs (datum, port).
Ports are the major key: position (j-1)*|D| + d + 1 is datum index d at
port j, so the positions of D x (A+B) are literally those of D x A
followed by those of D x B and the plain automaton operations restrict to
data-flow automata unchanged.  The anchor carries no datum.

A graph machine is a single-sorted graph together with a data-flow
automaton for each of its symbols.  Its behavior as one big automaton is
obtained by evaluating the graph's star decomposition in the data-flow
algebra; ``step`` and ``walks`` give the equivalent operational view used
as a test oracle: control wanders through the graph one local transition
at a time, carrying a datum across edges.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import graph as gr
from . import term as tm
from .automata import (
    ANCHOR,
    TuringAutomaton,
    atomic_switch,
    equivalent_automata,
    identity_automaton,
    reindex_automaton,
    reverse,
    sum_automata,
    trace_automaton,
)
from .errors import IllFormedConfig, InvalidArity, InvalidSpec, MissingSymbol, RankMismatch
from .graph import DEFAULT_SORT, InterfaceLabel, SigmaGraph, SymbolLabel
from .perm import Obj, PermSymbol, Sort


def expand_word(w: Obj, k: int) -> Obj:
    """Each letter repeated k times: the position word of D x w."""
    return Obj(tuple(s for s in w for _ in range(k)))


def position_of(port: int, datum_index: int, k: int) -> int:
    """1-based base position of (datum, port), port-major."""
    return (port - 1) * k + datum_index + 1


def decode_position(pos: int, k: int) -> tuple[int, int]:
    """Inverse of :func:`position_of`: (port, datum index)."""
    return (pos - 1) // k + 1, (pos - 1) % k


@dataclass(frozen=True)
class DFlowAutomaton:
    """A Turing automaton over interface D x A."""

    data: tuple
    sort_word: Obj
    base: TuringAutomaton

    def __post_init__(self):
        if not self.data:
            raise ValueError("datum set must be nonempty")
        if len(self.base.iface) != len(self.data) * len(self.sort_word):
            raise ValueError(
                f"base interface {self.base.iface} does not match "
                f"{len(self.data)} data over {self.sort_word}"
            )

    def position(self, port: int, datum) -> int:
        return position_of(port, self.data.index(datum), len(self.data))

    def arity(self) -> int:
        return len(self.sort_word)


def lift_symbol(rho: PermSymbol, k: int) -> PermSymbol:
    """A sort-level symbol applied to blocks of k positions in parallel."""
    return PermSymbol(tuple(expand_word(b, k) for b in rho.blocks), rho.pi)


class DFlowAlgebra:
    """The indexed monoidal algebra of data-flow automata over fixed D."""

    def __init__(self, data: Sequence):
        self.data = tuple(data)

    def _wrap(self, sort_word: Obj, base: TuringAutomaton) -> DFlowAutomaton:
        return DFlowAutomaton(self.data, sort_word, base)

    def identity(self, w: Obj) -> DFlowAutomaton:
        return self._wrap(w + w, identity_automaton(expand_word(w, len(self.data))))

    def sum(self, x: DFlowAutomaton, y: DFlowAutomaton) -> DFlowAutomaton:
        return self._wrap(x.sort_word + y.sort_word, sum_automata(x.base, y.base))

    def trace(self, w: Obj, x: DFlowAutomaton) -> DFlowAutomaton:
        n = len(w)
        if x.sort_word[: 2 * n] != w + w:
            raise RankMismatch(f"trace over {w} of sort word {x.sort_word}")
        base = trace_automaton(x.base, expand_word(w, len(self.data)))
        return self._wrap(x.sort_word[2 * n :], base)

    def reindex(self, x: DFlowAutomaton, rho: PermSymbol) -> DFlowAutomaton:
        if rho.dom != x.sort_word:
            raise RankMismatch(f"reindex {x.sort_word} by symbol on {rho.dom}")
        base = reindex_automaton(x.base, lift_symbol(rho, len(self.data)))
        return self._wrap(rho.cod, base)

    def rank_of(self, x: DFlowAutomaton) -> Obj:
        return x.sort_word

    def equivalent(self, x: DFlowAutomaton, y: DFlowAutomaton, witness=None) -> bool:
        return (
            x.data == y.data
            and x.sort_word == y.sort_word
            and equivalent_automata(x.base, y.base, witness)
        )


def alternating_switch(n: int, sort: Sort = DEFAULT_SORT) -> DFlowAutomaton:
    """The n-port switch passing one bit: a negative (non-selected) port
    accepts 0 and the selected port emits 1, and the other way around.
    Anchor moves mirror the plain switch: state-preserving, any datum,
    any port.  For n = 1 the single port bounces 1 into 0."""
    if n < 1:
        raise InvalidArity(f"switch arity must be >= 1, got {n}")
    data = (0, 1)
    k = 2

    def pos(d, j):
        return position_of(j, d, k)

    delta = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                delta.add(((i, pos(0, j)), (j, pos(1, i))))
                delta.add(((i, pos(1, i)), (j, pos(0, j))))
        for j in range(1, n + 1):
            for d in (0, 1):
                delta.add(((i, ANCHOR), (i, pos(d, j))))
                delta.add(((i, pos(d, j)), (i, ANCHOR)))
        delta.add(((i, ANCHOR), (i, ANCHOR)))
    if n == 1:
        delta.add(((1, pos(1, 1)), (1, pos(0, 1))))
    base = TuringAutomaton(
        expand_word(Obj(tuple(sort for _ in range(n))), k),
        frozenset(range(1, n + 1)),
        frozenset(delta),
    )
    return DFlowAutomaton(data, Obj(tuple(sort for _ in range(n))), base)


def atomic_switch_dflow(n: int, sort: Sort = DEFAULT_SORT) -> DFlowAutomaton:
    """The plain n-port switch viewed as a data-flow automaton over a
    single dummy datum."""
    base = atomic_switch(n, sort)
    return DFlowAutomaton((0,), base.iface, base)


# -- file format ----------------------------------------------------------------


def _to_json(v):
    """Tuples become lists, recursively; scalars pass through."""
    return [_to_json(u) for u in v] if isinstance(v, tuple) else v


def _from_json(v):
    """Inverse of :func:`_to_json`: lists become tuples, recursively."""
    return tuple(_from_json(u) for u in v) if isinstance(v, list) else v


def format_automaton(a: TuringAutomaton | DFlowAutomaton) -> str:
    """JSON with the interface word, the state list and transition
    quadruples ``[q, x, r, y]``, each list sorted.  Positions are 1-based
    ints in a plain automaton; a data-flow automaton also lists its
    ``data``, has its port word as interface and writes positions as
    ``[datum, port]``.  The anchor is ``"*"``.  Tuples (product states
    from sums) are written as lists, so :func:`parse_automaton` reads the
    text back to an equal automaton."""
    flow = isinstance(a, DFlowAutomaton)
    base = a.base if flow else a
    doc = {"interface": str(a.sort_word if flow else a.iface)}
    if flow:
        doc["data"] = _to_json(a.data)

    def pos(x):
        if x == ANCHOR or not flow:
            return x
        port, d = decode_position(x, len(a.data))
        return [_to_json(a.data[d]), port]

    doc["states"] = sorted((_to_json(q) for q in base.states), key=repr)
    doc["transitions"] = sorted(
        (
            [_to_json(q), pos(x), _to_json(r), pos(y)]
            for (q, x), (r, y) in base.delta
        ),
        key=repr,
    )
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_automaton(text: str) -> TuringAutomaton | DFlowAutomaton:
    """Read the JSON written by :func:`format_automaton`: a data-flow
    automaton when the document has ``data``, a plain one otherwise."""
    doc = json.loads(text)
    word = Obj.parse(doc["interface"])
    states = frozenset(_from_json(q) for q in doc["states"])
    flow = "data" in doc
    data = tuple(_from_json(d) for d in doc["data"]) if flow else ()

    def pos(x):
        if x == ANCHOR:
            return x
        if not flow:
            return int(x)
        d, port = x
        return position_of(int(port), data.index(_from_json(d)), len(data))

    delta = frozenset(
        ((_from_json(q), pos(x)), (_from_json(r), pos(y)))
        for q, x, r, y in doc["transitions"]
    )
    base = TuringAutomaton(expand_word(word, len(data)) if flow else word, states, delta)
    return DFlowAutomaton(data, word, base) if flow else base


# -- graph machines -----------------------------------------------------------


@dataclass(frozen=True)
class GraphMachine:
    graph: SigmaGraph
    data: tuple
    omega: Mapping[str, DFlowAutomaton]

    def __post_init__(self):
        for vid in self.graph.internal_vertices():
            lab = self.graph.vertices[vid]
            if lab.name not in self.omega:
                raise MissingSymbol(f"no automaton for symbol {lab.name!r}")
            auto = self.omega[lab.name]
            if auto.data != self.data:
                raise ValueError(f"automaton for {lab.name!r} uses other data")
            if auto.arity() != len(lab.rank):
                raise ValueError(
                    f"automaton for {lab.name!r} has arity {auto.arity()}, "
                    f"vertex wants {len(lab.rank)}"
                )

    def local(self, vid: int) -> DFlowAutomaton:
        return self.omega[self.graph.vertices[vid].name]


def evaluate(m: GraphMachine) -> DFlowAutomaton:
    """The machine as one automaton over D x (rank of the graph): the star
    decomposition of the graph evaluated in the data-flow algebra."""
    alg = DFlowAlgebra(m.data)
    interp = tm.Interpretation(
        alg, {name: auto for name, auto in m.omega.items()}
    )
    needed = {m.graph.vertices[v].name for v in m.graph.internal_vertices()}
    missing = needed - set(m.omega)
    if missing:
        raise MissingSymbol(f"interpretation misses {sorted(missing)}")
    return tm.evaluate(gr.decompose(m.graph), interp)


def machine_states(m: GraphMachine) -> list[dict[int, object]]:
    """All assignments of local states to internal vertices."""
    vids = m.graph.internal_vertices()
    pools = [sorted(m.local(v).base.states, key=repr) for v in vids]
    return [dict(zip(vids, combo)) for combo in itertools.product(*pools)]


def state_packer(m: GraphMachine):
    """Maps local-state assignments to global states of ``evaluate(m)``:
    summands fold left to right in decomposition order (atoms by vertex
    id, then wire and loop markers with their single silent state)."""
    plan = gr.decomposition_plan(m.graph)
    silent = len(plan.wire_sorts) + len(plan.loop_sorts)
    vids = [vid for vid, _, _ in plan.atoms]

    def pack(local: Mapping[int, object]):
        parts = [local[vid] for vid in vids] + [0] * silent
        if not parts:
            return 0
        state = parts[0]
        for p in parts[1:]:
            state = (state, p)
        return state

    return pack


def pack_state(m: GraphMachine, local: Mapping[int, object]):
    return state_packer(m)(local)


# -- operational semantics ------------------------------------------------------


@dataclass(frozen=True)
class Config:
    """Control at an external interface (with a datum), at an internal
    port about to enter its vertex (with a datum), or at the anchor."""

    local: tuple  # sorted (vertex id, state) pairs
    locus: tuple  # ("iface", serial) | ("port", vid, port index) | ("anchor",)
    datum: object  # None exactly at the anchor

    @staticmethod
    def make(local: Mapping[int, object], locus, datum) -> "Config":
        return Config(tuple(sorted(local.items())), locus, datum)

    def local_map(self) -> dict[int, object]:
        return dict(self.local)


def _check_config(m: GraphMachine, c: Config):
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


def _cross(m: GraphMachine, local: Mapping[int, object], port, datum) -> Config:
    """Carry a datum across the edge leaving ``port``."""
    other = m.graph.partner(port)
    lab = m.graph.vertices[other[0]]
    if isinstance(lab, InterfaceLabel):
        return Config.make(local, ("iface", lab.serial), datum)
    return Config.make(local, ("port", other[0], other[1]), datum)


def step(m: GraphMachine, c: Config) -> set[Config]:
    """All one-transition successors of a configuration.

    At an interface the datum just crosses the interface edge inward; at a
    port the vertex fires one local transition and the output crosses the
    corresponding edge (or moves to the anchor); at the anchor any vertex
    may fire one of its anchor transitions.
    """
    _check_config(m, c)
    local = c.local_map()
    out: set[Config] = set()
    kind = c.locus[0]
    if kind == "iface":
        vid = m.graph.interface_vertices()[c.locus[1]]
        out.add(_cross(m, local, (vid, 0), c.datum))
        return out
    if kind == "port":
        _, vid, port = c.locus
        auto = m.local(vid)
        _fire(m, local, vid, auto, auto.position(port + 1, c.datum), out)
        return out
    # anchor: any vertex may fire an anchor-entry transition
    for vid in m.graph.internal_vertices():
        _fire(m, local, vid, m.local(vid), ANCHOR, out)
    return out


def _fire(
    m: GraphMachine, local: dict, vid: int, auto: DFlowAutomaton, entry, out: set[Config]
):
    """Add to ``out`` every configuration reached by vertex ``vid``, whose
    automaton is ``auto``, firing a local transition entering at ``entry``."""
    for (q, x), (r, y) in auto.base.delta:
        if q != local[vid] or x != entry:
            continue
        nxt = dict(local)
        nxt[vid] = r
        if y == ANCHOR:
            out.add(Config.make(nxt, ("anchor",), None))
        else:
            out_port, d_idx = decode_position(y, len(auto.data))
            out.add(_cross(m, nxt, (vid, out_port - 1), auto.data[d_idx]))


def _is_terminal(c: Config) -> bool:
    return c.locus[0] in ("iface", "anchor")


def enumerate_walks(
    m: GraphMachine,
    start_local: Mapping[int, object],
    frm,
    to,
    max_steps: int = 20,
) -> set[tuple[Config, ...]]:
    """All complete walks of at most ``max_steps`` steps from endpoint
    ``frm`` to endpoint ``to``, as full configuration sequences.  Walks may
    revisit configurations; the bound keeps the listing finite."""
    starts = _start_configs(m, start_local, frm)
    target = ("anchor",) if to == ANCHOR else ("iface", to)
    out: set[tuple[Config, ...]] = set()
    stack = [(c, (c,)) for c in starts]
    while stack:
        c, path = stack.pop()
        if len(path) - 1 >= max_steps:
            continue
        for c2 in step(m, c):
            walk = path + (c2,)
            if c2.locus == target:
                out.add(walk)
            if c2.locus[0] == "port":
                stack.append((c2, walk))
    return out


def _encode_endpoint(m: GraphMachine, c: Config):
    if c.locus[0] == "anchor":
        return ANCHOR
    return position_of(c.locus[1], m.data.index(c.datum), len(m.data))


def _reachable_exits(m: GraphMachine, start: Config, stepper) -> set[Config]:
    """Terminal configurations reachable from ``start`` in one or more
    steps (the start itself counts only when re-reached)."""
    frontier = [start]
    seen = set()
    exits: set[Config] = set()
    while frontier:
        nxt = []
        for c in frontier:
            for c2 in stepper(c):
                if _is_terminal(c2):
                    exits.add(c2)
                elif c2 not in seen:
                    seen.add(c2)
                    nxt.append(c2)
        frontier = nxt
    return exits


def _start_configs(m: GraphMachine, local: Mapping[int, object], frm) -> list[Config]:
    if frm == ANCHOR:
        return [Config.make(local, ("anchor",), None)]
    return [Config.make(local, ("iface", frm), d) for d in m.data]


def walks(
    m: GraphMachine,
    start_local: Mapping[int, object],
    frm,
    to,
) -> set:
    """All behavior pairs from interface-or-anchor ``frm`` to ``to``.

    Returns transitions in the shape of the evaluated automaton: pairs
    ``((packed_start, x), (packed_final, y))`` where x, y are base
    positions of the machine automaton (or the anchor).  A walk is a
    nonempty chain of steps ending at a terminal locus.
    """
    pack = state_packer(m)
    out = set()
    for s0 in _start_configs(m, start_local, frm):
        for c2 in _reachable_exits(m, s0, lambda c: step(m, c)):
            if to == ANCHOR and c2.locus != ("anchor",):
                continue
            if to != ANCHOR and c2.locus != ("iface", to):
                continue
            out.add(
                (
                    (pack(s0.local_map()), _encode_endpoint(m, s0)),
                    (pack(c2.local_map()), _encode_endpoint(m, c2)),
                )
            )
    return out


def walk_closure(m: GraphMachine) -> frozenset:
    """The full operational transition relation over external interfaces
    and the anchor, in the shape of ``evaluate(m).base.delta``."""
    endpoints = [ANCHOR] + sorted(m.graph.interface_vertices())
    cache: dict[Config, set[Config]] = {}

    def stepper(c: Config) -> set[Config]:
        if c not in cache:
            cache[c] = step(m, c)
        return cache[c]

    pack = state_packer(m)
    out = set()
    for local in machine_states(m):
        for frm in endpoints:
            for s0 in _start_configs(m, local, frm):
                for c2 in _reachable_exits(m, s0, stepper):
                    out.add(
                        (
                            (pack(s0.local_map()), _encode_endpoint(m, s0)),
                            (pack(c2.local_map()), _encode_endpoint(m, c2)),
                        )
                    )
    return frozenset(out)


# -- classical Turing machines ----------------------------------------------------


@dataclass(frozen=True)
class TMSpec:
    """A one-tape Turing machine: rules map (state, symbol) to
    (state, symbol, move) with move "L" or "R"."""

    states: tuple
    tape_alphabet: tuple
    blank: object
    rules: Mapping[tuple, tuple]
    initial: object
    halting: frozenset

    def __post_init__(self):
        if self.blank not in self.tape_alphabet:
            raise InvalidSpec("blank symbol not in tape alphabet")
        if self.initial not in self.states:
            raise InvalidSpec("initial state unknown")
        for (s, g), (s2, g2, move) in self.rules.items():
            if s not in self.states or s2 not in self.states:
                raise InvalidSpec(f"rule {(s, g)} uses unknown state")
            if g not in self.tape_alphabet or g2 not in self.tape_alphabet:
                raise InvalidSpec(f"rule {(s, g)} uses unknown symbol")
            if move not in ("L", "R"):
                raise InvalidSpec(f"rule {(s, g)} has move {move!r}")
            if s in self.halting:
                raise InvalidSpec("halting states have no rules")


def run_tm(spec: TMSpec, tape: Sequence, max_steps: int = 10_000):
    """Reference interpreter: run from head position 0 in the initial
    state until a halting state; errors when the head leaves the tape."""
    tape = list(tape)
    head = 0
    state = spec.initial
    for _ in range(max_steps):
        if state in spec.halting:
            return tuple(tape), state
        if not 0 <= head < len(tape):
            raise InvalidSpec("head left the tape")
        key = (state, tape[head])
        if key not in spec.rules:
            raise InvalidSpec(f"no rule for {key}")
        state, tape[head], move = spec.rules[key]
        head += 1 if move == "R" else -1
    raise InvalidSpec("machine did not halt within the step bound")


def cell_automaton(spec: TMSpec, sort: Sort = DEFAULT_SORT) -> DFlowAutomaton:
    """One tape cell as a data-flow automaton: local states are tape
    symbols, data are machine states.  A rule writing g' and moving right
    sends the new machine state out the right port (and the cell reacts
    the same whichever side the head came from); halting states are routed
    out the left port unchanged."""
    data = tuple(spec.states)
    k = len(data)

    def pos(s, j):
        return position_of(j, data.index(s), k)

    delta = set()
    for (s, g), (s2, g2, move) in spec.rules.items():
        target = 2 if move == "R" else 1
        for entry in (1, 2):
            delta.add(((g, pos(s, entry)), (g2, pos(s2, target))))
    for h in spec.halting:
        for g in spec.tape_alphabet:
            for entry in (1, 2):
                delta.add(((g, pos(h, entry)), (g, pos(h, 1))))
    word = Obj((sort, sort))
    base = TuringAutomaton(
        expand_word(word, k), frozenset(spec.tape_alphabet), frozenset(delta)
    )
    return DFlowAutomaton(data, word, base)


def tm_encode(spec: TMSpec, tape_len: int, sort: Sort = DEFAULT_SORT) -> GraphMachine:
    """A linear array of ``tape_len`` cells; the left end is interface 1,
    the right end interface 2."""
    if tape_len < 1:
        raise InvalidSpec("tape length must be >= 1")
    vertices: dict[int, object] = {}
    edges = []
    cell_rank = Obj((sort, sort))
    for i in range(tape_len):
        vertices[i] = SymbolLabel("cell", cell_rank)
    vertices[tape_len] = InterfaceLabel(1, sort)
    vertices[tape_len + 1] = InterfaceLabel(2, sort)
    edges.append({(tape_len, 0), (0, 0)})
    for i in range(tape_len - 1):
        edges.append({(i, 1), (i + 1, 0)})
    edges.append({(tape_len - 1, 1), (tape_len + 1, 0)})
    graph = SigmaGraph(vertices, edges)
    return GraphMachine(graph, tuple(spec.states), {"cell": cell_automaton(spec, sort)})


def reverse_machine(m: GraphMachine) -> GraphMachine:
    """Reverse every local automaton; encodes the reversed rule relation."""
    omega = {
        name: DFlowAutomaton(a.data, a.sort_word, reverse(a.base))
        for name, a in m.omega.items()
    }
    return GraphMachine(m.graph, m.data, omega)


def unary_increment_tm() -> TMSpec:
    """Two states: scan right over 1s, write a 1 on the first blank, halt.
    The halting state then drains out the left end."""
    return TMSpec(
        states=("s", "h"),
        tape_alphabet=("1", "b"),
        blank="b",
        rules={
            ("s", "1"): ("s", "1", "R"),
            ("s", "b"): ("h", "1", "L"),
        },
        initial="s",
        halting=frozenset({"h"}),
    )
