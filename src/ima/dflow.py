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

import json
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Mapping, NamedTuple, Sequence

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
from .errors import (
    IllFormedConfig, ImaError, InvalidArity, InvalidSpec, MissingSymbol, TooManyStates,
)
from .graph import DEFAULT_SORT, InterfaceLabel, SigmaGraph, SymbolLabel
from .perm import Obj, PermSymbol, Sort, concat


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
    """A Turing automaton over interface D x A: ``base.iface`` is
    ``expand_word(sort_word, len(data))``."""

    data: tuple
    sort_word: Obj
    base: TuringAutomaton

    def __post_init__(self):
        if not self.data:
            raise ValueError("datum set must be nonempty")
        if len(set(self.data)) != len(self.data):
            raise ValueError(f"data {self.data!r} repeat a value")
        if self.base.iface != expand_word(self.sort_word, len(self.data)):
            raise ValueError(
                f"base interface {self.base.iface} does not match "
                f"{len(self.data)} data over {self.sort_word}"
            )

    def position(self, port: int, datum) -> int:
        return position_of(port, self.data.index(datum), len(self.data))

    def arity(self) -> int:
        return len(self.sort_word)


def lift_symbol(rho: PermSymbol, k: int) -> PermSymbol:
    """A sort-level symbol applied to blocks of k positions in parallel;
    ``rho.pi`` permutes the lifted blocks as it does the blocks, so the
    symbol is built unchecked."""
    return PermSymbol._assemble(tuple(expand_word(b, k) for b in rho.blocks), rho.pi)


class DFlowAlgebra:
    """The indexed monoidal algebra of data-flow automata over fixed D."""

    def __init__(self, data: Sequence):
        self.data = tuple(data)

    def _wrap(self, sort_word: Obj, base: TuringAutomaton) -> DFlowAutomaton:
        return DFlowAutomaton(self.data, sort_word, base)

    def identity(self, w: Obj) -> DFlowAutomaton:
        return self._wrap(w + w, identity_automaton(expand_word(w, len(self.data))))

    def sum(self, xs: Sequence[DFlowAutomaton]) -> DFlowAutomaton:
        base = reduce(sum_automata, [x.base for x in xs])
        return self._wrap(concat([x.sort_word for x in xs]), base)

    # ``trace_automaton`` and ``reindex_automaton`` raise ``RankMismatch``
    # on the position words, which match exactly when the sort words do

    def trace(self, w: Obj, x: DFlowAutomaton) -> DFlowAutomaton:
        base = trace_automaton(x.base, expand_word(w, len(self.data)))
        return self._wrap(x.sort_word[2 * len(w) :], base)

    def reindex(self, x: DFlowAutomaton, rho: PermSymbol) -> DFlowAutomaton:
        base = reindex_automaton(x.base, lift_symbol(rho, len(self.data)))
        return self._wrap(rho.cod, base)

    def rank_of(self, x: DFlowAutomaton) -> Obj:
        return x.sort_word

    def equivalent(self, x: DFlowAutomaton, y: DFlowAutomaton) -> bool:
        return (
            x.data == y.data
            and x.sort_word == y.sort_word
            and equivalent_automata(x.base, y.base)
        )


def flow_automaton(data: Sequence, word: Obj, states, clauses) -> DFlowAutomaton:
    """The data-flow automaton over ``data`` and port word ``word`` with
    transitions ``((q, x), (r, y))`` read from ``clauses``, each position
    ``x``, ``y`` the anchor or a ``(datum, port)`` pair."""
    data = tuple(data)
    k = len(data)

    def pos(x):
        if x == ANCHOR:
            return x
        d, port = x
        return position_of(port, data.index(d), k)

    delta = frozenset(((q, pos(x)), (r, pos(y))) for (q, x), (r, y) in clauses)
    base = TuringAutomaton(expand_word(word, k), frozenset(states), delta)
    return DFlowAutomaton(data, word, base)


def alternating_switch(n: int, sort: Sort = DEFAULT_SORT) -> DFlowAutomaton:
    """The n-port switch passing one bit: a negative (non-selected) port
    accepts 0 and the selected port emits 1, and the other way around.
    Anchor moves mirror the plain switch: state-preserving, any datum,
    any port.  For n = 1 the single port bounces 1 into 0."""
    if n < 1:
        raise InvalidArity(f"switch arity must be >= 1, got {n}")
    delta = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                delta.add(((i, (0, j)), (j, (1, i))))
                delta.add(((i, (1, i)), (j, (0, j))))
            for d in (0, 1):
                delta.add(((i, ANCHOR), (i, (d, j))))
                delta.add(((i, (d, j)), (i, ANCHOR)))
        delta.add(((i, ANCHOR), (i, ANCHOR)))
    if n == 1:
        delta.add(((1, (1, 1)), (1, (0, 1))))
    return flow_automaton((0, 1), Obj((sort,) * n), range(1, n + 1), delta)


def atomic_switch_dflow(n: int) -> DFlowAutomaton:
    """The plain n-port switch viewed as a data-flow automaton over a
    single dummy datum."""
    base = atomic_switch(n)
    return DFlowAutomaton((0,), base.iface, base)


# -- file format ----------------------------------------------------------------


def _to_json(v):
    """Tuples become lists, frozensets lists sorted by their text, also in
    objects; a generator a level, as in :func:`_from_json`, so both stop
    at one depth."""
    if isinstance(v, tuple):
        return list(_to_json(u) for u in v)
    if isinstance(v, frozenset):
        return sorted((_to_json(u) for u in v), key=repr)
    if isinstance(v, dict):
        return {k: _to_json(u) for k, u in v.items()}
    return v


def _from_json(v):
    """Lists become tuples, recursively, also inside objects."""
    if isinstance(v, list):
        return tuple(_from_json(u) for u in v)
    if isinstance(v, dict):
        return {k: _from_json(u) for k, u in v.items()}
    return v


def load_json(text: str, kind: str) -> dict:
    """The JSON object ``text``, every array in it read as a tuple; one
    nested too deeply, or no object, raises ``ValueError`` naming ``kind``."""
    try:
        doc = _from_json(json.loads(text))
    except RecursionError:
        raise ValueError(f"{kind}: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{kind}: the document must be an object, not {json.dumps(doc)}")
    return doc


def dump_json(doc: dict) -> str:
    """``doc`` as text, tuples and frozensets as arrays.  It converts the
    whole document from a frame as deep as :func:`load_json`, so what it
    writes reads back; a deeper one raises ``RecursionError``."""
    return json.dumps(_to_json(doc), indent=2, sort_keys=True) + "\n"


def format_automaton(a: TuringAutomaton | DFlowAutomaton) -> str:
    """JSON with the interface word, the state list and transition
    quadruples ``[q, x, r, y]``, each list sorted.  Positions are 1-based
    ints in a plain automaton; a data-flow automaton also lists its
    ``data``, has its port word as interface and writes positions as
    ``[datum, port]``.  The anchor is ``"*"``.  :func:`parse_automaton`
    reads the text back to an equal automaton; a state or datum nested
    too deeply to write raises ``ImaError``."""
    flow = isinstance(a, DFlowAutomaton)
    base = a.base if flow else a

    def pos(x):
        if x == ANCHOR or not flow:
            return x
        port, d = decode_position(x, len(a.data))
        return (a.data[d], port)

    doc = {"interface": str(a.sort_word if flow else a.iface), "states": base.states,
           "transitions": frozenset((q, pos(x), r, pos(y)) for (q, x), (r, y) in base.delta)}
    if flow:
        doc["data"] = a.data
    try:
        return dump_json(doc)
    except RecursionError:
        raise ImaError("cannot write automaton: a state or datum is nested too deeply") from None


def parse_automaton(text: str) -> TuringAutomaton | DFlowAutomaton:
    """Read the JSON written by :func:`format_automaton` with
    :func:`load_json`: a data-flow automaton when it has ``data``, a plain
    one otherwise.  A document :func:`load_json` refuses, of the wrong
    shape (an interface not a string, a transition not an array of four,
    ``states``, ``transitions`` or ``data`` not an array), with a key
    missing, or with a datum or port outside its ``data`` or port word
    raises ``ValueError``; an interface character that is no sort ``ImaError``."""
    doc = load_json(text, "malformed automaton file")

    def refuse(what, value, wanted):
        return ValueError(f"malformed automaton file: {what} {json.dumps(value)} is not {wanted}")

    def array(key):
        if not isinstance(doc[key], tuple):
            raise refuse(key, doc[key], "an array")
        return doc[key]

    try:
        iface = doc["interface"]
        if not isinstance(iface, str):
            raise refuse("interface", iface, "a string")
        word = Obj.read(iface, f"malformed automaton file: interface {iface!r}")
        states = frozenset(array("states"))
        flow = "data" in doc
        data = array("data") if flow else ()

        def pos(x):
            if x == ANCHOR:
                return x
            try:
                if not flow:
                    return int(x)
                if not (isinstance(x, tuple) and len(x) == 2):
                    raise ValueError
                d, port = x[0], int(x[1])
            except (TypeError, ValueError):
                wanted = "a [datum, port] pair" if flow else "a position number"
                raise refuse("position", x, f'"*" or {wanted}') from None
            if d not in data:
                raise ValueError(f"malformed automaton file: datum {d!r} not in data {data!r}")
            if not 1 <= port <= len(word):
                raise ValueError(
                    f"malformed automaton file: port {port} outside port word "
                    f"{str(word)!r} of length {len(word)}"
                )
            return d, port

        quads = array("transitions")
        for quad in quads:
            if not (isinstance(quad, tuple) and len(quad) == 4):
                raise refuse("transition", quad, "an array of four")
        clauses = (((q, pos(x)), (r, pos(y))) for q, x, r, y in quads)
        if flow:
            return flow_automaton(data, word, states, clauses)
        return TuringAutomaton(word, states, frozenset(clauses))
    except TypeError as err:
        raise ValueError(f"malformed automaton file: {err}") from None
    except KeyError as err:
        raise ValueError(f"malformed automaton file: missing key {err}") from None


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
            if auto.sort_word != lab.rank:
                raise ValueError(
                    f"automaton for {lab.name!r} has port word {auto.sort_word}, "
                    f"vertex has rank {lab.rank}"
                )

    def local(self, vid: int) -> DFlowAutomaton:
        return self.omega[self.graph.vertices[vid].name]

    @cached_property
    def step_index(self) -> "StepIndex":
        """The local deltas and edge ends :func:`step` looks up, built on
        first use."""
        return StepIndex(self)


MAX_STATES = 1 << 16
"""The most global states :func:`evaluate` and :func:`walk_closure` build.
A 16-cell tape of ``unary_increment_tm`` has this many and peaks at about
2.7 GB; 17 cells would need about 10 GB."""


def _refuse_too_many_states(m: GraphMachine) -> None:
    """Raise :class:`TooManyStates` when the product of ``m``'s local state
    counts, its global state count, exceeds :data:`MAX_STATES`."""
    count = 1
    for vid in m.graph.internal_vertices():
        count *= len(m.local(vid).base.names)
    if count > MAX_STATES:
        raise TooManyStates(
            f"the machine has {count} global states, more than the bound {MAX_STATES}"
        )


def evaluate(m: GraphMachine) -> DFlowAutomaton:
    """The machine as one automaton over D x (rank of the graph): the star
    decomposition of the graph evaluated in the data-flow algebra, in the
    order :func:`term.trace_early` gives it.  Atoms are summed in
    vertex-id order and each internal edge is traced as soon as both of
    its end vertices are in, so every trace runs over the ports on the
    frontier between summed and unsummed vertices, not over all of them.
    A machine of more than :data:`MAX_STATES` global states raises
    :class:`TooManyStates` before anything is built."""
    _refuse_too_many_states(m)
    interp = tm.Interpretation(DFlowAlgebra(m.data), m.omega)
    return tm.evaluate(tm.trace_early(gr.decompose(m.graph), interp.ranks()), interp)


def pack_state(m: GraphMachine, local: Mapping[int, object]):
    """The global state of ``evaluate(m)`` that assigns ``local[vid]`` to
    each internal vertex; a map that misses a vertex or holds an unknown
    state raises :class:`IllFormedConfig`."""
    ix = m.step_index
    return ix.name(_state_number(ix, tuple(sorted(local.items()))))


# -- operational semantics ------------------------------------------------------


class Config(NamedTuple):
    """Control at an external interface (with a datum), at an internal
    port about to enter its vertex (with a datum), or at the anchor.  A
    named tuple, so hashing and comparing run in C."""

    local: tuple  # (vertex id, state) pairs, one per internal vertex, sorted
    locus: tuple  # ("iface", serial) | ("port", vid, port index) | ("anchor",)
    datum: object  # None exactly at the anchor

    @staticmethod
    def make(local: Mapping[int, object], locus, datum) -> "Config":
        return Config(tuple(sorted(local.items())), locus, datum)

    def local_map(self) -> dict[int, object]:
        return dict(self.local)


_AT_ANCHOR = ("anchor",)
_vertex = operator.itemgetter(0)


class StepIndex:
    """The configuration graph of a machine compiled to integers, once.

    Slot ``i`` of ``Config.local`` belongs to internal vertex ``vids[i]``,
    whose local states ``names[i]`` are numbered in the order of that
    vertex automaton's ``names``, and ``digits[i]`` numbers them.  A
    local-state assignment is the mixed-radix number ``sum(q_i * radix[i])``
    of its state numbers, ``radix[i]`` being the product of the later
    slots' state counts, and there are ``size`` of them.  That is how
    ``evaluate`` numbers the states of its sum of atoms in vertex order,
    so state number ``s`` is state number ``s`` of ``evaluate(m).base``,
    and :meth:`name` decodes it to the same name.  Loci are
    numbered as well: the anchor is 0, interface ``serial`` is ``serial``,
    then come the ports of each slot in turn; ``loci`` lists the locus
    tuples by number and ``locus_id`` numbers them.

    A configuration is the int ``(locus * |D| + datum) * size + state``,
    the datum index 0 at the anchor; ``ld`` below is its
    ``locus * |D| + datum`` part.  The anchor and the interfaces have the
    lowest locus numbers, so the terminal configurations are exactly
    those below ``terminal``.  ``moves[ld]`` is a triple
    ``(radix, count, by_digit)`` for the vertex control enters there: its
    state number is ``state // radix % count``, and ``by_digit`` of it
    lists what each successor adds to the configuration with the
    ``state`` part taken off.  ``anchor`` holds the same triple for every
    slot's anchor transitions; an interface has one digit and one move,
    across its edge inward.  :func:`step` and :func:`walk_closure` both
    read successors from :meth:`successors`."""

    __slots__ = ("data", "vids", "slot", "names", "digits", "radix", "size", "silent", "loci",
                 "locus_id", "terminal", "moves", "anchor")

    def __init__(self, m: GraphMachine):
        g = m.graph
        self.data = m.data
        k = len(m.data)
        # evaluate sums the atoms in this order, then one one-state summand
        # per interface-to-interface wire and per loop vertex
        plan = gr.decomposition_plan(g)
        self.vids = tuple(vid for vid, _, _ in plan.atoms)
        self.silent = len(plan.wire_sorts) + len(plan.loop_sorts)
        self.slot = {vid: i for i, vid in enumerate(self.vids)}
        self.names = tuple(m.local(vid).base.names for vid in self.vids)
        self.digits = tuple({q: d for d, q in enumerate(names)} for names in self.names)
        radix, size = [], 1
        for names in reversed(self.names):
            radix.insert(0, size)
            size *= len(names)
        self.radix, self.size = tuple(radix), size
        ifaces = g.interface_vertices()
        loci = [_AT_ANCHOR] + [("iface", serial) for serial in ifaces]
        first_port = []
        for vid in self.vids:
            first_port.append(len(loci))
            loci += [("port", vid, p) for p in range(len(g.ports_of(vid)))]
        self.loci = tuple(loci)
        self.locus_id = {locus: n for n, locus in enumerate(loci)}
        self.terminal = (1 + len(ifaces)) * k * size

        def across(port) -> int:
            """The locus number across the edge at ``port``."""
            vid, p = g.partner(port)
            lab = g.vertices[vid]
            return lab.serial if isinstance(lab, InterfaceLabel) else first_port[self.slot[vid]] + p

        moves: list = [None] * (len(loci) * k)
        for serial, vid in ifaces.items():
            inward = across((vid, 0))
            for d in range(k):
                moves[serial * k + d] = (1, 1, (((inward * k + d) * size,),))
        anchor = []
        for i, vid in enumerate(self.vids):
            count, digit = len(self.names[i]), self.digits[i]
            entries = range(first_port[i] * k, (first_port[i] + len(g.ports_of(vid))) * k)
            table = {ld: [[] for _ in range(count)] for ld in entries}
            at_anchor = [[] for _ in range(count)]
            for (q, x), (r, y) in m.local(vid).base.delta:
                q = digit[q]
                move = (digit[r] - q) * radix[i]
                if y != ANCHOR:
                    port, d = decode_position(y, k)
                    move += (across((vid, port - 1)) * k + d) * size
                if x == ANCHOR:
                    at_anchor[q].append(move)
                else:
                    port, d = decode_position(x, k)
                    table[(first_port[i] + port - 1) * k + d][q].append(move)
            for ld, by_digit in table.items():
                moves[ld] = (radix[i], count, tuple(map(tuple, by_digit)))
            anchor.append((radix[i], count, tuple(map(tuple, at_anchor))))
        self.moves, self.anchor = moves, tuple(anchor)

    def successors(self, code: int) -> list[int]:
        """The configurations one local transition after ``code``."""
        ld, s = divmod(code, self.size)
        if ld:
            radix, count, by_digit = self.moves[ld]
            return [s + move for move in by_digit[s // radix % count]]
        return [s + move for radix, count, by_digit in self.anchor
                for move in by_digit[s // radix % count]]

    def local(self, s: int) -> tuple:
        """The sorted ``(vertex id, state)`` pairs of state number ``s``."""
        return tuple((vid, names[s // radix % len(names)])
                     for vid, names, radix in zip(self.vids, self.names, self.radix))

    def name(self, s: int):
        """State ``s``'s name in ``evaluate(m).base``: the slots' states,
        then one silent 0 per wire or loop summand, as a left-nested
        pair; 0 when there is neither."""
        parts = [q for _, q in self.local(s)] + [0] * self.silent
        return reduce(lambda left, right: (left, right), parts) if parts else 0

    def config(self, code: int) -> Config:
        """The configuration numbered ``code``."""
        ld, s = divmod(code, self.size)
        locus, d = divmod(ld, len(self.data))
        return Config(self.local(s), self.loci[locus], self.data[d] if locus else None)


def _state_number(ix: StepIndex, local: tuple) -> int:
    """The number of ``local``; raise unless it holds a known state for
    each internal vertex, in vertex order."""
    if tuple(map(_vertex, local)) != ix.vids:
        raise IllFormedConfig("local state map does not cover internal vertices")
    s = 0
    for (vid, q), digit, radix in zip(local, ix.digits, ix.radix):
        try:
            s += digit[q] * radix
        except (KeyError, TypeError):  # an unhashable value is no state
            raise IllFormedConfig(f"state {q!r} unknown at vertex {vid}") from None
    return s


def step(m: GraphMachine, c: Config) -> set[Config]:
    """All one-transition successors of a configuration.

    At an interface the datum just crosses the interface edge inward; at a
    port the vertex fires one local transition and the output crosses the
    corresponding edge (or moves to the anchor); at the anchor any vertex
    may fire one of its anchor transitions.  ``c`` is numbered and its
    successors read from ``m.step_index``; ``c.local`` must be sorted as
    ``Config.make`` sorts it, and a malformed ``c`` raises
    :class:`IllFormedConfig`.
    """
    ix = m.step_index
    s = _state_number(ix, c.local)
    kind = c.locus[0]
    if kind == "anchor":
        if c.datum is not None:
            raise IllFormedConfig("datum at the anchor")
        return {ix.config(c2) for c2 in ix.successors(s)}
    if kind not in ("iface", "port"):
        raise IllFormedConfig(f"unknown locus {c.locus!r}")
    if c.datum not in m.data:
        raise IllFormedConfig(f"datum {c.datum!r} not in machine data")
    if kind == "iface":
        locus = ix.locus_id.get(("iface", c.locus[1]))
        if locus is None:
            raise IllFormedConfig(f"no interface {c.locus[1]}")
    else:
        _, vid, port = c.locus
        if vid not in ix.slot:
            raise IllFormedConfig(f"vertex {vid} is not internal")
        locus = ix.locus_id.get(("port", vid, port))
        if locus is None:
            raise IllFormedConfig(f"vertex {vid} has no port {port}")
    code = (locus * len(m.data) + m.data.index(c.datum)) * ix.size + s
    return {ix.config(c2) for c2 in ix.successors(code)}


def _target_locus(m: GraphMachine, to) -> tuple:
    """The locus at which walks to endpoint ``to`` end."""
    if to == ANCHOR:
        return _AT_ANCHOR
    if to not in m.graph.interface_vertices():
        raise IllFormedConfig(f"no interface {to}")
    return ("iface", to)


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
    target = _target_locus(m, to)
    starts = _start_configs(m, start_local, frm)
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


def _start_configs(m: GraphMachine, local: Mapping[int, object], frm) -> list[Config]:
    if frm == ANCHOR:
        return [Config.make(local, _AT_ANCHOR, None)]
    return [Config.make(local, ("iface", frm), d) for d in m.data]


def walks(m: GraphMachine, start_local: Mapping[int, object], frm, to) -> set:
    """All behavior pairs from interface-or-anchor ``frm`` to ``to``.

    Returns transitions in the shape of the evaluated automaton: pairs
    ``((packed_start, x), (packed_final, y))`` where x, y are base
    positions of the machine automaton (or the anchor).  A walk is a
    nonempty chain of steps ending at a terminal locus, an interface or
    the anchor; each start is searched breadth-first through :func:`step`.
    """
    target = _target_locus(m, to)
    ix = m.step_index

    def end(c: Config) -> tuple:
        state = ix.name(_state_number(ix, c.local))
        if c.locus[0] == "anchor":
            return state, ANCHOR
        return state, position_of(c.locus[1], m.data.index(c.datum), len(m.data))

    out = set()
    for s0 in _start_configs(m, start_local, frm):
        frontier, seen, exits = [s0], set(), set()
        while frontier:
            nxt = []
            for c in frontier:
                for c2 in step(m, c):
                    if c2.locus[0] != "port":
                        exits.add(c2)
                    elif c2 not in seen:
                        seen.add(c2)
                        nxt.append(c2)
            frontier = nxt
        out |= {(end(s0), end(c2)) for c2 in exits if c2.locus == target}
    return out


def walk_closure(m: GraphMachine) -> frozenset:
    """The full operational transition relation over external interfaces
    and the anchor, in the shape of ``evaluate(m).base.delta``.

    Every start is searched breadth-first by one loop over the
    configuration numbers of ``m.step_index``, with no function call per
    expansion: each configuration's successors are read once into a
    dict, a code below ``ix.terminal`` ends a walk, and each terminal's
    ``(name, position)`` end is built once and shared by every start
    that reaches it.  A machine of more than :data:`MAX_STATES` global
    states raises :class:`TooManyStates` before anything is built."""
    _refuse_too_many_states(m)
    ix = m.step_index
    k, size, terminal = len(m.data), ix.size, ix.terminal
    names = [ix.name(s) for s in range(size)]
    # the end of a transition at each terminal (locus * |D| + datum)
    where = [ANCHOR] * k + [
        position_of(serial, d, k) for serial in m.graph.interface_vertices() for d in range(k)
    ]
    starts = [0] + list(range(k, len(where)))
    succ: dict[int, list[int]] = {}
    ends: dict[int, tuple] = {}
    out = set()
    for s in range(size):
        for ld in starts:
            begin = names[s], where[ld]
            frontier, seen, exits = [ld * size + s], set(), set()
            while frontier:
                nxt = []
                for code in frontier:
                    following = succ.get(code)
                    if following is None:
                        following = succ[code] = ix.successors(code)
                    for c2 in following:
                        if c2 < terminal:
                            exits.add(c2)
                        elif c2 not in seen:
                            seen.add(c2)
                            nxt.append(c2)
                frontier = nxt
            for code in exits:
                end = ends.get(code)
                if end is None:
                    ld2, s2 = divmod(code, size)
                    end = ends[code] = names[s2], where[ld2]
                out.add((begin, end))
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


def cell_automaton(spec: TMSpec) -> DFlowAutomaton:
    """One tape cell as a data-flow automaton: local states are tape
    symbols, data are machine states.  A rule writing g' and moving right
    sends the new machine state out the right port (and the cell reacts
    the same whichever side the head came from); halting states are routed
    out the left port unchanged."""
    delta = set()
    for (s, g), (s2, g2, move) in spec.rules.items():
        target = 2 if move == "R" else 1
        for entry in (1, 2):
            delta.add(((g, (s, entry)), (g2, (s2, target))))
    for h in spec.halting:
        for g in spec.tape_alphabet:
            for entry in (1, 2):
                delta.add(((g, (h, entry)), (g, (h, 1))))
    word = Obj((DEFAULT_SORT, DEFAULT_SORT))
    return flow_automaton(spec.states, word, spec.tape_alphabet, delta)


def tm_encode(spec: TMSpec, tape_len: int) -> GraphMachine:
    """A linear array of ``tape_len`` cells; the left end is interface 1,
    the right end interface 2."""
    if tape_len < 1:
        raise InvalidSpec("tape length must be >= 1")
    vertices: dict[int, object] = {}
    edges = []
    cell_rank = Obj((DEFAULT_SORT, DEFAULT_SORT))
    for i in range(tape_len):
        vertices[i] = SymbolLabel("cell", cell_rank)
    vertices[tape_len] = InterfaceLabel(1, DEFAULT_SORT)
    vertices[tape_len + 1] = InterfaceLabel(2, DEFAULT_SORT)
    edges.append({(tape_len, 0), (0, 0)})
    for i in range(tape_len - 1):
        edges.append({(i, 1), (i + 1, 0)})
    edges.append({(tape_len - 1, 1), (tape_len + 1, 0)})
    graph = SigmaGraph(vertices, edges)
    return GraphMachine(graph, tuple(spec.states), {"cell": cell_automaton(spec)})


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
