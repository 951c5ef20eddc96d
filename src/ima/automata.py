"""Turing automata as an indexed monoidal algebra.

An automaton has an interface word (its positions, 1-based), a finite
nonempty state set and a transition relation between (state, position)
pairs, where a position is either an index into the interface word or the
distinguished anchor ``"*"``.  The anchor is never renamed, summed over or
traced; it lets automata of empty sort keep transitions.

An automaton is stored as a table: its states are numbered by the tuple
``names``, and ``table`` maps each (entry, exit) position pair to the
binary relation on state numbers that its transitions form, keeping only
the non-empty relations.  The operations work on the table alone.  Sum is
the Kronecker sum of the two tables (``R ⊗ I`` for the left summand's
moves, ``I ⊗ R`` for the right's), reindex renames table keys and shares
the relations, and trace is state elimination over the glued ends:
control that exits at one end of a glued pair resumes at the other, so
each end is a node, and eliminating it extends every surviving entry by
the paths through it, with its loop, when it has one, closed by the
reflexive-transitive closure ``Rel.star``.  The ``states`` and ``delta``
sets are views decoded from the table on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable

from .errors import InvalidArity, RankMismatch
from .match import find_bijection
from .perm import DEFAULT_SORT, Obj, PermSymbol

ANCHOR = "*"
Pos = int | str
Transition = tuple[tuple[object, Pos], tuple[object, Pos]]


# -- binary relations as sparse rows of bitmasks ------------------------------


@dataclass(frozen=True)
class Rel:
    """A relation over states 0..size-1.  ``succ`` maps each state that has
    successors to the bitmask of its successors; states without successors
    have no key, so the operations visit only non-zero rows, as row-wise
    sparse products do (Gustavson 1978).  No map holds a zero row, so
    ``==`` is equality of relations.  A ``Rel`` never changes, and results
    may share their maps with the operands."""

    size: int
    succ: dict[int, int]

    def __hash__(self):
        return hash((self.size, frozenset(self.succ.items())))

    @property
    def rows(self) -> tuple[int, ...]:
        """The dense view: row i is the bitmask of state i's successors."""
        rows = [0] * self.size
        for i, row in self.succ.items():
            rows[i] = row
        return tuple(rows)

    @staticmethod
    def from_pairs(size: int, pairs: Iterable[tuple[int, int]]) -> "Rel":
        succ: dict[int, int] = {}
        for i, j in pairs:
            succ[i] = succ.get(i, 0) | 1 << j
        return Rel(size, succ)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, js in sorted(_split(self)) for j in js]

    def union(self, other: "Rel") -> "Rel":
        if not other.succ:
            return self
        if not self.succ:
            return other
        succ = dict(self.succ)
        for i, row in other.succ.items():
            succ[i] = succ.get(i, 0) | row
        return Rel(self.size, succ)

    def compose(self, other: "Rel") -> "Rel":
        return _compose_split(self.size, _split(self), other)

    def star(self) -> "Rel":
        """The reflexive-transitive closure: row i is the set of states a
        search along the rows reaches from state i.  Only states with
        successors are searched from; every other row is its own bit."""
        succ = self.succ
        out = {i: 1 << i for i in range(self.size)}
        for i in succ:
            reach = todo = 1 << i
            while todo:
                low = todo & -todo
                todo ^= low
                new = succ.get(low.bit_length() - 1, 0) & ~reach
                reach |= new
                todo |= new
            out[i] = reach
        return Rel(self.size, out)

    def converse(self) -> "Rel":
        return Rel.from_pairs(self.size, ((j, i) for i, j in self.pairs()))

    def is_empty(self) -> bool:
        return not self.succ


def _split(rel: Rel) -> list[tuple[int, list[int]]]:
    """Each non-zero row of ``rel`` with the numbers of its successors, so
    that one relation composed with many is decoded once."""
    out = []
    for i, row in rel.succ.items():
        js = []
        while row:
            low = row & -row
            js.append(low.bit_length() - 1)
            row ^= low
        out.append((i, js))
    return out


def _compose_split(size: int, split: list[tuple[int, list[int]]], other: Rel) -> Rel:
    """The relation ``split`` lists (see ``_split``), over ``size`` states,
    followed by ``other``; a new empty relation when either is empty."""
    right = other.succ
    if not split or not right:
        return Rel(size, {})
    succ = {}
    for i, js in split:
        acc = 0
        for j in js:
            acc |= right.get(j, 0)
        if acc:
            succ[i] = acc
    return Rel(size, succ)


Table = dict[tuple[Pos, Pos], Rel]


# -- automata -----------------------------------------------------------------


def _in_range(z: Pos, n: int) -> bool:
    return z == ANCHOR or (isinstance(z, int) and 1 <= z <= n)


class TuringAutomaton:
    """``TuringAutomaton(iface, states, delta)`` checks its transitions
    once and groups them into ``table``; the operations below assemble
    their results from parts that are checked already.  ``==`` and
    ``hash`` compare the interface, ``states`` and ``delta``."""

    def __init__(self, iface: Obj, states: Iterable, delta: Iterable[Transition]):
        states, delta = frozenset(states), frozenset(delta)
        if not states:
            raise ValueError("state set must be nonempty")
        names = tuple(states)
        index = {q: i for i, q in enumerate(names)}
        n = len(iface)
        grouped: dict[tuple[Pos, Pos], list[tuple[int, int]]] = {}
        for (q, x), (r, y) in delta:
            for s in (q, r):
                if s not in index:
                    raise ValueError(f"transition mentions unknown state {s!r}")
            for z in (x, y):
                if not _in_range(z, n):
                    raise ValueError(f"position {z!r} outside interface of size {n}")
            grouped.setdefault((x, y), []).append((index[q], index[r]))
        self.iface, self.names = iface, names
        self.table = {xy: Rel.from_pairs(len(names), pairs) for xy, pairs in grouped.items()}
        # the checked sets are the views: nothing to decode later
        self.__dict__.update(states=states, delta=delta)

    @classmethod
    def _assemble(cls, iface: Obj, names: tuple, table: Table) -> "TuringAutomaton":
        """An automaton from checked states and non-empty relations over
        them, keyed by positions of ``iface``; nothing is checked, as the
        operations build only such tables."""
        t = object.__new__(cls)
        t.iface, t.names, t.table = iface, names, table
        return t

    @cached_property
    def states(self) -> frozenset:
        return frozenset(self.names)

    @cached_property
    def delta(self) -> frozenset:
        return _decode(self.names, self.table)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.iface, self.states, self.delta) == (other.iface, other.states, other.delta)

    def __hash__(self):
        return hash((self.iface, self.states, self.delta))

    def __repr__(self):
        count = sum(row.bit_count() for rel in self.table.values() for row in rel.succ.values())
        return f"<TuringAutomaton {self.iface} |Q|={len(self.names)} |delta|={count}>"


def _decode(names: tuple, table: Table) -> frozenset:
    """The transition set of a table over the numbered states ``names``."""
    return frozenset(
        ((names[i], x), (names[j], y)) for (x, y), rel in table.items() for i, j in rel.pairs()
    )


def identity_automaton(w: Obj) -> TuringAutomaton:
    """Single state; position i bounces to |w|+i and back. No anchor moves."""
    n = len(w)
    bounce = Rel(1, {0: 1})
    table: Table = {}
    for i in range(1, n + 1):
        table[(i, n + i)] = table[(n + i, i)] = bounce
    return TuringAutomaton._assemble(w + w, (0,), table)


def reindex_automaton(t: TuringAutomaton, rho: PermSymbol) -> TuringAutomaton:
    """Renames the table keys; the relations are shared."""
    if rho.dom != t.iface:
        raise RankMismatch(f"reindex: automaton iface {t.iface}, symbol domain {rho.dom}")
    move: dict[Pos, Pos] = {i: s + 1 for i, s in enumerate(rho.flatten(), start=1)}
    move[ANCHOR] = ANCHOR
    table = {(move[x], move[y]): rel for (x, y), rel in t.table.items()}
    return TuringAutomaton._assemble(rho.cod, t.names, table)


def _spread(row: int, stride: int) -> int:
    """Bit j of ``row`` moved to bit j * stride."""
    out = 0
    while row:
        low = row & -row
        out |= 1 << (low.bit_length() - 1) * stride
        row ^= low
    return out


def sum_automata(t1: TuringAutomaton, t2: TuringAutomaton) -> TuringAutomaton:
    """Product states; each summand fires alone, the other state component
    rides along unchanged.  Applies to anchor moves as well.

    State ``(q1, q2)`` is number ``i * |Q2| + j`` when ``q1`` and ``q2``
    are numbers ``i`` and ``j``, so the left summand's relations become
    ``R ⊗ I`` and the right's ``I ⊗ R``, spread from their non-zero rows
    alone.  Only the anchor-to-anchor entry can come from both; it is
    their union."""
    n1, n2 = len(t1.names), len(t2.names)
    size = n1 * n2
    table: Table = {}
    for xy, rel in t1.table.items():
        succ = {}
        for i, row in rel.succ.items():
            spread = _spread(row, n2)
            for j in range(n2):
                succ[i * n2 + j] = spread << j
        table[xy] = Rel(size, succ)
    shift = len(t1.iface)
    for (x, y), rel in t2.table.items():
        xy = (x if x == ANCHOR else x + shift, y if y == ANCHOR else y + shift)
        moved = Rel(size, {i * n2 + j: row << i * n2
                           for i in range(n1) for j, row in rel.succ.items()})
        table[xy] = table[xy].union(moved) if xy in table else moved
    names = tuple((q1, q2) for q1 in t1.names for q2 in t2.names)
    return TuringAutomaton._assemble(t1.iface + t2.iface, names, table)


def trace_automaton(t: TuringAutomaton, w: Obj) -> TuringAutomaton:
    """Glue the interface pairs (i, |w|+i) by state elimination.

    Control that exits at one end of a glued pair re-enters at the other
    in the same state.  Each pair is two nodes, and node ``(v, u)`` means
    "exit at ``v``, resume at ``u``": its in-edges are the entries
    ``(x, v)``, its out-edges the entries ``(u, y)`` and its loop the
    entry ``(u, v)``.  Eliminating the node adds every path through it to
    the entries that survive it (Brzozowski & McCluskey 1963).  A path
    enters by ``(x, v)``, goes round the loop, closed by ``Rel.star``, and
    leaves by ``(u, y)``; a node whose loop is empty is left straight away,
    with no closure to compose.
    """
    n = len(w)
    if t.iface[: 2 * n] != w + w:
        raise RankMismatch(f"trace: iface {t.iface} does not start with {w}{w}")

    # the elimination runs on the dense table over all positions and the
    # anchor; every absent entry is one shared empty relation
    size = len(t.names)
    empty = Rel(size, {})
    keys: list[Pos] = list(range(1, len(t.iface) + 1)) + [ANCHOR]
    entry = t.table.get
    table: Table = {(x, y): entry((x, y), empty) for x in keys for y in keys}

    # the entry (source) and exit (target) positions whose node is still live
    sources, targets = keys[:], keys[:]
    for i in range(1, n + 1):
        for v, u in ((i, n + i), (n + i, i)):
            sources.remove(u)
            targets.remove(v)
            loop = table[(u, v)]
            loop = loop.star() if loop.succ else None
            exits = [(y, table[(u, y)]) for y in targets]
            for x in sources:
                through = table[(x, v)] if loop is None else table[(x, v)].compose(loop)
                # decoded once, composed with every exit entry
                paths = _split(through)
                for y, out in exits:
                    table[(x, y)] = table[(x, y)].union(_compose_split(size, paths, out))

    def rename(x: Pos) -> Pos:
        return x if x == ANCHOR else x - 2 * n

    kept = {(rename(x), rename(y)): table[(x, y)]
            for x in sources for y in targets if table[(x, y)].succ}
    return TuringAutomaton._assemble(t.iface[2 * n :], t.names, kept)


def reverse(t: TuringAutomaton) -> TuringAutomaton:
    table = {(y, x): rel.converse() for (x, y), rel in t.table.items()}
    return TuringAutomaton._assemble(t.iface, t.names, table)


def is_deterministic(t: TuringAutomaton) -> bool:
    """At most one next state for each (state, entry, exit) triple."""
    return all(row & (row - 1) == 0 for rel in t.table.values() for row in rel.succ.values())


def atomic_switch(n: int) -> TuringAutomaton:
    """The n-port switch with one selected (positive) port per state.

    Entering a non-selected port exits at the selected one and moves the
    selection to the entered port; entering the selected port exits at any
    other and moves the selection there.  Every state also exchanges
    control with the anchor at every port.  For n = 1 control entering the
    single port bounces straight back.
    """
    if n < 1:
        raise InvalidArity(f"switch arity must be >= 1, got {n}")
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
    return TuringAutomaton(
        Obj((DEFAULT_SORT,) * n),
        frozenset(range(1, n + 1)),
        frozenset(delta),
    )


# -- equality up to a state bijection -----------------------------------------


def equivalent_automata(t1: TuringAutomaton, t2: TuringAutomaton) -> bool:
    """True when some state bijection carries one transition set onto the
    other.  Equal tables are settled by the identity on state numbers;
    otherwise the numbered states are matched with the table entries as
    labelled edges.  Reads only ``iface``, ``names`` and ``table``."""
    if t1.iface != t2.iface or len(t1.names) != len(t2.names):
        return False
    if t1.table == t2.table:
        return True

    def colored(t):
        edges = [(i, xy, j) for xy, rel in t.table.items() for i, j in rel.pairs()]
        return dict.fromkeys(range(len(t.names)), 0), edges

    return find_bijection(*colored(t1), *colored(t2)) is not None


class AutomataAlgebra:
    """The indexed monoidal algebra of Turing automata."""

    def identity(self, w: Obj):
        return identity_automaton(w)

    def sum(self, xs):
        # left fold: product states nest as ((q1, q2), q3), ...
        return reduce(sum_automata, xs)

    def trace(self, w, x):
        return trace_automaton(x, w)

    def reindex(self, x, rho):
        return reindex_automaton(x, rho)

    def rank_of(self, x) -> Obj:
        return x.iface

    def equivalent(self, x, y) -> bool:
        return equivalent_automata(x, y)


AUTOMATA_ALGEBRA = AutomataAlgebra()
