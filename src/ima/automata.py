"""Turing automata as an indexed monoidal algebra.

An automaton has an interface word (its positions, 1-based), a finite
nonempty state set and a transition relation between (state, position)
pairs, where a position is either an index into the interface word or the
distinguished anchor ``"*"``.  The anchor is never renamed, summed over or
traced; it lets automata of empty sort keep transitions.

Trace is computed by the Kleene-style elimination of interface pairs: for
each glued pair the surviving transitions are extended by chains that
alternate through the pair, expressed with an alternating matrix product
over the semiring of binary relations on the state set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidArity, RankMismatch
from .match import find_bijection
from .perm import Obj, PermSymbol, Sort

ANCHOR = "*"
Pos = int | str
Transition = tuple[tuple[object, Pos], tuple[object, Pos]]


# -- binary relations as bit-packed boolean matrices -------------------------


@dataclass(frozen=True)
class Rel:
    """A relation over states 0..size-1; row i is a bitmask of successors."""

    size: int
    rows: tuple[int, ...]

    @staticmethod
    def empty(size: int) -> "Rel":
        return Rel(size, (0,) * size)

    @staticmethod
    def identity(size: int) -> "Rel":
        return Rel(size, tuple(1 << i for i in range(size)))

    @staticmethod
    def from_pairs(size: int, pairs: Iterable[tuple[int, int]]) -> "Rel":
        rows = [0] * size
        for i, j in pairs:
            rows[i] |= 1 << j
        return Rel(size, tuple(rows))

    def pairs(self) -> list[tuple[int, int]]:
        out = []
        for i, row in enumerate(self.rows):
            while row:
                low = row & -row
                out.append((i, low.bit_length() - 1))
                row ^= low
        return out

    def union(self, other: "Rel") -> "Rel":
        return Rel(self.size, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def compose(self, other: "Rel") -> "Rel":
        rows2 = other.rows
        out = []
        for row in self.rows:
            acc = 0
            while row:
                low = row & -row
                acc |= rows2[low.bit_length() - 1]
                row ^= low
            out.append(acc)
        return Rel(self.size, tuple(out))

    def converse(self) -> "Rel":
        rows = [0] * self.size
        for i, j in self.pairs():
            rows[j] |= 1 << i
        return Rel(self.size, tuple(rows))

    def is_empty(self) -> bool:
        return all(r == 0 for r in self.rows)


Mat = tuple[tuple[Rel, ...], ...]  # rows of relations

# the table driving the pair elimination: one relation per surviving
# interface pair (anchor included), total on its index set
LambdaTable = dict[tuple[Pos, Pos], Rel]


def _mat_mul(u: Mat, v: Mat) -> Mat:
    size = u[0][0].size
    out = []
    for row in u:
        out_row = []
        for j in range(len(v[0])):
            acc = Rel.empty(size)
            for k in range(len(v)):
                acc = acc.union(row[k].compose(v[k][j]))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def alt_product(u: Mat, v: Mat) -> Mat:
    """Matrix product with the right factor's two rows swapped first."""
    if len(v) != 2:
        raise ValueError("alternating product needs a two-row right factor")
    return _mat_mul(u, (v[1], v[0]))


def alt_identity(size: int) -> Mat:
    i2: Mat = ((Rel.identity(size), Rel.empty(size)), (Rel.empty(size), Rel.identity(size)))
    return alt_product(i2, i2)


def alt_star(u: Mat) -> Mat:
    """Least fixpoint of ``P = P0 union (P alt_product u)`` starting from the
    alternate identity; terminates on the finite lattice of relations."""
    size = u[0][0].size
    p = alt_identity(size)
    while True:
        nxt = tuple(
            tuple(a.union(b) for a, b in zip(row_p, row_q))
            for row_p, row_q in zip(p, alt_product(p, u))
        )
        if nxt == p:
            return p
        p = nxt


# -- automata -----------------------------------------------------------------


@dataclass(frozen=True)
class TuringAutomaton:
    iface: Obj
    states: frozenset
    delta: frozenset  # of Transition

    def __post_init__(self):
        if not self.states:
            raise ValueError("state set must be nonempty")
        n = len(self.iface)
        for (q, x), (r, y) in self.delta:
            for s in (q, r):
                if s not in self.states:
                    raise ValueError(f"transition mentions unknown state {s!r}")
            for z in (x, y):
                if z != ANCHOR and not (isinstance(z, int) and 1 <= z <= n):
                    raise ValueError(f"position {z!r} outside interface of size {n}")

    def state_order(self) -> list:
        return sorted(self.states, key=repr)

    def __repr__(self):
        return (
            f"<TuringAutomaton {self.iface} |Q|={len(self.states)} "
            f"|delta|={len(self.delta)}>"
        )


def identity_automaton(w: Obj) -> TuringAutomaton:
    """Single state; position i bounces to |w|+i and back. No anchor moves."""
    n = len(w)
    q = 0
    delta = set()
    for i in range(1, n + 1):
        delta.add(((q, i), (q, n + i)))
        delta.add(((q, n + i), (q, i)))
    return TuringAutomaton(w + w, frozenset({q}), frozenset(delta))


def reindex_automaton(t: TuringAutomaton, rho: PermSymbol) -> TuringAutomaton:
    if rho.dom != t.iface:
        raise RankMismatch(f"reindex: automaton iface {t.iface}, symbol domain {rho.dom}")
    sends = rho.flatten()

    def move(x: Pos) -> Pos:
        return x if x == ANCHOR else sends[x - 1] + 1

    delta = frozenset(((q, move(x)), (r, move(y))) for (q, x), (r, y) in t.delta)
    return TuringAutomaton(rho.cod, t.states, delta)


def sum_automata(t1: TuringAutomaton, t2: TuringAutomaton) -> TuringAutomaton:
    """Product states; each summand fires alone, the other state component
    rides along unchanged.  Applies to anchor moves as well."""
    shift = len(t1.iface)

    def move(x: Pos) -> Pos:
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


def trace_automaton(
    t: TuringAutomaton,
    w: Obj,
    order: Sequence[int] | None = None,
) -> TuringAutomaton:
    """Eliminate the interface pairs (i, |w|+i) by the Kleene construction.

    ``order`` fixes the elimination sequence of pair indices 1..|w|; the
    result does not depend on it.
    """
    n = len(w)
    if t.iface[: 2 * n] != w + w:
        raise RankMismatch(f"trace: iface {t.iface} does not start with {w}{w}")
    if order is None:
        order = range(1, n + 1)
    order = list(order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order {order} is not a permutation of 1..{n}")

    states = t.state_order()
    index = {q: i for i, q in enumerate(states)}
    size = len(states)
    total = len(t.iface)

    keys: list[Pos] = list(range(1, total + 1)) + [ANCHOR]
    table: LambdaTable = {
        (x, y): Rel.empty(size) for x in keys for y in keys
    }
    grouped: dict[tuple[Pos, Pos], list[tuple[int, int]]] = {}
    for (q, x), (r, y) in t.delta:
        grouped.setdefault((x, y), []).append((index[q], index[r]))
    for xy, pairs in grouped.items():
        table[xy] = Rel.from_pairs(size, pairs)

    for i in order:
        z1, z2 = i, n + i
        mid: Mat = (
            (table[(z1, z1)], table[(z1, z2)]),
            (table[(z2, z1)], table[(z2, z2)]),
        )
        star = alt_star(mid)
        keys = [k for k in keys if k not in (z1, z2)]
        row_through = {
            x: alt_product(((table[(x, z1)], table[(x, z2)]),), star)
            for x in keys
        }
        new_table = {}
        for x in keys:
            for y in keys:
                col: Mat = ((table[(z1, y)],), (table[(z2, y)],))
                gained = alt_product(row_through[x], col)[0][0]
                new_table[(x, y)] = table[(x, y)].union(gained)
        table = new_table

    def rename(x: Pos) -> Pos:
        return x if x == ANCHOR else x - 2 * n

    delta = set()
    for (x, y), rel in table.items():
        for qi, ri in rel.pairs():
            delta.add(((states[qi], rename(x)), (states[ri], rename(y))))
    return TuringAutomaton(t.iface[2 * n :], t.states, frozenset(delta))


def reverse(t: TuringAutomaton) -> TuringAutomaton:
    return TuringAutomaton(
        t.iface, t.states, frozenset((b, a) for a, b in t.delta)
    )


def is_deterministic(t: TuringAutomaton) -> bool:
    """At most one next state for each (state, entry, exit) triple."""
    seen = set()
    for (q, x), (r, y) in t.delta:
        key = (q, x, y)
        if key in seen:
            return False
        seen.add(key)
    return True


def atomic_switch(n: int, sort: Sort = Sort("1")) -> TuringAutomaton:
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
        Obj(tuple(sort for _ in range(n))),
        frozenset(range(1, n + 1)),
        frozenset(delta),
    )


# -- equality up to a state bijection -----------------------------------------


def equivalent_automata(t1: TuringAutomaton, t2: TuringAutomaton, witness=None) -> bool:
    """True when some state bijection carries one transition set onto the
    other; ``witness`` short-circuits the search with a candidate mapping."""
    if t1.iface != t2.iface or len(t1.states) != len(t2.states):
        return False
    if len(t1.delta) != len(t2.delta):
        return False

    if witness is not None:
        mapping = {q: witness(q) for q in t1.states}
        if set(mapping.values()) == set(t2.states) and t2.delta == {
            ((mapping[q], x), (mapping[r], y)) for (q, x), (r, y) in t1.delta
        }:
            return True

    def colored(t):
        return dict.fromkeys(t.states, 0), [(q, (x, y), r) for (q, x), (r, y) in t.delta]

    return find_bijection(*colored(t1), *colored(t2)) is not None


class AutomataAlgebra:
    """The indexed monoidal algebra of Turing automata."""

    def identity(self, w: Obj):
        return identity_automaton(w)

    def sum(self, x, y):
        return sum_automata(x, y)

    def trace(self, w, x):
        return trace_automaton(x, w)

    def reindex(self, x, rho):
        return reindex_automaton(x, rho)

    def rank_of(self, x) -> Obj:
        return x.iface

    def equivalent(self, x, y, witness=None) -> bool:
        return equivalent_automata(x, y, witness)


AUTOMATA_ALGEBRA = AutomataAlgebra()
