"""Term front end: syntax trees, parsing, ranking and evaluation.

Grammar (``+`` is left-associative, ``.`` binds tightest)::

    term ::= "atom" NAME
           | "id(" word ")"
           | term "+" term
           | "tr(" word "," term ")"
           | term "." perm
           | "comp[" word ";" word ";" word "]" "(" term "," term ")"
           | "ten[" word ";" word ";" word ";" word "]" "(" term "," term ")"
           | "(" term ")"
    perm ::= "id(" word ")" | "c(" word "," word ")"
           | perm "." perm | perm "#" perm | "(" perm ")"

Words are comma-free strings of single-letter sorts, ``()`` is the unit
word.  After a term-level ``.`` the longest permutation expression is
consumed, so ``t . p1 . p2`` denotes one indexing by the composite
``p1 . p2``; write ``(t . p1) . p2`` for two separate indexings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Mapping

from . import perm as pm
from .algebra import compose_in, tensor_in
from .errors import MissingSymbol, ParseError, RankError
from .perm import Obj, PermSymbol


# -- syntax trees ------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Id:
    w: Obj


class _Node:
    """Structural ``==`` and ``hash`` for the nodes with operands.  Both
    go through the node's postorder listing, so comparing or hashing a
    term nested to any depth does not recurse."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _postorder(self) == _postorder(other)

    def __hash__(self):
        return hash(tuple(_postorder(self)))


@dataclass(frozen=True, eq=False)
class Sum(_Node):
    left: "Term"
    right: "Term"


@dataclass(frozen=True, eq=False)
class Trace(_Node):
    w: Obj
    body: "Term"


@dataclass(frozen=True, eq=False)
class Index(_Node):
    body: "Term"
    rho: PermSymbol


@dataclass(frozen=True, eq=False)
class Comp(_Node):
    a: Obj
    b: Obj
    c: Obj
    left: "Term"
    right: "Term"


@dataclass(frozen=True, eq=False)
class Tensor(_Node):
    a: Obj
    b: Obj
    c: Obj
    d: Obj
    left: "Term"
    right: "Term"


Term = Atom | Id | Sum | Trace | Index | Comp | Tensor


def summands(t: Term) -> list[Term]:
    """The operands of the left-nested ``Sum`` spine of ``t``, left to
    right (``[t]`` when ``t`` is not a sum).  Walks the spine without
    recursion, so flat sums of any length are safe; folding the result
    left with ``Sum`` rebuilds ``t`` exactly."""
    out = []
    while isinstance(t, Sum):
        out.append(t.right)
        t = t.left
    out.append(t)
    out.reverse()
    return out


def fold(t: Term, visit):
    """``visit(node, values)`` applied bottom-up over ``t``, where
    ``values`` lists the results for the node's operands: the summands of
    its ``Sum`` spine, the body of a ``Trace`` or ``Index``, the two sides
    of a ``Comp`` or ``Tensor``, none for a leaf.  An explicit stack
    replaces recursion, so terms nested to any depth are safe."""
    values: list = []
    stack: list = [t]  # nodes to expand, and (node, operand count) to visit
    while stack:
        node = stack.pop()
        cls = node.__class__
        if cls is tuple:
            node, k = node
            args = values[-k:]
            del values[-k:]
            values.append(visit(node, args))
        elif cls is Trace or cls is Index:
            stack += ((node, 1), node.body)
        elif cls is Sum:
            operands = summands(node)
            stack.append((node, len(operands)))
            stack += reversed(operands)
        elif cls is Comp or cls is Tensor:
            stack += ((node, 2), node.right, node.left)
        else:
            values.append(visit(node, ()))
    return values[0]


def _postorder(t: Term) -> list:
    """The nodes of ``t`` in postorder, each a leaf itself or its class
    with its fields that are not terms (a ``Sum`` with its operand count).
    The listing determines the term, so two terms are equal exactly when
    their listings are."""
    out = []

    def visit(node, values):
        cls = node.__class__
        if cls is Sum:
            out.append((Sum, len(values)))
        elif cls is Trace:
            out.append((Trace, node.w))
        elif cls is Index:
            out.append((Index, node.rho))
        elif cls is Comp:
            out.append((Comp, node.a, node.b, node.c))
        elif cls is Tensor:
            out.append((Tensor, node.a, node.b, node.c, node.d))
        else:
            out.append(node)

    fold(t, visit)
    return out


# -- ranking ------------------------------------------------------------------


def rank(t: Term, ranks: Mapping[str, Obj]) -> Obj:
    """The unique rank word of ``t``, with atom ranks from ``ranks``."""

    def visit(t, rs):
        if isinstance(t, Atom):
            if t.name not in ranks:
                raise RankError(f"unknown atom {t.name!r}", t)
            return ranks[t.name]
        if isinstance(t, Id):
            return t.w + t.w
        if isinstance(t, Sum):
            return pm.concat(rs)
        if isinstance(t, Trace):
            r = rs[0]
            n = len(t.w)
            if r[: 2 * n] != t.w + t.w:
                raise RankError(
                    f"trace over {t.w} needs rank starting {t.w}{t.w}, got {r}", t
                )
            return r[2 * n :]
        if isinstance(t, Index):
            r = rs[0]
            if t.rho.dom != r:
                raise RankError(
                    f"indexing expects domain {r}, symbol has {t.rho.dom}", t
                )
            return t.rho.cod
        if isinstance(t, Comp):
            rl, rr = rs
            if rl != t.a + t.b:
                raise RankError(f"left of comp has rank {rl}, split says {t.a + t.b}", t)
            if rr != t.b + t.c:
                raise RankError(f"right of comp has rank {rr}, split says {t.b + t.c}", t)
            return t.a + t.c
        if isinstance(t, Tensor):
            rl, rr = rs
            if rl != t.a + t.b:
                raise RankError(f"left of ten has rank {rl}, split says {t.a + t.b}", t)
            if rr != t.c + t.d:
                raise RankError(f"right of ten has rank {rr}, split says {t.c + t.d}", t)
            return t.a + t.c + t.b + t.d
        raise TypeError(f"not a term: {t!r}")

    return fold(t, visit)


def trace_early(t: Term, ranks: Mapping[str, Obj]) -> Term:
    """The same morphism as ``t``, with each traced pair closed as soon as
    both of its ends are summed.

    ``t`` is read as ``tr_w((s_1 + ... + s_k) . rho)``, a missing trace or
    indexing counting as the empty one.  The summands are added in the
    same left-to-right order; after each one, an indexing moves the pairs
    whose two ends are now both present to the front and a trace closes
    them.  A last indexing puts the open positions in the order of ``t``'s
    rank.  Each step is the superposing axiom ``tr(A) + C = tr(A + C)``
    with naturality of trace in the indexing, so the result has the value
    of ``t`` in every algebra, and sums keep their left-nested shape.
    Each trace is as wide as the frontier between the summed and the
    unsummed summands rather than the whole sum.
    """
    w = pm.UNIT
    if isinstance(t, Trace):
        w, t = t.w, t.body
    sends = None
    if isinstance(t, Index):
        t, sends = t.body, t.rho.flatten()
    n = len(w)

    def reindexed(body, targets):
        """``body``, whose rank is the positions ``open_``, with the k-th
        of them sent to ``targets[k]``."""
        if targets == list(range(len(targets))):
            return body
        word = Obj(tuple(letters[p] for p in open_))
        return Index(body, pm.from_positions(word, targets))

    body = None
    letters = []  # sort of each summed position, by position in the sum
    goal = []  # where ``rho`` sends each summed position
    open_ = []  # positions of the sum still open in ``body``'s rank, in order
    where = {}  # goal under the trace -> position in the sum
    for u in summands(t):
        ready = []
        for s in rank(u, ranks):
            p = len(letters)
            j = p if sends is None else sends[p]
            letters.append(s)
            goal.append(j)
            open_.append(p)
            if j < 2 * n:
                where[j] = p
                if (j + n if j < n else j - n) in where:
                    ready.append(j % n)
        body = u if body is None else Sum(body, u)
        if ready:
            ready.sort()
            closing = [where[i] for i in ready] + [where[n + i] for i in ready]
            shut = set(closing)
            rest = [p for p in open_ if p not in shut]
            at = {p: k for k, p in enumerate(closing + rest)}
            body = reindexed(body, [at[p] for p in open_])
            body = Trace(Obj(tuple(letters[where[i]] for i in ready)), body)
            open_ = rest
    return reindexed(body, [goal[p] - 2 * n for p in open_])


# -- evaluation ----------------------------------------------------------------


@dataclass(frozen=True)
class Interpretation:
    """A target algebra plus a rank-preserving symbol assignment."""

    algebra: object
    symbols: Mapping[str, object]

    def ranks(self) -> dict[str, Obj]:
        return {name: self.algebra.rank_of(v) for name, v in self.symbols.items()}


def evaluate(t: Term, interp: Interpretation):
    """Fold ``t`` through the target algebra; the unique homomorphic
    extension of the symbol assignment.  ``comp`` and ``ten`` are the
    algebra's derived composition and tensor.  A term naming an atom the
    interpretation lacks raises ``MissingSymbol``, any other ill-ranked
    term ``RankError``."""
    try:
        rank(t, interp.ranks())
    except RankError:
        missing = atoms(t) - interp.symbols.keys()
        if missing:
            raise MissingSymbol(
                f"interpretation does not cover {sorted(missing)[0]!r}"
            ) from None
        raise
    alg = interp.algebra

    def visit(t, vs):
        if isinstance(t, Atom):
            return interp.symbols[t.name]
        if isinstance(t, Id):
            return alg.identity(t.w)
        if isinstance(t, Sum):
            return reduce(alg.sum, vs)
        if isinstance(t, Trace):
            return alg.trace(t.w, vs[0])
        if isinstance(t, Index):
            return alg.reindex(vs[0], t.rho)
        if isinstance(t, Comp):
            return compose_in(alg, *vs, t.a, t.b, t.c)
        return tensor_in(alg, *vs, t.a, t.b, t.c, t.d)  # rank let only terms through

    return fold(t, visit)


def atoms(t: Term) -> set[str]:
    names = set()

    def visit(t, _):
        if isinstance(t, Atom):
            names.add(t.name)

    fold(t, visit)
    return names


def graph_interpretation(alphabet) -> Interpretation:
    """The self-interpretation sending each symbol to its star graph."""
    from . import graph as gr

    return Interpretation(
        gr.GRAPH_ALGEBRA,
        {name: gr.atom(alphabet, name) for name in alphabet.symbols},
    )


def normalize(t: Term, alphabet):
    """The graph normal form of ``t``."""
    return evaluate(t, graph_interpretation(alphabet))


def term_equal(t1: Term, t2: Term, alphabet) -> bool:
    """Terms denote the same morphism in every algebra exactly when their
    graph normal forms are isomorphic."""
    from . import graph as gr

    ranks = {name: alphabet.rank(name) for name in alphabet.symbols}
    r1, r2 = rank(t1, ranks), rank(t2, ranks)
    if r1 != r2:
        raise RankError(f"ranks differ: {r1} vs {r2}", t1)
    return gr.isomorphic(normalize(t1, alphabet), normalize(t2, alphabet))


# -- parsing -------------------------------------------------------------------


class _Tokens:
    # ``\w`` is exactly ``str.isalnum()`` or ``_``, and ``\s`` exactly
    # ``str.isspace()``; only ``\n`` starts a new line.
    TOKEN = re.compile(
        r"(?P<name>\w+)|(?P<punct>[()\[\];,+.#])|(?P<space>\s+)|(?P<bad>.)", re.DOTALL
    )

    def __init__(self, text: str):
        self.items: list[tuple[str, str, int, int]] = []  # kind, value, line, col
        line, start = 1, 0  # start: offset of the first character of the line
        for m in self.TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "space":
                newlines = m.group().count("\n")
                if newlines:
                    line += newlines
                    start = text.rindex("\n", m.start(), m.end()) + 1
            elif kind == "bad":
                raise ParseError(
                    f"unexpected character {m.group()!r}", line, m.start() - start + 1
                )
            else:
                self.items.append((kind, m.group(), line, m.start() - start + 1))
        self.items.append(("eof", "", line, len(text) - start + 1))
        self.pos = 0

    def peek(self):
        return self.items[self.pos]

    def next(self):
        tok = self.items[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, got, line, col = self.next()
        if got != value:
            raise ParseError(f"expected {value!r}, found {got or 'end of input'!r}", line, col)

    def error(self, message):
        _, _, line, col = self.peek()
        raise ParseError(message, line, col)


def _parse_word(toks: _Tokens) -> Obj:
    kind, value, line, col = toks.peek()
    if kind == "punct" and value == "(":
        toks.next()
        toks.expect(")")
        return pm.UNIT
    if kind == "punct" and value == ")":
        return pm.UNIT  # empty word, as in "id()"
    if kind != "name":
        raise ParseError(f"expected a sort word, found {value!r}", line, col)
    toks.next()
    return Obj.parse(value)


def _parse_perm_atom(toks: _Tokens) -> PermSymbol:
    kind, value, line, col = toks.peek()
    if value == "(":
        toks.next()
        rho = _parse_perm(toks)
        toks.expect(")")
        return rho
    if value == "id":
        toks.next()
        toks.expect("(")
        w = _parse_word(toks)
        toks.expect(")")
        return pm.identity(w)
    if value == "c":
        toks.next()
        toks.expect("(")
        v = _parse_word(toks)
        toks.expect(",")
        w = _parse_word(toks)
        toks.expect(")")
        return pm.block_transposition(v, w)
    raise ParseError(f"expected a permutation, found {value!r}", line, col)


def _parse_perm_comp(toks: _Tokens) -> PermSymbol:
    rho = _parse_perm_atom(toks)
    while toks.peek()[1] == ".":
        toks.next()
        rho = pm.compose(rho, _parse_perm_atom(toks))
    return rho


def _parse_perm(toks: _Tokens) -> PermSymbol:
    parts = [_parse_perm_comp(toks)]
    while toks.peek()[1] == "#":
        toks.next()
        parts.append(_parse_perm_comp(toks))
    return pm.tensor_all(parts)


def _parse_primary(toks: _Tokens) -> Term:
    kind, value, line, col = toks.peek()
    if value == "(":
        toks.next()
        t = _parse_sum(toks)
        toks.expect(")")
        return t
    if value == "atom":
        toks.next()
        kind, name, line, col = toks.next()
        if kind != "name":
            raise ParseError("expected a symbol name after 'atom'", line, col)
        return Atom(name)
    if value == "id":
        toks.next()
        toks.expect("(")
        w = _parse_word(toks)
        toks.expect(")")
        return Id(w)
    if value == "tr":
        toks.next()
        toks.expect("(")
        w = _parse_word(toks)
        toks.expect(",")
        t = _parse_sum(toks)
        toks.expect(")")
        return Trace(w, t)
    if value in ("comp", "ten"):
        toks.next()
        toks.expect("[")
        words = [_parse_word(toks)]
        while toks.peek()[1] == ";":
            toks.next()
            words.append(_parse_word(toks))
        toks.expect("]")
        expected = 3 if value == "comp" else 4
        if len(words) != expected:
            raise ParseError(f"{value} takes {expected} words", line, col)
        toks.expect("(")
        left = _parse_sum(toks)
        toks.expect(",")
        right = _parse_sum(toks)
        toks.expect(")")
        if value == "comp":
            return Comp(words[0], words[1], words[2], left, right)
        return Tensor(words[0], words[1], words[2], words[3], left, right)
    raise ParseError(f"expected a term, found {value or 'end of input'!r}", line, col)


def _parse_indexed(toks: _Tokens) -> Term:
    t = _parse_primary(toks)
    while toks.peek()[1] == ".":
        toks.next()
        t = Index(t, _parse_perm(toks))
    return t


def _parse_sum(toks: _Tokens) -> Term:
    t = _parse_indexed(toks)
    while toks.peek()[1] == "+":
        toks.next()
        t = Sum(t, _parse_indexed(toks))
    return t


def parse(text: str) -> Term:
    toks = _Tokens(text)
    try:
        t = _parse_sum(toks)
    except RecursionError:
        _, _, line, col = toks.peek()
        raise ParseError("term is nested too deeply", line, col) from None
    kind, value, line, col = toks.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {value!r}", line, col)
    return t


# -- printing ------------------------------------------------------------------


def format_perm(rho: PermSymbol) -> str:
    """Express a symbol in the concrete grammar.

    Identities print as ``id(w)`` and two-block swaps as ``c(v,w)``.  Any
    other symbol prints as the rounds of an odd-even transposition sort of
    its flattening, joined by ``.``: a round compares the adjacent pairs
    starting at even positions, or at odd ones, alternately, and prints as
    the tensor of ``c(x,y)`` for each pair it swaps and ``id(run)`` for
    each run of letters it leaves in place.  Rounds that swap nothing are
    skipped.  N letters sort in at most N rounds, so the text has O(N²)
    characters.  Every block is one letter, so the rounds compose and the
    text reparses to an equal symbol.
    """
    flat = rho.flatten()
    n = len(flat)
    goal = list(range(n))
    if flat == tuple(goal) and all(len(b) <= 1 for b in rho.blocks):
        return f"id({rho.dom})"
    if len(rho.blocks) == 2 and rho.pi == (1, 0):
        return f"c({rho.blocks[0]},{rho.blocks[1]})"
    if flat == tuple(goal):
        return f"id({rho.dom})"
    factors = []
    letters = [s.name for s in rho.dom]
    key = list(flat)  # key[j] = target position of the letter now at j
    parity = 0
    while key != goal:
        swaps = [j for j in range(parity, n - 1, 2) if key[j] > key[j + 1]]
        parity ^= 1
        if not swaps:
            continue
        parts = []
        done = 0  # letters before this position are printed
        for j in swaps:
            if j > done:
                parts.append(f"id({''.join(letters[done:j])})")
            parts.append(f"c({letters[j]},{letters[j + 1]})")
            key[j], key[j + 1] = key[j + 1], key[j]
            letters[j], letters[j + 1] = letters[j + 1], letters[j]
            done = j + 2
        if done < n:
            parts.append(f"id({''.join(letters[done:])})")
        joined = "#".join(parts)
        factors.append(f"({joined})" if len(parts) > 1 else joined)
    return " . ".join(factors)


def format_term(t: Term) -> str:
    def visit(t, texts):
        if isinstance(t, Atom):
            return f"atom {t.name}"
        if isinstance(t, Id):
            return f"id({t.w})"
        if isinstance(t, Sum):
            # the first summand is never a sum; a later one that is needs parentheses
            return " + ".join(
                f"({text})" if isinstance(u, Sum) else text
                for u, text in zip(summands(t), texts)
            )
        if isinstance(t, Trace):
            return f"tr({t.w}, {texts[0]})"
        if isinstance(t, Index):
            body = texts[0]
            if isinstance(t.body, (Sum, Index)):
                body = f"({body})"
            return f"{body} . {format_perm(t.rho)}"
        if isinstance(t, Comp):
            return f"comp[{t.a};{t.b};{t.c}]({texts[0]}, {texts[1]})"
        if isinstance(t, Tensor):
            return f"ten[{t.a};{t.b};{t.c};{t.d}]({texts[0]}, {texts[1]})"
        raise TypeError(f"not a term: {t!r}")

    return fold(t, visit)
