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

from dataclasses import dataclass
from functools import reduce
from typing import Mapping

from . import perm as pm
from .errors import MissingSymbol, ParseError, RankError
from .perm import Obj, PermSymbol


# -- syntax trees ------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Id:
    w: Obj


@dataclass(frozen=True)
class Sum:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Trace:
    w: Obj
    body: "Term"


@dataclass(frozen=True)
class Index:
    body: "Term"
    rho: PermSymbol


@dataclass(frozen=True)
class Comp:
    a: Obj
    b: Obj
    c: Obj
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Tensor:
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


# -- ranking ------------------------------------------------------------------


def rank(t: Term, ranks: Mapping[str, Obj]) -> Obj:
    """The unique rank word of ``t``, with atom ranks from ``ranks``."""
    if isinstance(t, Atom):
        if t.name not in ranks:
            raise RankError(f"unknown atom {t.name!r}", t)
        return ranks[t.name]
    if isinstance(t, Id):
        return t.w + t.w
    if isinstance(t, Sum):
        return pm.concat([rank(u, ranks) for u in summands(t)])
    if isinstance(t, Trace):
        r = rank(t.body, ranks)
        n = len(t.w)
        if r[: 2 * n] != t.w + t.w:
            raise RankError(
                f"trace over {t.w} needs rank starting {t.w}{t.w}, got {r}", t
            )
        return r[2 * n :]
    if isinstance(t, Index):
        r = rank(t.body, ranks)
        if t.rho.dom != r:
            raise RankError(
                f"indexing expects domain {r}, symbol has {t.rho.dom}", t
            )
        return t.rho.cod
    if isinstance(t, Comp):
        rl, rr = rank(t.left, ranks), rank(t.right, ranks)
        if rl != t.a + t.b:
            raise RankError(f"left of comp has rank {rl}, split says {t.a + t.b}", t)
        if rr != t.b + t.c:
            raise RankError(f"right of comp has rank {rr}, split says {t.b + t.c}", t)
        return t.a + t.c
    if isinstance(t, Tensor):
        rl, rr = rank(t.left, ranks), rank(t.right, ranks)
        if rl != t.a + t.b:
            raise RankError(f"left of ten has rank {rl}, split says {t.a + t.b}", t)
        if rr != t.c + t.d:
            raise RankError(f"right of ten has rank {rr}, split says {t.c + t.d}", t)
        return t.a + t.c + t.b + t.d
    raise TypeError(f"not a term: {t!r}")


def desugar(t: Term) -> Term:
    """Eliminate Comp/Tensor into Sum, Index and Trace."""
    if isinstance(t, (Atom, Id)):
        return t
    if isinstance(t, Sum):
        return reduce(Sum, [desugar(u) for u in summands(t)])
    if isinstance(t, Trace):
        return Trace(t.w, desugar(t.body))
    if isinstance(t, Index):
        return Index(desugar(t.body), t.rho)
    if isinstance(t, Comp):
        rho = pm.tensor(pm.block_transposition(t.a, t.b + t.b), pm.identity(t.c))
        return Trace(t.b, Index(Sum(desugar(t.left), desugar(t.right)), rho))
    if isinstance(t, Tensor):
        rho = pm.tensor_all(
            [pm.identity(t.a), pm.block_transposition(t.b, t.c), pm.identity(t.d)]
        )
        return Index(Sum(desugar(t.left), desugar(t.right)), rho)
    raise TypeError(f"not a term: {t!r}")


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
    extension of the symbol assignment."""
    for a in atoms(t):
        if a not in interp.symbols:
            raise MissingSymbol(f"interpretation does not cover {a!r}")
    rank(t, interp.ranks())
    return _eval(desugar(t), interp)


def _eval(t: Term, interp: Interpretation):
    alg = interp.algebra
    if isinstance(t, Atom):
        return interp.symbols[t.name]
    if isinstance(t, Id):
        return alg.identity(t.w)
    if isinstance(t, Sum):
        return reduce(alg.sum, (_eval(u, interp) for u in summands(t)))
    if isinstance(t, Trace):
        return alg.trace(t.w, _eval(t.body, interp))
    if isinstance(t, Index):
        return alg.reindex(_eval(t.body, interp), t.rho)
    raise TypeError(f"not desugared: {t!r}")


def atoms(t: Term) -> set[str]:
    if isinstance(t, Atom):
        return {t.name}
    if isinstance(t, Sum):
        return set().union(*(atoms(u) for u in summands(t)))
    if isinstance(t, (Comp, Tensor)):
        return atoms(t.left) | atoms(t.right)
    if isinstance(t, (Trace, Index)):
        return atoms(t.body)
    return set()


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
    PUNCT = ("(", ")", "[", "]", ";", ",", "+", ".", "#")

    def __init__(self, text: str):
        self.items: list[tuple[str, str, int, int]] = []  # kind, value, line, col
        line, col = 1, 1
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "\n":
                line, col = line + 1, 1
                i += 1
            elif ch.isspace():
                col += 1
                i += 1
            elif ch in self.PUNCT:
                self.items.append(("punct", ch, line, col))
                col += 1
                i += 1
            elif ch.isalnum() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.items.append(("name", text[i:j], line, col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
        self.items.append(("eof", "", line, col))
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
    rho = _parse_perm_comp(toks)
    while toks.peek()[1] == "#":
        toks.next()
        rho = pm.tensor(rho, _parse_perm_comp(toks))
    return rho


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

    Identities and two-block swaps print directly; anything else prints as
    a chain of adjacent transpositions realizing the same flattening, which
    reparses to an equal symbol.
    """
    flat = rho.flatten()
    if flat == tuple(range(len(flat))) and all(len(b) <= 1 for b in rho.blocks):
        return f"id({rho.dom})"
    if len(rho.blocks) == 2 and rho.pi == (1, 0):
        return f"c({rho.blocks[0]},{rho.blocks[1]})"
    if flat == tuple(range(len(flat))):
        return f"id({rho.dom})"
    factors = []
    letters = list(rho.dom.word)
    slots = list(range(len(flat)))  # slots[j] = source position currently at j
    target = [0] * len(flat)
    for src, dst in enumerate(flat):
        target[dst] = src
    # bubble the current arrangement into the target one
    for j in range(len(flat)):
        k = slots.index(target[j])
        while k > j:
            word = [letters[s] for s in slots]
            parts = []
            if k - 1 > 0:
                parts.append(f"id({Obj(tuple(word[: k - 1]))})")
            parts.append(f"c({word[k - 1].name},{word[k].name})")
            if k + 1 < len(word):
                parts.append(f"id({Obj(tuple(word[k + 1 :]))})")
            joined = "#".join(parts)
            factors.append(f"({joined})" if len(parts) > 1 else joined)
            slots[k - 1], slots[k] = slots[k], slots[k - 1]
            k -= 1
    return " . ".join(factors)


def format_term(t: Term) -> str:
    if isinstance(t, Atom):
        return f"atom {t.name}"
    if isinstance(t, Id):
        return f"id({t.w})"
    if isinstance(t, Sum):
        # the first summand is never a sum; a later one that is needs parentheses
        return " + ".join(
            f"({format_term(u)})" if isinstance(u, Sum) else format_term(u)
            for u in summands(t)
        )
    if isinstance(t, Trace):
        return f"tr({t.w}, {format_term(t.body)})"
    if isinstance(t, Index):
        body = format_term(t.body)
        if isinstance(t.body, (Sum, Index)):
            body = f"({body})"
        return f"{body} . {format_perm(t.rho)}"
    if isinstance(t, Comp):
        return (
            f"comp[{t.a};{t.b};{t.c}]"
            f"({format_term(t.left)}, {format_term(t.right)})"
        )
    if isinstance(t, Tensor):
        return (
            f"ten[{t.a};{t.b};{t.c};{t.d}]"
            f"({format_term(t.left)}, {format_term(t.right)})"
        )
    raise TypeError(f"not a term: {t!r}")
