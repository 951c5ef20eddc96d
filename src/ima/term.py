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
    perm ::= "id(" word ")" | "c(" word "," word ")" | "p(" word ";" NUMBER* ")"
           | perm "." perm | perm "#" perm | "(" perm ")"

Words are comma-free strings of single-letter sorts, ``()`` is the unit
word.  ``p(w; t1 ... tN)`` is the symbol whose blocks are the N letters
of ``w`` and which sends the k-th of them to position ``tk``, written in
decimal from 1: the targets are 1..N, each once.  After a term-level
``.`` the longest permutation expression is consumed, so ``t . r . s``
denotes one indexing by the composite ``r . s``; write ``(t . r) . s``
for two separate indexings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Mapping

from . import perm as pm
from .errors import MissingSymbol, ParseError, RankError
from .perm import Obj, PermSymbol, Sort


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


def _checked_fold(t: Term, alg, symbols: Mapping[str, object]):
    """The value of ``t`` in ``alg``, atoms taking their values from
    ``symbols``: one fold that checks each node's operand ranks, read with
    ``alg.rank_of``, before it applies the algebra's operation.  The first
    node in postorder that is ill-ranked, or that is an atom ``symbols``
    lacks, raises ``RankError`` carrying that node.  These are the rank
    rules of terms, stated once for :func:`rank` and :func:`evaluate`."""

    def visit(t, vs):
        cls = t.__class__
        if cls is Atom:
            if t.name not in symbols:
                raise RankError(f"unknown atom {t.name!r}", t)
            return symbols[t.name]
        if cls is Id:
            return alg.identity(t.w)
        if cls is Sum:
            return alg.sum(vs)
        if cls is Trace:
            r = alg.rank_of(vs[0])
            n = len(t.w)
            if r[: 2 * n] != t.w + t.w:
                raise RankError(
                    f"trace over {t.w} needs rank starting {t.w}{t.w}, got {r}", t
                )
            return alg.trace(t.w, vs[0])
        if cls is Index:
            r = alg.rank_of(vs[0])
            if t.rho.dom != r:
                raise RankError(
                    f"indexing expects domain {r}, symbol has {t.rho.dom}", t
                )
            return alg.reindex(vs[0], t.rho)
        if cls is Comp:
            rl, rr = alg.rank_of(vs[0]), alg.rank_of(vs[1])
            if rl != t.a + t.b:
                raise RankError(f"left of comp has rank {rl}, split says {t.a + t.b}", t)
            if rr != t.b + t.c:
                raise RankError(f"right of comp has rank {rr}, split says {t.b + t.c}", t)
            rho = pm.tensor(pm.block_transposition(t.a, t.b + t.b), pm.identity(t.c))
            return alg.trace(t.b, alg.reindex(alg.sum(vs), rho))
        if cls is Tensor:
            rl, rr = alg.rank_of(vs[0]), alg.rank_of(vs[1])
            if rl != t.a + t.b:
                raise RankError(f"left of ten has rank {rl}, split says {t.a + t.b}", t)
            if rr != t.c + t.d:
                raise RankError(f"right of ten has rank {rr}, split says {t.c + t.d}", t)
            rho = pm.tensor_all([pm.identity(t.a), pm.block_transposition(t.b, t.c), pm.identity(t.d)])
            return alg.reindex(alg.sum(vs), rho)
        raise TypeError(f"not a term: {t!r}")

    return fold(t, visit)


class _RankWords:
    """The algebra whose values are rank words: a value's rank is itself."""

    def identity(self, w: Obj) -> Obj:
        return w + w

    def sum(self, xs) -> Obj:
        return pm.concat(xs)

    def trace(self, w: Obj, x: Obj) -> Obj:
        return x[2 * len(w) :]

    def reindex(self, x: Obj, rho: PermSymbol) -> Obj:
        return rho.cod

    def rank_of(self, x: Obj) -> Obj:
        return x


_RANK_WORDS = _RankWords()


def rank(t: Term, ranks: Mapping[str, Obj]) -> Obj:
    """The unique rank word of ``t``, with atom ranks from ``ranks``: its
    value in the algebra of rank words, by the checked fold that
    :func:`evaluate` runs.  An ill-ranked node or an atom missing from
    ``ranks`` raises ``RankError`` carrying the first such node in
    postorder."""
    return _checked_fold(t, _RANK_WORDS, ranks)


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
    """A target algebra plus a rank-preserving symbol assignment.

    The algebra exposes ``identity``, ``sum``, ``trace``, ``reindex``,
    ``rank_of`` and ``equivalent``.  ``sum`` takes the summands of one
    ``Sum`` spine, two or more, left to right, so it can build them in one
    pass; its value is the left fold of the binary sum.  :func:`evaluate`
    derives composition and tensor, using the splits ``comp`` and ``ten``
    carry, since a rank word alone does not determine them."""

    algebra: object
    symbols: Mapping[str, object]

    def ranks(self) -> dict[str, Obj]:
        return {name: self.algebra.rank_of(v) for name, v in self.symbols.items()}


def evaluate(t: Term, interp: Interpretation):
    """Fold ``t`` through the target algebra; the unique homomorphic
    extension of the symbol assignment.  Each ``Sum`` spine is one
    ``alg.sum`` call on all its summands, left to right.  ``comp`` and
    ``ten`` are built from the algebra's sum, reindexing and trace.  The same
    fold checks each node's operand ranks, read with ``alg.rank_of``,
    before the algebra sees them, by the rules :func:`rank` uses.  A term
    naming an atom the interpretation lacks raises ``MissingSymbol``, any
    other ill-ranked term ``RankError`` carrying its first ill-ranked
    node in postorder."""
    try:
        return _checked_fold(t, interp.algebra, interp.symbols)
    except RankError:
        missing = atoms(t) - interp.symbols.keys()
        if missing:
            raise MissingSymbol(
                f"interpretation does not cover {sorted(missing)[0]!r}"
            ) from None
        raise


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
    graph normal forms are isomorphic.  :func:`evaluate` folds both terms
    through one graph interpretation, checking ranks as it goes; normal
    forms of different rank words raise ``RankError``."""
    from . import graph as gr

    interp = graph_interpretation(alphabet)
    g1, g2 = evaluate(t1, interp), evaluate(t2, interp)
    if g1.rank_word() != g2.rank_word():
        raise RankError(f"ranks differ: {g1.rank_word()} vs {g2.rank_word()}", t1)
    return gr.isomorphic(g1, g2)


# -- parsing -------------------------------------------------------------------


# ``\w`` is exactly ``str.isalnum()`` or ``_``, and ``\s`` exactly
# ``str.isspace()``; only ``\n`` starts a new line.  A token is a name or
# one punctuation character; whitespace separates tokens, and any other
# character is an error.
_TOKEN = re.compile(r"\w+|[()\[\];,+.#]")
_BAD = re.compile(r"[^\w\s()\[\];,+.#]")
_PUNCT = frozenset("()[];,+.#")


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``text[offset]``."""
    start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - start + 1


def _tokenise(text: str) -> list[str]:
    """The tokens of ``text`` in order, then ``""`` for the end of input."""
    bad = _BAD.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", *_line_col(text, bad.start()))
    tokens = _TOKEN.findall(text)
    tokens.append("")
    return tokens


def _locate(text: str, k: int) -> tuple[int, int]:
    """Line and column of the ``k``-th token of ``_tokenise(text)``.  The
    tokens are found again, so only a parse that fails pays for this."""
    m = next(islice(_TOKEN.finditer(text), k, None), None)
    return _line_col(text, len(text) if m is None else m.start())


def parse(text: str) -> Term:
    """The term that ``text`` spells, by the grammar in the module
    docstring.

    One pass over the token list with explicit stacks of the open
    contexts, so any nesting depth parses.  Sort words and ``c(v,w)`` and
    ``id(w)`` symbols are built once per parse and shared: the blocks of
    the symbols a permutation chain composes are then the same objects,
    which ``perm.compose`` compares by identity first."""
    tokens = _tokenise(text)
    words: dict[str, Obj] = {"": pm.UNIT}
    symbols: dict[tuple[str, str, str], PermSymbol] = {}

    def fail(message, k):
        raise ParseError(message, *_locate(text, k))

    def expect(value, k):
        """The index after token ``k``, which must be ``value``."""
        if tokens[k] != value:
            fail(f"expected {value!r}, found {tokens[k] or 'end of input'!r}", k)
        return k + 1

    def obj(key):
        """The word ``key`` of this parse, made of its one-letter words."""
        w = words.get(key)
        if w is None:
            w = Obj((Sort(key),)) if len(key) == 1 else Obj(tuple([obj(c).word[0] for c in key]))
            words[key] = w
        return w

    def word(k):
        """The text of the sort word at ``k`` (``""`` for the unit, written
        ``()`` or left empty before a ``)``), and the index after it."""
        value = tokens[k]
        if value == "(":
            return "", expect(")", k + 1)
        if value == ")":
            return "", k
        if not value or value in _PUNCT:
            fail(f"expected a sort word, found {value!r}", k)
        return value, k + 1

    def symbol(k):
        """The ``id(w)``, ``c(v,w)`` or ``p(w; ...)`` at ``k``, and the
        index after it."""
        if tokens[k] == "p":
            w, k = word(expect("(", k + 1))
            k = expect(";", k)
            position = {str(j + 1): j for j in range(len(w))}
            sends = []
            for _ in w:
                j = position.pop(tokens[k], None)  # each target once
                if j is None:
                    found = tokens[k] or "end of input"
                    fail(f"expected an unused target in 1..{len(w)}, found {found!r}", k)
                sends.append(j)
                k += 1
            return pm.from_positions(obj(w), sends), expect(")", k)
        if tokens[k] == "id":
            w, k = word(expect("(", k + 1))
            key = ("id", w, "")
        else:
            v, k = word(expect("(", k + 1))
            w, k = word(expect(",", k))
            key = ("c", v, w)
        k = expect(")", k)
        rho = symbols.get(key)
        if rho is None:
            if key[0] == "id":
                rho = PermSymbol(tuple(map(obj, w)), tuple(range(len(w))))
            else:
                rho = pm.block_transposition(obj(v), obj(w))
            symbols[key] = rho
        return rho, k

    def perm(k):
        """The permutation expression at ``k``: the longest one, as after
        a term-level ``.``; and the index after it."""
        outer = []  # (factors, chain) of each enclosing "("
        factors, chain = [], None  # the "#" factors done, the "." chain open
        while True:
            value = tokens[k]
            if value == "(":
                outer.append((factors, chain))
                factors, chain = [], None
                k += 1
                continue
            if value != "id" and value != "c" and value != "p":
                fail(f"expected a permutation, found {value!r}", k)
            rho, k = symbol(k)
            while True:  # ``rho`` is a whole operand of the open chain
                chain = rho if chain is None else pm.compose(chain, rho)
                value = tokens[k]
                if value == ".":
                    k += 1
                    break
                factors.append(chain)
                chain = None
                if value == "#":
                    k += 1
                    break
                rho = factors[0] if len(factors) == 1 else pm.tensor_all(factors)
                if not outer:
                    return rho, k
                k = expect(")", k)
                factors, chain = outer.pop()

    # Each open context is a sum being read, with its summands so far:
    # the whole text, a "(" group, the body of a trace, or the left or
    # right operand of a comp or ten, whose words (and left operand)
    # ride in ``data``.
    TOP, GROUP, TRACE, LEFT, RIGHT = range(5)
    outer = []  # (context, summands, data) of each enclosing context
    context, acc, data = TOP, None, None
    k = 0
    while True:
        value = tokens[k]
        if value == "(":
            outer.append((context, acc, data))
            context, acc, data = GROUP, None, None
            k += 1
            continue
        if value == "tr":
            w, k = word(expect("(", k + 1))
            k = expect(",", k)
            outer.append((context, acc, data))
            context, acc, data = TRACE, None, obj(w)
            continue
        if value == "comp" or value == "ten":
            at = k
            w, k = word(expect("[", k + 1))
            split = [obj(w)]
            while tokens[k] == ";":
                w, k = word(k + 1)
                split.append(obj(w))
            k = expect("]", k)
            wanted = 3 if value == "comp" else 4
            if len(split) != wanted:
                fail(f"{value} takes {wanted} words", at)
            k = expect("(", k)
            outer.append((context, acc, data))
            context, acc, data = LEFT, None, (Comp if value == "comp" else Tensor, split)
            continue
        if value == "atom":
            name = tokens[k + 1]
            if not name or name in _PUNCT:
                fail("expected a symbol name after 'atom'", k + 1)
            t = Atom(name)
            k += 2
        elif value == "id":
            w, k = word(expect("(", k + 1))
            k = expect(")", k)
            t = Id(obj(w))
        else:
            fail(f"expected a term, found {value or 'end of input'!r}", k)
        while True:  # ``t`` is a whole primary of the open context
            while tokens[k] == ".":
                rho, k = perm(k + 1)
                t = Index(t, rho)
            acc = t if acc is None else Sum(acc, t)
            if tokens[k] == "+":
                k += 1
                break
            t = acc
            if context == LEFT:
                k = expect(",", k)
                context, acc, data = RIGHT, None, (data, t)
                break
            if context == TOP:
                if tokens[k]:
                    fail(f"trailing input {tokens[k]!r}", k)
                return t
            k = expect(")", k)
            if context == TRACE:
                t = Trace(data, t)
            elif context == RIGHT:
                (node, split), left = data
                t = node(*split, left, t)
            context, acc, data = outer.pop()


# -- printing ------------------------------------------------------------------


def format_perm(rho: PermSymbol) -> str:
    """Express a symbol in the concrete grammar.

    Identities print as ``id(w)`` and two-block swaps as ``c(v,w)``.  Any
    other symbol prints as the literal ``p(w; t1 ... tN)`` of its
    flattening, one 1-based target per letter, so N letters print in
    O(N log N) characters.  The literal's blocks are single letters, and
    it reparses to an equal symbol.
    """
    flat = rho.flatten()
    trivial = flat == tuple(range(len(flat)))
    if trivial and all(len(b) <= 1 for b in rho.blocks):
        return f"id({rho.dom})"
    if len(rho.blocks) == 2 and rho.pi == (1, 0):
        return f"c({rho.blocks[0]},{rho.blocks[1]})"
    if trivial:
        return f"id({rho.dom})"
    return f"p({rho.dom}; {' '.join([str(j + 1) for j in flat])})"


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
