import gc
import random
import time
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from ima import dflow, term as tm
from ima.automata import AUTOMATA_ALGEBRA, identity_automaton
from ima.errors import ImaError, MissingSymbol, ParseError, RankError
from ima.graph import (
    LoopLabel, RankedAlphabet, atom, decompose, format_graph, identity_graph, isomorphic, sum_graphs,
)
from ima.laws import random_graph, random_obj
from ima.perm import Obj, block_transposition, compose, from_positions, identity, tensor, tensor_all
from sweeps import shuffled, tape_graph

A = Obj.parse("A")
B = Obj.parse("B")
UNIT = Obj.parse("()")

ALPHABET = RankedAlphabet({"f": Obj.parse("BA"), "g": Obj.parse("ABA")})
RANKS = {"f": Obj.parse("BA"), "g": Obj.parse("ABA")}


# -- parsing -------------------------------------------------------------------

def test_parse_atom():
    assert tm.parse("atom f") == tm.Atom("f")


def test_parse_trace():
    assert tm.parse("tr(A, id(A))") == tm.Trace(A, tm.Id(A))


def test_parse_sum_indexed():
    t = tm.parse("(atom f + atom g) . c(B,A)#id(ABA)")
    rho = tensor(block_transposition(B, A), identity(Obj.parse("ABA")))
    assert t == tm.Index(tm.Sum(tm.Atom("f"), tm.Atom("g")), rho)


def test_parse_unit_words():
    assert tm.parse("id(())") == tm.Id(UNIT)
    assert tm.parse("id()") == tm.Id(UNIT)


def test_parse_comp_ten():
    t = tm.parse("comp[B;A;A](atom f, id(A))")
    assert t == tm.Comp(B, A, A, tm.Atom("f"), tm.Id(A))
    t = tm.parse("ten[A;A;B;B](id(A), id(B))")
    assert t == tm.Tensor(A, A, B, B, tm.Id(A), tm.Id(B))


def test_parse_sum_left_associative():
    t = tm.parse("atom f + atom g + atom f")
    assert t == tm.Sum(tm.Sum(tm.Atom("f"), tm.Atom("g")), tm.Atom("f"))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        tm.parse("atom f +\n  + atom g")
    assert err.value.line == 2


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        tm.parse("atom f atom g")


def test_parse_perm_composition_chain():
    # after a term-level dot, the whole perm chain is one indexing
    t = tm.parse("id(AB) . c(A,B) . c(B,A)")
    assert t == tm.Index(tm.Id(Obj.parse("AB")), identity(Obj.parse("AB")))


# -- ranking --------------------------------------------------------------------

def test_rank_atom():
    assert tm.rank(tm.Atom("g"), RANKS) == Obj.parse("ABA")


def test_rank_trace_of_identity():
    assert tm.rank(tm.Trace(A, tm.Id(A)), RANKS) == UNIT


def test_rank_sum_concatenates():
    t = tm.Sum(tm.Atom("f"), tm.Id(B))
    assert tm.rank(t, RANKS) == Obj.parse("BABB")


def test_rank_errors_carry_subterm():
    bad = tm.Trace(B, tm.Atom("f"))
    with pytest.raises(RankError) as err:
        tm.rank(bad, RANKS)
    assert err.value.subterm is bad


def test_rank_comp_split_checked():
    bad = tm.Comp(A, A, A, tm.Atom("f"), tm.Id(A))
    with pytest.raises(RankError):
        tm.rank(bad, RANKS)


# -- evaluation -----------------------------------------------------------------

def graph_interp():
    return tm.graph_interpretation(ALPHABET)


def test_eval_atom_is_star():
    got = tm.evaluate(tm.Atom("f"), graph_interp())
    assert isomorphic(got, atom(ALPHABET, "f"))


def test_eval_identity():
    got = tm.evaluate(tm.Id(A), graph_interp())
    assert isomorphic(got, identity_graph(A))


def test_eval_missing_symbol():
    interp = tm.Interpretation(graph_interp().algebra, {})
    with pytest.raises(MissingSymbol):
        tm.evaluate(tm.Atom("f"), interp)


def test_eval_desugared_comp_matches_formula():
    t = tm.parse("comp[B;A;A](atom f, id(A))")
    direct = tm.evaluate(t, graph_interp())
    spelled = tm.evaluate(
        tm.parse("tr(A, (atom f + id(A)) . c(B,AA)#id(A))"), graph_interp()
    )
    assert isomorphic(direct, spelled)
    assert isomorphic(direct, atom(ALPHABET, "f"))


def test_eval_of_decomposition_is_identity_oracle():
    g = sum_graphs(atom(ALPHABET, "f"), identity_graph(A))
    from ima.graph import decompose

    assert isomorphic(tm.evaluate(decompose(g), graph_interp()), g)


def test_deeply_nested_term_walkers():
    # 3,000 nested indexings and traces: the walkers must not recurse
    t = tm.Id(A)
    for _ in range(1500):
        t = tm.Trace(UNIT, tm.Index(t, block_transposition(A, A)))
    assert tm.rank(t, RANKS) == A + A
    assert tm.atoms(tm.Sum(t, tm.Atom("f"))) == {"f"}
    assert tm.format_term(t).count("tr((), ") == 1500
    assert isomorphic(tm.evaluate(t, graph_interp()), identity_graph(A))


# -- rank errors, through rank and evaluate -------------------------------------

F, G = tm.Atom("f"), tm.Atom("g")  # ranks BA and ABA

ILL_RANKED = [
    (tm.Trace(B, F), "trace over B needs rank starting BB, got BA"),
    (tm.Index(F, identity(Obj.parse("AB"))), "indexing expects domain BA, symbol has AB"),
    (tm.Comp(A, A, A, F, tm.Id(A)), "left of comp has rank BA, split says AA"),
    (tm.Comp(B, A, A, F, G), "right of comp has rank ABA, split says AA"),
    (tm.Tensor(A, A, B, B, F, tm.Id(B)), "left of ten has rank BA, split says AA"),
    (tm.Tensor(B, A, B, B, F, G), "right of ten has rank ABA, split says BB"),
    # the split words join to BAABA, the operands' joined rank, so only the
    # node's own check catches these before the derived sum is built
    (tm.Comp(Obj.parse("BAAB"), UNIT, A, F, G), "left of comp has rank BA, split says BAAB"),
    (tm.Tensor(B, Obj.parse("AA"), B, A, F, G), "left of ten has rank BA, split says BAA"),
]


def around(bad):
    """``bad`` as a summand under a trace, both well-ranked around it."""
    return tm.Trace(UNIT, tm.Sum(tm.Id(A), bad))


@pytest.mark.parametrize("bad, message", ILL_RANKED)
def test_ill_ranked_node_raises_rank_error_carrying_it(bad, message):
    for run in (lambda t: tm.evaluate(t, graph_interp()), lambda t: tm.rank(t, RANKS)):
        with pytest.raises(RankError) as err:
            run(around(bad))
        assert type(err.value) is RankError
        assert str(err.value) == message
        assert err.value.subterm is bad


def test_first_ill_ranked_node_in_postorder_is_reported():
    (first, message), (second, _) = ILL_RANKED[3], ILL_RANKED[0]
    for run in (lambda t: tm.evaluate(t, graph_interp()), lambda t: tm.rank(t, RANKS)):
        with pytest.raises(RankError, match=message) as err:
            run(tm.Sum(first, second))
        assert err.value.subterm is first


def other_interpretations():
    """An automata and a data-flow interpretation of ``x`` at rank AA."""
    flow = dflow.DFlowAlgebra((0, 1))
    return [
        tm.Interpretation(AUTOMATA_ALGEBRA, {"x": identity_automaton(A)}),
        tm.Interpretation(flow, {"x": flow.identity(A)}),
    ]


@pytest.mark.parametrize("which, bad, message", [
    (0, tm.Trace(B, tm.Atom("x")), "trace over B needs rank starting BB, got AA"),
    (1, tm.Index(tm.Atom("x"), block_transposition(A, B)),
     "indexing expects domain AA, symbol has AB"),
])
def test_ill_ranked_node_in_automata_and_dflow(which, bad, message):
    interp = other_interpretations()[which]
    with pytest.raises(RankError) as err:
        tm.evaluate(around(bad), interp)
    assert str(err.value) == message
    assert err.value.subterm is bad


def test_missing_atom_wins_over_an_earlier_ill_ranked_node():
    cases = [(graph_interp(), bad) for bad, _ in ILL_RANKED]
    cases += [(interp, tm.Trace(B, tm.Atom("x"))) for interp in other_interpretations()]
    for interp, bad in cases:
        t = tm.Sum(around(bad), tm.Atom("zz"))
        with pytest.raises(MissingSymbol, match="^interpretation does not cover 'zz'$"):
            tm.evaluate(t, interp)


def test_rank_values_and_unknown_atoms():
    assert tm.rank(tm.Comp(B, A, A, F, tm.Id(A)), RANKS) == Obj.parse("BA")
    assert tm.rank(tm.Tensor(B, A, A, A, F, tm.Id(A)), RANKS) == Obj.parse("BAAA")
    assert tm.rank(tm.Index(G, block_transposition(A, Obj.parse("BA"))), RANKS) == Obj.parse("BAA")
    zz = tm.Atom("zz")
    with pytest.raises(RankError, match="^unknown atom 'zz'$") as err:
        tm.rank(tm.Sum(F, zz), RANKS)
    assert err.value.subterm is zz
    # an ill-ranked node before the unknown atom is the one reported
    bad, message = ILL_RANKED[0]
    with pytest.raises(RankError, match=message) as err:
        tm.rank(tm.Sum(bad, zz), RANKS)
    assert err.value.subterm is bad
    with pytest.raises(RankError, match="^unknown atom 'zz'$") as err:
        tm.rank(tm.Sum(zz, bad), RANKS)
    assert err.value.subterm is zz


def test_evaluate_never_calls_rank(monkeypatch):
    def spy(*args):
        raise AssertionError("evaluate called term.rank")

    monkeypatch.setattr(tm, "rank", spy)
    t = tm.parse("tr(A, (atom f + id(A)) . c(B,AA)#id(A))")
    assert isomorphic(tm.evaluate(t, graph_interp()), atom(ALPHABET, "f"))
    bad, _ = ILL_RANKED[2]
    with pytest.raises(RankError):
        tm.evaluate(around(bad), graph_interp())
    with pytest.raises(MissingSymbol):
        tm.evaluate(tm.Sum(around(bad), tm.Atom("zz")), graph_interp())


# -- term equality ----------------------------------------------------------------

def test_term_equal_reflexive():
    t = tm.parse("tr(A, (atom f + id(A)) . c(B,AA)#id(A))")
    assert tm.term_equal(t, t, ALPHABET)


def test_term_equal_trace_swapping():
    # both sides of the trace-swap law instantiated with a concrete element
    # f : AABBC with C = ()
    alphabet = RankedAlphabet({"h": Obj.parse("AABB")})
    lhs = tm.parse("tr(B, tr(A, atom h))")
    rhs = tm.parse("tr(A, tr(B, atom h . c(AA,BB)))")
    assert tm.term_equal(lhs, rhs, alphabet)


def test_term_equal_detects_extra_loop():
    t1 = tm.parse("atom f")
    t2 = tm.parse("atom f + tr(A, id(A))")
    assert not tm.term_equal(t1, t2, ALPHABET)


def test_term_equal_rank_mismatch():
    with pytest.raises(RankError):
        tm.term_equal(tm.parse("atom f"), tm.parse("atom g"), ALPHABET)


def test_term_equal_atom_outside_the_alphabet():
    # ``term_equal`` ranks through ``evaluate``, so a missing atom is named
    # as ``normalize`` names it
    for t1, t2 in [("atom zz", "atom f"), ("atom f", "atom f + atom zz")]:
        with pytest.raises(MissingSymbol, match="'zz'") as err:
            tm.term_equal(tm.parse(t1), tm.parse(t2), ALPHABET)
        assert isinstance(err.value, ImaError)


def test_normalize_tape_scales_near_linearly():
    # a left fold of binary sums rebuilt the growing graph at every step,
    # so 4x the cells took about 19x the time.  The sizes are timed in
    # turn, with the garbage collector off as timeit does, so that a pause
    # in the machine's load or a collection falls on one run, not one size.
    alphabet = RankedAlphabet({"cell": Obj.parse("AA")})
    terms = {n: decompose(tape_graph(n)) for n in (1000, 4000)}
    best = dict.fromkeys(terms, float("inf"))
    gc.collect()
    gc.disable()
    try:
        for _ in range(7):
            for n, t in terms.items():
                start = time.perf_counter()
                tm.normalize(t, alphabet)
                best[n] = min(best[n], time.perf_counter() - start)
    finally:
        gc.enable()
    assert best[4000] <= 8 * best[1000]


def test_nested_traces_pile_up_loops_fast():
    # each level closes an identity wire into a loop; trace copies the graph
    # it is given, so the loops it carries cost time at every later level
    t = tm.Id(A)
    for _ in range(2000):
        t = tm.Trace(A, tm.Sum(tm.Id(A), t))
    start = time.perf_counter()
    g = tm.normalize(t, ALPHABET)
    elapsed = time.perf_counter() - start
    assert g.rank_word() == A + A
    assert [g.vertices[v] for v in g.loop_vertices()] == [LoopLabel(A.word[0])] * 2000
    ids = [line.split()[1] for line in format_graph(g).splitlines() if line.startswith("vertex")]
    assert ids == [str(k) for k in range(2002)]
    assert elapsed < 1.0


# -- printing ----------------------------------------------------------------------

def test_format_round_trip_examples():
    examples = [
        "atom f",
        "tr(A, id(A))",
        "(atom f + atom g) . c(B,A)#id(ABA)",
        "comp[B;A;A](atom f, id(A))",
        "ten[A;A;B;B](id(A), id(B))",
        "atom f + (atom g + atom f)",
        "(atom f . c(B,A)) . c(A,B)",
    ]
    for text in examples:
        t = tm.parse(text)
        assert tm.parse(tm.format_term(t)) == t


# -- property: parse . print == identity -------------------------------------------

sort_words = st.sampled_from(["A", "B", "AB", "BA", "()"]).map(Obj.parse)


@st.composite
def perm_symbols(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return identity(draw(sort_words))
    if kind == 1:
        return block_transposition(draw(sort_words), draw(sort_words))
    if kind == 2:
        return tensor(
            block_transposition(draw(sort_words), draw(sort_words)),
            identity(draw(sort_words)),
        )
    from ima.perm import from_positions

    w = draw(sort_words) + draw(sort_words)
    sends = tuple(draw(st.permutations(range(len(w)))))
    return from_positions(w, sends)


@st.composite
def terms(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(
            st.one_of(
                st.sampled_from([tm.Atom("f"), tm.Atom("g")]),
                sort_words.map(tm.Id),
            )
        )
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return tm.Sum(draw(terms(depth=depth - 1)), draw(terms(depth=depth - 1)))
    if kind == 1:
        return tm.Trace(draw(sort_words), draw(terms(depth=depth - 1)))
    body = draw(terms(depth=depth - 1))
    return tm.Index(body, draw(perm_symbols()))


@settings(max_examples=150)
@given(terms())
def test_parse_print_identity(t):
    assert tm.parse(tm.format_term(t)) == t


def test_format_perm_round_trips_large_flattenings():
    import random

    from ima.perm import from_positions

    rng = random.Random(8)
    for _ in range(25):
        n = rng.randint(5, 10)
        w = Obj(tuple(rng.choice([Obj.parse("A")[0], Obj.parse("B")[0]]) for _ in range(n)))
        sends = list(range(n))
        rng.shuffle(sends)
        rho = from_positions(w, tuple(sends))
        t = tm.Index(tm.Id(w), rho)
        assert tm.parse(tm.format_term(t)) == t


# -- printing large terms and symbols --------------------------------------------------

def test_printed_shuffled_tape_is_small_and_round_trips_fast():
    # one target per letter: O(N log N) text, read back in one pass
    t = decompose(shuffled(tape_graph(4000), random.Random(4000)))
    start = time.perf_counter()
    text = tm.format_term(t)
    assert tm.parse(text) == t
    assert time.perf_counter() - start < 1.0
    assert len(text) < 1_000_000


def test_format_perm_prints_one_literal():
    rng = random.Random(7)
    n = 300
    w = Obj(tuple(rng.choice(Obj.parse("AB").word) for _ in range(n)))
    rho = from_positions(w, list(reversed(range(n))))
    text = tm.format_perm(rho)
    assert text == f"p({w}; {' '.join(str(j) for j in range(n, 0, -1))})"
    back = tm.parse(f"id({w}) . {text}").rho
    assert back == rho
    assert all(len(b) == 1 for b in back.blocks)
    assert tm.format_perm(back) == text


# An odd-even transposition sort of ABBABAB into 1 3 4 7 6 5 2, as symbols
# other than identities and two-block swaps printed before the literal.
SORTING_ROUNDS = (
    "(id(ABBA)#c(B,A)#id(B)) . (id(ABB)#c(A,A)#c(B,B)) . (id(ABBA)#c(A,B)#id(B))"
    " . (id(ABB)#c(A,B)#c(A,B)) . (id(AB)#c(B,B)#id(ABA)) . (id(A)#c(B,B)#id(BABA))"
)


def test_sorting_rounds_parse_to_the_literal_symbol():
    literal = "p(ABBABAB; 1 3 4 7 6 5 2)"
    rounds = tm.parse(f"id(ABBABAB) . {SORTING_ROUNDS}").rho
    assert rounds == tm.parse(f"id(ABBABAB) . {literal}").rho
    assert rounds == from_positions(Obj.parse("ABBABAB"), [0, 2, 3, 6, 5, 4, 1])
    assert tm.format_perm(rounds) == literal


# -- equality and hashing of deep terms ------------------------------------------------

def rebuild(t, leaf):
    """A fresh copy of ``t`` with each leaf replaced by ``leaf(leaf_node)``."""

    def visit(node, values):
        if isinstance(node, tm.Sum):
            return reduce(tm.Sum, values)
        if isinstance(node, tm.Trace):
            return tm.Trace(node.w, values[0])
        if isinstance(node, tm.Index):
            return tm.Index(values[0], node.rho)
        return leaf(node)

    return tm.fold(t, visit)


def test_deep_terms_compare_and_hash_without_recursion():
    m = dflow.tm_encode(dflow.unary_increment_tm(), 400)
    ranks = tm.Interpretation(dflow.DFlowAlgebra(m.data), m.omega).ranks()
    t = tm.trace_early(decompose(m.graph), ranks)
    same = rebuild(t, lambda u: u)
    assert same is not t and same == t and hash(same) == hash(t)
    leaves = []

    def rename_first(u):
        leaves.append(u)
        return tm.Atom("other") if len(leaves) == 1 else u

    other = rebuild(t, rename_first)
    assert isinstance(leaves[0], tm.Atom)  # the first summand, deepest in the term
    assert other != t and t != other
    assert len({t, same, other}) == 2


# -- tokeniser -------------------------------------------------------------------------

def char_loop_tokens(text):
    """The character-by-character tokeniser that the regex replaced, kept
    as the reference for token lists and error positions."""
    items = []
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
        elif ch in ("(", ")", "[", "]", ";", ",", "+", ".", "#"):
            items.append(("punct", ch, line, col))
            col += 1
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            items.append(("name", text[i:j], line, col))
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    items.append(("eof", "", line, col))
    return items


TOKEN_PIECES = list("()[];,+.#") + list("ABcé٣²_9") + [" ", "\t", "\r", "\n", "\x0b", "@"]
TOKEN_PIECES += ["atom", "id", "tr", "comp", "ten", "p", "1", "2"]


token_soups = st.lists(st.sampled_from(TOKEN_PIECES), max_size=40).map("".join)


@settings(max_examples=500)
@given(token_soups)
def test_tokeniser_matches_character_loop(text):
    # the token values, and the line and column a parse error names at
    # each token, end of input included
    try:
        want = char_loop_tokens(text)
    except ParseError as expected:
        with pytest.raises(ParseError) as err:
            tm._tokenise(text)
        got = err.value
        assert (str(got), got.line, got.column) == (str(expected), expected.line, expected.column)
    else:
        assert tm._tokenise(text) == [value for _, value, _, _ in want]
        assert [tm._locate(text, k) for k in range(len(want))] == [
            (line, col) for _, _, line, col in want
        ]


class RecursiveParser:
    """The recursive-descent parser that the explicit-stack one replaced,
    on the reference token list; kept as the reference for parse results
    and for the message, line and column of each error."""

    def __init__(self, text):
        self.items = char_loop_tokens(text)
        self.pos = 0

    def peek(self):
        return self.items[self.pos]

    def next(self):
        self.pos += 1
        return self.items[self.pos - 1]

    def fail(self, message, tok):
        raise ParseError(message, tok[2], tok[3])

    def expect(self, value):
        tok = self.next()
        if tok[1] != value:
            self.fail(f"expected {value!r}, found {tok[1] or 'end of input'!r}", tok)

    def word(self):
        kind, value, _, _ = tok = self.peek()
        if value == "(":
            self.next()
            self.expect(")")
            return UNIT
        if value == ")":
            return UNIT
        if kind != "name":
            self.fail(f"expected a sort word, found {value!r}", tok)
        self.next()
        return Obj.parse(value)

    def perm_atom(self):
        tok = self.next()
        if tok[1] == "(":
            rho = self.perm()
            self.expect(")")
            return rho
        if tok[1] not in ("id", "c", "p"):
            self.fail(f"expected a permutation, found {tok[1]!r}", tok)
        self.expect("(")
        if tok[1] == "p":
            w = self.word()
            self.expect(";")
            numerals = [str(j) for j in range(1, len(w) + 1)]
            sends = []
            for _ in w:
                target = self.next()
                if target[1] not in numerals or numerals.index(target[1]) in sends:
                    found = target[1] or "end of input"
                    self.fail(f"expected an unused target in 1..{len(w)}, found {found!r}", target)
                sends.append(numerals.index(target[1]))
            self.expect(")")
            return from_positions(w, sends)
        if tok[1] == "id":
            w = self.word()
            self.expect(")")
            return identity(w)
        v = self.word()
        self.expect(",")
        w = self.word()
        self.expect(")")
        return block_transposition(v, w)

    def perm(self):
        factors = []
        while True:
            rho = self.perm_atom()
            while self.peek()[1] == ".":
                self.next()
                rho = compose(rho, self.perm_atom())
            factors.append(rho)
            if self.peek()[1] != "#":
                return tensor_all(factors)
            self.next()

    def primary(self):
        tok = self.next()
        value = tok[1]
        if value == "(":
            t = self.sum()
            self.expect(")")
            return t
        if value == "atom":
            name = self.next()
            if name[0] != "name":
                self.fail("expected a symbol name after 'atom'", name)
            return tm.Atom(name[1])
        if value in ("id", "tr"):
            self.expect("(")
            w = self.word()
            if value == "id":
                self.expect(")")
                return tm.Id(w)
            self.expect(",")
            t = self.sum()
            self.expect(")")
            return tm.Trace(w, t)
        if value in ("comp", "ten"):
            self.expect("[")
            words = [self.word()]
            while self.peek()[1] == ";":
                self.next()
                words.append(self.word())
            self.expect("]")
            n = 3 if value == "comp" else 4
            if len(words) != n:
                self.fail(f"{value} takes {n} words", tok)
            self.expect("(")
            left = self.sum()
            self.expect(",")
            right = self.sum()
            self.expect(")")
            return (tm.Comp if value == "comp" else tm.Tensor)(*words, left, right)
        self.fail(f"expected a term, found {value or 'end of input'!r}", tok)

    def sum(self):
        t = None
        while True:
            u = self.primary()
            while self.peek()[1] == ".":
                self.next()
                u = tm.Index(u, self.perm())
            t = u if t is None else tm.Sum(t, u)
            if self.peek()[1] != "+":
                return t
            self.next()

    def parse(self):
        t = self.sum()
        if self.peek()[0] != "eof":
            self.fail(f"trailing input {self.peek()[1]!r}", self.peek())
        return t


def recursive_parse(text):
    return RecursiveParser(text).parse()


def outcome(parse, text):
    """The term ``parse`` reads from ``text``, or the error it raises."""
    try:
        return parse(text)
    except ImaError as err:
        return type(err), str(err)


@settings(max_examples=500)
@given(token_soups)
def test_parser_matches_recursive_parser_on_token_soups(text):
    assert outcome(tm.parse, text) == outcome(recursive_parse, text)


MUTATIONS = ["(", ")", ".", "#", "+", ",", ";", "[", "]", "A", "()", "id", "c", "atom", "tr",
             "p", "1", "2"]


@settings(max_examples=300)
@given(terms(), st.data())
def test_parser_matches_recursive_parser_on_mutated_terms(t, data):
    # printed terms with one token dropped, added or replaced, or a span
    # wrapped in parentheses: near misses of the grammar, and some hits
    tokens = tm._tokenise(tm.format_term(t))[:-1]
    i = data.draw(st.integers(0, len(tokens)))
    kind = data.draw(st.sampled_from(["drop", "add", "replace", "wrap"]))
    if kind == "drop" and i < len(tokens):
        del tokens[i]
    elif kind == "add":
        tokens.insert(i, data.draw(st.sampled_from(MUTATIONS)))
    elif kind == "replace" and i < len(tokens):
        tokens[i] = data.draw(st.sampled_from(MUTATIONS))
    elif kind == "wrap":
        j = data.draw(st.integers(i, len(tokens)))
        tokens[i:j] = ["(", *tokens[i:j], ")"]
    text = data.draw(st.sampled_from([" ", "\n", " \n  "])).join(tokens)
    assert outcome(tm.parse, text) == outcome(recursive_parse, text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "comp[A;B](id(A), id(B))",
        "ten[A;B;C](id(A), id(B))",
        "\n  comp[A;B;C;A](id(A), id(B))",
        "ten[;;;](id(), id())",
        "comp[A;B;C](id(A) id(B))",
        "atom +",
        "atom",
        "tr(A, id(A)",
        "id((A))",
        "id(A) + ",
        "id(A) . c(A,B) . c(A,B)",
        "id(A) . (c(A,B) # id(C)",
        "id(A) . (c(A,B) . c(B,A) # id()) . id(AB)",
        "(id(A) . c(A,B)) .\n id()) + tr()",
        "id(ABA) . p(ABA; 2 3 1) . c(A,AB)",
        "id(AB) . (p(AB; 2 1) . id(BA) # p((); )) . c(B,A)",
        "id(AB) . p(AB; 2)",
        "id(AB) . p(AB; 2 1 2)",
        "id(AB) . p(AB; 2 2)",
        "id(AB) . p(AB; 0 1)",
        "id(AB) . p(AB; 1 3)",
        "id(AB) . p(AB; 1 B)",
        "id(AB) . p(AB; 01 2)",
        "id(AB) . p(AB 1 2)",
        "id() . p((); )",
        "id() . p(; )",
        "id(A) . p(A; 1",
    ],
)
def test_parser_matches_recursive_parser_on_examples(text):
    assert outcome(tm.parse, text) == outcome(recursive_parse, text)


@pytest.mark.parametrize("cells", [20, 60, 250])
def test_printed_tape_parses_back_equal(cells):
    t = decompose(tape_graph(cells))
    assert tm.parse(tm.format_term(t)) == t


def test_printed_random_graphs_parse_back_equal():
    rng = random.Random(13)
    for _ in range(200):
        t = decompose(random_graph(rng, random_obj(rng, 4)))
        assert tm.parse(tm.format_term(t)) == t


def test_parse_any_depth():
    # grouped terms at any depth are covered through the command line
    n = 100_000
    rho = tm.parse("id(AB) . " + "(" * n + "c(A,B)" + ")" * n).rho
    assert rho == block_transposition(A, B)
    t = tm.parse("tr(A, id(A) + " * 5000 + "id(A)" + ")" * 5000)
    assert tm.rank(t, RANKS) == A + A
