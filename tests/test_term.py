import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from ima import dflow, term as tm
from ima.errors import MissingSymbol, ParseError, RankError
from ima.graph import RankedAlphabet,atom, decompose, identity_graph, isomorphic, sum_graphs
from ima.perm import Obj, block_transposition, from_positions, identity, tensor
from sweeps import tape_graph

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

def test_printed_tape_grows_quadratically():
    # odd-even rounds print O(N²) text for N letters
    sizes = {n: len(tm.format_term(decompose(tape_graph(n)))) for n in (40, 80)}
    assert sizes[80] <= 4.5 * sizes[40]


def test_format_perm_prints_sorting_rounds():
    rng = random.Random(7)
    sorts = Obj.parse("AB").word
    for n in (50, 100, 200, 300):
        w = Obj(tuple(rng.choice(sorts) for _ in range(n)))
        sends = list(range(n))
        rng.shuffle(sends)
        if n == 300:
            sends.sort(reverse=True)  # the worst case: every pair is inverted
        rho = from_positions(w, sends)
        text = tm.format_perm(rho)
        back = tm.parse(f"id({w}) . {text}").rho
        assert back == rho
        factors = text.split(" . ")
        assert len(factors) <= n
        for factor in factors:
            assert all(len(b) == 1 for b in tm._parse_perm(tm._Tokens(factor)).blocks)
        assert tm.format_perm(back) == text


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
TOKEN_PIECES += ["atom", "id", "tr", "comp", "ten"]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=40).map("".join))
def test_tokeniser_matches_character_loop(text):
    try:
        want = char_loop_tokens(text)
    except ParseError as expected:
        with pytest.raises(ParseError) as err:
            tm._Tokens(text)
        got = err.value
        assert (str(got), got.line, got.column) == (str(expected), expected.line, expected.column)
    else:
        assert tm._Tokens(text).items == want
