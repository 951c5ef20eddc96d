import random

import pytest
from hypothesis import given, settings, strategies as st

from ima.dflow import lift_symbol
from ima.errors import NotComposable
from ima.perm import (
    Obj,
    PermSymbol,
    Sort,
    block_transposition,
    compose,
    from_groups_coarse,
    from_groups_fine,
    from_positions,
    identity,
    tensor,
    tensor_all,
)

A = Obj.parse("A")
B = Obj.parse("B")
C = Obj.parse("C")
AB = Obj.parse("AB")
UNIT = Obj.parse("()")


def one_based(rho):
    return tuple(i + 1 for i in rho.flatten())


# -- construction and flattening --------------------------------------------

@pytest.mark.parametrize("name", ["(", ")", "-", "xy", ""])
def test_sort_is_one_letter_digit_or_underscore(name):
    with pytest.raises(ValueError, match="is not one letter, digit or '_'"):
        Sort(name)


def test_identity_two_letters():
    r = identity(AB)
    assert r.dom == AB and r.cod == AB
    assert one_based(r) == (1, 2)


def test_identity_unit():
    r = identity(UNIT)
    assert r.dom == UNIT and r.flatten() == ()


def test_identity_single():
    assert one_based(identity(A)) == (1,)


def test_block_transposition_positions():
    # hand enumeration of x_{1,2}: A moves past BC
    r = block_transposition(A, Obj.parse("BC"))
    assert r.dom == Obj.parse("ABC")
    assert r.cod == Obj.parse("BCA")
    assert one_based(r) == (3, 1, 2)


def test_block_transposition_unit_block():
    w = Obj.parse("AB")
    assert block_transposition(UNIT, w) == identity(w)


def test_block_transposition_two_singletons():
    r = block_transposition(A, B)
    assert r.cod == Obj.parse("BA")
    assert one_based(r) == (2, 1)


def test_flatten_of_block_symbol():
    # blocks (AB)(C), swapped; expanding blocks by hand: A->2, B->3, C->1,
    # i.e. the codomain arrangement of source positions reads (3, 1, 2)
    r = PermSymbol((AB, C), (1, 0))
    assert r.cod == Obj.parse("CAB")
    sends = one_based(r)
    assert sends == (2, 3, 1)
    arrangement = tuple(sends.index(j + 1) + 1 for j in range(3))
    assert arrangement == (3, 1, 2)


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        PermSymbol((A, B), (0, 0))


@pytest.mark.parametrize("build", [
    lambda: PermSymbol((A, B), (0, 0)),
    lambda: PermSymbol((A, B), (1,)),
    lambda: PermSymbol((A,), (1,)),
    lambda: from_positions(AB, (0, 0)),
    lambda: from_positions(AB, (1,)),
    lambda: from_groups_coarse(((A,), (B,)), (0, 0)),
    lambda: from_groups_coarse(((A,), (B,)), (0,)),
    lambda: from_groups_fine(((A,), (B, C)), (1, 1)),
    lambda: from_groups_fine(((A,), (B, C)), (1,)),
])
def test_constructors_given_pi_or_alpha_reject_a_non_permutation(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("alpha", [(0,), (0, 2), (1, 1, 0)])
def test_from_groups_fine_checks_alpha_itself(alpha):
    # an empty group lifts to no block, so only alpha can show these
    with pytest.raises(ValueError, match="alpha must be a permutation of the groups"):
        from_groups_fine(((A,), ()), alpha)


# -- composition and tensor --------------------------------------------------

def test_compose_inverse_pair():
    r = compose(block_transposition(A, B), block_transposition(B, A))
    assert r == identity(AB)


def test_compose_identity_left():
    rho = block_transposition(A, B)
    lhs = compose(identity_on_blocks(rho), rho)
    assert lhs == rho


def identity_on_blocks(rho):
    return PermSymbol(rho.blocks, tuple(range(len(rho.blocks))))


def test_compose_requires_matching_blocks():
    with pytest.raises(NotComposable):
        compose(block_transposition(A, B), identity(AB))


def test_tensor_of_identities_is_identity():
    assert tensor(identity(A), identity(B)) == identity(AB)


def test_tensor_empty_left():
    rho = block_transposition(A, B)
    assert tensor(identity(UNIT), rho) == rho


def test_tensor_shifts_positions():
    r = tensor(block_transposition(A, B), identity(C))
    assert one_based(r) == (2, 1, 3)


# -- equivalence --------------------------------------------------------------

def test_equivalent_identities():
    assert tensor(identity(A), identity(B)) == identity(AB)


def test_symmetry_not_identity():
    assert block_transposition(A, B) != identity(AB)


def test_two_readings_of_grouped_symbol():
    groups = ((AB, C), (A,))
    alpha = (1, 0)
    fine = from_groups_fine(groups, alpha)
    coarse = from_groups_coarse(groups, alpha)
    assert fine.blocks == (AB, C, A)
    assert coarse.blocks == (Obj.parse("ABC"), A)
    assert fine == coarse


# -- property tests -----------------------------------------------------------

sorts = st.sampled_from([Sort("A"), Sort("B")])
objs = st.lists(sorts, max_size=3).map(lambda xs: Obj(tuple(xs)))


@st.composite
def symbols(draw, max_positions=6):
    blocks = tuple(
        draw(objs) for _ in range(draw(st.integers(min_value=0, max_value=3)))
    )
    while sum(len(b) for b in blocks) > max_positions:
        blocks = blocks[:-1]
    pi = tuple(draw(st.permutations(range(len(blocks)))))
    return PermSymbol(blocks, pi)


@st.composite
def composable_pairs(draw):
    r1 = draw(symbols())
    pi2 = tuple(draw(st.permutations(range(len(r1.blocks)))))
    r2 = PermSymbol(r1.cod_blocks(), pi2)
    return r1, r2


@given(composable_pairs())
def test_flatten_functorial_compose(pair):
    r1, r2 = pair
    f1, f2 = r1.flatten(), r2.flatten()
    composed = compose(r1, r2).flatten()
    assert composed == tuple(f2[f1[i]] for i in range(len(f1)))


@given(symbols(), symbols())
def test_flatten_functorial_tensor(r1, r2):
    n = len(r1.dom)
    f = tensor(r1, r2).flatten()
    assert f[:n] == r1.flatten()
    assert f[n:] == tuple(n + j for j in r2.flatten())


@given(symbols())
def test_equivalence_reflexive(r):
    assert r == r


@given(composable_pairs(), composable_pairs())
def test_equivalence_congruence_for_tensor(p1, p2):
    (a1, a2), (b1, b2) = p1, p2
    # replace each factor by an equivalent singleton-block symbol
    a1f = from_positions(a1.dom, a1.flatten())
    b1f = from_positions(b1.dom, b1.flatten())
    assert tensor(a1, b1) == tensor(a1f, b1f)


@given(composable_pairs())
def test_equivalence_congruence_for_compose(pair):
    r1, r2 = pair
    flat1 = from_positions(r1.dom, r1.flatten())
    flat2 = from_positions(flat1.cod, r2.flatten())
    assert compose(r1, r2) == compose(flat1, flat2)


@given(objs, objs)
def test_symmetry_law(v, w):
    back_and_forth = compose(block_transposition(v, w), block_transposition(w, v))
    assert back_and_forth == identity(v + w)


@st.composite
def grouped(draw):
    groups = tuple(
        tuple(draw(objs) for _ in range(draw(st.integers(0, 2))))
        for _ in range(draw(st.integers(1, 3)))
    )
    alpha = tuple(draw(st.permutations(range(len(groups)))))
    return groups, alpha


@settings(max_examples=200)
@given(grouped())
def test_generator_pairs_are_flatten_equal(ga):
    groups, alpha = ga
    assert from_groups_fine(groups, alpha) == from_groups_coarse(groups, alpha)


def test_symbol_hash_grows_linearly():
    """A symbol keeps ``dom``, ``cod`` and ``flatten()`` once computed, so
    each timed ``hash`` hashes the kept views, and on 4x the letters it
    takes about 4x as long.  ``dom`` and ``cod`` are each one tuple: a
    pairwise fold of ``Obj.__add__`` took about 12x.  The sizes are hashed
    in turn, best of 25, with the garbage collector off, so that a pause in
    the machine's load or a collection falls on one run, not one size.  At
    4,000 and 16,000 letters, when each hash recomputed ``flatten``, its
    permuted lookups outgrew the CPU caches and the hash took 6-11x."""
    import gc
    import time

    symbols = {}
    for n in (1_000, 4_000):
        sends = list(range(n))
        random.Random(n).shuffle(sends)
        symbols[n] = from_positions(Obj(tuple(Sort("A") for _ in range(n))), sends)
    best = dict.fromkeys(symbols, float("inf"))
    gc.collect()
    gc.disable()
    try:
        for _ in range(25):
            for n, rho in symbols.items():
                start = time.perf_counter()
                hash(rho)
                best[n] = min(best[n], time.perf_counter() - start)
    finally:
        gc.enable()
    assert best[4_000] <= 8 * best[1_000]


# -- internal constructors -----------------------------------------------------

def fresh_views(rho):
    """``dom``, ``cod`` and the flattening of ``rho`` from its blocks and
    ``pi``, one letter at a time: the letters in domain order, each tagged
    by its block and place in it, and their positions in codomain order."""
    letters = [(i, k) for i, b in enumerate(rho.blocks) for k in range(len(b))]
    moved = [(i, k) for i in rho.pi for k in range(len(rho.blocks[i]))]
    at = {tag: j for j, tag in enumerate(moved)}
    return (
        Obj(tuple(rho.blocks[i].word[k] for i, k in letters)),
        Obj(tuple(rho.blocks[i].word[k] for i, k in moved)),
        tuple(at[tag] for tag in letters),
    )


@st.composite
def built(draw):
    """A zero-argument call of one operation that builds its symbol
    unchecked, on drawn operands."""
    op = draw(st.sampled_from(
        ["compose", "tensor", "tensor_all", "identity", "block_transposition", "lift_symbol"]
    ))
    if op == "compose":
        r1, r2 = draw(composable_pairs())
        return lambda: compose(r1, r2)
    if op == "tensor":
        r1, r2 = draw(symbols()), draw(symbols())
        return lambda: tensor(r1, r2)
    if op == "tensor_all":
        rs = draw(st.lists(symbols(), max_size=4))
        return lambda: tensor_all(rs)
    if op == "identity":
        w = draw(objs)
        return lambda: identity(w)
    if op == "block_transposition":
        v, w = draw(objs), draw(objs)
        return lambda: block_transposition(v, w)
    rho, k = draw(symbols()), draw(st.integers(1, 3))
    return lambda: lift_symbol(rho, k)


@settings(max_examples=200)
@given(built())
def test_unchecked_results_equal_the_checked_build(build):
    # views read first, then hash and ==, then the views again
    r = build()
    assert type(r.blocks) is tuple and type(r.pi) is tuple
    assert sorted(r.pi) == list(range(len(r.blocks)))
    views = fresh_views(r)
    assert (r.dom, r.cod, r.flatten()) == views
    checked = PermSymbol(r.blocks, r.pi)
    assert hash(r) == hash(checked) and r == checked and checked == r
    assert (r.dom, r.cod, r.flatten()) == views
    # a second build: hash and == before any view is read
    r = build()
    assert hash(r) == hash(checked) and r == checked
    assert (r.dom, r.cod, r.flatten()) == views
    assert r.flatten() is r.flatten() and r.dom is r.dom and r.cod is r.cod


@given(st.lists(symbols(), max_size=4), st.integers(1, 3))
def test_tensor_all_and_lift_symbol_flatten_as_defined(rs, k):
    f = tensor_all(rs).flatten()
    expected, n = [], 0
    for rho in rs:
        expected += [n + j for j in rho.flatten()]
        n += len(rho.dom)
    assert f == tuple(expected)
    for rho in rs:
        lifted = lift_symbol(rho, k).flatten()
        assert lifted == tuple(j * k + d for j in rho.flatten() for d in range(k))
