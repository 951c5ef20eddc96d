import itertools
import random

import pytest

from ima import laws, term as tm
from ima.automata import AUTOMATA_ALGEBRA, TuringAutomaton
from ima.dflow import DFlowAlgebra, DFlowAutomaton
from ima.graph import RankedAlphabet, decompose
from ima.perm import Obj


def test_axioms_pass_in_all_algebras():
    for factory in (
        laws.graphs_under_test,
        laws.automata_under_test,
        laws.dflow_under_test,
    ):
        aut = factory()
        report = laws.run_families(aut, laws.AXIOM_FAMILIES, cases=15, seed=3)
        assert report.ok, "\n".join(report.lines())


def test_dflow_inherits_axioms_at_two_data():
    aut = laws.dflow_under_test()
    assert aut.algebra.data == (0, 1)
    report = laws.run_families(aut, laws.AXIOM_FAMILIES, cases=50, seed=5)
    assert report.ok, "\n".join(report.lines())


def test_derived_pass_in_all_algebras():
    for factory in (
        laws.graphs_under_test,
        laws.automata_under_test,
        laws.dflow_under_test,
    ):
        report = laws.run_families(factory(), laws.DERIVED_FAMILIES, cases=15, seed=3)
        assert report.ok, "\n".join(report.lines())


def test_mutation_is_caught_with_counterexample():
    broken = laws.automata_under_test(broken_alternation=True)
    report = laws.run_families(broken, laws.AXIOM_FAMILIES, cases=40, seed=3)
    assert not report.ok
    families = {f.family for f in report.failures}
    assert "I5" in families
    text = "\n".join(report.lines())
    assert "counterexample" in text
    assert "lhs:" in text and "rhs:" in text


def test_report_is_deterministic():
    aut = laws.automata_under_test(broken_alternation=True)
    r1 = laws.run_families(aut, laws.AXIOM_FAMILIES, cases=10, seed=77)
    r2 = laws.run_families(aut, laws.AXIOM_FAMILIES, cases=10, seed=77)
    assert r1.lines() == r2.lines()


def test_zero_cases_report():
    report = laws.run_families(laws.graphs_under_test(), laws.AXIOM_FAMILIES, cases=0, seed=0)
    assert report.ok
    assert all(n == 0 for n in report.cases.values())


def coherence_failures(aut, cases=15, seed=3) -> list:
    """The coherence theorem as an oracle: graphs are the free indexed
    monoidal algebra, so each side ``t`` of every law instance has the
    value of ``decompose(normalize(t))``, and of that term with its
    traces taken early, in any algebra.  The three terms reach the value
    through other sums, trace widths and reindexings.  Returns the
    (family, case, term) of each side that differs."""
    failures = []
    for family, generate in laws.ALL_FAMILIES.items():
        rng = random.Random((seed, family, aut.name).__repr__())
        for case in range(cases):
            for check in generate(rng, aut):
                interp = tm.Interpretation(aut.algebra, check.symbols)
                ranks = interp.ranks()
                for t in (check.lhs, check.rhs):
                    normal = decompose(tm.normalize(t, RankedAlphabet(ranks)))
                    value = tm.evaluate(t, interp)
                    failures += [
                        (family, case, tm.format_term(t))
                        for other in (normal, tm.trace_early(normal, ranks))
                        if not aut.algebra.equivalent(value, tm.evaluate(other, interp))
                    ]
    return failures


@pytest.mark.parametrize("name", sorted(laws.ALGEBRAS))
def test_terms_evaluate_as_their_normal_forms(name):
    assert coherence_failures(laws.ALGEBRAS[name]()) == []


def test_coherence_oracle_catches_the_mutant():
    assert coherence_failures(laws.automata_under_test(broken_alternation=True))


def brute_force_equivalent(t1: TuringAutomaton, t2: TuringAutomaton) -> bool:
    """Some bijection of the state sets carries one transition set onto
    the other, found by trying every one."""
    if t1.iface != t2.iface or len(t1.states) != len(t2.states):
        return False
    names = sorted(t1.states)
    for image in itertools.permutations(sorted(t2.states)):
        to = dict(zip(names, image))
        if {((to[q], x), (to[r], y)) for (q, x), (r, y) in t1.delta} == t2.delta:
            return True
    return False


def retargeted(rng: random.Random, t: TuringAutomaton) -> TuringAutomaton:
    """``t`` with one transition sent to another target state: the same
    table keys over other relations."""
    delta = sorted(t.delta, key=repr)
    (q, x), (r, y) = delta.pop(rng.randrange(len(delta)))
    r2 = rng.choice(sorted(t.states - {r}))
    return TuringAutomaton(t.iface, t.states, {*delta, ((q, x), (r2, y))})


def inequivalent_pairs(seed: int = 20261019, count: int = 300) -> list:
    """Pairs of random automata, half of them a random automaton and a
    retargeted copy, kept when no state bijection relates them."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        w = Obj.parse(rng.choice(["()", "A", "AB", "AAB"]))
        t1 = laws.random_automaton(rng, w)
        if len(t1.states) > 1 and t1.delta and rng.random() < 0.5:
            t2 = retargeted(rng, t1)
        else:
            t2 = laws.random_automaton(rng, w)
        if not brute_force_equivalent(t1, t2):
            pairs.append((t1, t2))
    return pairs


def test_equivalence_rejects_inequivalent_automata():
    pairs = inequivalent_pairs()
    same_keys = [(t1, t2) for t1, t2 in pairs
                 if len(t1.states) == len(t2.states) and t1.table.keys() == t2.table.keys()]
    assert len(same_keys) >= 20
    dflow = DFlowAlgebra((0,))
    for t1, t2 in pairs:
        assert AUTOMATA_ALGEBRA.equivalent(t1, t2) is False, (t1.delta, t2.delta)
        d1, d2 = (DFlowAutomaton((0,), t.iface, t) for t in (t1, t2))
        assert dflow.equivalent(d1, d2) is False, (t1.delta, t2.delta)
