"""Randomized checking of the equational laws in any registered algebra.

Each law family is instantiated with freshly drawn objects, permutation
symbols and algebra elements; both sides are built as terms, evaluated
through the generic evaluator and compared with the algebra's own
equivalence.  For automata that is equality up to a state bijection;
sum numbers product states so that most laws rebuild the very same
table on both sides, and the bijection search runs only when the tables
differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from . import perm as pm
from . import term as tm
from .automata import ANCHOR, AutomataAlgebra, TuringAutomaton, trace_automaton
from .dflow import DFlowAlgebra, DFlowAutomaton, expand_word
from .graph import GraphAlgebra, InterfaceLabel, LoopLabel, SigmaGraph, SymbolLabel
from .perm import Obj, PermSymbol, Sort

SORTS = (Sort("A"), Sort("B"))


@dataclass(frozen=True)
class AlgebraUnderTest:
    name: str
    algebra: object
    random_element: Callable[[random.Random, Obj], object]


# -- random raw material ---------------------------------------------------------


def random_obj(rng: random.Random, max_len: int = 2, min_len: int = 0) -> Obj:
    return Obj(tuple(rng.choice(SORTS) for _ in range(rng.randint(min_len, max_len))))


def random_symbol_on(rng: random.Random, w: Obj) -> PermSymbol:
    """A random block partition of ``w`` with a random block permutation."""
    blocks = []
    rest = list(w)
    while rest:
        k = rng.randint(1, len(rest))
        blocks.append(Obj(tuple(rest[:k])))
        rest = rest[k:]
    if rng.random() < 0.3:
        blocks.append(Obj())
    pi = list(range(len(blocks)))
    rng.shuffle(pi)
    return PermSymbol(tuple(blocks), tuple(pi))


def random_grouped(rng: random.Random):
    groups = tuple(
        tuple(random_obj(rng, 1) for _ in range(rng.randint(0, 2)))
        for _ in range(rng.randint(1, 3))
    )
    alpha = list(range(len(groups)))
    rng.shuffle(alpha)
    return groups, tuple(alpha)


def random_graph(rng: random.Random, w: Obj) -> SigmaGraph:
    """A sort-correct random graph of the requested rank."""
    ranks = []
    for _ in range(rng.randint(0, 2)):
        ranks.append(random_obj(rng, 3))
    counts: dict[Sort, int] = {}
    for s in w:
        counts[s] = counts.get(s, 0) + 1
    for r in ranks:
        for s in r:
            counts[s] = counts.get(s, 0) + 1
    odd = tuple(s for s, c in sorted(counts.items()) if c % 2)
    if odd:
        ranks.append(Obj(odd))

    vertices: dict[int, object] = {}
    ports: list[tuple[int, int]] = []
    vid = 0
    for serial, s in enumerate(w, start=1):
        vertices[vid] = InterfaceLabel(serial, s)
        ports.append((vid, 0))
        vid += 1
    for r in ranks:
        if not r:
            vertices[vid] = SymbolLabel("g0", Obj())
            vid += 1
            continue
        vertices[vid] = SymbolLabel(f"g{r}", r)
        ports.extend((vid, i) for i in range(len(r)))
        vid += 1
    for _ in range(rng.randint(0, 1)):
        vertices[vid] = LoopLabel(rng.choice(SORTS))
        vid += 1

    edges = []
    by_sort: dict[Sort, list] = {}
    for p in ports:
        by_sort.setdefault(vertices[p[0]].sort if isinstance(vertices[p[0]], InterfaceLabel) else vertices[p[0]].rank[p[1]], []).append(p)
    for s, group in by_sort.items():
        rng.shuffle(group)
        while group:
            a = group.pop()
            b = group.pop()
            edges.append({a, b})
    return SigmaGraph(vertices, edges)


def random_automaton(
    rng: random.Random, w: Obj, max_states: int = 3, density: int = 3
) -> TuringAutomaton:
    n = len(w)
    q = rng.randint(1, max_states)
    positions = list(range(1, n + 1)) + [ANCHOR]
    delta = set()
    for _ in range(rng.randint(0, density + n)):
        delta.add(
            (
                (rng.randrange(q), rng.choice(positions)),
                (rng.randrange(q), rng.choice(positions)),
            )
        )
    return TuringAutomaton(w, frozenset(range(q)), frozenset(delta))


DATA = (0, 1)


def random_dflow(rng: random.Random, w: Obj) -> DFlowAutomaton:
    base = random_automaton(rng, expand_word(w, len(DATA)), density=4)
    return DFlowAutomaton(DATA, w, base)


def graphs_under_test() -> AlgebraUnderTest:
    return AlgebraUnderTest("graphs", GraphAlgebra(), random_graph)


class AlternationMutant(AutomataAlgebra):
    """Automata with a wrong trace: control leaving at a traced position
    re-enters at that same position instead of its glued partner.  It
    exists so the law suite can be shown to catch a wrong trace."""

    def trace(self, w, x):
        n = len(w)

        def partner(p):
            if p == ANCHOR or p > 2 * n:
                return p
            return p + n if p <= n else p - n

        delta = frozenset(((q, partner(p)), out) for (q, p), out in x.delta)
        return trace_automaton(TuringAutomaton(x.iface, x.states, delta), w)


def automata_under_test(broken_alternation: bool = False) -> AlgebraUnderTest:
    algebra = AlternationMutant() if broken_alternation else AutomataAlgebra()
    return AlgebraUnderTest("automata", algebra, random_automaton)


def dflow_under_test() -> AlgebraUnderTest:
    return AlgebraUnderTest("dflow", DFlowAlgebra(DATA), random_dflow)


ALGEBRAS = {
    "graphs": graphs_under_test,
    "automata": automata_under_test,
    "dflow": dflow_under_test,
}


# -- law instances ------------------------------------------------------------------


@dataclass(frozen=True)
class LawCheck:
    law: str
    lhs: tm.Term
    rhs: tm.Term
    symbols: dict


def gen_I1(rng, aut) -> list[LawCheck]:
    w = random_obj(rng)
    f = aut.random_element(rng, w)
    rho1 = random_symbol_on(rng, w)
    pi2 = list(range(len(rho1.blocks)))
    rng.shuffle(pi2)
    rho2 = PermSymbol(rho1.cod_blocks(), tuple(pi2))
    F = tm.Atom("f")
    return [
        LawCheck(
            "I1 composition",
            tm.Index(F, pm.compose(rho1, rho2)),
            tm.Index(tm.Index(F, rho1), rho2),
            {"f": f},
        ),
        LawCheck(
            "I1 unit",
            tm.Index(F, pm.identity(w)),
            F,
            {"f": f},
        ),
    ]


def gen_I2(rng, aut) -> list[LawCheck]:
    w1, w2 = random_obj(rng), random_obj(rng)
    f = aut.random_element(rng, w1)
    g = aut.random_element(rng, w2)
    rho1 = random_symbol_on(rng, w1)
    rho2 = random_symbol_on(rng, w2)
    F, G = tm.Atom("f"), tm.Atom("g")
    checks = [
        LawCheck(
            "I2 sum naturality",
            tm.Index(tm.Sum(F, G), pm.tensor(rho1, rho2)),
            tm.Sum(tm.Index(F, rho1), tm.Index(G, rho2)),
            {"f": f, "g": g},
        )
    ]
    a = random_obj(rng, 1)
    v = random_obj(rng)
    h = aut.random_element(rng, a + a + v)
    rho = random_symbol_on(rng, v)
    H = tm.Atom("h")
    checks.append(
        LawCheck(
            "I2 trace naturality",
            tm.Index(tm.Trace(a, H), rho),
            tm.Trace(a, tm.Index(H, pm.tensor(pm.identity(a + a), rho))),
            {"h": h},
        )
    )
    return checks


def gen_I3(rng, aut) -> list[LawCheck]:
    groups, alpha = random_grouped(rng)
    fine = pm.from_groups_fine(groups, alpha)
    coarse = pm.from_groups_coarse(groups, alpha)
    w = fine.dom
    f = aut.random_element(rng, w)
    F = tm.Atom("f")
    return [
        LawCheck(
            "I3 coherence",
            tm.Index(F, fine),
            tm.Index(F, coarse),
            {"f": f},
        )
    ]


def gen_I4(rng, aut) -> list[LawCheck]:
    w1, w2, w3 = (random_obj(rng) for _ in range(3))
    f = aut.random_element(rng, w1)
    g = aut.random_element(rng, w2)
    h = aut.random_element(rng, w3)
    F, G, H = tm.Atom("f"), tm.Atom("g"), tm.Atom("h")
    return [
        LawCheck(
            "I4 associativity",
            tm.Sum(tm.Sum(F, G), H),
            tm.Sum(F, tm.Sum(G, H)),
            {"f": f, "g": g, "h": h},
        ),
        LawCheck(
            "I4 commutativity",
            tm.Sum(F, G),
            tm.Index(tm.Sum(G, F), pm.block_transposition(w2, w1)),
            {"f": f, "g": g},
        ),
    ]


def gen_I5(rng, aut) -> list[LawCheck]:
    a, b = random_obj(rng), random_obj(rng)
    f = aut.random_element(rng, a + b)
    F = tm.Atom("f")
    return [
        LawCheck(
            "I5 right identity",
            tm.Comp(a, b, b, F, tm.Id(b)),
            F,
            {"f": f},
        ),
        LawCheck(
            "I5 unit summand",
            tm.Sum(F, tm.Id(Obj())),
            F,
            {"f": f},
        ),
    ]


def gen_I6(rng, aut) -> list[LawCheck]:
    a = random_obj(rng, 2)
    return [
        LawCheck(
            "I6 identity symmetry",
            tm.Index(tm.Id(a), pm.block_transposition(a, a)),
            tm.Id(a),
            {},
        )
    ]


def gen_I7(rng, aut) -> list[LawCheck]:
    w = random_obj(rng)
    f = aut.random_element(rng, w)
    F = tm.Atom("f")
    checks = [
        LawCheck(
            "I7 vanishing unit",
            tm.Trace(Obj(), F),
            F,
            {"f": f},
        )
    ]
    a, b = random_obj(rng, 1), random_obj(rng, 1)
    c = random_obj(rng, 1)
    h = aut.random_element(rng, a + b + a + b + c)
    H = tm.Atom("h")
    rho = pm.tensor_all(
        [pm.identity(a), pm.block_transposition(b, a), pm.identity(b + c)]
    )
    checks.append(
        LawCheck(
            "I7 vanishing tensor",
            tm.Trace(a + b, H),
            tm.Trace(b, tm.Trace(a, tm.Index(H, rho))),
            {"h": h},
        )
    )
    return checks


def gen_I8(rng, aut) -> list[LawCheck]:
    a = random_obj(rng, 1)
    b, c = random_obj(rng), random_obj(rng)
    f = aut.random_element(rng, a + a + b)
    g = aut.random_element(rng, c)
    F, G = tm.Atom("f"), tm.Atom("g")
    return [
        LawCheck(
            "I8 superposing",
            tm.Trace(a, tm.Sum(F, G)),
            tm.Sum(tm.Trace(a, F), G),
            {"f": f, "g": g},
        )
    ]


def gen_I9(rng, aut) -> list[LawCheck]:
    a, b = random_obj(rng, 1), random_obj(rng, 1)
    c = random_obj(rng, 1)
    f = aut.random_element(rng, a + a + b + b + c)
    F = tm.Atom("f")
    rho = pm.tensor(pm.block_transposition(a + a, b + b), pm.identity(c))
    return [
        LawCheck(
            "I9 trace swapping",
            tm.Trace(b, tm.Trace(a, F)),
            tm.Trace(a, tm.Trace(b, tm.Index(F, rho))),
            {"f": f},
        )
    ]


AXIOM_FAMILIES = {
    "I1": gen_I1,
    "I2": gen_I2,
    "I3": gen_I3,
    "I4": gen_I4,
    "I5": gen_I5,
    "I6": gen_I6,
    "I7": gen_I7,
    "I8": gen_I8,
    "I9": gen_I9,
}


def gen_zigzag(rng, aut) -> list[LawCheck]:
    a = random_obj(rng, 2, min_len=1)
    unit = Obj()
    i = tm.Id(a)
    left = tm.Comp(
        a,
        a + a + a,
        a,
        tm.Tensor(unit, a + a, a, a, i, i),
        tm.Tensor(a, a, a + a, unit, i, i),
    )
    right = tm.Comp(
        a,
        a + a + a,
        a,
        tm.Tensor(a, a, unit, a + a, i, i),
        tm.Tensor(a + a, unit, a, a, i, i),
    )
    return [
        LawCheck("zig-zag first", left, i, {}),
        LawCheck("zig-zag second", right, i, {}),
    ]


def gen_trace_symmetry(rng, aut) -> list[LawCheck]:
    a = random_obj(rng, 1)
    b = random_obj(rng)
    f = aut.random_element(rng, a + a + b)
    F = tm.Atom("f")
    rho = pm.tensor(pm.block_transposition(a, a), pm.identity(b))
    return [
        LawCheck(
            "trace symmetry",
            tm.Trace(a, F),
            tm.Trace(a, tm.Index(F, rho)),
            {"f": f},
        ),
        LawCheck(
            "canonical trace",
            tm.Trace(a, F),
            tm.Comp(Obj(), a + a, b, tm.Id(a), F),
            {"f": f},
        ),
    ]


def gen_left_identity(rng, aut) -> list[LawCheck]:
    a, b = random_obj(rng), random_obj(rng)
    f = aut.random_element(rng, a + b)
    F = tm.Atom("f")
    return [
        LawCheck(
            "left identity",
            tm.Comp(a, a, b, tm.Id(a), F),
            F,
            {"f": f},
        )
    ]


def gen_tensor_identity(rng, aut) -> list[LawCheck]:
    a, b = random_obj(rng), random_obj(rng)
    i, j = tm.Id(a), tm.Id(b)
    return [
        LawCheck(
            "tensor of identity",
            tm.Id(a + b),
            tm.Tensor(a, a, b, b, i, j),
            {},
        )
    ]


DERIVED_FAMILIES = {
    "zig-zag": gen_zigzag,
    "trace-symmetry": gen_trace_symmetry,
    "left-identity": gen_left_identity,
    "tensor-identity": gen_tensor_identity,
}

ALL_FAMILIES = {**AXIOM_FAMILIES, **DERIVED_FAMILIES}


# -- running ------------------------------------------------------------------------


@dataclass
class Failure:
    family: str
    law: str
    case: int
    lhs: str
    rhs: str


@dataclass
class RunReport:
    command: str
    seed: int
    cases: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = [f"# {self.command} (seed {self.seed})"]
        for family in sorted(self.cases):
            n = self.cases[family]
            bad = [f for f in self.failures if f.family == family]
            status = "ok" if not bad else f"FAILED x{len(bad)}"
            out.append(f"{family}: {n} cases {status}")
        for f in self.failures:
            out.append(f"counterexample [{f.family} / {f.law}] case {f.case}:")
            out.append(f"  lhs: {f.lhs}")
            out.append(f"  rhs: {f.rhs}")
        return out


def check_one(aut: AlgebraUnderTest, check: LawCheck) -> bool:
    interp = tm.Interpretation(aut.algebra, check.symbols)
    lhs = tm.evaluate(check.lhs, interp)
    rhs = tm.evaluate(check.rhs, interp)
    return aut.algebra.equivalent(lhs, rhs)


def _shrunk(aut, family_gen, rng, attempts: int = 20) -> LawCheck | None:
    """Look for a smaller failing instance of the same family."""
    best = None
    best_size = None
    for _ in range(attempts):
        for check in family_gen(rng, aut):
            if check_one(aut, check):
                continue
            size = len(tm.format_term(check.lhs)) + len(tm.format_term(check.rhs))
            if best_size is None or size < best_size:
                best, best_size = check, size
    return best


def run_families(
    aut: AlgebraUnderTest,
    families: dict,
    cases: int,
    seed: int,
    command: str = "axioms",
) -> RunReport:
    report = RunReport(command=command, seed=seed)
    for family, generate in families.items():
        rng = random.Random((seed, family, aut.name).__repr__())
        report.cases[family] = cases
        for case in range(cases):
            for check in generate(rng, aut):
                if check_one(aut, check):
                    continue
                small = _shrunk(aut, generate, random.Random((seed, family, case).__repr__()))
                worst = small or check
                report.failures.append(
                    Failure(
                        family,
                        worst.law,
                        case,
                        tm.format_term(worst.lhs),
                        tm.format_term(worst.rhs),
                    )
                )
                break
    return report
