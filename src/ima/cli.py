"""Command line front end.

Subcommands: parse, normalize, eq, eval, simulate, soliton, axioms,
export-dot.  Exit codes: 0 success (or equal), 1 unequal or property
failure, 2 usage or parse errors.

Term files hold optional ``sig <name> <rankword>`` header lines followed
by one term.  Machine files are JSON documents::

    {"graph": "path.graph", "data": [0, 1],
     "omega": {"c2": {"builtin": "alternating_switch", "n": 2},
               "f":  "f.auto.json"}}

Automaton files (``eval --automaton``, ``eval --machine`` output and
the ``omega`` files above) share one JSON format, read and written by
``dflow.parse_automaton``/``dflow.format_automaton``: an interface word,
states and transition quadruples [q, x, q2, y] where x and y are "*" or
a 1-based position.  A data-flow automaton, the only kind ``omega``
accepts, also has ``data``; its interface is the port word and x and y
are "*" or a [datum, port] pair.  Tuple states are written as lists and
read back as tuples.  All outputs are deterministic: collections are
sorted before printing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dflow, graph as gr, laws, soliton as sol, term as tm
from .automata import ANCHOR
from .dflow import DFlowAutomaton, GraphMachine
from .errors import ImaError
from .graph import RankedAlphabet
from .perm import Obj


def read_term_file(path: str) -> tuple[tm.Term, RankedAlphabet]:
    sigs: dict[str, Obj] = {}
    term_lines = []
    for line in Path(path).read_text().splitlines():
        stripped = line.strip()
        if stripped.startswith("sig "):
            parts = stripped.split()
            if len(parts) != 3:
                raise ImaError(f"bad signature line: {stripped!r}")
            sigs[parts[1]] = Obj.parse(parts[2])
        elif stripped.startswith("#"):
            continue
        else:
            term_lines.append(line)
    t = tm.parse("\n".join(term_lines))
    return t, RankedAlphabet(sigs)


BUILTIN_AUTOMATA = {
    "alternating_switch": dflow.alternating_switch,
    "atomic_switch": dflow.atomic_switch_dflow,
}


def load_machine(path: str) -> GraphMachine:
    mpath = Path(path)
    doc = json.loads(mpath.read_text())
    graph = gr.parse_graph((mpath.parent / doc["graph"]).read_text())
    data = tuple(doc["data"])
    omega = {}
    for name, spec in doc.get("omega", {}).items():
        if isinstance(spec, str):
            auto = dflow.parse_automaton((mpath.parent / spec).read_text())
            if not isinstance(auto, DFlowAutomaton):
                raise ImaError(f"automaton file {spec!r} for {name!r} has no data")
            omega[name] = auto
        else:
            omega[name] = BUILTIN_AUTOMATA[spec["builtin"]](int(spec["n"]))
    return GraphMachine(graph, data, omega)


def _load_state(path: str) -> dict[int, object]:
    doc = json.loads(Path(path).read_text())
    return {int(k): v for k, v in doc.items()}


def _endpoint(text: str):
    return ANCHOR if text == "*" else int(text)


# -- subcommands -----------------------------------------------------------------


def cmd_parse(args) -> int:
    t, _ = read_term_file(args.file)
    print(tm.format_term(t))
    return 0


def cmd_normalize(args) -> int:
    t, alphabet = read_term_file(args.file)
    g = tm.normalize(t, alphabet)
    sys.stdout.write(gr.to_dot(g) if args.dot else gr.format_graph(g))
    return 0


def cmd_eq(args) -> int:
    t1, alpha1 = read_term_file(args.file1)
    t2, alpha2 = read_term_file(args.file2)
    symbols = dict(alpha1.symbols)
    for name, rank in alpha2.symbols.items():
        if symbols.setdefault(name, rank) != rank:
            raise ImaError(f"symbol {name!r} declared with two ranks")
    alphabet = RankedAlphabet(symbols)
    if tm.term_equal(t1, t2, alphabet):
        print("equal")
        return 0
    print("not equal")
    return 1


def cmd_export_dot(args) -> int:
    g = gr.parse_graph(Path(args.file).read_text())
    sys.stdout.write(gr.to_dot(g))
    return 0


def cmd_eval(args) -> int:
    if args.automaton:
        auto = dflow.parse_automaton(Path(args.automaton).read_text())
    else:
        auto = dflow.evaluate(load_machine(args.machine))
    sys.stdout.write(dflow.format_automaton(auto))
    return 0


def _format_config(m: GraphMachine, c) -> str:
    locals_ = " ".join(f"{vid}={state!r}" for vid, state in c.local)
    if c.locus[0] == "anchor":
        where = "anchor"
    elif c.locus[0] == "iface":
        where = f"iface {c.locus[1]} datum {c.datum!r}"
    else:
        where = f"port {c.locus[1]}.{c.locus[2] + 1} datum {c.datum!r}"
    return f"[{locals_}] {where}"


def cmd_simulate(args) -> int:
    m = load_machine(args.machine)
    if args.dot:
        sys.stdout.write(gr.to_dot(m.graph))
        return 0
    start = _load_state(args.state)
    frm = _endpoint(getattr(args, "from"))
    to = _endpoint(args.to)
    pairs = dflow.walks(m, start, frm, to)
    for (q0, x), (q1, y) in sorted(pairs, key=repr):
        print(f"{q0!r} @{x} -> {q1!r} @{y}")
    if args.trace:
        for walk in sorted(
            dflow.enumerate_walks(m, start, frm, to, args.max_steps), key=repr
        ):
            print(f"walk ({len(walk) - 1} steps):")
            for c in walk:
                print("  " + _format_config(m, c))
    if not pairs:
        print("no complete walks")
    return 0


def cmd_soliton(args) -> int:
    g, ids = sol.parse_plain_graph(Path(args.graph).read_text())
    p = sol.make_presoliton(g)
    if not args.enumerate_pims and not (args.state and args.walk):
        raise ImaError("soliton needs --enumerate-pims or both --state and --walk")
    if args.enumerate_pims:
        names = {v: k for k, v in ids.items()}
        pims = sol.enumerate_pims(p)
        for q in sorted(pims, key=repr):
            parts = [f"{names[v]}:{port + 1}" for v, port in sorted(q.items())]
            print("pim " + " ".join(parts))
        print(f"{len(pims)} perfect internal matchings")
        return 0
    q = sol.parse_plain_state(Path(args.state).read_text(), g, ids)
    i_text, j_text = args.walk.split(",")
    i, j = _endpoint(i_text), _endpoint(j_text)
    found = sol.soliton_walks(p, q, i, j, max_steps=args.max_steps)
    names = {v: k for k, v in ids.items()}
    for walk, final in sorted(found, key=repr):
        data = sol.walk_data(walk)
        state_text = " ".join(
            f"{names[v]}:{port + 1}" for v, port in sorted(final)
        )
        print(f"walk data {data} -> state {state_text}")
        if args.trace:
            for c in walk:
                print("  " + _format_config(p.machine, c))
    if not found:
        print("no complete walks")
    pim = sol.is_pim(p, q)
    print(f"start state is {'a PIM' if pim else 'not a PIM'}")
    return 0


def cmd_axioms(args) -> int:
    factory = laws.ALGEBRAS[args.algebra]
    if args.algebra == "automata":
        aut = factory(broken_alternation=args.mutate_alternation)
    else:
        aut = factory()
    report = laws.run_families(
        aut,
        laws.ALL_FAMILIES if args.derived else laws.AXIOM_FAMILIES,
        args.cases,
        args.seed,
        command=f"axioms {args.algebra}",
    )
    if args.format == "json":
        doc = {
            "command": report.command,
            "seed": report.seed,
            "cases": report.cases,
            "failures": [
                {"family": f.family, "law": f.law, "case": f.case, "lhs": f.lhs, "rhs": f.rhs}
                for f in report.failures
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("\n".join(report.lines()))
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ima",
        description="indexed monoidal algebras: graphs, Turing automata, graph machines",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=100)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--dot", action="store_true")
    parser.add_argument("--max-steps", type=int, default=20)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a term file and print it back")
    p.add_argument("file")
    p.set_defaults(run=cmd_parse)

    p = sub.add_parser("normalize", help="print the graph normal form of a term")
    p.add_argument("file")
    p.set_defaults(run=cmd_normalize)

    p = sub.add_parser("eq", help="decide equality of two terms")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(run=cmd_eq)

    p = sub.add_parser("export-dot", help="render a graph file as DOT")
    p.add_argument("file")
    p.set_defaults(run=cmd_export_dot)

    p = sub.add_parser("eval", help="evaluate a machine to its automaton")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--machine")
    group.add_argument("--automaton", help="validate and normalize an automaton file")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("simulate", help="walk a machine between interfaces")
    p.add_argument("--machine", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("soliton", help="soliton walks and matchings")
    p.add_argument("--graph", required=True)
    p.add_argument("--state")
    p.add_argument("--walk")
    p.add_argument("--enumerate-pims", action="store_true")
    p.set_defaults(run=cmd_soliton)

    p = sub.add_parser("axioms", help="run the law suite in an algebra")
    p.add_argument("algebra", choices=sorted(laws.ALGEBRAS))
    p.add_argument("--mutate-alternation", action="store_true")
    p.add_argument("--derived", action="store_true")
    p.set_defaults(run=cmd_axioms)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ImaError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
