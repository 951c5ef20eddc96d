"""Command line front end.

Subcommands: parse, normalize, eq, eval, simulate, soliton, axioms,
export-dot.  Exit codes: 0 success (or equal), 1 unequal or property
failure, 2 usage or parse errors, running out of memory, or a machine of
more global states than ``dflow.MAX_STATES``.

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
are "*" or a [datum, port] pair.  State files (``simulate --state``)
map vertex ids to local states.  One loader, ``dflow.load_json``, reads
the three: it reads every array as a tuple, so a machine names the data
its automaton files do, and a file nested too deeply exits 2 with
"<kind>: nested too deeply".  All outputs are sorted, so deterministic.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    """The term and the signatures of a term file.  A ``sig`` line of the
    wrong shape, a second ``sig`` line for one name, or a sort word with a
    character other than a letter, digit or ``_`` raises ``ImaError``
    naming the line."""
    sigs: dict[str, Obj] = {}
    term_lines = []
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("sig "):
            parts = stripped.split()
            if len(parts) != 3:
                raise ImaError(f"line {number}: bad signature line: {stripped!r}")
            _, name, word = parts
            if name in sigs:
                raise ImaError(f"line {number}: second signature for {name!r}")
            sigs[name] = Obj.read(word, f"line {number}: sort word {word!r}")
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
    """The machine a JSON object describes (see the module docstring).
    An object of another shape raises ``ImaError`` naming the key and
    its value.  An automaton file is read, and a builtin built, only for a
    name that some vertex carries; a builtin only once its ``n`` equals
    those vertices' arity."""
    mpath = Path(path)
    doc = dflow.load_json(mpath.read_text(), "machine file")

    def bad(what, value, wanted):
        return ImaError(f"machine file: {what} must be {wanted}, not {json.dumps(value)}")

    doc = {"omega": {}, **doc}
    for key, kind, wanted in (("graph", str, "a graph file name"), ("data", tuple, "a list"),
                              ("omega", dict, "an object")):
        if key not in doc:
            raise ImaError(f"machine file: missing key {key!r}")
        if not isinstance(doc[key], kind):
            raise bad(repr(key), doc[key], wanted)
    graph = gr.parse_graph((mpath.parent / doc["graph"]).read_text())
    try:
        hash(doc["data"])
    except TypeError:
        raise bad("'data'", doc["data"], "a list of data that hold no JSON object") from None
    # the arities that the vertices carrying each name want, in vertex order
    wants: dict[str, list[int]] = {}
    for vid in graph.internal_vertices():
        lab = graph.vertices[vid]
        wants.setdefault(lab.name, []).append(len(lab.rank))
    omega = {}
    for name, spec in doc["omega"].items():
        if isinstance(spec, str):
            if name not in wants:
                continue
            auto = dflow.parse_automaton((mpath.parent / spec).read_text())
            if not isinstance(auto, DFlowAutomaton):
                raise ImaError(f"automaton file {spec!r} for {name!r} has no data")
            omega[name] = auto
        elif (isinstance(spec, dict) and isinstance(spec.get("builtin"), str)
              and spec["builtin"] in BUILTIN_AUTOMATA and type(spec.get("n")) is int):
            n = spec["n"]
            other = next((k for k in wants.get(name, ()) if k != n), None)
            if n >= 1 and other is not None:
                raise ImaError(f"automaton for {name!r} has arity {n}, vertex wants {other}")
            if n < 1 or name in wants:
                omega[name] = BUILTIN_AUTOMATA[spec["builtin"]](n)
        else:
            raise bad(f"'omega' entry {name!r}", spec,
                      f'an automaton file name or {{"builtin": one of {sorted(BUILTIN_AUTOMATA)}, '
                      f'"n": an integer}}')
    return GraphMachine(graph, doc["data"], omega)


def _load_state(path: str) -> dict[int, object]:
    """The local states a state file gives, by vertex id; a key that is
    not a vertex id raises ``ImaError`` naming it."""
    state = {}
    for key, value in dflow.load_json(Path(path).read_text(), "state file").items():
        try:
            state[int(key)] = value
        except ValueError:
            raise ImaError(f"state file: key {key!r} is not a vertex id") from None
    return state


def _endpoint(flag: str, text: str):
    """``*`` for the anchor or an interface number; anything else raises
    ``ImaError`` naming ``flag`` and ``text``."""
    if text == "*":
        return ANCHOR
    try:
        return int(text)
    except ValueError:
        raise ImaError(f"{flag} {text!r}: an endpoint is '*' or an interface number") from None


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


def _format_config(c) -> str:
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
    frm = _endpoint("--from", getattr(args, "from"))
    to = _endpoint("--to", args.to)
    pairs = dflow.walks(m, start, frm, to)
    for (q0, x), (q1, y) in sorted(pairs, key=repr):
        print(f"{q0!r} @{x} -> {q1!r} @{y}")
    if args.trace:
        for walk in sorted(
            dflow.enumerate_walks(m, start, frm, to, args.max_steps), key=repr
        ):
            print(f"walk ({len(walk) - 1} steps):")
            for c in walk:
                print("  " + _format_config(c))
    if not pairs:
        print("no complete walks")
    return 0


def cmd_soliton(args) -> int:
    g, ids = sol.parse_plain_graph(Path(args.graph).read_text())
    p = sol.make_presoliton(g)
    if not args.enumerate_pims and not (args.state and args.walk):
        raise ImaError("soliton needs --enumerate-pims or both --state and --walk")
    names = {v: k for k, v in ids.items()}

    def spell(ports):
        return " ".join(f"{names[v]}:{port + 1}" for v, port in sorted(ports))

    if args.enumerate_pims:
        pims = sol.enumerate_pims(p)
        for q in sorted(pims, key=repr):
            print("pim " + spell(q.items()))
        print(f"{len(pims)} perfect internal matchings")
        return 0
    q = sol.parse_plain_state(Path(args.state).read_text(), g, ids)
    ends = args.walk.split(",")
    if len(ends) != 2:
        raise ImaError(f"--walk {args.walk!r}: expected two endpoints i,j")
    i, j = (_endpoint("--walk", end) for end in ends)
    found = sol.soliton_walks(p, q, i, j, max_steps=args.max_steps)
    for walk, final in sorted(found, key=repr):
        print(f"walk data {sol.walk_data(walk)} -> state {spell(final)}")
        if args.trace:
            for c in walk:
                print("  " + _format_config(c))
    if not found:
        print("no complete walks")
    pim = sol.is_pim(p, q)
    print(f"start state is {'a PIM' if pim else 'not a PIM'}")
    return 0


def cmd_axioms(args) -> int:
    if args.mutate_alternation and args.algebra != "automata":
        raise ImaError(f"--mutate-alternation applies to 'automata' only, not {args.algebra!r}")
    factory = laws.ALGEBRAS[args.algebra]
    aut = factory(broken_alternation=True) if args.mutate_alternation else factory()
    report = laws.run_families(
        aut,
        laws.ALL_FAMILIES if args.derived else laws.AXIOM_FAMILIES,
        args.cases,
        args.seed,
        command=f"axioms {args.algebra}",
    )
    if args.format == "json":
        print(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    else:
        print("\n".join(report.lines()))
    return 0 if report.ok else 1


def _count(text: str) -> int:
    """The value of a count option, an integer from 0; any other text is
    a usage error (exit 2)."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer from 0")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ima",
        description="indexed monoidal algebras: graphs, Turing automata, graph machines",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=_count, default=100)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--dot", action="store_true", help=(
        "print Graphviz DOT (normalize, simulate); DOT names vertices v0, v1, ... in id "
        "order, while state files and simulate --trace name them by the graph file's ids"))
    parser.add_argument("--max-steps", type=_count, default=20)
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
    except (ImaError, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:  # its message is empty
        print("error: out of memory: the input needs more memory than this process has",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
