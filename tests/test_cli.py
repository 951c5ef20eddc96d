import contextlib
import copy
import functools
import io
import json
import random
import re
import tempfile
import time
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ima import dflow, term as tm
from ima.cli import load_machine, main, read_term_file
from ima.graph import decompose, isomorphic, parse_graph
from sweeps import shuffled, tape_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def term_file(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_parse_round_trip(term_file, capsys):
    f = term_file("t.term", "sig f BA\natom f + id(A)\n")
    code, out, _ = run(capsys, "parse", f)
    assert code == 0
    assert out.strip() == "atom f + id(A)"


def test_parse_error_exit_code(term_file, capsys):
    f = term_file("bad.term", "atom f + +\n")
    code, _, err = run(capsys, "parse", f)
    assert code == 2
    assert "error" in err


def test_parse_deeply_nested_exit_code(term_file, capsys):
    for depth in (1200, 100_000):
        f = term_file("deep.term", "(" * depth + "id(A)" + ")" * depth + "\n")
        code, out, err = run(capsys, "parse", f)
        assert code == 0 and not err
        assert out == "id(A)\n"
        f = term_file("open.term", "(" * depth + "id(A)" + ")" * (depth - 1) + "\n")
        code, _, err = run(capsys, "parse", f)
        assert code == 2
        assert err == f"error: 1:{2 * depth + 5}: expected ')', found 'end of input'\n"


def test_normalize_deeply_nested_traces(term_file, capsys):
    # tr(A, (id(A) + t) . c(A,AA)#id(A)) composes id(A) with t, 5,000 deep
    depth = 5000
    text = "tr(A, (id(A) + " * depth + "id(A)" + ") . c(A,AA)#id(A))" * depth
    f = term_file("traces.term", text + "\n")
    code, out, err = run(capsys, "normalize", f)
    assert code == 0 and not err
    assert out == "graph AA\nvertex 0 in:1:A\nvertex 1 in:2:A\nedge 0.1 1.1\n"


def test_flat_sum_of_many_summands(term_file, capsys):
    text = " + ".join(["id(A)"] + ["id()"] * 1199)
    f = term_file("flat.term", text + "\n")
    code, out, err = run(capsys, "parse", f)
    assert code == 0 and not err
    assert tm.parse(out) == tm.parse(text)
    assert hash(tm.parse(out)) == hash(tm.parse(text))
    code, out, err = run(capsys, "normalize", f)
    assert code == 0 and not err
    assert out.startswith("graph AA")


def test_parse_and_eq_of_a_large_term(term_file, capsys):
    g = tape_graph(250)
    text = tm.format_term(decompose(g))
    f = term_file("tape.term", "sig cell AA\n" + text + "\n")
    code, out, err = run(capsys, "parse", f)
    assert code == 0 and not err
    assert out == text + "\n"
    other = tm.format_term(decompose(shuffled(g, random.Random(3))))
    assert other != text
    code, out, _ = run(capsys, "eq", f, term_file("shuffled.term", "sig cell AA\n" + other + "\n"))
    assert code == 0
    assert out == "equal\n"


def test_normalize_loop_vertex_dot(term_file, capsys):
    f = term_file("t.term", "tr(A, id(A))\n")
    code, out, _ = run(capsys, "--dot", "normalize", f)
    assert code == 0
    assert out.count("diamond") == 1


def test_normalize_graph_format(term_file, capsys):
    f = term_file("t.term", "sig f BA\natom f\n")
    code, out, _ = run(capsys, "normalize", f)
    assert code == 0
    assert out.startswith("graph BA")
    assert "sym:f" in out


def test_two_sorted_normal_form_reads_back(term_file, capsys, tmp_path):
    # with ranks left out of the file, the B ports of f and g read back as A
    f = term_file("t.term", "sig f AB\nsig g BA\ntr(B, (atom f + atom g) . c(A,BBA))\n")
    code, out, _ = run(capsys, "normalize", f)
    assert code == 0
    nf = tmp_path / "nf.graph"
    nf.write_text(out)
    code, _, _ = run(capsys, "export-dot", str(nf))
    assert code == 0
    t, alphabet = read_term_file(f)
    assert isomorphic(parse_graph(nf.read_text()), tm.normalize(t, alphabet))


def test_eq_trace_swap_sides(term_file, capsys):
    lhs = term_file("l.term", "sig h AABB\ntr(B, tr(A, atom h))\n")
    rhs = term_file("r.term", "sig h AABB\ntr(A, tr(B, atom h . c(AA,BB)))\n")
    code, out, _ = run(capsys, "eq", lhs, rhs)
    assert code == 0
    assert out.strip() == "equal"


def test_eq_unequal_exit_one(term_file, capsys):
    lhs = term_file("l.term", "sig f BA\natom f\n")
    rhs = term_file("r.term", "sig f BA\natom f + tr(A, id(A))\n")
    code, out, _ = run(capsys, "eq", lhs, rhs)
    assert code == 1
    assert out.strip() == "not equal"


def test_second_signature_for_a_name_is_rejected(term_file, capsys):
    f = term_file("t.term", "sig f BA\n# the same name again\nsig f AB\natom f\n")
    code, _, err = run(capsys, "normalize", f)
    assert code == 2
    assert "line 3" in err and "second signature for 'f'" in err


def test_sort_word_outside_word_characters_is_rejected(term_file, capsys):
    f = term_file("t.term", "sig g ()\nsig f A?B\natom f\n")
    code, _, err = run(capsys, "normalize", f)
    assert code == 2
    assert "line 2" in err and "'A?B'" in err


@pytest.fixture
def machine_files(tmp_path):
    (tmp_path / "path.graph").write_text(
        "graph 11\n"
        "vertex 0 sym:c2\n"
        "vertex 1 in:1:1\n"
        "vertex 2 in:2:1\n"
        "edge 1.1 0.1\n"
        "edge 0.2 2.1\n"
    )
    (tmp_path / "m.json").write_text(
        json.dumps(
            {
                "graph": "path.graph",
                "data": [0, 1],
                "omega": {"c2": {"builtin": "alternating_switch", "n": 2}},
            }
        )
    )
    (tmp_path / "s.json").write_text(json.dumps({"0": 1}))
    return tmp_path


def test_eval_machine(machine_files, capsys):
    code, out, _ = run(capsys, "eval", "--machine", str(machine_files / "m.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["interface"] == "11"
    assert doc["data"] == [0, 1]
    assert [1, [1, 1], 2, [0, 2]] in doc["transitions"]


def test_eval_out_of_memory_exits_two(machine_files, capsys, monkeypatch):
    def exhausted(machine):
        raise MemoryError

    monkeypatch.setattr(dflow, "evaluate", exhausted)
    code, out, err = run(capsys, "eval", "--machine", str(machine_files / "m.json"))
    assert (code, out) == (2, "")
    assert err == "error: out of memory: the input needs more memory than this process has\n"


def write_chain_omega(machine_files, capsys) -> str:
    """``eval --machine`` of a chain of two switches, written to
    ``chain.auto.json``: an automaton with tuple states.  Returns the
    printed text."""
    (machine_files / "chain.graph").write_text(
        "graph 11\n"
        "vertex 0 sym:c2\n"
        "vertex 1 sym:c2\n"
        "vertex 2 in:1:1\n"
        "vertex 3 in:2:1\n"
        "edge 2.1 0.1\n"
        "edge 0.2 1.1\n"
        "edge 1.2 3.1\n"
    )
    chain = {"graph": "chain.graph", "data": [0, 1],
             "omega": {"c2": {"builtin": "alternating_switch", "n": 2}}}
    (machine_files / "chain.json").write_text(json.dumps(chain))
    code, out, _ = run(capsys, "eval", "--machine", str(machine_files / "chain.json"))
    assert code == 0
    (machine_files / "chain.auto.json").write_text(out)
    outer = {"graph": "path.graph", "data": [0, 1], "omega": {"c2": "chain.auto.json"}}
    (machine_files / "outer.json").write_text(json.dumps(outer))
    return out


def test_eval_machine_output_reloads_as_omega_file(machine_files, capsys):
    out = write_chain_omega(machine_files, capsys)
    expected = dflow.evaluate(load_machine(str(machine_files / "chain.json")))
    assert load_machine(str(machine_files / "outer.json")).omega["c2"] == expected
    code, again, _ = run(capsys, "eval", "--automaton", str(machine_files / "chain.auto.json"))
    assert code == 0 and again == out


def test_machine_rejects_omega_file_without_data(machine_files, capsys):
    plain = {"interface": "11", "states": [0], "transitions": [[0, 1, 0, 2]]}
    (machine_files / "plain.auto.json").write_text(json.dumps(plain))
    doc = {"graph": "path.graph", "data": [0, 1], "omega": {"c2": "plain.auto.json"}}
    (machine_files / "m2.json").write_text(json.dumps(doc))
    code, _, err = run(capsys, "eval", "--machine", str(machine_files / "m2.json"))
    assert code == 2
    assert err.startswith("error: ") and "has no data" in err


def test_omega_file_is_read_only_for_a_name_some_vertex_carries(machine_files, capsys):
    m = machine_files / "m.json"
    _, expected, _ = run(capsys, "eval", "--machine", str(m))
    doc = json.loads(m.read_text())
    for omega, want in (({**doc["omega"], "unused": "missing.auto.json"}, (0, expected, "")),
                        ({"c2": "missing.auto.json"}, (2, "", "error: ")),
                        # a wrong shape is refused whether a vertex carries the name or not
                        ({**doc["omega"], "unused": 5}, (2, "", "error: machine file: "))):
        (machine_files / "files.json").write_text(json.dumps({**doc, "omega": omega}))
        code, out, err = run(capsys, "eval", "--machine", str(machine_files / "files.json"))
        assert (code, out) == want[:2] and err.startswith(want[2])
        assert err.count("\n") == (code == 2)


def test_eval_machine_whose_automaton_has_other_ports(machine_files, capsys):
    (machine_files / "sorted.graph").write_text(
        "graph AA\nvertex 0 sym:c2:AA\nvertex 1 in:1:A\nvertex 2 in:2:A\n"
        "edge 1.1 0.1\nedge 0.2 2.1\n"
    )
    doc = {"graph": "sorted.graph", "data": [0, 1],
           "omega": {"c2": {"builtin": "alternating_switch", "n": 2}}}
    (machine_files / "sorted.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", "--machine", str(machine_files / "sorted.json"))
    assert (code, out) == (2, "")
    assert err == "error: automaton for 'c2' has port word 11, vertex has rank AA\n"


def test_eval_machine_of_too_many_states_exits_two_at_once(machine_files, capsys):
    # 40 two-state switches in a ring: 2**40 global states
    lines = ["graph ()"] + [f"vertex {i} sym:c2" for i in range(40)]
    lines += [f"edge {i}.2 {(i + 1) % 40}.1" for i in range(40)]
    (machine_files / "ring.graph").write_text("\n".join(lines) + "\n")
    doc = {"graph": "ring.graph", "data": [0, 1],
           "omega": {"c2": {"builtin": "alternating_switch", "n": 2}}}
    (machine_files / "ring.json").write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--machine", str(machine_files / "ring.json"))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: the machine has {2**40} global states, "
                   f"more than the bound {dflow.MAX_STATES}\n")


@pytest.mark.parametrize(
    "change, message",
    [
        ({"data": 5}, "'data' must be a list, not 5"),
        ({"omega": {"c2": [1]}}, "'omega' entry 'c2' must be an automaton file name or "),
        ({"omega": {"c2": {"builtin": ["alternating_switch"], "n": 2}}},
         "'omega' entry 'c2' must be an automaton file name or "),
        ({"omega": []}, "'omega' must be an object, not []"),
        (None, 'the document must be an object, not ["path.graph", [0, 1]]'),
        ({"graph": 3}, "'graph' must be a graph file name, not 3"),
        ({"omega": {"c2": {"builtin": "alternating_switch", "n": True}}},
         "'omega' entry 'c2' must be an automaton file name or "),
        ({"data": [0, {"a": 1}]},
         "'data' must be a list of data that hold no JSON object, not [0, {\"a\": 1}]"),
        # too deep for reading arrays as tuples, not for the JSON reader
        ({"data": functools.reduce(lambda x, _: [x], range(700), 0)},
         "nested too deeply"),
    ],
    ids=["data-number", "omega-entry-list", "builtin-list", "omega-list", "list-document",
         "graph-number", "builtin-arity-boolean", "data-object", "data-nested-too-deeply"],
)
def test_eval_machine_document_of_wrong_shape(machine_files, capsys, change, message):
    doc = json.loads((machine_files / "m.json").read_text())
    doc = ["path.graph", [0, 1]] if change is None else {**doc, **change}
    (machine_files / "bad.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", "--machine", str(machine_files / "bad.json"))
    assert code == 2 and not out
    assert err.startswith(f"error: machine file: {message}")


def test_machine_builtin_is_checked_before_it_is_built(machine_files, capsys):
    # a million-port switch takes far longer than a second and gigabytes
    # to build, so both runs show that nothing was built for it
    m = machine_files / "m.json"
    _, expected, _ = run(capsys, "eval", "--machine", str(m))
    doc = json.loads(m.read_text())
    big = {"builtin": "alternating_switch", "n": 10**6}
    none = {"builtin": "atomic_switch", "n": 0}
    for omega, want in (({**doc["omega"], "unused": big}, (0, expected, "")),
                        ({"c2": big}, (2, "", "error: automaton for 'c2' has arity 1000000, "
                                              "vertex wants 2\n")),
                        # an arity below 1 is refused even where no vertex wants it
                        ({**doc["omega"], "unused": none},
                         (2, "", "error: switch arity must be >= 1, got 0\n"))):
        (machine_files / "big.json").write_text(json.dumps({**doc, "omega": omega}))
        start = time.perf_counter()
        got = run(capsys, "eval", "--machine", str(machine_files / "big.json"))
        assert time.perf_counter() - start < 1.0
        assert got == want


def test_eval_machine_reads_list_data_as_its_automaton_files_do(machine_files, capsys):
    data = [[0, 1], [1, 0]]
    auto = {"interface": "11", "data": data, "states": [0],
            "transitions": [[0, [[0, 1], 1], 0, [[1, 0], 2]]]}
    (machine_files / "f.auto.json").write_text(json.dumps(auto))
    doc = {"graph": "path.graph", "data": data, "omega": {"c2": "f.auto.json"}}
    (machine_files / "pairs.json").write_text(json.dumps(doc))
    assert load_machine(str(machine_files / "pairs.json")).data == ((0, 1), (1, 0))
    code, out, err = run(capsys, "eval", "--machine", str(machine_files / "pairs.json"))
    assert code == 0 and not err
    back = json.loads(out)
    assert back["data"] == data
    assert [0, [[0, 1], 1], 0, [[1, 0], 2]] in back["transitions"]


def test_eval_plain_automaton_file(tmp_path, capsys):
    doc = {
        "interface": "AA",
        "states": [0],
        "transitions": [[0, 1, 0, 2], [0, 2, 0, 1]],
    }
    f = tmp_path / "id.auto.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "eval", "--automaton", str(f))
    assert code == 0
    back = json.loads(out)
    assert back["interface"] == "AA"
    assert [0, 1, 0, 2] in back["transitions"]


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        {"interface": "AA", "states": [0], "transitions": [[0, [1], 0, 2]]},
    ],
    ids=["list-document", "list-position"],
)
def test_eval_malformed_automaton_file(tmp_path, capsys, doc):
    f = tmp_path / "bad.auto.json"
    f.write_text(json.dumps(doc))
    code, _, err = run(capsys, "eval", "--automaton", str(f))
    assert code == 2
    assert err.startswith("error: malformed automaton file")


@pytest.mark.parametrize(
    "transitions, message",
    [
        (None, "missing key 'transitions'"),
        ([[0, [7, 1], 0, "*"]], "datum 7 not in data (0, 1)"),
        ([[0, [0, 3], 0, "*"]], "port 3 outside port word 'A' of length 1"),
        ([[0, [0, 1, 2], 0, "*"]], 'position [0, 1, 2] is not "*" or a [datum, port] pair'),
    ],
    ids=["missing-key", "unknown-datum", "port-outside-word", "position-of-three"],
)
def test_eval_automaton_file_names_the_fault(tmp_path, capsys, transitions, message):
    doc = {"interface": "A", "data": [0, 1], "states": [0]}
    if transitions is not None:
        doc["transitions"] = transitions
    f = tmp_path / "bad.auto.json"
    f.write_text(json.dumps(doc))
    code, _, err = run(capsys, "eval", "--automaton", str(f))
    assert code == 2
    assert err == f"error: malformed automaton file: {message}\n"


def test_eval_plain_automaton_file_names_a_bad_position(tmp_path, capsys):
    doc = {"interface": "AA", "states": [0], "transitions": [[0, "x", 0, 2]]}
    f = tmp_path / "bad.auto.json"
    f.write_text(json.dumps(doc))
    code, _, err = run(capsys, "eval", "--automaton", str(f))
    assert code == 2
    assert err == 'error: malformed automaton file: position "x" is not "*" or a position number\n'


def test_eval_automaton_file_names_an_interface_that_is_no_sort_word(tmp_path, capsys):
    doc = {"interface": "a-b", "states": [0], "transitions": []}
    f = tmp_path / "bad.auto.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", "--automaton", str(f))
    assert code == 2 and not out
    assert err == ("error: malformed automaton file: interface 'a-b' holds a character "
                   "other than a letter, digit or '_'\n")


def test_eval_automaton_file_whose_interface_is_not_a_string(tmp_path, capsys):
    doc = {"interface": ["a", "b"], "states": [0], "transitions": []}
    f = tmp_path / "bad.auto.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", "--automaton", str(f))
    assert code == 2 and not out
    assert err == 'error: malformed automaton file: interface ["a", "b"] is not a string\n'


def test_eval_machine_whose_state_nests_too_deeply_to_write(tmp_path, capsys):
    # 1,100 loop vertices sum to one state nested 1,100 pairs deep
    lines = ["graph ()"] + [f"vertex {i} loop:1" for i in range(1100)]
    (tmp_path / "loops.graph").write_text("\n".join(lines) + "\n")
    machine = tmp_path / "loops.machine.json"
    machine.write_text(json.dumps({"graph": "loops.graph", "data": [0]}))
    code, out, err = run(capsys, "eval", "--machine", str(machine))
    assert code == 2 and not out
    assert err == "error: cannot write automaton: a state or datum is nested too deeply\n"


def test_eval_automaton_file_whose_state_nests_too_deeply(tmp_path, capsys):
    f = tmp_path / "deep.auto.json"
    f.write_text('{"interface": "()", "states": [' + "[" * 1100 + "0" + "]" * 1100
                 + '], "transitions": []}')
    code, out, err = run(capsys, "eval", "--automaton", str(f))
    assert code == 2 and not out
    assert err == "error: malformed automaton file: nested too deeply\n"


def test_eval_automaton_file_with_repeated_data(tmp_path, capsys):
    doc = {"interface": "1", "data": [0, 0], "states": [0], "transitions": []}
    f = tmp_path / "repeated.auto.json"
    f.write_text(json.dumps(doc))
    code, _, err = run(capsys, "eval", "--automaton", str(f))
    assert code == 2
    assert err.startswith("error: ") and "repeat" in err


def test_simulate_transcript(machine_files, capsys):
    code, out, _ = run(
        capsys,
        "--trace",
        "simulate",
        "--machine",
        str(machine_files / "m.json"),
        "--state",
        str(machine_files / "s.json"),
        "--from",
        "1",
        "--to",
        "2",
    )
    assert code == 0
    assert "->" in out
    assert "walk (2 steps):" in out
    assert "port 0.1" in out


def test_simulate_dot_exports_machine_graph(machine_files, capsys):
    code, out, _ = run(
        capsys,
        "--dot",
        "simulate",
        "--machine",
        str(machine_files / "m.json"),
        "--state",
        str(machine_files / "s.json"),
        "--from",
        "1",
        "--to",
        "2",
    )
    assert code == 0
    assert out.startswith("graph G {")


def test_simulate_deterministic(machine_files, capsys):
    args = (
        "simulate",
        "--machine",
        str(machine_files / "m.json"),
        "--state",
        str(machine_files / "s.json"),
        "--from",
        "1",
        "--to",
        "2",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def simulate(capsys, machine_files, machine, state, frm, to):
    (machine_files / "state.json").write_text(json.dumps(state))
    return run(capsys, "simulate", "--machine", str(machine_files / machine),
               "--state", str(machine_files / "state.json"), "--from", frm, "--to", to)


def test_simulate_reads_list_states_as_tuples(machine_files, capsys):
    """The outer machine's vertex runs an ``eval --machine`` output, whose
    states are pairs; a state file writes them as lists."""
    write_chain_omega(machine_files, capsys)
    code, out, err = simulate(capsys, machine_files, "outer.json", {"0": [1, 2]}, "1", "2")
    assert (code, err) == (0, "")
    assert out == "(1, 2) @2 -> (2, 1) @4\n"


def test_simulate_rejects_unknown_state(machine_files, capsys):
    code, _, err = simulate(capsys, machine_files, "m.json", {"0": {"a": 1}}, "1", "2")
    assert code == 2
    assert err == "error: state {'a': 1} unknown at vertex 0\n"


def test_simulate_rejects_a_state_document_that_is_a_list(machine_files, capsys):
    code, out, err = simulate(capsys, machine_files, "m.json", [1], "1", "2")
    assert (code, out) == (2, "")
    assert err == "error: state file: the document must be an object, not [1]\n"


def test_simulate_rejects_a_state_key_that_is_not_a_vertex_id(machine_files, capsys):
    code, out, err = simulate(capsys, machine_files, "m.json", {"x": 1}, "1", "2")
    assert (code, out) == (2, "")
    assert err == "error: state file: key 'x' is not a vertex id\n"


@pytest.mark.parametrize("depth", [600, 100_000])
@pytest.mark.parametrize("kind", ["machine", "state"])
def test_file_nested_too_deeply_exits_two(machine_files, capsys, kind, depth):
    # spliced text: building the value would recurse as deep as the file
    deep = "[" * depth + "0" + "]" * depth
    f = machine_files / "deep.json"
    if kind == "machine":
        f.write_text('{"graph": "path.graph", "data": [' + deep + ", 1]}")
        argv = ("eval", "--machine", str(f))
    else:
        f.write_text('{"0": ' + deep + "}")
        argv = ("simulate", "--machine", str(machine_files / "m.json"), "--state", str(f),
                "--from", "1", "--to", "2")
    assert run(capsys, *argv) == (2, "", f"error: {kind} file: nested too deeply\n")


@pytest.mark.parametrize("frm, to", [("7", "1"), ("1", "7"), ("*", "7")])
def test_simulate_rejects_unknown_interface(machine_files, capsys, frm, to):
    code, out, err = simulate(capsys, machine_files, "m.json", {"0": 1}, frm, to)
    assert (code, out) == (2, "")
    assert err == "error: no interface 7\n"


@pytest.mark.parametrize("frm, to, message", [
    ("x", "1", "--from 'x': an endpoint is '*' or an interface number"),
    ("1", "", "--to '': an endpoint is '*' or an interface number"),
])
def test_simulate_names_a_bad_endpoint(machine_files, capsys, frm, to, message):
    code, out, err = simulate(capsys, machine_files, "m.json", {"0": 1}, frm, to)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.fixture
def soliton_files(tmp_path):
    (tmp_path / "g.txt").write_text(
        "interfaces a b\nedge a u\nedge u v\nedge v b\n"
    )
    (tmp_path / "q.txt").write_text("u -> v\nv -> u\n")
    return tmp_path


def test_soliton_enumerate_pims(soliton_files, capsys):
    code, out, _ = run(
        capsys, "soliton", "--graph", str(soliton_files / "g.txt"), "--enumerate-pims"
    )
    assert code == 0
    assert "2 perfect internal matchings" in out


def test_soliton_walk(soliton_files, capsys):
    code, out, _ = run(
        capsys,
        "soliton",
        "--graph",
        str(soliton_files / "g.txt"),
        "--state",
        str(soliton_files / "q.txt"),
        "--walk",
        "1,2",
    )
    assert code == 0
    assert "start state is a PIM" in out
    assert "walk data" in out


def test_soliton_needs_arguments(soliton_files, capsys):
    code, _, err = run(capsys, "soliton", "--graph", str(soliton_files / "g.txt"))
    assert code == 2


@pytest.mark.parametrize("state, message", [
    ("u -> v\nzz 1\n", "line 2: no internal vertex 'zz'"),
    ("u x\nv -> u\n", "line 1: port 'x' of vertex 'u' is not one of 1..2"),
    ("u 7\nv -> u\n", "line 1: port '7' of vertex 'u' is not one of 1..2"),
    ("u -> v\nv -> u\nu 1\n", "line 3: vertex 'u' given twice"),
])
def test_soliton_state_file_names_the_line_and_token(soliton_files, capsys, state, message):
    (soliton_files / "bad.txt").write_text(state)
    code, out, err = run(
        capsys, "soliton", "--graph", str(soliton_files / "g.txt"),
        "--state", str(soliton_files / "bad.txt"), "--walk", "1,2",
    )
    assert code == 2 and not out
    assert err == f"error: {message}\n"


def test_export_dot(machine_files, capsys):
    code, out, _ = run(capsys, "export-dot", str(machine_files / "path.graph"))
    assert code == 0
    assert out.startswith("graph G {")
    assert "shape=box" in out


def test_export_dot_rejects_serial_gap(tmp_path, capsys):
    f = tmp_path / "gap.graph"
    f.write_text("vertex 0 in:1:A\nvertex 1 in:3:A\nedge 0.1 1.1\n")
    code, out, err = run(capsys, "export-dot", str(f))
    assert code == 2 and not out
    assert err == "error: interface serials [1, 3] have gaps\n"


def test_export_dot_names_an_edge_to_an_unknown_vertex(tmp_path, capsys):
    f = tmp_path / "stray.graph"
    f.write_text("vertex 0 in:1:A\nvertex 1 in:2:A\nedge 0.1 5.1\n")
    code, out, err = run(capsys, "export-dot", str(f))
    assert code == 2 and not out
    assert err == "error: edge 0.1 5.1: no vertex 5\n"


@pytest.mark.parametrize("text, message", [
    ("vertex x in:1:A\n", "line 1: vertex id 'x' is not an integer"),
    ("vertex 0 in:1:A\nvertex 1 in:2:A\nedge 0.a 1.1\n",
     "line 3: edge end '0.a' is not <vertex id>.<port from 1>"),
    ("vertex 0 in:x:A\nvertex 1 in:2:A\nedge 0.1 1.1\n",
     "vertex 0: serial 'x' of 'in:x:A' is not an integer"),
])
def test_export_dot_names_a_bad_number(tmp_path, capsys, text, message):
    f = tmp_path / "bad.graph"
    f.write_text(text)
    code, out, err = run(capsys, "export-dot", str(f))
    assert code == 2 and not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("vertex 0 in:1:A\nvertex 1 in:2:B\nvertex 2 sym:h\nedge 0.1 2.1\nedge 2.2 1.1\n",
     "vertex 2: 'sym:h' has no rank in a file of sorts AB; write sym:h:<word>"),
    ("vertex 0 in:1:xy\nvertex 1 in:2:xy\nedge 0.1 1.1\n",
     "vertex 0: sort 'xy' of 'in:1:xy' is not one character"),
    ("graph ()\nvertex 0 loop:xy\n", "vertex 0: sort 'xy' of 'loop:xy' is not one character"),
    ("vertex 0 in:1:(\nvertex 1 in:2:)\nvertex 2 sym:h:)(\nedge 0.1 2.2\nedge 1.1 2.1\n",
     "vertex 0: sort '(' of 'in:1:(' holds a character other than a letter, digit or '_'"),
])
def test_export_dot_names_a_vertex_it_cannot_sort(tmp_path, capsys, text, message):
    f = tmp_path / "sorts.graph"
    f.write_text(text)
    code, out, err = run(capsys, "export-dot", str(f))
    assert code == 2 and not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("vertex 0 in:1:A\nvertex 1 in:2:A\nvertex 0 in:1:A\nedge 0.1 1.1\n",
     "line 3: vertex id 0 given twice"),
    ("vertex 0 in:1:A\nvertex 1 in:2:A\nedge 0.1 1.1\nedge 0.1 1.1\n",
     "line 4: edge 0.1 1.1 given twice"),
    ("vertex 0 in:1:A\nvertex 1 in:2:A\nedge 0.1 1.1\nedge 1.1 0.1\n",
     "line 4: edge 1.1 0.1 given twice"),
    ("graph A\nvertex 0 in:1:A\nvertex 1 in:2:A\ngraph AA\nedge 0.1 1.1\n",
     "line 4: second 'graph' line"),
])
def test_export_dot_names_a_repeated_line(tmp_path, capsys, text, message):
    f = tmp_path / "twice.graph"
    f.write_text(text)
    code, out, err = run(capsys, "export-dot", str(f))
    assert code == 2 and not out
    assert err == f"error: {message}\n"


def test_axioms_pass(capsys):
    code, out, _ = run(capsys, "--cases", "3", "--seed", "5", "axioms", "graphs")
    assert code == 0
    assert "I9: 3 cases ok" in out


def test_axioms_zero_cases(capsys):
    code, out, _ = run(capsys, "--cases", "0", "axioms", "automata")
    assert code == 0
    assert "I1: 0 cases ok" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("--cases", "-3", "axioms", "graphs"),
        ("--cases", "two", "axioms", "graphs"),
        ("--max-steps", "-1", "simulate", "--machine", "m.json", "--state", "s.json",
         "--from", "1", "--to", "2"),
    ],
    ids=["negative-cases", "word-cases", "negative-max-steps"],
)
def test_counts_must_be_integers_from_zero(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[0]}: {argv[1]!r} is not an integer from 0" in err


def test_axioms_mutation_detected(capsys):
    code, out, _ = run(
        capsys,
        "--cases",
        "20",
        "--seed",
        "1",
        "axioms",
        "automata",
        "--mutate-alternation",
    )
    assert code == 1
    assert "I5" in out
    assert "counterexample" in out


@pytest.mark.parametrize("algebra", ["graphs", "dflow"])
def test_axioms_mutation_applies_to_automata_only(capsys, algebra):
    code, out, err = run(capsys, "--cases", "3", "axioms", algebra, "--mutate-alternation")
    assert code == 2 and not out
    assert err == f"error: --mutate-alternation applies to 'automata' only, not {algebra!r}\n"


def test_axioms_json_format(capsys):
    code, out, _ = run(
        capsys, "--cases", "2", "--format", "json", "axioms", "dflow"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cases"]["I1"] == 2
    assert doc["failures"] == []


def test_axioms_deterministic_given_seed(capsys):
    args = ("--cases", "4", "--seed", "9", "axioms", "automata")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("walk, message", [
    ("x,1", "--walk 'x': an endpoint is '*' or an interface number"),
    ("1", "--walk '1': expected two endpoints i,j"),
    ("1,2,*", "--walk '1,2,*': expected two endpoints i,j"),
])
def test_soliton_names_a_bad_walk(soliton_files, capsys, walk, message):
    code, out, err = run(
        capsys, "soliton", "--graph", str(soliton_files / "g.txt"),
        "--state", str(soliton_files / "q.txt"), "--walk", walk,
    )
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("graph, message", [
    ("interfaces a a\nedge a u\nedge u a\n", "line 1: interface 'a' listed twice"),
    ("interfaces a b\ninterfaces a\nedge a u\nedge u v\nedge v b\n",
     "line 2: second 'interfaces' line (first on line 1)"),
])
def test_soliton_graph_file_rejects_a_misread_interface_list(soliton_files, capsys, graph, message):
    (soliton_files / "bad.txt").write_text(graph)
    code, out, err = run(
        capsys, "soliton", "--graph", str(soliton_files / "bad.txt"), "--enumerate-pims"
    )
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# -- fuzz gate: structure-aware mutations of valid files ------------------------------------
#
# Each kind of file the CLI reads starts from a valid example, takes one to
# three mutations in the style of grammar-based fuzzing (drop a key or line,
# swap a value's type, wrap a value in a list, change a tuple's length,
# repeat a line or list item, nest a term deeper, bury a value 600 to
# 100,000 arrays deep) and is run through every command that reads it.
# Every run must exit 0 or 2: a reader that lets a malformed file through
# as an untyped exception fails the gate.  Drawn values stay small, so no
# example asks for a large switch arity or tape.

FUZZ_FILES = {
    "path.graph": "graph 11\nvertex 0 sym:c2\nvertex 1 in:1:1\nvertex 2 in:2:1\n"
                  "edge 1.1 0.1\nedge 0.2 2.1\n",
    "m.json": {"graph": "path.graph", "data": [0, 1],
               "omega": {"c2": {"builtin": "alternating_switch", "n": 2}}},
    "mf.json": {"graph": "path.graph", "data": [0, 1], "omega": {"c2": "sw.auto.json"}},
    "s.json": {"0": 1},
    "sw.auto.json": json.loads(dflow.format_automaton(dflow.alternating_switch(2))),
    "id.auto.json": {"interface": "AA", "states": [0], "transitions": [[0, 1, 0, 2], [0, 2, 0, 1]]},
    "f.term": "sig f BA\natom f + id(A)\n",
    "h.term": "sig h AABB\ntr(B, tr(A, atom h))\n",
    "p.term": "sig f AB\nsig g BA\n(atom f + atom g) . p(ABBA; 3 1 4 2)\n",
    "g.txt": "interfaces a b\nedge a u\nedge u v\nedge v b\n",
    "q.txt": "u -> v\nv -> u\n",
}

SIMULATE = ("simulate", "--machine", "m.json", "--state", "s.json", "--from", "1", "--to", "2")
SOLITON_WALK = ("soliton", "--graph", "g.txt", "--state", "q.txt", "--walk", "1,2")
FUZZ_COMMANDS = {
    "path.graph": [("export-dot", "path.graph"), ("eval", "--machine", "m.json"),
                   SIMULATE],
    "m.json": [("eval", "--machine", "m.json"), SIMULATE],
    "mf.json": [("eval", "--machine", "mf.json")],
    "s.json": [SIMULATE],
    "sw.auto.json": [("eval", "--automaton", "sw.auto.json"), ("eval", "--machine", "mf.json")],
    "id.auto.json": [("eval", "--automaton", "id.auto.json")],
    "f.term": [("parse", "f.term"), ("normalize", "f.term"), ("eq", "f.term", "h.term")],
    "h.term": [("normalize", "h.term"), ("eq", "f.term", "h.term")],
    "p.term": [("parse", "p.term"), ("normalize", "p.term"), ("eq", "p.term", "p.term")],
    "g.txt": [("soliton", "--graph", "g.txt", "--enumerate-pims"), SOLITON_WALK],
    "q.txt": [SOLITON_WALK],
}

SMALL_VALUES_BY_TYPE = {
    type(None): [None], bool: [False, True], int: [-1, 0, 1, 2, 3], float: [0.5, -2.0],
    str: ["", "x", "*", "1", "A", "c2", "path.graph"], list: [[]], dict: [{}],
}
SMALL_VALUES = [value for values in SMALL_VALUES_BY_TYPE.values() for value in values]
TOKENS = ["0", "1", "2", "7", "-1", "x", "A", "*", "->", ":", "()", "1.1", "in:1:1", "sym:c2",
          "sym:c2:11", "id(A)", "atom", "tr(A,", ")", "+", ".", "p(AB;", ";"]
BURY_DEPTHS = [600, 1100, 100_000]
NESTINGS = ["({})", "tr((), {})", "id() + ({})", "({}) . id(A)", "tr(A, id(A) + ({}))"]
PICK = st.integers(0, 255)


def pick(options, k):
    """``options[k]``, counted round: one drawn index fits every list."""
    return options[k % len(options)]


@st.composite
def mutation_steps(draw, kinds):
    """One to three steps, each a kind and four picks that the step reads
    as indices into its own lists.  The choices do not depend on the file:
    three steps are drawn whatever their count, each as five choices.
    Hypothesis also tries examples made by copying the choices of one draw
    over another draw of the same strategy, and a copy after which more
    choices were read would run out of them and count as invalid.  No
    ``st.tuples``: Hypothesis explains a failure by varying each tuple
    element on its own, a hundred failing runs for every pick that the
    failing steps do not read."""
    count = draw(st.integers(1, 3))
    steps = [(draw(st.sampled_from(kinds)), draw(PICK), draw(PICK), draw(PICK), draw(PICK))
             for _ in range(3)]
    return steps[:count]


def _json_paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, path + (key,))


def _json_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_json(draw, doc):
    doc = copy.deepcopy(doc)
    buried = []
    kinds = ["drop", "retype", "wrap", "resize", "repeat", "bury"]
    for kind, where, a, b, _ in draw(mutation_steps(kinds)):
        path = pick(list(_json_paths(doc)), where)
        node = _json_at(doc, path)
        if kind == "drop" and path:
            del _json_at(doc, path[:-1])[path[-1]]
            continue
        if kind == "bury":
            # a marker now, spliced into the text at the end: a value
            # nested n deep would make this test recurse as deep
            new = f"buried {len(buried)}"
            buried.append((new, pick(BURY_DEPTHS, a), json.dumps(node)))
        elif kind == "retype":
            other = pick([cls for cls in SMALL_VALUES_BY_TYPE if cls is not type(node)], a)
            new = pick(SMALL_VALUES_BY_TYPE[other], b)
        elif kind == "resize" and isinstance(node, list):
            new = node[:-1] if node and a % 2 else node + [pick(SMALL_VALUES, b)]
        elif kind == "repeat" and isinstance(node, list) and node:
            i = a % len(node)
            new = node[: i + 1] + [copy.deepcopy(node[i])] + node[i + 1 :]
        else:
            new = [node]
        if path:
            _json_at(doc, path[:-1])[path[-1]] = new
        else:
            doc = new
    text = json.dumps(doc)
    for marker, n, inner in reversed(buried):
        text = text.replace(json.dumps(marker), "[" * n + inner + "]" * n)
    return text


@st.composite
def mutated_text(draw, text, term=False):
    lines = text.splitlines()
    kinds = ["drop", "repeat", "retype", "shorten", "lengthen"] + (["nest"] * 2 if term else [])
    for kind, i, j, a, b in draw(mutation_steps(kinds)):
        if not lines:
            lines = [pick(TOKENS, a)]
            continue
        i %= len(lines)
        tokens = lines[i].split() or [""]
        j %= len(tokens)
        if kind == "drop":
            del lines[i]
            continue
        if kind == "repeat":
            lines.insert(i, lines[i])
            continue
        if kind == "retype":
            # one piece of a token, as in the 1.1 of an edge end or the sym of sym:c2
            pieces = re.split(r"([.:])", tokens[j])
            pieces[pick(range(0, len(pieces), 2), a)] = pick(TOKENS, b)
            tokens[j] = "".join(pieces)
        elif kind == "shorten":
            del tokens[j]
        elif kind == "lengthen":
            tokens.insert(j, pick(TOKENS + [tokens[j]], a))
        else:
            tokens = [pick(NESTINGS, a).format(" ".join(tokens))]
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def mutation_of(name):
    valid = FUZZ_FILES[name]
    if isinstance(valid, str):
        return mutated_text(valid, term=name.endswith(".term"))
    return mutated_json(valid)


@pytest.mark.parametrize("name", sorted(FUZZ_FILES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_files_exit_zero_or_two(name, data):
    text = data.draw(mutation_of(name), label=name)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for other, valid in FUZZ_FILES.items():
            (root / other).write_text(valid if isinstance(valid, str) else json.dumps(valid))
        (root / name).write_text(text)
        for command in FUZZ_COMMANDS[name]:
            argv = [str(root / a) if a in FUZZ_FILES else a for a in command]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except RecursionError:
                    # its innermost frames, not pytest's report: that formats
                    # every one of a thousand frames, for seconds, and does so
                    # again for each failing example that Hypothesis shrinks
                    code = traceback.format_exc(limit=-3)
            assert code in (0, 2), f"{command} on {name}:\n{text}\nstderr: {err.getvalue()}"
