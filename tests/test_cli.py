import json

import pytest

from ima import dflow, term as tm
from ima.cli import load_machine, main


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
    f = term_file("deep.term", "(" * 1200 + "id(A)" + ")" * 1200 + "\n")
    code, _, err = run(capsys, "parse", f)
    assert code == 2
    assert err.startswith("error: ") and "nested too deeply" in err


def test_flat_sum_of_many_summands(term_file, capsys):
    text = " + ".join(["id(A)"] + ["id()"] * 1199)
    f = term_file("flat.term", text + "\n")
    code, out, err = run(capsys, "parse", f)
    assert code == 0 and not err
    # Term equality is recursive; equal summand lists of two left-nested
    # sums mean equal terms.
    assert tm.summands(tm.parse(out)) == tm.summands(tm.parse(text))
    code, out, err = run(capsys, "normalize", f)
    assert code == 0 and not err
    assert out.startswith("graph AA")


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


def test_eval_machine_output_reloads_as_omega_file(machine_files, capsys):
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


def test_export_dot(machine_files, capsys):
    code, out, _ = run(capsys, "export-dot", str(machine_files / "path.graph"))
    assert code == 0
    assert out.startswith("graph G {")
    assert "shape=box" in out


def test_axioms_pass(capsys):
    code, out, _ = run(capsys, "--cases", "3", "--seed", "5", "axioms", "graphs")
    assert code == 0
    assert "I9: 3 cases ok" in out


def test_axioms_zero_cases(capsys):
    code, out, _ = run(capsys, "--cases", "0", "axioms", "automata")
    assert code == 0
    assert "I1: 0 cases ok" in out


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
