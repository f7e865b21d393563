"""End-to-end runs of the command-line interface through main()."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxicity import exact

from boxicity.boxes import (
    BoxRepresentation,
    box_rep_from_dict,
    box_rep_to_dict,
    verify_representation,
)
from boxicity.certificates import ForestStablePartition, PairCover, Separation
from boxicity.cli import _dump, main
from boxicity.derivation import BaseOracleStep, RobertsStep, Sur1Step, Sur2Step
from boxicity.exact import SearchBudget
from boxicity.graphs import graph_from_dict, graph_to_dict, roberts_graph
from boxicity.intervals import Interval
from boxicity.posets import adjacency_poset, intersect_orders, is_linear_extension, starred_poset

from util import gadget_instance, nested_instance, script_doc


def write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n")


def read_json(path):
    return json.loads(path.read_text())


# ------------------------------------------------------------------ gen


def test_gen_families(tmp_path):
    for family, n, extra in [("complete", 4, []), ("cycle", 5, []),
                             ("path", 3, []), ("roberts", 2, []),
                             ("subdivided", 4, []),
                             ("random", 8, ["-p", "0.4", "--seed", "11"]),
                             ("forest", 9, ["--seed", "3"])]:
        out = tmp_path / f"{family}.json"
        assert main(["gen", family, str(n), "-o", str(out)] + extra) == 0
        G = graph_from_dict(read_json(out))
        assert G.n >= n

def test_gen_random_requires_seed(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["gen", "random", "5", "-p", "0.5", "-o", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "random", "9", "-p", "0.35", "--seed", "7"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_negative_size_is_invalid(tmp_path):
    assert main(["gen", "cycle", "-2", "-o", str(tmp_path / "g.json")]) == 2


@pytest.mark.parametrize("name", ["missing/g.json", "taken"])
def test_unwritable_output_exits_2_and_leaves_no_temp_file(tmp_path, capsys, name):
    (tmp_path / "taken").mkdir()
    target = tmp_path / name
    assert main(["gen", "path", "3", "-o", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ") and ".boxicity-" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert not any((tmp_path / "taken").iterdir())


def run_cli(*args: str, cwd, **env: str) -> subprocess.CompletedProcess:
    """The CLI in a new interpreter, with env added to its environment,
    stopped after 5 s."""
    return subprocess.run([sys.executable, "-m", "boxicity", *args], capture_output=True,
                          text=True, timeout=5, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC), **env})


@pytest.mark.parametrize("n", ["1" + "0" * 30, "9" * 4001], ids=["1e30", "4001-digits"])
def test_vertex_counts_above_the_cap_exit_2_at_once(tmp_path, n):
    (tmp_path / "g.json").write_text(f'{{"n": {n}, "edges": []}}')
    for argv in (["exact", "g.json"], ["construct", "forest", "g.json", "-o", "rep.json"],
                 ["poset", "g.json"], ["gen", "path", n, "-o", "path.json"]):
        proc = run_cli(*argv, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (
            2, "error: vertex count exceeds the cap of 1000000 vertices\n"), argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]


@pytest.mark.parametrize("argv", [["complete", "1000000"],
                                  ["random", "1000000", "-p", "0", "--seed", "1"]],
                         ids=["complete", "random"])
def test_dense_families_above_the_pair_cap_exit_2_at_once(tmp_path, argv):
    start = time.monotonic()
    proc = run_cli("gen", *argv, "-o", "g.json", cwd=tmp_path)
    assert time.monotonic() - start < 1.0
    assert (proc.returncode, proc.stderr) == (
        2, "error: 1000000 vertices make 499999500000 pairs, over the cap of 1000000\n")
    assert not any(tmp_path.iterdir())


def test_exact_refuses_a_sparse_graph_above_the_pair_cap_at_once(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text('{"n": 2000, "edges": []}')
    start = time.monotonic()
    assert main(["exact", str(g), "--time-limit", "0.5"]) == 2
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr().err == (
        "error: 2000 vertices and 0 edges leave 1999000 non-edges, over the cap of 1000000\n")


@pytest.mark.parametrize("argv", [["construct", "acyclic", "g.json", "-o", "out.json"],
                                  ["poset", "g.json", "-o", "out.json"]],
                         ids=["construct-acyclic", "poset"])
def test_coloring_searches_stop_at_the_budget_flags(tmp_path, argv):
    """Without a coloring file, both commands search for one; --max-nodes
    caps the search for the least number of colors, which yields it."""
    assert main(["gen", "random", "40", "-p", "0.5", "--seed", "1",
                 "-o", str(tmp_path / "g.json")]) == 0
    start = time.monotonic()
    proc = run_cli(*argv, "--max-nodes", "10", cwd=tmp_path)
    assert time.monotonic() - start < 1.0
    assert (proc.returncode, proc.stderr) == (
        3, "budget exhausted: node budget of 10 exceeded\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]


@pytest.mark.parametrize("command", [["construct", "acyclic"], ["poset"]],
                         ids=["construct-acyclic", "poset"])
def test_the_least_coloring_is_searched_once(tmp_path, command):
    """The coloring is the one the search for the least number of colors
    found, not searched again: the 27 nodes that search takes on C7 are
    enough for the command, and it writes what an uncapped run writes."""
    g = tmp_path / "g.json"
    assert main(["gen", "cycle", "7", "-o", str(g)]) == 0
    for name, flags, code in (("free", [], 0), ("27", ["--max-nodes", "27"], 0),
                              ("26", ["--max-nodes", "26"], 3)):
        assert main([*command, str(g), "-o", str(tmp_path / name), *flags]) == code, name
    assert (tmp_path / "27").read_bytes() == (tmp_path / "free").read_bytes()
    assert not (tmp_path / "26").exists()


# ---------------------------------------------------------------- exact


def test_exact_prints_value(tmp_path, capsys):
    g = tmp_path / "g.json"
    assert main(["gen", "roberts", "3", "-o", str(g)]) == 0
    capsys.readouterr()
    assert main(["exact", str(g), "--max-d", "4"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_exact_writes_result_with_witness(tmp_path):
    g, out = tmp_path / "g.json", tmp_path / "result.json"
    assert main(["gen", "cycle", "5", "-o", str(g)]) == 0
    assert main(["exact", str(g), "-o", str(out)]) == 0
    doc = read_json(out)
    assert doc["value"] == 2 and doc["status"] == "exact"
    B = box_rep_from_dict(doc["witness"])
    assert verify_representation(B, graph_from_dict(read_json(g))).equal


def test_exact_budget_exit(tmp_path, capsys):
    g = tmp_path / "g.json"
    assert main(["gen", "roberts", "3", "-o", str(g)]) == 0
    assert main(["exact", str(g), "--max-nodes", "10"]) == 3
    assert "budget-exhausted" in capsys.readouterr().err
    capsys.readouterr()
    assert main(["exact", str(g), "--max-d", "2"]) == 3
    assert "at least 3" in capsys.readouterr().err


def test_exact_exits_3_when_the_deadline_passes_in_the_chord_table(tmp_path, capsys, monkeypatch):
    """The deadline stops the quadratic table before any node is counted;
    the clock reads 0 when the meter starts and 1 at the first non-edge."""
    g, out = tmp_path / "g.json", tmp_path / "out.json"
    assert main(["gen", "random", "30", "-p", "0.5", "--seed", "1", "-o", str(g)]) == 0
    monkeypatch.setattr(exact, "time", SimpleNamespace(monotonic=count().__next__))
    capsys.readouterr()
    assert main(["exact", str(g), "--time-limit", "0.5", "-o", str(out)]) == 3
    assert capsys.readouterr().err == "budget-exhausted: boxicity is at least 1\n"
    assert read_json(out)["nodes"] == 0


def test_exact_missing_file(tmp_path, capsys):
    assert main(["exact", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_exact_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"n\": 3,")
    assert main(["exact", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad JSON at line 1 column" in err


@pytest.mark.parametrize("content, message", [
    (b'{"n": ' + b"1" * 5001 + b', "edges": []}', "Exceeds the limit (4300 digits)"),
    (b'{"n": 3, "edges": ["\xff"]}', "'utf-8' codec can't decode byte 0xff"),
], ids=["5001-digit-int", "non-utf8-byte"])
def test_undecodable_json_exits_2(tmp_path, capsys, content, message):
    """Input files are read as UTF-8, JSON's encoding, whatever the locale;
    a value the decoder refuses is an input error like bad syntax."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["exact", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and message in err


# ------------------------------------------------------------ construct


def test_construct_girth4_with_partition(tmp_path):
    c7, part, rep = tmp_path / "c7.json", tmp_path / "part.json", tmp_path / "rep.json"
    assert main(["gen", "cycle", "7", "-o", str(c7)]) == 0
    write_json(part, ForestStablePartition(F=(0, 2, 3, 4, 5, 6), S=(1,))._asdict())
    assert main(["construct", "girth4", str(c7), "--partition", str(part),
                 "-o", str(rep)]) == 0
    assert main(["verify", str(c7), str(rep)]) == 0
    assert box_rep_from_dict(read_json(rep)).d == 4


def test_construct_girth4_finds_partition(tmp_path):
    c7, rep = tmp_path / "c7.json", tmp_path / "rep.json"
    assert main(["gen", "cycle", "7", "-o", str(c7)]) == 0
    assert main(["construct", "girth4", str(c7), "-o", str(rep)]) == 0
    assert box_rep_from_dict(read_json(rep)).d == 4


def test_construct_girth4_finds_partition_past_the_recursion_limit(tmp_path):
    p, rep = tmp_path / "p.json", tmp_path / "rep.json"
    assert main(["gen", "path", "1500", "-o", str(p)]) == 0
    assert main(["construct", "girth4", str(p), "-o", str(rep)]) == 0
    assert main(["verify", str(p), str(rep)]) == 0


def test_construct_girth4_rejects_dense_graph(tmp_path, capsys):
    k4, rep = tmp_path / "k4.json", tmp_path / "rep.json"
    assert main(["gen", "complete", "4", "-o", str(k4)]) == 0
    assert main(["construct", "girth4", str(k4), "-o", str(rep)]) == 2
    assert "no forest/stable split" in capsys.readouterr().err


def test_construct_acyclic(tmp_path):
    c5, rep = tmp_path / "c5.json", tmp_path / "rep.json"
    assert main(["gen", "cycle", "5", "-o", str(c5)]) == 0
    assert main(["construct", "acyclic", str(c5), "-o", str(rep)]) == 0
    assert main(["verify", str(c5), str(rep)]) == 0
    assert box_rep_from_dict(read_json(rep)).d == 6


def test_construct_roberts(tmp_path):
    g, rep = tmp_path / "g.json", tmp_path / "rep.json"
    assert main(["gen", "roberts", "2", "-o", str(g)]) == 0
    assert main(["construct", "roberts", str(g), "-o", str(rep)]) == 0
    assert main(["verify", str(g), str(rep)]) == 0
    assert box_rep_from_dict(read_json(rep)).d == 2


def test_construct_roberts_rejects_cycle(tmp_path, capsys):
    c5, rep = tmp_path / "c5.json", tmp_path / "rep.json"
    assert main(["gen", "cycle", "5", "-o", str(c5)]) == 0
    assert main(["construct", "roberts", str(c5), "-o", str(rep)]) == 2
    assert not rep.exists()


def test_construct_forest(tmp_path):
    f, rep = tmp_path / "f.json", tmp_path / "rep.json"
    assert main(["gen", "forest", "10", "--seed", "4", "-o", str(f)]) == 0
    assert main(["construct", "forest", str(f), "-o", str(rep)]) == 0
    assert main(["verify", str(f), str(rep)]) == 0
    assert box_rep_from_dict(read_json(rep)).d == 2


def test_construct_figure1(tmp_path):
    G, cls = gadget_instance(7)
    g, c, rep = tmp_path / "g.json", tmp_path / "cls.json", tmp_path / "rep.json"
    write_json(g, graph_to_dict(G))
    write_json(c, cls._asdict())
    assert main(["construct", "figure1", str(g), "--classification", str(c),
                 "-o", str(rep)]) == 0
    assert box_rep_from_dict(read_json(rep)).d == 2


def test_internal_errors_exit_4_with_one_line(tmp_path, capsys, monkeypatch):
    f, rep = tmp_path / "f.json", tmp_path / "rep.json"
    assert main(["gen", "path", "3", "-o", str(f)]) == 0
    # a layout that misses the edges, so the construction's own check fails
    wrong = BoxRepresentation([{v: Interval(v, v) for v in range(3)}])
    monkeypatch.setattr("boxicity.boxes.forest_two_dim", lambda G: wrong)
    capsys.readouterr()
    assert main(["construct", "forest", str(f), "-o", str(rep)]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: forest layout failed to verify\n"
    assert not rep.exists()

    def broken(G, cls):
        raise KeyError(7)

    G, cls = gadget_instance(7)
    g, c = tmp_path / "g.json", tmp_path / "cls.json"
    write_json(g, graph_to_dict(G))
    write_json(c, cls._asdict())
    monkeypatch.setattr("boxicity.figure1.figure1_gadget", broken)
    assert main(["construct", "figure1", str(g), "--classification", str(c),
                 "-o", str(rep)]) == 4
    assert capsys.readouterr().err == "internal error: KeyError: 7\n"


def test_a_wrong_pipeline_result_is_an_internal_error(tmp_path, capsys, monkeypatch):
    """Every certificate has passed by the root's check, so a failure there
    is the program's fault, not the input's."""
    g, rep = tmp_path / "g.json", tmp_path / "rep.json"
    assert main(["gen", "path", "4", "-o", str(g)]) == 0
    # two layers, k(k-1) for the 2-coloring the path gets, missing every edge
    wrong = BoxRepresentation([{v: Interval(v, v) for v in range(4)}] * 2)
    monkeypatch.setattr("boxicity.derivation.acyclic_pipeline", lambda G, colors: wrong)
    capsys.readouterr()
    assert main(["construct", "acyclic", str(g), "-o", str(rep)]) == 4
    assert capsys.readouterr().err == (
        "internal error: RuntimeError: root: assembled representation disagrees "
        "on pair (0, 1)\n")
    assert not rep.exists()


def test_construct_acyclic_on_an_empty_graph_exits_2(tmp_path, capsys):
    g, colors, rep = tmp_path / "g.json", tmp_path / "colors.json", tmp_path / "rep.json"
    write_json(g, {"n": 0, "edges": []})
    write_json(colors, {"colors": {}})
    for argv in (["construct", "acyclic", str(g), "-o", str(rep)],
                 ["construct", "acyclic", str(g), "--coloring", str(colors), "-o", str(rep)]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == "error: root: the coloring pipeline needs at least 2 colors\n", argv
        assert not rep.exists()


def test_construct_figure1_needs_classification(tmp_path, capsys):
    g = tmp_path / "g.json"
    assert main(["gen", "cycle", "7", "-o", str(g)]) == 0
    assert main(["construct", "figure1", str(g), "-o", str(tmp_path / "r.json")]) == 2
    assert "--classification" in capsys.readouterr().err


# --------------------------------------------------------------- derive


def k8_files(tmp_path):
    g, s = tmp_path / "k8.json", tmp_path / "script.json"
    write_json(g, graph_to_dict(roberts_graph(4)))
    script = Sur1Step(cover=PairCover(X=(0, 1, 2, 3), pairs=((0, 1), (2, 3))),
                      sub=BaseOracleStep())
    write_json(s, script_doc(script))
    return g, s


def test_derive_end_to_end(tmp_path, capsys):
    g, s = k8_files(tmp_path)
    rep, report = tmp_path / "rep.json", tmp_path / "report.json"
    assert main(["derive", str(g), str(s), "-o", str(rep),
                 "--report", str(report)]) == 0
    assert "verified: 4 dimensions" in capsys.readouterr().out
    assert main(["verify", str(g), str(rep)]) == 0
    doc = read_json(report)
    assert doc["total_dimension"] == 4 and doc["verified"] is True
    assert [step["rule"] for step in doc["steps"]] == ["sur1", "base_oracle"]


def test_derive_is_deterministic(tmp_path):
    g, s = k8_files(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["derive", str(g), str(s), "-o", str(a)]) == 0
    assert main(["derive", str(g), str(s), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_derive_bad_script_exit(tmp_path, capsys):
    c4, s, rep = tmp_path / "c4.json", tmp_path / "s.json", tmp_path / "rep.json"
    assert main(["gen", "cycle", "4", "-o", str(c4)]) == 0
    script = Sur2Step(sep=Separation(V1=(0, 1), V2=(2, 3), X=()),
                      sub1=BaseOracleStep(), sub2=BaseOracleStep())
    write_json(s, script_doc(script))
    assert main(["derive", str(c4), str(s), "-o", str(rep)]) == 2
    assert "joins V1 and V2" in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("script, field", [
    ('{"rule": "sur2bis", "K": ["x"], "sub": {"rule": "roberts"}}', "K"),
    ('{"rule": "sur1", "cover": {"X": [0, 1], "pairs": 5}, "sub": {"rule": "roberts"}}',
     "pairs"),
    ('{"rule": "sur1", "cover": {"X": [0, 1], "pairs": [[0, true]]}, '
     '"sub": {"rule": "roberts"}}', "pairs[0]"),
    ('{"rule": "base_oracle", "budget": {"max_nodes": 1e400}}', "max_nodes"),
    ('{"rule": "base_oracle", "budget": {"max_nodes": "7"}}', "max_nodes"),
    ('{"rule": "base_oracle", "budget": {"symmetry_pruning": false}}', "known keys"),
    ('{"rule": "base_oracle", "budget": {"time_limit": NaN}}', "time_limit"),
    ('{"rule": "base_oracle", "d_max": 2.9}', "d_max"),
    ('{"rule": "base_oracle", "d_max": true}', "d_max must be an int"),
    ('{"rule": "acyclic", "coloring": {"colors": {"0": true, "1": true, "2": false, '
     '"3": false}}}', "colors[0]"),
])
def test_derive_rejects_malformed_script_fields(tmp_path, capsys, script, field):
    g, s, rep = tmp_path / "g.json", tmp_path / "s.json", tmp_path / "rep.json"
    assert main(["gen", "roberts", "2", "-o", str(g)]) == 0
    s.write_text(script)
    capsys.readouterr()
    assert main(["derive", str(g), str(s), "-o", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not rep.exists()


VERIFY_GRAPH = ["verify", "{doc}", "{doc}"]
VERIFY_REP = ["verify", "{g}", "{doc}"]
ACYCLIC = ["construct", "acyclic", "{g}", "--coloring", "{doc}", "-o", "{out}"]
GIRTH4 = ["construct", "girth4", "{g}", "--partition", "{doc}", "-o", "{out}"]
FIGURE1 = ["construct", "figure1", "{g}", "--classification", "{doc}", "-o", "{out}"]
DERIVE_DOC = ["derive", "{g}", "{doc}", "-o", "{out}"]
ROW = '[[[0, 1], [1, 1]]]'
CERT = '{"rule": "sur2", "sep": %s, "sub1": {"rule": "roberts"}, "sub2": {"rule": "roberts"}}'
ORACLE = '{"rule": "base_oracle", "budget": %s}'


SHAPE_FAULTS = [
    (VERIFY_GRAPH, '[]', "graph must be an object"),
    (VERIFY_GRAPH, '{"n": 1}', "graph is missing ['edges']"),
    (VERIFY_GRAPH, '{"n": 1, "edges": [], "m": 0}', "graph has unknown keys ['m']"),
    (VERIFY_REP, '"rep"', "box representation must be an object"),
    (VERIFY_REP, '{}', "box representation is missing ['d', 'vertices']"),
    (VERIFY_REP, '{"d": 1, "vertices": {"0": %s}, "n": 1, "e": 0}' % ROW,
     "box representation has unknown keys ['e', 'n']"),
    (VERIFY_REP, '{"d": 1, "vertices": [%s]}' % ROW, "vertices must be an object"),
    (ACYCLIC, '5', "coloring must be an object"),
    (ACYCLIC, '{}', "coloring is missing ['colors']"),
    (ACYCLIC, '{"colors": {}, "k": 2}', "coloring has unknown keys ['k']"),
    (ACYCLIC, '{"colors": [0, 1]}', "colors must be an object"),
    (GIRTH4, 'null', "partition must be an object"),
    (GIRTH4, '{"F": [0, 1, 2, 3, 4, 5]}', "partition is missing ['S']"),
    (GIRTH4, '{"F": [], "S": [], "X": []}', "partition has unknown keys ['X']"),
    (FIGURE1, '[0, 1, 2, 3, 4, 5]', "classification must be an object"),
    (FIGURE1, '{"cycle": [0, 1, 2, 3, 4, 5]}', "classification is missing ['assignments']"),
    (FIGURE1, '{"cycle": [], "assignments": {}, "k": 6}',
     "classification has unknown keys ['k']"),
    (FIGURE1, '{"cycle": [], "assignments": []}', "assignments must be an object"),
    (DERIVE_DOC, '["roberts"]', "step must be an object"),
    (DERIVE_DOC, '{"K": [0, 1]}', "step is missing ['rule']"),
    (DERIVE_DOC, '{"rule": "sur1", "cover": {"X": [0, 1], "pairs": [[0, 1]]}}',
     "sur1 step is missing ['sub']"),
    (DERIVE_DOC, '{"rule": "roberts", "K": [1]}', "roberts step has unknown keys ['K']"),
    (DERIVE_DOC, CERT % '[[0], [1], []]', "separation must be an object"),
    (DERIVE_DOC, CERT % '{"V1": [0], "V2": [1]}', "separation is missing ['X']"),
    (DERIVE_DOC, CERT % '{"V1": [0], "V2": [1], "X": [], "V3": []}',
     "separation has unknown keys ['V3']"),
    (DERIVE_DOC, ORACLE % '1000', "budget must be an object"),
    (DERIVE_DOC, ORACLE % '{"max_nodes": 9, "symmetry_pruning": false}',
     "budget has unknown keys ['symmetry_pruning']"),
]


@pytest.mark.parametrize("command, doc, message", SHAPE_FAULTS,
                         ids=[message for _, _, message in SHAPE_FAULTS])
def test_every_document_names_its_shape_fault(tmp_path, capsys, command, doc, message):
    """Each document kind read through graphs.fields: not an object, a
    missing key, an unknown key (a budget has no required key), and a
    vertex map that is not an object."""
    g, d, out = tmp_path / "g.json", tmp_path / "doc.json", tmp_path / "out.json"
    assert main(["gen", "cycle", "6", "-o", str(g)]) == 0
    d.write_text(doc)
    capsys.readouterr()
    assert main([arg.format(g=g, doc=d, out=out) for arg in command]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_malformed_numbers_in_other_inputs_exit_2(tmp_path, capsys):
    g, bad_g = tmp_path / "g.json", tmp_path / "bad_g.json"
    rep, colors = tmp_path / "rep.json", tmp_path / "colors.json"
    assert main(["gen", "path", "2", "-o", str(g)]) == 0
    write_json(bad_g, {"n": True, "edges": []})
    write_json(rep, {"d": True, "vertices": {"0": [[[0, 1], [1, 1]]],
                                             "1": [[[0, 1], [1, 1]]]}})
    write_json(colors, {"colors": {"0": True, "1": False}})
    for argv in (["verify", str(g), str(rep)],
                 ["construct", "acyclic", str(g), "--coloring", str(colors),
                  "-o", str(tmp_path / "out.json")],
                 ["exact", str(bad_g)],
                 ["exact", str(g), "--time-limit", "nan"]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def nested_sur2bis(depth: int) -> str:
    """A script of `depth` sur2bis steps over a roberts leaf."""
    return '{"rule": "sur2bis", "K": [0, 2], "sub": ' * depth + '{"rule": "roberts"}' + "}" * depth


@pytest.mark.parametrize("depth, message", [
    (150, "nested more than 100 steps deep"),  # parsed, then refused by depth
    (1200, "JSON nested too deeply"),  # too deep for the JSON reader
])
def test_derive_rejects_deeply_nested_scripts(tmp_path, capsys, depth, message):
    g, s, rep = tmp_path / "g.json", tmp_path / "s.json", tmp_path / "rep.json"
    assert main(["gen", "roberts", "2", "-o", str(g)]) == 0
    s.write_text(nested_sur2bis(depth))
    capsys.readouterr()
    assert main(["derive", str(g), str(s), "-o", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not rep.exists()


def test_vertex_keys_must_be_canonical(tmp_path, capsys):
    g, colors, rep = tmp_path / "p3.json", tmp_path / "colors.json", tmp_path / "rep.json"
    assert main(["gen", "path", "3", "-o", str(g)]) == 0
    # "02" would name vertex 2 again and override its colour, hiding that
    # the edge (1, 2) is monochromatic
    write_json(colors, {"colors": {"0": 0, "1": 1, "2": 1, "02": 0}})
    capsys.readouterr()
    assert main(["construct", "acyclic", str(g), "--coloring", str(colors),
                 "-o", str(rep)]) == 2
    assert "color key '02' is not a canonical integer" in capsys.readouterr().err
    assert not rep.exists()
    write_json(colors, {"colors": {"0": 0, "1": 1, "2": 0}})
    assert main(["construct", "acyclic", str(g), "--coloring", str(colors),
                 "-o", str(rep)]) == 0


def test_derive_budget_exit(tmp_path):
    g, s = tmp_path / "k8.json", tmp_path / "s.json"
    write_json(g, graph_to_dict(roberts_graph(4)))
    write_json(s, script_doc(BaseOracleStep(budget=SearchBudget(max_nodes=5))))
    assert main(["derive", str(g), str(s), "-o", str(tmp_path / "rep.json")]) == 3


def test_derive_refuses_an_oversized_script_before_building(tmp_path, capsys):
    g, s = tmp_path / "g.json", tmp_path / "s.json"
    assert main(["gen", "roberts", "1", "-o", str(g)]) == 0
    doc = {"rule": "roberts"}
    for _ in range(25):
        doc = {"rule": "sur2bis", "K": [], "sub": doc}
    write_json(s, doc)
    capsys.readouterr()
    rep = tmp_path / "rep.json"
    assert main(["derive", str(g), str(s), "-o", str(rep)]) == 2
    path = "root" + "/sub" * 6
    assert capsys.readouterr().err == (
        f"error: {path}: predicted 524288 dimensions on 2 vertices exceed "
        "the cap of 1000000 intervals\n")
    assert not rep.exists()


def nested_files(tmp_path):
    g, s = tmp_path / "nested.json", tmp_path / "script.json"
    G, script = nested_instance()
    write_json(g, graph_to_dict(G))
    write_json(s, script_doc(script))
    return g, s


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("files, rep_sha, report_sha", [
    (k8_files,
     "d88e85b8c9abb40135809df187814673f80d9309d23884bebd5d28ef933c58cd",
     "dec8466d2602d1dcd2aaf7a74dbc3342919c10fac532b8a58c1786ae425decc2"),
    (nested_files,
     "2eb0d361f76a4d191b1183b68326f22aaa2fa8088fe0c5b62b2d0dfdd157d43e",
     "b40732f9605ac132f1db63c49a46b3d04d495be2c1517a026063da44f1d55f90"),
])
def test_derive_output_bytes_are_pinned(tmp_path, files, rep_sha, report_sha):
    g, s = files(tmp_path)
    rep, report = tmp_path / "rep.json", tmp_path / "report.json"
    assert main(["derive", str(g), str(s), "-o", str(rep), "--report", str(report)]) == 0
    assert (sha256(rep), sha256(report)) == (rep_sha, report_sha)


def test_construct_forest_output_bytes_are_pinned(tmp_path):
    f, rep = tmp_path / "f.json", tmp_path / "rep.json"
    assert main(["gen", "forest", "500", "--seed", "1", "-o", str(f)]) == 0
    assert main(["construct", "forest", str(f), "-o", str(rep)]) == 0
    assert sha256(rep) == "834ec82564d03cf3dc5c4eb6833d227fdeaa659106d59890805873e474e683bf"


@pytest.mark.parametrize("gen, command, out_sha", [
    (["cycle", "7"], ["exact"],
     "4714b95dc59d00c1fa3cd6fa141550930d34b247cdc5228bd6da55fb989f9c8b"),
    (["roberts", "3"], ["exact"],
     "61b05f80073547273d6306fc97b7c1dda1f1bda022fd8ed716745658e9dc3f6f"),
    (["roberts", "4"], ["construct", "roberts"],
     "c43abe8bca84da1edc72bb02fab5438fbb9a9c1f4cf0002cf201ca34dc6565e9"),
    (["cycle", "7"], ["construct", "acyclic"],
     "8d3131362ad2629f571769c89ced20828f6481f51251fdea18103e056e9d737d"),
    (["subdivided", "4"], ["construct", "acyclic"],
     "8f08dbceefad6267be61ca237258adb81cb8c0a804ee2fef8e2f925418b36216"),
    (["subdivided", "4"], ["construct", "girth4"],
     "ca9f544d61572c2fee428ea2c28aa2e14768efde2e666f0a77232b08e71bc27c"),
])
def test_witness_gadget_and_pipeline_output_bytes_are_pinned(tmp_path, gen, command, out_sha):
    """The exact witness, the pair-gadget stack and both pipelines."""
    g, out = tmp_path / "g.json", tmp_path / "out.json"
    assert main(["gen", *gen, "-o", str(g)]) == 0
    assert main([*command, str(g), "-o", str(out)]) == 0
    assert sha256(out) == out_sha


EMPTY_SHA = hashlib.sha256(b"").hexdigest()


HELP_PINS = [
    (["--help"], 0,
     "1b2c63b359e528b3c1f08b981eb63d9c4fb18409cb028394928b3842803d530f", EMPTY_SHA),
    (["gen", "--help"], 0,
     "21a73aac13ab3ad9aa17868584bcfd159ddcff12df50274326ed27c3e503292a", EMPTY_SHA),
    (["exact", "--help"], 0,
     "912744d55c52b8c06cf8b7d21497e3a9b0377e6f7bd48eb063c5fce3262c345c", EMPTY_SHA),
    (["construct", "--help"], 0,
     "1bd15eb9edb8b6f20b91ecf44c9b1c64e4554842cb775be7c93a80230f96e109", EMPTY_SHA),
    (["derive", "--help"], 0,
     "01f18c661b6a963617b7cc2db689f9a4142e50c6306997fac3aabd704a2b50c2", EMPTY_SHA),
    (["verify", "--help"], 0,
     "04ada2a77f6e02281872b477ae0493f4da67302136c1ab4def938a49cd89f3b4", EMPTY_SHA),
    (["poset", "--help"], 0,
     "f4276b5a58ac0e9ad8d17a1b5e69678d50adfd4fb1f1f35e955199e0c70835f8", EMPTY_SHA),
    (["bounds", "--help"], 0,
     "c6f4e1be55f0127870f8dafb06782aa02cfc39886422c9a4d54203e8f17993d5", EMPTY_SHA),
    ([], 2, EMPTY_SHA,
     "7554b08d35630aa2506a94ba5f55b96e8e7e27a22c8a48dc9492c58b02007f58"),
    (["frobnicate"], 2, EMPTY_SHA,
     "00bdadf7ceb3d2514cf99327bc2c6c9df52199c6ba4b6d1324e260f523acd769"),
    (["verify", "g.json"], 2, EMPTY_SHA,
     "a10e28502a660ba9988f94253efec867fd4656ea4f8b7886e8dbb86086836eeb"),
    (["gen", "cycle", "x", "-o", "g.json"], 2, EMPTY_SHA,
     "04f867cee7ca6f2de2c59a40c82575756f708ed7187f88f74f6ae9984735bffb"),
    (["construct", "bogus", "g.json", "-o", "r.json"], 2, EMPTY_SHA,
     "db52e72aefafe2bc4438c685d130455ded5b0a58e9f07eec84a075e1dcd35d3d"),
]


@pytest.mark.parametrize("argv, code, out_sha, err_sha", HELP_PINS,
                         ids=[" ".join(argv) or "no-arguments" for argv, *_ in HELP_PINS])
def test_help_and_usage_error_bytes_are_pinned(tmp_path, argv, code, out_sha, err_sha):
    """--help of the program and of every subcommand, no subcommand, an
    unknown one, a missing positional, a bad int and a bad choice, at a
    terminal width of 80 columns.  argparse's layout differs between
    Python versions; these bytes are those of Python 3.11."""
    proc = run_cli(*argv, cwd=tmp_path, COLUMNS="80")
    digest = [hashlib.sha256(stream.encode()).hexdigest() for stream in (proc.stdout, proc.stderr)]
    assert [proc.returncode, *digest] == [code, out_sha, err_sha]
    assert not any(tmp_path.iterdir())


_VERTEX_IDS = st.sampled_from((0, 1, 2, 3, 9, 10, 11, 20, 100, 101)) | st.integers(0, 10**6)
_ENDPOINTS = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 1000))
_INTERVALS = st.lists(_ENDPOINTS, min_size=2, max_size=2).map(lambda p: Interval(*sorted(p)))


@st.composite
def box_representations(draw):
    d = draw(st.integers(1, 4))
    ids = draw(st.sets(_VERTEX_IDS, min_size=1, max_size=12))
    return BoxRepresentation([{v: draw(_INTERVALS) for v in ids} for _ in range(d)])


@settings(max_examples=200, deadline=None)
@given(box_representations())
@example(BoxRepresentation([{2: Interval(-1, Fraction(7, 3)), 10: Interval(0, 0),
                             100: Interval(Fraction(-13, 4), 12)}]))
@example(BoxRepresentation([{5: Interval(-20, -3)}] * 3))
def test_box_text_is_json_dumps_of_the_dict(B):
    """Box representations are written from their Intervals, in the bytes
    json.dumps gives for box_rep_to_dict: vertex keys in string order.  The
    text decodes back to B."""
    text = _dump(B)
    assert text == json.dumps(box_rep_to_dict(B), indent=2, sort_keys=True) + "\n"
    assert box_rep_from_dict(json.loads(text)) == B


# --------------------------------------------------------------- verify


def test_verify_lists_violations(tmp_path, capsys):
    c4, rep = tmp_path / "c4.json", tmp_path / "rep.json"
    assert main(["gen", "cycle", "4", "-o", str(c4)]) == 0
    assert main(["construct", "forest", str(tmp_path / "c4_path.json"),
                 "-o", str(rep)]) == 2  # missing file is an input error
    # a path representation on the same vertices misses one cycle edge
    p4 = tmp_path / "p4.json"
    assert main(["gen", "path", "4", "-o", str(p4)]) == 0
    assert main(["construct", "forest", str(p4), "-o", str(rep)]) == 0
    capsys.readouterr()
    assert main(["verify", str(c4), str(rep)]) == 1
    out = capsys.readouterr().out
    assert "missing: graph edge (0, 3)" in out


def test_verify_domain_mismatch_is_input_error(tmp_path):
    g5, rep = tmp_path / "c5.json", tmp_path / "rep.json"
    assert main(["gen", "cycle", "5", "-o", str(g5)]) == 0
    assert main(["construct", "acyclic", str(g5), "-o", str(rep)]) == 0
    c4 = tmp_path / "c4.json"
    assert main(["gen", "cycle", "4", "-o", str(c4)]) == 0
    assert main(["verify", str(c4), str(rep)]) == 2


@pytest.mark.parametrize("row, message", [
    ([[5, [1, 1]]], "vertices[0][0]: rational must be [numerator, denominator]"),
    ([[[0, 1, 1], [1, 1]]], "vertices[0][0]: rational must be [numerator, denominator]"),
    ([[[True, 1], [1, 1]]], "vertices[0][0]: rational must be [numerator, denominator]"),
    ([[[0, 1], [1.0, 1]]], "vertices[0][0]: rational must be [numerator, denominator]"),
    ([[[0, 0], [1, 1]]], "vertices[0][0]: denominator must be positive, got 0"),
    ([[[0, -2], [1, 1]]], "vertices[0][0]: denominator must be positive, got -2"),
    ([[[2, 1], [1, 1]]], "vertices[0][0]: interval has lo > hi"),
    ([[[1, 3], [33, 100]]], "vertices[0][0]: interval has lo > hi"),
    ([[[0, 1]]], "vertices[0][0]: interval must be [[n, d], [n, d]]"),
    ([[[0, 1], [1, 1]], [[0, 1], [1, 1]]], "vertices[0] must list exactly 1 intervals"),
    ([], "vertices[0] must list exactly 1 intervals"),
    # the first fault found is reported: lo before hi, each endpoint's
    # shape before its denominator, both endpoints before their order
    ([[[0, 0], [True, 1]]], "vertices[0][0]: denominator must be positive, got 0"),
    ([[[5, 1], [1, 0]]], "vertices[0][0]: denominator must be positive, got 0"),
    ([[[5, 1], "x"]], "vertices[0][0]: rational must be [numerator, denominator]"),
])
def test_verify_reports_the_first_bad_interval(tmp_path, capsys, row, message):
    g, rep = tmp_path / "g.json", tmp_path / "rep.json"
    write_json(g, {"n": 1, "edges": []})
    write_json(rep, {"d": 1, "vertices": {"0": row}})
    assert main(["verify", str(g), str(rep)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_accepts_unreduced_and_equal_endpoints(tmp_path):
    g, rep = tmp_path / "g.json", tmp_path / "rep.json"
    write_json(g, {"n": 2, "edges": [[0, 1]]})
    write_json(rep, {"d": 1, "vertices": {"0": [[[2, 4], [1, 2]]],
                                          "1": [[[-3, 6], [50, 100]]]}})
    assert main(["verify", str(g), str(rep)]) == 0
    assert box_rep_from_dict(read_json(rep)).layers[0] == {
        0: Interval(Fraction(1, 2), Fraction(1, 2)),
        1: Interval(Fraction(-1, 2), Fraction(1, 2))}


# ---------------------------------------------------------------- poset


def test_poset_realizer_file(tmp_path):
    c5, out = tmp_path / "c5.json", tmp_path / "realizer.json"
    assert main(["gen", "cycle", "5", "-o", str(c5)]) == 0
    assert main(["poset", str(c5), "-o", str(out)]) == 0
    doc = read_json(out)
    G = graph_from_dict(read_json(c5))
    orders = [tuple(L) for L in doc["orders"]]
    assert len(orders) == 3  # C5 needs three colors
    P, star = adjacency_poset(G), starred_poset(G)
    assert all(is_linear_extension(P, L) for L in orders)
    assert intersect_orders(orders) & star.relation == P.relation


def test_poset_dimension_queries(tmp_path, capsys):
    c4 = tmp_path / "c4.json"
    assert main(["gen", "cycle", "4", "-o", str(c4)]) == 0
    capsys.readouterr()
    assert main(["poset", str(c4), "--check-dimension", "4"]) == 0
    assert capsys.readouterr().out.startswith("yes")
    assert main(["poset", str(c4), "--check-dimension", "1"]) == 0
    assert capsys.readouterr().out.startswith("no")
    assert main(["poset", str(c4), "--check-dimension", "3",
                 "--max-nodes", "5"]) == 3


def test_check_dimension_pads_with_one_extension_and_refuses_above_the_vertex_cap(
        tmp_path, capsys):
    g = tmp_path / "g.json"
    assert main(["gen", "path", "3", "-o", str(g)]) == 0
    capsys.readouterr()
    start = time.monotonic()
    assert main(["poset", str(g), "--check-dimension", "1000000"]) == 0
    assert time.monotonic() - start < 2.0  # one sort per class: 12.5 s on a 2-core x86-64 VM
    assert capsys.readouterr().out == "yes: realized by 1000000 linear orders\n"
    assert main(["poset", str(g), "--check-dimension", "1000001"]) == 2
    assert capsys.readouterr().err == "error: dimension must be in 1..1000000, got 1000001\n"


# --------------------------------------------------------------- bounds


def test_bounds_stdout_and_file(tmp_path, capsys):
    assert main(["bounds", "--genus", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["box_bound"] == 7
    assert doc["dim_bound"]["floor"] == 25 and doc["dim_bound"]["exact"] == [25, 1]
    out = tmp_path / "b.json"
    assert main(["bounds", "--box", "3", "--chi", "4", "-o", str(out)]) == 0
    assert read_json(out)["dim_from_box_chi"] == 14


def test_bounds_rejects_bad_flags(capsys):
    assert main(["bounds", "--genus", "0"]) == 2
    assert main(["bounds"]) == 2


@pytest.mark.parametrize("flags, what, factor", [([], "genus", 48),
                                                 (["--nonorientable"], "crosscap count", 24)],
                         ids=["orientable", "nonorientable"])
def test_bounds_refuses_a_genus_whose_radicand_overflows_a_float(capsys, flags, what, factor):
    huge = "1" + "0" * 400
    assert main(["bounds", "--genus", huge, *flags]) == 2
    assert capsys.readouterr().err == (
        f"error: {what} {huge} is too large: 1 + {factor}g does not fit a float\n")
    largest = (int(sys.float_info.max) - 1) // factor
    assert main(["bounds", "--genus", str(largest), *flags]) == 0
    assert json.loads(capsys.readouterr().out)["genus"] == largest
    assert main(["bounds", "--genus", str(largest + 1), *flags]) == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["exact", "g.json", "--no-symmetry"])
    assert info.value.code == 2


# -------------------------------------------------------------- start-up

SRC = Path(exact.__file__).resolve().parents[1]  # the package's parent directory


def loaded_modules(code: str, *args: str) -> list[str]:
    """The names in sys.modules after code runs in a new interpreter
    without site packages, with the package on its path."""
    code += "; import json; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code, *args], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_leaves_dataclasses_unloaded():
    loaded = loaded_modules("import sys, boxicity.cli")
    assert "boxicity.cli" in loaded and "dataclasses" not in loaded


def forest_files(tmp_path):
    """A 5-vertex path and its forest layout."""
    g, rep = tmp_path / "g.json", tmp_path / "rep.json"
    assert main(["gen", "path", "5", "-o", str(g)]) == 0
    assert main(["construct", "forest", str(g), "-o", str(rep)]) == 0
    return g, rep


def sur1_roberts_files(tmp_path):
    """roberts(3) by a pair cover over the matched-complement rule."""
    g, s = tmp_path / "g.json", tmp_path / "script.json"
    write_json(g, graph_to_dict(roberts_graph(3)))
    write_json(s, script_doc(Sur1Step(cover=PairCover(X=(0, 1), pairs=((0, 1),)),
                                      sub=RobertsStep())))
    return g, s


# the search, the figure-1 gadget and the exact rationals, which only the
# jobs that use them load
RARE = {"boxicity.exact", "boxicity.figure1", "fractions", "decimal"}
DERIVE = ["derive", "{0}", "{1}", "-o", "{out}"]


def no_files(tmp_path):
    return ()


@pytest.mark.parametrize("files, command, loads, skips", [
    (forest_files, ["verify", "{0}", "{1}"], {"boxicity.boxes"},
     RARE | {"boxicity.derivation", "boxicity.posets"}),
    (forest_files, ["construct", "forest", "{0}", "-o", "{out}"], {"boxicity.boxes"},
     RARE | {"boxicity.derivation", "boxicity.posets"}),
    (sur1_roberts_files, DERIVE, {"boxicity.derivation"}, RARE | {"boxicity.posets"}),
    (k8_files, DERIVE, {"boxicity.exact"}, {"boxicity.figure1", "fractions", "decimal"}),
    (nested_files, DERIVE, {"boxicity.figure1", "fractions"}, {"boxicity.exact"}),
    (no_files, ["bounds", "--genus", "1", "-o", "{out}"], {"boxicity.posets"},
     RARE | {"boxicity.boxes", "boxicity.intervals", "boxicity.derivation",
             "boxicity.certificates"}),
], ids=["verify", "construct-forest", "derive", "derive-oracle", "derive-figure1", "bounds"])
def test_a_job_loads_only_the_modules_it_uses(tmp_path, files, command, loads, skips):
    argv = [arg.format(*files(tmp_path), out=tmp_path / "out.json") for arg in command]
    loaded = set(loaded_modules("import sys; from boxicity.cli import main; "
                                "assert main(sys.argv[1:]) == 0", *argv))
    assert loads <= loaded and not skips & loaded
