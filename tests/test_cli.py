import contextlib
import hashlib
import io
import json
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    DIAMOND,
    band,
    class_counts,
    cycle_graph,
    disjoint_union,
    h8,
    path_graph,
)
from lreckit import wl
from lreckit.cformula import MAX_NESTING
from lreckit.cli import main

GRAPH = '{"n": 3, "rels": {"E": [[0,1],[0,0],[0,2],[2,2],[2,0]]}, "root": 0}'
COND = '{"C": {"0": [0,2,3], "1": [0,1], "2": [3]}}'
P4 = '{"n": 4, "rels": {"E": [[0,1],[1,2],[2,3]]}}'
K13 = '{"n": 4, "rels": {"E": [[0,1],[0,2],[0,3]]}}'
DAG = '{"n": 4, "rels": {"E": [[0,1],[0,2],[1,3],[2,3]]}, "root": 0}'


def graph_json(g):
    return json.dumps({"n": g.n, "rels": {"E": sorted(map(list, g.edges))}})


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("g.json", GRAPH),
        ("c.json", COND),
        ("p4.json", P4),
        ("k13.json", K13),
        ("dag.json", DAG),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["out"] = str(tmp_path / "out.json")
    return paths


def run(args, out):
    code = main(args + ["--out", out])
    with open(out) as fh:
        return code, json.load(fh)


def test_oracle(files):
    code, doc = run(
        ["oracle", files["g.json"], "--cond", files["c.json"], "--max-i", "3"],
        files["out"],
    )
    assert code == 0
    assert [1, 2] in doc["X"] and [0, 1] in doc["X"]
    assert [2, 1] not in doc["X"] and [2, 3] not in doc["X"]


def test_eval(files):
    code, doc = run(
        [
            "eval",
            files["p4.json"],
            "--sexpr",
            "(count >= 1 x (atom E x y))",
            "--assign",
            '{"y": 1}',
        ],
        files["out"],
    )
    assert code == 0 and doc["result"] is True


def test_lrec_eval(files):
    code, doc = run(
        [
            "lrec-eval",
            files["p4.json"],
            "--sexpr",
            "(exists y (atom E x y))",
            "--assign",
            '{"dom": {"x": 3}}',
        ],
        files["out"],
    )
    assert code == 0 and doc["result"] is False


@pytest.mark.parametrize("command, sexpr, assign", [
    ("eval", "(count >= 1 x (atom E x y))", '{"y": 1}'),
    ("lrec-eval", "(exists y (atom E x y))", '{"dom": {"x": 3}}'),
])
def test_formula_file_prints_what_sexpr_prints(command, sexpr, assign, files,
                                               tmp_path, capsys):
    formula = tmp_path / "formula.sexpr"
    formula.write_text(sexpr + "\n")
    printed = []
    for source in (["--sexpr", sexpr], ["--formula", str(formula)]):
        assert main([command, files["p4.json"], *source,
                     "--assign", assign]) == 0
        printed.append(capsys.readouterr())
    assert printed[0].err == ""
    assert printed[1] == printed[0]


def test_compile_and_stats_fields(files):
    code, doc = run(["compile", "--n", "3", "--r", "1", "--i", "2"], files["out"])
    assert code == 0
    assert doc["formula"].startswith("(")
    assert doc["stats"]["nvars"] <= 4
    assert doc["stats"]["H"] == 12


def test_verify_reports_agreement(files):
    code, doc = run(
        ["verify", "--n", "3", "--seed", "5", "--count", "4"], files["out"]
    )
    assert code == 0
    assert doc["ok"] and doc["mismatches"] == []
    assert doc["checked"] > 0


def test_decompose(files):
    code, doc = run(["decompose", files["dag.json"]], files["out"])
    assert code == 0
    assert doc["ok"]
    assert all(doc["check"]["items"].values())


def test_stats(files):
    code, doc = run(["stats", files["dag.json"]], files["out"])
    assert code == 0
    assert doc["wt"] == [1, 1, 1, 2] and doc["awt"] == 5


def test_wl(files):
    code, doc = run(
        ["wl", files["p4.json"], files["k13.json"], "--k", "1"], files["out"]
    )
    assert code == 0
    assert doc["distinguished"] and doc["rounds"] <= 2


def test_interval(files):
    code, doc = run(["interval", files["p4.json"]], files["out"])
    assert code == 0
    assert doc["is_interval"]
    assert len(doc["maxcliques"]) == 3


def test_error_is_machine_readable(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code = main(["stats", str(bad)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MalformedInput"


# the structure and condition documents that the cases below name
STRUCTURES = {
    "one.json": '{"n": 1, "rels": {"P": [[0]]}}',
    "rel-int.json": '{"n": 2, "rels": {"E": 5}}',
    "rel-obj.json": '{"n": 2, "rels": {"E": {}}}',
    "n-bool.json": '{"n": true, "rels": {"E": [[0, 0]]}}',
    "id-bool.json": '{"n": 2, "rels": {"E": [[0, true]]}}',
    "three.json": '{"n": 3, "rels": {"E": [[0, 1]]}}',
    "dup.json": '{"n": 2, "rels": {"E": [[0, 1], [0, 1]]}}',
    "band40.json": band(40).to_json(),
    "empty33.json": '{"n": 33, "rels": {"E": []}}',
    "band26.json": band(26).to_json(),
    "sixty.json": '{"n": 60, "rels": {"E": [[0, 1], [1, 2]]}}',
    "edge.json": '{"n": 2, "rels": {"E": [[0, 1]]}}',
    "g.json": GRAPH,
    "c-ok.json": '{"C": {"0": [1]}}',
    "band11.json": band(11).to_json(),
    "c-true.json": '{"C": {"0": [true], "1": [0]}}',
    "c-underscore.json": '{"C": {"1_0": [1]}}',
    "c-space.json": '{"C": {" 1": [1]}}',
    "c-plus.json": '{"C": {"+1": [1]}}',
    "forty.json": '{"n": 40, "rels": {"E": [[0, 1]]}}',
    "six.json": '{"n": 6, "rels": {"E": [[0, 1]]}}',
    "ring40.json": json.dumps(
        {"n": 40, "rels": {"E": [[u, (u + 1) % 40] for u in range(40)]}}),
    "no-edges.json": '{"n": 1, "rels": {"E": []}}',
    "r25.json": json.dumps({"n": 2, "rels": {"R": [[0] * 25]}}),
    "million.json": '{"n": 1000000}',
    "c-list.json": '{"C": []}',
    "edges-key.json": '{"n": 3, "edges": [[0, 1], [1, 2]]}',
    "path3.json": graph_json(path_graph(3)),
    "path4.json": graph_json(path_graph(4)),
}
DUP_WARNING = {"category": "UserWarning",
               "message": "duplicate tuples in relation 'E' were deduplicated"}

# refused before any enumeration: 4**9 iota tuples per class, 3**13 cells
NINE_IOTAS = ["lrec-eval", "three.json", "--sexpr",
              "(lrec (y1) (y2) (" + " ".join(["i"] * 9) + ") (eq y1 y2)"
              " (atom E y1 y2) (bool f) (x) (k))",
              "--assign", '{"dom": {"x": 0}, "num": {"k": 1}}']
# refused before any evaluation: 40**4 pairs of 2-tuples, and 6 * 7**7
# label evaluations; both above MAX_QUOTIENT_WORK
WIDE_QUOTIENT = ["lrec-eval", "forty.json", "--sexpr",
                 "(lrec (y1 z1) (y2 z2) (i) (eq y1 y2) (atom E y1 y2)"
                 " (bool f) (x z) (k))",
                 "--assign", '{"dom": {"x": 0, "z": 0}, "num": {"k": 1}}']
SEVEN_IOTAS = ["lrec-eval", "six.json", "--sexpr",
               "(lrec (y1) (y2) (" + " ".join(["i"] * 7) + ") (eq y1 y2)"
               " (atom E y1 y2) (bool f) (x) (k))",
               "--assign", '{"dom": {"x": 0}, "num": {"k": 1}}']


def nested_ring(eq):
    # the inner lrec queries the outer one's y2, on a 40-element ring
    return ["lrec-eval", "ring40.json", "--sexpr",
            "(lrec (y1) (y2) (i) (eq y1 y2) (and (atom E y1 y2)"
            f" (lrec (a) (b) (j l) {eq} (atom E a b) (num-le j l)"
            " (y2) (m))) (num-le i 1) (x) (k))",
            "--assign", '{"dom": {"x": 0}, "num": {"k": 2, "m": 1}}']


def rebound_x(eq):
    # x is free in the formula but bound again above the lrec
    return ["lrec-eval", "forty.json", "--sexpr",
            f"(or (atom E x x) (exists x (lrec (y1) (y2) (i j) {eq}"
            " (atom E y1 y2) (bool f) (x) (k))))",
            "--assign", '{"dom": {"x": 0}, "num": {"k": 1}}']


# The quotients (3,240 and 68,840 evaluations) read neither the query
# tuple nor the resource, so each is built once: y2 and x only pick the
# class that is queried.
NESTED_RING = nested_ring("(eq a b)")
REBOUND_X = rebound_x("(eq y1 y2)")
# Equality formulas that read y2 and x: the inner quotient is built for each
# of the 40 values of y2 (3,240 + 40 * 68,840 evaluations), and the other
# for each of the 40 values of x (40 * 68,840), both above MAX_QUOTIENT_WORK.
NESTED_RING_READS_Y2 = nested_ring(
    "(or (eq a b) (and (atom E a y2) (atom E b y2)))")
REBOUND_X_READS_X = rebound_x(
    "(or (eq y1 y2) (and (atom E y1 x) (atom E y2 x)))")
# variables that only the equality formula reads are free in the lrec node
EQ_ONLY = ["(lrec (y1) (y2) (i) (eq y1 z) (atom E y1 y2) (bool t) (x) (k))",
           "(lrec (y1) (y2) (i) (and (eq y1 y2) (num-eq j 0)) (atom E y1 y2)"
           " (bool t) (x) (k))"]
WIDE_ATOM = ["eval", "three.json", "--sexpr",
             "(atom E " + " ".join(["x"] * 13) + ")", "--assign", '{"x": 0}']
# 2 ** 25 cells, more than MAX_TABLE_CELLS
R25_VARS = [f"a{i}" for i in range(25)]
# the conjunction under five quantifiers is a table of 60 ** 5 cells
WIDE_TABLE = ["eval", "sixty.json", "--sexpr",
              "(count >= 1 a (count >= 1 b (count >= 1 c (count >= 1 d"
              " (count >= 1 e (and (atom E a b) (atom E c d) (eq e a)))))))"]


@pytest.mark.parametrize("argv, error", [
    (["eval", "one.json", "--sexpr", "(atom P x)", "--assign", '{"x": 7}'],
     "IdOutOfRange"),
    (["eval", "one.json", "--sexpr", "(atom P x)", "--assign", "{bad"],
     "MalformedInput"),
    (["eval", "one.json", "--sexpr", "(atom P x)", "--assign", "[1]"],
     "MalformedInput"),
    (["lrec-eval", "one.json", "--sexpr", "(atom P x)", "--assign", "{bad"],
     "MalformedInput"),
    (["lrec-eval", "one.json", "--sexpr", "(atom P x)", "--assign", "[1]"],
     "MalformedInput"),
    (["lrec-eval", "one.json", "--sexpr", "(atom P x)",
      "--assign", '{"dom": {"x": 7}}'], "IdOutOfRange"),
    (["lrec-eval", "one.json", "--sexpr", "(atom P x)",
      "--assign", '{"dom": [1]}'], "MalformedInput"),
    (["lrec-eval", "one.json", "--sexpr", "(count-dom x (atom P x) k)",
      "--assign", '{"num": {"k": "a"}}'], "RangeViolation"),
    (["eval", "missing.json", "--sexpr", "(bool t)"], "MalformedInput"),
    (["eval", "one.json", "--sexpr", "(eq (x) y)"], "MalformedInput"),
    (["eval", "one.json", "--sexpr", "(atom (E) x)"], "MalformedInput"),
    (["eval", "one.json", "--sexpr", "(count >= 1 (x) (bool t))"],
     "MalformedInput"),
    (["eval", "one.json", "--sexpr", "(count >= (1) x (bool t))"],
     "MalformedInput"),
    (["lrec-eval", "one.json", "--sexpr", "(eq (x) y)"], "MalformedInput"),
    (["compile", "--n", "4", "--i", "3"], "SizeExceeded"),
    (["eval", "one.json", "--sexpr",
      "(not " * MAX_NESTING + "(bool t)" + ")" * MAX_NESTING], "SizeExceeded"),
    (["lrec-eval", "one.json", "--sexpr",
      "(not " * MAX_NESTING + "(bool t)" + ")" * MAX_NESTING], "SizeExceeded"),
    (["eval", "one.json", "--sexpr", "(bool t)", "--out", "nodir/x.json"],
     "MalformedInput"),
    (["eval", "rel-int.json", "--sexpr", "(bool t)"], "MalformedInput"),
    (["stats", "rel-int.json"], "MalformedInput"),
    (["eval", "rel-obj.json", "--sexpr", "(bool t)"], "MalformedInput"),
    (["eval", "n-bool.json", "--sexpr", "(bool t)"], "MalformedInput"),
    (["eval", "id-bool.json", "--sexpr", "(bool t)"], "MalformedInput"),
    (["stats", "id-bool.json"], "MalformedInput"),
    (NINE_IOTAS, "SizeExceeded"),
    (WIDE_ATOM, "ArityMismatch"),
    (["eval", "dup.json", "--sexpr", "(atom E x y)"], "UnboundVariable"),
    # 191,916,275 nodes once expanded, from 117 distinct ones
    (["decompose", "band40.json"], "SizeExceeded"),
    # 33 ** 3 triples, each refined over 33 substitutions a round
    (["wl", "empty33.json", "empty33.json", "--k", "3"], "SizeExceeded"),
    (WIDE_TABLE, "SizeExceeded"),
    # 227,667 nodes once expanded, 138 MB of JSON
    (["decompose", "band26.json"], "SizeExceeded"),
    (["lrec-eval", "edge.json", "--sexpr", "(exists x (atom E x))"],
     "ArityMismatch"),
    (["lrec-eval", "edge.json", "--sexpr", "(exists x (atom E x x x))"],
     "ArityMismatch"),
    (["oracle", "g.json", "--cond", "c-true.json"], "MalformedInput"),
    # "1_0" would name vertex 10, " 1" and "+1" vertex 1
    (["oracle", "band11.json", "--cond", "c-underscore.json"],
     "MalformedInput"),
    (["oracle", "g.json", "--cond", "c-space.json"], "MalformedInput"),
    (["oracle", "g.json", "--cond", "c-plus.json"], "MalformedInput"),
    (WIDE_QUOTIENT, "SizeExceeded"),
    (SEVEN_IOTAS, "SizeExceeded"),
    *((["lrec-eval", "edge.json", "--sexpr", text, "--assign",
        '{"dom": {"x": 0}, "num": {"k": 1}}'], "UnboundVariable")
      for text in EQ_ONLY),
    (NESTED_RING_READS_Y2, "SizeExceeded"),
    (REBOUND_X_READS_X, "SizeExceeded"),
    # 3 * 10**8 (vertex, i) pairs, and 10**8 instances
    (["oracle", "g.json", "--cond", "c-ok.json", "--max-i", "100000000"],
     "SizeExceeded"),
    (["verify", "--n", "1", "--count", "100000000"], "SizeExceeded"),
    # int() would read these thresholds as 10, 1, 0 and 3
    *((["eval", "edge.json", "--sexpr", f"(count >= {t} y (atom E x y))",
        "--assign", '{"x": 0}'], "MalformedInput")
      for t in ("1_0", "+1", "-0", "\u0663")),
    # an Arabic-Indic digit is a name, not the literal 3
    (["lrec-eval", "three.json", "--sexpr", "(num-le \u0663 3)"],
     "UnboundVariable"),
    # empty sweeps
    (["verify", "--n", "2", "--count", "-5"], "MalformedInput"),
    (["verify", "--n", "2", "--count", "0"], "MalformedInput"),
    (["oracle", "g.json", "--cond", "c-ok.json", "--max-i", "-3"],
     "MalformedInput"),
    (["oracle", "g.json", "--cond", "c-ok.json", "--max-i", "0"],
     "MalformedInput"),
    # the bad atom sits under a conjunct that no structure of this size
    # satisfies: fewer than 3 elements
    (["eval", "no-edges.json", "--sexpr",
      "(and (count >= 3 y (eq y y)) (atom Zed x))", "--assign", '{"x": 0}'],
     "UnknownSymbol"),
    (["eval", "no-edges.json", "--sexpr",
      "(and (count >= 3 y (eq y y)) (atom E x))", "--assign", '{"x": 0}'],
     "ArityMismatch"),
    (["eval", "r25.json", "--sexpr",
      "(and (count >= 3 y (eq y y)) (atom R " + " ".join(R25_VARS) + "))",
      "--assign", json.dumps(dict.fromkeys(R25_VARS, 0))], "SizeExceeded"),
    # the same bad atoms with no count: under a conjunct false at every size
    (["eval", "no-edges.json", "--sexpr",
      "(and (not (eq x x)) (atom Zed x))", "--assign", '{"x": 0}'],
     "UnknownSymbol"),
    (["eval", "no-edges.json", "--sexpr",
      "(and (not (eq x x)) (atom E x))", "--assign", '{"x": 0}'],
     "ArityMismatch"),
    # 8 * 10**6 (vertex, i) pairs: refused before the condition is read
    (["oracle", "million.json", "--cond", "c-list.json"], "SizeExceeded"),
    # argv errors: argparse's complaint, with no usage text
    (["compile", "--n", "abc", "--i", "1"], "MalformedInput"),
    (["nosuch"], "MalformedInput"),
    (["compile", "--i", "1"], "MalformedInput"),
    # a key that is not "rels" would leave the structure without tuples
    (["eval", "edges-key.json", "--sexpr", "(atom E x y)", "--assign",
      '{"x": 0, "y": 1}'], "MalformedInput"),
    (["wl", "edges-key.json", "three.json", "--k", "1"], "MalformedInput"),
    (["eval", "one.json"], "MalformedInput"),
    (["wl", "path3.json", "path4.json", "--k", "1"], "SizeMismatch"),
    (["lrec-eval", "one.json", "--sexpr",
      "(lrec (a b c d) (e f g h) (i) (bool t) (bool f) (bool t)"
      " (x1 x2 x3 x4) (k))", "--assign",
      '{"dom": {"x1": 0, "x2": 0, "x3": 0, "x4": 0}, "num": {"k": 1}}'],
     "UnsupportedDimension"),
    # a misspelt "num" is named, not dropped without a word
    (["lrec-eval", "edge.json", "--sexpr", "(atom E x x)", "--assign",
      '{"dom": {"x": 0}, "nmu": {"k": 1}}'], "MalformedInput"),
    # y1/y2/x widths 1/2/1
    (["lrec-eval", "edge.json", "--sexpr",
      "(lrec (y1) (y2 z2) (i) (eq y1 y2) (atom E y1 y2) (bool t) (x) (k))"],
     "ArityMismatch"),
    # no iota variable
    (["lrec-eval", "edge.json", "--sexpr",
      "(lrec (y1) (y2) () (eq y1 y2) (atom E y1 y2) (bool t) (x) (k))"],
     "ArityMismatch"),
])
def test_bad_assignment_exits_2_with_one_json_error(argv, error, tmp_path,
                                                    capsys):
    for name, text in STRUCTURES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    started = time.perf_counter()
    assert main(argv) == 2
    # refusals come before the work they guard: enumerating NINE_IOTAS
    # takes about 4 s
    assert time.perf_counter() - started < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    # the one input that raises a warning reports it inside the error object
    warned = [DUP_WARNING] if any(a.endswith("dup.json") for a in argv) else []
    assert err.pop("warnings", []) == warned
    assert err["error"] == error and set(err) == {"error", "message"}


@pytest.mark.parametrize("argv, result", [
    (NESTED_RING, True),
    (REBOUND_X, False),
])
def test_one_quotient_answers_every_query(argv, result, tmp_path, capsys):
    for name in ("forty.json", "ring40.json"):
        (tmp_path / name).write_text(STRUCTURES[name])
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"result": result}


def test_unreachable_vertices_are_counted_not_listed(tmp_path, capsys):
    # 999,999 vertices unreachable from the root: the error names how many
    # and the least of them. The root check follows the edge list and
    # builds no per-vertex table, so it refuses in milliseconds.
    graph = tmp_path / "million.json"
    graph.write_text('{"n": 1000000, "root": 0}')
    started = time.perf_counter()
    assert main(["stats", str(graph)]) == 2
    assert time.perf_counter() - started < 0.1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        '{"error": "MalformedInput", "message": '
        '"999999 vertices unreachable from root 0, the least 1"}\n')


def test_help_still_prints_text_and_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["compile", "--help"])
    assert info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: lreckit compile")
    assert captured.err == ""


def test_warnings_ride_along_in_the_result(tmp_path, capsys):
    dup = tmp_path / "dup.json"
    dup.write_text(STRUCTURES["dup.json"])
    argv = ["eval", str(dup), "--sexpr", "(atom E x y)",
            "--assign", '{"x": 0, "y": 1}']
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"result": True,
                                        "warnings": [DUP_WARNING]}


def _nest(command, open_, close, inner, assign):
    # a form exactly MAX_NESTING deep
    depth = MAX_NESTING - 1
    return [command, "--sexpr", open_ * depth + inner + close * depth,
            "--assign", assign]


@pytest.mark.parametrize("argv", [
    _nest("eval", "(and (atom P x) ", ")", "(atom P x)", '{"x": 0}'),
    _nest("eval", "(count >= 1 y ", ")", "(atom P y)", "{}"),
    _nest("lrec-eval", "(and (atom P x) ", ")", "(atom P x)",
          '{"dom": {"x": 0}}'),
    _nest("lrec-eval", "(exists y ", ")", "(atom P y)", "{}"),
    _nest("lrec-eval", "(lrec (y1) (y2) (i) ",
          " (atom P y1) (num-eq i min) (y1) (k))", "(eq y1 y2)",
          '{"dom": {"y1": 0}, "num": {"k": 1}}'),
])
def test_forms_at_the_nesting_cap_evaluate(argv, tmp_path, capsys):
    one = tmp_path / "one.json"
    one.write_text(STRUCTURES["one.json"])
    assert main([argv[0], str(one)] + argv[1:]) == 0
    assert json.loads(capsys.readouterr().out)["result"] in (True, False)


def test_lrec_eval_walks_a_long_resource_chain(tmp_path, capsys):
    # resource (2, ..., 2) in base 3 is 3**8 - 1 = 6,560; class 0 has a
    # self-loop, so X(0, i) reads X(0, i - 1) down a chain of 6,560 pairs,
    # and holds exactly at odd i
    s = tmp_path / "s.json"
    s.write_text('{"n": 2, "rels": {"E": [[0, 0]]}}')
    kappas = [f"k{j}" for j in range(8)]
    f = ("(lrec (y1) (y2) (i) (eq y1 y2) (atom E y1 y2) (num-eq i min) (x) ("
         + " ".join(kappas) + "))")
    assign = json.dumps({"dom": {"x": 0}, "num": dict.fromkeys(kappas, 2)})
    assert main(["lrec-eval", str(s), "--sexpr", f, "--assign", assign]) == 0
    assert json.loads(capsys.readouterr().out) == {"result": False}


# --- the error contract, over generated inputs -----------------------------

TOKENS = ["(", ")", "bool", "t", "f", "eq", "atom", "not", "or", "and",
          "count", ">=", "=", "<=", "exists", "forall", "num-exists",
          "num-le", "num-succ", "num-eq", "count-dom", "count-num", "lrec",
          "min", "max", "0", "1", "2", "3", "x", "y", "z", "k", "i", "E", "P",
          "R"]
HEADS = ["bool", "eq", "atom", "not", "or", "and", "count", "exists",
         "forall", "num-exists", "num-le", "num-succ", "num-eq", "count-dom",
         "count-num", "lrec", "x", "E"]
VAR = st.sampled_from(["x", "y", "z"])
NUM = st.sampled_from(["k", "i"])
TERM = st.sampled_from(["k", "i", "min", "max", "0", "1", "2", "4"])

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8)


def _forms(inner):
    # a parenthesised form with a head from the alphabet and random parts
    return st.tuples(st.sampled_from(HEADS), st.lists(inner, max_size=4)).map(
        lambda p: ["(", p[0], *[t for form in p[1] for t in form], ")"])


def _formulas(inner):
    # well-formed compound forms of both logics
    return st.one_of(
        inner.map("(not {})".format),
        st.builds("({} {})".format, st.sampled_from(["and", "or"]),
                  st.lists(inner, max_size=3).map(" ".join)),
        st.builds("(count {} {} {} {})".format,
                  st.sampled_from([">=", "=", "<="]), st.integers(0, 3), VAR,
                  inner),
        st.builds("({} {} {})".format, st.sampled_from(["exists", "forall"]),
                  VAR, inner),
        st.builds("(num-exists {} {})".format, NUM, inner),
        st.builds("(count-dom {} {} {})".format, VAR, inner, TERM),
        st.builds("(count-num {} {} {})".format, NUM, inner, TERM),
        st.builds("(lrec ({}) ({}) ({}) {} {} {} ({}) ({}))".format, VAR, VAR,
                  NUM, inner, inner, inner, VAR,
                  st.lists(NUM, min_size=1, max_size=3).map(" ".join)),
    )


FORMULAS = st.recursive(
    st.one_of(
        st.sampled_from(["(bool t)", "(bool f)"]),
        st.builds("(eq {} {})".format, VAR, VAR),
        st.builds("(atom P {})".format, VAR),
        st.builds("(atom E {} {})".format, VAR, VAR),
        st.builds("({} {} {})".format,
                  st.sampled_from(["num-le", "num-succ", "num-eq"]), TERM,
                  TERM),
    ),
    _formulas, max_leaves=6)

# each kind of input is listed twice where it is well-formed, so that about
# half the generated commands get past the readers
SEXPRS = st.one_of(
    FORMULAS,
    FORMULAS,
    st.lists(st.sampled_from(TOKENS), max_size=30).map(" ".join),
    st.recursive(st.sampled_from(TOKENS).map(lambda t: [t]), _forms,
                 max_leaves=12).map(" ".join),
)


def _structure(n):
    ids = st.integers(0, n - 1)
    return st.fixed_dictionaries({"n": st.just(n), "rels": st.one_of(
        st.fixed_dictionaries({
            "E": st.lists(st.lists(ids, min_size=2, max_size=2), max_size=5),
            "P": st.lists(st.lists(ids, min_size=1, max_size=1), max_size=2),
        }),
        st.dictionaries(st.sampled_from("EPR"), st.lists(
            st.lists(ids, min_size=1, max_size=3), max_size=4), max_size=3),
    )})


def _retyped(args):
    # the structure with one field replaced by an arbitrary JSON value
    doc, field, value = args
    if field == "doc":
        return value
    if field == "E":
        doc["rels"]["E"] = value
    elif field is not None:
        doc[field] = value
    return doc


STRUCTURE_DOCS = st.tuples(
    st.integers(1, 3).flatmap(_structure),
    st.sampled_from([None, None, None, "n", "rels", "E", "doc"]),
    JSON,
).map(_retyped)

IDS = st.fixed_dictionaries({}, optional=dict.fromkeys(
    ["x", "y", "z"], st.integers(0, 2)))
NUMS = st.fixed_dictionaries({}, optional=dict.fromkeys(
    ["k", "i"], st.integers(0, 3)))


def _assigns(valid):
    return st.one_of(valid.map(json.dumps), valid.map(json.dumps), st.none(),
                     st.text(max_size=6), JSON.map(json.dumps))


ASSIGNS = {
    "eval": _assigns(IDS),
    "lrec-eval": _assigns(st.fixed_dictionaries(
        {}, optional={"dom": IDS, "num": NUMS})),
}


@settings(derandomize=True, deadline=None, max_examples=400)
@given(command=st.sampled_from(["eval", "lrec-eval"]), doc=STRUCTURE_DOCS,
       sexpr=SEXPRS, data=st.data())
def test_cli_error_contract_holds_for_generated_inputs(
        command, doc, sexpr, data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "contract.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path), f"--sexpr={sexpr}"]
    assign = data.draw(ASSIGNS[command])
    if assign is not None:
        argv.append(f"--assign={assign}")
    out, err = io.StringIO(), io.StringIO()
    # a warning that escapes main, instead of riding in its JSON, is raised
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        keys = set(json.loads(err.getvalue()))
        assert keys - {"warnings"} == {"error", "message"}


def test_interval_on_twelve_disjoint_edges_is_fast(tmp_path, capsys):
    # 12 maxcliques: 12! consecutive orderings, each clique opens one
    g = tmp_path / "edges.json"
    g.write_text(json.dumps(
        {"n": 24, "rels": {"E": [[2 * j, 2 * j + 1] for j in range(12)]}}))
    started = time.perf_counter()
    assert main(["interval", str(g)]) == 0
    assert time.perf_counter() - started < 2.0
    doc = json.loads(capsys.readouterr().out)
    assert doc["possible_ends"] == [[2 * j, 2 * j + 1] for j in range(12)]


@pytest.mark.parametrize("g, h, k, max_rounds", [
    (disjoint_union(path_graph(4), path_graph(5)),
     disjoint_union(path_graph(3), path_graph(6)), 1, 10),
    # told apart at round 2 only, past --max-rounds
    (disjoint_union(path_graph(4), path_graph(5)),
     disjoint_union(path_graph(3), path_graph(6)), 1, 1),
    (cycle_graph(6), disjoint_union(cycle_graph(3), cycle_graph(3)), 1, 10),
    (cycle_graph(6), disjoint_union(cycle_graph(3), cycle_graph(3)), 2, 10),
    # the histories stop at different rounds
    (path_graph(7), disjoint_union(path_graph(1), cycle_graph(6)), 1, 0),
])
def test_wl_refines_once_and_keeps_each_history(g, h, k, max_rounds,
                                               tmp_path, capsys, monkeypatch):
    found = wl.distinguish(g, h, k, max_rounds)
    want = {"distinguished": found is not None, "rounds": found,
            "class_sizes_per_round": {"g": class_counts(g, k),
                                      "h": class_counts(h, k)}}
    passes = []
    joint = wl.rounds

    def counted(graphs, dim):
        passes.append(len(graphs))
        return joint(graphs, dim)

    monkeypatch.setattr(wl, "rounds", counted)
    (tmp_path / "g.json").write_text(graph_json(g))
    (tmp_path / "h.json").write_text(graph_json(h))
    assert main(["wl", str(tmp_path / "g.json"), str(tmp_path / "h.json"),
                 "--k", str(k), "--max-rounds", str(max_rounds)]) == 0
    assert json.loads(capsys.readouterr().out) == want
    assert passes == [2]


def test_byte_identical_reruns(files, tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main(["verify", "--n", "3", "--seed", "2", "--count", "3", "--out", out1])
    main(["verify", "--n", "3", "--seed", "2", "--count", "3", "--out", out2])
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


# the input files that GOLDEN commands name; P4 + P5 against P3 + P6 needs
# two rounds of 1-dimensional refinement
GOLDEN_INPUTS = {
    "p4.json": P4,
    "k13.json": K13,
    "c6.json": graph_json(cycle_graph(6)),
    "cc3.json": graph_json(disjoint_union(cycle_graph(3), cycle_graph(3))),
    "p4p5.json": graph_json(disjoint_union(path_graph(4), path_graph(5))),
    "p3p6.json": graph_json(disjoint_union(path_graph(3), path_graph(6))),
    "band20.json": band(20).to_json(),
    "diamond.json": DIAMOND.to_json(),
    "h8.json": graph_json(h8()),
}

# SHA-256 of the stdout bytes of fixed commands; any change to the JSON a
# command prints, down to whitespace and key order, changes the digest.
GOLDEN = [
    pytest.param(
        ["compile", "--n", "2", "--i", "1"],
        "e7f5d186e61fb16f40750789806a7726f24caf65c88383fffb604411d1afc3ce",
        id="compile-n2-i1"),
    pytest.param(
        ["compile", "--n", "3", "--i", "2"],
        "889e82a2aec156f36644aa73176f3f9f6dfadde20779296f6b5dc9ef099a4df6",
        id="compile-n3-i2"),
    pytest.param(
        ["verify", "--n", "4", "--seed", "7", "--count", "10"],
        "9f0d4c54639ece8c52ccc3c384d182eb18db7bb45313f0a568e20cd0717b6ce8",
        id="verify-n4-seed7-count10"),
    pytest.param(
        ["wl", "p4.json", "k13.json", "--k", "1"],
        "40d7eab9a6bbb1f4aacf25b41199e528c01a95d7afd84cf8772b232fad836a8d",
        id="wl-k1-p4-k13"),
    pytest.param(
        ["wl", "p4p5.json", "p3p6.json", "--k", "1", "--max-rounds", "1"],
        "f1459c14bf4158e0b30f48736ddf616e0e9bf1183745834a240b7b9793c065b7",
        id="wl-k1-not-within-max-rounds"),
    pytest.param(
        ["wl", "c6.json", "cc3.json", "--k", "2"],
        "794b8f5d99eeed9bea0d64ba8ded6f978a12a04e83b21a80ded41d8704b7439a",
        id="wl-k2-c6-cc3"),
    pytest.param(
        ["wl", "p4p5.json", "p3p6.json", "--k", "3"],
        "24f7fe1874123280165e41f1ccedce194f7fa61f4cb1c4b545778af3d35235bf",
        id="wl-k3-p4p5-p3p6"),
    pytest.param(
        ["decompose", "band20.json"],
        "a32f6ef80c344a77b4db2e9d8961ad2e3b4beca7895e92899c41d92de38cf2b3",
        id="decompose-band20"),
    pytest.param(
        ["decompose", "diamond.json"],
        "f8f9ff87ad6d0621a9efab4137604c685af0d1a3debc855b5d07321f5bde43a7",
        id="decompose-diamond"),
    pytest.param(
        ["interval", "h8.json"],
        "be0a8aa5fdbf2db87e6a5a30864f5351a8f4a39df9f9d4bd87a5a1e086d70ea4",
        id="interval-h8"),
    pytest.param(
        ["stats", "band20.json"],
        "b287af4b7529ce0e4fd9632f5b58007796f2af8db08933703e49d300241fb3dc",
        id="stats-band20"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN)
def test_golden_output_bytes(argv, digest, tmp_path, capsys):
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest
