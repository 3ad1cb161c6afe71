import hashlib
import json

import pytest

from lreckit.cli import main

GRAPH = '{"n": 3, "rels": {"E": [[0,1],[0,0],[0,2],[2,2],[2,0]]}, "root": 0}'
COND = '{"C": {"0": [0,2,3], "1": [0,1], "2": [3]}}'
P4 = '{"n": 4, "rels": {"E": [[0,1],[1,2],[2,3]]}}'
K13 = '{"n": 4, "rels": {"E": [[0,1],[0,2],[0,3]]}}'
DAG = '{"n": 4, "rels": {"E": [[0,1],[0,2],[1,3],[2,3]]}, "root": 0}'


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


@pytest.mark.filterwarnings("ignore:counts")
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
])
def test_bad_assignment_exits_2_with_one_json_error(argv, error, tmp_path,
                                                    capsys):
    one = tmp_path / "one.json"
    one.write_text('{"n": 1, "rels": {"P": [[0]]}}')
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == error and set(err) == {"error", "message"}


def test_byte_identical_reruns(files, tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main(["verify", "--n", "3", "--seed", "2", "--count", "3", "--out", out1])
    main(["verify", "--n", "3", "--seed", "2", "--count", "3", "--out", out2])
    assert open(out1, "rb").read() == open(out2, "rb").read()


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
]


@pytest.mark.parametrize("argv, digest", GOLDEN)
def test_golden_output_bytes(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest
