"""Self-tests of the benchmark, at a tiny load.

    python3 -m pytest perfbench

The repository's own test suite does not collect this file.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
from lreckit.intervals import is_interval_oracle  # noqa: E402
from lreckit.lformula import eval_lrec  # noqa: E402
from lreckit.xfix import compute_X  # noqa: E402

WORKLOADS = ("verify", "translate", "graphs")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_round(monkeypatch):
    """A tiny load: with --seconds 0.1 and no floor on the item count, a
    run holds one round of each workload."""
    monkeypatch.setattr(run, "MIN_ITEMS", 1)


def _run(capsys, workload, trace=0, seed=run.DEFAULT_SEED):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.1", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_spec_matches_benchmark_tables():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_metric_present(capsys, workload, trace):
    code, report, result = _run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert report["failed_frac"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    env = report["environment"]
    for key in ("python", "nproc", "platform", "git_commit", "seed",
                "default_seed", "third_party"):
        assert key in env


def _wrong(fn):
    return lambda *args: not fn(*args)


@pytest.mark.parametrize("workload, call, referee", [
    ("verify", "xfix.compute_X", compute_X),
    ("translate", "lformula.eval_lrec", eval_lrec),
    ("graphs", "intervals.oracle", is_interval_oracle),
])
def test_wrong_referee_fails_the_run(capsys, monkeypatch, workload, call,
                                     referee):
    monkeypatch.setitem(layers.CALLS, call, _wrong(referee))
    code, report, result = _run(capsys, workload)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] > 0
    assert report["failed_frac"] == result["failed"] / result["attempted"]
    assert report["failed_frac"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_items_and_counts(capsys, workload):
    _, first, a = _run(capsys, workload, trace=1)
    _, second, b = _run(capsys, workload, trace=1)
    _, other, _ = _run(capsys, workload, trace=0, seed=run.DEFAULT_SEED + 1)
    assert first["items_digest"] == second["items_digest"]
    assert first["items_digest"] != other["items_digest"]
    counts = [name for name, unit in layers.PER_LAYER.items()
              if unit == "count"]
    assert {n: a["metrics"][n]["value"] for n in counts} == \
        {n: b["metrics"][n]["value"] for n in counts}


def test_missing_sources_exit_without_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "graphs", "--seconds", "0.1"]) == 2
    assert capsys.readouterr().out == ""
