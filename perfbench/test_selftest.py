"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_selftest.py

Runs every kind of workload on connected graphs of up to three (sweep: four)
vertices within SearchBounds(2, 2), in both modes, and checks the printed
result against the metric names and units in BENCHMARK.json. A corrupted
reference must show up as failed calls.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest

import run
from workloads import TRANSFORM_THEOREMS, SweepWorkload, VerifyWorkload

TINY = {
    "tiny_transform": VerifyWorkload("connected:3", 2, 2, TRANSFORM_THEOREMS),
    "tiny_balance": VerifyWorkload("connected:3", 2, 2, ("BALANCE_BIPARTITE_REV",)),
    "tiny_sweep": SweepWorkload(4, 8),
}


@pytest.fixture(scope="module")
def references():
    sumsign = run._import_sumsign()
    return {
        name: w.pin(w.run(sumsign, w.prepare(sumsign, 0)))
        for name, w in TINY.items()
    }


@pytest.fixture(scope="module")
def declared():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def bench(name: str, trace: int, references: dict) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
            workloads=TINY, references=references,
        )
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(name, trace, references, declared):
    code, lines = bench(name, trace, references)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared[trace]
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    env = json.loads(lines[-2])["env"]
    assert {"python", "numpy", "networkx", "nproc", "cpu", "commit", "seed"} <= set(env)


def test_tiny_workloads_do_work(references):
    def total(name, theorem, field):
        return sum(row[field] for key, row in references[name].items()
                   if key.startswith(theorem + "/"))

    assert total("tiny_transform", "SUBDIVISION", "cases") > 0
    assert total("tiny_balance", "BALANCE_BIPARTITE_REV", "counterexamples") > 0
    assert references["tiny_sweep"]["patterns"] == 1 + 2 + 4 + 8 + 8 * 2 + 16 * 2 + 32 + 64


@pytest.mark.parametrize("name, corrupt", [
    ("tiny_transform", lambda r: r["HOMEOMORPHISM/2"].update(sha256="0" * 64)),
    ("tiny_balance", lambda r: r["BALANCE_BIPARTITE_REV/3"].update(cases=0)),
    ("tiny_sweep", lambda r: r.update(patterns=r["patterns"] + 1)),
])
def test_corrupted_reference_counts_as_failed(name, corrupt, references):
    bad = copy.deepcopy(references)
    corrupt(bad[name])
    code, lines = bench(name, 0, bad)
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_without_sources_no_result_is_printed(monkeypatch, tmp_path, references):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code, lines = bench("tiny_balance", 0, references)
    assert code != 0
    assert lines == []


def test_tracing_is_undone_and_self_time_excludes_children():
    sumsign = run._import_sumsign()
    original = sumsign.labeling.derive
    rec = run.SpanRecorder()
    with rec:
        rec.begin_run("probe")
        assert sumsign.verify.derive is not original
        g = sumsign.Graph(["u", "v"], [("u", "v")])
        lab = sumsign.Labeling(3, {"u": sumsign.IntegerSet([0]), "v": sumsign.IntegerSet([1, 2])})
        sumsign.verify.derive(g, lab)
    assert sumsign.verify.derive is original
    assert sumsign.transforms.derive is original
    assert "__init__" in vars(sumsign.Graph) and not hasattr(sumsign.Graph.__init__, "__wrapped__")
    summary = rec.summary()
    assert summary["graphs.Graph"]["calls"] == 1
    assert summary["labeling.derive"]["calls"] == 1
    assert summary["intsets.sumset"]["calls"] == 1
    derive = summary["labeling.derive"]
    assert 0 < derive["self_s"] < derive["s"]
    assert derive["s"] - derive["self_s"] == pytest.approx(summary["intsets.sumset"]["s"])
