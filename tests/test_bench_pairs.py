"""Tests of ``tools/bench_pairs.py`` on canned benchmark results; no
benchmark process is started."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = [{"name": "step_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "steps_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25}]


def result(correct=True, **values) -> dict:
    """The last line of one ``perfbench/run.py --trace 0`` run."""
    return {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
            "metrics": {k: {"value": v, "unit": "?"}
                        for k, v in values.items()}}


def test_the_summary_gives_each_metrics_runs_quartiles_and_wins():
    steps = [(4.0, 3.0), (5.0, 3.5), (6.0, 6.5), (4.5, 3.0)]
    pairs = [{"first": first,
              "parent": result(step_ms_p50=p, steps_per_s=1e3 / p),
              "change": result(step_ms_p50=c, steps_per_s=1e3 / c)}
             for first, (p, c) in zip(["parent", "change"] * 2, steps)]
    got = bench_pairs.summarize(pairs, SPEC)
    assert got["first"] == ["parent", "change", "parent", "change"]
    assert got["correct"] == {"parent": [True] * 4, "change": [True] * 4}
    m = got["metrics"]["step_ms_p50"]
    assert m["parent"] == {"runs": [4.0, 5.0, 6.0, 4.5], "median": 4.75,
                           "q1": 4.375, "q3": 5.25}
    assert m["change"]["median"] == 3.25
    assert m["ratio"] == pytest.approx(3.25 / 4.75)
    assert m["pairs_won"] == 3
    assert m["parent_iqr"] == pytest.approx(0.875)
    assert m["median_gain"] == pytest.approx(1.5)
    # a higher-is-better metric wins the same pairs, and gains upwards
    up = got["metrics"]["steps_per_s"]
    assert up["pairs_won"] == 3 and up["median_gain"] > 0
    assert up["better"] == "higher" and up["unit"] == "1/s"


def test_a_metric_that_a_failed_run_lacks_is_left_out():
    pairs = [{"first": "parent", "parent": result(step_ms_p50=4.0),
              "change": result(correct=False)}]
    got = bench_pairs.summarize(pairs, SPEC)
    assert got["metrics"] == {}
    assert got["correct"]["change"] == [False]
    assert got["failed"] == {"parent": [0], "change": [1]}


def test_odd_pairs_run_the_parent_first(tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": SPEC}))
    order = []

    def fake(checkout, workload, seed, seconds):
        order.append(checkout.name)
        value = 4.0 if checkout.name == "parent" else 3.0
        return result(step_ms_p50=value, steps_per_s=1e3 / value)

    monkeypatch.setattr(bench_pairs, "run_once", fake)
    assert bench_pairs.main([str(tmp_path / "parent"),
                             str(tmp_path / "change"), "query-mix",
                             "--pairs", "3", "--seed", "3"]) == 0
    assert order == ["parent", "change", "change", "parent",
                     "parent", "change"]
    out = json.loads(capsys.readouterr().out)
    assert (out["workload"], out["seed"]) == ("query-mix", 3)
    assert out["first"] == ["parent", "change", "parent"]
    assert out["metrics"]["step_ms_p50"]["pairs_won"] == 3
