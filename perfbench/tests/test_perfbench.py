"""Tests of the benchmark itself: wrapping, spans, counts, checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
from tracing import (  # noqa: E402
    COUNT_METRICS, Tracer, boundaries, layer_metrics, patched, self_times,
)

sys.path.insert(0, str(child.SRC))

from reallogic.training import QueryResult  # noqa: E402


@pytest.fixture
def one_epoch(monkeypatch):
    """Shrink every workload to one epoch per run."""
    for name, (demo, settings, secs) in list(child.WORKLOADS.items()):
        monkeypatch.setitem(child.WORKLOADS, name,
                            (demo, dict(settings, epochs=1), secs))


def _traced(workload, seed=0):
    tracer = Tracer()
    with patched(tracer.replacements()):
        child.run_workload(workload, seed)
    return tracer.spans


def _wrapped_sites():
    from reallogic import demos, training
    sites = [(m, a) for m, a, _, _ in boundaries()]
    sites += [(demos, "learn"), (training, "backward"),
              (training, "adam_step"), (demos, "query"), (training, "query")]
    return sites


def test_traced_run_restores_every_wrapped_name(one_epoch):
    before = [(m, a, getattr(m, a)) for m, a in _wrapped_sites()]
    out = child.measure("query-mix", 0, runs=1, traced=True)
    assert out["runs"] and not out["failures"]
    for module, attr, fn in before:
        assert getattr(module, attr) is fn, f"{module.__name__}.{attr}"


def test_restores_even_when_the_run_raises():
    from reallogic import demos
    original = demos.learn
    with pytest.raises(RuntimeError):
        with patched([(demos, "learn", None)]):
            raise RuntimeError("boom")
    assert demos.learn is original


@pytest.mark.parametrize("workload", ["many-atoms", "query-mix"])
def test_spans_nest_and_self_times_are_nonnegative(one_epoch, workload):
    spans = _traced(workload)
    assert spans
    for name, start, end, parent, _ in spans:
        assert start <= end
        if parent >= 0:
            _, pstart, pend, _, _ = spans[parent]
            assert pstart <= start and end <= pend, name
    assert all(t >= 0.0 for t in self_times(spans))


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 6.0, 0, None],
             ["c", 2.0, 3.0, 1, None], ["d", 7.0, 8.0, 0, None]]
    assert self_times(spans) == [4.0, 4.0, 1.0, 1.0]


@pytest.mark.parametrize("workload", sorted(child.WORKLOADS))
def test_layer_counts_repeat_for_one_seed(one_epoch, workload):
    first = layer_metrics(_traced(workload, seed=3))
    second = layer_metrics(_traced(workload, seed=3))
    assert {k: first[k] for k in COUNT_METRICS} == \
        {k: second[k] for k in COUNT_METRICS}


def test_traced_counts_show_each_workloads_traffic(one_epoch):
    m = {w: layer_metrics(_traced(w)) for w in child.WORKLOADS}
    assert m["guarded-sum"]["fuzzy.aggregate.kept_ratio"] < 0.01
    assert m["many-atoms"]["fuzzy.aggregate.kept_ratio"] == 1.0
    assert m["many-atoms"]["nn.dense_forward.calls_per_step"] > 100
    assert (m["many-atoms"]["tensor.nodes_per_step"]
            > 10 * m["guarded-sum"]["tensor.nodes_per_step"])
    assert m["query-mix"]["training.query.calls_per_step"] >= 5


@pytest.mark.parametrize("workload", sorted(child.WORKLOADS))
def test_short_run_of_each_workload_completes(one_epoch, workload):
    out = child.measure(workload, 0, runs=2, traced=False)
    assert out["failures"] == [] and len(out["runs"]) == 2
    assert run.disagreements(out["runs"]) == []
    first = out["runs"][0]
    assert first["marks"][0] == "learn"
    assert first["marks"][-2:] == ["learned", "end"]
    assert "update" in first["marks"] and first["query_ms"]
    assert first["mark_s"] == sorted(first["mark_s"])
    assert 0.0 <= first["quality"]["sat"] <= 1.0


def test_end_to_end_takes_the_fastest_run_per_segment():
    marks = ["learn", "update", "update", "update", "learned", "end"]
    runs = [{"marks": marks, "mark_s": [1, 2, 3, 5, 6, 7],
             "query_ms": [1.0, 5.0]},
            {"marks": marks, "mark_s": [2, 3, 4, 6, 7, 8],
             "query_ms": [2.0, 3.0]},
            {"marks": marks, "mark_s": [1, 3, 4, 5, 6, 9],
             "query_ms": [4.0, 6.0]}]
    m = run.end_to_end([{"runs": runs[:2], "peak_rss_mb": 9.0},
                        {"runs": runs[2:], "peak_rss_mb": 8.0}],
                       [0.3, 0.1, 0.2])
    assert m["setup_s"] == 0.2
    assert m["wall_s"] == 6
    assert m["steps_per_s"] == 3 / 4
    assert m["step_ms_p50"] == m["step_ms_p90"] == 1000
    assert m["query_ms_mean"] == 2.0
    assert m["peak_rss_mb"] == 9.0
    assert set(m) == set(run.metric_units("end_to_end"))


def test_disagreements_name_each_difference():
    a = {"quality": {"sat": 0.5}, "marks": ["learn", "update"],
         "query_ms": [1.0], "layers": dict.fromkeys(COUNT_METRICS, 1)}
    assert run.disagreements([a, dict(a)]) == []
    b = dict(a, quality={"sat": 0.6}, query_ms=[1.0, 2.0],
             layers=dict(a["layers"], **{"tensor.nodes_per_step": 2}))
    problems = run.disagreements([a, b])
    assert len(problems) == 3
    assert any("tensor.nodes_per_step" in p for p in problems)


def test_probe_stops_at_learn(one_epoch):
    assert child.probe("query-mix", 0)["learn_entry"] > 0


@pytest.mark.parametrize("values, vars_, data, problem", [
    (np.array([0.2, 0.9]), ("x",), {"x": np.zeros((2, 5))}, ""),
    (np.array([0.2, 1.5]), ("x",), None, "outside [0, 1]"),
    (np.array([0.2, np.nan]), ("x",), None, "non-finite"),
    (np.array([0.2, 0.9]), (), None, "does not match"),
    (np.array([0.2, 0.9]), ("x",), {"x": np.zeros((3, 5))}, "instances"),
])
def test_query_check(values, vars_, data, problem):
    got = child.check_query(QueryResult("truth", values, vars_), data)
    assert (problem in got) if problem else got == ""


def test_quality_check_rejects_out_of_range():
    assert run.check_quality({"sat": 0.5, "test_accuracy": 1.0}) == []
    assert run.check_quality({"sat": float("nan")})
    assert run.check_quality({"sat": 1.2})


def test_benchmark_json_names_what_the_benchmark_computes(one_epoch):
    spec = json.loads((child.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(child.WORKLOADS)
    computed = set(layer_metrics(_traced("query-mix")))
    assert computed | {"trace.overhead_ratio"} == \
        set(run.metric_units("per_layer"))
    assert set(COUNT_METRICS) <= computed


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(child.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
