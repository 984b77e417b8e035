"""Benchmark of ``reallogic``: Real Logic training and query workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload guarded-sum --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run and ``trace.overhead_ratio``. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record,
with the machine's settings, goes to ``perfbench/results/``. The exit
code is 0 only when every output check passed. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import ROOT, SRC, WORKLOADS
from tracing import COUNT_METRICS, SETUP_METRICS

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

# A benchmark run alternates ROUNDS times between set-up probes (or,
# when traced, a traced process) and a process of untraced runs, so that
# a slow spell of the machine does not fall on all of one kind.
ROUNDS = 4
PROBES_PER_ROUND = 2
# One BLAS thread: the workloads' matrices are small, a benchmark run
# measures one workload at a time, and extra threads add scheduler noise
# on a shared machine. Always at most nproc.
BLAS_THREADS = 1
DEADLINE_S = 170.0


class ChildError(RuntimeError):
    pass


def metric_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(mode, workload, seed, runs, deadline, *extra) -> tuple:
    """Run child.py; return (its JSON result, its start time)."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload,
           str(seed), str(runs), *map(str, extra)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} process ran out of time") from None
    if proc.returncode != 0:
        raise ChildError(f"{mode} process exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def probe_setup(workload, seed, count, deadline) -> list:
    """Seconds from the start of each of ``count`` fresh processes to
    their entry into ``training.learn``."""
    out = []
    for _ in range(count):
        probe, started = run_child("probe", workload, seed, 0, deadline)
        out.append(probe["learn_entry"] - started)
    return out


def runs_per_process(workload: str, seconds: float) -> int:
    """Runs per process so that ROUNDS processes fill about ``seconds``
    on the reference machine. The count depends on nothing measured, so
    both sides of a comparison do the same work."""
    return max(1, round(seconds / WORKLOADS[workload][2] / ROUNDS))


def runs_of(children: list) -> list:
    """The runs of several processes, in order."""
    return [r for c in children for r in c["runs"]]



def disagreements(runs: list) -> list:
    """Every run of one seed does the same work and gives the same
    results; name each way in which the runs differ."""
    problems = []
    first = runs[0]
    for key in ("quality", "marks"):
        if any(r[key] != first[key] for r in runs):
            problems.append(f"runs of one seed differ in {key}")
    if any(len(r["query_ms"]) != len(first["query_ms"]) for r in runs):
        problems.append("runs of one seed made different numbers of queries")
    traced = [r["layers"] for r in runs if "layers" in r]
    for k in COUNT_METRICS:
        if any(m[k] != traced[0][k] for m in traced):
            problems.append(f"per-layer count {k} differs between runs")
    return problems


def check_quality(q: dict) -> list:
    return [f"{k} = {v!r} is outside [0, 1]" for k, v in q.items()
            if not (math.isfinite(v) and 0.0 <= v <= 1.0)]


def quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def best_of(samples: list) -> list:
    """Per position, the smallest of the runs' samples. The runs repeat
    the same work, and load from other processes only ever slows a
    sample down."""
    return [min(column) for column in zip(*samples)]


def segments(run) -> list:
    """Seconds between the successive marks of a run, from its start."""
    t = [0.0] + run["mark_s"]
    return [b - a for a, b in zip(t, t[1:])]


def end_to_end(plains: list, setups: list) -> dict:
    runs = runs_of(plains)
    marks = runs[0]["marks"]
    seg = best_of([segments(r) for r in runs])
    # a segment ending at an update or at the return from learn is
    # learning time; one between two updates is a step interval
    learn_s = sum(s for s, m in zip(seg, marks) if m in ("update", "learned"))
    step_ms = [s * 1e3 for s, m, prev in zip(seg, marks, [None] + marks)
               if m == prev == "update"]
    queries = best_of([r["query_ms"] for r in runs])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(seg),
        "steps_per_s": marks.count("update") / learn_s,
        "step_ms_p50": quantile(step_ms, 0.5),
        "step_ms_p90": quantile(step_ms, 0.9),
        "query_ms_mean": statistics.fmean(queries),
        "query_ms_p90": quantile(queries, 0.9),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in plains),
    }


def per_layer(traceds: list, plains: list) -> dict:
    """Counts from the first traced run (all runs agree). Times are the
    fastest run's; set-up times are the fastest of each process's first
    run, since later runs of a process find its caches warm."""
    runs = runs_of(traceds)
    layers = [r["layers"] for r in runs]
    cold = [c["runs"][0]["layers"] for c in traceds]
    out = {name: layers[0][name] if name in COUNT_METRICS
           else min(m[name] for m in (cold if name in SETUP_METRICS
                                      else layers))
           for name in layers[0]}
    out["trace.overhead_ratio"] = (
        sum(best_of([segments(r) for r in runs]))
        / sum(best_of([segments(r) for r in runs_of(plains)])))
    return out


def benchmark(workload, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    demo, settings, _ = WORKLOADS[workload]
    record = {"workload": workload, "demo": demo, "settings": settings,
              "seed": seed, "seconds": seconds, "trace": trace}
    spans = RESULTS / f"{workload}-seed{seed}.spans.json"
    runs = runs_per_process(workload, seconds / (2 if trace else 1))
    setups, plains, traceds = [], [], []
    for i in range(ROUNDS):
        if trace:
            out, _ = run_child("traced", workload, seed, runs, deadline,
                               *([spans] if i == 0 else []))
            traceds.append(out)
        else:
            setups += probe_setup(workload, seed, PROBES_PER_ROUND, deadline)
        out, _ = run_child("plain", workload, seed, runs, deadline)
        plains.append(out)
    children = plains + traceds
    if trace:
        record["spans_file"] = str(spans.relative_to(ROOT))
    else:
        record["setup_samples_s"] = setups
    all_runs = runs_of(children)
    failures = [f for c in children for f in c["failures"]]
    checks = []
    if all(c["runs"] for c in children):
        checks += check_quality(all_runs[0]["quality"])
        checks += disagreements(all_runs)
    else:
        checks.append("a process finished no run of the workload")
    metrics = {}
    if not failures and not checks:
        metrics = (per_layer(traceds, plains) if trace
                   else end_to_end(plains, setups))
    units = metric_units("per_layer" if trace else "end_to_end")
    if metrics and set(metrics) != set(units):
        checks.append(f"metrics {sorted(metrics)} do not match "
                      f"BENCHMARK.json {sorted(units)}")
    record.update({
        "environment": children[0]["environment"],
        "correct": not failures and not checks,
        "attempted": sum(c["steps"] + c["queries"] for c in children),
        "failed": len(failures),
        "failures": failures, "checks": checks,
        "quality": all_runs[0]["quality"] if all_runs else {},
        "runs": {"plain": runs_of(plains), "traced": runs_of(traceds)},
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items() if k in units},
    })
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.seed < 0:
        ap.error("--seed must be at least 0")
    if not (SRC / "reallogic" / "__init__.py").is_file():
        print(f"error: no reallogic sources under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    try:
        record = benchmark(args.workload, args.seed, args.seconds, args.trace)
    except ChildError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(RESULTS / name, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    env = record["environment"]
    runs = record["runs"]["plain"]
    print(f"# {args.workload} ({record['demo']}), seed {args.seed}, "
          f"python {env['python']}, numpy {env['numpy']}, nproc "
          f"{env['nproc']}, BLAS threads {env['blas_threads']}")
    if runs:
        print(f"# {len(runs)} untraced runs, each "
              f"{runs[0]['marks'].count('update')} steps and "
              f"{len(runs[0]['query_ms'])} queries; "
              f"quality {record['quality']}")
    for k, m in record["metrics"].items():
        print(f"{k:40s} {m['value']!r:>24} {m['unit']}")
    for problem in record["failures"] + record["checks"]:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
