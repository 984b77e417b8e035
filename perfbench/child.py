"""One measured process of the benchmark.

Usage: ``python3 perfbench/child.py MODE WORKLOAD SEED RUNS [SPANS]``

MODE is ``probe`` (set up the workload and stop at the entry into
``training.learn``), ``plain`` (RUNS untraced runs of the workload) or
``traced`` (RUNS runs with a span at every module boundary; the spans of
the first run go to the file SPANS). ``run.py`` starts every process fresh, so that peak RSS belongs to one
workload alone. The last line of standard output is one JSON object.

Only the standard library is imported at module level: ``reallogic``
and numpy load inside the timed set-up, from the checkout's ``src``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name -> (demo, TrainConfig overrides, seconds per run on the reference
# machine). Each run of a workload is one ``demos.run_demo`` call at these
# settings. Runs are short so that a measurement holds many of them.
WORKLOADS = {
    # Sixteen steps of 32 per epoch; each grounds the guarded exists
    # on a dense 32 x 10^4 grid and the per-epoch Sat on 500 x 10^4.
    "guarded-sum": ("addition-multi", {"epochs": 3, "batch": 32,
                                       "log_every": 1}, 2.0),
    # Full batch: one step per epoch over 120 closed axioms.
    "many-atoms": ("smokers", {"epochs": 40, "log_every": 1}, 2.0),
    # Batch 128 covers each label group (about 75 rows), so every epoch
    # is one step followed by 11 queries, and every interval between
    # updates holds the same work.
    "query-mix": ("multilabel", {"epochs": 100, "batch": 128,
                                 "log_every": 1}, 1.2),
}


def run_workload(workload: str, seed: int):
    """One run of the workload through ``demos.run_demo``."""
    from dataclasses import replace
    from reallogic.demos import default_train, run_demo
    demo, overrides, _ = WORKLOADS[workload]
    return run_demo(demo, seed, replace(default_train(demo, seed), **overrides))


def check_query(res, data) -> str:
    """Problem with one query result, or '' when it is valid."""
    import numpy as np
    v = np.asarray(res.values, dtype=float)
    truthy = res.kind.endswith("truth")
    if v.size == 0:
        return f"{res.kind} query returned no values"
    if not np.all(np.isfinite(v)):
        return f"{res.kind} query returned non-finite values"
    if truthy and (v.min() < 0.0 or v.max() > 1.0):
        return f"truth query outside [0, 1]: [{v.min()}, {v.max()}]"
    if v.ndim != len(res.vars) + (0 if truthy else 1):
        return f"query shape {v.shape} does not match free vars {res.vars}"
    for axis, var in enumerate(res.vars):
        if data and var in data and v.shape[axis] != len(data[var]):
            return (f"query axis {var!r} has {v.shape[axis]} values for "
                    f"{len(data[var])} instances")
    return ""


class Monitor:
    """Times each run of the workload from outside and checks every
    step's loss and every query result.

    A run's timeline is a list of marks, each a name and the seconds
    since the run began: ``learn`` at the entry into ``training.learn``,
    ``update`` at each return from ``nn.adam_step``, ``learned`` when
    ``learn`` returns, and ``end`` when the run ends. Every run of one
    seed makes the same marks in the same order.
    """

    def __init__(self):
        self.run = None
        self.steps = 0
        self.queries = 0
        self.failures = []
        self._t0 = 0.0

    def start_run(self) -> dict:
        self.run = {"marks": [], "mark_s": [], "query_ms": []}
        self._t0 = time.perf_counter()
        return self.run

    def mark(self, name: str) -> None:
        self.run["mark_s"].append(time.perf_counter() - self._t0)
        self.run["marks"].append(name)

    def replacements(self):
        from reallogic import demos, training
        return [(demos, "learn", self._learn(demos.learn)),
                (training, "backward", self._backward(training.backward)),
                (training, "adam_step", self._adam_step(training.adam_step)),
                (demos, "query", self._query(demos.query)),
                (training, "query", self._query(training.query))]

    def _learn(self, fn):
        def learn(*args, **kwargs):
            self.mark("learn")
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark("learned")
        return learn

    def _backward(self, fn):
        import numpy as np

        def backward(root, store):
            self.steps += 1
            if not np.all(np.isfinite(root.data)):
                self.failures.append(f"non-finite loss {root.data}")
            return fn(root, store)
        return backward

    def _adam_step(self, fn):
        def adam_step(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.mark("update")
            return out
        return adam_step

    def _query(self, fn):
        def query(theory, kind, expr, data=None, **kwargs):
            self.queries += 1
            t0 = time.perf_counter()
            res = fn(theory, kind, expr, data=data, **kwargs)
            self.run["query_ms"].append((time.perf_counter() - t0) * 1e3)
            problem = check_query(res, data)
            if problem:
                self.failures.append(problem)
            return res
        return query


def quality(result) -> dict:
    """Quality numbers of one run; deterministic for a fixed seed."""
    return {k: result.final[k] for k in ("sat", "test_accuracy")
            if k in result.final}


class _SetupDone(Exception):
    pass


def probe(workload: str, seed: int) -> dict:
    """Set up the workload; report the monotonic clock at the entry into
    ``training.learn``. The clock is system-wide, so the parent can
    subtract the time it started this process."""
    from reallogic import demos
    from tracing import patched

    def learn(*args, **kwargs):
        raise _SetupDone(time.monotonic())

    with patched([(demos, "learn", learn)]):
        try:
            run_workload(workload, seed)
        except _SetupDone as done:
            return {"learn_entry": done.args[0]}
    raise RuntimeError(f"{workload} never reached training.learn")


def measure(workload: str, seed: int, runs: int, traced: bool,
            spans_path: str = None) -> dict:
    """Run the workload ``runs`` times with one seed."""
    from tracing import Tracer, layer_metrics, patched
    monitor = Monitor()
    tracer = Tracer() if traced else None
    records = []
    with patched(tracer.replacements() if traced else []), \
            patched(monitor.replacements()):
        for _ in range(runs):
            rec = monitor.start_run()
            try:
                result = run_workload(workload, seed)
            except Exception:  # a failed run is reported, not raised
                monitor.failures.append(traceback.format_exc(limit=-3))
                break
            monitor.mark("end")
            rec["quality"] = quality(result)
            if traced:
                rec["layers"] = layer_metrics(tracer.spans)
                if spans_path and not records:
                    write_spans(tracer.spans, spans_path)
                tracer.reset()
            records.append(rec)
    return {
        "runs": records, "steps": monitor.steps, "queries": monitor.queries,
        "failures": monitor.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def write_spans(spans, path) -> None:
    t0 = spans[0][1] if spans else 0.0
    rows = [[name, start - t0, end - t0, parent, info]
            for name, start, end, parent, info in spans]
    with open(path, "w") as fh:
        json.dump({"columns": ["name", "start_s", "end_s", "parent", "info"],
                   "spans": rows}, fh)


def environment() -> dict:
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv) -> int:
    mode, workload, seed, runs = argv[:4]
    sys.path.insert(0, str(SRC))
    if mode == "probe":
        out = probe(workload, int(seed))
    else:
        out = measure(workload, int(seed), int(runs), mode == "traced",
                      argv[4] if len(argv) > 4 else None)
    out["environment"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
