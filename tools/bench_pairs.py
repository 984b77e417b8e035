"""Compare the end-to-end metrics of two checkouts on one benchmark
workload, over alternating pairs of runs.

Usage: ``python tools/bench_pairs.py PARENT CHANGE WORKLOAD [--pairs N]
[--seed S] [--seconds T]``

PARENT and CHANGE are checkouts of the repository. Each pair runs
``perfbench/run.py --workload WORKLOAD --seed S --seconds T --trace 0``
once in each checkout, one after the other; odd pairs (1, 3, ...) run
the parent first and even pairs the change first, so that a slow spell
of the machine does not fall on one side. Every run's last line of
standard output is its JSON result.

The tool prints one JSON object: for each end-to-end metric that the
change's ``BENCHMARK.json`` lists, each side's runs, median and
quartiles, the change/parent ratio of the medians, and the pairs the
change won (strictly better, in the metric's direction); also which
side ran first, and each run's ``correct`` and ``failed`` fields. A run
whose checks fail (exit 1 with a result) is kept; a run that prints no
result stops the tool. It uses the standard library only, so it
repeats ``perfbench/run.py``'s quantile rule rather than import it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _side(values: list) -> dict:
    return {"runs": values, "median": statistics.median(values),
            "q1": quantile(values, 0.25), "q3": quantile(values, 0.75)}


def summarize(pairs: list, spec: list) -> dict:
    """The comparison of ``pairs``, each a dict with the ``first`` side
    and the ``parent`` and ``change`` results of ``perfbench/run.py``,
    over the metrics of ``spec`` (the ``end_to_end`` list of
    ``BENCHMARK.json``). A metric that a failed run lacks has no
    entry."""
    out = {"first": [p["first"] for p in pairs]}
    for side in ("parent", "change"):
        for key in ("correct", "failed"):
            out.setdefault(key, {})[side] = [p[side][key] for p in pairs]
    metrics = {}
    for m in spec:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        if not all(name in p[s]["metrics"] for p in pairs
                   for s in ("parent", "change")):
            continue
        runs = {s: [p[s]["metrics"][name]["value"] for p in pairs]
                for s in ("parent", "change")}
        parent, change = _side(runs["parent"]), _side(runs["change"])
        metrics[name] = {
            "unit": m["unit"], "better": m["better"],
            "parent": parent, "change": change,
            "ratio": change["median"] / parent["median"]
            if parent["median"] else None,
            "pairs_won": sum(sign * (c - p) < 0 for p, c in
                             zip(runs["parent"], runs["change"])),
            "parent_iqr": parent["q3"] - parent["q1"],
            "median_gain": sign * (parent["median"] - change["median"]),
        }
    out["metrics"] = metrics
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The JSON result of one untraced benchmark run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: perfbench/run.py exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    pairs = []
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload,
                                  args.seed, args.seconds)
        pairs.append(pair)
        print(f"# pair {i} of {args.pairs} done", file=sys.stderr)
    summary = summarize(pairs, spec["end_to_end"])
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, **summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
