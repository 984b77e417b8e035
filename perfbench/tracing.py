"""Spans at the module boundaries of ``reallogic``, and the per-layer
metrics computed from them.

Each public function is wrapped where its caller looks it up (the
module global of the calling module) and restored afterwards.
``reallogic.logic.ground_formula`` is never wrapped in ``logic``: it
recurses through that global, so every sub-formula would become a span.
It is wrapped in ``training``, where axioms and queries call it.

Spans stay in memory as ``[name, start, end, parent, info]`` lists;
``parent`` is the index of the enclosing span or -1, and ``info`` holds
the work counts recorded at that boundary.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np


@contextmanager
def patched(replacements):
    """Set ``module.name = value`` for each triple; restore on exit."""
    saved = [(module, name, getattr(module, name))
             for module, name, _ in replacements]
    try:
        for module, name, value in replacements:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _cells(x) -> int:
    return int(np.size(getattr(x, "data", x)))


def _aggregate_info(args, kwargs, out):
    t = _arg(args, kwargs, 1, "t")
    mask = _arg(args, kwargs, 3, "mask")
    info = {"cells": _cells(t)}
    if mask is not None:
        mask = np.asarray(mask)
        # the mask broadcasts over t's axes: each kept mask cell keeps
        # t.size / mask.size cells of t
        info["masked"] = info["cells"]
        info["kept"] = (int(np.count_nonzero(mask)) * info["cells"]
                        // max(mask.size, 1))
    return info


def _dense_info(args, kwargs, out):
    x = _arg(args, kwargs, 3, "x")
    return {"rows": _cells(x) // max(x.shape[-1], 1)}


def _connective_info(args, kwargs, out):
    return {"cells": _cells(out)}


def _satisfiability_info(args, kwargs, out):
    return {"training": bool(args[0].env.training)}


def graph_size(root) -> tuple:
    """(nodes, cells) of the autodiff graph reachable from ``root``."""
    seen = set()
    cells = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        cells += node.data.size
        stack.extend(node._parents)
    return len(seen), cells


def _backward_info(args, kwargs, out):
    nodes, cells = graph_size(_arg(args, kwargs, 0, "root"))
    return {"nodes": nodes, "cells": cells}


DATASET_MAKERS = ("bundled", "make_addition", "make_binary",
                  "make_clustering", "smoker_facts")


def boundaries():
    """(module, attribute, span name, info function) for every wrapped
    call site."""
    from reallogic import assemble, demos, logic, parser, training
    sites = [
        (training, "satisfiability", "training.satisfiability",
         _satisfiability_info),
        (training, "ground_formula", "logic.ground_formula", None),
        (training, "backward", "nn.backward", _backward_info),
        (training, "adam_step", "nn.adam_step", None),
        (training, "query", "training.query", None),
        (training, "aggregate", "fuzzy.aggregate", _aggregate_info),
        (logic, "dense_forward", "nn.dense_forward", _dense_info),
        (logic, "aggregate", "fuzzy.aggregate", _aggregate_info),
        (logic, "apply_connective", "fuzzy.apply_connective",
         _connective_info),
        (demos, "learn", "training.learn", None),
        (demos, "load_theory", "assemble.load_theory", None),
        (demos, "query", "training.query", None),
        (assemble, "parse_theory_file", "parser.parse_theory_file", None),
        (parser, "parse_formula", "parser.parse_formula", None),
    ]
    sites += [(demos, maker, "datasets.generate", None)
              for maker in DATASET_MAKERS]
    return sites


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, info=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            spans.append(rec)
            open_.append(len(spans) - 1)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            if info is not None:
                rec[4] = info(args, kwargs, out)
            return out

        return traced

    def replacements(self):
        return [(module, attr, self.wrap(name, getattr(module, attr), info))
                for module, attr, name, info in boundaries()]

    def reset(self):
        """Drop recorded spans; ``spans`` keeps its identity."""
        self.spans.clear()
        self._open.clear()


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


# count metrics: they repeat exactly for a fixed seed
COUNT_METRICS = (
    "fuzzy.aggregate.cells_per_step", "fuzzy.aggregate.kept_ratio",
    "nn.dense_forward.calls_per_step", "nn.dense_forward.rows_per_step",
    "tensor.nodes_per_step", "tensor.cells_per_step",
    "logic.ground_formula.calls_per_step",
    "fuzzy.apply_connective.calls_per_step",
    "fuzzy.apply_connective.cells_per_step",
    "training.query.calls", "training.query.calls_per_step",
    "parser.parse_formula.calls",
)
SETUP_METRICS = ("datasets.generate.ms", "parser.parse_theory_file.ms",
                 "assemble.load_theory.ms")


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one workload run.

    ``*_per_step`` values and per-step times cover everything inside
    ``training.learn`` (optimizer steps, the per-epoch Sat evaluation
    and the metric queries), divided by the optimizer steps taken.
    Query times are per query; set-up times are per run. ``.ms`` is a
    span's whole duration, ``.self_ms`` its self time.
    """
    selft = self_times(spans)
    in_learn = [False] * len(spans)
    tot = {}

    def add(key, value):
        tot[key] = tot.get(key, 0) + value

    for i, (name, start, end, parent, info) in enumerate(spans):
        inside = parent >= 0 and (in_learn[parent]
                                  or spans[parent][0] == "training.learn")
        in_learn[i] = inside
        dur = end - start
        add(f"{name}.calls", 1)
        add(f"{name}.ms", dur * 1e3)
        add(f"{name}.self_ms", selft[i] * 1e3)
        if not inside:
            continue
        add(f"learn:{name}.calls", 1)
        add(f"learn:{name}.ms", dur * 1e3)
        add(f"learn:{name}.self_ms", selft[i] * 1e3)
        for k, v in (info or {}).items():
            if k != "training":
                add(f"learn:{name}.{k}", v)
        if name == "training.satisfiability":
            phase = "step" if info["training"] else "eval"
            add(f"learn:sat.{phase}.calls", 1)
            add(f"learn:sat.{phase}.ms", dur * 1e3)
            add(f"learn:sat.{phase}.self_ms", selft[i] * 1e3)

    def get(key):
        return tot.get(key, 0)

    def per(num, den):
        return get(num) / get(den) if get(den) else 0.0

    steps = "learn:nn.adam_step.calls"
    masked = get("learn:fuzzy.aggregate.masked")
    return {
        "fuzzy.aggregate.cells_per_step":
            per("learn:fuzzy.aggregate.cells", steps),
        "fuzzy.aggregate.kept_ratio":
            get("learn:fuzzy.aggregate.kept") / masked if masked else 1.0,
        "fuzzy.aggregate.self_ms": per("learn:fuzzy.aggregate.self_ms", steps),
        "nn.dense_forward.calls_per_step":
            per("learn:nn.dense_forward.calls", steps),
        "nn.dense_forward.rows_per_step":
            per("learn:nn.dense_forward.rows", steps),
        "nn.dense_forward.self_ms":
            per("learn:nn.dense_forward.self_ms", steps),
        "tensor.nodes_per_step": per("learn:nn.backward.nodes", steps),
        "tensor.cells_per_step": per("learn:nn.backward.cells", steps),
        "nn.backward.ms": per("learn:nn.backward.ms", steps),
        "nn.adam_step.ms": per("learn:nn.adam_step.ms", steps),
        "logic.ground_formula.calls_per_step":
            per("learn:logic.ground_formula.calls", steps),
        "logic.ground_formula.self_ms":
            per("learn:logic.ground_formula.self_ms", steps),
        "fuzzy.apply_connective.calls_per_step":
            per("learn:fuzzy.apply_connective.calls", steps),
        "fuzzy.apply_connective.cells_per_step":
            per("learn:fuzzy.apply_connective.cells", steps),
        "fuzzy.apply_connective.self_ms":
            per("learn:fuzzy.apply_connective.self_ms", steps),
        "training.satisfiability.step_self_ms":
            per("learn:sat.step.self_ms", steps),
        "training.satisfiability.eval_ms":
            per("learn:sat.eval.ms", "learn:sat.eval.calls"),
        "training.query.calls": get("training.query.calls"),
        "training.query.calls_per_step":
            per("learn:training.query.calls", steps),
        "training.query.self_ms":
            per("training.query.self_ms", "training.query.calls"),
        "parser.parse_formula.calls": get("parser.parse_formula.calls"),
        "parser.parse_formula.ms":
            per("parser.parse_formula.ms", "parser.parse_formula.calls"),
        "datasets.generate.ms": get("datasets.generate.ms"),
        "parser.parse_theory_file.ms": get("parser.parse_theory_file.ms"),
        "assemble.load_theory.ms": get("assemble.load_theory.ms"),
    }
