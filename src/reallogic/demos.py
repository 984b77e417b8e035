"""Runnable end-to-end demonstrations over the bundled theories.

Each demo loads its theory file, binds seeded data, trains, and
reports metrics plus plot-ready CSV artifacts. All randomness derives
from the single seed argument, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import math
import operator
import os
from dataclasses import dataclass, replace
from multiprocessing import Pool
from pathlib import Path
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from reallogic.assemble import load_theory
from reallogic.datasets import (
    bundled, make_addition, make_binary, make_clustering, split_stratified,
)
from reallogic.logic import App, Var
from reallogic.training import (
    RefutationConfig, TrainConfig, axiom_truth, learn, query, reason_refute,
    truth_value, write_metrics,
)


def theory_path(name: str) -> Path:
    return Path(__file__).parent / "theories" / f"{name}.rl"


def _load(name, seed, data=None, tags=None):
    return load_theory(theory_path(name), seed=seed, data=data, tags=tags)


@dataclass
class DemoResult:
    demo: str
    seed: int
    records: list     # training metric stream
    final: dict       # headline numbers for self-check and aggregation
    artifacts: dict   # name -> (columns, rows); cells may be str or float
    theory: object


# -- shared helpers -------------------------------------------------------------


def _truths(theory, expr, **binds):
    if binds:
        return query(theory, "generalization-truth", expr,
                     data={k: np.asarray(v) for k, v in binds.items()}).values
    return query(theory, "truth", expr).values


def _label_scores(theory, rows, label_names):
    """Stack P(x, l) truth columns for each label constant."""
    cols = [_truths(theory, f"P(x, {l})", x=rows) for l in label_names]
    return np.column_stack(cols)


# -- demos ----------------------------------------------------------------------


def run_binary(seed: int, train: TrainConfig, tags=None) -> DemoResult:
    data = make_binary(seed)
    rng = np.random.default_rng([seed, 1])
    tr, te = split_stratified(rng, data.col("label"), 0.5)
    train_ds, test_ds = data.take(tr), data.take(te)
    pos = train_ds.rows[train_ds.col("label") == 1.0][:, :2]
    neg = train_ds.rows[train_ds.col("label") == 0.0][:, :2]
    th = _load("binary", seed, {"x_pos": pos, "x_neg": neg,
                                "x": train_ds.rows[:, :2]}, tags)

    def acc(ds):
        def f(t):
            v = _truths(t, "A(x)", x=ds.rows[:, :2])
            return float(((v > 0.5) == (ds.col("label") == 1.0)).mean())
        return f

    _, recs = learn(th, train, data={"x_pos": pos, "x_neg": neg},
                    metrics={"train_accuracy": acc(train_ds),
                             "test_accuracy": acc(test_ds)})
    g = np.linspace(0.0, 1.0, 50)
    xx, yy = np.meshgrid(g, g)
    grid = np.column_stack([xx.ravel(), yy.ravel()])
    truth = _truths(th, "A(x)", x=grid)
    final = {"sat": recs[-1]["sat"],
             "train_accuracy": recs[-1]["train_accuracy"],
             "test_accuracy": recs[-1]["test_accuracy"]}
    art = {"decision_grid": (("x1", "x2", "truth"),
                             np.column_stack([grid, truth]).tolist())}
    return DemoResult("binary", seed, recs, final, art, th)


def _classify_demo(demo, seed, train, dataset, label_col, labels,
                   feature_cols, tags=None):
    """Shared driver for the single-label classifier demos."""
    rng = np.random.default_rng([seed, 2])
    tr, te = split_stratified(rng, dataset.col(label_col), 0.75)
    train_ds, test_ds = dataset.take(tr), dataset.take(te)
    feats = train_ds.cols(*feature_cols)
    binds = {"x": feats}
    for k, lname in enumerate(labels):
        binds[f"x{k}"] = feats[train_ds.col(label_col) == k]
    th = _load(demo, seed, binds, tags)

    def acc(ds):
        rows = ds.cols(*feature_cols)
        want = ds.col(label_col)

        def f(t):
            scores = _label_scores(t, rows, labels)
            return float((np.argmax(scores, axis=1) == want).mean())
        return f

    _, recs = learn(th, train,
                    data={f"x{k}": binds[f"x{k}"] for k in range(len(labels))},
                    metrics={"train_accuracy": acc(train_ds),
                             "test_accuracy": acc(test_ds)})
    rows = test_ds.cols(*feature_cols)
    pred = np.argmax(_label_scores(th, rows, labels), axis=1)
    final = {"sat": recs[-1]["sat"],
             "train_accuracy": recs[-1]["train_accuracy"],
             "test_accuracy": recs[-1]["test_accuracy"]}
    art_rows = np.column_stack([rows, test_ds.col(label_col), pred]).tolist()
    art = {"test_predictions": (tuple(feature_cols) + (label_col, "predicted"),
                                art_rows)}
    return DemoResult(demo, seed, recs, final, art, th)


def run_multiclass(seed: int, train: TrainConfig, tags=None) -> DemoResult:
    ds = bundled("iris_like")
    return _classify_demo("multiclass", seed, train, ds, "species",
                          ("l0", "l1", "l2"),
                          ("sepal_len", "sepal_wid", "petal_len",
                           "petal_wid"), tags)


MULTILABEL_QUERIES = {
    "phi1": "forall x: (P(x, l_blue) -> ~P(x, l_orange))",
    "phi2": "forall x: (P(x, l_blue) -> P(x, l_orange))",
    "phi3": "forall x: (P(x, l_blue) -> P(x, l_male))",
}


def run_multilabel(seed: int, train: TrainConfig, tags=None) -> DemoResult:
    ds = bundled("crabs_like")
    feature_cols = ("fl", "rw", "cl", "cw", "bd")
    strata = 2 * ds.col("color") + ds.col("sex")
    rng = np.random.default_rng([seed, 3])
    tr, te = split_stratified(rng, strata, 0.75)
    train_ds, test_ds = ds.take(tr), ds.take(te)
    feats = train_ds.cols(*feature_cols)
    binds = {"x": feats,
             "x_blue": feats[train_ds.col("color") == 0.0],
             "x_orange": feats[train_ds.col("color") == 1.0],
             "x_male": feats[train_ds.col("sex") == 0.0],
             "x_female": feats[train_ds.col("sex") == 1.0]}
    th = _load("multilabel", seed, binds, tags)
    labels = ("l_blue", "l_orange", "l_male", "l_female")

    def targets(d):
        color, sex = d.col("color"), d.col("sex")
        return np.column_stack([color == 0, color == 1, sex == 0, sex == 1])

    def acc(d):
        rows, want = d.cols(*feature_cols), targets(d)

        def f(t):
            hl = ((_label_scores(t, rows, labels) > 0.5) != want).mean()
            return float(1.0 - hl)
        return f

    metrics = {"train_accuracy": acc(train_ds), "test_accuracy": acc(test_ds)}
    for name, phi in MULTILABEL_QUERIES.items():
        metrics[name] = (lambda t, phi=phi:
                         truth_value(t, phi, forall_p=5,
                                     data={"x": test_ds.cols(*feature_cols)}))
    _, recs = learn(th, train,
                    data={k: binds[k] for k in binds if k != "x"},
                    metrics=metrics)
    final = {"sat": recs[-1]["sat"],
             "train_accuracy": recs[-1]["train_accuracy"],
             "test_accuracy": recs[-1]["test_accuracy"]}
    for name in MULTILABEL_QUERIES:
        final[name] = recs[-1][name]
    scores = _label_scores(th, test_ds.cols(*feature_cols), labels)
    art_rows = np.column_stack([test_ds.cols(*feature_cols),
                                targets(test_ds), scores]).tolist()
    cols = feature_cols + ("is_blue", "is_orange", "is_male", "is_female",
                           "s_blue", "s_orange", "s_male", "s_female")
    return DemoResult("multilabel", seed, recs, final,
                      {"test_predictions": (cols, art_rows)}, th)


def _addition_demo(demo, seed, train, kind, blocks, tags=None):
    parts = make_addition(seed, kind, *(600, 300) if kind == "single"
                          else (500, 200))
    train_ds, test_ds = parts["train"], parts["test"]

    def block_cols(prefix):
        return [f"{prefix}{i}" for i in range(10)]

    binds = {b: train_ds.cols(*block_cols(p)) for b, p in blocks.items()}
    binds["n"] = train_ds.col("n")
    th = _load(demo.replace("-", "_"), seed, binds, tags)

    def digits(t, rows):
        v = _truths(t, "digit_is(x, d1)" if "x" in blocks else
                    "digit_is(x1, d1)",
                    **{("x" if "x" in blocks else "x1"): rows})
        return np.argmax(v, axis=1)

    def acc(ds):
        feats = {b: ds.cols(*block_cols(p)) for b, p in blocks.items()}

        def f(t):
            d = {b: digits(t, feats[b]) for b in blocks}
            if kind == "single":
                pred = d["x"] + d["y"]
            else:
                pred = 10 * d["x1"] + d["x2"] + 10 * d["y1"] + d["y2"]
            return float((pred == ds.col("n")).mean())
        return f

    _, recs = learn(th, train, data=binds,
                    metrics={"train_accuracy": acc(train_ds),
                             "test_accuracy": acc(test_ds)})
    final = {"sat": recs[-1]["sat"],
             "train_accuracy": recs[-1]["train_accuracy"],
             "test_accuracy": recs[-1]["test_accuracy"]}
    feats = {b: test_ds.cols(*block_cols(p)) for b, p in blocks.items()}
    d = {b: digits(th, feats[b]) for b in blocks}
    if kind == "single":
        pred = d["x"] + d["y"]
        cols = ("d1", "d2", "n", "predicted")
        rows = np.column_stack([test_ds.col("d1"), test_ds.col("d2"),
                                test_ds.col("n"), pred]).tolist()
    else:
        pred = 10 * d["x1"] + d["x2"] + 10 * d["y1"] + d["y2"]
        cols = ("d1", "d2", "d3", "d4", "n", "predicted")
        rows = np.column_stack([test_ds.col("d1"), test_ds.col("d2"),
                                test_ds.col("d3"), test_ds.col("d4"),
                                test_ds.col("n"), pred]).tolist()
    return DemoResult(demo, seed, recs, final,
                      {"test_predictions": (cols, rows)}, th)


def run_addition_single(seed: int, train: TrainConfig, tags=None) -> DemoResult:
    return _addition_demo("addition-single", seed, train, "single",
                          {"x": "x", "y": "y"}, tags)


def run_addition_multi(seed: int, train: TrainConfig, tags=None) -> DemoResult:
    return _addition_demo("addition-multi", seed, train, "multi",
                          {"x1": "x1_", "x2": "x2_", "y1": "y1_",
                           "y2": "y2_"}, tags)


def run_regression(seed: int, train: TrainConfig, tags=None) -> DemoResult:
    ds = bundled("real_estate_like")
    feature_cols = ("date", "age", "dist_station", "stores", "lat", "lon")
    rng = np.random.default_rng([seed, 5])
    order = rng.permutation(len(ds))
    tr, te = order[:330], order[330:]
    train_ds, test_ds = ds.take(tr), ds.take(te)
    th = _load("regression", seed,
               {"x": train_ds.cols(*feature_cols),
                "y": train_ds.col("price")}, tags)
    fx = App("f", (Var("x"),))

    def rmse(d):
        rows, want = d.cols(*feature_cols), d.col("price")

        def f(t):
            pred = query(t, "generalization-value", fx,
                         data={"x": rows}).values[:, 0]
            return float(np.sqrt(np.mean((pred - want) ** 2)))
        return f

    _, recs = learn(th, train,
                    data={"x": train_ds.cols(*feature_cols),
                          "y": train_ds.col("price")},
                    metrics={"rmse_train": rmse(train_ds),
                             "rmse_test": rmse(test_ds)})
    final = {"sat": recs[-1]["sat"],
             "rmse_train": recs[-1]["rmse_train"],
             "rmse_test": recs[-1]["rmse_test"],
             "rmse_ratio": recs[-1]["rmse_test"] / recs[0]["rmse_test"]}
    pred = query(th, "generalization-value", fx,
                 data={"x": test_ds.cols(*feature_cols)}).values[:, 0]
    rows = np.column_stack([test_ds.col("price"), pred]).tolist()
    return DemoResult("regression", seed, recs, final,
                      {"test_predictions": (("price", "predicted"), rows)},
                      th)


def run_clustering(seed: int, train: TrainConfig, tags=None) -> DemoResult:
    pts, centers = make_clustering(seed)
    xy = pts.cols("x1", "x2")
    th = _load("clustering", seed, {"x": xy, "y": xy}, tags)
    _, recs = learn(th, train)  # full batch: variables stay statically bound
    scores = _truths(th, "C(x, c)", x=xy)
    assign = np.argmax(scores, axis=1)
    blob = pts.col("blob").astype(int)
    agree = 0
    for b in np.unique(blob):
        members = assign[blob == b]
        agree += (members == np.bincount(members).argmax()).sum()
    final = {"sat": recs[-1]["sat"],
             "purity": float(agree / len(pts))}
    rows = np.column_stack([xy, blob, assign]).tolist()
    art = {"assignments": (("x1", "x2", "blob", "cluster"), rows),
           "centers": (("x1", "x2"), centers.tolist())}
    return DemoResult("clustering", seed, recs, final, art, th)


SMOKERS_QUERIES = {
    "phi1": "forall x: (C(x) -> S(x))",
    "phi2": "forall x, y: ((C(x) | C(y)) -> F(x, y))",
}


def smoker_facts(theory) -> tuple:
    """The smokers theory's people: the constants grounding ``var x``, in
    the axis order of ``S(x)``. perfbench times it as a data maker."""
    return theory.env.var_consts("x")


def run_smokers(seed: int, train: TrainConfig, tags=None) -> DemoResult:
    th = _load("smokers", seed, tags=tags)
    by_label = {ax.label: ax for ax in th.axioms}

    metrics = {name: (lambda t, phi=phi: truth_value(t, phi, forall_p=5))
               for name, phi in SMOKERS_QUERIES.items()}
    metrics["symmetry"] = (
        lambda t: float(axiom_truth(t, by_label["symmetric"]).data))
    _, recs = learn(th, train, metrics=metrics)
    final = {"sat": recs[-1]["sat"]}
    for k in ("phi1", "phi2", "symmetry"):
        final[k] = recs[-1][k]

    people = smoker_facts(th)
    s = _truths(th, "S(x)")
    c = _truths(th, "C(x)")
    fr = _truths(th, "F(x, y)")
    facts = [[p, float(s[i]), float(c[i])] for i, p in enumerate(people)]
    pairs = [[u, v, float(fr[i, j])] for i, u in enumerate(people)
             for j, v in enumerate(people)]
    emb = [[p] + list(th.store.get(f"const/{p}").data)
           for p in people]
    art = {"facts": (("person", "smokes", "cancer"), facts),
           "friendships": (("u", "v", "truth"), pairs),
           "embeddings": (("person",) + tuple(f"e{k}" for k in range(5)),
                          emb)}
    return DemoResult("smokers", seed, recs, final, art, th)


def run_refute(seed: int, train: TrainConfig, tags=None) -> DemoResult:
    rcfg = RefutationConfig(epochs=train.epochs)
    rr = reason_refute(lambda s: _load("refute", seed + s, tags=tags),
                       "A", rcfg)
    recs = [{"epoch": i, "sat": r.sat, "loss": 1.0 - r.sat, "phi": r.phi}
            for i, r in enumerate(rr.runs)]
    counter = rr.counterexample or {}
    final = {"entailed": float(rr.entailed), "sat": rr.sat, "phi": rr.phi,
             "counter_a": float(counter.get("A", math.nan)),
             "counter_b": float(counter.get("B", math.nan))}
    art = {}
    if counter:
        art["counterexample"] = (("slot", "value"),
                                 [[k, float(v)] for k, v in counter.items()])
    return DemoResult("refute", seed, recs, final, art, None)


class Demo(NamedTuple):
    """A demo's runner, its default training settings (the seed is set
    per run) and its --self-check thresholds: metric -> (op, bound)."""
    run: Callable
    train: TrainConfig
    thresholds: dict


DEMOS = {
    "binary": Demo(
        run_binary, TrainConfig(epochs=1000, batch=64, log_every=50),
        {"test_accuracy": (">=", 0.9)}),
    "multiclass": Demo(
        run_multiclass,
        TrainConfig(epochs=500, batch=64, lr=0.005, log_every=25),
        {"test_accuracy": (">=", 0.9)}),
    "multilabel": Demo(
        run_multilabel, TrainConfig(epochs=1000, batch=64, log_every=50),
        {"test_accuracy": (">=", 0.9), "phi1": (">", 0.7),
         "phi2": ("<", 0.3), "phi3": ("<", 0.3)}),
    "addition-single": Demo(
        run_addition_single,
        TrainConfig(epochs=150, batch=32, log_every=10,
                    exists_schedule=("linear", 1.0, 6.0)),
        {"test_accuracy": (">=", 0.85)}),
    "addition-multi": Demo(
        run_addition_multi,
        TrainConfig(epochs=200, batch=32, log_every=20,
                    exists_schedule=("linear", 1.0, 6.0)),
        {"test_accuracy": (">=", 0.85)}),
    "regression": Demo(
        run_regression, TrainConfig(epochs=500, batch=64, log_every=25),
        {"rmse_ratio": ("<", 0.25), "sat": (">", 0.4)}),
    "clustering": Demo(
        run_clustering,
        TrainConfig(epochs=1000, log_every=50,
                    exists_schedule=((0, 1.0), (100, 6.0))),
        {"sat": (">=", 0.80), "purity": (">=", 0.95)}),
    "smokers": Demo(
        run_smokers,
        TrainConfig(epochs=1000, log_every=50,
                    exists_schedule=((0, 1.0), (200, 6.0))),
        {"sat": (">", 0.7), "phi1": (">", 0.8), "phi2": ("<", 0.4),
         "symmetry": (">=", 0.9)}),
    "refute": Demo(
        run_refute, TrainConfig(epochs=2000),
        {"entailed": ("==", 0.0), "sat": (">=", 0.95),
         "counter_a": ("<", 0.05), "counter_b": (">", 0.95)}),
}

DEMO_IDS = tuple(DEMOS)

_OPS = {">=": operator.ge, ">": operator.gt, "<": operator.lt,
        "==": operator.eq}


def default_train(demo: str, seed: int) -> TrainConfig:
    if demo not in DEMOS:
        raise ValueError(f"unknown demo {demo!r}; choose from "
                         + ", ".join(DEMO_IDS))
    return replace(DEMOS[demo].train, seed=seed)


# -- orchestration ----------------------------------------------------------------


def run_demo(demo: str, seed: int = 0, train: TrainConfig = None,
             out=None, tags=None) -> DemoResult:
    """Run one demo end to end; write outputs when ``out`` is given."""
    default = default_train(demo, seed)  # rejects an unknown demo
    result = DEMOS[demo].run(seed, train or default, tags)
    if out is not None:
        write_outputs(result, out)
    return result


def write_outputs(result: DemoResult, out) -> None:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics(result.records, jsonl_path=out / "metrics.jsonl",
                  csv_path=out / "metrics.csv")
    if result.theory is not None:
        result.theory.store.save(out / "params.bin")
    for name, (cols, rows) in result.artifacts.items():
        _write_table(out / f"{name}.csv", cols, rows)


def _write_table(path, cols, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for row in rows:
            w.writerow([c if isinstance(c, str) else repr(float(c))
                        for c in row])


def self_check(demo: str, final: dict) -> list:
    """Compare a demo's final metrics against its thresholds.

    Returns a list of (metric, ok, got, op, bound) tuples.
    """
    report = []
    for metric, (op, bound) in DEMOS[demo].thresholds.items():
        got = final.get(metric, math.nan)
        ok = bool(_OPS[op](got, bound)) and not math.isnan(got)
        report.append((metric, ok, got, op, bound))
    return report


def _run_for_pool(args):
    demo, seed, train, tags = args
    result = run_demo(demo, seed=seed, train=train, tags=tags)
    return result.final


def run_many(demo: str, runs: int, seed: int = 0, train: TrainConfig = None,
             tags=None) -> dict:
    """Run ``runs`` seeds in parallel; mean with a 95% normal CI per metric."""
    seeds = [seed + i for i in range(runs)]
    args = [(demo, s, None if train is None else replace(train, seed=s), tags)
            for s in seeds]
    if runs == 1:
        finals = [_run_for_pool(args[0])]
    else:
        with Pool(min(runs, os.cpu_count() or 1)) as pool:
            finals = pool.map(_run_for_pool, args)
    z = NormalDist().inv_cdf(0.975)
    summary = {}
    for key in finals[0]:
        vals = np.array([f[key] for f in finals], dtype=float)
        ci = z * vals.std(ddof=1) / math.sqrt(runs) if runs > 1 else 0.0
        summary[key] = {"mean": float(vals.mean()), "ci95": float(ci),
                        "runs": [float(v) for v in vals]}
    return summary
