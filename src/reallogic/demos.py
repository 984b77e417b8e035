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

from reallogic import parser
from reallogic.assemble import load_theory
from reallogic.datasets import (
    bundled, digit_cols, make_addition, make_binary, make_clustering,
    place_values, split_stratified,
)
from reallogic.logic import App, Var
from reallogic.training import (
    RefutationConfig, TrainConfig, learn, query, reason_refute, truth_value,
    write_metrics,
)


def theory_path(name: str) -> Path:
    return Path(__file__).parent / "theories" / f"{name}.rl"


def _load(name, seed, data=None, tags=None):
    return load_theory(theory_path(name), seed=seed, data=data, tags=tags)


@dataclass
class DemoResult:
    records: list     # training metric stream
    final: dict       # headline numbers for self-check and aggregation
    artifacts: dict   # name -> (columns, rows); cells may be str or float
    theory: object


# -- shared helpers -------------------------------------------------------------


def _parsed(theory, *texts) -> list:
    """Each formula text parsed once, at set-up, against the theory's
    signature; the demos query these ASTs on every metric call. The
    parser is looked up on its module, where perfbench counts calls."""
    return [parser.parse_formula(text, theory.sig) for text in texts]


def _truths(theory, expr, **binds):
    if binds:
        return query(theory, "generalization-truth", expr,
                     data={k: np.asarray(v) for k, v in binds.items()}).values
    return query(theory, "truth", expr).values


def _label_scores(theory, rows, atoms):
    """Stack the truth columns of the parsed atoms ``P(x, l)`` on
    ``rows``, one per label constant ``l``."""
    return np.column_stack([_truths(theory, a, x=rows) for a in atoms])


def _final(recs, **extra) -> dict:
    """A run's headline numbers: its last record but the epoch and the
    loss, plus ``extra`` metrics that no record holds."""
    return {k: v for k, v in recs[-1].items()
            if k not in ("epoch", "loss")} | extra


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
    (a_x,) = _parsed(th, "A(x)")

    def acc(ds):
        def f(t):
            v = _truths(t, a_x, x=ds.rows[:, :2])
            return float(((v > 0.5) == (ds.col("label") == 1.0)).mean())
        return f

    recs = learn(th, train, batched=("x_pos", "x_neg"),
                 metrics={"train_accuracy": acc(train_ds),
                          "test_accuracy": acc(test_ds)})
    g = np.linspace(0.0, 1.0, 50)
    xx, yy = np.meshgrid(g, g)
    grid = np.column_stack([xx.ravel(), yy.ravel()])
    truth = _truths(th, a_x, x=grid)
    art = {"decision_grid": (("x1", "x2", "truth"),
                             np.column_stack([grid, truth]).tolist())}
    return DemoResult(recs, _final(recs), art, th)


def run_multiclass(seed: int, train: TrainConfig, tags=None) -> DemoResult:
    ds = bundled("iris_like")
    feature_cols = ("sepal_len", "sepal_wid", "petal_len", "petal_wid")
    labels = ("l0", "l1", "l2")
    rng = np.random.default_rng([seed, 2])
    tr, te = split_stratified(rng, ds.col("species"), 0.75)
    train_ds, test_ds = ds.take(tr), ds.take(te)
    feats = train_ds.cols(*feature_cols)
    binds = {"x": feats}
    for k in range(len(labels)):
        binds[f"x{k}"] = feats[train_ds.col("species") == k]
    th = _load("multiclass", seed, binds, tags)
    atoms = _parsed(th, *(f"P(x, {l})" for l in labels))

    def acc(d):
        rows, want = d.cols(*feature_cols), d.col("species")

        def f(t):
            scores = _label_scores(t, rows, atoms)
            return float((np.argmax(scores, axis=1) == want).mean())
        return f

    recs = learn(th, train, batched=[k for k in binds if k != "x"],
                 metrics={"train_accuracy": acc(train_ds),
                          "test_accuracy": acc(test_ds)})
    rows = test_ds.cols(*feature_cols)
    pred = np.argmax(_label_scores(th, rows, atoms), axis=1)
    art_rows = np.column_stack([rows, test_ds.col("species"), pred]).tolist()
    art = {"test_predictions": (feature_cols + ("species", "predicted"),
                                art_rows)}
    return DemoResult(recs, _final(recs), art, th)


def run_multilabel(seed: int, train: TrainConfig, tags=None) -> DemoResult:
    ds = bundled("crabs_like")
    feature_cols = ("fl", "rw", "cl", "cw", "bd")
    strata = 2 * ds.col("color") + ds.col("sex")
    rng = np.random.default_rng([seed, 3])
    tr, te = split_stratified(rng, strata, 0.75)
    train_ds, test_ds = ds.take(tr), ds.take(te)
    feats, test_rows = train_ds.cols(*feature_cols), test_ds.cols(*feature_cols)
    binds = {"x": feats,
             "x_blue": feats[train_ds.col("color") == 0.0],
             "x_orange": feats[train_ds.col("color") == 1.0],
             "x_male": feats[train_ds.col("sex") == 0.0],
             "x_female": feats[train_ds.col("sex") == 1.0],
             "x_test": test_rows}
    th = _load("multilabel", seed, binds, tags)
    labels = ("l_blue", "l_orange", "l_male", "l_female")
    atoms = _parsed(th, *(f"P(x, {l})" for l in labels))

    def targets(d):
        color, sex = d.col("color"), d.col("sex")
        return np.column_stack([color == 0, color == 1, sex == 0, sex == 1])

    def acc(d):
        rows, want = d.cols(*feature_cols), targets(d)

        def f(t):
            hl = ((_label_scores(t, rows, atoms) > 0.5) != want).mean()
            return float(1.0 - hl)
        return f

    recs = learn(th, train,
                 batched=("x_blue", "x_orange", "x_male", "x_female"),
                 metrics={"train_accuracy": acc(train_ds),
                          "test_accuracy": acc(test_ds)})
    scores = _label_scores(th, test_rows, atoms)
    art_rows = np.column_stack([test_rows, targets(test_ds), scores]).tolist()
    cols = feature_cols + ("is_blue", "is_orange", "is_male", "is_female",
                           "s_blue", "s_orange", "s_male", "s_female")
    return DemoResult(recs, _final(recs),
                      {"test_predictions": (cols, art_rows)}, th)


def _addition_demo(demo, seed, train, operands, sizes, tags=None):
    """Guarded-sum training over one digit classifier; ``operands`` and
    ``sizes`` (train and test counts) go to ``make_addition``."""
    parts = make_addition(seed, operands, *sizes)
    train_ds, test_ds = parts["train"], parts["test"]
    blocks = [b for op in operands for b in op]
    place = place_values(operands)
    binds = {b: train_ds.cols(*digit_cols(b)) for b in blocks}
    binds["n"] = train_ds.col("n")
    th = _load(demo.replace("-", "_"), seed, binds, tags)
    x = blocks[0]  # one classifier reads every block, through this var
    (digit,) = _parsed(th, f"digit_is({x}, d1)")

    def summed(t, ds):
        """The sum of the classifier's digits on each row of ``ds``."""
        return sum(p * np.argmax(_truths(t, digit,
                                         **{x: ds.cols(*digit_cols(b))}),
                                 axis=1)
                   for p, b in zip(place, blocks))

    def acc(ds):
        return lambda t: float((summed(t, ds) == ds.col("n")).mean())

    recs = learn(th, train, batched=list(binds),
                 metrics={"train_accuracy": acc(train_ds),
                          "test_accuracy": acc(test_ds)})
    pred = summed(th, test_ds)
    cols = test_ds.columns[-len(blocks) - 1:]  # the digits, then n
    rows = np.column_stack([test_ds.cols(*cols), pred]).tolist()
    return DemoResult(recs, _final(recs),
                      {"test_predictions": (cols + ("predicted",), rows)}, th)


def run_addition_single(seed: int, train: TrainConfig, tags=None) -> DemoResult:
    return _addition_demo("addition-single", seed, train, (("x",), ("y",)),
                          (600, 300), tags)


def run_addition_multi(seed: int, train: TrainConfig, tags=None) -> DemoResult:
    return _addition_demo("addition-multi", seed, train,
                          (("x1", "x2"), ("y1", "y2")), (500, 200), tags)


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

    recs = learn(th, train, batched=("x", "y"),
                 metrics={"rmse_train": rmse(train_ds),
                          "rmse_test": rmse(test_ds)})
    pred = query(th, "generalization-value", fx,
                 data={"x": test_ds.cols(*feature_cols)}).values[:, 0]
    rows = np.column_stack([test_ds.col("price"), pred]).tolist()
    final = _final(recs,
                   rmse_ratio=recs[-1]["rmse_test"] / recs[0]["rmse_test"])
    return DemoResult(recs, final,
                      {"test_predictions": (("price", "predicted"), rows)},
                      th)


def run_clustering(seed: int, train: TrainConfig, tags=None) -> DemoResult:
    pts, centers = make_clustering(seed)
    xy = pts.cols("x1", "x2")
    th = _load("clustering", seed, {"x": xy, "y": xy}, tags)
    (c_xc,) = _parsed(th, "C(x, c)")
    recs = learn(th, train)  # full batch: variables stay statically bound
    scores = _truths(th, c_xc, x=xy)
    assign = np.argmax(scores, axis=1)
    blob = pts.col("blob").astype(int)
    agree = 0
    for b in np.unique(blob):
        members = assign[blob == b]
        agree += (members == np.bincount(members).argmax()).sum()
    rows = np.column_stack([xy, blob, assign]).tolist()
    art = {"assignments": (("x1", "x2", "blob", "cluster"), rows),
           "centers": (("x1", "x2"), centers.tolist())}
    return DemoResult(recs, _final(recs, purity=float(agree / len(pts))),
                      art, th)


def smoker_facts(theory) -> tuple:
    """The smokers theory's people: the constants grounding ``var x``, in
    the axis order of ``S(x)``. perfbench times it as a data maker."""
    return theory.env.instances("x")


def run_smokers(seed: int, train: TrainConfig, tags=None) -> DemoResult:
    th = _load("smokers", seed, tags=tags)
    (symmetric,) = [ax for ax in th.axioms if ax.label == "symmetric"]
    s_x, c_x, f_xy = _parsed(th, "S(x)", "C(x)", "F(x, y)")
    recs = learn(th, train, metrics={
        "symmetry": lambda t: truth_value(t, symmetric.formula,
                                          p=symmetric.p)})
    people = smoker_facts(th)
    s = _truths(th, s_x)
    c = _truths(th, c_x)
    fr = _truths(th, f_xy)
    facts = [[p, float(s[i]), float(c[i])] for i, p in enumerate(people)]
    pairs = [[u, v, float(fr[i, j])] for i, u in enumerate(people)
             for j, v in enumerate(people)]
    emb = [[p] + list(th.store.get(f"const/{p}").data)
           for p in people]
    art = {"facts": (("person", "smokes", "cancer"), facts),
           "friendships": (("u", "v", "truth"), pairs),
           "embeddings": (("person",) + tuple(f"e{k}" for k in range(5)),
                          emb)}
    return DemoResult(recs, _final(recs), art, th)


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
    return DemoResult(recs, final, art, None)


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
                    exists_schedule=((0, 1.0), (40, 2.0), (80, 4.0),
                                     (120, 6.0))),
        {"test_accuracy": (">=", 0.85)}),
    "addition-multi": Demo(
        run_addition_multi,
        TrainConfig(epochs=200, batch=32, log_every=20,
                    exists_schedule=((0, 1.0), (50, 2.0), (100, 4.0),
                                     (150, 6.0))),
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
