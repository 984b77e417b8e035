"""Command line front end: bundled demos, training, queries, refutation."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from reallogic import demos
from reallogic.assemble import TheoryError, load_theory
from reallogic.fuzzy import CONFIG_KEYS, FuzzyConfig
from reallogic.logic import EvalError
from reallogic.nn import ParamStore
from reallogic.parser import ParseError
from reallogic.training import (
    RefutationConfig, SettingsError, TrainConfig, learn, query, reason_refute,
    truth_value,
)


def _schedule(text: str):
    """An exists schedule: ``none``, or ``epoch:p`` pairs split by commas
    (``0:1, 40:2`` is ``((0, 1.0), (40, 2.0))``)."""
    if text == "none":
        return None
    pairs = [item.split(":") for item in text.split(",")]
    return tuple((int(epoch), float(p)) for epoch, p in pairs)


# the TrainConfig fields but seed, each with the function that parses it;
# the seed also builds the theory and the data, so only --seed sets it
TRAIN_KEYS = {**{f.name: type(f.default) for f in fields(TrainConfig)
                 if type(f.default) in (int, float, str) and f.name != "seed"},
              "exists_schedule": _schedule}

TRAIN_EPOCHS = 1000  # rl train's epochs when neither flag nor file sets them


def read_config(path):
    """Flat ``key = value`` lines; blank lines and # comments are skipped.

    Returns ``(train, tags)``. A key is either a TrainConfig field other
    than the seed (epochs, batch, lr, reg, lam, log_every, and
    exists_schedule as ``none`` or ``0:1, 40:2``), parsed into ``train``
    with the field's parser, or a ``fuzzy.CONFIG_KEYS`` operator key
    (not, and, or, implies, forall, exists, agg, eq_alpha), kept as text
    in ``tags`` in the same form the theory files use. Any other key
    (``seed`` included: only ``--seed`` sets it), a line without ``=``,
    or a value that does not parse or that TrainConfig rejects exits
    with its file:line.
    """
    train, tags = {}, {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise SystemExit(f"{path}:{ln}: expected key = value")
        key, val = key.strip(), val.strip()
        if key in TRAIN_KEYS:
            try:
                train[key] = TRAIN_KEYS[key](val)
            except ValueError:
                raise SystemExit(f"{path}:{ln}: bad value for {key!r}")
            try:
                TrainConfig(**{key: train[key]})
            except ValueError as e:
                raise SystemExit(
                    f"{path}:{ln}: bad value for {key!r}: {e}") from None
        elif key in CONFIG_KEYS:
            try:
                FuzzyConfig().with_tag(key, val)
            except ValueError as e:
                raise SystemExit(
                    f"{path}:{ln}: bad value for {key!r}: {e}") from None
            tags[key] = val
        else:
            raise SystemExit(f"{path}:{ln}: unknown config key {key!r}")
    return train, tags


def _resolve_train(args, base: TrainConfig):
    """The run's TrainConfig and operator tags: ``--epochs`` beats an
    ``epochs`` key of the ``--config`` file, and the file's keys beat
    ``base``. A value that TrainConfig rejects exits with its message."""
    train_kv, tags = read_config(args.config) if args.config else ({}, {})
    if args.epochs is not None:
        train_kv["epochs"] = args.epochs
    try:
        return replace(base, **train_kv), tags
    except ValueError as e:
        raise SystemExit(f"bad training settings: {e}") from None


def _report_checks(report) -> int:
    bad = 0
    for metric, ok, got, op, bound in report:
        word = "ok" if ok else "FAIL"
        print(f"self-check {word}: {metric} = {got:.4f} (want {op} {bound})")
        bad += not ok
    return 1 if bad else 0


def _load_kb(args, seed: int, tags=None):
    """The ``--kb`` theory; a file that cannot be read exits with one
    line."""
    try:
        return load_theory(args.kb, seed=seed, tags=tags)
    except OSError as e:
        raise SystemExit(f"--kb: {e}") from None


def cmd_demo(args) -> int:
    if args.runs < 1:
        raise SystemExit(f"--runs must be at least 1, got {args.runs}")
    train, tags = _resolve_train(args, demos.default_train(args.id, args.seed))
    if args.runs > 1:
        summary = demos.run_many(args.id, args.runs, seed=args.seed,
                                 train=train, tags=tags)
        for k in sorted(summary):
            s = summary[k]
            print(f"{k}: {s['mean']:.4f} +/- {s['ci95']:.4f} "
                  f"(n={args.runs})")
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "summary.json").write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n")
        if args.self_check:
            final = {k: s["mean"] for k, s in summary.items()}
            return _report_checks(demos.self_check(args.id, final))
        return 0
    result = demos.run_demo(args.id, seed=args.seed, train=train,
                            out=args.out, tags=tags)
    for k in sorted(result.final):
        print(f"{k}: {result.final[k]:.4f}")
    if args.self_check:
        return _report_checks(demos.self_check(args.id, result.final))
    return 0


def cmd_train(args) -> int:
    train, tags = _resolve_train(
        args, TrainConfig(epochs=TRAIN_EPOCHS, seed=args.seed))
    th = _load_kb(args, args.seed, tags)
    recs = learn(th, train)
    print(f"Sat = {recs[-1]['sat']:.4f} after {train.epochs} epochs")
    for q in th.queries:
        print(f"{q.label} = {recs[-1][q.label]:.4f}")
    if args.out:
        demos.write_outputs(demos.DemoResult(recs, {}, {}, th), args.out)
        out = Path(args.out)
        print(f"wrote {out / 'metrics.jsonl'}, {out / 'metrics.csv'}, "
              f"{out / 'params.bin'}")
    return 0


def cmd_query(args) -> int:
    if args.formula is None and (args.forall_p, args.exists_p) != (None, None):
        raise SystemExit("--forall-p and --exists-p need --formula; a "
                         "declared query runs under its own annotations")
    th = _load_kb(args, args.seed)
    if args.params:
        try:
            th.store.copy_from(ParamStore.load(args.params))
        except (OSError, ValueError) as e:
            raise SystemExit(f"--params: {e}") from None
    if args.formula is None:  # the theory's declared queries, as learn records them
        if not th.queries:
            raise SystemExit(f"{args.kb}: no declared query; give --formula")
        for q in th.queries:
            print(f"{q.label} = {truth_value(th, q.formula, p=q.p)!r}")
        return 0
    try:  # a p the operators cannot take fails when the query is planned
        res = query(th, "truth", args.formula,
                    p={"forall": args.forall_p, "exists": args.exists_p})
    except ValueError as e:
        raise SystemExit(str(e)) from None
    if res.values.ndim == 0:
        print(f"{float(res.values):.6f}")
    else:
        print("axes: " + ", ".join(res.vars))
        print(np.array2string(res.values, precision=6))
    return 0


def cmd_refute(args) -> int:
    try:
        rcfg = RefutationConfig(q=args.q, epochs=args.epochs,
                                restarts=args.restarts)
    except ValueError as e:
        raise SystemExit(f"bad refutation settings: {e}") from None
    try:  # an open formula is rejected before the search
        rr = reason_refute(lambda s: _load_kb(args, args.seed + s),
                           args.formula, rcfg)
    except ValueError as e:
        raise SystemExit(str(e)) from None
    print(rr)
    if rr.counterexample:
        print("counterexample:")
        for n in sorted(rr.counterexample):
            v = np.asarray(rr.counterexample[n])
            print(f"  {n} = {np.array2string(v, precision=4)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="rl",
        description="Differentiable first-order theories: demos, "
                    "training, querying, and refutation search.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("demo", help="run a bundled demonstration")
    d.add_argument("id", choices=demos.DEMO_IDS)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--runs", type=int, default=1,
                   help="independent seeds run in parallel; prints "
                        "mean +/- 95%% CI per metric")
    d.add_argument("--epochs", type=int, help="override training epochs")
    d.add_argument("--config", help="key = value override file")
    d.add_argument("--out", help="directory for metrics, params, artifacts")
    d.add_argument("--self-check", action="store_true",
                   help="compare final metrics against the demo's "
                        "published thresholds; nonzero exit on miss")
    d.set_defaults(fn=cmd_demo)

    t = sub.add_parser("train", help="maximize satisfiability of a theory")
    t.add_argument("--kb", required=True, help="theory source file")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--epochs", type=int,
                   help="training epochs; beats the --config file's "
                        f"epochs (default {TRAIN_EPOCHS})")
    t.add_argument("--config", help="key = value override file")
    t.add_argument("--out", help="directory for metrics and params")
    t.set_defaults(fn=cmd_train)

    q = sub.add_parser("query", help="evaluate a closed formula's truth, "
                       "or else each query the theory declares")
    q.add_argument("--kb", required=True)
    q.add_argument("--formula")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--params", help="params.bin from an earlier train run")
    q.add_argument("--forall-p", type=float)
    q.add_argument("--exists-p", type=float)
    q.set_defaults(fn=cmd_query)

    r = sub.add_parser("refute", help="search for a counterexample "
                                      "grounding of a formula")
    r.add_argument("--kb", required=True)
    r.add_argument("--formula", required=True)
    r.add_argument("--q", type=float, default=0.95,
                   help="satisfiability threshold the counterexample "
                        "must keep")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--epochs", type=int, default=2000)
    r.add_argument("--restarts", type=int, default=1)
    r.set_defaults(fn=cmd_refute)

    args = ap.parse_args(argv)
    if args.seed < 0:  # every command takes one
        raise SystemExit(f"--seed must be at least 0, got {args.seed}")
    try:  # a theory, formula or training setting that cannot run exits
        return args.fn(args)  # with one line, a theory's led by file:line:col
    except (ParseError, TheoryError, SettingsError, EvalError) as e:
        raise SystemExit(str(e)) from None


if __name__ == "__main__":
    sys.exit(main())
