"""Demo drivers and the command line front end."""

import csv
import json
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from reallogic import cli, demos
from reallogic.assemble import load_theory
from reallogic.demos import (
    DEMO_IDS, DEMOS, default_train, run_demo, run_many, self_check,
    theory_path,
)
from reallogic.nn import ParamStore
from reallogic.parser import parse_theory_file
from reallogic.training import TrainConfig, query


def test_registry_covers_every_demo():
    assert DEMO_IDS == tuple(DEMOS)
    for demo in DEMO_IDS:
        cfg = default_train(demo, 3)
        assert cfg.seed == 3
        assert cfg is not DEMOS[demo].train  # callers may edit their copy


def test_every_demo_runs_and_reports_its_checked_metrics(tmp_path):
    for demo in DEMO_IDS:
        # refute's runner turns the epochs into RefutationConfig(epochs=1)
        train = replace(default_train(demo, 0), epochs=1)
        res = run_demo(demo, 0, train, out=tmp_path / demo)
        assert set(DEMOS[demo].thresholds) <= set(res.final), demo
        # final reads the last record; refute and two extras excepted
        assert demo == "refute" or all(
            k in ("rmse_ratio", "purity") or v == res.records[-1][k]
            for k, v in res.final.items()), demo

    # the smokers artifacts follow the theory's var x order
    doc = parse_theory_file(theory_path("smokers"))
    people = next(s.source[1] for s in doc.statements
                  if getattr(s, "name", None) == "x")

    def table(name):
        with open(tmp_path / "smokers" / f"{name}.csv", newline="") as fh:
            return list(csv.reader(fh))[1:]

    assert [row[0] for row in table("facts")] == list(people)
    friendships = table("friendships")
    assert len(friendships) == 196
    assert [row[:2] for row in friendships] == \
        [[u, v] for u in people for v in people]


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("demo", [
    pytest.param(d, marks=pytest.mark.xfail(
        reason="smokers misses its symmetry threshold at default "
               "settings; see the smokers defect in ROADMAP.md"))
    if d == "smokers" else d for d in DEMO_IDS])
def test_demo_passes_its_self_check_at_default_length(demo, seed):
    res = run_demo(demo, seed)
    report = self_check(demo, res.final)
    assert all(ok for _, ok, *_ in report), report


def test_unknown_demo_rejected():
    with pytest.raises(ValueError, match="unknown demo"):
        run_demo("mnist")
    with pytest.raises(ValueError, match="unknown demo"):
        run_demo("mnist", train=TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="unknown demo"):
        default_train("mnist", 0)


def test_binary_demo_writes_outputs(tmp_path):
    train = TrainConfig(epochs=5, batch=64, seed=0, log_every=5)
    res = run_demo("binary", seed=0, train=train, out=tmp_path)
    assert set(res.final) == {"sat", "train_accuracy", "test_accuracy"}
    assert (tmp_path / "metrics.jsonl").exists()
    assert (tmp_path / "metrics.csv").exists()
    assert (tmp_path / "params.bin").exists()
    grid = (tmp_path / "decision_grid.csv").read_text().splitlines()
    assert grid[0] == "x1,x2,truth"
    assert len(grid) == 1 + 50 * 50


def test_binary_demo_rerun_is_byte_identical(tmp_path):
    train = TrainConfig(epochs=4, batch=64, seed=7, log_every=2)
    run_demo("binary", seed=7, train=train, out=tmp_path / "a")
    run_demo("binary", seed=7, train=train, out=tmp_path / "b")
    for name in ("metrics.jsonl", "metrics.csv", "params.bin",
                 "decision_grid.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_binary_demo_seed_changes_results(tmp_path):
    a = run_demo("binary", seed=0, train=TrainConfig(epochs=4, seed=0))
    b = run_demo("binary", seed=1, train=TrainConfig(epochs=4, seed=1))
    assert a.final != b.final


def test_refute_demo_finds_counterexample():
    res = run_demo("refute", seed=0)
    assert res.final["entailed"] == 0.0
    assert res.final["counter_a"] < 0.05
    assert res.final["counter_b"] > 0.95
    assert all(ok for _, ok, *_ in self_check("refute", res.final))


def test_self_check_flags_misses():
    report = self_check("binary", {"test_accuracy": 0.5})
    assert report == [("test_accuracy", False, 0.5, ">=", 0.9)]
    assert not self_check("binary", {})[0][1]


def test_run_many_aggregates_runs():
    summary = run_many("refute", 2, train=TrainConfig(epochs=400))
    assert summary["entailed"]["mean"] == 0.0
    assert summary["sat"]["ci95"] >= 0.0
    assert len(summary["sat"]["runs"]) == 2


def test_theory_path_points_at_packaged_files():
    for demo in DEMO_IDS:
        assert theory_path(demo.replace("-", "_")).exists()


# -- command line ---------------------------------------------------------------


def test_cli_demo_self_check_exit_codes(capsys):
    rc = cli.main(["demo", "refute", "--self-check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "self-check ok" in out
    assert "FAIL" not in out


def test_cli_demo_epochs_override_and_out(tmp_path, capsys):
    rc = cli.main(["demo", "binary", "--epochs", "3",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "metrics.csv").exists()
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 4  # pre-training record plus one per epoch


def test_cli_demo_runs_summary(tmp_path, capsys):
    rc = cli.main(["demo", "refute", "--runs", "2", "--epochs", "400",
                   "--out", str(tmp_path), "--self-check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "+/-" in out
    assert "self-check ok: sat" in out and "FAIL" not in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["entailed"]["mean"] == 0.0


REFUTE_ARGS = ["refute", "--kb", str(theory_path("refute")), "--formula", "A"]


@pytest.mark.parametrize("argv,message", [
    (["demo", "refute", "--runs", "0"], "--runs must be at least 1, got 0"),
    (["demo", "refute", "--runs", "-3"], "--runs must be at least 1, got -3"),
    (REFUTE_ARGS + ["--restarts", "0"],
     "bad refutation settings: epochs and restarts must be positive"),
    (REFUTE_ARGS + ["--epochs", "0"],
     "bad refutation settings: epochs and restarts must be positive"),
    (REFUTE_ARGS + ["--q", "1.5"],
     "bad refutation settings: q must be in (0.5, 1)"),
    (["demo", "refute", "--seed", "-1"], "--seed must be at least 0, got -1"),
    (["train", "--kb", str(theory_path("refute")), "--seed", "-1"],
     "--seed must be at least 0, got -1"),
    (["query", "--kb", str(theory_path("refute")), "--formula", "A",
      "--seed", "-1"], "--seed must be at least 0, got -1"),
    (REFUTE_ARGS + ["--seed", "-1"], "--seed must be at least 0, got -1"),
], ids=["runs-0", "runs-negative", "restarts-0", "epochs-0", "q-1.5",
        "demo-seed-negative", "train-seed-negative", "query-seed-negative",
        "refute-seed-negative"])
def test_cli_rejects_bad_numeric_flags(argv, message):
    with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
        cli.main(argv)


def _bad_kb(tmp, command, *flags):
    """``command`` on a theory with two diagnostics, and its exit message."""
    kb = tmp / "bad.rl"
    kb.write_text("pred A = scalar\npred A = scalar\naxiom: A | B\n")
    where = str(kb.resolve())
    return ([command, "--kb", str(kb), *flags],
            f"{where}:2:1: symbol 'A' already declared\n"
            f"{where}:3:12: unknown symbol 'B'")


def _cut_params(tmp, cut):
    """The refute theory's parameters, less their last ``cut`` bytes."""
    path = tmp / "params.bin"
    load_theory(theory_path("refute")).store.save(path)
    path.write_bytes(path.read_bytes()[:-cut])
    return str(path)


SMOKERS_QUERY = ["query", "--kb", str(theory_path("smokers")), "--formula"]
REFUTE_QUERY = ["query", "--kb", str(theory_path("refute")), "--formula", "A"]
BAD_INPUT = {  # id: tmp_path -> (argv, the one message it exits with)
    "train-bad-kb": lambda tmp: _bad_kb(tmp, "train", "--epochs", "1"),
    "query-bad-kb": lambda tmp: _bad_kb(tmp, "query", "--formula", "A"),
    "refute-bad-kb": lambda tmp: _bad_kb(tmp, "refute", "--formula", "A"),
    "query-unparsed-formula": lambda tmp: (
        REFUTE_QUERY[:-1] + ["A & C"], "<formula>:1:5: unknown symbol 'C'"),
    "query-ill-typed-formula": lambda tmp: (
        SMOKERS_QUERY + ["forall x: F(x)"],
        "<formula>:1:11: F takes 2 arguments, got 1"),
    "refute-unparsed-formula": lambda tmp: (
        REFUTE_ARGS[:-1] + ["A &"],
        "<formula>:1:4: expected a formula, found 'eof'"),
    "params-missing": lambda tmp: (
        REFUTE_QUERY + ["--params", str(tmp / "none.bin")],
        f"--params: [Errno 2] No such file or directory: "
        f"'{tmp / 'none.bin'}'"),
    "params-cut-short": lambda tmp: (
        REFUTE_QUERY + ["--params", _cut_params(tmp, 8)],
        f"--params: {tmp / 'params.bin'}: slot 'B' of shape () needs 8 "
        f"bytes, found 0"),
    "forall-p-below-1": lambda tmp: (
        SMOKERS_QUERY + ["forall x: S(x)", "--forall-p", "0.5"],
        "forall(p=0.5): p must be >= 1"),
    "forall-p-for-a-mean": lambda tmp: _mean_kb_query(tmp, "--forall-p", "5"),
    "train-missing-kb": lambda tmp: _missing_kb(tmp, "train", "--epochs", "1"),
    "query-missing-kb": lambda tmp: _missing_kb(tmp, "query", "--formula", "A"),
    "query-p-without-formula": lambda tmp: (
        ["query", "--kb", str(theory_path("smokers")), "--forall-p", "3"],
        "--forall-p and --exists-p need --formula; a declared query runs "
        "under its own annotations"),
    "query-without-declared-queries": lambda tmp: (
        ["query", "--kb", str(theory_path("refute"))],
        f"{theory_path('refute')}: no declared query; give --formula"),
    "refute-missing-kb": lambda tmp: _missing_kb(tmp, "refute",
                                                 "--formula", "A"),
    "refute-open-formula": lambda tmp: (
        ["refute", "--kb", str(theory_path("smokers")),
         "--formula", "S(x) & F(x, y)"],
        "refuted formula is not closed: free x, y"),
    "train-annotation-below-1": lambda tmp: _annotated_kb(tmp, "0.5"),
    "demo-annotation-for-a-mean": lambda tmp: _smokers_forall(
        tmp, "mean", "demo", "smokers"),
    "demo-annotation-for-a-min": lambda tmp: _smokers_forall(
        tmp, "min", "demo", "smokers", "--epochs", "2"),
    "train-annotation-for-a-mean": lambda tmp: _smokers_forall(
        tmp, "mean", "train", "--kb", str(theory_path("smokers"))),
    "demo-query-p-for-a-min": lambda tmp: (
        ["demo", "multilabel", "--epochs", "2",
         "--config", _config(tmp, "forall = min")],
        f"{theory_path('multilabel').resolve()}:34:1: @forall(p=5): "
        "min takes no p"),
    "demo-schedule-for-a-max": lambda tmp: (
        ["demo", "clustering", "--config", _config(tmp, "exists = max")],
        "bad training settings: exists schedule: max takes no p"),
    "demo-schedule-unparsed": lambda tmp: (
        ["demo", "clustering", "--config",
         _config(tmp, "exists_schedule = 0:1, 40")],
        f"{tmp / 'run.cfg'}:1: bad value for 'exists_schedule'"),
    "demo-schedule-rejected": lambda tmp: (
        ["demo", "clustering", "--config",
         _config(tmp, "exists_schedule = 40:2, 0:1")],
        f"{tmp / 'run.cfg'}:1: bad value for 'exists_schedule': "
        "schedule epochs must be strictly increasing"),
    "demo-eq-alpha-negative": lambda tmp: _eq_alpha_config(tmp, "-1", "-1.0"),
    "demo-eq-alpha-nan": lambda tmp: _eq_alpha_config(tmp, "nan", "nan"),
    "train-eq-alpha-zero-in-theory": lambda tmp: _item_kb(
        tmp, "mlp(4, 4, 1; elu, sigmoid)", "config eq_alpha = 0\n",
        line=2, message="eq_alpha must be a positive finite number, got 0.0"),
    "train-predicate-ends-linear": lambda tmp: _item_kb(
        tmp, "mlp(4, 4, 1; elu, linear)", message="P: a predicate's network "
        "must end in sigmoid or softmax, not linear"),
    "train-select-ends-elu": lambda tmp: _item_kb(
        tmp, "select mlp(2, 4, 2; elu, elu)", message="P: a predicate's "
        "network must end in sigmoid or softmax, not elu"),
    "train-dropout-1": lambda tmp: _item_kb(
        tmp, "mlp(4, 4, 1; elu@1, sigmoid)",
        message="P: dropout rate must be in [0, 1), got 1"),
    "train-dropout-1.5": lambda tmp: _item_kb(
        tmp, "mlp(4, 4, 1; elu@1.5, sigmoid)",
        message="P: dropout rate must be in [0, 1), got 1.5"),
    "train-dropout-negative": lambda tmp: _item_kb(
        tmp, "mlp(4, 4, 1; elu@-0.5, sigmoid)",
        message="P: dropout rate must be in [0, 1), got -0.5"),
}


def _eq_alpha_config(tmp, value, shown):
    """``rl demo regression`` under ``eq_alpha = <value>``."""
    return (["demo", "regression", "--epochs", "2",
             "--config", _config(tmp, f"eq_alpha = {value}")],
            f"{tmp / 'run.cfg'}:1: bad value for 'eq_alpha': eq_alpha must "
            f"be a positive finite number, got {shown}")


def _item_kb(tmp, network, config="", *, line=3, message):
    """``rl train`` on a theory whose predicate ``P`` over item pairs is
    ``network``, with a ``config`` line after the domain; the message is
    reported at ``line``, by default ``P``'s declaration."""
    kb = tmp / "item.rl"
    kb.write_text(f"domain item = 2\n{config}"
                  "var x : item = [[0, 1], [1, 0]]\n"
                  f"pred P : item, item = {network}\n"
                  "axiom: forall x: P(x, x)\n")
    return (["train", "--kb", str(kb), "--epochs", "1"],
            f"{kb.resolve()}:{line}:1: {message}")


def _config(tmp, line):
    cfg = tmp / "run.cfg"
    cfg.write_text(line + "\n")
    return str(cfg)


def _smokers_forall(tmp, family, *argv):
    """``argv`` under ``forall = <family>``, which takes no p, on smokers,
    whose axioms annotate ``@forall(p=6)``."""
    return ([*argv, "--config", _config(tmp, f"forall = {family}")],
            f"{theory_path('smokers').resolve()}:148:1: @forall(p=6): "
            f"{family} takes no p")


def _missing_kb(tmp, command, *flags):
    """``command`` on a theory file that does not exist."""
    kb = tmp / "none.rl"
    return ([command, "--kb", str(kb), *flags],
            f"--kb: [Errno 2] No such file or directory: '{kb.resolve()}'")


def _mean_kb_query(tmp, *flags):
    """``rl query`` on a theory whose forall is the mean, which takes no p."""
    kb = tmp / "mean.rl"
    kb.write_text("domain d = 1\nconfig forall = mean\nvar x : d = [1, 2]\n"
                  "pred P : d = mlp(1, 1; sigmoid)\naxiom: forall x: P(x)\n")
    return ["query", "--kb", str(kb), "--formula", "forall x: P(x)",
            *flags], "forall(p=5): mean takes no p"


def _annotated_kb(tmp, p):
    """``rl train`` on a theory whose axiom annotates ``@forall(p=<p>)``."""
    kb = tmp / "annotated.rl"
    kb.write_text(f"domain d = 1\npred A = scalar\naxiom @forall(p={p}): A\n")
    return (["train", "--kb", str(kb), "--epochs", "1"],
            f"{kb.resolve()}:3:17: p must be >= 1, got {p}")


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_cli_rejects_bad_input_with_its_message(case, tmp_path):
    argv, message = BAD_INPUT[case](tmp_path)
    with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
        cli.main(argv)


def test_cli_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# hotter optimizer\nepochs = 3\nlr = 0.05\n")
    rc = cli.main(["demo", "binary", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    lines = (tmp_path / "o" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 4


@pytest.mark.parametrize("command", [
    ["demo", "binary"],
    ["train", "--kb", str(theory_path("refute"))],
], ids=["demo", "train"])
def test_cli_epochs_flag_beats_config_file(command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 2\n")
    rc = cli.main(command + ["--epochs", "3", "--config", str(cfg),
                             "--out", str(tmp_path / "o")])
    assert rc == 0
    lines = (tmp_path / "o" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 4  # pre-training record plus one per epoch
    if command[0] == "train":
        assert "after 3 epochs" in capsys.readouterr().out


def test_cli_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp = 9\n")
    with pytest.raises(SystemExit, match="unknown config key"):
        cli.main(["demo", "binary", "--config", str(cfg)])
    cfg.write_text("epochs ten\n")
    with pytest.raises(SystemExit, match="expected key = value"):
        cli.main(["demo", "binary", "--config", str(cfg)])
    # --seed also builds the theory and the data; a file seed would
    # change only the batch order
    cfg.write_text("epochs = 1\nseed = 5\n")
    with pytest.raises(SystemExit, match=re.escape(
            f"{cfg}:2: unknown config key 'seed'")):
        cli.main(["train", "--kb", str(theory_path("refute")),
                  "--config", str(cfg)])


@pytest.mark.parametrize("text,schedule", [
    ("none", None),
    ("0:1, 40:2", ((0, 1.0), (40, 2.0))),
], ids=["none", "pairs"])
def test_cli_config_sets_the_exists_schedule(text, schedule, tmp_path):
    cfg = _config(tmp_path, f"exists_schedule = {text}")
    assert cli.read_config(cfg) == ({"exists_schedule": schedule}, {})


def test_cli_demo_runs_without_its_exists_schedule(tmp_path, capsys):
    # clustering's built-in schedule sets an exists p, which max lacks
    cfg = _config(tmp_path, "exists = max\nexists_schedule = none")
    rc = cli.main(["demo", "clustering", "--epochs", "2", "--config", cfg])
    assert rc == 0
    assert "purity: " in capsys.readouterr().out


def test_cli_config_rejects_out_of_range_values(tmp_path):
    cfg = tmp_path / "range.cfg"
    cfg.write_text("log_every = 0\n")
    with pytest.raises(SystemExit, match="log_every must be positive"):
        cli.main(["train", "--kb", str(theory_path("refute")),
                  "--epochs", "2", "--config", str(cfg)])


@pytest.mark.parametrize("line,error", [
    ("and = bogus", "no and family 'bogus'"),
    ("forall = pmean:q=2", "unknown op parameters ['q']"),
    ("eq_alpha = sharp", "could not convert string to float: 'sharp'"),
], ids=["family", "parameter", "eq_alpha"])
def test_cli_config_rejects_bad_operator_values(line, error, tmp_path):
    cfg = tmp_path / "ops.cfg"
    cfg.write_text(f"epochs = 1\n{line}\n")
    key = line.split()[0]
    with pytest.raises(SystemExit, match=re.escape(
            f"{cfg}:2: bad value for {key!r}: {error}")):
        cli.main(["train", "--kb", str(theory_path("refute")),
                  "--config", str(cfg)])


def test_cli_train_reports_the_theorys_declared_queries(tmp_path, capsys):
    out = tmp_path / "d"
    rc = cli.main(["train", "--kb", str(theory_path("smokers")),
                   "--epochs", "2", "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    recs = [json.loads(l) for l in
            (out / "metrics.jsonl").read_text().splitlines()]
    assert len(recs) == 3  # log_every is 1, so every epoch is logged
    assert lines[1:3] == [f"{k} = {recs[-1][k]:.4f}" for k in ("phi1", "phi2")]
    for rec in recs:
        assert 0.0 <= rec["phi1"] <= 1.0 and 0.0 <= rec["phi2"] <= 1.0


def test_cli_query_prints_the_declared_queries_of_the_trained_run(tmp_path,
                                                                   capsys):
    out = tmp_path / "d"
    kb = str(theory_path("smokers"))
    assert cli.main(["train", "--kb", kb, "--epochs", "2",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    last = json.loads((out / "metrics.jsonl").read_text().splitlines()[-1])
    assert cli.main(["query", "--kb", kb,
                     "--params", str(out / "params.bin")]) == 0
    printed = [line.split(" = ") for line in
               capsys.readouterr().out.splitlines()]
    assert [(k, float(v)) for k, v in printed] == \
        [(k, last[k]) for k in ("phi1", "phi2")]


@pytest.mark.parametrize("name", sorted(
    p.stem for p in theory_path("refute").parent.glob("*.rl")))
def test_cli_trains_every_bundled_theory(name, tmp_path, capsys):
    out = tmp_path / name
    rc = cli.main(["train", "--kb", str(theory_path(name)), "--epochs", "1",
                   "--out", str(out)])
    assert rc == 0
    assert "Sat = " in capsys.readouterr().out
    assert (out / "params.bin").is_file()


def test_cli_train_query_roundtrip(tmp_path, capsys):
    kb = str(theory_path("refute"))
    out = tmp_path / "run"
    rc = cli.main(["train", "--kb", kb, "--epochs", "300",
                   "--out", str(out)])
    assert rc == 0
    head = capsys.readouterr().out
    assert "Sat = " in head
    rc = cli.main(["query", "--kb", kb, "--formula", "A | B",
                   "--params", str(out / "params.bin")])
    assert rc == 0
    val = float(capsys.readouterr().out.strip())
    assert 0.9 <= val <= 1.0

    rc = cli.main(["query", "--kb", kb, "--formula", "A | B"])
    fresh = float(capsys.readouterr().out.strip())
    assert fresh != val  # untrained parameters differ from the loaded run


@pytest.mark.parametrize("slots,message", [
    ({"A": 0.5}, "slot 'B': expected shape (), found no slot"),
    ({"A": 0.5, "B": 0.5, "C": 0.5},
     "slot 'C': expected no slot, found shape ()"),
    ({"A": [0.5, 0.5], "B": 0.5},
     "slot 'A': expected shape (), found shape (2,)"),
], ids=["missing", "extra", "shape"])
def test_cli_query_rejects_params_that_do_not_match(tmp_path, slots,
                                                    message):
    store = ParamStore()
    for name, value in slots.items():
        store.add(name, value)
    store.save(tmp_path / "params.bin")
    with pytest.raises(SystemExit, match=f"^--params: {re.escape(message)}$"):
        cli.main(["query", "--kb", str(theory_path("refute")),
                  "--formula", "A", "--params", str(tmp_path / "params.bin")])


def test_cli_train_applies_operator_tags(tmp_path, capsys):
    kb = str(theory_path("refute"))

    def epoch0_sat(*extra):
        out = tmp_path / "o"
        rc = cli.main(["train", "--kb", kb, "--epochs", "1",
                       "--out", str(out), *extra])
        assert rc == 0
        capsys.readouterr()
        first = (out / "metrics.jsonl").read_text().splitlines()[0]
        return json.loads(first)["sat"]

    cfg = tmp_path / "ops.cfg"
    cfg.write_text("or = max\n")
    # Godel disjunction max(a, b) is strictly below probabilistic sum
    # a + b - ab for interior a, b, so the tag must lower epoch-0 Sat.
    assert epoch0_sat("--config", str(cfg)) < epoch0_sat()


def test_cli_refute_command(capsys):
    kb = str(theory_path("refute"))
    rc = cli.main(["refute", "--kb", kb, "--formula", "A",
                   "--epochs", "1500"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "NOT entailed" in out
    assert "counterexample" in out


def test_cli_query_array_output(capsys):
    kb = str(theory_path("smokers"))
    rc = cli.main(["query", "--kb", kb, "--formula", "S(x)"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("axes: x")


def test_cli_query_exists_p_overrides_the_configured_p(capsys):
    kb = theory_path("clustering")
    formula = "forall x: (exists c: C(x, c))"
    rc = cli.main(["query", "--kb", str(kb), "--formula", formula,
                   "--exists-p", "6"])
    assert rc == 0
    want = query(load_theory(kb, seed=0), "truth", formula, p={"exists": 6})
    plain = query(load_theory(kb, seed=0), "truth", formula)
    assert capsys.readouterr().out == f"{float(want.values):.6f}\n"
    assert f"{float(want.values):.6f}" != f"{float(plain.values):.6f}"


def test_multilabel_parses_each_formula_once(monkeypatch):
    from reallogic import parser
    calls = Counter()
    parse = parser.parse_formula

    def counting(text, sig):
        calls[text] += 1
        return parse(text, sig)

    monkeypatch.setattr(parser, "parse_formula", counting)
    run_demo("multilabel", 0, replace(default_train("multilabel", 0),
                                      epochs=2, log_every=1))
    labels = ("l_blue", "l_orange", "l_male", "l_female")
    assert sorted(calls) == sorted(f"P(x, {l})" for l in labels)
    assert set(calls.values()) == {1}
