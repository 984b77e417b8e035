"""Demo drivers and the command line front end."""

import csv
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from reallogic import cli, demos
from reallogic.demos import (
    DEMO_IDS, DEMOS, default_train, run_demo, run_many, self_check,
    theory_path,
)
from reallogic.nn import ParamStore
from reallogic.parser import parse_theory_file
from reallogic.training import TrainConfig


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
], ids=["runs-0", "runs-negative", "restarts-0", "epochs-0", "q-1.5"])
def test_cli_rejects_bad_numeric_flags(argv, message):
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
    ({"A": 0.5}, r"slot 'B': expected shape \(\), found no slot"),
    ({"A": 0.5, "B": 0.5, "C": 0.5},
     r"slot 'C': expected no slot, found shape \(\)"),
    ({"A": [0.5, 0.5], "B": 0.5},
     r"slot 'A': expected shape \(\), found shape \(2,\)"),
], ids=["missing", "extra", "shape"])
def test_cli_query_rejects_params_that_do_not_match(tmp_path, slots,
                                                    message):
    store = ParamStore()
    for name, value in slots.items():
        store.add(name, value)
    store.save(tmp_path / "params.bin")
    with pytest.raises(ValueError, match=message):
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
