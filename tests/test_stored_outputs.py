"""Tests of the network outputs a theory keeps for its forward-only
evaluations: they leave every value as a fresh evaluation computes it,
are dropped whenever the parameters change, are keyed by the exact
input array, and never reach a gradient."""

from dataclasses import replace

import numpy as np
import pytest

from reallogic import training
from reallogic.assemble import load_theory
from reallogic.demos import DEMO_IDS, default_train, run_demo, theory_path
from reallogic.logic import ground_formula
from reallogic.nn import adam_step, backward
from reallogic.parser import parse_formula
from reallogic.training import (
    RefutationConfig, TrainConfig, _stored, learn, query, reason_refute,
    satisfiability, truth_value,
)

from test_training import record_networks


def no_stored_outputs(monkeypatch):
    """Make every evaluation ground without stored outputs."""
    monkeypatch.setattr(training, "_stored", lambda theory, snapshot: None)


@pytest.mark.parametrize("demo", DEMO_IDS)
def test_every_record_and_demo_metric_is_as_computed_fresh(demo, monkeypatch):
    train = replace(default_train(demo, 0), epochs=3)
    runs = record_networks(monkeypatch)
    kept = run_demo(demo, 0, train)
    shared = sum(runs.values())
    runs.clear()
    no_stored_outputs(monkeypatch)
    fresh = run_demo(demo, 0, train)
    assert kept.records == fresh.records
    assert kept.final == fresh.final
    assert kept.artifacts == fresh.artifacts
    assert shared <= sum(runs.values())
    if demo == "multilabel":  # its queries read the record's outputs
        assert shared < sum(runs.values())


def fresh_truths(th) -> list:
    """Each declared query's truth, planned and grounded anew with no
    stored outputs."""
    return [float(ground_formula(th.env, q.formula, th.env.scope(p=q.p))
                  .tensor.data) for q in th.queries]


def _adam_step(th):
    adam_step(th.store, backward(1.0 - satisfiability(th), th.store), lr=0.01)


def _write(th):
    th.store.get("S/b0").data[0] += 1e-3


CHANGES = {
    "adam-step": _adam_step,
    "copy-from": lambda th: th.store.copy_from(
        load_theory(theory_path("smokers"), seed=1).store),
    "in-place-write": _write,
    "added-slot": lambda th: th.store.add("extra", 0.0),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_no_stored_output_is_read_after_the_parameters_change(change,
                                                             monkeypatch):
    th = load_theory(theory_path("smokers"), seed=0)
    runs = record_networks(monkeypatch)

    def truths():
        return [truth_value(th, q.formula, p=q.p) for q in th.queries]

    got = truths()
    first = sum(runs.values())
    assert first > 0 and got == fresh_truths(th)
    runs.clear()
    truths()  # at the same parameters, every network output is stored
    assert not runs
    CHANGES[change](th)
    runs.clear()
    got = truths()
    assert sum(runs.values()) == first
    assert got == fresh_truths(th)


def test_a_copy_of_the_same_values_keeps_the_stored_outputs(monkeypatch):
    th = load_theory(theory_path("smokers"), seed=0)
    runs = record_networks(monkeypatch)
    truth_value(th, th.queries[0].formula, p=th.queries[0].p)
    runs.clear()
    th.store.copy_from(load_theory(theory_path("smokers"), seed=0).store)
    truth_value(th, th.queries[0].formula, p=th.queries[0].p)
    assert not runs


def test_a_trained_theorys_queries_equal_a_fresh_theorys():
    th = load_theory(theory_path("multilabel"), seed=0)
    recs = learn(th, TrainConfig(epochs=3, batch=8, lr=0.01),
                 batched=("x_blue", "x_orange", "x_male", "x_female"))
    fresh = load_theory(theory_path("multilabel"), seed=0)
    fresh.store.copy_from(th.store)
    assert [recs[-1][q.label] for q in th.queries] == fresh_truths(fresh)


def test_equal_bytes_with_other_strides_miss(monkeypatch):
    th = load_theory(theory_path("multilabel"), seed=0)
    runs = record_networks(monkeypatch)
    f = parse_formula("P(x_test, l_blue)", th.sig)

    def truths(rows):
        return query(th, "generalization-truth", f,
                     data={"x_test": rows}).values

    rows = np.random.default_rng(0).random((6, 5))
    first = truths(rows)
    assert runs["P"] == 1
    again = truths(rows.copy())  # an equal array elsewhere is a hit
    assert runs["P"] == 1 and again.tobytes() == first.tobytes()
    columns = np.asfortranarray(rows)
    assert columns.tobytes() == rows.tobytes()
    assert columns.strides != rows.strides
    np.testing.assert_allclose(truths(columns), first, rtol=0, atol=1e-12)
    assert runs["P"] == 2


def poison(th, formulas=()) -> None:
    """Store the outputs of a record's Sat forward and of the theory's
    queries and ``formulas`` at the current parameters, then overwrite
    each with 0.25."""
    stored = _stored(th, th.store.snapshot())
    satisfiability(th, th.env.scope(), stored)
    for f in formulas:
        truth_value(th, f)
    for q in th.queries:
        truth_value(th, q.formula, p=q.p)
    assert stored
    for key, out in stored.items():
        stored[key] = np.full_like(out, 0.25)


def test_a_poisoned_stored_output_never_reaches_a_step():
    def run(poisoned):
        th = load_theory(theory_path("multilabel"), seed=0)
        if poisoned:
            poison(th)
        recs = learn(th, TrainConfig(epochs=3, batch=8, lr=0.01),
                     batched=("x_blue", "x_orange", "x_male", "x_female"))
        return recs, th.store.snapshot()

    (clean, theta), (bad, bad_theta) = run(False), run(True)
    # the first record's own forward and queries read the poison; every
    # update and every later record is as without it
    assert bad[0]["sat"] != clean[0]["sat"]
    assert bad[1:] == clean[1:] and bad_theta == theta


def test_a_poisoned_stored_output_leaves_refutation_as_it_was():
    phi = "forall x: S(x)"

    def build(poisoned):
        def theory(restart):
            th = load_theory(theory_path("smokers"), seed=restart)
            if poisoned:
                f = parse_formula(phi, th.sig)
                clean = truth_value(th, f)
                poison(th, [f])
                assert truth_value(th, f) != clean
            return th
        return theory

    rcfg = RefutationConfig(epochs=3, restarts=2)
    clean = reason_refute(build(False), phi, rcfg)
    bad = reason_refute(build(True), phi, rcfg)
    assert (bad.entailed, bad.vacuous, bad.runs) == \
        (clean.entailed, clean.vacuous, clean.runs)


def test_a_value_query_hands_out_a_copy_of_a_stored_output():
    th = load_theory(theory_path("regression"), seed=0)
    fx = parse_formula("f(x) = y", th.sig).lhs

    def values():
        return query(th, "value", fx).values

    first = values()
    want = first.copy()
    first[...] = 0.0
    assert values().tobytes() == want.tobytes()
