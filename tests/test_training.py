"""Tests for satisfiability, the learning loop, queries, and refutation."""

import json
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from reallogic import logic
from reallogic import tensor as T
from reallogic import training
from reallogic.assemble import build_theory, load_theory
from reallogic.datasets import make_clustering
from reallogic.demos import theory_path
from reallogic.fuzzy import (
    _AGGREGATORS, AggregatorSpec, ConnectiveOp, FuzzyConfig, aggregate,
)
from reallogic.logic import (
    Axiom, EvalError, GroundingEnv, Signature, ground_formula,
)
from reallogic.nn import ParamStore, adam_step, backward
from reallogic.parser import parse_formula, parse_theory
from reallogic.tensor import Tensor
from reallogic.training import (
    QUERY_KINDS,
    DivergenceError,
    RefutationConfig,
    SettingsError,
    Theory,
    TrainConfig,
    learn,
    query,
    reason_refute,
    satisfiability,
    schedule_value,
    soft_penalty,
    truth_value,
    write_metrics,
)
from reallogic.training import _check_grads, _log, _loss

import walker

DISJ_SRC = "domain u = 1\npred A = scalar\npred B = scalar\naxiom: A | B\n"


def raw_config():
    """Operator family without the stable projections."""
    return FuzzyConfig(
        conj=ConnectiveOp("and", "product"),
        disj=ConnectiveOp("or", "product"),
        impl=ConnectiveOp("implies", "reichenbach"),
        forall=AggregatorSpec("pmean_error", p=2),
        exists=AggregatorSpec("pmean", p=2),
        sat_agg=AggregatorSpec("pmean_error", p=2),
    )


def disj_theory(a=None, b=None, seed=0, raw=False):
    th = build_theory(parse_theory(DISJ_SRC), seed=seed)
    if raw:
        th.env.cfg = raw_config()
    if a is not None:
        th.store.get("A").data[...] = a
    if b is not None:
        th.store.get("B").data[...] = b
    return th


def callable_theory(values, fn=None, p=None):
    """One axiom 'forall x: P(x)' with P reading off fixed truths."""
    values = np.asarray(values, dtype=float)
    sig = Signature()
    sig.add_domain("u", 1)
    sig.add_variable("x", "u")
    sig.add_predicate("P", ("u",))
    env = GroundingEnv(sig, ParamStore(0))
    env.add_var_data("x", values)
    env.add_callable("P", fn or (lambda v: Tensor(values)))
    ax = Axiom(parse_formula("forall x: P(x)", sig), p=p or {})
    return Theory((ax,), env)


# -- satisfiability ------------------------------------------------------------


def test_disjunction_closed_form():
    th = disj_theory(a=0.3, b=0.6, raw=True)
    want = 0.3 + 0.6 - 0.3 * 0.6
    assert float(satisfiability(th).data) == pytest.approx(want, abs=1e-12)


def test_single_axiom_sat_matches_truth():
    # raw sat_agg over one axiom is the identity; the stable projection
    # shifts it by at most eps
    raw = disj_theory(a=0.25, b=0.5, raw=True)
    truth = truth_value(raw, raw.axioms[0].formula)
    assert float(satisfiability(raw).data) == pytest.approx(truth, abs=1e-12)

    stable = disj_theory(a=0.25, b=0.5)
    t2 = truth_value(stable, stable.axioms[0].formula)
    assert abs(float(satisfiability(stable).data) - t2) < 1e-3


def test_sat_agg_combines_axioms():
    src = ("domain u = 1\npred A = scalar\npred B = scalar\n"
           "axiom: A\naxiom: B\n")
    th = build_theory(parse_theory(src), seed=0)
    th.env.cfg = raw_config()
    th.store.get("A").data[...] = 0.8
    th.store.get("B").data[...] = 0.6
    want = 1.0 - np.sqrt((0.2 ** 2 + 0.4 ** 2) / 2)
    assert float(satisfiability(th).data) == pytest.approx(want, abs=1e-12)


def one_axiom_sat(th, truth: float) -> float:
    """Sat of a theory of one axiom whose truth is ``truth``."""
    return float(aggregate(th.cfg.sat_agg, Tensor(np.array([truth])), 1).data)


def test_axiom_annotation_beats_override():
    vals = [0.2, 0.5, 0.9]
    th = callable_theory(vals, p={"forall": 6})
    ax = th.axioms[0]
    got = truth_value(th, ax.formula, p=ax.p)
    spec = th.cfg.forall.with_p(6)
    want = float(aggregate(spec, Tensor(np.array(vals)), 1).data)
    assert got == pytest.approx(want, abs=1e-12)
    # Sat grounds the axiom under its annotation, not the scope's p
    sat = float(satisfiability(th, th.env.scope(p={"forall": 2})).data)
    assert sat == pytest.approx(one_axiom_sat(th, got), abs=1e-12)

    plain = callable_theory(vals)
    got2 = truth_value(plain, plain.axioms[0].formula, p={"forall": 4})
    want2 = float(aggregate(th.cfg.forall.with_p(4),
                            Tensor(np.array(vals)), 1).data)
    assert got2 == pytest.approx(want2, abs=1e-12)
    sat2 = float(satisfiability(plain, plain.env.scope(p={"forall": 4})).data)
    assert sat2 == pytest.approx(one_axiom_sat(plain, got2), abs=1e-12)


def test_axiom_annotation_keeps_the_scope_override_of_the_other_kind():
    vals = np.array([[0.2, 0.9], [0.5, 0.4], [0.7, 0.1]])
    sig = Signature()
    sig.add_domain("u", 1)
    sig.add_variable("x", "u")
    sig.add_variable("y", "u")
    sig.add_predicate("P", ("u", "u"))
    env = GroundingEnv(sig, ParamStore(0))
    env.add_var_data("x", [0.0, 1.0, 2.0])
    env.add_var_data("y", [0.0, 1.0])
    env.add_callable("P", lambda a, b: Tensor(vals))
    ax = Axiom(parse_formula("forall x: exists y: P(x, y)", sig),
               p={"forall": 6})
    th = Theory((ax,), env)
    got = truth_value(th, ax.formula, p={"exists": 3, **ax.p})
    some = aggregate(th.cfg.exists.with_p(3), Tensor(vals), 1)
    want = float(aggregate(th.cfg.forall.with_p(6), some, 1).data)
    assert got == pytest.approx(want, abs=1e-12)
    assert got != pytest.approx(truth_value(th, ax.formula, p=ax.p), abs=1e-6)
    # Sat merges the annotation into the scope's p of the other kind
    sat = float(satisfiability(th, env.scope(p={"exists": 3})).data)
    assert sat == pytest.approx(one_axiom_sat(th, got), abs=1e-12)


def unshared_sat(theory, scope):
    """Sat grounded by the tree walker of ``walker.py`` under ``scope``
    with no memo, so every atom runs its network."""
    truths = [walker.ground_formula(theory.env, ax.formula, walker.root_scope(
        theory.env, replace(scope, p={**scope.p, **ax.p}))).tensor
        for ax in theory.axioms]
    return aggregate(theory.cfg.sat_agg, T.stack(truths), 1)


def record_networks(monkeypatch):
    """Patch dense_forward in logic; the returned Counter gets the
    symbol of each network run."""
    runs = Counter()
    real = logic.dense_forward

    def recorded(spec, store, prefix, x, training):
        runs[prefix] += 1
        return real(spec, store, prefix, x, training=training)

    monkeypatch.setattr(logic, "dense_forward", recorded)
    return runs


BUNDLED = sorted(p.stem for p in theory_path("refute").parent.glob("*.rl"))
# network runs of one Sat forward, (shared, unshared)
SAT_NETWORK_RUNS = {"addition_multi": (4, 4), "addition_single": (2, 2),
                    "binary": (2, 2), "clustering": (2, 6),
                    "multiclass": (3, 3), "multilabel": (5, 8),
                    "refute": (0, 0), "regression": (1, 1),
                    "smokers": (119, 124)}


@pytest.mark.parametrize("name", BUNDLED)
def test_sat_shares_network_outputs_of_the_unshared_path(name, monkeypatch):
    th = load_theory(theory_path(name), seed=0)
    runs = record_networks(monkeypatch)
    sats = []
    for sat in (satisfiability, unshared_sat):
        runs.clear()
        value = sat(th, th.env.scope(training=False))
        sats.append((value.data, backward(value, th.store),
                     sum(runs.values())))
    (got, got_grads, shared), (want, want_grads, unshared) = sats
    assert got == want
    for slot in th.store.names():
        np.testing.assert_allclose(got_grads[slot], want_grads[slot],
                                   rtol=0, atol=1e-12, err_msg=slot)
    assert (shared, unshared) == SAT_NETWORK_RUNS[name]


DROPOUT_SRC = """domain item = 2
domain label = 2
domain measure = 1
const a : label = [1, 0]
const b : label = [0, 1]
var x : item = [[0.1, 0.2], [0.5, 0.9], [0.3, 0.4]]
pred P : item, label = select mlp(2, 4, 2; elu@0.5, softmax)
pred Q : item = mlp(2, 3, 1; elu, sigmoid)
func f : item -> item = mlp(2, 4, 2; elu@0.5, sigmoid)
func g : item -> measure = mlp(2, 3, 1; elu, sigmoid)
pred R : measure = mlp(1, 3, 1; elu, sigmoid)
axiom: forall x: P(x, a) | P(x, b)
axiom: forall x: P(x, a) -> Q(x)
axiom: forall x: Q(x) | P(x, b)
axiom: forall x: R(g(f(x))) | Q(f(x))
axiom: forall x [g(f(x)) < 0.6]: R(g(f(x))) -> Q(f(x))
"""
# network runs of one Sat forward; the unshared path runs each network
# once per occurrence, in the guard too
DROPOUT_RUNS = {"P": 4, "Q": 4, "f": 5, "g": 3, "R": 2}


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
def test_a_dropout_theory_grounds_as_the_unshared_path(training,
                                                       monkeypatch):
    # f's dropout sits inside the arguments of g, Q and R, whose own
    # networks have none, and the guard reads g(f(x)) with dropout off
    th = build_theory(parse_theory(DROPOUT_SRC), seed=3)
    runs = record_networks(monkeypatch)
    start = th.store.rng.bit_generator.state
    sats = []
    for sat in (satisfiability, unshared_sat):
        th.store.rng.bit_generator.state = start
        runs.clear()
        value = sat(th, th.env.scope(training=training))
        sats.append((value.data, backward(value, th.store),
                     th.store.rng.bit_generator.state, dict(runs)))
    (got, got_grads, got_state, shared), \
        (want, want_grads, want_state, unshared) = sats
    assert got == want
    for slot in th.store.names():
        np.testing.assert_allclose(got_grads[slot], want_grads[slot],
                                   rtol=0, atol=1e-12, err_msg=slot)
    assert got_state == want_state
    assert (got_state != start) == training
    assert unshared == DROPOUT_RUNS
    # a training scope draws every mask, so it shares nothing
    assert shared == (DROPOUT_RUNS if training else
                      {"P": 1, "Q": 2, "f": 1, "g": 1, "R": 1})


def test_a_scope_passed_twice_grounds_the_current_parameters():
    th = load_theory(theory_path("multilabel"), seed=0)
    scope = th.env.scope(training=False)
    before = satisfiability(th, scope)
    adam_step(th.store, backward(1.0 - before, th.store), lr=0.1)
    after = satisfiability(th, scope).data
    assert after == unshared_sat(th, th.env.scope(training=False)).data
    assert after != before.data


def test_theory_rejects_open_axioms():
    sig = Signature()
    sig.add_domain("u", 1)
    sig.add_variable("x", "u")
    sig.add_predicate("P", ("u",))
    env = GroundingEnv(sig, ParamStore(0))
    env.add_var_data("x", np.zeros(3))
    env.add_callable("P", lambda v: Tensor(np.zeros(3)))
    with pytest.raises(ValueError, match="not closed"):
        Theory((Axiom(parse_formula("P(x)", sig)),), env)


# -- learning loop -------------------------------------------------------------


def test_records_start_at_pretraining_state():
    th = disj_theory(a=0.2, b=0.2)
    before = float(satisfiability(th).data)
    recs = learn(th, TrainConfig(epochs=3))
    assert recs[0]["epoch"] == 0
    assert recs[0]["sat"] == pytest.approx(before, abs=1e-15)
    assert len(recs) == 4
    assert recs[-1]["sat"] > before


def test_loss_sat_duality_exact():
    th = disj_theory(seed=3)
    recs = learn(th, TrainConfig(epochs=5))
    for rec in recs:
        assert rec["loss"] == 1.0 - rec["sat"]


def test_loss_includes_regularizer():
    th = disj_theory(a=0.4, b=0.4)
    lam = 0.01
    recs = learn(th, TrainConfig(epochs=2, reg="l2", lam=lam))
    theta = [float(th.store.get(n).data) for n in th.store.names()]
    want = 1.0 - recs[-1]["sat"] + lam * sum(v * v for v in theta)
    assert recs[-1]["loss"] == pytest.approx(want, abs=1e-12)


def test_seed_determinism():
    def run():
        rng = np.random.default_rng(7)
        sig = Signature()
        sig.add_domain("u", 1)
        sig.add_variable("x", "u")
        sig.add_predicate("P", ("u",))
        env = GroundingEnv(sig, ParamStore(5))
        env.add_var_data("x", rng.random((20, 1)))
        from reallogic.nn import MlpSpec
        env.add_mlp("P", MlpSpec((1, 4, 1), ("elu", "sigmoid")))
        th = Theory((Axiom(parse_formula("forall x: P(x)", sig)),), env)
        recs = learn(th, TrainConfig(epochs=4, batch=8, seed=1),
                     batched=("x",))
        return recs, {n: th.store.get(n).data.copy()
                      for n in th.store.names()}

    recs1, params1 = run()
    recs2, params2 = run()
    assert json.dumps(recs1) == json.dumps(recs2)
    for n in params1:
        assert np.array_equal(params1[n], params2[n])


def test_l2_regularizer_shrinks_weights():
    def run(lam):
        sig = Signature()
        sig.add_domain("u", 2)
        sig.add_variable("x", "u")
        sig.add_predicate("P", ("u",))
        env = GroundingEnv(sig, ParamStore(11))
        env.add_var_data("x", np.random.default_rng(2).random((16, 2)))
        from reallogic.nn import MlpSpec
        env.add_mlp("P", MlpSpec((2, 4, 1), ("elu", "sigmoid")))
        th = Theory((Axiom(parse_formula("forall x: P(x)", sig)),), env)
        learn(th, TrainConfig(epochs=40, reg="l2", lam=lam))
        return sum(float(np.sum(th.store.get(n).data ** 2))
                   for n in th.store.names())

    assert run(0.05) < run(0.0)


def test_frozen_grounding_keeps_sat_constant():
    th = callable_theory([0.3, 0.7, 0.9])
    recs = learn(th, TrainConfig(epochs=3))
    sats = {rec["sat"] for rec in recs}
    assert len(sats) == 1


def test_divergence_raises():
    from reallogic.tensor import DomainError

    # NaN truths stop at the first operator that reads them
    th = callable_theory(
        [0.5, 0.5],
        fn=lambda v: Tensor(np.full(np.shape(v.data)[0], np.nan)))
    with pytest.raises(DomainError, match="nan"):
        learn(th, TrainConfig(epochs=1))
    # truths in [0, 1], but the L2 penalty of a huge slot overflows
    with np.errstate(over="ignore"), \
            pytest.raises(DivergenceError, match="loss inf"):
        learn(slot_theory(1e200), TrainConfig(epochs=1, reg="l2", lam=1.0))


def test_non_finite_gradient_raises_before_the_update():
    # plain pmean_error Sat at all truths 1: the loss is 0, but the
    # gradient of its root at 0 is NaN in every slot
    th = disj_theory(a=1.0, b=1.0, raw=True)
    before = th.store.snapshot()
    with pytest.raises(DivergenceError, match="non-finite gradient in slot 'A'"):
        learn(th, TrainConfig(epochs=1))
    assert th.store.snapshot() == before

    th = disj_theory(a=1.0, b=1.0, raw=True)
    with pytest.raises(DivergenceError, match="non-finite gradient in slot 'A'"):
        reason_refute(lambda _: th, "A", RefutationConfig(epochs=1))
    assert th.store.snapshot() == before


def test_non_finite_refutation_objective_raises_before_the_update():
    # phi is a bare atom, so its NaN truth meets no operator and reaches
    # the objective, while Sat, over B alone, stays finite
    src = "domain u = 1\npred A = scalar\npred B = scalar\naxiom: B\n"
    th = build_theory(parse_theory(src), seed=0)
    th.store.get("A").data[...] = np.nan
    before = th.store.snapshot()
    with pytest.raises(DivergenceError,
                       match="^objective nan in the refutation search$"):
        reason_refute(lambda _: th, "A", RefutationConfig(epochs=1))
    assert th.store.snapshot() == before


def test_evaluation_leaves_the_training_flag_as_found():
    th = disj_theory(a=0.3, b=0.6)
    train = TrainConfig(epochs=1)
    for flag in (True, False):
        th.env.training = flag
        query(th, "truth", "A | B")
        assert th.env.training is flag
        _log(th, train, {}, 0)
        assert th.env.training is flag
        reason_refute(lambda _: th, "A", RefutationConfig(epochs=1))
        assert th.env.training is flag


def test_no_evaluation_reads_the_env_training_flag():
    # multiclass's networks have dropout, so a training ground would
    # differ and would draw masks from the store's RNG
    th = load_theory(theory_path("multiclass"), seed=0)
    assert th.env.has_dropout()
    f = th.axioms[0].formula
    want_sat = satisfiability(th, th.env.scope(training=False)).data
    want_f = ground_formula(th.env, f, th.env.scope(training=False))
    th.env.training = True
    before = th.store.rng.bit_generator.state
    assert satisfiability(th).data.tobytes() == want_sat.tobytes()
    got_f = ground_formula(th.env, f)
    assert got_f.tensor.data.tobytes() == want_f.tensor.data.tobytes()
    assert th.store.rng.bit_generator.state == before


def test_empty_dataset_rejected():
    with pytest.raises(EvalError, match="^variable x has no instances$"):
        callable_theory(np.zeros((0, 1)))


# -- p schedules ---------------------------------------------------------------


def test_schedule_breakpoints():
    sched = ((0, 1.0), (100, 4.0), (200, 6.0))
    assert schedule_value(sched, 0) == 1.0
    assert schedule_value(sched, 99) == 1.0
    assert schedule_value(sched, 100) == 4.0
    assert schedule_value(sched, 250) == 6.0
    # before the first breakpoint the configured default stays in force
    assert schedule_value(((50, 3.0),), 10) is None
    assert schedule_value(None, 10) is None


def test_schedule_validation():
    with pytest.raises(ValueError):
        TrainConfig(exists_schedule=((10, 2.0), (5, 4.0)))
    with pytest.raises(ValueError, match="empty"):
        TrainConfig(exists_schedule=())
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(reg="l3")
    with pytest.raises(ValueError):
        TrainConfig(lam=-0.1)


@pytest.mark.parametrize("schedule,message", [
    (((0, 1.0), (4, 0.5)), ">= 1, got 0.5"),
    # a NaN or infinite p is named wherever it stands
    (((0, 1.0), (4, float("nan"))), "finite, got nan"),
    (((0, float("nan")), (4, 0.5)), "finite, got nan"),
    (((0, 0.5), (4, float("inf"))), "finite, got inf"),
], ids=["breakpoints", "nan-last", "nan-first", "inf"])
def test_schedule_rejects_p_below_one(schedule, message):
    with pytest.raises(ValueError, match="^" + re.escape(
            f"exists schedule p must be {message}") + "$"):
        TrainConfig(exists_schedule=schedule)
    for every in (0, -1):
        with pytest.raises(ValueError, match="log_every"):
            TrainConfig(log_every=every)


# -- one Sat forward per epoch -------------------------------------------------


def diag_partition(theory, names) -> list:
    """Group the variables ``names`` that co-occur under one diagonal
    group of the axioms, each group in ``names`` order, the groups in
    the order of their first member: a union-find walk over the axioms,
    the oracle for the groups ``learn`` reads with
    ``logic.diagonal_groups``."""
    parent = {n: n for n in names}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for ax in theory.axioms:
        stack = [ax.formula]
        while stack:
            f = stack.pop()
            if isinstance(f, logic.Quant):
                for g in f.groups:
                    members = [v for v in g if v in parent]
                    for a, b in zip(members, members[1:]):
                        parent[find(a)] = find(b)
                stack.append(f.body)
            elif isinstance(f, logic.Not):
                stack.append(f.body)
            elif isinstance(f, logic.Bin):
                stack.extend((f.lhs, f.rhs))
    groups = {}
    for n in names:
        groups.setdefault(find(n), []).append(n)
    return list(groups.values())


def plain_learn(theory, train, batched=(), metrics=None):
    """The learning loop with a separate Sat forward for every record:
    the oracle for ``learn``, which writes a record from the next step's
    forward when the two ground the same scope. A due record also holds
    the metrics and the theory's declared queries."""
    data = {v: theory.env.instances(v) for v in batched}
    metrics = metrics or {}
    groups = diag_partition(theory, data.keys())
    sizes = {tuple(g): len(data[g[0]]) for g in groups}
    steps = max((-(-n // train.batch) for n in sizes.values()), default=1)
    rng = np.random.default_rng(train.seed)

    def log(epoch, ep):
        sat = satisfiability(theory, theory.env.scope(training=False,
                                                      p={"exists": ep}))
        loss = _loss(theory, train, sat)
        rec = {"epoch": epoch, "sat": float(sat.data),
               "loss": float(loss.data)}
        if epoch % train.log_every == 0 or epoch == train.epochs:
            for name, fn in metrics.items():
                rec[name] = float(fn(theory))
            for q in theory.queries:
                rec[q.label] = truth_value(theory, q.formula, p=q.p)
        return rec

    records = [log(0, schedule_value(train.exists_schedule, 0))]
    for epoch in range(1, train.epochs + 1):
        ep = schedule_value(train.exists_schedule, epoch - 1)
        for _ in range(steps):
            binds = {}
            for g in groups:
                n = sizes[tuple(g)]
                idx = rng.choice(n, size=min(train.batch, n), replace=False)
                for v in g:
                    binds[v] = (idx if isinstance(data[v], tuple)
                                else data[v][idx])
            sat = satisfiability(theory, theory.env.scope(
                binds, training=True, p={"exists": ep}))
            loss = _loss(theory, train, sat)
            assert np.isfinite(loss.data)
            grads = backward(loss, theory.store)
            _check_grads(grads, f"at epoch {epoch}")
            adam_step(theory.store, grads, lr=train.lr)
        records.append(log(epoch, ep))
    return records


def smokers_theory():
    """Smokers, whose declared queries phi1 and phi2 join each record,
    with its axiom ``symmetric`` as a metric."""
    th = load_theory(theory_path("smokers"), seed=0)
    symmetric = next(ax for ax in th.axioms if ax.label == "symmetric")
    metrics = {"symmetry": lambda t: truth_value(t, symmetric.formula,
                                                 p=symmetric.p)}
    return th, metrics


def clustering_theory():
    xy = make_clustering(0)[0].cols("x1", "x2")
    th = load_theory(theory_path("clustering"), seed=0, data={"x": xy, "y": xy})
    return th, {"c0_mass": lambda t: float(
        query(t, "truth", "C(x, c)").values[:, 0].sum())}


FUSED_RUNS = {
    "smokers": (smokers_theory, TrainConfig(epochs=3, lr=0.01)),
    "clustering": (clustering_theory, TrainConfig(epochs=3, lr=0.01)),
    "step-schedule": (smokers_theory, TrainConfig(
        epochs=5, lr=0.01, exists_schedule=((0, 1.0), (2, 6.0)))),
    "linear-schedule": (smokers_theory, TrainConfig(
        epochs=4, lr=0.01,
        exists_schedule=((0, 1.0), (1, 2.0), (2, 4.0), (3, 6.0)))),
    "l2": (smokers_theory, TrainConfig(epochs=3, lr=0.01, reg="l2",
                                       lam=0.01)),
    "log-every-2": (clustering_theory, TrainConfig(
        epochs=5, lr=0.01, log_every=2,
        exists_schedule=((0, 1.0), (3, 6.0)))),
}


@pytest.mark.parametrize("case", sorted(FUSED_RUNS))
def test_learn_writes_the_records_of_the_plain_loop(case):
    make, train = FUSED_RUNS[case]
    runs = []
    for loop in (learn, plain_learn):
        th, metrics = make()
        recs = loop(th, train, metrics=metrics)
        runs.append((recs, {n: th.store.get(n).data.copy()
                            for n in th.store.names()}))
    (recs, params), (want, want_params) = runs
    assert recs == want
    assert params.keys() == want_params.keys()
    for n in params:
        assert np.array_equal(params[n], want_params[n]), n


def count_sat_calls(monkeypatch):
    """Wrap ``training.satisfiability``; the returned list gets the env's
    training flag at each call."""
    calls = []

    def counted(theory, scope=None):
        calls.append(theory.env.training)
        return satisfiability(theory, scope)

    monkeypatch.setattr(training, "satisfiability", counted)
    return calls


def test_learn_grounds_sat_once_per_epoch_when_scopes_match(monkeypatch):
    calls = count_sat_calls(monkeypatch)
    seen = []
    th, _ = smokers_theory()
    metrics = {"flag": lambda t: seen.append(t.env.scope().training) or 0.0}
    learn(th, TrainConfig(epochs=4, lr=0.01), metrics=metrics)
    # 4 step forwards under training, then the final record's
    assert calls == [True] * 4 + [False]
    assert seen == [False] * 5

    # each schedule boundary inside the run costs one record forward
    del calls[:]
    th, _ = smokers_theory()
    learn(th, TrainConfig(epochs=6, lr=0.01,
                          exists_schedule=((0, 1.0), (2, 4.0), (4, 6.0))))
    assert len(calls) == 6 + 1 + 2
    assert calls.count(True) == 6


def test_data_bound_or_dropout_theories_keep_a_record_forward(monkeypatch):
    calls = count_sat_calls(monkeypatch)
    th = callable_theory([0.3, 0.7, 0.9])
    learn(th, TrainConfig(epochs=3), batched=("x",))
    assert len(calls) == 2 * 3 + 1

    del calls[:]
    th = load_theory(theory_path("multiclass"), seed=0)
    assert th.env.has_dropout()
    learn(th, TrainConfig(epochs=3))
    assert len(calls) == 2 * 3 + 1
    assert calls.count(True) == 3


# -- minibatching --------------------------------------------------------------


def pair_theory(formula, n_x, n_y, fn):
    sig = Signature()
    sig.add_domain("u", 1)
    sig.add_variable("x", "u")
    sig.add_variable("y", "u")
    sig.add_predicate("Same", ("u", "u"))
    env = GroundingEnv(sig, ParamStore(0))
    env.add_var_data("x", np.arange(n_x, dtype=float))
    env.add_var_data("y", np.arange(n_y, dtype=float))
    env.add_callable("Same", fn)
    return Theory((Axiom(parse_formula(formula, sig)),), env)


def test_diag_variables_share_the_draw():
    seen = []

    def check(a, b):
        assert np.array_equal(a.data, b.data)
        seen.append(np.shape(a.data)[0])
        return Tensor(np.ones(np.shape(a.data)[0]))

    th = pair_theory("forall (x, y): Same(x, y)", 10, 10, check)
    learn(th, TrainConfig(epochs=2, batch=4), batched=("x", "y"))
    # 3 steps per epoch, plus full-size evaluation passes for the records
    assert seen.count(4) == 6
    assert seen.count(10) == 3


def test_independent_variables_may_differ_in_size():
    def ok(a, b):
        return Tensor(np.ones(np.broadcast(a.data, b.data).shape))

    # not diag-linked, so unequal lengths are fine and axes stay separate
    th = pair_theory("forall x: (exists y: Same(x, y))", 10, 7,
                     lambda a, b: Tensor(
                         np.full((np.shape(a.data)[0], np.shape(b.data)[0]),
                                 0.5)))
    learn(th, TrainConfig(epochs=1, batch=5), batched=("x", "y"))


def test_diag_unequal_sizes_rejected():
    th = pair_theory("forall (x, y): Same(x, y)", 10, 7,
                     lambda a, b: Tensor(np.ones(np.shape(a.data)[0])))
    with pytest.raises(ValueError, match="unequal"):
        learn(th, TrainConfig(epochs=1, batch=5), batched=("x", "y"))


def test_batch_larger_than_dataset_is_clamped():
    seen = []

    def check(a, b):
        seen.append(np.shape(a.data)[0])
        return Tensor(np.ones(np.shape(a.data)[0]))

    th = pair_theory("forall (x, y): Same(x, y)", 3, 3, check)
    learn(th, TrainConfig(epochs=2, batch=64), batched=("x", "y"))
    assert seen.count(3) == 2 + 3  # one clamped step per epoch + eval passes


def test_a_constant_backed_variable_is_batched_by_index(monkeypatch):
    binds = []

    def seen(theory, scope=None):
        binds.append(scope.binds.get("x"))
        return satisfiability(theory, scope)

    monkeypatch.setattr(training, "satisfiability", seen)
    th, _ = smokers_theory()
    people = set(th.env.instances("x"))
    learn(th, TrainConfig(epochs=1, batch=4), batched=("x",))
    # ceil(14 / 4) steps of 4 distinct people, between the two records
    assert binds[0] is None and binds[-1] is None
    assert [len(set(b) & people) for b in binds[1:-1]] == [4] * 4


def test_learn_rejects_an_undeclared_batched_variable():
    th = callable_theory([0.3])
    with pytest.raises(EvalError, match="'q' is not a declared variable"):
        learn(th, TrainConfig(epochs=1), batched=("q",))


# -- queries -------------------------------------------------------------------


def test_query_kinds_and_errors():
    th = disj_theory(a=0.3, b=0.6)
    with pytest.raises(ValueError, match="unknown query kind"):
        query(th, "belief", "A")
    with pytest.raises(ValueError, match="unseen data"):
        query(th, "generalization-truth", "A")
    res = query(th, "truth", "A | B")
    assert res.kind == "truth"
    assert res.vars == ()
    assert 0.0 <= float(res.values) <= 1.0


def test_truth_value_scalar():
    th = disj_theory(a=0.3, b=0.6)
    assert truth_value(th, "A") == pytest.approx(0.3, abs=1e-9)


def test_query_value_returns_constant_vector():
    src = "domain p = 3\nconst c : p = [1.0, 2.0, 3.0]\npred A = scalar\naxiom: A\n"
    th = build_theory(parse_theory(src), seed=0)
    from reallogic.logic import Const
    res = query(th, "value", Const("c"))
    assert res.kind == "value"
    assert np.allclose(res.values, [1.0, 2.0, 3.0])


def test_generalization_query_over_unseen_instances():
    th = callable_theory([0.1, 0.2], fn=lambda v: Tensor(
        np.clip(np.reshape(v.data, (-1,)), 0.0, 1.0)))
    unseen = np.array([0.25, 0.5, 0.75])
    res = query(th, "generalization-truth", "P(x)", data={"x": unseen})
    assert res.vars == ("x",)
    assert np.allclose(res.values, unseen)


def test_open_query_over_empty_data_returns_an_empty_array():
    th = load_theory(theory_path("multilabel"), seed=0)
    empty = {"x": np.zeros((0, 5))}
    res = query(th, "generalization-truth", "P(x, l_blue)", data=empty)
    assert res.vars == ("x",)
    assert res.values.shape == (0,)
    closed = query(th, "generalization-truth", "forall x: P(x, l_blue)",
                   data=empty)
    assert float(closed.values) == 1.0


@pytest.mark.parametrize("family", sorted(_AGGREGATORS))
def test_quantifier_over_an_empty_bind_reads_its_vacuous_value(family):
    th = load_theory(theory_path("binary"),
                     tags={"forall": family, "exists": family})
    empty = {"x": np.zeros((0, 2))}
    for formula, want in (("forall x: A(x)", 1.0), ("exists x: A(x)", 0.0)):
        res = query(th, "generalization-truth", formula, data=empty)
        assert float(res.values) == want, formula


def test_open_query_over_an_empty_constant_bind_returns_an_empty_array():
    th = load_theory(theory_path("smokers"), seed=0)
    empty = {"x": np.array([], dtype=int)}
    res = query(th, "generalization-truth", "S(x)", data=empty)
    assert res.vars == ("x",)
    assert res.values.shape == (0,)
    closed = query(th, "generalization-truth", "forall x: S(x)", data=empty)
    assert float(closed.values) == 1.0


@pytest.mark.parametrize("demo, formula, bind, message", [
    ("smokers", "S(x)", [-1], "variable x: index -1 is not an integer in 0..13"),
    ("smokers", "S(x)", [1.7], "variable x: index 1.7 is not an integer"),
    ("smokers", "S(x)", [14], "variable x: index 14 is not an integer"),
    ("binary", "A(x)", np.zeros((2, 3)), "variable x needs shape (n, 2)"),
], ids=["negative", "fractional", "past-the-end", "too-wide"])
def test_query_rejects_a_bad_bind_naming_its_variable(demo, formula, bind,
                                                       message):
    th = load_theory(theory_path(demo), seed=0)
    with pytest.raises(EvalError, match=re.escape(message)):
        query(th, "generalization-truth", formula, data={"x": bind})


def test_query_rejects_a_p_override_for_an_unknown_quantifier_kind():
    th = load_theory(theory_path("smokers"), seed=0)
    with pytest.raises(EvalError, match="unknown quantifier kind 'foral'"):
        query(th, "truth", "forall x: S(x)", p={"foral": 5})


def test_query_rejects_a_p_override_for_a_family_that_takes_no_p():
    # exists: smokers' axioms annotate only @forall, which the mean would
    # reject as the theory is built
    th = load_theory(theory_path("smokers"), seed=0, tags={"exists": "max"})
    with pytest.raises(EvalError, match=r"^exists\(p=5\): max takes no p$"):
        query(th, "truth", "exists x: S(x)", p={"exists": 5})


def test_a_bad_scope_p_fails_as_it_is_planned():
    th = load_theory(theory_path("smokers"), seed=0)
    scope = th.env.scope(p={"forall": 0.5})
    f = parse_formula("forall x: S(x)", th.sig)
    with pytest.raises(EvalError, match=r"^forall\(p=0\.5\): p must be >= 1$"):
        logic.plan(th.env, (f,), scope)
    # only a quantifier of that kind, without an annotation, reads it
    logic.plan(th.env, (f, parse_formula("exists x: S(x)", th.sig)), scope,
               [{"forall": 6}, {}])


def test_query_truth_must_stay_in_unit_interval():
    from reallogic.tensor import DomainError

    th = callable_theory([0.5], fn=lambda v: Tensor(np.array([1.7])))
    # aggregation validates quantified bodies; the query layer catches
    # bare atoms that never pass through an operator
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        query(th, "truth", "forall x: P(x)")
    with pytest.raises(RuntimeError, match=r"\[0, 1\]"):
        query(th, "truth", "P(x)")
    th = callable_theory([0.5], fn=lambda v: Tensor(np.array([np.nan])))
    with pytest.raises(RuntimeError, match=r"\[0, 1\]"):
        query(th, "truth", "P(x)")


def slot_theory(value, write=None):
    """``forall x: P(x)`` with P constant at 0.5 and one slot ``w``
    holding ``value``; ``write(w.data)`` runs in every call of P."""
    sig = Signature()
    sig.add_domain("u", 1)
    sig.add_variable("x", "u")
    sig.add_predicate("P", ("u",))
    store = ParamStore(0)
    w = store.add("w", value)

    def p(v):
        if write is not None:
            write(w.data)
        return Tensor(np.full(np.shape(v.data)[0], 0.5))

    env = GroundingEnv(sig, store)
    env.add_var_data("x", np.zeros(2))
    env.add_callable("P", p)
    return Theory((Axiom(parse_formula("forall x: P(x)", sig)),), env)


def test_query_detects_parameter_mutation():
    def bump(data):
        data += 1.0

    with pytest.raises(RuntimeError, match="mutated"):
        query(slot_theory(0.5, bump), "truth", "forall x: P(x)")


def next_ulp(data):
    data[...] = np.nextafter(data, np.inf)


def negate(data):
    np.negative(data, out=data)


@pytest.mark.parametrize("value, write", [
    (0.5, next_ulp),
    (0.0, negate),  # 0.0 becomes -0.0: equal as floats, not as bits
], ids=["one-ulp", "sign-of-zero"])
def test_query_detects_an_in_place_write_of_one_bit(value, write):
    th = slot_theory(value, write)
    with pytest.raises(RuntimeError, match="query mutated the parameter store"):
        query(th, "truth", "forall x: P(x)")


def test_query_accepts_a_slot_holding_nan():
    th = slot_theory(np.nan)
    want = truth_value(slot_theory(0.0), "forall x: P(x)")
    assert truth_value(th, "forall x: P(x)") == want
    assert np.isnan(th.store.get("w").data)


# -- reasoning -----------------------------------------------------------------


def test_soft_penalty_shape():
    def pen(sat):
        return float(soft_penalty(sat, 0.95).data)

    assert pen(0.95) == 0.0
    # continuous across the corner and non-increasing in sat
    below = pen(0.95 - 1e-9)
    above = pen(0.95 + 1e-9)
    assert abs(below) < 1e-7 and abs(above) < 1e-7
    xs = np.linspace(0.0, 1.0, 201)
    pens = [pen(x) for x in xs]
    assert all(a >= b for a, b in zip(pens, pens[1:]))
    # linear deficit below q, bounded reward above
    assert pen(0.85) == pytest.approx(1.0)
    assert pen(1.0) == pytest.approx(0.05 * (np.exp(-0.05) - 1.0))


def test_refutation_finds_disjunction_counterexample():
    rr = reason_refute(lambda s: disj_theory(seed=s), "A",
                       RefutationConfig(epochs=2000))
    assert not rr.entailed and not rr.vacuous
    assert rr.sat >= 0.95
    assert rr.phi < 0.05
    assert rr.counterexample["A"] < 0.05
    assert rr.counterexample["B"] > 0.9
    assert "NOT entailed" in str(rr)


def test_refutation_vacuous_on_contradiction():
    src = ("domain u = 1\npred A = scalar\npred B = scalar\n"
           "axiom: A & ~A\n")

    def build(seed):
        return build_theory(parse_theory(src), seed=seed)

    rr = reason_refute(build, "B", RefutationConfig(epochs=300, restarts=2))
    assert rr.entailed and rr.vacuous
    assert rr.sat < 0.95
    assert rr.counterexample is None


def test_query_after_learning_misses_the_counterexample():
    # maximizing Sat of A | B, then querying A, finds A true on every
    # restart: the counterexample (A false, B true) is never visited
    for seed in range(3):
        th = disj_theory(seed=seed)
        learn(th, TrainConfig(epochs=1000, lr=0.05, batch=64, seed=seed))
        assert float(satisfiability(th).data) >= 0.95
        assert truth_value(th, "A") >= 0.99


def test_refutation_config_validation():
    with pytest.raises(ValueError):
        RefutationConfig(q=0.4)
    with pytest.raises(ValueError):
        RefutationConfig(epochs=0)


# -- metrics output ------------------------------------------------------------


def test_write_metrics_deterministic(tmp_path):
    th = disj_theory(a=0.2, b=0.3)
    recs = learn(th, TrainConfig(epochs=3))
    j1, c1 = tmp_path / "m1.jsonl", tmp_path / "m1.csv"
    j2, c2 = tmp_path / "m2.jsonl", tmp_path / "m2.csv"
    write_metrics(recs, jsonl_path=j1, csv_path=c1)
    write_metrics(recs, jsonl_path=j2, csv_path=c2)
    assert j1.read_bytes() == j2.read_bytes()
    assert c1.read_bytes() == c2.read_bytes()
    lines = j1.read_text().splitlines()
    assert len(lines) == len(recs)
    first = json.loads(lines[0])
    assert list(first) == sorted(first)
    assert c1.read_text().splitlines()[0].startswith("epoch")


def test_metrics_callbacks_logged(tmp_path):
    th = disj_theory(a=0.2, b=0.3)
    recs = learn(th, TrainConfig(epochs=4, log_every=2),
                    metrics={"a_value": lambda t: float(t.store.get("A").data)})
    assert "a_value" in recs[0]
    assert "a_value" in recs[2]
    assert "a_value" not in recs[1]
    assert "a_value" in recs[4]  # final epoch always logs


def test_declared_queries_join_the_due_records():
    th = build_theory(parse_theory(
        DISJ_SRC + 'query "both" @forall(p=3): A & B\n'), seed=0)
    recs = learn(th, TrainConfig(epochs=3, log_every=2))
    assert [("both" in r) for r in recs] == [True, False, True, True]
    assert recs[-1]["both"] == truth_value(th, th.queries[0].formula)


def test_a_metric_named_like_a_query_is_a_settings_error():
    th = build_theory(parse_theory(DISJ_SRC + 'query "both": A & B\n'),
                      seed=0)
    before = th.store.snapshot()
    with pytest.raises(SettingsError, match="^bad training settings: metric "
                                            "'both' is named like a "
                                            "declared query$"):
        learn(th, TrainConfig(epochs=1), metrics={"both": lambda t: 0.0})
    assert th.store.snapshot() == before


def test_param_store_roundtrip(tmp_path):
    th = disj_theory(seed=9)
    learn(th, TrainConfig(epochs=5))
    path = tmp_path / "params.bin"
    th.store.save(path)
    loaded = ParamStore.load(path)
    for n in th.store.names():
        assert np.array_equal(loaded.get(n).data, th.store.get(n).data)
