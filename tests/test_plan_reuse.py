"""Tests of the plans a theory keeps: a kept plan grounds as fresh plans
do, holds nothing bound between runs, and is made once per layout."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reallogic.logic as logic
from reallogic.assemble import load_theory
from reallogic.demos import theory_path
from reallogic.logic import Atom, Axiom, Quant, Var, ground_formula
from reallogic.tensor import Tensor
from reallogic.training import (
    RefutationConfig, Theory, TrainConfig, _planned, learn, query,
    reason_refute, satisfiability, truth_value,
)

from randformula import formulas, guarded_quants
from test_logic import random_formula_env
from test_plan import NAMES, assert_same, closed, run
from test_training import raw_config


def theory_of(env, f):
    """A theory of two axioms: ``f``, closed, and ``forall x: P(x)``,
    which shares P's network run with ``f`` when ``f`` applies P to x."""
    return Theory((Axiom(closed(f)), Axiom(closed(Atom("P", (Var("x"),))))),
                  env)


def twice(env, ground, start):
    """Two runs of ``ground()`` in a row from the RNG state ``start``."""
    return run(env, ground, start), run(env, ground)


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@settings(max_examples=15, deadline=None)
@given(f=st.one_of(formulas(3, NAMES), guarded_quants(3, NAMES)),
       drop=st.sampled_from([0.0, 0.5]))
def test_a_kept_plan_run_twice_grounds_as_two_fresh_plans(training, f, drop):
    env = random_formula_env(drop=drop)
    theory = theory_of(env, f)
    scope = env.scope(training=training)
    start = env.store.rng.bit_generator.state

    def fresh_sat():
        theory._plans.clear()
        return satisfiability(theory, scope)

    kept = twice(env, lambda: satisfiability(theory, scope), start)
    fresh = twice(env, fresh_sat, start)
    for got, want in zip(kept, fresh):
        assert_same(got, want, exact=True)
    # a formula's kept plan against a plan made for each call
    f = closed(f)
    (root,) = _planned(theory, scope, f)
    kept = twice(env, lambda: ground_formula(env, root, scope), start)
    fresh = twice(env, lambda: ground_formula(env, f, scope), start)
    for got, want in zip(kept, fresh):
        assert_same(got, want, exact=True)


def held(node):
    """Every object reachable from a plan node through tuples, lists,
    dicts and dataclass fields."""
    seen, stack = [], [node]
    while stack:
        x = stack.pop()
        seen.append(x)
        if isinstance(x, (tuple, list)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif hasattr(x, "__dataclass_fields__"):
            stack.extend(getattr(x, k) for k in x.__dataclass_fields__)
    return seen


@settings(max_examples=15, deadline=None)
@given(f=st.one_of(formulas(3, NAMES), guarded_quants(3, NAMES)))
def test_a_plan_holds_no_tensor_and_no_bound_data_between_runs(f):
    env = random_formula_env()
    theory = theory_of(env, f)
    rows = np.linspace(0.0, 1.0, 6)[:, None]
    # every variable bound to six rows, so no diagonal truncates
    binds = {"x": rows, "y": rows[::-1], "z": rows ** 2, "w": rows}
    satisfiability(theory, env.scope(binds))
    query(theory, "truth", closed(f), data=binds)
    assert len(theory._plans) == 2
    for roots in theory._plans.values():
        assert not [x for x in held(roots)
                    if isinstance(x, (Tensor, np.ndarray))]


def test_two_binds_of_equal_length_share_one_plan_and_ground_their_rows():
    env = random_formula_env()
    theory = theory_of(env, Atom("P", (Var("x"),)))
    f = Quant("exists", (("y",),), None, Atom("S", (Var("x"), Var("y"))))
    a, b = np.array([[0.1], [0.5]]), np.array([[0.9], [0.3]])
    got = [query(theory, "generalization-truth", f, data={"x": rows}).values
           for rows in (a, b)]
    assert len(theory._plans) == 1
    for values, rows in zip(got, (a, b)):
        want = ground_formula(env, f, env.scope({"x": rows}, training=False))
        assert values.tobytes() == want.tensor.data.tobytes()
    assert not np.array_equal(got[0], got[1])
    # a third length is a new layout
    query(theory, "generalization-truth", f, data={"x": a[:1]})
    assert len(theory._plans) == 2


def test_reassigning_the_operators_makes_a_new_plan():
    env = random_formula_env()
    theory = theory_of(env, Quant("forall", (("x", "y"),), None,
                                  Atom("S", (Var("x"), Var("y")))))
    before = float(satisfiability(theory).data)
    theory.env.cfg = raw_config()
    after = float(satisfiability(theory).data)
    assert len(theory._plans) == 2
    theory._plans.clear()
    assert after == float(satisfiability(theory).data)
    assert after != before


def count_plans(monkeypatch) -> Counter:
    """Patch the planner class; the returned Counter gets one count per
    plan made."""
    made = Counter()

    class Counted(logic._Planner):
        def __init__(self, *args):
            made["plans"] += 1
            super().__init__(*args)

    monkeypatch.setattr(logic, "_Planner", Counted)
    return made


@pytest.mark.parametrize("epochs", [2, 5])
def test_learn_plans_smokers_once_per_layout(epochs, monkeypatch):
    th = load_theory(theory_path("smokers"), seed=0)
    (symmetric,) = [ax for ax in th.axioms if ax.label == "symmetric"]
    made = count_plans(monkeypatch)
    learn(th, TrainConfig(epochs=epochs, lr=0.01), metrics={
        "symmetry": lambda t: truth_value(t, symmetric.formula,
                                          p=symmetric.p)})
    # no dropout network, so a step and a record share one Sat plan;
    # each declared query (phi1, phi2) and the metric make one each
    assert not th.env.has_dropout() and len(th.queries) == 2
    assert made["plans"] == 1 + 2 + 1
    assert len(th._plans) == made["plans"]


def test_each_scope_p_makes_its_own_plan(monkeypatch):
    th = load_theory(theory_path("smokers"), seed=0)
    (symmetric,) = [ax for ax in th.axioms if ax.label == "symmetric"]
    made = count_plans(monkeypatch)
    learn(th, TrainConfig(epochs=4, lr=0.01,
                          exists_schedule=((0, 1.0), (2, 6.0))),
          metrics={"symmetry": lambda t: truth_value(t, symmetric.formula,
                                                     p=symmetric.p)})
    # a Sat plan for each exists p, then one for each query and the metric
    assert made["plans"] == 2 + 2 + 1
    # a query at a p it was planned for reuses that plan
    del made["plans"]
    th = load_theory(theory_path("smokers"), seed=0)
    for p in (3, 3, 4):
        query(th, "truth", symmetric.formula, p={"forall": p})
    assert made["plans"] == 2


@pytest.mark.parametrize("rcfg", [
    RefutationConfig(epochs=1), RefutationConfig(epochs=5),
    RefutationConfig(epochs=5, restarts=3, q=0.99)],
    ids=["1-epoch", "5-epochs", "3-restarts"])
def test_refutation_plans_sat_and_phi_once_per_restart(rcfg, monkeypatch):
    made = count_plans(monkeypatch)
    rr = reason_refute(lambda s: load_theory(theory_path("refute"), seed=s),
                       "A", rcfg)
    # each restart's theory plans Sat and phi once, and the steps, the
    # final Sat and the final truth of phi reuse those plans
    assert made["plans"] == 2 * len(rr.runs)
