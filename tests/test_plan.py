"""Differential tests of the planner and executor against the tree walker
they replaced (``walker.py``), and the work one Sat forward does.

Values must be bit-equal, and so must the RNG state after dropout.
Gradients must be bit-equal where both paths share the same network
runs: Sat, and the walker under a memo. A direct ``ground_formula`` call
shares runs in a plan but not in the walker without a memo, so there the
gradients, summed in another order, agree within 1e-12.
"""

from collections import Counter
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reallogic.logic as logic
from reallogic import tensor as T
from reallogic.assemble import load_theory
from reallogic.demos import theory_path
from reallogic.fuzzy import FuzzyConfig
from reallogic.logic import Atom, Bin, Quant, Var, free_vars, ground_formula
from reallogic.nn import backward
from reallogic.training import Theory, satisfiability

import walker
from randformula import formulas, guarded_quants, never_fires
from test_logic import FAMILY_CASES, random_formula_env

BUNDLED = sorted(p.stem for p in theory_path("refute").parent.glob("*.rl"))
NAMES = list("xyzw")


def closed(f):
    loose = free_vars(f)
    return Quant("forall", tuple((v,) for v in loose), None, f) if loose else f


def run(env, ground, start=None):
    """Value, slot gradients and RNG state after ``ground()``, which
    grounds from the RNG state ``start`` when given."""
    if start is not None:
        env.store.rng.bit_generator.state = start
    out = ground()
    tensor = getattr(out, "tensor", out)
    return (tensor.data, backward(T.reduce_sum(tensor), env.store),
            env.store.rng.bit_generator.state)


def assert_same(got, want, exact):
    (value, grads, state), (want_value, want_grads, want_state) = got, want
    assert value.shape == want_value.shape
    assert value.tobytes() == want_value.tobytes()
    assert state == want_state
    for slot in grads:
        if exact:
            assert grads[slot].tobytes() == want_grads[slot].tobytes(), slot
        else:
            np.testing.assert_allclose(grads[slot], want_grads[slot],
                                       rtol=0, atol=1e-12, err_msg=slot)


def assert_matches_walker(env, f, scope=None):
    """``f`` grounded by the plan against the walker without a memo and
    with one; with a scope that trains an env with a dropout network,
    neither shares, and both start from one RNG state."""
    scope = env.scope() if scope is None else scope
    start = env.store.rng.bit_generator.state
    got = run(env, lambda: ground_formula(env, f, scope), start)
    unshared = run(env, lambda: walker.ground_formula(env, f, scope), start)
    memo = None if scope.training and env.has_dropout() else {}
    shared = run(env, lambda: walker.ground_formula(
        env, f, walker.root_scope(env, scope, memo)), start)
    assert_same(got, shared, exact=True)
    assert_same(got, unshared, exact=memo is None)


@pytest.mark.parametrize("case", range(len(FAMILY_CASES)),
                         ids=[f"{k}:{f}" for k, f in FAMILY_CASES])
@settings(max_examples=8, deadline=None)
@given(f=formulas(3, NAMES))
def test_plans_ground_as_the_walker_under_every_family(case, f):
    kind, family = FAMILY_CASES[case]
    assert_matches_walker(
        random_formula_env(FuzzyConfig().with_tag(kind, family)), closed(f))


@pytest.mark.parametrize("family", ["pmean", "min", "luk_and", "prod"])
@settings(max_examples=10, deadline=None)
@given(node=guarded_quants(3, NAMES))
def test_vacant_guards_ground_as_the_walker(family, node):
    env = random_formula_env(FuzzyConfig().with_tag("forall", family)
                             .with_tag("exists", family))
    vacant = replace(node, guard=never_fires(node.groups[0][0]))
    assert_matches_walker(env, closed(vacant))


@settings(max_examples=25, deadline=None)
@given(outer=st.sampled_from(["forall", "exists"]),
       inner=st.sampled_from(["forall", "exists"]),
       op=st.sampled_from(["and", "or", "implies", "iff"]),
       rest=formulas(2, ["z", "w"]), short=st.booleans())
def test_an_inner_quantifier_rebinding_a_diagonal_member_grounds_as_the_walker(
        outer, inner, op, rest, short):
    # the inner x gets its own axis inside the (x, y) group's shared
    # one, which is truncated to y's two instances when ``short``
    env = random_formula_env()
    pair = Atom("S", (Var("x"), Var("y")))
    f = Quant(outer, (("x", "y"),), None,
              Bin(op, Quant(inner, (("x",),), None, Bin(op, pair, rest)), pair))
    binds = {"y": env.instances("y")[:2]} if short else {}
    with (pytest.warns(UserWarning, match="truncating") if short
          else nullcontext()):
        assert_matches_walker(env, closed(f), env.scope(binds))


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@settings(max_examples=15, deadline=None)
@given(f=formulas(3, NAMES))
def test_dropout_plans_ground_and_draw_as_the_walker(training, f):
    env = random_formula_env(drop=0.5)
    f = closed(f)
    assert_matches_walker(env, f, env.scope(training=training))
    theory = Theory((logic.Axiom(f), logic.Axiom(closed(Atom("P", (
        logic.App("f", (Var("x"),)),))))), env)
    start = env.store.rng.bit_generator.state
    scope = env.scope(training=training)
    assert_same(run(env, lambda: satisfiability(theory, scope), start),
                run(env, lambda: walker.satisfiability(theory, scope), start),
                exact=True)


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_sat_grounds_as_the_walker(name, training):
    theory = load_theory(theory_path(name), seed=0)
    env = theory.env
    start = env.store.rng.bit_generator.state
    scope = env.scope(training=training)
    got = run(env, lambda: satisfiability(theory, scope), start)
    want = run(env, lambda: walker.satisfiability(theory, scope), start)
    assert_same(got, want, exact=True)
    assert (want[2] != start) == (training and env.has_dropout())


# calls of logic.dense_forward, logic.apply_connective and logic.aggregate
# in one Sat forward of each bundled theory as loaded, (eval, train): the
# counts of the walker, which the plan must not change
SAT_CALLS = {
    "addition_multi": ((4, 3, 2), (4, 3, 2)),
    "addition_single": ((2, 1, 2), (2, 1, 2)),
    "binary": ((2, 1, 2), (2, 1, 2)),
    "clustering": ((2, 5, 6), (2, 5, 6)),
    "multiclass": ((3, 0, 3), (3, 0, 3)),
    "multilabel": ((5, 4, 6), (5, 4, 6)),
    "refute": ((0, 1, 0), (0, 1, 0)),
    "regression": ((1, 0, 1), (1, 0, 1)),
    "smokers": ((119, 101, 7), (119, 101, 7)),
}


@pytest.mark.parametrize("name", BUNDLED)
def test_one_sat_forward_makes_the_walkers_calls(name, monkeypatch):
    theory = load_theory(theory_path(name), seed=0)
    calls = Counter()
    for attr in ("dense_forward", "apply_connective", "aggregate"):
        def counted(*args, _attr=attr, _real=getattr(logic, attr), **kw):
            calls[_attr] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(logic, attr, counted)
    seen = []
    for training in (False, True):
        calls.clear()
        satisfiability(theory, theory.env.scope(training=training))
        seen.append(tuple(calls[a] for a in ("dense_forward",
                                             "apply_connective", "aggregate")))
    assert tuple(seen) == SAT_CALLS[name]
