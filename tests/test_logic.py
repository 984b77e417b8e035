"""Grounding and evaluation: term grids, axis bookkeeping, quantifier
semantics (plain, diagonal, guarded), and gradient flow through formulas."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

import reallogic.logic as logic
import reallogic.tensor as T
from reallogic.assemble import euclidean, load_theory
from reallogic.demos import theory_path
from reallogic.fuzzy import _AGGREGATORS, _CONNECTIVES, FuzzyConfig, aggregate
from reallogic.logic import (
    App, Atom, Axiom, Bin, Const, Eq, EvalError, Guard, GroundingEnv, Not,
    Quant, Scope, Signature, SignatureError, Var, free_vars, ground_formula,
)
from reallogic.nn import MlpSpec, ParamStore, backward, dense_forward
from reallogic.parser import parse_formula
from reallogic.tensor import Tensor
from reallogic.training import Theory, satisfiability

from fdcheck import fd_store_grad
from randformula import (
    guarded_quants, rand_formula, rand_repeated, rand_vacant_quant, small_sig,
)
from test_fuzzy import composite_aggregate, composite_connective
import walker

RAW = (FuzzyConfig()
       .with_tag("and", "product").with_tag("or", "product")
       .with_tag("implies", "reichenbach")
       .with_tag("forall", "pmean_error:p=2").with_tag("exists", "pmean:p=2"))


def scalar_env(**preds):
    sig = Signature()
    env = GroundingEnv(sig, ParamStore(seed=0), cfg=RAW)
    for name, val in preds.items():
        sig.add_predicate(name, ())
        env.add_scalar(name, init=val)
    return env


def num_env(cfg=RAW, **var_data):
    """1-d numeric domain with data variables and an identity truth pred."""
    sig = Signature()
    sig.add_domain("num", 1)
    env = GroundingEnv(sig, ParamStore(seed=0), cfg=cfg)
    for name, data in var_data.items():
        sig.add_variable(name, "num")
        env.add_var_data(name, np.asarray(data, float))
    sig.add_predicate("P", ("num",))
    env.add_callable("P", lambda t: T.reshape(t, t.shape[:-1]))
    sig.add_predicate("P2", ("num", "num"))
    env.add_callable("P2", lambda a, b: T.reduce_sum(a * b, axes=(-1,)))
    return env


def forall(groups, body, guard=None):
    return Quant("forall", tuple(groups), guard, body)


def exists(groups, body, guard=None):
    return Quant("exists", tuple(groups), guard, body)


def test_product_function_grid_matches_hand_values():
    sig = Signature()
    sig.add_domain("num", 1)
    sig.add_variable("x", "num")
    sig.add_variable("y", "num")
    sig.add_function("f", ("num", "num"), "num")
    env = GroundingEnv(sig, ParamStore())
    env.add_var_data("x", [1.0, 2.0, 3.0])
    env.add_var_data("y", [-1.0, -2.0])
    env.add_builtin("f", lambda a, b: a * b)
    gv = ground_formula(env, App("f", (Var("x"), Var("y"))))
    assert gv.vars == ("x", "y")
    assert gv.tensor.shape == (3, 2, 1)
    assert np.allclose(gv.tensor.data[..., 0],
                       [[-1.0, -2.0], [-2.0, -4.0], [-3.0, -6.0]])


def test_constant_and_variable_grounding_shapes():
    sig = Signature()
    sig.add_domain("pt", 2)
    sig.add_constant("c", "pt")
    sig.add_variable("x", "pt")
    env = GroundingEnv(sig, ParamStore())
    env.add_const("c", [0.5, -0.5])
    env.add_var_data("x", np.zeros((4, 2)))
    cv = ground_formula(env, Const("c"))
    assert cv.vars == () and cv.tensor.shape == (2,)
    xv = ground_formula(env, Var("x"))
    assert xv.vars == ("x",) and xv.tensor.shape == (4, 2)
    with pytest.raises(EvalError):
        env.add_const("undeclared", [1.0])
    sig.add_constant("d", "pt")
    with pytest.raises(EvalError):
        env.add_const("d", [1.0])  # wrong shape for pt
    with pytest.raises(EvalError):
        env.add_var_data("x", np.zeros((0, 2)))


def test_shared_variable_stays_elementwise_distinct_vars_grid():
    env = num_env(x=[0.1, 0.2, 0.3], y=[0.5, 1.0])
    same = ground_formula(env, Bin("implies", Atom("P", (Var("x"),)),
                                   Atom("P", (Var("x"),))))
    assert same.vars == ("x",) and same.tensor.shape == (3,)
    gridded = ground_formula(env, Bin("implies", Atom("P", (Var("x"),)),
                                      Atom("P", (Var("y"),))))
    assert gridded.vars == ("x", "y") and gridded.tensor.shape == (3, 2)
    # reichenbach on the grid: 1 - a + a*b
    a = np.array([0.1, 0.2, 0.3])[:, None]
    b = np.array([0.5, 1.0])[None, :]
    assert np.allclose(gridded.tensor.data, 1 - a + a * b)


def test_axis_order_is_first_occurrence():
    env = num_env(x=[0.1, 0.2, 0.3], y=[0.5, 1.0])
    gv = ground_formula(env, Bin("and", Atom("P", (Var("y"),)),
                                 Atom("P", (Var("x"),))))
    assert gv.vars == ("y", "x")
    assert gv.tensor.shape == (2, 3)


def test_connective_values_through_formulas():
    env = scalar_env(A=0.3, B=0.8)
    f = lambda node: float(ground_formula(env, node).tensor.data)
    assert f(Not(Atom("A"))) == pytest.approx(0.7)
    assert f(Bin("and", Atom("A"), Atom("B"))) == pytest.approx(0.24)
    assert f(Bin("or", Atom("A"), Atom("B"))) == pytest.approx(0.86)
    assert f(Bin("implies", Atom("A"), Atom("B"))) == pytest.approx(0.94)
    # iff compiles to and(implies(a,b), implies(b,a))
    assert f(Bin("iff", Atom("A"), Atom("B"))) == pytest.approx(0.94 * 0.44)


def test_mlp_predicate_squeezes_feature_axis():
    sig = Signature()
    sig.add_domain("pt", 2)
    sig.add_variable("x", "pt")
    sig.add_predicate("P", ("pt",))
    env = GroundingEnv(sig, ParamStore(seed=4))
    env.add_var_data("x", np.random.default_rng(0).random((5, 2)))
    env.add_mlp("P", MlpSpec((2, 3, 1), ("elu", "sigmoid")))
    gv = ground_formula(env, Atom("P", (Var("x"),)))
    assert gv.tensor.shape == (5,)
    assert np.all((gv.tensor.data > 0) & (gv.tensor.data < 1))
    with pytest.raises(EvalError):
        env.add_mlp("Q", MlpSpec((2, 3, 2), ("elu", "softmax")))


@pytest.mark.parametrize("kind,name,widths,message", [
    ("select", "C", (5, 8, 3),
     "input width 5 does not match feature dim 2"),
    ("select", "C", (2, 8, 4),
     "output width 4 does not match dim 3"),
    ("mlp", "P", (3, 4, 1),
     "input width 3 does not match feature dim 2"),
    ("mlp", "P", (2, 4, 2),
     "output width 2 does not match dim 1"),
    ("mlp", "f", (4, 4, 2),
     "input width 4 does not match feature dim 2"),
    ("mlp", "f", (2, 4, 3),
     "output width 3 does not match dim 2"),
], ids=["select-in", "select-out", "pred-in", "pred-out", "func-in",
        "func-out"])
def test_hand_built_networks_must_fit_the_signature(kind, name, widths,
                                                    message):
    # checked when the network is added, not at its first forward
    sig = Signature()
    sig.add_domain("pt", 2)
    sig.add_domain("label3", 3)
    sig.add_domain("idx", 1)
    sig.add_predicate("C", ("pt", "label3"))
    sig.add_predicate("D", ("pt", "idx"))
    sig.add_predicate("P", ("pt",))
    sig.add_function("f", ("pt",), "pt")
    env = GroundingEnv(sig, ParamStore(seed=0))
    add = getattr(env, f"add_{kind}")
    with pytest.raises(EvalError, match=message):
        add(name, MlpSpec(widths, ("elu", "sigmoid")))
    assert env.store.names() == []
    # a class domain of dim 1 holds indices, so any output width fits
    env.add_select("D", MlpSpec((2, 8, 5), ("elu", "softmax")))


def test_builtins_ground_only_functions_and_callables_only_predicates():
    # both kinds share one table, so a grounding of the wrong kind would
    # give a truth a feature axis, or a term none
    sig = Signature()
    sig.add_domain("pt", 2)
    sig.add_predicate("P", ("pt",))
    sig.add_function("f", ("pt",), "pt")
    env = GroundingEnv(sig, ParamStore(seed=0))
    with pytest.raises(EvalError, match="'P' is not a declared function"):
        env.add_builtin("P", euclidean)
    with pytest.raises(EvalError, match="'f' is not a declared predicate"):
        env.add_callable("f", lambda t: T.reshape(t, t.shape[:-1]))


def test_a_hand_built_term_or_atom_must_name_its_kind():
    # one table grounds both kinds, so the AST node names which it wants
    sig = Signature()
    sig.add_domain("pt", 2)
    sig.add_variable("x", "pt")
    sig.add_predicate("P", ("pt",))
    sig.add_function("f", ("pt",), "pt")
    env = GroundingEnv(sig, ParamStore(seed=0))
    env.add_var_data("x", np.zeros((3, 2)))
    env.add_mlp("P", MlpSpec((2, 1), ("sigmoid",)))
    env.add_mlp("f", MlpSpec((2, 2), ("elu",)))
    with pytest.raises(EvalError, match="'P' is not a declared function"):
        ground_formula(env, App("P", (Var("x"),)))
    with pytest.raises(EvalError, match="'f' is not a declared predicate"):
        ground_formula(env, Atom("f", (Var("x"),)))
    assert ground_formula(env, App("f", (Var("x"),))).tensor.shape == (3, 2)
    assert ground_formula(env, Atom("P", (Var("x"),))).tensor.shape == (3,)


def test_smooth_equality_value_and_alpha():
    sig = Signature()
    sig.add_domain("pt", 2)
    sig.add_constant("a", "pt")
    sig.add_constant("b", "pt")
    env = GroundingEnv(sig, ParamStore(),
                       cfg=RAW.with_tag("eq_alpha", "2.0"))
    env.add_const("a", [0.0, 0.0])
    env.add_const("b", [3.0, 4.0])
    gv = ground_formula(env, Eq(Const("a"), Const("b")))
    assert float(gv.tensor.data) == pytest.approx(np.exp(-2.0 * 5.0))
    same = ground_formula(env, Eq(Const("a"), Const("a")))
    assert float(same.tensor.data) == pytest.approx(1.0, abs=1e-5)


def test_forall_exists_basic_aggregation():
    cfg = RAW.with_tag("forall", "mean").with_tag("exists", "max")
    env = num_env(cfg=cfg, x=[0.2, 0.7, 0.8])
    allx = ground_formula(env, forall([("x",)], Atom("P", (Var("x"),))))
    assert allx.vars == ()
    assert float(allx.tensor.data) == pytest.approx((0.2 + 0.7 + 0.8) / 3)
    some = ground_formula(env, exists([("x",)], Atom("P", (Var("x"),))))
    assert float(some.tensor.data) == pytest.approx(0.8)


def test_quantifier_p_override_applies():
    env = num_env(x=[0.2, 0.7, 0.8])
    xs = np.array([0.2, 0.7, 0.8])
    got = ground_formula(env, forall([("x",)], Atom("P", (Var("x"),))),
                         Scope(p={"forall": 4}))
    assert float(got.tensor.data) == pytest.approx(
        1 - (np.mean((1 - xs) ** 4)) ** 0.25)
    got = ground_formula(env, exists([("x",)], Atom("P", (Var("x"),))),
                         Scope(p={"exists": 6}))
    assert float(got.tensor.data) == pytest.approx((np.mean(xs ** 6)) ** (1 / 6))


def test_nested_matches_joint_for_symmetric_p1():
    cfg = RAW.with_tag("forall", "pmean_error:p=1").with_tag("exists", "pmean:p=1")
    env = num_env(cfg=cfg, x=[0.1, 0.5, 0.9], y=[0.3, 0.7])
    body = Atom("P2", (Var("x"), Var("y")))
    nested = ground_formula(env, Quant("forall", (("x",),),
                                       None, Quant("forall", (("y",),), None, body)))
    joint = ground_formula(env, Quant("forall", (("x",), ("y",)), None, body))
    assert abs(float(nested.tensor.data) - float(joint.tensor.data)) < 1e-9
    nested = ground_formula(env, Quant("exists", (("x",),),
                                       None, Quant("exists", (("y",),), None, body)))
    joint = ground_formula(env, Quant("exists", (("x",), ("y",)), None, body))
    assert abs(float(nested.tensor.data) - float(joint.tensor.data)) < 1e-9


def test_diagonal_quantification_matches_paired_oracle():
    cfg = RAW.with_tag("forall", "mean")
    xs = [0.1, 0.5, 0.9]
    ys = [0.3, 0.7, 0.2]
    env = num_env(cfg=cfg, x=xs, y=ys)
    body = Atom("P2", (Var("x"), Var("y")))
    diag = ground_formula(env, forall([("x", "y")], body))
    want = np.mean([a * b for a, b in zip(xs, ys)])
    assert float(diag.tensor.data) == pytest.approx(want)
    grid = ground_formula(env, forall([("x",), ("y",)], body))
    assert float(grid.tensor.data) == pytest.approx(np.outer(xs, ys).mean())
    assert not np.isclose(float(diag.tensor.data), float(grid.tensor.data))


def test_diagonal_truncates_with_warning():
    cfg = RAW.with_tag("forall", "mean")
    env = num_env(cfg=cfg, x=[0.1, 0.5, 0.9], y=[0.3, 0.7])
    body = Atom("P2", (Var("x"), Var("y")))
    with pytest.warns(UserWarning, match="truncating"):
        gv = ground_formula(env, forall([("x", "y")], body))
    assert float(gv.tensor.data) == pytest.approx(
        np.mean([0.1 * 0.3, 0.5 * 0.7]))


def test_failed_evaluation_leaves_env_untouched():
    env = num_env(x=[0.1, 0.5, 0.9], y=[0.3, 0.7])
    env.training = True
    # a declared predicate without a grounding fails inside a diagonal
    # quantifier, after the quantifier derived its truncated child scope
    sig = env.sig
    sig.add_predicate("Q2", ("num", "num"))
    body = Atom("Q2", (Var("x"), Var("y")))
    # a vector-valued guard term is rejected inside the guard
    sig.add_domain("pt", 2)
    sig.add_variable("v", "pt")
    env.add_var_data("v", np.zeros((2, 2)))
    bad_guard = Guard("<", ((1.0, Var("v")),), ((1.0, None),))

    def state():
        return {k: (v, dict(v) if isinstance(v, dict) else None)
                for k, v in vars(env).items()}

    before = state()
    with pytest.warns(UserWarning, match="unequal"), \
            pytest.raises(EvalError, match="no grounding"):
        ground_formula(env, forall([("x", "y")], body))
    with pytest.raises(EvalError, match="scalar"):
        ground_formula(env, forall([("x",)], Atom("P", (Var("x"),)),
                                   bad_guard))
    after = state()
    assert after.keys() == before.keys()
    for k, (v, items) in before.items():
        assert after[k][0] is v, k
        if items is not None:
            assert after[k][1].keys() == items.keys(), k
            assert all(after[k][1][n] is items[n] for n in items), k


def test_guarded_mean_fixture():
    # instances scoring (0.2, 0.7, 0.8); the guard admits the last two
    cfg = RAW.with_tag("forall", "mean")
    env = num_env(cfg=cfg, x=[2.0, 7.0, 8.0])
    sig = env.sig
    sig.add_predicate("tenth", ("num",))
    env.add_callable("tenth", lambda t: T.reshape(t * 0.1, t.shape[:-1]))
    guard = Guard(">", ((1.0, Var("x")),), ((5.0, None),))
    gv = ground_formula(env, forall([("x",)], Atom("tenth", (Var("x"),)),
                                    guard))
    assert float(gv.tensor.data) == pytest.approx(0.75)


def test_empty_guard_gives_vacuous_truth():
    env = num_env(x=[1.0, 2.0, 3.0])
    guard = Guard(">", ((1.0, Var("x")),), ((100.0, None),))
    body = Atom("P", (Var("x"),))
    # P values are out of [0,1] here but never touched: all cells masked out
    env2 = num_env(x=[0.1, 0.2, 0.3])
    allx = ground_formula(env2, forall([("x",)], body, guard))
    assert float(allx.tensor.data) == 1.0
    some = ground_formula(env2, exists([("x",)], body, guard))
    assert float(some.tensor.data) == 0.0


def test_guard_with_affine_combination_and_builtin():
    sig = Signature()
    sig.add_domain("pt", 2)
    sig.add_domain("num", 1)
    sig.add_variable("u", "pt")
    sig.add_variable("v", "pt")
    sig.add_function("dist", ("pt", "pt"), "num")
    sig.add_predicate("close", ("pt", "pt"))
    env = GroundingEnv(sig, ParamStore(), cfg=RAW.with_tag("forall", "mean"))
    rng = np.random.default_rng(1)
    us, vs = rng.random((4, 2)), rng.random((3, 2))
    env.add_var_data("u", us)
    env.add_var_data("v", vs)
    env.add_builtin(
        "dist", lambda a, b: np.sqrt(((a - b) ** 2).sum(-1, keepdims=True)))
    env.add_callable(
        "close", lambda a, b: T.reduce_sum((a - b) * 0.0, axes=(-1,)) + 0.5)
    d = np.sqrt(((us[:, None, :] - vs[None, :, :]) ** 2).sum(-1))
    # guard: 2*dist(u,v) < 1.1  <=>  dist < 0.55
    guard = Guard("<", ((2.0, App("dist", (Var("u"), Var("v")))),),
                  ((1.1, None),))
    gv = ground_formula(env, forall([("u",), ("v",)],
                                    Atom("close", (Var("u"), Var("v"))), guard))
    want_mask = 2 * d < 1.1
    assert want_mask.any() and not want_mask.all()  # fixture is informative
    assert float(gv.tensor.data) == pytest.approx(0.5)
    # per-cell truth is 0.5, so masked mean is 0.5 wherever nonempty; check
    # the mask actually bit by quantifying only over v with u free
    gv_u = ground_formula(env, forall([("v",)],
                                      Atom("close", (Var("u"), Var("v"))),
                                      guard))
    assert gv_u.vars == ("u",)
    empty_rows = ~want_mask.any(axis=1)
    if empty_rows.any():
        assert np.allclose(gv_u.tensor.data[empty_rows], 1.0)


def test_out_of_guard_instances_get_zero_gradient():
    sig = Signature()
    sig.add_domain("num", 1)
    for c in ("a", "b", "c"):
        sig.add_constant(c, "num")
    sig.add_variable("x", "num")
    sig.add_predicate("P", ("num",))
    store = ParamStore(seed=0)
    env = GroundingEnv(sig, store, cfg=RAW.with_tag("forall", "mean"))
    env.add_const("a", [0.2], trainable=True)
    env.add_const("b", [0.6], trainable=True)
    env.add_const("c", [0.9], trainable=True)
    env.add_var_consts("x", ("a", "b", "c"))
    env.add_callable("P", lambda t: T.reshape(t, t.shape[:-1]))
    guard = Guard("<", ((1.0, Var("x")),), ((0.8, None),))
    gv = ground_formula(env, forall([("x",)], Atom("P", (Var("x"),)), guard))
    assert float(gv.tensor.data) == pytest.approx(0.4)
    grads = backward(gv.tensor, store)
    assert np.allclose(grads["const/a"], 0.5)
    assert np.allclose(grads["const/b"], 0.5)
    assert np.all(grads["const/c"] == 0.0)  # fully outside the guard


def test_vacuous_quantified_variable_broadcasts():
    env = scalar_env(A=0.3)
    sig = env.sig
    sig.add_domain("num", 1)
    sig.add_variable("x", "num")
    env.add_var_data("x", [1.0, 2.0, 3.0, 4.0])
    env.cfg = RAW.with_tag("forall", "prod")
    gv = ground_formula(env, forall([("x",)], Atom("A")))
    assert float(gv.tensor.data) == pytest.approx(0.3 ** 4)


def test_bind_rebinds_data_and_const_variables():
    env = num_env(cfg=RAW.with_tag("forall", "mean"), x=[0.1, 0.2, 0.3, 0.4])
    node = forall([("x",)], Atom("P", (Var("x"),)))
    gv = ground_formula(env, node, env.scope({"x": np.array([0.4, 0.8])}))
    assert float(gv.tensor.data) == pytest.approx(0.6)
    gv = ground_formula(env, node)
    assert float(gv.tensor.data) == pytest.approx(0.25)

    sig = Signature()
    sig.add_domain("num", 1)
    for c in ("a", "b"):
        sig.add_constant(c, "num")
    sig.add_variable("z", "num")
    sig.add_predicate("P", ("num",))
    env2 = GroundingEnv(sig, ParamStore(), cfg=RAW.with_tag("forall", "mean"))
    env2.add_const("a", [0.2])
    env2.add_const("b", [0.8])
    env2.add_var_consts("z", ("a", "b"))
    env2.add_callable("P", lambda t: T.reshape(t, t.shape[:-1]))
    gv = ground_formula(env2, forall([("z",)], Atom("P", (Var("z"),))),
                        env2.scope({"z": np.array([1])}))
    assert float(gv.tensor.data) == pytest.approx(0.8)
    with pytest.raises(EvalError, match="cannot bind unknown variable"):
        env2.scope({"w": np.array([0])})


def test_select_predicate_one_hot_and_integer_labels():
    sig = Signature()
    sig.add_domain("pt", 2)
    sig.add_domain("label3", 3)
    sig.add_domain("idx", 1)
    sig.add_variable("x", "pt")
    sig.add_variable("l", "label3")
    sig.add_variable("d", "idx")
    sig.add_predicate("C", ("pt", "label3"))
    sig.add_predicate("D", ("pt", "idx"))
    store = ParamStore(seed=8)
    env = GroundingEnv(sig, store)
    spec = MlpSpec((2, 4, 3), ("elu", "softmax"))
    env.add_select("C", spec)
    rng = np.random.default_rng(2)
    xs = rng.random((5, 2))
    env.add_var_data("x", xs)
    env.add_var_data("l", np.eye(3))
    env.add_var_data("d", np.array([0.0, 1.0, 2.0]))

    from reallogic.nn import dense_forward
    probs = dense_forward(spec, store, "C", Tensor(xs), training=False).data

    gv = ground_formula(env, Atom("C", (Var("x"), Var("l"))))
    assert gv.vars == ("x", "l") and gv.tensor.shape == (5, 3)
    assert np.allclose(gv.tensor.data, probs)

    spec2 = MlpSpec((2, 4, 3), ("elu", "softmax"))
    env.add_select("D", spec2)
    gv2 = ground_formula(env, Atom("D", (Var("x"), Var("d"))))
    probs2 = dense_forward(spec2, store, "D", Tensor(xs), training=False).data
    assert np.allclose(gv2.tensor.data, probs2)

    sig.add_variable("bad", "pt")
    env.add_var_data("bad", rng.random((2, 2)))
    with pytest.raises(EvalError, match="class argument"):
        ground_formula(env, Atom("C", (Var("x"), Var("bad"))))


def network_env(drops=(0.0, 0.0)):
    """Networks of every kind over points x, y (5 each), one-hot classes
    l (3), integer classes d (3) and bounds n (4): select predicates C
    (class one-hot), D (class index) and S (two feature arguments), a
    plain two-argument predicate F, and a network function f."""
    sig = Signature()
    for name, dim in (("pt", 2), ("label3", 3), ("idx", 1)):
        sig.add_domain(name, dim)
    for name, dom in (("x", "pt"), ("y", "pt"), ("l", "label3"),
                      ("d", "idx"), ("n", "idx")):
        sig.add_variable(name, dom)
    sig.add_constant("a", "pt")
    sig.add_constant("c", "label3")
    sig.add_predicate("C", ("pt", "label3"))
    sig.add_predicate("D", ("pt", "idx"))
    sig.add_predicate("S", ("pt", "pt", "label3"))
    sig.add_predicate("F", ("pt", "pt"))
    sig.add_function("f", ("pt", "pt"), "pt")
    env = GroundingEnv(sig, ParamStore(seed=11))
    rng = np.random.default_rng(12)
    env.add_var_data("x", rng.random((5, 2)))
    env.add_var_data("y", rng.random((5, 2)))
    env.add_var_data("l", np.eye(3))
    env.add_var_data("d", np.arange(3.0))
    env.add_var_data("n", np.array([0.0, 2.0, 1.0, 2.0]))
    env.add_const("a", trainable=True)
    env.add_const("c", [0.0, 1.0, 0.0])
    env.add_select("C", MlpSpec((2, 4, 3), ("elu", "softmax"), drops))
    env.add_select("D", MlpSpec((2, 4, 3), ("elu", "softmax")))
    env.add_select("S", MlpSpec((4, 5, 3), ("elu", "softmax")))
    env.add_mlp("F", MlpSpec((4, 3, 1), ("elu", "sigmoid")))
    env.add_mlp("f", MlpSpec((4, 3, 2), ("elu", "sigmoid")))
    return env


def full_grid_networks(monkeypatch):
    """Patch the tree walker of ``walker.py`` into the full-grid network
    path, the oracle of the per-argument one: each argument is broadcast
    to the grid of the atom or term that runs the network. That grid
    comes from the atom's or term's own ``align`` call, the last one
    before its network runs."""
    grids = []
    real_align = walker.align

    def align(values, feature):
        order, aligned = real_align(values, feature)
        grids.append(np.broadcast_shapes(*(t.shape[:-1] for t in aligned)))
        return order, aligned

    def network(env, name, spec, args, scope):
        parts = [T.broadcast_to(t, grids[-1] + (t.shape[-1],)) for t in args]
        x = parts[0] if len(parts) == 1 else T.concat(parts, axis=-1)
        return dense_forward(spec, env.store, name, x, training=scope.training)

    monkeypatch.setattr(walker, "align", align)
    monkeypatch.setattr(walker, "_network", network)


def value_and_grads(env, node, ground=ground_formula):
    """Truth of ``node`` by ``ground`` and every slot's gradient of a
    fixed random weighting of its cells."""
    gv = ground(env, node)
    weights = np.random.default_rng(1).random(gv.tensor.shape)
    return gv, backward(T.reduce_sum(gv.tensor * Tensor(weights)), env.store)


D_UP_TO_N = Guard("<=", ((1.0, Var("d")),), ((1.0, Var("n")),))
NETWORK_CASES = {  # case: (text, the formula it parses to)
    "variable-one-hot-class": ("C(x, l)", Atom("C", (Var("x"), Var("l")))),
    "integer-index-class": ("D(x, d)", Atom("D", (Var("x"), Var("d")))),
    "constant-class": ("C(x, c)", Atom("C", (Var("x"), Const("c")))),
    "select-two-features": ("S(x, y, l)",
                            Atom("S", (Var("x"), Var("y"), Var("l")))),
    "plain-mlp-constant-arg": ("F(x, a)", Atom("F", (Var("x"), Const("a")))),
    "network-term": ("C(f(x, a), l)",
                     Atom("C", (App("f", (Var("x"), Const("a"))), Var("l")))),
    "under-guard": ("exists d [d <= n]: D(x, d)",
                    exists([("d",)], Atom("D", (Var("x"), Var("d"))),
                           D_UP_TO_N)),
    "diagonal-group": ("forall (x, y): S(x, y, l)",
                       forall([("x", "y")],
                              Atom("S", (Var("x"), Var("y"), Var("l"))))),
}


@pytest.mark.parametrize("case", sorted(NETWORK_CASES))
def test_argument_grid_networks_match_full_grid_oracle(case, monkeypatch):
    text, node = NETWORK_CASES[case]
    env = network_env()
    assert parse_formula(text, env.sig) == node
    got, got_grads = value_and_grads(env, node)
    with monkeypatch.context() as m:
        full_grid_networks(m)
        want, want_grads = value_and_grads(env, node, walker.ground_formula)
    assert got.vars == want.vars
    np.testing.assert_allclose(got.tensor.data, want.tensor.data,
                               rtol=0, atol=1e-12)
    assert got_grads.keys() == want_grads.keys()
    for name in got_grads:
        np.testing.assert_allclose(got_grads[name], want_grads[name],
                                   rtol=0, atol=1e-12, err_msg=name)
    assert any(np.any(g != 0.0) for g in got_grads.values())


def record_dense_forward(monkeypatch):
    """Patch dense_forward in logic to log (input, output) per call."""
    calls = []

    def recorded(spec, store, prefix, x, training):
        out = dense_forward(spec, store, prefix, x, training=training)
        calls.append((x.shape, out.data))
        return out

    monkeypatch.setattr(logic, "dense_forward", recorded)
    return calls


def test_select_network_runs_once_per_feature_row(monkeypatch):
    env = network_env()
    calls = record_dense_forward(monkeypatch)
    gv = ground_formula(env, Atom("C", (Var("x"), Var("l"))))
    assert gv.tensor.shape == (5, 3)
    assert [shape for shape, _ in calls] == [(5, 1, 2)]  # 5 rows, not 5 x 3


def test_dropout_mask_is_shared_by_one_rows_classes(monkeypatch):
    # dropout on the hidden layer, then softmax: a row's classes sum to 1
    # only if they come from one network run with one mask
    env = network_env(drops=(0.5, 0.0))
    atom = Atom("C", (Var("x"), Var("l")))
    calls = record_dense_forward(monkeypatch)
    noisy = ground_formula(env, atom, env.scope(training=True)).tensor.data
    assert len(calls) == 1
    assert np.array_equal(noisy, calls[0][1][:, 0, :])
    np.testing.assert_allclose(noisy.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    plain = ground_formula(env, atom, env.scope(training=False)).tensor.data
    assert not np.allclose(noisy, plain)


@pytest.mark.parametrize("bad", [-1.0, 2.5, 3.0])
def test_select_rejects_bad_integer_class_index(bad):
    env = network_env()
    env.add_var_data("d", np.array([0.0, bad, 1.0]))
    with pytest.raises(EvalError, match=re.escape(f"D: class index {bad:g} ")):
        ground_formula(env, Atom("D", (Var("x"), Var("d"))))


def assert_store_grads_match_fd(env, node):
    """Autodiff gradients of a closed formula's truth against central
    differences, slot by slot (zero for a slot the formula does not
    reach); at least one slot must get a gradient."""
    def value():
        return float(ground_formula(env, node).tensor.data)

    grads = backward(ground_formula(env, node).tensor, env.store)
    moved = False
    for name in env.store.names():
        got = grads[name]
        want = fd_store_grad(env.store, name, value)
        assert np.allclose(got, want, rtol=1e-4, atol=1e-7), name
        moved |= bool(np.any(got != 0.0))
    assert moved


def test_formula_gradients_match_fd_through_quantifiers():
    sig = Signature()
    sig.add_domain("pt", 2)
    sig.add_variable("x", "pt")
    sig.add_predicate("P", ("pt",))
    sig.add_predicate("Q", ("pt",))
    env = GroundingEnv(sig, ParamStore(seed=13), cfg=RAW)
    env.add_var_data("x", np.random.default_rng(3).random((6, 2)))
    env.add_mlp("P", MlpSpec((2, 3, 1), ("elu", "sigmoid")))
    env.add_mlp("Q", MlpSpec((2, 3, 1), ("elu", "sigmoid")))
    node = Quant("forall", (("x",),), None,
                 Bin("implies", Atom("P", (Var("x"),)), Atom("Q", (Var("x"),))))
    assert_store_grads_match_fd(env, node)


def test_guarded_addition_gradients_match_fd():
    # addition-single: forall (x, y, n): exists d1, d2 [d1 + d2 = n]:
    # digit_is(x, d1) & digit_is(y, d2), with digits 0-3
    sig = Signature()
    for name, dim in (("image", 3), ("result", 1), ("digit", 1)):
        sig.add_domain(name, dim)
    for name, dom in (("x", "image"), ("y", "image"), ("n", "result"),
                      ("d1", "digit"), ("d2", "digit")):
        sig.add_variable(name, dom)
    sig.add_predicate("digit_is", ("image", "digit"))
    env = GroundingEnv(sig, ParamStore(seed=5))
    env.add_select("digit_is", MlpSpec((3, 4, 4), ("elu", "softmax")))
    rng = np.random.default_rng(6)
    env.add_var_data("x", rng.random((5, 3)))
    env.add_var_data("y", rng.random((5, 3)))
    env.add_var_data("n", np.array([0.0, 3.0, 6.0, 2.0, 7.0]))  # 7: no pair
    env.add_var_data("d1", np.arange(4.0))
    env.add_var_data("d2", np.arange(4.0))
    guard = Guard("=", ((1.0, Var("d1")), (1.0, Var("d2"))), ((1.0, Var("n")),))
    body = Bin("and", Atom("digit_is", (Var("x"), Var("d1"))),
               Atom("digit_is", (Var("y"), Var("d2"))))
    node = forall([("x", "y", "n")], exists([("d1",), ("d2",)], body, guard))
    assert parse_formula("forall (x, y, n): exists d1, d2 [d1 + d2 = n]: "
                         "digit_is(x, d1) & digit_is(y, d2)", sig) == node
    assert_store_grads_match_fd(env, node)


def test_guarded_clustering_gradients_match_fd():
    # clustering: forall c, x, y [dist(x, y) < t]: C(x, c) <-> C(y, c);
    # the guard leaves c out. Nested under forall c, the inner aggregate
    # reduces the non-trailing x and y axes of the (x, c, y) body.
    sig = Signature()
    for name, dim in (("point", 2), ("cluster", 3), ("measure", 1)):
        sig.add_domain(name, dim)
    for name, dom in (("x", "point"), ("y", "point"), ("c", "cluster")):
        sig.add_variable(name, dom)
    sig.add_function("dist", ("point", "point"), "measure")
    sig.add_predicate("C", ("point", "cluster"))
    env = GroundingEnv(sig, ParamStore(seed=4),
                       cfg=FuzzyConfig().with_tag("forall", "pmean_error:p=4"))
    env.add_select("C", MlpSpec((2, 5, 3), ("elu", "softmax")))
    pts = np.random.default_rng(9).random((6, 2))
    env.add_var_data("x", pts)
    env.add_var_data("y", pts)
    env.add_var_data("c", np.eye(3))
    env.add_builtin("dist", euclidean)
    guard = Guard("<", ((1.0, App("dist", (Var("x"), Var("y")))),), ((0.4, None),))
    kept = euclidean(pts[:, None], pts[None, :]) < 0.4
    assert kept.any() and not kept.all()  # the guard is informative
    body = Bin("iff", Atom("C", (Var("x"), Var("c"))), Atom("C", (Var("y"), Var("c"))))
    for text, node in (
            ("forall c, x, y", forall([("c",), ("x",), ("y",)], body, guard)),
            ("forall c: forall x, y",
             forall([("c",)], forall([("x",), ("y",)], body, guard)))):
        text += " [dist(x, y) < 0.4]: C(x, c) <-> C(y, c)"
        assert parse_formula(text, sig) == node
        assert_store_grads_match_fd(env, node)


def random_formula_env(cfg=None, drop=0.0):
    """``small_sig`` grounded under ``cfg`` (default: the stable-product
    config): three instances per variable, trainable constants,
    trainable networks for P, Q, S, f and g (the functions' hidden
    layer with dropout rate ``drop``), and a trainable truth scalar
    for R."""
    env = GroundingEnv(small_sig(), ParamStore(seed=21), cfg)
    rng = np.random.default_rng(22)
    for v in "xyzw":
        env.add_var_data(v, rng.random((3, 1)))
    for c in "cd":
        env.add_const(c, trainable=True)
    for name, din in (("P", 1), ("Q", 1), ("S", 2)):
        env.add_mlp(name, MlpSpec((din, 3, 1), ("elu", "sigmoid")))
    for name, din in (("f", 1), ("g", 2)):
        env.add_mlp(name, MlpSpec((din, 3, 1), ("elu", "sigmoid"),
                                  (drop, 0.0)))
    env.add_scalar("R", init=0.6)
    return env


RANDOM_FORMULAS = 40


def assert_random_formula_grads_match_fd(env, rng, count, op="implies"):
    """``count`` random formulas, closed by a forall over their free
    variables and joined to ``R`` by ``op`` so that every one reaches a
    slot (a formula of variable equalities alone reaches none)."""
    for _ in range(count):
        f = rand_formula(rng, 4, list("xyzw"))
        loose = free_vars(f)
        if loose:
            f = forall([(v,) for v in loose], f)
        assert_store_grads_match_fd(env, Bin(op, Atom("R"), f))


def test_random_formula_gradients_match_fd():
    assert_random_formula_grads_match_fd(
        random_formula_env(), np.random.default_rng(23), RANDOM_FORMULAS)


# one case per family: every binary connective, and every aggregator under
# both quantifiers, the other operators at their defaults
FAMILY_CASES = ([(kind, family) for kind, family in _CONNECTIVES
                 if kind != "not"]
                + [(kind, family) for kind in ("forall", "exists")
                   for family in _AGGREGATORS])


@pytest.mark.parametrize("case", range(len(FAMILY_CASES)),
                         ids=[f"{k}:{f}" for k, f in FAMILY_CASES])
def test_random_formula_gradients_match_fd_under_every_family(case):
    kind, family = FAMILY_CASES[case]
    # godel, goguen and luk implications read 1 wherever R <= the formula,
    # where R -> f would reach no slot
    assert_random_formula_grads_match_fd(
        random_formula_env(FuzzyConfig().with_tag(kind, family)),
        np.random.default_rng([23, case]), 2,
        "and" if kind == "implies" else "implies")


@pytest.mark.parametrize("case", range(len(FAMILY_CASES)),
                         ids=[f"{k}:{f}" for k, f in FAMILY_CASES])
def test_random_formulas_ground_as_under_the_composite_rules(case, monkeypatch):
    kind, family = FAMILY_CASES[case]
    env = random_formula_env(FuzzyConfig().with_tag(kind, family))
    rng = np.random.default_rng([24, case])
    for _ in range(2):
        f = rand_formula(rng, 4, list("xyzw"))
        loose = free_vars(f)
        f = forall([(v,) for v in loose], f) if loose else f
        runs = []
        for composite in (False, True):
            with monkeypatch.context() as m:
                if composite:
                    m.setattr(logic, "apply_connective", composite_connective)
                    m.setattr(logic, "aggregate", composite_aggregate)
                out = ground_formula(env, f).tensor
                runs.append((out.data, backward(out, env.store)))
        (got, got_grads), (want, want_grads) = runs
        np.testing.assert_array_equal(got, want)
        for name in env.store.names():
            np.testing.assert_allclose(got_grads[name], want_grads[name],
                                       rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("training, drop", [(False, 0.5), (True, 0.0),
                                             (True, 0.5)],
                         ids=["eval", "train", "train-dropout"])
def test_shared_network_outputs_match_the_unshared_path(training, drop,
                                                        monkeypatch):
    # the shared path is satisfiability, whose plan shares network runs
    # unless the scope trains a dropout network; the unshared one is the
    # tree walker of walker.py under a scope without a memo
    env = random_formula_env(drop=drop)
    calls = record_dense_forward(monkeypatch)
    rng = np.random.default_rng([26, training])
    start = env.store.rng.bit_generator.state
    for _ in range(RANDOM_FORMULAS):
        f = rand_repeated(rng, 3, list("xyzw"))
        loose = free_vars(f)
        f = forall([(v,) for v in loose], f) if loose else f
        runs = []
        for shared in (False, True):
            del calls[:]
            env.store.rng.bit_generator.state = start
            scope = env.scope(training=training)
            if shared:
                out = satisfiability(Theory((Axiom(f),), env), scope)
            else:
                out = aggregate(env.cfg.sat_agg, T.stack(
                    [walker.ground_formula(env, f, scope).tensor]), 1)
            runs.append((out.data, backward(out, env.store), len(calls),
                         env.store.rng.bit_generator.state))
        (want, want_grads, unshared, want_rng), \
            (got, got_grads, shared, got_rng) = runs
        np.testing.assert_array_equal(got, want)
        for name in env.store.names():
            np.testing.assert_allclose(got_grads[name], want_grads[name],
                                       rtol=0, atol=1e-12, err_msg=name)
        assert got_rng == want_rng
        if training and drop:  # every occurrence draws its own masks
            assert shared == unshared and got_rng != start, f
        else:  # the term runs once for two atoms
            assert shared < unshared, f


@pytest.mark.parametrize("family", sorted(_AGGREGATORS))
def test_a_guard_that_never_fires_reads_its_empty_value_under_every_family(family):
    unguarded_moved = False
    for kind, empty in (("forall", 1.0), ("exists", 0.0)):
        env = random_formula_env(FuzzyConfig().with_tag(kind, family))
        rng = np.random.default_rng([25, len(family), len(kind)])
        for _ in range(3):
            node = rand_vacant_quant(rng, kind, 3, list("xyzw"))
            out = ground_formula(env, node).tensor
            assert np.all(out.data == empty), node
            grads = backward(T.reduce_sum(out), env.store)
            assert not any(g.any() for g in grads.values()), node
            out = ground_formula(env, replace(node, guard=None)).tensor
            grads = backward(T.reduce_sum(out), env.store)
            unguarded_moved |= any(g.any() for g in grads.values())
    assert unguarded_moved  # without their guards, the bodies reach slots


def guard_order_mask(op, sides, order):
    """The tree walker's guard mask built in the guard's own variable
    order, then moved into ``order``: a strided view of the same
    cells."""
    guard_vars, (lhs, rhs) = walker.align(list(sides), feature=False)
    return walker._aligned(logic.COMPARISONS[op](lhs, rhs), guard_vars, order)


@pytest.mark.parametrize("family", sorted(_AGGREGATORS))
@settings(max_examples=25, deadline=None)
@given(node=guarded_quants(3, list("xyzw"), guarded=True))
def test_guard_masks_in_the_aggregate_layout_match_the_guard_order(family,
                                                                   node):
    # guards over variables the body lacks, diagonal groups and nested
    # guards, under both quantifiers of each aggregator family
    env = random_formula_env(FuzzyConfig().with_tag("forall", family)
                             .with_tag("exists", family))
    loose = free_vars(node)
    f = forall([(v,) for v in loose], node) if loose else node
    runs = []
    for oracle in (False, True):
        with pytest.MonkeyPatch.context() as m:
            ground = ground_formula
            if oracle:
                m.setattr(walker, "_guard_mask", guard_order_mask)
                ground = walker.ground_formula
            out = ground(env, f).tensor
            runs.append((out.data, backward(out, env.store)))
    (got, got_grads), (want, want_grads) = runs
    assert got.tobytes() == want.tobytes()
    for name in env.store.names():
        np.testing.assert_allclose(got_grads[name], want_grads[name],
                                   rtol=0, atol=1e-12, err_msg=name)


def test_addition_guard_mask_has_the_aggregated_layout(monkeypatch):
    # addition-multi's guard spans the batch and the four digits; its
    # mask comes out in the body's layout, batch first, contiguous
    theory = load_theory(theory_path("addition_multi"))
    rng = np.random.default_rng(0)
    binds = {v: np.eye(10)[rng.integers(10, size=3)]
             for v in ("x1", "x2", "y1", "y2")}
    binds["n"] = np.array([3.0, 120.0, 77.0])
    seen = []

    def spy(spec, t, k, mask=None, empty=None):
        seen.append((t.shape, mask))
        return aggregate(spec, t, k, mask=mask, empty=empty)

    monkeypatch.setattr(logic, "aggregate", spy)
    env = theory.env
    ground_formula(env, theory.axioms[0].formula, env.scope(binds))
    (shape, mask), = [(shape, m) for shape, m in seen if m is not None]
    assert shape == (3, 10, 10, 10, 10)
    assert mask.shape == shape and mask.flags.c_contiguous


@pytest.mark.parametrize("kind", ["forall", "exists"])
def test_inner_quantifier_binds_its_own_axis_inside_a_diagonal(kind):
    # the inner x is not the (x, y) group's shared axis: the inner mean
    # over x reads 0 at y = 0 and 0.5 at y = 1, the outer one 0.25
    env = num_env(cfg=RAW.with_tag(kind, "mean"), x=[0.0, 1.0], y=[0.0, 1.0])
    quant = forall if kind == "forall" else exists
    node = quant([("x", "y")], quant([("x",)], Atom("P2", (Var("x"), Var("y")))))
    assert parse_formula(f"{kind} (x, y): {kind} x: P2(x, y)", env.sig) == node
    assert float(ground_formula(env, node).tensor.data) == 0.25


def test_free_vars_order_and_binding():
    f = Bin("and", Atom("P", (Var("y"),)),
            Quant("forall", (("x",),), None,
                  Bin("or", Atom("P", (Var("x"),)), Atom("P", (Var("z"),)))))
    assert free_vars(f) == ("y", "z")
    g = Quant("exists", (("a", "b"),),
              Guard("<", ((1.0, Var("a")),), ((1.0, Var("w")),)),
              Atom("P2", (Var("a"), Var("b"))))
    assert free_vars(g) == ("w",)


def test_span_is_ignored_in_equality():
    assert Var("x", span=("f", 1, 2)) == Var("x")
    assert Atom("P", (Var("x"),), span=("f", 3, 4)) == Atom("P", (Var("x"),))
    assert Axiom(Atom("P"), label="a") == Axiom(Atom("P"), label="a")


def test_signature_rejects_duplicates_and_unknown_domains():
    sig = Signature()
    sig.add_domain("pt", 2)
    with pytest.raises(SignatureError):
        sig.add_domain("pt", 3)
    with pytest.raises(SignatureError):
        sig.add_variable("x", "nope")
    sig.add_variable("x", "pt")
    with pytest.raises(SignatureError):
        sig.add_constant("x", "pt")
    with pytest.raises(SignatureError):
        sig.add_domain("zero", 0)


def test_mixed_diag_and_plain_groups():
    cfg = RAW.with_tag("forall", "mean")
    env = num_env(cfg=cfg, x=[0.1, 0.2], y=[0.3, 0.4], z=[0.5, 1.0])
    sig = env.sig
    sig.add_predicate("P3", ("num", "num", "num"))
    env.add_callable(
        "P3", lambda a, b, c: T.reduce_sum(a * b * c, axes=(-1,)))
    node = Quant("forall", (("x", "y"), ("z",)), None,
                 Atom("P3", (Var("x"), Var("y"), Var("z"))))
    gv = ground_formula(env, node)
    pairs = [0.1 * 0.3, 0.2 * 0.4]
    want = np.mean([p * z for p in pairs for z in (0.5, 1.0)])
    assert float(gv.tensor.data) == pytest.approx(want)


def layout_env(family):
    """x, y, w grounded by trainable 1-d constants (x and w both with four
    instances, for a diagonal group), z by fixed data; ``exists`` uses
    ``family`` and ``forall`` the raw pmean_error."""
    sig = Signature()
    sig.add_domain("num", 1)
    env = GroundingEnv(sig, ParamStore(seed=0),
                       cfg=RAW.with_tag("exists", family))
    values = {"x": [0.2, 0.5, 0.9, 1.4], "y": [-1.0, 0.4, 1.5],
              "w": [0.3, -0.6, 0.1, 0.8]}
    for var, vals in values.items():
        sig.add_variable(var, "num")
        for i, v in enumerate(vals):
            sig.add_constant(f"{var}{i}", "num")
            env.add_const(f"{var}{i}", [v], trainable=True)
        env.add_var_consts(var, [f"{var}{i}" for i in range(len(vals))])
    sig.add_variable("z", "num")
    values["z"] = [0.1, 0.6, 1.0]  # 0.1 is below every x
    env.add_var_data("z", values["z"])
    sig.add_predicate("P2", ("num", "num"))
    env.add_callable(
        "P2", lambda a, b: t_sigmoid(T.reduce_sum(a * b, axes=(-1,))))
    sig.add_predicate("P3", ("num", "num", "num"))
    env.add_callable(
        "P3", lambda a, b, c: t_sigmoid(T.reduce_sum(a * b - c, axes=(-1,))))
    return env, {k: np.array(v) for k, v in values.items()}


def sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def t_sigmoid(t):
    return T.power(T.add(1.0, T.exp(-t)), -1)


NP_AGGS = {"min": np.min, "max": np.max, "prod": np.prod,
           "pmean:p=2": lambda a, axis: np.sqrt(np.mean(a ** 2, axis=axis))}


@pytest.mark.parametrize("family", sorted(NP_AGGS))
def test_quantified_axis_not_last_in_its_body(family):
    env, v = layout_env(family)
    agg = NP_AGGS[family]
    x, y, w, z = v["x"], v["y"], v["w"], v["z"]
    cells = sigmoid(x[:, None] * y[None, :])  # (x, y)
    x_le_z = Guard("<=", ((1.0, Var("x")),), ((1.0, Var("z")),))
    # the guard names z, which the body lacks: the result spans (y, z),
    # and the cell z = 0.1 keeps no x, so it takes exists' empty value 0
    guarded = [[agg(cells[x <= zk, j], axis=0) if (x <= zk).any() else 0.0
                for zk in z] for j in range(len(y))]
    cases = [
        (exists([("x",)], Atom("P2", (Var("x"), Var("y")))), ("y",),
         agg(cells, axis=0)),
        (exists([("x",)], Atom("P2", (Var("x"), Var("y"))), x_le_z), ("y", "z"),
         np.array(guarded)),
        (exists([("x", "w")], Atom("P3", (Var("x"), Var("y"), Var("w")))), ("y",),
         agg(sigmoid(x[:, None] * y[None, :] - w[:, None]), axis=0)),
    ]
    for node, free, want in cases:
        gv = ground_formula(env, node)
        assert gv.vars == free
        np.testing.assert_allclose(gv.tensor.data, want, rtol=0, atol=1e-12)
        assert_store_grads_match_fd(env, forall([(u,) for u in free], node))
