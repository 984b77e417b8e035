"""Tests for turning parsed theories into runnable groundings."""

import re

import numpy as np
import pytest

from reallogic.assemble import TheoryError, build_theory, euclidean, load_theory
from reallogic.logic import EvalError
from reallogic.parser import parse_theory
from reallogic.training import satisfiability, truth_value


def test_euclidean_keeps_feature_axis():
    a = np.array([[0.0, 0.0], [1.0, 1.0]])
    b = np.array([[3.0, 4.0], [1.0, 1.0]])
    d = euclidean(a, b)
    assert d.shape == (2, 1)
    assert np.allclose(d[:, 0], [5.0, 0.0])


def test_config_tags_change_operators():
    src = ("domain u = 1\npred A = scalar\naxiom: A\n"
           "config forall = pmean_error:p=4\nconfig eq_alpha = 2\n")
    th = build_theory(parse_theory(src), seed=0)
    assert th.cfg.forall.p == 4
    assert th.cfg.eq_alpha == 2.0
    # caller tags apply after the theory's config lines
    th = build_theory(parse_theory(src), seed=0,
                      tags={"eq_alpha": "3", "and": "luk"})
    assert th.cfg.forall.p == 4
    assert th.cfg.eq_alpha == 3.0 and th.cfg.conj.family == "luk"


def test_unknown_config_key_rejected():
    src = "domain u = 1\npred A = scalar\naxiom: A\nconfig nope = product\n"
    with pytest.raises(TheoryError):
        build_theory(parse_theory(src), seed=0)


def test_pred_mlp_width_must_match_domain():
    src = ("domain item = 3\nvar x : item = [[0, 0, 0]]\n"
           "pred P : item = mlp(2, 4, 1; elu, sigmoid)\n"
           "axiom: forall x: P(x)\n")
    with pytest.raises(TheoryError, match="input width"):
        build_theory(parse_theory(src), seed=0)


def test_func_output_width_must_match_codomain():
    src = ("domain item = 2\nvar x : item = [[0, 0]]\n"
           "func f : item -> item = mlp(2, 4, 3; elu, linear)\n"
           "pred P : item = mlp(2, 4, 1; elu, sigmoid)\n"
           "axiom: forall x: P(f(x))\n")
    with pytest.raises(TheoryError, match="output width"):
        build_theory(parse_theory(src), seed=0)


def test_select_output_matches_label_dim():
    src = ("domain item = 2\ndomain label = 3\n"
           "var x : item = [[0, 0]]\n"
           "const l0 : label = [1, 0, 0]\n"
           "pred Cls : item, label = select mlp(2, 4; softmax)\n"
           "axiom: forall x: Cls(x, l0)\n")
    with pytest.raises(TheoryError, match="output width"):
        build_theory(parse_theory(src), seed=0)


def test_unknown_builtin_rejected():
    src = ("domain item = 2\nvar x : item = [[0, 0]]\n"
           "func d : item, item -> item = builtin warp\n"
           "pred P : item = mlp(2, 4, 1; elu, sigmoid)\n"
           "axiom: forall x: P(x)\n")
    with pytest.raises(TheoryError, match="builtin 'warp'"):
        build_theory(parse_theory(src), seed=0)


def test_open_axiom_rejected():
    src = ("domain u = 1\nvar x : u = [0.5]\n"
           "pred P : u = mlp(1, 1; sigmoid)\naxiom: P(x)\n")
    with pytest.raises(TheoryError, match=r"^<theory>:4:1: axiom is not "
                                          r"closed: free x$"):
        build_theory(parse_theory(src), seed=0)


QUERY_SRC = ("domain u = 1\nvar x : u = [0.5]\n"
             "pred P : u = mlp(1, 1; sigmoid)\naxiom: forall x: P(x)\n")


def test_queries_are_kept_apart_from_the_axioms():
    th = build_theory(parse_theory(QUERY_SRC + 'query "q": forall x: ~P(x)\n'),
                      seed=0)
    assert len(th.axioms) == 1
    assert [q.label for q in th.queries] == ["q"]
    assert build_theory(parse_theory(QUERY_SRC), seed=0).queries == ()


@pytest.mark.parametrize("queries,message", [
    ('query "q": P(x)\n', "query q is not closed: free x"),
    ('query "first": forall x: ~P(x)\n',
     "query label 'first' is already taken"),
    ('query "sat": forall x: P(x)\n', "query label 'sat' is already taken"),
    ('query "q" @forall(p=5): forall x: P(x)\n',
     "@forall(p=5): min takes no p"),
], ids=["open", "twice", "record-key", "p-for-a-min"])
def test_a_bad_query_is_reported_at_its_statement(queries, message):
    src = QUERY_SRC.replace("axiom", "config forall = min\naxiom") + \
        'query "first": forall x: P(x)\n' + queries
    with pytest.raises(TheoryError, match=f"^<theory>:7:1: {re.escape(message)}$"):
        build_theory(parse_theory(src), seed=0)


def test_data_override_replaces_declared_source():
    src = ("domain u = 1\nvar x : u = [0.1, 0.2]\n"
           "pred P : u = mlp(1, 1; sigmoid)\naxiom: forall x: P(x)\n")
    doc = parse_theory(src)
    th = build_theory(doc, seed=0, data={"x": np.zeros((7, 1))})
    assert len(th.env.instances("x")) == 7


def test_var_from_csv_relative_to_theory(tmp_path):
    (tmp_path / "pts.csv").write_text("a,b\n0.1,0.2\n0.3,0.4\n0.5,0.6\n")
    kb = tmp_path / "kb.rl"
    kb.write_text(
        "domain item = 2\n"
        'var x : item = data "pts.csv" cols a, b\n'
        "pred P : item = mlp(2, 4, 1; elu, sigmoid)\n"
        "axiom: forall x: P(x)\n")
    th = load_theory(kb, seed=0)
    assert len(th.env.instances("x")) == 3
    assert 0.0 <= float(satisfiability(th).data) <= 1.0


def test_csv_var_requires_file_backed_doc():
    src = ("domain item = 2\n"
           'var x : item = data "pts.csv" cols a, b\n'
           "pred P : item = mlp(2, 4, 1; elu, sigmoid)\n"
           "axiom: forall x: P(x)\n")
    with pytest.raises(TheoryError, match="file"):
        build_theory(parse_theory(src), seed=0)


def test_csv_var_in_an_included_theory_is_read_beside_it(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.csv").write_text("v\n0.1\n0.2\n")
    (tmp_path / "sub" / "b.rl").write_text(
        'domain d = 1\nvar x : d = data "b.csv" cols v\n')
    kb = tmp_path / "root.rl"
    kb.write_text('include "sub/b.rl"\npred P : d = mlp(1, 1; sigmoid)\n'
                  "axiom: forall x: P(x)\n")
    th = load_theory(kb, seed=0)
    assert len(th.env.instances("x")) == 2


def test_scalar_predicate_with_arguments_rejected_at_its_declaration():
    src = ("domain d = 1\nvar x : d = [0.5]\npred P : d = scalar\n"
           "axiom: forall x: P(x)\n")
    with pytest.raises(TheoryError, match=r"^kb\.rl:3:1: P: a scalar "
                                          r"predicate takes no arguments$"):
        build_theory(parse_theory(src, filename="kb.rl"), seed=0)


def test_trainable_const_with_interval():
    src = ("domain p = 2\nconst c : p = train in [0, 1]\n"
           "pred A = scalar\naxiom: A\n")
    th = build_theory(parse_theory(src), seed=0)
    v = th.store.get("const/c").data
    assert v.shape == (2,)
    assert (v >= 0).all() and (v <= 1).all()


def test_consts_backed_variable():
    src = ("domain p = 2\n"
           "const c1 : p = [0, 1]\nconst c2 : p = [1, 0]\n"
           "var x : p = consts(c1, c2)\n"
           "var z : p = [[0, 0]]\n"
           "pred P : p = mlp(2, 4, 1; elu, sigmoid)\n"
           "axiom: forall x: P(x)\n")
    th = build_theory(parse_theory(src), seed=0)
    assert len(th.env.instances("x")) == 2
    assert th.env.instances("x") == ("c1", "c2")
    assert np.array_equal(th.env.instances("z"), [[0.0, 0.0]])
    with pytest.raises(EvalError, match="'w' is not a declared variable"):
        th.env.instances("w")
    t = truth_value(th, "forall x: P(x)")
    assert 0.0 <= t <= 1.0


def test_seed_controls_initialization():
    src = "domain u = 1\npred A = scalar\naxiom: A\n"
    a1 = build_theory(parse_theory(src), seed=1).store.get("A").data
    a2 = build_theory(parse_theory(src), seed=1).store.get("A").data
    a3 = build_theory(parse_theory(src), seed=2).store.get("A").data
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, a3)
