"""Autodiff engine: forward values, gradients vs finite differences,
tie-break rules, graph-reuse accumulation, the p-means' gradients, and
the one place a graph node is made."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reallogic.tensor as T
from reallogic.fuzzy import (
    AggregatorSpec, ConnectiveOp, aggregate, apply_connective,
)
from reallogic.tensor import Tensor

from fdcheck import check_grads

rng = np.random.default_rng(7)


def test_forward_values_match_numpy():
    a = rng.random((3, 4))
    b = rng.random((3, 4)) + 0.5
    assert np.allclose((Tensor(a) + Tensor(b)).data, a + b)
    assert np.allclose((Tensor(a) - Tensor(b)).data, a - b)
    assert np.allclose((Tensor(a) * Tensor(b)).data, a * b)
    assert np.allclose((Tensor(a) * T.power(Tensor(b), -1)).data, a / b)
    assert np.allclose((-Tensor(a)).data, -a)
    assert np.allclose(T.power(Tensor(a), 3).data, a ** 3)
    assert np.allclose(T.exp(Tensor(a)).data, np.exp(a))
    assert np.allclose(T.maximum(Tensor(a), Tensor(b)).data, np.maximum(a, b))


def test_scalar_and_array_mixing():
    a = Tensor([1.0, 2.0], requires_grad=True)
    out = T.reduce_sum((2.0 * a + 1.0) * 0.5 - 0.5)
    (ga,) = T.grad(out, [a])
    assert np.allclose(out.data, 3.0)
    assert np.allclose(ga, [1.0, 1.0])


@pytest.mark.parametrize("build,shapes", [
    (lambda a, b: T.reduce_sum(a * b + a * T.power(b, -1)), [(3, 2), (3, 2)]),
    (lambda a, b: T.reduce_sum(T.power(a - b, 2)), [(4,), (4,)]),
    (lambda a: T.reduce_sum(T.exp(a) * (a + 2.0)), [(5,)]),
    (lambda a, b: T.reduce_sum(T.maximum(a, b)), [(6,), (6,)]),
    (lambda a, b: T.reduce_sum(T.where(a.data > b.data, a * 2.0, b)),
     [(2, 3), (2, 3)]),
    (lambda x, w, b: T.reduce_sum(T.dense(x, w, b, "sigmoid")),
     [(7, 3), (3, 2), (2,)]),
    (lambda x, w, b: T.reduce_sum(T.dense(x, w, b, "elu")),
     [(7, 3), (3, 2), (2,)]),
    (lambda x, w, b: T.reduce_sum(T.dense(x, w, b, "softmax"), axes=None),
     [(3, 4), (4, 4), (4,)]),
    (lambda x, w, b: T.reduce_sum(T.dense(x, w, b, "softmax")
                                  * np.arange(4.0)),
     [(2, 3, 4), (4, 4), (4,)]),
    (lambda x, w, b: T.reduce_sum(T.power(T.dense(x, w, b, "linear"), 2)),
     [(2, 3, 4), (4, 2), (2,)]),
])
def test_grads_match_fd(build, shapes):
    arrays = [rng.standard_normal(s) for s in shapes]
    check_grads(build, *arrays)


def test_broadcast_grads():
    a = rng.random((3, 1))
    b = rng.random((1, 4))
    check_grads(lambda x, y: T.reduce_sum(x * y), a, b)
    check_grads(lambda x, y: T.reduce_sum(T.exp(x + y * 2.0)), a, b)
    check_grads(lambda x, y: T.reduce_sum(T.power(x - y, 2)), a, b)
    check_grads(lambda x, y: T.reduce_sum(T.power(x * y, 2)),
                rng.random((3, 1, 4)), rng.random((2, 1)))
    check_grads(lambda x: T.reduce_sum(T.broadcast_to(x, (5, 3, 2))),
                rng.random((3, 2)))


def test_unbroadcast_sums_added_and_kept_axes():
    g = np.ones((5, 3, 2))
    assert T.unbroadcast(g, (3, 2)).shape == (3, 2)
    assert np.all(T.unbroadcast(g, (3, 2)) == 5.0)
    assert T.unbroadcast(g, (1, 2)).shape == (1, 2)
    assert np.all(T.unbroadcast(g, (1, 2)) == 15.0)


@st.composite
def broadcast_shapes(draw):
    """Two broadcast-compatible shapes: suffixes of one shape, each with
    some axes set to 1; sizes run from 0 to 3."""
    full = draw(st.lists(st.integers(0, 3), max_size=4))

    def operand():
        lead = len(full) - draw(st.integers(0, len(full)))
        return tuple(1 if draw(st.booleans()) else n for n in full[lead:])

    return operand(), operand()


@given(broadcast_shapes(), st.integers(0, 2**32 - 1))
@example(((), (2, 3)), 0)
@example(((3, 1, 4), (2, 1)), 0)
@example(((1, 0), (3, 1)), 0)
@settings(max_examples=300, deadline=None)
def test_product_grad_matches_summing_the_full_product(shapes, seed):
    r = np.random.default_rng(seed)
    a, b = (np.asarray(r.standard_normal(s)) for s in shapes)
    g = np.asarray(r.standard_normal(np.broadcast_shapes(*shapes)))
    for x, shape in ((b, a.shape), (a, b.shape)):
        got = T.product(g, x, shape)
        assert got.shape == shape
        # the ufunc only where nothing is summed
        ufunc = T._product_plan(g.shape, x.shape, shape)[0] is None
        assert ufunc == (g.shape == shape)
        np.testing.assert_allclose(got, T.unbroadcast(g * x, shape),
                                   rtol=0, atol=1e-12)


@st.composite
def outer_shapes(draw):
    """Two broadcast-compatible shapes where each axis of the result is
    spanned by a, by b, by both or by neither (size 1 in the operand
    that does not span it); either may drop leading size-1 axes."""
    full = draw(st.lists(st.integers(0, 4), max_size=4))
    spans = draw(st.lists(st.sampled_from(["a", "b", "a", "b", "ab", ""]),
                          min_size=len(full), max_size=len(full)))

    def operand(name):
        shape = [n if name in span else 1 for n, span in zip(full, spans)]
        while shape and shape[0] == 1 and draw(st.booleans()):
            shape.pop(0)
        return tuple(shape)

    return operand("a"), operand("b")


@st.composite
def layouts(draw, shape):
    """Truth-like values of ``shape`` (zeros and ones among them) in a
    C-ordered, Fortran-ordered or strided array."""
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = r.random(shape)
    x[r.random(shape) < 0.2] = draw(st.sampled_from([0.0, 1.0]))
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    if layout == "fortran" and shape:  # numpy makes a 0-d array 1-d
        return np.asfortranarray(x)
    if layout == "strided" and shape:
        wide = np.zeros(shape[:-1] + (2 * shape[-1],))
        wide[..., ::2] = x
        return wide[..., ::2]
    return x


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_broadcast_product_has_the_bits_of_the_product(data):
    # shape pairs with 0-d operands and size-0 and size-1 axes
    sa, sb = data.draw(outer_shapes())
    a, b = data.draw(layouts(sa)), data.draw(layouts(sb))
    got, want = T.product(a, b), a * b
    # the ufunc only where an operand has the result's shape
    ufunc = T._product_plan(a.shape, b.shape, None)[0] is None
    assert ufunc == (want.shape in (a.shape, b.shape))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_broadcast_product_takes_einsum_when_both_operands_broadcast():
    plan = T._product_plan
    assert plan((32, 1000, 1), (32, 1, 10), None) == ("ab,ac->abc",
                                                      (32, 1000, 10))
    assert plan((3, 1, 1), (1, 1, 4), None) == ("a,c->ac", (3, 1, 4))
    assert plan((2, 1), (3,), None) == ("a,b->ab", (2, 3))
    assert plan((3, 4), (4,), None) == (None, (3, 4))  # b alone is broadcast
    assert plan((), (2, 1), None) == (None, (2, 1))
    assert plan((2, 3), (2, 3), None) == (None, (2, 3))
    # a summed product is a contraction, even where an operand has the
    # broadcast shape
    assert plan((2, 3), (3,), (3,)) == ("ab,b->b", (3,))
    assert plan((2, 3), (2, 1), (2, 1)) == ("ab,a->a", (2, 1))
    assert plan((4, 2, 3), (1, 3), (1, 3)) == ("abc,c->c", (1, 3))
    assert plan((2, 3), (2, 3), (2, 3)) == (None, (2, 3))
    # einsum adds each product to a zeroed cell, so a zero has no sign
    out = T.product(np.array([[-0.0], [1.0]]), np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(out, [[0.0, 0.0], [1.0, 2.0]])
    assert not np.signbit(out).any()


def test_elementwise_max_tie_goes_to_first_arg():
    a = Tensor([1.0, 2.0, 5.0], requires_grad=True)
    b = Tensor([1.0, 3.0, 4.0], requires_grad=True)
    ga, gb = T.grad(T.reduce_sum(T.maximum(a, b)), [a, b])
    assert np.allclose(ga, [1.0, 0.0, 1.0])
    assert np.allclose(gb, [0.0, 1.0, 0.0])
    # the fuzzy min and max connectives keep the rule
    a = Tensor([0.1, 0.2, 0.5], requires_grad=True)
    b = Tensor([0.1, 0.3, 0.4], requires_grad=True)
    ga, gb = T.grad(T.reduce_sum(apply_connective(ConnectiveOp("or", "max"), a, b)),
                    [a, b])
    assert np.allclose(ga, [1.0, 0.0, 1.0])
    assert np.allclose(gb, [0.0, 1.0, 0.0])
    ga, gb = T.grad(T.reduce_sum(apply_connective(ConnectiveOp("and", "min"), a, b)),
                    [a, b])
    assert np.allclose(ga, [1.0, 1.0, 0.0])
    assert np.allclose(gb, [0.0, 0.0, 1.0])


def test_reduce_extreme_tie_goes_to_first_index():
    # the fuzzy min and max aggregators reduce the last axis
    a = Tensor([[0.2, 0.2, 0.1], [0.5, 0.5, 0.9]], requires_grad=True)
    (ga,) = T.grad(T.reduce_sum(aggregate(AggregatorSpec("max"), a, 1)), [a])
    assert np.allclose(ga, [[1, 0, 0], [0, 0, 1]])
    (ga,) = T.grad(T.reduce_sum(aggregate(AggregatorSpec("min"), a, 1)), [a])
    assert np.allclose(ga, [[0, 0, 1], [1, 0, 0]])


def test_reduce_over_axis_subsets():
    a = rng.random((2, 3, 4))
    for axes in [None, 0, (1,), (0, 2), (2, 0)]:
        got = T.reduce_sum(Tensor(a), axes).data
        want = a.sum(axis=axes if axes is None or isinstance(axes, tuple) else (axes,))
        assert np.allclose(got, want)
        check_grads(lambda x, ax=axes: T.reduce_sum(T.reduce_sum(x, ax)), a)
    for family in ("max", "min", "prod"):  # the fuzzy kernels' last axis
        check_grads(lambda x, f=family: T.reduce_sum(
            aggregate(AggregatorSpec(f), x, 1)), a)


def test_matmul_values_and_grads():
    # a linear dense layer with a zero bias is the plain matrix product
    a = rng.standard_normal((5, 3))
    w = rng.standard_normal((3, 2))
    zero = np.zeros(2)
    assert np.allclose(T.dense(Tensor(a), Tensor(w), zero, "linear").data,
                       a @ w)
    check_grads(lambda x, y: T.reduce_sum(T.dense(x, y, zero, "linear")), a, w)
    batched = rng.standard_normal((2, 4, 3))
    check_grads(lambda x, y: T.reduce_sum(
        T.power(T.dense(x, y, zero, "linear"), 2)), batched, w)
    with pytest.raises(ValueError, match="2-D"):
        T.dense(Tensor(a), Tensor(w[0]), zero, "linear")


def three_rules(x, w, b, act, g):
    """A dense layer as the matmul, bias-add and activation rules that
    it replaced, in numpy: the output, and the gradients of x, w and b
    for the output gradient g."""
    m, h = w.shape
    z = x @ w + b
    if act == "elu":
        pos = z > 0
        out = np.where(pos, z, np.expm1(np.minimum(z, 0.0)))
        gz = g * np.where(pos, 1.0, out + 1.0)
    elif act == "sigmoid":
        with np.errstate(over="ignore"):
            out = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)),
                           np.exp(z) / (1.0 + np.exp(z)))
        gz = g * out * (1.0 - out)
    elif act == "softmax":
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        out = e / e.sum(axis=-1, keepdims=True)
        gz = (g - (g * out).sum(axis=-1, keepdims=True)) * out
    else:
        out, gz = z, g
    gb = gz.sum(axis=tuple(range(gz.ndim - 1)))  # the add's unbroadcast
    return out, gz @ w.T, x.reshape(-1, m).T @ gz.reshape(-1, h), gb


@pytest.mark.parametrize("act", sorted(T.ACTIVATIONS))
@pytest.mark.parametrize("shape", [(6, 3), (2, 5, 3)])
def test_dense_matches_the_three_rules_exactly(act, shape):
    r = np.random.default_rng(len(shape))
    # a wide spread reaches both sigmoid branches and saturated softmax
    x = r.standard_normal(shape) * 10.0
    w, b = r.standard_normal((3, 4)), r.standard_normal(4)
    g = r.standard_normal(shape[:-1] + (4,))
    want = three_rules(x, w, b, act, g)
    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = T.dense(tx, tw, tb, act)
    assert out._parents == (tx, tw, tb)  # one node per layer
    got = [out.data] + T.grad(T.reduce_sum(out * g), [tx, tw, tb])
    for k, (a, e) in enumerate(zip(got, want)):
        assert a.shape == e.shape and np.array_equal(a, e), k


def test_shape_ops_grads():
    a = rng.random((2, 3, 4))
    check_grads(lambda x: T.reduce_sum(
        T.reduce_sum(T.reshape(x, (6, 4)), axes=0)), a)
    check_grads(lambda x: T.reduce_sum(T.moveaxis(x, 0, 2) * np.arange(2.0)),
                a)
    b, c = rng.random((2, 3)), rng.random((4, 3))
    check_grads(lambda x, y: T.reduce_sum(T.concat([x, y], axis=0)), b, c)
    check_grads(lambda x, y: T.reduce_sum(T.power(T.stack([x, y * 2.0]), 2)),
                rng.random(4), rng.random(4))


def test_reshape_to_own_shape_and_stack_add_one_node_at_most():
    t = Tensor(rng.random((2, 3)), requires_grad=True)
    assert T.reshape(t, t.shape) is t
    assert T.reshape(t, (3, 2))._parents == (t,)
    parts = [Tensor(rng.random(3), requires_grad=True) for _ in range(4)]
    out = T.stack(parts)
    assert out.shape == (4, 3)
    assert out._parents == tuple(parts)  # one node, straight onto the inputs


def test_take_gathers_flat_positions_and_sums_repeated_grads():
    a = rng.random((2, 3))
    idx = np.array([[5, 0, 5], [2, 2, 2]])  # flat positions, some repeated
    assert np.array_equal(T.take(Tensor(a), idx).data, a.ravel()[idx])
    w = rng.standard_normal(idx.shape)
    check_grads(lambda x: T.reduce_sum(T.take(x, idx) * w), a)
    x = Tensor(a, requires_grad=True)
    (gx,) = T.grad(T.reduce_sum(T.take(x, idx)), [x])
    assert np.array_equal(gx, [[1.0, 0.0, 3.0], [0.0, 0.0, 2.0]])


def test_where_routes_grads_by_mask():
    cond = np.array([True, False, True])
    a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    b = Tensor([9.0, 8.0, 7.0], requires_grad=True)
    out = T.where(cond, a, b)
    assert np.allclose(out.data, [1.0, 8.0, 3.0])
    ga, gb = T.grad(T.reduce_sum(out), [a, b])
    assert np.allclose(ga, [1.0, 0.0, 1.0])
    assert np.allclose(gb, [0.0, 1.0, 0.0])


def test_where_passes_zero_for_an_infinite_gradient_it_does_not_select():
    cond = np.array([True, False])
    a = Tensor([0.0, 5.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    # the square root's gradient at the selected 0 is infinite
    root = T.reduce_sum(T.power(T.where(cond, a, b), 0.5))
    with np.errstate(all="raise"):
        ga, gb = T.grad(root, [a, b])
    assert np.array_equal(ga, [np.inf, 0.0])
    assert np.array_equal(gb, [0.0, 0.25])


def test_graph_reuse_accumulates():
    a = Tensor(3.0, requires_grad=True)
    y = a * a + a  # a used twice in the product, once in the sum
    assert np.allclose(T.grad(y, [a])[0], 2 * 3.0 + 1.0)
    # add hands one gradient array to both parents, so it reaches a
    # twice; accumulating in place would write into b's gradient too
    # (the product makes that array writable, so it would not raise)
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([5.0, 7.0], requires_grad=True)
    ga, gb = T.grad(T.reduce_sum(((a + b) + a) * 1.0), [a, b])
    assert np.array_equal(ga, [2.0, 2.0])
    assert np.array_equal(gb, [1.0, 1.0])


def test_diamond_graph_single_visit():
    a = Tensor([2.0], requires_grad=True)
    b = a * 3.0
    y = T.reduce_sum(b + b * b)
    assert np.allclose(T.grad(y, [a])[0], 3.0 + 2 * 6.0 * 3.0)


def test_pow_rejects_tensor_exponent():
    with pytest.raises(TypeError):
        T.power(Tensor(2.0), Tensor(3.0))


def test_backward_needs_scalar_root():
    with pytest.raises(ValueError):
        a = Tensor([1.0, 2.0], requires_grad=True)
        T.grad(a, [a])


def test_elementwise_op_values():
    a, b = Tensor([0.2, 0.9]), Tensor([0.5, 0.5])
    assert np.allclose(T.add(a, b).data, [0.7, 1.4])
    assert np.allclose(T.maximum(a, b).data, [0.5, 0.9])
    assert np.allclose(T.neg(a).data, [-0.2, -0.9])
    assert np.allclose(T.power(a, 2).data, [0.04, 0.81])


# the p-means live in fuzzy.aggregate; these pin their autodiff behaviour


def test_pmean_limits_approach_extremes():
    a = Tensor(np.array([0.3, 0.6, 0.95]))
    pmean = aggregate(AggregatorSpec("pmean", p=300), a, 1)
    perr = aggregate(AggregatorSpec("pmean_error", p=300), a, 1)
    assert abs(pmean.data - 0.95) < 0.01
    assert abs(perr.data - 0.3) < 0.01


def test_pmean_grads_match_fd():
    a = rng.random((4, 3)) * 0.8 + 0.1
    check_grads(lambda x: T.reduce_sum(
        aggregate(AggregatorSpec("pmean", p=3), x, 1)), a)
    check_grads(lambda x: aggregate(AggregatorSpec("pmean_error", p=2), x, 2), a)


def test_eval_mode_builds_no_graph():
    a = Tensor([1.0, 2.0])  # requires_grad False
    out = T.reduce_sum(a * 2.0 + 1.0)
    assert out._parents == ()
    assert out._backward is None


NODE_FIELDS = ("_parents", "_backward")


def node_field_writers(path):
    """(enclosing function, field) for every write of a node field in the
    module at ``path``: an assignment to the attribute, or a call (such
    as ``setattr``) that names it."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        for sub in (n for t in targets for n in ast.walk(t)):
            if isinstance(sub, ast.Attribute) and sub.attr in NODE_FIELDS:
                found.add((owner, sub.attr))
        if isinstance(node, ast.Call):
            found.update((owner, a.value) for a in node.args
                         if isinstance(a, ast.Constant) and a.value in NODE_FIELDS)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text()), "")
    return found


def test_only_fused_makes_a_graph_node():
    # every op states its node as a fused kernel; a second node form
    # would have to write these fields somewhere else
    writers = {(path.name,) + w for path in Path(T.__file__).parent.glob("*.py")
               for w in node_field_writers(path)}
    assert writers == {("tensor.py", owner, field)
                       for owner in ("Tensor.__init__", "fused")
                       for field in NODE_FIELDS}
