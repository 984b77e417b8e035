"""Fuzzy operator semantics: boundary axioms, duality, stability,
masked aggregation, tag parsing, and gradient profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reallogic.fuzzy import (
    _AGGREGATORS, _CONNECTIVES, TOL, AggregatorSpec, ConnectiveOp, FuzzyConfig,
    _pack, aggregate, apply_connective, parse_op_tag,
)
from reallogic import tensor as T
from reallogic.tensor import DomainError, Tensor

from test_tensor import broadcast_shapes

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

NEG = ConnectiveOp("not", "standard")
ANDS = {f: ConnectiveOp("and", f) for f in ("min", "product", "luk")}
ORS = {f: ConnectiveOp("or", f) for f in ("max", "product", "luk")}
IMPS = {f: ConnectiveOp("implies", f)
        for f in ("kleene_dienes", "godel", "reichenbach", "goguen", "luk")}


def op_id(op) -> str:
    """Test id of a connective or aggregator: ``and:product_stable``,
    ``pmean:p=2``."""
    tag = op.family + ("_stable" if op.stable else "")
    if isinstance(op, ConnectiveOp):
        return f"{op.kind}:{tag}"
    return tag if op.p is None else f"{tag}:p={op.p:g}"


def val(op, a, b=None):
    if b is None:
        return float(apply_connective(op, Tensor(a)).data)
    return float(apply_connective(op, Tensor(a), Tensor(b)).data)


def agg(spec, xs, **kw):
    return float(aggregate(spec, Tensor(np.asarray(xs, float)), 1, **kw).data)


@given(unit)
def test_negation_involutive_and_boundary(a):
    assert val(NEG, 0.0) == 1.0
    assert val(NEG, 1.0) == 0.0
    assert abs(val(NEG, val(NEG, a)) - a) < 1e-12


@pytest.mark.parametrize("fam", ANDS)
@given(a=unit, b=unit, c=unit)
def test_tnorm_axioms(fam, a, b, c):
    t = ANDS[fam]
    assert abs(val(t, a, 1.0) - a) < 1e-12          # neutral element
    assert abs(val(t, a, b) - val(t, b, a)) < 1e-12  # commutative
    assert 0.0 <= val(t, a, b) <= 1.0
    if b <= c:
        assert val(t, a, b) <= val(t, a, c) + 1e-12  # monotone


@pytest.mark.parametrize("fam", ORS)
@given(a=unit, b=unit, c=unit)
def test_snorm_axioms(fam, a, b, c):
    s = ORS[fam]
    assert abs(val(s, a, 0.0) - a) < 1e-12
    assert abs(val(s, a, b) - val(s, b, a)) < 1e-12
    assert 0.0 <= val(s, a, b) <= 1.0
    if b <= c:
        assert val(s, a, b) <= val(s, a, c) + 1e-12


@pytest.mark.parametrize("fam", IMPS)
def test_implication_corners(fam):
    i = IMPS[fam]
    assert val(i, 0.0, 0.0) == 1.0
    assert val(i, 0.0, 1.0) == 1.0
    assert val(i, 1.0, 1.0) == 1.0
    assert val(i, 1.0, 0.0) == 0.0


@pytest.mark.parametrize("fam", IMPS)
@given(a=unit, b=unit, c=unit)
def test_implication_monotonicity(fam, a, b, c):
    i = IMPS[fam]
    if a <= b:
        assert val(i, b, c) <= val(i, a, c) + 1e-12  # antitone in antecedent
        assert val(i, c, a) <= val(i, c, b) + 1e-12  # monotone in consequent


@pytest.mark.parametrize("tf,sf", [("min", "max"), ("product", "product"), ("luk", "luk")])
def test_de_morgan_duality(tf, sf):
    rng = np.random.default_rng(3)
    x, y = Tensor(rng.random(500)), Tensor(rng.random(500))
    s = apply_connective(ORS[sf], x, y).data
    dual = apply_connective(
        NEG, apply_connective(ANDS[tf], apply_connective(NEG, x), apply_connective(NEG, y))
    ).data
    assert np.max(np.abs(s - dual)) < 1e-12


def test_connective_values_against_formulas():
    a, b = 0.3, 0.8
    assert val(ANDS["min"], a, b) == pytest.approx(0.3)
    assert val(ANDS["product"], a, b) == pytest.approx(0.24)
    assert val(ANDS["luk"], a, b) == pytest.approx(0.1)
    assert val(ORS["max"], a, b) == pytest.approx(0.8)
    assert val(ORS["product"], a, b) == pytest.approx(0.86)
    assert val(ORS["luk"], a, b) == pytest.approx(1.0)
    assert val(IMPS["kleene_dienes"], a, b) == pytest.approx(0.8)
    assert val(IMPS["godel"], a, b) == pytest.approx(1.0)
    assert val(IMPS["godel"], b, a) == pytest.approx(0.3)
    assert val(IMPS["reichenbach"], a, b) == pytest.approx(0.94)
    assert val(IMPS["goguen"], b, a) == pytest.approx(0.375)
    assert val(IMPS["luk"], b, a) == pytest.approx(0.5)


def test_stable_product_breaks_neutral_element_exactly():
    eps = 1e-4
    t = ConnectiveOp("and", "product", stable=True, eps=eps)
    for a in (0.0, 0.3, 0.9):
        got = val(t, a, 1.0)
        assert got == pytest.approx((1 - eps) * a + eps, abs=1e-15)
    assert val(t, 0.3, 1.0) != pytest.approx(0.3, abs=1e-6)


def test_aggregator_chain_values():
    xs = [0.2, 0.5, 0.9]
    assert agg(AggregatorSpec("min"), xs) == pytest.approx(0.2)
    assert agg(AggregatorSpec("max"), xs) == pytest.approx(0.9)
    assert agg(AggregatorSpec("prod"), xs) == pytest.approx(0.09)
    assert agg(AggregatorSpec("prob_sum"), xs) == pytest.approx(1 - 0.8 * 0.5 * 0.1)
    assert agg(AggregatorSpec("luk_and"), xs) == pytest.approx(max(1.6 - 3 + 1, 0.0))
    assert agg(AggregatorSpec("luk_or"), xs) == pytest.approx(1.0)
    assert agg(AggregatorSpec("luk_or"), [0.2, 0.3]) == pytest.approx(0.5)
    assert agg(AggregatorSpec("mean"), xs) == pytest.approx(1.6 / 3)


def test_pmean_error_is_one_minus_rmse_at_p2():
    xs = np.array([0.2, 0.5, 0.9])
    got = agg(AggregatorSpec("pmean_error", p=2), xs)
    assert got == pytest.approx(1.0 - np.sqrt(np.mean((1 - xs) ** 2)))
    got = agg(AggregatorSpec("pmean", p=2), xs)
    assert got == pytest.approx(np.sqrt(np.mean(xs ** 2)))


def test_aggregate_reductions_and_pmeans():
    a = np.array([0.2, 0.4, 0.9])
    t = Tensor(a)
    assert np.allclose(T.reduce_sum(t).data, a.sum())
    assert np.allclose(aggregate(AggregatorSpec("mean"), t, 1).data, a.mean())
    assert np.allclose(aggregate(AggregatorSpec("max"), t, 1).data, 0.9)
    assert np.allclose(aggregate(AggregatorSpec("pmean", p=2), t, 1).data,
                       np.sqrt((a ** 2).mean()))
    assert np.allclose(aggregate(AggregatorSpec("pmean_error", p=2), t, 1).data,
                       1.0 - np.sqrt(((1 - a) ** 2).mean()))
    with pytest.raises(ValueError):
        AggregatorSpec("pmean", p=0.5)
    with pytest.raises(ValueError):
        AggregatorSpec("mean", p=2)
    with pytest.raises(ValueError):
        AggregatorSpec("median")


@given(st.lists(unit, min_size=1, max_size=6))
def test_aggregator_idempotence_and_corners(xs):
    for fam in ("min", "max", "mean"):
        assert agg(AggregatorSpec(fam), [xs[0]] * 4 ) == pytest.approx(xs[0])
    assert agg(AggregatorSpec("pmean_error", p=3), np.ones(len(xs))) == pytest.approx(1.0)
    assert agg(AggregatorSpec("pmean", p=3), np.zeros(len(xs))) == pytest.approx(0.0)
    assert agg(AggregatorSpec("prod"), np.ones(len(xs))) == pytest.approx(1.0)
    assert agg(AggregatorSpec("prob_sum"), np.zeros(len(xs))) == pytest.approx(0.0)


@given(st.lists(unit, min_size=2, max_size=5), st.integers(0, 4), unit)
def test_aggregators_monotone_in_each_argument(xs, i, lift):
    i = i % len(xs)
    bigger = list(xs)
    bigger[i] = min(1.0, xs[i] + lift)
    for fam, p in [("min", None), ("max", None), ("mean", None), ("prod", None),
                   ("prob_sum", None), ("luk_and", None), ("luk_or", None),
                   ("pmean", 3), ("pmean_error", 3)]:
        spec = AggregatorSpec(fam, p=p)
        assert agg(spec, bigger) >= agg(spec, xs) - 1e-9, fam


def test_guard_fixture_mean_vs_implication_form():
    # three individuals, guard keeps the last two
    truth = np.array([0.2, 0.7, 0.8])
    mask = np.array([False, True, True])
    guarded = agg(AggregatorSpec("mean"), truth, mask=mask, empty=1.0)
    assert guarded == pytest.approx(0.75)
    lifted = apply_connective(IMPS["reichenbach"],
                              Tensor(mask.astype(float)), Tensor(truth))
    unguarded = float(aggregate(AggregatorSpec("mean"), lifted, 1).data)
    assert unguarded == pytest.approx((1.0 + 0.7 + 0.8) / 3.0)


def test_masked_aggregation_per_family():
    t = np.array([0.9, 0.1, 0.6])
    m = np.array([True, False, True])
    assert agg(AggregatorSpec("min"), t, mask=m) == pytest.approx(0.6)
    assert agg(AggregatorSpec("max"), t, mask=m) == pytest.approx(0.9)
    assert agg(AggregatorSpec("prod"), t, mask=m) == pytest.approx(0.54)
    assert agg(AggregatorSpec("prob_sum"), t, mask=m) == pytest.approx(1 - 0.1 * 0.4)
    assert agg(AggregatorSpec("luk_and"), t, mask=m) == pytest.approx(0.5)
    assert agg(AggregatorSpec("luk_or"), t, mask=m) == pytest.approx(1.0)
    assert agg(AggregatorSpec("mean"), t, mask=m) == pytest.approx(0.75)
    assert agg(AggregatorSpec("pmean", p=2), t, mask=m) == pytest.approx(
        np.sqrt((0.81 + 0.36) / 2))


def test_empty_mask_patches_with_given_value():
    t = np.array([0.3, 0.4])
    nothing = np.array([False, False])
    assert agg(AggregatorSpec("pmean_error", p=2), t, mask=nothing, empty=1.0) == 1.0
    assert agg(AggregatorSpec("pmean", p=2), t, mask=nothing, empty=0.0) == 0.0
    assert agg(AggregatorSpec("min"), t, mask=nothing, empty=1.0) == 1.0
    assert agg(AggregatorSpec("max"), t, mask=nothing, empty=0.0) == 0.0


@pytest.mark.parametrize("spec,empty", [
    (AggregatorSpec("pmean_error", p=2, stable=True), 1.0),
    (AggregatorSpec("pmean", p=2, stable=True), 0.0),
])
def test_empty_row_gets_its_value_and_zero_gradient(spec, empty):
    # row 0 has two selected cells, row 1 none: a guard that never fires
    x = Tensor(np.array([[0.3, 0.8], [0.4, 0.6]]), requires_grad=True)
    mask = np.array([[True, True], [False, False]])
    out = aggregate(spec, x, 1, mask=mask, empty=empty)
    assert out.data[1] == empty
    full = aggregate(spec, Tensor(np.array([0.3, 0.8])), 1)
    assert out.data[0] == pytest.approx(float(full.data), abs=1e-15)
    (gx,) = T.grad(T.reduce_sum(out), [x])
    assert np.isfinite(gx).all()
    assert np.array_equal(gx[1], [0.0, 0.0])
    assert (gx[0] != 0.0).all()


@pytest.mark.parametrize("family", ["min", "max", "mean", "pmean"])
def test_an_aggregate_with_no_result_cell_is_empty(family):
    # a leading axis of size 0 leaves no result cell, though the reduced
    # axis holds three
    spec = AggregatorSpec(family)
    x = Tensor(np.zeros((0, 3)), requires_grad=True)
    for mask in (None, np.ones((0, 3), dtype=bool)):
        out = aggregate(spec, x, 1, mask=mask, empty=1.0)
        assert out.shape == (0,)
        assert T.grad(T.reduce_sum(out), [x])[0].shape == (0, 3)
    if family in ("min", "max"):  # over no cell, with no empty value
        for mask in (None, np.ones((2, 0), dtype=bool)):
            with pytest.raises(ValueError):
                aggregate(spec, Tensor(np.zeros((2, 0))), 1, mask=mask)


def test_masked_aggregation_multi_axis_counts():
    t = Tensor(np.full((2, 3), 0.5))
    mask = np.array([[True, True, False], [False, False, False]])
    out = aggregate(AggregatorSpec("mean"), t, 1, mask=mask, empty=1.0)
    assert np.allclose(out.data, [0.5, 1.0])


# -- the composite rules: each operator as several small tensor nodes ----------
#
# The fuzzy kernels replaced these; they stay here as the oracle. The
# reductions, the elementwise minimum and the division they need are
# fused nodes only these rules use.


def minimum(a, b):
    def kernel(a, b):
        pick_a = a <= b  # ties go to the first argument
        return np.minimum(a, b), lambda g: (g * pick_a, g * ~pick_a)

    return T.fused(kernel, a, b)


def divide(a, b):
    def kernel(a, b):
        with np.errstate(all="ignore"):
            out = a / b

        def back(g):
            with np.errstate(all="ignore"):
                return g / b, -g * a / (b * b)

        return out, back

    return T.fused(kernel, a, b)


def _reduce_extreme(a, biggest):
    def kernel(x):
        idx = (x.argmax(axis=-1) if biggest
               else x.argmin(axis=-1))[..., None]  # first hit wins

        def back(g):
            gx = np.zeros_like(x)
            np.put_along_axis(gx, idx, g[..., None], axis=-1)
            return (gx,)

        return np.take_along_axis(x, idx, axis=-1)[..., 0], back

    return T.fused(kernel, a)


def reduce_max(a):
    return _reduce_extreme(a, biggest=True)


def reduce_min(a):
    return _reduce_extreme(a, biggest=False)


def reduce_prod(a):
    """Product over the last axis; each position's gradient is the
    product of all the others in its row, zeros included."""
    def kernel(x):
        def back(g):
            zeros = x == 0.0
            nzeros = zeros.sum(axis=-1, keepdims=True)
            safe = np.where(zeros, 1.0, x)
            prod_nonzero = safe.prod(axis=-1, keepdims=True)
            gx = np.where(nzeros == 0, prod_nonzero / safe,
                          np.where(zeros & (nzeros == 1), prod_nonzero, 0.0))
            return (gx * g[..., None],)

        return x.prod(axis=-1), back

    return T.fused(kernel, a)


def squeeze0(t, eps):
    return (1.0 - eps) * t + eps


def squeeze1(t, eps):
    return (1.0 - eps) * t


def checked(t):
    """Validate the whole of ``t``; clamp drift within fuzzy.TOL."""
    t = T.astensor(t)
    d = t.data
    if d.size:
        lo, hi = d.min(), d.max()
        if lo < -TOL or hi > 1.0 + TOL:
            raise DomainError(f"truth value outside [0, 1]: range [{lo}, {hi}]")
        if lo < 0.0 or hi > 1.0:
            t = minimum(T.maximum(t, 0.0), 1.0)
    return t


def goguen(a, b):
    denom = T.where(a.data > b.data, a, 1.0)
    return T.where(a.data <= b.data, 1.0, divide(b, denom))


COMPOSITE_CONNECTIVES = {
    ("not", "standard"): (lambda a: 1.0 - a, None),
    ("and", "min"): (minimum, None),
    ("and", "product"): (lambda a, b: a * b, (squeeze0, squeeze0)),
    ("and", "luk"): (lambda a, b: T.maximum(a + b - 1.0, 0.0), None),
    ("or", "max"): (T.maximum, None),
    ("or", "product"): (lambda a, b: a + b - a * b, (squeeze1, squeeze1)),
    ("or", "luk"): (lambda a, b: minimum(a + b, 1.0), None),
    ("implies", "kleene_dienes"): (lambda a, b: T.maximum(1.0 - a, b), None),
    ("implies", "godel"): (lambda a, b: T.where(a.data <= b.data, 1.0, b), None),
    ("implies", "reichenbach"): (lambda a, b: 1.0 - a + a * b, (squeeze0, squeeze1)),
    ("implies", "goguen"): (goguen, None),
    ("implies", "luk"):
        (lambda a, b: T.where(a.data <= b.data, 1.0, 1.0 - a + b), None),
}


def composite_connective(op, a, b=None):
    rule, squeeze = COMPOSITE_CONNECTIVES[op.kind, op.family]
    a = checked(a)
    if b is None:
        return rule(a)
    b = checked(b)
    if op.stable:
        a, b = squeeze[0](a, op.eps), squeeze[1](b, op.eps)
    return rule(a, b)


def composite_pmean(x, count, p, vacant):
    base = divide(T.reduce_sum(T.power(x, p), -1), np.maximum(count, 1.0))
    if vacant is not None:
        base = T.where(vacant, 1.0, base)
    return T.power(base, 1.0 / p)


COMPOSITE_AGGREGATORS = {
    "min": (1.0, lambda x, *_: reduce_min(x), None),
    "max": (0.0, lambda x, *_: reduce_max(x), None),
    "prod": (1.0, lambda x, *_: reduce_prod(x), None),
    "prob_sum": (0.0, lambda x, *_: 1.0 - reduce_prod(1.0 - x), None),
    "luk_and": (0.0, lambda x, count, *_:
                T.maximum(T.reduce_sum(x, -1) - count + 1.0, 0.0), None),
    "luk_or": (0.0, lambda x, *_: minimum(T.reduce_sum(x, -1), 1.0), None),
    "mean": (0.0, lambda x, count, *_:
             divide(T.reduce_sum(x, -1), np.maximum(count, 1.0)), None),
    "pmean": (0.0, composite_pmean, squeeze0),
    "pmean_error": (1.0, lambda x, *rest: 1.0 - composite_pmean(1.0 - x, *rest),
                    squeeze1),
}


def composite_aggregate(spec, t, k, mask=None, empty=None):
    """The aggregate that validates the whole grid, then reshapes,
    packs, squeezes, fills, reduces and patches, each as its own nodes."""
    t = checked(t)
    lead = t.shape[:t.ndim - k]
    flat = lead + (int(np.prod(t.shape[t.ndim - k:])),)
    if empty is not None and flat[-1] == 0:
        return Tensor(np.full(lead, float(empty)))
    neutral, rule, squeeze = COMPOSITE_AGGREGATORS[spec.family]
    if mask is None:
        t, valid, count = T.reshape(t, flat), None, float(flat[-1])
    else:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), t.shape).reshape(flat)
        t, valid, count = _pack(t, m)
    if spec.stable:
        t = squeeze(t, spec.eps)
    vacant = None
    if valid is not None:
        t = T.where(valid, t, neutral)
        vacant = None if count.all() else count == 0
    out = rule(t, count, spec.p, vacant)
    if vacant is not None and empty is not None:
        out = T.where(vacant, float(empty), out)
    return out


def test_the_composite_tables_name_every_family():
    assert COMPOSITE_CONNECTIVES.keys() == _CONNECTIVES.keys()
    assert COMPOSITE_AGGREGATORS.keys() == _AGGREGATORS.keys()


ALL_CONNECTIVES = [ConnectiveOp(kind, family, stable)
                   for (kind, family), (_, squeeze) in _CONNECTIVES.items()
                   for stable in ((False, True) if squeeze else (False,))]
ALL_AGGREGATORS = [AggregatorSpec(family, p=p, stable=stable)
                   for family, (_, _, squeeze) in _AGGREGATORS.items()
                   for p in ((1, 2, 3.5) if squeeze else (None,))
                   for stable in ((False, True) if squeeze else (False,))]


def unit_array(rng, shape):
    """Truths in [0, 1], with exact 0s, 1s and 0.5s mixed in."""
    x = rng.random(shape)
    pick = rng.random(shape)
    x[pick < 0.15] = 0.0
    x[pick > 0.85] = 1.0
    x[(pick > 0.45) & (pick < 0.5)] = 0.5
    return x


def assert_grads_agree(got, want, exact):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        if exact:
            np.testing.assert_array_equal(g, w)
        else:
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("op", ALL_CONNECTIVES, ids=op_id)
@settings(max_examples=60, deadline=None)
@given(shapes=broadcast_shapes(), seed=st.integers(0, 2 ** 32 - 1))
def test_connective_kernel_matches_its_composite_rule(op, shapes, seed):
    rng = np.random.default_rng(seed)
    arrays = [unit_array(rng, s) for s in shapes[:1 if op.kind == "not" else 2]]
    out_shape = np.broadcast_shapes(*(a.shape for a in arrays))
    weights = rng.standard_normal(out_shape)
    runs = []
    for fn in (apply_connective, composite_connective):
        xs = [Tensor(a, requires_grad=True) for a in arrays]
        out = fn(op, *xs)
        runs.append((xs, out, T.grad(T.reduce_sum(out * weights), xs)))
    (xs, got, got_grads), (_, want, want_grads) = runs
    assert got._parents == tuple(xs)  # one node, straight onto the operands
    np.testing.assert_array_equal(got.data, want.data)
    # a broadcast operand's gradient may sum in another order
    assert_grads_agree(got_grads, want_grads,
                       exact=all(a.shape == out_shape for a in arrays))


@st.composite
def aggregate_cases(draw):
    """A shape, the number of trailing axes to reduce, and a mask (or
    None) that spans some axes and broadcasts over the rest, dense or
    sparse enough to leave rows with no kept cell."""
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)))
    k = draw(st.integers(1, len(shape)))
    if draw(st.booleans()):
        return shape, k, None
    spans = draw(st.lists(st.booleans(), min_size=len(shape), max_size=len(shape)))
    mshape = tuple(n if keep else 1 for n, keep in zip(shape, spans))
    return shape, k, (mshape, draw(st.sampled_from([0.0, 0.2, 0.6, 1.0])))


@pytest.mark.parametrize("spec", ALL_AGGREGATORS, ids=op_id)
@settings(max_examples=60, deadline=None)
@given(case=aggregate_cases(), empty=st.sampled_from([None, 0.0, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_aggregate_kernel_matches_its_composite_rule(spec, case, empty, seed):
    shape, k, masking = case
    rng = np.random.default_rng(seed)
    xs = unit_array(rng, shape)
    mask = None if masking is None else rng.random(masking[0]) < masking[1]
    weights = rng.standard_normal(shape[:len(shape) - k])
    runs = []
    for fn in (aggregate, composite_aggregate):
        x = Tensor(xs, requires_grad=True)
        try:
            out = fn(spec, x, k, mask, empty)
        except ValueError as e:  # min/max over no cell, with no empty value
            runs.append(type(e))
            continue
        runs.append((x, out, T.grad(T.reduce_sum(out * weights), [x])))
    if ValueError in runs:
        assert runs == [ValueError, ValueError]
        return
    (x, got, got_grads), (_, want, want_grads) = runs
    if got._parents:  # no node where the reduced axes hold no cell
        gather = () if mask is None else got._parents[0]._parents
        assert got._parents == (x,) or gather == (x,)
    np.testing.assert_array_equal(got.data, want.data)
    assert_grads_agree(got_grads, want_grads, exact=True)


# -- masked aggregation against the dense formula -----------------------------


def dense_masked(spec, t, k, mask, empty):
    """Masked aggregate over the full grid of the last ``k`` axes,
    flattened into one: masked-out cells are filled with the family's
    neutral value and sums are weighted by the mask."""
    flat = t.shape[:t.ndim - k] + (-1,)
    m = np.broadcast_to(mask, t.shape).reshape(flat)
    t = T.reshape(t, flat)
    mt = m.astype(np.float64)
    count = mt.sum(axis=-1)
    denom = np.maximum(count, 1.0)
    vacant = count == 0 if np.any(count == 0) else None

    def fill(x, v):
        return T.where(m, x, v)

    def msum(x):
        return T.reduce_sum(x * mt, -1)

    def pmean_base(x):
        base = divide(msum(T.power(x, spec.p)), denom)
        return base if vacant is None else T.where(vacant, 1.0, base)

    f, eps = spec.family, spec.eps
    if f == "min":
        out = reduce_min(fill(t, 1.0))
    elif f == "max":
        out = reduce_max(fill(t, 0.0))
    elif f == "prod":
        out = reduce_prod(fill(t, 1.0))
    elif f == "prob_sum":
        out = 1.0 - reduce_prod(fill(1.0 - t, 1.0))
    elif f == "luk_and":
        out = T.maximum(msum(t) - count + 1.0, 0.0)
    elif f == "luk_or":
        out = minimum(msum(t), 1.0)
    elif f == "mean":
        out = divide(msum(t), denom)
    elif f == "pmean":
        x = (1.0 - eps) * t + eps if spec.stable else t
        out = T.power(pmean_base(x), 1.0 / spec.p)
    else:
        x = (1.0 - eps) * t if spec.stable else t
        out = 1.0 - T.power(pmean_base(1.0 - x), 1.0 / spec.p)
    if vacant is not None and empty is not None:
        out = T.where(vacant, float(empty), out)
    return out


MASKED_SPECS = [AggregatorSpec(f) for f in
                ("min", "max", "mean", "prod", "prob_sum", "luk_and", "luk_or")]
MASKED_SPECS += [AggregatorSpec("pmean", p=3), AggregatorSpec("pmean_error", p=3),
                 AggregatorSpec("pmean", p=2, stable=True),
                 AggregatorSpec("pmean_error", p=2, stable=True)]
# at p = 1 the neutral padding meets power's derivative at 0 ** 0
MASKED_SPECS += [AggregatorSpec(f, p=1, stable=stable)
                 for f in ("pmean", "pmean_error") for stable in (False, True)]


@st.composite
def masked_cases(draw):
    """Shape, the number of trailing axes to reduce, a mask that spans
    some axes of the grid and broadcasts over the rest, and a kept-cell
    density (0 keeps no cell anywhere; low densities leave rows with
    none)."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    k = draw(st.integers(1, len(shape)))
    spans = draw(st.lists(st.booleans(), min_size=len(shape), max_size=len(shape)))
    mshape = tuple(n if keep else 1 for n, keep in zip(shape, spans))
    density = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    return shape, k, mshape, density, draw(st.integers(0, 2 ** 32 - 1))


@pytest.mark.parametrize("spec", MASKED_SPECS, ids=op_id)
@settings(deadline=None)
@given(case=masked_cases(), empty=st.sampled_from([None, 0.0, 1.0]))
def test_packed_masked_aggregate_matches_dense(spec, case, empty):
    shape, k, mshape, density, seed = case
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.05, 0.95, shape)  # no ties with a fill value
    mask = rng.random(mshape) < density
    weights = rng.standard_normal(shape[:len(shape) - k])
    runs = []
    for fn in (aggregate, dense_masked):
        x = Tensor(xs, requires_grad=True)
        out = fn(spec, x, k, mask, empty)
        runs.append((out.data, T.grad(T.reduce_sum(out * weights), [x])[0]))
    (got, got_grad), (want, want_grad) = runs
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_grad, want_grad, rtol=0, atol=1e-12)
    assert np.all(got_grad[~np.broadcast_to(mask, shape)] == 0.0)


@pytest.mark.parametrize("family,fill", [("min", 1.0), ("max", 0.0)])
def test_masked_extreme_tied_with_fill_picks_first_kept_cell(family, fill):
    # row 0 keeps cells 1 and 2, row 1 keeps cells 0 and 2; every value
    # equals the fill, so the gradient goes to each row's first kept cell
    x = Tensor(np.full((2, 3), fill), requires_grad=True)
    mask = np.array([[False, True, True], [True, False, True]])
    out = aggregate(AggregatorSpec(family), x, 1, mask=mask)
    assert np.array_equal(out.data, [fill, fill])
    assert np.array_equal(T.grad(T.reduce_sum(out), [x])[0],
                          [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def test_input_validation_and_drift_clamp():
    with pytest.raises(DomainError):
        apply_connective(ANDS["min"], Tensor(1.2), Tensor(0.5))
    with pytest.raises(DomainError):
        aggregate(AggregatorSpec("mean"), Tensor([-0.5, 0.5]), 1)
    # drift within 1e-9 is forgiven and clamped
    out = apply_connective(ANDS["product"], Tensor(1.0 + 5e-10), Tensor(0.5))
    assert float(out.data) == pytest.approx(0.5)
    drifted = Tensor(np.array([-5e-10, 0.5]))
    assert agg(AggregatorSpec("min"), drifted.data) == 0.0


def test_nan_truth_is_a_domain_error():
    with pytest.raises(DomainError, match="nan"):
        apply_connective(ANDS["min"], Tensor(np.nan), Tensor(0.5))
    with pytest.raises(DomainError, match="nan"):
        aggregate(AggregatorSpec("mean"), Tensor([np.nan, 0.5]), 1)


def test_padding_passes_no_infinite_gradient_to_the_cell_it_gathers():
    # row 1 keeps one cell, a 0, so its p-mean has an infinite gradient;
    # its padding gathers cell (0, 0), which no row keeps
    x = Tensor(np.array([[0.5, 0.2, 0.9], [0.3, 0.0, 0.8]]),
               requires_grad=True)
    mask = np.array([[False, True, True], [False, True, False]])
    out = aggregate(AggregatorSpec("pmean", p=2), x, 1, mask=mask)
    with np.errstate(invalid="ignore", divide="ignore"):
        (gx,) = T.grad(T.reduce_sum(out), [x])
    assert gx[0, 0] == 0.0 and gx[1, 0] == 0.0 and gx[1, 2] == 0.0


# a piecewise rule and operands where its value sits at 0 or 1, so the
# root below sends an infinite gradient into a cell the rule does not
# pick for one operand
UNPICKED_CASES = {
    "and:min": (ANDS["min"], [0.0, 0.6], [0.3, 0.2]),
    "or:max": (ORS["max"], [1.0, 0.2], [0.5, 0.3]),
    "and:luk": (ANDS["luk"], [0.0, 0.6], [0.3, 0.2]),
    "or:luk": (ORS["luk"], [0.6, 0.1], [0.7, 0.2]),
    "implies:kleene_dienes": (IMPS["kleene_dienes"], [1.0, 0.5], [0.0, 0.2]),
    "implies:godel": (IMPS["godel"], [0.2, 0.7], [0.5, 0.3]),
    "implies:goguen": (IMPS["goguen"], [0.2, 0.7], [0.5, 0.3]),
    "implies:luk": (IMPS["luk"], [0.2, 0.7], [0.5, 0.3]),
    "agg:luk_and": (AggregatorSpec("luk_and"), [[0.0, 0.0], [0.6, 0.7]], None),
    "agg:luk_or": (AggregatorSpec("luk_or"), [[0.6, 0.7], [0.1, 0.2]], None),
    "tensor.maximum": (T.maximum, [-1.0], [0.0]),
}


@pytest.mark.parametrize("case", sorted(UNPICKED_CASES))
def test_an_infinite_gradient_leaves_unpicked_cells_at_zero(case):
    op, a, b = UNPICKED_CASES[case]
    args = [Tensor(np.array(x), requires_grad=True) for x in (a, b)
            if x is not None]
    if isinstance(op, ConnectiveOp):
        out = apply_connective(op, *args)
    elif isinstance(op, AggregatorSpec):
        out = aggregate(op, *args, 1)
    else:
        out = op(*args)
    # sqrt(v) + sqrt(1 - v): an infinite slope at 0 and at 1
    assert np.isin(out.data, (0.0, 1.0)).any()
    root = T.reduce_sum(T.power(out, 0.5) + T.power(1.0 - out, 0.5))
    with np.errstate(all="ignore"):
        grads = T.grad(root, args)
    for g in grads:
        assert not np.isnan(g).any(), g


def test_a_masked_aggregate_checks_only_its_kept_cells():
    # row 1 keeps one cell, so its packed row pads with flat cell 0
    t = np.array([[1.5, 0.3, 0.6], [0.2, 0.4, -2.0]])
    keep = np.array([[False, True, True], [False, True, False]])
    for spec in (AggregatorSpec("mean"), AggregatorSpec("pmean", p=2, stable=True)):
        out = aggregate(spec, Tensor(t), 1, mask=keep, empty=1.0)
        want = [agg(spec, [0.3, 0.6]), agg(spec, [0.4])]
        np.testing.assert_array_equal(out.data, want)
        for cell in ((0, 0), (1, 2)):  # each out-of-range cell, kept
            kept = keep.copy()
            kept[cell] = True
            with pytest.raises(DomainError):
                aggregate(spec, Tensor(t), 1, mask=kept, empty=1.0)


def test_drift_clamp_matches_the_composite_clamp():
    a = np.array([1.0 + 5e-10, 0.5, -5e-10, 1.0, 0.0])
    b = np.array([0.3, 1.0 + 1e-10, 0.7, -1e-10, 0.2])
    runs = []
    for fn in (apply_connective, composite_connective):
        xs = [Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)]
        out = fn(ConnectiveOp("and", "product", stable=True), *xs)
        runs.append((out.data, T.grad(T.reduce_sum(out * np.arange(5.0)), xs)))
    (got, got_grads), (want, want_grads) = runs
    np.testing.assert_array_equal(got, want)
    assert_grads_agree(got_grads, want_grads, exact=True)
    assert got_grads[0][0] == 0.0 and got_grads[1][3] == 0.0  # clamped cells


def test_connective_arity_errors():
    with pytest.raises(ValueError):
        apply_connective(NEG, Tensor(0.5), Tensor(0.5))
    with pytest.raises(ValueError):
        apply_connective(ANDS["min"], Tensor(0.5))


def test_op_validation():
    with pytest.raises(ValueError):
        ConnectiveOp("and", "kleene_dienes")
    with pytest.raises(ValueError):
        ConnectiveOp("implies", "godel", stable=True)
    with pytest.raises(ValueError):
        AggregatorSpec("pmean", p=0.3)
    with pytest.raises(ValueError):
        AggregatorSpec("mean", p=2)
    with pytest.raises(ValueError):
        AggregatorSpec("min", stable=True)
    assert AggregatorSpec("pmean").p == 2.0  # default


@pytest.mark.parametrize("family", sorted(_AGGREGATORS))
def test_only_the_p_means_take_p_and_a_stable_form(family):
    pmean = family in ("pmean", "pmean_error")
    for kwargs in ({"p": 2}, {"stable": True}):
        if pmean:
            AggregatorSpec(family, **kwargs)
        else:
            with pytest.raises(ValueError):
                AggregatorSpec(family, **kwargs)
    assert (AggregatorSpec(family).p is not None) == pmean
    if pmean:
        assert AggregatorSpec(family).with_p(4).p == 4.0
    else:
        with pytest.raises(ValueError, match=f"^{family} takes no p$"):
            AggregatorSpec(family).with_p(4)


@pytest.mark.parametrize("p", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("family", ["pmean", "pmean_error"])
def test_a_p_mean_names_a_non_finite_p(family, p):
    with pytest.raises(ValueError, match=f"^p must be finite, got {p:g}$"):
        AggregatorSpec(family).with_p(p)


def test_tag_parsing():
    op = parse_op_tag("and", "product_stable")
    assert op == ConnectiveOp("and", "product", stable=True)
    ag = parse_op_tag("forall", "pmean_error:p=4")
    assert ag.family == "pmean_error" and ag.p == 4.0 and not ag.stable
    ag = parse_op_tag("exists", "pmean_stable:p=6,eps=1e-3")
    assert ag.stable and ag.eps == pytest.approx(1e-3) and ag.p == 6.0
    with pytest.raises(ValueError):
        parse_op_tag("and", "pmean")
    with pytest.raises(ValueError):
        parse_op_tag("forall", "mean:p=2")
    with pytest.raises(ValueError):
        parse_op_tag("and", "product:q=2")
    with pytest.raises(ValueError):
        parse_op_tag("and", "product:p")
    with pytest.raises(ValueError):
        parse_op_tag("banana", "min")


def test_config_preset_and_overrides():
    cfg = FuzzyConfig()
    assert cfg.conj == ConnectiveOp("and", "product", stable=True)
    assert cfg.forall.family == "pmean_error" and cfg.forall.p == 2.0
    assert cfg.sat_agg.stable
    cfg2 = cfg.with_tag("and", "luk").with_tag("forall", "mean")
    assert cfg2.conj.family == "luk"
    assert cfg2.forall.family == "mean"
    assert cfg2.disj == cfg.disj  # untouched
    cfg3 = cfg.with_tag("eq_alpha", "2.5")
    assert cfg3.eq_alpha == 2.5


# -- gradient profiles: the pathologies behind the stable product default ------


def connective_grid():
    """All pairs over a 5-point lattice of [0, 1], corners included."""
    vals = np.linspace(0.0, 1.0, 5)
    return [(float(a), float(b)) for a in vals for b in vals]


def aggregator_grid():
    """Corner and interior input vectors for aggregator profiling."""
    return [np.zeros(4), np.ones(4), np.full(4, 0.5),
            np.linspace(0.1, 0.9, 4), np.linspace(0.0, 1.0, 4)]


def derivative_profile(op) -> dict:
    """Classify an operator's gradient behavior on its grid of inputs.

    - single_passing: at every point, at most one input coordinate gets a
      gradient above 1e-6 (min/max style bottlenecks).
    - vanishing: at some point every coordinate's gradient is finite and
      below 1e-6, so learning stalls there.
    - exploding: some coordinate exceeds 1e6 or is not finite.
    """
    is_agg = isinstance(op, AggregatorSpec)
    single = True
    vanishing = False
    exploding = False
    for pt in aggregator_grid() if is_agg else connective_grid():
        if is_agg:
            xs = [Tensor(pt, requires_grad=True)]
            out = aggregate(op, xs[0], 1)
        else:
            xs = [Tensor(v, requires_grad=True) for v in pt]
            out = apply_connective(op, *xs)
        grads = np.abs(np.concatenate(
            [np.ravel(g) for g in T.grad(out, xs)]))
        finite = np.isfinite(grads)
        if not finite.all() or (grads[finite] > 1e6).any():
            exploding = True
        active = (grads > 1e-6) & finite
        if active.sum() > 1:
            single = False
        if finite.all() and not active.any():
            vanishing = True
    return {"single_passing": single, "vanishing": vanishing,
            "exploding": exploding}


PROFILES = [
    (ConnectiveOp("and", "min"), True, False, False),
    (ConnectiveOp("or", "max"), True, False, False),
    (ConnectiveOp("implies", "kleene_dienes"), True, False, False),
    (ConnectiveOp("implies", "godel"), True, True, False),
    (ConnectiveOp("and", "product"), False, True, False),
    (ConnectiveOp("or", "product"), False, True, False),
    (ConnectiveOp("implies", "reichenbach"), False, True, False),
    (ConnectiveOp("implies", "goguen"), False, True, False),
    (ConnectiveOp("and", "luk"), False, True, False),
    (ConnectiveOp("or", "luk"), False, True, False),
    (ConnectiveOp("implies", "luk"), False, True, False),
    (ConnectiveOp("and", "product", stable=True), False, False, False),
    (ConnectiveOp("or", "product", stable=True), False, False, False),
    (ConnectiveOp("implies", "reichenbach", stable=True), False, False, False),
    (AggregatorSpec("min"), True, False, False),
    (AggregatorSpec("max"), True, False, False),
    (AggregatorSpec("mean"), False, False, False),
    (AggregatorSpec("prod"), False, True, False),
    (AggregatorSpec("prob_sum"), False, True, False),
    (AggregatorSpec("luk_and"), False, True, False),
    (AggregatorSpec("luk_or"), False, True, False),
    (AggregatorSpec("pmean", p=2), False, False, True),
    (AggregatorSpec("pmean_error", p=2), False, False, True),
    (AggregatorSpec("pmean", p=2, stable=True), False, False, False),
    (AggregatorSpec("pmean_error", p=2, stable=True), False, False, False),
]


@pytest.mark.parametrize("op,single,vanish,explode", PROFILES,
                         ids=[op_id(p[0]) for p in PROFILES])
def test_derivative_profiles(op, single, vanish, explode):
    prof = derivative_profile(op)
    assert prof["single_passing"] == single, prof
    assert prof["vanishing"] == vanish, prof
    assert prof["exploding"] == explode, prof


def test_stable_gradients_bounded_by_inverse_eps():
    eps = 1e-4
    for spec in (AggregatorSpec("pmean", p=6, stable=True, eps=eps),
                 AggregatorSpec("pmean_error", p=6, stable=True, eps=eps)):
        for xs in aggregator_grid():
            x = Tensor(np.asarray(xs), requires_grad=True)
            (gx,) = T.grad(aggregate(spec, x, 1), [x])
            assert np.all(np.isfinite(gx))
            assert np.abs(gx).max() <= 1.0 / eps


def test_profile_grids_cover_corners():
    pts = connective_grid()
    assert (0.0, 0.0) in pts and (1.0, 1.0) in pts and (1.0, 0.0) in pts
    vecs = aggregator_grid()
    assert any(np.all(v == 0) for v in vecs) and any(np.all(v == 1) for v in vecs)
