"""Parameter store, Adam, and dense-network behavior."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reallogic import tensor as T
from reallogic.nn import (
    MlpSpec, ParamStore, adam_step, backward, dense_forward, init_mlp,
)
from reallogic.tensor import Tensor

from fdcheck import fd_store_grad


def test_store_add_get_and_duplicate_rejection():
    s = ParamStore(seed=1)
    t = s.add("a", [1.0, 2.0])
    assert s.get("a") is t
    assert "a" in s and "b" not in s
    with pytest.raises(ValueError):
        s.add("a", 0.0)


def test_add_clamps_into_box():
    s = ParamStore()
    t = s.add("x", [-0.5, 0.3, 1.7], lo=0.0, hi=1.0)
    assert np.allclose(t.data, [0.0, 0.3, 1.0])


def test_backward_returns_zeros_for_unreachable_slots():
    s = ParamStore()
    a = s.add("a", 2.0)
    s.add("unused", [1.0, 1.0])
    grads = backward(a * a, s)
    assert np.allclose(grads["a"], 4.0)
    assert np.allclose(grads["unused"], [0.0, 0.0])


def test_adam_first_step_magnitude_is_lr():
    # with zero moments, step one reduces to lr * g / (|g| + eps)
    s = ParamStore()
    a = s.add("a", [1.0, -3.0])
    grads = backward(T.reduce_sum(a * Tensor([2.0, -5.0])), s)
    adam_step(s, grads, lr=0.001)
    assert np.allclose(a.data, [1.0 - 0.001, -3.0 + 0.001], atol=1e-6)


def test_adam_matches_reference_implementation():
    s = ParamStore()
    a = s.add("a", [0.5, 0.5])
    theta = np.array([0.5, 0.5])
    m = np.zeros(2)
    v = np.zeros(2)
    for t in range(1, 6):
        grads = backward(T.reduce_sum(a * a * Tensor([1.0, -2.0])), s)
        g = 2.0 * theta * np.array([1.0, -2.0])
        assert np.allclose(grads["a"], g)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta = theta - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        adam_step(s, grads, lr=0.01)
        assert np.allclose(a.data, theta, atol=1e-12)


def test_adam_clamps_to_box_after_step():
    s = ParamStore()
    a = s.add("a", 0.9995, lo=0.0, hi=1.0)
    grads = backward(a * (-100.0), s)  # pushes a up
    adam_step(s, grads, lr=0.01)
    assert a.data == 1.0


def test_snapshot_tracks_every_bit():
    s = ParamStore()
    s.add("a", [1.0, 0.0])
    s.add("b", 3.0)
    snap = s.snapshot()
    assert s.snapshot() == snap
    s.get("b").data += 1e-12
    assert s.snapshot() != snap
    snap = s.snapshot()
    s.get("a").data[1] = -0.0  # equal as a float, not as bits
    assert s.snapshot() != snap
    s.get("a").data[0] = np.nan  # NaN compares equal to its own bits
    snap = s.snapshot()
    assert s.snapshot() == snap
    s.add("c", 0.0)
    assert s.snapshot() != snap


def test_save_load_round_trip(tmp_path):
    s = ParamStore(seed=3)
    s.add("net/W0", s.rng.standard_normal((4, 3)))
    s.add("t", 0.25, lo=0.0, hi=1.0)
    path = tmp_path / "params.bin"
    s.save(path)
    s2 = ParamStore.load(path)
    assert s2.names() == s.names()
    for n in s.names():
        assert np.array_equal(s2.get(n).data, s.get(n).data)
    assert s2.slots["t"].lo == 0.0 and s2.slots["t"].hi == 1.0
    assert s2.snapshot() == s.snapshot()


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "nope.bin"
    p.write_bytes(b"not params")
    with pytest.raises(ValueError):
        ParamStore.load(p)


def test_load_rejects_truncated_and_trailing_bytes(tmp_path):
    s = ParamStore()
    s.add("a", [1.0, 2.0])
    s.add("b", np.zeros((2, 3)))
    path = tmp_path / "params.bin"
    s.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match=r"slot 'b' of shape \(2, 3\) "
                                         r"needs 48 bytes, found 40"):
        ParamStore.load(path)
    path.write_bytes(blob + b"\0" * 3)
    with pytest.raises(ValueError, match="3 bytes after the last slot"):
        ParamStore.load(path)
    path.write_bytes(blob[:7])
    with pytest.raises(ValueError, match="header length cut short"):
        ParamStore.load(path)
    path.write_bytes(blob[:13])
    with pytest.raises(ValueError, match=rf"params\.bin: header needs "
                                         rf"{len(blob) - 9 - 48 - 16} bytes, "
                                         rf"found 4$"):
        ParamStore.load(path)


def test_params_diff_tool_prints_each_slot_and_rejects_mismatches(tmp_path):
    root = Path(__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def params_diff(a, b):
        return subprocess.run([sys.executable, root / "tools" / "params_diff.py",
                               a, b], env=env, capture_output=True, text=True)

    def save(name, **slots):
        s = ParamStore()
        for slot, value in slots.items():
            s.add(slot, value)
        s.save(tmp_path / name)
        return tmp_path / name

    a = save("a.bin", w=[1.0, 2.0], b=0.5)
    out = params_diff(a, save("b.bin", w=[1.0, 2.25], b=0.5))
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["0.0  b", "0.25  w", "0.25  (largest)"]
    out = params_diff(a, save("c.bin", w=[1.0, 2.0], c=0.5))
    assert out.returncode == 1
    assert "only in A: ['b']; only in B: ['c']" in out.stderr
    out = params_diff(a, save("d.bin", w=[[1.0, 2.0]], b=0.5))
    assert out.returncode == 1
    assert "slot 'w' has shape (2,) in A and (1, 2) in B" in out.stderr


def test_glorot_bounds_and_zero_biases():
    s = ParamStore(seed=5)
    spec = MlpSpec((8, 16, 1), ("elu", "sigmoid"))
    init_mlp(s, "net", spec)
    w0 = s.get("net/W0").data
    bound = np.sqrt(6.0 / (8 + 16))
    assert w0.shape == (8, 16)
    assert np.abs(w0).max() <= bound
    assert w0.std() > 0.1 * bound
    assert np.all(s.get("net/b0").data == 0.0)
    assert np.all(s.get("net/b1").data == 0.0)


def test_mlp_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec((2, 3), ("elu", "elu"))
    with pytest.raises(ValueError):
        MlpSpec((2, 3), ("warp",))
    with pytest.raises(ValueError):
        MlpSpec((2, 3, 1), ("elu", "linear"), (0.5,))
    # a rate of 1 keeps nothing and divides by zero; a negative one does
    # nothing
    for rate in (1.0, 1.5, -0.5, float("nan")):
        with pytest.raises(ValueError, match=r"dropout rate must be in \[0, 1\)"):
            MlpSpec((2, 3, 1), ("elu", "sigmoid"), (rate, 0.0))
    MlpSpec((2, 3, 1), ("elu", "sigmoid"), (0.0, 0.99))


def test_dense_forward_matches_manual_chain():
    s = ParamStore(seed=9)
    spec = MlpSpec((3, 4, 2), ("elu", "linear"))
    init_mlp(s, "f", spec)
    x = np.array([[0.1, -0.2, 0.4], [1.0, 0.5, -0.3]])
    out = dense_forward(spec, s, "f", Tensor(x), training=False).data
    h = x @ s.get("f/W0").data + s.get("f/b0").data
    h = np.where(h > 0, h, np.expm1(h))
    want = h @ s.get("f/W1").data + s.get("f/b1").data
    assert np.allclose(out, want)


def test_dense_forward_grads_match_fd():
    s = ParamStore(seed=11)
    spec = MlpSpec((2, 5, 3), ("elu", "softmax"))
    init_mlp(s, "g", spec)
    x = np.random.default_rng(0).standard_normal((4, 2))
    weights = np.random.default_rng(1).standard_normal((4, 3))

    def run():
        out = dense_forward(spec, s, "g", Tensor(x), training=False)
        return T.reduce_sum(out * weights)

    grads = backward(run(), s)
    for name in s.names():
        want = fd_store_grad(s, name, lambda: float(run().data))
        got = grads[name]
        assert np.allclose(got, want, rtol=1e-4, atol=1e-7), name


def test_dense_forward_handles_extra_leading_axes():
    s = ParamStore(seed=2)
    spec = MlpSpec((3, 4, 1), ("elu", "sigmoid"))
    init_mlp(s, "f", spec)
    x = np.random.default_rng(4).random((2, 5, 3))
    out = dense_forward(spec, s, "f", Tensor(x), training=False)
    assert out.shape == (2, 5, 1)
    flat = dense_forward(spec, s, "f", Tensor(x.reshape(10, 3)), training=False)
    assert np.allclose(out.data.reshape(10, 1), flat.data)


def test_dropout_only_active_in_training_mode():
    s = ParamStore(seed=21)
    spec = MlpSpec((4, 4), ("linear",), (0.5,))
    init_mlp(s, "d", spec)
    s.get("d/W0").data[:] = np.eye(4)
    x = Tensor(np.ones((200, 4)))
    eval_out = dense_forward(spec, s, "d", x, training=False)
    assert np.allclose(eval_out.data, 1.0)
    train_out = dense_forward(spec, s, "d", x, training=True).data
    vals = np.unique(train_out)
    assert set(np.round(vals, 12)) <= {0.0, 2.0}  # inverted scaling by 1/keep
    frac_kept = (train_out > 0).mean()
    assert 0.4 < frac_kept < 0.6
    again = dense_forward(spec, s, "d", x, training=True).data
    assert not np.array_equal(train_out, again)  # rng advances per pass


def test_dropout_mask_gradient_flow():
    s = ParamStore(seed=33)
    spec = MlpSpec((2, 2), ("linear",), (0.5,))
    init_mlp(s, "d", spec)
    s.get("d/W0").data[:] = np.eye(2)
    out = dense_forward(spec, s, "d", Tensor(np.ones((50, 2))), training=True)
    grads = backward(T.reduce_sum(out), s)
    g = grads["d/W0"]
    # grad wrt W sums x*mask contributions: strictly positive, scaled by 2
    assert np.all(g >= 0.0)
    assert g.max() > 0.0
