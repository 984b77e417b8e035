"""Trainable parameters, dense networks, and the Adam optimizer.

A ParamStore owns every trainable tensor in a theory, keyed by slot name
(``"P/W0"``, ``"embed/anna"``, ...). Slots can carry box bounds; Adam
clamps into the box after each step, which is how truth-valued scalars
stay in [0, 1] during optimization. The store also owns the RNG used for
initialization and dropout, so one seed fixes an entire run.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from reallogic import tensor as T
from reallogic.tensor import Tensor

_MAGIC = b"RLP1\n"


@dataclass
class Param:
    tensor: Tensor
    lo: float | None = None
    hi: float | None = None
    m: np.ndarray = field(default=None)  # Adam first moment
    v: np.ndarray = field(default=None)  # Adam second moment

    def __post_init__(self):
        if self.m is None:
            self.m = np.zeros_like(self.tensor.data)
        if self.v is None:
            self.v = np.zeros_like(self.tensor.data)

    def clamp(self) -> None:
        if self.lo is not None or self.hi is not None:
            np.clip(self.tensor.data, self.lo, self.hi, out=self.tensor.data)


class ParamStore:
    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)
        self.slots: dict[str, Param] = {}
        self.step_count = 0

    def add(self, name: str, value, lo=None, hi=None) -> Tensor:
        if name in self.slots:
            raise ValueError(f"slot {name!r} already exists")
        t = Tensor(np.array(value, dtype=np.float64), requires_grad=True)
        p = Param(t, lo, hi)
        p.clamp()
        self.slots[name] = p
        return t

    def get(self, name: str) -> Tensor:
        return self.slots[name].tensor

    def __contains__(self, name: str) -> bool:
        return name in self.slots

    def names(self) -> list[str]:
        return sorted(self.slots)

    def snapshot(self) -> tuple:
        """Every slot's name, shape and raw bytes. Two snapshots compare
        equal iff no slot was added, removed or reshaped and no bit of
        any value changed (NaN included)."""
        return tuple((name, p.tensor.data.shape, p.tensor.data.tobytes())
                     for name, p in self.slots.items())

    def save(self, path) -> None:
        header = [{"name": n,
                   "shape": list(self.slots[n].tensor.data.shape),
                   "lo": self.slots[n].lo,
                   "hi": self.slots[n].hi}
                  for n in self.names()]
        blob = json.dumps(header, sort_keys=True).encode()
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            for n in self.names():
                f.write(np.ascontiguousarray(self.slots[n].tensor.data).tobytes())

    @classmethod
    def load(cls, path) -> "ParamStore":
        """Read a file written by :meth:`save`; raise ValueError naming
        the header or the slot whose data is cut short, or the bytes
        left over."""
        store = cls()
        with open(path, "rb") as f:
            if f.read(len(_MAGIC)) != _MAGIC:
                raise ValueError(f"{path}: not a parameter file")
            raw = f.read(4)
            if len(raw) != 4:
                raise ValueError(f"{path}: header length cut short")
            (hlen,) = struct.unpack("<I", raw)
            blob = f.read(hlen)
            if len(blob) != hlen:
                raise ValueError(f"{path}: header needs {hlen} bytes, "
                                 f"found {len(blob)}")
            header = json.loads(blob.decode())
            for entry in header:
                shape = tuple(entry["shape"])
                n = int(np.prod(shape, dtype=int)) if shape else 1
                raw = f.read(8 * n)
                if len(raw) != 8 * n:
                    raise ValueError(
                        f"{path}: slot {entry['name']!r} of shape {shape} "
                        f"needs {8 * n} bytes, found {len(raw)}")
                data = np.frombuffer(raw, dtype=np.float64).reshape(shape)
                store.add(entry["name"], data.copy(), entry["lo"], entry["hi"])
            extra = len(f.read())
            if extra:
                raise ValueError(f"{path}: {extra} bytes after the last slot")
        return store

    def copy_from(self, other: "ParamStore") -> None:
        """Copy every slot value from ``other``, which must hold exactly
        the same slot names and shapes; raise ValueError naming the first
        slot that differs."""
        def shape(store, name):
            return f"shape {store.get(name).shape}" if name in store else "no slot"

        for name in sorted(set(self.slots) | set(other.slots)):
            want, got = shape(self, name), shape(other, name)
            if want != got:
                raise ValueError(f"slot {name!r}: expected {want}, found {got}")
        for name in self.names():
            self.get(name).data[...] = other.get(name).data


def backward(root: Tensor, store: ParamStore) -> dict[str, np.ndarray]:
    """Backprop from a scalar root; return one gradient array per slot.

    Slots the root does not depend on get explicit zeros, so optimizer
    code never needs to special-case partial graphs. The arrays are
    :func:`tensor.grad`'s: read them, do not write them.
    """
    slots = store.slots
    return dict(zip(slots, T.grad(root, [p.tensor for p in slots.values()])))


# Adam's moment decay rates and the guard added to its denominator
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def adam_step(store: ParamStore, grads: dict[str, np.ndarray],
              lr: float) -> None:
    """One bias-corrected Adam update from :func:`backward`'s gradient
    arrays, then box clamping."""
    b1, b2 = ADAM_BETAS
    store.step_count += 1
    t = store.step_count
    for name, p in store.slots.items():
        g = grads[name]
        p.m = b1 * p.m + (1.0 - b1) * g
        p.v = b2 * p.v + (1.0 - b2) * g * g
        m_hat = p.m / (1.0 - b1 ** t)
        v_hat = p.v / (1.0 - b2 ** t)
        p.tensor.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p.clamp()


# -- dense networks ----------------------------------------------------------

@dataclass(frozen=True)
class MlpSpec:
    """widths includes the input dim; acts/drops cover each layer after it."""
    widths: tuple[int, ...]
    acts: tuple[str, ...]
    drops: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.acts) != len(self.widths) - 1:
            raise ValueError("need one activation per layer")
        drops = self.drops or (0.0,) * len(self.acts)
        if len(drops) != len(self.acts):
            raise ValueError("need one dropout rate per layer")
        object.__setattr__(self, "drops", tuple(float(d) for d in drops))
        for d in self.drops:
            if not 0.0 <= d < 1.0:
                raise ValueError(f"dropout rate must be in [0, 1), got {d:g}")
        for a in self.acts:
            if a not in T.ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")


def init_mlp(store: ParamStore, prefix: str, spec: MlpSpec) -> None:
    """Glorot-uniform weights, zero biases, one slot pair per layer."""
    for i, (fi, fo) in enumerate(zip(spec.widths, spec.widths[1:])):
        bound = np.sqrt(6.0 / (fi + fo))
        store.add(f"{prefix}/W{i}", store.rng.uniform(-bound, bound, (fi, fo)))
        store.add(f"{prefix}/b{i}", np.zeros(fo))


def dense_forward(spec: MlpSpec, store: ParamStore, prefix: str,
                  x: Tensor, training: bool) -> Tensor:
    """Run ``x`` of shape (..., widths[0]) through the network, one
    :func:`tensor.dense` node per layer.

    Dropout is inverted (mask / keep-prob) and only active while training,
    so evaluation is deterministic and unscaled.
    """
    h = x
    for i, act in enumerate(spec.acts):
        h = T.dense(h, store.get(f"{prefix}/W{i}"),
                    store.get(f"{prefix}/b{i}"), act)
        rate = spec.drops[i]
        if training and rate > 0.0:
            keep = store.rng.random(h.shape) >= rate
            h = h * (keep / (1.0 - rate))
    return h
