"""Print the largest absolute difference per slot between two parameter
files.

Usage: ``PYTHONPATH=src python tools/params_diff.py A B``

Both files are read with ``nn.ParamStore.load``. When the two files
hold different slot names, or one slot with different shapes, the tool
names them on stderr and exits 1. Otherwise it prints one
``<max |a - b|>  <slot>`` line per slot, sorted by name, then the
largest difference over all slots. Use it to check that a change which
should only reorder float sums moved the trained parameters by no more
than rounding.
"""

import sys

import numpy as np

from reallogic.nn import ParamStore


def slot_diffs(a: ParamStore, b: ParamStore) -> dict:
    """Slot name -> largest absolute difference; ValueError naming the
    slots or shapes that do not match."""
    if a.names() != b.names():
        only_a = sorted(set(a.names()) - set(b.names()))
        only_b = sorted(set(b.names()) - set(a.names()))
        raise ValueError(f"slots only in A: {only_a}; only in B: {only_b}")
    out = {}
    for name in a.names():
        x, y = a.get(name).data, b.get(name).data
        if x.shape != y.shape:
            raise ValueError(f"slot {name!r} has shape {x.shape} in A "
                             f"and {y.shape} in B")
        out[name] = float(np.max(np.abs(x - y))) if x.size else 0.0
    return out


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: params_diff.py A B")
    try:
        diffs = slot_diffs(ParamStore.load(sys.argv[1]),
                           ParamStore.load(sys.argv[2]))
    except ValueError as e:
        sys.exit(f"params_diff: {e}")
    for name, d in diffs.items():
        print(f"{d!r}  {name}")
    print(f"{max(diffs.values(), default=0.0)!r}  (largest)")
