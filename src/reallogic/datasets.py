"""Datasets for the demos: CSV loading plus seeded synthetic recipes.

The CSVs under ``reallogic/data`` are fixed synthetic snapshots, read as
data only (the recipes that drew them last appear in commit 64c096f);
everything else is synthesized on the fly from a seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    name: str
    columns: tuple
    rows: np.ndarray      # (n, len(columns)) float64

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise DataError(f"{self.name}: rows do not match columns")

    def __len__(self):
        return self.rows.shape[0]

    def col(self, name: str) -> np.ndarray:
        return self.cols(name)[:, 0]

    def cols(self, *names) -> np.ndarray:
        idx = []
        for n in names:
            if n not in self.columns:
                raise DataError(f"{self.name}: no column {n!r}")
            idx.append(self.columns.index(n))
        return self.rows[:, idx]

    def take(self, index) -> "Dataset":
        return Dataset(self.name, self.columns, self.rows[np.asarray(index)])


def load_csv(path, columns=None) -> Dataset:
    """Read a numeric CSV with a header row.

    ``columns`` restricts and orders the result; a missing column, a
    ragged row, or a non-numeric cell raises DataError naming the spot.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path.name}: empty file") from None
        header = [h.strip() for h in header]
        rows = []
        for i, row in enumerate(reader, start=2):
            if not row or row == [""]:
                continue
            if len(row) != len(header):
                raise DataError(f"{path.name}: row {i} has {len(row)} cells, "
                                f"expected {len(header)}")
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                bad = next(c for c in row if not _floatable(c))
                raise DataError(f"{path.name}: row {i}: non-numeric cell "
                                f"{bad!r}") from None
    if not rows:
        raise DataError(f"{path.name}: no data rows")
    data = np.array(rows, dtype=np.float64)
    ds = Dataset(path.stem, tuple(header), data)
    if columns is not None:
        for c in columns:
            if c not in header:
                raise DataError(f"{path.name}: missing column {c!r}")
        ds = Dataset(ds.name, tuple(columns), ds.cols(*columns))
    return ds


def _floatable(c):
    try:
        float(c)
        return True
    except ValueError:
        return False


def data_dir() -> Path:
    return Path(__file__).parent / "data"


def bundled(name: str) -> Dataset:
    return load_csv((data_dir() / name).with_suffix(".csv"))


def split_stratified(rng, labels, train_frac):
    """Per-label shuffled split; returns (train_idx, test_idx)."""
    labels = np.asarray(labels)
    train, test = [], []
    for v in np.unique(labels):
        idx = np.flatnonzero(labels == v)
        idx = idx[rng.permutation(len(idx))]
        k = int(round(train_frac * len(idx)))
        k = min(max(k, 1), len(idx) - 1) if len(idx) > 1 else k
        train.extend(idx[:k])
        test.extend(idx[k:])
    return np.sort(np.array(train)), np.sort(np.array(test))


# -- synthetic recipes ----------------------------------------------------------


def make_binary(seed: int) -> Dataset:
    """100 uniform points in [0,1]^2; positive = closer than 0.09 to the
    center. The rule labels very few points positive, so draws with fewer
    than 2 positives are rejected and redrawn from a derived seed (each
    split must keep at least one positive instance)."""
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        pts = rng.random((100, 2))
        dist = np.linalg.norm(pts - 0.5, axis=1)
        label = (dist < 0.09).astype(float)
        if label.sum() >= 2:
            break
        rng = np.random.default_rng(rng.integers(2**63))
    return Dataset("binary", ("x1", "x2", "label"),
                   np.column_stack([pts, label]))


def make_clustering(seed: int):
    """4 Gaussian blobs of 50 points each, clipped to [-1,1]^2.

    Centers are drawn in [-0.75, 0.75]^2 and redrawn until all pairwise
    distances reach 1.0, which keeps the distant-pair axiom (threshold
    1.0) meaningful. Returns (points Dataset with blob ids, centers)."""
    rng = np.random.default_rng(seed)
    while True:
        centers = rng.uniform(-0.75, 0.75, size=(4, 2))
        d = np.linalg.norm(centers[:, None] - centers[None], axis=-1)
        if d[np.triu_indices(4, 1)].min() >= 1.0:
            break
    pts = centers[:, None] + rng.normal(0, 0.12, size=(4, 50, 2))
    pts = np.clip(pts.reshape(200, 2), -1.0, 1.0)
    blob = np.repeat(np.arange(4.0), 50)
    return Dataset("clustering", ("x1", "x2", "blob"),
                   np.column_stack([pts, blob])), centers


def digit_features(rng, digits: np.ndarray) -> np.ndarray:
    """Noisy one-hot encodings: onehot(d) + N(0, 0.2^2) per coordinate."""
    digits = np.asarray(digits, dtype=int)
    feats = np.eye(10)[digits] + rng.normal(0, 0.2, size=(len(digits), 10))
    return feats


def make_addition(seed: int, kind: str, n_train: int, n_test: int) -> dict:
    """Digit-pair (or two-digit-number pair) addition examples.

    Single: columns x0..x9, y0..y9, d1, d2, n with n = d1 + d2.
    Multi: four feature blocks and n = 10*d1 + d2 + 10*d3 + d4.
    """
    rng = np.random.default_rng(seed)
    ndig = 2 if kind == "single" else 4
    out = {}
    for part, count in (("train", n_train), ("test", n_test)):
        digs = rng.integers(0, 10, size=(count, ndig))
        blocks = [digit_features(rng, digs[:, j]) for j in range(ndig)]
        if kind == "single":
            n = digs.sum(axis=1)
        else:
            n = 10 * digs[:, 0] + digs[:, 1] + 10 * digs[:, 2] + digs[:, 3]
        names = [f"{chr(ord('x') + j)}{i}" for j in range(ndig) for i in range(10)] \
            if ndig == 2 else \
            [f"{b}{i}" for b in ("x1_", "x2_", "y1_", "y2_") for i in range(10)]
        cols = names + [f"d{j + 1}" for j in range(ndig)] + ["n"]
        rows = np.column_stack(blocks + [digs.astype(float), n.astype(float)])
        out[part] = Dataset(f"addition-{kind}-{part}", tuple(cols), rows)
    return out
