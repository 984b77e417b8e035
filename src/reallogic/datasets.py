"""Datasets for the demos: CSV loading plus seeded synthetic recipes.

Tabular data is bundled as CSV snapshots under ``reallogic/data`` and
regenerated by ``tools/gen_snapshots.py``; everything else is synthesized
on the fly from a seed.
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
    provenance: str

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
        return Dataset(self.name, self.columns, self.rows[np.asarray(index)],
                       self.provenance)


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
    ds = Dataset(path.stem, tuple(header), data, f"bundled-csv:{path.name}")
    if columns is not None:
        for c in columns:
            if c not in header:
                raise DataError(f"{path.name}: missing column {c!r}")
        ds = Dataset(ds.name, tuple(columns), ds.cols(*columns), ds.provenance)
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
                   np.column_stack([pts, label]), f"synthetic({seed})")


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
    ds = Dataset("clustering", ("x1", "x2", "blob"),
                 np.column_stack([pts, blob]), f"synthetic({seed})")
    return ds, centers


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
        out[part] = Dataset(f"addition-{kind}-{part}", tuple(cols), rows,
                            f"synthetic({seed})")
    return out


SMOKER_PEOPLE = tuple("abcdefghijklmn")
SMOKER_GROUP1 = tuple("abcdefgh")
SMOKER_GROUP2 = tuple("ijklmn")
SMOKERS = ("a", "e", "f", "g", "j", "n")
CANCER = ("a", "e")
FRIENDS = (("a", "b"), ("a", "e"), ("a", "f"), ("a", "g"), ("b", "c"),
           ("c", "d"), ("e", "f"), ("g", "h"), ("i", "j"), ("j", "m"),
           ("k", "l"), ("m", "n"))


def smoker_facts() -> dict:
    """The fact sets for the friends-and-smokers example.

    Friendship knowledge is incomplete: the 12 listed pairs are known
    friends, and every unordered pair of the 14 individuals not listed
    is a known non-friend, written in the reversed (u > v) direction so
    the reverse of a listed friendship is never negated (the symmetry
    rule must stay satisfiable). Smoking facts cover both groups while
    cancer facts cover group 1 only.
    """
    friend_set = {frozenset(p) for p in FRIENDS}
    non_friends = []
    for i, u in enumerate(SMOKER_PEOPLE):
        for v in SMOKER_PEOPLE[i + 1:]:
            if frozenset((u, v)) not in friend_set:
                non_friends.append((v, u))
    return {
        "people": SMOKER_PEOPLE,
        "groups": (SMOKER_GROUP1, SMOKER_GROUP2),
        "smokers": SMOKERS,
        "non_smokers": tuple(u for u in SMOKER_PEOPLE if u not in SMOKERS),
        "cancer": CANCER,
        "non_cancer": tuple(u for u in SMOKER_GROUP1 if u not in CANCER),
        "friends": FRIENDS,
        "non_friends": tuple(non_friends),
    }


# -- bundled snapshot recipes (written out by tools/gen_snapshots.py) -------------


def make_iris_like(seed: int = 20240803) -> Dataset:
    """150 rows, 4 features, 3 balanced classes; class-conditional
    Gaussians with one partially overlapping pair."""
    rng = np.random.default_rng(seed)
    means = np.array([[5.0, 3.4, 1.5, 0.2],
                      [5.9, 2.8, 4.3, 1.3],
                      [6.6, 3.0, 5.6, 2.0]])
    stds = np.array([[0.35, 0.38, 0.17, 0.10],
                     [0.51, 0.31, 0.47, 0.20],
                     [0.64, 0.32, 0.55, 0.27]])
    feats = np.concatenate([rng.normal(m, s, size=(50, 4))
                            for m, s in zip(means, stds)])
    feats = np.round(np.maximum(feats, 0.1), 1)
    species = np.repeat(np.arange(3.0), 50)
    return Dataset("iris_like",
                   ("sepal_len", "sepal_wid", "petal_len", "petal_wid",
                    "species"),
                   np.column_stack([feats, species]), f"synthetic({seed})")


def make_crabs_like(seed: int = 20240804) -> Dataset:
    """200 rows, 5 morphological features, color and sex labels (50 per
    color/sex combination). Measurements scale with a latent body size;
    color shifts the shell ratios and sex shifts the claw width."""
    rng = np.random.default_rng(seed)
    rows = []
    for color in (0, 1):
        for sex in (0, 1):
            size = rng.normal(30, 5, size=50)
            fl = size * (0.52 + 0.06 * color) + rng.normal(0, 0.8, 50)
            rw = size * (0.42 + 0.09 * sex) + rng.normal(0, 0.7, 50)
            cl = size * 1.00 + rng.normal(0, 1.0, 50)
            cw = size * (1.12 - 0.05 * color) + rng.normal(0, 1.0, 50)
            bd = size * (0.38 + 0.05 * color + 0.02 * sex) + rng.normal(0, 0.6, 50)
            block = np.column_stack([fl, rw, cl, cw, bd,
                                     np.full(50, float(color)),
                                     np.full(50, float(sex))])
            rows.append(block)
    data = np.round(np.concatenate(rows), 2)
    return Dataset("crabs_like", ("fl", "rw", "cl", "cw", "bd", "color", "sex"),
                   data, f"synthetic({seed})")


def make_real_estate_like(seed: int = 20240805) -> Dataset:
    """414 rows, 6 features, one price target; smooth nonlinear price
    surface with modest noise so the regression trend is learnable."""
    rng = np.random.default_rng(seed)
    n = 414
    date = rng.uniform(2012.6, 2013.6, n)
    age = rng.uniform(0.0, 43.0, n)
    dist = np.exp(rng.uniform(np.log(23.0), np.log(6500.0), n))
    stores = rng.integers(0, 11, n).astype(float)
    lat = rng.uniform(24.93, 25.02, n)
    lon = rng.uniform(121.47, 121.57, n)
    price = (18.0
             + 24.0 * np.exp(-dist / 900.0)
             - 0.26 * age
             + 1.1 * stores
             + 160.0 * (lat - 24.93)
             + 6.0 * (date - 2012.6)
             + rng.normal(0, 1.5, n))
    price = np.round(np.maximum(price, 7.0), 1)
    data = np.column_stack([np.round(date, 3), np.round(age, 1),
                            np.round(dist, 1), stores, np.round(lat, 5),
                            np.round(lon, 5), price])
    return Dataset("real_estate_like",
                   ("date", "age", "dist_station", "stores", "lat", "lon",
                    "price"),
                   data, f"synthetic({seed})")


def write_csv(ds: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ds.columns)
        for row in ds.rows:
            w.writerow([_cell(v) for v in row])


def _cell(v: float) -> str:
    return str(int(v)) if v == int(v) else repr(float(v))
