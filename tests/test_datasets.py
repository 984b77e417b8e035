"""Tests for CSV loading, the bundled snapshots, the smokers facts and the
synthetic data recipes."""

from pathlib import Path

import numpy as np
import pytest

from reallogic.assemble import load_theory
from reallogic.datasets import (
    DataError,
    Dataset,
    bundled,
    digit_cols,
    load_csv,
    make_addition,
    make_binary,
    make_clustering,
    split_stratified,
)
from reallogic.demos import smoker_facts
from reallogic.parser import parse_theory_file

SMOKERS = Path(__file__).parent.parent / "src" / "reallogic" / "theories" \
    / "smokers.rl"


def test_load_csv_roundtrip(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b,c\n1,2,3\n4,5,6\n")
    ds = load_csv(p)
    assert ds.columns == ("a", "b", "c")
    assert np.array_equal(ds.rows, [[1, 2, 3], [4, 5, 6]])
    sub = load_csv(p, columns=("c", "a"))
    assert np.array_equal(sub.rows, [[3, 1], [6, 4]])


def test_load_csv_missing_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="'z'"):
        load_csv(p, columns=("a", "z"))


def test_load_csv_bad_cell_names_row(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n1,oops\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(p)


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n1\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(p)


def test_dataset_column_access():
    ds = Dataset("d", ("a", "b"), np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(ds.col("b"), [2.0, 4.0])
    with pytest.raises(DataError, match="'z'"):
        ds.cols("z")
    assert len(ds.take([1])) == 1


def test_split_stratified_partitions_per_label():
    rng = np.random.default_rng(0)
    labels = np.array([0] * 10 + [1] * 4)
    tr, te = split_stratified(rng, labels, 0.75)
    assert sorted(np.concatenate([tr, te])) == list(range(14))
    for v in (0, 1):
        assert (labels[tr] == v).sum() >= 1
        assert (labels[te] == v).sum() >= 1


def test_binary_labels_follow_distance_rule():
    ds = make_binary(0)
    assert len(ds) == 100
    pts = ds.cols("x1", "x2")
    dist = np.linalg.norm(pts - 0.5, axis=1)
    assert np.array_equal(ds.col("label"), (dist < 0.09).astype(float))
    assert ds.col("label").sum() >= 2
    # deterministic per seed
    assert np.array_equal(make_binary(5).rows, make_binary(5).rows)


def test_clustering_blobs_are_separated():
    pts, centers = make_clustering(3)
    assert len(pts) == 200
    assert pts.cols("x1", "x2").min() >= -1.0
    assert pts.cols("x1", "x2").max() <= 1.0
    d = np.linalg.norm(centers[:, None] - centers[None], axis=-1)
    assert d[np.triu_indices(4, 1)].min() >= 1.0


def test_addition_sums():
    parts = make_addition(0, (("x",), ("y",)), 50, 20)
    assert set(parts) == {"train", "test"}
    assert len(parts["train"]) == 50 and len(parts["test"]) == 20
    tr = parts["train"]
    assert np.array_equal(tr.col("n"), tr.col("d1") + tr.col("d2"))
    # features are noisy one-hots: argmax recovers the digit most of the time
    for block, digit in (("x", "d1"), ("y", "d2")):
        feats = tr.cols(*digit_cols(block))
        assert (np.argmax(feats, axis=1) == tr.col(digit)).mean() > 0.9

    multi = make_addition(1, (("x1", "x2"), ("y1", "y2")), 40, 10)["train"]
    want = (10 * multi.col("d1") + multi.col("d2")
            + 10 * multi.col("d3") + multi.col("d4"))
    assert np.array_equal(multi.col("n"), want)
    for block, digit in (("x1", "d1"), ("x2", "d2"), ("y1", "d3"),
                         ("y2", "d4")):
        feats = multi.cols(*digit_cols(block))
        assert (np.argmax(feats, axis=1) == multi.col(digit)).mean() > 0.9


def test_smoker_facts_counts():
    # the smokers facts are stated once, as labelled axioms in smokers.rl
    labels = ("friends", "non-friends", "smokers", "cancer", "no cancer")
    facts = {label: [] for label in labels}
    for ax in parse_theory_file(SMOKERS).axioms:
        if ax.label in facts:
            f = ax.formula.body if type(ax.formula).__name__ == "Not" \
                else ax.formula
            facts[ax.label].append(tuple(t.name for t in f.args))
    people = smoker_facts(load_theory(SMOKERS, seed=0))
    assert len(people) == 14
    assert facts["smokers"] == [(p,) for p in "aefgjn"]
    assert facts["cancer"] == [("a",), ("e",)]
    assert len(facts["friends"]) == 12
    # every unordered pair is either a friendship or a reversed negative
    assert len(facts["non-friends"]) == 14 * 13 // 2 - 12
    assert all(u > v for u, v in facts["non-friends"])
    listed = {frozenset(p) for p in facts["friends"]}
    assert all(frozenset(p) not in listed for p in facts["non-friends"])
    assert facts["no cancer"] == [(p,) for p in "bcdfgh"]


def test_iris_like_shape():
    ds = bundled("iris_like")
    assert len(ds) == 150
    labels = ds.col("species")
    assert sorted(np.unique(labels)) == [0.0, 1.0, 2.0]
    assert all((labels == v).sum() == 50 for v in (0, 1, 2))


def test_crabs_like_shape():
    ds = bundled("crabs_like")
    assert len(ds) == 200
    assert set(np.unique(ds.col("color"))) == {0.0, 1.0}
    assert set(np.unique(ds.col("sex"))) == {0.0, 1.0}
    # 50 crabs per color/sex combination
    strata = 2 * ds.col("color") + ds.col("sex")
    assert np.bincount(strata.astype(int)).tolist() == [50, 50, 50, 50]


def test_real_estate_like_shape():
    ds = bundled("real_estate_like")
    assert ds.columns == ("date", "age", "dist_station", "stores", "lat",
                          "lon", "price")
    assert len(ds) == 414
    assert np.isfinite(ds.rows).all()
