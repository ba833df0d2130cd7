"""Synthetic minority oversampling: balance, provenance, determinism."""

import hashlib
import importlib
import tracemalloc

import numpy as np
import pytest

from capsift.smote import _neighbor_table, smote


def brute_force_neighbors(points, i, k):
    """Indices of the k nearest rows to row i (self excluded), distance ties
    broken by lower index. Independent of the implementation's einsum path."""
    d = np.sqrt(((points - points[i]) ** 2).sum(axis=1))
    order = sorted(range(len(points)), key=lambda j: (d[j], j))
    order.remove(i)
    return order[:k]


def random_imbalanced(rng, n_classes, dim):
    counts = sorted(rng.integers(3, 25, size=n_classes).tolist(), reverse=True)
    X, y = [], []
    for label, count in enumerate(counts):
        X.append(rng.normal(label * 2.0, 1.0, (count, dim)))
        y.extend([label] * count)
    return np.vstack(X), np.array(y)


def test_balances_to_majority_count():
    rng = np.random.Generator(np.random.PCG64(0))
    X, y = random_imbalanced(rng, 3, 4)
    out = smote(X, y, k_neighbors=5, seed=1)
    _, counts = np.unique(out.labels, return_counts=True)
    majority = max(np.bincount(y))
    assert (counts == majority).all()


def test_originals_come_first_unchanged():
    rng = np.random.Generator(np.random.PCG64(1))
    X, y = random_imbalanced(rng, 3, 5)
    out = smote(X, y, seed=2)
    n = len(X)
    assert np.array_equal(out.features[:n], X)
    assert np.array_equal(out.labels[:n], y)
    assert not out.synthetic_mask[:n].any()
    assert out.synthetic_mask[n:].all()
    n_syn = out.synthetic_mask.sum()
    assert len(out.base) == len(out.neighbor) == len(out.u) == n_syn
    assert (out.base.dtype, out.neighbor.dtype, out.u.dtype) == (np.int64, np.int64, np.float64)


def test_provenance_reconstructs_synthetic_rows():
    rng = np.random.Generator(np.random.PCG64(2))
    X, y = random_imbalanced(rng, 4, 3)
    out = smote(X, y, k_neighbors=3, seed=3)
    n = len(X)
    for row, base, nb, u in zip(out.features[n:], out.base, out.neighbor, out.u):
        expected = X[base] + u * (X[nb] - X[base])
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)
        assert 0.0 <= u <= 1.0
        assert y[base] == y[nb]  # interpolation stays within the class


def test_neighbors_are_k_nearest_same_class():
    rng = np.random.Generator(np.random.PCG64(4))
    X, y = random_imbalanced(rng, 3, 2)
    k = 4
    out = smote(X, y, k_neighbors=k, seed=5)
    for base, nb in zip(out.base, out.neighbor):
        cls = y[base]
        members = np.flatnonzero(y == cls)
        local = {m: i for i, m in enumerate(members)}
        pts = X[members]
        k_eff = min(k, len(members) - 1)
        allowed = brute_force_neighbors(pts, local[base], k_eff)
        assert local[nb] in allowed


def test_same_seed_identical_different_seed_not():
    rng = np.random.Generator(np.random.PCG64(6))
    X, y = random_imbalanced(rng, 3, 6)
    a = smote(X, y, k_neighbors=5, seed=42)
    b = smote(X, y, k_neighbors=5, seed=42)
    c = smote(X, y, k_neighbors=5, seed=43)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.base, b.base)
    assert np.array_equal(a.neighbor, b.neighbor)
    assert np.array_equal(a.u, b.u)
    assert not np.array_equal(a.features, c.features)


def test_small_class_clamps_k():
    # class 1 has 2 members: k_eff = 1, neighbor must be the other member
    X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0]])
    y = np.array([0, 0, 0, 0, 1, 1])
    out = smote(X, y, k_neighbors=5, seed=7)
    for base, nb in zip(out.base.tolist(), out.neighbor.tolist()):
        assert {base, nb} == {4, 5}
    assert (out.labels[out.synthetic_mask] == 1).all()
    assert out.synthetic_mask.sum() == 2


def test_already_balanced_is_identity():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    out = smote(X, y, seed=8)
    assert np.array_equal(out.features, X)
    assert len(out.base) == len(out.neighbor) == len(out.u) == 0
    assert not out.synthetic_mask.any()


@pytest.mark.parametrize("X, y, fragment", [
    (np.zeros((1, 2)), np.array([0]), "N >= 2"),
    (np.zeros((3, 0)), np.array([0, 0, 1]), "D >= 1"),
    (np.zeros((3, 2)), np.array([0, 0]), "length"),
    (np.zeros((3, 2)), np.array([0, 0, 0]), "two classes"),
    (np.array([[np.inf, 0.0], [0.0, 0.0]]), np.array([0, 1]), "finite"),
    (np.zeros((4, 2)), np.array([0, 0, 1, 1]), "k_neighbors must be >= 1"),
])
def test_input_validation(X, y, fragment):
    k = 0 if "k_neighbors" in fragment else 5
    with pytest.raises(ValueError, match=fragment):
        smote(X, y, k_neighbors=k, seed=0)


def test_singleton_class_is_an_error():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0, 0, 5])
    with pytest.raises(ValueError, match="5"):
        smote(X, y, seed=0)


def broadcast_neighbor_table(points, k):
    """Neighbor search over the full n x n x D difference tensor: the form
    the row-wise search must reproduce exactly."""
    diffs = points[:, None, :] - points[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diffs, diffs)
    neighbors = []
    for i in range(len(points)):
        order = np.argsort(dist2[i], kind="stable")
        order = order[order != i]
        neighbors.append(order[:k])
    return neighbors


@pytest.mark.parametrize("n, dim, k, decimals", [
    (2, 1, 1, None),
    (7, 3, 5, None),
    (40, 8, 5, 0),       # coarse grid: many distance ties
    (120, 100, 5, None),
    (300, 2, 10, 1),
])
def test_neighbor_table_equals_broadcast_reference(n, dim, k, decimals):
    rng = np.random.Generator(np.random.PCG64(n))
    points = rng.normal(0, 2, (n, dim))
    if decimals is not None:
        points = np.round(points, decimals)
    points[n // 2] = points[0]  # an exact duplicate row sits at distance 0
    got = _neighbor_table(points, k, np.arange(n))
    want = np.array(broadcast_neighbor_table(points, k))
    assert got.dtype == np.int64
    assert got.shape == want.shape == (n, k)
    assert np.array_equal(got, want)
    # a subset of rows, unordered and with repeats, gets the same rows
    rows = rng.integers(n, size=max(n // 3, 2))
    assert np.array_equal(_neighbor_table(points, k, rows), want[rows])


def test_neighbor_table_memory_is_linear_in_class_size():
    # the broadcast form peaks near 275 MB here (600 * 600 * 100 float64)
    points = np.random.Generator(np.random.PCG64(9)).normal(0, 1, (600, 100))
    tracemalloc.start()
    try:
        _neighbor_table(points, 5, np.arange(len(points)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_smote_output_is_pinned():
    # Three classes on a 0.1 grid, so many same-class distances tie; the
    # digest covers every output array and was recorded from the
    # row-by-row implementation this one replaced.
    rng = np.random.Generator(np.random.PCG64(2026))
    counts = (180, 70, 25)
    X = np.round(rng.normal(0, 1, (sum(counts), 4)), 1)
    y = np.repeat(np.array([-1, 0, 1]), counts)
    rng.shuffle(y)
    out = smote(X, y, k_neighbors=5, seed=11)
    assert out.synthetic_mask.sum() == 265
    digest = hashlib.sha256()
    for array in (out.features, out.labels.astype(np.int64), out.base, out.neighbor, out.u):
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == (
        "1aef0a68e9ec790799ebd38d5036bf7352a81089b5ff2d683a80a90943fb3db6")


def test_neighbors_are_searched_only_for_drawn_bases(monkeypatch):
    searched = []

    def spy(points, k, rows):
        searched.extend(rows.tolist())
        return _neighbor_table(points, k, rows)

    # the package re-exports the smote function under the module's name
    monkeypatch.setattr(importlib.import_module("capsift.smote"), "_neighbor_table", spy)
    rng = np.random.Generator(np.random.PCG64(10))
    X = rng.normal(0, 1, (83, 3))
    y = np.array([0] * 43 + [1] * 40)
    out = smote(X, y, k_neighbors=5, seed=0)
    assert out.synthetic_mask.sum() == 3
    assert 1 <= len(searched) <= 3
    assert len(set(searched)) == len(searched)
