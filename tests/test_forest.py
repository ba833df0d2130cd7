"""Random forest: the batched split search grows the trees a per-feature
reference grows, node for node, and trees may be deeper than Python's
recursion limit."""

import itertools
import math

import numpy as np
import pytest

from capsift.classifiers import RANDOM_FOREST, AlgorithmSpec, train
from capsift.classifiers.forest import _TreeGrower

# --- reference: one argsort and cumsum per sampled feature, recursive growth --


def reference_gini(counts, total):
    p = counts / total
    return 1.0 - float((p ** 2).sum())


def reference_best_split(X, y, idx, features, n_classes, min_leaf):
    """(weighted_gini, feature, threshold) or None; ties keep the first
    candidate in scan order (feature order as sampled, then ascending
    threshold position)."""
    m = len(idx)
    best_gini = np.inf
    best = None
    sizes_left = np.arange(1, m, dtype=np.float64)
    sizes_right = m - sizes_left
    for f in features:
        col = X[idx, f]
        order = np.argsort(col, kind="stable")
        cs = col[order]
        onehot = np.zeros((m, n_classes))
        onehot[np.arange(m), y[idx[order]]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        valid = (cs[:-1] < cs[1:]) & (sizes_left >= min_leaf) & (sizes_right >= min_leaf)
        if not valid.any():
            continue
        counts_left = cum[:-1]
        counts_right = cum[-1] - counts_left
        gini_left = 1.0 - ((counts_left / sizes_left[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((counts_right / sizes_right[:, None]) ** 2).sum(axis=1)
        weighted = (sizes_left * gini_left + sizes_right * gini_right) / m
        weighted[~valid] = np.inf
        pos = int(np.argmin(weighted))
        if weighted[pos] < best_gini:
            threshold = (cs[pos] + cs[pos + 1]) / 2.0
            if threshold == cs[pos + 1]:
                threshold = cs[pos]
            best_gini = float(weighted[pos])
            best = (best_gini, int(f), float(threshold))
    return best


def reference_tree(X, y, n_classes, rng, max_depth, min_leaf, n_split_features):
    """Node table (feature, threshold, left, right, counts) grown recursively."""
    feature, threshold, left, right, counts = [], [], [], [], []

    def build(idx, depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        node_counts = np.bincount(y[idx], minlength=n_classes)
        counts.append(node_counts)
        m = len(idx)
        parent_gini = reference_gini(node_counts, m)
        if depth >= max_depth or m < 2 * min_leaf or parent_gini == 0.0:
            return node
        features = rng.permutation(X.shape[1])[:n_split_features]
        split = reference_best_split(X, y, idx, features, n_classes, min_leaf)
        if split is None or split[0] >= parent_gini:
            return node
        _, f, cut = split
        go_left = X[idx, f] <= cut
        feature[node] = f
        threshold[node] = cut
        left[node] = build(idx[go_left], depth + 1)
        right[node] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(len(X)), 0)
    return (np.array(feature, dtype=np.int64), np.array(threshold, dtype=np.float64),
            np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
            np.array(counts, dtype=np.int64))


def reference_forest(X, y_codes, n_classes, params, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    n, d = X.shape
    trees = []
    for _ in range(params["trees"]):
        idx = rng.integers(0, n, size=n) if params["bootstrap"] else np.arange(n)
        trees.append(reference_tree(X[idx], y_codes[idx], n_classes, rng, params["max_depth"],
                                    params["min_leaf"], max(1, int(math.sqrt(d)))))
    return trees


def reference_scores(trees, Z, n_classes):
    """Tree-vote fractions, walking one tree at a time."""
    votes = np.zeros((len(Z), n_classes))
    for feature, threshold, left, right, counts in trees:
        idx = np.zeros(len(Z), dtype=np.int64)
        active = np.flatnonzero(feature[idx] >= 0)
        while active.size:
            node = idx[active]
            go_left = Z[active, feature[node]] <= threshold[node]
            idx[active] = np.where(go_left, left[node], right[node])
            active = active[feature[idx[active]] >= 0]
        votes[np.arange(len(Z)), np.argmax(counts[idx], axis=1)] += 1.0
    return votes / len(trees)


# --- equivalence --------------------------------------------------------------


def tied_data(seed, n, dim, n_classes, kind):
    """Features with many tied values ("rounded": one decimal), with every
    column repeated ("duplicated", so equal Gini across sampled features), or
    drawn from a few adjacent doubles ("adjacent", so some midpoints round up
    to the upper value); labels follow the first column, with noise."""
    rng = np.random.Generator(np.random.PCG64(seed))
    base = rng.normal(0.0, 1.0, (n, dim))
    if kind == "rounded":
        X = np.round(base, 1)
    elif kind == "duplicated":
        X = base[:, rng.integers(0, max(1, dim // 2), size=dim)]
    else:
        X = 1.0 + np.round(base * 2.0) * np.finfo(np.float64).eps
    y = np.digitize(X[:, 0] + rng.normal(0.0, 0.7, n), np.linspace(-1.0, 1.0, n_classes - 1))
    return X, y


@pytest.mark.parametrize("n_classes,dim,kind", [
    *itertools.product((2, 3), (1, 2, 5, 100), ("rounded", "duplicated")),
    (2, 5, "adjacent"), (3, 100, "adjacent")])
def test_forest_matches_per_feature_reference(n_classes, dim, kind):
    # 300 rows at the root, so node sizes run from 300 down to the leaves
    seed = 1000 * n_classes + 10 * dim + len(kind)
    X, y = tied_data(seed, 300, dim, n_classes, kind)
    Z, _ = tied_data(seed + 1, 50, dim, n_classes, kind)
    for min_leaf, max_depth, bootstrap in itertools.product((1, 2, 5), (1, 3, 12), (0, 1)):
        params = {"trees": 2, "max_depth": max_depth, "min_leaf": min_leaf,
                  "bootstrap": bootstrap}
        model = train(AlgorithmSpec(RANDOM_FOREST, params, seed=seed), X, y)
        expected = reference_forest(X, y, n_classes, params, seed)
        assert len(model.trees) == len(expected)
        for tree, ref in zip(model.trees, expected):
            for name, want in zip(("feature", "threshold", "left", "right", "counts"), ref):
                got = getattr(tree, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), (name, params)
        np.testing.assert_array_equal(model.predict_scores(Z),
                                      reference_scores(expected, Z, n_classes))


@pytest.mark.parametrize("n_classes", [2, 3, 9])
def test_best_split_matches_reference_values(n_classes):
    # nine classes take numpy's pairwise summation over the class axis
    rng = np.random.Generator(np.random.PCG64(n_classes))
    X = np.round(rng.normal(0.0, 1.0, (300, 25)), 2)
    y = rng.integers(0, n_classes, 300)
    for min_leaf in (1, 2, 5):
        grower = _TreeGrower(X, y, n_classes, max_depth=12, min_leaf=min_leaf,
                             n_split_features=5)
        for _ in range(60):
            idx = rng.integers(0, 300, size=int(rng.integers(2, 300)))
            features = rng.permutation(25)[:5]
            got = grower.best_split(idx, np.bincount(y[idx], minlength=n_classes), features)
            want = reference_best_split(X, y, idx, features, n_classes, min_leaf)
            if want is None:
                assert got is None
                continue
            assert got[:3] == want
            go_left = X[idx, want[1]] <= want[2]
            assert np.array_equal(got[3], go_left)
            for (counts, gini), rows in ((got[4], idx[go_left]), (got[5], idx[~go_left])):
                expected = np.bincount(y[rows], minlength=n_classes)
                assert np.array_equal(counts, expected)
                assert gini == reference_gini(expected, len(rows))


def test_trees_are_laid_out_in_preorder():
    # a split node's left child is the next node; a leaf links nowhere
    X, y = tied_data(7, 300, 5, 3, "rounded")
    model = train(AlgorithmSpec(RANDOM_FOREST, {"trees": 5, "min_leaf": 1}, seed=7), X, y)
    for tree in model.trees:
        split = tree.feature >= 0
        assert split.any()
        nodes = np.flatnonzero(split)
        assert np.array_equal(tree.left[nodes], nodes + 1)
        assert (tree.right[nodes] > nodes + 1).all()
        assert (tree.left[~split] == -1).all() and (tree.right[~split] == -1).all()


def test_forest_grows_past_the_recursion_limit():
    # each split peels off one row, so the tree is about 1,400 levels deep
    X = np.arange(1400, dtype=np.float64)[:, None]
    y = np.arange(1400) % 2
    model = train(AlgorithmSpec(RANDOM_FOREST, {
        "trees": 1, "max_depth": 5000, "min_leaf": 1, "bootstrap": 0}), X, y)
    tree = model.trees[0]
    assert (tree.feature < 0).sum() == 1400
    assert (model.predict(X) == y).all()
