"""Random forest of CART trees (Gini impurity, bootstrap sampling, sqrt-D
feature subsampling per split)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base import TrainedModel


@dataclass
class DecisionTree:
    """Flat node-table CART tree; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray  # n_nodes x K training-class counts


def _squared_share_sum(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Σ_k (counts[k] / sizes)² over the class axis 0 of ``counts``, rounded
    as ``.sum`` over a contiguous class-last axis rounds: left to right
    below 8 classes, numpy's pairwise summation from 8 on."""
    shares = counts / sizes
    shares **= 2
    if len(shares) >= 8:
        return np.moveaxis(shares, 0, -1).copy().sum(axis=-1)
    total = shares[0]
    for share in shares[1:]:
        total += share
    return total


class _TreeGrower:
    """Grows the CART trees of one forest.

    Holds what the trees share: the training set as (D, n) feature columns
    and (K, n) one-hot labels, the hyperparameters, and the child sizes
    1..n - 1 in both directions, which the split search slices for each node.
    """

    def __init__(self, X, y_codes, n_classes, max_depth, min_leaf, n_split_features):
        self.columns = np.ascontiguousarray(X.T)
        self._labels = (np.arange(n_classes)[:, None] == y_codes).astype(np.float64)
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.n_split_features = n_split_features
        self._ascending = np.arange(1, len(X), dtype=np.float64)
        self._descending = self._ascending[::-1].copy()

    def best_split(self, idx: np.ndarray, node_counts: np.ndarray, features: np.ndarray):
        """Scan every candidate threshold of the sampled features at once, for
        the node holding rows ``idx`` with class counts ``node_counts``.

        Returns None, or (weighted Gini, feature, threshold, mask of the rows
        going left, (class counts, Gini) of the left child, the same of the
        right child). The lowest weighted Gini wins; ties go to the first
        sampled feature, then to the lowest sorted position. The threshold
        is the midpoint between the two sorted values, or the lower one when
        the midpoint rounds up to the upper.
        """
        m = len(idx)
        # left and right child sizes at the m - 1 split positions
        sizes_left = self._ascending[: m - 1]
        sizes_right = self._descending[-(m - 1):]
        block = self.columns.take(features, axis=0).take(idx, axis=1)
        order = block.argsort(axis=1, kind="stable")
        sorted_block = block[np.arange(len(features))[:, None], order]
        invalid = sorted_block[:, :-1] == sorted_block[:, 1:]
        invalid[:, : self.min_leaf - 1] = True  # left child under min_leaf rows
        invalid[:, m - self.min_leaf:] = True  # right child under min_leaf rows
        # (class, feature, position): each class a contiguous (feature, position) plane
        counts_left = self._labels.take(idx.take(order[:, :-1]), axis=1).cumsum(axis=2)
        counts_right = node_counts[:, None, None] - counts_left
        gini_left = 1.0 - _squared_share_sum(counts_left, sizes_left)
        gini_right = 1.0 - _squared_share_sum(counts_right, sizes_right)
        weighted = (sizes_left * gini_left + sizes_right * gini_right) / m
        weighted[invalid] = np.inf
        row, pos = divmod(int(weighted.argmin()), m - 1)
        if weighted[row, pos] == np.inf:  # no valid position
            return None
        lo, hi = sorted_block[row, pos], sorted_block[row, pos + 1]
        threshold = (lo + hi) / 2.0
        if threshold == hi:  # keep the right side nonempty
            threshold = lo
        return (float(weighted[row, pos]), int(features[row]), float(threshold),
                block[row] <= threshold,
                (counts_left[:, row, pos].copy(), float(gini_left[row, pos])),
                (counts_right[:, row, pos].copy(), float(gini_right[row, pos])))

    def grow(self, rows: np.ndarray, rng: np.random.Generator) -> DecisionTree:
        """One tree on the training rows ``rows`` (repeats allowed).

        Growth is depth-first with an explicit stack, so depth is not bounded
        by Python recursion. Nodes are numbered, and each split node draws
        its feature sample from ``rng``, in preorder, so a split node's left
        child is always the next node.
        """
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        counts: list[np.ndarray] = []
        root_counts = self._labels.take(rows, axis=1).sum(axis=1)
        root_gini = float(1.0 - _squared_share_sum(root_counts, len(rows)))
        # (rows, depth, class counts, Gini, parent of a right child or -1)
        stack = [(rows, 0, root_counts, root_gini, -1)]
        while stack:
            idx, depth, node_counts, node_gini, parent = stack.pop()
            node = len(feature)
            if parent >= 0:
                right[parent] = node
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            counts.append(node_counts)
            if depth >= self.max_depth or len(idx) < 2 * self.min_leaf or node_gini == 0.0:
                continue
            features = rng.permutation(self.columns.shape[0])[: self.n_split_features]
            split = self.best_split(idx, node_counts, features)
            if split is None or split[0] >= node_gini:
                continue
            _, feature[node], threshold[node], go_left, left_child, right_child = split
            left[node] = node + 1
            stack.append((idx[~go_left], depth + 1, *right_child, node))
            stack.append((idx[go_left], depth + 1, *left_child, -1))
        return DecisionTree(
            feature=np.array(feature, dtype=np.int64),
            threshold=np.array(threshold, dtype=np.float64),
            left=np.array(left, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            counts=np.array(counts, dtype=np.int64),
        )


@dataclass(frozen=True, eq=False)
class RandomForestModel(TrainedModel):
    """Ensemble of CART trees; scores are the per-class tree-vote fractions."""

    trees: Sequence[DecisionTree]

    def _scores(self, Z: np.ndarray) -> np.ndarray:
        """Walk every (tree, row) pair down the trees' concatenated node
        tables at once; each leaf votes for its majority class (ties to the
        lower class)."""
        n, k, n_trees = Z.shape[0], len(self.classes), len(self.trees)
        starts = np.cumsum([0] + [len(tree.feature) for tree in self.trees[:-1]])
        feature = np.concatenate([tree.feature for tree in self.trees])
        threshold = np.concatenate([tree.threshold for tree in self.trees])
        left = np.concatenate([tree.left + start for tree, start in zip(self.trees, starts)])
        right = np.concatenate([tree.right + start for tree, start in zip(self.trees, starts)])
        leaf_class = np.concatenate([tree.counts.argmax(axis=1) for tree in self.trees])
        node = np.repeat(starts, n)  # (tree, row) pairs, tree-major
        row = np.tile(np.arange(n), n_trees)
        active = np.flatnonzero(feature[node] >= 0)
        while active.size:
            at = node[active]
            go_left = Z[row[active], feature[at]] <= threshold[at]
            node[active] = np.where(go_left, left[at], right[at])
            active = active[feature[node[active]] >= 0]
        votes = np.bincount(row * k + leaf_class[node], minlength=n * k).reshape(n, k)
        return votes / n_trees


def _train_random_forest(spec, X, y_codes, classes, *,
                         trees=100, max_depth=12, min_leaf=2, bootstrap=1):
    n, d = X.shape
    n_split = max(1, int(math.sqrt(d)))
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    grower = _TreeGrower(X, y_codes, len(classes), max_depth, min_leaf, n_split)
    grown = []
    for _ in range(trees):
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        grown.append(grower.grow(rows, rng))
    return RandomForestModel(spec, classes, None, d, tuple(grown))
