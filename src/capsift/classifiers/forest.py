"""Random forest of CART trees (Gini impurity, bootstrap sampling, sqrt-D
feature subsampling per split)."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .base import AlgorithmSpec, TrainedModel, check_state


@dataclass
class DecisionTree:
    """Flat node-table CART tree; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray  # n_nodes x K training-class counts

    def leaf_indices(self, Z: np.ndarray) -> np.ndarray:
        idx = np.zeros(len(Z), dtype=np.int64)
        active = np.flatnonzero(self.feature[idx] >= 0)
        while active.size:
            node = idx[active]
            go_left = Z[active, self.feature[node]] <= self.threshold[node]
            idx[active] = np.where(go_left, self.left[node], self.right[node])
            active = active[self.feature[idx[active]] >= 0]
        return idx

    def votes(self, Z: np.ndarray) -> np.ndarray:
        """Predicted class code per row (leaf majority, ties to the lower
        class)."""
        return np.argmax(self.counts[self.leaf_indices(Z)], axis=1)


def _gini(counts: np.ndarray, total: int) -> float:
    p = counts / total
    return 1.0 - float((p ** 2).sum())


def _best_split(X, y, idx, features, n_classes, min_leaf):
    """Scan candidate thresholds on the given features; returns
    (weighted_gini, feature, threshold) or None.

    Ties keep the first candidate in scan order (feature order as sampled,
    then ascending threshold position), so the result is deterministic.
    """
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
            if threshold == cs[pos + 1]:  # midpoint rounded up; keep right side nonempty
                threshold = cs[pos]
            best_gini = float(weighted[pos])
            best = (best_gini, int(f), float(threshold))
    return best


class _TreeBuilder:
    def __init__(self, X, y, n_classes, rng, max_depth, min_leaf, n_split_features):
        self.X = X
        self.y = y
        self.n_classes = n_classes
        self.rng = rng
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.n_split_features = n_split_features
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.counts: list[np.ndarray] = []

    def build(self, idx: np.ndarray, depth: int) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        counts = np.bincount(self.y[idx], minlength=self.n_classes)
        self.counts.append(counts)
        m = len(idx)
        parent_gini = _gini(counts, m)
        if depth >= self.max_depth or m < 2 * self.min_leaf or parent_gini == 0.0:
            return node
        features = self.rng.permutation(self.X.shape[1])[: self.n_split_features]
        split = _best_split(self.X, self.y, idx, features, self.n_classes, self.min_leaf)
        if split is None or split[0] >= parent_gini:
            return node
        _, f, threshold = split
        go_left = self.X[idx, f] <= threshold
        self.feature[node] = f
        self.threshold[node] = threshold
        self.left[node] = self.build(idx[go_left], depth + 1)
        self.right[node] = self.build(idx[~go_left], depth + 1)
        return node

    def finish(self) -> DecisionTree:
        return DecisionTree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            counts=np.array(self.counts, dtype=np.int64),
        )


def grow_tree(X, y_codes, n_classes, rng, max_depth, min_leaf, n_split_features) -> DecisionTree:
    builder = _TreeBuilder(X, y_codes, n_classes, rng, max_depth, min_leaf, n_split_features)
    builder.build(np.arange(len(X)), 0)
    return builder.finish()


@dataclass(frozen=True, eq=False)
class RandomForestModel(TrainedModel):
    """Ensemble of CART trees; scores are the per-class tree-vote fractions.

    Saved as an ``n_trees`` scalar plus one ``tree{i}_<field>`` array per
    DecisionTree field.
    """

    trees: Sequence[DecisionTree]

    def _scores(self, Z: np.ndarray) -> np.ndarray:
        k = len(self.classes)
        votes = np.zeros((Z.shape[0], k))
        for tree in self.trees:
            votes[np.arange(Z.shape[0]), tree.votes(Z)] += 1.0
        return votes / len(self.trees)

    def state(self):
        state = {"n_trees": len(self.trees)}
        for i, tree in enumerate(self.trees):
            state.update({f"tree{i}_{f.name}": getattr(tree, f.name) for f in fields(tree)})
        return state

    @classmethod
    def from_state(cls, spec, classes, scaler, n_features, state):
        n_trees = state.get("n_trees")
        names = [[f"tree{i}_{f.name}" for f in fields(DecisionTree)]
                 for i in range(n_trees if isinstance(n_trees, int) else 0)]
        kinds = {"n_trees": int, **{name: np.ndarray for tree in names for name in tree}}
        check_state(state, kinds, set(kinds))
        trees = tuple(DecisionTree(*(state[name] for name in tree)) for tree in names)
        return cls(spec, classes, scaler, n_features, trees)


def _train_random_forest(spec: AlgorithmSpec, X, y_codes, classes):
    params = spec.resolved()
    n_trees = int(params["trees"])
    max_depth = int(params["max_depth"])
    min_leaf = int(params["min_leaf"])
    bootstrap = bool(params["bootstrap"])
    n, d = X.shape
    n_split = max(1, int(math.sqrt(d)))
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    trees = []
    for _ in range(n_trees):
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(grow_tree(X[idx], y_codes[idx], len(classes), rng,
                               max_depth, min_leaf, n_split))
    return RandomForestModel(spec, classes, None, d, tuple(trees))
