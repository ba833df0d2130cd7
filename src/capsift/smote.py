"""SMOTE oversampling to balance a training set.

Synthetic minority samples are drawn on the segment between a class member
and one of its k nearest same-class neighbors (Euclidean distance). Every
synthetic row comes with the (base, neighbor, u) it was built from, so tests
can verify the interpolation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ResampledDataset:
    """Balanced dataset: original rows first (unchanged, input order), then
    synthetic rows.

    Synthetic row r is ``X[base[r]] + u[r] * (X[neighbor[r]] - X[base[r]])``
    for the input features X: ``base`` and ``neighbor`` are int64 indices
    into the input rows and ``u`` is float64, all empty when nothing was
    synthesized.
    """

    features: np.ndarray
    labels: np.ndarray
    synthetic_mask: np.ndarray
    base: np.ndarray
    neighbor: np.ndarray
    u: np.ndarray


def _neighbor_table(points: np.ndarray, k: int, rows) -> np.ndarray:
    """k nearest neighbors (local indices) of each of ``rows``, self excluded,
    as a (len(rows), k) int64 array.

    Distance ties break toward the lower index, so results are deterministic.
    Distances are computed one row at a time, so memory grows with n * D.
    """
    table = np.empty((len(rows), k), dtype=np.int64)
    for slot, i in enumerate(rows):
        diffs = points[i] - points
        order = np.argsort(np.einsum("jk,jk->j", diffs, diffs), kind="stable")
        table[slot] = order[order != i][:k]
    return table


def smote(features: np.ndarray, labels: np.ndarray, k_neighbors: int = 5,
          seed: int = 0) -> ResampledDataset:
    """Oversample every minority class up to the majority-class count.

    For each synthetic point a class member x_i is chosen uniformly, then one
    of its k nearest same-class neighbors x_j uniformly, then u ~ U[0, 1];
    the point is x_i + u * (x_j - x_i). The effective k is
    min(k_neighbors, class_count - 1). Deterministic given the seed (draw
    order per row: base, neighbor, u). Neighbors are searched only for the
    members drawn as a base.
    """
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] < 2 or features.shape[1] < 1:
        raise ValueError("features must be an N x D matrix with N >= 2, D >= 1")
    if labels.shape != (features.shape[0],):
        raise ValueError("labels length must match feature rows")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")

    classes, counts = np.unique(labels, return_counts=True)
    if len(classes) < 2:
        raise ValueError("balancing needs at least two classes")
    for cls, count in zip(classes, counts):
        if count < 2:
            raise ValueError(f"class {cls} has {count} sample(s); SMOTE needs at least 2")
    majority = int(counts.max())

    rng = np.random.Generator(np.random.PCG64(seed))
    bases, neighbors, us = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for cls, count in zip(classes, counts):
        need = majority - int(count)
        if need == 0:
            continue
        members = np.flatnonzero(labels == cls)
        k = min(k_neighbors, len(members) - 1)
        draws = [(rng.integers(len(members)), rng.integers(k), rng.random())
                 for _ in range(need)]
        base_slot, neighbor_slot, u = (np.array(column) for column in zip(*draws))
        drawn, row = np.unique(base_slot, return_inverse=True)
        table = _neighbor_table(features[members], k, drawn)
        bases.append(members[base_slot])
        neighbors.append(members[table[row, neighbor_slot]])
        us.append(u)

    base, neighbor, u = (np.concatenate(parts) for parts in (bases, neighbors, us))
    synthetic = features[base] + u[:, None] * (features[neighbor] - features[base])
    n_orig = features.shape[0]
    return ResampledDataset(
        features=np.vstack([features, synthetic]),
        labels=np.concatenate([labels, labels[base]]),
        synthetic_mask=np.arange(n_orig + len(base)) >= n_orig,
        base=base,
        neighbor=neighbor,
        u=u,
    )
