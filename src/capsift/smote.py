"""SMOTE oversampling to balance a training set.

Synthetic minority samples are drawn on the segment between a class member
and one of its k nearest same-class neighbors (Euclidean distance). Every
synthetic row carries (base, neighbor, u) provenance so tests can verify the
interpolation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class SmoteParams:
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")


@dataclass(frozen=True)
class SyntheticProvenance:
    """Origin of one synthetic row: s = X[base] + u * (X[neighbor] - X[base])."""

    base_index: int
    neighbor_index: int
    u: float


@dataclass
class ResampledDataset:
    """Balanced dataset: original rows first (unchanged, input order), then
    synthetic rows, one provenance entry per synthetic row."""

    features: np.ndarray
    labels: np.ndarray
    synthetic_mask: np.ndarray
    provenance: tuple[SyntheticProvenance, ...]


def _neighbor_table(points: np.ndarray, k: int) -> list[np.ndarray]:
    """k nearest neighbors (local indices) for every row, self excluded.

    Distance ties break toward the lower index, so results are deterministic.
    Distances are computed one row at a time, so memory grows with n * D.
    """
    neighbors = []
    for i in range(len(points)):
        diffs = points[i] - points
        order = np.argsort(np.einsum("jk,jk->j", diffs, diffs), kind="stable")
        order = order[order != i]
        neighbors.append(order[:k])
    return neighbors


def smote(features: np.ndarray, labels: np.ndarray, params: SmoteParams) -> ResampledDataset:
    """Oversample every minority class up to the majority-class count.

    For each synthetic point a class member x_i is chosen uniformly, then one
    of its k nearest same-class neighbors x_j uniformly, then u ~ U[0, 1];
    the point is x_i + u * (x_j - x_i). The effective k is
    min(k_neighbors, class_count - 1). Deterministic given the seed (draw
    order per row: base, neighbor, u).
    """
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

    rng = np.random.Generator(np.random.PCG64(params.seed))
    synthetic_rows: list[np.ndarray] = []
    synthetic_labels: list = []
    provenance: list[SyntheticProvenance] = []

    for cls, count in zip(classes, counts):
        need = majority - int(count)
        if need == 0:
            continue
        members = np.flatnonzero(labels == cls)
        points = features[members]
        k = min(params.k_neighbors, len(members) - 1)
        neighbors = _neighbor_table(points, k)
        for _ in range(need):
            i_local = int(rng.integers(len(members)))
            j_local = int(neighbors[i_local][int(rng.integers(k))])
            u = float(rng.random())
            base = features[members[i_local]]
            row = base + u * (features[members[j_local]] - base)
            synthetic_rows.append(row)
            synthetic_labels.append(cls)
            provenance.append(SyntheticProvenance(
                base_index=int(members[i_local]),
                neighbor_index=int(members[j_local]),
                u=u,
            ))

    n_orig = features.shape[0]
    n_syn = len(synthetic_rows)
    if n_syn:
        out_features = np.vstack([features, np.array(synthetic_rows)])
        out_labels = np.concatenate([labels, np.array(synthetic_labels, dtype=labels.dtype)])
    else:
        out_features = features.copy()
        out_labels = labels.copy()
    mask = np.zeros(n_orig + n_syn, dtype=bool)
    mask[n_orig:] = True
    return ResampledDataset(
        features=out_features,
        labels=out_labels,
        synthetic_mask=mask,
        provenance=tuple(provenance),
    )
