"""Instance-based classifiers: k-nearest-neighbors and nearest centroid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import TrainedModel, softmax, standardize_fit


def _squared_distances(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, queries x points."""
    d2 = (
        (queries ** 2).sum(axis=1)[:, None]
        + (points ** 2).sum(axis=1)[None, :]
        - 2.0 * queries @ points.T
    )
    return np.maximum(d2, 0.0)


# query rows per distance block, so prediction memory is CHUNK_ROWS x n_train
CHUNK_ROWS = 256


@dataclass(frozen=True, eq=False)
class KnnModel(TrainedModel):
    """Stores the (standardized) training points; scores are the vote
    fractions among the k nearest neighbors."""

    points: np.ndarray
    point_codes: np.ndarray
    k: int

    def _scores(self, Z: np.ndarray) -> np.ndarray:
        k = min(self.k, len(self.points))
        nearest = np.empty((len(Z), k), dtype=np.intp)
        for start in range(0, len(Z), CHUNK_ROWS):
            chunk = Z[start:start + CHUNK_ROWS]
            d2 = _squared_distances(chunk, self.points)
            # stable argsort: equal distances resolve toward the lower point index
            nearest[start:start + len(chunk)] = np.argsort(d2, axis=1, kind="stable")[:, :k]
        votes = self.point_codes[nearest]
        scores = np.zeros((Z.shape[0], len(self.classes)))
        for c in range(len(self.classes)):
            scores[:, c] = (votes == c).sum(axis=1)
        return scores / k


def _train_knn(spec, X, y_codes, classes, *, k=5) -> KnnModel:
    scaler = standardize_fit(X)
    return KnnModel(spec, classes, scaler, X.shape[1], scaler.transform(X), y_codes, k)


@dataclass(frozen=True, eq=False)
class NearestCentroidModel(TrainedModel):
    """Per-class mean prototypes; scores are softmax-normalized negated
    distances, so the nearest centroid wins."""

    centroids: np.ndarray

    def _scores(self, Z: np.ndarray) -> np.ndarray:
        return softmax(-np.sqrt(_squared_distances(Z, self.centroids)))


def _train_nearest_centroid(spec, X, y_codes, classes, *,
                            standardize=0) -> NearestCentroidModel:
    scaler = None
    Z = X
    if standardize:
        scaler = standardize_fit(X)
        Z = scaler.transform(X)
    centroids = np.vstack([Z[y_codes == c].mean(axis=0) for c in range(len(classes))])
    return NearestCentroidModel(spec, classes, scaler, X.shape[1], centroids)
