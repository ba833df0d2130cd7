"""Instance-based classifiers: k-nearest-neighbors and nearest centroid."""

from __future__ import annotations

import numpy as np

from .base import (
    KNN, NEAREST_CENTROID, AlgorithmSpec, TrainedModel,
    register_algorithm, standardize_fit,
)


def _squared_distances(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, queries x points."""
    d2 = (
        (queries ** 2).sum(axis=1)[:, None]
        + (points ** 2).sum(axis=1)[None, :]
        - 2.0 * queries @ points.T
    )
    return np.maximum(d2, 0.0)


class KnnModel(TrainedModel):
    """Stores the (standardized) training points; scores are the vote
    fractions among the k nearest neighbors."""

    algorithm = KNN

    def __init__(self, spec, classes, scaler, points: np.ndarray, point_codes: np.ndarray, k: int):
        super().__init__(spec, classes, scaler, points.shape[1])
        self.points = points
        self.point_codes = point_codes
        self.k = k

    def _scores(self, Z: np.ndarray) -> np.ndarray:
        k = min(self.k, len(self.points))
        d2 = _squared_distances(Z, self.points)
        # stable argsort: equal distances resolve toward the lower point index
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        votes = self.point_codes[nearest]
        scores = np.zeros((Z.shape[0], len(self.classes)))
        for c in range(len(self.classes)):
            scores[:, c] = (votes == c).sum(axis=1)
        return scores / k

    def _scalars(self):
        return {"k": self.k}

    def _arrays(self):
        return {"points": self.points, "point_codes": self.point_codes}

    @classmethod
    def _restore(cls, spec, classes, scaler, n_features, scalars, arrays):
        return cls(spec, classes, scaler, arrays["points"],
                   arrays["point_codes"].astype(np.int64), int(scalars["k"]))


def _train_knn(spec: AlgorithmSpec, X, y_codes, classes) -> KnnModel:
    params = spec.resolved()
    scaler = standardize_fit(X)
    return KnnModel(spec, classes, scaler, scaler.transform(X), y_codes, int(params["k"]))


class NearestCentroidModel(TrainedModel):
    """Per-class mean prototypes; scores are softmax-normalized negated
    distances, so the nearest centroid wins."""

    algorithm = NEAREST_CENTROID

    def __init__(self, spec, classes, scaler, centroids: np.ndarray):
        super().__init__(spec, classes, scaler, centroids.shape[1])
        self.centroids = centroids

    def _scores(self, Z: np.ndarray) -> np.ndarray:
        dist = np.sqrt(_squared_distances(Z, self.centroids))
        neg = -dist
        neg -= neg.max(axis=1, keepdims=True)
        exp = np.exp(neg)
        return exp / exp.sum(axis=1, keepdims=True)

    def _arrays(self):
        return {"centroids": self.centroids}

    @classmethod
    def _restore(cls, spec, classes, scaler, n_features, scalars, arrays):
        return cls(spec, classes, scaler, arrays["centroids"])


def _train_nearest_centroid(spec: AlgorithmSpec, X, y_codes, classes) -> NearestCentroidModel:
    params = spec.resolved()
    scaler = None
    Z = X
    if params["standardize"]:
        scaler = standardize_fit(X)
        Z = scaler.transform(X)
    centroids = np.vstack([Z[y_codes == c].mean(axis=0) for c in range(len(classes))])
    return NearestCentroidModel(spec, classes, scaler, centroids)


register_algorithm(KNN, _train_knn, KnnModel)
register_algorithm(NEAREST_CENTROID, _train_nearest_centroid, NearestCentroidModel)
